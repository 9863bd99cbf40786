"""Integral-kernel picture of the algebra: twisted convolution on the plane.

An element acts on L^2(R^2) through
    (A phi)(x) = 1/(2 pi l^2) * integral dy f_A(y - x) Phi(x, y) phi(y)
with Phi the magnetic phase factor and f_A the kernel function obtained from
the coefficients by f_A = sqrt(2 pi) l * sum (-1)^(j-k) a_{j,k} psi_{k,j}.
Quadrature matrix elements of this action (``gram_via_kernel``) are the
oracle tying the coefficient algebra to honest operators on the plane.

The quadrature is a tensor Gauss-Legendre sum over x = (t_a, t_b) and
y = (t_c, t_d), and its kernel factors axis by axis: the Gaussian of f_A is
g[a,c] g[b,d], the phase is Phi(x, y) = E[a,d] conj(E[b,c]) with
E[p,q] = exp(i t_p t_q / 2l^2), and f_A / psi_{0,0} is a polynomial in
y - x.  ``gram_via_kernel`` contracts that product of 1-D tables one axis at
a time, so it adds the same terms at the same nodes and weights as the
pointwise double sum without evaluating the kernel at any node pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi

import numpy as np

from .algebra import MagneticElement
from .basis import (QuadratureScheme, _basis_over_psi00, _basis_over_psi00_monomials,
                    _polar_parts, default_radius, eval_basis_function, magnetic_length)

__all__ = [
    "KernelFunction",
    "magnetic_phase",
    "kernel_of",
    "gram_via_kernel",
    "trace_per_unit_volume",
]


def magnetic_phase(x, y, lb: float = 1.0):
    """Phi(x, y) = exp(i (x1 y2 - x2 y1) / (2 l^2)); Phi(x,y) Phi(y,x) = 1."""
    lb = magnetic_length(lb)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wedge = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    return np.exp(0.5j * wedge / lb**2)


@dataclass(frozen=True)
class KernelFunction:
    """Finite expansion of a kernel function over the basis family.

    ``terms`` is a tuple of ((n, m), coefficient) pairs meaning
    f = sum c * psi_{n, m};  ``norm_sq`` is the exact L^2 norm squared
    2 pi l^2 sum |a_{j,k}|^2.
    """

    terms: tuple
    lb: float
    norm_sq: float

    def __call__(self, x):
        u, zeta, psi00 = _polar_parts(x, self.lb)
        out = np.zeros(np.shape(u), dtype=complex)
        for (n, m), c in self.terms:
            out += c * _basis_over_psi00(n, m, u, zeta)
        out *= psi00
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("kernel function evaluated non-finite")
        if out.ndim == 0:
            return complex(out)
        return out


def kernel_of(a: MagneticElement) -> KernelFunction:
    """The kernel function of an element; f_A(0) equals the trace."""
    pref = np.sqrt(2.0 * pi) * a.lb
    terms = []
    nsq = 0.0
    for (j, k), c in sorted(a.coeffs().items()):
        sign = -1.0 if (j - k) % 2 else 1.0
        terms.append(((k, j), pref * sign * c))
        nsq += abs(c) ** 2
    return KernelFunction(tuple(terms), a.lb, 2.0 * pi * a.lb**2 * nsq)


def _axis_tables(f: KernelFunction, t: np.ndarray):
    """1-D factor tables of f(y - x) Phi(x, y) on the tensor grid of nodes t.

    With x = (t_a, t_b), y = (t_c, t_d) and v = (y - x)/(sqrt2 l),
        f(y - x) Phi(x, y) = sum_{r,s} D[r,s] Z[r][a,c] Z[s][b,d] E[a,d] conj(E[b,c])
    where Z[r][p,q] = v^r exp(-(t_q - t_p)^2 / 4l^2) and E[p,q] = exp(i t_p t_q / 2l^2);
    D carries the term coefficients and psi_{0,0}'s normalization.
    """
    lb = f.lb
    deg = max((n + m for (n, m), _ in f.terms), default=0)
    D = np.zeros((deg + 1, deg + 1), dtype=complex)
    for (n, m), c in f.terms:
        D[: n + m + 1, : n + m + 1] += c * _basis_over_psi00_monomials(n, m)
    D /= np.sqrt(2.0 * pi) * lb
    diff = t[None, :] - t[:, None]
    v = diff / (np.sqrt(2.0) * lb)
    g = np.exp(-diff**2 / (4.0 * lb**2))
    Z = np.stack([v**r * g for r in range(deg + 1)])
    E = np.exp(0.5j * np.outer(t, t) / lb**2)
    if not all(np.all(np.isfinite(tab)) for tab in (D, Z, E)):
        raise FloatingPointError("kernel quadrature tables are non-finite")
    return D, Z, E


def gram_via_kernel(a: MagneticElement, bras, kets,
                    scheme: QuadratureScheme | None = None) -> np.ndarray:
    """Matrix of <psi_bra, A psi_ket> with A acting through its kernel.

    The tensor Gauss-Legendre sum over x = (t_a, t_b) and y = (t_c, t_d) of
    conj(psi_bra(x)) w(x) f(y - x) Phi(x, y) psi_ket(y) w(y) / (2 pi l^2),
    with the kernel split into ``_axis_tables``.  For each power s of
    v2 = (t_d - t_b)/(sqrt2 l) the kets are contracted over d against
    E[a,d] Z[s][b,d] (one matmul), then against the bras times
    sum_r D[r,s] Z[r][a,c] conj(E[b,c]) over (c, a, b).  Every term of the
    pointwise sum appears once, so this is the same quadrature, reordered; no
    array larger than (labels x nodes^3) is formed.
    """
    lb = a.lb
    if scheme is None:
        hi = max(max(n, m) for (n, m) in list(bras) + list(kets)) + 1
        scheme = QuadratureScheme(default_radius(hi, hi))
    t, _ = scheme.nodes_1d(lb)
    pts, w = scheme.grid(lb)
    nt = len(t)
    # rows (ket, c), columns d; and [bra, 1, a, b] to broadcast over c
    ket = np.stack([eval_basis_function(kk, pts, lb) * w for kk in kets]).reshape(-1, nt)
    bra = np.stack([np.conj(eval_basis_function(bb, pts, lb)) * w
                    for bb in bras]).reshape(len(bras), 1, nt, nt)
    D, Z, E = _axis_tables(kernel_of(a), t)
    out = np.zeros((len(bras), len(kets)), dtype=complex)
    for s in range(len(D)):
        # T[(k, c), (a, b)] = sum_d ket[k, c, d] E[a, d] Z[s][b, d]
        T = ket @ (E[:, None, :] * Z[s][None, :, :]).reshape(nt * nt, nt).T
        # [bra, c, a, b] = bra[a, b] R[a, c] conj(E[b, c]), R = sum_r D[r, s] Z[r]
        R = np.tensordot(D[:, s], Z, axes=1)
        W = bra * (R.T[:, :, None] * np.conj(E).T[:, None, :])
        out += W.reshape(len(bras), -1) @ T.reshape(len(kets), -1).T
    out /= 2.0 * pi * lb**2
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("kernel quadrature is non-finite")
    return out


def trace_per_unit_volume(a: MagneticElement, box_side: float,
                          n_boxes: int) -> list[float]:
    """2 pi l^2 Tr(chi A chi)/|box| over a growing family of centered squares.

    The kernel diagonal k(x, x) = f_A(0) Phi(x, x) / (2 pi l^2) is integrated
    by quadrature over each box; the sequence is constant and recovers the
    algebra trace.  Returns real parts (the imaginary part of the trace of a
    general element is carried by f_A(0) itself and reported by trace_int).
    """
    if not (box_side > 0 and isfinite(box_side)) or n_boxes < 1:
        raise ValueError("need a positive, finite box side and at least one box")
    f = kernel_of(a)
    vals = []
    x, wts = np.polynomial.legendre.leggauss(32)
    for t in range(1, n_boxes + 1):
        half = 0.5 * box_side * t
        nodes = x * half
        w2 = np.outer(wts, wts).ravel() * half * half
        g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
        pts = np.stack([g1.ravel(), g2.ravel()], axis=-1)
        diag = f(np.zeros_like(pts)) * magnetic_phase(pts, pts, a.lb)
        area = (2.0 * half) ** 2
        box_trace = np.sum(w2 * diag) / (2.0 * pi * a.lb**2)
        vals.append(float((2.0 * pi * a.lb**2 * box_trace / area).real))
    return vals
