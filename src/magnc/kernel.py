"""Integral-kernel picture of the algebra: twisted convolution on the plane.

An element acts on L^2(R^2) through
    (A phi)(x) = 1/(2 pi l^2) * integral dy f_A(y - x) Phi(x, y) phi(y)
with Phi the magnetic phase factor and f_A the kernel function obtained from
the coefficients by f_A = sqrt(2 pi) l * sum (-1)^(j-k) a_{j,k} psi_{k,j}.
Quadrature matrix elements of this action (``gram_via_kernel``) are the
oracle tying the coefficient algebra to honest operators on the plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .algebra import MagneticElement
from .basis import (QuadratureScheme, _basis_over_psi00, _polar_parts, default_radius,
                    eval_basis_function)

__all__ = [
    "KernelFunction",
    "magnetic_phase",
    "kernel_of",
    "gram_via_kernel",
    "trace_per_unit_volume",
]


def magnetic_phase(x, y, lb: float = 1.0):
    """Phi(x, y) = exp(i (x1 y2 - x2 y1) / (2 l^2)); Phi(x,y) Phi(y,x) = 1."""
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


def gram_via_kernel(a: MagneticElement, bras, kets,
                    scheme: QuadratureScheme | None = None) -> np.ndarray:
    """Matrix of <psi_bra, A psi_ket> with A acting through its kernel.

    Both integrals run on one tensor grid; the (nodes^2 x nodes^2) kernel
    application is contracted in row blocks against all kets at once.
    """
    lb = a.lb
    if scheme is None:
        hi = max(max(n, m) for (n, m) in list(bras) + list(kets)) + 1
        scheme = QuadratureScheme(default_radius(hi, hi))
    f = kernel_of(a)
    pts, w = scheme.grid(lb)
    ket_mat = np.stack([eval_basis_function(kk, pts, lb) * w for kk in kets])
    bra_mat = np.stack([np.conj(eval_basis_function(bb, pts, lb)) * w for bb in bras])
    out = np.zeros((len(bras), len(kets)), dtype=complex)
    chunk = 128
    for lo in range(0, len(pts), chunk):
        xs = pts[lo : lo + chunk]
        fv = f(pts[None, :, :] - xs[:, None, :])
        ph = magnetic_phase(xs[:, None, :], pts[None, :, :], lb)
        applied = (fv * ph) @ ket_mat.T / (2.0 * pi * lb**2)
        out += bra_mat[:, lo : lo + chunk] @ applied
    return out


def trace_per_unit_volume(a: MagneticElement, box_side: float,
                          n_boxes: int) -> list[float]:
    """2 pi l^2 Tr(chi A chi)/|box| over a growing family of centered squares.

    The kernel diagonal k(x, x) = f_A(0) Phi(x, x) / (2 pi l^2) is integrated
    by quadrature over each box; the sequence is constant and recovers the
    algebra trace.  Returns real parts (the imaginary part of the trace of a
    general element is carried by f_A(0) itself and reported by trace_int).
    """
    if box_side <= 0 or n_boxes < 1:
        raise ValueError("need a positive box side and at least one box")
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
