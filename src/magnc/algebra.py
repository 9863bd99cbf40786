"""Exact arithmetic on finitely supported elements of the magnetic algebra.

An element A = sum a_{j,k} Y_{j->k} is stored through its operator block
M[k, j] = a_{j,k} acting on the Landau-level index (Y_{j->k} maps level j to
level k and is diagonal in the degeneracy index).  Products, adjoints, the
trace and the two spatial derivations are finite exact computations on
that block.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import sqrt
from numbers import Integral

import numpy as np

from .basis import magnetic_length, number_ladders, require_same_length

__all__ = [
    "TruncationError",
    "MagneticElement",
    "UnitalElement",
    "upsilon",
    "landau_projection",
    "projection_sum",
    "zero_element",
    "compose",
    "trace_int",
    "spatial_derivative",
    "random_element",
    "hermitize",
    "conjugated_projection",
    "is_projection",
    "element_to_records",
    "element_from_records",
]


class TruncationError(ValueError):
    """An element's support, or a computation, does not fit its truncation."""


class MagneticElement:
    """Finitely supported element of the magnetic algebra.

    Immutable: ``block`` is a read-only copy of the coefficients it was
    built from, no attribute can be rebound, and ``support_bound``, K(A) =
    one plus the largest index carrying a nonzero coefficient, is found once
    at construction.
    """

    __slots__ = ("block", "lb", "support_bound")

    def __init__(self, block, lb=1.0):
        block = np.atleast_2d(np.array(block, dtype=complex))
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise ValueError("coefficient block must be square")
        if not np.all(np.isfinite(block)):
            raise ValueError("coefficients must be finite")
        block.flags.writeable = False
        rows, cols = np.nonzero(block)
        support = int(max(rows.max(), cols.max())) + 1 if len(rows) else 0
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "lb", magnetic_length(lb))
        object.__setattr__(self, "support_bound", support)

    def __setattr__(self, name, value):
        raise AttributeError(f"MagneticElement is immutable: cannot set {name!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: dict, lb=1.0) -> "MagneticElement":
        """Build from a map (j, k) -> a_{j,k}."""
        if not coeffs:
            return cls(np.zeros((1, 1), dtype=complex), lb)
        size = 1 + max(max(j, k) for (j, k) in coeffs)
        block = np.zeros((size, size), dtype=complex)
        for (j, k), a in coeffs.items():
            if j < 0 or k < 0:
                raise ValueError("support indices must be nonnegative")
            block[k, j] += a
        return cls(block, lb)

    # -- views -------------------------------------------------------------

    def coeff(self, j: int, k: int) -> complex:
        """a_{j,k}, zero outside the stored block."""
        if j >= self.block.shape[1] or k >= self.block.shape[0]:
            return 0j
        return complex(self.block[k, j])

    def coeffs(self) -> dict:
        ks, js = np.nonzero(self.block)
        return {(int(j), int(k)): complex(self.block[k, j]) for k, j in zip(ks, js)}

    def padded(self, size: int) -> np.ndarray:
        """The block on exactly ``size`` levels: zero-padded, or cut past the
        support; a support beyond ``size`` raises TruncationError."""
        k = min(size, self.block.shape[0])
        if k < self.block.shape[0] and self.support_bound > size:
            raise TruncationError(f"support {self.support_bound} exceeds the window {size}")
        out = np.zeros((size, size), dtype=complex)
        out[:k, :k] = self.block[:k, :k]
        return out

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, MagneticElement):
            require_same_length(self.lb, other.lb, "elements")
            s = max(self.block.shape[0], other.block.shape[0])
            return MagneticElement(self.padded(s) + other.padded(s), self.lb)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, MagneticElement):
            return self + (-1.0) * other
        return NotImplemented

    def __mul__(self, c):
        if np.isscalar(c):
            return MagneticElement(self.block * c, self.lb)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other):
        if isinstance(other, MagneticElement):
            return compose(self, other)
        return NotImplemented

    def adjoint(self) -> "MagneticElement":
        return MagneticElement(self.block.conj().T, self.lb)

    def __repr__(self):
        return f"MagneticElement(support={self.support_bound}, lb={self.lb})"

    def allclose(self, other: "MagneticElement", tol: float = 1e-12) -> bool:
        s = max(self.block.shape[0], other.block.shape[0])
        return bool(np.allclose(self.padded(s), other.padded(s), atol=tol, rtol=tol))


def upsilon(j: int, k: int, lb=1.0) -> MagneticElement:
    """The transition operator Y_{j->k} as an element."""
    return MagneticElement.from_coeffs({(j, k): 1.0}, lb)


def landau_projection(j: int, lb=1.0) -> MagneticElement:
    """Projection onto the j-th Landau level, Pi_j = Y_{j->j}."""
    return upsilon(j, j, lb)


def projection_sum(js, lb=1.0) -> MagneticElement:
    """Sum of Landau projections Pi_j over the given levels."""
    return MagneticElement.from_coeffs({(j, j): 1.0 for j in js}, lb)


def zero_element(lb=1.0) -> MagneticElement:
    return MagneticElement(np.zeros((1, 1), dtype=complex), lb)


def compose(a: MagneticElement, b: MagneticElement) -> MagneticElement:
    """Operator product AB, (AB)_{m,k} = sum_j a_{j,k} b_{m,j}."""
    require_same_length(a.lb, b.lb, "elements")
    s = max(a.block.shape[0], b.block.shape[0])
    return MagneticElement(a.padded(s) @ b.padded(s), a.lb)


def trace_int(a: MagneticElement) -> complex:
    """The algebra trace: sum of the diagonal coefficients."""
    return complex(np.trace(a.block))


@lru_cache(maxsize=32)
def _k_ladders(size: int):
    """Dense K1, K2 on ``size`` levels as read-only complex arrays (K2's
    entries are real: a product with a complex block casts it anyway)."""
    ladders = number_ladders(size, "K1"), number_ladders(size, "K2").astype(complex)
    for k in ladders:
        k.flags.writeable = False
    return ladders


def spatial_derivative(a: MagneticElement, axis: int) -> MagneticElement:
    """The derivation along one coordinate, realized through K-commutators.

    With x1 = l (K2 - G1) and x2 = l (G2 - K1), and the G's commuting with
    the algebra, -i[x1, A] = -i l [K2, A] and -i[x2, A] = +i l [K1, A].
    Support grows by at most one level.
    """
    if axis not in (1, 2):
        raise ValueError("axis must be 1 or 2")
    s = max(a.support_bound + 1, 2)
    k1, k2 = _k_ladders(s)
    m = a.padded(s)
    if axis == 1:
        out = -1j * a.lb * (k2 @ m - m @ k2)
    else:
        out = 1j * a.lb * (k1 @ m - m @ k1)
    return MagneticElement(out, a.lb)


def random_element(seed: int, support_bound: int, magnitude: float = 1.0,
                   lb=1.0) -> MagneticElement:
    """Deterministic pseudo-random element supported below ``support_bound``."""
    if support_bound < 1:
        raise ValueError("support bound must be >= 1")
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((support_bound, support_bound))
    block = block + 1j * rng.standard_normal((support_bound, support_bound))
    return MagneticElement(magnitude * block / sqrt(2.0), lb)


def hermitize(a: MagneticElement) -> MagneticElement:
    return 0.5 * (a + a.adjoint())


def is_projection(p: MagneticElement, tol: float = 1e-10) -> bool:
    """P* = P = P^2 to ``tol``; an element whose square overflows is none."""
    m = p.block
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(m - m.conj().T).max(initial=0.0)
        idem = np.abs(m @ m - m).max(initial=0.0)
    return bool(herm <= tol and idem <= tol)


def conjugated_projection(seed: int, size: int, lb=1.0) -> MagneticElement:
    """U Pi_0 U* with U = exp(i H), H a seeded Hermitian block.

    U is unitary on the block and the identity outside, so the conjugation
    stays finitely supported and is an exact projection: the rank-one
    projection onto U e0 = V diag(e^{i lambda}) V* e0, from the
    eigendecomposition H = V diag(lambda) V*.
    """
    if size < 1:
        raise ValueError("block size must be >= 1")
    h = hermitize(random_element(seed, size, 1.0, lb))
    lam, v = np.linalg.eigh(h.padded(size))
    u0 = v @ (np.exp(1j * lam) * v[0].conj())
    return MagneticElement(np.outer(u0, u0.conj()), lb)


# ---------------------------------------------------------------------------
# Unitization: c*1 + A.
# ---------------------------------------------------------------------------

class UnitalElement:
    """Element c*1 + A of the unitized algebra."""

    __slots__ = ("scalar", "element")

    def __init__(self, scalar, element: MagneticElement):
        self.scalar = complex(scalar)
        self.element = element

    @classmethod
    def lift(cls, a) -> "UnitalElement":
        if isinstance(a, UnitalElement):
            return a
        if isinstance(a, MagneticElement):
            return cls(0.0, a)
        raise TypeError(f"cannot lift {type(a)!r} into the unitization")

    @classmethod
    def unit(cls, lb=1.0) -> "UnitalElement":
        return cls(1.0, zero_element(lb))

    @property
    def lb(self) -> float:
        return self.element.lb

    def __add__(self, other):
        other = UnitalElement.lift(other)
        return UnitalElement(self.scalar + other.scalar, self.element + other.element)

    def __mul__(self, c):
        if np.isscalar(c):
            return UnitalElement(c * self.scalar, c * self.element)
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = UnitalElement.lift(other)
        prod = (
            compose(self.element, other.element)
            + self.scalar * other.element
            + other.scalar * self.element
        )
        return UnitalElement(self.scalar * other.scalar, prod)

    def adjoint(self) -> "UnitalElement":
        return UnitalElement(np.conj(self.scalar), self.element.adjoint())

    def __repr__(self):
        return f"UnitalElement({self.scalar!r} * 1 + {self.element!r})"


# ---------------------------------------------------------------------------
# Serialization: list of (j, k, re, im) records.
# ---------------------------------------------------------------------------

def element_to_records(a: MagneticElement) -> list[dict]:
    return [
        {"j": j, "k": k, "re": float(v.real), "im": float(v.imag)}
        for (j, k), v in sorted(a.coeffs().items())
    ]


def element_from_records(records, lb=1.0) -> MagneticElement:
    """The element of (j, k, re, im) records.  Indices must be integers and
    coefficients numbers: a bool, float or string index and a bool
    coefficient raise TypeError instead of being coerced."""
    coeffs = {}
    for r in records:
        j, k, re, im = r["j"], r["k"], r["re"], r.get("im", 0.0)
        if not all(isinstance(i, Integral) and not isinstance(i, bool) for i in (j, k)):
            raise TypeError(f"element indices must be integers, got j={j!r}, k={k!r}")
        if isinstance(re, bool) or isinstance(im, bool):
            raise TypeError(f"element coefficients must be numbers, got re={re!r}, im={im!r}")
        key = (int(j), int(k))
        coeffs[key] = coeffs.get(key, 0j) + complex(re, im)
    return MagneticElement.from_coeffs(coeffs, lb)


def save_element(a: MagneticElement, path):
    with open(path, "w") as fh:
        json.dump(element_to_records(a), fh, indent=1)


def load_element(path, lb=1.0) -> MagneticElement:
    with open(path) as fh:
        return element_from_records(json.load(fh), lb)
