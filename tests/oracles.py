"""Lattice-sized reference constructions shared by the tests."""

import scipy.sparse as sp

from magnc.basis import number_ladders


def momentum_matrix(which: str, n_max: int, m_max: int) -> sp.csr_matrix:
    """Matrix of one momentum on the truncated (n, m) lattice.

    Layout: index = m * n_max + n (degeneracy-major).  The matrices are
    dimensionless (coordinates in units of l), hence independent of lb.
    """
    if n_max < 2 or m_max < 2:
        raise ValueError("truncation sizes must be >= 2")
    if which in ("K1", "K2"):
        return sp.kron(sp.identity(m_max), number_ladders(n_max, which), format="csr")
    if which in ("G1", "G2"):
        return sp.kron(number_ladders(m_max, which), sp.identity(n_max), format="csr")
    raise ValueError(f"unknown momentum {which!r}")
