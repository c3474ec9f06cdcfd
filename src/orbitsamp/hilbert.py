"""Finite-dimensional model of the ambient space.

Complex vectors, the full-rank test the models share, operators with the
powers their callers ask for (the models certify them on an orbit), and the
cross-correlation sequence ``r(k) = <T^k a, b>`` over a range of powers.
The models form these correlations as matrix products instead (the cyclic
sample matrix is ``S^H O`` for the orbit matrix ``O``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "RANK_TOL",
    "RESIDUAL_FLAG",
    "LEFT_INVERSE_TOL",
    "ORBIT_LAW_TOL",
    "DimensionMismatch",
    "LinearOperator",
    "cross_correlation",
]

RANK_TOL = 1e-10
# relative error of a reconstruction, against a truth or round trip, that passes
RESIDUAL_FLAG = 1e-6
LEFT_INVERSE_TOL = 1e-10  # max |X A - I| for a left inverse X of A; RANK_TOL is separate
# the orbit law T O = O P of either model, relative to the entry scale of its two sides
ORBIT_LAW_TOL = 1e-8


class DimensionMismatch(ValueError):
    pass


def require_full_rank(matrix, error, message):
    """Raise ``error(message.format(ratio))`` when ``ratio = sigma_min/sigma_max``
    of a values-only SVD of ``matrix`` is at most ``RANK_TOL``."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise error(message.format(sv[-1] / sv[0] if sv[0] > 0 else 0.0))


def as_cvector(v, dim=None):
    """Coerce to a 1-d complex array, optionally checking its dimension."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


class LinearOperator:
    """Finite square matrix on C^dim, and the inverse and powers asked for.

    The inverse is formed when ``inv_matrix`` or a negative power is first
    read; its residual, within ``LEFT_INVERSE_TOL``, also certifies
    ``sigma_min/sigma_max > RANK_TOL``, and a values-only SVD decides only
    when that bound is inconclusive.  ``power`` keeps each ``T^k`` it forms; only
    ``cyclic.take_samples`` asks, for ``T^{-r}``.  A complex ``matrix`` is
    held as given, not copied: it must not change after construction.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        self.matrix = m
        self.dim = m.shape[0]
        self._powers = {1: m}

    @cached_property
    def inv_matrix(self):
        m, dim = self.matrix, self.dim
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:  # exactly singular: the SVD below says so
            inv = np.full_like(m, np.nan)
        resid = np.max(np.abs(inv @ m - np.eye(dim)))
        # ||inv @ m - I||_2 <= dim * resid, so sigma_min/sigma_max is at least
        # (1 - dim * resid) / (||m||_F ||inv||_F); only when that is inconclusive
        # does a values-only SVD decide, its singular test ahead of the residual's
        bound = (1 - dim * resid) / (np.linalg.norm(m) * np.linalg.norm(inv))
        if not (resid <= LEFT_INVERSE_TOL and bound > RANK_TOL):
            message = "matrix is numerically singular (sigma_min/sigma_max = {:.3e})"
            require_full_rank(m, ValueError, message)
            if not resid <= LEFT_INVERSE_TOL:
                raise ValueError(f"inverse verification failed (residual {resid:.3e})")
        return inv

    def power(self, k):
        """Matrix of T^k by repeated squaring, kept for the next call."""
        k = int(k)
        if k not in self._powers:
            base = self.matrix if k >= 0 else self.inv_matrix
            self._powers[k] = np.linalg.matrix_power(base, abs(k))
        return self._powers[k]

    def __repr__(self):
        return f"LinearOperator(dim={self.dim})"


def cross_correlation(op, a, b, k_range):
    """Values of ``r(k) = <T^k a, b>`` for ``k`` over a contiguous range, in order.

    One vector steps from ``a`` to ``T^{k_start} a`` and then through the
    range, so no power matrix is formed.
    """
    ks = list(k_range)
    if not ks:
        raise ValueError("k_range must be nonempty")
    if any(ks[i + 1] - ks[i] != 1 for i in range(len(ks) - 1)):
        raise ValueError("k_range must be contiguous ascending integers")
    v = as_cvector(a, op.dim)
    b = as_cvector(b, op.dim)
    lead = op.matrix if ks[0] >= 0 else op.inv_matrix
    for _ in range(abs(ks[0])):
        v = lead @ v
    vals = np.empty(len(ks), dtype=complex)
    for i in range(len(ks)):
        vals[i] = np.vdot(b, v)
        v = op.matrix @ v
    return vals
