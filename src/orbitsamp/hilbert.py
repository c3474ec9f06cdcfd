"""Finite-dimensional model of the ambient space.

Complex vectors, invertible operators with a stored inverse and the integer
powers their callers ask for, and the cross-correlation sequences
``r(k) = <T^k a, b>`` that drive the sampling constructions.

Everything here is side-effect free; an operator only memoizes the powers it
is asked for, so callers may evaluate powers and correlations in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RANK_TOL",
    "DimensionMismatch",
    "LinearOperator",
    "CrossCorrelation",
    "cross_correlation",
]

RANK_TOL = 1e-10


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
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


class LinearOperator:
    """Invertible operator on C^dim with a stored inverse and power table.

    The inverse is computed once at construction; negative powers are powers
    of it rather than solves per call; its residual, within ``1e-10``, also
    certifies ``sigma_min/sigma_max > RANK_TOL``.  Only the exponents callers
    ask for are kept (only ``cyclic.take_samples`` asks, for ``T^{-r}``), each
    built by repeated squaring.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        dim = m.shape[0]
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:  # exactly singular: the SVD below says so
            inv = np.full_like(m, np.nan)
        resid = np.max(np.abs(inv @ m - np.eye(dim)))
        # ||inv @ m - I||_2 <= dim * resid, so sigma_min/sigma_max is at least
        # (1 - dim * resid) / (||m||_F ||inv||_F); only when that is inconclusive
        # does a values-only SVD decide, its singular test ahead of the residual's
        bound = (1 - dim * resid) / (np.linalg.norm(m) * np.linalg.norm(inv))
        if not (resid <= 1e-10 and bound > RANK_TOL):
            message = "matrix is numerically singular (sigma_min/sigma_max = {:.3e})"
            require_full_rank(m, ValueError, message)
            if not resid <= 1e-10:
                raise ValueError(f"inverse verification failed (residual {resid:.3e})")
        self.matrix = m
        self.inv_matrix = inv
        self.dim = dim
        self._powers = {1: m, -1: inv}

    @property
    def adjoint(self):
        return self.matrix.conj().T

    def power(self, k):
        """Matrix of T^k by repeated squaring, kept for the next call."""
        k = int(k)
        if k not in self._powers:
            base = self.matrix if k >= 0 else self.inv_matrix
            self._powers[k] = np.linalg.matrix_power(base, abs(k))
        return self._powers[k]

    def apply_power(self, k, v):
        v = as_cvector(v, self.dim)
        if k == 0:
            return v
        return self.power(k) @ v

    def __repr__(self):
        return f"LinearOperator(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class CrossCorrelation:
    """Values of ``<T^k a, b>`` on a contiguous window of integers ``k``.

    When ``period`` is set, lookups reduce the index modulo the period into
    the stored window, which must then cover at least one full period.
    """

    k_start: int
    values: np.ndarray
    period: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=complex))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("window must be a nonempty vector")
        if self.period is not None:
            if self.period < 1:
                raise ValueError("period must be positive")
            if self.values.size < self.period:
                raise ValueError("window must cover at least one full period")
            scale = max(np.max(np.abs(self.values)), 1.0)
            for i in range(self.values.size - self.period):
                if abs(self.values[i] - self.values[i + self.period]) > 1e-8 * scale:
                    raise ValueError("stored window is not consistent with the declared period")

    def window(self):
        return range(self.k_start, self.k_start + self.values.size)

    def at(self, k):
        i = k - self.k_start
        if self.period is not None:
            i %= self.period
        if not 0 <= i < self.values.size:
            raise IndexError(f"index {k} outside the stored window")
        return complex(self.values[i])


def cross_correlation(op, a, b, k_range, *, period=None):
    """Sequence ``r(k) = <T^k a, b>`` over a contiguous range of powers.

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
    return CrossCorrelation(k_start=ks[0], values=vals, period=period)
