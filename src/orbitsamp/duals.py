"""The pseudo-inverse dual family and the frame constants, shared by the models.

Each model decides recoverability on matrices ``A``: the cyclic sample
matrix ``R``, or one spectral matrix per grid point (shift) or section point
(lca).  Its duals are the left-inverse family ``pinv(A) + U (I - A pinv(A))``.
One thin SVD gives both the singular values behind the verdict, which is
``sigma_min / sigma_max`` over all the matrices in every model, and the
pseudo-inverse; the shift grid takes it point by point, only where the
certificate of its Gram solve refuses the point (``spectral.dual_field``).
The shift grid and the lca section are first scaled exactly by
``2**scale_exponent``: their Gram matrices neither overflow nor underflow at
any finite scale.  The duals of both orbit models (cyclic and lca) are one
``OrbitDual``: the orbit of ``s`` dual generators under the sample group.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .hilbert import RANK_TOL, DimensionMismatch, as_cvector

__all__ = ["FrameConstants", "FrameError", "DualFamily", "OrbitDual", "family_member",
           "frame_bounds", "check_frame", "shifted_columns"]

PINV_RCOND = 1e-15
SAFE_EXPONENT = 200  # Gram matrices of entries up to 2**±200 stay normal floats


def scale_exponent(A):
    """``k`` with ``2**k max|A|`` in ``[0.5, 1)``, or 0 when ``max|A|`` is 0 or
    within ``2**±SAFE_EXPONENT``; clamped to ``±1022`` so that scaling by the
    normal float ``2.0**k`` is exact."""
    k = -math.frexp(np.abs(A).max())[1]
    return 0 if abs(k) <= SAFE_EXPONENT else min(max(k, -1022), 1022)


class FrameConstants(NamedTuple):
    """Grid extremes of the spectrum of ``G* G`` (lower/upper estimates) and
    ``sigma_ratio = sigma_min / sigma_max``, 0 when ``beta_G`` is; the ratio
    holds also where the extremes round to 0 or ``inf``."""

    alpha_G: float
    beta_G: float
    det_min: float
    sigma_ratio: float


class FrameError(ValueError):
    """A refusal of the duals, worded where it is decided as the one line that the
    CLI prints: the matrices fail the frame test (not uniformly of full column
    rank), or their duals leave the float range (``finite_duals``).  The cyclic
    rank and left-inverse refusals and the shift truncation refusal subclass it."""


def check_frame(ratio, threshold=RANK_TOL):
    """Raise ``FrameError`` unless ``ratio = sigma_min/sigma_max`` exceeds ``threshold``."""
    if not ratio > threshold:
        raise FrameError(f"not recoverable: sigma_min/sigma_max = {ratio:.3e} <= {threshold:.1e}")


def finite_duals(duals):
    """``duals``, unless an entry is not finite: a dual beyond the float range is refused."""
    if not np.isfinite(duals).all():
        raise FrameError("not recoverable: the duals leave the float range")
    return duals


def frame_bounds(eigs, exponent=0):
    """Frame constants from the eigenvalues of ``G* G`` at each point (last axis);
    those of ``G 2**exponent`` are scaled back.  Each root of the ratio is taken
    first: the quotient of the squares can underflow where the ratio does not."""
    eigs = np.asarray(eigs, dtype=float)
    low, high = float(eigs.min()), float(eigs.max())
    with np.errstate(over="ignore", under="ignore"):
        det = float(np.prod(eigs, axis=-1).min())
        alpha_G, beta_G, det_min = (float(np.ldexp(v, -2 * exponent * n)) for v, n in
                                    ((low, 1), (high, 1), (det, eigs.shape[-1])))
    ratio = math.sqrt(low) / math.sqrt(high) if high > 0 else 0.0
    return FrameConstants(alpha_G, beta_G, det_min, ratio)


class DualFamily:
    """One thin SVD of a matrix, or of a stack of matrices, as LAPACK returns it.

    The SVD is of ``A 2**exponent``: ``u``, ``singular_values`` (descending per
    matrix) and ``vh``.  ``pinv`` (of ``A``) drops the values at or below
    ``1e-15`` times the largest, as ``np.linalg.pinv`` does; it is formed on
    first read.
    """

    def __init__(self, A, exponent=0):
        self.matrices = np.asarray(A, dtype=complex)
        self.exponent = exponent
        self.u, self.singular_values, self.vh = np.linalg.svd(self.matrices * 2.0**exponent,
                                                              full_matrices=False)

    @property
    def gram_eigenvalues(self):
        """Eigenvalues of the Gram matrices of ``A 2**exponent``, descending per
        matrix: the squared singular values, then a zero for each column beyond the rows."""
        sv = self.singular_values
        zeros = np.zeros(sv.shape[:-1] + (self.matrices.shape[-1] - sv.shape[-1],))
        return np.concatenate((sv**2, zeros), axis=-1)

    @cached_property
    def pinv(self):
        sv = self.singular_values
        with np.errstate(over="ignore", invalid="ignore"):  # refused by ``finite_duals``
            scale = np.divide(2.0**self.exponent, sv, out=np.zeros_like(sv),
                              where=sv > PINV_RCOND * sv[..., :1])
            # pinv = V S^+ U^H, the adjoint of U S^+ V^H
            pinv = np.conjugate((self.u * scale[..., None, :]) @ self.vh).swapaxes(-1, -2)
        return finite_duals(pinv)


def family_member(A, pinv, U):
    """``pinv + U (I - A pinv)``, a left inverse wherever ``A`` has full column rank.

    ``U`` is one ``cols x rows`` matrix or one per stacked matrix of ``A``.
    """
    U = np.asarray(U, dtype=complex)
    rows, cols = A.shape[-2:]
    if U.shape[-2:] != (cols, rows):
        raise DimensionMismatch(f"U must have shape {(cols, rows)}, got {U.shape}")
    return pinv + U @ (np.eye(rows) - A @ pinv)


def shifted_columns(first, shifts):
    """``A[:, j*m + q] = first[shifts[:, q], j]`` for the ``m`` columns of ``shifts``:
    one gather, whose result is the transpose of the rows ``np.take`` lays out."""
    return np.take(first.T, shifts.T, axis=1).reshape(-1, len(shifts)).T


class OrbitDual:
    """The dual frame of an orbit model, ``x = sum_{j,m} y_j(m) T^m c_j``: column ``j``
    of ``first`` holds the orbit coefficients of ``c_j`` over the orbit matrix
    ``orbit``, and ``shifts`` is the table of the orbit index of ``h - m``; nothing
    else of the design is kept.  Those of ``T^m c_j`` are those of ``c_j`` read at
    ``h - m``, so ``coefficients`` (columns ``(j, m)``, sampler-major) is one gather.
    ``vectors`` (row ``j`` is ``c_j``) and ``coefficients`` are formed on first read;
    ``vectors`` raises ``FrameError`` when one leaves the float range."""

    def __init__(self, first, orbit, shifts):
        self.first, self.orbit, self.shifts = first, orbit, shifts

    @cached_property
    def vectors(self):
        with np.errstate(over="ignore", invalid="ignore"):  # refused by ``finite_duals``
            return finite_duals(self.orbit @ self.first).T

    @cached_property
    def coefficients(self):
        return shifted_columns(self.first, self.shifts)

    def reconstruct(self, samples):
        """``(x, alpha)``: the orbit coefficients ``alpha = coefficients @ samples``
        and ``x = orbit @ alpha``; the samples are sampler-major, ``s*m`` of them."""
        samples = as_cvector(samples)
        s, m = self.first.shape[1], self.shifts.shape[1]
        if samples.size != s * m:
            raise DimensionMismatch(f"sample count {samples.size} does not match "
                                    f"s*m = {s}*{m} = {s * m}")
        alpha = self.coefficients @ samples
        return self.orbit @ alpha, alpha
