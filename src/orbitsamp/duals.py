"""The pseudo-inverse dual family and the frame constants, shared by the models.

Each model decides recoverability on matrices ``A``: the cyclic sample
matrix ``R``, or one spectral matrix per grid point (shift) or section point
(lca).  Its duals are the left-inverse family ``pinv(A) + U (I - A pinv(A))``.
One thin SVD gives both the singular values behind the verdict, which is
``sigma_min / sigma_max`` over all the matrices in every model, and the
pseudo-inverse; the shift grid takes it only at doubtful points, none when
its Gram solve certifies the grid (``spectral.dual_field``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import RANK_TOL, DimensionMismatch

__all__ = [
    "FrameConstants", "FrameError", "DualFamily", "family_member", "frame_bounds", "check_frame"
]

PINV_RCOND = 1e-15


@dataclass(frozen=True)
class FrameConstants:
    """Grid extremes of the spectrum of ``G* G`` (lower/upper estimates) and
    ``sigma_ratio = sigma_min / sigma_max``, which is 0 when ``beta_G`` is."""

    alpha_G: float
    beta_G: float
    det_min: float

    @property
    def sigma_ratio(self):
        return math.sqrt(self.alpha_G / self.beta_G) if self.beta_G > 0 else 0.0


class FrameError(ValueError):
    """The matrices fail the frame test: they are not uniformly of full column rank."""


def check_frame(fc, threshold=RANK_TOL):
    """Raise ``FrameError`` unless ``fc.sigma_ratio`` exceeds ``threshold``."""
    if not fc.sigma_ratio > threshold:
        raise FrameError(
            f"not recoverable: sigma_min/sigma_max = {fc.sigma_ratio:.3e} <= {threshold:.1e}"
        )


def frame_bounds(eigs, width=None):
    """Frame constants from the eigenvalues of ``G* G`` at each point (last axis).

    The squared singular values of ``G`` serve as well; ``width`` is then the
    column count of ``G``, and a point with fewer values than columns (a
    wide ``G``) has its missing eigenvalues at zero.
    """
    eigs = np.asarray(eigs, dtype=float)
    wide = width is not None and eigs.shape[-1] < width
    return FrameConstants(
        alpha_G=0.0 if wide else float(eigs.min()),
        beta_G=float(eigs.max()),
        det_min=0.0 if wide else float(np.prod(eigs, axis=-1).min()),
    )


class DualFamily:
    """One thin SVD of a matrix, or of a stack of matrices, and its dual family.

    ``singular_values`` are descending per matrix.  ``pinv`` drops those at
    or below ``1e-15`` times the largest, as ``np.linalg.pinv`` does, and is
    formed in the storage of the SVD's left factor when the shapes allow.
    """

    def __init__(self, A):
        self.matrices = np.asarray(A, dtype=complex)
        u, sv, vh = np.linalg.svd(self.matrices, full_matrices=False)
        kept = sv > PINV_RCOND * sv[..., :1]
        u *= np.divide(1.0, sv, out=np.zeros_like(sv), where=kept)[..., None, :]
        # pinv = V S^+ U^H, the adjoint of U S^+ V^H
        out = u if u.shape == self.matrices.shape else None
        self.pinv = np.conjugate(u @ vh, out=out).swapaxes(-1, -2)
        self.singular_values = sv

    def frame(self):
        """Frame constants from the singular values; a wide matrix has ``alpha_G = 0``."""
        return frame_bounds(self.singular_values**2, self.matrices.shape[-1])

    def member(self, U=None):
        """``pinv + U (I - A pinv)``; without ``U`` the member is ``pinv`` itself."""
        return self.pinv if U is None else family_member(self.matrices, self.pinv, U)


def family_member(A, pinv, U):
    """``pinv + U (I - A pinv)``, a left inverse wherever ``A`` has full column rank.

    ``U`` is one ``cols x rows`` matrix or one per stacked matrix of ``A``.
    """
    U = np.asarray(U, dtype=complex)
    rows, cols = A.shape[-2:]
    if U.shape[-2:] != (cols, rows):
        raise DimensionMismatch(f"U must have shape {(cols, rows)}, got {U.shape}")
    return pinv + U @ (np.eye(rows) - A @ pinv)
