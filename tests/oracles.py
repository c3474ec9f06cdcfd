"""Reference computations the tests compare the package against.

Each is the direct textbook form of a quantity the package computes by a
faster or structured route: dense inner products and Gram matrices, an
entrywise r-circulant check, and a projection by the normal equations.
"""

import numpy as np

from orbitsamp.cyclic import RankDeficiencyError
from orbitsamp.hilbert import DimensionMismatch, as_cvector


def inner(x, y):
    """Standard complex inner product, conjugate-linear in the second slot."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    return complex(np.vdot(y, x))


def gram_matrix(vectors):
    """Gram matrix with entry ``(k, l) = <v_l, v_k>``; Hermitian PSD."""
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    dim = np.asarray(vectors[0]).shape[0]
    cols = [as_cvector(v, dim) for v in vectors]
    V = np.column_stack(cols)
    return V.conj().T @ V


def is_r_circulant(C, block_rows, r, *, col_periods=None, tol=1e-12):
    """Whether every ``block_rows``-row block advances by ``r`` per row.

    Checks ``C[m, k] == C[m-1, k-r]`` with the row index wrapping inside its
    block and the column index wrapping inside each period block (a single
    full-width block by default).
    """
    C = np.asarray(C, dtype=complex)
    rows, cols = C.shape
    if block_rows < 1 or rows % block_rows != 0:
        raise ValueError("row count must be a multiple of block_rows")
    if col_periods is None:
        col_periods = [cols]
    if sum(col_periods) != cols:
        raise ValueError("column periods must tile the column count")
    target = np.empty_like(C)
    for i in range(rows // block_rows):
        blk = C[i * block_rows : (i + 1) * block_rows]
        target[i * block_rows : (i + 1) * block_rows] = np.roll(blk, 1, axis=0)
    off = 0
    for Nl in col_periods:
        target[:, off : off + Nl] = np.roll(target[:, off : off + Nl], r % Nl, axis=1)
        off += Nl
    return bool(np.max(np.abs(C - target)) <= tol)


def project_onto_subspace(spec, v):
    """Orthogonal projection onto the orbit span via the normal equations."""
    v = as_cvector(v, spec.operator.dim)
    B = spec.orbit_matrix()
    G = B.conj().T @ B
    try:
        gamma = np.linalg.solve(G, B.conj().T @ v)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("orbit Gram matrix is singular") from exc
    return B @ gamma
