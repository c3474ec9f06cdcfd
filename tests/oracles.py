"""Reference computations the tests compare the package against.

Each is the direct textbook form of a quantity the package computes by a
faster or structured route: dense inner products and Gram matrices, the
sample matrix entry by entry, an entrywise r-circulant check, a projection
by the normal equations, the cyclic reconstruction sum by a Horner walk in
``T^r``, the coefficient map of an orbit dual by two loops, the characters
of a subgroup by ``np.unique`` over phase rows, the orbit law of a group
representation over all pairs of elements, an operator check that takes
its SVD first, the shift dual field over the whole grid at once (its verdict from
``frame_constants``, a solve or an SVD per point), the shift
reconstruction coefficients by one batched FFT over all samplers, and CSV
rows written by the ``csv`` module.  The finite-sequence helpers at the end
(a delta, the value at an index, the conjugate reversal, closeness and the
dual field of given sequences) build and compare the spectral test cases.
"""

import csv
import itertools
from fractions import Fraction

import numpy as np

from orbitsamp.cyclic import RankDeficiencyError
from orbitsamp.duals import DualFamily, check_frame, family_member, scale_exponent
from orbitsamp.hilbert import RANK_TOL, DimensionMismatch, as_cvector
from orbitsamp.spectral import (
    GRAM_DOUBT,
    TAIL_TOL,
    DualField,
    FiniteSequence,
    TailEnergyError,
    _nested_sequences,
    _translate_spectra,
    frame_constants,
)


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
    B = spec.orbit
    G = B.conj().T @ B
    try:
        gamma = np.linalg.solve(G, B.conj().T @ v)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("orbit Gram matrix is singular") from exc
    return B @ gamma


def sample_matrix(spec, scheme):
    """Entries as direct inner products ``<T^k a_l, (T*)^{-rn} b_j>``."""
    op = spec.operator
    adj_inv = np.linalg.inv(op.matrix.conj().T)
    rows = []
    for b in scheme.samplers:
        for n in range(scheme.ell):
            analyzer = np.linalg.matrix_power(adj_inv, scheme.r * n) @ b
            row = []
            for a, Nl in zip(spec.generators, spec.orders):
                v = a.copy()
                for _ in range(Nl):
                    row.append(inner(v, analyzer))
                    v = op.matrix @ v
            rows.append(row)
    return np.array(rows)


def horner_reconstruct(spec, scheme, basis, samples):
    """``sum_{j,n} samples(j, n) T^{r n} c_j`` by a Horner walk in ``T^r``."""
    samples = as_cvector(samples, scheme.s * scheme.ell)
    Tr = np.linalg.matrix_power(spec.operator.matrix, scheme.r)
    W = np.column_stack(basis.vectors) @ samples.reshape(scheme.s, scheme.ell)
    x = np.zeros(spec.operator.dim, dtype=complex)
    for n in reversed(range(scheme.ell)):
        x = Tr @ x + W[:, n]
    return x


def shifted_columns(first, shifts):
    """``A[:, j*m + q] = first[shifts[:, q], j]``, one column at a time."""
    m = shifts.shape[1]
    A = np.empty((shifts.shape[0], first.shape[1] * m), dtype=first.dtype)
    for j in range(first.shape[1]):
        for q in range(m):
            A[:, j * m + q] = first[shifts[:, q], j]
    return A


def unique_dual_classes(H):
    """``(labels, class of each ambient label)`` for the characters of ``H``:
    ``np.unique`` over the phase rows of every ambient label on the generators,
    classes numbered by their smallest member, which is the label kept."""
    group = H.group
    L = group.exponent
    ambient = np.indices(group.moduli).reshape(len(group.moduli), -1).T
    keys = np.zeros((len(ambient), len(H.generators)), dtype=np.int64)
    for t, m in enumerate(group.moduli):
        keys += (np.multiply.outer(ambient[:, t], H.generators[:, t]) % m) * (L // m)
    _, first, inverse = np.unique(keys % L, axis=0, return_index=True, return_inverse=True)
    number = np.empty_like(first)
    number[np.argsort(first)] = np.arange(first.size)
    return ambient[np.sort(first)], number[inverse.ravel()]


def normal_form(H):
    """``{h: n}`` over the box ``0 <= n_i < d_i`` of ``H.steps``: each
    ``h = sum n_i g_i`` summed and reduced one row at a time."""
    zero = np.zeros(len(H.group.moduli), dtype=np.int64)
    forms = {}
    for n in itertools.product(*map(range, H.steps)):
        h = H.group.reduce([sum((c * g for c, g in zip(n, H.generators)), zero)])[0]
        forms[tuple(h.tolist())] = n
    return forms


def normal_form_operator(mats, n):
    """``T_1^{n_1} ... T_k^{n_k}``, one matrix product per factor."""
    out = np.eye(len(mats[0]), dtype=complex)
    for T, count in reversed(list(zip(mats, n))):
        for _ in range(int(count)):
            out = np.asarray(T, dtype=complex) @ out
    return out


def orbit_law_holds(H, mats, a, tol=1e-8):
    """Whether ``Pi(h) Pi(k) a = Pi(h + k) a`` for all ``h, k`` of ``H``, and
    ``T_i Pi(k) a = Pi(g_i + k) a`` for each generator ``g_i`` and operator ``T_i``.

    ``Pi(h)`` is ``normal_form_operator`` over the coordinates that
    ``normal_form`` finds for ``h``.  Every comparison is within ``tol`` times
    the largest entry of all the compared vectors.  The second family matters
    for a generator ``g_i`` that lies in the span of the later ones, whose
    ``T_i`` no ``Pi(h)`` contains.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    a = np.asarray(a, dtype=complex)

    def key(h):
        return tuple(H.group.reduce([h])[0].tolist())

    ops = {h: normal_form_operator(mats, n) for h, n in normal_form(H).items()}
    elements = list(ops)
    vec = {h: ops[h] @ a for h in elements}
    pairs = [(ops[h] @ vec[k], vec[key(np.add(h, k))]) for h in elements for k in elements]
    pairs += [(T @ vec[k], vec[key(np.add(g, k))])
              for g, T in zip(H.generators, mats) for k in elements]
    scale = max(max(np.max(np.abs(lhs)), np.max(np.abs(rhs))) for lhs, rhs in pairs)
    return all(np.max(np.abs(lhs - rhs)) <= tol * scale for lhs, rhs in pairs)


def operator_inverse(matrix):
    """Inverse of a finite square matrix, verified the SVD-first way.

    Raises ``ValueError`` when ``sigma_min/sigma_max <= RANK_TOL`` (singular
    values of a values-only SVD), then whatever ``np.linalg.inv`` raises, then
    ``ValueError`` unless ``max |inv @ m - I|`` is within ``1e-10``.
    """
    m = np.array(matrix, dtype=complex)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= RANK_TOL * sv[0]:
        ratio = sv[-1] / sv[0] if sv[0] > 0 else 0.0
        raise ValueError(
            f"matrix is numerically singular (sigma_min/sigma_max = {ratio:.3e})"
        )
    inv = np.linalg.inv(m)
    resid = np.max(np.abs(inv @ m - np.eye(m.shape[0])))
    if not resid <= 1e-10:
        raise ValueError(f"inverse verification failed (residual {resid:.3e})")
    return inv


def exact_dual_field(field, U=None, threshold=RANK_TOL):
    """``(h_values, residual_max)`` of the shift dual field, the whole grid at once.

    ``check_frame`` on ``frame_constants``' ratio at ``threshold`` first.  Then at
    every point ``X = solve(G*G, G*)`` (none where ``G*G`` is exactly
    singular) and ``E = I - X G``; a point keeps ``X + E X`` where
    ``(1 - |E|_F)^2 / |X|_F^2 > 2 GRAM_DOUBT |G|_F^2`` with ``|E|_F < 1``, and
    every other point takes the pseudo-inverse of one thin SVD of them all;
    then the member ``U`` selects.
    """
    check_frame(frame_constants(field).sigma_ratio, threshold)
    G = field.values
    n = G.shape[-1]
    GH = np.conj(np.swapaxes(G, 1, 2))
    A = GH @ G
    pinv = np.full(GH.shape, np.nan, dtype=complex)
    for q in range(len(G)):
        try:
            pinv[q] = np.linalg.solve(A[q], GH[q])
        except np.linalg.LinAlgError:
            pass
    step = np.eye(n) - pinv @ G
    e, x, g = (np.linalg.norm(M, axis=(1, 2)) for M in (step, pinv, G))
    refused = ~((e < 1) & ((1 - e) ** 2 / x**2 > 2 * GRAM_DOUBT * g**2))
    pinv += step @ pinv
    if refused.any():
        pinv[refused] = DualFamily(G[refused]).pinv
    h = pinv if U is None else family_member(G, pinv, U)
    return h, dual_residual(field, h)


def dual_residual(field, h):
    """The largest entry of ``h G - [I_L 0]`` over the grid: the first ``L``
    rows of each dual matrix against the field."""
    L = field.L
    target = np.zeros((L, field.values.shape[-1]))
    target[:, :L] = np.eye(L)
    return float(np.max(np.abs(h[:, :L, :] @ field.values - target)))


def batched_reconstruction_coefficients(dual, length):
    """``spectral.reconstruction_coefficients`` with every (sampler, generator)
    row conjugated, scaled and transformed at once, and the energies of all
    rows taken from one array of magnitudes."""
    field = dual.field
    Q, r, L, s = field.Q, field.r, field.L, field.s
    lo = -(length // 2)
    window = np.arange(lo, lo + length)
    f = r * np.conj(dual.h_values).reshape(-1, r, L, s).transpose(3, 2, 1, 0).reshape(s, L, Q)
    coeffs = np.fft.fft(f, axis=-1) / Q
    kept = coeffs[..., window % Q]
    mag = np.abs(coeffs)
    mag *= 2.0 ** scale_exponent(mag)
    total = np.sum(mag**2, axis=-1)
    tail = total - np.sum(mag[..., window % Q] ** 2, axis=-1)
    refused = np.argwhere((total > 0) & (tail > TAIL_TOL * total))
    if refused.size:
        j, l = refused[0]
        raise TailEnergyError(
            f"truncation refused: truncation to {length} coefficients drops "
            f"{tail[j, l] / total[j, l]:.3e} of the dual energy (sampler {j + 1}); "
            "increase the length"
        )
    return [[FiniteSequence(offset=lo, values=kept[j, l]) for l in range(L)] for j in range(s)]


def write_vector_csv(path, values, indices=None, exact=None):
    """``index,re,im`` rows through ``csv.writer``: floats at 17 significant
    digits, ``exact`` Fraction pairs as ``p/q`` strings."""
    n = len(exact) if exact is not None else len(values)
    if indices is None:
        indices = range(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "re", "im"])
        if exact is not None:
            for i, (re, im) in zip(indices, exact):
                writer.writerow([i, str(Fraction(re)), str(Fraction(im))])
        else:
            for i, v in zip(indices, values):
                v = complex(v)
                writer.writerow([i, format(v.real, ".17g"), format(v.imag, ".17g")])


def delta(k=0, amplitude=1.0):
    """The sequence with ``amplitude`` at index ``k`` and zero elsewhere."""
    return FiniteSequence(offset=k, values=np.array([amplitude]))


def at(seq, k):
    """Value of a finite sequence at index ``k``, zero outside its window."""
    i = k - seq.offset
    return complex(seq.values[i]) if 0 <= i < seq.values.size else 0j


def conj_reversed(seq):
    """Sequence ``k -> conj(seq(-k))``."""
    return FiniteSequence(offset=-(seq.end - 1), values=np.conj(seq.values[::-1]))


def isclose(a, b, tol=1e-12):
    """Whether two finite sequences differ by at most ``tol`` at every index."""
    return bool(np.max(np.abs((a + (-1.0) * b).values)) <= tol)


def dual_field_from_sequences(field, hs):
    """Dual field whose row functions are the given finite sequences.

    ``hs`` is one row per sampler; each row a sequence (``L = 1``) or ``L``
    sequences.  Row block ``k`` of the matrices is filled with the sequence
    spectra at ``w + k/r``: externally constructed duals, e.g. compactly
    supported Bezout pairs, on the grid of ``field``.
    """
    rows, L = _nested_sequences(hs)
    if len(rows) != field.s or L != field.L:
        raise ValueError("dual sequences must match the field's samplers and generators")
    h = _translate_spectra(rows, field.r, field.Q).swapaxes(1, 2)
    return DualField(field=field, h_values=h, residual_max=dual_residual(field, h))
