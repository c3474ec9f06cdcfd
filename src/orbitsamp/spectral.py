"""Shift-invariant sampling with finitely supported filters.

Desk model of the doubly infinite setting: cross-correlation sequences are
finitely supported, so their spectra are trigonometric polynomials and every
quantity is computable on a grid.  Essential inf/sup of the frame spectrum
are reported as grid min/max, lower/upper estimates rather than certified
bounds.  The module covers the spectral matrix field on ``[0, 1/r)``, frame
constants, dual fields, reconstruction coefficients, and the multirate
analysis/synthesis filter bank with its polyphase certification.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .duals import (SAFE_EXPONENT, DualFamily, FrameError, check_frame, family_member,
                    finite_duals, frame_bounds, scale_exponent)
from .hilbert import RANK_TOL, RESIDUAL_FLAG
from .laurent import LaurentPoly, bezout, bspline, polyphase_sample

__all__ = [
    "FiniteSequence",
    "SpectralField",
    "DualField",
    "FilterBank",
    "PRReport",
    "SplineBank",
    "TailEnergyError",
    "build_spectral_field",
    "frame_constants",
    "dual_field",
    "reconstruction_coefficients",
    "analysis",
    "synthesis",
    "polyphase",
    "perfect_reconstruction_check",
    "sequence_from_laurent",
    "bspline_filter_bank",
]

MIN_GRID_FACTOR = 64
# complex entries of one grid evaluation (sequences x grid points): 1 GiB
MAX_GRID_ENTRIES = 1 << 26
TAIL_TOL = 1e-6
# Gram eigenvalues err by about eps times their point's largest (``_gram_pass``)
GRAM_DOUBT = 1e-4
GRAM_SLACK = 1e-12
DUAL_BLOCK_ENTRIES = 1 << 14  # complex entries of the field per block of ``dual_field``
# random inputs of the time-domain cross-check in ``perfect_reconstruction_check``
ROUNDTRIP_TRIALS, ROUNDTRIP_SUPPORT, ROUNDTRIP_SEED = 16, 64, 0
PR_TOL = 1e-9  # torus residual of ``G H - I``, relative to max |G| |H|, that passes


class TailEnergyError(FrameError):
    """Truncating the dual coefficients would drop more than ``TAIL_TOL`` of their energy."""


class FiniteSequence:
    """Complex sequence supported on a window, implicitly zero outside.

    The stored window is trimmed of exact zeros at both ends but never left
    empty; the zero sequence is a single zero at offset 0.
    """

    def __init__(self, offset, values):
        v = np.asarray(values, dtype=complex)
        if v.ndim != 1:
            raise ValueError("values must be one-dimensional")
        nonzero = np.flatnonzero(v)
        if nonzero.size == 0:
            self.offset, self.values = 0, np.zeros(1, dtype=complex)
        else:
            self.offset = int(offset) + int(nonzero[0])
            self.values = v[nonzero[0] : nonzero[-1] + 1].copy()

    @property
    def end(self):
        return self.offset + self.values.size

    def support(self):
        return range(self.offset, self.end)

    def conv(self, other):
        return FiniteSequence(
            offset=self.offset + other.offset,
            values=np.convolve(self.values, other.values),
        )

    def __add__(self, other):
        lo = min(self.offset, other.offset)
        hi = max(self.end, other.end)
        out = np.zeros(hi - lo, dtype=complex)
        out[self.offset - lo : self.end - lo] += self.values
        out[other.offset - lo : other.end - lo] += other.values
        return FiniteSequence(offset=lo, values=out)

    def __mul__(self, scalar):
        return FiniteSequence(offset=self.offset, values=self.values * scalar)

    __rmul__ = __mul__

    def upsample(self, r):
        """Insert ``r - 1`` zeros between entries; index ``k`` moves to ``r*k``."""
        if r < 1:
            raise ValueError("upsampling factor must be positive")
        out = np.zeros((self.values.size - 1) * r + 1, dtype=complex)
        out[::r] = self.values
        return FiniteSequence(offset=self.offset * r, values=out)

    def spectrum(self, w):
        """Evaluate ``sum_k c(k) exp(2 pi i k w)`` at scalar or array ``w``."""
        w = np.asarray(w, dtype=float)
        ks = self.offset + np.arange(self.values.size)
        out = np.exp(2j * np.pi * np.multiply.outer(w, ks)) @ self.values
        if out.ndim == 0:
            return complex(out)
        return out


def sequence_from_laurent(p):
    """Coefficients of a Laurent polynomial as a finite sequence."""
    if p.is_zero:
        return FiniteSequence(0, np.zeros(1))
    vals = np.array([complex(c) if isinstance(c, complex) else float(c) for c in p.coeffs])
    return FiniteSequence(offset=p.min_deg, values=vals)


class SpectralField:
    """Stacked ``s x (r*L)`` spectral matrices on the grid ``w_q = q/Q``.

    Row ``j`` holds the ``L``-blocks of sampler ``j``'s spectra evaluated at
    ``w + k/r`` for ``k = 0..r-1``; the grid covers ``[0, 1/r)`` with ``Q/r``
    left-closed equispaced points.
    """

    def __init__(self, r, L, Q, values):
        self.r, self.L, self.Q, self.values = r, L, Q, values

    @property
    def s(self):
        return self.values.shape[1]


def _nested_sequences(sequences):
    rows = []
    L = None
    for row in sequences:
        if isinstance(row, FiniteSequence):
            row = [row]
        row = list(row)
        if L is None:
            L = len(row)
        elif len(row) != L:
            raise ValueError("every sampler needs the same number of generator spectra")
        rows.append(row)
    if not rows or L == 0:
        raise ValueError("need at least one spectrum")
    return rows, L


def _check_grid(points, minimum, sequences):
    """Refuse, unallocated, fewer than ``minimum`` points or more than
    ``MAX_GRID_ENTRIES`` values for the ``sequences`` on them."""
    if points < minimum:
        raise ValueError(f"grid size {points} is too coarse; need at least {minimum}")
    if sequences * points > MAX_GRID_ENTRIES:
        raise ValueError(
            f"grid size {points} is too fine: {sequences} sequences on it exceed "
            f"{MAX_GRID_ENTRIES} complex entries (1 GiB)"
        )


def _translate_spectra(rows, r, Q):
    """Spectra of an ``s x L`` nest of sequences at ``w + k/r`` for ``w = q/Q < 1/r``.

    Coefficient ``c(k)`` contributes ``c(k) exp(2 pi i k q / Q)``, so every
    sequence aliases onto the indices ``k mod Q`` (any support length, any
    offset: a Python int, reduced before it meets int64) and one unscaled
    inverse FFT over the stacked sequences gives them all on the grid.  The
    translate ``k/r`` of grid point ``q`` is grid index ``q + k Q/r``.  Shape
    ``(Q/r, s, r*L)``, column ``k*L + l``.
    """
    flat = [seq for row in rows for seq in row]
    coeffs = np.zeros((len(flat), Q), dtype=complex)
    for i, seq in enumerate(flat):
        np.add.at(coeffs[i], (seq.offset % Q + np.arange(seq.values.size)) % Q, seq.values)
    spectra = np.fft.ifft(coeffs, norm="forward").reshape(len(rows), -1, r, Q // r)
    return spectra.transpose(3, 0, 2, 1).reshape(Q // r, len(rows), -1)


def build_spectral_field(sequences, r, Q=None):
    """Evaluate the spectral matrices of the given cross-correlation sequences.

    ``sequences`` is one row per sampler; each row is a single sequence or a
    list of ``L`` per-generator sequences.  ``Q`` (default ``1024*r``) must be
    a multiple of ``r`` and at least ``64*r`` so the grid resolves the
    polynomial spectra, with at most ``MAX_GRID_ENTRIES`` values in all.
    """
    r = int(r)
    Q = 1024 * r if Q is None else int(Q)
    if r < 1:
        raise ValueError("downsampling factor must be positive")
    if Q % r != 0:
        raise ValueError(f"grid size {Q} must be a multiple of r={r}")
    rows, L = _nested_sequences(sequences)
    _check_grid(Q, MIN_GRID_FACTOR * r, len(rows) * L)
    return SpectralField(r=r, L=L, Q=Q, values=_translate_spectra(rows, r, Q))


def _gram_pass(G):
    """Eigenvalues of the Gram matrices ``G*G``, ascending per point.  The
    doubtful points, whose smallest is at or below ``GRAM_DOUBT`` times their
    largest (every point of a wide field), take them from one ``DualFamily``,
    the SVD and the bits of ``dual_field``'s at them.  The sound points whose
    smallest may be the grid's, within ``GRAM_SLACK`` times their largest,
    take it as ``|G v|^2`` for its eigenvector ``v``, which errs by about eps
    times ``cond(G)``, not its square: ``alpha_G`` and ``sigma_min/sigma_max``
    are then within 1e-12 relative of the SVD's, and so is ``beta_G``."""
    A = np.conj(np.swapaxes(G, 1, 2)) @ G
    eigs = np.linalg.eigvalsh(A)
    doubtful = eigs[:, 0] <= GRAM_DOUBT * eigs[:, -1]
    if doubtful.any():
        eigs[doubtful] = DualFamily(G[doubtful]).gram_eigenvalues[:, ::-1]
    slack = np.where(doubtful, 0.0, GRAM_SLACK * eigs[:, -1])
    near = ~doubtful & (eigs[:, 0] - slack <= np.min(eigs[:, 0] + slack))
    if near.any():
        v = np.linalg.eigh(A[near])[1][:, :, :1]
        eigs[near, 0] = np.sum(np.abs(G[near] @ v) ** 2, axis=(1, 2))
    return eigs


def frame_constants(field):
    """Frame constants from the eigenvalues of the Gram matrices ``G*G``;
    only doubtful points (``_gram_pass``) take a thin SVD, and the points that
    may hold the smallest a Rayleigh quotient, all on ``G`` scaled exactly by
    ``2**scale_exponent(G)`` so that ``G*G`` stays inside the float range."""
    k = scale_exponent(field.values)
    return frame_bounds(_gram_pass(field.values * 2.0**k if k else field.values), exponent=k)


class DualField:
    """Per-grid-point ``(r*L) x s`` dual matrices for a spectral field.

    The first ``L`` rows are the dual row functions on the base interval;
    row block ``k`` carries their values on the translate ``w + k/r``, so the
    field determines the dual functions on all of ``[0, 1)``.
    """

    def __init__(self, field, h_values, residual_max):
        self.field, self.h_values, self.residual_max = field, h_values, residual_max


def _certification(G, pinv, step):
    """Per point, the squares of ``sigma_min(G) >= (1 - e) / |X|_F`` where ``e =
    |E|_F < 1`` (else 0), for ``E = I - X G``, and of ``sigma_max(G) <= |G|_F``."""
    flat = (np.ascontiguousarray(M, dtype=complex).reshape(len(M), -1).view(float)
            for M in (step, pinv, G))
    e2, x2, g2 = (np.einsum("ij,ij->i", v, v) for v in flat)  # squared Frobenius norms
    return np.where(e2 < 1, (1 - np.sqrt(e2)) ** 2, 0.0) / x2, g2


def _gram_solve(G, A):
    """``X = solve(A, G*)`` for the Gram matrices ``A`` of ``G``, NaN where ``A`` is
    exactly singular: a stack that raises is halved until each such ``A`` stands
    alone (the bits of a solve do not depend on its stack)."""
    try:
        return np.linalg.solve(A, np.conj(np.swapaxes(G, 1, 2)))
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.full((1, G.shape[2], G.shape[1]), np.nan, dtype=complex)
        m = len(A) // 2
        return np.concatenate((_gram_solve(G[:m], A[:m]), _gram_solve(G[m:], A[m:])))


@np.errstate(over="ignore", invalid="ignore")  # duals beyond the float range are refused
def dual_field(field, U=None, *, threshold=RANK_TOL):
    """Pseudo-inverse dual matrices, optionally perturbed inside the family.

    ``U`` (constant or per-grid-point ``(r*L) x s``) selects the member
    ``pinv(G) + U @ (I_s - G @ pinv(G))``; every member satisfies the dual
    row condition, and the verification residual is recorded.  One pass, on
    ``DUAL_BLOCK_ENTRIES`` of the field at a time scaled to ``G 2**k`` (``k =
    scale_exponent(G)``; ``pinv`` is scaled back): a point keeps ``X = solve(G*G,
    G*)`` and one Newton-Schulz step ``X += (I - X G) X`` where ``_certification``
    clears ``GRAM_DOUBT``, else takes its own thin SVD, whose Gram eigenvalues
    stand in for its bounds.  ``FrameError`` as ``frame_constants`` decides it,
    when ``sigma_min/sigma_max`` is at or below ``threshold``; the bounds spare
    that call when they clear ``threshold`` by a factor ``sqrt(2)``, and a wide
    field (``s < r*L``), whose ratio is 0, is refused from its shape first.
    """
    k = scale_exponent(field.values)
    P, s, n = field.values.shape
    if U is not None:  # sliced with each block; a constant U as a view of stride 0
        U = np.broadcast_to(U, (P,) + np.shape(U)[-2:])
    if s < n:  # sigma_min 0 at every point
        check_frame(0.0, threshold)
    h = np.empty((P, n, s), dtype=complex)
    target = np.eye(field.L, n)
    size, low_min, g2_max, residual = max(1, DUAL_BLOCK_ENTRIES // (s * n)), np.inf, 0.0, 0.0
    for a in range(0, P, size):
        V = field.values[a : a + size]
        G = V * 2.0**k if k else V
        pinv = _gram_solve(G, np.conj(np.swapaxes(G, 1, 2)) @ G)
        step = pinv @ G
        np.subtract(np.eye(n), step, out=step)  # E = I - X G
        low, g2 = _certification(G, pinv, step)
        pinv += step @ pinv
        refused = ~(low > 2 * GRAM_DOUBT * g2)  # NaN where the solve had no answer
        if refused.any():
            family = DualFamily(G[refused])
            eigs = family.gram_eigenvalues
            pinv[refused], g2[refused], low[refused] = family.pinv, eigs[:, 0], eigs[:, -1]
        low_min, g2_max = min(low_min, low.min()), max(g2_max, g2.max())
        if k:
            pinv *= 2.0**k
        h[a : a + size] = pinv if U is None else family_member(V, pinv, U[a : a + size])
        residual = np.maximum(residual, np.max(np.abs(h[a : a + size, : field.L] @ V - target)))
    # a quotient of squares cannot overflow; an underflow to 0 leaves the verdict open
    if not (g2_max > 0 and math.sqrt(low_min / g2_max / 2) > threshold):
        check_frame(frame_constants(field).sigma_ratio, threshold)
    return DualField(field=field, h_values=finite_duals(h), residual_max=float(residual))


def reconstruction_coefficients(dual, length=None):
    """Orbit-basis coefficients of the reconstruction vectors.

    Inverse DFT of the full-circle samples of ``r * conj(h_j)``, truncated to
    a window of ``length`` coefficients centred at zero.  Returns one list of
    ``L`` sequences per sampler.  Tail energy is measured within the ``Q``
    aliased DFT coefficients; when the part outside the window exceeds
    ``TAIL_TOL`` of the total, the truncation is refused and the caller must
    raise ``length``.  Trigonometric-polynomial duals come out exactly
    (aliasing hits only the zero tail).
    """
    field = dual.field
    Q, r, L, s = field.Q, field.r, field.L, field.s
    if length is None:
        length = Q
    length = int(length)
    if not 1 <= length <= Q:
        raise ValueError(f"truncation length must be in [1, {Q}]")
    lo = -(length // 2)
    window = np.arange(lo, lo + length)
    # f[j, l] on the full circle: translate block k of row l holds w + k/r; one copy,
    # transformed a row at a time back into itself
    f = np.empty((s, L, Q), dtype=complex)
    np.conjugate(dual.h_values.reshape(-1, r, L, s).transpose(3, 2, 1, 0),
                 out=f.reshape(s, L, r, -1))
    f *= r
    for row in (rows := f.reshape(-1, Q)):
        np.divide(np.fft.fft(row), Q, out=row)
    kept = f[..., window % Q]
    # energies of magnitudes scaled exactly out of reach of overflow and underflow
    scale = 2.0 ** scale_exponent(max(np.abs(row).max() for row in rows))
    total = np.array([np.sum((np.abs(row) * scale) ** 2) for row in rows]).reshape(s, L)
    tail = total - np.sum((np.abs(kept) * scale) ** 2, axis=-1)
    refused = np.argwhere((total != 0) & ~(tail <= TAIL_TOL * total))  # NaN is refused
    if refused.size:
        j, l = refused[0]
        raise TailEnergyError(
            f"truncation refused: truncation to {length} coefficients drops "
            f"{tail[j, l] / total[j, l]:.3e} of the dual energy (sampler {j + 1}); "
            "increase the length"
        )
    return [[FiniteSequence(offset=lo, values=kept[j, l]) for l in range(L)] for j in range(s)]


class FilterBank:
    """Analysis/synthesis filter pairs sharing a downsampling factor."""

    def __init__(self, analysis, synthesis, r):
        if len(analysis) != len(synthesis):
            raise ValueError("analysis and synthesis branch counts differ")
        if r < 1:
            raise ValueError("downsampling factor must be positive")
        self.analysis, self.synthesis, self.r = analysis, synthesis, r

    @property
    def s(self):
        return len(self.analysis)


def _phase(seq, r, shift):
    """Polyphase component ``m -> seq(r m + shift)``."""
    start = (shift - seq.offset) % r
    return FiniteSequence(offset=(seq.offset + start - shift) // r, values=seq.values[start::r])


def analysis(fb, alpha):
    """Branch outputs ``y_j(m) = (alpha * h_j)(r m)``."""
    return [_phase(alpha.conv(h), fb.r, 0) for h in fb.analysis]


def synthesis(fb, ys):
    """Combine branch outputs: ``sum_j sum_m y_j(m) g_j(n - m r)``."""
    if len(ys) != fb.s:
        raise ValueError(f"expected {fb.s} branch sequences, got {len(ys)}")
    acc = FiniteSequence(0, np.zeros(1))
    for y, g in zip(ys, fb.synthesis):
        acc = acc + y.upsample(fb.r).conv(g)
    return acc


def polyphase(fb):
    """Polyphase matrices ``(H, G)`` of the bank as Laurent polynomials in z.

    ``H[j][k] = sum_m h_j(r m - k) z^{-m}`` (``s x r``) and
    ``G[k][j] = sum_m g_j(r m + k) z^{-m}`` (``r x s``).
    """

    def in_z_inverse(seq):
        return LaurentPoly(-(seq.end - 1), [complex(c) for c in seq.values[::-1]])

    r = fb.r
    H = [[in_z_inverse(_phase(h, r, -k)) for k in range(r)] for h in fb.analysis]
    G = [[in_z_inverse(_phase(g, r, k)) for g in fb.synthesis] for k in range(r)]
    return H, G


class PRReport(NamedTuple):
    passed: bool
    max_residual: float
    roundtrip_error: float
    torus_grid: int
    relative_residual: float


def perfect_reconstruction_check(fb, torus_grid=512):
    """Certify ``G(z) H(z) = I_r`` on a torus grid and cross-check in time.

    Passes when the polyphase residual, relative to the largest entry of
    ``|G(w)| |H(w)|`` over the grid (floored at 1), stays at or below ``PR_TOL``,
    and the worst relative round-trip error of ``ROUNDTRIP_TRIALS`` random
    inputs of support at most ``ROUNDTRIP_SUPPORT`` through analysis and
    synthesis is at most ``RESIDUAL_FLAG``.  The rounding error of the
    product grows with that scale, which exact banks with large taps reach;
    cancellation can inflate the scale as much as the residual, and the
    round trip shows it.  The report also carries the absolute residual.
    The round trip refuses a branch moving its inputs over
    ``MAX_GRID_ENTRIES / 2`` samples.  The grid has ``MIN_GRID_FACTOR``
    points or more, ``MAX_GRID_ENTRIES / (s*r)`` or fewer.  When the largest
    entry of either side lies beyond ``2**±SAFE_EXPONENT``, both sides are
    first brought to the same binary order as ``(h 2**-k, g 2**k)``, which
    leaves every product ``g h``, and so every output, unchanged.
    """
    r = fb.r
    _check_grid(torus_grid, MIN_GRID_FACTOR, fb.s * r)
    for j, (h, g) in enumerate(zip(fb.analysis, fb.synthesis), start=1):
        if max(abs(h.offset + g.offset), abs(h.end + g.end)) > MAX_GRID_ENTRIES // 2:
            raise ValueError(f"h{j}/g{j}: offsets {h.offset} and {g.offset} move branch {j} "
                             f"of the round trip more than {MAX_GRID_ENTRIES // 2} samples")
    eh, eg = (math.frexp(max((float(np.abs(q.values).max()) for q in side), default=0.0))[1]
              for side in (fb.analysis, fb.synthesis))
    if max(abs(eh), abs(eg)) > SAFE_EXPONENT:
        k = min(max((eh - eg) // 2, -1022), 1022)  # 2.0**±k a normal float
        fb = FilterBank([h * 2.0**-k for h in fb.analysis], [g * 2.0**k for g in fb.synthesis], r)
    # a polyphase entry at z = exp(-2 pi i w) is the spectrum of its component
    H = [[_phase(h, r, -k) for k in range(r)] for h in fb.analysis]
    G = [[_phase(g, r, k) for g in fb.synthesis] for k in range(r)]
    Hv, Gv = (_translate_spectra(rows, 1, torus_grid) for rows in (H, G))
    prod = Gv @ Hv
    resid = float(np.max(np.abs(prod - np.eye(r))))
    relative = resid / max(float(np.max(np.abs(Gv) @ np.abs(Hv))), 1.0)

    rng = np.random.default_rng(ROUNDTRIP_SEED)
    worst = 0.0
    for _ in range(ROUNDTRIP_TRIALS):
        n = int(rng.integers(1, ROUNDTRIP_SUPPORT + 1))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alpha = FiniteSequence(offset=int(rng.integers(-16, 16)), values=vals)
        back = synthesis(fb, analysis(fb, alpha))
        diff = back + (-1.0) * alpha
        err = float(np.max(np.abs(diff.values))) / float(np.max(np.abs(alpha.values)))
        worst = max(worst, err)
    return PRReport(
        passed=relative <= PR_TOL and worst <= RESIDUAL_FLAG,
        max_residual=resid,
        roundtrip_error=worst,
        torus_grid=int(torus_grid),
        relative_residual=relative,
    )


class SplineBank:
    """Oversampled compact-support bank built from a discrete B-spline."""

    def __init__(self, bank, mp, g_polys, h_polys):
        self.bank, self.mp, self.g_polys, self.h_polys = bank, mp, g_polys, h_polys


def bspline_filter_bank(K, p):
    """Two-channel ``r = 1`` bank with exact compactly supported duals.

    The analysis filters are the stride-``K`` component polynomials of the
    order-``p`` B-spline (point samples against a delta and its unit shift);
    the synthesis filters are the Bezout cofactors, so the bank achieves
    perfect reconstruction with finitely many taps on both sides.  Raises
    ``CoprimalityError`` when the two component polynomials share a factor.
    """
    mp = bspline(K, p)
    g1 = polyphase_sample(mp, K, 0)
    g2 = polyphase_sample(mp, K, 1)
    h1, h2 = bezout(g1, g2)
    bank = FilterBank(
        analysis=[sequence_from_laurent(g1), sequence_from_laurent(g2)],
        synthesis=[sequence_from_laurent(h1), sequence_from_laurent(h2)],
        r=1,
    )
    return SplineBank(bank=bank, mp=mp, g_polys=(g1, g2), h_polys=(h1, h2))
