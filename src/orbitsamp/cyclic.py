"""Sampling and reconstruction in finite-dimensional operator-orbit subspaces.

A generator family ``a_1..a_L`` with orbit periods ``N_1..N_L`` spans the
subspace, samplers ``b_1..b_s`` are read every ``r`` steps, and the
cross-correlation matrix ``R`` they induce decides recoverability by its
rank.  A left inverse of ``R`` whose columns are blockwise cyclic shifts of
each sampler's first column yields reconstruction vectors ``c_j`` such that
``x = sum_{j,n} sample(j, n) T^{r n} c_j``.  Since ``c_j = O h_{j,0}`` for the
orbit matrix ``O`` and column ``(j, 0)`` of that inverse ``H`` (an ``OrbitDual``),
the sum is ``O (H samples)``; only ``take_samples`` forms a power of ``T``.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .duals import DualFamily, FrameError, OrbitDual, family_member, shifted_columns
from .hilbert import LEFT_INVERSE_TOL, ORBIT_LAW_TOL, RANK_TOL, as_cvector, require_full_rank
from .spectral import MAX_GRID_ENTRIES

__all__ = [
    "CyclicSubspaceSpec",
    "SamplingScheme",
    "SampleMatrix",
    "RankReport",
    "StructuredLeftInverse",
    "RankDeficiencyError",
    "LeftInverseError",
    "build_sample_matrix",
    "take_samples",
    "check_rank",
    "structurize_left_inverse",
    "reconstruction_vectors",
    "reconstruct",
    "filter_bank_coefficients",
]


class RankDeficiencyError(FrameError):
    pass


class LeftInverseError(FrameError):
    pass


class CyclicSubspaceSpec:
    """Operator plus generators of declared orbit periods, and their orbit matrix
    ``orbit``: columns ``T^k a_l`` for ``0 <= k < N_l``, generator blocks in order.

    Construction verifies that there are at most ``dim`` orbit vectors and
    that ``T^{N_l} a_l == a_l`` within ``ORBIT_LAW_TOL`` times the largest entry
    of ``a_l``: the orbit law ``T O = O P`` for the blockwise cyclic shift
    ``P``, all that the formulas ask of ``T``.  ``build_sample_matrix``
    certifies that the orbit vectors are independent.
    """

    def __init__(self, operator, generators, orders):
        if len(generators) == 0 or len(generators) != len(orders):
            raise ValueError("need one positive order per generator")
        self.operator = operator
        self.generators = [as_cvector(a, operator.dim) for a in generators]
        self.orders = [int(n) for n in orders]
        if any(n < 1 for n in self.orders):
            raise ValueError("orders must be positive")
        if self.total_order > self.operator.dim:  # before the loop forms them all
            raise RankDeficiencyError(
                f"orbit vectors are linearly dependent "
                f"({self.total_order} of them in dimension {self.operator.dim})"
            )
        cols = []
        for l, (a, n) in enumerate(zip(self.generators, self.orders)):
            v = a
            for _ in range(n):
                cols.append(v)
                v = self.operator.matrix @ v
            drift, size = np.max(np.abs(v - a)), np.max(np.abs(a))  # a norm would overflow
            if not drift <= ORBIT_LAW_TOL * size:  # a nan drift fails too
                raise ValueError(
                    f"generator {l} is not fixed by T^{n} (relative drift {drift / size:.3e})"
                )
        self.orbit = np.column_stack(cols)

    @property
    def lcm_order(self):
        return math.lcm(*self.orders)

    @property
    def total_order(self):
        return sum(self.orders)

    def synthesize(self, coeffs):
        """Map stacked orbit coefficients to the ambient vector they define."""
        coeffs = as_cvector(coeffs, self.total_order)
        return self.orbit @ coeffs


class SamplingScheme:
    """Samplers read every ``r`` operator steps, ``ell`` reads per sampler."""

    def __init__(self, samplers, r, ell):
        self.samplers, self.r, self.ell = samplers, r, ell

    @classmethod
    def for_spec(cls, spec, samplers, r):
        r = int(r)
        N = spec.lcm_order
        if r < 1 or N % r != 0:
            raise ValueError(f"sampling period {r} must divide the orbit period {N}")
        samplers = [as_cvector(b, spec.operator.dim) for b in samplers]
        if not samplers:
            raise ValueError("need at least one sampler")
        ell = N // r
        entries = len(samplers) * ell * spec.total_order
        if entries > MAX_GRID_ENTRIES:  # before R, or any table of its size, is formed
            raise ValueError(f"sample matrix R would hold {entries} entries, more than "
                             f"{MAX_GRID_ENTRIES} (1 GiB)")
        return cls(samplers=samplers, r=r, ell=ell)

    @property
    def s(self):
        return len(self.samplers)

    @cached_property
    def adjoint(self):
        """``S^H``: the conjugated samplers as rows, formed once."""
        return np.array(self.samplers).conj()


def _block_fft(rows, offsets):
    """Unitary DFT of each generator block (columns ``offsets[l]:offsets[l+1]``) of ``rows``."""
    parts = np.split(rows, offsets[1:-1], axis=1)
    return np.hstack([np.fft.fft(part, axis=1, norm="ortho") for part in parts])


class SampleMatrix:
    """The ``s*ell x sum(N_l)`` sampling matrix ``R``, blockwise r-circulant, held as the
    first row ``S^H O`` of each sampler's block (``orbit`` is ``O``), and its DFT blocks.

    DFTs over each generator block's columns and over each sampler's reads
    make ``R`` block diagonal: column frequency ``m`` of generator ``l`` meets
    only read frequency ``p = m * lcm / N_l mod ell``, with entries
    ``sqrt(ell) * F(c_jl)(m)`` (``F`` the unitary DFT of the first row ``c_jl``
    of block ``(j, l)``).  One ``DualFamily`` over the blocks that some column
    meets, zero-padded to the widest, gives ``singular_values`` of ``R``
    (descending; each empty block adds zeros) and, by one FFT of the block
    pseudo-inverses, the first columns of ``pinv(R)``.  ``offsets`` bound the
    generator blocks of the columns; ``shifts`` and ``matrix`` are formed on first read.
    """

    def __init__(self, first_rows, orbit, r, ell, orders):
        self.first_rows, self.orbit, self.r, self.ell = first_rows, orbit, r, ell
        self.orders = orders
        self.s, self.cols = first_rows.shape
        self.rows = self.s * ell
        self.offsets = np.concatenate(([0], np.cumsum(orders)))
        # column (l, m) meets frequency freq[(l, m)], at position slot[(l, m)] of its
        # block, which is block[(l, m)] among those of the frequencies some column meets
        lcm = math.lcm(*orders)
        freq = np.concatenate([np.arange(N) * (lcm // N) % ell for N in orders])
        widths = np.bincount(freq, minlength=ell)
        order = np.argsort(freq, kind="stable")
        self.slot = np.empty_like(freq)
        self.slot[order] = np.arange(self.cols) - (np.cumsum(widths) - widths)[freq[order]]
        self.block = (np.cumsum(widths > 0) - 1)[freq]
        widths = widths[widths > 0]
        stack = np.zeros((widths.size, self.s, widths.max()), dtype=complex)
        spectra = math.sqrt(ell) * _block_fft(first_rows, self.offsets)
        stack[self.block, :, self.slot] = spectra.T
        self.family = DualFamily(stack)
        # block p has rank at most w_p: its values past w_p come from the padding
        sv = self.family.singular_values
        sv = np.where(np.arange(sv.shape[1]) < widths[:, None], sv, 0.0)
        sv = np.concatenate((sv.ravel(), np.zeros((ell - widths.size) * sv.shape[1])))
        self.singular_values = np.sort(sv)[::-1][: min(self.rows, self.cols)]

    def pinv_first_columns(self):
        """Column ``(j, 0)`` of ``pinv(R)`` as row ``j``: one FFT of the block pinvs."""
        rows = self.family.pinv[self.block, self.slot].T
        return _block_fft(rows, self.offsets) / math.sqrt(self.ell)

    @cached_property
    def shifts(self):
        """Entry ``[(l, k), n]`` is the orbit index of ``(l, k - r*n mod N_l)``: row
        ``(j, n)`` of ``matrix`` is row ``j`` of ``first_rows`` read there."""
        n = np.arange(self.ell)
        return np.concatenate([off + (np.arange(Nl)[:, None] - self.r * n) % Nl
                               for off, Nl in zip(self.offsets, self.orders)])

    @cached_property
    def matrix(self):
        return shifted_columns(self.first_rows.T, self.shifts).T


def build_sample_matrix(spec, scheme):
    """Assemble ``R`` from the cross-correlations of generators and samplers.

    Block ``(j, l)`` holds ``r_{a_l,b_j}(N - r*n + k)`` at row ``n``, column
    ``k``, indices reduced modulo ``N_l``.  Rows group all ``ell`` reads of
    the first sampler, then the second, and so on.  Every such value is an
    entry of ``S^H`` times the orbit matrix, so ``R`` is one product and a
    gather.  Row block ``n`` is ``S^H T^{lcm - r n} O`` for the orbit matrix
    ``O``, so ``rank R <= rank O``: the DFT blocks of ``R`` passing the rank test
    at ``RANK_TOL`` certify an independent orbit.  Otherwise ``O`` is
    decomposed, and a dependent orbit raises ``RankDeficiencyError``.
    """
    orbit = spec.orbit
    R = SampleMatrix(first_rows=scheme.adjoint @ orbit, orbit=orbit, r=scheme.r,
                     ell=scheme.ell, orders=tuple(spec.orders))
    if _numerical_rank(R.singular_values, RANK_TOL) < R.cols:
        message = "orbit vectors are linearly dependent (sigma ratio {:.3e})"
        require_full_rank(orbit, RankDeficiencyError, message)
    return R


def take_samples(spec, scheme, x):
    """Generalized samples ``<x, (T*)^{-r n} b_j>``, ordered to match ``R``.

    Well defined for any ambient ``x``; when ``x`` lies outside the subspace
    the downstream reconstruction returns its oblique projection onto the
    subspace along the vectors whose samples vanish, not the orthogonal one.
    """
    op = spec.operator
    x = as_cvector(x, op.dim)
    step = op.power(-scheme.r)
    out = np.empty((scheme.s, scheme.ell), dtype=complex)
    z = x
    for n in range(scheme.ell):
        out[:, n] = scheme.adjoint @ z
        z = step @ z
    return out.ravel()


class RankReport(NamedTuple):
    full_rank: bool
    rank: int
    cols: int
    singular_values: np.ndarray


def _numerical_rank(sv, rank_tol):
    """Count of singular values (descending) above ``rank_tol`` times the largest."""
    return int(np.sum(sv > rank_tol * sv[0])) if sv.size and sv[0] > 0 else 0


def check_rank(R, rank_tol=RANK_TOL):
    """Numerical rank of the sampling matrix from its DFT blocks, values descending."""
    sv = R.singular_values
    rank = _numerical_rank(sv, rank_tol)
    return RankReport(
        full_rank=rank == R.cols, rank=rank, cols=R.cols, singular_values=sv
    )


class StructuredLeftInverse(OrbitDual):
    """Left inverse ``H = coefficients`` of ``R``, the ``OrbitDual`` of its columns
    ``(j, 0)`` over ``R.orbit``: column ``(j, n)`` is column ``(j, 0)`` shifted down ``r*n``
    within each generator block (modulo ``N_l``), exactly, by the gather ``R.shifts``.
    Nothing else of ``R`` is kept.
    ``certified_residual`` is ``max |H R - I|``, checked at construction on one row
    per shift class: shifting both indices of ``H R`` by ``r`` within their
    generator blocks leaves it unchanged, up to the order of its sums, so rows
    ``k < gcd(N_l, r)`` of each block meet every entry.
    """

    def __init__(self, first, R, certified_residual):
        super().__init__(first, R.orbit, R.shifts)
        self.certified_residual = certified_residual


def _left_inverse_residual(H, R, rows):
    """``max |(H R - I)[rows]|``, ``H`` holding only the rows ``rows``."""
    P = H @ R.matrix
    P[np.arange(len(rows)), rows] -= 1
    return float(np.max(np.abs(P)))


def _shift_class_rows(R):
    """Rows ``k < gcd(N_l, r)`` of each generator block: one per shift class
    of the rows of ``H R`` (see ``StructuredLeftInverse``)."""
    offs = R.offsets[:-1]
    return np.concatenate([off + np.arange(math.gcd(Nl, R.r)) for off, Nl in zip(offs, R.orders)])


def _structured_first_columns(H, R):
    """Column ``(j, 0)`` of the structured inverse, as row ``j``.

    Entry ``p`` of generator block ``l`` is ``H[off_l + p mod r, (j, -(p // r))]``:
    the first ``min(N_l, r)`` rows of the seed's columns ``(j, 0), (j, -1),
    ...`` laid end to end.
    """
    p = np.concatenate([np.arange(Nl) for Nl in R.orders])
    offs = np.repeat(R.offsets[:-1], R.orders)
    rows = offs + p % R.r
    cols = (-(p // R.r)) % R.ell + R.ell * np.arange(R.s)[:, None]
    return H[rows, cols]


def structurize_left_inverse(R, *, U=None, tol=RANK_TOL):
    """Build a structured left inverse of ``R``.

    By default it is the Moore-Penrose pseudo-inverse, whose column
    ``(j, 0)`` comes from the DFT blocks of ``R`` and whose
    other columns are its exact blockwise down-shifts.  Passing ``U`` seeds
    the construction with the member ``pinv + U @ (I - R @ pinv)`` of the
    left-inverse family instead; any left inverse ``H`` is the member with
    ``U = H``.  From a seed, the first ``min(N_l, r)`` rows of each generator
    block of its columns ``(j, 0), (j, -1), ...`` are concatenated into
    column ``(j, 0)``.

    Raises ``RankDeficiencyError`` when the block singular values fail the
    rank test of ``check_rank`` at ``tol``, and ``LeftInverseError`` when a seed
    is not a left inverse of ``R`` within ``LEFT_INVERSE_TOL`` (rounding of a
    large ``U``) or the shifted columns fail to form one (possible for
    multi-generator problems with seeds whose blocks lack the cyclic structure).
    """
    rank = _numerical_rank(R.singular_values, tol)
    if rank < R.cols:
        raise RankDeficiencyError(f"not recoverable: rank {rank}/{R.cols}")
    first = R.pinv_first_columns().T
    if U is not None:
        H = family_member(R.matrix, shifted_columns(first, R.shifts), U)
        seed_resid = _left_inverse_residual(H, R, np.arange(R.cols))
        if not seed_resid <= LEFT_INVERSE_TOL:  # NaN fails too
            raise LeftInverseError(f"structured inverse failed: seed is not a left "
                                   f"inverse of R (residual {seed_resid:.3e})")
        first = _structured_first_columns(H, R).T

    rows = _shift_class_rows(R)
    resid = _left_inverse_residual(shifted_columns(first, R.shifts[rows]), R, rows)
    if not resid <= LEFT_INVERSE_TOL:
        raise LeftInverseError(
            f"structured inverse failed: structured columns are not a left inverse "
            f"(residual {resid:.3e}); the seed's blocks lack the cyclic structure"
        )
    return StructuredLeftInverse(first, R, resid)


def reconstruction_vectors(spec, hs):
    """The structured inverse ``hs`` of ``spec``'s ``R``, its vectors ``c_j = O h_{j,0}``
    (``hs.vectors``) formed: ``FrameError`` when one leaves the float range."""
    hs.vectors  # formed here, or refused
    return hs


def reconstruct(spec, scheme, basis, samples):
    """Evaluate ``sum_{j,n} samples(j, n) T^{r n} c_j`` as ``O (H samples)``.

    Column ``(j, n)`` of the structured inverse ``H`` is column ``(j, 0)``
    shifted by ``r n`` within each generator block, and ``T^{N_l} a_l = a_l``,
    so ``T^{r n} c_j = O H[:, (j, n)]``: no power of ``T`` is formed.
    """
    return basis.reconstruct(samples)[0]


def filter_bank_coefficients(hs, samples, spec):
    """Per-generator orbit coefficients ``H samples``, split by generator block.

    The product is the filter bank ``alpha_l(m) = sum_{j,n} samples(j, n)
    beta_j^l(m - r*n)``, with ``beta_j^l`` block ``l`` of ``h_{j,0}`` extended
    ``N_l``-periodically: column ``(j, n)`` of ``H`` is that block shifted by ``r*n``.
    """
    samples = as_cvector(samples, hs.coefficients.shape[1])
    return np.split(hs.coefficients @ samples, np.cumsum(spec.orders)[:-1])
