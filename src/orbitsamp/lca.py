"""Sampling in orbit subspaces of finite abelian group representations.

Groups are products of cyclic groups, of at most ``MAX_GROUP_ORDER``
elements; a subgroup ``H`` acts on the ambient space through one operator
per generator, samples of an orbit element are read on a subgroup
``M < H``, and recoverability is decided by the spectral
matrices indexed over a transversal of the dual of ``H`` modulo the
annihilator of ``M``.  Everything is finite and held in integer arrays, one
row per element or label: a subgroup is its sorted elements and the step
count of each generator, characters are labeled by ambient frequency rows
and read from one integer phase table, and Haar measure on the dual is
normalized to total mass one (averages over the dual).  Operators act by
chains of generator mat-vecs along the enumeration; no power is formed.
``build_group_G_matrix`` forms the generator's orbit, certifies the
operators on it and forms the character table and the section cells once;
the duals and the reconstruction read them from the ``GroupSpectrum``.
Reconstruction is ``orbit @ (A @ samples)``: the coefficient map ``A`` of
the ``duals.OrbitDual`` that ``group_duals`` returns is one gather over ``H``.

The single-generator cyclic pipeline is the special case ``H = Z_N`` with
``M = rZ_N``, where ``A`` is the cyclic structured inverse.
"""

from __future__ import annotations

import math
from functools import cached_property, reduce

import numpy as np

from .duals import DualFamily, OrbitDual, check_frame, family_member, frame_bounds, scale_exponent
from .hilbert import ORBIT_LAW_TOL, RANK_TOL, as_cvector, require_full_rank

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "DualGroup",
    "GroupRepresentation",
    "GroupSpectrum",
    "RepresentationError",
    "annihilator",
    "section_omega",
    "build_group_G_matrix",
    "take_group_samples",
    "group_duals",
    "group_reconstruct",
]

# the dual is enumerated over the whole ambient group (``DualGroup``)
MAX_GROUP_ORDER = 1 << 22


class RepresentationError(ValueError):
    pass


class FiniteAbelianGroup:
    """Product of cyclic groups; elements are integer rows modulo the moduli.
    Groups with equal moduli are equal."""

    def __init__(self, moduli):
        mods = tuple(int(d) for d in moduli)
        if not mods or any(d < 1 for d in mods):
            raise ValueError("moduli must be positive integers")
        if math.prod(mods) > MAX_GROUP_ORDER:
            raise ValueError(f"group order {math.prod(mods)} exceeds the budget {MAX_GROUP_ORDER}")
        self.moduli = mods
        # strides of the lexicographic rank (``flat``), formed once per group
        self._strides = np.cumprod((mods[1:] + (1,))[::-1])[::-1]

    def __eq__(self, other):
        return isinstance(other, FiniteAbelianGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    @property
    def order(self):
        return math.prod(self.moduli)

    @property
    def exponent(self):
        """Least common multiple ``L`` of the moduli: every phase is a multiple of ``1/L``."""
        return math.lcm(*self.moduli)

    def reduce(self, elements):
        """Rows of integers of any size, reduced modulo the moduli: an int64 array."""
        rows = []
        for x in elements:
            if len(x) != len(self.moduli):
                raise ValueError(f"element rank {len(x)} does not match the group")
            rows.append([int(v) % d for v, d in zip(x, self.moduli)])
        return np.array(rows, dtype=np.int64).reshape(-1, len(self.moduli))

    def flat(self, elements):
        """Lexicographic rank of each element in the last axis of an integer array."""
        return np.mod(elements, self.moduli) @ self._strides


def _divisors(n):
    """Positive divisors of ``n``, ascending, as an int64 array."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return np.array(sorted(set(small + [n // d for d in small])), dtype=np.int64)


class Subgroup:
    """Subgroup generated by the given elements: sorted elements and step counts.

    With ``H_i = <g_i, ..., g_k>``, ``steps[i]`` is ``d_i``, the least
    positive multiple of ``g_i`` that lies in ``H_{i+1}``; every element is
    ``sum n_i g_i`` for exactly one row with ``0 <= n_i < d_i``.  The
    elements are enumerated ``n_1``-major (closure order) and kept sorted
    (``elements``); ``coordinates`` reads the rows ``n`` back from the closure order.
    """

    def __init__(self, group, generators):
        self.group = group
        self.generators = group.reduce(generators)
        rank = self.generators.shape[1]
        # H_{k+1} = {0}; each pass prepends one generator, n_i-major
        elems, steps = np.zeros((1, rank), dtype=np.int64), []
        for g in self.generators[::-1]:
            # the n with n g in H_{i+1} are the multiples of d, ord(g) among them
            order = math.lcm(*(m // math.gcd(int(x), m) for x, m in zip(g, group.moduli)))
            divs = _divisors(order)
            d = int(divs[np.isin(group.flat(divs[:, None] * g), group.flat(elems))][0])
            steps.append(d)
            elems = ((np.arange(d)[:, None, None] * g + elems) % group.moduli).reshape(-1, rank)
        self.steps = tuple(steps[::-1])
        flat = group.flat(elems)
        # closure position of each sorted element: orbits are stepped in
        # closure order and read out in sorted order
        self._closure_order = np.argsort(flat)
        self._flat = flat[self._closure_order]
        self.elements = elems[self._closure_order]

    @property
    def order(self):
        return len(self.elements)

    def _find(self, elements):
        """Sorted positions of the rows of ``elements``, and whether all are in the subgroup."""
        q = self.group.flat(elements)
        pos = np.minimum(np.searchsorted(self._flat, q), self._flat.size - 1)
        return pos, np.array_equal(self._flat[pos], q)

    def index(self, elements):
        """Sorted position of each row of an integer array of elements."""
        pos, found = self._find(elements)
        if not found:
            raise ValueError("element is not in the subgroup")
        return pos

    def coordinates(self, elements):
        """Rows ``n`` with ``h = sum n_i g_i``, ``0 <= n_i < d_i``: the mixed-radix
        digits over ``steps`` of each element's closure position."""
        # a leading radix 1 keeps a subgroup without generators in range
        digits = np.unravel_index(self._closure_order[self.index(elements)], (1, *self.steps))
        return np.stack(digits, axis=-1)[..., 1:]

    def is_subgroup_of(self, other):
        """A subgroup lies in ``other`` iff its generators do."""
        return self.group == other.group and other._find(self.generators)[1]


def _phases(group, labels, elements):
    """Integer phase table ``P[a, b] = sum_t labels[a, t] elements[b, t] (L / m_t) mod L``.

    ``L`` is the group's exponent, so ``(elements[b], labels[a]) = exp(2 pi i P / L)``
    exactly up to the one rounding of the exponential.
    """
    L = group.exponent
    P = np.zeros((len(labels), len(elements)), dtype=np.int64)
    for t, m in enumerate(group.moduli):
        P += (np.multiply.outer(labels[:, t], elements[:, t]) % m) * (L // m)
    return P % L


class DualGroup:
    """Characters of a subgroup, labeled by ambient frequency rows.

    Two ambient labels induce the same character when they agree on the
    subgroup's generators; each class is represented by its lexicographically
    smallest member (``labels``, sorted), and ``indices`` maps any ambient
    label to its class.  The classes are found once for the whole ambient
    group, from the phases of every ambient label on the generators: a
    stable sort of those phase rows makes each class a run that starts at
    its smallest member.
    """

    def __init__(self, H):
        self.H = H
        group = H.group
        ambient = np.indices(group.moduli).reshape(len(group.moduli), -1).T  # lexicographic
        keys = _phases(group, ambient, H.generators)
        order = np.lexsort(keys.T) if keys.shape[1] else np.arange(len(keys))
        keys = keys[order]
        starts = np.ones(len(keys), dtype=bool)
        starts[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        first = order[starts]
        if first.size != H.order:
            raise RuntimeError("character count does not match the subgroup order")
        # classes numbered by their smallest member, which is the sorted order
        number = np.empty_like(first)
        number[np.argsort(first)] = np.arange(first.size)
        self._class = np.empty_like(order)
        self._class[order] = number[np.cumsum(starts) - 1]
        self.labels = ambient[np.sort(first)]

    @property
    def order(self):
        return len(self.labels)

    def indices(self, labels):
        """Dual index of each ambient label in the last axis of an integer array."""
        return self._class[self.H.group.flat(labels)]

    def character_table(self):
        """``chi[gamma, h] = (h, gamma)`` over the sorted labels and sorted ``H``."""
        group = self.H.group
        P = _phases(group, self.labels, self.H.elements)
        return np.exp(2j * np.pi * (P / group.exponent))


def annihilator(H, M, *, dual=None):
    """Labels of the characters of ``H`` trivial on ``M``, sorted; their count
    is the index of ``M``."""
    if not M.is_subgroup_of(H):
        raise ValueError("M must be a subgroup of H")
    if dual is None:
        dual = DualGroup(H)
    perp = dual.labels[~np.any(_phases(H.group, dual.labels, M.generators), axis=1)]
    if len(perp) * M.order != H.order:
        raise RuntimeError("annihilator order check failed")
    return perp


def section_omega(dual, perp):
    """Deterministic section of the dual modulo an annihilator: the
    lexicographically smallest label ``xi_i`` of each coset, sorted, and the
    cells its translates tile the dual with.

    Row ``i`` holds the dual indices of ``xi_i + mu_k`` over the annihilator
    labels ``mu_k``; the first, ``mu_0 = 0``, makes ``row[0]`` the index of ``xi_i``.
    """
    # row g: the dual indices of the coset of label g
    cells = dual.indices(dual.labels[:, None, :] + perp[None, :, :])
    cells = cells[np.unique(cells.min(axis=1))]
    if cells.size != dual.order or np.unique(cells).size != cells.size:
        raise RuntimeError("section translates fail to tile the dual")
    return cells


class GroupRepresentation:
    """Operators ``T_i``, one per generator ``g_i`` of a subgroup ``H``: their
    count, dimension and finiteness are checked here, the orbit law on the
    orbit that the formulas read (``build_group_G_matrix``).  ``Pi(h)`` for
    ``h = sum n_i g_i`` (``H.coordinates``) is ``T_1^{n_1} ... T_k^{n_k}``,
    applied as a chain of generator mat-vecs: no inverse and no power is
    formed, and off a certified orbit's span it need not be a homomorphism."""

    def __init__(self, H, generator_ops):
        if len(generator_ops) != len(H.generators):
            raise RepresentationError("need exactly one operator per subgroup generator")
        T = [np.asarray(op, dtype=complex) for op in generator_ops]
        if len({m.shape for m in T}) != 1:
            raise RepresentationError("generator operators must share one dimension")
        if T[0].ndim != 2 or len(set(T[0].shape)) != 1 or not all(np.isfinite(m).all() for m in T):
            raise RepresentationError("generator operators must be finite square matrices")
        self.H = H
        self.dim = T[0].shape[0]
        self._matrices = T

    def orbit(self, vectors, K=None, *, adjoint=False):
        """``Pi(k) v`` (or ``Pi(k)^H v``) for every ``k`` of ``K <= H``, sorted.

        Blocks of vectors step along the enumeration of ``K`` (default ``H``): a
        generator of ``K`` with ``H``-coordinates ``n`` steps by ``n_1 + ... + n_k``
        generator mat-vecs.  A vector gives a ``dim x |K|`` array, a ``dim x m``
        block a ``dim x |K| x m`` array.
        """
        K = self.H if K is None else K
        T = [m.conj().T for m in self._matrices] if adjoint else self._matrices
        V = np.asarray(vectors, dtype=complex)
        block = V.reshape(self.dim, -1)
        for n, d in reversed(list(zip(self.H.coordinates(K.generators), K.steps))):
            # Pi(n) v applies T_k first, its adjoint T_1^H first
            chain = np.repeat(np.arange(len(T)), n)[:: 1 if adjoint else -1]
            steps = [block]
            for _ in range(d - 1):
                steps.append(reduce(lambda v, j: T[j] @ v, chain, steps[-1]))
            block = np.hstack(steps)
        out = block.reshape(self.dim, K.order, -1)[:, K._closure_order, :]
        return out[:, :, 0] if V.ndim == 1 else out


class GroupSpectrum:
    """Spectral matrices of a group sampling problem over a section.

    ``orbit`` holds ``Pi(h) a`` over sorted ``H``, ``characters`` the
    character table (``DualGroup.character_table``) and ``cells`` the section
    cells (``section_omega``).  ``family`` holds one SVD of the matrices, whose
    entry ``[i][j, k]`` is sampler ``j``'s spectrum at ``xi_i + mu_k``, and
    ``frame`` their frame constants, true extremes since everything is finite.
    ``shifts[h, q]`` is the sorted position of ``h - m_q`` over sorted ``M``.
    """

    def __init__(self, rep, samplers, M, dual, perp, cells, orbit, characters, family, frame):
        self.rep, self.samplers, self.M, self.dual, self.perp = rep, samplers, M, dual, perp
        self.cells, self.orbit, self.characters = cells, orbit, characters
        self.family, self.frame = family, frame

    @property
    def r(self):
        return len(self.perp)

    @property
    def s(self):
        return len(self.samplers)

    @cached_property
    def shifts(self):
        H, M = self.rep.H, self.M
        return H.index(H.elements[:, None] - M.elements[None])

    @cached_property
    def analyzers(self):
        """Row ``(j, m)`` is ``(Pi(-m)^H b_j)^H``, sampler-major over sorted ``M``,
        formed on first read: the adjoint orbit of ``b_j`` under ``M`` read at ``-m``."""
        M = self.M
        steps = self.rep.orbit(np.column_stack(self.samplers), M, adjoint=True)
        steps = steps[:, M.index(-M.elements), :]
        return steps.transpose(2, 1, 0).reshape(self.s * M.order, self.rep.dim).conj()


def build_group_G_matrix(rep, a, samplers, H, M):
    """Spectra of the sampler correlations, stacked over the section.

    Requires the orbit of ``a`` to obey the orbit law ``T_i O = O P_i``
    (column ``h`` of ``T_i O`` is column ``h + g_i`` of the orbit matrix
    ``O``, within ``ORBIT_LAW_TOL`` times the entry scale of the two sides)
    and to be linearly independent; together they make ``Pi`` on the orbit's
    span the regular representation of ``H``, so every relation and
    commutation of ``H`` holds there.  The annihilator of ``M`` fixes the
    matrix width ``r`` and the section fixes the row of evaluation points.
    The ``s x r`` matrices are the Fourier blocks of the map from orbit
    coefficients to samples, so matrices that pass the frame test at
    ``RANK_TOL`` certify an independent orbit; only otherwise is the orbit
    decomposed, and a dependent one raises ``RepresentationError``.  The
    matrices are factored at the exact scale ``2**scale_exponent``.
    """
    if H is not rep.H:
        if not (H.is_subgroup_of(rep.H) and rep.H.is_subgroup_of(H)):
            raise ValueError("representation must act on the given subgroup H")
        H = rep.H
    if not M.is_subgroup_of(H):
        raise ValueError("M must be a subgroup of H")
    a = as_cvector(a, rep.dim)
    samplers = [as_cvector(b, rep.dim) for b in samplers]
    if H.order > rep.dim:  # before the orbit is formed: an SVD of it cannot see the excess
        raise RepresentationError(f"orbit of the generator is linearly dependent "
                                  f"({H.order} of them in dimension {rep.dim})")
    orbit = rep.orbit(a)
    for i, (g, T) in enumerate(zip(H.generators, rep._matrices)):
        lhs = T @ orbit
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(orbit))))
        gap = float(np.max(np.abs(lhs - orbit[:, H.index(H.elements + g)])))
        if not gap <= ORBIT_LAW_TOL * scale:  # a nan gap fails too
            raise RepresentationError(
                f"operator {i} breaks the orbit law: T_{i} Pi(h) a differs from "
                f"Pi(h + {tuple(g.tolist())}) a (relative gap {gap / scale:.3e})")
    dual = DualGroup(H)
    perp = annihilator(H, M, dual=dual)
    cells = section_omega(dual, perp)
    characters = dual.character_table()
    S = np.column_stack(samplers)

    # spectra G_j(gamma) = sum_h <Pi(-h) a, b_j> (h, gamma); the sample
    # identity <x, Pi*(-m) b_j> = <F, conj(G_j) chi_m> pins the character sign
    samples_of_a = (S.conj().T @ orbit)[:, H.index(-H.elements)]
    stack = np.moveaxis((samples_of_a @ characters.T)[:, cells], 0, 1)
    family = DualFamily(stack, scale_exponent(stack))
    frame = frame_bounds(family.gram_eigenvalues, family.exponent)
    if frame.sigma_ratio <= RANK_TOL:  # the sections do not certify the orbit
        message = "orbit of the generator is linearly dependent (sigma ratio {:.3e})"
        require_full_rank(orbit, RepresentationError, message)
    return GroupSpectrum(rep=rep, samplers=samplers, M=M, dual=dual, perp=perp, cells=cells,
                         orbit=orbit, characters=characters, family=family, frame=frame)


def take_group_samples(spectrum, x):
    """Samples ``<x, Pi*(-m) b_j>`` ordered sampler-major over sorted ``M``."""
    return spectrum.analyzers @ as_cvector(x, spectrum.rep.dim)


def group_duals(spectrum, U=None, *, threshold=RANK_TOL):
    """The ``OrbitDual`` of per-point pseudo-inverse dual matrices over ``spectrum``.

    Raises ``FrameError`` when ``sigma_min / sigma_max`` is at most
    ``threshold``.  Row ``k`` of each ``r x s`` dual matrix carries the dual
    functions' values at ``xi + mu_k``; averaging against the characters
    gives the orbit coefficients of the vectors ``c_j``.  Since
    ``Pi(m) Pi(h) a = Pi(h + m) a``, those of ``Pi(m) c_j`` are the same read
    at ``h - m``: the coefficient map is one gather over ``spectrum.shifts``, and no
    operator is applied.  The dual keeps ``spectrum.orbit`` and ``shifts``, not ``spectrum``.
    """
    check_frame(spectrum.frame.sigma_ratio, threshold)
    family = spectrum.family
    hmats = family.pinv if U is None else family_member(family.matrices, family.pinv, U)

    dual, s = spectrum.dual, spectrum.s
    # dual function values on the whole dual group
    h_full = np.empty((dual.order, s), dtype=complex)
    h_full[spectrum.cells.ravel()] = hmats.reshape(-1, s)
    # coefficients alpha[h, j] = (r / |dual|) sum_gamma h_j(gamma) conj((h, gamma))
    coeff = (spectrum.r / dual.order) * (spectrum.characters.conj().T @ h_full)
    return OrbitDual(coeff, spectrum.orbit, spectrum.shifts)


def group_reconstruct(dual, samples):
    """Evaluate ``sum_j sum_m samples(j, m) Pi(m) c_j``."""
    return dual.reconstruct(samples)[0]
