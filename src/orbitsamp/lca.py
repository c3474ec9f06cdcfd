"""Sampling in orbit subspaces of finite abelian group representations.

Groups are products of cyclic groups; a subgroup ``H`` acts on the ambient
space through a representation by invertible operators, samples of an orbit
element are read on a subgroup ``M < H``, and recoverability is decided by
the spectral matrices indexed over a transversal of the dual of ``H`` modulo
the annihilator of ``M``.  Everything is finite, so annihilators, sections
and Fourier coefficients are exact enumerations; Haar measure on the dual is
normalized to total mass one (averages over the dual).

The single-generator cyclic pipeline is the special case ``H = Z_N`` with
``M`` the multiples of the sampling period.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hilbert import LinearOperator, as_cvector, inner

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "DualGroup",
    "CharacterSubgroup",
    "SectionOmega",
    "GroupRepresentation",
    "GroupSpectrum",
    "GroupDual",
    "RepresentationError",
    "GroupFrameError",
    "annihilator",
    "section_omega",
    "build_group_G_matrix",
    "take_group_samples",
    "group_duals",
    "group_reconstruct",
]


class RepresentationError(ValueError):
    pass


class GroupFrameError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups; elements are tuples modulo the moduli."""

    moduli: tuple

    def __post_init__(self):
        mods = tuple(int(d) for d in self.moduli)
        if not mods or any(d < 1 for d in mods):
            raise ValueError("moduli must be positive integers")
        object.__setattr__(self, "moduli", mods)

    @property
    def order(self):
        n = 1
        for d in self.moduli:
            n *= d
        return n

    @property
    def identity(self):
        return (0,) * len(self.moduli)

    def reduce(self, x):
        x = tuple(int(v) for v in x)
        if len(x) != len(self.moduli):
            raise ValueError(f"element rank {len(x)} does not match the group")
        return tuple(v % d for v, d in zip(x, self.moduli))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.moduli))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.moduli))

    def elements(self):
        return itertools.product(*(range(d) for d in self.moduli))


class Subgroup:
    """Subgroup generated by the given elements, enumerated by closure."""

    def __init__(self, group, generators):
        self.group = group
        self.generators = [group.reduce(g) for g in generators]
        elements = {group.identity}
        frontier = [group.identity]
        while frontier:
            nxt = []
            for h in frontier:
                for g in self.generators:
                    e = group.add(h, g)
                    if e not in elements:
                        elements.add(e)
                        nxt.append(e)
            frontier = nxt
        self._set = frozenset(elements)
        self._sorted = tuple(sorted(elements))

    @property
    def order(self):
        return len(self._set)

    def __iter__(self):
        return iter(self._sorted)

    def __contains__(self, x):
        return self.group.reduce(x) in self._set

    def __len__(self):
        return len(self._set)

    def is_subgroup_of(self, other):
        return self.group is other.group and self._set <= other._set

    def __repr__(self):
        return f"Subgroup(order={self.order}, generators={self.generators})"


def _pairing_exponent(group, label, h):
    """Exact exponent of ``exp(2 pi i <label, h>)`` as a fraction mod 1."""
    total = Fraction(0)
    for li, hi, di in zip(label, h, group.moduli):
        total += Fraction(li * hi, di)
    return total % 1


class DualGroup:
    """Characters of a subgroup, labeled by ambient frequency tuples.

    Two ambient labels induce the same character when they agree on the
    subgroup's generators; each class is represented by its lexicographically
    smallest member, so dual arithmetic canonicalizes after adding labels.
    """

    def __init__(self, H):
        self.H = H
        group = H.group
        classes = {}
        for label in group.elements():
            key = tuple(_pairing_exponent(group, label, g) for g in H.generators)
            rep = classes.get(key)
            if rep is None or label < rep:
                classes[key] = label
        self._rep_by_key = classes
        self.labels = tuple(sorted(classes.values()))
        if len(self.labels) != H.order:
            raise RuntimeError("character count does not match the subgroup order")
        self._index = {g: i for i, g in enumerate(self.labels)}

    @property
    def order(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def canonical(self, label):
        group = self.H.group
        label = group.reduce(label)
        key = tuple(_pairing_exponent(group, label, g) for g in self.H.generators)
        return self._rep_by_key[key]

    def add(self, g1, g2):
        return self.canonical(self.H.group.add(g1, g2))

    def neg(self, g):
        return self.canonical(self.H.group.neg(g))

    def index(self, label):
        return self._index[self.canonical(label)]

    def pairing_exponent(self, label, h):
        """Exact fraction ``t`` with ``(h, label) = exp(2 pi i t)``."""
        if h not in self.H:
            raise ValueError(f"{h} is not in the subgroup")
        return _pairing_exponent(self.H.group, label, self.H.group.reduce(h))

    def value(self, label, h):
        return cmath.exp(2j * cmath.pi * float(self.pairing_exponent(label, h)))


@dataclass(frozen=True)
class CharacterSubgroup:
    """Subgroup of a dual group given by a closed set of canonical labels."""

    dual: DualGroup
    labels: tuple

    @property
    def order(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)


def annihilator(H, M, *, dual=None):
    """Characters of ``H`` trivial on ``M``; its order is the index of ``M``."""
    if not M.is_subgroup_of(H):
        raise ValueError("M must be a subgroup of H")
    if dual is None:
        dual = DualGroup(H)
    labels = tuple(
        g
        for g in dual
        if all(dual.pairing_exponent(g, m) == 0 for m in M.generators)
    )
    perp = CharacterSubgroup(dual=dual, labels=labels)
    if perp.order * M.order != H.order:
        raise RuntimeError("annihilator order check failed")
    return perp


@dataclass(frozen=True)
class SectionOmega:
    """Transversal of the dual modulo an annihilator; translates tile the dual."""

    dual: DualGroup
    perp: CharacterSubgroup
    representatives: tuple

    def verify_tiling(self):
        seen = set()
        for xi in self.representatives:
            for mu in self.perp:
                t = self.dual.add(xi, mu)
                if t in seen:
                    return False
                seen.add(t)
        return len(seen) == self.dual.order


def section_omega(dual, perp):
    """Deterministic section: lexicographically smallest label per coset."""
    reps = []
    assigned = set()
    for g in dual:
        if g in assigned:
            continue
        reps.append(g)
        for mu in perp:
            assigned.add(dual.add(g, mu))
    omega = SectionOmega(dual=dual, perp=perp, representatives=tuple(reps))
    if not omega.verify_tiling():
        raise RuntimeError("section translates fail to tile the dual")
    return omega


class GroupRepresentation:
    """Representation of a subgroup by invertible operators.

    Generator assignments are extended multiplicatively over the closure;
    the homomorphism property is then verified on every pair of elements
    (which covers the order relations of the generators) within ``tol``.
    """

    def __init__(self, H, generator_ops, *, tol=1e-8):
        if len(generator_ops) != len(H.generators):
            raise RepresentationError("need exactly one operator per subgroup generator")
        ops = [
            op if isinstance(op, LinearOperator) else LinearOperator(op)
            for op in generator_ops
        ]
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise RepresentationError("generator operators must share one dimension")
        self.H = H
        self.dim = dims.pop()
        group = H.group
        table = {group.identity: np.eye(self.dim, dtype=complex)}
        frontier = [group.identity]
        while frontier:
            nxt = []
            for h in frontier:
                for g, op in zip(H.generators, ops):
                    e = group.add(h, g)
                    if e not in table:
                        table[e] = op.matrix @ table[h]
                        nxt.append(e)
            frontier = nxt
        if len(table) != H.order:
            raise RepresentationError("generator closure does not cover the subgroup")
        scale = max(max(np.max(np.abs(m)) for m in table.values()), 1.0)
        for h1 in H:
            for h2 in H:
                lhs = table[group.add(h1, h2)]
                rhs = table[h1] @ table[h2]
                if np.max(np.abs(lhs - rhs)) > tol * scale:
                    raise RepresentationError(
                        f"assignment is not a homomorphism at {h1} + {h2}"
                    )
        self._table = table

    def op(self, h):
        return self._table[self.H.group.reduce(h)]

    def apply(self, h, v):
        return self.op(h) @ v


@dataclass(eq=False)
class GroupSpectrum:
    """Spectral matrices of a group sampling problem over a section.

    ``matrices[i][j, k]`` is sampler ``j``'s spectrum at ``xi_i + mu_k``;
    with everything finite the frame constants are true extremes.
    """

    rep: GroupRepresentation
    generator: np.ndarray
    samplers: list
    M: Subgroup
    dual: DualGroup
    perp: CharacterSubgroup
    omega: SectionOmega
    matrices: np.ndarray
    alpha_G: float
    beta_G: float
    sample_points: tuple

    @property
    def r(self):
        return self.perp.order

    @property
    def s(self):
        return len(self.samplers)

    def orbit_matrix(self):
        cols = [self.rep.apply(h, self.generator) for h in self.rep.H]
        return np.column_stack(cols)


def build_group_G_matrix(rep, a, samplers, H, M, *, rank_tol=1e-10):
    """Spectra of the sampler correlations, stacked over the section.

    Requires the orbit of ``a`` under the representation to be linearly
    independent.  The annihilator of ``M`` fixes the matrix width ``r`` and
    the section fixes the row of evaluation points.
    """
    if H is not rep.H:
        if not (H.is_subgroup_of(rep.H) and rep.H.is_subgroup_of(H)):
            raise ValueError("representation must act on the given subgroup H")
        H = rep.H
    if not M.is_subgroup_of(H):
        raise ValueError("M must be a subgroup of H")
    a = as_cvector(a, rep.dim)
    samplers = [as_cvector(b, rep.dim) for b in samplers]

    orbit = np.column_stack([rep.apply(h, a) for h in H])
    sv = np.linalg.svd(orbit, compute_uv=False)
    if sv[-1] <= rank_tol * sv[0]:
        raise RepresentationError(
            f"orbit of the generator is linearly dependent (sigma ratio {sv[-1] / sv[0]:.3e})"
        )

    dual = DualGroup(H)
    perp = annihilator(H, M, dual=dual)
    omega = section_omega(dual, perp)
    r = perp.order
    s = len(samplers)

    # spectra G_j(gamma) = sum_k <a, Pi*(-k) b_j> (k, gamma); the sample
    # identity <x, Pi*(-m) b_j> = <F, conj(G_j) chi_m> pins the character sign
    sample_of_a = {
        h: [inner(rep.op(dual.H.group.neg(h)) @ a, b) for b in samplers] for h in H
    }
    spectra = {}
    for gamma in dual:
        vals = np.zeros(s, dtype=complex)
        for h in H:
            vals += dual.value(gamma, h) * np.asarray(sample_of_a[h])
        spectra[gamma] = vals

    mats = np.empty((len(omega.representatives), s, r), dtype=complex)
    for i, xi in enumerate(omega.representatives):
        for k, mu in enumerate(perp):
            mats[i, :, k] = spectra[dual.add(xi, mu)]
    eigs = np.linalg.eigvalsh(np.conj(np.swapaxes(mats, 1, 2)) @ mats)
    return GroupSpectrum(
        rep=rep,
        generator=a,
        samplers=samplers,
        M=M,
        dual=dual,
        perp=perp,
        omega=omega,
        matrices=mats,
        alpha_G=float(eigs[:, 0].min()),
        beta_G=float(eigs[:, -1].max()),
        sample_points=tuple(sorted(M)),
    )


def take_group_samples(spectrum, x):
    """Samples ``<x, Pi*(-m) b_j>`` ordered sampler-major over sorted ``M``."""
    rep = spectrum.rep
    x = as_cvector(x, rep.dim)
    group = rep.H.group
    out = np.empty(spectrum.s * len(spectrum.sample_points), dtype=complex)
    for j, b in enumerate(spectrum.samplers):
        for i, m in enumerate(spectrum.sample_points):
            out[j * len(spectrum.sample_points) + i] = inner(rep.op(group.neg(m)) @ x, b)
    return out


@dataclass(eq=False)
class GroupDual:
    """Reconstruction vectors and the dual matrices they came from."""

    spectrum: GroupSpectrum
    h_matrices: np.ndarray
    vectors: list


def group_duals(spectrum, U=None, *, threshold=1e-8):
    """Reconstruction vectors from per-point pseudo-inverse dual matrices.

    Row ``k`` of each ``r x s`` dual matrix carries the dual functions'
    values at ``xi + mu_k``; averaging against the characters gives their
    exact Fourier coefficients, which synthesize the vectors ``c_j`` in the
    orbit of the generator.
    """
    if spectrum.alpha_G <= threshold:
        raise GroupFrameError(
            f"not recoverable: alpha_G = {spectrum.alpha_G:.3e} <= {threshold:.1e}"
        )
    hmats = np.linalg.pinv(spectrum.matrices)
    if U is not None:
        U = np.asarray(U, dtype=complex)
        eye = np.eye(spectrum.s)
        hmats = hmats + U @ (eye - spectrum.matrices @ hmats)

    dual = spectrum.dual
    H = spectrum.rep.H
    r, s = spectrum.r, spectrum.s
    n_dual = dual.order

    # dual function values on the whole dual group
    h_full = np.empty((n_dual, s), dtype=complex)
    for i, xi in enumerate(spectrum.omega.representatives):
        for k, mu in enumerate(spectrum.perp):
            h_full[dual.index(dual.add(xi, mu)), :] = hmats[i, k, :]

    chars = np.empty((n_dual, H.order), dtype=complex)
    for gi, gamma in enumerate(dual):
        for hi, h in enumerate(H):
            chars[gi, hi] = dual.value(gamma, h)
    # coefficients alpha[h, j] = (r / |dual|) sum_gamma h_j(gamma) conj((h, gamma))
    coeff = (r / n_dual) * (np.conj(chars).T @ h_full)

    vectors = []
    for j in range(s):
        c = np.zeros(spectrum.rep.dim, dtype=complex)
        for hi, h in enumerate(H):
            c += coeff[hi, j] * spectrum.rep.apply(h, spectrum.generator)
        vectors.append(c)
    return GroupDual(spectrum=spectrum, h_matrices=hmats, vectors=vectors)


def group_reconstruct(dual, samples):
    """Evaluate ``sum_j sum_m samples(j, m) Pi(m) c_j``."""
    spectrum = dual.spectrum
    rep = spectrum.rep
    pts = spectrum.sample_points
    samples = as_cvector(samples, spectrum.s * len(pts))
    x = np.zeros(rep.dim, dtype=complex)
    for j, c in enumerate(dual.vectors):
        for i, m in enumerate(pts):
            x += samples[j * len(pts) + i] * rep.apply(m, c)
    return x

