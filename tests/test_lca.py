import collections
import itertools
import json
import math
import os
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitsamp import cli
from orbitsamp.cyclic import (
    CyclicSubspaceSpec,
    SamplingScheme,
    build_sample_matrix,
    reconstruct,
    reconstruction_vectors,
    structurize_left_inverse,
    take_samples,
)
from orbitsamp.duals import FrameError
from orbitsamp.hilbert import RANK_TOL, LinearOperator
from instances import group_operators, representation_from_characters
from oracles import normal_form, normal_form_operator, orbit_law_holds, unique_dual_classes
from orbitsamp.lca import (
    DualGroup,
    FiniteAbelianGroup,
    GroupRepresentation,
    RepresentationError,
    Subgroup,
    annihilator,
    build_group_G_matrix,
    group_duals,
    group_reconstruct,
    section_omega,
    take_group_samples,
)


def shift_matrix(n):
    return np.roll(np.eye(n), 1, axis=0)


# group elements and labels as tuples, for the reference computations


def add(group, x, y):
    return tuple(group.reduce([np.add(x, y)])[0].tolist())


def identity(group):
    return (0,) * len(group.moduli)


def rows(array):
    """The rows of an element or label array as tuples."""
    return list(map(tuple, array.tolist()))


def characters_at(dual, h):
    """``(h, gamma)`` for every label ``gamma``: a column of the character table."""
    return dual.character_table()[:, dual.H.index(np.array(h))]


class TestGroups:
    def test_order_and_reduce(self):
        g = FiniteAbelianGroup((4, 6))
        assert g.order == 24
        assert g.reduce([(5, -1)]).tolist() == [[1, 5]]

    def test_subgroup_closure(self):
        g = FiniteAbelianGroup((4,))
        m = Subgroup(g, [(2,)])
        assert m.elements.tolist() == [[0], [2]]
        assert m.index(np.array([[2]])).tolist() == [1]
        with pytest.raises(ValueError, match="not in the subgroup"):
            m.index(np.array([[1]]))

    def test_subgroup_of(self):
        g = FiniteAbelianGroup((12,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(3,)])
        assert m.is_subgroup_of(h)
        assert not h.is_subgroup_of(m)

    def test_subgroup_of_an_equal_group(self):
        # two groups with the same moduli are one group: containment reads the elements
        m = Subgroup(FiniteAbelianGroup((4,)), [(2,)])
        h = Subgroup(FiniteAbelianGroup((4,)), [(1,)])
        assert m.is_subgroup_of(h) and not h.is_subgroup_of(m)
        assert not m.is_subgroup_of(Subgroup(FiniteAbelianGroup((2, 2)), [(1, 0)]))


class TestDualGroup:
    def test_full_group_dual(self):
        g = FiniteAbelianGroup((4,))
        dual = DualGroup(Subgroup(g, [(1,)]))
        assert dual.labels.tolist() == [[0], [1], [2], [3]]

    def test_proper_subgroup_dual_size(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(2,)])
        dual = DualGroup(h)
        assert dual.order == 2

    @settings(max_examples=20, deadline=None)
    @given(mods=st.lists(st.integers(2, 4), min_size=1, max_size=2))
    def test_character_orthogonality(self, mods):
        g = FiniteAbelianGroup(tuple(mods))
        h = Subgroup(g, [tuple(np.eye(len(mods), dtype=int)[i]) for i in range(len(mods))])
        dual = DualGroup(h)
        n = dual.order
        for i, hi in enumerate(h.elements):
            for j, hj in enumerate(h.elements):
                acc = np.sum(characters_at(dual, hi) * np.conj(characters_at(dual, hj))) / n
                expected = 1.0 if i == j else 0.0
                assert abs(acc - expected) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.lists(st.integers(1, 8), min_size=1, max_size=3).flatmap(
            lambda mods: st.tuples(
                st.just(tuple(mods)),
                st.lists(st.tuples(*(st.integers(0, m - 1) for m in mods)), max_size=3),
            )
        )
    )
    @example(case=((4, 6), [(2, 0), (1, 3)]))
    @example(case=((8,), []))  # the trivial subgroup: one class
    def test_classes_match_unique_rows(self, case):
        moduli, gens = case
        g = FiniteAbelianGroup(moduli)
        H = Subgroup(g, gens)
        dual = DualGroup(H)
        labels, classes = unique_dual_classes(H)
        ambient = np.indices(moduli).reshape(len(moduli), -1).T
        assert np.array_equal(dual.labels, labels)
        assert np.array_equal(dual.indices(ambient), classes)

    def test_character_multiplicativity(self):
        g = FiniteAbelianGroup((6,))
        dual = DualGroup(Subgroup(g, [(1,)]))
        for a in [(1,), (2,), (5,)]:
            for b in [(3,), (4,)]:
                lhs = characters_at(dual, add(g, a, b))
                rhs = characters_at(dual, a) * characters_at(dual, b)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestAnnihilator:
    def test_z4_midpoint(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(2,)])
        perp = annihilator(h, m)
        assert perp.tolist() == [[0], [2]]
        assert len(perp) == 2

    def test_trivial_cases(self):
        g = FiniteAbelianGroup((6,))
        h = Subgroup(g, [(1,)])
        assert len(annihilator(h, h)) == 1
        zero = Subgroup(g, [(0,)])
        assert len(annihilator(h, zero)) == h.order

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 12), d=st.integers(1, 12))
    def test_order_product_law(self, n, d):
        if n % d != 0:
            return
        g = FiniteAbelianGroup((n,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(d,)])
        perp = annihilator(h, m)
        assert len(perp) * m.order == h.order

    def test_not_subgroup_rejected(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(2,)])
        m = Subgroup(g, [(1,)])
        with pytest.raises(ValueError):
            annihilator(h, m)


class TestSection:
    def test_tiling_exact(self):
        g = FiniteAbelianGroup((12,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(3,)])
        dual = DualGroup(h)
        perp = annihilator(h, m, dual=dual)
        cells = section_omega(dual, perp)
        assert len(cells) * len(perp) == dual.order
        # the cells hold every dual index once
        assert np.array_equal(np.sort(cells, axis=None), np.arange(dual.order))

    def test_deterministic_lexicographic(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(2,)])
        dual = DualGroup(h)
        cells = section_omega(dual, annihilator(h, m, dual=dual))
        assert dual.labels[cells[:, 0]].tolist() == [[0], [1]]


class TestRepresentation:
    def test_shift_representation(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        rep = GroupRepresentation(h, [shift_matrix(4)])
        zero, three, one = group_operators(rep, [(0,), (3,), (1,)])
        assert np.allclose(zero, np.eye(4))
        assert np.allclose(three, np.linalg.matrix_power(shift_matrix(4), 3))
        assert np.allclose(three @ one, np.eye(4))

    def test_non_homomorphic_rejected(self):
        # the shift on C^4 has order 4, not 2: refused on the orbit it acts on
        g = FiniteAbelianGroup((2,))
        h = Subgroup(g, [(1,)])
        rep = GroupRepresentation(h, [shift_matrix(4)])
        e = np.eye(4)
        with pytest.raises(RepresentationError, match="operator 0 breaks the orbit law"):
            build_group_G_matrix(rep, e[0], [e[0]], h, h)
        # on an orbit it keeps, of period 2, it acts as Z_2 does
        spectrum = build_group_G_matrix(rep, e[0] + e[2], [e[0]], h, h)
        assert np.array_equal(spectrum.orbit, np.column_stack([e[0] + e[2], e[1] + e[3]]))

    def test_inverse_consistency(self):
        rng = np.random.default_rng(0)
        g = FiniteAbelianGroup((6,))
        h = Subgroup(g, [(1,)])
        rep, _ = representation_from_characters(rng, h, distortion=0.2)
        negative = group_operators(rep, [(-k,) for k in range(6)])
        positive = group_operators(rep, [(k,) for k in range(6)])
        for lhs, op in zip(negative, positive):
            assert np.max(np.abs(lhs - np.linalg.inv(op))) < 1e-8


class TestGroupSpectrum:
    def test_orthonormal_orbit_constant_spectrum(self):
        # unitary shift, a = b = delta, M = H: G is the constant 1
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        rep = GroupRepresentation(h, [shift_matrix(4)])
        e = np.eye(4)
        spectrum = build_group_G_matrix(rep, e[0], [e[0]], h, h)
        assert spectrum.r == 1
        assert np.allclose(spectrum.family.matrices, 1.0)
        assert abs(spectrum.frame.alpha_G - 1.0) < 1e-12

    def test_singular_values_match_cyclic(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(2,)])
        rep = GroupRepresentation(h, [shift_matrix(4)])
        e = np.eye(4)
        spectrum = build_group_G_matrix(rep, e[0], [e[0], e[1]], h, m)
        op = LinearOperator(shift_matrix(4))
        spec = CyclicSubspaceSpec(operator=op, generators=[e[0]], orders=[4])
        scheme = SamplingScheme.for_spec(spec, [e[0], e[1]], 2)
        R = build_sample_matrix(spec, scheme)
        sv_cyclic = np.sort(np.linalg.svd(R.matrix, compute_uv=False))
        eigs = np.linalg.eigvalsh(
            np.conj(np.swapaxes(spectrum.family.matrices, 1, 2)) @ spectrum.family.matrices
        )
        sv_group = np.sort(np.sqrt(np.maximum(eigs, 0) / spectrum.r).ravel())
        assert np.max(np.abs(sv_cyclic - sv_group)) < 1e-10

    def test_subgroups_over_equal_groups(self):
        # H and M over two equal group objects give the spectrum of one shared object
        rng = np.random.default_rng(3)
        g = FiniteAbelianGroup((2, 4))
        h = Subgroup(g, [(1, 0), (0, 1)])
        rep, a = representation_from_characters(rng, h, distortion=0.2)
        samplers = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(3)]
        shared = build_group_G_matrix(rep, a, samplers, h, Subgroup(g, [(0, 2)]))
        other = FiniteAbelianGroup((2, 4))
        assert other == g and other is not g
        for H in (h, Subgroup(other, [(1, 0), (0, 1)])):
            spectrum = build_group_G_matrix(rep, a, samplers, H, Subgroup(other, [(0, 2)]))
            assert spectrum.r == shared.r
            assert np.array_equal(spectrum.perp, shared.perp)
            assert np.array_equal(spectrum.cells, shared.cells)
            assert np.array_equal(spectrum.family.matrices, shared.family.matrices)

    def test_dependent_orbit_rejected(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        rep = GroupRepresentation(h, [np.eye(3)])
        with pytest.raises(RepresentationError):
            build_group_G_matrix(rep, np.ones(3), [np.ones(3)], h, h)


class TestGroupReconstruction:
    def test_trivial_orthonormal_case(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        rep = GroupRepresentation(h, [shift_matrix(4)])
        e = np.eye(4)
        spectrum = build_group_G_matrix(rep, e[0], [e[0]], h, h)
        duals = group_duals(spectrum)
        assert np.allclose(duals.vectors[0], e[0])
        x = np.array([1.0, 2.0, 3.0, 4.0])
        xh = group_reconstruct(duals, take_group_samples(spectrum, x))
        assert np.allclose(xh, x)

    def test_product_group_round_trip(self):
        rng = np.random.default_rng(1)
        g = FiniteAbelianGroup((2, 2))
        h = Subgroup(g, [(1, 0), (0, 1)])
        m = Subgroup(g, [(1, 0)])
        rep, a = representation_from_characters(rng, h, distortion=0.2)
        samplers = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]
        spectrum = build_group_G_matrix(rep, a, samplers, h, m)
        assert spectrum.r == 2
        coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = spectrum.orbit @ coeff
        xh = group_reconstruct(group_duals(spectrum), take_group_samples(spectrum, x))
        # oracle: dense solve of the sample system
        assert np.linalg.norm(xh - x) <= 1e-8 * np.linalg.norm(x)

    def test_product_group_shift_representation_dense_oracle(self):
        # Z2 x Z2 acting on C^4 by coordinate translation of the group algebra
        rng = np.random.default_rng(5)
        g = FiniteAbelianGroup((2, 2))
        h = Subgroup(g, [(1, 0), (0, 1)])
        m = Subgroup(g, [(1, 0)])
        idx = {e: i for i, e in enumerate(rows(h.elements))}
        ops = []
        for gen in h.generators:
            op = np.zeros((4, 4))
            for e, i in idx.items():
                op[idx[add(g, e, gen)], i] = 1.0
            ops.append(op)
        rep = GroupRepresentation(h, ops)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        samplers = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(2)]
        spectrum = build_group_G_matrix(rep, a, samplers, h, m)
        assert spectrum.r == 2
        assert len(spectrum.cells) == 2
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        samples = take_group_samples(spectrum, x)
        xh = group_reconstruct(group_duals(spectrum), samples)
        # dense oracle: solve the full sampling system for the coefficients
        orbit = spectrum.orbit
        forms = normal_form(h)
        S = np.array([
            (normal_form_operator(ops, forms[add(g, identity(g), np.negative(mm))]).conj().T
             @ b).conj() @ orbit
            for b in spectrum.samplers
            for mm in spectrum.M.elements
        ])
        alpha_hat, *_ = np.linalg.lstsq(S, samples, rcond=None)
        x_oracle = orbit @ alpha_hat
        assert np.linalg.norm(xh - x_oracle) <= 1e-8 * np.linalg.norm(x_oracle)

    def test_matches_cyclic_pipeline_z4(self):
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(2,)])
        rep = GroupRepresentation(h, [shift_matrix(4)])
        e = np.eye(4)
        spectrum = build_group_G_matrix(rep, e[0], [e[0], e[1]], h, m)
        duals = group_duals(spectrum)

        op = LinearOperator(shift_matrix(4))
        spec = CyclicSubspaceSpec(operator=op, generators=[e[0]], orders=[4])
        scheme = SamplingScheme.for_spec(spec, [e[0], e[1]], 2)
        R = build_sample_matrix(spec, scheme)
        basis = reconstruction_vectors(spec, structurize_left_inverse(R))

        rng = np.random.default_rng(2)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        samples_group = take_group_samples(spectrum, x)
        samples_cyclic = take_samples(spec, scheme, x)
        assert np.allclose(samples_group, samples_cyclic)
        xg = group_reconstruct(duals, samples_group)
        xc = reconstruct(spec, scheme, basis, samples_cyclic)
        assert np.max(np.abs(xg - xc)) < 1e-10

    def test_unrecoverable_reported(self):
        # single sampler with r = 2 cannot span: alpha_G = 0
        g = FiniteAbelianGroup((4,))
        h = Subgroup(g, [(1,)])
        m = Subgroup(g, [(2,)])
        rep = GroupRepresentation(h, [shift_matrix(4)])
        e = np.eye(4)
        spectrum = build_group_G_matrix(rep, e[0], [e[0]], h, m)
        with pytest.raises(FrameError):
            group_duals(spectrum)


def unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


@st.composite
def assignments(draw):
    moduli = tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2)))
    element = st.tuples(*(st.integers(0, m - 1) for m in moduli))
    gens = draw(st.lists(element, min_size=1, max_size=3))
    mode = draw(st.sampled_from(["consistent", "phase", "rotate", "off-orbit"]))
    which = draw(st.integers(0, len(gens) - 1))
    return moduli, gens, mode, which, draw(st.integers(1, 11)), draw(st.integers(0, 2**16))


def closure(group, generators):
    """Brute-force subgroup: sums of generators from ``0`` until nothing new appears."""
    seen, frontier = {identity(group)}, [identity(group)]
    while frontier:
        frontier = {add(group, h, g) for h in frontier for g in generators} - seen
        seen |= frontier
    return sorted(seen)


class TestSubgroupEnumeration:
    """Each ``d_i`` is found among the divisors of ``ord(g_i)``: the cost of a
    subgroup follows its own order, not the group's exponent."""

    @pytest.mark.parametrize("gen", [1 << 21, 0, 1 << 20])
    def test_small_subgroup_of_large_group_is_fast(self, gen):
        group = FiniteAbelianGroup((1 << 22,))
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            H = Subgroup(group, [(gen,)])
            best = min(best, time.perf_counter() - start)
        assert best < 0.05
        assert rows(H.elements) == closure(group, [(gen,)])
        assert H.steps == (H.order,)


@st.composite
def subgroup_pairs(draw):
    """Moduli and two generator lists of up to three unreduced elements each;
    empty lists, zero generators and moduli of 1 give trivial subgroups."""
    moduli = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    element = st.tuples(*(st.integers(-7, 7) for _ in moduli))
    return moduli, draw(st.lists(element, max_size=3)), draw(st.lists(element, max_size=3))


class TestStepsAndCoordinates:
    @settings(max_examples=80, deadline=None)
    @given(case=subgroup_pairs())
    @example(case=((1,), [], []))
    @example(case=((4, 6), [(0, 0)], [(2, 0), (1, 3)]))
    @example(case=((4, 6), [(2, 0), (1, 3)], [(0, 3)]))
    @example(case=((6, 6), [(0, 0), (3, 3), (2, 4)], [(3, 3)]))
    def test_subgroup_laws(self, case):
        moduli, gens, others = case
        group = FiniteAbelianGroup(moduli)
        H, K = Subgroup(group, gens), Subgroup(group, others)
        assert rows(H.elements) == closure(group, rows(H.generators))
        assert len(H.steps) == len(gens) and math.prod(H.steps) == H.order
        # d_i g_i lies in <g_{i+1}..g_k> and no smaller positive multiple does
        for i, (d, g) in enumerate(zip(H.steps, rows(H.generators))):
            later = set(closure(group, rows(H.generators[i + 1:])))
            multiples = [add(group, np.multiply(n, g), identity(group)) for n in range(1, d + 1)]
            assert multiples[-1] in later and later.isdisjoint(multiples[:-1])
        # the coordinates rebuild every element, each from one row of the box
        n = H.coordinates(H.elements)
        assert n.shape == (H.order, len(gens))
        assert ((n >= 0) & (n < np.array(H.steps, dtype=int))).all()
        assert np.array_equal(group.reduce(n @ H.generators), H.elements)
        assert dict(zip(rows(H.elements), rows(n))) == normal_form(H)
        # containment read from generators agrees with containment of elements
        for A, B in ((K, H), (H, K), (H, H)):
            assert A.is_subgroup_of(B) == set(rows(A.elements)).issubset(rows(B.elements))

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_subgroup_orbit_steps_by_coordinate_chains(self, adjoint):
        # operators that do not commute: the order of each chain shows
        rng = np.random.default_rng(7)
        group = FiniteAbelianGroup((4, 6))
        H = Subgroup(group, [(1, 0), (0, 1)])
        K = Subgroup(group, [(1, 2), (2, 3)])
        mats = [rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(2)]
        rep = GroupRepresentation(H, mats)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        steps = [normal_form_operator(mats, normal_form(H)[g]) for g in rows(K.generators)]
        if adjoint:
            steps = [P.conj().T for P in steps]
        forms = normal_form(K)
        want = np.column_stack([normal_form_operator(steps, forms[k]) @ v for k in rows(K.elements)])
        got = rep.orbit(v, K, adjoint=adjoint)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestRelationCheck:
    def test_non_diagonal_relation_basis(self):
        g = FiniteAbelianGroup((4, 6))
        h = Subgroup(g, [(2, 0), (1, 3)])
        assert h.elements.tolist() == [[0, 0], [1, 3], [2, 0], [3, 3]]
        # (2, 0) = 2 (1, 3) in Z4 x Z6, and (1, 3) has order 4
        assert h.steps == (1, 4)
        assert h.coordinates(h.generators).tolist() == [[0, 2], [0, 1]]

    @settings(max_examples=60, deadline=None)
    @given(case=assignments())
    @example(case=((4, 6), [(2, 0), (1, 3)], "consistent", 0, 1, 0))
    @example(case=((4, 6), [(2, 0), (1, 3)], "phase", 1, 6, 0))
    @example(case=((4, 6), [(2, 0), (1, 3)], "rotate", 1, 1, 0))
    @example(case=((6, 6), [(0, 0), (3, 3), (2, 4)], "consistent", 0, 1, 0))
    @example(case=((4, 6), [(2, 0), (1, 3)], "off-orbit", 0, 1, 0))
    def test_accepts_exactly_as_all_pairs_oracle(self, case):
        """Accepted iff ``Pi(h) Pi(k) a = Pi(h + k) a`` for all ``h, k`` of ``H``."""
        moduli, gens, mode, which, q, seed = case
        g = FiniteAbelianGroup(moduli)
        H = Subgroup(g, gens)
        # d_i g_i lies in <g_{i+1}..g_k>: its coordinates vanish up to i
        for i, (d, gen) in enumerate(zip(H.steps, H.generators)):
            assert not H.coordinates(g.reduce([d * gen]))[0, : i + 1].any()
        assert math.prod(H.steps) == H.order
        # characters of H in a random unitary basis: a representation, and
        # a = V 1 spans it; a root-of-unity factor may break a relation (a
        # wrong order), a rotation of one generator breaks commutation, and
        # singular blocks that do not commute, off the orbit, break neither
        rng = np.random.default_rng(seed)
        dual = DualGroup(H)
        V = unitary(rng, H.order)
        ops = [V @ np.diag(characters_at(dual, gen)) @ V.conj().T for gen in H.generators]
        a = V @ np.ones(H.order)
        if mode == "phase":
            ops[which] = ops[which] * np.exp(2j * np.pi * q / 12)
        elif mode == "rotate":
            Q = unitary(rng, H.order)
            ops[which] = Q @ ops[which] @ Q.conj().T
        elif mode == "off-orbit":
            blocks = [np.outer(*rng.standard_normal((2, 2))) for _ in ops]
            ops = [np.block([[T, np.zeros((H.order, 2))], [np.zeros((2, H.order)), X]])
                   for T, X in zip(ops, blocks)]
            a = np.concatenate([a, np.zeros(2)])
            if len(ops) > 1:
                assert np.max(np.abs(ops[0] @ ops[1] - ops[1] @ ops[0])) > 1e-3
        rep = GroupRepresentation(H, ops)  # counts and shapes only
        try:
            build_group_G_matrix(rep, a, [a], H, H)
            accepted = True
        except RepresentationError as exc:
            accepted = "orbit law" not in str(exc)
        assert accepted == orbit_law_holds(H, ops, a)
        assert accepted or mode in ("phase", "rotate")

    def test_relation_violation_named(self):
        g = FiniteAbelianGroup((4, 6))
        h = Subgroup(g, [(2, 0), (1, 3)])
        # Pi(1, 3) of order 4 but Pi(2, 0) not its square: the operator of
        # (2, 0) moves no orbit vector by two steps
        rep = GroupRepresentation(h, [np.eye(4), shift_matrix(4)])
        reason = ("operator 0 breaks the orbit law: T_0 Pi(h) a differs from "
                  "Pi(h + (2, 0)) a (relative gap 1.000e+00)")
        with pytest.raises(RepresentationError, match=re.escape(reason)):
            build_group_G_matrix(rep, np.eye(4)[0], [np.eye(4)[0]], h, h)


class TestDualEnumeration:
    @settings(max_examples=30, deadline=None)
    @given(case=assignments(), m_count=st.integers(0, 2))
    def test_matches_fraction_enumeration(self, case, m_count):
        moduli, gens, *_ = case
        g = FiniteAbelianGroup(moduli)
        H = Subgroup(g, gens)
        M = Subgroup(g, [add(g, x, x) for x in gens[:m_count]])
        dual = DualGroup(H)
        perp = annihilator(H, M, dual=dual)
        cells = section_omega(dual, perp)

        def key(label, elems):
            return tuple(
                sum(Fraction(a * b, m) for a, b, m in zip(label, e, moduli)) % 1
                for e in elems
            )

        classes = {}
        for label in itertools.product(*(range(m) for m in moduli)):
            classes.setdefault(key(label, rows(H.generators)), label)
        labels = rows(dual.labels)
        assert labels == sorted(classes.values())
        assert rows(perp) == [
            gam for gam in labels if all(v == 0 for v in key(gam, rows(M.generators)))
        ]
        reps, assigned = [], set()
        for gam in labels:
            if gam not in assigned:
                reps.append(gam)
                assigned.update(labels[dual.indices(np.add(gam, mu))] for mu in perp)
        assert rows(dual.labels[cells[:, 0]]) == reps
        chi = dual.character_table()
        for i, gam in enumerate(labels):
            for j, h in enumerate(rows(H.elements)):
                assert abs(chi[i, j] - np.exp(2j * math.pi * key(gam, [h])[0])) < 1e-12


class TestScaleInvariance:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        case=st.sampled_from(
            [
                ((6,), [(1,)], [(2,)]),
                ((6,), [(1,)], [(3,)]),
                ((2, 4), [(1, 0), (0, 1)], [(0, 2)]),
                ((4, 6), [(2, 0), (1, 3)], [(2, 0)]),
            ]
        ),
        extra=st.integers(-1, 1),
    )
    def test_verdict_and_reconstruction(self, seed, case, extra):
        moduli, H_gens, M_gens = case
        rng = np.random.default_rng(seed)
        g = FiniteAbelianGroup(moduli)
        H, M = Subgroup(g, H_gens), Subgroup(g, M_gens)
        rep, a = representation_from_characters(rng, H, distortion=0.2)
        n = rep.dim
        count = max(1, H.order // M.order + extra)
        samplers = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(count)]
        x = rep.orbit(a) @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        verdicts, rebuilt = set(), []
        # a warning (an overflow in G*G, say) fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for c in (1e-6, 1.0, 1e3, 1e-200, 1e160, 1e200):
                spectrum = build_group_G_matrix(rep, a, [c * b for b in samplers], H, M)
                try:
                    duals = group_duals(spectrum)
                except FrameError:
                    verdicts.add((spectrum.frame.sigma_ratio > 1e-10, False))
                    continue
                verdicts.add((spectrum.frame.sigma_ratio > 1e-10, True))
                rebuilt.append(group_reconstruct(duals, take_group_samples(spectrum, x)))
        assert len(verdicts) == 1
        for xh in rebuilt:
            assert np.linalg.norm(xh - x) <= 1e-8 * np.linalg.norm(x)


class TestOrbitCertificate:
    """Section matrices that pass the frame test at ``RANK_TOL`` certify the orbit.

    They are the Fourier blocks of the map from orbit coefficients to samples,
    so only when they fail is the orbit decomposed.  The oracle is an up-front
    SVD of the orbit matrix; outcomes match it except in one class: an orbit
    at or below ``RANK_TOL`` whose section matrices still clear it is accepted.
    """

    CASES = [
        ((6,), [(1,)], [(2,)]),
        ((6,), [(1,)], [(3,)]),
        ((2, 4), [(1, 0), (0, 1)], [(0, 2)]),
    ]
    DEFECTS = ("none", "dropped character", "faint character", "faint, amplified")

    def instance(self, rng, case, defect, extra):
        """``(rep, a, samplers, H, M)``; the representation is diagonal in a
        random basis ``V``, eigen-index ``i`` carrying character ``i``."""
        moduli, H_gens, M_gens = case
        g = FiniteAbelianGroup(moduli)
        H, M = Subgroup(g, H_gens), Subgroup(g, M_gens)
        n = H.order
        V = unitary(rng, n) + 0.2 * rng.standard_normal((n, n))
        Vinv = np.linalg.inv(V)
        chi = DualGroup(H).character_table()[:, H.index(H.generators)]
        rep = GroupRepresentation(H, [V @ np.diag(col) @ Vinv for col in chi.T])
        coeff = (0.5 + rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        samplers = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                    for _ in range(max(1, n // M.order + extra))]
        i = int(rng.integers(n))
        if defect != "none":
            coeff[i] = 0.0 if defect == "dropped character" else 1e-12 * coeff[i]
        if defect == "faint, amplified":  # every sampler reads character i 1e12 times louder
            samplers = [b + 1e12 * rng.standard_normal() * Vinv[i].conj() for b in samplers]
        return rep, V @ coeff, samplers, H, M

    @settings(max_examples=40, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        defect=st.sampled_from(DEFECTS),
        extra=st.integers(-1, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(case=CASES[0], defect="faint, amplified", extra=0, seed=0)
    @example(case=CASES[2], defect="dropped character", extra=1, seed=1)
    def test_matches_orbit_svd_oracle(self, case, defect, extra, seed):
        rep, a, samplers, H, M = self.instance(np.random.default_rng(seed), case, defect, extra)
        sv = np.linalg.svd(rep.orbit(a), compute_uv=False)
        dependent = sv[-1] <= RANK_TOL * sv[0]
        try:
            spectrum = build_group_G_matrix(rep, a, samplers, H, M)
        except RepresentationError as exc:
            assert dependent and "linearly dependent" in str(exc)
            return
        assert not dependent or spectrum.frame.sigma_ratio > RANK_TOL

    def test_faint_amplified_character_accepted(self):
        rep, a, samplers, H, M = self.instance(
            np.random.default_rng(5), self.CASES[0], "faint, amplified", 0
        )
        sv = np.linalg.svd(rep.orbit(a), compute_uv=False)
        assert sv[-1] <= RANK_TOL * sv[0]
        assert build_group_G_matrix(rep, a, samplers, H, M).frame.sigma_ratio > RANK_TOL

    def test_orbit_wider_than_space_exits_two(self, tmp_path, monkeypatch, capsys):
        # Z_4 acting on C^2 by diag(1, i): |H| = 4 orbit vectors in dimension 2
        reason = "orbit of the generator is linearly dependent (4 of them in dimension 2)"
        doc = {
            "model": "lca",
            "dimension": 2,
            "operator": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "generators": [[[1, 0], [1, 0]]],
            "samplers": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "group": {"moduli": [4], "H_gens": [[1]], "M_gens": [[2]]},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(GroupRepresentation, "orbit", None)  # never formed
        assert cli.main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"
        g = FiniteAbelianGroup((4,))
        H, M = Subgroup(g, [(1,)]), Subgroup(g, [(2,)])
        rep = GroupRepresentation(H, [np.diag([1, 1j])])
        with pytest.raises(RepresentationError, match=re.escape(reason)):
            build_group_G_matrix(rep, [1, 1], list(np.eye(2)), H, M)

    def test_certified_orbit_takes_no_orbit_svd(self, monkeypatch):
        rep, a, samplers, H, M = self.instance(
            np.random.default_rng(6), self.CASES[2], "none", 1
        )
        shapes = []
        svd = np.linalg.svd

        def recording_svd(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        spectrum = build_group_G_matrix(rep, a, samplers, H, M)
        # the one factorization is of the section matrices: |Omega| x s x r
        assert spectrum.frame.sigma_ratio > RANK_TOL and shapes == [(2, 5, 4)]


def test_z16_by_z16_round_trip():
    rng = np.random.default_rng(3)
    g = FiniteAbelianGroup((16, 16))
    h = Subgroup(g, [(1, 0), (0, 1)])
    m = Subgroup(g, [(2, 0), (0, 2)])
    rep, a = representation_from_characters(rng, h, distortion=0.2)
    samplers = [rng.standard_normal(256) + 1j * rng.standard_normal(256) for _ in range(6)]
    spectrum = build_group_G_matrix(rep, a, samplers, h, m)
    assert rep.dim == 256 and spectrum.r == 4
    x = spectrum.orbit @ (rng.standard_normal(256) + 1j * rng.standard_normal(256))
    xh = group_reconstruct(group_duals(spectrum), take_group_samples(spectrum, x))
    assert np.linalg.norm(xh - x) <= 1e-9 * np.linalg.norm(x)


class TestEachQuantityOnce:
    """One CLI command steps the generator's orbit, forms the character table
    and forms the coset table behind the section cells once each:
    ``build_group_G_matrix`` keeps them on the ``GroupSpectrum`` for the
    duals and the reconstruction."""

    @pytest.mark.parametrize("command", ["analyze", "dual", "reconstruct"])
    def test_one_command(self, tmp_path, monkeypatch, capsys, command):
        problem = os.path.join(os.path.dirname(__file__), "..", "problems", "lca_z4.json")
        with open(problem) as fh:
            spectrum = cli._Lca(json.load(fh)).spectrum
        samples = str(tmp_path / "s.csv")
        cli.write_vector_csv(samples, take_group_samples(spectrum, spectrum.orbit[:, 0]))
        counts = collections.Counter()

        def counted(name, func, counts_call=lambda *args: True):
            def wrapper(*args, **kwargs):
                counts[name] += counts_call(*args)
                return func(*args, **kwargs)
            return wrapper

        # the generator's orbit is the one orbit of a single vector
        monkeypatch.setattr(GroupRepresentation, "orbit", counted(
            "orbit", GroupRepresentation.orbit, lambda rep, vectors, *rest: np.ndim(vectors) == 1
        ))
        monkeypatch.setattr(DualGroup, "character_table",
                            counted("character table", DualGroup.character_table))
        monkeypatch.setattr(DualGroup, "indices", counted("coset table", DualGroup.indices))
        argv = {
            "analyze": ["analyze", "--input", problem],
            "dual": ["dual", "--input", problem, "--out", str(tmp_path / "d")],
            "reconstruct": ["reconstruct", "--input", problem, "--samples", samples,
                            "--out", str(tmp_path / "r")],
        }[command]
        assert cli.main(argv) == 0, capsys.readouterr()
        assert counts == {"orbit": 1, "character table": 1, "coset table": 1}
