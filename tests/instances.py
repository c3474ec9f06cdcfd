"""Reproducible random problem instances for experiments and tests.

Operators are built as ``V D V^{-1}`` with root-of-unity eigenvalues, so
declared orbit periods hold to rounding; generators combine the eigenvectors
of one period block each, making the orbit family well conditioned whenever
``V`` is.  ``distortion = 0`` gives unitary operators, positive values bend
the similarity away from unitarity with a controlled condition number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from orbitsamp.cyclic import (
    CyclicSubspaceSpec,
    SamplingScheme,
    build_sample_matrix,
    check_rank,
)
from orbitsamp.hilbert import LinearOperator
from orbitsamp.lca import DualGroup, GroupRepresentation

__all__ = [
    "CyclicInstanceConfig",
    "CyclicInstance",
    "operator_with_orders",
    "block_permutation",
    "random_cyclic_instance",
    "representation_from_characters",
    "group_operators",
]


def _random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_similarity(rng, dim, distortion):
    q1 = _random_unitary(rng, dim)
    if distortion <= 0:
        return q1
    q2 = _random_unitary(rng, dim)
    stretch = 1.0 + distortion * rng.random(dim)
    return q1 @ np.diag(stretch) @ q2


def operator_with_orders(rng, dim, orders, *, distortion=0.0):
    """Operator with one eigenvalue block of ``N_l``-th roots per order.

    Returns ``(op, generators)`` where generator ``l`` combines exactly the
    ``N_l`` eigenvectors of its block with coefficients of modulus in
    ``[0.5, 1.5]``, so its orbit period is exactly ``N_l`` and the orbit
    family spans independent eigen-directions.  Needs ``sum(orders) <= dim``.
    """
    orders = [int(n) for n in orders]
    total = sum(orders)
    if total > dim:
        raise ValueError(f"sum of orders {total} exceeds the dimension {dim}")
    N = math.lcm(*orders)
    eigs = []
    for n in orders:
        eigs.extend(np.exp(2j * np.pi * np.arange(n) / n))
    while len(eigs) < dim:
        eigs.append(np.exp(2j * np.pi * rng.integers(0, N) / N))
    eigs = np.asarray(eigs)
    V = _random_similarity(rng, dim, distortion)
    Vinv = np.linalg.inv(V)
    op = LinearOperator(V @ np.diag(eigs) @ Vinv)
    generators = []
    off = 0
    for n in orders:
        coeff = np.zeros(dim, dtype=complex)
        mags = 0.5 + rng.random(n)
        phases = np.exp(2j * np.pi * rng.random(n))
        coeff[off : off + n] = mags * phases
        generators.append(V @ coeff)
        off += n
    return op, generators


def block_permutation(orders):
    """A cyclic permutation block of size ``N_l`` per order, in ``sum(orders)``
    dimensions; returns ``(matrix, generators)`` with generator ``l`` the first
    basis vector of block ``l``, so its orbit period is exactly ``N_l``."""
    dim = sum(orders)
    matrix, basis = np.zeros((dim, dim)), np.eye(dim)
    starts = np.cumsum((0, *orders[:-1]))
    for start, n in zip(starts, orders):
        matrix[start + (np.arange(n) + 1) % n, start + np.arange(n)] = 1.0
    return matrix, [basis[start] for start in starts]


@dataclass(frozen=True)
class CyclicInstanceConfig:
    max_dim: int = 24
    max_generators: int = 3
    max_order: int = 12
    square: bool = False
    distortion: float = 0.0
    min_sigma_ratio: float = 1e-3
    max_attempts: int = 60


@dataclass(eq=False)
class CyclicInstance:
    spec: CyclicSubspaceSpec
    scheme: SamplingScheme
    sample_matrix: object


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def random_cyclic_instance(rng, config=CyclicInstanceConfig()):
    """Random full-rank sampling instance satisfying the config bounds.

    Draws generator orders, a sampling period dividing their lcm, and enough
    random samplers for full rank (exactly square when ``config.square``),
    then rejects draws whose sampling matrix is rank deficient or has a
    singular-value ratio below ``min_sigma_ratio``.
    """
    for _ in range(config.max_attempts):
        L = int(rng.integers(1, config.max_generators + 1))
        orders = []
        for _ in range(L):
            remaining = config.max_dim - sum(orders) - (L - len(orders) - 1) * 2
            hi = min(config.max_order, remaining)
            if hi < 2:
                break
            orders.append(int(rng.integers(2, hi + 1)))
        if len(orders) != L:
            continue
        total = sum(orders)
        dim = int(rng.integers(total, config.max_dim + 1))
        N = math.lcm(*orders)
        r_options = []
        for r in _divisors(N):
            ell = N // r
            if config.square:
                if total % ell == 0 and total // ell >= 1:
                    r_options.append(r)
            elif ell > 0:
                r_options.append(r)
        if not r_options:
            continue
        r = int(r_options[rng.integers(0, len(r_options))])
        ell = N // r
        if config.square:
            s = total // ell
        else:
            s = -(-total // ell) + int(rng.integers(0, 2))
        op, generators = operator_with_orders(rng, dim, orders, distortion=config.distortion)
        spec = CyclicSubspaceSpec(operator=op, generators=generators, orders=orders)
        samplers = [
            rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(s)
        ]
        scheme = SamplingScheme.for_spec(spec, samplers, r)
        R = build_sample_matrix(spec, scheme)
        report = check_rank(R)
        sv = report.singular_values
        if not report.full_rank or sv[-1] < config.min_sigma_ratio * sv[0]:
            continue
        return CyclicInstance(spec=spec, scheme=scheme, sample_matrix=R)
    raise RuntimeError("failed to draw a well-conditioned instance")


def representation_from_characters(rng, H, *, distortion=0.0, dim=None):
    """Representation whose eigenvalues enumerate all characters of ``H``.

    Diagonalizes the regular representation in a random basis: eigen-index
    ``i`` carries character ``i``, so the orbit of a generator with full
    eigen-support is linearly independent.  Returns ``(rep, a)``.
    """
    n = H.order
    if dim is None:
        dim = n
    if dim < n:
        raise ValueError("dimension must be at least the subgroup order")
    V = _random_similarity(rng, dim, distortion)
    Vinv = np.linalg.inv(V)
    # column i: every character at generator i
    chi = DualGroup(H).character_table()[:, H.index(H.generators)]
    ops = []
    for values in chi.T:
        eigs = np.ones(dim, dtype=complex)
        eigs[:n] = values
        ops.append(V @ np.diag(eigs) @ Vinv)
    rep = GroupRepresentation(H, ops)
    coeff = np.zeros(dim, dtype=complex)
    coeff[:n] = (0.5 + rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    a = V @ coeff
    return rep, a


def group_operators(rep, elements):
    """``Pi(h)`` for each element ``h``: column ``j`` is ``Pi(h) e_j``, read off
    the orbit of the identity."""
    H = rep.H
    pi = rep.orbit(np.eye(rep.dim))
    return [pi[:, i, :] for i in H.index(H.group.reduce(elements))]
