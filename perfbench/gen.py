"""Seeded problem generators for the benchmark, written with numpy only.

Nothing here imports ``orbitsamp``: input generation must cost the same
whatever the library does, and must not run the code under measurement.
Every problem comes with the verdict its construction guarantees and with
the ground truth an op's output is checked against.

Cyclic operators are ``V diag(roots of unity) V^-1`` with a well-conditioned
``V``; finite-group representations are ``V diag(characters) V^-1``.  Shift
problems are random finitely supported sequences whose frame spectrum is
checked here, on an FFT grid, to sit well away from zero.  Filter banks are
built from unimodular polyphase factors, so perfect reconstruction holds by
construction.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

RESIDUAL_BOUND = 1e-6
"""Largest accepted relative error of a reconstruction against its truth."""


def _unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _similarity(rng, d):
    """``Q1 diag(1..1.5) Q2``: condition number at most 1.5."""
    return _unitary(rng, d) @ np.diag(1.0 + 0.5 * rng.random(d)) @ _unitary(rng, d)


def _unit_vectors(rng, count, d, scale):
    out = []
    for _ in range(count):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        out.append(scale * v / np.linalg.norm(v))
    return out


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _matrix_pairs(m):
    return [_pairs(row) for row in m]


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_csv(path, values):
    """Samples in the CLI's ``index,re,im`` format, 17 significant digits."""
    lines = ["index,re,im"]
    for i, z in enumerate(np.asarray(values, dtype=complex)):
        lines.append(f"{i},{float(z.real):.17g},{float(z.imag):.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse an ``index,re,im`` CSV into indices and its two text columns."""
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if not rows or rows[0] != ["index", "re", "im"]:
        raise ValueError(f"{path}: expected header index,re,im")
    if any(len(row) != 3 for row in rows[1:]):
        raise ValueError(f"{path}: malformed row")
    return [int(r[0]) for r in rows[1:]], [r[1] for r in rows[1:]], [r[2] for r in rows[1:]]


def read_indexed(path):
    """Indices and finite complex values of an ``index,re,im`` CSV."""
    idx, re, im = read_csv(path)
    out = np.array([complex(float(a), float(b)) for a, b in zip(re, im)])
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: non-finite entry")
    return np.array(idx, dtype=int), out


def read_vector(path):
    return read_indexed(path)[1]


def read_exact(path):
    """Exact real CSV (``p/q`` cells) as ``{index: Fraction}``."""
    idx, re, im = read_csv(path)
    if any(Fraction(b) != 0 for b in im):
        raise ValueError(f"{path}: expected real cofactors")
    return {i: Fraction(a) for i, a in zip(idx, re)}


def relative_error(x, truth):
    x = np.asarray(x, dtype=complex)
    truth = np.asarray(truth, dtype=complex)
    return float(np.linalg.norm(x - truth) / max(np.linalg.norm(truth), 1e-300))


# -- cyclic ------------------------------------------------------------------


@dataclass(eq=False)
class CyclicProblem:
    """Operator ``V diag(lam) V^-1``; generator ``l`` owns one eigen-block."""

    d: int
    orders: list
    r: int
    s: int
    scale: float
    V: np.ndarray
    Vinv: np.ndarray
    lam: np.ndarray
    coeff: np.ndarray
    samplers: list
    truth_x: np.ndarray = None
    truth_alpha: list = None
    samples: np.ndarray = None

    @property
    def ell(self):
        return math.lcm(*self.orders) // self.r

    def element(self, rng):
        """Random subspace element: ``(x, per-generator orbit coefficients)``."""
        y = np.zeros(self.d, dtype=complex)
        alphas, off = [], 0
        for n in self.orders:
            alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lam = self.lam[off : off + n]
            vander = lam[:, None] ** np.arange(n)[None, :]
            y[off : off + n] = self.coeff[off : off + n] * (vander @ alpha)
            alphas.append(alpha)
            off += n
        return self.V @ y, alphas

    def sample(self, x):
        """``<T^{-r n} x, b_j>``, sampler-major, as ``take_samples`` orders them."""
        y = self.Vinv @ x
        w = np.array([self.V.conj().T @ b for b in self.samplers])
        steps = self.lam[None, :] ** (-self.r * np.arange(self.ell)[:, None])
        return (w.conj() @ (steps * y[None, :]).T).reshape(-1)

    def apply_duals(self, duals, samples):
        """``sum_{j,n} samples(j, n) T^{r n} c_j`` evaluated in the eigenbasis."""
        ell = self.ell
        cs = np.array([self.Vinv @ c for c in duals])
        mix = np.asarray(samples).reshape(self.s, ell)
        steps = self.lam[None, :] ** (self.r * np.arange(ell)[:, None])
        return self.V @ np.einsum("jn,ni,ji->i", mix, steps, cs)

    def operator(self):
        return self.V @ np.diag(self.lam) @ self.Vinv

    def generators(self):
        gens, off = [], 0
        for n in self.orders:
            c = np.zeros(self.d, dtype=complex)
            c[off : off + n] = self.coeff[off : off + n]
            gens.append(self.V @ c)
            off += n
        return gens

    def document(self):
        return {
            "model": "cyclic",
            "dimension": self.d,
            "operator": _matrix_pairs(self.operator()),
            "generators": [_pairs(a) for a in self.generators()],
            "orders": list(self.orders),
            "samplers": [_pairs(b) for b in self.samplers],
            "r": self.r,
            "truth": _pairs(self.truth_x),
        }


def _class_margin(lam_idx, ell, w):
    """Smallest sigma ratio of the per-frequency blocks that decide the rank.

    Eigen-index ``i`` with eigenvalue ``exp(2 pi i m_i / N)``, ``N = r ell``, falls in
    class ``m_i mod ell``; ``R`` has full column rank exactly when each
    class's ``s x |class|`` block of sampler projections has.
    """
    worst = np.inf
    for c in range(ell):
        cols = [i for i, m in enumerate(lam_idx) if m % ell == c]
        if not cols:
            continue
        if len(cols) > w.shape[0]:
            return 0.0
        sv = np.linalg.svd(w[:, cols], compute_uv=False)
        worst = min(worst, sv[-1] / sv[0])
    return worst


def cyclic_problem(rng, d, orders, r, s, scale):
    """A recoverable cyclic problem with a truth element and its samples."""
    N = math.lcm(*orders)
    idx = []
    for n in orders:
        idx.extend((N // n) * np.arange(n))
    idx.extend(rng.integers(0, N, d - len(idx)))
    idx = np.asarray(idx)
    lam = np.exp(2j * np.pi * idx / N)
    for _ in range(20):
        V = _similarity(rng, d)
        samplers = _unit_vectors(rng, s, d, scale)
        w = np.array([V.conj().T @ b for b in samplers]).conj()
        if _class_margin(idx[: sum(orders)], N // r, w) > 1e-3:
            break
    else:
        raise RuntimeError("could not draw a well-conditioned cyclic problem")
    coeff = (0.5 + rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
    p = CyclicProblem(d, list(orders), r, s, scale, V, np.linalg.inv(V), lam, coeff, samplers)
    p.truth_x, p.truth_alpha = p.element(rng)
    p.samples = p.sample(p.truth_x)
    return p


# -- finite abelian groups -----------------------------------------------------


@dataclass(eq=False)
class GroupProblem:
    """Regular representation of ``H = prod Z_m`` diagonalised by ``V``."""

    moduli: tuple
    M_gens: list
    s: int
    scale: float
    V: np.ndarray
    Vinv: np.ndarray
    labels: np.ndarray
    coeff: np.ndarray
    samplers: list
    truth_x: np.ndarray = None
    truth_alpha: list = None  # the orbit coefficients are not drawn
    samples: np.ndarray = None

    @property
    def d(self):
        return self.V.shape[0]

    def chars(self, h):
        """Eigenvalues of ``Pi(h)``: character ``i`` evaluated at ``h``."""
        phase = sum(self.labels[:, t] * h[t] / m for t, m in enumerate(self.moduli))
        return np.exp(2j * np.pi * phase)

    def sample_points(self):
        return sorted(_closure(self.moduli, self.M_gens))

    def element(self, rng):
        y = self.coeff * (rng.standard_normal(self.d) + 1j * rng.standard_normal(self.d))
        return self.V @ y

    def sample(self, x):
        """``<Pi(-m) x, b_j>`` sampler-major over sorted ``M``."""
        y = self.Vinv @ x
        w = np.array([self.V.conj().T @ b for b in self.samplers])
        neg = [tuple((-v) % mm for v, mm in zip(m, self.moduli)) for m in self.sample_points()]
        stepped = np.array([self.chars(m) * y for m in neg])
        return (w.conj() @ stepped.T).reshape(-1)

    def apply_duals(self, duals, samples):
        """``sum_{j,m} samples(j, m) Pi(m) c_j`` evaluated in the eigenbasis."""
        pts = self.sample_points()
        cs = np.array([self.Vinv @ c for c in duals])
        mix = np.asarray(samples).reshape(self.s, len(pts))
        phases = np.array([self.chars(m) for m in pts])
        return self.V @ np.einsum("jm,mi,ji->i", mix, phases, cs)

    def unit_generators(self):
        rank = len(self.moduli)
        return [tuple(int(t == k) for t in range(rank)) for k in range(rank)]

    def operators(self):
        """``Pi`` of each unit generator of ``H``."""
        return [self.V @ np.diag(self.chars(g)) @ self.Vinv for g in self.unit_generators()]

    def generator(self):
        return self.V @ self.coeff

    def document(self):
        return {
            "model": "lca",
            "dimension": self.d,
            "operators": [_matrix_pairs(m) for m in self.operators()],
            "generators": [_pairs(self.generator())],
            "samplers": [_pairs(b) for b in self.samplers],
            "group": {
                "moduli": list(self.moduli),
                "H_gens": [list(g) for g in self.unit_generators()],
                "M_gens": [list(g) for g in self.M_gens],
            },
            "truth": _pairs(self.truth_x),
        }


def _closure(moduli, gens):
    seen = {tuple(0 for _ in moduli)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                e = tuple((a + b) % m for a, b, m in zip(h, g, moduli))
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return seen


def group_problem(rng, moduli, M_gens, extra_samplers, scale):
    """A recoverable group problem with ``s = index + extra`` samplers.

    ``Pi(h) = V diag(chi(h)) V^-1`` turns sampler ``j``'s spectrum at the
    character ``gamma`` into ``|H| c_gamma conj((V^H b_j)_gamma)``, so the
    spectral matrix at a section point is this array restricted to one coset
    of ``M^perp``.  Redraws keep every such block well conditioned; the
    samplers are then normalised so that ``alpha_G`` is exactly 1 before
    ``scale`` is applied, which makes the verdict at every scale a property
    of the construction, not of the draw.
    """
    n = math.prod(moduli)
    labels = np.array(list(itertools.product(*(range(m) for m in moduli))))
    M = _closure(moduli, M_gens)
    s = n // len(M) + extra_samplers
    cosets = {}
    for i, label in enumerate(labels):
        key = tuple(
            sum(Fraction(int(l) * g, mm) for l, g, mm in zip(label, m, moduli)) % 1
            for m in M_gens
        )
        cosets.setdefault(key, []).append(i)
    coeff = (0.5 + rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    for _ in range(20):
        V = _similarity(rng, n)
        samplers = _unit_vectors(rng, s, n, 1.0)
        spectra = n * np.array([V.conj().T @ b for b in samplers]).conj() * coeff
        blocks = [np.linalg.svd(spectra[:, cols], compute_uv=False) for cols in cosets.values()]
        if min(sv[-1] / sv[0] for sv in blocks) > 1e-2:
            break
    else:
        raise RuntimeError("could not draw a well-conditioned group problem")
    alpha = min(sv[-1] ** 2 for sv in blocks)
    samplers = [scale * b / math.sqrt(alpha) for b in samplers]
    p = GroupProblem(tuple(moduli), [tuple(g) for g in M_gens], s, scale, V,
                     np.linalg.inv(V), labels, coeff, samplers)
    p.truth_x = p.element(rng)
    p.samples = p.sample(p.truth_x)
    return p


# -- shift-invariant -----------------------------------------------------------


def _spectral_field(seqs, r, Q):
    """Stacked spectra ``G(w)``, shape ``(Q/r, s, r)``, on the grid ``q / Q``.

    One zero-padded FFT per sequence gives ``sum_k c(k) exp(2 pi i k q / Q)``
    at every grid point; column ``k`` holds the translate ``w + k / r``.
    """
    rows = []
    for offset, vals in seqs:
        f = np.zeros(Q, dtype=complex)
        np.add.at(f, (offset + np.arange(len(vals))) % Q, vals)
        rows.append(np.fft.ifft(f) * Q)
    S = np.array(rows)
    Qr = Q // r
    return np.stack([S[:, k * Qr : (k + 1) * Qr] for k in range(r)], axis=2).transpose(1, 0, 2)


def _dual_tail(G, r, length):
    """Largest share of pseudo-inverse dual energy outside the kept window."""
    Qr, s, _ = G.shape
    P = np.linalg.pinv(G)  # (Q/r, r, s)
    window = np.arange(-(length // 2), -(length // 2) + length) % (Qr * r)
    worst = 0.0
    for j in range(s):
        f = r * np.conj(P[:, :, j].T.reshape(-1))
        coeffs = np.fft.fft(f)
        total = float(np.sum(np.abs(coeffs) ** 2))
        worst = max(worst, 1.0 - float(np.sum(np.abs(coeffs[window]) ** 2)) / total)
    return worst


def shift_problem(rng, r, grid, s, taps, scale, dual_length):
    """Random sequences ``g1..gs`` with a well-conditioned frame spectrum.

    Redraws keep ``alpha_G / beta_G`` above 1e-2 and the dual's energy
    outside ``dual_length`` coefficients below 1e-9 (the CLI refuses above
    1e-6).  The sequences are then normalised so that ``alpha_G`` is exactly
    1 before ``scale`` is applied.
    """
    Q = grid * r
    for _ in range(50):
        seqs = []
        for _ in range(s):
            vals = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
            seqs.append((int(rng.integers(-taps, 1)), vals))
        G = _spectral_field(seqs, r, Q)
        eigs = np.linalg.eigvalsh(np.conj(np.swapaxes(G, 1, 2)) @ G)
        alpha = float(eigs[:, 0].min())
        if alpha > 1e-2 * float(eigs[:, -1].max()) and _dual_tail(G, r, dual_length) < 1e-9:
            break
    else:
        raise RuntimeError("could not draw a well-conditioned shift problem")
    norm = scale / math.sqrt(alpha)
    seqs = [(off, norm * vals) for off, vals in seqs]
    doc = {
        "model": "shift",
        "r": r,
        "grid": grid,
        "dual_length": dual_length,
        "sequences": {
            f"g{j}": {"offset": off, "values": _pairs(vals)}
            for j, (off, vals) in enumerate(seqs, start=1)
        },
    }
    return doc, seqs


def dual_row_residual(seqs, r, Q, duals):
    """``max |sum_j h_j(w) G_j(w + k/r) - [k = 0]|`` over the base grid.

    ``duals`` holds each sampler's written coefficients as ``(indices,
    values)``: the CLI writes the inverse DFT of ``r conj(h_j)``, so
    ``h_j(q/Q) = conj(sum_k c_j(k) exp(2 pi i k q/Q)) / r``.
    """
    G = _spectral_field(seqs, r, Q)
    Qr = Q // r
    h = np.empty((Qr, len(duals)), dtype=complex)
    for j, (idx, vals) in enumerate(duals):
        f = np.zeros(Q, dtype=complex)
        np.add.at(f, idx % Q, vals)
        h[:, j] = np.conj(np.fft.ifft(f)[:Qr] * Q) / r
    prod = np.einsum("qj,qjk->qk", h, G)
    prod[:, 0] -= 1.0
    return float(np.max(np.abs(prod)))


def _resultant_nonzero(a, b):
    """Exact test that integer polynomials ``a``, ``b`` share no root.

    Gaussian elimination over the rationals on the Sylvester matrix.
    """
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + list(a) + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + list(b) + [0] * (size - n - 1 - i))
    A = [[Fraction(v) for v in row] for row in rows]
    for c in range(size):
        piv = next((i for i in range(c, size) if A[i][c] != 0), None)
        if piv is None:
            return False
        A[c], A[piv] = A[piv], A[c]
        for i in range(c + 1, size):
            f = A[i][c] / A[c][c]
            if f:
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return True


def bezout_problem(rng, taps):
    """Two coprime integer sequences; ``dual`` must return exact cofactors."""
    while True:
        seqs = []
        for _ in range(2):
            vals = [int(v) for v in rng.integers(-9, 10, taps)]
            vals[0] = vals[0] or 1
            vals[-1] = vals[-1] or 1
            seqs.append(vals)
        if _resultant_nonzero(*seqs):
            break
    offsets = [int(rng.integers(-taps, 1)) for _ in range(2)]
    doc = {
        "model": "shift",
        "r": 1,
        "grid": 1024,
        "method": "bezout",
        "sequences": {
            f"g{j}": {"offset": off, "values": [[float(v), 0.0] for v in vals]}
            for j, (off, vals) in enumerate(zip(offsets, seqs), start=1)
        },
    }
    return doc, list(zip(offsets, seqs))


def bezout_identity_holds(pairs, cofactors):
    """``sum_j c_j(z) g_j(1/z) == 1`` exactly (integer ``g_j``, rational ``c_j``).

    ``pairs`` holds ``(offset, integer values)`` of ``g_j``; ``cofactors``
    holds ``{exponent: Fraction}`` of ``c_j``.
    """
    total = {}
    for (off, vals), c in zip(pairs, cofactors):
        for i, g in enumerate(vals):
            for e, v in c.items():
                k = e - (off + i)
                total[k] = total.get(k, 0) + v * g
    return all(v == (1 if k == 0 else 0) for k, v in total.items()) and total.get(0) == 1


def _poly_mat_mul(A, B):
    out = {}
    for ea, ma in A.items():
        for eb, mb in B.items():
            out[ea + eb] = out.get(ea + eb, 0) + ma @ mb
    return out


def bank_problem(rng, r, factors):
    """Critically sampled ``r``-channel bank with ``G(z) H(z) = I`` exactly.

    ``H(z) = C E_1(z) ... E_f(z)`` with elementary factors ``I + p(z) e_a e_b^T``
    (``a != b``); ``G(z)`` is the product of their inverses in reverse order.
    """
    C = np.linalg.qr(rng.standard_normal((r, r)))[0]
    H = {0: C}
    G = {0: C.T}
    for _ in range(factors):
        a, b = rng.choice(r, 2, replace=False)
        E, Einv = {0: np.eye(r)}, {0: np.eye(r)}
        for e in (-1, 1):
            m = np.zeros((r, r))
            m[a, b] = rng.uniform(-1, 1)
            E[e] = m
            Einv[e] = -m
        H = _poly_mat_mul(H, E)
        G = _poly_mat_mul(Einv, G)
    # H[j][k] = sum_m h_j(r m - k) z^-m ; G[k][j] = sum_m g_j(r m + k) z^-m
    h = [dict() for _ in range(r)]
    g = [dict() for _ in range(r)]
    for e, m in H.items():
        for j in range(r):
            for k in range(r):
                h[j][r * (-e) - k] = m[j, k]
    for e, m in G.items():
        for k in range(r):
            for j in range(r):
                g[j][r * (-e) + k] = m[k, j]
    seqs = {}
    for j in range(r):
        for name, taps in ((f"h{j + 1}", h[j]), (f"g{j + 1}", g[j])):
            lo, hi = min(taps), max(taps)
            seqs[name] = {
                "offset": lo,
                "values": [[float(taps.get(i, 0.0)), 0.0] for i in range(lo, hi + 1)],
            }
    return {"model": "shift", "r": r, "sequences": seqs}
