"""Batch front end: problem files in, reports and CSV vectors out.

Problem definitions are JSON documents with a ``model`` of ``cyclic``,
``shift`` or ``lca``; complex scalars are ``[re, im]`` pairs, and a vector
or matrix may instead be ``{"npy": path}``, a ``.npy`` file of its complex
values named relative to the file that refers to it.  Vectors are
emitted as CSV with header ``index,re,im``, floats at 17 significant digits
(value-preserving round trip) and exact rationals as ``p/q`` strings.

Exit codes: 0 on success/recoverable, 1 on a non-recoverable problem or a
failed certification, 2 on schema or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import cyclic, lca, spectral
from .duals import FrameError, scale_exponent
from .hilbert import RANK_TOL, RESIDUAL_FLAG, DimensionMismatch, LinearOperator
from .laurent import CoprimalityError, LaurentPoly, bezout, positivity_certificate
from .spectral import FiniteSequence

__all__ = ["main", "SchemaError"]


class SchemaError(ValueError):
    pass


class NotRecoverable(RuntimeError):
    """The problem or its certification failed; ``main`` prints the reason and exits 1."""


# -- parsing helpers ---------------------------------------------------------


def _fmt(x):
    return format(float(x), ".17g")


def _pair_values(data, where, ndim, what):
    """``[re, im]`` pairs nested ``ndim`` deep as complex values, converted in
    one pass; ``None`` when the entries are not number pairs ``ndim`` deep."""
    if not isinstance(data, list) or not data:
        raise SchemaError(f"{where}: expected a nonempty {what}")
    try:
        arr = np.array(data)
    except ValueError as exc:
        raise SchemaError(f"{where}: entries have inconsistent shapes") from exc
    # Python ints beyond int64 give an object array; anything else in one is not a number
    numeric = (
        all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in arr.flat)
        if arr.dtype == object
        else arr.dtype.kind in "iuf"
    )
    # np.array reads a boolean among numbers as 0 or 1: only then are the entries' types read
    if arr.dtype.kind in "iuf" and arr.ndim == ndim + 1 and ((arr == 0) | (arr == 1)).any():
        entries = data
        for _ in range(ndim):
            entries = itertools.chain.from_iterable(entries)
        numeric = bool not in set(map(type, entries))
    if not numeric or arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        return None
    try:
        arr = arr.astype(float)
    except OverflowError as exc:
        raise SchemaError(f"{where}: a number is too large for a float") from exc
    with np.errstate(invalid="ignore"):  # 1j * inf, which the finiteness check refuses
        return arr[..., 0] + 1j * arr[..., 1]


_NPY_HEADERS = {(v, 0): getattr(np.lib.format, f"read_array_header_{v}_0") for v in (1, 2)}


def _npy_values(ref, where):
    """Values of an ``{"npy": path}`` reference, whose path ``_read_json``
    resolved; ``None`` when the file's dtype is not an integer, float or complex type."""
    path = ref.get("npy")
    if list(ref) != ["npy"] or not isinstance(path, str):
        raise SchemaError(f"{where}: an array reference is {{\"npy\": file name}}, got {ref!r}")
    try:
        with open(path, "rb") as fh:
            header = _NPY_HEADERS.get(np.lib.format.read_magic(fh))
            if header is None:
                raise ValueError("unsupported .npy format version")
            shape, _, dtype = header(fh)
            if dtype.kind not in "iufc":  # read before np.load, which takes objects for pickles
                return None
            if math.prod(shape) * dtype.itemsize > os.fstat(fh.fileno()).st_size:
                raise ValueError("the file is shorter than its header declares")
            fh.seek(0)
            return np.asarray(np.load(fh, allow_pickle=False), dtype=complex)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"{where}: cannot read {path}: {exc}") from exc


def _complex_array(data, where, ndim, what):
    """Complex values with ``ndim`` axes from ``[re, im]`` pairs or ``{"npy": path}``."""
    if isinstance(data, dict):
        values = _npy_values(data, where)
        if values is not None and values.shape[:1] == (0,):  # as the JSON form ``[]`` reads
            raise SchemaError(f"{where}: expected a nonempty {what}")
    else:
        values = _pair_values(data, where, ndim, what)
    if values is None or values.ndim != ndim or 0 in values.shape:
        raise SchemaError(f"{where}: expected a nonempty {what} of [re, im] number pairs")
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"{where}: entries must be finite numbers")
    return values


def _vector(data, where):
    return _complex_array(data, where, 1, "list")


def _matrix(data, where):
    return _complex_array(data, where, 2, "row-major matrix")


def _list(data, where, parse):
    if not isinstance(data, list):
        raise SchemaError(f"{where}: expected a list, got {data!r}")
    return [parse(item, where) for item in data]


def _int(value, where):
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    # int() alone would read true as 1 and truncate 2.5 to 2
    if n is None or isinstance(value, bool) or (isinstance(value, float) and n != value):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return n


def _int_list(values, where):
    return _list(values, where, _int)


def _grid_floor(grid, name):
    """``grid``, refused below the floor that the shift and torus grids share."""
    if grid < spectral.MIN_GRID_FACTOR:
        raise SchemaError(f"{name} must be at least {spectral.MIN_GRID_FACTOR}, got {grid}")
    return grid


def _require(doc, key, where="problem"):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    if key not in doc:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return doc[key]


def _named_sequences(doc):
    """The parsed ``sequences`` of a shift problem, by name; each is ``g<n>`` or ``h<n>``."""
    seqs = _require(doc, "sequences")
    if not isinstance(seqs, dict):
        raise SchemaError("sequences: expected an object of named sequences")
    for name in seqs:
        if name[:1] not in ("g", "h") or not name[1:].isdecimal():
            raise SchemaError(f"sequences: unknown sequence name {name!r} (expected g<n> or h<n>)")
    parsed = {}
    for name, entry in seqs.items():
        if not isinstance(entry, dict) or "offset" not in entry or "values" not in entry:
            raise SchemaError(f"sequences.{name}: need 'offset' and 'values'")
        parsed[name] = FiniteSequence(offset=_int(entry["offset"], f"sequences.{name}.offset"),
                                      values=_vector(entry["values"], f"sequences.{name}"))
    return parsed


def _read_json(path, what):
    """Decode ``path``, each ``{"npy": name}`` in it resolved against its directory."""
    base = os.path.dirname(path)

    def resolve(obj):
        name = obj.get("npy")
        return dict(obj, npy=os.path.join(base, name)) if isinstance(name, str) else obj

    try:
        with open(path) as fh:
            return json.load(fh, object_hook=resolve)
    except OSError as exc:
        raise SchemaError(f"cannot read {what}: {exc}") from exc
    # bad syntax or bytes, an integer literal too long, nesting too deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"invalid JSON in {what}: {exc}") from exc


def load_problem(path):
    doc = _read_json(path, "problem file")
    if not isinstance(doc, dict):
        raise SchemaError("problem file must hold a JSON object")
    model = _require(doc, "model")
    if model not in ("cyclic", "shift", "lca"):
        raise SchemaError(f"unknown model {model!r}")
    return doc


# -- CSV ---------------------------------------------------------------------


def write_vector_csv(path, values, indices=None, exact=None):
    """Write ``index,re,im`` rows; ``exact`` supplies Fraction pairs instead.

    One pass formats the bytes ``csv.writer`` would (CRLF, nothing to quote).
    """
    if exact is not None:
        fmt = "%d,%s,%s\r\n"
        re = [str(Fraction(x)) for x, _ in exact]
        im = [str(Fraction(y)) for _, y in exact]
    else:
        values = np.asarray(values, dtype=complex)
        fmt, re, im = "%d,%.17g,%.17g\r\n", values.real.tolist(), values.imag.tolist()
    if indices is None:
        indices = range(len(re))
    text = "index,re,im\r\n" + "".join([fmt % row for row in zip(indices, re, im)])
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror}") from exc


def _parse_cell(text, path):
    try:
        value = Fraction(text) if "/" in text else float(text)
        finite = math.isfinite(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed CSV cell {text!r}") from exc
    if not finite:
        raise SchemaError(f"{path}: CSV values must be finite, got {text!r}")
    return value


def read_vector_csv(path):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    except (csv.Error, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not a CSV text file ({exc})") from exc
    if not rows or rows[0] != ["index", "re", "im"]:
        raise SchemaError(f"{path}: expected header index,re,im")
    indices, values = [], []
    for row in rows[1:]:
        if len(row) != 3:
            raise SchemaError(f"{path}: malformed row {row!r}")
        try:
            indices.append(int(row[0]))
        except ValueError as exc:
            raise SchemaError(f"{path}: index {row[0]!r} is not an integer") from exc
        values.append(complex(_parse_cell(row[1], path), _parse_cell(row[2], path)))
    return indices, np.array(values, dtype=complex)


# -- models ------------------------------------------------------------------


def _loaded(build, *args, **kwargs):
    """``build(*args, **kwargs)``; input that the library refuses with a ``ValueError`` exits 2."""
    try:
        return build(*args, **kwargs)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _frame_verdict(fc, tol):
    """Print the frame constants; whether their ``sigma_min/sigma_max`` exceeds ``tol``."""
    print(f"alpha_G = {_fmt(fc.alpha_G)}")
    print(f"beta_G = {_fmt(fc.beta_G)}")
    print(f"det_min = {_fmt(fc.det_min)}")
    print(f"sigma_min/sigma_max = {_fmt(fc.sigma_ratio)}")
    return fc.sigma_ratio > tol


def _print_pr_report(pr):
    print(f"PR torus residual on {pr.torus_grid} points: {_fmt(pr.max_residual)}")
    print(f"PR torus residual relative to max |G||H|: {_fmt(pr.relative_residual)}")
    print(f"time-domain round-trip max relative error: {_fmt(pr.roundtrip_error)}")
    print(f"perfect reconstruction: {'pass' if pr.passed else 'fail'}")


def _write_duals(prefix, vectors):
    for j, c in enumerate(vectors, start=1):
        write_vector_csv(f"{prefix}.c{j}.csv", c)
        print(f"wrote {prefix}.c{j}.csv")


def _orbit_fields(doc):
    """Operators, samplers and truth of a cyclic or lca problem (only lca admits ``operators``)."""
    dim = _int(_require(doc, "dimension"), "dimension")
    if "operators" in doc:
        if "operator" in doc:
            raise SchemaError("give either 'operator' or 'operators', not both")
        ops = _list(doc["operators"], "operators", _matrix)
    else:
        ops = [_matrix(_require(doc, "operator"), "operator")]
    for op in ops:
        if op.shape != (dim, dim):
            raise SchemaError(f"operator: expected {dim}x{dim}, got {op.shape}")
    samplers = _list(_require(doc, "samplers"), "samplers", _vector)
    if not samplers:
        raise SchemaError("samplers: need at least one sampler")
    truth = _vector(doc["truth"], "truth") if "truth" in doc else None
    if truth is not None and truth.size != dim:
        raise SchemaError(f"truth: expected {dim} entries, got {truth.size}")
    return ops, samplers, truth


class _Cyclic:
    """Orbits of one operator: recoverable when the sample matrix ``R`` has full rank."""

    FIELDS = ("model", "dimension", "operator", "generators", "orders", "samplers", "r", "truth")

    def __init__(self, doc):
        (op,), samplers, self.truth = _orbit_fields(doc)
        self.spec = cyclic.CyclicSubspaceSpec(
            operator=LinearOperator(op),
            generators=_list(_require(doc, "generators"), "generators", _vector),
            orders=_int_list(_require(doc, "orders"), "orders"),
        )
        r = _int(_require(doc, "r"), "r")
        self.scheme = cyclic.SamplingScheme.for_spec(self.spec, samplers, r)
        # a dependent orbit exits 2 like any invalid field
        self.R = cyclic.build_sample_matrix(self.spec, self.scheme)

    def verdict(self, tol):
        report = cyclic.check_rank(self.R, rank_tol=tol)
        print(f"rank {report.rank}/{report.cols}")
        print(f"singular values: {' '.join(_fmt(v) for v in report.singular_values)}")
        return report.full_rank

    def duals(self, U, tol):
        return cyclic.structurize_left_inverse(self.R, U=U, tol=tol)

    def dual(self, U, tol, prefix):
        hs = self.duals(U, tol)
        vectors = hs.vectors  # refused before any line is printed
        print(f"left-inverse residual: {_fmt(hs.certified_residual)}")
        _write_duals(prefix, vectors)
        if self.R.rows == self.R.cols:
            print("interpolation table L_j' c_j(r n) (rows: j', n; columns: j):")
            ell = self.scheme.ell
            table = self.R.matrix @ hs.first  # the samples of each c_j = O h_{j,0}
            for jp in range(self.scheme.s):
                for n in range(ell):
                    cells = " ".join(_fmt(abs(v)) for v in table[jp * ell + n])
                    print(f"  j'={jp + 1} n={n}: {cells}")


class _Shift:
    """Shift-invariant spaces: recoverable on ``sigma_min/sigma_max`` over the grid;
    a file of ``h<n>``/``g<n>`` pairs is also a filter bank for ``pr_check``."""

    FIELDS = ("model", "sequences", "method", "dual_length", "r", "grid")

    def __init__(self, doc):
        self.named = _named_sequences(doc)
        names = [n for n in self.named if n.startswith("g")]
        if not names:
            raise SchemaError("sequences: need g1..gs entries")
        names.sort(key=lambda n: (int(n[1:]), n))
        self.seqs = [self.named[n] for n in names]
        self.method = doc.get("method", "pseudoinverse")
        if self.method not in ("pseudoinverse", "bezout"):
            raise SchemaError(f"method: expected 'pseudoinverse' or 'bezout', got {self.method!r}")
        self.r = _int(doc.get("r", 1), "r")
        if self.r < 1:
            raise SchemaError(f"r: expected a positive integer, got {self.r}")
        self.grid = _grid_floor(_int(doc.get("grid", 1024), "grid"), "grid")
        Q = self.grid * self.r
        self.dual_length = _int(doc.get("dual_length", min(65, Q)), "dual_length")
        if not 1 <= self.dual_length <= Q:
            raise SchemaError(f"dual_length: expected an integer in [1, grid*r = {Q}], "
                              f"got {self.dual_length}")
        # the one refusal of the field that a loaded problem can reach, in its words
        spectral._check_grid(Q, spectral.MIN_GRID_FACTOR * self.r, len(self.seqs))

    @functools.cached_property
    def field(self):  # pr-check, bezout dual and reconstruct never read it
        return spectral.build_spectral_field(self.seqs, self.r, self.grid * self.r)

    def verdict(self, tol):
        return _frame_verdict(spectral.frame_constants(self.field), tol)

    def dual(self, U, tol, prefix):
        if self.method == "bezout":
            if U is not None:
                raise SchemaError("--u-matrix applies to pseudo-inverse duals, not bezout")
            return self._bezout_duals(prefix)
        dual = spectral.dual_field(self.field, U=U, threshold=tol)
        print(f"dual residual: {_fmt(dual.residual_max)}")
        coeffs = spectral.reconstruction_coefficients(dual, self.dual_length)
        for j, (seq,) in enumerate(coeffs, start=1):  # L = 1: each g<n> is one sampler
            path = f"{prefix}.c{j}.csv"
            write_vector_csv(path, seq.values, indices=seq.support())
            print(f"wrote {path}")

    def _bezout_duals(self, prefix):
        if len(self.seqs) != 2 or self.r != 1:
            raise SchemaError("bezout duals need exactly two sequences and r = 1")
        # a value with a nonzero imaginary part differs from any real number
        if any(np.any(seq.values != np.round(seq.values.real)) for seq in self.seqs):
            raise SchemaError("bezout duals need integer-valued sequences")
        polys = [LaurentPoly(seq.offset, [int(v.real) for v in seq.values]) for seq in self.seqs]
        # cofactors of the reflected polynomials: their own coefficients
        # are the reconstruction coefficient sequences
        try:
            q1, q2 = bezout(
                polys[0].conj_reciprocal(), polys[1].conj_reciprocal()
            )
        except CoprimalityError as exc:
            raise NotRecoverable(f"coprimality failure: {exc}") from exc
        for j, cpoly in enumerate((q1, q2), start=1):
            print(f"c{j}(z) = {cpoly}")
            path = f"{prefix}.c{j}.csv"
            exact = [(Fraction(c), Fraction(0)) for c in cpoly.coeffs]
            write_vector_csv(path, None, indices=cpoly.exponents(), exact=exact)
            print(f"wrote {path}")

    def pr_check(self):
        """Print the polyphase matrices of the bank and certify it on ``grid`` torus points."""
        names = sorted(self.named)
        pairs = range(1, 1 + sum(n[0] == "h" for n in names))
        if not pairs or names != sorted(f"{p}{j}" for j in pairs for p in "hg"):
            got = f", got {', '.join(names)}" if pairs else ""
            raise SchemaError(f"sequences: need analysis/synthesis pairs h1/g1, h2/g2, ...{got}")
        bank = _loaded(spectral.FilterBank, analysis=[self.named[f"h{j}"] for j in pairs],
                       synthesis=[self.named[f"g{j}"] for j in pairs], r=self.r)
        pr = _loaded(spectral.perfect_reconstruction_check, bank, self.grid)
        Hp, Gp = spectral.polyphase(bank)
        print("analysis polyphase matrix H(z):")
        for jrow, row in enumerate(Hp, start=1):
            for k, entry in enumerate(row):
                print(f"  H[{jrow},{k}] = {entry}")
        print("synthesis polyphase matrix G(z):")
        for k, row in enumerate(Gp):
            for jcol, entry in enumerate(row, start=1):
                print(f"  G[{k},{jcol}] = {entry}")
        _print_pr_report(pr)
        return pr.passed


class _Lca:
    """One orbit of a finite abelian group: recoverable on ``sigma_min/sigma_max``."""

    FIELDS = ("model", "dimension", "operator", "operators", "generators", "samplers", "group",
              "truth")
    GROUP_FIELDS = ("moduli", "H_gens", "M_gens")

    def __init__(self, doc):
        ops, samplers, self.truth = _orbit_fields(doc)
        group_doc = _require(doc, "group")
        generators = _require(doc, "generators")
        if not isinstance(generators, list) or len(generators) != 1:
            raise SchemaError("generators: the lca model takes exactly one generator")
        moduli = _int_list(_require(group_doc, "moduli", "group"), "group.moduli")
        _known_fields(group_doc, self.GROUP_FIELDS, "group")
        group = lca.FiniteAbelianGroup(tuple(moduli))
        H, M = (
            lca.Subgroup(group, _list(_require(group_doc, key, "group"), f"group.{key}", _int_list))
            for key in ("H_gens", "M_gens")
        )
        if not M.is_subgroup_of(H):
            raise SchemaError("group: M_gens must generate a subgroup of H")
        rep = lca.GroupRepresentation(H, ops)
        a = _vector(generators[0], "generators")
        self.spectrum = lca.build_group_G_matrix(rep, a, samplers, H, M)

    def verdict(self, tol):
        spectrum = self.spectrum
        print(f"|H| = {spectrum.rep.H.order}, |M| = {spectrum.M.order}, r = {spectrum.r}, "
              f"|Omega| = {len(spectrum.cells)}")
        print(f"annihilator labels: {list(map(tuple, spectrum.perp.tolist()))}")
        section = spectrum.dual.labels[spectrum.cells[:, 0]]
        print(f"section labels: {list(map(tuple, section.tolist()))}")
        return _frame_verdict(spectrum.frame, tol)

    def duals(self, U, tol):
        return lca.group_duals(self.spectrum, U, threshold=tol)

    def dual(self, U, tol, prefix):
        _write_duals(prefix, self.duals(U, tol).vectors)


_MODELS = {"cyclic": _Cyclic, "shift": _Shift, "lca": _Lca}


def _known_fields(doc, fields, where):
    """Refuse a key of the object ``doc`` that is not in ``fields``."""
    for key in doc:
        if key not in fields:
            raise SchemaError(f"{where}: unknown field {key!r}")


def _load_model(doc, grid=None):
    """The model of a loaded problem; ``--grid`` stands in for the ``grid`` field."""
    model = _MODELS[doc["model"]]
    _known_fields(doc, model.FIELDS, f"{doc['model']} problem")
    if grid is not None:
        if "grid" not in model.FIELDS:
            raise SchemaError(f"--grid applies to shift problems, not {doc['model']}")
        doc = dict(doc, grid=grid)
    return _loaded(model, doc)


# -- commands ----------------------------------------------------------------


def _recoverable(ok):
    print(f"recoverable: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_analyze(args):
    doc = load_problem(args.input)
    model = _load_model(doc, args.grid)
    print(f"model: {doc['model']}")
    del doc  # freed before the verdict allocates, which keeps the peak memory down
    return _recoverable(model.verdict(args.tol))


def cmd_dual(args):
    doc = load_problem(args.input)
    path = args.u_matrix
    U = None if path is None else _matrix(_read_json(path, "U matrix"), "u-matrix")
    model = _load_model(doc, args.grid)
    del doc  # freed before the duals allocate, which keeps the peak memory down
    model.dual(U, args.tol, args.out or "dual")
    return 0


def cmd_reconstruct(args):
    doc = load_problem(args.input)
    model = _load_model(doc)
    if doc["model"] == "shift":  # its fields are read and checked first
        raise SchemaError("reconstruct supports the cyclic and lca models; "
                          "use pr-check for filter banks")
    del doc  # freed before the reconstruction allocates, which keeps the peak memory down
    indices, samples = read_vector_csv(args.samples)
    if indices != list(range(len(indices))):
        raise SchemaError(f"{args.samples}: indices must run 0..{len(indices) - 1} in order")
    x, alpha = model.duals(None, args.tol).reconstruct(samples)
    prefix = args.out or "reconstruction"
    write_vector_csv(f"{prefix}.x.csv", x)
    write_vector_csv(f"{prefix}.alpha.csv", alpha)
    print(f"wrote {prefix}.x.csv and {prefix}.alpha.csv")
    if model.truth is not None:  # both norms scaled exactly by 2**k, finite at any scale
        scale = 2.0 ** scale_exponent(model.truth)
        denom = max(float(np.linalg.norm(model.truth * scale)), 1e-300)
        resid = float(np.linalg.norm((x - model.truth) * scale)) / denom
        print(f"relative residual vs truth: {_fmt(resid)}")
        if not resid <= RESIDUAL_FLAG:  # NaN fails too
            raise NotRecoverable(
                f"residual exceeds {RESIDUAL_FLAG:.1e}: samples inconsistent with truth"
            )
    return 0


def cmd_spline_demo(args):
    t0 = time.perf_counter()
    # the bank's second channel reads the stride-K component at offset 1
    if args.K % 2 == 0 or args.K < 3:
        raise SchemaError(f"--K must be odd and at least 3, got {args.K}")
    try:
        sb = spectral.bspline_filter_bank(args.K, args.p)
    except CoprimalityError as exc:
        raise NotRecoverable(f"coprimality failure for K={args.K}, p={args.p}: {exc}") from exc
    pr = _loaded(spectral.perfect_reconstruction_check, sb.bank, args.grid or 1024)
    mp = sb.mp
    print(f"M_{args.p} values on |n| <= {-mp.min_deg}: {' '.join(str(v) for v in mp.coeffs)}")
    g1, g2 = sb.g_polys
    h1, h2 = sb.h_polys
    print(f"G1(z) = {g1}")
    print(f"G2(z) = {g2}")
    print(f"H1(z) = {h1}")
    print(f"H2(z) = {h2}")
    residual_poly = g1 * h1 + g2 * h2 - LaurentPoly.one()
    print(f"bezout residual polynomial: {residual_poly} (exact)")
    _print_pr_report(pr)
    cert = positivity_certificate(g1, pr.torus_grid)
    verdict = "strictly positive" if cert.positive else "NOT strictly positive"
    print(
        f"g1 on {cert.grid} grid points: min {_fmt(cert.min_value)} "
        f"at w = {_fmt(cert.argmin)} ({verdict})"
    )
    print(f"runtime: {_fmt(time.perf_counter() - t0)} s")
    return 0 if pr.passed and residual_poly.is_zero else 1


def cmd_pr_check(args):
    doc = load_problem(args.input)
    if doc["model"] != "shift":
        raise SchemaError("pr-check needs a shift-model problem with filter sequences")
    model = _load_model(doc, args.grid)
    del doc  # freed before the check allocates, which keeps the peak memory down
    return 0 if model.pr_check() else 1


# -- entry point -------------------------------------------------------------


_TOL_HELP = "recoverability tolerance on sigma_min/sigma_max in every model and command"
_FLAGS = {
    "input": dict(help="problem file (JSON)"),
    "out": dict(help="output path prefix for CSV files"),
    "tol": dict(type=float, default=RANK_TOL, help=_TOL_HELP),
    "grid": dict(type=int, help="grid points per unit interval"),
    "u-matrix": dict(help="JSON file with a left-inverse perturbation matrix"),
    "samples": dict(required=True, help="CSV of samples (index,re,im)"),
    "K": dict(type=int, required=True, help="node spacing (odd)"),
    "p": dict(type=int, required=True, help="B-spline order"),
}
# name: (handler, help, flags); each command declares only the flags it reads
_COMMANDS = {
    "analyze": (cmd_analyze, "recoverability report", "input tol grid"),
    "dual": (cmd_dual, "reconstruction vectors to CSV", "input out tol grid u-matrix"),
    "reconstruct": (cmd_reconstruct, "rebuild a vector from samples", "input out tol samples"),
    "spline-demo": (cmd_spline_demo, "compact-support dual demo", "K p grid"),
    "pr-check": (cmd_pr_check, "filter-bank certification", "input grid"),
}


@functools.cache  # one parser per process: ``parse_args`` leaves it unchanged
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="orbitsamp",
        description="Generalized sampling analysis, duals and reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def _check_flags(args):
    """Value ranges of the numeric flags, which ``argparse`` types leave open."""
    for flag in ("K", "p"):
        value = getattr(args, flag, None)
        if value is not None and value <= 0:
            raise SchemaError(f"--{flag} must be positive, got {value}")
    if getattr(args, "grid", None) is not None:
        _grid_floor(args.grid, "--grid")
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0):
        raise SchemaError(f"--tol must be a finite nonnegative number, got {tol}")
    if "input" in vars(args) and not args.input:
        raise SchemaError("--input is required for this command")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # decoded JSON, CSV samples and the models built from them make no reference
    # cycles: reference counts free them all, and no collection pass need walk them
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            _check_flags(args)
            code = args.func(args)
        except (SchemaError, DimensionMismatch) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (NotRecoverable, FrameError) as exc:
            print(exc)
            code = 1
        sys.stdout.flush()  # a closed pipe shows here when stdout is buffered
        return code
    except BrokenPipeError as exc:
        # fd 1 on devnull: the interpreter's own flush at exit then has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
