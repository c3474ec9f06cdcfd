"""Span recorder for the traced run, attached to ``orbitsamp`` from outside.

Every public function named in ``TARGETS`` is wrapped at each place it is
bound: class attributes for constructors and methods, and every module
namespace of the package for free functions (``cyclic`` imports
``cross_correlation`` by name, ``cli`` and ``spectral`` import ``bezout`` by
name, and so on).  Spans stay in memory; self time is a span's duration
minus the time covered by its child spans.  Three counts are computed from
the call arguments rather than timed, so they repeat exactly across runs.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

# (module, attribute path, kind); kind "init" wraps the class constructor.
TARGETS = [
    ("cli", "main", "func"),
    ("cli", "load_problem", "func"),
    ("cli", "read_vector_csv", "func"),
    ("cli", "write_vector_csv", "func"),
    ("hilbert", "LinearOperator", "init"),
    ("hilbert", "LinearOperator.power", "method"),
    ("hilbert", "cross_correlation", "func"),
    ("cyclic", "CyclicSubspaceSpec", "init"),
    ("cyclic", "SamplingScheme.for_spec", "classmethod"),
    ("cyclic", "build_sample_matrix", "func"),
    ("cyclic", "check_rank", "func"),
    ("cyclic", "structurize_left_inverse", "func"),
    ("cyclic", "reconstruction_vectors", "func"),
    ("cyclic", "take_samples", "func"),
    ("cyclic", "reconstruct", "func"),
    ("cyclic", "filter_bank_coefficients", "func"),
    ("spectral", "FiniteSequence.spectrum", "method"),
    ("spectral", "build_spectral_field", "func"),
    ("spectral", "frame_constants", "func"),
    ("spectral", "dual_field", "func"),
    ("spectral", "reconstruction_coefficients", "func"),
    ("spectral", "polyphase", "func"),
    ("spectral", "analysis", "func"),
    ("spectral", "synthesis", "func"),
    ("spectral", "perfect_reconstruction_check", "func"),
    ("spectral", "bspline_filter_bank", "func"),
    ("laurent", "bspline", "func"),
    ("laurent", "polyphase_sample", "func"),
    ("laurent", "bezout", "func"),
    ("laurent", "eval_torus", "func"),
    ("laurent", "positivity_certificate", "func"),
    ("lca", "Subgroup", "init"),
    ("lca", "DualGroup", "init"),
    ("lca", "annihilator", "func"),
    ("lca", "section_omega", "func"),
    ("lca", "GroupRepresentation", "init"),
    ("lca", "build_group_G_matrix", "func"),
    ("lca", "group_duals", "func"),
    ("lca", "take_group_samples", "func"),
    ("lca", "group_reconstruct", "func"),
]

SPAN_NAMES = [f"{mod}.{path}" for mod, path, _ in TARGETS]

COUNTS = {
    "hilbert.power_cache.computed_mb": "MB",
    "lca.GroupRepresentation.pair_checks": "count",
    "lca.GroupRepresentation.table_computed_mb": "MB",
}

_MB = float(1 << 20)
_COMPLEX_BYTES = 16


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (id, parent id or -1, name, start, end, self seconds)
        self.counts = dict.fromkeys(COUNTS, 0.0)
        self._stack = []  # open spans: [id, name, start, child seconds]
        self._next_id = 0
        self._restore = []
        self._power_extremes = weakref.WeakKeyDictionary()

    # -- recording -----------------------------------------------------------

    def _enter(self, name):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self):
        span_id, name, start, child = self._stack.pop()
        end = time.perf_counter()
        parent = -1
        if self._stack:
            self._stack[-1][3] += end - start
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, name, start, end, end - start - child))

    def _wrap(self, name, func, hook=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._exit()
            if hook is not None:
                hook(args, kwargs)
            return result

        return traced

    def _power_hook(self, args, kwargs):
        op, k = args[0], int(args[1] if len(args) > 1 else kwargs["k"])
        lo, hi = self._power_extremes.get(op, (0, 0))
        new_lo, new_hi = min(lo, k), max(hi, k)
        grown = (new_hi - hi) + (lo - new_lo)
        if grown:
            self._power_extremes[op] = (new_lo, new_hi)
            self.counts["hilbert.power_cache.computed_mb"] += (
                grown * op.dim * op.dim * _COMPLEX_BYTES / _MB
            )

    def _representation_hook(self, args, kwargs):
        rep = args[0]
        n = rep.H.order
        self.counts["lca.GroupRepresentation.pair_checks"] += n * n
        self.counts["lca.GroupRepresentation.table_computed_mb"] += (
            n * rep.dim * rep.dim * _COMPLEX_BYTES / _MB
        )

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == self.package or n.startswith(self.package + "."))
        ]
        for mod_name, path, kind in TARGETS:
            name = f"{mod_name}.{path}"
            module = sys.modules[f"{self.package}.{mod_name}"]
            hook = {
                "hilbert.LinearOperator.power": self._power_hook,
                "lca.GroupRepresentation": self._representation_hook,
            }.get(name)
            if kind == "func":
                original = getattr(module, path)
                traced = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, traced)
                continue
            cls_name, _, meth = path.partition(".")
            cls = getattr(module, cls_name)
            if kind == "init":
                self._set(cls, "__init__", self._wrap(name, cls.__init__, hook))
            elif kind == "method":
                self._set(cls, meth, self._wrap(name, cls.__dict__[meth], hook))
            else:
                func = cls.__dict__[meth].__func__
                self._set(cls, meth, classmethod(self._wrap(name, func, hook)))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def totals(self):
        """``{span name: (calls, self seconds)}`` over every recorded span."""
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        for _, _, name, _, _, self_s in self.spans:
            out[name][0] += 1
            out[name][1] += self_s
        return out

    def reset(self):
        """Return spans and counts so far, and start empty."""
        taken = (self.totals(), dict(self.counts), self.spans)
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0.0)
        return taken
