"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each ``mackeykit`` module at every
place the package binds them: the defining module, and every module that
imported the name with ``from .x import f`` or reaches it as ``la.f``.  It
also wraps the ``FFElement`` arithmetic methods and
``MackeyMorphism.is_level_iso``.  Nothing under ``src/`` changes; the
wrappers are installed into the loaded modules of the traced worker process
and removed again after its pass.

Every wrapped call becomes a span (name, parent span, start, end) kept in
memory and written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.  ``FFElement`` arithmetic is the one
exception: there are millions of those calls, so they are counted and timed
without a span record of their own (their time still counts as child time of
the span that made them).

The ``linalg.computed.*`` counters and ``.entries`` are computed from the
shapes of the arguments and results, not measured.
"""

from __future__ import annotations

import contextlib
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# module -> public functions whose calls are timed and counted
LAYER_FUNCTIONS = {
    "linalg": ("mmul", "kron", "rref", "nullspace", "solve", "rank",
               "smith_normal_form", "solve_int", "nullspace_int",
               "bareiss_det", "mpow"),
    "fields": ("gf_make",),
    "modules": ("reduced_quotient",),
    "mackey": ("hom_basis", "is_isomorphic", "check_axioms"),
    "green": ("box_product_general", "green_module_hom_basis", "check_green",
              "check_green_module", "base_change_cp"),
    "functors": ("free_module", "induce_mackey", "tau_geq_1",
                 "geometric_fixed_points", "e1_page"),
    "kzero": ("decompose_module", "freeness_decompose",
              "random_green_automorphism", "map_from_generator"),
    "docio": ("parse_document", "print_document"),
    "cli": ("main",),
}

# + - * neg inv; __radd__ and __rmul__ are the same functions as __add__/__mul__
FFELEMENT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "inv")

# position of the base / field argument of linalg functions that take one
LINALG_BASE_ARG = {"mmul": ("base", 2), "mpow": ("base", 2),
                   "rref": ("field", 1), "rank": ("field", 1),
                   "nullspace": ("field", 1), "solve": ("field", 2)}
INTEGER_ONLY = {"smith_normal_form", "solve_int", "nullspace_int", "bareiss_det"}

BASES = ("Z", "Fp", "Fq")
# bucket by the entry count of the largest matrix a call touches
SIZE_BUCKETS = ((64, "le8x8"), (32 * 32, "le32x32"), (math.inf, "gt32x32"))
SMALL_CALL_ENTRIES = 64

# every stat that gets .calls and .self_s metrics
TIMED_STATS = (
    [f"linalg.{f}" for f in ("mmul", "kron", "rref_prime", "rref_ext",
                             "nullspace", "solve", "rank", "smith_normal_form",
                             "solve_int", "nullspace_int", "bareiss_det", "mpow")]
    + ["fields.ffelement_ops", "fields.gf_make", "modules.reduced_quotient"]
    + [f"mackey.{f}" for f in ("hom_basis", "is_isomorphic", "check_axioms",
                               "MackeyMorphism.is_level_iso")]
    + [f"green.{f}" for f in LAYER_FUNCTIONS["green"]]
    + [f"functors.{f}" for f in LAYER_FUNCTIONS["functors"]]
    + [f"kzero.{f}" for f in LAYER_FUNCTIONS["kzero"]]
    + [f"docio.{f}" for f in LAYER_FUNCTIONS["docio"]]
    + ["cli.main", "bench.job"]
)


def _base_label(base) -> str:
    k = getattr(base, "k", None)
    if k is None:
        return "Z"
    return "Fp" if k == 1 else "Fq"


def _entry_base(A) -> str | None:
    """Base of an object matrix, read off its first entry; None for plain ints."""
    if A.size == 0:
        return None
    field = getattr(A.flat[0], "field", None)
    return None if field is None else _base_label(field)


def _result_sizes(result):
    if isinstance(result, np.ndarray):
        return [result.size]
    if isinstance(result, tuple):
        return [r.size for r in result if isinstance(r, np.ndarray)]
    D = getattr(result, "D", None)           # SmithForm
    return [D.size] if isinstance(D, np.ndarray) else []


class Tracer:
    """Spans and counters for one traced pass; inactive until ``active`` is set."""

    def __init__(self):
        self.active = False
        self._stack = []            # open frames: [span id, start, child time, stat]
        self._name_ids = {}
        self.span_names = []
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._undo = []

    # -- spans -----------------------------------------------------------

    def _open(self, stat, spanned=True):
        stack = self._stack
        sid = -1
        if spanned:
            sid = len(self.span_start)
            nid = self._name_ids.get(stat)
            if nid is None:
                nid = self._name_ids[stat] = len(self.span_names)
                self.span_names.append(stat)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_name.append(nid)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [sid, perf_counter(), 0.0, stat]
        stack.append(frame)
        if sid >= 0:
            self.span_start[sid] = frame[1]
        return frame

    def _close(self, frame):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[1]
        stat = frame[3]
        self.calls[stat] += 1
        self.self_s[stat] += dur - frame[2]
        if stack:
            stack[-1][2] += dur
        if frame[0] >= 0:
            self.span_end[frame[0]] = end

    def parent_stat(self):
        return self._stack[-1][3] if self._stack else None

    @contextlib.contextmanager
    def job(self):
        """Root span around one benchmark job, named bench.job."""
        frame = self._open("bench.job")
        try:
            yield
        finally:
            self._close(frame)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, stat_of, after=None, spanned=True):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat = stat_of(args, kwargs)
            frame = tracer._open(stat, spanned)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after is not None:
                after(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def _linalg_after(self, name):
        base_arg = LINALG_BASE_ARG.get(name)
        counts = self.counts

        def after(stat, args, kwargs, result):
            sizes = [a.size for a in args if isinstance(a, np.ndarray)]
            sizes += _result_sizes(result)
            counts[stat + ".entries"] += sum(sizes)
            biggest = max(sizes, default=0)
            if name in INTEGER_ONLY:
                base = "Z"
            elif base_arg is not None:
                key, pos = base_arg
                given = kwargs.get(key, args[pos] if len(args) > pos else None)
                base = _base_label(given) if given is not None else "Z"
            else:                                   # kron: no base argument
                base = next((b for b in map(_entry_base, args[:2]) if b), "Z")
            bucket = next(label for limit, label in SIZE_BUCKETS if biggest <= limit)
            counts[f"linalg.computed.{base}.{bucket}.calls"] += 1
            counts["linalg.all_calls"] += 1
            if biggest <= SMALL_CALL_ENTRIES:
                counts["linalg.small_calls"] += 1
            if name == "mpow":
                counts["linalg.mpow.exponent_sum"] += int(args[1] if len(args) > 1 else kwargs["k"])
        return after

    def _stat_of(self, module, name):
        if module == "linalg" and name == "rref":
            def stat_of(args, kwargs):
                field = kwargs.get("field", args[1] if len(args) > 1 else None)
                return "linalg.rref_prime" if field.k == 1 else "linalg.rref_ext"
            return stat_of
        stat = f"{module}.{name}"
        return lambda args, kwargs: stat

    def _after(self, module, name):
        if module == "linalg":
            return self._linalg_after(name)
        counts = self.counts
        if module == "docio":
            def after(stat, args, kwargs, result):
                text = result if name == "print_document" else args[0]
                counts[stat + ".bytes"] += len(text.encode())
            return after
        if module == "mackey" and name == "is_isomorphic":
            def after(stat, args, kwargs, result):
                if result.verdict != "inconclusive":
                    counts["mackey.iso.verdicts"] += 1
            return after
        return None

    def install(self):
        """Wrap the traced functions wherever the loaded package binds them."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "mackeykit"
                                        or name.startswith("mackeykit."))}
        wrappers = {}                       # id(original) -> (original, wrapper)
        for module, names in LAYER_FUNCTIONS.items():
            mod = mods[f"mackeykit.{module}"]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, self._stat_of(module, name),
                                                   self._after(module, name)))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, value))

        ff = mods["mackeykit.fields"].FFElement
        for op in FFELEMENT_OPS:
            fn = ff.__dict__[op]
            setattr(ff, op, self._wrap(fn, lambda a, k: "fields.ffelement_ops",
                                       spanned=False))
            self._undo.append((ff, op, fn))

        mm = mods["mackeykit.mackey"].MackeyMorphism
        fn = mm.__dict__["is_level_iso"]

        def count_candidate(stat, args, kwargs, result):
            if self.parent_stat() == "mackey.is_isomorphic":
                self.counts["mackey.iso.candidates"] += 1
        setattr(mm, "is_level_iso",
                self._wrap(fn, lambda a, k: "mackey.MackeyMorphism.is_level_iso",
                           count_candidate))
        self._undo.append((mm, "is_level_iso", fn))

    def uninstall(self):
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metric values keyed by the names in BENCHMARK.json, all
        but trace.overhead.ratio, which needs an untraced pass to compare."""
        out = {}
        for stat in TIMED_STATS:
            out[stat + ".calls"] = self.calls[stat]
            out[stat + ".self_s"] = self.self_s[stat]
        for stat in TIMED_STATS:
            if stat.startswith("linalg."):
                out[stat + ".entries"] = self.counts[stat + ".entries"]
        out["linalg.mpow.exponent_sum"] = self.counts["linalg.mpow.exponent_sum"]
        total = self.counts["linalg.all_calls"]
        out["linalg.small_call_share"] = self.counts["linalg.small_calls"] / total if total else 0.0
        for base in BASES:
            for _, bucket in SIZE_BUCKETS:
                key = f"linalg.computed.{base}.{bucket}.calls"
                out[key] = self.counts[key]
        for stat in ("docio.parse_document", "docio.print_document"):
            out[stat + ".bytes"] = self.counts[stat + ".bytes"]
        cands = self.counts["mackey.iso.candidates"]
        out["mackey.iso.candidates"] = cands
        out["mackey.iso.verdicts_per_candidate"] = (
            self.counts["mackey.iso.verdicts"] / cands if cands else 0.0)
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span: id, parent id, name, start, end (s)."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        names = self.span_names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}"
                         f"\t{self.span_start[sid] - t0:.9f}\t{self.span_end[sid] - t0:.9f}\n")

