"""Per-layer tracing of qpcalc from outside the program.

``Tracer.install`` wraps public functions and methods of the qpcalc modules
by patching module and class attributes; ``uninstall`` restores them, so
nothing under ``src/`` changes.  Every module that imported a wrapped
function by name gets the wrapper too.

Two kinds of wrapper:

* timed: counts calls, records the duration of each outermost call of that
  function, and opens a span (layer, name, start, end, parent span, job) when
  the call crosses from one layer into another.  A layer's self time is the
  time of its spans minus the time their child spans cover.
* counted: counts calls only (every ``padic`` wrapper, and the per-point
  functions called hundreds of thousands of times).  Counted functions open
  no span, so their time lands in the self time of the layer that calls
  them.

The timed list covers every function ``qpcalc.cli`` calls in another layer,
so the self time of ``cli`` is its own work: argument parsing, JSON and
report writing.

Counters are ``itertools.count`` objects, whose increment is a single call
into C, so the two worker threads of ``identities --jobs 2`` lose no counts.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import threading
from time import perf_counter

LAYERS = ("cli", "padic", "funcs", "measure", "quotients", "extension",
          "whitney")

TIMED = {
    "funcs": ("parse_expr", "as_polynomials", "SymbolicFunction.from_sources",
              "MultiPoly.substitute", "MultiPoly.recenter"),
    "measure": ("enumerate_cosets", "set_measure", "density_at", "ap_limit",
                "decompose_series", "decompose_default_ys",
                "GridFunction.from_json", "GridFunction.from_callable",
                "GridFunction.to_json"),
    "quotients": ("holder_scan", "stepanoff_scan", "ap_derivative",
                  "taylor_eval", "phin", "phin_limit", "phin_exact_zero",
                  "chain_rule_check", "telescope_check",
                  "product_rule_check"),
    "extension": ("SampleSet.from_json", "SampleSet.certify",
                  "WeightedSiteSet.from_json", "extend_to_grid",
                  "chebyshev_radius", "decompose_Ej", "verify_Ej",
                  "packing_check", "packing_check_many"),
    "whitney": ("jet_field_from_function", "whitney_extend",
                "disjoint_ball_family", "verify_whitney", "jet_compat_modulus",
                "sample_quotient_points", "JetField.from_json",
                "JetField.to_json", "WhitneyExtension.__call__"),
}

ARITH = tuple(f"PAdicNumber.{op}" for op in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__"))

COUNTED = {
    "padic": ("PAdicNumber.__init__", "PAdicVector.__sub__",
              "PAdicVector.sup_norm", "PPow.from_norm") + ARITH,
    "funcs": ("SymbolicFunction.__call__",),
    "measure": ("coset_key",),
    "extension": ("nearest_point",),
}

# totals taken from results: (layer, qualname) -> (sum name, result -> int)
RESULT_SUMS = {
    ("measure", "enumerate_cosets"): ("measure.cosets_enumerated", len),
    ("extension", "SampleSet.certify"):
        ("extension.pairs_checked", lambda report: report.pairs_checked),
}


class Tracer:
    def __init__(self):
        self.spans = []            # (span, layer, name, t0, t1, parent, job)
        self.durations = {}        # "layer.qualname" -> outermost call times
        self.sums = {}
        self.job = None
        self.root = None
        self._counters = {}
        self._read = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo = []

    # -- state ---------------------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.active = set()
        return st

    def _tick(self, key):
        return self._counters.setdefault(key, itertools.count()).__next__

    def count(self, key) -> int:
        """Calls recorded for layer.qualname; read once tracing is over."""
        if key not in self._read:
            counter = self._counters.get(key)
            self._read[key] = 0 if counter is None else next(counter)
        return self._read[key]

    def add(self, name, n) -> None:
        with self._lock:
            self.sums[name] = self.sums.get(name, 0) + n

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer, key, fn, on_result):
        tracer, tick = self, self._tick(key)
        durations = self.durations.setdefault(key, [])

        def wrapper(*args, **kwargs):
            tick()
            st = tracer._state()
            outer = key not in st.active
            if outer:
                st.active.add(key)
            parent, parent_layer = st.stack[-1] if st.stack \
                else (tracer.root, "cli")
            boundary = layer != parent_layer
            sid = next(tracer._ids) if boundary else parent
            st.stack.append((sid, layer))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                if outer:
                    st.active.discard(key)
                    durations.append(t1 - t0)
                if boundary:
                    tracer.spans.append((sid, layer, key, t0, t1, parent,
                                         tracer.job))
            if on_result is not None:
                tracer.add(on_result[0], on_result[1](result))
            return result

        return wrapper

    def _counted(self, key, fn):
        tick = self._tick(key)

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, layer, qualname, make):
        modules = [importlib.import_module("qpcalc")] + [
            importlib.import_module(f"qpcalc.{name}") for name in LAYERS]
        home = importlib.import_module(f"qpcalc.{layer}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(home, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, attr, new)
            self._undo.append((cls, attr, raw))
            return
        original = getattr(home, qualname)
        wrapper = make(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, original))

    def install(self) -> None:
        for layer, names in TIMED.items():
            for qualname in names:
                key = f"{layer}.{qualname}"
                on_result = RESULT_SUMS.get((layer, qualname))
                self._patch(layer, qualname,
                            lambda fn, layer=layer, key=key, on=on_result:
                            self._timed(layer, key, fn, on))
        for layer, names in COUNTED.items():
            for qualname in names:
                key = f"{layer}.{qualname}"
                self._patch(layer, qualname,
                            lambda fn, key=key: self._counted(key, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- jobs and results ----------------------------------------------------

    def run_job(self, main, argv):
        """main(argv) under a root span of layer cli; jobs are numbered in
        the order they run."""
        self.job = 0 if self.job is None else self.job + 1
        self.root = next(self._ids)
        st = self._state()
        st.stack = [(self.root, "cli")]
        t0 = perf_counter()
        try:
            return main(argv)
        finally:
            t1 = perf_counter()
            st.stack = []
            self.spans.append((self.root, "cli", "cli.main", t0, t1, None,
                               self.job))

    def total_seconds(self, key) -> float:
        return sum(self.durations.get(key, ()))

    def self_seconds(self) -> dict:
        """Self time per layer: span time minus the union of its children."""
        children = {}
        for span in self.spans:
            if span[5] is not None:
                children.setdefault(span[5], []).append((span[3], span[4]))
        out = {layer: 0.0 for layer in LAYERS if layer != "padic"}
        for sid, layer, _, t0, t1, _, _ in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[layer] += (t1 - t0) - covered
        return out

    def write(self, path) -> None:
        """All spans as gzipped CSV, times relative to the first span."""
        base = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write("span,layer,name,start_s,end_s,parent,job\n")
            for sid, layer, name, t0, t1, parent, job in sorted(self.spans):
                fh.write(f"{sid},{layer},{name},{t0 - base:.9f},"
                         f"{t1 - base:.9f},{'' if parent is None else parent},"
                         f"{job}\n")
