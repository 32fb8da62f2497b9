"""Per-layer tracing of fracspec from outside the package.

`Tracer.install()` replaces the public functions of each layer module with
wrappers that record one span per call: name, start, end, parent span and
request id.  Spans stay in memory; `write_spans` saves them at the end of a
run and `layer_metrics` turns them into the per-layer numbers.

Modules import some functions by name (`measure` and `transfer` import
`chi_B_batch`, `cli` imports `validate_system`) and the package namespace
re-exports the originals, so every module attribute bound to an original is
replaced, not only the one in the defining module.  `mu_hat_batch` is a
method and is wrapped on `SelfSimilarMeasure`.  `rational.det` runs tens of
thousands of times per hull, so it is counted and timed in aggregate rather
than recorded as spans; its time still counts as child time of the span that
called it.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter


def _size(T) -> int:
    shape = getattr(T, "shape", None)
    if shape is None:
        import numpy as np
        shape = np.shape(T)
    n = 1
    for s in shape:
        n *= s
    return n


def _system_key(sys_obj) -> tuple:
    return (sys_obj.dim, tuple(tuple(r) for r in sys_obj.R.entries), sys_obj.B, sys_obj.L)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# Attributes recorded on a span, computed from the call's arguments and result.

def _chi_attrs(tr, args, kwargs, out):
    # T has a trailing axis of length dim
    return {"freqs": _size(_arg(args, kwargs, 1, "T")) // args[0].dim}


def _mu_hat_attrs(tr, args, kwargs, out):
    # one dimension takes T elementwise; above, T has a trailing axis of length dim
    meas, n = args[0], _size(_arg(args, kwargs, 1, "T"))
    return {"freqs": n if meas.dim == 1 else n // meas.dim}


def _enumerate_attrs(tr, args, kwargs, out):
    return {"words": len(out.points) + out.collision_count}


def _hull_attrs(tr, args, kwargs, out):
    kept = len(out.faces) if out.affine_dim == 3 else len(out.facets)
    return {"input_points": len(_arg(args, kwargs, 0, "points")),
            "faces_kept": kept, "vertices_out": len(out.vertices)}


def _attractor_attrs(tr, args, kwargs, out):
    return {"words": args[0].N ** _arg(args, kwargs, 2, "depth")}


def _dual_hull_attrs(tr, args, kwargs, out):
    key = (_system_key(args[0]), _arg(args, kwargs, 1, "depth", 4))
    repeat = key in tr.built_hulls
    tr.built_hulls.add(key)
    return {"repeat": int(repeat)}


def _apply_c_attrs(tr, args, kwargs, out):
    return {"nodes": int(_arg(args, kwargs, 1, "Q").values.size)}


def _iterate_attrs(tr, args, kwargs, out):
    return {"iterations": len(out.residuals)}


# (module, attribute, span name, attribute function); a dotted attribute is a
# method wrapped on its class.
SPAN_TARGETS = (
    ("system", "chi_B_batch", "system.chi_B_batch", _chi_attrs),
    ("system", "validate_system", "system.validate_system", None),
    ("measure", "SelfSimilarMeasure.mu_hat_batch", "measure.mu_hat_batch", _mu_hat_attrs),
    ("spectrum", "q1_profile", "spectrum.q1_profile", None),
    ("spectrum", "completeness_test", "spectrum.completeness_test", None),
    ("spectrum", "enumerate_P", "spectrum.enumerate_P", _enumerate_attrs),
    ("spectrum", "gram_matrix", "spectrum.gram_matrix", None),
    ("geometry", "convex_hull", "geometry.convex_hull", _hull_attrs),
    ("geometry", "attractor_points", "geometry.attractor_points", _attractor_attrs),
    ("geometry", "invariance_check", "geometry.invariance_check", None),
    ("geometry", "dual_hull", "geometry.dual_hull", _dual_hull_attrs),
    ("transfer", "apply_C", "transfer.apply_C", _apply_c_attrs),
    ("transfer", "iterate_fixed_point", "transfer.iterate_fixed_point", _iterate_attrs),
    ("transfer", "grid_frame", "transfer.grid_frame", None),
    ("transfer", "gamma_supnorm", "transfer.gamma_supnorm", None),
    ("transfer", "overlaps_measure_zero", "transfer.overlaps_measure_zero", None),
    ("cli", "main", "cli.main", None),
)
AGGREGATE_TARGETS = (
    ("rational", "det", "rational.det"),
)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, request, child_s, attrs]
        self._stack = []         # indices of open spans
        self.aggregates = {}     # name -> [calls, seconds]
        self.request_id = None
        self.built_hulls = set()
        self.patched = []        # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, args=(), kwargs=None, attrs_fn=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.request_id, 0.0, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = _clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            rec[2] = end
            if parent is not None:
                self.spans[parent][5] += end - rec[1]
        if attrs_fn is not None:
            rec[6] = attrs_fn(self, args, kwargs, out)
        return out

    def _span_wrapper(self, name, fn, attrs_fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs_fn)
        return wrapper

    def _aggregate_wrapper(self, name, fn):
        agg = self.aggregates.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - start
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][5] += dt
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self):
        """Wrap every target and rebind each fracspec attribute that holds an
        original; `uninstall` restores them.  Call once per tracer."""
        import fracspec  # noqa: F401  (loads every layer module)
        import fracspec.cli  # noqa: F401
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fracspec" or n.startswith("fracspec."))]
        for mod_name, attr, name, attrs_fn in SPAN_TARGETS:
            module = sys.modules[f"fracspec.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapper = self._span_wrapper(name, orig, attrs_fn)
                setattr(cls, meth, wrapper)
                self.patched.append((cls, meth, orig, wrapper))
                continue
            orig = getattr(module, attr)
            self._rebind(modules, orig, self._span_wrapper(name, orig, attrs_fn))
        for mod_name, attr, name in AGGREGATE_TARGETS:
            orig = getattr(sys.modules[f"fracspec.{mod_name}"], attr)
            self._rebind(modules, orig, self._aggregate_wrapper(name, orig))
        return self

    def _rebind(self, modules, orig, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)
                    self.patched.append((module, attr, orig, wrapper))

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []

    # -- output ------------------------------------------------------------
    def write_spans(self, path, extra=None):
        """Save every span as one JSON line, then the aggregates."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, req, child_s, attrs) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "request": req,
                       "self_s": (end - start) - child_s}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")
            fh.write(json.dumps({"aggregates": self.aggregates, **(extra or {})}) + "\n")

    def raw_counts(self) -> dict:
        """Additive per-layer sums over every span of this process."""
        raw: dict = {}

        def add(key, v):
            raw[key] = raw.get(key, 0) + v

        chi_children: dict = {}      # span index -> [chi calls, chi freqs]
        first_q1: dict = {}          # completeness_test span -> first q1_profile child
        for i, (name, start, end, parent, _, child_s, attrs) in enumerate(self.spans):
            add(f"{name}.calls", 1)
            add(f"{name}.busy_s", (end - start) - child_s)
            for k, v in (attrs or {}).items():
                add(f"{name}.{k}", v)
            if name == "system.chi_B_batch" and parent is not None:
                c = chi_children.setdefault(parent, [0, 0])
                c[0] += 1
                c[1] += (attrs or {}).get("freqs", 0)
            if (name == "spectrum.q1_profile" and parent is not None
                    and self.spans[parent][0] == "spectrum.completeness_test"):
                first_q1.setdefault(parent, i)
        max_depth = 0
        for i, (name, _, _, parent, _, _, attrs) in enumerate(self.spans):
            if name == "measure.mu_hat_batch" and attrs:
                calls, freqs = chi_children.get(i, (0, 0))
                add("measure.mu_hat_batch.factor_evals", freqs)
                max_depth = max(max_depth, calls)
                if parent is not None and self.spans[parent][0] == "spectrum.q1_profile":
                    add("spectrum.q1_profile.pairs", attrs["freqs"])
                    grand = self.spans[parent][3]
                    rerun = (grand is not None and self.spans[grand][0] == "spectrum.completeness_test"
                             and first_q1.get(grand) != parent)
                    if not rerun:
                        add("spectrum.q1_profile.main_pairs", attrs["freqs"])
        for name, (calls, seconds) in self.aggregates.items():
            add(f"{name}.calls", calls)
            add(f"{name}.busy_s", seconds)
        return {"sums": raw, "max": {"measure.mu_hat_batch.max_depth": max_depth}}


def merge_raw(parts) -> dict:
    """Combine `raw_counts` of several processes: sums add, maxima take max."""
    sums: dict = {}
    maxima: dict = {}
    for part in parts:
        for k, v in part["sums"].items():
            sums[k] = sums.get(k, 0) + v
        for k, v in part["max"].items():
            maxima[k] = max(maxima.get(k, 0), v)
    return {"sums": sums, "max": maxima}


# name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "system.chi_B_batch.calls": ("count", "lower"),
    "system.chi_B_batch.busy_s": ("s", "lower"),
    "system.chi_B_batch.freqs": ("count", "lower"),
    "measure.mu_hat_batch.calls": ("count", "lower"),
    "measure.mu_hat_batch.busy_s": ("s", "lower"),
    "measure.mu_hat_batch.freqs": ("count", "lower"),
    "measure.mu_hat_batch.factor_evals": ("count", "lower"),
    "measure.mu_hat_batch.max_depth": ("count", "lower"),
    "spectrum.q1_profile.calls": ("count", "lower"),
    "spectrum.q1_profile.busy_s": ("s", "lower"),
    "spectrum.q1_profile.pairs": ("count", "lower"),
    "spectrum.q1_profile.useful_ratio": ("ratio", "higher"),
    "spectrum.completeness_test.busy_s": ("s", "lower"),
    "spectrum.enumerate_P.busy_s": ("s", "lower"),
    "spectrum.enumerate_P.words": ("count", "lower"),
    "spectrum.gram_matrix.busy_s": ("s", "lower"),
    "geometry.convex_hull.calls": ("count", "lower"),
    "geometry.convex_hull.busy_s": ("s", "lower"),
    "geometry.convex_hull.input_points": ("count", "lower"),
    "geometry.convex_hull.faces_kept": ("count", "lower"),
    "geometry.convex_hull.vertices_out": ("count", "lower"),
    "geometry.attractor_points.busy_s": ("s", "lower"),
    "geometry.attractor_points.words": ("count", "lower"),
    "geometry.invariance_check.busy_s": ("s", "lower"),
    "geometry.dual_hull.calls": ("count", "lower"),
    "geometry.dual_hull.repeat_ratio": ("ratio", "lower"),
    "rational.det.calls": ("count", "lower"),
    "rational.det.busy_s": ("s", "lower"),
    "transfer.apply_C.calls": ("count", "lower"),
    "transfer.apply_C.busy_s": ("s", "lower"),
    "transfer.apply_C.nodes": ("count", "lower"),
    "transfer.iterate_fixed_point.iterations": ("count", "lower"),
    "transfer.grid_frame.busy_s": ("s", "lower"),
    "transfer.gamma_supnorm.busy_s": ("s", "lower"),
    "transfer.overlaps_measure_zero.busy_s": ("s", "lower"),
    "system.validate_system.calls": ("count", "lower"),
    "system.validate_system.busy_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.busy_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "rational.det.calls",
    "geometry.convex_hull.faces_kept",
    "transfer.iterate_fixed_point.iterations",
    "spectrum.q1_profile.pairs",
    "measure.mu_hat_batch.factor_evals",
)


def layer_metrics(raw: dict, import_s: float, overhead_s: float) -> dict:
    """Per-layer metric values from merged raw counts.  A ratio whose base
    is zero (the layer did not run) reads 0."""
    sums, maxima = raw["sums"], raw["max"]
    out = {}
    for name in LAYER_METRICS:
        if name == "spectrum.q1_profile.useful_ratio":
            pairs = sums.get("spectrum.q1_profile.pairs", 0)
            v = sums.get("spectrum.q1_profile.main_pairs", 0) / pairs if pairs else 0.0
        elif name == "geometry.dual_hull.repeat_ratio":
            calls = sums.get("geometry.dual_hull.calls", 0)
            v = sums.get("geometry.dual_hull.repeat", 0) / calls if calls else 0.0
        elif name == "cli.import_s":
            v = import_s
        elif name == "trace.overhead_s":
            v = overhead_s
        elif name in maxima:
            v = maxima[name]
        else:
            v = sums.get(name, 0)
        out[name] = v
    return out
