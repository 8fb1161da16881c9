"""Spans and counters around the public functions of each revmaps module.

The tracer replaces a function at every name a caller resolves it through:
``verify``, ``cli``, ``mapgeom`` and ``triples`` import with ``from .x import
f``, so patching only the defining module would miss their calls.  Hot
methods of ``GroupHandle`` are counted through wrappers on the class.  Spans
(name, start, end, parent, op) stay in memory until the pass ends; a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# (module, attribute) -> span name; the span's self time is reported as
# "<name>_s".
SPANS = {
    ("gfproj", "all_matrices"): "gfproj.all_matrices",
    ("groups", "build_group"): "groups.build_group",
    ("groups", "GroupHandle.involutions"): "groups.involutions",
    ("groups", "generates"): "groups.generates",
    ("groups", "subgroup_closure"): "groups.subgroup_closure",
    ("groups", "right_cosets"): "groups.right_cosets",
    ("groups", "conjugacy_class"): "groups.conjugacy_class",
    ("groups", "conjugacy_class_reps"): "groups.conjugacy_class_reps",
    ("triples", "scan_reversing_census"): "triples.scan_reversing_census",
    ("triples", "triple_conjugacy_classes"): "triples.triple_conjugacy_classes",
    ("triples", "enumerate_reversing_triples"): "triples.enumerate_reversing_triples",
    ("triples", "construction_census"): "triples.construction_census",
    ("triples", "psl_triple"): "triples.psl_triple",
    ("triples", "pgl_triple"): "triples.pgl_triple",
    ("triples", "ext_triple"): "triples.ext_triple",
    ("mapgeom", "build_revmap"): "mapgeom.build_revmap",
    ("mapgeom", "build_regular_map"): "mapgeom.build_regular_map",
    ("mapgeom", "flag_system"): "mapgeom.flag_system",
    ("mapgeom", "surface_invariants"): "mapgeom.surface_invariants",
    ("mapgeom", "map_record"): "mapgeom.map_record",
    ("mapgeom", "underlying_graph"): "mapgeom.underlying_graph",
    ("mapgeom", "to_dot"): "mapgeom.to_dot",
    ("verify", "verify_theorem"): "verify.verify_theorem",
    ("verify", "check_no_rotary"): "verify.check_no_rotary",
    ("verify", "check_pgl_action"): "verify.check_pgl_action",
    ("verify", "a5_exceptional_case"): "verify.a5_exceptional_case",
    ("verify", "report_json"): "verify.report_json",
}
# Called up to millions of times: counted only, no span.
COUNTS = {
    ("gfproj", "act"): "gfproj.act_calls",
    ("groups", "GroupHandle.mul"): "groups.mul_calls",
    ("groups", "GroupHandle.element_order"): "groups.element_order_calls",
    ("groups", "GroupHandle.pair_order"): "groups.pair_order_calls",
    ("triples", "make_triple"): "triples.make_triple_calls",
}
# The command-line layer is entered from the benchmark's own op code, which
# opens these regions around each ``cli.main`` call.
CLI_REGIONS = ("cli.construct", "cli.check", "cli.export", "cli.enumerate")

# Values read off return values: metric -> (span name, function of result).
RESULT_COUNTS = {
    "triples.combos_scanned": ("triples.scan_reversing_census", lambda r: r.combos_scanned),
    "triples.qualifying_triples": (
        "triples.scan_reversing_census",
        lambda r: sum(len(c.triples) for c in r.qualifying),
    ),
    "triples.classes_found": ("triples.triple_conjugacy_classes", len),
    "triples.enumerated_triples": ("triples.enumerate_reversing_triples", len),
    "mapgeom.flags_built": ("mapgeom.flag_system", len),
}

# Spans whose call count is a per-layer metric, as "<name>_calls".
CALL_COUNTS = ("groups.build_group", "groups.generates", "triples.triple_conjugacy_classes")

# Every span's self time is a per-layer metric.
SPAN_METRICS = tuple(SPANS.values()) + CLI_REGIONS

# Spans and counters that must fire on each workload; a patch that missed its
# callers would otherwise read as zero.
_SETUP = ("gfproj.all_matrices", "groups.build_group", "groups.involutions")
EXPECTED = {
    "matrix": _SETUP
    + (
        "groups.generates",
        "groups.subgroup_closure",
        "groups.right_cosets",
        "groups.conjugacy_class",
        "groups.conjugacy_class_reps",
        "triples.scan_reversing_census",
        "triples.triple_conjugacy_classes",
        "triples.enumerate_reversing_triples",
        "triples.construction_census",
        "mapgeom.build_revmap",
        "mapgeom.build_regular_map",
        "mapgeom.flag_system",
        "mapgeom.surface_invariants",
        "mapgeom.map_record",
        "mapgeom.underlying_graph",
        "verify.verify_theorem",
        "verify.check_no_rotary",
        "verify.check_pgl_action",
        "verify.a5_exceptional_case",
        "verify.report_json",
        "gfproj.act_calls",
        "groups.mul_calls",
        "groups.element_order_calls",
        "groups.pair_order_calls",
    ),
    "census": _SETUP
    + (
        "triples.scan_reversing_census",
        "triples.triple_conjugacy_classes",
        "cli.enumerate",
        "groups.mul_calls",
        "groups.element_order_calls",
        "groups.pair_order_calls",
    ),
    "construct": _SETUP
    + (
        "groups.subgroup_closure",
        "groups.right_cosets",
        "triples.psl_triple",
        "triples.pgl_triple",
        "triples.ext_triple",
        "mapgeom.build_revmap",
        "mapgeom.flag_system",
        "mapgeom.surface_invariants",
        "mapgeom.map_record",
        "mapgeom.underlying_graph",
        "mapgeom.to_dot",
        "cli.construct",
        "cli.check",
        "cli.export",
        "gfproj.act_calls",
        "groups.mul_calls",
        "groups.element_order_calls",
        "groups.pair_order_calls",
        "triples.make_triple_calls",
    ),
}


class NullTracer:
    """What the op code talks to when tracing is off: regions cost nothing."""

    @contextmanager
    def region(self, name):
        yield


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op index)
        self._cells = {name: [0] for name in COUNTS.values()}
        self.results = dict.fromkeys(RESULT_COUNTS, 0)
        self.op = -1  # -1 is set-up
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------------

    def _enter(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, t0, t1, parent, self.op)

    @contextmanager
    def region(self, name):
        sid = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(sid, name, t0, time.perf_counter())

    def _span_wrapper(self, fn, name):
        enter, exit_, clock = self._enter, self._exit, time.perf_counter
        readers = [(m, f) for m, (n, f) in RESULT_COUNTS.items() if n == name]
        results = self.results

        def traced(*args, **kwargs):
            sid = enter()
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(sid, name, t0, clock())
            for metric, read in readers:
                results[metric] += read(out)
            return out

        return traced

    def _count_wrapper(self, fn, name):
        # a one-element list is the cheapest counter to bump from a closure;
        # every counted function is called with positional arguments only
        cell = self._cells[name]

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        import revmaps.cli  # noqa: F401  (the package imports every other module)

        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for (module, attr), name in table.items():
                self._patch(module, attr, make, name)

    def _patch(self, module: str, attr: str, make, name: str) -> None:
        home = sys.modules[f"revmaps.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig, name))
            return
        orig = getattr(home, attr)
        wrapper = make(orig, name)
        patched = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "revmaps" and not mod_name.startswith("revmaps."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"revmaps.{module}.{attr} was not found to patch")

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        for sid, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[sid]
        return out

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._cells.items()}

    def layer_metrics(self) -> dict:
        """Self time of every span metric, plus the counters and call counts."""
        m = {f"{name}_s": t for name, t in self.self_times().items()}
        m.update(self.counts())
        m.update(self.results)
        calls = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        for name in CALL_COUNTS:
            m[f"{name}_calls"] = calls.get(name, 0)
        m["mapgeom.maps_built"] = calls.get("mapgeom.build_revmap", 0) + calls.get(
            "mapgeom.build_regular_map", 0
        )
        combos = m["triples.combos_scanned"]
        m["triples.qualifying_ratio"] = m["triples.qualifying_triples"] / combos if combos else 0.0
        return m

    def missing(self, workload: str) -> list[str]:
        """Expected spans and counters of the workload that never fired."""
        fired = {s[0] for s in self.spans}
        fired.update(k for k, v in self.counts().items() if v)
        return [name for name in EXPECTED[workload] if name not in fired]
