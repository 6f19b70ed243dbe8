"""Spans around the public functions of welldom's layers, recorded from outside.

``install`` replaces each traced function, in every welldom module that
holds a reference to it, with a wrapper that records a span: name, start,
end, parent span and counters.  The package itself is not changed on disk
and the untraced runs never call ``install``.  Spans stay in memory until
``write`` saves them at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (span name, module, function); both characterized engines share one name
LAYERS = [
    ("graphs.cycle_search", "welldom.graphs", "contains_cycle_of_length"),
    ("graphs.isomorphism", "welldom.graphs", "is_isomorphic_small"),
    ("graphs.parse", "welldom.graphs", "parse_graph"),
    ("generators.generate_family", "welldom.generators", "generate_family"),
    ("oracle.mis_enum", "welldom.oracle", "enumerate_maximal_independent_sets"),
    ("oracle.mds_enum", "welldom.oracle", "enumerate_minimal_dominating_sets"),
    ("oracle.weight_space", "welldom.oracle", "weight_space_from_family"),
    ("linalg.rref", "welldom.linalg", "rref"),
    ("structure.anchored", "welldom.structure", "anchored_fringe_vertices"),
    ("structure.simplicial_partition", "welldom.structure", "simplicial_partition"),
    ("structure.independence_number", "welldom.structure", "independence_number"),
    ("structure.summary", "welldom.structure", "structure_summary"),
    ("weightspace.wcw_basis", "welldom.weightspace", "well_covered_weight_basis"),
    ("weightspace.wwd_basis", "welldom.weightspace", "well_dominated_weight_basis"),
    ("weightspace.dimension_checks", "welldom.weightspace", "dimension_checks"),
    ("analysis.analyze", "welldom.analysis", "analyze"),
    ("analysis.characterized", "welldom.analysis", "characterized_wcw_basis"),
    ("analysis.characterized", "welldom.analysis", "characterized_wwd_basis"),
    ("analysis.recognized_status", "welldom.analysis", "recognized_status"),
    ("analysis.sweep", "welldom.analysis", "run_property_sweep"),
]
GENERATORS = {"generators.generate_family"}


def _on_triangle(g, v) -> bool:
    a, b = g.adj[v]
    return b in g.adj[a]


# span name -> function of (args, result) giving the span's counters
COUNTERS = {
    "oracle.mis_enum": lambda args, result: {"sets": len(result)},
    "oracle.mds_enum": lambda args, result: {"sets": len(result)},
    "oracle.weight_space": lambda args, result: {"rows": max(len(args[0]) - 1, 0)},
    "linalg.rref": lambda args, result: {
        "rows_in": len(args[0]),
        "rank_out": len(result[0]),
        "cells_in": len(args[0]) * args[1],
    },
    "structure.anchored": lambda args, result: {
        "ears": sum(1 for v in range(args[0].n) if len(args[0].adj[v]) == 2 and _on_triangle(args[0], v))
    },
}


class Tracer:
    """Spans as lists [name, start, end, parent index, root index, counters]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.spans[parent][4] if parent >= 0 else idx
        self.spans.append([name, 0.0, 0.0, parent, root, None])
        self.stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    @contextmanager
    def root(self, name: str):
        """A benchmark-level span (one set-up or one round); yields its index."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, func):
        counters = COUNTERS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name == "linalg.rref":
                args = (list(args[0]),) + args[1:]  # rows may be a one-shot iterable
            idx = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(idx)
            if counters is not None:
                self.spans[idx][5] = counters(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)

            def steps():
                while True:
                    idx = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item

            return steps()

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a welldom module refers to it."""
        modules = [m for name, m in sys.modules.items() if name == "welldom" or name.startswith("welldom.")]
        for name, module_name, attr in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = (self.wrap_generator if name in GENERATORS else self.wrap)(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        report_cls = sys.modules["welldom.analysis"].AnalysisReport
        report_cls.to_json_dict = self.wrap("analysis.to_json", report_cls.to_json_dict)

    def layer_metrics(self, rounds: list[int], setup: int) -> dict[str, dict]:
        """Calls, total time, self time and counters per span name, for one
        set-up plus one round (the sum over ``rounds`` divided by their number).

        Total time counts only spans without an ancestor of the same name;
        self time is a span's duration minus that of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        weight = {setup: 1.0}
        weight.update({r: 1.0 / len(rounds) for r in rounds})
        out: dict[str, dict] = {}
        for idx, (name, start, end, parent, root, counters) in enumerate(self.spans):
            share = weight.get(root)
            if share is None or idx == root:
                continue
            entry = out.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += share
            entry["self_s"] += share * (end - start - child_time[idx])
            if not self._nested_in_same_name(idx):
                entry["s"] += share * (end - start)
            for key, value in (counters or {}).items():
                entry[key] = entry.get(key, 0.0) + share * value
        return out

    def _nested_in_same_name(self, idx: int) -> bool:
        name = self.spans[idx][0]
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "root", "counters"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


# Per-layer metrics reported by a traced run, as "<span name>.<field>".
PER_LAYER = [
    "graphs.cycle_search.calls", "graphs.cycle_search.s",
    "graphs.isomorphism.calls", "graphs.isomorphism.s",
    "graphs.parse.calls", "graphs.parse.s",
    "generators.generate_family.s", "generators.generate_family.self_s",
    "oracle.mis_enum.calls", "oracle.mis_enum.s", "oracle.mis_enum.sets",
    "oracle.mds_enum.calls", "oracle.mds_enum.s", "oracle.mds_enum.sets",
    "oracle.weight_space.calls", "oracle.weight_space.s", "oracle.weight_space.self_s",
    "oracle.weight_space.rows",
    "linalg.rref.calls", "linalg.rref.s", "linalg.rref.rows_in", "linalg.rref.rank_out",
    "linalg.rref.cells_in", "linalg.rref.useful_ratio",
    "structure.anchored.calls", "structure.anchored.s", "structure.anchored.ears",
    "structure.simplicial_partition.calls", "structure.simplicial_partition.s",
    "structure.independence_number.calls", "structure.independence_number.s",
    "structure.summary.calls", "structure.summary.s", "structure.summary.self_s",
    "weightspace.wcw_basis.calls", "weightspace.wcw_basis.s", "weightspace.wcw_basis.self_s",
    "weightspace.wwd_basis.calls", "weightspace.wwd_basis.s", "weightspace.wwd_basis.self_s",
    "weightspace.dimension_checks.calls", "weightspace.dimension_checks.s",
    "weightspace.dimension_checks.self_s",
    "analysis.analyze.calls", "analysis.analyze.s", "analysis.analyze.self_s",
    "analysis.to_json.s",
    "analysis.characterized.calls", "analysis.characterized.s", "analysis.characterized.self_s",
    "analysis.recognized_status.calls", "analysis.recognized_status.s",
    "analysis.recognized_status.self_s",
    "analysis.sweep.calls", "analysis.sweep.s", "analysis.sweep.self_s",
    "trace.overhead_s", "trace.run_s", "trace.spans",
]
HIGHER_IS_BETTER = {"useful_ratio"}


def unit_of(metric: str) -> str:
    field = metric.rsplit(".", 1)[1]
    if field.endswith("_s") or field == "s":
        return "s"
    return "ratio" if field == "useful_ratio" else "count"


def per_layer_values(layers: dict[str, dict], traced_run_s: float, untraced_run_s: float,
                     spans_per_round: float) -> dict[str, dict]:
    """Every PER_LAYER metric; a layer the workload never calls reads 0."""
    rref = layers.get("linalg.rref", {})
    derived = {
        "linalg.rref.useful_ratio": rref.get("rank_out", 0.0) / rref["rows_in"] if rref.get("rows_in") else 0.0,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.run_s": traced_run_s,
        "trace.spans": spans_per_round,
    }
    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            value = derived[metric]
        else:
            span, field = metric.rsplit(".", 1)
            value = layers.get(span, {}).get(field, 0.0)
        out[metric] = {"value": value, "unit": unit_of(metric)}
    return out
