"""Spans and counts around the calls into each pwanet module.

The library records nothing itself, so the traced run wraps functions
where their callers look them up (cli's `formats.parse_pwa`, pwa's
`lp.is_empty`, network's `compose`, ...) and restores them afterwards.
Every wrapped call is a span: name, start, end, parent span and the id of
the benchmark operation it belongs to. Spans stay in memory, in flat
arrays, until the traced pass ends. A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

from pwanet import cli, formats, lp, network, pwa, pwa_algebra


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.op_id = 0
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._pair_open = False
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, module, attr: str, name: str, after=None):
        original = getattr(module, attr)
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, traced)
        self._undo.append((module, attr, original))

    def _innermost(self) -> str:
        return self.names[self.name_id[self._stack[-1]]] if self._stack else ""

    def install(self) -> None:
        """Wrap the public functions of every layer, and pwa's pair check."""
        c = self.counts

        def lp_size(args):
            c["lp.calls"] += 1
            c["lp.constraints"] += len(args[0].constraints)

        def after_is_empty(args, empty):
            lp_size(args)
            c["lp.is_empty.empty"] += empty
            if self._pair_open:
                # The first LP of a pair decides whether the two pieces overlap.
                self._pair_open = False
                c["pwa.check.overlaps"] += not empty

        def after_solve(args, outcome):
            lp_size(args)
            c["lp.solve." + type(outcome).__name__.lower()] += 1

        def after_prune(args, result):
            c["pwa.prune_empty.in"] += len(args[0].pieces)
            c["pwa.prune_empty.kept"] += len(result.pieces)

        wrap = self._wrap
        wrap(cli, "main", "cli.main")
        wrap(formats, "parse_network", "formats.parse_network")
        wrap(formats, "parse_pwa", "formats.parse_pwa",
             lambda a, r: c.update({"formats.parse_pwa.bytes": len(a[0])}))
        wrap(formats, "serialize_pwa", "formats.serialize_pwa",
             lambda a, r: c.update({"formats.serialize_pwa.bytes": len(r)}))
        wrap(formats, "export_smt", "formats.export_smt")
        wrap(network, "transform", "network.transform")
        wrap(network, "nn_eval", "network.nn_eval")
        wrap(network, "compose", "pwa_algebra.compose",
             lambda a, r: c.update({"pwa_algebra.compose.pieces_out": len(r.pieces)}))
        wrap(pwa_algebra, "compose_polyhedron", "pwa_algebra.compose_polyhedron")
        wrap(pwa_algebra, "compose_affine", "pwa_algebra.compose_affine")
        wrap(pwa_algebra, "mat_mul", "numeric.mat_mul")
        wrap(pwa_algebra, "mat_vec_mul", "numeric.mat_vec_mul")
        wrap(pwa, "mat_vec_mul", "numeric.mat_vec_mul")
        wrap(pwa, "contains", "polyhedra.contains")
        wrap(pwa, "intersect", "polyhedra.intersect")
        wrap(pwa, "evaluate", "pwa.evaluate")
        wrap(pwa, "prune_empty", "pwa.prune_empty", after_prune)
        wrap(pwa, "count_regions", "pwa.count_regions")
        wrap(pwa, "check_univalence", "pwa.check_univalence")
        wrap(lp, "is_empty", "lp.is_empty", after_is_empty)
        wrap(lp, "solve", "lp.solve", after_solve)
        wrap(lp, "feasible_point", "lp.feasible_point")

        # A count, not a span, so the checker's self time keeps its pair
        # loop. Pairs checked while parsing (each ReLU checks itself) are
        # left out: only pairs scanned for a check_univalence call count.
        check_pair = pwa._check_pair

        def counted_pair(*args):
            if self._innermost() == "pwa.check_univalence":
                c["pwa.check.pairs"] += 1
                self._pair_open = True
            return check_pair(*args)

        pwa._check_pair = counted_pair
        self._undo.append((pwa, "_check_pair", check_pair))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def self_times(self) -> list[float]:
        durations = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[index]
        return [d - c for d, c in zip(durations, covered)]

    def problems(self, self_times) -> list[str]:
        """Spans whose self time is negative or exceeds the parent's span.

        The tolerance absorbs rounding in summing child durations.
        """
        tolerance = 1e-9
        found = []
        for index, own in enumerate(self_times):
            parent = self.parent[index]
            limit = (
                self.end[parent] - self.start[parent]
                if parent >= 0
                else self.end[index] - self.start[index]
            )
            if own < -tolerance or own > limit + tolerance:
                found.append(
                    f"span {index} ({self.names[self.name_id[index]]}): "
                    f"self {own:.9f} s outside [0, {limit:.9f}]"
                )
        return found

    def summary(self, self_times) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        table = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for index, nid in enumerate(self.name_id):
            row = table[self.names[nid]]
            row["calls"] += 1
            row["s"] += self.end[index] - self.start[index]
            row["self_s"] += self_times[index]
        return table

    def scanned_by_evaluate(self) -> int:
        """contains() calls made directly by a compiled-function evaluate."""
        contains_id = self._name_ids["polyhedra.contains"]
        evaluate_id = self._name_ids["pwa.evaluate"]
        return sum(
            1
            for nid, parent in zip(self.name_id, self.parent)
            if nid == contains_id and parent >= 0 and self.name_id[parent] == evaluate_id
        )


def _ratio(a, b) -> float:
    return a / b if b else 0.0


# name -> unit and better-direction, in the order they are reported.
LAYER_METRICS = {
    "cli.self_s": ("s", "lower"),
    "formats.parse_network.s": ("s", "lower"),
    "formats.parse_pwa.s": ("s", "lower"),
    "formats.parse_pwa.bytes": ("bytes", "lower"),
    "formats.serialize_pwa.s": ("s", "lower"),
    "formats.serialize_pwa.bytes": ("bytes", "lower"),
    "formats.export_smt.s": ("s", "lower"),
    "network.transform.calls": ("count", "lower"),
    "network.transform.self_s": ("s", "lower"),
    "network.nn_eval.self_s": ("s", "lower"),
    "pwa_algebra.compose.calls": ("count", "lower"),
    "pwa_algebra.compose.s": ("s", "lower"),
    "pwa_algebra.compose.pieces_out": ("count", "lower"),
    "pwa_algebra.compose_polyhedron.s": ("s", "lower"),
    "pwa_algebra.compose_affine.s": ("s", "lower"),
    "numeric.mat_mul.s": ("s", "lower"),
    "lp.is_empty.calls": ("count", "lower"),
    "lp.is_empty.s": ("s", "lower"),
    "lp.is_empty.empty_ratio": ("ratio", "lower"),
    "lp.constraints_mean": ("count", "lower"),
    "lp.solve.calls": ("count", "lower"),
    "lp.solve.s": ("s", "lower"),
    "lp.solve.optimal": ("count", "lower"),
    "lp.solve.unbounded": ("count", "lower"),
    "lp.feasible_point.calls": ("count", "lower"),
    "lp.feasible_point.s": ("s", "lower"),
    "pwa.prune_empty.s": ("s", "lower"),
    "pwa.prune_empty.kept_ratio": ("ratio", "higher"),
    "pwa.count_regions.s": ("s", "lower"),
    "pwa.check_univalence.self_s": ("s", "lower"),
    "pwa.check.pairs": ("count", "lower"),
    "pwa.check.overlap_ratio": ("ratio", "higher"),
    "polyhedra.intersect.calls": ("count", "lower"),
    "pwa.evaluate.self_s": ("s", "lower"),
    "pwa.evaluate.pieces_scanned_mean": ("count", "lower"),
    "polyhedra.contains.calls": ("count", "lower"),
    "polyhedra.contains.s": ("s", "lower"),
    "numeric.mat_vec_mul.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# The metrics that must repeat exactly between two traced runs of a seed.
COUNT_METRICS = [name for name, (unit, _) in LAYER_METRICS.items() if unit != "s"]


def layer_metrics(tracer: Tracer, self_times, overhead_s: float) -> dict:
    """Every LAYER_METRICS value from one traced pass."""
    table = tracer.summary(self_times)
    c = tracer.counts

    def row(name):
        return table.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    return {
        "cli.self_s": row("cli.main")["self_s"],
        "formats.parse_network.s": row("formats.parse_network")["s"],
        "formats.parse_pwa.s": row("formats.parse_pwa")["s"],
        "formats.parse_pwa.bytes": c["formats.parse_pwa.bytes"],
        "formats.serialize_pwa.s": row("formats.serialize_pwa")["s"],
        "formats.serialize_pwa.bytes": c["formats.serialize_pwa.bytes"],
        "formats.export_smt.s": row("formats.export_smt")["s"],
        "network.transform.calls": row("network.transform")["calls"],
        "network.transform.self_s": row("network.transform")["self_s"],
        "network.nn_eval.self_s": row("network.nn_eval")["self_s"],
        "pwa_algebra.compose.calls": row("pwa_algebra.compose")["calls"],
        "pwa_algebra.compose.s": row("pwa_algebra.compose")["s"],
        "pwa_algebra.compose.pieces_out": c["pwa_algebra.compose.pieces_out"],
        "pwa_algebra.compose_polyhedron.s": row("pwa_algebra.compose_polyhedron")["s"],
        "pwa_algebra.compose_affine.s": row("pwa_algebra.compose_affine")["s"],
        "numeric.mat_mul.s": row("numeric.mat_mul")["s"],
        "lp.is_empty.calls": row("lp.is_empty")["calls"],
        "lp.is_empty.s": row("lp.is_empty")["s"],
        "lp.is_empty.empty_ratio": _ratio(c["lp.is_empty.empty"], row("lp.is_empty")["calls"]),
        "lp.constraints_mean": _ratio(c["lp.constraints"], c["lp.calls"]),
        "lp.solve.calls": row("lp.solve")["calls"],
        "lp.solve.s": row("lp.solve")["s"],
        "lp.solve.optimal": c["lp.solve.optimal"],
        "lp.solve.unbounded": c["lp.solve.unbounded"],
        "lp.feasible_point.calls": row("lp.feasible_point")["calls"],
        "lp.feasible_point.s": row("lp.feasible_point")["s"],
        "pwa.prune_empty.s": row("pwa.prune_empty")["s"],
        "pwa.prune_empty.kept_ratio": _ratio(c["pwa.prune_empty.kept"], c["pwa.prune_empty.in"]),
        "pwa.count_regions.s": row("pwa.count_regions")["s"],
        "pwa.check_univalence.self_s": row("pwa.check_univalence")["self_s"],
        "pwa.check.pairs": c["pwa.check.pairs"],
        "pwa.check.overlap_ratio": _ratio(c["pwa.check.overlaps"], c["pwa.check.pairs"]),
        "polyhedra.intersect.calls": row("polyhedra.intersect")["calls"],
        "pwa.evaluate.self_s": row("pwa.evaluate")["self_s"],
        "pwa.evaluate.pieces_scanned_mean": _ratio(
            tracer.scanned_by_evaluate(), row("pwa.evaluate")["calls"]
        ),
        "polyhedra.contains.calls": row("polyhedra.contains")["calls"],
        "polyhedra.contains.s": row("polyhedra.contains")["s"],
        "numeric.mat_vec_mul.s": row("numeric.mat_vec_mul")["s"],
        "trace.overhead_s": overhead_s,
    }
