"""The benchmark's workloads and the loop that times them.

Each workload is a closed loop with one client: one operation at a time,
the next only after the previous one returned. A pass runs every
operation of the workload's corpus once. The first pass warms up and is
checked in full against the reference; timed passes follow until the
run's seconds are spent, and each must reproduce the first pass's outputs.

Every timed operation, and every step of a set-up, is scaled to a fixed
machine speed by the loop in `speed.py`, timed next to it, because the
shared machine's speed changes under the run. An operation's time is the
median of its scaled times over the timed passes, and a corpus total is
the sum of those per-operation times.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import corpus
import reference
import speed
import tracing
from pwanet import cli, formats, network, pwa
from pwanet.numeric import ColVec

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPS = 5
MIN_TIMED_PASSES = 5


class SetupError(Exception):
    """The inputs could not be prepared, so nothing can be measured."""


@dataclass
class Op:
    key: str
    kind: str
    call: Callable[[], tuple[float, object]]  # () -> (seconds, outcome)
    check: Callable[[object], Optional[str]]  # outcome -> error text or None


def _cli(*argv):
    """One in-process `pwanet` command: (seconds, (exit code, stdout))."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        seconds = perf_counter() - start
    return seconds, (code, out.getvalue() + err.getvalue())


def _query(module, attr, *args):
    # The function is looked up at call time, so the traced pass sees the
    # wrapper.
    start = perf_counter()
    result = getattr(module, attr)(*args)
    return perf_counter() - start, result


def _compile_input(pace: speed.Pace, network_path: Path, out_path: Path) -> str:
    """Setup step: the pruned compile that `check` and `eval` read."""
    seconds, (code, output) = _cli(
        "compile", "--network", network_path, "--out", out_path, "--prune"
    )
    pace.add("compile --prune", seconds)
    if code != 0:
        raise SetupError(f"compile --prune {network_path.name}: exit {code}: {output.strip()}")
    return out_path.read_text()


def _require(error) -> None:
    if error is not None:
        raise SetupError(error)


def _import_seconds() -> float:
    """Scaled time to import the library in a fresh interpreter.

    The child times the speed loop around the import itself: it may run
    on the other CPU, whose speed the parent does not see.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; import speed; "
        "before = speed.loop_seconds(); start = time.perf_counter(); import pwanet.cli; "
        "seconds = time.perf_counter() - start; after = speed.loop_seconds(); "
        "print(seconds * 2 * speed.REFERENCE_S / (before + after))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def _unpruned_count(shape) -> int:
    return 2 ** sum(shape[1:])


class Workload:
    """Shared bookkeeping: first-pass observations, pins, corpus files."""

    name = ""
    kinds: dict[str, str] = {}  # breakdown metric -> op kind

    def __init__(self, seed: int, shapes, pins: dict, points: int):
        self.seed = seed
        self.shapes = shapes
        self.pins = pins
        self.points = points  # evaluation points per network
        self.seen: dict[str, object] = {}
        self.observed: dict[str, object] = {}

    def _pin(self, key: str, value):
        """Record an output; None, or why it differs from the pinned one."""
        self.observed[key] = value
        pinned = self.pins.get(key)
        if pinned is not None and pinned != value:
            return f"{key} is {value!r}, pinned {pinned!r}"
        return None

    def _same_as_first(self, key: str, value, full_check):
        """Full reference check the first time, byte identity afterwards."""
        if key in self.seen:
            return None if self.seen[key] == value else "output differs from the first pass"
        error = full_check()
        self.seen[key] = value
        return error

    def _write_networks(self, workdir: Path, pace: speed.Pace):
        nets = []
        for shape in self.shapes:
            layers = pace.timed("generate", corpus.relabelled_layers, shape, self.seed)
            path = workdir / f"{corpus.shape_name(shape)}.net.json"
            pace.timed("write", path.write_text, corpus.network_document(layers))
            nets.append((shape, layers, path))
        return nets


class CompileWorkload(Workload):
    name = "compile"
    kinds = {
        "compile_s": "compile",
        "compile_prune_s": "compile_prune",
        "regions_s": "regions",
        "export_smt_s": "export_smt",
    }

    def setup(self, workdir: Path, pace: speed.Pace) -> None:
        self.nets = self._write_networks(workdir, pace)
        self.kept: dict[str, int] = {}

    def ops(self, parallel: bool = True) -> list[Op]:
        ops = []
        for shape, layers, path in self.nets:
            name = corpus.shape_name(shape)
            unpruned = path.with_name(f"{name}.pwa.json")
            pruned = path.with_name(f"{name}.pruned.json")
            smt = path.with_name(f"{name}.smt2")
            ops += [
                Op(f"compile {name}", "compile",
                   partial(_cli, "compile", "--network", path, "--out", unpruned),
                   partial(self._check_compiled, shape, layers, unpruned, False)),
                Op(f"compile_prune {name}", "compile_prune",
                   partial(_cli, "compile", "--network", path, "--out", pruned, "--prune"),
                   partial(self._check_compiled, shape, layers, pruned, True)),
                Op(f"regions {name}", "regions",
                   partial(_cli, "regions", "--pwa", unpruned),
                   partial(self._check_regions, shape)),
                Op(f"export_smt {name}", "export_smt",
                   partial(_cli, "export-smt", "--pwa", unpruned, "--out", smt),
                   partial(self._check_smt, shape, smt)),
            ]
        return ops

    def _check_compiled(self, shape, layers, path: Path, pruned: bool, outcome):
        code, output = outcome
        if code != 0:
            return f"exit {code}: {output.strip()}"
        text = path.read_text()
        name = corpus.shape_name(shape)
        label = "pruned" if pruned else "compiled"

        def full_check():
            pieces = reference.parse_pieces(text)
            count_key = f"{name}.{'kept' if pruned else 'pieces'}"
            if pruned:
                self.kept[name] = len(pieces)
            elif len(pieces) != _unpruned_count(shape):
                return f"{len(pieces)} pieces, expected {_unpruned_count(shape)}"
            for x in corpus.points(shape, self.seed, 25):
                want = reference.forward(layers, x)
                got = reference.evaluate(pieces, x)
                if got != want:
                    return f"value at {x} is {got}, the network gives {want}"
            return self._pin(count_key, len(pieces)) or self._pin(
                f"{name}.{label}_pieces_sha256", reference.pieces_digest(text)
            )

        return self._same_as_first(f"{label} {name}", reference.pieces_digest(text), full_check)

    def _check_regions(self, shape, outcome):
        code, output = outcome
        name = corpus.shape_name(shape)
        kept = self.kept.get(name)
        if code != 0 or output != f"{kept}\n":
            return f"exit {code}, printed {output!r}; the pruned compile kept {kept}"
        return None

    def _check_smt(self, shape, path: Path, outcome):
        code, output = outcome
        if code != 0:
            return f"exit {code}: {output.strip()}"
        text = path.read_text()
        name = corpus.shape_name(shape)

        def full_check():
            lines = text.splitlines()
            implications = sum(1 for line in lines if line.startswith("(assert (=> "))
            if lines[0] != "(set-logic QF_LRA)" or implications != _unpruned_count(shape):
                return f"{implications} piece assertions, expected {_unpruned_count(shape)}"
            return self._pin(f"{name}.smt_sha256", reference.text_digest(text))

        return self._same_as_first(f"smt {name}", reference.text_digest(text), full_check)


class CheckWorkload(Workload):
    name = "check"
    kinds = {
        "check_s": "check",
        "check_refuted_s": "check_refuted",
        "check_par_s": "check_par",
    }

    def setup(self, workdir: Path, pace: speed.Pace) -> None:
        self.inputs = []
        for shape, _, path in self._write_networks(workdir, pace):
            name = corpus.shape_name(shape)
            pruned = path.with_name(f"{name}.pruned.json")
            text = _compile_input(pace, path, pruned)
            refuted = path.with_name(f"{name}.refuted.json")
            pace.timed("write", refuted.write_text, corpus.refuted_document(text))
            self.inputs.append((shape, pruned, refuted))

    def ops(self, parallel: bool = True) -> list[Op]:
        ops = []
        for shape, pruned, refuted in self.inputs:
            name = corpus.shape_name(shape)
            _require(self._pin(f"{name}.kept", len(json.loads(pruned.read_text())["pieces"])))
            ops += [
                Op(f"check {name}", "check",
                   partial(_cli, "check", "--pwa", pruned),
                   partial(self._check_univalent, name)),
                Op(f"check_refuted {name}", "check_refuted",
                   partial(_cli, "check", "--pwa", refuted),
                   partial(self._check_refuted, name, refuted)),
            ]
        if parallel:
            shape, pruned, _ = max(self.inputs, key=lambda item: _unpruned_count(item[0]))
            name = corpus.shape_name(shape)
            jobs = str(min(2, os.cpu_count() or 1))
            ops.append(
                Op(f"check_par {name}", "check_par",
                   partial(self._parallel_check, jobs, pruned),
                   partial(self._check_univalent, name))
            )
        return ops

    @staticmethod
    def _parallel_check(jobs: str, path: Path):
        os.environ["PWANET_JOBS"] = jobs
        try:
            return _cli("check", "--pwa", path)
        finally:
            del os.environ["PWANET_JOBS"]

    def _check_univalent(self, name, outcome):
        code, output = outcome
        if code != 0 or output != "univalent\n":
            return f"exit {code}, printed {output!r} for a univalent function"
        return self._pin(f"{name}.check", output.strip())

    def _check_refuted(self, name, path: Path, outcome):
        code, output = outcome
        if code != 5:
            return f"exit {code}, printed {output!r} for a refuted function"

        def full_check():
            return reference.violation_error(
                reference.parse_pieces(path.read_text()), output
            ) or self._pin(f"{name}.check_refuted", output.strip())

        return self._same_as_first(f"refuted {name}", output, full_check)


class EvalWorkload(Workload):
    name = "eval"
    kinds = {"eval_ms": "eval", "nn_eval_ms": "nn_eval"}

    def setup(self, workdir: Path, pace: speed.Pace) -> None:
        self.inputs = []
        for shape, layers, path in self._write_networks(workdir, pace):
            name = corpus.shape_name(shape)
            text = _compile_input(pace, path, path.with_name(f"{name}.pruned.json"))
            fn = pace.timed("parse", formats.parse_pwa, text)
            net = pace.timed("parse", formats.parse_network, path.read_text())
            xs = pace.timed("points", lambda: [
                ColVec(x) for x in corpus.points(shape, self.seed, self.points)
            ])
            self.inputs.append((shape, layers, fn, net, xs, len(fn.pieces)))

    def ops(self, parallel: bool = True) -> list[Op]:
        ops = []
        for shape, layers, fn, net, xs, kept in self.inputs:
            name = corpus.shape_name(shape)
            _require(self._pin(f"{name}.kept", kept))
            for i, x in enumerate(xs):
                want = reference.forward(layers, x.entries)
                check = partial(self._check_value, want)
                # Both paths of a point run back to back, so the machine's
                # speed changes reach them alike.
                ops.append(Op(f"eval {name} {i}", "eval", partial(_query, pwa, "evaluate", fn, x), check))
                ops.append(Op(f"nn_eval {name} {i}", "nn_eval",
                              partial(_query, network, "nn_eval", net, x), check))
        return ops

    @staticmethod
    def _check_value(want, got):
        if got is None or got.entries != want:
            return f"value {got}, the network gives {want}"
        return None


WORKLOADS = {w.name: w for w in (CompileWorkload, CheckWorkload, EvalWorkload)}


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    timed_passes: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    breakdown: dict = field(default_factory=dict)  # name -> (value, unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def report(self) -> list[str]:
        """Every metric by name with its unit, then the JSON result line."""
        lines = [
            f"workload {self.workload}  seed {self.seed}  timed passes {self.timed_passes}  "
            f"operations {self.attempted}  failed {self.failed}"
        ]
        for name, (value, unit) in {**self.breakdown, **self.metrics}.items():
            lines.append(f"  {name:36s} {value:14.6f} {unit}")
        lines.append(self.json_line())
        return lines

    def json_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            }
        )


def _run_pass(ops, result: Result, tracer=None, pace: speed.Pace | None = None) -> dict:
    """Every op once; returns {op key: seconds} for the ops that succeeded.

    With a pace, the wall time of each op that succeeded is also added to
    it, to be scaled.
    """
    times = {}
    for number, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = number
        result.attempted += 1
        try:
            seconds, outcome = op.call()
            error = op.check(outcome)
        except Exception as exc:  # a failed operation is counted; the run goes on
            seconds, error = None, f"{type(exc).__name__}: {exc}"
        if error:
            result.failed += 1
            if len(result.errors) < 20:
                result.errors.append(f"{op.key}: {error}")
        else:
            times[op.key] = seconds
            if pace is not None:
                pace.add(op.key, seconds)
    if pace is not None:
        pace.flush()
    return times


def _percentile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def _breakdown(wl: Workload, ops, typical: dict) -> dict:
    by_kind: dict[str, list] = {}
    for op in ops:
        if op.key in typical:
            by_kind.setdefault(op.kind, []).append(typical[op.key])
    out = {}
    for metric, kind in wl.kinds.items():
        values = by_kind.get(kind)
        if not values:  # every run of this kind failed
            continue
        if metric.endswith("_ms"):
            out[metric + "_p50"] = (_percentile_ms(values, 50), "ms")
            out[metric + "_p99"] = (_percentile_ms(values, 99), "ms")
        else:
            out[metric] = (sum(values), "s")
    return out


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    shapes=None,
    points: int = corpus.POINTS_PER_NETWORK,
    out_dir: Path | None = None,
) -> Result:
    """Set up, warm up, then time passes (or trace one) of one workload."""
    full_corpus = shapes is None
    shapes = corpus.SHAPES[workload] if full_corpus else shapes
    out_dir = out_dir or HERE.parent / ".perfbench"
    pins = {}
    if full_corpus:
        pinned = json.loads((HERE / "pinned.json").read_text())
        pins = dict(pinned["kept"])
        if seed == pinned["seed"]:
            pins.update(pinned[workload])
    wl = WORKLOADS[workload](seed, shapes, pins, points)
    os.environ.pop("PWANET_JOBS", None)  # every op but check_par runs with jobs=1
    result = Result(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        # Set-up is repeated, the import in a fresh interpreter each time,
        # and the median of its scaled times reported; the last set-up's
        # files are used.
        setup_times = []
        for rep in range(SETUP_REPS):
            target = workdir / f"setup-{rep}"
            target.mkdir(parents=True)
            pace = speed.Pace()
            pace.samples["import"].append(_import_seconds())
            wl.setup(target, pace)
            setup_times.append(pace.total())
        ops = wl.ops(parallel=not trace)
        _run_pass(ops, result)  # warm-up, checked against the reference
        (out_dir / f"observed-{workload}-seed{seed}.json").write_text(
            json.dumps(wl.observed, indent=2, sort_keys=True) + "\n"
        )
        if trace:
            _trace(wl, ops, result, out_dir)
        else:
            _measure(wl, ops, result, seconds)
            result.metrics["setup_s"] = (statistics.median(setup_times), "s")
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result.metrics["peak_rss_mb"] = (rss, "MiB")
            result.breakdown.update(
                setup_s=result.metrics["setup_s"],
                peak_rss_mb=result.metrics["peak_rss_mb"],
                fail_ratio=(result.failed / max(1, result.attempted), "ratio"),
            )
    except SetupError as exc:
        result.attempted += 1
        result.failed += 1
        result.errors.append(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _measure(wl: Workload, ops, result: Result, seconds: float) -> None:
    pace = speed.Pace()
    start = perf_counter()
    while True:
        _run_pass(ops, result, pace=pace)
        result.timed_passes += 1
        now = perf_counter()
        if now - start >= seconds and result.timed_passes >= MIN_TIMED_PASSES:
            break
        if now - start >= 1.25 * seconds:  # a slow machine: settle for fewer passes
            break
    typical = {key: statistics.median(values) for key, values in pace.samples.items()}
    result.metrics["pass_s"] = (sum(typical.values()), "s")
    result.breakdown.update(_breakdown(wl, ops, typical))


def _trace(wl: Workload, ops, result: Result, out_dir: Path) -> None:
    untraced = sum(_run_pass(ops, result).values())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = sum(_run_pass(ops, result, tracer).values())
    finally:
        tracer.uninstall()
    result.timed_passes = 1
    self_times = tracer.self_times()
    for problem in tracer.problems(self_times)[:20]:
        result.errors.append(problem)
    values = tracing.layer_metrics(tracer, self_times, traced - untraced)
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        result.metrics[name] = (values[name], unit)
    (out_dir / f"trace-{wl.name}-seed{wl.seed}.json").write_text(
        json.dumps(
            {
                "spans": len(tracer.start),
                "by_name": tracer.summary(self_times),
                "counts": dict(sorted(tracer.counts.items())),
            },
            indent=2,
        )
        + "\n"
    )
