"""Smoke test of the benchmark on a tiny corpus (a few seconds).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = ("compile", "check", "eval")

# The end-to-end metrics each workload prints, with their units.
PRINTED = {
    "compile": {"compile_s": "s", "compile_prune_s": "s", "regions_s": "s"},
    "check": {"check_s": "s", "check_refuted_s": "s", "check_par_s": "s"},
    "eval": {
        "eval_ms_p50": "ms",
        "eval_ms_p99": "ms",
        "nn_eval_ms_p50": "ms",
        "nn_eval_ms_p99": "ms",
    },
}
SHARED = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB", "fail_ratio": "ratio"}
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(name, tmp_path, trace=False):
    return workloads.run(
        name, seed=1, seconds=0.01, trace=trace,
        shapes=corpus.TINY_SHAPES[name], points=20, out_dir=tmp_path,
    )


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_its_unit(name, tmp_path):
    result = _tiny(name, tmp_path)
    assert result.errors == []
    lines = result.report()
    printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
    for metric, unit in {**PRINTED[name], **SHARED}.items():
        assert printed.get(metric) == unit, metric
    last = json.loads(lines[-1])
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0
    assert result.breakdown["fail_ratio"][0] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result = _tiny(name, tmp_path, trace=True)
    assert result.correct, result.errors
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in result.metrics.items()} == declared


@pytest.mark.parametrize("name", NAMES)
def test_self_times_lie_within_parent_spans(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, corpus.TINY_SHAPES[name], {}, points=20)
    wl.setup(tmp_path, speed.Pace())
    ops = wl.ops(parallel=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads._run_pass(ops, workloads.Result(name, 1), tracer)
    finally:
        tracer.uninstall()
    own = tracer.self_times()
    assert len(own) > 0
    for index, value in enumerate(own):
        parent = tracer.parent[index]
        span = tracer.end[index] - tracer.start[index]
        assert -1e-9 <= value <= span + 1e-9
        if parent >= 0:
            assert span <= tracer.end[parent] - tracer.start[parent]
    assert tracer.problems(own) == []


def test_pace_scales_stretches_by_the_loop_around_them(monkeypatch):
    loop_times = iter([speed.REFERENCE_S, 3 * speed.REFERENCE_S])
    monkeypatch.setattr(speed, "loop_seconds", lambda: next(loop_times))
    pace = speed.Pace()
    pace.add("a", 0.01)  # shorter than a stretch: waits for the next op
    assert pace.samples == {}
    pace.add("b", 0.03)  # the loop ran at half the reference speed
    assert pace.samples == {"a": [pytest.approx(0.005)], "b": [pytest.approx(0.015)]}


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = _tiny(name, tmp_path / "a", trace=True)
    second = _tiny(name, tmp_path / "b", trace=True)
    counts = [{k: r.metrics[k][0] for k in tracing.COUNT_METRICS} for r in (first, second)]
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
