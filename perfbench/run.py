"""pwanet benchmark: time compile, check and eval workloads on a seeded corpus.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run from a source checkout; the library is imported from ../src. Human
readable lines come first; the last line of stdout is one JSON object with
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones from one traced pass. --workload all runs each workload in its own
process and prints every workload's breakdown.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("compile", "check", "eval")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False, timeout=600,
        )
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pwanet" / "__init__.py").is_file():
        print(f"error: no pwanet sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    import pwanet

    if not Path(pwanet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported pwanet from {pwanet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    print("\n".join(result.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
