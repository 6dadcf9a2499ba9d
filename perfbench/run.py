"""Benchmark of hamflow's answers: time, CPU, memory and accuracy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, seed 0

Run from the root of a checkout; hamflow is imported from its ``src``.
Each workload runs in a process of its own (worker.py) with BLAS and
OpenMP pinned to one thread, so set-up time, memory and CPU belong to it.
Two further processes only set up, and ``setup_s`` is the median of the
three set-ups.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced round (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_PROCESSES = 2
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ran past the {TIMEOUT_S:g} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _with_units(values: dict, declared: list[dict]) -> dict:
    """The measured values, in the order and with the units that
    BENCHMARK.json declares; a metric missing on either side is an error."""
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(values)} differ from those declared")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int,
                 size: str) -> dict:
    if not (ROOT / "src" / "hamflow" / "__init__.py").is_file():
        raise BenchError(f"no hamflow sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--size", size]
    setups = [_worker(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_ONLY_PROCESSES)]
    res = _worker(base + ["--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    if trace:
        metrics = _with_units(res["per_layer"], spec["per_layer"])
    else:
        metrics = _with_units({"setup_s": statistics.median(setups), **res["end_to_end"]},
                              spec["end_to_end"])
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a smaller round for smoke tests")
    args = ap.parse_args(argv)
    names = workloads if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(spec, n, args.seed, args.seconds, args.trace, args.size)
                   for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for n, r in results.items():
        for k, m in r["metrics"].items():
            print(f"{n:16s} {k:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
