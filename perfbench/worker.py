"""One workload in one process: set up, ask rounds of questions for the
requested time, check every answer, and print one JSON line.

Started by run.py, which passes the monotonic clock reading taken just
before it spawned this process, so that ``setup_s`` runs from process
start through ``import hamflow`` to the workload's inputs being built.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_s() -> float:
    """User + system CPU time of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _import_program():
    sys.path.insert(0, str(SRC))
    import hamflow
    if Path(hamflow.__file__).resolve().parent != SRC / "hamflow":
        raise ImportError(f"hamflow imported from {hamflow.__file__}, not from {SRC}")


def _timed_round(run_round, inputs):
    t0, c0 = time.perf_counter(), _cpu_s()
    ops = run_round(inputs)
    return time.perf_counter() - t0, _cpu_s() - c0, ops


def _accuracy_digits(deviations: list[float]) -> float:
    worst = max(max(deviations), 1e-16)
    return -math.log10(worst)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    from workloads import OUT_DIR, WORKLOADS
    workload = WORKLOADS[args.workload](args.size)
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    refs = workload.references(inputs)
    verdicts, walls, cpus = [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, ops = _timed_round(workload.run_round, inputs)
        walls.append(wall)
        cpus.append(cpu)
        verdicts.append(workload.check(inputs, refs, ops))
        if time.perf_counter() - start >= args.seconds:
            break

    result = {"setup_s": setup_s}
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_inputs = tracer.wrap(workload.setup, "setup", "bench")(args.seed)
            make_flow_s = tracer.incl["base_flow.make_flow"]
            tracer.reset()
            wall, _, ops = _timed_round(
                tracer.wrap(workload.run_round, f"round:{workload.name}", "bench"),
                traced_inputs)
        finally:
            tracer.uninstall()
        verdicts.append(workload.check(traced_inputs, refs, ops))
        metrics = tracer.metrics()
        metrics["base_flow.make_flow_s"] = make_flow_s
        metrics["trace.overhead_s"] = wall - statistics.median(walls)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed,
                     "traced_wall_s": wall, "untraced_wall_s": walls,
                     "metrics": metrics})
        result["per_layer"] = metrics
    else:
        deviations = [d for v in verdicts for d in v.deviations]
        result["end_to_end"] = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": _accuracy_digits(deviations) if deviations else 0.0,
        }
    errors = [e for v in verdicts for e in v.errors]
    problems = [p for v in verdicts for p in v.problems]
    for line in errors + [f"check failed: {p}" for p in problems]:
        print(line, file=sys.stderr)
    result.update(attempted=sum(v.attempted for v in verdicts), failed=len(errors),
                  correct=not problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
