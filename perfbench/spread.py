"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread, the figures the README records.

    python3 perfbench/spread.py --workload torus-orbit --seeds 1-10

Run from the root of a checkout.  The spread is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **res}), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload:16s} {m['name']:16s} median {med:.6g} {m['unit']:7s} "
              f"spread {(q3 - q1) / med:.4f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
