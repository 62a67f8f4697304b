#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it: for each metric, the distance between the first and third
quartile of its values over N seeds, as a share of their median.

    python3 perfbench/spread.py --workload fleet_sampled --runs 5 [--first-seed 1]

Prints one line per metric (median, IQR/median, bound, bound/3) and exits
nonzero when any spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: run failed\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(last)
        if not result["correct"]:
            print(f"seed {seed}: incorrect result {result}")
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    worst_ok = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med
        ok = m["name"] == "setup_s" or spread <= m["bound"]
        worst_ok = worst_ok and ok
        print(f"{args.workload:15s} {m['name']:12s} median {med:.6g} {m['unit']:4s}"
              f" spread {spread:.4f} bound {m['bound']} (/3 = {m['bound'] / 3:.4f})"
              f"{'' if ok else '  OVER BOUND'}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
