#!/usr/bin/env python3
"""Gate micro-kernel performance against a committed baseline.

Compares a freshly produced BENCH_micro.json (scripts/bench_to_json.py,
schema ``ramp-bench-micro/1``) against the baseline committed at
``bench/baselines/BENCH_micro.json`` and fails when any shared op regressed
by more than the threshold (15% by default).

CI runners are not the machine the baseline was recorded on — often a
slower, 1-2 core VM — so a raw ns-to-ns comparison would flag every op at
once. The default mode therefore *normalizes* for machine speed first: it
computes the geometric mean of per-op ratios (current / baseline) across
all shared ops and divides each op's ratio by it. A uniformly slower
machine moves every ratio and the geomean alike and cancels out; a genuine
regression in one kernel sticks out of the pack and survives the
normalization. The flip side is that a *uniform* slowdown of every kernel
at once is invisible in normalized mode — use ``--absolute`` on a machine
comparable to the baseline's (e.g. locally, before blessing a new
baseline) to check raw ratios instead.

An op measured now but absent from the baseline is reported and does not
fail the gate (a new benchmark needs a baseline refresh, not a red build).
An op in the baseline but missing from the current run *does* fail it: a
deleted or renamed kernel must not silently leave the gate, so removing one
means removing its baseline entry in the same change.

``--ratio FAST_OP:SLOW_OP:MIN`` additionally asserts a speedup contract
*within the current run*: SLOW_OP's ns_per_iter must be at least MIN times
FAST_OP's. Both ops come from the same measurement on the same machine, so
no baseline or normalization is involved — this is how CI holds the
sampled-simulation fast path to its advertised multiple of the detailed
core (see docs/PERFORMANCE.md). Repeatable.

Usage:
  check_bench_regression.py CURRENT.json [--baseline BASELINE.json]
      [--threshold 0.15] [--absolute] [--ratio FAST:SLOW:MIN]

Exit status: 0 when within budget, 1 on regression, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

DEFAULT_BASELINE = "bench/baselines/BENCH_micro.json"
SCHEMA = "ramp-bench-micro/1"


def load(path: str) -> dict[str, float]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != SCHEMA:
        raise SystemExit(
            f"error: {path}: expected schema {SCHEMA!r}, "
            f"got {doc.get('schema')!r}")
    out: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        op = bench.get("op")
        ns = bench.get("ns_per_iter")
        if op and ns is not None and float(ns) > 0.0:
            out[str(op)] = float(ns)
    if not out:
        raise SystemExit(f"error: {path}: no benchmarks")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly measured BENCH_micro.json")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help=f"committed baseline (default: "
                             f"{DEFAULT_BASELINE})")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed per-op slowdown, fractional "
                             "(default: 0.15 = 15%%)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw ns ratios without machine-speed "
                             "normalization (same-machine runs only)")
    parser.add_argument("--ratio", action="append", default=[],
                        metavar="FAST_OP:SLOW_OP:MIN",
                        help="assert SLOW_OP is at least MIN times slower "
                             "than FAST_OP in the current run (repeatable)")
    args = parser.parse_args()
    if args.threshold <= 0.0:
        raise SystemExit("error: --threshold must be positive")

    ratio_gates = []
    for spec in args.ratio:
        parts = spec.split(":")
        if len(parts) != 3:
            raise SystemExit(f"error: --ratio {spec!r}: expected "
                             f"FAST_OP:SLOW_OP:MIN")
        try:
            minimum = float(parts[2])
        except ValueError:
            raise SystemExit(f"error: --ratio {spec!r}: MIN must be a number")
        if minimum <= 0.0:
            raise SystemExit(f"error: --ratio {spec!r}: MIN must be positive")
        ratio_gates.append((parts[0], parts[1], minimum))

    current = load(args.current)
    baseline = load(args.baseline)

    shared = sorted(set(current) & set(baseline))
    if not shared:
        raise SystemExit("error: no ops shared between current and baseline")
    for op in sorted(set(current) - set(baseline)):
        print(f"note: {op}: no baseline entry (refresh the baseline to "
              f"track it)")
    failures = []
    for op in sorted(set(baseline) - set(current)):
        print(f"FAIL: {op}: in baseline but not measured this run (drop "
              f"its baseline entry if the benchmark was removed)")
        failures.append(f"missing:{op}")

    # Ops at or below the timer's resolution (sub-ns kernels, e.g. a
    # disabled-metrics no-op) produce ratios that are pure noise; report
    # them but keep them out of both the normalization and the gate.
    MIN_NS = 1.0
    gated = [op for op in shared
             if baseline[op] >= MIN_NS and current[op] >= MIN_NS]
    for op in sorted(set(shared) - set(gated)):
        print(f"note: {op}: below {MIN_NS:.0f} ns (timer resolution), "
              f"not gated")
    if not gated:
        raise SystemExit("error: no gateable ops (all below timer "
                         "resolution)")

    ratios = {op: current[op] / baseline[op] for op in gated}
    if args.absolute:
        scale = 1.0
        mode = "absolute"
    else:
        scale = math.exp(sum(math.log(r) for r in ratios.values())
                         / len(ratios))
        mode = f"normalized (machine-speed geomean {scale:.3f}x)"
    print(f"comparing {len(gated)} op(s), {mode}, "
          f"threshold +{args.threshold:.0%}")

    for op in gated:
        rel = ratios[op] / scale
        marker = ""
        if rel > 1.0 + args.threshold:
            failures.append(op)
            marker = "  <-- REGRESSION"
        print(f"  {op}: {baseline[op]:.1f} ns -> {current[op]:.1f} ns "
              f"({rel - 1.0:+.1%} vs pack){marker}")

    for fast_op, slow_op, minimum in ratio_gates:
        missing = [op for op in (fast_op, slow_op) if op not in current]
        if missing:
            print(f"FAIL: --ratio {fast_op}:{slow_op}: missing from current "
                  f"run: {', '.join(missing)}")
            failures.append(f"ratio:{fast_op}:{slow_op}")
            continue
        speedup = current[slow_op] / current[fast_op]
        ok = speedup >= minimum
        print(f"  {slow_op} / {fast_op}: {speedup:.2f}x "
              f"(contract >= {minimum:g}x)"
              f"{'' if ok else '  <-- BELOW CONTRACT'}")
        if not ok:
            failures.append(f"ratio:{fast_op}:{slow_op}")

    if failures:
        print(f"FAIL: {len(failures)} gate(s) violated: "
              f"{', '.join(failures)}")
        print("If the slowdown is intended, bless a new baseline: rebuild "
              "in Release, rerun the bench, and commit the fresh "
              f"{DEFAULT_BASELINE} (see docs/PERFORMANCE.md).")
        return 1
    print("OK: all ops within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
