#!/usr/bin/env python3
"""The repo benchmark: builds the program in Release and runs one workload.

One workload, as the harness contract wants it (last stdout line is JSON):
    python3 perfbench/run.py --workload sweep_detailed --seed 1 --seconds 12 --trace 0

Every workload, traced and untraced, with a summary under the metric names
of perfbench/README.md (exits nonzero on any wrong output):
    python3 perfbench/run.py --all --seed 0

Harness self-tests:
    python3 perfbench/run.py --selftest

Run from the repo root. Builds into .bench_build/cmake (nothing outside the
checkout is read or written); results land in .bench_build/results/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "cmake"
RESULTS_DIR = ROOT / ".bench_build" / "results"
WORK_DIR = ROOT / ".bench_build" / "work"
GOLDEN = ROOT / "tests" / "golden" / "sweep_trace4000.csv"
RUN_TIMEOUT_S = 170

# Which end-to-end metric each per-layer metric should move (README.md has
# the same table in prose). "-" = moves none: it guards the measurement.
LAYER_MOVES = {
    "trace.synth_s": "sweep_detailed.cold_ms; not serve_mixed.hot_ms",
    "trace.synth_ns_per_instr": "sweep_detailed.cold_ms; not serve_mixed.hot_ms",
    "trace.functional_ns_per_instr": "fleet_sampled.cold_ms",
    "trace.next_calls": "fleet_sampled.cold_ms",
    "trace.functional_calls": "fleet_sampled.cold_ms",
    "sim.detailed_s": "sweep_detailed.cold_ms, serve_mixed.cold_ms; not fleet_sampled (little)",
    "sim.detailed_ns_per_instr": "sweep_detailed.cold_ms, serve_mixed.cold_ms",
    "sim.detailed_ns_per_cycle": "sweep_detailed.cold_ms, serve_mixed.cold_ms",
    "sim.cycles": "- (simulated; must never move)",
    "sim.sampled_s": "fleet_sampled.cold_ms",
    "sim.sampled_ns_per_instr": "fleet_sampled.cold_ms",
    "sim.sampled_coverage": "fleet_sampled.cold_ms, sim.sampled_*_err",
    "sim.sampled_units": "fleet_sampled.cold_ms, sim.sampled_*_err",
    "sim.ipc_half_width_max": "sim.sampled_*_err",
    "sim.activity_half_width_max": "sim.sampled_*_err",
    "sim.sampled_fit_err": "- (fast-path accuracy, repeats exactly)",
    "sim.sampled_temp_err_k": "- (fast-path accuracy, repeats exactly)",
    "sim.sampled_max_act_err": "- (fast-path accuracy, repeats exactly)",
    "power.s": "serve_mixed.warm_ms; small share of sweep_detailed.cold_ms",
    "thermal.s": "serve_mixed.warm_ms; small share of sweep_detailed.cold_ms",
    "thermal.intervals": "serve_mixed.warm_ms",
    "thermal.ns_per_interval": "serve_mixed.warm_ms",
    "core.fit_s": "serve_mixed.warm_ms; small share of sweep_detailed.cold_ms",
    "core.ns_per_interval": "serve_mixed.warm_ms",
    "pipeline.store_s": "sweep_detailed.warm_ms, sweep_detailed.cold_ms",
    "pipeline.warm_csv_hit": "sweep_detailed.hot_ms",
    "pipeline.warm_stage_hits": "sweep_detailed.warm_ms",
    "fleet.prepare_s": "fleet_sampled.cold_ms, fleet_sampled.hot_ms",
    "fleet.population_s": "fleet_sampled.cold_ms, fleet_sampled.warm_ms",
    "fleet.ns_per_chip": "fleet_sampled.cold_ms, fleet_sampled.warm_ms",
    "fleet.sim_misses": "fleet_sampled.cold_ms",
    "serve.hot_eval_us": "serve_mixed.hot_ms, serve.closed_rps",
    "serve.warm_eval_ms": "serve_mixed.warm_ms",
    "serve.cold_eval_ms": "serve_mixed.cold_ms",
    "serve.hot_p50_ms": "- (open-loop hot median, reported for the ledger)",
    "serve.hot_p99_ms": "- (open-loop hot tail, reported for the ledger)",
    "serve.closed_rps": "serve_mixed.hot_ms",
    "serve.hits": "serve_mixed.hot_ms; failed",
    "serve.misses": "serve_mixed.hot_ms; failed",
    "serve.coalesced": "serve_mixed.hot_ms; failed",
    "serve.evaluations": "serve_mixed.cold_ms; failed",
    "serve.failures": "failed",
    "serve.stage_sim_hits": "serve_mixed.warm_ms",
    "serve.stage_thermal_misses": "serve_mixed.warm_ms",
    "net.client_unattributed_us": "serve_mixed.hot_ms, serve.closed_rps",
    "driver.cpu_frac": "- (proves the serve numbers are the server's)",
    "driver.late_p50_ms": "- (proves the serve numbers are the server's)",
    "driver.late_p99_ms": "- (proves the serve numbers are the server's)",
    "driver.ceiling_rps": "- (proves the serve numbers are the server's)",
    "ledger.traced_e2e_s": "- (keeps the ledger honest)",
    "ledger.unattributed_s": "- (keeps the ledger honest)",
    "ledger.unattributed_frac": "- (keeps the ledger honest)",
    "ledger.trace_overhead_frac": "- (keeps the ledger honest)",
}
for _stage in ("trace", "sim", "power", "thermal", "fit"):
    for _what in ("hits", "misses", "writes"):
        LAYER_MOVES[f"pipeline.{_stage}_{_what}"] = (
            "sweep_detailed.cold_ms, sweep_detailed.warm_ms")
for _phase in ("read", "parse", "admission", "queue", "cache", "compute",
               "serialize", "flush"):
    LAYER_MOVES[f"net.{_phase}_us"] = (
        "serve_mixed.hot_ms, serve.closed_rps; not sweep_*/fleet_*")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures and builds the benchmark and the program it drives."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    with open(BUILD_DIR.parent / "build.lock", "w") as lock, \
            open(log_path, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "Makefile").exists():  # never configured, or failed
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(nproc()),
                      "--target", "perfbench", "perfbench_selftest", "ramp"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                log("build failed:\n" + "\n".join(tail))
                return False
    return True


def cmake_cache(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the sources the benchmark builds (stands in for the
    commit when the checkout is not a git repository)."""
    h = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def machine():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.split()
        # Only this checkout's own repository names the commit.
        if r.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
            commit = lines[1]
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_model": model, "compiler": compiler,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"), "commit": commit,
            "source_digest": source_digest()}


def binary_cmd(workload, seed, seconds, trace, work):
    return [str(BUILD_DIR / "perfbench"), workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--jobs", str(nproc()), "--work", str(work),
            "--data", str(BENCH_DIR / "data"),
            "--ramp", str(BUILD_DIR / "ramp_tools" / "ramp"),
            "--golden", str(GOLDEN)]


def run_binary(workload, seed, seconds, trace):
    """Runs one workload of the perfbench binary; returns its report."""
    work = WORK_DIR / workload
    cmd = binary_cmd(workload, seed, seconds, trace, work)
    # Own process group, so a timeout takes the server child down too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log(f"{workload}: perfbench exited {proc.returncode}")
        return None
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"{workload}: no report from perfbench")
        return None


def contract_result(spec, report, trace):
    """Maps a perfbench report onto the harness's result object. Returns
    (result, layers not exercised, problems that made it incorrect)."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = report["layers"] if trace else report["e2e"]
    known = {m["name"] for m in wanted}
    metrics, not_exercised, problems = {}, [], []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            value = got[name]["value"]
            if got[name]["unit"] != unit:
                problems.append(f"{name}: unit {got[name]['unit']} != {unit}")
        elif trace:
            value = 0.0  # this workload does not exercise that layer
            not_exercised.append(name)
        else:
            value = None
        if value is None or not math.isfinite(value):
            problems.append(f"{name} is missing or not a number")
            value = None
        elif not trace and value <= 0:
            problems.append(f"{name} = {value} is not positive")
        metrics[name] = {"value": value, "unit": unit}
    for name in got:
        if name not in known:
            problems.append(f"{name} is reported but not declared in BENCHMARK.json")
    if report["failed"]:
        problems.append(f"{report['failed']} of {report['attempted']} operations failed")
    result = {"correct": not problems, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": metrics}
    return result, not_exercised, problems


def save(name, payload):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_DIR / name, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def run_one(spec, workload, seed, seconds, trace):
    report = run_binary(workload, seed, seconds, trace)
    if report is None:
        return None
    result, not_exercised, problems = contract_result(spec, report, trace)
    for p in problems:
        log(f"{workload}: {p}")
    save(f"{workload}-seed{seed}-trace{trace}.json", {
        "machine": machine(), "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace, "result": result,
        "not_exercised": not_exercised, "problems": problems,
        "checks": report["checks"],
        "named": report["info"], "samples": report.get("samples", {}),
        "layer_moves": LAYER_MOVES if trace else {},
    })
    return result, report


def main_one(args):
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    if not build():
        return 1
    out = run_one(spec, args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        return 1
    result, report = out
    for name, m in {**result["metrics"], **report["info"]}.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


def main_all(args):
    """Every workload, untraced then traced, with a printed summary."""
    spec = load_spec()
    if not build():
        return 1
    seconds = args.seconds or spec["run_seconds"]
    summary = {"machine": machine(), "seed": args.seed, "seconds": seconds,
               "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        entry = {}
        for trace in (0, 1):
            out = run_one(spec, name, args.seed, seconds, trace)
            if out is None:
                ok = False
                continue
            result, report = out
            ok = ok and result["correct"]
            entry["trace" if trace else "e2e"] = result["metrics"]
            if not trace:
                entry["named"] = report["info"]
                entry["failed_frac"] = (result["failed"] /
                                        max(1, result["attempted"]))
        summary["workloads"][name] = entry
        for key in ("e2e", "named"):
            for metric, m in entry.get(key, {}).items():
                value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
                print(f"{name:15s} {metric:28s} {value} {m['unit']}")
        print(f"{name:15s} {'failed_frac':28s} "
              f"{entry.get('failed_frac', float('nan')):.6g} ratio")
    summary["layer_moves"] = LAYER_MOVES
    save("summary.json", summary)
    print(f"results: {RESULTS_DIR / 'summary.json'}")
    return 0 if ok else 1


def main_selftest():
    if not build():
        return 1
    rc = subprocess.run([str(BUILD_DIR / "perfbench_selftest")]).returncode
    # The contract mapping: a missing layer is zero-filled, a missing or
    # non-positive end-to-end metric makes the run incorrect.
    spec = {"end_to_end": [{"name": "a_ms", "unit": "ms"}],
            "per_layer": [{"name": "x.s", "unit": "s"},
                          {"name": "y.s", "unit": "s"}]}
    rep = {"attempted": 3, "failed": 0, "e2e": {"a_ms": {"value": 1.5, "unit": "ms"}},
           "layers": {"x.s": {"value": 2.0, "unit": "s"}}}
    res, missing, _ = contract_result(spec, rep, 1)
    checks = [res["correct"], missing == ["y.s"],
              res["metrics"]["y.s"]["value"] == 0.0]
    res, _, _ = contract_result(spec, rep, 0)
    checks.append(res["correct"] and res["metrics"]["a_ms"]["value"] == 1.5)
    rep["e2e"]["a_ms"]["value"] = 0.0
    checks.append(not contract_result(spec, rep, 0)[0]["correct"])
    rep["failed"] = 1
    rep["e2e"]["a_ms"]["value"] = 1.0
    checks.append(not contract_result(spec, rep, 0)[0]["correct"])
    # Every declared layer says which end-to-end metric it should move.
    declared = {m["name"] for m in load_spec()["per_layer"]}
    checks.append(declared == set(LAYER_MOVES))
    if not all(checks):
        log(f"contract mapping self-test failed: {checks}")
        return 1
    return rc


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--make-reference", action="store_true",
                   help="regenerate perfbench/data's detailed fleet reference")
    args = p.parse_args()
    if args.selftest:
        return main_selftest()
    if args.make_reference:
        if not build():
            return 1
        target = BENCH_DIR / "data" / "fleet_sampled_detailed_reference.json"
        cmd = binary_cmd("fleet_sampled", 0, 0, 0, WORK_DIR / "reference")
        rc = subprocess.run(cmd + ["--make-reference", str(target)],
                            cwd=ROOT).returncode
        shutil.rmtree(WORK_DIR / "reference", ignore_errors=True)
        return rc
    if args.all:
        return main_all(args)
    if not args.workload:
        p.error("--workload, --all, --selftest or --make-reference is required")
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return main_one(args)


if __name__ == "__main__":
    sys.exit(main())
