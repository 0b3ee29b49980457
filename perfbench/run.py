#!/usr/bin/env python3
"""Performance benchmark of the BAUVM simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call builds the driver
(perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench; later calls only check that build.

--trace 0  repeats the workload cold (a fresh driver process, so an
           empty graph cache, per repetition) until S seconds have
           passed and at least MIN_REPS repetitions ran, then prints the
           end-to-end metrics as medians over repetitions (see
           end_to_end()).
--trace 1  runs one plain repetition (runner metrics, reference
           statistics) and one serial traced repetition that brackets
           every layer call with a span, then prints the per-layer
           metrics. The spans go to .bench_build/perfbench/spans/ as
           Chrome-trace JSON.

Either way every cell's simulated statistics must be identical across
all repetitions (and the traced run), every cell must finish, and the
traced run validates every functional result. Any failure counts in
"failed" and makes the exit code 1. The last stdout line is the JSON
result; the lines before it carry the run metadata and the modelled
results next to their references. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"

WORKLOADS = ("fig11-tiny", "bfs-hyb-large", "mt2-medium")
MIN_REPS = 5
# Whole-run budget: a repetition is not started if it might end later.
BUDGET_S = 150.0
# Largest gap between a traced cell and the spans that cover it.
COVERAGE_TOLERANCE = 0.01

# Reference values for the report (not metrics): the paper's Fig 11
# average and this model's own small-scale figure from EXPERIMENTS.md.
PAPER_TOUE_SPEEDUP = 2.00
EXPERIMENTS_TOUE_SPEEDUP_SMALL = 1.41

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_instr_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Simulated statistics every repetition of a cell must reproduce.
STAT_KEYS = ("cycles", "sim_events", "event_order_digest", "instructions",
             "batches", "evictions", "pcie_h2d_bytes", "pcie_d2h_bytes",
             "tenant_cycles", "solo_cycles")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; exits 2 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            sys.exit(2)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            log("build failed: " + " ".join(cmd))
            sys.exit(2)


def run_driver(mode, args, tmp, deadline, spans=None):
    """Runs one cold repetition; returns (result dict or None, error)."""
    out = Path(tmp) / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [str(DRIVER), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--tmp", tmp]
    if args.scale:
        cmd += ["--scale", args.scale]
    if spans:
        cmd += ["--spans", str(spans)]
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition timed out"
    load_after = os.getloadavg()
    if proc.returncode != 0 or not out.is_file():
        return None, (f"{mode} repetition exited {proc.returncode}: "
                      + proc.stderr.strip()[-500:])
    result = json.loads(out.read_text())
    out.unlink()
    result["loadavg_before"] = load_before[0]
    result["loadavg_after"] = load_after[0]
    return result, None


def cell_id(cell):
    return f"{cell['workload']}/{cell['policy']}"


def stats_of(cell):
    return {k: cell["stats"].get(k) for k in STAT_KEYS}


def check_cells(reps, traced=None):
    """Counts attempted and failed cells over all repetitions.

    A cell fails when it did not finish, or when its simulated
    statistics differ from those of the same cell in the first
    repetition. Returns (attempted, failed, messages).
    """
    attempted, failed, messages = 0, 0, []
    reference = {}
    for rep in reps + ([traced] if traced else []):
        for cell in rep["cells"]:
            attempted += 1
            cid = cell_id(cell)
            if not cell["ok"]:
                failed += 1
                messages.append(f"{rep['mode']} {cid} failed: "
                                f"{cell['error']}")
                continue
            ref = reference.setdefault(cid, stats_of(cell))
            if stats_of(cell) != ref:
                failed += 1
                messages.append(f"{rep['mode']} {cid}: simulated "
                                "statistics differ between runs")
    return attempted, failed, messages


def end_to_end(reps):
    """End-to-end metrics over all plain repetitions.

    Whole-process figures are medians over repetitions. Set-up and loop
    times are summed over cells from each cell's median across
    repetitions, so a host stall that hits one cell of one repetition
    does not move them.
    """
    by_cell = {}
    for rep in reps:
        for cell in rep["cells"]:
            by_cell.setdefault(cell_id(cell), []).append(cell)

    def cell_sum(key):
        return sum(statistics.median(c[key] for c in cells)
                   for cells in by_cell.values())

    loop_s = cell_sum("loop_s")
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": cell_sum("setup_s"),
        "sim_instr_per_s": cell_sum("instructions") / loop_s
        if loop_s > 0 else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def runner_metrics(rep):
    """Pool and export metrics of one plain repetition."""
    threads = rep["workers"] * rep["cell_threads"]
    busy = sum(c["busy_s"] for c in rep["cells"])
    walls = sorted(c["wall_s"] for c in rep["cells"])
    deciles = statistics.quantiles(walls, n=10) if len(walls) > 1 \
        else walls * 9
    builds, hits = rep["graph_builds"], rep["graph_hits"]
    return {
        "graph.cache_hit_ratio": (hits / (hits + builds), "ratio"),
        "runner.busy_s": (busy, "s"),
        "runner.utilization": (busy / (rep["sweep_s"] * threads), "ratio"),
        "runner.straggler_s": (rep["sweep_s"] - busy / threads, "s"),
        "runner.cell_p50_s": (statistics.median(walls), "s"),
        "runner.cell_p90_s": (deciles[8], "s"),
        "runner.cells": (len(walls), "count"),
        "runner.cpu_per_wall": (rep["cpu_s"] / rep["wall_s"], "ratio"),
        "runner.export_s": (rep["export_s"], "s"),
        "runner.export_bytes": (rep["export_bytes"], "bytes"),
    }


def model_report(rep):
    """The modelled results next to their references (report only)."""
    lines = ["model: unvalidated against GPU hardware; simulated "
             "results are compared to the paper and to EXPERIMENTS.md "
             "only"]
    cycles = {(c["workload"], c["policy"]): c["stats"].get("cycles")
              for c in rep["cells"] if c["ok"]}
    speedups = []
    for (workload, policy), base in cycles.items():
        toue = cycles.get((workload, "TO+UE"))
        if policy == "BASELINE" and toue:
            speedups.append(base / toue)
    if speedups:
        lines.append(
            f"model: TO+UE vs BASELINE mean speedup "
            f"{statistics.mean(speedups):.2f}x over {len(speedups)} "
            f"workload(s) at scale {rep['scale']} (paper "
            f"{PAPER_TOUE_SPEEDUP:.2f}x; EXPERIMENTS.md "
            f"{EXPERIMENTS_TOUE_SPEEDUP_SMALL:.2f}x at small)")
    for c in rep["cells"]:
        if c["ok"] and c["tenant_slowdown"]:
            per = ", ".join(f"{s:.2f}x" for s in c["tenant_slowdown"])
            lines.append(f"model: per-tenant slowdown {cell_id(c)}: {per}")
    return lines


def source_digest():
    """Hash of the simulator sources, for trees without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, reps):
    first = reps[0] if reps else {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": first.get("scale"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "build_type": first.get("build_type"),
        "compiler": first.get("compiler"),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "workers": first.get("workers"),
        "cell_threads": first.get("cell_threads"),
        "repetitions": [
            {"mode": r["mode"], "wall_s": r.get("wall_s"),
             "loadavg_before": r["loadavg_before"],
             "loadavg_after": r["loadavg_after"]} for r in reps],
    }


def measure_plain(args, tmp, start):
    reps, errors = [], []
    deadline = start + BUDGET_S
    while True:
        rep, err = run_driver("plain", args, tmp, deadline)
        if err:
            errors.append(err)
            break
        reps.append(rep)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed >= args.seconds:
            break
        if elapsed + rep["wall_s"] * 1.5 > BUDGET_S:
            break
    return reps, errors


def measure_traced(args, tmp, start):
    spans = BUILD_DIR / "spans" / f"{args.workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    deadline = start + BUDGET_S
    plain, err = run_driver("plain", args, tmp, deadline)
    if err:
        return [], None, [err]
    traced, err = run_driver("traced", args, tmp, deadline, spans)
    if err:
        return [plain], None, [err]
    return [plain], traced, []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default=None,
                        choices=("tiny", "small", "medium", "large"),
                        help="override the workload's graph scale "
                             "(self-test only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
        if args.trace:
            reps, traced, errors = measure_traced(args, tmp, start)
        else:
            (reps, errors), traced = measure_plain(args, tmp, start), None

    attempted, failed, messages = check_cells(reps, traced)
    messages += errors
    metrics = {}
    if traced:
        messages += [f"traced: {e}" for e in traced["errors"]]
        for name, m in traced["metrics"].items():
            metrics[name] = (m["value"], m["unit"])
        metrics.update(runner_metrics(reps[0]))
        if metrics["span.coverage_min"][0] < 1.0 - COVERAGE_TOLERANCE:
            messages.append("traced: spans cover less than "
                            f"{1 - COVERAGE_TOLERANCE:.0%} of a cell")
    elif reps:
        values = end_to_end(reps)
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = (values[name], unit)
    if errors:
        failed += 1
        attempted += 1
    correct = bool(reps) and failed == 0 and not messages

    meta = metadata(args, reps + ([traced] if traced else []))
    print("perfbench: meta " + json.dumps(meta, sort_keys=True))
    if reps:
        for line in model_report(reps[0]):
            print("perfbench: " + line)
    for msg in messages:
        print("perfbench: FAILED " + msg)
        log("FAILED " + msg)
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(
         {"meta": meta, "result": result,
          "self_s": traced["self_s"] if traced else None}, indent=1))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
