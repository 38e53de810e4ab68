#!/usr/bin/env python3
"""Benchmark runner for the Samhita simulator.

Builds benchmark/sam_bench (a standalone CMake project over ../src) into
build-bench/ and runs it, one process per repetition. Two modes:

Suite mode, for people:

    python3 benchmark/run.py [--reps=5] [--seed=1] [--out=PATH] [--smoke]

runs every workload --reps times, round-robin (W1 W2 W3 W4 W1 ...) so host
drift spreads evenly, then one traced repetition per workload. It prints
every metric with its unit, writes a results JSON (default
build-bench/results.json) with a host fingerprint, and exits non-zero when a
check fails. --smoke shrinks every workload so the whole suite takes seconds,
and also checks that every metric named in BENCHMARK.json is emitted.

Single-workload mode, the BENCHMARK.json contract:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

repeats workload W for about S seconds and prints, as its last line, one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). With --trace 0 every repetition runs untraced; with --trace 1
traced and untraced repetitions alternate.

Checks, in both modes: each repetition exits 0 and its reference check
passes; every deterministic (virtual) line is bit-identical across the
repetitions of one workload and seed, traced or not, which shows the tracing
decorator only observes; and each traced repetition's host buckets add up to
its wall time within 2%.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
BINARY = BUILD / "sam_bench"
WORKLOADS = ("jacobi256", "strided16", "kv_zipf", "kv_write")

# End-to-end modelled metrics. They are deterministic, so compare.py
# compares them exactly; BENCHMARK.json lists them with the per-layer
# metrics because its end-to-end bounds apply to host noise.
VIRTUAL_E2E = ("virt_elapsed_s", "virt_compute_s", "virt_sync_s", "kv_p50_us",
               "kv_p999_us", "kv_goodput_ops_per_s", "kv_max_rate_under_slo",
               "error_rate")
HOST_UNITS = ("s", "ns", "MB", "1/s")
ATTRIBUTION_TOLERANCE = 0.02
# Every repetition runs on the highest-numbered CPU this process may use:
# CPU 0 takes most interrupts and housekeeping, and one fixed CPU keeps a
# repetition from migrating mid-run. Measured on a 4-vCPU VM, pinning cut
# the run-to-run spread of wall_s from 5.1% to 3.6% (kv_write, 6 runs).
BENCH_CPU = max(os.sched_getaffinity(0))


def is_host(name, unit):
    """Host-clock metrics vary run to run; every other metric repeats."""
    return unit in HOST_UNITS or name.startswith("bench.")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sam_bench", "-j4"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail("build failed: " + " ".join(cmd))


def run_rep(workload, seed, traced, smoke):
    """One sam_bench process: its metric lines, exit code and peak RSS."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}"]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {BENCH_CPU}))
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    metrics = {}
    for line in out.splitlines():
        name, value, unit = line.split()
        metrics[name] = (float(value), unit)
    # A process that died before reporting counts as one failed attempt.
    attempted = int(metrics.pop("bench.attempted", (1, ""))[0])
    failed = int(metrics.pop("bench.failed", (1, ""))[0])
    # ru_maxrss is in KiB on Linux.
    metrics["peak_rss_mb"] = (usage.ru_maxrss / 1024.0, "MB")
    return {"traced": traced, "rc": proc.returncode, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def summary(values):
    """Median plus the spread a reader needs: quartiles, min and max."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "samples": list(values)}


def evaluate(workload, reps):
    """Checks the repetitions of one workload and reduces them to metrics.

    Host metrics are medians over the untraced repetitions (end-to-end) or
    the traced ones (per-layer); deterministic metrics must agree exactly.
    """
    problems = []
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    for i, rep in enumerate(reps):
        m = rep["metrics"]
        if rep["rc"] != 0:
            problems.append(f"{workload} rep {i} exited {rep['rc']}")
        if rep["traced"] and "bench.unattributed_frac" in m:
            frac = m["bench.unattributed_frac"][0]
            if abs(frac) > ATTRIBUTION_TOLERANCE:
                problems.append(f"{workload} rep {i}: host buckets miss "
                                f"{frac:.2%} of the traced wall")

    virtual = {}
    for i, rep in enumerate(reps):
        for name, (value, unit) in rep["metrics"].items():
            if is_host(name, unit):
                continue
            if name in virtual and virtual[name][0] != value:
                problems.append(f"{workload} rep {i}: {name} = {value!r} differs "
                                f"from {virtual[name][0]!r}")
            virtual.setdefault(name, (value, unit))

    untraced = [r["metrics"] for r in reps if not r["traced"]]
    traced = [r["metrics"] for r in reps if r["traced"]]
    out = {name: {"value": v, "unit": u} for name, (v, u) in virtual.items()}
    out["error_rate"] = {"value": failed / attempted if attempted else 1.0,
                         "unit": "ratio"}
    if untraced:
        for name in ("setup_s", "wall_s", "peak_rss_mb"):
            if all(name in m for m in untraced):
                out[name] = summary([m[name][0] for m in untraced])
                out[name]["unit"] = untraced[0][name][1]
        calls = virtual.get("api.calls")
        if calls and "wall_s" in out:
            out["api_calls_per_s"] = summary(
                [calls[0] / m["wall_s"][0] for m in untraced])
            out["api_calls_per_s"]["unit"] = "1/s"
    if traced:
        for name, (_, unit) in traced[0].items():
            if is_host(name, unit) and name not in ("setup_s", "peak_rss_mb"):
                key = "bench.traced_wall_s" if name == "wall_s" else name
                out[key] = summary([m[name][0] for m in traced if name in m])
                out[key]["unit"] = unit
        if untraced and "wall_s" in out:
            overhead = (out["bench.traced_wall_s"]["value"] / out["wall_s"]["value"]
                        - 1.0)
            out["bench.trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return {"metrics": out, "attempted": attempted, "failed": failed,
            "problems": problems, "reps": reps}


def print_metrics(workload, result):
    for name, m in sorted(result["metrics"].items()):
        extra = ""
        if "samples" in m and len(m["samples"]) > 1:
            extra = (f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, min {m['min']:.6g},"
                     f" max {m['max']:.6g}, n={len(m['samples'])})")
        print(f"{workload} {name} {m['value']:.10g} {m['unit']}{extra}")


def missing_names(spec, result, traced):
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    return [n for n in names if n not in result["metrics"]]


def single_workload(args):
    spec = load_spec()
    build()
    start = time.monotonic()
    reps, durations = [], {}
    # --trace 1 alternates traced and untraced reps (traced first), so the
    # tracing overhead is measured against the same stretch of host time.
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        if len(reps) >= 2:
            # Start another rep only if it should end within half a rep of
            # the budget, so a run lasts about --seconds on average.
            elapsed = time.monotonic() - start
            if elapsed + 0.5 * durations[traced] >= args.seconds:
                break
        t0 = time.monotonic()
        reps.append(run_rep(args.workload, args.seed, traced, False))
        durations[traced] = time.monotonic() - t0
        if reps[-1]["rc"] != 0:
            break

    result = evaluate(args.workload, reps)
    for p in result["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    print_metrics(args.workload, result)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        got = result["metrics"].get(m["name"])
        metrics[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}
    correct = not result["problems"] and result["failed"] == 0
    missing = missing_names(spec, result, bool(args.trace))
    if missing:
        print(f"check failed: metrics not emitted: {missing}", file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def fingerprint():
    def first_line(cmd):
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            return p.stdout.splitlines()[0].strip() if p.returncode == 0 else None
        except (OSError, IndexError):
            return None

    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER")
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "compiler": first_line([compiler, "--version"]) if compiler else None,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_commit": first_line(["git", "rev-parse", "HEAD"]),
        "loadavg_1m": os.getloadavg()[0],
    }


def suite(args):
    spec = load_spec()
    build()
    host = fingerprint()
    reps = {w: [] for w in WORKLOADS}
    for _ in range(args.reps):
        for w in WORKLOADS:
            reps[w].append(run_rep(w, args.seed, False, args.smoke))
    for w in WORKLOADS:
        reps[w].append(run_rep(w, args.seed, True, args.smoke))

    results, problems = {}, []
    for w in WORKLOADS:
        results[w] = evaluate(w, reps[w])
        problems += results[w]["problems"]
        if results[w]["failed"]:
            problems.append(f"{w}: {results[w]['failed']} of "
                            f"{results[w]['attempted']} attempted failed")
        if args.smoke:
            for traced in (False, True):
                missing = missing_names(spec, results[w], traced)
                if missing:
                    problems.append(f"{w}: metrics not emitted: {missing}")
        print_metrics(w, results[w])

    out = Path(args.out) if args.out else BUILD / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"fingerprint": host,
           "config": {"reps": args.reps, "seed": args.seed, "smoke": args.smoke},
           "correct": not problems,
           "problems": problems,
           "workloads": results}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"results -> {out}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.workload:
        return single_workload(args)
    if args.reps < 1:
        fail("--reps must be at least 1")
    return suite(args)


if __name__ == "__main__":
    sys.exit(main())
