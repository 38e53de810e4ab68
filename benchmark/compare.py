#!/usr/bin/env python3
"""Compares benchmark results of a parent commit and a change.

    python3 benchmark/compare.py PARENT CHANGE

PARENT and CHANGE are results files written by benchmark/run.py, or
directories of them. A directory's files are merged in name order, so runs
made alternately (parent, change, parent, change, ...) with --reps=1 each
become one sample set per side. Host samples are paired by index, rep i of
the parent against rep i of the change; at least 10 pairs are required.

For each workload, one row per end-to-end metric gives each side's median
and quartiles, the fraction of pairs the change wins, and a verdict:

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's interquartile range is wider than the bound, so
              no difference of that size can be told from noise (unless
              every change run beats every parent run: improved)
  unchanged   anything else

Modelled (virtual) metrics are deterministic and compared exactly. After the
verdicts, the per-layer metrics that moved are listed, so a faster or slower
run names its layer. Exits 1 if any verdict is "regressed".
"""

import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import VIRTUAL_E2E, is_host, load_spec  # noqa: E402

MIN_PAIRS = 10


def load(path):
    """(seed and size, workload -> metric -> {"unit", "samples"}) merged
    over every file; all files must have run the same inputs."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        sys.exit(f"compare.py: no results files in {path}")
    merged, inputs = {}, set()
    for f in files:
        doc = json.loads(f.read_text())
        inputs.add((doc["config"]["seed"], doc["config"]["smoke"]))
        for w, result in doc["workloads"].items():
            for name, m in result["metrics"].items():
                slot = merged.setdefault(w, {}).setdefault(
                    name, {"unit": m["unit"], "samples": []})
                slot["samples"] += m.get("samples", [m["value"]])
    if len(inputs) != 1:
        sys.exit(f"compare.py: {path} mixes runs of different seeds or sizes")
    return inputs.pop(), merged


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def host_verdict(parent, change, better, bound):
    """(verdict, win fraction) for paired host samples."""
    worse = 1.0 if better == "lower" else -1.0  # sign of a worsening delta
    pm, cm = statistics.median(parent), statistics.median(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if worse * (c - p) < 0) / len(pairs)
    q1, q3 = quartiles(parent)
    iqr = q3 - q1
    all_better = all(worse * (c - p) < 0 for p in parent for c in change)
    if pm and iqr / abs(pm) > bound:
        return ("improved" if all_better else "unresolved"), wins
    if pm and worse * (cm - pm) / abs(pm) > bound:
        return "regressed", wins
    if wins >= 0.9 and worse * (cm - pm) < 0 and abs(cm - pm) > iqr:
        return "improved", wins
    return "unchanged", wins


def exact_verdict(parent, change, better):
    p, c = parent[-1], change[-1]
    if p == c:
        return "unchanged"
    worse = 1.0 if better == "lower" else -1.0
    return "regressed" if worse * (c - p) > 0 else "improved"


def fmt(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    better["error_rate"] = "lower"
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (p_inputs, parent), (c_inputs, change) = load(sys.argv[1]), load(sys.argv[2])
    if p_inputs != c_inputs:
        sys.exit("compare.py: parent and change ran different seeds or sizes")

    regressed = 0
    for w in parent:
        if w not in change:
            print(f"== {w}: missing from {sys.argv[2]}")
            continue
        pw, cw = parent[w], change[w]
        pairs = min(len(pw["wall_s"]["samples"]), len(cw["wall_s"]["samples"]))
        if pairs < MIN_PAIRS:
            sys.exit(f"compare.py: {w} has {pairs} pairs, need at least {MIN_PAIRS}")
        print(f"== {w} ({pairs} pairs)")
        print(f"  {'metric':<24} {'parent median [q1, q3]':<36} "
              f"{'change median [q1, q3]':<36} {'delta':>8} {'wins':>5}  verdict")
        for name in list(bounds) + list(VIRTUAL_E2E):
            if name not in pw or name not in cw:
                continue
            p, c = pw[name]["samples"], cw[name]["samples"]
            if name in bounds:
                p, c = p[:pairs], c[:pairs]
                verdict, wins = host_verdict(p, c, better[name], bounds[name])
                win_s = f"{wins:.2f}"
            else:
                verdict, win_s = exact_verdict(p, c, better[name]), "-"
            pm, cm = statistics.median(p), statistics.median(c)
            delta = f"{(cm - pm) / abs(pm):+.1%}" if pm else ("0" if cm == pm else "new")
            regressed += verdict == "regressed"
            print(f"  {name:<24} {fmt(p):<36} {fmt(c):<36} {delta:>8} {win_s:>5}  "
                  f"{verdict}  {pw[name]['unit']}")

        # A per-layer metric moved when its virtual value changed, or when a
        # host timing passes the gain rule in either direction.
        moved, host_skipped = [], 0
        for name, pm_ in pw.items():
            if name in bounds or name in VIRTUAL_E2E or name not in cw:
                continue
            p, c = pm_["samples"], cw[name]["samples"]
            unit = pm_["unit"]
            if not is_host(name, unit):
                if p[-1] != c[-1]:
                    moved.append(f"{name} {p[-1]:.10g} -> {c[-1]:.10g} {unit}")
                continue
            n = min(len(p), len(c))
            if n < MIN_PAIRS:
                host_skipped += 1
                continue
            p, c = p[:n], c[:n]
            lower = sum(1 for a, b in zip(p, c) if b < a) / n
            q1, q3 = quartiles(p)
            pm, cm = statistics.median(p), statistics.median(c)
            if (lower >= 0.9 or lower <= 0.1) and abs(cm - pm) > q3 - q1:
                moved.append(f"{name} {pm:.6g} -> {cm:.6g} {unit} "
                             f"(lower in {lower:.0%} of {n} pairs)")
        print("  layers that moved: " + ("none" if not moved else ""))
        for line in moved:
            print(f"    {line}")
        if host_skipped:
            print(f"  ({host_skipped} host per-layer metrics not judged: they come "
                  f"from traced reps, and each side needs {MIN_PAIRS})")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
