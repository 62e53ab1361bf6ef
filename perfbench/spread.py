#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its per-run
values, as a share of their median, next to the bound BENCHMARK.json fixes.

    python3 perfbench/spread.py --workload engine-heavy --seeds 1-10 \
        --out perfbench/evidence/engine-heavy.json
    python3 perfbench/spread.py --workload serve-jobs --trace-repeat 2 \
        --out perfbench/evidence/serve-jobs-trace.json
    python3 perfbench/spread.py --summarize perfbench/evidence/*.json
    python3 perfbench/spread.py --compare first.json second.json

Run it from the repository root. Every run's values are kept in the
output, so the evidence shows whether a metric is bimodal, together with
the CPU time the host stole from the guest during the run (steal_s). --trace-repeat
runs the traced run of one seed several times and reports which exact
counts repeated. --compare checks that two sets of runs agree within the
bounds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

# Counts a traced run must reproduce exactly for one seed.
EXACT = ["core.rounds", "core.movers", "core.decisions", "prng.draws",
         "checkpoint.bytes_per_job", "obs.journal_rows", "obs.sse_bytes"]


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def steal_s():
    """CPU time the hypervisor gave to other guests (Linux /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0, s0 = time.time(), steal_s()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    res["seed"], res["wall_s"] = seed, round(time.time() - t0, 1)
    res["steal_s"] = round(steal_s() - s0, 2)
    return res


def spread(bench, workload, seeds):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seeds:
        res = run_once(bench, workload, seed, 0)
        runs.append(res)
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed} ({res['wall_s']}s, steal {res['steal_s']}s) correct={res['correct']} "
              f"attempted={res['attempted']} {vals}", flush=True)
    summary = {}
    for name in sorted(bounds):
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else float("inf"), "bound": bounds[name]}
    print_summary(workload, summary)
    return {"workload": workload, "run_seconds": bench["run_seconds"], "runs": runs, "summary": summary}


def trace_repeat(bench, workload, seed, n):
    runs = [run_once(bench, workload, seed, 1) for _ in range(n)]
    counts = {}
    for name in EXACT:
        vals = [r["metrics"][name]["value"] for r in runs]
        counts[name] = {"values": vals, "repeats": len(set(vals)) == 1}
        print(f"{name:26} {'repeats' if counts[name]['repeats'] else 'DIFFERS':8} {vals}")
    return {"workload": workload, "seed": seed, "runs": runs, "exact_counts": counts}


def print_summary(workload, summary, out=sys.stdout):
    print(f"{workload}: {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>5}", file=out)
    for name, s in summary.items():
        flag = "" if s["spread"] <= s["bound"] / 3 else "  > bound/3"
        print(f"{workload}: {name:20} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:7.4f} {s['bound']:5.2f}{flag}", file=out)


def summarize(paths):
    """Render evidence files as Markdown tables (per-run values included)."""
    evs = []
    for path in paths:
        with open(path) as f:
            evs.append(json.load(f))
    print("| workload | metric | median | q1 | q3 | spread | bound | per-run values (seed order) |")
    print("|---|---|---|---|---|---|---|---|")
    for ev in evs:
        for name, s in ev.get("summary", {}).items():
            vals = ", ".join(f"{v:.4g}" for v in s["values"])
            print(f"| {ev['workload']} | {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                  f"| {s['spread']:.4f} | {s['bound']} | {vals} |")
    print()
    print("| workload (traced, seed) | count | repeats | values |")
    print("|---|---|---|---|")
    for ev in evs:
        for name, c in ev.get("exact_counts", {}).items():
            vals = ", ".join(f"{v:.10g}" for v in c["values"])
            print(f"| {ev['workload']} ({ev['seed']}) | {name} | {'yes' if c['repeats'] else 'no'} | {vals} |")


def compare(pairs):
    """Check that a second set of runs agrees with a first within the bounds:
    for each metric, the second median may differ from the first, in either
    direction, by at most the metric's bound (a share of the first median)."""
    with open("BENCHMARK.json") as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    print("| workload | metric | first median | second median | worse by | bound | agrees |")
    print("|---|---|---|---|---|---|---|")
    ok = True
    for first, second in zip(pairs[::2], pairs[1::2]):
        with open(first) as f:
            a = json.load(f)
        with open(second) as f:
            b = json.load(f)
        for name, s in a["summary"].items():
            m1, m2 = s["median"], b["summary"][name]["median"]
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            agrees = abs(worse) <= s["bound"]
            ok = ok and agrees
            print(f"| {a['workload']} | {name} | {m1:.6g} | {m2:.6g} | {worse:+.4f} | {s['bound']} "
                  f"| {'yes' if agrees else 'no'} |")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace-repeat", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--summarize", nargs="+")
    ap.add_argument("--compare", nargs="+", help="first.json second.json [first.json second.json ...]")
    args = ap.parse_args()
    if args.summarize:
        summarize(args.summarize)
        return 0
    if args.compare:
        return compare(args.compare)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.trace_repeat:
        ev = trace_repeat(bench, args.workload, args.seeds[0], args.trace_repeat)
    else:
        ev = spread(bench, args.workload, args.seeds)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(ev, f, indent=1)
            f.write("\n")
    return 0 if all(r["correct"] for r in ev["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
