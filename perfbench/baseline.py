"""Measure the baseline: ten seeds per workload untraced, one traced run each.

    python3 perfbench/baseline.py

Runs ``run.py`` once per (workload, seed), one run at a time, for every
workload in BENCHMARK.json, and writes to baseline.json next to this file
for every end-to-end metric its median, quartiles and spread (the
interquartile range over the median) next to the bound in BENCHMARK.json,
then the per-layer numbers of one traced run per workload on the default
seed.  Seeds 1..RUNS are used; the held-out seed in run.py is never used
here.  Takes about 25 minutes.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
OUT = HERE / "baseline.json"


def run(workload, seed, trace, report):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--report", str(report)]
    subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(report.read_text())


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    report = workdir / f"baseline-report-{os.getpid()}.json"
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {"run_seconds": SPEC["run_seconds"], "seeds": list(range(1, RUNS + 1)),
           "workloads": {}}
    try:
        for workload in (w["name"] for w in SPEC["workloads"]):
            runs = [run(workload, seed, 0, report) for seed in range(1, RUNS + 1)]
            out["machine"] = runs[0]["machine"]
            untraced = {}
            for name in bounds:
                untraced[name] = summarize([r["metrics"][name]["value"] for r in runs])
                untraced[name]["bound"] = bounds[name]
                untraced[name]["unit"] = runs[0]["metrics"][name]["unit"]
            traced = run(workload, 1, 1, report)
            out["workloads"][workload] = {
                "untraced": untraced,
                "correct": [r["correct"] for r in runs] + [traced["correct"]],
                "error_frac": [r["error_frac"] for r in runs],
                "success": [r["success"] for r in runs],
                "latency_tail": [r["latency_tail"] for r in runs],
                "traced_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
            }
            for name, s in untraced.items():
                print(f"{workload:14s} {name:16s} median {s['median']:12.5g} {s['unit']:5s} "
                      f"spread {s['spread']:.4f} bound {s['bound']}", flush=True)
            print(f"{workload:14s} error_frac max {max(r['error_frac'] for r in runs)}, "
                  f"all correct {all(out['workloads'][workload]['correct'])}", flush=True)
    finally:
        report.unlink(missing_ok=True)
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
