"""Smoke run: every workload at minimal size, untraced and traced.

    python3 perfbench/smoke.py

Checks that each run exits 0 and that its last output line is the result
object, with every metric that BENCHMARK.json names for that mode, each
with its unit, that a traced run writes every span it recorded, that
spans from the thread pool nest under their trials, and that the tracer
puts every wrapped name back when the traced code raises.  It does not look at timings, so it can run anywhere;
it takes about a minute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, trace, spans=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    if spans:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _import():
    for path in (str(HERE), str(HERE.parent / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracer

    return tracer


def restores_on_raise():
    """Wrap everything, raise inside the traced region, check nothing stays wrapped."""
    tracer = _import()
    from sparsep import generate_probes, folded_operator

    recorder = tracer.Recorder()
    patch = tracer.Patch()
    try:
        with patch:
            tracer.instrument(patch, recorder)
            with recorder.span("bench.smoke"):
                folded_operator(generate_probes((4, 8, 2), 1)).apply([1.0] * 8)
                raise RuntimeError("raised inside the traced region")
    except RuntimeError:
        pass
    return patch.restored() and len(recorder.spans) == 2


def nests_under_trials():
    """With --threads 2, every operator span must sit under the trial that made it."""
    tracer = _import()
    from sparsep import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(kind="phase_transition", n_grid=(4,), m_grid=(8,), p_grid=(2,),
                           s_grid=(1, 2), trials=3, base_seed=5)
    recorder = tracer.Recorder()
    with tracer.Patch() as patch:
        tracer.instrument(patch, recorder)
        with recorder.span("bench.smoke", "smoke"):
            run_experiment(cfg, threads=2)
    by_id = {s[0]: s for s in recorder.spans}
    trials = [s for s in recorder.spans if s[1] == "experiments.trial"]
    for span in recorder.spans:
        if not span[1].startswith("operators."):
            continue
        parent = by_id[span[2]]
        while parent[1] != "experiments.trial":
            parent = by_id[parent[2]]
        if span[3] != parent[3] or not parent[3].startswith("smoke/g"):
            return False
    return len(trials) == 6 and len({s[3] for s in trials}) == 6


def main():
    problems = []
    if not restores_on_raise():
        problems.append("tracer left wrapped names behind after a raise")
    if not nests_under_trials():
        problems.append("spans from the thread pool are not nested under their trials")
    spans = HERE / "_work" / f"smoke-spans-{os.getpid()}.csv"
    spans.parent.mkdir(exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace, spans if trace else None)
            if trace:
                with open(spans) as fh:
                    rows = sum(1 for _ in fh) - 1
                spans.unlink()
                if rows != result["metrics"]["trace.spans"]["value"]:
                    problems.append(f"{workload}: {rows} spans written, "
                                    f"{result['metrics']['trace.spans']['value']} recorded")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: attempted {result['attempted']}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(f"{workload} trace={trace}: missing {missing}, "
                                f"unexpected {extra}, wrong unit {units}")
            print(f"{workload:14s} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"metrics={len(result['metrics'])}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
