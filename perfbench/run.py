"""sparsep benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload mc_phase --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each exists): mc_phase, recover_large,
mc_rip.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
every chunk of the inputs once untraced and once traced and prints the
per-layer metrics with the tracing overhead.  The last line of standard
output is one JSON object; a readable report goes to standard error,
``--report FILE`` writes every number, with machine and versions, as JSON,
and ``--spans FILE`` writes the traced run's spans as CSV.

The package is imported from ``src/`` next to this directory; nothing is
installed.  The seed is the only source of the inputs: DEFAULT_SEED is
used when none is given, and HELD_OUT_SEED is kept out of tuning so later
claims can be checked on it.
"""

import os
import sys

# Before numpy loads: no BLAS/OpenMP helper threads, so the two-thread
# figures measure sparsep's own pool and nothing else.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001
SETUP_REPEATS = 5
# A traced run must account for its wall time: the self times of all spans,
# less the time children ran concurrently, add up to the traced wall time
# (they do unless a span outlives its parent), and the benchmark's own code
# outside any sparsep call keeps at most this share of it.
TRACE_TOL = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trials_per_s_2t": "1/s",
    "recover_ms_p50": "ms",
    "success_rate": "share",
    "peak_rss_mb": "MB",
}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import sparsep, sparsep.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds():
    """Time to import sparsep (and its CLI) in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def machine():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
    }


def run_pass(wl, chunks, run_index, tally, recorder=None):
    return [wl.run_chunk(c, run_index, tally, recorder) for c in chunks]


def untraced(wl, seconds, tally):
    """Whole passes over the pool: the first always, more while they fit in ``seconds``."""
    chunks = wl.chunks()
    start = perf_counter()
    pending = [(p, True) for p in run_pass(wl, chunks, 0, tally)]
    passes = 1
    while (perf_counter() - start) * (passes + 1) / passes <= seconds:
        pending += [(p, False) for p in run_pass(wl, chunks, passes, tally)]
        passes += 1
    return pending


def traced(wl, tally, spans_path=None):
    """Each chunk untraced and traced: per-layer metrics and tracing overhead.

    Interleaving by chunk, and alternating which of the two runs first,
    keeps slow drifts of the machine and warm-up out of the overhead
    figure.  The untraced outputs count as the first pass.
    """
    import tracer

    recorder = tracer.Recorder()
    pending = []
    untraced_wall = 0.0
    for i, chunk in enumerate(wl.chunks()):
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_run:
                start = perf_counter()
                pending.append((wl.run_chunk(chunk, 0, tally, None), True))
                untraced_wall += perf_counter() - start
                continue
            with tracer.Patch() as patch:
                tracer.instrument(patch, recorder)
                with recorder.span("bench.chunk", f"{wl.name}/{chunk}"):
                    pending.append((wl.run_chunk(chunk, 1, tally, recorder), False))
            tally.check(patch.restored(), "traced names were not all restored")
    wall = sum(s[5] - s[4] for s in recorder.spans if s[1] == "bench.chunk")
    metrics = tracer.layer_metrics(recorder.spans, wall)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_share"] = (wall / untraced_wall - 1.0, "share")
    metrics["trace.spans"] = (len(recorder.spans), "count")
    gap = abs(metrics["trace.self_sum_s"][0] - wall)
    tally.check(gap <= TRACE_TOL * wall,
                f"span self times add up to {metrics['trace.self_sum_s'][0]:.6f} s, "
                f"traced wall time is {wall:.6f} s")
    share = metrics["trace.attributed_share"][0]
    tally.check(share >= 1.0 - TRACE_TOL,
                f"sparsep layers hold {share:.4f} of the traced wall time")
    if spans_path:
        recorder.write(spans_path)
    return pending, metrics


def setup(wl, workdir, trace):
    """setup_s = median time to import sparsep + median time to build the inputs.

    The last of the builds is the one used.  A traced run builds once
    more under tracing, for the setup.* numbers.
    """
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    for k in range(SETUP_REPEATS):
        where = workdir / ("inputs" if k == SETUP_REPEATS - 1 else f"setup{k}")
        start = perf_counter()
        wl.build(str(where))
        builds.append(perf_counter() - start)
        if where.name != "inputs":
            shutil.rmtree(where)
    setup_metrics = {}
    if trace:
        import tracer

        recorder = tracer.Recorder()
        where = workdir / "setup-traced"
        with tracer.Patch() as patch:
            tracer.instrument(patch, recorder)
            with recorder.span("bench.setup", wl.name):
                wl.build(str(where), recorder)
        shutil.rmtree(where)
        if not patch.restored():
            raise RuntimeError("traced names were not all restored after set-up")
        root = next(s for s in recorder.spans if s[1] == "bench.setup")
        layers = tracer.layer_metrics(recorder.spans, root[5] - root[4])
        setup_metrics = {
            "setup.wall_s": (root[5] - root[4], "s"),
            "setup.probes.self_s": layers["probes.self_s"],
            "setup.operators.self_s": (layers["operators.self_s.folded"][0]
                                       + layers["operators.self_s.linear"][0], "s"),
            "setup.fileio.write.ms": layers["fileio.write.ms"],
            "setup.fileio.bytes_written": layers["fileio.bytes_written"],
            "setup.cli.self_s": layers["cli.self_s"],
        }
    return statistics.median(imports) + statistics.median(builds), imports, builds, setup_metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_phase", "recover_large", "mc_rip"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs, for checking that the benchmark runs")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the full report as JSON to this file")
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1, also write every span as CSV to this file")
    args = parser.parse_args(argv)

    if not (SRC / "sparsep" / "__init__.py").is_file():
        print(f"perfbench: no sparsep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sparsep
    import workloads

    if Path(sparsep.__file__).resolve().parent != SRC / "sparsep":
        print(f"perfbench: imported sparsep from {sparsep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir), smoke=args.smoke)
        tally = workloads.Tally()
        setup_s, imports, builds, setup_metrics = setup(wl, workdir, args.trace)
        wl.check_adjoint(tally)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if args.trace:
                pending, layer = traced(wl, tally, args.spans)
            else:
                pending = untraced(wl, args.seconds, tally)
        # the program's peak, before the checks below add their own memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # first-pass outputs first: later runs are compared against them
        for item, first_pass in sorted(pending, key=lambda p: not p[1]):
            wl.check(item, tally, first_pass)
        wl.finish(tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passed, total = tally.success or (0, 0)
    if args.trace:
        layer.update(setup_metrics)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        end_to_end = {
            "setup_s": setup_s,
            "trials_per_s": tally.pooled_rate(1),
            "trials_per_s_2t": tally.pooled_rate(2),
            "recover_ms_p50": wl.latency_p50(tally),
            "success_rate": passed / total if total else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}

    failed = len(tally.failures)
    extra = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "error_frac": failed / tally.attempted,
        "success": [passed, total],
        "ops": {"one_thread": tally.ops(1), "two_threads": tally.ops(2)},
        "chunk_rates": {"one_thread": [n / t for n, t in tally.chunks[1]],
                        "two_threads": [n / t for n, t in tally.chunks[2]]},
        "latency_tail": workloads.tail(tally.latency_ms),
        "import_s": imports,
        "build_s": builds,
        "failures": tally.failures[:20],
        **wl.extras(),
    }

    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for key, value in extra.items():
        print(f"{key}: {json.dumps(value)}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": metrics}
    if args.report:
        args.report.write_text(json.dumps({**result, **extra}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
