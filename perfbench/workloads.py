"""The three benchmark workloads.

Each workload turns the seed into a fixed pool of inputs (``build``),
splits the pool into chunks, and runs a chunk once with one thread (one
caller) and once with two, so that both settings see the same machine
conditions.  A *pass* runs every chunk once; the first pass always
completes, and further whole passes run while they fit in the run.
Every operation goes through the command line, ``sparsep experiment`` or
``sparsep recover``, invoked in this process.  Outputs are kept on disk
and checked after the timed loop, so checks never sit inside a timing.

Why each workload exists, and which layers it stresses or bypasses, is
recorded in BENCHMARK.json (``why``) and predictions.json.
"""

import contextvars
import json
import os
import statistics
import threading
from time import perf_counter

import click
import numpy as np

from sparsep import cli, fileio, rng
from sparsep.experiments import ExperimentConfig, grid_points
from sparsep.operators import folded_operator, linear_operator
from sparsep.probes import ProblemDims, generate_probes
from sparsep.snorm import EXACT, rip_delta
from sparsep.solvers import SolverConfig

ADJOINT_TOL = 1e-12
RELERR_TOL = 1e-4  # exact-mode recovery, folded files
SLOPE_BAND = (-0.65, -0.35)  # fitted log-log slope of the mean restricted norm
SLOPE_Z = 3.29  # two-sided 99.9% normal quantile
MC_MAX_ITER = 2000
NOISE_EPS = 0.05  # l2 norm of the noise in linear files (||y|| is about 5.7)


def invoke(args):
    """Run one ``sparsep`` command in this process; returns (exit code, seconds)."""
    start = perf_counter()
    try:
        rv = cli.main.main(args, prog_name="sparsep", standalone_mode=False)
        code = rv if isinstance(rv, int) else 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    return code, perf_counter() - start


def adjoint_gap(op, seed):
    """Relative gap |<Ax, y> - <x, A^T y>| / (||Ax|| ||y||) on seeded vectors."""
    x = rng.gaussians(rng.derive_seed(seed, 1), op.input_len)
    y = rng.gaussians(rng.derive_seed(seed, 2), op.output_len)
    ax = op.apply(x)
    lhs = float(ax @ y)
    rhs = float(x @ op.adjoint(y))
    return abs(lhs - rhs) / (np.linalg.norm(ax) * np.linalg.norm(y))


class Tally:
    """Timings, counts and failures of one run."""

    def __init__(self):
        self.chunks = {1: [], 2: []}  # threads -> [(operations, seconds)] per chunk run
        self.latency_ms = []
        self.attempted = 0
        self.failures = []
        self.success = None  # (passed, total) over the first pass

    def timed(self, threads, ops, secs):
        self.chunks[threads].append((ops, secs))

    def ops(self, threads):
        return sum(n for n, _ in self.chunks[threads])

    def pooled_rate(self, threads):
        """Operations per second over every chunk run at this setting."""
        secs = sum(t for _, t in self.chunks[threads])
        return self.ops(threads) / secs if secs else 0.0

    def check(self, ok, message):
        """Count one checked operation; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


class Workload:
    name = ""

    def __init__(self, seed, workdir, smoke=False):
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def build(self, where, recorder=None):
        """Write this seed's inputs under ``where`` (the timed part of set-up)."""
        raise NotImplementedError

    def probe_sets(self):
        """(label, ProbeSet) pairs for the adjoint-identity check."""
        raise NotImplementedError

    def chunks(self):
        raise NotImplementedError

    def run_chunk(self, chunk, run_index, tally, recorder):
        """Run one chunk at both thread settings; return its pending checks."""
        raise NotImplementedError

    def check(self, pending, tally, first_pass):
        raise NotImplementedError

    def finish(self, tally):
        """Checks over the whole first pass (after all chunks)."""

    def latency_p50(self, tally):
        """recover_ms_p50: median one-thread operation latency."""
        return median(tally.latency_ms)

    def extras(self):
        """Workload-specific entries for the report."""
        return {}

    def check_adjoint(self, tally):
        for label, probes in self.probe_sets():
            for op in (folded_operator(probes), linear_operator(probes)):
                gap = adjoint_gap(op, probes.seed)
                tally.check(gap <= ADJOINT_TOL,
                            f"adjoint identity {label} {op.variant.value}: gap {gap:.3e}")

    def _cli(self, recorder, name, op_id, args):
        if recorder is None:
            return invoke(args)
        with recorder.span(name, op_id):
            return invoke(args)


# ---------------------------------------------------------------------------
# Monte Carlo workloads: each chunk is one config run at --threads 1 and 2


class _MonteCarlo(Workload):
    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self._first_csv = {}

    def config(self, j):
        raise NotImplementedError

    def build(self, where, recorder=None):
        os.makedirs(where, exist_ok=True)
        for j in range(self.n_chunks):
            with open(os.path.join(where, f"config{j}.json"), "w") as fh:
                json.dump(self.config(j), fh, indent=2)

    def chunks(self):
        return list(range(self.n_chunks))

    def _config_path(self, j):
        return os.path.join(self.workdir, "inputs", f"config{j}.json")

    def probe_sets(self):
        # the first trial's probes at every grid point, derived as the
        # experiment harness derives them (sub-seed 1 of the trial seed)
        out = []
        for j in range(self.n_chunks):
            cfg = ExperimentConfig.from_dict(self.config(j))
            for gi, gp in enumerate(grid_points(cfg)):
                trial_seed = rng.derive_seed(cfg.base_seed, gi, 0)
                probes = generate_probes(ProblemDims(gp.n, gp.m, gp.p),
                                         rng.derive_seed(trial_seed, 1))
                out.append((f"config{j} grid{gi}", probes))
        return out

    def run_chunk(self, j, run_index, tally, recorder):
        cfg = self._config_path(j)
        out = {}
        for threads in (1, 2):
            d = os.path.join(self.workdir, "out", f"{j}-{run_index}-t{threads}")
            code, secs = self._cli(recorder, "cli.experiment", f"{self.name}/c{j}/r{run_index}/t{threads}",
                                   ["experiment", "--config", cfg, "--out-dir", d,
                                    "--threads", str(threads)])
            out[threads] = (d, code)
            tally.timed(threads, self.n_trials(j), secs)
        return (j, out)

    def check(self, pending, tally, first_pass):
        """One checked operation per invocation; the 2-thread one also
        carries the byte comparison of trials.csv against --threads 1."""
        j, out = pending
        expected = self.n_trials(j)
        csv = {}
        for threads, (d, code) in sorted(out.items()):
            label = f"config{j} --threads {threads} ({os.path.basename(d)})"
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            else:
                with open(os.path.join(d, "trials.csv"), "rb") as fh:
                    csv[threads] = fh.read()
                with open(os.path.join(d, "record.json")) as fh:
                    rows = json.load(fh)["trials"]
                if len(rows) != expected:
                    problems.append(f"{len(rows)} trials, expected {expected}")
                if threads == 1:
                    tally.latency_ms += [1e3 * r["wall_time"] for r in rows]
                    if first_pass:
                        problems += self.check_rows(rows, tally)
                elif csv[2] != csv.get(1):
                    problems.append("trials.csv differs from --threads 1")
                if first_pass:
                    self._first_csv[(j, threads)] = csv[threads]
                elif csv[threads] != self._first_csv.get((j, threads)):
                    problems.append("trials.csv differs from the first pass")
            tally.check(not problems, f"{label}: {'; '.join(problems)}")

    def n_trials(self, j):
        cfg = ExperimentConfig.from_dict(self.config(j))
        return len(grid_points(cfg)) * cfg.trials

    def check_rows(self, rows, tally):
        """Add the first pass's rows to the success count; return problems."""
        raise NotImplementedError


class McPhase(_MonteCarlo):
    """phase_transition BPDN sweep on the folded operator, n=8, p=4."""

    name = "mc_phase"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        # 3 configs x 9 grid points x 6 trials = 162 distinct trials per
        # pass: success_rate is a share of these, so its spread over seeds
        # shrinks with their number
        self.n_chunks = 1 if smoke else 3
        self._trials = 1 if smoke else 6

    def config(self, j):
        return {
            "kind": "phase_transition",
            "n_grid": [8],
            "m_grid": [12] if self.smoke else [12, 16, 24],
            "p_grid": [4],
            "s_grid": [2] if self.smoke else [2, 4, 6],
            "trials": self._trials,
            "base_seed": rng.derive_seed(self.seed, 1, j),
            "epsilon_grid": [0.0],
            "success_threshold": RELERR_TOL,
            "method": "bpdn",
            # 2000 iterations: trials past the transition still hit the
            # budget, but the budget no longer turns a few 5000-iteration
            # trials per seed into most of the run's time, which made
            # trials/s swing by seed rather than by code
            "solver": {"max_iter": MC_MAX_ITER, "feas_tol": 1e-6, "opt_tol": 1e-8},
        }

    def check_rows(self, rows, tally):
        passed, total = tally.success or (0, 0)
        tally.success = (passed + sum(1 for r in rows if r["success"]), total + len(rows))
        return []


class McRip(_MonteCarlo):
    """rip_scaling sweep, randomized_lower_bound mode, n=16, p=4, s=3."""

    name = "mc_rip"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        # 2 configs x 3 m values x 3 trials = 18 trials per pass; the slope
        # is fitted to the per-m means pooled over both configs (6 trials each)
        self.n_chunks = 1 if smoke else 2
        self._trials = 2 if smoke else 3
        self._snorms = {}

    def config(self, j):
        return {
            "kind": "rip_scaling",
            "n_grid": [16],
            "m_grid": [32, 128] if self.smoke else [32, 64, 128],
            "p_grid": [4],
            "s_grid": [3],
            "trials": self._trials,
            "base_seed": rng.derive_seed(self.seed, 2, j),
            "snorm_mode": "randomized_lower_bound",
        }

    def check_rows(self, rows, tally):
        # the randomized search is a lower bound: compare with exhaustive
        # enumeration on the same probes; success = it found the maximum
        passed, total = tally.success or (0, 0)
        problems = []
        for r in rows:
            probes = generate_probes(ProblemDims(r["n"], r["m"], r["p"]),
                                     rng.derive_seed(r["seed"], 1))
            exact = rip_delta(probes, r["s"], mode=EXACT).value
            value = r["snorm"]
            if value is None or value > exact * (1 + 1e-9):
                problems.append(f"grid{r['grid_index']} trial{r['trial_index']}: "
                                f"lower bound {value} vs exact {exact}")
            passed += value is not None and value >= exact * (1 - 1e-9)
            total += 1
            self._snorms.setdefault(r["m"], []).append(value)
        tally.success = (passed, total)
        return problems

    def finish(self, tally):
        """Pooled slope of log(mean restricted norm) against log(m).

        At k trials per m the slope's sampling error is large (about 0.1
        at k = 6: the norm's spread at m = 32 is ~30% of its mean), so
        the slope alone would leave the band for a correct program on
        roughly one seed in six.  The check therefore fails only when the
        whole 99.9% confidence interval of the slope misses the band.
        """
        self.slope = self.slope_se = None
        ms = sorted(m for m, v in self._snorms.items() if None not in v)
        if not tally.check(len(ms) >= 2, "fewer than two m values to fit a slope"):
            return
        x = np.log(ms)
        samples = [np.asarray(self._snorms[m]) for m in ms]
        means = np.array([v.mean() for v in samples])
        self.slope = float(np.polyfit(x, np.log(means), 1)[0])
        # delta method: var(log mean) = var / (k mean^2); slope is linear in log means
        var_log = np.array([v.var(ddof=1) / (v.size * v.mean() ** 2) if v.size > 1 else 0.0
                            for v in samples])
        w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
        self.slope_se = float(np.sqrt(np.sum(w**2 * var_log)))
        half = SLOPE_Z * self.slope_se
        tally.check(self.slope + half >= SLOPE_BAND[0] and self.slope - half <= SLOPE_BAND[1],
                    f"pooled slope {self.slope:.4f} +- {half:.4f} misses {SLOPE_BAND}")

    def extras(self):
        return {"pooled_slope": {"slope": self.slope, "se": self.slope_se, "band": SLOPE_BAND}}


# ---------------------------------------------------------------------------
# recover_large: closed loop of `sparsep recover` on measurement files


class RecoverLarge(Workload):
    name = "recover_large"

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        self.dims = (16, 64, 4) if smoke else (256, 1024, 16)
        self.sparsity = 3 if smoke else 32
        # 3 chunks of 2 file pairs: 12 requests per pass at each caller count
        self.n_pairs = 2 if smoke else 6
        self.latency_by_class = {"folded": [], "linear": []}

    def _paths(self, where, i):
        return {key: os.path.join(where, f"{key}{i}.csv")
                for key in ("probes", "folded", "linear", "channel", "unused")}

    def build(self, where, recorder=None):
        os.makedirs(where, exist_ok=True)
        n, m, p = self.dims
        for i in range(self.n_pairs):
            f = self._paths(where, i)
            steps = [
                ["gen-probes", "--n", n, "--m", m, "--p", p,
                 "--seed", rng.derive_seed(self.seed, 3, i), "--out", f["probes"]],
                # folded, noiseless (the linear output of this call is unused)
                ["simulate", "--probes", f["probes"], "--random-sparse", self.sparsity,
                 "--channel-seed", rng.derive_seed(self.seed, 4, i),
                 "--out", f["unused"], "--folded-out", f["folded"],
                 "--save-channels", f["channel"]],
                # linear, same channel, noise of norm NOISE_EPS
                ["simulate", "--probes", f["probes"], "--random-sparse", self.sparsity,
                 "--channel-seed", rng.derive_seed(self.seed, 4, i),
                 "--noise-eps", NOISE_EPS, "--noise-seed", rng.derive_seed(self.seed, 5, i),
                 "--out", f["linear"]],
            ]
            for args in steps:
                code, _ = self._cli(recorder, f"cli.{args[0]}", f"{self.name}/setup{i}",
                                    [str(a) for a in args])
                if code != 0:
                    raise RuntimeError(f"set-up step {args[0]} exited {code}")

    def probe_sets(self):
        where = os.path.join(self.workdir, "inputs")
        return [(f"pair{i}", fileio.read_probes(self._paths(where, i)["probes"]))
                for i in range(self.n_pairs)]

    def chunks(self):
        return [(i, i + 1) for i in range(0, self.n_pairs, 2)]

    def latency_p50(self, tally):
        # the two file classes are ~5x apart and a run holds ~12 one-caller
        # requests: the pooled median would sit between the classes, so
        # average the class medians (the mix is half and half)
        return statistics.mean(median(v) for v in self.latency_by_class.values())

    def extras(self):
        return {"latency_ms_p50_by_class": {k: median(v)
                                            for k, v in self.latency_by_class.items()}}

    def _request(self, pair, kind, run_index, tag, recorder):
        inputs = self._paths(os.path.join(self.workdir, "inputs"), pair)
        stem = os.path.join(self.workdir, "out", f"{pair}-{kind}-{run_index}-{tag}")
        code, secs = self._cli(recorder, "cli.recover", f"{self.name}/{stem[-24:]}",
                               ["recover", "--probes", inputs["probes"],
                                "--measurements", inputs[kind], "--method", "bpdn",
                                "--out-json", stem + ".json", "--out-csv", stem + ".csv"])
        return (pair, kind, stem, code), secs

    def run_chunk(self, chunk, run_index, tally, recorder):
        os.makedirs(os.path.join(self.workdir, "out"), exist_ok=True)
        pending = []
        busy = 0.0
        for pair in chunk:
            for kind in ("folded", "linear"):
                req, secs = self._request(pair, kind, run_index, "c1", recorder)
                pending.append(req)
                busy += secs
                tally.latency_ms.append(1e3 * secs)
                self.latency_by_class[kind].append(1e3 * secs)
        tally.timed(1, len(pending), busy)

        # two closed-loop callers, one file pair each
        results = [[] for _ in chunk]

        def caller(slot, pair):
            for kind in ("folded", "linear"):
                results[slot].append(self._request(pair, kind, run_index, "c2", recorder)[0])

        start = perf_counter()
        threads = []
        for slot, pair in enumerate(chunk):
            t = threading.Thread(target=_in_context(caller), args=(slot, pair))
            t.start()
            threads.append(t)
        for t in threads:
            t.join()
        wall = perf_counter() - start
        for slot in results:
            pending += slot
        tally.timed(2, sum(len(slot) for slot in results), wall)
        return pending

    def _truth(self, pair, kind):
        """(operator, header, y, channel) for one input file.

        Read afresh for each request and dropped after its check, so the
        checker never holds more than one request's inputs.
        """
        inputs = self._paths(os.path.join(self.workdir, "inputs"), pair)
        probes = fileio.read_probes(inputs["probes"])
        header, y = fileio.read_measurements(inputs[kind])
        _, h = fileio.read_channels(inputs["channel"])
        return linear_operator(probes), header, y, h

    def check(self, pending, tally, first_pass):
        """Exit 4 (no convergence, documented) is an unsuccessful recovery,
        not an error; an error is a crash, another exit code, an exit code
        that disagrees with the reported ``converged``, or an estimate that
        misses the accuracy check although the solver reported success."""
        passed = 0
        feas_tol = SolverConfig().feas_tol
        for pair, kind, stem, code in pending:
            label = f"pair{pair} {kind} {os.path.basename(stem)}"
            problems = []
            if code not in (0, 4):
                problems.append(f"exit {code}")
            else:
                with open(stem + ".json") as fh:
                    converged = json.load(fh)["converged"]
                if converged != (code == 0):
                    problems.append(f"exit {code} but converged={converged}")
            if code == 0 and not problems:
                op, header, y, h = self._truth(pair, kind)
                _, x_hat = fileio.read_vector_file(stem + ".csv")
                if kind == "folded":
                    err = float(np.linalg.norm(x_hat - h) / np.linalg.norm(h))
                    if err >= RELERR_TOL:
                        problems.append(f"relative error {err:.3e}")
                else:
                    residual = float(np.linalg.norm(op.apply(x_hat) - y))
                    bound = header["epsilon"] * (1 + feas_tol)
                    if residual > bound:
                        problems.append(f"residual {residual:.9g} over {bound:.9g}")
                passed += not problems
            tally.check(not problems, f"{label}: {'; '.join(problems)}")
        if first_pass:
            done, total = tally.success or (0, 0)
            tally.success = (done + passed, total + len(pending))


def _in_context(fn):
    """Run ``fn`` in a copy of the current context (keeps the trace parent)."""
    ctx = contextvars.copy_context()
    return lambda *args: ctx.run(fn, *args)


WORKLOADS = {cls.name: cls for cls in (McPhase, RecoverLarge, McRip)}


def tail(values):
    """Highest percentile with at least 10 samples above it (nearest rank).

    None below 20 samples, where that percentile would not exceed the median.
    """
    n = len(values)
    if n < 20:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2), "ms": sorted(values)[n - 11],
            "samples": n}


def median(values):
    return statistics.median(values) if values else 0.0
