"""Monte Carlo harnesses for the library's empirical claims.

Four experiment kinds share one config/record format and one runner,
:func:`run_experiment`, which picks the trial function from
``cfg.kind``:

* rip_scaling      -- mean restricted norm ||I - Phi^T Phi||_s over an
  m-grid, with a log-log slope fit (the mean decays like m^{-1/2} up to
  log factors).
* phase_transition -- recovery success rates over the (m, s) grid for
  random sparse channels observed through the folded operator.
* stability        -- recovery error versus noise level epsilon (and
  versus the compressibility tail for power-law signals) through the
  linear operator, with a least-squares fit of the error against the
  two bound terms sqrt(2)*eps and s^{-1/2}||h - h_s||_1.
* coded_aperture   -- phase transition preset with one receiver and
  subimage semantics: p subimages of n pixels onto an m-pixel detector,
  PSNR recorded, optional sparsity in block differences (consecutive
  frames).

rip_scaling adds the slope ``fits`` to the aggregates and stability adds
``stability_fit``; :func:`replay_trial` re-runs any one trial.

Seed discipline: each trial's seed is
``derive_seed(base_seed, grid_index, trial_index)``; probes, channel
support, amplitudes and noise use sub-seeds ``derive_seed(trial_seed, 1..4)``.
Stability fixes its instance per dimension tuple (not per grid index) so
that every epsilon sees the same probes and channel.  Trials are
independent, may run on any thread, and aggregate order-independently.
"""

import functools
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from . import rng
from .errors import BudgetError, ParameterError
from .operators import folded_operator, linear_operator
from .probes import ProblemDims, generate_probes, is_integer
from .snorm import EXACT, RANDOMIZED, rip_delta
from .solvers import SolverConfig, solve_bpdn, solve_iht, solve_oracle_ls

KINDS = ("rip_scaling", "phase_transition", "stability", "coded_aperture")
# Names the arithmetic behind every TrialRow float (operator kernel, solver
# iterations, Lipschitz constant).  Change it with any change that moves
# trial bits, so that ``--resume`` never mixes rows of two versions.
NUMERICS = "rfft-kernel/fista-az-by-linearity/lanczos-norm"
METHODS = ("bpdn", "iht", "oracle")

_STAB_TAG = 0x57AB


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n_grid: tuple
    m_grid: tuple
    p_grid: tuple
    s_grid: tuple
    trials: int = 100
    base_seed: int = 0
    epsilon_grid: tuple = (0.0,)
    success_threshold: float = 1e-4
    method: str = "bpdn"
    solver: SolverConfig = SolverConfig()
    snorm_mode: str = EXACT
    decay: float = 0.0
    block_difference: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown experiment kind {self.kind!r}")
        if self.method not in METHODS:
            raise ParameterError(f"unknown method {self.method!r}")
        for name in ("n_grid", "m_grid", "p_grid", "s_grid", "epsilon_grid"):
            grid = tuple(getattr(self, name))
            object.__setattr__(self, name, grid)
            if not grid:
                raise ParameterError(f"{name} must be non-empty")
            if name != "epsilon_grid" and not all(map(is_integer, grid)):
                raise ParameterError(f"{name} values must be integers, got {list(grid)}")
        if not is_integer(self.trials) or self.trials < 1:
            raise ParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if self.success_threshold <= 0:
            raise ParameterError("success_threshold must be positive")
        s_min = 1 if self.kind == "rip_scaling" else 0
        grids = (self.n_grid, self.m_grid, self.p_grid, self.s_grid)
        for n, m, p, s in itertools.product(*grids):
            dims = ProblemDims(n, m, p)
            if not s_min <= s <= dims.signal_len:
                raise ParameterError(
                    f"s={s} is outside [{s_min}, n*p={dims.signal_len}] at n={n}, p={p}"
                )
        for eps in self.epsilon_grid:
            if not 0.0 <= float(eps) < np.inf:
                raise ParameterError(f"epsilon_grid values must be finite and >= 0, got {eps}")

    def to_dict(self):
        d = asdict(self)
        for name in ("n_grid", "m_grid", "p_grid", "s_grid", "epsilon_grid"):
            d[name] = list(d[name])
        return d

    @classmethod
    def from_dict(cls, raw):
        raw = dict(raw)
        solver = raw.pop("solver", {})
        if isinstance(solver, dict):
            solver = SolverConfig(**solver)
        grids = {}
        for name in ("n_grid", "m_grid", "p_grid", "s_grid", "epsilon_grid"):
            if name in raw:
                value = raw.pop(name)
                grids[name] = tuple(value) if isinstance(value, (list, tuple)) else (value,)
        return cls(solver=solver, **grids, **raw)


@dataclass(frozen=True)
class GridPoint:
    n: int
    m: int
    p: int
    s: int
    epsilon: float


@dataclass(frozen=True)
class TrialRow:
    grid_index: int
    trial_index: int
    seed: int
    n: int
    m: int
    p: int
    s: int
    epsilon: float
    method: str
    relative_error: float = None
    residual: float = None
    snorm: float = None
    success: bool = None
    converged: bool = None
    psnr: float = None
    wall_time: float = 0.0
    note: str = ""


@dataclass
class ExperimentRecord:
    config: ExperimentConfig
    trials: list
    aggregates: dict

    def to_dict(self):
        return {
            "config": self.config.to_dict(),
            "trials": [asdict(t) for t in self.trials],
            "aggregates": self.aggregates,
        }


def grid_points(cfg):
    """Cartesian grid in (n, m, p, s, epsilon) order; index order is fixed."""
    points = []
    for n in cfg.n_grid:
        for m in cfg.m_grid:
            for p in cfg.p_grid:
                for s in cfg.s_grid:
                    for eps in cfg.epsilon_grid:
                        points.append(GridPoint(int(n), int(m), int(p), int(s), float(eps)))
    return points


def _powerlaw_channel(seed_order, seed_sign, size, decay):
    """Compressible signal: magnitudes (i+1)^-decay in a random order."""
    mags = (np.arange(size) + 1.0) ** (-float(decay))
    perm = np.argsort(rng.uniforms(seed_order, size), kind="stable")
    h = np.zeros(size)
    h[perm] = mags * rng.rand_signs(seed_sign, size)
    return h


def _tail_term(h, s):
    """s^{-1/2} * l1 norm of everything outside the s largest magnitudes."""
    if s < 1:
        return float(np.sum(np.abs(h)))
    order = np.argsort(-np.abs(h), kind="stable")
    return float(np.sum(np.abs(h[order[s:]])) / np.sqrt(s))


def _block_cumsum(v, p, n):
    return np.cumsum(v.reshape(p, n), axis=0).reshape(-1)


def _block_cumsum_adjoint(v, p, n):
    return np.cumsum(v.reshape(p, n)[::-1], axis=0)[::-1].reshape(-1)


class _FrameDifferenceOperator:
    """Measurement operator composed with the block-cumsum synthesis.

    Solving in these coordinates makes sparsity in consecutive-block
    differences recoverable: x = cumsum(c) over blocks, c sparse.
    """

    def __init__(self, base, p, n):
        self._base = base
        self._p = p
        self._n = n
        self.input_len = base.input_len
        self.output_len = base.output_len

    def apply(self, c):
        return self._base.apply(_block_cumsum(np.asarray(c, float), self._p, self._n))

    def adjoint(self, y):
        return _block_cumsum_adjoint(self._base.adjoint(y), self._p, self._n)


def _solve(cfg, op, y, gp, true_support):
    if cfg.method == "bpdn":
        return solve_bpdn(op, y, gp.epsilon, cfg.solver)
    if cfg.method == "iht":
        return solve_iht(op, y, max(gp.s, 1), cfg.solver)
    return solve_oracle_ls(op, y, true_support)


def _relative_error(x_hat, h):
    hn = float(np.linalg.norm(h))
    if hn == 0.0:
        return float(np.linalg.norm(x_hat))
    return float(np.linalg.norm(x_hat - h) / hn)


def _psnr(x_hat, h):
    mse = float(np.mean((x_hat - h) ** 2))
    if mse == 0.0:
        return None
    peak = float(np.max(np.abs(h))) or 1.0
    return float(10.0 * np.log10(peak**2 / mse))


def _row(gi, gp, trial, trial_seed, start, **fields):
    return TrialRow(
        grid_index=gi,
        trial_index=trial,
        seed=trial_seed,
        n=gp.n,
        m=gp.m,
        p=gp.p,
        s=gp.s,
        epsilon=gp.epsilon,
        wall_time=time.perf_counter() - start,
        **fields,
    )


def _recover_and_score(cfg, gi, gp, trial, start, op, target, h, to_image=None, psnr=False):
    """Measure ``target`` through ``op`` plus the trial's noise, solve, score against ``h``."""
    trial_seed = rng.derive_seed(cfg.base_seed, gi, trial)
    y = op.apply(target)
    if gp.epsilon > 0.0:
        y = y + rng.noise_with_norm(rng.derive_seed(trial_seed, 4), y.size, gp.epsilon)
    result = _solve(cfg, op, y, gp, true_support=np.flatnonzero(target))
    x_img = to_image(result.x_hat) if to_image else result.x_hat
    rel = _relative_error(x_img, h)
    return _row(
        gi, gp, trial, trial_seed, start,
        method=cfg.method,
        relative_error=rel,
        residual=result.residual_norm,
        success=bool(result.converged and rel < cfg.success_threshold),
        converged=bool(result.converged),
        psnr=_psnr(x_img, h) if psnr else None,
    )


def _recovery_trial(cfg, gi, gp, trial, coded=False):
    start = time.perf_counter()
    trial_seed = rng.derive_seed(cfg.base_seed, gi, trial)
    dims = ProblemDims(gp.n, gp.m, gp.p)
    op = folded_operator(generate_probes(dims, rng.derive_seed(trial_seed, 1)))
    target = rng.sparse_channel(
        rng.derive_seed(trial_seed, 2), rng.derive_seed(trial_seed, 3), dims.signal_len, gp.s
    )
    if coded and cfg.block_difference:
        # target holds sparse frame differences; the image is their block cumsum
        image = functools.partial(_block_cumsum, p=gp.p, n=gp.n)
        op = _FrameDifferenceOperator(op, gp.p, gp.n)
        return _recover_and_score(
            cfg, gi, gp, trial, start, op, target, image(target), to_image=image, psnr=True
        )
    return _recover_and_score(cfg, gi, gp, trial, start, op, target, target, psnr=coded)


def _rip_trial(cfg, gi, gp, trial):
    start = time.perf_counter()
    trial_seed = rng.derive_seed(cfg.base_seed, gi, trial)
    dims = ProblemDims(gp.n, gp.m, gp.p)
    probes = generate_probes(dims, rng.derive_seed(trial_seed, 1))
    note = ""
    value = None
    try:
        res = rip_delta(
            probes,
            gp.s,
            mode=cfg.snorm_mode,
            trials=32,
            seed=rng.derive_seed(trial_seed, 2),
        )
        value = res.value
        if res.mode == RANDOMIZED:
            note = "randomized_lower_bound"
    except BudgetError as exc:
        note = f"budget: {exc}"
    return _row(gi, gp, trial, trial_seed, start, method="snorm", snorm=value, note=note)


def _stability_instance(cfg, gp):
    """(instance seed, channel) shared by every epsilon at one (n, m, p, s)."""
    inst_seed = rng.derive_seed(cfg.base_seed, _STAB_TAG, gp.n, gp.m, gp.p, gp.s)
    seeds = rng.derive_seed(inst_seed, 2), rng.derive_seed(inst_seed, 3)
    size = gp.n * gp.p
    if cfg.decay > 0.0:
        return inst_seed, _powerlaw_channel(*seeds, size, cfg.decay)
    return inst_seed, rng.sparse_channel(*seeds, size, gp.s)


def _stability_trial(cfg, gi, gp, trial):
    start = time.perf_counter()
    inst_seed, h = _stability_instance(cfg, gp)
    probes = generate_probes(ProblemDims(gp.n, gp.m, gp.p), rng.derive_seed(inst_seed, 1))
    return _recover_and_score(cfg, gi, gp, trial, start, linear_operator(probes), h, h)


def _run_tasks(fn, cfg, points, tasks, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda gt: fn(cfg, gt[0], points[gt[0]], gt[1]), tasks))
    return [fn(cfg, gi, points[gi], t) for gi, t in tasks]


def _binomial_se(rate, trials):
    return float(np.sqrt(max(rate * (1.0 - rate), 0.0) / trials))


def _point_summary(point, rows):
    out = {
        "n": point.n,
        "m": point.m,
        "p": point.p,
        "s": point.s,
        "epsilon": point.epsilon,
        "trials": len(rows),
    }
    errors = [r.relative_error for r in rows if r.relative_error is not None]
    if errors:
        out["median_error"] = float(np.median(errors))
        rate = float(np.mean([1.0 if r.success else 0.0 for r in rows]))
        out["success_rate"] = rate
        out["binomial_se"] = _binomial_se(rate, len(rows))
    snorms = [r.snorm for r in rows if r.snorm is not None]
    if snorms:
        out["mean_snorm"] = float(np.mean(snorms))
    psnrs = [r.psnr for r in rows if r.psnr is not None]
    if psnrs:
        out["median_psnr"] = float(np.median(psnrs))
    return out


def _aggregate(points, rows):
    by_point = {}
    for r in rows:
        by_point.setdefault(r.grid_index, []).append(r)
    per_point = []
    for gi, point in enumerate(points):
        summary = _point_summary(point, by_point.get(gi, []))
        summary["grid_index"] = gi
        per_point.append(summary)
    return {"per_point": per_point}


def _slope_fits(points, aggregates):
    """Least-squares slope of log(mean snorm) against log(m) per (n,p,s).

    Points sharing an m (one per epsilon) are averaged first; a fit needs
    at least two distinct m.
    """
    fits = []
    combos = sorted({(pt.n, pt.p, pt.s) for pt in points})
    for n, p, s in combos:
        by_m = {}
        for summary in aggregates["per_point"]:
            if (summary["n"], summary["p"], summary["s"]) == (n, p, s):
                mean = summary.get("mean_snorm")
                if mean is not None and mean > 0:
                    by_m.setdefault(summary["m"], []).append(mean)
        if len(by_m) >= 2:
            xs = [np.log(m) for m in by_m]
            ys = [np.log(np.mean(means)) for means in by_m.values()]
            slope, intercept = np.polyfit(xs, ys, 1)
            fits.append(
                {"n": n, "p": p, "s": s, "slope": float(slope), "intercept": float(intercept)}
            )
    return fits


def _stability_fit(cfg, points, rows):
    """Fit per-trial absolute error against [sqrt(2)*eps, tail term]."""
    h_norm = {}
    tail = {}
    for gi, pt in enumerate(points):
        _, h = _stability_instance(cfg, pt)
        h_norm[gi] = float(np.linalg.norm(h))
        tail[gi] = _tail_term(h, pt.s)
    errors = []
    design = []
    for r in rows:
        if r.relative_error is None:
            continue
        errors.append(r.relative_error * h_norm[r.grid_index])
        design.append([np.sqrt(2.0) * r.epsilon, tail[r.grid_index]])
    coeffs = [0.0, 0.0]
    if errors:
        design = np.asarray(design)
        errors = np.asarray(errors)
        keep = [j for j in range(2) if np.any(design[:, j] != 0.0)]
        if keep:
            sol, *_ = np.linalg.lstsq(design[:, keep], errors, rcond=None)
            for j, c in zip(keep, sol):
                coeffs[j] = float(c)
    return {
        "noise_coefficient": coeffs[0],
        "tail_coefficient": coeffs[1],
        "tail_terms": {str(gi): tail[gi] for gi in tail},
        "h_norms": {str(gi): h_norm[gi] for gi in h_norm},
    }


def _trial_fn(kind):
    """The trial function of an experiment kind.

    The names are looked up on every call, so a wrapper bound to this
    module's ``_rip_trial`` or ``_recovery_trial`` sees every trial.
    """
    if kind == "rip_scaling":
        return _rip_trial
    if kind == "stability":
        return _stability_trial
    if kind == "coded_aperture":
        return functools.partial(_recovery_trial, coded=True)
    return _recovery_trial


def run_experiment(cfg, threads=1, reuse=()):
    """Run the trials of ``cfg.kind`` over the config's grid and aggregate them.

    ``reuse`` supplies already-computed TrialRows (resume support): every
    (grid_index, trial_index) they do not cover is run, and the record
    holds the union sorted by that key.  Identical config and base_seed
    give an identical record up to wall_time regardless of threads.
    """
    points = grid_points(cfg)
    done = {(r.grid_index, r.trial_index): r for r in reuse}
    tasks = [
        (gi, t) for gi in range(len(points)) for t in range(cfg.trials) if (gi, t) not in done
    ]
    for r in _run_tasks(_trial_fn(cfg.kind), cfg, points, tasks, threads):
        done[r.grid_index, r.trial_index] = r
    rows = [done[key] for key in sorted(done)]
    agg = _aggregate(points, rows)
    if cfg.kind == "rip_scaling":
        agg["fits"] = _slope_fits(points, agg)
    elif cfg.kind == "stability":
        agg["stability_fit"] = _stability_fit(cfg, points, rows)
    return ExperimentRecord(config=cfg, trials=rows, aggregates=agg)


def replay_trial(cfg, grid_index, trial_index):
    """Re-run one trial in isolation; equals the full run's row (mod time)."""
    point = grid_points(cfg)[grid_index]
    return _trial_fn(cfg.kind)(cfg, grid_index, point, trial_index)
