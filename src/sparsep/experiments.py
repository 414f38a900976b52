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
  frames), solved through the folded operator on the difference probes
  (:func:`_difference_probes`).

rip_scaling adds the slope ``fits`` to the aggregates and stability adds
``stability_fit``; :func:`replay_trial` re-runs any one trial.

Seed discipline: each trial's seed is
``derive_seed(base_seed, grid_index, trial_index)``; probes, channel
support, amplitudes and noise use sub-seeds ``derive_seed(trial_seed, 1..4)``.
Stability fixes its instance per dimension tuple (not per grid index) so
that every epsilon sees the same probes and channel.  Trials are
independent, may run on any thread, and aggregate order-independently.
"""

import collections
import functools
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import rng
from .errors import BudgetError, DataError, ParameterError
from .operators import folded_operator, linear_operator
from .probes import ProblemDims, ProbeSet, _check_seed, generate_probes, is_finite, is_integer
from .snorm import EXACT, RANDOMIZED, rip_delta
from .solvers import SolverConfig, solve_bpdn, solve_iht, solve_oracle_ls

# Config fields each kind never reads; __post_init__ requires their defaults.
_UNREAD = {
    "rip_scaling": ("epsilon_grid", "method", "solver", "success_threshold", "decay",
                    "block_difference"),
    "phase_transition": ("snorm_mode", "decay", "block_difference"),
    "stability": ("snorm_mode", "block_difference"),
    "coded_aperture": ("snorm_mode", "decay"),
}
KINDS = tuple(_UNREAD)
# Names the arithmetic behind every TrialRow float (operator kernel, solver
# iterations, Lipschitz constant, restricted-norm Gram and block kernel).
# Change it with any change that moves trial bits, so that ``--resume``
# never mixes rows of two versions.
NUMERICS = ("rfft-kernel/fista-az-by-linearity/lanczos-norm/lag-gram-delta/dense-below-2**17"
            "/circulant-column-spectra/closed-form-snorm-3x3/held-gram-step/lag-spectrum-step"
            "/gram-apply-step")
METHODS = ("bpdn", "iht", "oracle")
_GRIDS = ("n_grid", "m_grid", "p_grid", "s_grid", "epsilon_grid")

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
        for name in _GRIDS:
            grid = tuple(getattr(self, name))
            object.__setattr__(self, name, grid)
            if not grid:
                raise ParameterError(f"{name} must be non-empty")
            if name != "epsilon_grid" and not all(map(is_integer, grid)):
                raise ParameterError(f"{name} values must be integers, got {list(grid)}")
        _check_seed(self.base_seed, "base_seed")
        threshold = self.success_threshold
        for name, ok, need in (
            ("kind", self.kind in KINDS, f"one of {KINDS}"),
            ("method", self.method in METHODS, f"one of {METHODS}"),
            ("snorm_mode", self.snorm_mode in (EXACT, RANDOMIZED), f"{EXACT!r} or {RANDOMIZED!r}"),
            ("epsilon_grid", all(is_finite(eps, 0.0) for eps in self.epsilon_grid),
             "finite values >= 0"),
            ("trials", is_integer(self.trials) and self.trials >= 1, "an integer >= 1"),
            ("success_threshold", is_finite(threshold, 0.0) and threshold > 0, "finite and > 0"),
            ("decay", is_finite(self.decay, 0.0), "finite and >= 0"),
            ("block_difference", isinstance(self.block_difference, bool), "true or false"),
            ("solver", isinstance(self.solver, SolverConfig), "an object of SolverConfig fields"),
        ):
            if not ok:
                raise ParameterError(f"{name} must be {need}, got {getattr(self, name)!r}")
        for f in fields(self):
            if f.name in _UNREAD[self.kind] and getattr(self, f.name) != f.default:
                raise ParameterError(f"{self.kind} ignores {f.name}; leave it at {f.default!r}")
        s_min = 1 if self.kind == "rip_scaling" else 0
        grids = (self.n_grid, self.m_grid, self.p_grid, self.s_grid)
        for n, m, p, s in itertools.product(*grids):
            dims = ProblemDims(n, m, p)
            if not s_min <= s <= dims.signal_len:
                raise ParameterError(
                    f"s={s} is outside [{s_min}, n*p={dims.signal_len}] at n={n}, p={p}"
                )

    def to_dict(self):
        d = asdict(self)
        for name in _GRIDS:
            d[name] = list(d[name])
        return d

    @classmethod
    def from_dict(cls, raw):
        """Config from parsed JSON; a scalar grid is a one-point grid."""
        _check_names(cls, raw, "config")
        raw = dict(raw)
        if isinstance(raw.get("solver"), dict):
            _check_names(SolverConfig, raw["solver"], "solver")
            raw["solver"] = SolverConfig(**raw["solver"])
        for name in _GRIDS:
            if name in raw and not isinstance(raw[name], (list, tuple)):
                raw[name] = (raw[name],)
        return cls(**raw)


def _check_names(cls, raw, what):
    """ParameterError unless ``raw`` is a dict naming each required field of ``cls``, no other."""
    if not isinstance(raw, dict):
        raise ParameterError(f"{what} must be a JSON object, got {type(raw).__name__}")
    required = {f.name: f.default is MISSING for f in fields(cls)}
    unknown = sorted(set(raw) - set(required))
    missing = sorted(name for name, needed in required.items() if needed and name not in raw)
    if unknown or missing:
        raise ParameterError(f"{what}: unknown fields {unknown}, missing fields {missing}")


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
    grids = itertools.product(*(getattr(cfg, name) for name in _GRIDS))
    return [GridPoint(int(n), int(m), int(p), int(s), float(eps)) for n, m, p, s, eps in grids]


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
    """The image x of frame differences c: x_k = c_0 + ... + c_k over the p blocks."""
    return np.cumsum(v.reshape(p, n), axis=0).reshape(-1)


def _difference_probes(probes):
    """The probes psi_j = phi_j + ... + phi_{p-1} that see frame differences.

    sum_k phi_k * x_k = sum_j psi_j * c_j for x = _block_cumsum(c), so the
    operator on psi measures c as the one on ``probes`` measures x.  The
    set keeps the drawn set's seed, which regenerates phi, not psi.
    """
    return ProbeSet(probes.dims, probes.seed, np.cumsum(probes.phi[::-1], axis=0)[::-1])


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


def _row(gi, gp, trial, trial_seed, start, **columns):
    return TrialRow(grid_index=gi, trial_index=trial, seed=trial_seed, **asdict(gp),
                    wall_time=time.perf_counter() - start, **columns)


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


def _recovery_trial(cfg, gi, gp, trial):
    start = time.perf_counter()
    coded = cfg.kind == "coded_aperture"
    trial_seed = rng.derive_seed(cfg.base_seed, gi, trial)
    dims = ProblemDims(gp.n, gp.m, gp.p)
    probes = generate_probes(dims, rng.derive_seed(trial_seed, 1))
    target = rng.sparse_channel(
        rng.derive_seed(trial_seed, 2), rng.derive_seed(trial_seed, 3), dims.signal_len, gp.s
    )
    if coded and cfg.block_difference:
        # target holds sparse frame differences; the image is their block
        # cumsum, measured through the difference probes (whose seed
        # regenerates the drawn probes, not them)
        op = folded_operator(_difference_probes(probes))
        image = functools.partial(_block_cumsum, p=gp.p, n=gp.n)
        return _recover_and_score(
            cfg, gi, gp, trial, start, op, target, image(target), to_image=image, psnr=True
        )
    op = folded_operator(probes)
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
    out = {**asdict(point), "trials": len(rows)}
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

    A fit needs points at two distinct m.
    """
    fits = []
    combos = sorted({(pt.n, pt.p, pt.s) for pt in points})
    for n, p, s in combos:
        xs, ys = [], []
        for summary in aggregates["per_point"]:
            if (summary["n"], summary["p"], summary["s"]) == (n, p, s):
                mean = summary.get("mean_snorm")
                if mean is not None and mean > 0:
                    xs.append(np.log(summary["m"]))
                    ys.append(np.log(mean))
        if len(set(xs)) >= 2:
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
    return _recovery_trial


def complete_points(cfg, rows, source="reuse"):
    """Grid indices of the points whose every trial ``rows`` hold.

    DataError, its message led by ``source``, unless each row is a
    distinct trial of the config: its (grid_index, trial_index) lies in
    the grid and appears once, and it carries its grid point's n, m, p, s,
    epsilon and its trial's seed.
    """
    points = grid_points(cfg)
    seen = set()
    for row in rows:
        key = gi, t = row.grid_index, row.trial_index
        if not (0 <= gi < len(points) and 0 <= t < cfg.trials):
            raise DataError(f"{source}: trial {key} is outside the config's "
                            f"{len(points)} grid points x {cfg.trials} trials")
        if key in seen:
            raise DataError(f"{source}: trial {key} appears twice")
        seen.add(key)
        pt = points[gi]
        if ((row.n, row.m, row.p, row.s, row.epsilon, row.seed)
                != (pt.n, pt.m, pt.p, pt.s, pt.epsilon, rng.derive_seed(cfg.base_seed, gi, t))):
            raise DataError(f"{source}: trial {key} does not match the config's grid point "
                            "or seed")
    counts = collections.Counter(gi for gi, _ in seen)
    return {gi for gi, c in counts.items() if c == cfg.trials}


def run_experiment(cfg, threads=1, reuse=()):
    """Run the trials of ``cfg.kind`` over the config's grid and aggregate them.

    ``reuse`` supplies already-computed TrialRows (resume support): every
    (grid_index, trial_index) they do not cover is run, and the record
    holds the union sorted by that key.  DataError unless every reused row
    is a distinct trial of the config (:func:`complete_points`).  Identical
    config and base_seed give an identical record up to wall_time
    regardless of threads.
    """
    complete_points(cfg, reuse)
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
