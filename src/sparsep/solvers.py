"""Sparse recovery solvers.

* :func:`solve_bpdn` -- l1 minimization subject to ||Phi x - y|| <= eps,
  solved as a sequence of l1-penalized least-squares problems (FISTA with
  backtracking and momentum restarts) with root-finding on the penalty so
  the residual lands on the noise budget.  One continuation loop serves
  every eps; eps = 0 drives the residual down to feas_tol * ||y|| instead
  of literal zero.  Each FISTA iteration makes two operator calls, one
  ``adjoint`` and one ``apply``, plus one ``apply`` per backtrack.
* :func:`solve_iht` -- iterative hard thresholding
  x <- H_s(x + mu * Phi^T (y - Phi x)) with a backtracked step.
* :func:`operator_norm_sq` -- ||Phi||^2 by Lanczos; it sets the first
  FISTA step and the IHT step.
* :func:`solve_oracle_ls` -- least squares restricted to a known support;
  the information-unbeatable baseline.
* :func:`reference_bpdn` -- slow, algorithmically independent solution of
  the same constrained program (LP for eps = 0, SQP on the split
  formulation otherwise); used by tests to certify solve_bpdn.

Solvers accept any operator exposing apply/adjoint/input_len/output_len,
and a finite y that is zero or has ||y||^2 a normal float64 (DataError
"rescale y" otherwise: the norms the stops read would under/overflow).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog, minimize
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import BudgetError, DataError, DimensionError, ParameterError
from .probes import is_finite, is_integer

_NORM_SEED = 0x5EED


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and tolerances; eps and s are solver arguments."""

    max_iter: int = 5000
    feas_tol: float = 1e-6
    opt_tol: float = 1e-8

    def __post_init__(self):
        if not is_integer(self.max_iter) or self.max_iter < 1:
            raise ParameterError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not all(is_finite(tol) and tol > 0 for tol in (self.feas_tol, self.opt_tol)):
            raise ParameterError("tolerances must be finite and positive")


@dataclass(frozen=True)
class RecoveryResult:
    x_hat: np.ndarray = field(repr=False)
    residual_norm: float
    l1_norm: float
    iterations: int
    converged: bool
    method: str
    note: str = ""


def _check_y(op, y):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (op.output_len,):
        raise DimensionError(f"y must have length {op.output_len}, got {y.shape}")
    if not np.all(np.isfinite(y)):
        raise DataError("y contains non-finite entries")
    with np.errstate(over="ignore"):
        yy = float(y @ y)
    if not np.finfo(float).tiny <= yy < np.inf and np.any(y):
        raise DataError(f"||y||^2 = {yy:g} is not a normal float64; rescale y")
    return y


def _result(x, residual, iterations, converged, method, note=""):
    """``residual`` is Phi x - y (or its negative) as the solver holds it."""
    return RecoveryResult(
        x_hat=x,
        residual_norm=float(np.linalg.norm(residual)),
        l1_norm=float(np.sum(np.abs(x))),
        iterations=iterations,
        converged=converged,
        method=method,
        note=note,
    )


def operator_norm_sq(op):
    """||Phi||^2 = lambda_max(Phi^T Phi) by Lanczos (ARPACK ``eigsh``).

    Each Lanczos step is one ``apply`` and one ``adjoint``; the value is
    exact to rounding in a few dozen steps.  Deterministic: the start
    vector and ARPACK's restart vectors come from a fixed seed, so every
    call on the same operator returns the same bits, in any thread.
    """
    from . import rng

    n = op.input_len

    def gram(v):
        return op.adjoint(op.apply(v))

    if n == 1:  # eigsh needs k < n
        return float(gram(np.ones(1))[0])
    v0 = rng.gaussians(_NORM_SEED, n)
    try:
        lam = eigsh(LinearOperator((n, n), matvec=gram, dtype=np.float64), k=1,
                    which="LA", v0=v0, rng=_NORM_SEED, return_eigenvectors=False)
    except ArpackError:
        if np.any(gram(v0)):
            raise
        return 0.0  # ARPACK cannot start on a zero Gram
    return float(lam[0])


def soft_threshold(v, tau):
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def hard_threshold(v, s):
    """Keep the s largest magnitudes; ties resolved toward lower indices."""
    out = np.zeros_like(v)
    if s <= 0:
        return out
    if s >= v.size:
        return v.copy()
    keep = np.argsort(-np.abs(v), kind="stable")[:s]
    out[keep] = v[keep]
    return out


def _fista(op, y, lam, x0, r0, lips, tol, max_iter):
    """l1-penalized least squares min 0.5||Phi x - y||^2 + lam ||x||_1.

    Backtracking FISTA with gradient-based momentum restarts, started at
    x0 with its residual r0 = Phi x0 - y; max_iter >= 1.  Each iteration
    makes one ``adjoint`` and one ``apply`` (plus one ``apply`` per
    backtrack): the extrapolated residual Phi z - y follows by linearity
    from the two latest exact residuals, as in NESTA/TFOCS.  Returns
    (x, Phi x - y, iterations, local Lipschitz estimate).
    """
    x = x0.copy()
    z = x0.copy()
    rx = rz = r0
    t = 1.0
    L = max(lips, 1e-300)
    it = 0
    while True:
        it += 1
        fz = 0.5 * float(rz @ rz)
        grad = op.adjoint(rz)
        while True:
            x_new = soft_threshold(z - grad / L, lam / L)
            d = x_new - z
            dd = float(d @ d)
            r_new = op.apply(x_new) - y
            f_new = 0.5 * float(r_new @ r_new)
            if f_new <= fz + float(grad @ d) + 0.5 * L * dd + 1e-12 * max(fz, 1.0):
                break
            L *= 2.0
        if float((z - x_new) @ (x_new - x)) > 0.0:
            t = 1.0  # momentum restart
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_new
        z = x_new + beta * (x_new - x)
        step_ok = np.linalg.norm(x_new - x) <= tol * max(1.0, np.linalg.norm(x_new))
        x, t = x_new, t_new
        if step_ok or it >= max_iter:
            return x, r_new, it, L
        # Phi z - y from exact residuals, so rounding does not accumulate;
        # beta = 0 after a restart gives r_new itself
        rz = r_new + beta * (r_new - rx)
        rx = r_new


def solve_bpdn(op, y, epsilon, cfg):
    """min ||x||_1 subject to ||Phi x - y||_2 <= epsilon.

    Penalty continuation: the residual r(lam) of the penalized problem is
    increasing in lam, so one loop drives it onto the effective budget
    max(epsilon, feas_tol * ||y||): lam drops 8x per stage until r is at
    or below the budget, then a bracketed log-secant search closes in.
    For epsilon = 0 the first such r is accepted (the penalized path
    converges to the minimum-l1 interpolator as lam -> 0).  If the bracket
    shrinks to adjacent floats, the search restarts once with 1000x tighter
    inner solves; a second collapse stops unconverged with the note
    "lambda bracket collapsed".  The inner FISTA solves start at step
    1/(1.01 ||Phi||^2), with ||Phi||^2 from Lanczos (:func:`operator_norm_sq`),
    and make two operator calls per iteration.
    """
    if not epsilon >= 0:
        raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
    y = _check_y(op, y)
    n = op.input_len
    ynorm = float(np.linalg.norm(y))
    if ynorm <= epsilon:
        return _result(np.zeros(n), -y, 0, True, "bpdn", note="zero is feasible")
    eps_eff = max(epsilon, cfg.feas_tol * ynorm)

    corr = op.adjoint(y)
    lam_max = float(np.max(np.abs(corr)))
    if lam_max == 0.0:
        converged = ynorm <= eps_eff * (1.0 + cfg.feas_tol)
        return _result(np.zeros(n), -y, 0, converged, "bpdn", note="Phi^T y = 0")

    lips = 1.01 * operator_norm_sq(op)
    root_rtol = 1e-6

    x = np.zeros(n)
    res = op.apply(x) - y
    iters = 0
    lam_hi, r_hi = lam_max, ynorm
    lam_lo, r_lo = None, None
    lam = 0.5 * lam_max
    tol = cfg.opt_tol
    converged = False
    note = ""
    for _ in range(80):
        budget = cfg.max_iter - iters
        if budget <= 0:
            break
        x, res, it, lips = _fista(op, y, lam, x, res, lips, tol, budget)
        iters += it
        r = float(np.linalg.norm(res))
        if r <= eps_eff if epsilon == 0.0 else abs(r - eps_eff) <= root_rtol * eps_eff:
            converged = True
            break
        if r > eps_eff:
            lam_hi, r_hi = lam, r
        else:
            lam_lo, r_lo = lam, r
        if lam_lo is None:
            lam = lam / 8.0
        else:
            # secant on log r vs log lam, clipped inside the bracket
            q = np.log(r_hi / r_lo) / np.log(lam_hi / lam_lo)
            if q > 0 and np.isfinite(q):
                lam_new = lam_hi * (eps_eff / r_hi) ** (1.0 / q)
            else:
                lam_new = np.sqrt(lam_hi * lam_lo)
            if not (lam_lo < lam_new < lam_hi):
                lam_new = np.sqrt(lam_hi * lam_lo)
            if not (lam_lo < lam_new < lam_hi):
                # the bracket shrank to adjacent floats with r on both sides
                # of eps: the inner solves are too loose to resolve r(lam).
                # Solve 1000x tighter and re-bracket from lam_hi once.
                if tol < cfg.opt_tol:
                    note = "lambda bracket collapsed"
                    break
                tol = cfg.opt_tol * 1e-3
                lam_lo, r_lo = None, None
                lam_new = lam_hi / 8.0
            lam = lam_new
        if epsilon > 0.0 and lam < lam_max * 1e-16:
            break
    return _result(x, res, iters, converged, "bpdn", note=note)


def solve_iht(op, y, s, cfg):
    """Iterative hard thresholding toward an s-sparse estimate.

    Each step starts at 1/||Phi||^2 (Lanczos, :func:`operator_norm_sq`) and is halved until the residual does
    not increase.  Stops when the iterate change drops below
    opt_tol * ||x||, when 60 halvings find no such step (the iterate is
    then stationary), or when max_iter is reached.
    """
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    y = _check_y(op, y)
    n = op.input_len
    lips = operator_norm_sq(op)
    mu0 = 1.0 / lips if lips > 0 else 1.0
    x = np.zeros(n)
    r = y.copy()
    r_norm = float(np.linalg.norm(r))
    converged = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        grad = op.adjoint(r)
        mu = mu0
        for _ in range(60):
            x_new = hard_threshold(x + mu * grad, s)
            r_new = y - op.apply(x_new)
            r_new_norm = float(np.linalg.norm(r_new))
            if r_new_norm <= r_norm * (1.0 + 1e-12):
                break
            mu *= 0.5
        else:
            converged = True
            break
        step = float(np.linalg.norm(x_new - x))
        x, r, r_norm = x_new, r_new, r_new_norm
        if step <= cfg.opt_tol * float(np.linalg.norm(x)):
            converged = True
            break
    return _result(x, r, it, converged, "iht")


def solve_oracle_ls(op, y, support):
    """Least squares on a known support (minimum-norm if rank deficient)."""
    y = _check_y(op, y)
    support = np.asarray(sorted(set(int(i) for i in support)), dtype=int)
    if support.size > op.output_len:
        raise DimensionError(
            f"support size {support.size} exceeds output length {op.output_len}"
        )
    if support.size and (support.min() < 0 or support.max() >= op.input_len):
        raise DimensionError("support index out of range")
    x = np.zeros(op.input_len)
    note = ""
    if support.size:
        cols = np.empty((op.output_len, support.size))
        for out_col, i in enumerate(support):
            e = np.zeros(op.input_len)
            e[i] = 1.0
            cols[:, out_col] = op.apply(e)
        z, _, rank, _ = np.linalg.lstsq(cols, y, rcond=None)
        if rank < support.size:
            note = "rank_deficient"
        x[support] = z
    return _result(x, op.apply(x) - y, 1, True, "oracle_ls", note=note)


def reference_bpdn(phi, y, eps, size_limit=64):
    """Independent slow solution of min ||x||_1 s.t. ||Phi x - y|| <= eps.

    eps = 0 is solved exactly as a linear program on the positive/negative
    split; eps > 0 runs sequential quadratic programming on the same split
    with the quadratic constraint.  Dense instances with at most
    ``size_limit`` unknowns only.
    """
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != y.size:
        raise DimensionError(f"phi {phi.shape} does not match y {y.shape}")
    n = phi.shape[1]
    if n > size_limit:
        raise BudgetError(f"reference solver limited to {size_limit} unknowns, got {n}")
    if not eps >= 0:
        raise ParameterError(f"epsilon must be >= 0, got {eps}")
    if np.linalg.norm(y) <= eps:
        return np.zeros(n)

    lp = linprog(
        c=np.ones(2 * n),
        A_eq=np.hstack([phi, -phi]),
        b_eq=y,
        bounds=[(0, None)] * (2 * n),
        method="highs",
    )
    if eps == 0.0:
        if not lp.success:
            raise DataError(f"equality-constrained reference LP failed: {lp.message}")
        return lp.x[:n] - lp.x[n:]

    x_ls, *_ = np.linalg.lstsq(phi, y, rcond=None)
    if np.linalg.norm(phi @ x_ls - y) > eps * (1.0 + 1e-9) + 1e-12:
        raise DataError("instance is infeasible: min residual exceeds epsilon")
    # the exact interpolator is feasible and a good SQP start
    x_start = lp.x[:n] - lp.x[n:] if lp.success else x_ls
    w0 = np.concatenate([np.maximum(x_start, 0.0), np.maximum(-x_start, 0.0)])

    def split(w):
        return w[:n] - w[n:]

    def constraint(w):
        r = phi @ split(w) - y
        return eps**2 - float(r @ r)

    def constraint_jac(w):
        r = phi @ split(w) - y
        g = -2.0 * (phi.T @ r)
        return np.concatenate([g, -g])

    def feasible(x):
        return np.linalg.norm(phi @ x - y) <= eps * (1.0 + 1e-7)

    res = minimize(
        fun=lambda w: float(np.sum(w)),
        x0=w0,
        jac=lambda w: np.ones(2 * n),
        bounds=[(0, None)] * (2 * n),
        constraints=[{"type": "ineq", "fun": constraint, "jac": constraint_jac}],
        method="SLSQP",
        options={"maxiter": 2000, "ftol": 1e-14},
    )
    if res.success and feasible(split(res.x)):
        return split(res.x)

    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quasi-Newton warns on the linear objective
        res = minimize(
            fun=lambda w: float(np.sum(w)),
            x0=w0,
            jac=lambda w: np.ones(2 * n),
            bounds=[(0, None)] * (2 * n),
            constraints=[
                {"type": "ineq", "fun": constraint, "jac": lambda w: constraint_jac(w)[None, :]}
            ],
            method="trust-constr",
            options={"maxiter": 5000, "gtol": 1e-12, "xtol": 1e-14},
        )
    if res.success and feasible(split(res.x)):
        return split(res.x)
    raise DataError(f"reference solver failed: {res.message}")
