"""Sparse recovery solvers.

* :func:`solve_bpdn` -- l1 minimization subject to ||Phi x - y|| <= eps,
  solved as a sequence of l1-penalized least-squares problems (FISTA at
  the fixed step 1/(1.01 ||Phi||^2), with momentum restarts) with
  root-finding on the penalty so the residual lands on the noise budget.
  One continuation loop serves every eps; eps = 0 drives the residual down
  to feas_tol * ||y|| instead of literal zero.
* :func:`solve_iht` -- iterative hard thresholding
  x <- H_s(x - mu * Phi^T (Phi x - y)) at the fixed step mu = 1/||Phi||^2.
* :func:`operator_norm_sq` -- ||Phi||^2, from the held Gram or by
  Lanczos on ``gram_apply``; it sets the FISTA and IHT steps.
* :func:`solve_oracle_ls` -- least squares restricted to a known support;
  the information-unbeatable baseline.
* :func:`reference_bpdn` -- slow, algorithmically independent solution of
  the same constrained program (LP for eps = 0, SQP on the split
  formulation otherwise); used by tests to certify solve_bpdn.

FISTA and IHT both take the gradient step z -> z - mu Phi^T (Phi z - y),
an affine map M z + c with M = I - mu Phi^T Phi and c = mu Phi^T y.  Each
solve builds it once (:func:`_step_map`) in one of two forms:

* held Gram -- an operator that holds its Gram ``op.gram`` (a
  :class:`~sparsep.operators.MeasurementOperator` with input_len**2 <=
  GRAM_KERNEL_ELEMENTS) steps by one N x N matvec and one add, and
  ||Phi||^2 is ``eigvalsh(op.gram)[-1]``;
* ``gram_apply`` -- any other operator steps by z - mu (Phi^T Phi z -
  Phi^T y) with one ``gram_apply``, and ||Phi||^2 comes from Lanczos on
  ``gram_apply``.  The operator picks its kernel for Phi^T Phi z (the lag
  spectrum or one ``apply`` and one ``adjoint``; the table in
  :mod:`sparsep.operators`).

FISTA then computes Phi x - y once per continuation stage, and IHT once,
at return.  The Gram bound sits at the measured crossover (the table in
:mod:`sparsep.operators`).  The Gram costs N^2 per step against about
2 m N for the two calls, so above N = 128 it wins only on tall operators,
and its eigvalsh loses to Lanczos.  At N <= 128 an iteration is about ten
numpy calls on short vectors, so their overhead sets its cost.  Every
product in the loops is ``@``, not ``ndarray.dot`` or ``np.linalg.norm``
(which calls ``dot``): ``dot`` releases the GIL on each call, and two
experiment threads that re-take it that often ran slower than with ``@``.

Solvers accept any operator exposing
apply/adjoint/gram_apply/input_len/output_len, and a finite y that is
zero or has ||y||^2 a normal float64 (DataError "rescale y" otherwise:
the norms the stops read would under/overflow).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DataError, DimensionError, ParameterError
from .probes import is_finite, is_integer

_NORM_SEED = 0x5EED
# _fista bounds ||x_new|| by a sum of computed norms, each within about N
# ulps of exact, over at most max_iter additions; this covers that rounding
# far beyond any N or max_iter here
_NORM_SLACK = 1.0 + 1e-6
# Most unknowns reference_bpdn takes: a slow dense certifier for test-size instances
_REFERENCE_UNKNOWNS = 64


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
    """``residual`` is Phi x - y as the solver holds it."""
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
    """||Phi||^2 = lambda_max(Phi^T Phi).

    From ``eigvalsh(op.gram)`` when the operator holds its Gram, else by
    Lanczos (ARPACK ``eigsh``) on ``gram_apply``, exact to rounding in a
    few dozen steps.  Deterministic: the start vector and ARPACK's restart
    vectors come from a fixed seed, so every call on the same operator
    returns the same bits, in any thread.
    """
    gram = getattr(op, "gram", None)
    if gram is not None:
        return float(np.linalg.eigvalsh(gram)[-1])
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    from . import rng

    n, gram = op.input_len, op.gram_apply
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
    keep = np.argsort(-np.abs(v), kind="stable")[:s]
    out[keep] = v[keep]
    return out


def _step_map(op, y, mu, corr=None):
    """The gradient step z -> z - mu Phi^T (Phi z - y) of 0.5 ||Phi x - y||^2.

    It is affine, M z + c with M = I - mu G and c = mu Phi^T y, so for an
    operator that holds its Gram G (``op.gram``) it is one N x N matvec
    and one add, and for any other it is z - mu (G z - Phi^T y) with one
    ``gram_apply``; ``corr`` is Phi^T y when the caller holds it.
    """
    gram = getattr(op, "gram", None)
    corr = op.adjoint(y) if corr is None else corr
    if gram is None:
        return lambda z: z - mu * (op.gram_apply(z) - corr)
    mat = np.eye(op.input_len) - mu * gram
    c = mu * corr
    return lambda z: mat @ z + c


def _fista(step, lam_step, x0, tol, max_iter):
    """l1-penalized least squares min 0.5||Phi x - y||^2 + lam ||x||_1.

    FISTA at the fixed step 1/L (L >= ||Phi||^2, so every step descends)
    with gradient-based momentum restarts, started at x0; ``step`` is the
    gradient step of :func:`_step_map` at mu = 1/L and ``lam_step`` is
    lam / L; max_iter >= 1.  Returns (x, iterations).

    The iterate ``u - u.clip(-lam_step, lam_step)`` has the values of
    ``soft_threshold(u, lam_step)`` but +0.0 where that has -0.0, so the
    returned x is soft_threshold of the last step.  ``bound`` is at least
    max(1, ||x_new||): the last such value computed plus every step norm
    since.  ||x_new|| is computed only when the step is small enough next
    to that bound (times _NORM_SLACK) for the stop test to pass.
    """
    x = z = x0
    t = 1.0
    it = 0
    bound = math.inf
    while True:
        it += 1
        u = step(z)
        x_new = u - u.clip(-lam_step, lam_step)
        dx = x_new - x
        if (z - x_new) @ dx > 0.0:
            t = 1.0  # momentum restart
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * dx
        # sqrt(v @ v) is what np.linalg.norm computes for 1-D float64, at less call overhead
        step_norm = math.sqrt(dx @ dx)
        bound += step_norm
        step_ok = False
        if step_norm <= tol * _NORM_SLACK * bound:
            bound = max(1.0, math.sqrt(x_new @ x_new))
            step_ok = step_norm <= tol * bound
        x, t = x_new, t_new
        if step_ok or it >= max_iter:
            return soft_threshold(u, lam_step), it


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
    "lambda bracket collapsed".  The inner FISTA solves take the fixed step
    1/(1.01 ||Phi||^2) (:func:`operator_norm_sq`) through the solve's one
    step map; each stage ends with one ``apply`` for its residual.
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

    L = 1.01 * operator_norm_sq(op)
    step = _step_map(op, y, 1.0 / L, corr)
    root_rtol = 1e-6

    x = np.zeros(n)
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
        x, it = _fista(step, lam / L, x, tol, budget)
        iters += it
        res = op.apply(x) - y
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

    x <- H_s(x - mu * Phi^T (Phi x - y)) at the fixed step mu = 1/||Phi||^2
    (:func:`operator_norm_sq`; 1 for a zero operator).  That step
    minimizes a majorizer of 0.5 ||Phi x - y||^2 over s-sparse x, so the
    residual never increases (Blumensath & Davies 2009).  The step is the
    solve's one step map, and the residual is computed once, at return.
    Stops when the iterate change drops below opt_tol * ||x||, or when
    max_iter is reached.  s must be an integer >= 1.
    """
    if not is_integer(s) or s < 1:
        raise ParameterError(f"s must be an integer >= 1, got {s!r}")
    y = _check_y(op, y)
    lips = operator_norm_sq(op)
    step = _step_map(op, y, 1.0 / lips if lips > 0 else 1.0)
    x = np.zeros(op.input_len)
    converged = False
    it = 0
    while it < cfg.max_iter:
        it += 1
        x_new = hard_threshold(step(x), s)
        dx = x_new - x
        x = x_new
        if math.sqrt(dx @ dx) <= cfg.opt_tol * math.sqrt(x @ x):
            converged = True
            break
    return _result(x, op.apply(x) - y, it, converged, "iht")


def solve_oracle_ls(op, y, support):
    """Least squares on a known support (minimum-norm if rank deficient).

    ``support`` holds integer indices; ParameterError for any other entry.
    """
    y = _check_y(op, y)
    support = list(support)
    if not all(is_integer(i) for i in support):
        raise ParameterError(f"support entries must be integers, got {support!r}")
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


def reference_bpdn(phi, y, eps):
    """Independent slow solution of min ||x||_1 s.t. ||Phi x - y|| <= eps.

    eps = 0 is solved exactly as a linear program on the positive/negative
    split; eps > 0 runs sequential quadratic programming on the same split
    with the quadratic constraint.  Dense instances with at most 64
    unknowns only (BudgetError otherwise).
    """
    phi = np.asarray(phi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != y.size:
        raise DimensionError(f"phi {phi.shape} does not match y {y.shape}")
    n = phi.shape[1]
    if n > _REFERENCE_UNKNOWNS:
        raise BudgetError(f"reference solver limited to {_REFERENCE_UNKNOWNS} unknowns, got {n}")
    if not eps >= 0:
        raise ParameterError(f"epsilon must be >= 0, got {eps}")
    if np.linalg.norm(y) <= eps:
        return np.zeros(n)

    from scipy.optimize import linprog, minimize

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
