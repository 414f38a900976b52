import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from sparsep import rng, solvers
from sparsep.errors import BudgetError, DataError, DimensionError, ParameterError
from sparsep.experiments import _FrameDifferenceOperator
from sparsep.operators import (
    GRAM_KERNEL_ELEMENTS,
    MeasurementOperator,
    Variant,
    build_dense_folded,
    build_dense_linear,
    folded_operator,
    linear_operator,
)
from sparsep.probes import ProblemDims, ProbeSet, generate_probes
from sparsep.solvers import (
    RecoveryResult,
    SolverConfig,
    hard_threshold,
    operator_norm_sq,
    reference_bpdn,
    soft_threshold,
    solve_bpdn,
    solve_iht,
    solve_oracle_ls,
)


class IdentityOp:
    """Test hook: Phi = I."""

    def __init__(self, n):
        self.input_len = self.output_len = n

    def apply(self, x):
        return np.asarray(x, dtype=float).copy()

    def adjoint(self, y):
        return np.asarray(y, dtype=float).copy()


class DenseOp:
    """Test hook: Phi is the matrix ``a``."""

    def __init__(self, a):
        self.a = a
        self.output_len, self.input_len = a.shape

    def apply(self, x):
        return self.a @ x

    def adjoint(self, y):
        return self.a.T @ y


def sparse_instance(d, seed, s, amp_seed_offset=1000):
    probes = generate_probes(d, seed)
    h = np.zeros(d.signal_len)
    support = rng.rand_support(rng.derive_seed(seed, 1), d.signal_len, s)
    h[support] = rng.gaussians(rng.derive_seed(seed, amp_seed_offset), s)
    return probes, h, support


class TestSolverConfig:
    def test_bad_iterations_rejected(self):
        with pytest.raises(ParameterError):
            SolverConfig(max_iter=0)

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ParameterError):
            SolverConfig(feas_tol=0.0)
        with pytest.raises(ParameterError):
            SolverConfig(opt_tol=np.nan)


class TestHardThreshold:
    def test_keeps_largest(self):
        v = np.array([0.1, -3.0, 2.0, 0.0, 2.5])
        out = hard_threshold(v, 2)
        assert np.array_equal(out, [0.0, -3.0, 0.0, 0.0, 2.5])

    def test_tie_break_lowest_index(self):
        v = np.array([1.0, -1.0, 1.0])
        out = hard_threshold(v, 2)
        assert np.array_equal(out, [1.0, -1.0, 0.0])

    def test_s_ge_n_is_identity(self):
        v = np.array([1.0, 2.0])
        assert np.array_equal(hard_threshold(v, 5), v)


class TestSoftThreshold:
    def test_values_and_signs(self):
        v = np.array([3.0, -3.0, 0.5, -0.5, 1.0, -1.0, 0.0])
        out = soft_threshold(v, 1.0)
        assert out.tobytes() == np.array([2.0, -2.0, 0.0, -0.0, 0.0, -0.0, 0.0]).tobytes()
        # negative input in the dead zone gives -0.0, which _fista's clip form
        # (u - u.clip(-tau, tau)) writes as +0.0; the values agree
        assert list(np.signbit(out)) == [False, True, False, True, False, True, False]
        assert np.array_equal(v - v.clip(-1.0, 1.0), out)

    def test_zero_tau_is_identity(self):
        v = np.array([1.5, -2.0, 1e-300, -7.0])
        assert soft_threshold(v, 0.0).tobytes() == v.tobytes()

    def test_tau_above_max_magnitude_gives_signed_zeros(self):
        v = np.array([0.25, -0.5, 0.0, -1e-12])
        out = soft_threshold(v, 0.75)
        assert not np.any(out)
        assert list(np.signbit(out)) == [False, True, False, True]


class TestBPDN:
    def test_zero_when_y_within_budget(self):
        op = IdentityOp(4)
        y = np.array([0.1, 0.2, 0.0, -0.1])
        res = solve_bpdn(op, y, 1.0, SolverConfig())
        assert np.array_equal(res.x_hat, np.zeros(4))
        assert res.converged

    def test_identity_epsilon_zero_returns_y(self):
        op = IdentityOp(4)
        y = np.array([1.0, -2.0, 0.5, 0.0])
        res = solve_bpdn(op, y, 0.0, SolverConfig())
        assert np.linalg.norm(res.x_hat - y) <= 1e-5 * np.linalg.norm(y)
        assert res.converged

    def test_zero_correlation_returns_zero(self):
        # Phi^T y = 0: no lambda moves x off zero, so zero is returned,
        # converged only if ||y|| = 1 meets the budget to within feas_tol
        op = DenseOp(np.array([[1.0], [0.0]]))
        y = np.array([0.0, 1.0])
        res = solve_bpdn(op, y, 0.0, SolverConfig())
        assert np.array_equal(res.x_hat, np.zeros(1))
        assert not res.converged and res.note == "Phi^T y = 0"
        assert solve_bpdn(op, y, 0.9999995, SolverConfig()).converged

    def test_infeasible_epsilon_stops_at_lambda_floor(self):
        # eps = 0.01 lies below the least-squares residual (0.0919), so no
        # lambda reaches it: the continuation stops once lambda falls
        # below lam_max * 1e-16, long before max_iter
        d = ProblemDims(4, 16, 1)
        probes = generate_probes(d, 3)
        op = linear_operator(probes)
        y = op.apply(rng.sparse_channel(1, 2, 4, 2))
        y = y + rng.noise_with_norm(5, op.output_len, 0.1)
        dense = build_dense_linear(probes)
        x_ls, *_ = np.linalg.lstsq(dense, y, rcond=None)
        res = solve_bpdn(op, y, 0.01, SolverConfig())
        assert not res.converged and res.iterations == 132
        assert res.residual_norm >= np.linalg.norm(dense @ x_ls - y) * (1 - 1e-12)

    def test_negative_epsilon_rejected(self):
        for eps in (-0.5, np.nan):
            with pytest.raises(ParameterError):
                solve_bpdn(IdentityOp(3), np.ones(3), eps, SolverConfig())

    def test_nonfinite_y_rejected(self):
        op = IdentityOp(3)
        with pytest.raises(DataError):
            solve_bpdn(op, np.array([1.0, np.nan, 0.0]), 0.0, SolverConfig())

    def test_dimension_mismatch(self):
        op = IdentityOp(3)
        with pytest.raises(DimensionError):
            solve_bpdn(op, np.zeros(4), 0.0, SolverConfig())

    def test_tiny_noiseless_recovery_prescreened(self):
        # instances where the reference oracle certifies exact recovery
        d = ProblemDims(n=3, m=6, p=2)
        checked = 0
        for seed in range(10):
            probes, h, _ = sparse_instance(d, seed, 1)
            op = folded_operator(probes)
            y = op.apply(h)
            x_ref = reference_bpdn(build_dense_folded(probes), y, 0.0)
            if np.linalg.norm(x_ref - h) > 1e-8 * np.linalg.norm(h):
                continue
            checked += 1
            res = solve_bpdn(op, y, 0.0, SolverConfig())
            assert res.converged
            assert np.linalg.norm(res.x_hat - h) <= 1e-5 * np.linalg.norm(h)
        assert checked >= 5

    def test_feasibility_always_met(self):
        d = ProblemDims(n=4, m=12, p=2)
        cfg_tol = 1e-6
        for seed in range(5):
            probes, h, _ = sparse_instance(d, seed, 2)
            op = folded_operator(probes)
            clean = op.apply(h)
            eps = 0.1 * np.linalg.norm(clean)
            y = clean + rng.noise_with_norm(seed, d.m, 0.9 * eps)
            res = solve_bpdn(op, y, eps, SolverConfig(feas_tol=cfg_tol))
            assert res.residual_norm <= eps * (1 + cfg_tol)

    def test_minimality_when_truth_feasible(self):
        d = ProblemDims(n=4, m=16, p=2)
        for seed in range(5):
            probes, h, _ = sparse_instance(d, seed, 2)
            op = folded_operator(probes)
            y = op.apply(h)  # h feasible at eps = 0
            res = solve_bpdn(op, y, 0.0, SolverConfig())
            h_l1 = np.sum(np.abs(h))
            assert res.l1_norm <= h_l1 + 1e-8 * (1 + h_l1) + 1e-6 * h_l1

    def test_objective_certified_against_reference(self):
        combos = [(3, 2), (4, 2), (2, 4), (4, 4), (3, 4)]
        for i in range(10):
            n, p = combos[i % len(combos)]
            d = ProblemDims(n=n, m=n * p + n, p=p)
            probes, h, _ = sparse_instance(d, 1000 + i, 2)
            op = folded_operator(probes)
            clean = op.apply(h)
            if i % 3 == 0:
                eps, y = 0.0, clean
            else:
                eps = 0.15 * np.linalg.norm(clean)
                y = clean + rng.noise_with_norm(i, d.m, 0.8 * eps)
            x_ref = reference_bpdn(build_dense_folded(probes), y, eps)
            ref_obj = np.sum(np.abs(x_ref))
            res = solve_bpdn(op, y, eps, SolverConfig())
            assert res.converged
            assert abs(res.l1_norm - ref_obj) <= 1e-4 * (1 + ref_obj)


class TestIHT:
    def test_zero_measurements_one_iteration(self):
        d = ProblemDims(4, 16, 2)
        op = folded_operator(generate_probes(d, 0))
        res = solve_iht(op, np.zeros(d.m), 2, SolverConfig())
        assert np.array_equal(res.x_hat, np.zeros(d.signal_len))
        assert res.iterations == 1

    def test_recovery_on_screened_instance(self):
        d = ProblemDims(4, 16, 2)
        recovered = 0
        for seed in range(8):
            probes, h, support = sparse_instance(d, 300 + seed, 2)
            op = folded_operator(probes)
            y = op.apply(h)
            oracle = solve_oracle_ls(op, y, support)
            if np.linalg.norm(oracle.x_hat - h) > 1e-10:
                continue
            res = solve_iht(op, y, 2, SolverConfig(max_iter=3000))
            if np.linalg.norm(res.x_hat - h) <= 1e-5 * np.linalg.norm(h):
                recovered += 1
        assert recovered >= 6

    def test_output_sparsity_bound(self):
        d = ProblemDims(4, 16, 3)
        probes, h, _ = sparse_instance(d, 9, 4)
        op = folded_operator(probes)
        y = op.apply(h) + rng.noise_with_norm(1, d.m, 0.5)
        for s in (1, 2, 5):
            res = solve_iht(op, y, s, SolverConfig(max_iter=200))
            assert np.count_nonzero(res.x_hat) <= s

    def test_full_sparsity_is_landweber_with_monotone_residual(self):
        d = ProblemDims(4, 16, 2)
        probes = generate_probes(d, 5)
        op = folded_operator(probes)
        h = rng.gaussians(123, d.signal_len)
        y = op.apply(h)
        residuals = []
        for iters in (1, 5, 20, 80):
            res = solve_iht(op, y, d.signal_len, SolverConfig(max_iter=iters))
            residuals.append(res.residual_norm)
        assert all(residuals[i + 1] <= residuals[i] * (1 + 1e-9) for i in range(3))

    def test_requires_positive_s(self):
        op = IdentityOp(3)
        with pytest.raises(ParameterError):
            solve_iht(op, np.zeros(3), 0, SolverConfig())

    @pytest.mark.parametrize("s", [2.5, 2.0, True, "2"])
    def test_requires_integer_s(self, s):
        with pytest.raises(ParameterError, match="integer"):
            solve_iht(IdentityOp(3), np.ones(3), s, SolverConfig())


class CountingOp:
    """Test hook: forwards to ``base`` and counts apply and adjoint calls.

    It hides the Gram of ``base``, so the solvers step through operator
    calls, unless ``keep_gram`` is set.
    """

    def __init__(self, base, keep_gram=False):
        self.base, self.calls = base, 0
        self.input_len, self.output_len = base.input_len, base.output_len
        if keep_gram:
            self.gram = base.gram

    def apply(self, x):
        self.calls += 1
        return self.base.apply(x)

    def adjoint(self, y):
        self.calls += 1
        return self.base.adjoint(y)


def _iht_case(n, m, p, seed, variant, s, frame=False):
    op = MeasurementOperator(generate_probes(ProblemDims(n, m, p), seed), variant)
    if frame:
        op = _FrameDifferenceOperator(op, p, n)
    return op, rng.gaussians(rng.derive_seed(seed, 9), op.output_len), s


@st.composite
def _iht_cases(draw):
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1 if n > 1 else 2, 4))
    return _iht_case(n, draw(st.integers(n, 24)), p, draw(st.integers(0, 2**64 - 1)),
                     draw(st.sampled_from(Variant)), draw(st.integers(1, n * p - 1)),
                     draw(st.booleans()))


@settings(max_examples=30, deadline=None)
@given(case=_iht_cases())
@example(case=_iht_case(64, 256, 16, 1, Variant.FOLDED, 20))  # above DENSE_KERNEL_ELEMENTS
@example(case=_iht_case(8, 24, 4, 3, Variant.FOLDED, 4, frame=True))
def test_iht_descends_at_two_operator_calls_per_iteration(case):
    # the step 1/||Phi||^2 minimizes a majorizer of the residual over s-sparse
    # x, so no max_iter prefix ends above the one before it; each iteration is
    # one apply and one adjoint, after the norm's Lanczos calls, and the
    # returned residual takes one apply more
    base, y, s = case
    op = CountingOp(base)
    operator_norm_sq(op)
    norm_calls = op.calls
    residuals = [float(np.linalg.norm(y))]
    for max_iter in (1, 2, 3, 5, 8, 13, 21, 34):
        op.calls = 0
        res = solve_iht(op, y, s, SolverConfig(max_iter=max_iter))
        assert op.calls == norm_calls + 2 * res.iterations + 1
        residuals.append(res.residual_norm)
    assert all(b <= a * (1 + 1e-12) for a, b in zip(residuals, residuals[1:]))


def test_held_gram_step_makes_no_operator_calls_per_iteration(monkeypatch):
    # stepping through the held Gram, IHT makes Phi^T y and the returned
    # residual's apply, and solve_bpdn Phi^T y and one apply per FISTA
    # stage, however many iterations they run; the norm reads the Gram
    probes, h, _ = sparse_instance(ProblemDims(8, 24, 4), 3, 4)
    op = CountingOp(folded_operator(probes), keep_gram=True)
    y = op.base.apply(h)
    assert operator_norm_sq(op) > 0 and op.calls == 0
    stages = _count_fista_stages(monkeypatch)
    for method in ("iht", "bpdn"):
        iterations = set()
        for max_iter in (1, 5, 34, 5000):
            op.calls, stages[0] = 0, 0
            if method == "iht":
                iterations.add(solve_iht(op, y, 4, SolverConfig(max_iter=max_iter)).iterations)
                assert op.calls == 2
            else:
                iterations.add(solve_bpdn(op, y, 0.0, SolverConfig(max_iter=max_iter)).iterations)
                assert op.calls == 1 + stages[0]
        assert len(iterations) == 4


def test_lag_route_steps_by_one_gram_apply(monkeypatch):
    # an FFT-kernel operator with K < fft_len runs Lanczos and every FISTA
    # and IHT step through gram_apply: apply and adjoint make only Phi^T y
    # and the residuals (one per FISTA stage, one at IHT's return)
    op, y, s = _step_case(32, 4096, 2, 3, Variant.LINEAR)
    calls = {}
    for name in ("apply", "adjoint", "gram_apply"):
        method = getattr(MeasurementOperator, name)

        def counted(self, v, method=method, name=name):
            calls[name] = calls.get(name, 0) + 1
            return method(self, v)

        monkeypatch.setattr(MeasurementOperator, name, counted)
    operator_norm_sq(op)
    norm_steps = calls.pop("gram_apply")
    assert norm_steps > 0 and not calls
    res = solve_iht(op, y, s, SolverConfig())
    assert calls == {"adjoint": 1, "apply": 1, "gram_apply": norm_steps + res.iterations}
    calls.clear()
    stages = _count_fista_stages(monkeypatch)
    res = solve_bpdn(op, y, 0.0, SolverConfig())
    assert calls == {"adjoint": 1, "apply": stages[0], "gram_apply": norm_steps + res.iterations}


def _count_fista_stages(monkeypatch):
    """Count solve_bpdn's FISTA stages in the returned one-element list."""
    stages, fista = [0], solvers._fista

    def counted(*args):
        stages[0] += 1
        return fista(*args)

    monkeypatch.setattr(solvers, "_fista", counted)
    return stages


def _step_case(n, m, p, seed, variant):
    op = MeasurementOperator(generate_probes(ProblemDims(n, m, p), seed), variant)
    s = max(1, min(4, op.input_len // 4))
    h = np.zeros(op.input_len)
    h[rng.rand_support(rng.derive_seed(seed, 1), op.input_len, s)] = rng.gaussians(seed, s)
    return op, op.apply(h), s


@st.composite
def _step_cases(draw):
    n = draw(st.integers(1, 16))
    p = draw(st.integers(1 if n > 1 else 2, math.isqrt(GRAM_KERNEL_ELEMENTS) // n))
    return _step_case(n, draw(st.integers(n, 48)), p, draw(st.integers(0, 2**64 - 1)),
                      draw(st.sampled_from(Variant)))


@settings(max_examples=20, deadline=None)
@given(case=_step_cases())
@example(case=_step_case(1, 3, 1, 0, Variant.LINEAR))  # N = 1: Lanczos runs no eigsh
@example(case=_step_case(16, 64, 8, 3, Variant.FOLDED))  # N = 128: holds a Gram
@example(case=_step_case(32, 64, 8, 3, Variant.LINEAR))  # N = 256: holds none
@example(case=_step_case(32, 4096, 2, 3, Variant.FOLDED))  # real FFT, K = 64 < 4096
@example(case=_step_case(32, 4096, 2, 3, Variant.LINEAR))  # real FFT, K = 64 < 4320
@example(case=_step_case(96, 180, 8, 3, Variant.FOLDED))  # real FFT, K = 192 >= 180
def test_gram_step_agrees_with_operator_calls(case):
    # the held-Gram step, the lag-spectrum step and the operator-call step
    # are one affine map, so the solves agree to rounding and stop alike
    op, y, s = case
    if op._matrix is not None and op.input_len**2 <= GRAM_KERNEL_ELEMENTS:
        assert not op.gram.flags.writeable
        assert np.array_equal(op.gram, op._matrix.T @ op._matrix)
    else:
        assert op.gram is None
    lag_len = next_fast_len(2 * op.dims.n - 1, real=True)
    lags = op._matrix is None and lag_len < op.fft_len
    assert op.lag_len == (lag_len if lags else None)
    calls = CountingOp(op)
    gram_sq, lanczos_sq = operator_norm_sq(op), operator_norm_sq(calls)
    assert abs(gram_sq - lanczos_sq) <= 1e-13 * lanczos_sq
    eps = 0.05 * float(np.linalg.norm(y))
    noisy = y + rng.noise_with_norm(rng.derive_seed(1, op.input_len), y.size, eps)
    for solve in (lambda o: solve_bpdn(o, y, 0.0, SolverConfig()),
                  lambda o: solve_bpdn(o, noisy, eps, SolverConfig()),
                  lambda o: solve_iht(o, y, s, SolverConfig())):
        held, called = solve(op), solve(calls)
        assert (held.converged, held.note) == (called.converged, called.note)
        if lags:
            assert held.iterations == called.iterations
        scale = float(np.linalg.norm(called.x_hat))
        assert np.linalg.norm(held.x_hat - called.x_hat) <= 1e-9 * scale


def _fista_every_norm(step, lam_step, x0, tol, max_iter):
    """The FISTA loop with the five-call soft threshold and both norms read
    on every iteration; _fista must return its bytes and iteration count."""
    x = z = x0
    t = 1.0
    it = 0
    while True:
        it += 1
        u = step(z)
        x_new = np.sign(u) * np.maximum(np.abs(u) - lam_step, 0.0)
        dx = x_new - x
        if float((z - x_new) @ dx) > 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * dx
        step_ok = np.linalg.norm(dx) <= tol * max(1.0, np.linalg.norm(x_new))
        x, t = x_new, t_new
        if step_ok or it >= max_iter:
            return x, it


def _iht_every_norm(op, y, s, cfg):
    """solve_iht's loop with np.linalg.norm for both norms of its stop test."""
    lips = operator_norm_sq(op)
    step = solvers._step_map(op, y, 1.0 / lips if lips > 0 else 1.0)
    x = np.zeros(op.input_len)
    it = 0
    while it < cfg.max_iter:
        it += 1
        x_new = hard_threshold(step(x), s)
        dx = float(np.linalg.norm(x_new - x))
        x = x_new
        if dx <= cfg.opt_tol * float(np.linalg.norm(x)):
            return x, it, True
    return x, it, False


def _loop_case(n, m, p, seed, variant, scale, held):
    op = MeasurementOperator(generate_probes(ProblemDims(n, m, p), seed), variant)
    y = scale * rng.gaussians(rng.derive_seed(seed, 9), op.output_len)
    return (op if held else CountingOp(op)), y


@st.composite
def _loop_cases(draw):
    # both step maps: the held Gram (N <= 128 here) and CountingOp's calls
    n = draw(st.integers(1, 16))
    p = draw(st.integers(1 if n > 1 else 2, math.isqrt(GRAM_KERNEL_ELEMENTS) // n))
    return _loop_case(n, draw(st.integers(n, 48)), p, draw(st.integers(0, 2**64 - 1)),
                      draw(st.sampled_from(Variant)), 10.0 ** draw(st.floats(-6, 6)),
                      draw(st.booleans()))


_MAX_ITER_CUTS = st.one_of(st.integers(1, 50), st.just(5000))


@settings(max_examples=30, deadline=None)
@given(case=_loop_cases(), lam_exp=st.floats(-8, 0), tol=st.sampled_from([1e-4, 1e-8, 1e-11]),
       max_iter=_MAX_ITER_CUTS, warm=st.booleans())
@example(case=_loop_case(8, 24, 4, 3, Variant.FOLDED, 1.0, True), lam_exp=-3.0, tol=1e-8,
         max_iter=5000, warm=True)
@example(case=_loop_case(8, 24, 4, 3, Variant.LINEAR, 1e-6, False), lam_exp=-6.0, tol=1e-8,
         max_iter=5000, warm=True)
def test_fista_matches_the_every_norm_loop_byte_for_byte(case, lam_exp, tol, max_iter, warm):
    # _fista reads ||x_new|| only when it can decide the stop and thresholds
    # by clipping: neither may move an output byte or the iteration count
    op, y = case
    L = 1.01 * operator_norm_sq(op)
    step = solvers._step_map(op, y, 1.0 / L)
    lam = 10.0**lam_exp * float(np.max(np.abs(op.adjoint(y))))
    x0 = np.zeros(op.input_len)
    if warm:  # a previous stage's x, with its -0.0 entries
        x0, _ = _fista_every_norm(step, 8.0 * lam / L, x0, tol, 50)
    x, it = solvers._fista(step, lam / L, x0, tol, max_iter)
    x_ref, it_ref = _fista_every_norm(step, lam / L, x0, tol, max_iter)
    assert (x.tobytes(), it) == (x_ref.tobytes(), it_ref)


@settings(max_examples=30, deadline=None)
@given(case=_loop_cases(), s=st.integers(1, 16), max_iter=_MAX_ITER_CUTS)
def test_iht_matches_the_linalg_norm_loop_byte_for_byte(case, s, max_iter):
    op, y = case
    s = min(s, op.input_len)
    cfg = SolverConfig(max_iter=max_iter)
    res = solve_iht(op, y, s, cfg)
    x_ref, it_ref, converged = _iht_every_norm(op, y, s, cfg)
    assert (res.x_hat.tobytes(), res.iterations, res.converged) == (x_ref.tobytes(), it_ref,
                                                                     converged)


def _norm_case(n, m, p, seed, variant):
    op = MeasurementOperator(generate_probes(ProblemDims(n, m, p), seed), variant)
    dense = (build_dense_folded if op.variant is Variant.FOLDED else build_dense_linear)(op.probes)
    return op, dense


@st.composite
def _norm_cases(draw):
    n = draw(st.integers(1, 12))
    return _norm_case(n, draw(st.integers(n, 40)), draw(st.integers(1, 5)),
                      draw(st.integers(0, 2**64 - 1)), draw(st.sampled_from(Variant)))


class TestOperatorNorm:
    @settings(max_examples=60, deadline=None)
    @given(case=_norm_cases())
    @example(case=_norm_case(1, 3, 1, 0, Variant.FOLDED))  # N = 1: no Lanczos
    @example(case=_norm_case(1, 3, 1, 0, Variant.LINEAR))
    @example(case=_norm_case(2, 2, 1, 0, Variant.FOLDED))  # N = 2: k = 1 < N
    @example(case=_norm_case(1, 4, 2, 0, Variant.LINEAR))
    @example(case=_norm_case(32, 48, 8, 5, Variant.FOLDED))  # N = 256: holds no Gram
    @example(case=_norm_case(32, 64, 8, 3, Variant.LINEAR))
    @example(case=_norm_case(32, 4096, 2, 0, Variant.FOLDED))  # Lanczos on the lag spectrum
    @example(case=_norm_case(32, 4096, 2, 0, Variant.LINEAR))
    @example(case=_norm_case(96, 180, 8, 0, Variant.FOLDED))  # K >= fft_len: apply, adjoint
    def test_matches_dense_eigenvalue(self, case):
        # drawn operators hold a Gram; CountingOp hides it and any lag
        # spectrum, so Lanczos runs on apply and adjoint
        op, dense = case
        expected = np.linalg.eigvalsh(dense.T @ dense)[-1]
        assert abs(operator_norm_sq(op) - expected) <= 1e-10 * expected
        assert abs(operator_norm_sq(CountingOp(op)) - expected) <= 1e-10 * expected

    def test_same_bits_across_calls_and_threads(self):
        # the second operator builds its lag spectrum in whichever thread
        # comes first
        for dims in (ProblemDims(32, 128, 8), ProblemDims(32, 4096, 2)):
            op = linear_operator(generate_probes(dims, 3))
            with ThreadPoolExecutor(2) as pool:
                values = list(pool.map(lambda _: operator_norm_sq(op), range(4)))
            values.append(operator_norm_sq(op))
            assert len({np.float64(v).tobytes() for v in values}) == 1

    def test_zero_operator(self):
        # ARPACK cannot start on a zero Gram; the norm is 0 all the same
        d = ProblemDims(4, 8, 2)
        zero = folded_operator(ProbeSet(d, 0, np.zeros((d.p, d.m))))
        assert operator_norm_sq(zero) == 0.0

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_fista_makes_two_operator_calls_per_iteration(self, variant, monkeypatch):
        # through operator calls an iteration is one apply and one adjoint;
        # solve_bpdn adds Phi^T y and one apply per stage for the stage's
        # residual, and the norm's Lanczos calls are counted apart
        d = ProblemDims(8, 24, 4)
        probes, h, _ = sparse_instance(d, 3, 4)
        op = CountingOp(MeasurementOperator(probes, variant))
        operator_norm_sq(op)
        norm_calls, op.calls = op.calls, 0
        stages = _count_fista_stages(monkeypatch)
        res = solve_bpdn(op, op.base.apply(h), 0.0, SolverConfig())
        assert res.converged
        assert op.calls - norm_calls == 2 * res.iterations + 1 + stages[0]


class TestOracleLS:
    def test_exact_on_true_support(self):
        d = ProblemDims(4, 16, 2)
        probes, h, support = sparse_instance(d, 31, 2)
        op = folded_operator(probes)
        res = solve_oracle_ls(op, op.apply(h), support)
        assert np.linalg.norm(res.x_hat - h) <= 1e-10

    def test_empty_support(self):
        d = ProblemDims(3, 8, 2)
        probes, h, _ = sparse_instance(d, 4, 1)
        op = folded_operator(probes)
        y = op.apply(h)
        res = solve_oracle_ls(op, y, [])
        assert np.array_equal(res.x_hat, np.zeros(d.signal_len))
        assert res.residual_norm == pytest.approx(np.linalg.norm(y))

    def test_rank_deficient_flag(self):
        d = ProblemDims(2, 4, 2)
        probes = generate_probes(d, 8)
        phi = probes.phi.copy()
        phi[1] = phi[0]  # duplicated source makes matching columns collide
        dup = ProbeSet(d, 8, phi)
        op = folded_operator(dup)
        y = op.apply(np.array([1.0, 0.0, 0.0, 0.0]))
        res = solve_oracle_ls(op, y, [0, 2])
        assert res.note == "rank_deficient"

    def test_beats_bpdn_with_true_support_most_of_the_time(self):
        # recorded Monte Carlo observation (seeded run gives 98/100):
        # oracle error <= BPDN error on at least 90% of noisy trials
        d = ProblemDims(8, 16, 4)
        wins = 0
        trials = 100
        for t in range(trials):
            probes, h, support = sparse_instance(d, 5000 + t, 4)
            op = folded_operator(probes)
            clean = op.apply(h)
            eps = 0.15 * np.linalg.norm(clean)
            y = clean + rng.noise_with_norm(t, d.m, eps)
            oracle_err = np.linalg.norm(solve_oracle_ls(op, y, support).x_hat - h)
            bpdn_err = np.linalg.norm(
                solve_bpdn(op, y, eps, SolverConfig()).x_hat - h
            )
            if oracle_err <= bpdn_err + 1e-12:
                wins += 1
        assert wins >= 90


class TestReferenceBPDN:
    def test_identity(self):
        y = np.array([1.0, -0.5, 0.25, 0.0])
        assert np.linalg.norm(reference_bpdn(np.eye(4), y, 0.0) - y) < 1e-9

    def test_large_epsilon_gives_zero(self):
        y = np.array([1.0, 2.0])
        assert np.array_equal(reference_bpdn(np.eye(2), y, 10.0), np.zeros(2))

    def test_size_guard(self):
        with pytest.raises(BudgetError):
            reference_bpdn(np.zeros((10, 65)), np.zeros(10), 0.0)

    def test_constraint_active_for_positive_eps(self):
        d = ProblemDims(3, 8, 2)
        probes, h, _ = sparse_instance(d, 2, 2)
        phi = build_dense_folded(probes)
        y = phi @ h
        eps = 0.2 * np.linalg.norm(y)
        x = reference_bpdn(phi, y, eps)
        assert np.linalg.norm(phi @ x - y) <= eps * (1 + 1e-6)
        assert np.sum(np.abs(x)) < np.sum(np.abs(h))


class TestLinearCircularConsistency:
    def test_same_recovery_through_both_operators(self):
        # noiseless: solving through the linear operator and through the
        # folded operator (eps scaled by sqrt(2), still 0) must agree
        d = ProblemDims(n=8, m=32, p=2)
        for seed in range(5):
            probes, h, _ = sparse_instance(d, 400 + seed, 2)
            opl, opf = linear_operator(probes), folded_operator(probes)
            rl = solve_bpdn(opl, opl.apply(h), 0.0, SolverConfig())
            rf = solve_bpdn(opf, opf.apply(h), np.sqrt(2.0) * 0.0, SolverConfig())
            hn = np.linalg.norm(h)
            assert np.linalg.norm(rl.x_hat - h) <= 1e-5 * hn
            assert np.linalg.norm(rf.x_hat - h) <= 1e-5 * hn
            assert np.linalg.norm(rl.x_hat - rf.x_hat) <= 1e-5 * hn


@pytest.mark.parametrize("variant, eps, method, max_iter", [
    ("folded", 0.0, "bpdn", 5000),
    ("linear", 0.05, "bpdn", 5000),
    ("folded", 0.0, "bpdn", 3),
    ("folded", 100.0, "bpdn", 5000),
    ("folded", 0.0, "iht", 5000),
    ("linear", 0.0, "iht", 4),
], ids=["folded", "linear-noisy", "budget-cut", "zero-feasible", "iht", "iht-budget-cut"])
def test_residual_norm_is_that_of_the_estimate(variant, eps, method, max_iter):
    # the solvers report the residual they hold; it must be the estimate's, bit for bit
    d = ProblemDims(n=8, m=24, p=4)
    probes, h, _ = sparse_instance(d, 3, 4)
    op = folded_operator(probes) if variant == "folded" else linear_operator(probes)
    y = op.apply(h)
    if eps:
        y = y + rng.noise_with_norm(5, y.size, eps)
    cfg = SolverConfig(max_iter=max_iter)
    res = solve_bpdn(op, y, eps, cfg) if method == "bpdn" else solve_iht(op, y, 4, cfg)
    assert res.residual_norm == np.linalg.norm(op.apply(res.x_hat) - y)


def test_error_scales_linearly_with_epsilon():
    # median error ratio between eps and 2*eps stays in the linear band
    d = ProblemDims(n=8, m=48, p=2)
    probes, h, _ = sparse_instance(d, 71, 2)
    op = linear_operator(probes)
    clean = op.apply(h)
    eps = 0.05
    medians = []
    for scale in (1.0, 2.0):
        errs = []
        for t in range(30):
            y = clean + rng.noise_with_norm(rng.derive_seed(81, t), clean.size, scale * eps)
            res = solve_bpdn(op, y, scale * eps, SolverConfig())
            errs.append(np.linalg.norm(res.x_hat - h))
        medians.append(np.median(errs))
    ratio = medians[1] / medians[0]
    assert 1.0 <= ratio <= 3.5


SCALE_OPERATOR = ProblemDims(8, 24, 4)


@pytest.mark.parametrize("scale", [1e-158, 1e-170, 1e155, 1e200])
@pytest.mark.parametrize("method", ["bpdn", "iht", "oracle"])
def test_y_outside_normal_range_rejected(method, scale):
    # ||y||^2 underflows or overflows here: the stops would read a residual
    # of 0 or inf and claim convergence, so the solvers refuse y instead
    probes, h, support = sparse_instance(SCALE_OPERATOR, 3, 4)
    op = folded_operator(probes)
    y = op.apply(h) * scale
    with pytest.raises(DataError, match="rescale"):
        if method == "bpdn":
            solve_bpdn(op, y, 0.0, SolverConfig())
        elif method == "iht":
            solve_iht(op, y, 4, SolverConfig())
        else:
            solve_oracle_ls(op, y, support)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_y_inside_normal_range_accepted(scale):
    probes, h, support = sparse_instance(SCALE_OPERATOR, 3, 4)
    op = folded_operator(probes)
    res = solve_oracle_ls(op, op.apply(h) * scale, support)
    assert np.linalg.norm(res.x_hat - scale * h) <= 1e-10 * scale * np.linalg.norm(h)


# sha256 over three seeds of each result's x_hat bytes and its
# (residual_norm, l1_norm, iterations, converged, note).  The bpdn and iht
# digests were re-recorded when FISTA took Phi z by linearity and ||Phi||^2
# came from Lanczos (x_hat moved by at most 7.5e-13 relative in l2;
# FROZEN_API_FLAGS held), and all eight when operators below
# DENSE_KERNEL_ELEMENTS took the dense kernel (x_hat moved by at most
# 8.2e-16 relative in l2; FROZEN_API_FLAGS held).  The four bpdn digests and
# iht (8, 24, 4) were re-recorded when FISTA and IHT stepped through the
# held Gram below GRAM_KERNEL_ELEMENTS, and FISTA through apply(z) in place
# of Phi z by linearity above it (x_hat moved by at most, relative in l2:
# bpdn-folded 8.3e-16 and 2.6e-16, bpdn-linear 1.8e-15 and 1.9e-16, iht
# 1.0e-15; FROZEN_API_FLAGS held).
FROZEN_API_DIGESTS = {
    ("bpdn-folded", (8, 24, 4)): "1927cf98d90efe5dc0c6283a5109b8d614654887408696aeea325069d4602168",
    ("bpdn-folded", (32, 128, 8)): "62d8211e1841588c6cd0ae69c1e8b8fa99cb215b2fd6f977a9410d83456e820e",
    ("bpdn-linear", (8, 24, 4)): "dd366bb08896397a3e1ad91e46a12084f4ec5e750a2d92e3956ca74751c29641",
    ("bpdn-linear", (32, 128, 8)): "1697888c640ce857b627889ea8f021ea124ae5750664da89611ae8918182ac06",
    ("iht", (8, 24, 4)): "a7dac5d7b757c84fbf03d66f4deaf38dde331ec671a6638da3002d9d6ceb0412",
    ("iht", (32, 128, 8)): "c182051505c08790b186aa9d528461e6161c334e42a1d076471f821fff05b71f",
    ("oracle", (8, 24, 4)): "86653ad3d8b07905f26811ee18aa6fcf9b4cd90768f41dd10f3218eb1d89dbda",
    ("oracle", (32, 128, 8)): "dacba9e3fdd4bc8d95cc594c470ba1d85414d7a7c6115b464f3e12cf0cabed6c",
}


# (iterations, converged, note) of each seed's result, recorded with the
# complex-FFT operator kernel; a kernel change that moves only float bits
# leaves every stop unchanged.
FROZEN_API_FLAGS = {
    ("bpdn-folded", (8, 24, 4)): [(379, True, ""), (284, True, ""), (255, True, "")],
    ("bpdn-folded", (32, 128, 8)): [(215, True, ""), (239, True, ""), (249, True, "")],
    ("bpdn-linear", (8, 24, 4)): [(403, True, ""), (461, True, ""), (266, True, "")],
    ("bpdn-linear", (32, 128, 8)): [(364, True, ""), (496, True, ""), (293, True, "")],
    ("iht", (8, 24, 4)): [(167, True, ""), (154, True, ""), (102, True, "")],
    ("iht", (32, 128, 8)): [(88, True, ""), (105, True, ""), (119, True, "")],
    ("oracle", (8, 24, 4)): [(1, True, "")] * 3,
    ("oracle", (32, 128, 8)): [(1, True, "")] * 3,
}


def _frozen_api_results(case, dims):
    d = ProblemDims(*dims)
    for seed in range(3):
        probes, h, support = sparse_instance(d, 7 + seed, 4)
        op = (linear_operator if case == "bpdn-linear" else folded_operator)(probes)
        y = op.apply(h)
        if case == "bpdn-linear":
            y = y + rng.noise_with_norm(rng.derive_seed(seed, 5), y.size, 0.05)
        if case == "bpdn-folded":
            yield solve_bpdn(op, y, 0.0, SolverConfig())
        elif case == "bpdn-linear":
            yield solve_bpdn(op, y, 0.05, SolverConfig())
        elif case == "iht":
            yield solve_iht(op, y, 4, SolverConfig())
        else:
            yield solve_oracle_ls(op, y, support)


@pytest.mark.parametrize("case, dims", sorted(FROZEN_API_DIGESTS))
def test_frozen_api_digest(case, dims):
    import hashlib

    digest = hashlib.sha256()
    for res in _frozen_api_results(case, dims):
        digest.update(res.x_hat.tobytes())
        fields = (res.residual_norm, res.l1_norm, res.iterations, res.converged, res.note)
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == FROZEN_API_DIGESTS[case, dims]


@pytest.mark.parametrize("case, dims", sorted(FROZEN_API_FLAGS))
def test_frozen_api_flags(case, dims):
    flags = [(r.iterations, r.converged, r.note) for r in _frozen_api_results(case, dims)]
    assert flags == FROZEN_API_FLAGS[case, dims]


def test_importing_sparsep_loads_no_optimizer_or_sparse_solver():
    # scipy.optimize (reference_bpdn) and scipy.sparse.linalg (Lanczos) load
    # on first use, so the CLI starts without them
    src = str(Path(solvers.__file__).resolve().parents[1])
    code = ("import sys, sparsep, sparsep.cli; "
            "print(sorted({'scipy.optimize', 'scipy.sparse.linalg'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
