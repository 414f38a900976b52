from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsep import rng
from sparsep.errors import BudgetError, DataError, DimensionError, ParameterError
from sparsep.operators import (
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

    def test_no_descent_step_stops_at_the_held_iterate(self):
        # an adjoint pointing uphill: no halving of the step lowers the
        # residual, so the zero start is kept without another apply
        d = ProblemDims(8, 24, 4)
        probes, h, _ = sparse_instance(d, 3, 4)
        base = folded_operator(probes)
        applies = []

        class Uphill:
            input_len, output_len = base.input_len, base.output_len

            def apply(self, x):
                applies.append(1)
                return base.apply(x)

            def adjoint(self, r):
                return -1e30 * base.adjoint(r)

        y = base.apply(h)
        operator_norm_sq(Uphill())
        norm_applies = len(applies)
        applies.clear()
        res = solve_iht(Uphill(), y, 4, SolverConfig())
        assert np.array_equal(res.x_hat, np.zeros(d.signal_len))
        assert res.converged and res.iterations == 1
        assert res.residual_norm == np.linalg.norm(y)
        assert len(applies) == norm_applies + 60  # the norm, then one per halving


class CountingOp:
    """Test hook: forwards to ``base`` and counts apply and adjoint calls."""

    def __init__(self, base):
        self.base, self.calls = base, 0
        self.input_len, self.output_len = base.input_len, base.output_len

    def apply(self, x):
        self.calls += 1
        return self.base.apply(x)

    def adjoint(self, y):
        self.calls += 1
        return self.base.adjoint(y)


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
    def test_matches_dense_eigenvalue(self, case):
        op, dense = case
        expected = np.linalg.eigvalsh(dense.T @ dense)[-1]
        assert abs(operator_norm_sq(op) - expected) <= 1e-10 * expected

    def test_same_bits_across_calls_and_threads(self):
        op = linear_operator(generate_probes(ProblemDims(32, 128, 8), 3))
        first = operator_norm_sq(op)
        with ThreadPoolExecutor(2) as pool:
            values = list(pool.map(lambda _: operator_norm_sq(op), range(4)))
        values.append(operator_norm_sq(op))
        assert {np.float64(v).tobytes() for v in values} == {np.float64(first).tobytes()}

    def test_zero_operator(self):
        # ARPACK cannot start on a zero Gram; the norm is 0 all the same
        d = ProblemDims(4, 8, 2)
        zero = folded_operator(ProbeSet.from_time_samples(d, 0, np.zeros((d.p, d.m))))
        assert operator_norm_sq(zero) == 0.0

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_fista_makes_two_operator_calls_per_iteration(self, variant):
        # A z comes by linearity, so an iteration is one adjoint and one apply
        # plus backtracks; the norm's Lanczos calls are counted apart
        d = ProblemDims(8, 24, 4)
        probes, h, _ = sparse_instance(d, 3, 4)
        op = CountingOp(MeasurementOperator(probes, variant))
        operator_norm_sq(op)
        norm_calls, op.calls = op.calls, 0
        res = solve_bpdn(op, op.base.apply(h), 0.0, SolverConfig())
        assert res.converged
        assert op.calls - norm_calls <= 2.2 * res.iterations


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
        dup = ProbeSet.from_time_samples(d, 8, phi)
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
# FROZEN_API_FLAGS held); the oracle digests date from the real-FFT kernel.
FROZEN_API_DIGESTS = {
    ("bpdn-folded", (8, 24, 4)): "44faae2bbd388c427885e237877ca215d76201b7fa6bb371698cb6beba1f0bcb",
    ("bpdn-folded", (32, 128, 8)): "603fd11f7075d9c67901b1158d41333bf3162b3c5ef9cc97cc6840a1ae9c54e2",
    ("bpdn-linear", (8, 24, 4)): "3d66d910b97a048138c79ff9a457b2165dfd8affc6be8260043a19ef2b659d8d",
    ("bpdn-linear", (32, 128, 8)): "b5392e4a198b19202e0b1ec546a6bf55b4bd1fee1148941cdc609f9c92be047c",
    ("iht", (8, 24, 4)): "5731aed9fcb48afad5fe2cce77cc92e7fdea4851f9e30547c5ad253d409add91",
    ("iht", (32, 128, 8)): "9161f7d2aa89b6189073694f22fb2ba1479cd05ec9fec3b2c3b43181546a80fc",
    ("oracle", (8, 24, 4)): "0e1b8fb2263c8627573aa6267b6c67d0a6d69f3f51a67755b65a734906d66abf",
    ("oracle", (32, 128, 8)): "9af5d8a22fbaaf7f59a3dc9c8631f979457dd1b9ab42c9f445c9445221bb63e2",
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
