from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sparsep.errors import BudgetError, DimensionError, ParameterError
from sparsep.operators import (
    LagGram,
    build_dense_folded,
    build_dense_linear,
    folded_operator,
    linear_operator,
)
from sparsep.probes import ProblemDims, generate_probes
from sparsep.snorm import EXACT, RANDOMIZED, rip_delta, snorm_exact, snorm_randomized

# Golden regression value for rip_delta at (n=4, m=16, p=2, s=2), seed 42.
GOLDEN_DELTA = 0.47244239460441445


def brute_force_snorm(a, s):
    """Independent enumerator: spectral norm via SVD over all supports."""
    best = -np.inf
    for sup in combinations(range(a.shape[0]), s):
        idx = np.asarray(sup)
        best = max(best, np.linalg.norm(a[np.ix_(idx, idx)], 2))
    return best


def random_symmetric(seed, n=6):
    g = np.random.default_rng(seed)
    a = g.standard_normal((n, n))
    return (a + a.T) / 2


def test_identity_has_unit_snorm():
    for s in (1, 2, 3):
        res = snorm_exact(np.eye(5), s)
        assert res.value == pytest.approx(1.0, abs=1e-14)


def test_full_support_is_spectral_norm():
    a = random_symmetric(0)
    res = snorm_exact(a, 6)
    assert abs(res.value - np.linalg.norm(a, 2)) < 1e-12


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("s", [1, 2, 3])
def test_matches_independent_enumerator(seed, s):
    a = random_symmetric(seed)
    assert abs(snorm_exact(a, s).value - brute_force_snorm(a, s)) <= 1e-12


def test_nonsymmetric_input():
    g = np.random.default_rng(3)
    a = g.standard_normal((5, 5))
    assert abs(snorm_exact(a, 2).value - brute_force_snorm(a, 2)) <= 1e-12


def test_argmax_support_attains_value():
    a = random_symmetric(9)
    res = snorm_exact(a, 2)
    idx = np.asarray(res.argmax_support)
    assert abs(np.linalg.norm(a[np.ix_(idx, idx)], 2) - res.value) < 1e-12


def test_monotone_in_s():
    a = random_symmetric(4)
    values = [snorm_exact(a, s).value for s in range(1, 7)]
    assert all(values[i] <= values[i + 1] + 1e-14 for i in range(5))


def test_norm_properties():
    g = np.random.default_rng(8)
    for _ in range(10):
        a = g.standard_normal((6, 6))
        b = g.standard_normal((6, 6))
        sa = snorm_exact(a, 2).value
        sb = snorm_exact(b, 2).value
        assert snorm_exact(a + b, 2).value <= sa + sb + 1e-12
        assert snorm_exact(-2.5 * a, 2).value == pytest.approx(2.5 * sa, rel=1e-12)


def test_budget_error_no_silent_downgrade(monkeypatch):
    monkeypatch.setenv("SPARSEP_WORK_LIMIT", "1000")
    a = np.eye(30)
    with pytest.raises(BudgetError):
        snorm_exact(a, 15)


def test_dimension_checks():
    with pytest.raises(DimensionError):
        snorm_exact(np.eye(3), 4)
    with pytest.raises(DimensionError):
        snorm_exact(np.zeros((2, 3)), 1)


class TestRandomized:
    def test_zero_matrix(self):
        res = snorm_randomized(np.zeros((6, 6)), 2, trials=3, seed=0)
        assert res.value == 0.0
        assert res.mode == RANDOMIZED

    def test_never_exceeds_exact(self):
        for seed in range(10):
            a = random_symmetric(100 + seed)
            exact = snorm_exact(a, 2).value
            rnd = snorm_randomized(a, 2, trials=5, seed=seed).value
            assert rnd <= exact + 1e-14

    def test_more_trials_never_worse(self):
        a = random_symmetric(55)
        v1 = snorm_randomized(a, 2, trials=1, seed=9).value
        v100 = snorm_randomized(a, 2, trials=100, seed=9).value
        assert v100 >= v1

    def test_local_search_finds_exact_on_small_instances(self):
        # with enough trials over a 6x6, the swap ascent lands on the optimum
        for seed in range(5):
            a = random_symmetric(200 + seed)
            exact = snorm_exact(a, 2).value
            rnd = snorm_randomized(a, 2, trials=50, seed=seed).value
            assert rnd == pytest.approx(exact, abs=1e-12)

    def test_deterministic_given_seed(self):
        a = random_symmetric(77)
        r1 = snorm_randomized(a, 3, trials=7, seed=42)
        r2 = snorm_randomized(a, 3, trials=7, seed=42)
        assert r1.value == r2.value and r1.argmax_support == r2.argmax_support

    # (matrix seed, N, s, trials, seed, swap_cap_factor) -> (value, argmax_support),
    # recorded from the one-candidate-at-a-time search; the cap-1 cases cut
    # their second step at the evaluation cap
    FROZEN = [
        ((300, 12, 2, 5, 1, 5), "0x1.17619ba2f219cp+1", (1, 11)),
        ((301, 12, 3, 6, 2, 5), "0x1.0213f0f8cc41bp+2", (7, 8, 9)),
        ((302, 16, 3, 4, 3, 5), "0x1.5121ecc665450p+1", (1, 6, 7)),
        ((303, 16, 4, 4, 4, 1), "0x1.13c7cd2787b3dp+2", (5, 7, 9, 11)),
        ((304, 20, 5, 3, 5, 1), "0x1.17eed921e7a72p+2", (8, 9, 14, 17, 19)),
    ]

    @pytest.mark.parametrize("case, value, support", FROZEN)
    def test_frozen_search_output(self, case, value, support):
        mseed, n, s, trials, seed, cap = case
        a = random_symmetric(mseed, n)
        res = snorm_randomized(a, s, trials=trials, seed=seed, swap_cap_factor=cap)
        assert res.value == float.fromhex(value)
        assert res.argmax_support == support


class TestRipDelta:
    def test_golden_regression(self):
        ps = generate_probes(ProblemDims(4, 16, 2), 42)
        res = rip_delta(ps, 2)
        assert res.mode == EXACT
        assert res.value == pytest.approx(GOLDEN_DELTA, abs=1e-12)

    def test_isometry_consequence(self):
        d = ProblemDims(4, 16, 2)
        ps = generate_probes(d, 42)
        delta = rip_delta(ps, 2).value
        phi = build_dense_folded(ps)
        g = np.random.default_rng(17)
        for _ in range(200):
            sup = g.choice(d.signal_len, 2, replace=False)
            x = np.zeros(d.signal_len)
            x[sup] = g.standard_normal(2)
            ratio = np.linalg.norm(phi @ x) ** 2 / np.linalg.norm(x) ** 2
            assert (1 - delta) - 1e-12 <= ratio <= (1 + delta) + 1e-12

    def test_s1_reduces_to_column_norms(self):
        d = ProblemDims(4, 16, 2)
        ps = generate_probes(d, 6)
        phi = build_dense_folded(ps)
        expected = max(abs(1.0 - np.linalg.norm(phi[:, i]) ** 2) for i in range(d.signal_len))
        assert rip_delta(ps, 1).value == pytest.approx(expected, abs=1e-14)

    def test_randomized_mode_lower_bound(self):
        ps = generate_probes(ProblemDims(4, 16, 2), 42)
        exact = rip_delta(ps, 2).value
        rnd = rip_delta(ps, 2, mode=RANDOMIZED, trials=10, seed=1)
        assert rnd.mode == RANDOMIZED
        assert rnd.value <= exact + 1e-14

    def test_budget_propagates(self, monkeypatch):
        # 200 is below the C(8, 2) * 2^3 = 224-operation enumeration
        monkeypatch.setenv("SPARSEP_WORK_LIMIT", "200")
        ps = generate_probes(ProblemDims(4, 16, 2), 42)
        with pytest.raises(BudgetError, match="exact s-norm"):
            rip_delta(ps, 2)

    def test_matrix_free_oracle_matches_dense(self):
        d = ProblemDims(3, 8, 2)
        ps = generate_probes(d, 13)
        phi = build_dense_folded(ps)
        z = np.eye(d.signal_len) - phi.T @ phi
        sup = np.array([0, 2, 5])
        block = LagGram(folded_operator(ps)).residual_blocks(sup)
        assert np.max(np.abs(block - z[np.ix_(sup, sup)])) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        extra=st.integers(0, 10),
        p=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        linear=st.booleans(),
        data=st.data(),
    )
    def test_lag_blocks_match_dense(self, n, extra, p, seed, linear, data):
        ps = generate_probes(ProblemDims(n, n + extra, p), seed)
        operator, build = ((linear_operator, build_dense_linear) if linear
                           else (folded_operator, build_dense_folded))
        phi = build(ps)
        z = np.eye(n * p) - phi.T @ phi
        s = data.draw(st.integers(1, n * p))
        sups = np.array([
            data.draw(st.permutations(range(n * p)))[:s] for _ in range(3)
        ])
        blocks = LagGram(operator(ps)).residual_blocks(sups)
        assert blocks.shape == (3, s, s)
        for sup, block in zip(sups, blocks):
            assert np.max(np.abs(block - z[np.ix_(sup, sup)])) <= 1e-12

    def test_randomized_needs_no_dense_budget(self, monkeypatch):
        # N^2 - 1 = 1023 is below exact mode's C(32, 2) * 2^3 = 3968-operation
        # enumeration; randomized mode has no budget
        ps = generate_probes(ProblemDims(8, 32, 4), 5)
        exact = rip_delta(ps, 2).value
        monkeypatch.setenv("SPARSEP_WORK_LIMIT", str(ps.dims.signal_len**2 - 1))
        with pytest.raises(BudgetError):
            rip_delta(ps, 2)
        rnd = rip_delta(ps, 2, mode=RANDOMIZED, trials=8, seed=3)
        assert 0.0 < rnd.value <= exact + 1e-14

    def test_exact_needs_only_the_enumeration_budget(self, monkeypatch):
        # C(32, 1) * 1^3 = 32 operations, below the N^2 = 1024 elements of
        # a dense Gram: every limit in [32, 1024) admits exact mode
        ps = generate_probes(ProblemDims(8, 32, 4), 5)
        expected = rip_delta(ps, 1)
        for limit in (32, 1023):
            monkeypatch.setenv("SPARSEP_WORK_LIMIT", str(limit))
            assert rip_delta(ps, 1) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        extra=st.integers(0, 10),
        p=st.integers(1, 3),
        seed=st.integers(0, 2**32),
        s=st.integers(1, 3),
    )
    @example(n=16, extra=112, p=4, seed=0, s=3)
    def test_exact_tie_break_is_first_within_block_shift(self, n, extra, p, seed, s):
        # a common within-block shift of a support leaves its lag-table
        # block unchanged, so the first support found has an index at shift 0
        assume(s <= n * p)
        res = rip_delta(generate_probes(ProblemDims(n, n + extra, p), seed), s)
        assert min(i % n for i in res.argmax_support) == 0

    def test_unknown_mode_rejected(self):
        ps = generate_probes(ProblemDims(4, 16, 2), 42)
        with pytest.raises(ParameterError):
            rip_delta(ps, 2, mode="randomized")


def test_exact_tie_break_is_first_lexicographic_support():
    # identity: every support attains the max; the first one must win
    res = snorm_exact(np.eye(6), 2)
    assert res.argmax_support == (0, 1)
    res3 = snorm_exact(np.eye(6), 3)
    assert res3.argmax_support == (0, 1, 2)
