from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsep import rng, snorm
from sparsep.errors import BudgetError, DimensionError, ParameterError
from sparsep.operators import (
    MeasurementOperator,
    build_dense_folded,
    build_dense_linear,
    folded_operator,
    linear_operator,
)
from sparsep.probes import ProblemDims, generate_probes
from sparsep.snorm import (
    EXACT,
    RANDOMIZED,
    _spectral_norms,
    rip_delta,
    snorm_exact,
    snorm_randomized,
)

# Golden regression value for rip_delta at (n=4, m=16, p=2, s=2), seed 42.
GOLDEN_DELTA = 0.47244239460441445
EPS = np.finfo(float).eps


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


def test_symmetry_test_is_relative_to_the_largest_entry():
    # with an absolute 1e-12 tolerance this matrix passed as symmetric, and
    # eigvalsh read only its zero lower triangle: 0.0 instead of 1e-13
    a = np.zeros((3, 3))
    a[0, 1] = 1e-13
    assert snorm_exact(a, 2).value == pytest.approx(1e-13, rel=1e-12, abs=0)
    assert snorm_exact(a * 1e13, 2).value == pytest.approx(1.0, rel=1e-12, abs=0)


def test_non_finite_entries_rejected():
    a = np.eye(3)
    a[1, 2] = np.nan
    with pytest.raises(ParameterError, match="finite"):
        snorm_exact(a, 2)
    a[1, 2] = np.inf
    with pytest.raises(ParameterError, match="finite"):
        snorm_randomized(a, 2, trials=1, seed=0)


@st.composite
def scalable_matrices(draw):
    """Square matrices of moderate entries: symmetric, strictly triangular or general."""
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    a = draw(arrays(np.float64, (n, n), elements=entries))
    shape = draw(st.sampled_from(["symmetric", "lower", "upper", "general"]))
    if shape == "symmetric":
        a = lower_symmetric(a)
    elif shape == "lower":
        a = np.tril(a, -1)
    elif shape == "upper":
        a = np.triu(a, 1)
    return a


@settings(max_examples=150, deadline=None)
@given(a=scalable_matrices(), exponent=st.floats(-100.0, 100.0), data=st.data())
def test_exact_snorm_scales_with_the_matrix(a, exponent, data):
    # ||c A||_s = c ||A||_s: the symmetry test and the kernels see no scale
    s = data.draw(st.integers(1, a.shape[0]))
    c = 10.0**exponent
    expected = c * snorm_exact(a, s).value
    assert snorm_exact(c * a, s).value == pytest.approx(expected, rel=1e-12, abs=0)


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
        block = folded_operator(ps).residual_blocks(sup)
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
        blocks = operator(ps).residual_blocks(sups)
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

    @pytest.mark.parametrize("mode", [EXACT, RANDOMIZED])
    @pytest.mark.parametrize("s", [2.0, 2.5, True, "2"])
    def test_non_integer_s_rejected(self, mode, s):
        ps = generate_probes(ProblemDims(4, 16, 2), 42)
        with pytest.raises(ParameterError, match="integer"):
            rip_delta(ps, s, mode=mode)

    @pytest.mark.parametrize("trials", [2.0, 2.5, True, "2"])
    def test_non_integer_trials_rejected(self, trials):
        ps = generate_probes(ProblemDims(4, 16, 2), 42)
        with pytest.raises(ParameterError, match="integer"):
            rip_delta(ps, 2, mode=RANDOMIZED, trials=trials)


def test_exact_tie_break_is_first_lexicographic_support():
    # identity: every support attains the max; the first one must win
    res = snorm_exact(np.eye(6), 2)
    assert res.argmax_support == (0, 1)
    res3 = snorm_exact(np.eye(6), 3)
    assert res3.argmax_support == (0, 1, 2)


def lower_symmetric(stack):
    """The symmetric matrices whose lower triangles ``stack`` holds."""
    lower = np.tril(stack)
    return lower + np.swapaxes(np.tril(lower, -1), -1, -2)


@st.composite
def block_stacks(draw):
    """(A, k): a (B, 3, 3) stack of unit-scale blocks and exponents k.

    Families: random symmetric, diagonal, qI, qI + rank-1 (a double
    eigenvalue) and zero.  The caller scales block i by 2**k[i], exactly,
    to magnitudes from about 1e-307 to 1e301, where a square of an entry
    over- or underflows unless the kernel scales it back.
    """
    s = 3
    unit = st.one_of(st.just(0.0), st.floats(2.0**-20, 1.0), st.floats(-1.0, -(2.0**-20)))
    vector = arrays(np.float64, s, elements=unit)
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        family = draw(st.sampled_from(["random", "diagonal", "qI", "qI+rank1", "zero"]))
        if family == "random":
            block = lower_symmetric(draw(arrays(np.float64, (s, s), elements=unit)))
        elif family == "diagonal":
            block = np.diag(draw(vector))
        elif family == "qI":
            block = draw(unit) * np.eye(s)
        elif family == "qI+rank1":
            u = draw(vector)
            block = lower_symmetric(draw(unit) * np.eye(s) + draw(unit) * np.outer(u, u))
        else:
            block = np.zeros((s, s))
        blocks.append(block)
    exponents = draw(arrays(np.int64, len(blocks), elements=st.integers(-1000, 1000)))
    return np.array(blocks), exponents


class TestKernel:
    """The closed form of symmetric 3 x 3 blocks against LAPACK.

    The tolerance is 8 eps ||block||_F: LAPACK's own error reaches 13.1 eps
    times the largest entry (7.0 eps ||block||_F) against a long-double
    Jacobi reference over 6e5 Gaussian 3 x 3 blocks, so a tolerance in the
    largest entry would test LAPACK's rounding, not the closed form.  The
    reference comes from the unit-scale blocks, because LAPACK can miss by
    10% on blocks with entries near 1e135 (test below).
    """

    @settings(max_examples=300, deadline=None)
    @given(blocks=block_stacks(), nearly_symmetric=st.booleans())
    def test_matches_eigvalsh(self, blocks, nearly_symmetric):
        unit, exponents = blocks
        expected = np.ldexp(np.max(np.abs(np.linalg.eigvalsh(unit)), axis=-1), exponents)
        tol = np.ldexp(8 * EPS * np.linalg.norm(unit, axis=(-2, -1)), exponents)
        stack = np.ldexp(unit, exponents[:, None, None])
        if nearly_symmetric:
            # only the lower triangle counts, as in eigvalsh
            stack = stack + np.triu(stack, 1) * 1e-9
        got = _spectral_norms(stack, True)
        assert np.all(np.abs(got - expected) <= tol)

    def test_double_eigenvalues(self):
        # qI + rank-1 has a double eigenvalue; the trigonometric form alone
        # misses it by up to 8e7 eps (arccos near +-1), LAPACK does not
        g = np.random.default_rng(5)
        u = g.standard_normal((50, 3))
        stack = (g.standard_normal((50, 1, 1)) * np.eye(3)
                 + g.standard_normal((50, 1, 1)) * u[:, :, None] * u[:, None, :])
        expected = np.max(np.abs(np.linalg.eigvalsh(stack)), axis=-1)
        tol = 8 * EPS * np.linalg.norm(stack, axis=(-2, -1))
        assert np.all(np.abs(_spectral_norms(stack, True) - expected) <= tol)

    def test_multiples_of_the_identity_are_exact(self):
        stack = np.array([q * np.eye(3) for q in (0.0, -0.1, 3.0, 1e-300, -1e300)])
        assert np.array_equal(_spectral_norms(stack, True), np.abs(stack[:, 0, 0]))

    def test_large_block_with_tiny_entries(self):
        # eigvalsh returns 8.571e135 on this block and on it padded to 4 x 4
        # by a zero row and column, and 1.54657e128 on the block near a
        # double eigenvalue (|r| > _NEAR_R, so LAPACK scores it); the true
        # norms (60-digit mpmath) are the largest entry and, for the last,
        # the norm of the leading 2 x 2 block to double precision
        a = np.array([[-1.90513350e-26, -4.69869733e-131, -7.74604484e135],
                      [-4.69869733e-131, 6.82692624e-94, 2.10862039e-58],
                      [-7.74604484e135, 2.10862039e-58, -5.65333636e-146]])
        near_double = np.array([[-1.36539538e-50, -1.55130874e127, 1.36516571e-50],
                                [-1.55130874e127, -1.53087030e128, 1.67493470e47],
                                [1.36516571e-50, 1.67493470e47, -1.08227640e-115]])
        blocks = [(a, 7.74604484e135),
                  (np.pad(a, ((1, 0), (1, 0))), 7.74604484e135),
                  (near_double, 1.5464323055156435e128)]
        for block, norm in blocks:
            got = _spectral_norms(block[None], True)[0]
            assert got == pytest.approx(norm, rel=8 * EPS, abs=0)

    def test_value_depends_on_the_block_alone(self):
        # exact and randomized mode score a support alike in any batch
        g = np.random.default_rng(4)
        for s in (3, 4):
            stack = lower_symmetric(g.standard_normal((300, s, s)))
            stack[::7] = 0.5 * np.eye(s) + 0.25  # double eigenvalues: LAPACK
            whole = _spectral_norms(stack, True)
            alone = np.array([_spectral_norms(b[None], True)[0] for b in stack])
            assert np.array_equal(whole, alone)


def one_restart_at_a_time(a, s, trials, seed, swap_cap_factor):
    """The swap ascent as a loop over restarts and over candidates (reference)."""
    size = a.shape[0]
    def norms(supports):
        idx = np.array(supports).reshape(-1, s)
        return _spectral_norms(a[idx[:, :, None], idx[:, None, :]], True)
    cap = swap_cap_factor * s * size
    best_value, best_support = -1.0, None
    for trial in range(trials):
        support = tuple(rng.rand_support(rng.derive_seed(seed, trial), size, s))
        current = norms([support])[0]
        evals = 0
        while evals < cap:
            outside = [i for i in range(size) if i not in support]
            cands = [tuple(sorted(support[:q] + (i,) + support[q + 1:]))
                     for q in range(s) for i in outside][: cap - evals]
            if not cands:
                break
            evals += len(cands)
            values = norms(cands)
            top = int(np.argmax(values))
            if not values[top] > current:
                break
            support, current = cands[top], values[top]
        if current > best_value:
            best_value, best_support = float(current), tuple(int(i) for i in support)
    return best_value, best_support


def restart_entries(size, s):
    """Block entries of one restart's first ascent step: its swaps and its start."""
    return (s * (size - s) + 1) * s * s


class TestLockstep:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 20),
        data=st.data(),
        trials=st.integers(1, 9),
        seed=st.integers(0, 2**32),
        cap=st.sampled_from([1, 5]),
        group=st.sampled_from([1, 2, 3, 9]),
    )
    def test_equals_one_restart_at_a_time(self, n, data, trials, seed, cap, group):
        # small entry alphabets make ties; the bound fits `group` restarts
        # in one lockstep group: one, a few, or (9 >= trials) all of them
        s = data.draw(st.integers(1, min(5, n)))
        entries = st.sampled_from([0.0, 0.5, -1.0, 2.0]) | st.floats(-1.0, 1.0)
        a = lower_symmetric(data.draw(arrays(np.float64, (n, n), elements=entries)))
        with mock.patch.object(snorm, "_BLOCK_ENTRIES", group * restart_entries(n, s)):
            res = snorm_randomized(a, s, trials=trials, seed=seed, swap_cap_factor=cap)
        value, support = one_restart_at_a_time(a, s, trials, seed, cap)
        assert res.value == value
        assert res.argmax_support == support

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 9), data=st.data())
    def test_exact_does_not_depend_on_the_chunk_size(self, n, data):
        # one support per chunk against the default: the first-found
        # tie-break compares chunk maxima in enumeration order
        s = data.draw(st.integers(1, n))
        entries = st.sampled_from([0.0, 0.5, -1.0, 2.0]) | st.floats(-1.0, 1.0)
        a = lower_symmetric(data.draw(arrays(np.float64, (n, n), elements=entries)))
        with mock.patch.object(snorm, "_BLOCK_ENTRIES", 1):
            one = snorm_exact(a, s)
        assert snorm_exact(a, s) == one

    @pytest.mark.parametrize("dims, s, trials, modes", [
        ((16, 64, 4), 3, 32, (EXACT, RANDOMIZED)),  # mc_rip's shape
        ((64, 256, 8), 8, 3, (RANDOMIZED,)),
    ], ids=["mc_rip_shape", "paper_scale"])
    def test_calls_hold_at_most_the_entry_bound(self, monkeypatch, dims, s, trials, modes):
        # a call holds at most _BLOCK_ENTRIES block entries, or one
        # restart's first step where that is larger
        sizes = []
        original = MeasurementOperator.residual_blocks

        def recording(self, idx):
            out = original(self, idx)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(MeasurementOperator, "residual_blocks", recording)
        probes = generate_probes(ProblemDims(*dims), 7)
        size = probes.dims.signal_len
        limit = max(snorm._BLOCK_ENTRIES, restart_entries(size, s))
        for mode in modes:
            sizes.clear()
            rip_delta(probes, s, mode=mode, trials=trials, seed=1)
            assert 0 < max(sizes) <= limit
        if restart_entries(size, s) * trials <= snorm._BLOCK_ENTRIES:
            # every restart steps in one group: the first call scores all
            # their starting supports and swaps
            assert sizes[0] == trials * restart_entries(size, s)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        extra=st.integers(0, 10),
        p=st.integers(1, 3),
        s=st.integers(1, 3),
        seed=st.integers(0, 2**32),
        trials=st.integers(1, 8),
    )
    def test_randomized_rip_delta_never_exceeds_exact(self, n, extra, p, s, seed, trials):
        # both modes score a support with the same kernel, so the bound is exact
        assume(s <= n * p)
        probes = generate_probes(ProblemDims(n, n + extra, p), seed)
        exact = rip_delta(probes, s)
        rnd = rip_delta(probes, s, mode=RANDOMIZED, trials=trials, seed=seed)
        assert rnd.value <= exact.value
