import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsep.budgets import BudgetError
from sparsep.errors import DimensionError
from sparsep.operators import (
    DENSE_KERNEL_ELEMENTS,
    MeasurementOperator,
    Variant,
    _fft_adjoint,
    _fft_apply,
    build_dense_folded,
    build_dense_linear,
    folded_operator,
    linear_operator,
)
from sparsep.probes import ProblemDims, ProbeSet, generate_probes


@pytest.fixture
def small():
    d = ProblemDims(n=4, m=8, p=2)
    return d, generate_probes(d, 7)


@pytest.fixture
def medium():
    d = ProblemDims(n=8, m=16, p=3)
    return d, generate_probes(d, 19)


class TestDenseLinear:
    def test_impulse_first_index(self, small):
        d, ps = small
        mat = build_dense_linear(ps)
        h = np.zeros(d.signal_len)
        h[0] = 1.0
        expected = np.concatenate([ps.phi[0], np.zeros(d.n - 1)])
        assert np.array_equal(mat @ h, expected)

    def test_impulse_last_index_of_block(self, small):
        d, ps = small
        mat = build_dense_linear(ps)
        h = np.zeros(d.signal_len)
        h[d.n - 1] = 1.0
        expected = np.concatenate([np.zeros(d.n - 1), ps.phi[0]])
        assert np.array_equal(mat @ h, expected)

    def test_block_structure(self, small):
        # columns n+1..2n equal the single-source matrix of source 2's probe
        d, ps = small
        mat = build_dense_linear(ps)
        single = build_dense_linear(ProbeSet(ProblemDims(d.n, d.m, 1), 0, ps.phi[1:2]))
        assert np.array_equal(mat[:, d.n :], single)

    def test_size_guard(self, small, monkeypatch):
        monkeypatch.setenv("SPARSEP_WORK_LIMIT", "10")
        _, ps = small
        with pytest.raises(BudgetError):
            build_dense_linear(ps)


class TestFoldMap:
    """The test-side fold matrix that the folded operator is checked against."""

    def test_example(self, fold_matrix):
        assert np.array_equal(fold_matrix(3, 2) @ np.array([1.0, 2.0, 3.0, 4.0]), [2.0, 3.0, 5.0])

    def test_identity_when_n1(self, fold_matrix):
        assert np.array_equal(fold_matrix(5, 1), np.eye(5))

    @pytest.mark.parametrize("m,n", [(8, 4), (16, 5), (6, 6), (9, 2)])
    def test_sigma_max_sqrt2(self, fold_matrix, m, n):
        smax = np.linalg.svd(fold_matrix(m, n), compute_uv=False)[0]
        assert abs(smax - np.sqrt(2.0)) < 1e-12


class TestDenseFolded:
    def test_equals_fold_of_linear(self, small, fold_matrix):
        d, ps = small
        folded = build_dense_folded(ps)
        lin = build_dense_linear(ps)
        fold = fold_matrix(d.m, d.n)
        assert np.max(np.abs(folded - fold @ lin)) < 1e-12

    def test_n1_equals_linear(self):
        d = ProblemDims(n=1, m=6, p=2)
        ps = generate_probes(d, 3)
        assert np.array_equal(build_dense_folded(ps), build_dense_linear(ps))


class TestMatrixFree:
    def test_zero_maps_to_zero(self, medium):
        d, ps = medium
        for op in (linear_operator(ps), folded_operator(ps)):
            assert np.array_equal(op.apply(np.zeros(d.signal_len)), np.zeros(op.output_len))
            assert np.array_equal(op.adjoint(np.zeros(op.output_len)), np.zeros(d.signal_len))

    def test_single_nonzero_is_shifted_probe(self, medium):
        d, ps = medium
        op = linear_operator(ps)
        for k, tau, c in [(0, 0, 1.0), (1, 3, -2.5), (2, d.n - 1, 0.75)]:
            x = np.zeros(d.signal_len)
            x[k * d.n + tau] = c
            expected = np.zeros(op.output_len)
            expected[tau : tau + d.m] = c * ps.phi[k]
            assert np.max(np.abs(op.apply(x) - expected)) < 1e-12 * abs(c)

    def test_apply_matches_dense(self, medium):
        d, ps = medium
        rng = np.random.default_rng(5)
        for op, dense in [
            (linear_operator(ps), build_dense_linear(ps)),
            (folded_operator(ps), build_dense_folded(ps)),
        ]:
            for _ in range(10):
                x = rng.standard_normal(d.signal_len)
                ref = dense @ x
                assert np.linalg.norm(op.apply(x) - ref) < 1e-10 * np.linalg.norm(ref)

    def test_adjoint_inner_product(self, medium):
        d, ps = medium
        rng = np.random.default_rng(11)
        for op in (linear_operator(ps), folded_operator(ps)):
            for _ in range(50):
                x = rng.standard_normal(op.input_len)
                y = rng.standard_normal(op.output_len)
                lhs = op.apply(x) @ y
                rhs = x @ op.adjoint(y)
                assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_gram_diagonal_identity(self, medium):
        d, ps = medium
        op = folded_operator(ps)
        for i in (0, 5, d.signal_len - 1):
            e = np.zeros(d.signal_len)
            e[i] = 1.0
            assert abs(op.adjoint(op.apply(e))[i] - np.linalg.norm(op.apply(e)) ** 2) < 1e-12

    def test_linearity(self, medium):
        d, ps = medium
        rng = np.random.default_rng(2)
        op = folded_operator(ps)
        x, z = rng.standard_normal((2, d.signal_len))
        lhs = op.apply(2.5 * x - 1.25 * z)
        rhs = 2.5 * op.apply(x) - 1.25 * op.apply(z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_fold_identity_on_applies(self, medium, fold_matrix):
        d, ps = medium
        fold = fold_matrix(d.m, d.n)
        opl, opf = linear_operator(ps), folded_operator(ps)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(d.signal_len)
            assert np.max(np.abs(opf.apply(x) - fold @ opl.apply(x))) < 1e-12

    def test_dimension_mismatch(self, medium):
        _, ps = medium
        op = folded_operator(ps)
        with pytest.raises(DimensionError):
            op.apply(np.zeros(op.input_len + 1))
        with pytest.raises(DimensionError):
            op.adjoint(np.zeros(op.output_len - 1))
        lags = linear_operator(generate_probes(ProblemDims(32, 4096, 2), 0))
        assert lags.lag_len is not None
        for bad in (op, lags):
            with pytest.raises(DimensionError):
                bad.gram_apply(np.zeros(bad.input_len - 1))


@st.composite
def _gram_apply_cases(draw):
    """(operator, x) over every kernel: held Gram, dense, and real FFT on both
    sides of K = next_fast_len(2n - 1) < fft_len, for both variants."""
    kernel = draw(st.sampled_from(("held gram", "dense", "lags", "fft")))
    variant = draw(st.sampled_from(Variant))
    if kernel == "held gram":  # N <= 128
        n = draw(st.integers(1, 16))
        p = draw(st.integers(1, 128 // n))
        m = draw(st.integers(n, 64))
    elif kernel == "dense":  # N > 128, output_len * N <= DENSE_KERNEL_ELEMENTS
        n = draw(st.integers(17, 32))
        p = draw(st.integers(-(-129 // n), 8))
        m = draw(st.integers(n, DENSE_KERNEL_ELEMENTS // (n * p) - n))
    elif kernel == "lags":  # above DENSE_KERNEL_ELEMENTS with K < fft_len
        n = draw(st.integers(1, 32))
        p = draw(st.integers(1, 8))
        low = DENSE_KERNEL_ELEMENTS // (n * p) + 1
        m = draw(st.integers(low, low + 4096))
    else:  # above DENSE_KERNEL_ELEMENTS with K >= fft_len
        n = draw(st.integers(72, 128))
        p = 16
        low = max(n, DENSE_KERNEL_ELEMENTS // (n * p) + 1)
        m = n if variant is Variant.LINEAR else draw(st.integers(low, 2 * n - 1))
    op = MeasurementOperator(generate_probes(ProblemDims(n, m, p), draw(st.integers(0, 2**32))),
                             variant)
    assert (op._matrix is None) == (kernel in ("lags", "fft"))
    assert (op.gram is not None) == (kernel == "held gram")
    assert (op.lag_len is not None) == (kernel == "lags")
    x = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(op.input_len)
    return op, x


@settings(max_examples=40, deadline=None)
@given(case=_gram_apply_cases())
@example(case=(folded_operator(generate_probes(ProblemDims(1, 2**17 + 1, 1), 0)), np.ones(1)))
@example(case=(linear_operator(generate_probes(ProblemDims(32, 4096, 2), 0)),
               np.random.default_rng(1).standard_normal(64)))
@example(case=(folded_operator(generate_probes(ProblemDims(128, 128, 16), 0)),
               np.random.default_rng(2).standard_normal(2048)))  # K = 256 > fft_len = 128
def test_gram_apply_equals_adjoint_apply(case):
    op, x = case
    expected = op.adjoint(op.apply(x))
    assert np.linalg.norm(op.gram_apply(x) - expected) <= 1e-12 * np.linalg.norm(expected)


@settings(max_examples=40, deadline=None)
@given(case=_gram_apply_cases(), seed=st.integers(0, 2**32))
@example(case=(linear_operator(generate_probes(ProblemDims(32, 4096, 2), 0)), None), seed=0)
@example(case=(folded_operator(generate_probes(ProblemDims(128, 128, 16), 0)), None), seed=1)
def test_residual_blocks_equal_gram_apply(case, seed):
    # the residual table against Phi^T Phi e_j on every kernel, the real-FFT
    # kernel included, where no matrix is held to compare with
    op = case[0]
    g = np.random.default_rng(seed)
    support = g.choice(op.input_len, size=g.integers(1, min(8, op.input_len), endpoint=True),
                       replace=False)
    columns = np.stack([op.gram_apply(np.eye(1, op.input_len, j)[0]) for j in support], axis=1)
    expected = np.eye(support.size) - columns[support]
    scale = max(1.0, np.max(np.abs(columns)))
    assert np.max(np.abs(op.residual_blocks(support) - expected)) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(case=_gram_apply_cases())
def test_views_are_read_only(case):
    # each Gram view is built once, on first read, and can be neither
    # written nor replaced
    op = case[0]
    for name in ("gram", "_lag_spectrum", "_residual"):
        view = getattr(op, name)
        assert getattr(op, name) is view
        with pytest.raises(AttributeError):
            setattr(op, name, view)
    assert (op._lag_spectrum is not None) == (op.lag_len is not None)
    for array in (op.gram, op._lag_spectrum, *op._residual):
        if array is not None:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0


def test_threads_that_race_build_the_same_views():
    # more threads than cores read each view of a fresh operator at once;
    # whichever build each thread sees, it holds the same bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for op in (folded_operator(generate_probes(ProblemDims(8, 24, 4), 1)),
                   linear_operator(generate_probes(ProblemDims(32, 4096, 2), 1))):
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(lambda: (op.gram, op._lag_spectrum, *op._residual))
                           for _ in range(8)]
                seen = [f.result(timeout=60) for f in futures]
            kept = (op.gram, op._lag_spectrum, *op._residual)
            for views in seen:
                for view, final in zip(views, kept):
                    assert (view is None) == (final is None)
                    assert view is None or view.tobytes() == final.tobytes()
    finally:
        sys.setswitchinterval(interval)


_TINY = np.finfo(np.float64).tiny  # results below the normal range have no relative precision


def _case(n, m, p, variant, x=None, y=None, probe_seed=5):
    op = MeasurementOperator(generate_probes(ProblemDims(n, m, p), probe_seed), variant)
    rng = np.random.default_rng(n * 1000 + m)
    x = rng.standard_normal(op.input_len) if x is None else np.asarray(x, dtype=float)
    y = rng.standard_normal(op.output_len) if y is None else np.asarray(y, dtype=float)
    return op, x, y


@st.composite
def _operator_and_inputs(draw):
    n = draw(st.integers(1, 16))
    d = ProblemDims(n=n, m=draw(st.integers(n, 48)), p=draw(st.integers(1, 6)))
    op = MeasurementOperator(generate_probes(d, draw(st.integers(0, 2**64 - 1))),
                             draw(st.sampled_from(Variant)))
    values = st.floats(-1e3, 1e3)
    x = np.array(draw(st.lists(values, min_size=op.input_len, max_size=op.input_len)))
    y = np.array(draw(st.lists(values, min_size=op.output_len, max_size=op.output_len)))
    return op, x, y


@settings(max_examples=200, deadline=None)
@given(case=_operator_and_inputs())
@example(case=_case(4, 8, 2, "linear"))  # m+n-1 = 11 padded to L = 12
@example(case=_case(5, 8, 2, "linear"))  # L = m+n-1 = 12, unpadded
@example(case=_case(3, 13, 2, "linear"))  # odd L = 15
@example(case=_case(3, 9, 3, "folded"))  # odd L = m = 9
@example(case=_case(1, 9, 1, "linear", [5.8e-213]))  # n = 1, tiny input
@example(case=_case(1, 9, 1, "folded", [5.8e-213]))
# x and y meet only a structural zero of A, where the irfft leaves 3.7e-17
@example(case=_case(2, 2, 1, "linear", [0, 1], [1, 0, 0], probe_seed=0))
def test_kernel_matches_dense(case):
    # both kernels serve both variants: apply and adjoint equal the dense
    # matrices, and adjoint is the exact transpose of apply.  These sizes
    # take the dense kernel through the public methods, so the real-FFT
    # kernel is also called directly.
    op, x, y = case
    build = build_dense_folded if op.variant is Variant.FOLDED else build_dense_linear
    dense = build(op.probes)
    for ax, aty in [(op.apply(x), op.adjoint(y)), (_fft_apply(op, x), _fft_adjoint(op, y))]:
        assert ax.shape == (op.output_len,) and aty.shape == (op.input_len,)
        # error is relative to |A||x|, which unlike a norm does not underflow
        assert np.max(np.abs(ax - dense @ x)) <= 1e-12 * np.max(np.abs(dense) @ np.abs(x)) + _TINY
        assert (np.max(np.abs(aty - dense.T @ y))
                <= 1e-12 * np.max(np.abs(dense.T) @ np.abs(y)) + _TINY)
        # FFT rounding reaches every entry, structural zeros of A included, so
        # the scale bounds all of A rather than |y|^T |A| |x|
        scale = np.max(np.abs(dense)) * np.sum(np.abs(x)) * np.sum(np.abs(y))
        assert abs(ax @ y - x @ aty) <= 1e-12 * scale + _TINY


@pytest.mark.parametrize("variant", list(Variant))
def test_dense_kernel_below_the_constant(variant, monkeypatch):
    # n*p = 512 columns; rows = DENSE_KERNEL_ELEMENTS/512 puts the matrix at
    # the constant, one more row above it.  The dense budget plays no part.
    monkeypatch.setenv("SPARSEP_WORK_LIMIT", "1")
    n, p = 64, 8
    rows = DENSE_KERNEL_ELEMENTS // (n * p)
    m_at = rows if variant is Variant.FOLDED else rows - n + 1
    for m, dense in [(m_at - 1, True), (m_at, True), (m_at + 1, False)]:
        op = MeasurementOperator(generate_probes(ProblemDims(n, m, p), 0), variant)
        assert (op._matrix is not None) is dense
        assert (op.output_len * op.input_len <= DENSE_KERNEL_ELEMENTS) is dense
    op = MeasurementOperator(generate_probes(ProblemDims(256, 1024, 16), 0), variant)
    assert op._matrix is None


@pytest.mark.parametrize("dims, variant, fft_len", [
    ((4, 8, 2), "linear", 12),
    ((5, 8, 2), "linear", 12),
    ((3, 13, 2), "linear", 15),
    ((3, 9, 3), "folded", 9),
    ((256, 1024, 16), "linear", 1280),  # m+n-1 = 1279 is prime
    ((256, 1024, 16), "folded", 1024),
])
def test_fft_length(dims, variant, fft_len):
    op = MeasurementOperator(generate_probes(ProblemDims(*dims), 1), variant)
    assert op.fft_len == fft_len


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    extra=st.integers(0, 24),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    variant=st.sampled_from(list(Variant)),
)
@example(n=1, extra=0, p=1, seed=0, variant=Variant.LINEAR)
@example(n=1, extra=0, p=1, seed=0, variant=Variant.FOLDED)
@example(n=16, extra=48, p=4, seed=0, variant=Variant.LINEAR)
@example(n=16, extra=48, p=4, seed=0, variant=Variant.FOLDED)
def test_lag_gram_equals_dense_residual(n, extra, p, seed, variant):
    # the full support reads the whole residual I - A^T A from the lag table
    op = MeasurementOperator(generate_probes(ProblemDims(n, n + extra, p), seed), variant)
    dense = (build_dense_folded if variant is Variant.FOLDED else build_dense_linear)(op.probes)
    residual = op.residual_blocks(np.arange(n * p))
    assert np.max(np.abs(residual - (np.eye(n * p) - dense.T @ dense))) <= 1e-12


def _circulant(c):
    """Dense circulant with first column c: entry (t, u) is c[(t - u) mod len(c)]."""
    return np.stack([np.roll(c, u) for u in range(c.size)], axis=1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    extra=st.integers(0, 24),
    p=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
    variant=st.sampled_from(list(Variant)),
)
@example(n=4, extra=4, p=2, seed=0, variant=Variant.LINEAR)  # L = 12 > m+n-1 = 11
@example(n=1, extra=0, p=1, seed=0, variant=Variant.FOLDED)
def test_blocks_are_circulant_columns(n, extra, p, seed, variant):
    # block k of the matrix is the first n columns of the circulant of c_k,
    # built here from phi alone: roll(phi_k, 1 - n) folded, phi_k
    # zero-padded to L linear; folded blocks are F* diag(fft(c_k)) F[:, :n]
    d = ProblemDims(n, n + extra, p)
    ps = generate_probes(d, seed)
    op = MeasurementOperator(ps, variant)
    dense = (build_dense_folded if variant is Variant.FOLDED else build_dense_linear)(ps)
    if variant is Variant.FOLDED:
        c = np.roll(ps.phi, 1 - n, axis=1)
    else:
        c = np.pad(ps.phi, ((0, 0), (0, op.fft_len - d.m)))
    if op._matrix is not None:
        assert np.array_equal(op._matrix, dense)
    w = np.arange(d.m)
    f = np.exp(-2j * np.pi * np.outer(w, w) / d.m) / np.sqrt(d.m)
    for k in range(p):
        block = dense[:, k * n : (k + 1) * n]
        assert np.array_equal(block, _circulant(c[k])[: op.output_len, :n])
        if variant is Variant.FOLDED:
            spectral = f.conj().T @ np.diag(np.fft.fft(c[k])) @ f[:, :n]
            assert np.max(np.abs(spectral - block)) <= 1e-12


class TestGramExpansions:
    def build_f_vectors(self, d):
        m, n, p = d.m, d.n, d.p
        f = np.exp(-2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        vecs = {}
        for k in range(p):
            for w in range(m):
                v = np.zeros(n * p, dtype=complex)
                v[k * n : (k + 1) * n] = np.conj(f[w, :n])
                vecs[(k, w)] = v
        return vecs

    def test_rank_one_resolution_of_identity(self, small):
        d, _ = small
        vecs = self.build_f_vectors(d)
        total = np.zeros((d.signal_len, d.signal_len), dtype=complex)
        for v in vecs.values():
            total += np.outer(v, np.conj(v))
        assert np.max(np.abs(total - np.eye(d.signal_len))) < 1e-12

    def test_gram_equals_rank_one_expansion(self, small):
        d, ps = small
        vecs = self.build_f_vectors(d)
        g = np.fft.fft(np.roll(ps.phi, 1 - d.n, axis=1), axis=1)
        expansion = np.zeros((d.signal_len, d.signal_len), dtype=complex)
        for k in range(d.p):
            for j in range(d.p):
                for w in range(d.m):
                    coef = np.conj(g[k, w]) * g[j, w]
                    expansion += coef * np.outer(vecs[(k, w)], np.conj(vecs[(j, w)]))
        dense = build_dense_folded(ps)
        gram = dense.T @ dense
        assert np.max(np.abs(expansion.imag)) < 1e-10
        assert np.max(np.abs(expansion.real - gram)) < 1e-10

    def test_gram_apply_matches_adjoint_apply(self, small):
        d, ps = small
        op = folded_operator(ps)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(d.signal_len)
            assert np.max(np.abs(op.gram_apply(x) - op.adjoint(op.apply(x)))) < 1e-12


def test_variant_enum_roundtrip():
    assert Variant("linear") is Variant.LINEAR
    assert Variant("folded") is Variant.FOLDED
    ps = generate_probes(ProblemDims(2, 4, 1), 0)
    op = MeasurementOperator(ps, "folded")
    assert op.variant is Variant.FOLDED
    assert op.output_len == 4

