import numpy as np
import pytest

from sparsep.errors import DataError, DimensionError
from sparsep.probes import ProblemDims, ProbeSet, generate_probes


def dense_dft(m):
    w = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(w, w) / m) / np.sqrt(m)


class TestProblemDims:
    def test_valid(self):
        d = ProblemDims(n=4, m=8, p=2)
        assert d.signal_len == 8
        assert d.linear_len == 11

    @pytest.mark.parametrize("bad", [dict(n=2, m=1, p=1), dict(n=8, m=4, p=2)])
    def test_m_lt_n_rejected(self, bad):
        with pytest.raises(DimensionError):
            ProblemDims(**bad)

    @pytest.mark.parametrize("bad", [dict(n=0, m=4, p=1), dict(n=1, m=1, p=0),
                                     dict(n=1, m=0, p=1)])
    def test_zero_fields_rejected(self, bad):
        with pytest.raises(DimensionError):
            ProblemDims(**bad)


def test_generation_deterministic():
    d = ProblemDims(n=4, m=8, p=2)
    a = generate_probes(d, 7)
    b = generate_probes(d, 7)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.g, b.g)
    c = generate_probes(d, 8)
    assert not np.array_equal(a.phi, c.phi)


def test_unit_energy_in_expectation():
    probes = generate_probes(ProblemDims(n=4, m=8, p=2048), 3)
    mean_energy = np.mean(np.sum(probes.phi**2, axis=1))
    assert 0.95 <= mean_energy <= 1.05


def test_entry_statistics():
    # >= 1e4 samples: variance within 10% of 1/m, mean within 3 standard errors
    d = ProblemDims(n=4, m=16, p=1024)
    phi = generate_probes(d, 12).phi
    flat = phi.reshape(-1)
    assert flat.size >= 10**4
    assert abs(flat.var() - 1.0 / d.m) <= 0.1 / d.m
    se = np.sqrt(1.0 / d.m / flat.size)
    assert abs(flat.mean()) <= 3 * se


def test_conjugate_symmetry_and_real_bins():
    d = ProblemDims(n=5, m=16, p=3)
    g = generate_probes(d, 21).g
    m = d.m
    for k in range(d.p):
        for w in range(1, m):
            assert abs(g[k, w] - np.conj(g[k, (m - w) % m])) < 1e-12
        assert abs(g[k, 0].imag) < 1e-12
        assert abs(g[k, m // 2].imag) < 1e-12  # m even


def test_impulse_probe_gives_flat_spectrum():
    # phi with phi(n) = 1 makes the circulant first row e_1, so g is constant
    d = ProblemDims(n=4, m=8, p=1)
    phi = np.zeros((1, 8))
    phi[0, d.n - 1] = 1.0
    ps = ProbeSet.from_time_samples(d, 0, phi)
    assert np.allclose(ps.g, 1.0, atol=1e-12)


def test_spectrum_reconstructs_dense_folded_block():
    from sparsep.operators import build_dense_folded

    d = ProblemDims(n=4, m=8, p=2)
    ps = generate_probes(d, 77)
    dense = build_dense_folded(ps)
    f = dense_dft(d.m)
    for k in range(d.p):
        block = f.conj().T @ np.diag(ps.g[k]) @ f[:, : d.n]
        assert np.max(np.abs(block.imag)) < 1e-10
        assert np.max(np.abs(block.real - dense[:, k * d.n : (k + 1) * d.n])) < 1e-10


def test_spectrum_second_moment():
    # the spectral entries have unit second moment: every bin's mean of
    # |g_k(w)|^2 over many sources concentrates near 1
    ps = generate_probes(ProblemDims(4, 16, 4096), 1)
    stats = np.mean(np.abs(ps.g) ** 2, axis=0)
    assert stats.shape == (16,)
    assert np.all(stats >= 0.9) and np.all(stats <= 1.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(bad):
    phi = np.zeros((2, 4))
    phi[1, 2] = bad
    with pytest.raises(DataError):
        ProbeSet.from_time_samples(ProblemDims(2, 4, 2), 0, phi)


def test_probe_arrays_immutable():
    ps = generate_probes(ProblemDims(2, 4, 1), 0)
    with pytest.raises(ValueError):
        ps.phi[0, 0] = 1.0
