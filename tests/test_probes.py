import dataclasses

import numpy as np
import pytest

from sparsep.errors import DataError, DimensionError, ParameterError
from sparsep.operators import folded_operator
from sparsep.probes import ProblemDims, ProbeSet, generate_probes


def dense_dft(m):
    w = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(w, w) / m) / np.sqrt(m)


def folded_spectra(ps):
    """Full length-m DFT of each folded circulant column roll(phi_k, 1 - n)."""
    return np.fft.fft(np.roll(ps.phi, 1 - ps.dims.n, axis=1), axis=1)


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
    assert np.array_equal(folded_operator(a)._g_half, folded_operator(b)._g_half)
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
    # the full spectrum is conjugate symmetric, so the operator's half
    # spectra hold all of it
    d = ProblemDims(n=5, m=16, p=3)
    ps = generate_probes(d, 21)
    g = folded_spectra(ps)
    half = folded_operator(ps)._g_half
    m = d.m
    assert np.max(np.abs(half - g[:, : m // 2 + 1])) < 1e-12
    for k in range(d.p):
        for w in range(1, m):
            assert abs(g[k, w] - np.conj(g[k, (m - w) % m])) < 1e-12
        assert abs(half[k, 0].imag) < 1e-12
        assert abs(half[k, m // 2].imag) < 1e-12  # m even


def test_impulse_probe_gives_flat_spectrum():
    # phi with phi(n) = 1 makes the circulant first column e_1, so the spectrum is constant
    d = ProblemDims(n=4, m=8, p=1)
    phi = np.zeros((1, 8))
    phi[0, d.n - 1] = 1.0
    ps = ProbeSet(d, 0, phi)
    assert np.allclose(folded_operator(ps)._g_half, 1.0, atol=1e-12)


def test_spectrum_reconstructs_dense_folded_block():
    from sparsep.operators import build_dense_folded

    d = ProblemDims(n=4, m=8, p=2)
    ps = generate_probes(d, 77)
    dense = build_dense_folded(ps)
    f = dense_dft(d.m)
    g = folded_spectra(ps)
    for k in range(d.p):
        block = f.conj().T @ np.diag(g[k]) @ f[:, : d.n]
        assert np.max(np.abs(block.imag)) < 1e-10
        assert np.max(np.abs(block.real - dense[:, k * d.n : (k + 1) * d.n])) < 1e-10


def test_spectrum_second_moment():
    # the spectral entries have unit second moment: every bin's mean of
    # |g_k(w)|^2 over many sources concentrates near 1
    ps = generate_probes(ProblemDims(4, 16, 4096), 1)
    stats = np.mean(np.abs(folded_spectra(ps)) ** 2, axis=0)
    assert stats.shape == (16,)
    assert np.all(stats >= 0.9) and np.all(stats <= 1.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_rejected(bad):
    phi = np.zeros((2, 4))
    phi[1, 2] = bad
    with pytest.raises(DataError):
        ProbeSet(ProblemDims(2, 4, 2), 0, phi)


def test_probe_arrays_immutable():
    ps = generate_probes(ProblemDims(2, 4, 1), 0)
    with pytest.raises(ValueError):
        ps.phi[0, 0] = 1.0


def test_caller_array_stays_writable():
    phi = np.zeros((1, 4))
    ps = ProbeSet(ProblemDims(2, 4, 1), 0, phi)
    phi[0, 0] = 1.0
    assert ps.phi[0, 0] == 0.0


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1, 1.0, True, "1"])
def test_seed_outside_64_bits_rejected(seed):
    # Philox keys on the low 64 bits, so 2**64 + 1 would draw seed 1's probes
    with pytest.raises(ParameterError, match="seed"):
        generate_probes(ProblemDims(2, 4, 1), seed)
    with pytest.raises(ParameterError, match="seed"):
        ProbeSet(ProblemDims(2, 4, 1), seed, np.zeros((1, 4)))


def test_seed_range_ends_accepted():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        ps = generate_probes(ProblemDims(2, 4, 1), seed)
        assert ps.seed == int(seed) and type(ps.seed) is int


def test_probe_set_holds_only_its_samples():
    assert [f.name for f in dataclasses.fields(ProbeSet)] == ["dims", "seed", "phi"]
