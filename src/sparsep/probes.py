"""Random probe ensembles and their spectral representation.

A probe set is ``p`` real waveforms of length ``m`` with iid
Normal(0, 1/m) samples, so each waveform has unit energy in expectation.
The spectral view ``g`` holds, per source, the diagonal of the length-m
DFT that diagonalizes the source's circulant measurement block; it is
derived from the time-domain samples (the single source of truth), never
sampled directly, so conjugate symmetry holds by construction.

Conventions: arrays are 0-based internally; the unitary DFT matrix used
throughout is ``F(w, t) = exp(-2j*pi*w*t/m) / sqrt(m)``.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DataError, DimensionError


def is_integer(value):
    """True for a Python or numpy integer; bools are not counted."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProblemDims:
    """Problem sizes: channel length n, probe length m, p sources.

    The folding construction requires m >= n.
    """

    n: int
    m: int
    p: int

    def __post_init__(self):
        for name in ("n", "m", "p"):
            value = getattr(self, name)
            if not is_integer(value):
                raise DimensionError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise DimensionError(f"{name} must be >= 1, got {value}")
        if self.m < self.n:
            raise DimensionError(
                f"m must be >= n (folding requirement), got m={self.m}, n={self.n}"
            )

    @property
    def signal_len(self):
        """Length n*p of the concatenated channel vector."""
        return self.n * self.p

    @property
    def linear_len(self):
        """Number of linear-convolution observations, m + n - 1."""
        return self.m + self.n - 1


def _spectra(phi, n):
    """Per-source spectral diagonals from time-domain probes.

    The circulant block of source k has first row
    ``[phi(n), ..., phi(1), phi(m), ..., phi(n+1)]`` (1-based); its
    eigenvalues on the unitary DFT basis are the conjugated FFT of that
    row, which is what this returns.
    """
    m = phi.shape[1]
    first_rows = np.roll(phi[:, ::-1], n % m, axis=1)
    return np.conj(np.fft.fft(first_rows, axis=1))


def _freeze(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ProbeSet:
    """Immutable probe ensemble: time samples ``phi`` and spectra ``g``.

    ``phi`` has shape (p, m); ``g`` has shape (p, m) complex and satisfies
    ``g[k, w] == conj(g[k, (m - w) % m])`` because phi is real.
    Regeneration from (dims, seed) is bit-identical.
    """

    dims: ProblemDims
    seed: int
    phi: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)

    @classmethod
    def from_time_samples(cls, dims, seed, phi):
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (dims.p, dims.m):
            raise DimensionError(
                f"phi must have shape {(dims.p, dims.m)}, got {phi.shape}"
            )
        if not np.all(np.isfinite(phi)):
            raise DataError("phi contains non-finite samples")
        g = _spectra(phi, dims.n)
        return cls(dims=dims, seed=int(seed), phi=_freeze(phi), g=_freeze(g))


def generate_probes(dims, seed):
    """Draw a probe set with iid Normal(0, 1/m) time samples.

    Deterministic in (dims, seed): the Philox stream is keyed by ``seed``
    alone, and n enters only through the derived spectra.
    """
    if not isinstance(dims, ProblemDims):
        dims = ProblemDims(*dims)
    phi = rng.gaussians(seed, (dims.p, dims.m), scale=dims.m**-0.5)
    return ProbeSet.from_time_samples(dims, seed, phi)

