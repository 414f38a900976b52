"""Random probe ensembles.

A probe set is ``p`` real waveforms of length ``m`` with iid
Normal(0, 1/m) samples, so each waveform has unit energy in expectation.
The time samples are all a probe set holds, as a probe file does; the
circulant columns and spectra that the measurement operators multiply by
are derived from them in :mod:`sparsep.operators`.

Conventions: arrays are 0-based internally.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import DataError, DimensionError, ParameterError


def is_integer(value):
    """True for a Python or numpy integer; bools are not counted."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite(value, low=-sys.float_info.max):
    """True for a real number in [low, float64 max]; bools, NaN, inf and huge ints fail."""
    if isinstance(value, (float, np.floating)):
        return bool(np.isfinite(value)) and float(value) >= low
    return is_integer(value) and low <= value <= sys.float_info.max


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


def _check_seed(seed, name="seed"):
    """``seed`` as an int, or ParameterError unless it is a 64-bit key in [0, 2**64).

    Seeds are masked to 64 bits downstream, so one outside would alias
    another; ``name`` labels the message.
    """
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise ParameterError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class ProbeSet:
    """Immutable probe ensemble: the time samples ``phi`` of shape (p, m).

    Construction checks ``phi``'s shape and finiteness and that ``seed`` is
    a 64-bit key in [0, 2**64).  Regeneration from (dims, seed) is
    bit-identical.
    """

    dims: ProblemDims
    seed: int
    phi: np.ndarray = field(repr=False)

    def __post_init__(self):
        seed = _check_seed(self.seed)
        phi = np.array(self.phi, dtype=np.float64, order="C")  # a copy: the caller's stays writable
        if phi.shape != (self.dims.p, self.dims.m):
            raise DimensionError(
                f"phi must have shape {(self.dims.p, self.dims.m)}, got {phi.shape}"
            )
        if not np.all(np.isfinite(phi)):
            raise DataError("phi contains non-finite samples")
        object.__setattr__(self, "seed", seed)
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)


def generate_probes(dims, seed):
    """Draw a probe set with iid Normal(0, 1/m) time samples.

    Deterministic in (dims, seed): the Philox stream is keyed by ``seed``
    alone, and n does not enter.
    """
    if not isinstance(dims, ProblemDims):
        dims = ProblemDims(*dims)
    seed = _check_seed(seed)
    return ProbeSet(dims, seed, rng.gaussians(seed, (dims.p, dims.m), scale=dims.m**-0.5))

