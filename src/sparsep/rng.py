"""Deterministic randomness for the whole package.

Every random quantity in the library flows through this module, and the
pipeline is fixed so that results are reproducible bit-for-bit:

* Bit source: numpy's Philox counter-based generator, keyed with a 64-bit
  seed.  Philox is counter-based, so independent streams come from
  independent keys rather than from jumping a shared state.
* Uniforms: one 53-bit integer draw per sample, mapped to the midpoint of
  its bin, ``u = (k + 1/2) * 2**-53``, clipped into
  ``[2**-54, 1 - 2**-53]`` so the inverse CDF stays finite.
* Gaussians: the inverse normal CDF (``scipy.special.ndtri``) applied to
  those uniforms.  No rejection, no cached spare values, so the stream is
  a pure function of (seed, index).
* Sub-stream seeds: SplitMix64 absorption of integer labels, see
  :func:`derive_seed`.  Experiments derive per-trial seeds as
  ``derive_seed(base_seed, grid_index, trial_index)`` and never from
  execution order.

Do not change the generator family or the uniform-to-Gaussian map: golden
regression values in the test suite depend on the exact stream.
"""

import numpy as np
from scipy.special import ndtri

_M64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def derive_seed(base, *labels):
    """Derive a 64-bit sub-stream seed from a base seed and integer labels.

    The chain is ``s <- splitmix64(s ^ splitmix64(label))`` starting from
    ``base``; distinct label tuples give independent Philox keys.
    """
    s = int(base) & _M64
    for label in labels:
        s = _splitmix64(s ^ _splitmix64(int(label) & _M64))
    return s


def _generator(seed):
    return np.random.Generator(np.random.Philox(key=int(seed) & _M64))


def uniforms(seed, size):
    """Uniform(0, 1) samples; deterministic in (seed, size)."""
    k = _generator(seed).integers(0, 1 << 53, size=size, dtype=np.uint64)
    u = (k.astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53)


def gaussians(seed, size, scale=1.0):
    """Normal(0, scale^2) samples via the inverse-CDF map."""
    z = ndtri(uniforms(seed, size))
    if scale != 1.0:
        z = z * scale
    return z


def rand_support(seed, n_total, k):
    """Uniformly random size-k subset of range(n_total), sorted ascending."""
    if not 0 <= k <= n_total:
        raise ValueError(f"support size {k} outside [0, {n_total}]")
    u = uniforms(seed, n_total)
    order = np.argsort(u, kind="stable")
    return np.sort(order[:k])


def sparse_channel(seed_support, seed_amp, size, s):
    """Length-size vector with s standard Gaussian entries on a random support."""
    h = np.zeros(size)
    if s > 0:
        h[rand_support(seed_support, size, s)] = gaussians(seed_amp, s)
    return h


def rand_signs(seed, size):
    """Random +-1 array."""
    return np.where(uniforms(seed, size) < 0.5, -1.0, 1.0)


def noise_with_norm(seed, size, target_norm):
    """Gaussian direction rescaled so its l2 norm is exactly target_norm."""
    e = gaussians(seed, size)
    nrm = np.linalg.norm(e)
    if nrm == 0.0:
        e = np.zeros(size)
        if size:
            e[0] = 1.0
        nrm = 1.0
    return e * (float(target_norm) / nrm)
