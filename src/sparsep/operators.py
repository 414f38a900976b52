"""Measurement operators: concatenated convolutions, folding, adjoints.

Two variants act on the concatenated channel vector x of length n*p
(p blocks of length n):

* linear  -- y = sum_k conv_full(phi_k, x_k), length m + n - 1;
* folded  -- the linear observations with the first n-1 entries added to
  the last n-1, leaving m entries.  Each folded block is the first n
  columns of an m x m circulant.

Both variants run one real-FFT kernel: circular convolution at length L
against (p, L//2 + 1) half spectra.  Folded: L = m and the first m//2 + 1
entries of ``probes.g``.  Linear: L = next_fast_len(m + n - 1), where
circular and linear convolution agree, keeping the first m + n - 1
outputs.  irfft output is real by construction; all public vectors are
real float64.

Dense constructions are for tests and tiny instances and are gated by the
dense element budget.
"""

import enum

import numpy as np
from scipy.fft import next_fast_len

from . import budgets
from .errors import DimensionError, ParameterError
from .probes import ProbeSet


class Variant(enum.Enum):
    LINEAR = "linear"
    FOLDED = "folded"


class FoldMap:
    """The m x (m+n-1) map adding the first n-1 entries to the last n-1.

    out[t] = in[n-1+t] for t = 0..m-n, and
    out[m-n+1+t] = in[m+t] + in[t] for t = 0..n-2 (0-based).
    Its largest singular value is sqrt(2) for n >= 2 and 1 for n == 1.
    """

    def __init__(self, m, n):
        if n < 1 or m < n:
            raise DimensionError(f"need m >= n >= 1, got m={m}, n={n}")
        self.m = int(m)
        self.n = int(n)
        self.input_len = self.m + self.n - 1
        self.output_len = self.m

    def apply(self, y_lin):
        y_lin = np.asarray(y_lin, dtype=np.float64)
        if y_lin.shape != (self.input_len,):
            raise DimensionError(
                f"expected length {self.input_len}, got {y_lin.shape}"
            )
        out = y_lin[self.n - 1 : self.m].copy()
        if self.n > 1:
            out = np.concatenate([out, y_lin[self.m :] + y_lin[: self.n - 1]])
        return out

    def adjoint(self, y):
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.output_len,):
            raise DimensionError(
                f"expected length {self.output_len}, got {y.shape}"
            )
        out = np.zeros(self.input_len)
        out[self.n - 1 : self.m] = y[: self.m - self.n + 1]
        if self.n > 1:
            tail = y[self.m - self.n + 1 :]
            out[self.m :] = tail
            out[: self.n - 1] += tail
        return out

    def dense(self):
        a = np.zeros((self.output_len, self.input_len))
        for t in range(self.m - self.n + 1):
            a[t, self.n - 1 + t] = 1.0
        for t in range(self.n - 1):
            a[self.m - self.n + 1 + t, self.m + t] = 1.0
            a[self.m - self.n + 1 + t, t] = 1.0
        return a


class MeasurementOperator:
    """Matrix-free handle for one variant, bound to a probe set.

    The variant sets only ``fft_len`` and the half spectra.  apply/adjoint
    are reentrant and allocate per call; the operator is immutable.
    """

    def __init__(self, probes, variant):
        if not isinstance(probes, ProbeSet):
            raise ParameterError("probes must be a ProbeSet")
        variant = Variant(variant)
        self.probes = probes
        self.dims = probes.dims
        self.variant = variant
        self.input_len = self.dims.signal_len
        if variant is Variant.FOLDED:
            self.output_len = self.fft_len = self.dims.m
            self._g_half = probes.g[:, : self.dims.m // 2 + 1]
        else:
            self.output_len = self.dims.linear_len
            self.fft_len = next_fast_len(self.output_len, real=True)
            self._g_half = np.fft.rfft(probes.phi, n=self.fft_len, axis=1)

    def apply(self, x):
        """y = Phi x via one batched rfft over the p blocks."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_len,):
            raise DimensionError(
                f"expected input length {self.input_len}, got {x.shape}"
            )
        spec = np.fft.rfft(x.reshape(self.dims.p, self.dims.n), n=self.fft_len, axis=1)
        y = np.fft.irfft(np.sum(self._g_half * spec, axis=0), n=self.fft_len)
        return y[: self.output_len]

    def adjoint(self, y):
        """x = Phi^T y; exact adjoint of :meth:`apply`."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.output_len,):
            raise DimensionError(
                f"expected output length {self.output_len}, got {y.shape}"
            )
        z = np.fft.rfft(y, n=self.fft_len)
        blocks = np.fft.irfft(np.conj(self._g_half) * z[None, :], n=self.fft_len, axis=1)
        return blocks[:, : self.dims.n].reshape(-1)

    def gram_apply(self, x):
        """Phi^T Phi x (folded only)."""
        if self.variant is not Variant.FOLDED:
            raise ParameterError("gram_apply is defined for the folded variant")
        return self.adjoint(self.apply(x))


class LagGram:
    """Phi^T Phi of an operator, indexed by lag.

    On the operator's length-L transform grid, column (k, j) of Phi is
    phi_k shifted by j plus a fixed offset, so entry ((k, j), (l, i)) of
    Phi^T Phi is the circular cross-correlation ``lags[k, l, (j - i) mod L]``
    with ``lags[k, l] = irfft(conj(g_k) g_l)`` over the operator's half
    spectra.  Folded: L = m.  Linear: L >= m + n - 1, so no lag wraps.
    The table holds p * p * L floats.
    """

    def __init__(self, op):
        g = op._g_half
        self.lags = np.fft.irfft(np.conj(g)[:, None, :] * g[None, :, :], n=op.fft_len, axis=-1)
        self.n, self.p, self.fft_len = op.dims.n, op.dims.p, op.fft_len

    def residual_blocks(self, idx):
        """Principal blocks (I - Phi^T Phi)[idx, idx] for indices of shape (..., s)."""
        k, j = np.divmod(np.asarray(idx), self.n)
        pair = k[..., :, None] * self.p + k[..., None, :]
        lag = (j[..., :, None] - j[..., None, :]) % self.fft_len
        return np.eye(k.shape[-1]) - self.lags.reshape(-1)[pair * self.fft_len + lag]


def linear_operator(probes):
    return MeasurementOperator(probes, Variant.LINEAR)


def folded_operator(probes):
    return MeasurementOperator(probes, Variant.FOLDED)


def build_dense_linear(probes):
    """Explicit (m+n-1) x (n*p) block-Toeplitz matrix; tests only."""
    d = probes.dims
    budgets.check_dense(d.linear_len * d.signal_len, "dense linear operator")
    out = np.zeros((d.linear_len, d.signal_len))
    for k in range(d.p):
        for j in range(d.n):
            out[j : j + d.m, k * d.n + j] = probes.phi[k]
    return out


def build_dense_folded(probes):
    """Explicit m x (n*p) concatenation of first-n-column circulant blocks.

    Entry (t, j) of block k is phi_k[(n-1+t-j) mod m]; this agrees with
    FoldMap applied to the dense linear matrix entry for entry.
    """
    d = probes.dims
    budgets.check_dense(d.m * d.signal_len, "dense folded operator")
    t = np.arange(d.m)[:, None]
    j = np.arange(d.n)[None, :]
    idx = (d.n - 1 + t - j) % d.m
    blocks = [probes.phi[k][idx] for k in range(d.p)]
    return np.concatenate(blocks, axis=1)

