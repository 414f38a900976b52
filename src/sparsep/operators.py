"""Measurement operators: concatenated convolutions, folding, adjoints.

Two variants act on the concatenated channel vector x of length n*p
(p blocks of length n):

* linear  -- y = sum_k conv_full(phi_k, x_k), length m + n - 1;
* folded  -- the linear observations with the first n-1 entries added to
  the last n-1, leaving m entries.  Each folded block is the first n
  columns of an m x m circulant, so applies are length-m FFTs against the
  precomputed probe spectra.

All public vectors are real float64; complex arithmetic stays inside the
FFT paths and the inverse-transform imaginary residue is checked against
1e-9 * ||input|| before being dropped.

Dense constructions are for tests and tiny instances and are gated by the
dense element budget.
"""

import enum

import numpy as np

from . import budgets
from .errors import DimensionError, ParameterError
from .probes import ProbeSet

_IMAG_RESIDUE_REL = 1e-9


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


def _real_part(z, in_norm):
    residue = np.max(np.abs(z.imag)) if z.size else 0.0
    if residue > _IMAG_RESIDUE_REL * max(in_norm, 1e-300):
        raise ArithmeticError(
            f"imaginary residue {residue:.3e} exceeds {_IMAG_RESIDUE_REL:.0e} * ||x||"
        )
    return np.ascontiguousarray(z.real)


class MeasurementOperator:
    """Matrix-free handle for one variant, bound to a probe set.

    apply/adjoint are reentrant and allocate per call; the operator itself
    is immutable after construction.
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
            self.output_len = self.dims.m
            self._g = probes.g
        else:
            self.output_len = self.dims.linear_len
            # zero-padded probe spectra at the full linear length
            self._g = np.fft.fft(probes.phi, n=self.output_len, axis=1)

    def _blocks(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_len,):
            raise DimensionError(
                f"expected input length {self.input_len}, got {x.shape}"
            )
        return x, x.reshape(self.dims.p, self.dims.n)

    def apply(self, x):
        """y = Phi x via one batched FFT over the p blocks."""
        x, blocks = self._blocks(x)
        spec = np.fft.fft(blocks, n=self.output_len, axis=1)
        total = np.sum(self._g * spec, axis=0)
        y = np.fft.ifft(total)
        return _real_part(y, np.linalg.norm(x))

    def adjoint(self, y):
        """x = Phi^T y; exact adjoint of :meth:`apply`."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.output_len,):
            raise DimensionError(
                f"expected output length {self.output_len}, got {y.shape}"
            )
        z = np.fft.fft(y)
        blocks = np.fft.ifft(np.conj(self._g) * z[None, :], axis=1)[:, : self.dims.n]
        return _real_part(blocks.reshape(-1), np.linalg.norm(y))

    def gram_apply(self, x):
        """Phi^T Phi x without leaving the frequency domain (folded only)."""
        if self.variant is not Variant.FOLDED:
            raise ParameterError("gram_apply is defined for the folded variant")
        x, blocks = self._blocks(x)
        spec = np.fft.fft(blocks, n=self.output_len, axis=1)
        total = np.sum(self._g * spec, axis=0)
        back = np.fft.ifft(np.conj(self._g) * total[None, :], axis=1)[:, : self.dims.n]
        return _real_part(back.reshape(-1), np.linalg.norm(x))

    def column(self, index):
        """Column ``index`` of the dense matrix, computed analytically."""
        d = self.dims
        if not 0 <= index < self.input_len:
            raise DimensionError(f"column index {index} out of range")
        k, j = divmod(index, d.n)
        phi_k = self.probes.phi[k]
        if self.variant is Variant.FOLDED:
            return np.roll(phi_k, j - d.n + 1)
        col = np.zeros(self.output_len)
        col[j : j + d.m] = phi_k
        return col


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

