"""Measurement operators: concatenated convolutions, folding, adjoints.

Two variants act on the concatenated channel vector x of length n*p
(p blocks of length n):

* linear  -- y = sum_k conv_full(phi_k, x_k), length m + n - 1;
* folded  -- the linear observations with the first n-1 entries added to
  the last n-1, leaving m entries.

Both variants are the first n columns of p circulants of one length L,
side by side, truncated to their first output_len rows.  Each operator
holds the first columns ``c`` of its circulants, a real (p, L) array, and
derives everything else from it:

* folded -- L = m and c_k = roll(phi_k, 1 - n); output_len = m.
* linear -- L = next_fast_len(m + n - 1), where circular and linear
  convolution agree, and c_k is phi_k zero-padded to L; output_len =
  m + n - 1.

Entry (t, (k, j)) of the matrix is ``c[k, (t - j) mod L]``.  Each operator
runs one of two kernels, chosen by the size of that matrix:

* dense -- when output_len * input_len <= DENSE_KERNEL_ELEMENTS the
  operator holds its exact matrix, and apply/adjoint are one matrix-vector
  product each.  The constant bounds the matrix (1 MiB), so it is not
  charged to the dense budget of :mod:`sparsep.budgets`.
* real FFT -- above it, circular convolution at length L against the
  (p, L//2 + 1) half spectra ``rfft(c)``, keeping the first output_len
  outputs.  irfft output is real by construction.

The constant is the largest power of two below the measured crossover.
One apply plus one adjoint, in microseconds, best of 7 on a 2-vCPU VM
(numpy FFT, OpenBLAS on one thread):

    variant  elements  (n, m, p)        FFT   dense
    folded        768  (8, 24, 4)      31.6     2.5
    folded      32768  (32, 128, 8)    44.5    11.2
    folded     131072  (64, 256, 8)    48.2    38.3
    linear     163328  (64, 256, 8)    48.9    31.1
    folded     196608  (64, 384, 8)    64.4    66.9
    linear     228864  (64, 384, 8)    64.9    76.6
    folded     262144  (64, 256, 16)   58.2   108.7
    folded    4194304  (256, 1024, 16)  179    2979

An operator of the dense kernel with input_len**2 <= GRAM_KERNEL_ELEMENTS
(N = input_len <= 128) also holds its Gram ``gram = matrix.T @ matrix``;
on every other operator ``gram`` is None.  The solvers step FISTA and IHT
through it, z -> (I - mu G) z + mu Phi^T y, in place of one apply and one
adjoint, and read ||Phi||^2 as its largest eigenvalue in place of Lanczos
(:mod:`sparsep.solvers`).  The bound is the measured crossover, folded
operators, best of 15 on a 2-vCPU VM (the one table of it; the solvers
and the README cite it): FISTA in microseconds per iteration, ||Phi||^2
and building the Gram in milliseconds:

    (n, m, p)       N    FISTA: calls   Gram    norm: Lanczos  eigvalsh   build
    (8, 12, 4)     32           13.5   10.0            0.42      0.044   0.004
    (8, 24, 4)     32           12.4    9.6            0.42      0.043   0.004
    (16, 64, 4)    64           14.5   10.5            1.09      0.17    0.015
    (16, 32, 8)   128           14.5   12.4            0.66      0.57    0.045
    (32, 48, 8)   256           17.8   21.2            0.83      2.8     0.22
    (32, 128, 8)  256           23.5   19.0            2.6       2.6     0.35
    (64, 256, 8)  512           58.1   79.4            2.9      14.5     2.2

The other Gram views come from the (p, p, 2n - 1) signed-lag table:
entry ((k, j), (l, i)) of Phi^T Phi is ``lags[k, l, (j - i) mod L]``,
``lags[k, l] = irfft(conj(g_k) g_l)``, and only |j - i| < n occurs (no
lag wraps in the linear variant, where L >= m + n - 1).  One row builder,
:func:`_signed_lags`, makes the table a row k at a time, for two views:

* the lag spectrum H = rfft(signed lags, K), shape (K//2 + 1, p, p), at
  K = next_fast_len(2n - 1), where the p x p Toeplitz blocks act as
  circular convolutions without wrap.  ``gram_apply(x)`` is Phi^T Phi x;
  a real-FFT-kernel operator with K < fft_len sets ``lag_len = K`` and
  computes it from H (one batched rfft of the p blocks, one p x p product
  per frequency, one batched irfft).  Every other operator has ``lag_len
  = None`` and takes adjoint(apply(x)).  The solvers step and run
  Lanczos through ``gram_apply`` on every operator without a held Gram,
  so this rule is the one place the route is chosen.
* the residual table of I - Phi^T Phi, whose principal blocks
  ``residual_blocks(idx)`` gathers for :mod:`sparsep.snorm`.

These and ``gram`` are read-only and built on first use (:class:`_view`).
The held Gram stays ``matrix.T @ matrix``: a gather from the table differs
in the last bits, which the phase-transition pins read.  Phi^T Phi x in
microseconds, both routes, and building H in milliseconds, best of 2 x 15
x 50 calls on a 2-vCPU VM:

    variant  (n, m, p)        fft_len     K   calls   lags   build   route
    folded   (64, 256, 16)        256   128    54.0   33.3    0.77   lags
    linear   (64, 256, 16)        320   128    61.3   33.4    0.76   lags
    folded   (64, 384, 8)         384   128    52.2   23.9    0.31   lags
    linear   (64, 384, 8)         450   128    60.8   24.0    0.30   lags
    folded   (256, 1024, 16)     1024   512   149.8  104.7    2.66   lags
    linear   (256, 1024, 16)     1280   512   183.0  101.7    3.06   lags
    folded   (32, 4096, 8)       4096    64   407.4   18.5    1.67   lags
    linear   (32, 4096, 8)       4320    64   467.6   18.5    1.62   lags
    linear   (128, 256, 16)       384   256    73.0   51.9    1.00   lags
    folded   (128, 256, 16)       256   256    54.9   52.2    0.86   calls
    linear   (128, 128, 16)       256   256    54.7   52.9    0.88   calls
    linear   (512, 512, 8)       1024  1024    94.0   98.5    0.87   calls
    folded   (128, 128, 16)       128   256    40.3   52.8    1.19   calls
    folded   (512, 512, 8)        512  1024    57.7   98.4    0.82   calls

The lag route costs about what its transforms at length K cost, and the
calls about what theirs at fft_len cost, so the rule is K < fft_len.  At
K = fft_len the two routes are level (within 5% either way); above it the
calls win.

All public vectors are real float64.  The public dense constructions
(``build_dense_*``) are for tests and diagnostics and are gated by the
dense element budget.
"""

import enum

import numpy as np
from scipy.fft import next_fast_len

from . import budgets
from .errors import DimensionError, ParameterError
from .probes import ProbeSet

# Largest output_len * input_len served by the dense kernel (see the table above).
DENSE_KERNEL_ELEMENTS = 2**17
# Largest input_len**2 of a dense-kernel operator that also holds its Gram
# (see the Gram table above).
GRAM_KERNEL_ELEMENTS = 2**14


class Variant(enum.Enum):
    LINEAR = "linear"
    FOLDED = "folded"


class _view:
    """A read-only attribute that ``build(op)`` makes on first read and keeps.

    Not functools.cached_property: before Python 3.12 it holds one lock per
    property, shared by every instance, while a value is built, so threads
    building the views of different operators take turns.  Threads that
    race here build the same bits.
    """

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, op, owner=None):
        if op is None:
            return self
        if self.name not in op.__dict__:
            op.__dict__[self.name] = self.build(op)
        return op.__dict__[self.name]

    def __set__(self, op, value):
        raise AttributeError(f"{self.name} is read-only")


class MeasurementOperator:
    """Operator handle for one variant, bound to a probe set.

    The variant sets ``fft_len`` and the circulant columns ``c``; the half
    spectra, the matrix that apply/adjoint multiply by (at most
    DENSE_KERNEL_ELEMENTS entries) and the Gram views all come from ``c``.
    ``lag_len`` is the lag length K on a real-FFT-kernel operator with K <
    fft_len, and None on every other operator.  The methods are reentrant
    and allocate per call; the operator is immutable apart from the views
    it builds on first use.
    """

    def __init__(self, probes, variant):
        if not isinstance(probes, ProbeSet):
            raise ParameterError("probes must be a ProbeSet")
        variant = Variant(variant)
        self.probes = probes
        d = self.dims = probes.dims
        self.variant = variant
        self.input_len = d.signal_len
        if variant is Variant.FOLDED:
            self.output_len = self.fft_len = d.m
            self.c = np.roll(probes.phi, 1 - d.n, axis=1)
        else:
            self.output_len = d.linear_len
            self.fft_len = next_fast_len(self.output_len, real=True)
            self.c = np.zeros((d.p, self.fft_len))
            self.c[:, : d.m] = probes.phi
        self.c.setflags(write=False)
        self._g_half = np.fft.rfft(self.c, axis=1)
        self._matrix = self.lag_len = None
        lag_len = next_fast_len(2 * d.n - 1, real=True)
        if self.output_len * self.input_len <= DENSE_KERNEL_ELEMENTS:
            self._matrix = _gather_matrix(self)
        elif lag_len < self.fft_len:
            self.lag_len = lag_len

    @_view
    def gram(self):
        """Phi^T Phi from the matrix when input_len**2 <= GRAM_KERNEL_ELEMENTS, else None."""
        if self._matrix is None or self.input_len**2 > GRAM_KERNEL_ELEMENTS:
            return None
        gram = self._matrix.T @ self._matrix
        gram.setflags(write=False)
        return gram

    @_view
    def _lag_spectrum(self):
        """H when ``lag_len`` is set, else None: H[:, l, k] = rfft(_signed_lags(self, k)[l], K).

        Row k of the lag table is column k of H, so that a frequency's p
        input coefficients multiply H as one row vector.
        """
        if self.lag_len is None:
            return None
        p, lag_len = self.dims.p, self.lag_len
        spectrum = np.empty((lag_len // 2 + 1, p, p), dtype=np.complex128)
        for k in range(p):
            spectrum[:, :, k] = np.fft.rfft(_signed_lags(self, k), n=lag_len, axis=-1).T
        spectrum.setflags(write=False)
        return spectrum

    @_view
    def _residual(self):
        """I - Phi^T Phi as a flat (p, p, 2n - 1) signed-lag table, with row and col offsets.

        Entry ((k, j), (l, i)) sits at ``row[(k, j)] + col[(l, i)]``, row =
        k p (2n - 1) + j + n - 1 and col = l (2n - 1) - i, so each block
        row is one gather with no modulo.
        """
        n, p = self.dims.n, self.dims.p
        table = np.zeros((p, p, 2 * n - 1))
        table[np.arange(p), np.arange(p), n - 1] = 1.0
        for k in range(p):
            table[k] -= _signed_lags(self, k)
        k, j = np.divmod(np.arange(n * p), n)
        residual = table.reshape(-1), k * (p * (2 * n - 1)) + j + (n - 1), k * (2 * n - 1) - j
        for a in residual:
            a.setflags(write=False)
        return residual

    def apply(self, x):
        """y = Phi x: one matrix-vector product, or one batched rfft over the p blocks."""
        x = _checked(x, self.input_len, "input")
        if self._matrix is None:
            return _fft_apply(self, x)
        return self._matrix @ x

    def adjoint(self, y):
        """x = Phi^T y; exact adjoint of :meth:`apply`."""
        y = _checked(y, self.output_len, "output")
        if self._matrix is None:
            return _fft_adjoint(self, y)
        return self._matrix.T @ y

    def gram_apply(self, x):
        """Phi^T Phi x: through the lag spectrum when ``lag_len`` is set, else adjoint(apply(x)).

        Block k of the product is sum_l of x_l convolved with the signed
        lags of (k, l): on the length-K grid (K >= 2n - 1, no wrap), one
        batched rfft of the p blocks, one p x p product per frequency and
        one batched irfft.  The table starts at lag -(n-1), so output j
        sits at position j + n - 1.
        """
        if self.lag_len is None:
            return self.adjoint(self.apply(x))
        n, p, lag_len = self.dims.n, self.dims.p, self.lag_len
        spec = np.fft.rfft(_checked(x, self.input_len, "input").reshape(p, n), n=lag_len, axis=1)
        prod = spec.T[:, None, :] @ self._lag_spectrum
        blocks = np.fft.irfft(prod[:, 0, :].T, n=lag_len, axis=1)
        return blocks[:, n - 1 : 2 * n - 1].reshape(-1)

    def residual_blocks(self, idx):
        """Principal blocks (I - Phi^T Phi)[idx, idx] for indices of shape (..., s)."""
        table, row, col = self._residual
        idx = np.asarray(idx)
        row, col = row[idx], col[idx]
        out = np.empty(idx.shape + idx.shape[-1:])
        # row by row: a broadcast (..., s, s) index sum would allocate its
        # index array and, past 8192 entries, two ufunc buffers besides
        for i in range(idx.shape[-1]):
            out[..., i, :] = table[row[..., i, None] + col]
        return out


def _checked(v, length, side):
    """``v`` as float64; DimensionError unless its shape is (length,)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        raise DimensionError(f"expected {side} length {length}, got {v.shape}")
    return v


def _fft_apply(op, x):
    """The real-FFT kernel of ``op.apply`` for a checked float64 ``x``."""
    spec = np.fft.rfft(x.reshape(op.dims.p, op.dims.n), n=op.fft_len, axis=1)
    y = np.fft.irfft(np.sum(op._g_half * spec, axis=0), n=op.fft_len)
    return y[: op.output_len]


def _fft_adjoint(op, y):
    """The real-FFT kernel of ``op.adjoint`` for a checked float64 ``y``."""
    z = np.fft.rfft(y, n=op.fft_len)
    blocks = np.fft.irfft(np.conj(op._g_half) * z[None, :], n=op.fft_len, axis=1)
    return blocks[:, : op.dims.n].reshape(-1)


def _signed_lags(op, k):
    """Row k of the signed cross-correlation table, shape (p, 2n - 1).

    Entry [l, d + n - 1] is ``lags[k, l, d mod L]`` for d in [-(n-1), n-1]
    (module docstring): one batched irfft of the p products conj(g_k) g_l.
    """
    n, g = op.dims.n, op._g_half
    lags = np.fft.irfft(np.conj(g[k]) * g, n=op.fft_len, axis=-1)
    return lags[:, np.arange(1 - n, n) % op.fft_len]


def linear_operator(probes):
    return MeasurementOperator(probes, Variant.LINEAR)


def folded_operator(probes):
    return MeasurementOperator(probes, Variant.FOLDED)


def build_dense_linear(probes):
    """Explicit (m+n-1) x (n*p) block-Toeplitz matrix, within the dense budget."""
    d = probes.dims
    budgets.check_dense(d.linear_len * d.signal_len, "dense linear operator")
    return _gather_matrix(linear_operator(probes))


def build_dense_folded(probes):
    """Explicit m x (n*p) concatenation of first-n-column circulant blocks.

    Entry (t, j) of block k is phi_k[(n-1+t-j) mod m]: the dense linear
    matrix from row n-1 on, with its first n-1 rows added to its last n-1.
    Gated by the dense budget.
    """
    d = probes.dims
    budgets.check_dense(d.m * d.signal_len, "dense folded operator")
    return _gather_matrix(folded_operator(probes))


def _gather_matrix(op):
    """The matrix of ``op``: entry (t, (k, j)) is ``c[k, (t - j) mod L]``, one gather."""
    lag = (np.arange(op.output_len)[:, None] - np.arange(op.dims.n)) % op.fft_len
    return op.c[:, lag].transpose(1, 0, 2).reshape(op.output_len, op.input_len)
