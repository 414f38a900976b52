"""Restricted s-norm ||A||_s of symmetric matrices and restricted-isometry constants.

For a symmetric matrix A (both entry points reject any other), ||A||_s
is the supremum of |y^T A x| over unit vectors x, y sharing a support of
size at most s; on a common support it equals the spectral norm of the
principal submatrix, and it is monotone in s, so enumerating supports of
size exactly s suffices.

Both modes see A only through ``blocks(idx)``, its principal submatrices
for a (B, s) batch of supports, and score every block by its lower
triangle with one kernel, :func:`_spectral_norms`: a closed form for
3 x 3 blocks (LAPACK for one near a double eigenvalue) and LAPACK
``eigvalsh`` for the others, each LAPACK block scaled by an exact power
of two.  A block's value depends on that block alone, so both modes
score a support alike, and a batch of any size gives the same values.
Each ``blocks`` call, and the kernel call that scores it, holds at most
_BLOCK_ENTRIES entries B * s^2, or one restart's first ascent step where
that is larger.  Exact mode enumerates all supports lexicographically in
chunks of that size (deterministic first-found tie-break) and is gated
by the enumeration budget C(N, s) * s^3.  Randomized mode samples
supports and sharpens each with a steepest single-swap ascent; it is a
lower bound on the exact value and reproducible given its seed.  Each
ascent step scores all s * (N - s) swaps, in (position, outside index)
order with each candidate support sorted, and moves to the first strict
maximum above the current value, for at most 5 * s * N evaluations per
restart (_SWAP_CAP_FACTOR); restarts step in lockstep groups of as many
as the bound holds (:func:`_swap_ascent`).  For delta_s, both modes read
I - Phi^T Phi from the folded operator's signed-lag residual table
(``MeasurementOperator.residual_blocks``), so no N x N matrix is held.
Shifting every index of a support by the same within-block offset leaves
its block unchanged, so the exact tie-break returns a support with an
index at offset 0.
"""

from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import asin, comb, cos, sqrt

import numpy as np

from . import budgets, rng
from .errors import DimensionError, ParameterError
from .operators import folded_operator
from .operators import build_dense_folded  # noqa: F401  perfbench/tracer.py wraps it by name
from .probes import _check_seed, is_integer

EXACT = "exact"
RANDOMIZED = "randomized_lower_bound"

# Block entries, B * s**2 for B supports of size s, that one ``blocks``
# call and the kernel call scoring it may hold, unless one restart's
# first ascent step needs more.  Exact mode enumerates in chunks of this
# many entries; randomized mode steps as many restarts in lockstep as fit,
# at least one.  Fewer, larger calls spread the per-call cost over more
# supports but hold more temporaries per thread (a traced peak of 1.15 MB
# per call at 2**16 and s = 3).  On mc_rip (N = 64, s = 3: 1656 entries
# per restart, 32 restarts per rip_delta; perfbench/run.py --seed 1, 30 s
# runs on 2 vCPUs, trials/s; two runs each, or the median and quartiles
# of ten):
#
#   bound          groups    1 thread     2 threads     peak RSS (MB)
#   768 supports   8 of 4    71 (68-76)   40 (38-40)    84.1 (83.9-84.3)
#   2**15          19 + 13   78, 93       66, 74        85.7, 86.0
#   3 * 2**14      29 + 3    89, 97       80, 84        86.3, 87.4
#   2**16          32        89 (81-92)   99 (91-104)   86.6 (86.4-86.9)
_BLOCK_ENTRIES = 2**16
# A 3 x 3 block whose closest two eigenvalues are nearer than this times
# p goes to LAPACK (see _norms_3x3).  At 0.3 the closed form stays within
# 8.9 eps of the largest entry of a long-double Jacobi reference (LAPACK:
# 13 eps) over 6e5 blocks; at 0.2 it reached 11.3 eps.
_NEAR_DOUBLE = 0.3
_NEAR_R = cos(3 * asin(_NEAR_DOUBLE / (2 * sqrt(3))))
_THIRD_TURNS = np.array([[0.0], [2 * np.pi / 3]])
_SWAP_CAP_FACTOR = 5  # a restart stops after 5 * s * N submatrix evaluations


@dataclass(frozen=True)
class SNormResult:
    """Value of ||A||_s with the support attaining it.

    mode is "exact" or "randomized_lower_bound"; in the latter case value
    never exceeds the exact norm and trials records the sample count.
    """

    s: int
    value: float
    mode: str
    argmax_support: tuple
    trials: int = 0


def _spectral_norms(stack):
    """Spectral norm of each symmetric block of a (batch, s, s) stack, read by its lower triangle.

    3 x 3 blocks use a closed form (:func:`_norms_3x3`), others LAPACK
    (:func:`_lapack_norms`); each value depends on its block alone.
    """
    s = stack.shape[-1]
    if s == 1:
        return np.abs(stack[..., 0, 0])
    if s == 3:
        return _norms_3x3(stack)
    return _lapack_norms(stack)


def _exponents(high, low):
    """Per block, the e that scales its entries, which lie in [low, high], to unit size.

    Multiplying by 2**-e is exact and puts the largest magnitude in
    [0.5, 1), so no square of an entry that matters over- or underflows.
    """
    return np.frexp(np.maximum(high, -low))[1]


def _lapack_norms(stack):
    """LAPACK ``eigvalsh`` norms of symmetric blocks scaled to unit size.

    Each block is multiplied by 2**-e (:func:`_exponents`) and its norm by
    2**e.  Unscaled, ``eigvalsh`` misses by 10% on a block with entries
    near 1e135 and others below 1e-130 (TestKernel).
    """
    e = _exponents(stack.max(axis=(-2, -1)), stack.min(axis=(-2, -1)))
    scaled = np.ldexp(stack, -e[..., None, None])
    norms = np.max(np.abs(np.linalg.eigvalsh(scaled)), axis=-1)
    return np.ldexp(norms, e)


def _norms_3x3(stack):
    """Trigonometric eigenvalues of symmetric 3 x 3 blocks, LAPACK near a double one.

    With q = tr/3, p = ||A - qI||_F / sqrt(6) and r = det((A - qI) / p) / 2
    in [-1, 1], the eigenvalues are q + 2p cos((arccos r + 2 pi k) / 3),
    k = 0, 1, 2; a multiple of I has p = 0 and reads q.  The closest two
    are 2 sqrt(3) p sin(min(phi, pi/3 - phi)) apart, phi = arccos(r) / 3.
    Near a double eigenvalue the arccos loses half the digits (8e7 eps on
    qI + rank-1), so a block whose closest two eigenvalues lie within
    _NEAR_DOUBLE * p of each other, |r| > _NEAR_R, goes to LAPACK.

    Each block is first scaled to unit size, as for LAPACK (its lower
    triangle by 2**-e, :func:`_exponents`); the norm times 2**e undoes it.
    """
    t = stack.reshape(-1, 9).T[[0, 4, 8, 3, 6, 7]]  # lower triangle: diagonal, (1,0), (2,0), (2,1)
    e = _exponents(np.max(t, axis=0), np.min(t, axis=0))
    np.ldexp(t, -e, out=t)
    q = (t[0] + t[1] + t[2]) / 3
    t[:3] -= q
    x, y, z, b, c, g = t
    p = np.sqrt((x * x + y * y + z * z + 2 * (b * b + c * c + g * g)) / 6)
    x, y, z, b, c, g = np.divide(t, p + (p == 0), out=t)
    r = (x * y * z - x * g * g - y * c * c - z * b * b) / 2 + b * c * g
    del t, x, y, z, b, c, g  # free the rows before the (2, B) stage
    phi = np.arccos(np.minimum(np.maximum(r, -1.0), 1.0)) / 3
    hi, lo = 2 * p * np.cos(phi + _THIRD_TURNS)
    out = np.ldexp(np.maximum(np.abs(q + hi), np.abs(q + lo)), e)
    near = np.flatnonzero(np.abs(r) > _NEAR_R)
    if near.size:
        out[near] = _lapack_norms(stack[near])
    return out


def _check_args(n, s):
    if not is_integer(s) or s < 1:
        raise ParameterError(f"s must be an integer >= 1, got {s!r}")
    if s > n:
        raise DimensionError(f"s={s} exceeds matrix size {n}")


def _dense(a):
    """(blocks, size) of a dense symmetric matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"need a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix entries must be finite")
    # symmetric to 1e-12 of its largest entry, so the test does not depend on scale
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-12 * np.max(np.abs(a), initial=0.0):
        raise ParameterError("matrix must be symmetric")
    return (lambda idx: a[idx[..., :, None], idx[..., None, :]]), a.shape[0]


def _enumerate(blocks, size, s):
    """snorm_exact over ``blocks``: supports (B, s) -> blocks (B, s, s)."""
    _check_args(size, s)
    budgets.check_enum(comb(size, s) * s**3, "exact s-norm")
    best_value = -1.0
    best_support = None
    # the supports stream into one index array per chunk, with no list of
    # tuples besides the blocks
    indices = chain.from_iterable(combinations(range(size), s))
    per_chunk = max(1, _BLOCK_ENTRIES // s**2) * s
    while (chunk := np.fromiter(islice(indices, per_chunk), dtype=np.intp)).size:
        chunk = chunk.reshape(-1, s)
        values = _spectral_norms(blocks(chunk))
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value = float(values[local])
            best_support = tuple(int(i) for i in chunk[local])
    return SNormResult(s=s, value=best_value, mode=EXACT, argmax_support=best_support)


def snorm_exact(a, s):
    """Exhaustive restricted s-norm of a dense symmetric matrix.

    Enumerates supports in lexicographic order; ties in the maximum keep
    the first support found.  ParameterError unless A is symmetric;
    BudgetError when C(N, s) * s^3 exceeds the enumeration budget.
    """
    return _enumerate(*_dense(a), s)


def _swap_ascent(blocks, size, s, trials, seed):
    """snorm_randomized over ``blocks``: supports (B, s) -> blocks (B, s, s).

    Restarts run in groups of as many as fit in _BLOCK_ENTRIES, counting
    a restart's s * (N - s) swaps and its starting support, at least one;
    a group's live restarts take each ascent step in lockstep, with one
    ``blocks`` call and one kernel call for all their candidates (the
    first step's call also scores the starting supports).  A step scores
    a restart's s * (N - s) swaps, so live restarts have made equal
    numbers of evaluations and the cap cuts them at the same step.  Each
    restart keeps its own candidate order and first strict maximum, and
    the first best restart wins, so the result is that of one restart at
    a time.
    """
    _check_args(size, s)
    if not is_integer(trials) or trials < 1:
        raise ParameterError(f"trials must be an integer >= 1, got {trials!r}")
    seed = _check_seed(seed)
    cap = _SWAP_CAP_FACTOR * s * size
    group = max(1, _BLOCK_ENTRIES // ((s * (size - s) + 1) * s * s))
    best_value = -1.0
    best_support = None
    for first in range(0, trials, group):
        support = np.array([
            rng.rand_support(rng.derive_seed(seed, trial), size, s)
            for trial in range(first, min(first + group, trials))
        ])
        live = np.arange(len(support))
        # the first call scores the starting supports too; cands is a view
        # of its index array, not a second copy
        idx = np.concatenate((support, _swaps(support, size)[:, :cap].reshape(-1, s)))
        cands = idx[len(support):].reshape(len(support), -1, s)
        evals = cands.shape[1]
        current, values = np.split(_spectral_norms(blocks(idx)), [len(support)])
        del idx  # freed with cands when the next step replaces them
        while cands.shape[1]:
            values = values.reshape(cands.shape[:2])
            top = np.argmax(values, axis=1)
            top_values = values[np.arange(live.size), top]
            gain = top_values > current[live]
            live = live[gain]
            support[live] = cands[gain, top[gain]]
            current[live] = top_values[gain]
            if not live.size or evals == cap:
                break
            cands = _swaps(support[live], size)[:, : cap - evals]
            evals += cands.shape[1]
            values = _spectral_norms(blocks(cands.reshape(-1, s)))
        winner = int(np.argmax(current))
        if current[winner] > best_value:
            best_value = float(current[winner])
            best_support = tuple(int(i) for i in support[winner])
    return SNormResult(
        s=s, value=best_value, mode=RANDOMIZED, argmax_support=best_support, trials=trials
    )


def _swaps(support, size):
    """(R, s * (N - s), s) single swaps of each sorted support in (R, s).

    Candidate q * (N - s) + t swaps position q for the t-th index outside
    the support (ascending), and each candidate is sorted.
    """
    r, s = support.shape
    outside = np.ones((r, size), dtype=bool)
    outside[np.arange(r)[:, None], support] = False
    outside = np.nonzero(outside)[1].reshape(r, size - s)
    cands = np.repeat(support[:, None, None, :], s, axis=1).repeat(size - s, axis=2)
    pos = np.arange(s)
    cands[:, pos, :, pos] = outside
    return np.sort(cands, axis=-1).reshape(r, s * (size - s), s)


def snorm_randomized(a, s, trials, seed):
    """Randomized lower bound on the restricted s-norm of a dense symmetric matrix.

    Each trial draws a uniform size-s support and runs the steepest swap
    ascent (module docstring), capped at 5 * s * N submatrix evaluations
    per trial.  Deterministic given the seed; the result never exceeds
    the exact norm.  ParameterError unless A is symmetric.
    """
    return _swap_ascent(*_dense(a), s, trials, seed)


def rip_delta(probes, s, mode=EXACT, trials=100, seed=0):
    """Restricted-isometry constant delta_s = ||I - Phi^T Phi||_s (folded).

    The returned delta certifies (1 - delta)||x||^2 <= ||Phi x||^2 <=
    (1 + delta)||x||^2 for every s-sparse x (with equality attainable on
    the argmax support in exact mode).  Both modes read the folded
    operator's residual table; only exact mode is budget-gated, by its
    enumeration.
    """
    blocks = folded_operator(probes).residual_blocks
    size = probes.dims.signal_len
    if mode == EXACT:
        return _enumerate(blocks, size, s)
    if mode == RANDOMIZED:
        return _swap_ascent(blocks, size, s, trials, seed)
    raise ParameterError(f"unknown mode {mode!r}")
