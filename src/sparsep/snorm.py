"""Restricted s-norm ||A||_s and restricted-isometry constants.

For a square matrix A, ||A||_s is the supremum of |y^T A x| over unit
vectors x, y sharing a support of size at most s; on a common support it
equals the spectral norm of the principal submatrix, and it is monotone
in s, so enumerating supports of size exactly s suffices.

Both modes see A only through ``blocks(idx)``, its principal submatrices
for a (B, s) batch of supports.  Exact mode enumerates all supports
lexicographically (deterministic first-found tie-break) and is gated by
the enumeration budget C(N, s) * s^3.  Randomized mode samples supports
and sharpens each with a steepest single-swap ascent; it is a lower bound
on the exact value and reproducible given its seed.  Each ascent step
scores all s * (N - s) swaps as one batch, in (position, outside index)
order with each candidate support sorted, and moves to the first strict
maximum above the current value.  For delta_s, both modes read
I - Phi^T Phi from the operator's p x p x m lag table
(``operators.LagGram``), so no N x N matrix is held.  Shifting every index
of a support by the same within-block offset leaves its lag-table block
unchanged, so the exact tie-break returns a support with an index at
offset 0.
"""

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from . import budgets, rng
from .errors import DimensionError, ParameterError
from .operators import LagGram, folded_operator
from .operators import build_dense_folded  # noqa: F401  perfbench/tracer.py wraps it by name

EXACT = "exact"
RANDOMIZED = "randomized_lower_bound"

_CHUNK = 4096


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


def _spectral_norms(stack, symmetric):
    """Spectral norm of each matrix in a (batch, s, s) stack."""
    if stack.shape[-1] == 1:
        return np.abs(stack[..., 0, 0])
    if symmetric:
        return np.max(np.abs(np.linalg.eigvalsh(stack)), axis=-1)
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _check_args(n, s):
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    if s > n:
        raise DimensionError(f"s={s} exceeds matrix size {n}")


def _dense(a):
    """(blocks, size, symmetric) of a dense square matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"need a square matrix, got shape {a.shape}")
    symmetric = np.array_equal(a, a.T) or np.allclose(a, a.T, rtol=0.0, atol=1e-12)
    return (lambda idx: a[idx[..., :, None], idx[..., None, :]]), a.shape[0], symmetric


def _enumerate(blocks, size, symmetric, s):
    """snorm_exact over ``blocks``: supports (B, s) -> blocks (B, s, s)."""
    _check_args(size, s)
    budgets.check_enum(comb(size, s) * s**3, "exact s-norm")
    best_value = -1.0
    best_support = None
    supports = combinations(range(size), s)
    while chunk := list(islice(supports, _CHUNK)):
        values = _spectral_norms(blocks(np.asarray(chunk)), symmetric)
        local = int(np.argmax(values))
        if values[local] > best_value:
            best_value, best_support = float(values[local]), chunk[local]
    return SNormResult(s=s, value=best_value, mode=EXACT, argmax_support=tuple(best_support))


def snorm_exact(a, s):
    """Exhaustive restricted s-norm of a dense square matrix.

    Enumerates supports in lexicographic order; ties in the maximum keep
    the first support found.  Raises BudgetError when C(N, s) * s^3
    exceeds the enumeration budget.
    """
    return _enumerate(*_dense(a), s)


def _swap_ascent(blocks, size, symmetric, s, trials, seed, swap_cap_factor=5):
    """snorm_randomized over ``blocks``: supports (B, s) -> blocks (B, s, s)."""
    _check_args(size, s)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    pos = np.arange(s)
    best_value = -1.0
    best_support = None
    cap = swap_cap_factor * s * size
    for trial in range(trials):
        support = rng.rand_support(rng.derive_seed(seed, trial), size, s)
        current = float(_spectral_norms(blocks(support[None, :]), symmetric)[0])
        evals = 0
        while evals < cap:
            outside = np.delete(np.arange(size), support)
            # cands[q, t] swaps support[q] for outside[t]
            cands = np.repeat(support[None, None, :], s, axis=0).repeat(outside.size, axis=1)
            cands[pos, :, pos] = outside
            cands = np.sort(cands.reshape(-1, s), axis=1)[: cap - evals]
            if not len(cands):
                break
            evals += len(cands)
            values = _spectral_norms(blocks(cands), symmetric)
            top = int(np.argmax(values))
            if not values[top] > current:
                break
            support, current = cands[top], float(values[top])
        if current > best_value:
            best_value = current
            best_support = tuple(int(i) for i in support)
    return SNormResult(
        s=s, value=best_value, mode=RANDOMIZED, argmax_support=best_support, trials=trials
    )


def snorm_randomized(a, s, trials, seed, swap_cap_factor=5):
    """Randomized lower bound on the restricted s-norm of a dense square matrix.

    Each trial draws a uniform size-s support and runs the steepest swap
    ascent (module docstring), capped at ``swap_cap_factor * s * N``
    submatrix evaluations per trial.  Deterministic given the seed; the
    result never exceeds the exact norm.
    """
    return _swap_ascent(*_dense(a), s, trials, seed, swap_cap_factor)


def rip_delta(probes, s, mode=EXACT, trials=100, seed=0):
    """Restricted-isometry constant delta_s = ||I - Phi^T Phi||_s (folded).

    The returned delta certifies (1 - delta)||x||^2 <= ||Phi x||^2 <=
    (1 + delta)||x||^2 for every s-sparse x (with equality attainable on
    the argmax support in exact mode).  Both modes read the folded
    operator's lag table; only exact mode is budget-gated, by its
    enumeration.
    """
    blocks = LagGram(folded_operator(probes)).residual_blocks
    size = probes.dims.signal_len
    if mode == EXACT:
        return _enumerate(blocks, size, True, s)
    if mode == RANDOMIZED:
        return _swap_ascent(blocks, size, True, s, trials, seed)
    raise ParameterError(f"unknown mode {mode!r}")
