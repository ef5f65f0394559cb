"""Monte-Carlo and combinatorial verification of the asymptotic claims.

Random-matrix log-determinant and determinant-power limits, rank-deficiency
decay for discrete matrix entries, exact pattern-counting with covering-number
brackets, and the truncated-power ratio scan, plus the support enumeration
(a lexicographic prefix tree) and span residuals that every exhaustive search
shares.  Per-trial randomness comes from a counter-based generator keyed by
the (seed, trial) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec, decay_rate, moments, truncate
from .ratefun import info_G


_CHUNK_BYTES = 1 << 22  # covering_bracket's overlap blocks and gain updates
_TABLE_ENTRIES = 1 << 26  # covering_bracket's neighbour table: 256 MB of int32
_MATRIX_ENTRIES = 1 << 24  # mp_logdet and det_power: 128 MB of float64 per draw
_RANK_RTOL = 1e-8  # |R_jj| below this times the largest marks a deficient span


class BudgetError(ValueError):
    """Raised when an exact enumeration would exceed the desk-scale budget."""


@dataclass(frozen=True)
class MCConfig:
    """Dimensions, aspect ratio, SNR, trial count, and seed for a matrix study."""

    n: int = 400
    r: float = 1.0
    gamma: float = 1.0
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.n < 8:
            raise ValueError(f"n must be at least 8, got {self.n}")
        if self.r <= 0:
            raise ValueError(f"aspect ratio must be positive, got {self.r}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.m < 1:
            raise ValueError("m = round(r * n) must be at least 1")

    @property
    def m(self) -> int:
        return int(round(self.r * self.n))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo mean with its standard error and distance to the target."""

    mean: float
    std_error: float
    trials: int
    target: float
    relative_gap: float
    rejected: int = 0


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial stream: Philox keyed by two 64-bit words, the
    trial index and the seed (each modulo 2**64), so every (seed, trial) pair
    has its own stream and results do not depend on execution order."""
    key = (int(seed) % 2**64) << 64 | (int(trial) % 2**64)
    return np.random.Generator(np.random.Philox(key=key))


def _estimate(values: np.ndarray, target: float, rejected: int = 0) -> MCEstimate:
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.inf
    gap = abs(mean - target) / max(abs(target), 1e-12)
    return MCEstimate(mean, se, len(values), target, gap, rejected)


# ---------------------------------------------------------------------------
# Random-matrix limits
# ---------------------------------------------------------------------------


def _check_matrix_budget(config: MCConfig) -> None:
    """Refuse, before anything is drawn, a matrix of more than 2**24 entries."""
    entries = config.m * config.n
    if entries > _MATRIX_ENTRIES:
        raise BudgetError(
            f"the {config.m} x {config.n} matrix has {entries} entries, "
            f"over the budget of {_MATRIX_ENTRIES}"
        )


def _shifted_logdet(gram: np.ndarray, scale: float) -> float:
    """log det(I + scale * gram) through a Cholesky factor."""
    shifted = scale * gram
    shifted[np.diag_indices_from(shifted)] += 1.0
    chol = np.linalg.cholesky(shifted)
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _mp_logdets(config: MCConfig, gammas: tuple[float, ...]) -> list[MCEstimate]:
    """:func:`mp_logdet` at each of ``gammas`` in turn (``config.gamma`` is
    ignored), with each matrix drawn and its Gram formed once for all of them.

    Per trial, every gamma still pending tries each new draw of the trial's
    stream; a gamma whose Cholesky fails or whose log-determinant is not
    finite waits for the next draw, exactly as a one-gamma run would, so each
    estimate equals ``mp_logdet`` at that gamma, rejections included.
    """
    _check_matrix_budget(config)
    n, m = config.n, config.m
    values = np.empty((len(gammas), config.trials))
    rejected = [0] * len(gammas)
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        pending = list(range(len(gammas)))
        while pending:
            mat = rng.standard_normal((m, n))
            # The smaller Gram orientation has the same log-determinant.
            gram = mat @ mat.T if m <= n else mat.T @ mat
            waiting = []
            for g in pending:
                try:
                    val = _shifted_logdet(gram, gammas[g] / n)
                except np.linalg.LinAlgError:
                    val = math.nan
                if math.isfinite(val):
                    values[g, trial] = val / (2.0 * n)
                else:
                    rejected[g] += 1
                    waiting.append(g)
            pending = waiting
    return [
        _estimate(values[g], info_G(m / n, gamma), rejected[g])
        for g, gamma in enumerate(gammas)
    ]


def mp_logdet(config: MCConfig) -> MCEstimate:
    """Sample (1/2n) log det(I + (gamma/n) M M^T) for i.i.d. standard Gaussian
    M and compare with the asymptotic log-determinant rate.  A matrix of more
    than 2**24 entries raises BudgetError before the first draw."""
    return _mp_logdets(config, (config.gamma,))[0]


def det_power(config: MCConfig) -> MCEstimate:
    """Sample |(1/m) M^T M|^(1/n) in the log domain (sum of log singular
    values) and compare with its almost-sure limit, defined for r >= 1.  A
    matrix of more than 2**24 entries raises BudgetError before the first
    draw."""
    n, m = config.n, config.m
    r = m / n
    if r < 1.0:
        raise ValueError(f"det_power requires aspect ratio >= 1, got {r}")
    if r == 1.0:
        target = 1.0 / math.e
    else:
        target = (r / (r - 1.0)) ** (r - 1.0) / math.e
    _check_matrix_budget(config)
    values = np.empty(config.trials)
    rejected = 0
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        while True:
            mat = rng.standard_normal((m, n))
            sv = np.linalg.svd(mat, compute_uv=False)
            if np.all(sv > 0) and np.all(np.isfinite(sv)):
                break
            rejected += 1
        logdet = 2.0 * float(np.sum(np.log(sv))) - n * math.log(m)
        values[trial] = math.exp(logdet / n)
    return _estimate(values, target, rejected)


# ---------------------------------------------------------------------------
# Rank deficiency of discrete submatrices
# ---------------------------------------------------------------------------


def _int_rank(mat: list[list[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    prev_pivot = 1
    row = 0
    for col in range(cols):
        pivot_row = next((i for i in range(row, rows) if a[i][col] != 0), None)
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        pivot = a[row][col]
        for i in range(row + 1, rows):
            for j in range(col + 1, cols):
                a[i][j] = (a[i][j] * pivot - a[i][col] * a[row][j]) // prev_pivot
            a[i][col] = 0
        prev_pivot = pivot
        rank += 1
        row += 1
        if row == rows:
            break
    return rank


def rank_deficiency(
    n: int, omega: float, entry_law: str = "rademacher", trials: int = 2000, seed: int = 0
) -> float:
    """Empirical probability that a k x k i.i.d. submatrix is rank deficient,
    with k = floor(omega * n).  Exact integer elimination decides rank for the
    rademacher law; the Gaussian law uses floating-point rank."""
    k = int(math.floor(omega * n))
    if not 1 <= k <= n:
        raise ValueError(f"k = floor(omega * n) = {k} out of range for n = {n}")
    if entry_law not in ("gaussian", "rademacher"):
        raise ValueError(f"entry_law must be 'gaussian' or 'rademacher', got {entry_law}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    deficient = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        if entry_law == "gaussian":
            mat = rng.standard_normal((k, k))
            if np.linalg.matrix_rank(mat) < k:
                deficient += 1
        else:
            mat = rng.choice([-1, 1], size=(k, k)).astype(int).tolist()
            if _int_rank(mat) < k:
                deficient += 1
    return deficient / trials


# ---------------------------------------------------------------------------
# Support enumeration and span residuals
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _prefix_tree(n: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The lexicographic prefix tree of the size-k subsets of range(n), each
    prefix followed by every element that can come after it.

    Level j (j = 1..k) holds, in lexicographic order, every increasing
    sequence of length j whose first j - 1 elements are a prefix of some
    size-k subset, as two arrays: the index of those first j - 1 elements in
    level j - 1 (level 0 is the empty sequence, index 0) and the last element.
    A node has children only if its last element is at most n - k + j - 1.
    They extend it by each larger element, are contiguous and end at n - 1,
    so the sibling that ends in c instead of a sits c - a places later.
    Level k is the size-k subsets themselves.
    """
    levels = []
    last = np.full(1, -1)  # the empty sequence: its children start at 0
    for j in range(1, k + 1):
        counts = np.where(last <= n - k + j - 2, n - 1 - last, 0)
        parent = np.repeat(np.arange(len(last)), counts)
        first = np.cumsum(counts) - counts
        last = last[parent] + 1 + np.arange(len(parent)) - first[parent]
        parent.setflags(write=False)
        last.setflags(write=False)
        levels.append((parent, last))
    return tuple(levels)


@lru_cache(maxsize=8)
def _support_array(n: int, k: int) -> np.ndarray:
    """All size-k subsets of range(n), one per row in lexicographic order,
    read off the leaves of the prefix tree."""
    levels = _prefix_tree(n, k)
    node = np.arange(math.comb(n, k))
    arr = np.empty((len(node), k), dtype=np.int64)
    for j in range(k - 1, -1, -1):
        parent, last = levels[j]
        arr[:, j] = last[node]
        node = parent[node]
    arr.setflags(write=False)
    return arr


def _projection_residuals(y: np.ndarray, mat: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Squared distance from y to the span of mat's columns for every row of
    ``supports``, by one stacked QR.  Householder Q spans extra directions on
    a rank-deficient support, which shows as a near-zero diagonal entry of R;
    such supports take their basis from an SVD at least squares' default
    cutoff (singular values up to eps * max(m, k) times the largest are zero).
    """
    cols = mat.T[supports].transpose(0, 2, 1)
    basis, r = np.linalg.qr(cols)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    deficient = np.any(diag <= _RANK_RTOL * diag.max(axis=1, keepdims=True), axis=1)
    if deficient.any():
        u, s, _ = np.linalg.svd(cols[deficient], full_matrices=False)
        keep = s > np.finfo(float).eps * max(cols.shape[1:]) * s[:, :1]
        basis[deficient] = u * keep[:, None, :]
    resid = y - np.einsum("smr,sr->sm", basis, np.einsum("smr,m->sr", basis, y))
    return np.einsum("sm,sm->s", resid, resid)


# ---------------------------------------------------------------------------
# Pattern counting and covering brackets
# ---------------------------------------------------------------------------


def n_tilde(n: int, k: int, alpha: float) -> int:
    """Exact number of size-k supports within relative-overlap distortion
    alpha of a fixed size-k support (big-integer arithmetic)."""
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, n], got {k}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    swaps = int(math.floor(alpha * k))
    return sum(math.comb(k, a) * math.comb(n - k, a) for a in range(swaps + 1))


def covering_bracket(n: int, k: int, alpha: float, seed: int = 0) -> tuple[int, int]:
    """Lower and upper bracket on the smallest covering of all size-k supports
    at distortion alpha.

    Lower end is the exact counting quotient ceil(C(n,k) / n_tilde); upper end
    is the size of a greedy cover (most uncovered supports first, ties to the
    lexicographically smallest).  Every support has exactly n_tilde neighbours
    (the supports sharing at least k - floor(alpha k) of its indices), so the
    neighbours form one (C(n,k), n_tilde) table, built from overlap counts of
    0/1 incidence rows a few MB at a time.  The greedy step keeps each
    support's count of uncovered neighbours and lowers it through the table
    rows of the supports each pick covers.  More than 200,000 supports, or a
    table of more than 2**26 entries, raises BudgetError before anything is
    allocated.  ``seed`` is unused.
    """
    if n > 24:
        raise ValueError(f"exhaustive support enumeration requires n <= 24, got {n}")
    total = math.comb(n, k)
    if total > 200_000:
        raise BudgetError(f"C({n},{k}) = {total} exceeds the enumeration budget")
    width = n_tilde(n, k, alpha)
    if total * width > _TABLE_ENTRIES:
        raise BudgetError(
            f"the neighbour table of C({n},{k}) = {total} supports with {width} "
            f"neighbours each exceeds the budget of {_TABLE_ENTRIES} entries"
        )
    lower = -(-total // width)
    # float32 products of 0/1 rows count overlaps exactly (at most n <= 24).
    incidence = np.zeros((total, n), dtype=np.float32)
    np.put_along_axis(incidence, _support_array(n, k), 1.0, axis=1)
    min_overlap = k - int(math.floor(alpha * k))
    rows = max(1, _CHUNK_BYTES // (incidence.itemsize * total))
    table = np.empty((total, width), dtype=np.int32)
    for start in range(0, total, rows):
        near = incidence[start : start + rows] @ incidence.T >= min_overlap
        # Flat positions, less each row's offset, are the column indices.
        cols = np.flatnonzero(near).reshape(-1, width)
        table[start : start + rows] = cols - total * np.arange(len(cols))[:, None]
    # gain[i] counts the uncovered neighbours of support i.  The neighbour
    # relation is symmetric, so covering j lowers the gain of each of j's
    # neighbours by one; argmax takes the first of the largest gains.
    gain = np.full(total, width, dtype=np.int64)
    uncovered = np.ones(total, dtype=bool)
    left = total
    cover_size = 0
    while True:
        ball = table[int(np.argmax(gain))]
        newly = ball[uncovered[ball]]
        uncovered[newly] = False
        left -= len(newly)
        cover_size += 1
        if left == 0:
            return lower, cover_size
        for start in range(0, len(newly), rows):
            gain -= np.bincount(table[newly[start : start + rows]].ravel(), minlength=total)


# ---------------------------------------------------------------------------
# Truncated-power ratio
# ---------------------------------------------------------------------------


def power_ratio_scan(
    dist: DistributionSpec, omega: float, beta_grid
) -> list[tuple[float, float]]:
    """[P(omega, F_beta) / P(omega, F)] / beta^(2L) over the grid.

    Bounded above and below by positive constants for every supported
    distribution; callers assert the boundedness.
    """
    big_l = decay_rate(dist)
    base = omega * moments(dist).second_moment
    out = []
    for beta in beta_grid:
        tr = truncate(dist, beta)
        ratio = (omega * tr.second_moment / base) / beta ** (2.0 * big_l)
        out.append((float(beta), float(ratio)))
    return out
