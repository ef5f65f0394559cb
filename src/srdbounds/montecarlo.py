"""Monte-Carlo and combinatorial verification of the asymptotic claims.

Random-matrix log-determinant and determinant-power limits, rank-deficiency
decay for discrete matrix entries, exact pattern-counting with covering-number
brackets, and the truncated-power ratio scan, plus the support enumeration
(a lexicographic prefix tree) and the one-column Gram-Schmidt span step that
every exhaustive search shares.  Per-trial randomness comes from a
counter-based generator keyed by the (seed, trial) pair.

Both random-matrix limits sample one bidiagonal matrix of chi variates per
trial, whose singular values have the law of the i.i.d. Gaussian matrix's
(Dumitriu & Edelman 2002), and sum O(n) logs of positive terms: no draw
fails and none is redrawn."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec, decay_rate, moments, truncate
from .ratefun import info_G


_CHUNK_BYTES = 1 << 22  # covering_bracket's overlap blocks and gain updates
_TABLE_ENTRIES = 1 << 26  # covering_bracket's neighbour table: 256 MB of int32
# simulate's matrix: 128 MB of float64.  verify's samplers refuse above it.
_MATRIX_ENTRIES = 1 << 24
_RANK_RTOL = 1e-8  # a column this close to its span, relative to its norm, adds nothing
# Tree nodes or supports handled per step of a search: the temporaries are
# then small enough for the allocator to reuse, instead of paging in fresh
# memory at each one.
_CHUNK = 1 << 15


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
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"aspect ratio must be positive and finite, got {self.r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.m < 1:
            raise ValueError("m = round(r * n) must be at least 1")

    @property
    def m(self) -> int:
        return int(round(self.r * self.n))


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo mean with its standard error and distance to the target.
    ``rejected`` is always 0; the benchmark's trace still reads it."""

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


def _estimate(values: np.ndarray, target: float) -> MCEstimate:
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.inf
    gap = abs(mean - target) / max(abs(target), 1e-12)
    return MCEstimate(mean, se, len(values), target, gap)


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


def _sampled_bidiagonals(config: MCConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's squared diagonal a^2 (chi-square with q, q - 1, ...,
    q - p + 1 degrees of freedom) and subdiagonal b^2 (p - 1, ..., 1, then 0)
    of the p x p lower bidiagonal B, p = min(m, n) and q = max(m, n), drawn
    from ``trial_rng(seed, trial)`` as (trial, p) arrays.  B's singular values
    have the law of the m x n Gaussian M's, and det(M^T M) = prod a^2 at m >= n
    (Bartlett 1933).  M of over 2**24 entries raises BudgetError first."""
    _check_matrix_budget(config)
    p, q = min(config.m, config.n), max(config.m, config.n)
    diag = np.empty((config.trials, p))
    sub = np.zeros((config.trials, p))
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        diag[trial] = rng.chisquare(np.arange(q, q - p, -1))
        sub[trial, :-1] = rng.chisquare(np.arange(p - 1, 0, -1))
    return diag, sub


def _mp_logdets(config: MCConfig, gammas: tuple[float, ...]) -> list[MCEstimate]:
    """:func:`mp_logdet` at each of ``gammas`` (``config.gamma`` is ignored)
    from one :func:`_sampled_bidiagonals` draw: log det(I + s M M^T), s =
    gamma/n, sums the logs of the LDL^T pivots of T = I + s B B^T, d_1 = T_11
    and d_i = T_ii - s^2 a_(i-1)^2 b_(i-1)^2 / d_(i-1), taken without a
    subtraction or an s^2 as d_i = e_i + s a_i^2, e_1 = 1 and e_(i+1) = 1 +
    s b_i^2 e_i / d_i.  Every pivot is at least 1, so nothing can fail."""
    n, m = config.n, config.m
    diag, sub = _sampled_bidiagonals(config)
    scale = np.array(gammas, dtype=float)[:, None] / n
    logdets, rest = 0.0, 1.0  # (gamma, trial) arrays from the first pivot on
    for a2, b2 in zip(diag.T, sub.T):
        pivot = rest + scale * a2
        logdets = logdets + np.log(pivot)
        rest = 1.0 + scale * b2 * (rest / pivot)
    return [_estimate(row / (2.0 * n), info_G(m / n, gamma)) for row, gamma in zip(logdets, gammas)]


def mp_logdet(config: MCConfig) -> MCEstimate:
    """Sample (1/2n) log det(I + (gamma/n) M M^T) for i.i.d. standard Gaussian
    M and compare with the asymptotic log-determinant rate.  Draws and the
    matrix budget are :func:`_sampled_bidiagonals`'s."""
    return _mp_logdets(config, (config.gamma,))[0]


def det_power(config: MCConfig) -> MCEstimate:
    """Sample |(1/m) M^T M|^(1/n) in the log domain and compare with its
    almost-sure limit, defined for r >= 1.  log det(M^T M) sums the logs of
    :func:`_sampled_bidiagonals`'s squared diagonal, under its budget."""
    n, m = config.n, config.m
    r = m / n
    if r < 1.0:
        raise ValueError(f"det_power requires aspect ratio >= 1, got {r}")
    target = (r / (r - 1.0)) ** (r - 1.0) / math.e if r > 1.0 else 1.0 / math.e
    diag, _ = _sampled_bidiagonals(config)
    return _estimate(np.exp((np.sum(np.log(diag), axis=1) - n * math.log(m)) / n), target)


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
    """The lexicographic prefix tree of the subsets of range(n) of size at
    most k.

    Level j (j = 1..k) holds every size-j subset, as an increasing sequence,
    in lexicographic order, as two arrays: the index of its first j - 1
    elements in level j - 1 (level 0 is the empty sequence, index 0) and its
    last element.  A node's children extend it by each larger element, are
    contiguous and end at n - 1, so the sibling that ends in c instead of a
    sits c - a places later.  Level k is the size-k subsets themselves, and
    the tree to depth j < k is this one's first j levels.
    """
    levels = []
    last = np.full(1, -1)  # the empty sequence: its children start at 0
    for _ in range(k):
        counts = n - 1 - last
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


def _span_step(basis: np.ndarray, y_perp: np.ndarray, cols: np.ndarray):
    """Extend N spans by one column each, the node index last throughout.

    ``basis`` (j, m, N) holds each span's orthonormal columns, ``y_perp``
    (m, N) the part of y orthogonal to it and ``cols`` (m, N) the columns to
    add.  Classical Gram-Schmidt applied twice ("twice is enough") leaves v,
    the part of a column orthogonal to its span.  If |v| is at most
    ``_RANK_RTOL`` times the column's norm, the column adds nothing: q = 0 and
    the span and y_perp stay as they are.  Otherwise q = v / |v| and
    y_perp loses its component along q.  Returns q (m, N) and the new y_perp.
    """
    v = cols
    for _ in range(2):
        v = v - np.einsum("jmn,jn->mn", basis, np.einsum("jmn,mn->jn", basis, v))
    norm = np.sqrt(np.einsum("mn,mn->n", v, v))
    spans = norm > _RANK_RTOL * np.sqrt(np.einsum("mn,mn->n", cols, cols))
    q = v * np.divide(1.0, norm, out=np.zeros_like(norm), where=spans)
    return q, y_perp - q * np.einsum("mn,mn->n", q, y_perp)


def _span_residuals(y: np.ndarray, mat: np.ndarray, supports: np.ndarray) -> np.ndarray:
    """Squared distance from y to the span of mat's columns for every row of
    ``supports``, by one :func:`_span_step` per column, ``_CHUNK`` rows at a
    time."""
    out = np.empty(len(supports))
    for start in range(0, len(supports), _CHUNK):
        rows = supports[start : start + _CHUNK]
        basis = np.empty((rows.shape[1], len(y), len(rows)))
        y_perp = np.repeat(y[:, None], len(rows), axis=1)
        for t in range(rows.shape[1]):
            basis[t], y_perp = _span_step(basis[:t], y_perp, mat[:, rows[:, t]])
        out[start : start + len(rows)] = np.einsum("mn,mn->n", y_perp, y_perp)
    return out


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
    # One buffer for every block: a fresh one per block is paged in anew on a first call.
    overlap = np.empty((rows, total), dtype=np.float32)
    for start in range(0, total, rows):
        block = overlap[: min(rows, total - start)]
        np.matmul(incidence[start : start + rows], incidence.T, out=block)
        # Flat positions, less each row's offset, are the column indices.
        cols = np.flatnonzero(block >= min_overlap).reshape(-1, width)
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
    beta = np.asarray(beta_grid, dtype=float)
    tr = truncate(dist, beta)
    ratio = (omega * tr.second_moment / base) / beta ** (2.0 * big_l)
    return list(zip(beta.tolist(), np.broadcast_to(ratio, beta.shape).tolist()))
