"""Monte-Carlo and combinatorial verification of the asymptotic claims.

Random-matrix log-determinant and determinant-power limits, rank-deficiency
decay for discrete matrix entries (a stack of trials decided exactly by one
fraction-free elimination), exact pattern-counting with covering-number
brackets (whose supports ``itertools.combinations`` lists in lexicographic
order), and the truncated-power ratio scan.  Per-trial randomness comes
from a counter-based generator keyed by the (seed, trial) pair; a loop over
trials re-keys one such generator instead of building one per trial.

Both random-matrix limits sample one bidiagonal matrix of chi variates per
trial, whose singular values have the law of the i.i.d. Gaussian matrix's
(Dumitriu & Edelman 2002), and sum O(n) logs of positive terms: no draw
fails and none is redrawn."""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, decay_rate, moments, truncate
from .ratefun import info_G


_CHUNK_BYTES = 1 << 22  # rank_deficiency's stacks of draws
_TABLE_ENTRIES = 1 << 26  # covering_bracket's supports, subset ranks and counts
# simulate's matrix: 128 MB of float64.  verify's samplers refuse above it.
_MATRIX_ENTRIES = 1 << 24


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


def _key_words(seed: int, trial: int) -> tuple[int, int]:
    """Philox's two 64-bit key words for a (seed, trial) pair, low word first:
    the trial index and the seed, each modulo 2**64."""
    return int(trial) % 2**64, int(seed) % 2**64


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial stream: Philox keyed by :func:`_key_words`, so
    every (seed, trial) pair has its own stream and results do not depend on
    execution order.  Loops over many trials draw through :func:`trial_rngs`."""
    low, high = _key_words(seed, trial)
    return np.random.Generator(np.random.Philox(key=high << 64 | low))


def trial_rngs(seed: int, trials: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield, for each trial index of ``trials``, a generator whose draws are
    ``trial_rng(seed, trial)``'s.  Philox is counter-based (Salmon et al.,
    SC 2011): a stream is set by its key alone, so one bit generator is
    re-keyed before each trial, with counter 0, an empty buffer and no stored
    32-bit half, instead of being built anew.  The same generator is yielded
    each time: it is valid only until the next one is drawn."""
    bitgen = np.random.Philox(key=0)
    fresh = bitgen.state  # counter 0, buffer empty, no stored uint32
    rng = np.random.Generator(bitgen)
    for trial in trials:
        fresh["state"]["key"] = _key_words(seed, trial)
        bitgen.state = fresh
        yield rng


def _estimate(values: np.ndarray, target: float) -> MCEstimate:
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else math.inf
    gap = abs(mean - target) / max(abs(target), 1e-12)
    return MCEstimate(mean, se, len(values), target, gap)


# ---------------------------------------------------------------------------
# Random-matrix limits
# ---------------------------------------------------------------------------


def _check_matrix_budget(config: MCConfig) -> None:
    """Refuse, before anything is allocated or drawn, a matrix of more than
    2**24 entries, or trials whose bidiagonals hold more than 2**24 diagonal
    entries in all."""
    p = min(config.m, config.n)
    for entries, held in (
        (config.m * config.n, f"the {config.m} x {config.n} matrix has"),
        (config.trials * p, f"{config.trials} trials of order-{p} bidiagonals hold"),
    ):
        if entries > _MATRIX_ENTRIES:
            raise BudgetError(f"{held} {entries} entries, over the budget of {_MATRIX_ENTRIES}")


def _sampled_bidiagonals(config: MCConfig) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's squared diagonal a^2 (chi-square with q, q - 1, ...,
    q - p + 1 degrees of freedom) and subdiagonal b^2 (p - 1, ..., 1, then 0)
    of the p x p lower bidiagonal B, p = min(m, n) and q = max(m, n), drawn
    through :func:`trial_rngs` as (trial, p) arrays.  B's singular values
    have the law of the m x n Gaussian M's, and det(M^T M) = prod a^2 at m >= n
    (Bartlett 1933).  M of over 2**24 entries, or trials x p of over 2**24
    draws, raises BudgetError first."""
    _check_matrix_budget(config)
    p, q = min(config.m, config.n), max(config.m, config.n)
    diag = np.empty((config.trials, p))
    sub = np.zeros((config.trials, p))
    for trial, rng in enumerate(trial_rngs(config.seed, range(config.trials))):
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


def _singular(stack: np.ndarray) -> np.ndarray:
    """Which matrices of a (trials, k, k) stack with entries in {-1, 0, 1}
    are singular, by fraction-free (Bareiss) elimination of the whole stack
    at once, each matrix with its own row swaps.  A matrix with no pivot in a
    column is singular; it keeps its last pivot there, so its divisions stay
    exact.  Each product is of two minors, at most (k - 1)^(k - 1) by
    Hadamard's bound: int64 holds it up to k = 16, Python ints above."""
    trials, k = stack.shape[:2]
    a = stack.astype(np.int64 if k <= 16 else object)
    at, prev = np.arange(trials), np.ones(trials, dtype=a.dtype)
    singular = np.zeros(trials, dtype=bool)
    for c in range(k):
        nonzero = a[:, c:, c] != 0
        found = nonzero.any(axis=1)
        singular |= ~found
        row = c + np.argmax(nonzero, axis=1)
        a[at, c], a[at, row] = a[at, row], a[at, c]
        pivot = np.where(found, a[:, c, c], prev)
        below = a[:, c + 1 :, c + 1 :]
        below *= pivot[:, None, None]
        below -= a[:, c + 1 :, c, None] * a[:, None, c, c + 1 :]
        below //= prev[:, None, None]
        prev = pivot
    return singular


def rank_deficiency(
    n: int, omega: float, entry_law: str = "rademacher", trials: int = 2000, seed: int = 0
) -> float:
    """Empirical probability that a k x k i.i.d. submatrix is rank deficient,
    with k = floor(omega * n) and trial t drawn from :func:`trial_rngs`, as
    ``trial_rng(seed, t)`` draws it.
    About ``_CHUNK_BYTES`` of draws at a time are decided together: exactly by
    :func:`_singular` (rademacher) or by floating-point rank (gaussian)."""
    k = int(math.floor(omega * n))
    if not 1 <= k <= n:
        raise ValueError(f"k = floor(omega * n) = {k} out of range for n = {n}")
    if entry_law not in ("gaussian", "rademacher"):
        raise ValueError(f"entry_law must be 'gaussian' or 'rademacher', got {entry_law}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    gaussian, block, deficient = entry_law == "gaussian", max(1, _CHUNK_BYTES // (8 * k * k)), 0
    rngs = trial_rngs(seed, range(trials))
    for start in range(0, trials, block):
        mats = np.empty((min(block, trials - start), k, k))
        for mat, rng in zip(mats, rngs):
            # integers(0, 2) reads the stream as choice([-1, 1]) does, without its overhead.
            mat[:] = rng.standard_normal((k, k)) if gaussian else 2 * rng.integers(0, 2, (k, k)) - 1
        singular = np.linalg.matrix_rank(mats) < k if gaussian else _singular(mats)
        deficient += int(np.count_nonzero(singular))
    return deficient / trials


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
    lexicographically smallest).  A ball is the n_tilde supports sharing at
    least m = k - floor(alpha k) indices with its centre.  A support's gain,
    its ball's count of uncovered supports, falls after each pick by the
    newly covered supports in its ball: by inclusion-exclusion over shared
    index subsets, the sum over s = m..k of (-1)^(s - m) C(s - 1, m - 1)
    times the newly covered supports' count of s-subset ranks, read through
    the support's own.  The picks hold C(n,k) (k + sum_s C(k,s)) entries,
    the supports and their ranks, and two per s-subset of range(n).  Over
    200,000 supports, or 2**26 entries, raises BudgetError before anything is
    allocated.  ``seed`` is unused.
    """
    if n > 24:
        raise ValueError(f"exhaustive support enumeration requires n <= 24, got {n}")
    total = math.comb(n, k)
    if total > 200_000:
        raise BudgetError(f"C({n},{k}) = {total} exceeds the enumeration budget")
    width = n_tilde(n, k, alpha)
    lower = -(-total // width)
    if width in (1, total):  # each ball holds only its centre, or every support
        return lower, lower
    keep = k - int(math.floor(alpha * k))
    sizes = range(keep, k + 1)
    per_support, subsets = sum(math.comb(k, s) for s in sizes), [math.comb(n, s) for s in sizes]
    if total * (k + per_support) + 2 * sum(subsets) > _TABLE_ENTRIES:
        raise BudgetError(
            f"the C({n},{k}) = {total} supports with {per_support} subsets of size "
            f"{keep} or more each exceed the budget of {_TABLE_ENTRIES} entries"
        )
    # One row per position, so that member[supports] sums along contiguous rows.
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    supports = np.ascontiguousarray(np.fromiter(flat, np.int64, total * k).reshape(total, k).T)
    # A row per s-subset of positions: the colex rank sum_t C(a_t, t) of each
    # support's a_1 < ... < a_s there, past the ranks of the smaller sizes.
    binom = np.array([[math.comb(a, t) for a in range(n)] for t in range(k + 1)], dtype=np.int32)
    ranks = np.empty((per_support, total), dtype=np.int32)
    for row, at in zip(ranks, (at for s in sizes for at in itertools.combinations(range(k), s))):
        offset = sum(subsets[: len(at) - keep])
        row[:] = offset + sum(binom[t][supports[c]] for t, c in enumerate(at, start=1))
    weights = np.repeat([(-1) ** (s - keep) * math.comb(s - 1, keep - 1) for s in sizes], subsets)
    gain, uncovered = np.full(total, width, dtype=np.int64), np.ones(total, dtype=bool)
    for cover_size in itertools.count(1):
        # argmax takes the first of the largest gains.
        member = np.isin(np.arange(n), supports[:, int(np.argmax(gain))])
        newly = np.flatnonzero(uncovered & (member[supports].sum(axis=0) >= keep))
        uncovered[newly] = False
        if not uncovered.any():
            return lower, cover_size
        # One row of ranks at a time: no temporary outgrows a row or a count.
        counts = sum(np.bincount(row[newly], minlength=len(weights)) for row in ranks) * weights
        for row in ranks:
            gain -= counts[row]


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
