"""Desk-scale support-recovery experiments.

Stochastic sparse sources, unit-row-power sampling matrices (i.i.d. Gaussian
or the column-zeroing rate-sharing construction), exhaustive maximum-likelihood
recovery over all candidate supports, and the two-stage rate-sharing decoder.
Both searches walk the lexicographic prefix tree of the supports, which this
module builds (:func:`_prefix_tree`, read leaf by leaf by :func:`_leaves`)
beside the one step that relies on its layout, :func:`_extend`.  The walk
goes one level at a time and does the work a prefix shares once per prefix:
each node's residual is the last pivot of a bordered Cholesky factor of its
Gram matrix, so the cost depends on the number of samples only through one
Gram product.  The nodes whose Gram residual cannot be trusted or is near a
decision are scored again by projection onto their column span, one
Gram-Schmidt step per column (:func:`_span_step`, :func:`_span_residuals`),
under this module's rank tolerance ``_RANK_RTOL``.  The levels' fields live
in a per-thread workspace (:class:`_Workspace`) that keeps, across calls,
about the two largest consecutive levels any walk in that thread has
needed, so repeated searches of one shape allocate no level array.  Each
trial draws from its own stream (``montecarlo.trial_rngs``), so a run's
output is decided by its configuration and seed alone.  Problem sizes are
capped so the exhaustive search stays tractable; the point is bound
verification, not scalable estimation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec, _check_omega, moments, sample_values, scale_to_snr
from .montecarlo import _MATRIX_ENTRIES, BudgetError, trial_rngs

SPAN_RTOL = 1e-9
MAX_SUPPORTS = 1_000_000
# exhaustive_ml's tolerances (see its docstring).  True residual gaps can be
# tiny: on one noiseless draw at n=20, k=2, m=3 (seed 9, trial 32) a wrong
# support comes within 5.4e-13 |y|^2 of the true one.  So ties stay well
# below that, and above the few-eps round-off of the projection residuals
# they are decided on.
PIVOT_RTOL = 1e-3
RESCORE_RTOL = 1e-10
TIE_RTOL = 1e-14
_RANK_RTOL = 1e-8  # a column this close to its span, relative to its norm, adds nothing
# Tree nodes or supports handled per step of a search: each chunk's
# temporaries are then small enough for the allocator to reuse for the next
# chunk.  That holds only for them: a search's level arrays, which outlive
# their chunks, would be paged in afresh on every call, and are kept across
# calls in the per-thread workspace (:class:`_Workspace`) instead.
_CHUNK = 1 << 15


class MultipleMinimalSupportsError(RuntimeError):
    """Stage-1 recovery found several minimal spanning supports (declared error)."""


@dataclass(frozen=True)
class SimConfig:
    """One recovery experiment: dimensions, source, channel, matrix, trials.

    ``snr_db=None`` runs noiseless.  With noise, the value distribution is
    rescaled so the per-sample SNR equals ``10^(snr_db/10)`` against unit
    noise.  ``epsilon`` is the rate-sharing slack (only used by that matrix).

    The searches square the samples and their projections, up to about
    1e3 |y|^2 (``1 / PIVOT_RTOL``), where |y|^2 is of order m omega E[X^2]
    (plus m with noise), and without noise they decide on residuals down to
    ``SPAN_RTOL``^2 |y|^2 = 1e-18 |y|^2.  So the effective E[X^2] must be
    at most 1e250, and without noise at least 1e-250: at n <= 28 either
    bound leaves a factor of more than 1e35 to the end of the normal float
    range for the draws' spread.
    """

    n: int
    omega: float
    dist: DistributionSpec
    rho: float
    snr_db: float | None = None
    matrix: str = "iid_gaussian"
    epsilon: float = 0.1
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 8 <= self.n <= 28:
            raise ValueError(f"n must lie in [8, 28], got {self.n}")
        _check_omega(self.omega)
        if self.k < 1:
            raise ValueError("k = floor(omega * n) must be at least 1")
        if not math.isfinite(self.rho):
            raise ValueError(f"rho must be finite, got {self.rho}")
        # m * n > budget exactly when rho * n > budget // n.  This is checked
        # before m is formed: ceil fails when rho * n overflows to inf.
        if self.rho * self.n > _MATRIX_ENTRIES // self.n:
            raise BudgetError(
                f"rho={self.rho} asks for a matrix of more than {_MATRIX_ENTRIES} entries"
            )
        if self.m < 1:
            raise ValueError("m = ceil(rho * n) must be at least 1")
        if math.comb(self.n, self.k) > MAX_SUPPORTS:
            raise BudgetError(
                f"C({self.n},{self.k}) = {math.comb(self.n, self.k)} supports "
                f"exceed the exhaustive-search budget {MAX_SUPPORTS}"
            )
        if self.matrix not in ("iid_gaussian", "rate_sharing"):
            raise ValueError(f"unknown matrix kind {self.matrix!r}")
        if self.matrix == "rate_sharing":
            if not 0.0 <= self.epsilon < 1.0:
                raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
            if self.rho >= self.omega:
                raise ValueError(
                    "rate sharing targets rho < omega; "
                    f"got rho={self.rho}, omega={self.omega}"
                )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        second = moments(self.effective_dist()).second_moment
        if second > 1e250:
            raise ValueError(f"E[X^2] = {second:g} would overflow the searches' squared norms")
        if self.snr_db is None and second < 1e-250:
            raise ValueError(
                f"E[X^2] = {second:g} would underflow the noiseless searches' squared norms"
            )

    @property
    def k(self) -> int:
        return int(math.floor(self.omega * self.n))

    @property
    def m(self) -> int:
        return int(math.ceil(self.rho * self.n))

    @property
    def zeroed_size(self) -> int:
        """Columns the rate-sharing ensemble zeroes: ceil((1 - (1-eps) rho/omega) n)."""
        size = math.ceil((1.0 - (1.0 - self.epsilon) * self.rho / self.omega) * self.n)
        return min(max(size, 0), self.n)

    def effective_dist(self) -> DistributionSpec:
        if self.snr_db is None:
            return self.dist
        return scale_to_snr(self.dist, self.omega, self.snr_db)


@dataclass(frozen=True)
class SimOutcome:
    """One trial: achieved distortion and the ML residual diagnostics."""

    trial: int
    distortion: float
    exact: bool
    residual_min: float
    runner_up_gap: float


@dataclass
class SimSummary:
    """Aggregate over completed trials, with declared errors counted apart."""

    trials: int
    completed: int
    declared_errors: int
    mean_distortion: float
    distortion_se: float
    exact_rate: float


@dataclass(frozen=True)
class SampleDraw:
    """Samples, the matrix that produced them, and the zeroed column set
    (rate-sharing only)."""

    y: np.ndarray
    matrix: np.ndarray
    zeroed: np.ndarray | None = None


def support_distortion(s, s_hat) -> float:
    """Fraction of the true support missed by an equal-size estimate."""
    s, s_hat = set(s), set(s_hat)
    if len(s_hat) != len(s):
        raise ValueError("estimate must have the same size as the true support")
    return 1.0 - len(s & s_hat) / len(s)


def draw_source(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """Sparse vector with a uniform size-k support and i.i.d. nonzero values."""
    dist = config.effective_dist()
    x = np.zeros(config.n)
    support = np.sort(rng.choice(config.n, size=config.k, replace=False))
    x[support] = sample_values(dist, config.k, rng)
    return x


def sample(x: np.ndarray, config: SimConfig, rng: np.random.Generator) -> SampleDraw:
    """Noisy linear samples of x under the configured matrix ensemble.

    Matrix entries have variance 1/n so each row has unit expected power; the
    rate-sharing ensemble zeroes a random column subset of size
    ceil((1 - (1-eps) * rho / omega) * n).
    """
    n, m = config.n, config.m
    mat = rng.standard_normal((m, n)) / math.sqrt(n)
    zeroed = None
    if config.matrix == "rate_sharing":
        zeroed = np.sort(rng.choice(n, size=config.zeroed_size, replace=False))
        mat[:, zeroed] = 0.0
    y = mat @ x
    if config.snr_db is not None:
        y = y + rng.standard_normal(m)
    return SampleDraw(y, mat, zeroed)


@dataclass(frozen=True)
class MLResult:
    """Best support under exhaustive least-squares search plus diagnostics."""

    support: tuple[int, ...]
    residual_min: float
    runner_up_gap: float


def _root(mat, y, norm_y):
    """Level 1 of the prefix-tree walk over mat's columns: the Gram matrix
    G = A^T A, its diagonal, and the level's fields (see :func:`_extend`)."""
    gram = mat.T @ mat
    col_norms = np.diag(gram)
    e = mat.T @ y
    return gram, col_norms, (norm_y - e * e / col_norms, col_norms <= 0.0, col_norms, e)


class _Workspace(threading.local):
    """The tree walk's level fields, kept across calls: per thread, two sets
    of grow-only buffers, one list of 1-D arrays per set, one array per field.

    A level of even size writes into set 0 and one of odd size into set 1,
    so a level never writes over the level above, which it reads, and only
    two consecutive levels are alive at a time, as without the workspace.
    Each buffer keeps the most entries any level of its parity has needed:
    about the two largest consecutive levels of every walk the thread has
    made (4.1 MB after one at n = 24, k = 6).  Reusing them spares each call
    the page faults of fresh level arrays, which the allocator returns to
    the system between calls.
    """

    def __init__(self):
        self.sets = ([], [])

    def level(self, parity, size, fields):
        """Views of exactly ``size`` entries, one per field, into buffer set
        ``parity``; a buffer is replaced only when it is shorter than
        ``size`` or of another dtype than its field."""
        buffers = self.sets[parity]
        for i, f in enumerate(fields):
            if i == len(buffers):
                buffers.append(np.empty(size, f.dtype))
            elif len(buffers[i]) < size or buffers[i].dtype != f.dtype:
                buffers[i] = np.empty(size, f.dtype)
        return [b[:size] for b in buffers[: len(fields)]]


_workspace = _Workspace()


@lru_cache(maxsize=8)
def _prefix_tree(n: int, k: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The lexicographic prefix tree of the subsets of range(n) of size at
    most k.

    Level j (j = 1..k) holds every size-j subset, as an increasing sequence,
    in lexicographic order, as two arrays: the index of its first j - 1
    elements in level j - 1 (level 0 is the empty sequence, index 0) and its
    last element.  A node's children extend it by each larger element, are
    contiguous and end at n - 1, so the sibling that ends in c instead of a
    sits c - a places later.  Level k is the size-k subsets themselves, read
    by :func:`_leaves`, and the tree to depth j < k is its first j levels.
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


def _leaves(levels, nodes) -> np.ndarray:
    """The supports at the indices ``nodes`` of the last level of ``levels``
    (a :func:`_prefix_tree` or its first j levels), one increasing row each,
    read by climbing from each node to the root."""
    nodes = np.asarray(nodes, dtype=np.intp)
    out = np.empty((len(nodes), len(levels)), dtype=np.int64)
    for j, (parent, last) in reversed(list(enumerate(levels))):
        out[:, j] = last[nodes]
        nodes = parent[nodes]
    return out


def _extend(gram, col_norms, state, above, level, keep):
    """One level of the prefix-tree walk both searches make, ``_CHUNK`` nodes
    at a time: each node (parent, c) of ``level`` extends the node
    P' = P + a of the level above by column c, where a is ``above[parent]``.

    A node keeps, at its own column c only, its prefix P's factor rows, the
    Schur-complement diagonal d (column c's squared distance from span(A_P))
    and the projected correlation e, with the residual of P + c and whether
    P + c is deficient.  ``state`` holds these for the level above as
    (residual, deficient, d, e, *rows); P's values at c sit with the
    parent's sibling that ends in c.  From them,
        w = (G[a, c] - sum_t rows_t[a] rows_t[c]) / sqrt(d_a),   z = e_a / sqrt(d_a),
        d'_c = d_c - w^2,   e'_c = e_c - w z,
        residual(P' + c) = residual(P') - e'_c^2 / d'_c,
    and w joins the rows.  Returns the level's fields, without d, e and the
    rows unless ``keep``, as views into the calling thread's
    :class:`_Workspace`: they hold until the walk writes the level after
    next, or the thread's next walk starts, so nothing a search returns may
    point into them.  Deficient nodes may divide by 0: the caller sets
    ``np.errstate``.
    """
    resid, deficient, d, e, *rows = state
    grown: list[np.ndarray] = []
    for start in range(0, len(level[0]), _CHUNK):
        parent, col = level[0][start : start + _CHUNK], level[1][start : start + _CHUNK]
        a = above[parent]
        at_col = parent + (col - a)
        root = np.sqrt(d[parent])
        w = gram.ravel()[a * len(gram) + col]
        for r in rows:
            w -= r[parent] * r[at_col]
        w /= root
        e_col = e[at_col] - w * (e[parent] / root)
        d_col = d[at_col] - w * w
        fields = (
            resid[parent] - e_col * e_col / d_col,
            deficient[parent] | (d_col <= PIVOT_RTOL * col_norms[col]),
        )
        if keep:
            fields += (d_col, e_col, *(r[at_col] for r in rows), w)
        if not grown:
            # The level's size is len(rows) + 2, so this picks its parity's set.
            grown = _workspace.level(len(rows) % 2, len(level[0]), fields)
        for out, f in zip(grown, fields):
            out[start : start + _CHUNK] = f
    return tuple(grown)


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


def exhaustive_ml(y: np.ndarray, mat: np.ndarray, k: int) -> MLResult:
    """Search all size-k supports (1 <= k <= n) for the smallest projection
    residual.

    A support's residual is the last pivot of the Cholesky factor of its
    bordered Gram matrix [[G_S, b_S], [b_S^T, |y|^2]] (G = A^T A, b = A^T y).
    Supports that share a lexicographic prefix share that prefix's factor
    rows, so the factors are built one level of the prefix tree at a time
    (:func:`_extend`).  Only the last level touches all C(n, k) supports, as
    tree nodes: :func:`_leaves` reads the supports of the nodes rescored and
    of the winner.  The levels are written into the calling thread's
    workspace (:class:`_Workspace`), which afterwards keeps about the two
    largest consecutive levels, 4.1 MB at n = 24, k = 6; the result holds
    only Python scalars and tuples.

    A pivot at or below ``PIVOT_RTOL`` times its column's squared norm marks
    the support deficient (the column lies within ~0.03 rad of the span
    before it).  Elsewhere, for k < m, the Gram residuals are good to about
    n * eps / PIVOT_RTOL times |y|^2 (at most 5.5e-13 |y|^2 against a
    per-support least-squares fit, over 3,000 draws at n = 8-12): enough to
    rank supports, not to tell a spanning support from round-off.  So
    deficient supports, and those within ``RESCORE_RTOL`` |y|^2 of the
    smallest Gram residual, are scored again by projection onto their column
    span (:func:`_span_residuals`, one Gram-Schmidt step per column).  That
    step counts a column as adding nothing when it lies within
    ``_RANK_RTOL`` (1e-8) of the span before it, relative to its norm
    (:func:`_span_step`): at k = m, a support holding two
    columns closer than that is scored as its smaller span, and a later support
    wins, though a least-squares fit finds the first spanning y.  On
    square supports (k = m) the Gram residuals were off by up to
    1.4e-10 |y|^2 over 7,000 such draws, beyond ``RESCORE_RTOL``, and every
    support that is not deficient spans y, so for k >= m every support is
    scored again.  Residuals within ``TIE_RTOL`` |y|^2
    of the minimum tie, and ties go to the lexicographically first support.
    If the first two supports rescored both span y, as every support does
    when m <= k, the first wins without scoring the rest: no residual is
    below 0.  ``residual_min`` is the chosen support's residual and
    ``runner_up_gap`` the gap between the two smallest residuals (0 when
    they tie).
    """
    n = mat.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    norm_y = float(y @ y)
    levels = _prefix_tree(n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        gram, col_norms, state = _root(mat, y, norm_y)
        for size, ((_, above), level) in enumerate(zip(levels, levels[1:]), 2):
            state = _extend(gram, col_norms, state, above, level, size < k)
    resid, deficient = state[0], state[1]
    tie = TIE_RTOL * norm_y
    gram_min = np.min(resid, where=~deficient, initial=np.inf)
    again = np.flatnonzero(
        deficient | (resid <= gram_min + RESCORE_RTOL * norm_y) | (k >= mat.shape[0])
    )
    first = _span_residuals(y, mat, _leaves(levels, again[:2]))
    if len(first) == 2 and first.max() <= tie:
        return MLResult(tuple(_leaves(levels, again[:1])[0].tolist()), float(first[0]), 0.0)
    resid[again[:2]] = first
    if len(again) > 2:
        resid[again[2:]] = _span_residuals(y, mat, _leaves(levels, again[2:]))
    np.maximum(resid, 0.0, out=resid)

    low = int(np.argmin(resid))
    least = resid[low]
    best = int(np.argmax(resid <= least + tie))
    residual_min = float(resid[best])
    resid[low] = np.inf  # the runner-up is the least of the rest
    gap = resid.min() - least if len(resid) > 1 else 0.0
    support = tuple(_leaves(levels, [best])[0].tolist())
    return MLResult(support, residual_min, float(gap) if gap > tie else 0.0)


def rate_sharing_recover(
    y: np.ndarray,
    mat: np.ndarray,
    k: int,
    zeroed: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Two-stage decoder for the rate-sharing ensemble.

    Stage 1 finds the smallest support inside the live columns whose span
    contains y (|y_perp| <= ``SPAN_RTOL`` |y|), by an exact search over
    subset sizes; several minimal spanning supports raise
    :class:`MultipleMinimalSupportsError`.  The search walks the prefix tree
    of the live columns one level, so one subset size, at a time, with
    :func:`exhaustive_ml`'s step (:func:`_extend`).  A spanning node's
    residual is at most ``SPAN_RTOL``^2 |y|^2, and below size m a node that
    is not deficient has a Gram residual good to about n * eps /
    ``PIVOT_RTOL`` times |y|^2 (6e-12 |y|^2 at n = 28).  So below size m
    only the deficient nodes and those whose Gram residual is at most
    ``RESCORE_RTOL`` |y|^2 can span.  At size m every node can: each one
    that is not deficient spans y, and square supports' Gram residuals
    have been seen off by 1.4e-10 |y|^2.  These nodes are scored again by
    projection (:func:`_span_residuals`) in node order, the first two on
    their own.  As in :func:`exhaustive_ml`, the projection counts a column
    within ``_RANK_RTOL`` (1e-8) of the span before it, relative
    to its norm, as adding nothing, so a support holding two columns closer
    than that is scored as its smaller span.  The search stops at the second spanning node of a level,
    or after the first level with one, whose support :func:`_leaves` reads.
    At k <= n / 2, as :class:`SimConfig` has it, the walk holds no more than
    :func:`exhaustive_ml`'s at the same n and k, which ``MAX_SUPPORTS``
    bounds: C(live, j) <= C(n, k) for j <= k.  Its levels share the calling
    thread's workspace (:class:`_Workspace`) with :func:`exhaustive_ml`'s,
    and stay in it after the call.  Stage 2 fills the remaining
    indices uniformly at random from the zeroed set.
    """
    is_live = np.ones(mat.shape[1], dtype=bool)
    is_live[zeroed] = False
    live = np.flatnonzero(is_live)
    norm_y = float(y @ y)
    stage1: tuple[int, ...] = ()
    if norm_y > 0.0:
        cols = mat[:, live]
        depth = min(len(live), mat.shape[0], k)
        levels = _prefix_tree(len(live), depth)
        span_tol = SPAN_RTOL * math.sqrt(norm_y)
        with np.errstate(divide="ignore", invalid="ignore"):
            gram, col_norms, state = _root(cols, y, norm_y)
            for size in range(1, depth + 1):
                if size > 1:
                    state = _extend(
                        gram, col_norms, state, levels[size - 2][1], levels[size - 1], size < depth
                    )
                again = np.flatnonzero(
                    state[1] | (state[0] <= RESCORE_RTOL * norm_y) | (size == mat.shape[0])
                )
                if len(again) == 0:
                    continue
                spanning: list[int] = []
                for nodes in np.split(again, range(2, len(again), _CHUNK)):
                    resid = _span_residuals(y, cols, _leaves(levels[:size], nodes))
                    spanning += nodes[np.sqrt(resid) <= span_tol].tolist()
                    if len(spanning) > 1:
                        raise MultipleMinimalSupportsError(
                            f"several spanning supports of size {size}"
                        )
                if spanning:
                    stage1 = tuple(live[_leaves(levels[:size], spanning)[0]].tolist())
                    break
            else:
                raise MultipleMinimalSupportsError(
                    "no unique minimal spanning support within the live columns"
                )
    fill = rng.choice(np.asarray(zeroed), size=k - len(stage1), replace=False)
    return tuple(sorted(set(stage1) | set(int(i) for i in fill)))


def run_experiment(config: SimConfig) -> tuple[list[SimOutcome], SimSummary]:
    """Run every trial; deterministic given (config, seed).

    Declared rate-sharing errors are excluded from the distortion mean and
    counted in ``declared_errors``.
    """
    outcomes: list[SimOutcome] = []
    declared = 0
    for trial, rng in enumerate(trial_rngs(config.seed, range(config.trials))):
        x = draw_source(config, rng)
        true_support = tuple(int(i) for i in np.nonzero(x)[0])
        drawn = sample(x, config, rng)
        if config.matrix == "rate_sharing":
            try:
                est = rate_sharing_recover(drawn.y, drawn.matrix, config.k, drawn.zeroed, rng)
            except MultipleMinimalSupportsError:
                declared += 1
                continue
            resid_min, gap = math.nan, math.nan
        else:
            ml = exhaustive_ml(drawn.y, drawn.matrix, config.k)
            est = ml.support
            resid_min, gap = ml.residual_min, ml.runner_up_gap
        dist = support_distortion(true_support, est)
        outcomes.append(SimOutcome(trial, dist, dist == 0.0, resid_min, gap))

    dists = np.array([o.distortion for o in outcomes]) if outcomes else np.array([math.nan])
    completed = len(outcomes)
    se = float(np.std(dists, ddof=1) / math.sqrt(completed)) if completed > 1 else math.inf
    summary = SimSummary(
        trials=config.trials,
        completed=completed,
        declared_errors=declared,
        mean_distortion=float(np.mean(dists)),
        distortion_se=se,
        exact_rate=sum(o.exact for o in outcomes) / completed if completed else math.nan,
    )
    return outcomes, summary


def success_rate(outcomes: list[SimOutcome], alpha: float) -> float:
    """Fraction of completed trials with distortion at most alpha."""
    if not outcomes:
        return math.nan
    return sum(o.distortion <= alpha for o in outcomes) / len(outcomes)
