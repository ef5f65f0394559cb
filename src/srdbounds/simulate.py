"""Desk-scale support-recovery experiments.

Stochastic sparse sources, unit-row-power sampling matrices (i.i.d. Gaussian
or the column-zeroing rate-sharing construction), exhaustive maximum-likelihood
recovery over all candidate supports, and the two-stage rate-sharing decoder.
Both searches walk the lexicographic prefix tree of the supports, doing the
work a prefix shares once per prefix.  The ML search scores every support by
a bordered Cholesky factor of its Gram matrix, so its cost depends on the
number of samples only through one Gram product; the rate-sharing decoder
extends each node's orthonormal span by one Gram-Schmidt step.  Problem
sizes are capped so the exhaustive search stays tractable; the point is
bound verification, not scalable estimation.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, sample_values, scale_to_snr
from .montecarlo import (
    _CHUNK,
    _MATRIX_ENTRIES,
    BudgetError,
    _prefix_tree,
    _span_residuals,
    _span_step,
    _support_array,
    trial_rng,
)

SPAN_RTOL = 1e-9
MAX_SUPPORTS = 1_000_000
MAX_SPAN_BYTES = 1 << 28  # rate_sharing_recover's stage-1 span bases: 256 MiB
# exhaustive_ml's tolerances (see its docstring).  True residual gaps can be
# tiny: on one noiseless draw at n=20, k=2, m=3 (seed 9, trial 32) a wrong
# support comes within 5.4e-13 |y|^2 of the true one.  So ties stay well
# below that, and above the few-eps round-off of the projection residuals
# they are decided on.
PIVOT_RTOL = 1e-3
RESCORE_RTOL = 1e-10
TIE_RTOL = 1e-14


class MultipleMinimalSupportsError(RuntimeError):
    """Stage-1 recovery found several minimal spanning supports (declared error)."""


@dataclass(frozen=True)
class SimConfig:
    """One recovery experiment: dimensions, source, channel, matrix, trials.

    ``snr_db=None`` runs noiseless.  With noise, the value distribution is
    rescaled so the per-sample SNR equals ``10^(snr_db/10)`` against unit
    noise.  ``epsilon`` is the rate-sharing slack (only used by that matrix).
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
        if not 0.0 < self.omega <= 0.5:
            raise ValueError(f"omega must lie in (0, 0.5], got {self.omega}")
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
            if self.span_bytes > MAX_SPAN_BYTES:
                raise BudgetError(
                    f"stage 1 would hold {self.span_bytes} bytes of span bases, "
                    f"over the budget of {MAX_SPAN_BYTES}"
                )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

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

    @property
    def span_bytes(self) -> int:
        """Most bytes two consecutive kept levels of stage 1 hold: level j <
        min(live, m, k) holds C(live, j) x (j + 1) x m float64 (bases, y_perp)."""
        live = self.n - self.zeroed_size
        kept = [math.comb(live, j) * (j + 1) * self.m * 8 for j in range(min(live, self.m, self.k))]
        return max(map(sum, zip(kept, kept[1:])), default=sum(kept))

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
    truncated: bool = False


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


def _extend(gram, col_norms, state, parent, a, col, keep):
    """One step of :func:`exhaustive_ml`'s tree walk, for one chunk of a
    level: extend the nodes ``parent``, each a prefix P' = P + a, by the
    columns ``col``.

    A node keeps, at its own column c only, its prefix P's factor rows, the
    Schur-complement diagonal d (column c's squared distance from span(A_P))
    and the projected correlation e, with the residual of P + c and whether
    P + c is deficient.  ``state`` holds these for the level above as
    (residual, deficient, d, e, *rows); P's values at c sit with the
    parent's sibling that ends in c.  From them,
        w = (G[a, c] - sum_t rows_t[a] rows_t[c]) / sqrt(d_a),   z = e_a / sqrt(d_a),
        d'_c = d_c - w^2,   e'_c = e_c - w z,
        residual(P' + c) = residual(P') - e'_c^2 / d'_c,
    and w joins the rows.  Returns the new nodes' fields, without d, e and
    the rows unless ``keep``.
    """
    resid, deficient, d, e, *rows = state
    at_col = parent + (col - a)
    root = np.sqrt(d[parent])
    w = gram.ravel()[a * len(gram) + col]
    for r in rows:
        w -= r[parent] * r[at_col]
    w /= root
    e_col = e[at_col] - w * (e[parent] / root)
    d_col = d[at_col] - w * w
    grown = (
        resid[parent] - e_col * e_col / d_col,
        deficient[parent] | (d_col <= PIVOT_RTOL * col_norms[col]),
    )
    if keep:
        grown += (d_col, e_col, *(r[at_col] for r in rows), w)
    return grown


def exhaustive_ml(y: np.ndarray, mat: np.ndarray, k: int) -> MLResult:
    """Search all size-k supports (1 <= k <= n) for the smallest projection
    residual.

    A support's residual is the last pivot of the Cholesky factor of its
    bordered Gram matrix [[G_S, b_S], [b_S^T, |y|^2]] (G = A^T A, b = A^T y).
    Supports that share a lexicographic prefix share that prefix's factor
    rows, so the factors are built one level of the prefix tree at a time
    (:func:`_extend`).  Only the last level touches all C(n, k) supports.
    Levels run ``_CHUNK`` nodes at a time.

    A pivot at or below ``PIVOT_RTOL`` times its column's squared norm marks
    the support deficient (the column lies within ~0.03 rad of the span
    before it).  Elsewhere the Gram residuals are good to about
    n * eps / PIVOT_RTOL times |y|^2: enough to rank supports, not to tell a
    spanning support from round-off.  So deficient supports, and those
    within ``RESCORE_RTOL`` |y|^2 of the smallest Gram residual, are scored
    again by projection onto their column span, built column by column
    with the Gram-Schmidt step stage 1 of :func:`rate_sharing_recover` uses
    (:func:`_span_residuals`).  Residuals within
    ``TIE_RTOL`` |y|^2 of the minimum tie, and ties go to the
    lexicographically first support.  If the first two supports rescored
    both span y, as every support does when m <= k, the first wins without
    scoring the rest: no residual is below 0.  ``residual_min`` is the
    chosen support's residual and ``runner_up_gap`` the gap between the two
    smallest residuals (0 when they tie).
    """
    n = mat.shape[1]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    gram = mat.T @ mat
    col_norms = np.diag(gram)
    norm_y = float(y @ y)
    levels = _prefix_tree(n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = mat.T @ y
        state = (norm_y - e * e / col_norms, col_norms <= 0.0, col_norms, e)
        for level, ((_, prev_last), (parent, col)) in enumerate(zip(levels, levels[1:]), 2):
            grown: list[np.ndarray] = []
            for start in range(0, len(parent), _CHUNK):
                part = slice(start, start + _CHUNK)
                fields = _extend(
                    gram, col_norms, state, parent[part], prev_last[parent[part]], col[part], level < k
                )
                if not grown:
                    grown = [np.empty(len(parent), f.dtype) for f in fields]
                for out, f in zip(grown, fields):
                    out[part] = f
            state = tuple(grown)
    resid, deficient = state[0], state[1]
    supports = _support_array(n, k)
    tie = TIE_RTOL * norm_y
    gram_min = np.min(resid, where=~deficient, initial=np.inf)
    again = np.flatnonzero(deficient | (resid <= gram_min + RESCORE_RTOL * norm_y))
    first = _span_residuals(y, mat, supports[again[:2]])
    if len(first) == 2 and first.max() <= tie:
        return MLResult(tuple(int(i) for i in supports[again[0]]), float(first[0]), 0.0)
    resid[again[:2]] = first
    if len(again) > 2:
        resid[again[2:]] = _span_residuals(y, mat, supports[again[2:]])
    resid = np.maximum(resid, 0.0)

    best = int(np.argmax(resid <= resid.min() + tie))
    low = np.partition(resid, 1)[:2] if len(resid) > 1 else resid[[0, 0]]
    gap = low[1] - low[0]
    return MLResult(
        tuple(int(i) for i in supports[best]), float(resid[best]), float(gap) if gap > tie else 0.0
    )


def _grow_spans(basis, y_perp, cols, parent, last, keep):
    """One level of stage 1's prefix-tree walk, ``_CHUNK`` nodes at a time:
    node i adds column ``last[i]`` to the span of node ``parent[i]`` of the
    level above, whose orthonormal ``basis`` (j, m, N) and residual ``y_perp``
    (m, N) are laid out as in :func:`_span_step`.  Returns every node's
    |y_perp| and, if ``keep``, the level's own basis and y_perp (else None
    for both).
    """
    resid = np.empty(len(parent))
    if keep:
        grown = np.empty((len(basis) + 1, len(y_perp), len(parent)))
        grown_perp = np.empty((len(y_perp), len(parent)))
    for start in range(0, len(parent), _CHUNK):
        part = slice(start, start + _CHUNK)
        node_basis = np.take(basis, parent[part], axis=2)
        node_perp = np.take(y_perp, parent[part], axis=1)
        q, perp = _span_step(node_basis, node_perp, cols[:, last[part]])
        resid[part] = np.sqrt(np.einsum("mn,mn->n", perp, perp))
        if keep:
            grown[:-1, :, part] = node_basis
            grown[-1, :, part] = q
            grown_perp[:, part] = perp
    return (resid, grown, grown_perp) if keep else (resid, None, None)


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
    of the live columns one level, so one subset size, at a time, and each
    node extends its parent's span by one Gram-Schmidt step
    (:func:`_span_step`); it stops at the first level with a spanning node.
    Stage 2 fills the remaining indices uniformly at random from the zeroed
    set.
    """
    live = np.setdiff1d(np.arange(mat.shape[1]), zeroed)
    norm_y = math.sqrt(float(y @ y))
    stage1: tuple[int, ...] = ()
    if norm_y > 0.0:
        depth = min(len(live), mat.shape[0], k)
        levels = _prefix_tree(len(live), depth)
        cols = mat[:, live]
        # Level 0, the empty support: no basis, and all of y is residual.
        basis, y_perp = np.empty((0, len(y), 1)), y[:, None]
        for size, (parent, last) in enumerate(levels, 1):
            resid, basis, y_perp = _grow_spans(basis, y_perp, cols, parent, last, size < depth)
            spanning = np.flatnonzero(resid <= SPAN_RTOL * norm_y)
            if len(spanning) > 1:
                raise MultipleMinimalSupportsError(
                    f"{len(spanning)} spanning supports of size {size}"
                )
            if len(spanning) == 1:
                node = int(spanning[0])
                for parent, last in reversed(levels[:size]):
                    stage1 = (int(live[last[node]]),) + stage1
                    node = int(parent[node])
                break
        else:
            raise MultipleMinimalSupportsError(
                "no unique minimal spanning support within the live columns"
            )
    fill = rng.choice(np.asarray(zeroed), size=k - len(stage1), replace=False)
    return tuple(sorted(set(stage1) | set(int(i) for i in fill)))


def run_experiment(
    config: SimConfig, time_budget_s: float | None = None
) -> tuple[list[SimOutcome], SimSummary]:
    """Run all trials; deterministic given (config, seed).

    Declared rate-sharing errors are excluded from the distortion mean and
    counted in ``declared_errors``.  A time budget, when given, may truncate
    the trial list (flagged in the summary).
    """
    outcomes: list[SimOutcome] = []
    declared = 0
    start = time.monotonic()
    truncated = False
    for trial in range(config.trials):
        if time_budget_s is not None and time.monotonic() - start > time_budget_s:
            truncated = True
            break
        rng = trial_rng(config.seed, trial)
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
        truncated=truncated,
    )
    return outcomes, summary


def success_rate(outcomes: list[SimOutcome], alpha: float) -> float:
    """Fraction of completed trials with distortion at most alpha."""
    if not outcomes:
        return math.nan
    return sum(o.distortion <= alpha for o in outcomes) / len(outcomes)


def discrete_single_sample_demo(
    n: int = 10, k: int = 3, trials: int = 50, seed: int = 0
) -> float:
    """Toy: one Gaussian sample suffices for a known +-1 alphabet.

    Exhaustively inverts the scalar projection over all supports and sign
    patterns; returns the exact-recovery rate (1.0 up to float ties).
    """
    if n > 12:
        raise ValueError("demo is capped at n = 12")
    supports = _support_array(n, k)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
    exact = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        row = rng.standard_normal(n)
        support = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        y = float(row[list(support)] @ rng.choice([-1.0, 1.0], size=k))
        # argmin takes the first minimum in (support, sign) order, as a scan would.
        best = int(np.argmin(np.abs(row[supports] @ signs.T - y))) // len(signs)
        exact += tuple(supports[best].tolist()) == support
    return exact / trials
