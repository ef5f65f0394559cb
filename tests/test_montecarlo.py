"""Monte-Carlo verifiers: matrix limits, rank decay, counting brackets."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from srdbounds import montecarlo as mc
from srdbounds.distributions import Gaussian, PointMass, SlicedGaussian, Uniform
from srdbounds.ratefun import rate_R


def test_config_validation():
    with pytest.raises(ValueError):
        mc.MCConfig(n=4)
    with pytest.raises(ValueError):
        mc.MCConfig(n=100, r=-1.0)
    with pytest.raises(ValueError):
        mc.MCConfig(n=100, trials=0)
    assert mc.MCConfig(n=100, r=0.5).m == 50


@pytest.mark.parametrize("field", ["r", "gamma"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_ratio_and_gamma(field, value):
    # Checked at construction only: a non-finite r has no m = round(r * n),
    # and at a non-finite gamma mp_logdet's pivots would be inf or NaN.
    with pytest.raises(ValueError, match="finite"):
        mc.MCConfig(n=100, **{field: value})


def test_trial_rng_deterministic_and_distinct():
    a = mc.trial_rng(123, 0).standard_normal(4)
    b = mc.trial_rng(123, 0).standard_normal(4)
    c = mc.trial_rng(123, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trial_rng_accepts_any_int_seed():
    for seed in (-1, 2**64 + 5, -(2**70)):
        assert np.isfinite(mc.trial_rng(seed, 0).standard_normal(2)).all()


def test_estimates_reproducible_from_config():
    cfg = mc.MCConfig(n=64, r=0.5, gamma=3.0, trials=5, seed=42)
    assert mc.mp_logdet(cfg) == mc.mp_logdet(cfg)
    cfg2 = mc.MCConfig(n=64, r=2.0, trials=5, seed=42)
    assert mc.det_power(cfg2) == mc.det_power(cfg2)


def test_mp_logdet_zero_gamma_exact():
    est = mc.mp_logdet(mc.MCConfig(n=64, r=0.5, gamma=0.0, trials=3, seed=0))
    assert est.mean == 0.0 and est.target == 0.0


def test_mp_logdets_pivots_stay_finite_at_huge_gamma(monkeypatch):
    # The pivots are summed without an s^2 term, so at s = 1e200 / n each
    # log-determinant is p log s + log det(B B^T) to rounding.  info_G has no
    # float value there (math domain error), so the target is stubbed.
    monkeypatch.setattr(mc, "info_G", lambda r, gamma: 1.0)
    config = mc.MCConfig(n=64, r=2.0, trials=4, seed=0)
    (est,) = mc._mp_logdets(config, (1e200,))
    diag, _ = mc._sampled_bidiagonals(config)
    want = np.mean(64 * math.log(1e200 / 64) + np.sum(np.log(diag), axis=1)) / 128
    assert est.mean == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("r,gamma", [(0.5, 10.0), (2.0, 1.0)])
def test_mp_logdet_tracks_limit(r, gamma):
    est = mc.mp_logdet(mc.MCConfig(n=200, r=r, gamma=gamma, trials=20, seed=7))
    assert est.relative_gap <= 0.02
    assert est.std_error < 0.01


def test_mp_logdet_gap_shrinks_with_n():
    gaps = []
    for n in (100, 200, 400):
        est = mc.mp_logdet(mc.MCConfig(n=n, r=0.5, gamma=10.0, trials=30, seed=5))
        gaps.append((abs(est.mean - est.target), est.std_error))
    # monotone trend, one standard error of slack
    assert gaps[1][0] <= gaps[0][0] + gaps[0][1]
    assert gaps[2][0] <= gaps[1][0] + gaps[1][1]


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_mp_logdets_match_one_gamma_runs(r):
    gammas = (0.0, 1.0, 10.0, 100.0)
    config = mc.MCConfig(n=24, r=r, trials=4, seed=3)
    got = mc._mp_logdets(config, gammas)
    for gamma, est in zip(gammas, got):
        assert est == mc.mp_logdet(mc.MCConfig(n=24, r=r, gamma=gamma, trials=4, seed=3))


@pytest.mark.parametrize("sampler", [mc.mp_logdet, mc.det_power])
def test_matrix_budget_refuses_before_drawing(sampler):
    # 10**10 entries: the draw alone would need 80 GB.
    tracemalloc.start()
    try:
        with pytest.raises(mc.BudgetError, match="matrix has"):
            sampler(mc.MCConfig(n=100_000, r=1.0, trials=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_det_power_requires_wide_matrices():
    with pytest.raises(ValueError):
        mc.det_power(mc.MCConfig(n=100, r=0.5))


@pytest.mark.parametrize("r,target", [(1.0, 1.0 / math.e), (2.0, 2.0 / math.e)])
def test_det_power_limits(r, target):
    est = mc.det_power(mc.MCConfig(n=200, r=r, trials=10, seed=3))
    assert est.target == pytest.approx(target, rel=1e-12)
    assert est.relative_gap <= 0.03


def dense_logdets(config: mc.MCConfig, targets) -> np.ndarray:
    """The dense route the bidiagonal draw replaced, kept as its reference:
    log det(shift I + scale G) for each (shift, scale) of ``targets``, one
    per trial, as a (target, trial) array, with G the smaller Gram of the
    trial's m x n Gaussian draw (M^T M at m = n) and one Cholesky factor per
    target."""
    n, m = config.n, config.m
    values = np.empty((len(targets), config.trials))
    for trial in range(config.trials):
        mat = mc.trial_rng(config.seed, trial).standard_normal((m, n))
        gram = mat @ mat.T if m < n else mat.T @ mat
        for t, (shift, scale) in enumerate(targets):
            factor = np.linalg.cholesky(scale * gram + shift * np.eye(len(gram)))
            values[t, trial] = 2.0 * float(np.sum(np.log(np.diag(factor))))
    return values


@pytest.mark.parametrize("r", [1.0, 2.0])
def test_det_power_gram_cholesky_matches_svd(r):
    # The dense reference's Gram Cholesky factor and the singular values give
    # one log-determinant, draw by draw, at the verify sizes (400 x 400 and
    # 800 x 400).
    config = mc.MCConfig(n=400, r=r, trials=5, seed=0)
    (chol,) = dense_logdets(config, [(0.0, 1.0)])
    for trial, logdet in enumerate(chol):
        mat = mc.trial_rng(config.seed, trial).standard_normal((config.m, config.n))
        svd = 2.0 * float(np.sum(np.log(np.linalg.svd(mat, compute_uv=False))))
        assert logdet == pytest.approx(svd, rel=1e-12, abs=0)
    assert mc.det_power(config).rejected == 0


Z_MAX = 4.0  # combined standard errors allowed between two sampled means


def _z(mean_a, se_a, mean_b, se_b):
    return abs(mean_a - mean_b) / math.hypot(se_a, se_b)


def _mean_se(values):
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values)))


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_bidiagonal_logdets_match_the_dense_reference(r):
    # At n = 24 the bidiagonal model is exact, so each mean log-determinant
    # (and, at r >= 1, log det M^T M) agrees with the dense draws' within
    # Z_MAX combined standard errors.  The two routes use separate seeds.
    n, trials, gammas = 24, 3000, (1.0, 10.0, 100.0)
    config = mc.MCConfig(n=n, r=r, trials=trials, seed=1)
    got = mc._mp_logdets(config, gammas)
    reference = mc.MCConfig(n=n, r=r, trials=trials, seed=2)
    dense = dense_logdets(reference, [(1.0, gamma / n) for gamma in gammas] + [(0.0, 1.0)])
    for est, values in zip(got, dense):
        assert est.rejected == 0
        assert _z(est.mean, est.std_error, *_mean_se(values / (2.0 * n))) <= Z_MAX
    if r >= 1.0:
        diag, _ = mc._sampled_bidiagonals(config)
        assert _z(*_mean_se(np.sum(np.log(diag), axis=1)), *_mean_se(dense[-1])) <= Z_MAX


@pytest.mark.parametrize("n,r", [(16, 1.0), (32, 1.0), (16, 2.0), (32, 2.0)])
def test_det_power_log_det_mean_is_exact(n, r):
    # E log det(M^T M) = sum_i (psi((m - i)/2) + log 2), i < n (Bartlett): a
    # degree of freedom off by one moves it by many standard errors here,
    # far less than the 3 % verify tolerance at n = 400.
    config = mc.MCConfig(n=n, r=r, trials=2000, seed=4)
    m = config.m
    exact = float(np.sum(special.digamma((m - np.arange(n)) / 2.0) + math.log(2.0)))
    logdets = np.sum(np.log(mc._sampled_bidiagonals(config)[0]), axis=1)
    mean, se = _mean_se(logdets)
    assert abs(mean - exact) <= Z_MAX * se
    # det_power reads the same draw.
    est = mc.det_power(config)
    want_mean, want_se = _mean_se(np.exp((logdets - n * math.log(m)) / n))
    assert est.mean == pytest.approx(want_mean, rel=1e-12, abs=0)
    assert est.std_error == pytest.approx(want_se, rel=1e-9, abs=0)
    gap = abs(want_mean - est.target) / est.target
    assert est.relative_gap == pytest.approx(gap, rel=1e-9, abs=0)
    assert est.rejected == 0


def test_logdomain_matches_direct_determinant():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((12, 12))
    direct = math.log(abs(np.linalg.det(mat.T @ mat / 12.0)))
    sv = np.linalg.svd(mat, compute_uv=False)
    logdom = 2.0 * float(np.sum(np.log(sv))) - 12.0 * math.log(12.0)
    assert abs(direct - logdom) <= 1e-10


def test_rank_deficiency_gaussian_and_scalar():
    assert mc.rank_deficiency(16, 0.5, "gaussian", trials=100, seed=1) == 0.0
    assert mc.rank_deficiency(2, 0.5, "rademacher", trials=200, seed=2) == 0.0


def test_rank_deficiency_rademacher_decreases():
    probs = [
        mc.rank_deficiency(n, 0.5, "rademacher", trials=1000, seed=11) for n in (8, 16, 32)
    ]
    assert probs[0] > probs[1] > probs[2]


def test_int_rank_matches_float_rank():
    rng = np.random.default_rng(4)
    for _ in range(300):
        k = int(rng.integers(2, 7))
        mat = rng.choice([-1, 1], size=(k, k)).astype(int)
        assert mc._int_rank(mat.tolist()) == np.linalg.matrix_rank(mat.astype(float))


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def brute_force_neighborhood(n, k, alpha):
    """Independent oracle: count neighbors of {0..k-1} by full enumeration."""
    base = set(range(k))
    count = 0
    for cand in itertools.combinations(range(n), k):
        if 1.0 - len(base & set(cand)) / k <= alpha + 1e-12:
            count += 1
    return count


def test_n_tilde_values():
    assert mc.n_tilde(10, 2, 0.0) == 1
    assert mc.n_tilde(10, 2, 0.5) == 17
    assert mc.n_tilde(10, 2, 0.5) == brute_force_neighborhood(10, 2, 0.5)
    for n, k, alpha in [(8, 3, 0.4), (9, 4, 0.6), (12, 2, 0.9)]:
        assert mc.n_tilde(n, k, alpha) == brute_force_neighborhood(n, k, alpha)
        assert mc.n_tilde(n, k, alpha) <= math.comb(n, k)


def test_covering_bracket_reference_case():
    lower, upper = mc.covering_bracket(10, 2, 0.5)
    assert lower == 3
    assert lower <= upper


def test_covering_bracket_full_cover():
    lower, upper = mc.covering_bracket(8, 2, 1.0)
    assert (lower, upper) == (1, 1)


def test_covering_bracket_approaches_rate():
    for n in (10, 16):
        k = max(1, int(0.2 * n))
        lower, upper = mc.covering_bracket(n, k, 0.5)
        rate = rate_R(k / n, 0.5)
        assert abs(math.log(lower) / n - rate) <= 0.2
        assert abs(math.log(upper) / n - rate) <= 0.2


def test_covering_bracket_order_holds_generally():
    for n in (8, 9, 10):
        for k in (2, 3):
            for alpha in (0.0, 0.4, 0.7):
                lower, upper = mc.covering_bracket(n, k, alpha)
                assert 1 <= lower <= upper


def greedy_cover_by_sets(n, k, alpha):
    """Independent oracle: the greedy cover over explicit neighbour sets,
    most uncovered first, ties to the lexicographically smallest support."""
    supports = [frozenset(s) for s in itertools.combinations(range(n), k)]
    keep = k - math.floor(alpha * k)
    balls = [{t for t in supports if len(s & t) >= keep} for s in supports]
    uncovered = set(supports)
    size = 0
    while uncovered:
        best = max(range(len(supports)), key=lambda i: (len(balls[i] & uncovered), -i))
        uncovered -= balls[best]
        size += 1
    return size


@pytest.mark.parametrize(
    "n, k, alpha",
    [
        (8, 2, 0.0),
        (8, 2, 1.0),
        (9, 3, 0.34),
        (10, 3, 0.7),
        (10, 4, 0.5),
        (11, 2, 0.5),
        (12, 3, 0.4),
    ],
)
def test_covering_bracket_matches_set_based_greedy(n, k, alpha):
    lower, upper = mc.covering_bracket(n, k, alpha)
    assert lower == -(-math.comb(n, k) // mc.n_tilde(n, k, alpha))
    assert upper == greedy_cover_by_sets(n, k, alpha)


def test_covering_bracket_pinned_reference_case():
    assert mc.covering_bracket(22, 4, 0.5) == (8, 21)


@pytest.mark.parametrize(
    "n, k, alpha, bracket",
    [
        (24, 3, 0.0, (2024, 2024)),  # every support is its own only neighbour
        (16, 4, 1.0, (1, 1)),  # every support neighbours every other
    ],
)
def test_covering_bracket_pinned_at_the_ends_of_alpha(n, k, alpha, bracket):
    assert mc.covering_bracket(n, k, alpha) == bracket


def lstsq_residuals(y, mat, supports):
    """Reference: one least-squares fit per support."""
    out = []
    for cols in (mat[:, list(s)] for s in supports):
        fit, *_ = np.linalg.lstsq(cols, y, rcond=None)
        out.append(float(np.sum((y - cols @ fit) ** 2)))
    return np.array(out)


def test_projection_residuals_match_lstsq_on_deficient_spans():
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((5, 8))
    mat[:, 0] = 0.0  # a zero column ahead of others defeats a plain QR rank test
    mat[:, 2] = mat[:, 1]
    mat[:, 6] = 2.0 * mat[:, 4] - mat[:, 3]
    y = rng.standard_normal(5)
    for k in (1, 2, 3, 4, 6):  # k = 6 > m = 5 makes every support wide
        supports = mc._support_array(8, k)
        got = mc._span_residuals(y, mat, supports)
        assert np.allclose(got, lstsq_residuals(y, mat, supports), rtol=1e-10, atol=1e-12)


def test_span_residuals_on_nearly_dependent_columns():
    # Four columns within 1e-5 of each other (condition number ~1e5): one
    # Gram-Schmidt pass loses orthogonality in proportion to its square and
    # leaves a residual far above round-off on the support that spans y.
    rng = np.random.default_rng(11)
    supports = mc._support_array(5, 4)
    for _ in range(10):
        base = rng.standard_normal(5)
        mat = np.column_stack([base + d * rng.standard_normal(5) for d in (0, 1e-5, 1e-5, 1e-5, 1)])
        y = mat[:, :4] @ rng.standard_normal(4)
        got = mc._span_residuals(y, mat, supports) / (y @ y)
        assert got[0] <= 1e-26
        want = lstsq_residuals(y, mat, supports[1:]) / (y @ y)
        assert np.allclose(got[1:], want, rtol=1e-5, atol=0)


def test_support_array_is_lexicographic_combinations():
    for n in (1, 5, 9, 24):
        for k in range(0, min(n, 6) + 1):
            want = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
            assert np.array_equal(mc._support_array(n, k), want.reshape(math.comb(n, k), k))


def test_prefix_tree_lists_every_extension_of_every_prefix():
    n, k = 9, 4
    levels = mc._prefix_tree(n, k)
    prefixes = [()]
    for j, (parent, last) in enumerate(levels, start=1):
        nodes = [prefixes[p] + (int(c),) for p, c in zip(parent, last)]
        assert nodes == list(itertools.combinations(range(n), j))
        prefixes = nodes


def test_covering_budget_guard():
    with pytest.raises(ValueError):
        mc.covering_bracket(30, 5, 0.5)
    with pytest.raises(mc.BudgetError):
        mc.covering_bracket(24, 12, 0.5)


def test_covering_budget_counts_the_neighbour_table():
    # 134,596 supports pass the support budget; their 18,724 neighbours each
    # would need 10 GB of table.
    tracemalloc.start()
    try:
        with pytest.raises(mc.BudgetError, match="neighbour table"):
            mc.covering_bracket(24, 6, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Power ratio
# ---------------------------------------------------------------------------


def test_power_ratio_endpoints():
    scan = mc.power_ratio_scan(Gaussian(0.0, 1.0), 0.1, [1e-3, 1.0])
    assert scan[1][1] == pytest.approx(1.0, rel=1e-12)
    assert scan[0][1] == pytest.approx(math.pi / 6.0, rel=0.01)


def test_power_ratio_bounded_for_all_variants():
    grid = np.geomspace(1e-3, 1.0, 50)
    for dist in (
        Gaussian(0.0, 1.0),
        Uniform(2.0, 1.0),
        Uniform(0.5, 1.0),
        PointMass(0.2, 1.0, limit=True),
        SlicedGaussian(0.5, 0.4),
    ):
        ratios = [r for _, r in mc.power_ratio_scan(dist, 0.1, grid)]
        assert min(ratios) > 0.0
        assert math.isfinite(max(ratios))


SLICED = SlicedGaussian(0.5, 0.4)


def test_power_ratio_scan_truncates_once_as_the_float_loop_does(monkeypatch):
    # One array truncation gives, to 4 ulps, the ratios of the per-beta float
    # loop it replaced (kept here as the reference).
    grid = np.geomspace(1e-3, 1.0, 50)
    for dist in (Gaussian(0.0, 1.0), Uniform(0.5, 1.0), PointMass(0.2, 1.0, 0.1), SLICED):
        base, power = 0.1 * mc.moments(dist).second_moment, 2.0 * mc.decay_rate(dist)
        want = [0.1 * mc.truncate(dist, float(b)).second_moment / base / b**power for b in grid]
        calls = []
        truncate = mc.truncate
        monkeypatch.setattr(mc, "truncate", lambda d, b: calls.append(b) or truncate(d, b))
        got = mc.power_ratio_scan(dist, 0.1, grid)
        monkeypatch.undo()
        assert len(calls) == 1 and [beta for beta, _ in got] == grid.tolist()
        for (_, ratio), ref in zip(got, want):
            assert abs(ratio - ref) <= 4 * np.spacing(ref), (dist, ratio, ref)


def test_power_ratio_pointmass_floor():
    scan = mc.power_ratio_scan(PointMass(0.2, 1.0, limit=True), 0.1, np.geomspace(1e-3, 0.99, 20))
    for _, ratio in scan:
        assert 0.2 - 1e-12 <= ratio <= 1.0 + 1e-12
