"""Monte-Carlo verifiers: matrix limits, rank decay, counting brackets."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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


def _trial_draws(rng, trial):
    """A trial's draws: 32-bit values first and last (an odd count at the
    end, so a stored 32-bit half is left over), normals and chi-squares."""
    odd = 2 * (trial % 3) + 1
    return (
        rng.integers(0, 2, size=4).tolist(),
        rng.standard_normal(3).tolist(),
        rng.chisquare([5.0, 2.0, 0.5]).tolist(),
        rng.integers(0, 2, size=odd).tolist(),
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.one_of(
        st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**64, 2**64 + 3, -(2**64) - 1])
    ),
    start=st.integers(-5, 2**64 + 5),
    count=st.integers(1, 6),
)
@example(seed=0, start=0, count=4)
@example(seed=-1, start=-2, count=5)
@example(seed=2**64, start=2**64 - 2, count=4)
def test_trial_rngs_draw_what_trial_rng_draws(seed, start, count):
    # One Philox re-keyed per trial gives each trial the stream a fresh
    # trial_rng would, even after the previous trial left half of a 64-bit
    # value stored and part of a Philox block unread.
    trials = range(start, start + count)
    got = [_trial_draws(rng, t) for t, rng in zip(trials, mc.trial_rngs(seed, trials))]
    assert got == [_trial_draws(mc.trial_rng(seed, t), t) for t in trials]


def test_trial_rngs_reset_the_stored_half_and_the_buffer():
    # Three 32-bit draws leave a half stored and three 64-bit values of a
    # four-value Philox block read; the next trial starts clean.
    rngs = mc.trial_rngs(7, range(2))
    rng = next(rngs)
    rng.integers(0, 2, size=3)
    rng.random()
    state = rng.bit_generator.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] == 3
    rng = next(rngs)
    fresh = mc.trial_rng(7, 1)
    assert rng.integers(0, 2, size=5).tolist() == fresh.integers(0, 2, size=5).tolist()
    assert rng.random(3).tolist() == fresh.random(3).tolist()


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


def reference_bidiagonals(config: mc.MCConfig) -> tuple[np.ndarray, np.ndarray]:
    """The bidiagonal draws with one fresh ``trial_rng`` per trial, kept as
    the reference of the re-keyed stream."""
    p, q = min(config.m, config.n), max(config.m, config.n)
    diag, sub = np.empty((config.trials, p)), np.zeros((config.trials, p))
    for trial in range(config.trials):
        rng = mc.trial_rng(config.seed, trial)
        diag[trial] = rng.chisquare(np.arange(q, q - p, -1))
        sub[trial, :-1] = rng.chisquare(np.arange(p - 1, 0, -1))
    return diag, sub


@pytest.mark.parametrize("r, seed", [(0.5, 0), (1.0, -3), (2.0, 2**64 + 9), (1.5, 11)])
def test_sampled_bidiagonals_match_one_stream_per_trial(r, seed):
    config = mc.MCConfig(n=40, r=r, trials=9, seed=seed)
    got, want = mc._sampled_bidiagonals(config), reference_bidiagonals(config)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_bidiagonal_budget_refuses_before_drawing():
    # 10**7 trials of order 200 would hold two 16 GB arrays; each trial's
    # matrix is within budget, so only the trial count is refused.
    tracemalloc.start()
    try:
        with pytest.raises(mc.BudgetError, match="^10000000 trials of order-200 bidiagonals hold"):
            mc.mp_logdet(mc.MCConfig(n=400, r=0.5, trials=10_000_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # At the budget's edge the draw is still allowed to go ahead.
    assert mc._check_matrix_budget(mc.MCConfig(n=400, r=0.5, trials=(1 << 24) // 200)) is None


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


def _int_rank(mat: list[list[int]]) -> int:
    """The per-matrix route the batched elimination replaced, kept as its
    reference: exact rank of an integer matrix by fraction-free elimination,
    entry by entry in Python ints."""
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


def _reference_singular(stack) -> np.ndarray:
    return np.array([_int_rank(mat.tolist()) < len(mat) for mat in stack])


def _suite_draws(k, trials, seed=0):
    return np.stack([mc.trial_rng(seed, t).choice([-1, 1], size=(k, k)) for t in range(trials)])


def test_int_rank_matches_float_rank():
    # The reference agrees with floating-point rank, and the batched
    # elimination with the reference, on small +-1 matrices.
    rng = np.random.default_rng(4)
    for k in range(2, 7):
        stack = rng.choice([-1, 1], size=(60, k, k))
        ranks = [_int_rank(mat.tolist()) for mat in stack]
        assert ranks == list(np.linalg.matrix_rank(stack.astype(float)))
        assert mc._singular(stack).tolist() == [rank < k for rank in ranks]


@pytest.mark.parametrize("k, trials", [(4, 1000), (8, 1000), (16, 1000), (17, 100), (20, 60)])
def test_singular_matches_the_int_rank_reference_on_the_suite_draws(k, trials):
    # k = 4, 8 and 16 are every matrix verify's rank suite draws at its
    # defaults (seed 0, 1,000 trials); k >= 17 runs on Python ints.
    stack = _suite_draws(k, trials)
    got = mc._singular(stack)
    assert got.tolist() == _reference_singular(stack).tolist()
    if k <= 8:
        assert 0 < np.count_nonzero(got) < trials


def test_singular_handles_row_swaps_and_zero_columns():
    # {-1, 0, 1} entries, most of them 0: leading zeros force row swaps and
    # some columns have no pivot left, at int64 and Python-int sizes.
    rng = np.random.default_rng(12)
    for k, trials in [(1, 300), (2, 600), (3, 600), (5, 600), (9, 300), (16, 200), (18, 60)]:
        stack = rng.choice([-1, 0, 0, 1], size=(trials, k, k))
        assert mc._singular(stack).tolist() == _reference_singular(stack).tolist()
    swap = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])  # det 2, pivot 0 at (0, 0)
    middle = np.array([[1, 0, 1], [1, 0, -1], [-1, 0, 1]])  # zero middle column
    last = np.array([[1, 1, 0], [1, -1, 0], [1, 1, 0]])  # zero last column
    after = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 1]])  # zero pivot after a step, det 4
    twins = np.array([[1, -1, 1], [0, 1, 1], [1, -1, 1]])  # two equal rows
    got = mc._singular(np.stack([swap, middle, last, after, twins]))
    assert got.tolist() == [False, True, True, False, True]


def _sylvester(k):
    h = np.array([[1]])
    while len(h) < k:
        h = np.block([[h, h], [h, -h]])
    return h


def test_singular_is_exact_past_the_int64_edge():
    # Hadamard matrices reach the largest |det| of any +-1 matrix: 16^8 at
    # k = 16, the last int64 size, and 32^16 at k = 32, whose minors overflow
    # int64.  Flipping one entry keeps a matrix nonsingular; a copied row or
    # a zeroed column (then divisions by the kept pivot) makes it singular.
    for k in (16, 32):
        h = _sylvester(k)
        flipped, copied, zeroed = h.copy(), h.copy(), h.copy()
        flipped[5, 7] *= -1
        copied[-1] = copied[3]
        zeroed[:, 6] = 0
        stack = np.stack([h, -h, h[::-1], flipped, copied, zeroed])
        got = mc._singular(stack).tolist()
        assert got == [False, False, False, False, True, True]
        assert got == _reference_singular(stack).tolist()


def test_rank_deficiency_decides_each_block_in_one_call(monkeypatch):
    calls = []
    singular = mc._singular

    def spy(stack):
        calls.append(len(stack))
        return singular(stack)

    monkeypatch.setattr(mc, "_singular", spy)
    whole = mc.rank_deficiency(16, 0.5, "rademacher", trials=1000, seed=3)
    assert calls == [1000]
    # One block of 7 trials at a time gives the same count, and that count is
    # the reference's on the same draws.
    calls.clear()
    monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * 8 * 8 * 7)
    assert mc.rank_deficiency(16, 0.5, "rademacher", trials=1000, seed=3) == whole
    assert calls == [7] * 142 + [6]
    reference = _reference_singular(_suite_draws(8, 1000, seed=3))
    assert whole == np.count_nonzero(reference) / 1000


@pytest.mark.parametrize("n", [8, 16, 32])
def test_rank_deficiency_draws_what_choice_draws(monkeypatch, n):
    # Every +-1 matrix the rank suite draws at its defaults (seed 0, 1,000
    # trials, k = n / 2) is the one rng.choice([-1, 1]) draws from its stream.
    stacks = []
    singular = mc._singular

    def spy(stack):
        stacks.append(stack.copy())
        return singular(stack)

    monkeypatch.setattr(mc, "_singular", spy)
    mc.rank_deficiency(n, 0.5, "rademacher", trials=1000, seed=0)
    np.testing.assert_array_equal(np.concatenate(stacks), _suite_draws(n // 2, 1000))


@pytest.mark.parametrize("entry_law", ["gaussian", "rademacher"])
@pytest.mark.parametrize("seed", [-1, 5, 2**64 + 2])
def test_rank_deficiency_draws_each_trial_from_its_own_stream(monkeypatch, entry_law, seed):
    # Blocks of 7 trials, the last one short: every matrix is the one a fresh
    # trial_rng(seed, t) draws, across the block boundaries.
    k, trials = 6, 50
    stacks = []
    decide = (np.linalg, "matrix_rank") if entry_law == "gaussian" else (mc, "_singular")
    original = getattr(*decide)

    def spy(stack, *rest, **kwargs):
        stacks.append(stack.copy())
        return original(stack, *rest, **kwargs)

    monkeypatch.setattr(*decide, spy)
    monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * k * k * 7)
    got = mc.rank_deficiency(12, 0.5, entry_law, trials=trials, seed=seed)
    monkeypatch.undo()
    assert [len(stack) for stack in stacks] == [7] * 7 + [1]
    if entry_law == "gaussian":
        want = np.stack([mc.trial_rng(seed, t).standard_normal((k, k)) for t in range(trials)])
        reference = np.linalg.matrix_rank(want) < k
    else:
        want = _suite_draws(k, trials, seed)
        reference = _reference_singular(want)
    np.testing.assert_array_equal(np.concatenate(stacks), want)
    assert got == np.count_nonzero(reference) / trials


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 0.5, "rademacher", 10), r"^k = floor\(omega \* n\) = 0 out of range for n = 1$"),
        ((4, 2.0, "gaussian", 10), r"^k = floor\(omega \* n\) = 8 out of range for n = 4$"),
        ((8, 0.5, "bernoulli", 10), r"^entry_law must be 'gaussian' or 'rademacher', got bernoulli$"),
        ((8, 0.5, "rademacher", 0), r"^trials must be at least 1, got 0$"),
    ],
)
def test_rank_deficiency_refuses_before_drawing(monkeypatch, args, message):
    drawn = []
    monkeypatch.setattr(mc, "trial_rng", lambda *key: drawn.append(key))
    monkeypatch.setattr(mc, "trial_rngs", lambda *key: drawn.append(key))
    with pytest.raises(ValueError, match=message):
        mc.rank_deficiency(*args)
    assert drawn == []


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


def test_covering_bracket_pinned_at_a_size_the_neighbour_table_refused():
    # 134,596 supports with 18,724 neighbours each: a neighbour table would
    # take 10 GB.  A separate table-free greedy, which lowers the gains by
    # overlap counts against the newly covered supports block by block, gave
    # the same bracket in about a minute.
    assert mc.covering_bracket(24, 6, 0.5) == (8, 28)


def covering_bracket_by_table(n, k, alpha):
    """Reference: the greedy cover through a (C(n,k), n_tilde) neighbour
    table, built from float32 overlap counts of 0/1 incidence rows; each pick
    lowers the gains through the table rows of the supports it covers."""
    total, width = math.comb(n, k), mc.n_tilde(n, k, alpha)
    incidence = np.zeros((total, n), dtype=np.float32)
    supports = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(total, k)
    np.put_along_axis(incidence, supports, 1.0, axis=1)
    overlap = incidence @ incidence.T
    # Flat positions, less each row's offset, are the column indices.
    cols = np.flatnonzero(overlap >= k - math.floor(alpha * k)).reshape(-1, width)
    table = cols - total * np.arange(total)[:, None]
    gain = np.full(total, width, dtype=np.int64)
    uncovered = np.ones(total, dtype=bool)
    size = 0
    while uncovered.any():
        ball = table[int(np.argmax(gain))]
        newly = ball[uncovered[ball]]
        uncovered[newly] = False
        size += 1
        gain -= np.bincount(table[newly].ravel(), minlength=total)
    return -(-total // width), size


# Every (n, k, floor(alpha k)) with n <= 12 where a ball holds more than its
# centre (floor(alpha k) > 0) and two supports can share fewer than
# m = k - floor(alpha k) indices (2k - n < m), so that the gains fall.  Plain
# draws of k and alpha sit mostly at the ends, where neither holds; the
# explicit examples take those.
COVERING_SHAPES = [
    (n, k, s) for n in range(1, 13) for k in range(n + 1) for s in range(1, k + 1) if 2 * k - n < k - s
]


@st.composite
def covering_inputs(draw):
    n, k, swaps = draw(st.sampled_from(COVERING_SHAPES))
    alpha = (swaps + draw(st.floats(0.0, 1.0, exclude_max=True))) / max(k, 1)
    return n, k, min(alpha, 1.0)


@given(case=covering_inputs())
@example(case=(10, 3, 0.0))  # m = k: each ball is its centre alone
@example(case=(9, 4, 1.0))  # m = 0: the first ball is every support
@example(case=(11, 4, 0.75))  # m = 1
@example(case=(12, 1, 0.5))  # k = 1
@example(case=(7, 7, 0.5))  # k = n: one support
@example(case=(7, 0, 0.5))  # k = 0: the empty support
@example(case=(12, 6, 0.5))  # m = 3 over the largest C(n, k)
@example(case=(5, 4, 0.5))  # m = 2: every two supports share 3 indices
@settings(max_examples=150, deadline=None, derandomize=True)
def test_covering_bracket_matches_the_neighbour_table(case):
    assert mc.covering_bracket(*case) == covering_bracket_by_table(*case)


@pytest.mark.parametrize(
    "n, k, alpha, bracket",
    [
        (24, 3, 0.0, (2024, 2024)),  # every support is its own only neighbour
        (16, 4, 1.0, (1, 1)),  # every support neighbours every other
    ],
)
def test_covering_bracket_pinned_at_the_ends_of_alpha(n, k, alpha, bracket):
    assert mc.covering_bracket(n, k, alpha) == bracket


def test_covering_budget_guard():
    with pytest.raises(ValueError):
        mc.covering_bracket(30, 5, 0.5)
    with pytest.raises(mc.BudgetError):
        mc.covering_bracket(24, 12, 0.5)


def test_covering_budget_counts_the_subset_ranks():
    # 134,596 supports pass the support budget; their 12,616 subsets of size
    # 13 or more each would need 6.8 GB of int32 ranks.  Refused before any
    # of it is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(mc.BudgetError, match="12616 subsets of size 13 or more"):
            mc.covering_bracket(24, 18, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_covering_bracket_holds_no_neighbour_table():
    # A neighbour table of these 7,315 supports would alone take 29 MB.
    tracemalloc.start()
    try:
        assert mc.covering_bracket(22, 4, 0.5) == (8, 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


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
