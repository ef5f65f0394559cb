"""Recovery simulations: source draws, sampling, ML search, rate sharing."""

import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdbounds import simulate as sim
from srdbounds.distributions import Gaussian
from srdbounds.montecarlo import BudgetError, trial_rng


def config(**kw):
    base = dict(
        n=20, omega=0.1, dist=Gaussian(0.0, 1.0), rho=0.15, snr_db=None, trials=50, seed=0
    )
    base.update(kw)
    return sim.SimConfig(**base)


# ---------------------------------------------------------------------------
# Configuration guards
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        config(n=4)
    with pytest.raises(ValueError):
        config(omega=0.01)  # k = 0
    with pytest.raises(BudgetError):
        config(n=28, omega=0.5)  # C(28, 14) is far beyond the search budget
    with pytest.raises(ValueError):
        config(matrix="rate_sharing", rho=0.2, omega=0.1)  # needs rho < omega


@pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_rho(rho):
    with pytest.raises(ValueError, match="rho must be finite"):
        config(rho=rho)


def test_config_refuses_a_matrix_over_budget():
    # m * n entries above 2**24 are refused before anything is drawn.
    for n, rho in ((20, 1e308), (24, 1e6), (16, 65536.0 + 1 / 16)):
        with pytest.raises(BudgetError):
            config(n=n, rho=rho)
    assert config(n=16, rho=65536.0).m * 16 == 2**24


# ---------------------------------------------------------------------------
# Source and sampling
# ---------------------------------------------------------------------------


def test_draw_source_support_statistics():
    cfg = config(trials=1)
    rng = trial_rng(3, 0)
    counts = np.zeros(cfg.n)
    draws = 20_000
    for _ in range(draws):
        x = sim.draw_source(cfg, rng)
        support = np.nonzero(x)[0]
        assert len(support) == cfg.k
        counts[support] += 1
    freq = counts / draws
    se = math.sqrt((cfg.k / cfg.n) * (1 - cfg.k / cfg.n) / draws)
    assert np.all(np.abs(freq - cfg.k / cfg.n) <= 5 * se)


def test_draw_source_value_moments():
    cfg = config(n=20, omega=0.5, trials=1, snr_db=13.0)
    rng = trial_rng(4, 0)
    chunks = []
    for _ in range(2000):
        x = sim.draw_source(cfg, rng)
        chunks.append(x[np.nonzero(x)])
    values = np.concatenate(chunks)
    target = 10 ** 1.3 / cfg.omega  # second moment after power scaling
    emp = float(np.mean(values**2))
    se = float(np.std(values**2) / math.sqrt(len(values)))
    assert abs(emp - target) <= 4 * se


def test_matrix_row_power_normalization():
    cfg = config(rho=0.5, trials=1)
    rng = trial_rng(5, 0)
    traces = []
    for _ in range(300):
        x = sim.draw_source(cfg, rng)
        drawn = sim.sample(x, cfg, rng)
        traces.append(np.trace(drawn.matrix @ drawn.matrix.T) / cfg.m)
    assert np.mean(traces) == pytest.approx(1.0, abs=0.02)


def test_noiseless_samples_are_exact():
    cfg = config()
    rng = trial_rng(6, 0)
    x = sim.draw_source(cfg, rng)
    drawn = sim.sample(x, cfg, rng)
    assert np.array_equal(drawn.y, drawn.matrix @ x)


def test_empirical_snr_matches_power():
    cfg = config(n=24, omega=0.25, rho=0.5, snr_db=10.0, trials=1)
    rng = trial_rng(7, 0)
    sig, noise = [], []
    for _ in range(400):
        x = sim.draw_source(cfg, rng)
        drawn = sim.sample(x, cfg, rng)
        sig.append(float(np.sum((drawn.matrix @ x) ** 2)))
        noise.append(float(np.sum((drawn.y - drawn.matrix @ x) ** 2)))
    snr = np.sum(sig) / np.sum(noise)
    assert snr == pytest.approx(10.0, rel=0.1)


def test_rate_sharing_zeroes_columns():
    cfg = config(n=24, omega=0.25, rho=0.15, matrix="rate_sharing", epsilon=0.1)
    rng = trial_rng(8, 0)
    x = sim.draw_source(cfg, rng)
    drawn = sim.sample(x, cfg, rng)
    expected = math.ceil((1 - 0.9 * 0.15 / 0.25) * 24)
    assert len(drawn.zeroed) == expected == 12
    assert np.all(drawn.matrix[:, drawn.zeroed] == 0.0)


# ---------------------------------------------------------------------------
# Distortion
# ---------------------------------------------------------------------------


def test_support_distortion_values():
    assert sim.support_distortion((0, 1, 2), (0, 1, 2)) == 0.0
    assert sim.support_distortion((0, 1, 2), (3, 4, 5)) == 1.0
    assert sim.support_distortion((0, 1, 2), (0, 1, 5)) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        sim.support_distortion((0, 1), (0, 1, 2))


# ---------------------------------------------------------------------------
# Exhaustive ML
# ---------------------------------------------------------------------------


def test_ml_recovers_noiseless_with_one_extra_sample():
    cfg = config(n=20, omega=0.1, rho=0.15)  # k=2, m=3
    failures = 0
    for trial in range(200):
        rng = trial_rng(9, trial)
        x = sim.draw_source(cfg, rng)
        drawn = sim.sample(x, cfg, rng)
        result = sim.exhaustive_ml(drawn.y, drawn.matrix, cfg.k)
        if set(result.support) != set(np.nonzero(x)[0]):
            failures += 1
    assert failures == 0


def test_ml_zero_observation_returns_lexicographic():
    rng = trial_rng(10, 0)
    mat = rng.standard_normal((4, 10)) / math.sqrt(10)
    result = sim.exhaustive_ml(np.zeros(4), mat, 3)
    assert result.support == (0, 1, 2)


def test_ml_handles_duplicate_columns():
    rng = trial_rng(11, 0)
    mat = rng.standard_normal((6, 10)) / math.sqrt(10)
    mat[:, 5] = mat[:, 4]  # make some supports rank-deficient
    x = np.zeros(10)
    x[[1, 4]] = (1.0, 2.0)
    result = sim.exhaustive_ml(mat @ x, mat, 2)
    assert result.residual_min <= 1e-18
    assert set(result.support) in ({1, 4}, {1, 5})


def test_ml_breaks_ties_lexicographically_when_every_support_spans():
    # m = 2 < k = 3: every support spans y, so every residual is round-off.
    for seed in range(5):
        rng = trial_rng(12, seed)
        mat = rng.standard_normal((2, 7))
        result = sim.exhaustive_ml(rng.standard_normal(2), mat, 3)
        assert result.support == (0, 1, 2)
        assert result.residual_min <= 1e-28


def test_ml_ties_between_parallel_columns_go_to_the_first():
    rng = trial_rng(15, 0)
    mat = rng.standard_normal((6, 10))
    mat[:, 5] = -3.0 * mat[:, 4]
    y = mat[:, 1] + 2.0 * mat[:, 4] + 0.1 * rng.standard_normal(6)
    result = sim.exhaustive_ml(y, mat, 2)
    assert result.support == (1, 4)
    assert result.residual_min > 1e-6 and result.runner_up_gap == 0.0


def test_ml_scores_nearly_dependent_supports_by_projection():
    # Column 2 lies ~1e-7 rad from column 0 and y needs both, with weights
    # ~1e7: the Gram route's round-off there (eps times the squared weights,
    # relative to |y|^2) is as large as the other supports' residuals.
    for trial in range(8):
        rng = trial_rng(14, trial)
        mat = rng.standard_normal((5, 7))
        mat[:, 2] = mat[:, 0] + 1e-7 * rng.standard_normal(5)
        y = mat[:, 1] + (mat[:, 2] - mat[:, 0]) / 1e-7
        result = sim.exhaustive_ml(y, mat, 3)
        assert result.support == (0, 1, 2)
        assert result.residual_min <= 1e-16 * float(y @ y)


def lstsq_ml(y, mat, k):
    """Reference: one least-squares fit per support, ties (within
    ``sim.TIE_RTOL`` |y|^2) to the lexicographically first and a zero gap."""
    supports = list(itertools.combinations(range(mat.shape[1]), k))
    resid = []
    for s in supports:
        cols = mat[:, list(s)]
        fit, *_ = np.linalg.lstsq(cols, y, rcond=None)
        resid.append(float(np.sum((y - cols @ fit) ** 2)))
    resid = np.array(resid)
    tie = sim.TIE_RTOL * float(y @ y)
    best = int(np.argmax(resid <= resid.min() + tie))
    low = np.sort(resid)[:2]
    return supports[best], resid[best], low[1] - low[0] if low[1] - low[0] > tie else 0.0


@pytest.mark.parametrize("m", [6, 4, 3])  # m > k, m = k, m < k at k = 4
@pytest.mark.parametrize("columns", ["generic", "zero", "duplicate", "dependent", "small"])
def test_ml_matches_lstsq_per_support(m, columns):
    rng = trial_rng(13, m)
    n, k = 8, 4
    for trial in range(6):
        mat = rng.standard_normal((m, n))
        if columns == "zero":
            mat[:, 2] = 0.0
        elif columns == "duplicate":
            mat[:, 5] = mat[:, 1]
        elif columns == "dependent":
            mat[:, 3] = mat[:, 0] - 0.5 * mat[:, 6]
        elif columns == "small":
            mat[:, 4] *= 1e-6
        x = np.zeros(n)
        x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
        y = mat @ x + (0.3 * rng.standard_normal(m) if trial % 2 else 0.0)
        support, resid, gap = lstsq_ml(y, mat, k)
        result = sim.exhaustive_ml(y, mat, k)
        scale = 1e-12 * float(y @ y)
        assert result.support == support
        assert abs(result.residual_min - resid) <= scale
        assert abs(result.runner_up_gap - gap) <= scale


# ---------------------------------------------------------------------------
# Rate sharing
# ---------------------------------------------------------------------------


def rate_sharing_conditional_mean(n, k, u_size, m):
    """Exact conditional mean distortion of the two-stage decoder given that
    stage 1 succeeds (fewer than m live true indices), by direct enumeration
    of the hypergeometric overlap."""
    total = math.comb(n, u_size)
    prob_ok = 0.0
    mean = 0.0
    for live_true in range(0, min(k, n - u_size) + 1):
        if live_true >= m:
            continue
        weight = math.comb(k, live_true) * math.comb(n - k, n - u_size - live_true) / total
        hidden = k - live_true
        fill_hits = hidden * hidden / u_size
        mean += weight * (hidden - fill_hits) / k
        prob_ok += weight
    return mean / prob_ok, prob_ok


def test_rate_sharing_stage1_subset_of_truth():
    cfg = config(n=24, omega=0.25, rho=0.15, matrix="rate_sharing", epsilon=0.1, trials=60)
    for trial in range(cfg.trials):
        rng = trial_rng(cfg.seed, trial)
        x = sim.draw_source(cfg, rng)
        truth = set(np.nonzero(x)[0])
        drawn = sim.sample(x, cfg, rng)
        try:
            est = sim.rate_sharing_recover(drawn.y, drawn.matrix, cfg.k, drawn.zeroed, rng)
        except sim.MultipleMinimalSupportsError:
            continue
        live = set(range(cfg.n)) - set(drawn.zeroed.tolist())
        assert set(est) & live <= truth


def reference_rate_sharing(y, mat, k, zeroed, rng):
    """Reference decoder: one least-squares fit per stage-1 candidate, in
    lexicographic order.  Returns the support, or the declared error as
    ("several", size) or ("none",)."""
    live = sorted(set(range(mat.shape[1])) - set(int(i) for i in zeroed))
    norm_y = math.sqrt(float(y @ y))
    stage1 = ()
    if norm_y > 0.0:
        for size in range(1, min(len(live), mat.shape[0], k) + 1):
            spanning = []
            for cand in itertools.combinations(live, size):
                cols = mat[:, cand]
                fit, *_ = np.linalg.lstsq(cols, y, rcond=None)
                if math.sqrt(float(np.sum((y - cols @ fit) ** 2))) <= sim.SPAN_RTOL * norm_y:
                    spanning.append(cand)
            if len(spanning) > 1:
                return ("several", size)
            if spanning:
                stage1 = spanning[0]
                break
        else:
            return ("none",)
    fill = rng.choice(np.asarray(zeroed), size=k - len(stage1), replace=False)
    return tuple(sorted(set(stage1) | set(int(i) for i in fill)))


@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_rate_sharing_matches_per_candidate_reference(epsilon):
    cfg = config(n=24, omega=0.25, rho=0.15, matrix="rate_sharing", epsilon=epsilon, seed=17)
    outcomes = set()
    for trial in range(120):
        rng = trial_rng(cfg.seed, trial)
        drawn = sim.sample(sim.draw_source(cfg, rng), cfg, rng)
        expected = reference_rate_sharing(
            drawn.y, drawn.matrix, cfg.k, drawn.zeroed, copy.deepcopy(rng)
        )
        try:
            got = sim.rate_sharing_recover(drawn.y, drawn.matrix, cfg.k, drawn.zeroed, rng)
        except sim.MultipleMinimalSupportsError as exc:
            msg = str(exc)
            got = ("none",) if msg.startswith("no unique") else ("several", int(msg.split()[-1]))
        assert got == expected, trial
        outcomes.add(expected[0] if isinstance(expected[0], str) else "support")
    assert {"support", "several"} <= outcomes


def decode_both(y, mat, k, zeroed, rng):
    """The decoder's outcome, in the reference's form, and the reference's."""
    expected = reference_rate_sharing(y, mat, k, zeroed, copy.deepcopy(rng))
    try:
        got = sim.rate_sharing_recover(y, mat, k, zeroed, rng)
    except sim.MultipleMinimalSupportsError as exc:
        msg = str(exc)
        got = ("none",) if msg.startswith("no unique") else ("several", int(msg.split()[-1]))
    return got, expected


@st.composite
def stage1_instances(draw):
    """A small rate-sharing instance.  Its live columns may include a zero
    column and a duplicated pair, and y may be 0, sparse in the columns, or
    a generic vector."""
    n, m, k = draw(st.integers(6, 10)), draw(st.integers(2, 4)), draw(st.integers(2, 4))
    order = draw(st.permutations(range(n)))
    n_live = n - k - draw(st.integers(0, n - k))
    live, zeroed = sorted(order[:n_live]), sorted(order[n_live:])
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = data.standard_normal((m, n))
    mat[:, zeroed] = 0.0
    if len(live) > 1 and draw(st.booleans()):
        first, second = draw(st.lists(st.sampled_from(live), min_size=2, max_size=2, unique=True))
        mat[:, second] = mat[:, first]
    if live and draw(st.booleans()):
        mat[:, draw(st.sampled_from(live))] = 0.0
    kind = draw(st.sampled_from(["sparse", "generic", "zero"]))
    if kind == "sparse" and live:
        support = sorted(draw(st.sets(st.sampled_from(live), min_size=1, max_size=k)))
        y = mat[:, support] @ data.standard_normal(len(support))
    elif kind == "generic":
        y = data.standard_normal(m)
    else:
        y = np.zeros(m)
    return y, mat, k, np.array(zeroed), np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@given(stage1_instances())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_rate_sharing_matches_reference_on_small_instances(instance):
    got, expected = decode_both(*instance)
    assert got == expected


def test_rate_sharing_stage1_memory_stays_small():
    # 26 live columns and k = m = 6: C(26, 6) = 230,230 candidates of the
    # last size, every one of them spanning.
    cfg = config(n=28, omega=0.2143, rho=0.2, matrix="rate_sharing", epsilon=0.0, seed=3)
    rng = trial_rng(cfg.seed, 0)
    drawn = sim.sample(sim.draw_source(cfg, rng), cfg, rng)
    assert (cfg.k, cfg.m, cfg.n - len(drawn.zeroed)) == (6, 6, 26)
    tracemalloc.start()
    try:
        with pytest.raises(sim.MultipleMinimalSupportsError, match="^230230 spanning supports of size 6$"):
            sim.rate_sharing_recover(drawn.y, drawn.matrix, cfg.k, drawn.zeroed, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 20


def test_stage1_span_budget_refuses_before_drawing():
    # n = 22, omega = 0.5, rho = 0.49, eps = 0: 21 live columns and depth 11.
    # Kept levels 9 and 10 hold C(21, 9) * 10 + C(21, 10) * 11 bases of
    # m = 11 floats: 572 MiB.
    tracemalloc.start()
    try:
        with pytest.raises(sim.BudgetError, match="^stage 1 would hold 600087488 bytes"):
            config(n=22, omega=0.5, rho=0.49, matrix="rate_sharing", epsilon=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_stage1_span_budget_allows_the_rate_sharing_sizes():
    # The largest rate-sharing walk the tests run (n = 28, 26 live columns,
    # k = m = 6) needs about 21.5 MiB; n = 24 at rho = 0.15 far less.
    big = config(n=28, omega=0.2143, rho=0.2, matrix="rate_sharing", epsilon=0.0)
    assert big.span_bytes == (math.comb(26, 4) * 5 + math.comb(26, 5) * 6) * 6 * 8
    for epsilon in (0.0, 0.1):
        small = config(n=24, omega=0.25, rho=0.15, matrix="rate_sharing", epsilon=epsilon)
        assert small.span_bytes < 1 << 20
    # The i.i.d. ensemble runs no stage 1, so the refused sizes stay allowed.
    assert config(n=22, omega=0.5, rho=0.49).matrix == "iid_gaussian"


def test_rate_sharing_matches_exact_conditional_mean():
    cfg = config(
        n=24, omega=0.25, rho=0.15, matrix="rate_sharing", epsilon=0.1, trials=500, seed=21
    )
    outcomes, summary = sim.run_experiment(cfg)
    expected, prob_ok = rate_sharing_conditional_mean(24, 6, 12, cfg.m)
    assert summary.declared_errors > 0  # finite-n: stage 1 sometimes saturates
    se = summary.distortion_se
    assert abs(summary.mean_distortion - expected) <= 3.5 * se
    emp_ok = summary.completed / cfg.trials
    assert abs(emp_ok - prob_ok) <= 4 * math.sqrt(prob_ok * (1 - prob_ok) / cfg.trials)


def test_rate_sharing_distortion_falls_as_rho_grows():
    means = []
    for rho in (0.12, 0.2):
        cfg = config(
            n=24, omega=0.25, rho=rho, matrix="rate_sharing", epsilon=0.0, trials=300, seed=5
        )
        _, summary = sim.run_experiment(cfg)
        means.append(summary.mean_distortion)
    assert means[1] < means[0]


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def test_run_experiment_deterministic():
    cfg = config(trials=30, snr_db=5.0, rho=0.4, seed=12)
    first, _ = sim.run_experiment(cfg)
    second, _ = sim.run_experiment(cfg)
    assert first == second


def test_seeds_give_distinct_trial_streams():
    # Keyed by seed XOR trial, seeds 0-3 replayed one set of 8 trial streams.
    multisets = set()
    for seed in range(4):
        cfg = config(n=20, omega=0.25, rho=0.5, snr_db=0.0, trials=8, seed=seed)
        outcomes, _ = sim.run_experiment(cfg)
        multisets.add(tuple(sorted(o.residual_min for o in outcomes)))
    assert len(multisets) == 4


def test_run_experiment_time_budget_flags_truncation():
    cfg = config(n=24, omega=0.25, rho=0.75, snr_db=10.0, trials=50, seed=13)
    _, summary = sim.run_experiment(cfg, time_budget_s=0.3)
    assert summary.truncated
    assert summary.completed < cfg.trials


def test_random_guess_regime_one_sample_short():
    cfg = config(n=20, omega=0.1, rho=0.1, trials=200, seed=14)  # m = k = 2
    _, summary = sim.run_experiment(cfg)
    assert abs(summary.mean_distortion - 0.9) <= 0.08


def test_comfortable_sampling_gives_low_distortion():
    # observational: far above the bound, ML lands well under the target
    cfg = config(n=20, omega=0.1, rho=0.8, snr_db=20.0, trials=100, seed=15)
    _, summary = sim.run_experiment(cfg)
    assert summary.mean_distortion < 0.1


def test_discrete_alphabet_single_sample_demo():
    assert sim.discrete_single_sample_demo(n=10, k=3, trials=40, seed=2) == 1.0
