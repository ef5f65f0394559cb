"""Self-test of the benchmark: every check accepts a correct output and
rejects a corrupted one, and the tracer records spans at the caller's name.

Runs in a few seconds; the benchmark itself is ``python3 perfbench/run.py``.
"""

import itertools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from srdbounds import bounds, simulate  # noqa: E402
from srdbounds.distributions import Gaussian  # noqa: E402
from srdbounds.ratefun import info_G, rate_R  # noqa: E402

OMEGA, ALPHA, SNR_DB = 1e-4, 0.1, 10.0


@pytest.fixture(scope="module")
def source():
    return bounds.source_at_snr(Gaussian(0.0, 1.0), OMEGA, SNR_DB)


def test_references_agree_with_the_closed_forms():
    assert checks.pattern_rate(0.1, 0.1) == pytest.approx(rate_R(0.1, 0.1), rel=1e-14)
    for r, gamma in itertools.product((0.01, 0.5, 1.0, 3.0, 30.0), (0.1, 1.0, 100.0)):
        assert checks.mp_logdet_rate(r, gamma) == pytest.approx(info_G(r, gamma), rel=1e-11)
    assert checks.covering_lower(10, 2, 0.5) == 3


def test_rate_sharing_target_matches_enumeration():
    k, u, live_true = 6, 10, 2
    hidden = k - live_true
    # stage 2 draws `hidden` of the u zeroed columns, of which `hidden` are true
    dists = [(hidden - len(set(pick) & set(range(hidden)))) / k
             for pick in itertools.combinations(range(u), hidden)]
    mean, var = checks.rate_sharing_distortion(k, u, live_true)
    assert mean == pytest.approx(np.mean(dists), rel=1e-12)
    assert var == pytest.approx(np.var(dists), rel=1e-12)


def test_p3_and_p4_checks_reject_a_scaled_rho(source):
    v = checks.gaussian_coding_variance(10.0 ** (SNR_DB / 10.0), OMEGA, 0.0, 1.0)
    p3 = bounds.p3_general(source, ALPHA)
    p4 = bounds.p4_iid(source, ALPHA).rho_lower
    assert checks.check_p3("p3", p3, OMEGA, ALPHA, v) == []
    assert checks.check_p3("p3", p3 * 1.01, OMEGA, ALPHA, v)
    assert checks.check_p4_crossing("p4", p4, OMEGA, ALPHA, v) == []
    assert checks.check_p4_crossing("p4", p4 * 1.01, OMEGA, ALPHA, v)
    assert checks.check_p4_crossing("p4", p4 * 0.99, OMEGA, ALPHA, v)


def test_ordering_check_rejects_swapped_bounds():
    b = {"p3": 1.0, "t2": 2.0, "p4": 3.0, "p6": 4.0, "p5": 5.0, "t4": 5.0, "best_iid": 5.0, "best_any": 2.0}
    assert checks.check_orderings("ok", b) == []
    assert checks.check_orderings("swap", {**b, "p4": 4.5})
    assert checks.check_orderings("any", {**b, "best_any": 6.0})
    assert checks.check_orderings("best", {**b, "best_iid": 4.9})


def test_grid_and_curve_checks_reject_rises():
    snrs, alphas = [0.0, 10.0], [0.01, 0.1]
    good = [[4.0, 3.0], [2.0, 1.0]]
    assert checks.check_curve_grid("ok", snrs, alphas, good) == []
    assert checks.check_curve_grid("alpha", snrs, alphas, [[4.0, 4.1], [2.0, 1.0]])
    assert checks.check_curve_grid("snr", snrs, alphas, [[4.0, 3.0], [2.0, 3.5]])
    assert checks.check_curve_grid("nan", snrs, alphas, [[4.0, math.nan], [2.0, 1.0]])
    assert checks.check_sorted_curve("inv", [1, 2], [0.5, 1.2], hi=1.0)


def test_snr_curve_check_rejects_a_wrong_winner():
    rows = [{"snr_db": "-20", "rho_best": "3", "winner": "pointmass"},
            {"snr_db": "10", "rho_best": "2", "winner": "sliced"},
            {"snr_db": "40", "rho_best": "1", "winner": "sliced"}]
    assert checks.check_snr_curve(rows) == []
    assert checks.check_snr_curve([{**rows[0], "winner": "sliced"}, *rows[1:]])
    assert checks.check_snr_curve([rows[0], rows[1], {**rows[2], "rho_best": "2.5"}])


def _ml_instance(noisy: bool):
    rng = np.random.default_rng(5)
    n, k, m = 12, 3, 5
    mat = rng.standard_normal((m, n)) / math.sqrt(n)
    truth = (1, 4, 9)
    x = np.zeros(n)
    x[list(truth)] = 3.0 * rng.standard_normal(k)
    y = mat @ x + (rng.standard_normal(m) if noisy else 0.0)
    return y, mat, truth, simulate.exhaustive_ml(y, mat, k)


def test_ml_checks_reject_a_swapped_support_index():
    y, mat, truth, ml = _ml_instance(noisy=False)
    assert checks.check_ml_noiseless("ok", ml.support, truth) == []
    assert checks.check_ml_noiseless("swap", (0, *ml.support[1:]), truth)

    y, mat, truth, ml = _ml_instance(noisy=True)
    rivals = [truth, (0, 1, 2), (3, 5, 7)]
    assert checks.check_ml_noisy("ok", y, mat, ml.support, ml.residual_min, rivals) == []
    swapped = tuple(sorted({*ml.support[1:], next(i for i in range(12) if i not in ml.support)}))
    assert checks.check_ml_noisy("swap", y, mat, swapped, ml.residual_min, rivals)
    assert checks.check_ml_noisy("scaled", y, mat, ml.support, ml.residual_min * 1.01, rivals)
    worse = [checks.lstsq_residual(y, mat, s) for s in rivals]
    assert checks.check_ml_noisy("beaten", y, mat, ml.support, min(worse) * 1.5, rivals)


def test_rate_sharing_checks_reject_wrong_declarations():
    k, m, zeroed = 6, 4, list(range(12, 24))
    few = (0, 1, 12, 13, 14, 15)  # 2 live true indices
    many = (0, 1, 2, 3, 12, 13)  # 4 live true indices
    assert checks.check_rate_sharing_trial("ok", (0, 1, 12, 16, 17, 18), few, zeroed, k, m) == []
    assert checks.check_rate_sharing_trial("ok", None, many, zeroed, k, m) == []
    assert checks.check_rate_sharing_trial("declared", None, few, zeroed, k, m)
    assert checks.check_rate_sharing_trial("undeclared", (0, 1, 2, 3, 12, 13), many, zeroed, k, m)
    assert checks.check_rate_sharing_trial("missing", (0, 5, 12, 16, 17, 18), few, zeroed, k, m)
    values = [0.2, 0.4] * 50
    assert checks.check_mean_band("ok", values, 0.3, 0.01) == []
    assert checks.check_mean_band("off", values, 0.37, 0.01)


def test_verification_checks_reject_corrupted_results():
    wl = workloads.Verification(0, Path("."))
    lower, upper = checks.covering_lower(22, 4, 0.5), 20
    assert wl._check_op(("covering",), (lower, upper)) == []
    assert wl._check_op(("covering",), (lower + 1, upper))
    assert wl._check_op(("covering",), (lower, lower - 1))
    target = checks.det_power_target(2.0)
    assert wl._check_op(("det_power", 2.0), SimpleNamespace(mean=target * 1.01)) == []
    assert wl._check_op(("det_power", 2.0), SimpleNamespace(mean=target * 1.05))
    assert wl._check_op(("rank_rademacher",), [0.3, 0.2, 0.1]) == []
    assert wl._check_op(("rank_rademacher",), [0.3, 0.3, 0.1])
    assert checks.check_exit("verify", 0) == []
    assert checks.check_exit("verify", 3)


def test_rate_sharing_rounds_are_stratified():
    wl = workloads.RateSharing(0, Path("."))
    for eps in wl.epsilons:
        assert sum(wl.counts[eps].values()) == wl.per_epsilon
    first, again = wl.round(0), wl.round(0)
    assert len(first) == 2 * wl.per_epsilon
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(first, again))


def test_tracer_records_spans_at_the_callers_binding(source):
    original = bounds.info_G
    tracer = tracing.Tracer()
    tracer.install([bounds])
    try:
        assert bounds.info_G is not original
        bounds.p4_iid(source, ALPHA)
    finally:
        tracer.remove()
    assert bounds.info_G is original
    summary = tracer.summary()["functions"]
    assert summary["bounds.p4_iid"]["calls"] == 1
    assert summary["ratefun.info_G"]["calls"] > 0
    p4 = summary["bounds.p4_iid"]
    assert 0.0 <= p4["self_s"] <= p4["incl_s"] - summary["ratefun.info_G"]["incl_s"] + 1e-9
