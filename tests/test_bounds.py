"""Bound evaluators: closed forms, implicit solves, genie maximization."""

import contextvars
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srdbounds import bounds as bd
from srdbounds.bounds import BoundId
from srdbounds.cli import _sliced_from_eta
from srdbounds.distributions import Gaussian, PointMass, Uniform
from srdbounds.ratefun import delta, info_G, info_V, rate_R, source_functionals


def gaussian_source(omega=1e-4, snr_db=50.0):
    return bd.source_at_snr(Gaussian(0.0, 1.0), omega, snr_db)


# ---------------------------------------------------------------------------
# Noiseless closed forms
# ---------------------------------------------------------------------------


def test_t1_values():
    assert bd.t1_noiseless(0.1, 0.0) == 0.1
    assert bd.t1_noiseless(0.1, 0.9) == 0.0
    assert bd.t1_noiseless(0.1, 0.45) == pytest.approx(0.05, abs=1e-15)


def test_p2_values_and_dominance():
    assert bd.p2_noiseless_iid(0.1, 0.5) == 0.1
    assert bd.p2_noiseless_iid(0.1, 0.95) == 0.0
    for omega in (0.05, 0.2, 0.5):
        for alpha in np.linspace(0.0, 1.0, 21):
            assert bd.p2_noiseless_iid(omega, alpha) >= bd.t1_noiseless(omega, alpha)


def test_t3_gaussian_full_rate():
    src = gaussian_source()
    assert bd.c1_test(src, 0.1)
    assert bd.t3_noiseless_iid(src, 0.1) == pytest.approx(src.omega, rel=1e-9)


def test_t3_discrete_degenerates():
    src = bd.source_at_snr(PointMass(0.2, 1.0, limit=True), 1e-4, 50.0)
    assert bd.t3_noiseless_iid(src, 0.1) == 0.0
    assert not bd.c1_test(src, 0.1)


def test_noiseless_simplified_below_full():
    for dist in (Gaussian(0.0, 1.0), Uniform(2.0, 1.0), _sliced_from_eta(0.2)):
        for omega in (1e-3, 0.05, 0.25):
            src = bd.source_at_snr(dist, omega, 20.0)
            for alpha in (0.05, 0.2, 0.5):
                simple = bd.s_noiseless_simple(src, alpha)
                full = bd.t3_noiseless_iid(src, alpha)
                assert simple <= full * (1 + 1e-9) + 1e-12


def test_t3_array_scan_matches_a_scalar_loop():
    """t3 scans its grid as one array; a loop of float deficits, classified
    and bisected the same way, gives the same value."""

    def t3_by_loop(src, alpha):
        omega, r_target = src.omega, rate_R(src.omega, alpha)
        if src.theta == 0.0 or r_target == 0.0:
            return 0.0, False
        log_inv_theta = math.log(1.0 / src.theta)

        def deficit(rho):
            val = 0.5 * rho * (
                log_inv_theta + math.log(delta(rho)) - math.log(delta(rho / omega))
            )
            return val - r_target

        if deficit(omega * (1.0 - 1e-12)) < 0.0:
            return omega, False
        grid = np.linspace(omega * 1e-6, omega * (1.0 - 1e-12), 4000)
        vals = np.array([deficit(r) for r in grid])
        _, _, bracket = bd._classify_scan(grid, vals)
        if bracket is None:
            return 0.0, False
        return bd._bisect(deficit, 0, bracket).rho_lower, True

    bisected = 0
    for dist in (Gaussian(0.0, 1.0), Uniform(2.0, 1.0), _sliced_from_eta(0.2)):
        for omega in (1e-3, 0.05, 0.25):
            src = bd.source_at_snr(dist, omega, 20.0)
            for alpha in (0.05, 0.2, 0.5):
                want, scanned = t3_by_loop(src, alpha)
                assert bd.t3_noiseless_iid(src, alpha) == want
                bisected += scanned
    assert bisected == 6  # the rest return omega or 0 before the scan


# ---------------------------------------------------------------------------
# Any-matrix noisy bounds
# ---------------------------------------------------------------------------


def test_p3_example_and_edges():
    src = source_functionals(0.1, Gaussian(0.0, 10.0))  # variance functional = 1
    assert src.variance == pytest.approx(1.0)
    assert bd.p3_general(src, 0.1) == pytest.approx(
        2.0 * rate_R(0.1, 0.1) / math.log(2.0), rel=1e-12
    )
    assert bd.p3_general(src, 0.95) == 0.0
    assert math.isfinite(bd.p3_general(src, 0.0))  # finite even at exact recovery


def test_t2_dominates_p3_and_reports_beta():
    src = gaussian_source(1e-4, 0.0)
    for alpha in (0.01, 0.1, 0.4):
        val, beta = bd.t2_genie(src, alpha)
        assert val >= bd.p3_general(src, alpha) - 1e-12
        assert alpha <= beta <= 1.0


def test_t2_beta_star_small_for_small_alpha():
    src = gaussian_source(1e-4, 0.0)
    _, beta = bd.t2_genie(src, 1e-3)
    assert beta < 0.01


@pytest.mark.parametrize("alpha", [1e-7, 0.01, 0.3])
def test_genie_bounds_return_python_floats(alpha):
    # also where golden section, not the beta grid, gives the maximum
    value, beta = bd.t2_genie(gaussian_source(), alpha)
    assert type(value) is float and type(beta) is float
    report, beta = bd.t4_genie_iid(gaussian_source(), alpha)
    assert type(report.rho_lower) is float and type(beta) is float


def test_t2_blows_up_as_alpha_vanishes():
    src = gaussian_source(1e-4, 0.0)
    v_small, _ = bd.t2_genie(src, 1e-3)
    v_large, _ = bd.t2_genie(src, 1e-1)
    assert v_small / v_large >= 10.0


# ---------------------------------------------------------------------------
# I.i.d. noisy bounds
# ---------------------------------------------------------------------------


def test_p4_solves_cleanly():
    src = gaussian_source()
    rep = bd.p4_iid(src, 0.1)
    assert rep.crossings_found == 1
    assert abs(rep.residual) <= 1e-9
    assert rep.diagnostic is None
    # info_G(r, v) <= r log1p(v) forces this floor
    assert rep.rho_lower >= rate_R(src.omega, 0.1) / math.log1p(src.variance) - 1e-12


def test_p4_zero_when_rate_zero():
    src = gaussian_source(0.1, 10.0)
    assert bd.p4_iid(src, 0.95).rho_lower == 0.0


def test_p5_requires_gaussian():
    src = bd.source_at_snr(Uniform(2.0, 1.0), 0.1, 10.0)
    with pytest.raises(ValueError):
        bd.p5_gaussian(src, 0.1)


def reference_p5_deficit(source, r_target):
    """p5's deficit as written on its own, before it became the genie deficit
    at beta = 1 with info_G as the conditional information."""
    omega, v = source.omega, source.variance
    cond_gamma = omega * source.dist.variance
    return lambda rho: info_G(rho, v) - r_target - omega * info_G(rho / omega, cond_gamma)


@pytest.mark.parametrize(
    "src",
    [
        gaussian_source(1e-4, 20.0),
        gaussian_source(0.3, -10.0),
        bd.source_at_snr(Gaussian(1.5, 0.4), 1e-3, 30.0),
        source_functionals(0.05, Gaussian(-2.0, 3.0)),
        source_functionals(1e-5, Gaussian(0.0, 7e4)),
    ],
    ids=["zero-mean", "wide-omega-low-snr", "nonzero-mean", "unscaled-nonzero-mean",
         "unscaled-large"],
)
def test_p5_equals_a_solve_of_its_own_deficit(src):
    # Every float operation of the genie deficit at beta = 1 is the reference's
    # (rho / 1.0 and omega / 1.0 are exact), so the reports are equal, and so
    # are the target-free deficits that alpha_curve reads.
    assert src.dist.mean != 0.0 or src.dist.variance != 1.0
    start = bd._scan_start(src.omega)
    for alpha in (1e-4, 0.01, 0.1, 0.5, 0.9, 1.0 - src.omega):
        r = rate_R(src.omega, alpha)
        want = bd._solve_implicit(reference_p5_deficit(src, r), start) if r else bd._ZERO_REPORT
        assert bd.p5_gaussian(src, alpha) == want, alpha
    grid = bd._rho_grid(start)
    target_free = bd._BOUNDS[BoundId.P5_IID_GAUSSIAN].target_free(src)
    assert np.array_equal(target_free(grid), reference_p5_deficit(src, 0.0)(grid), equal_nan=True)


def test_p5_and_p6_solve_apart_in_one_table_when_their_arguments_coincide():
    # Here p5's omega * sigma^2 is p6's entropy power to the last bit, so only
    # the conditional information keeps their solves apart in best_lower's table.
    src, alpha = bd.source_at_snr(Gaussian(0.0, 1.0), 0.3, 10.0), 0.1
    assert src.entropy_power == src.omega * src.dist.variance
    call = contextvars.copy_context()
    call.run(bd._tables.set, {})
    p5, p6 = call.run(bd.p5_gaussian, src, alpha), call.run(bd.p6_entropy, src, alpha)
    assert (p5, p6) == (bd.p5_gaussian(src, alpha), bd.p6_entropy(src, alpha))
    assert p5.rho_lower > p6.rho_lower


def test_p5_reduces_to_p4_when_variance_vanishes():
    # nearly deterministic values: the conditional term contributes ~nothing
    src = source_functionals(0.1, Gaussian(10.0, 1e-9))
    p4 = bd.p4_iid(src, 0.1).rho_lower
    p5 = bd.p5_gaussian(src, 0.1).rho_lower
    assert p5 == pytest.approx(p4, rel=1e-6)


def test_p5_p6_orderings_gaussian():
    for snr in (0.0, 10.0, 50.0):
        src = gaussian_source(1e-4, snr)
        for alpha in (0.01, 0.1, 0.4):
            p4 = bd.p4_iid(src, alpha).rho_lower
            p5 = bd.p5_gaussian(src, alpha).rho_lower
            p6 = bd.p6_entropy(src, alpha).rho_lower
            assert p4 <= p6 * (1 + 1e-9) + 1e-15
            assert p6 <= p5 * (1 + 1e-9) + 1e-15


@pytest.mark.xfail(
    strict=True,
    reason="p6 exceeds p5 by 1.8e-4 relative 1.5e-7 below alpha = 1 - omega: "
    "info_G's near-cancelling class",
)
def test_p5_p6_ordering_next_to_alpha_one_minus_omega():
    # p6 = 9.294951747177161e-08 > p5 = 9.29328786029252e-08 at this input.
    src = bd.source_at_snr(Gaussian(0.0, 1.0), 0.12680391339544358, 65.94150148267686)
    alpha = 0.8731959362205927
    assert bd.p5_gaussian(src, alpha).rho_lower >= bd.p6_entropy(src, alpha).rho_lower


def test_p6_rejects_sources_without_density():
    src = bd.source_at_snr(PointMass(0.2, 1.0, limit=True), 0.1, 10.0)
    with pytest.raises(ValueError):
        bd.p6_entropy(src, 0.1)


def test_p6_simplified_is_weaker():
    for snr in (0.0, 20.0):
        for dist in (Gaussian(0.0, 1.0), Uniform(2.0, 1.0)):
            src = bd.source_at_snr(dist, 0.01, snr)
            for alpha in (0.05, 0.2):
                rep = bd.p6_entropy(src, alpha)
                assert bd.s_cor_thm2(src, alpha) <= rep.rho_lower * (1 + 1e-9)


def test_p6_cross_check_warning_names_the_bound_and_alpha(monkeypatch, caplog):
    monkeypatch.setattr(bd, "s_cor_thm2", lambda source, alpha: 1.0)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        bd.p6_entropy(gaussian_source(1e-4, 10.0), 0.1)
    (line,) = [r.getMessage() for r in caplog.records]
    assert line.startswith("p6_iid_entropy at alpha=0.1: simplified bound 1 exceeds solved p6 ")


def test_t2_beta_one_slice_is_p3():
    src = gaussian_source(1e-4, 0.0)
    pref, om_b, v_eff, _ = bd._genie_params(src, 1.0)
    objective = 2.0 * pref * rate_R(om_b / pref, 0.3) / math.log1p(v_eff)
    assert objective == bd.p3_general(src, 0.3)  # p3 exactly: beta = 1 reveals nothing


def test_p5_p6_gap_indiscernible_at_high_snr():
    src = gaussian_source(1e-4, 50.0)
    for alpha in (0.01, 0.1, 0.3):
        p4 = bd.p4_iid(src, alpha).rho_lower
        p5 = bd.p5_gaussian(src, alpha).rho_lower
        p6 = bd.p6_entropy(src, alpha).rho_lower
        assert p5 - p6 <= 1e-3 * (p5 - p4)


def test_decay_rate_drives_small_distortion_blowup():
    flat = bd.source_at_snr(Uniform(math.sqrt(2.3), 1.0), 1e-4, 10.0)  # density through 0
    floored = bd.source_at_snr(Uniform(2.0, 1.0), 1e-4, 10.0)  # support away from 0
    ratio_small = (
        bd.t4_genie_iid(flat, 1e-3)[0].rho_lower / bd.t4_genie_iid(floored, 1e-3)[0].rho_lower
    )
    ratio_large = (
        bd.t4_genie_iid(flat, 0.1)[0].rho_lower / bd.t4_genie_iid(floored, 0.1)[0].rho_lower
    )
    assert ratio_small >= 1000.0
    assert ratio_large <= 100.0


def test_best_lower_gaussian_winner_is_strong_iid_bound():
    src = gaussian_source(1e-4, 10.0)
    _, winner = bd.best_lower(src, 0.3, "iid")
    assert winner in (BoundId.P5_IID_GAUSSIAN, BoundId.T4_IID_GENIE)


def test_s_cor_thm2_is_the_fixed_point():
    # the simplified bound references min(rho, omega) of itself; the returned
    # value must satisfy its defining equation exactly in either branch
    for omega, snr in ((1e-4, 50.0), (0.25, 0.0), (0.25, 30.0)):
        src = bd.source_at_snr(Gaussian(0.0, 1.0), omega, snr)
        for alpha in (0.05, 0.3):
            val = bd.s_cor_thm2(src, alpha)
            lhs = val * math.log1p(src.variance)
            rhs = 2.0 * rate_R(omega, alpha) + min(val, omega) * math.log1p(
                src.entropy_power / math.e
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_t4_beta_one_reduction_matches_source():
    src = gaussian_source(1e-4, 0.0)
    pref, om_b, v_eff, vh_eff = bd._genie_params(src, 1.0)
    assert pref == 1.0 and om_b == src.omega
    assert v_eff == pytest.approx(src.variance, rel=1e-12)
    assert vh_eff == pytest.approx(src.entropy_power, rel=1e-12)


def test_t4_dominates_p6():
    for snr in (0.0, 10.0):
        src = gaussian_source(1e-4, snr)
        for alpha in (0.01, 0.1, 0.3):
            t4, beta = bd.t4_genie_iid(src, alpha)
            p6 = bd.p6_entropy(src, alpha).rho_lower
            assert t4.rho_lower >= p6 * (1 - 1e-9) - 1e-15
            assert alpha <= beta <= 1.0


def test_t4_zero_when_distortion_saturates():
    src = gaussian_source(0.3, 10.0)
    rep, _ = bd.t4_genie_iid(src, 0.95)
    assert rep.rho_lower == 0.0


def test_t4_solves_its_zero_row_when_no_row_is_negative():
    # Just below alpha = 1 - omega every target rate is under 1e-12, so no row
    # of this density-free source is negative on the rate grid.  t4 then
    # solves the grid's argmax, its beta = alpha row, which needs no rate.
    src = bd.source_at_snr(PointMass(0.2, 1.0, limit=True), 0.1, 10.0)
    alpha = 0.9 * (1.0 - 1e-6)
    assert rate_R(src.omega, alpha) > 0.0  # not t4's early return
    rep, beta_star = bd.t4_genie_iid(src, alpha)
    assert rep is bd._ZERO_REPORT and beta_star == alpha
    # Every i.i.d.-only bound reads 0 here, so p3 leads, at about 4.2e-13.
    assert bd.best_lower(src, alpha, "iid") == (bd.p3_general(src, alpha), BoundId.P3_GENERAL)


@pytest.mark.parametrize("omega", [1e-4, 1e-3, 0.01, 0.1, 0.3, 0.5])
def test_rates_stay_nonnegative_just_below_the_saturating_alpha(omega):
    # The three entropies of rate_R cancel just below alpha = 1 - omega; their
    # round-off, clamped at 0, must not make a bound negative.
    src = gaussian_source(omega, 10.0)
    alpha = 1.0 - omega
    for _ in range(64):
        alpha = math.nextafter(alpha, 0.0)
        assert rate_R(omega, alpha) >= 0.0
        for bound in (bd.p3_general, bd.s_cor_thm2, bd.s_noiseless_simple):
            assert bound(src, alpha) >= 0.0


def _solve_t4_row(source, alpha, beta):
    """t4's deficit at one beta, solved alone by scalar bisection; None when
    the genie parameters cannot be computed."""
    try:
        pref, om_b, v_eff, vh_eff = bd._genie_params(source, beta)
    except (ValueError, ArithmeticError):
        return None
    r_target = rate_R(om_b / pref, min(alpha / beta, 1.0))
    if r_target == 0.0 and vh_eff == 0.0:
        return bd.ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0)
    om_t = om_b / pref

    def deficit(rho):
        return info_G(rho / pref, v_eff) - r_target - om_t * info_V(rho / om_b, vh_eff)

    return bd._solve_implicit(deficit, bd._scan_start(source.omega))


def _best_grid_row(source, alpha):
    """The largest of t4's grid rows, each solved alone: ``(report, beta)``."""
    grid = bd._beta_grid(source, alpha)
    reports = [_solve_t4_row(source, alpha, b) for b in grid]
    values = np.array([-math.inf if rep is None else rep.rho_lower for rep in reports])
    best = int(np.argmax(values))
    return reports[best], float(grid[best])


T4_FAMILIES = {
    "gaussian": Gaussian(0.0, 1.0),
    "uniform": Uniform(math.sqrt(2.3), 1.0),
    "pointmass": PointMass(0.2, 1.0, limit=True),
    "sliced": _sliced_from_eta(0.2),
}
# T4_FAMILIES and two more value families, for cases of the sweep below.
SWEEP_FAMILIES = {
    **T4_FAMILIES,
    "pointmass-outer": PointMass(0.2, 1.0, outer_mass=0.1),
    "uniform-mean0": Uniform(0.0, 1.0),
}


BOUND_DOMAIN_FAMILIES = st.one_of(
    st.just(Gaussian(0.0, 1.0)),
    st.just(Uniform(math.sqrt(2.3), 1.0)),
    st.builds(PointMass, st.just(0.2), st.just(1.0), st.floats(1e-3, 0.5)),
    st.just(_sliced_from_eta(0.2)),
)


T4_SWEEP_CASES = (
    [
        (family, 1e-4, snr, alpha)
        for family in T4_FAMILIES
        for snr in (-10.0, 20.0, 60.0)
        for alpha in (1e-3, 0.03, 0.6)
    ]
    # zero rows (no density, beta <= alpha) beside range-exceeded rows
    + [("pointmass", 0.3, -80.0, 1e-3), ("gaussian", 0.3, -30.0, 1e-3)]
    # 8, 7 and 6 rows whose scan bracket reaches above every row's lower end
    + [("pointmass", 1e-4, -30.0, 0.01), ("pointmass", 1e-4, 0.0, 3e-3),
       ("sliced", 1e-4, 10.0, 3e-3)]
    # the winning row has two crossings
    + [("gaussian", 0.1, 0.0, 0.7)]
    # rows still violated at the end of the first grid (and of later ones),
    # where no row read on the last grid reached has its last negative rate at
    # or above the end of the grid below
    + [("sliced", 2.9431656555363204e-05, -30.40512251094672, 1.7273046740990054e-08),
       ("uniform", 0.2071066427863769, 32.748154372636705, 0.008824258671098149),
       ("gaussian", 0.0008626442025169886, 4.377947882428991, 0.0017799716936468786),
       ("gaussian", 1.706689875161713e-06, -3.7011728111156614, 0.0024220430708122975),
       ("pointmass-outer", 0.10909804614226754, -36.95183167108149, 1.3144707673385472e-07),
       ("uniform-mean0", 1.0027241650431184e-05, 56.734721852259355, 4.687244389594833e-07)]
)


@pytest.mark.parametrize("family, omega, snr_db, alpha", T4_SWEEP_CASES)
def test_t4_batched_sweep_matches_per_beta_solves(family, omega, snr_db, alpha):
    # t4 is a full solve at its beta, no smaller than the best grid row solved
    # alone, and that very row when the refinement does not beat it.
    src = bd.source_at_snr(SWEEP_FAMILIES[family], omega, snr_db)
    rep, beta = bd.t4_genie_iid(src, alpha)
    row, row_beta = _best_grid_row(src, alpha)
    assert rep == _solve_t4_row(src, alpha, beta)
    assert rep.rho_lower >= row.rho_lower
    if beta == row_beta:
        assert rep == row
    else:
        assert rep.rho_lower > row.rho_lower


@pytest.mark.parametrize(
    "family, snr_db, alpha",
    [("gaussian", 20.0, 0.03), ("uniform", 20.0, 0.03), ("pointmass", 0.0, 3e-3),
     ("sliced", 0.0, 3e-3)],
)
def test_t4_is_the_maximum_over_a_dense_beta_grid(family, snr_db, alpha):
    # Full solves at 20 x BETA_GRID_POINTS betas across the two grid intervals
    # around the best grid row, where t4's refinement searches.
    src = bd.source_at_snr(T4_FAMILIES[family], 1e-4, snr_db)
    rep, beta = bd.t4_genie_iid(src, alpha)
    _, row_beta = _best_grid_row(src, alpha)
    assert beta != row_beta  # the refinement moved beta
    grid = bd._beta_grid(src, alpha)
    i = int(np.searchsorted(grid, row_beta))
    dense = np.linspace(grid[i - 1], grid[i + 1], 20 * bd.BETA_GRID_POINTS)
    best = max(_solve_t4_row(src, alpha, float(b)).rho_lower for b in dense)
    assert rep.rho_lower >= best * (1.0 - 1e-9)


@pytest.mark.parametrize(
    "case, family, omega, snr_db, alpha",
    [
        ("zero", "gaussian", 0.3, 10.0, 0.95),
        ("range-exceeded", "pointmass", 0.3, -80.0, 1e-3),
        ("bracket-params-fail", "gaussian", 1e-4, 20.0, 0.03),
    ],
)
def test_t4_keeps_the_grid_row_when_it_cannot_refine(
    monkeypatch, caplog, case, family, omega, snr_db, alpha
):
    src = bd.source_at_snr(T4_FAMILIES[family], omega, snr_db)
    row, row_beta = _best_grid_row(src, alpha)
    golden_steps = []
    golden = bd._golden_max

    def spy(f, lo, hi):
        return golden(lambda beta: golden_steps.append(beta) or f(beta), lo, hi)

    monkeypatch.setattr(bd, "_golden_max", spy)
    if case == "bracket-params-fail":
        # Only the grid's own betas (the array pass's among them) keep their
        # parameters, so every golden step and the solve at the beta found
        # are skipped.
        grid = set(bd._beta_grid(src, alpha).tolist())
        genie_params = bd._genie_params

        def patched(source, beta):
            if not set(np.atleast_1d(beta).tolist()) <= grid:
                raise ValueError("patched failure")
            return genie_params(source, beta)

        monkeypatch.setattr(bd, "_genie_params", patched)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        rep, beta = bd.t4_genie_iid(src, alpha)
    skips = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
    # The golden steps skip silently; only the solve at the beta found logs.
    assert len(skips) == (case == "bracket-params-fail")
    if case == "zero":
        # alpha >= 1 - omega needs no rate: t4 returns p4's zero report
        assert (rep, beta) == (bd.ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0), row_beta)
        assert row.rho_lower == 0.0 and not golden_steps
        return
    assert (rep, beta) == (row, row_beta)
    if case == "range-exceeded":
        assert row.diagnostic and not golden_steps
    else:
        assert row.rho_lower > 0.0 and len(golden_steps) > 20


def test_t4_rows_reach_zero_and_range_exceeded_paths():
    src = bd.source_at_snr(PointMass(0.2, 1.0, limit=True), 0.3, -80.0)
    reports = []
    scan = bd._scan_implicit

    def spy(deficit_vec, hi):
        result = scan(deficit_vec, hi)
        reports.append(result[1])
        return result

    zero_rows = 0
    for beta in bd._beta_grid(src, 1e-3):
        pref, om_b, _, vh_eff = bd._genie_params(src, beta)
        zero_rows += vh_eff == 0.0 and rate_R(om_b / pref, min(1e-3 / beta, 1.0)) == 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bd, "_scan_implicit", spy)
        rep, _ = bd.t4_genie_iid(src, 1e-3)
    assert zero_rows > 0
    assert any(r is not None and r.diagnostic for r in reports)
    assert rep.diagnostic is not None and rep.rho_lower == bd.RHO_RANGE_CAP


def test_t4_logs_one_multi_crossing_line(caplog):
    # The line counts the rows bisected and the refinement's solves; here a
    # row with several crossings holds the maximum.
    src = gaussian_source(0.1, 0.0)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        bd.t4_genie_iid(src, 0.7)
    lines = [r.getMessage() for r in caplog.records if "crossing" in r.getMessage()]
    assert len(lines) == 1
    assert lines[0].startswith("t4_iid_genie at alpha=0.7: ") and "beta in [" in lines[0]


def _single_row_scan(source, alpha, beta, hi):
    """One beta scanned alone on the rate grid ending at ``hi``: None when
    skipped, else ``(crossings, report, bracket)`` as :func:`_classify_scan`
    reads it."""
    try:
        pref, om_b, v_eff, vh_eff = bd._genie_params(source, beta)
    except (ValueError, ArithmeticError):
        return None
    r_target = rate_R(om_b / pref, min(alpha / beta, 1.0))
    if r_target == 0.0 and vh_eff == 0.0:
        return 0, bd.ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0), None
    rates = bd._rho_grid(hi)
    deficit = bd._genie_deficit(pref, om_b, v_eff, vh_eff, r_target)
    return bd._classify_scan(rates, deficit(rates))


def _scan_ends(scan):
    """The lower and upper ends of a row's bracket, read off its scan: the
    rate itself when the scan settles the row, -inf when it is skipped."""
    if scan is None:
        return -math.inf, -math.inf
    _, report, bracket = scan
    if bracket is not None:
        return bracket
    if report.diagnostic:  # still violated at the grid's end
        return report.bracket
    return report.rho_lower, report.rho_lower


def _row_kind(scan):
    if scan is None:
        return "skipped"
    _, report, _ = scan
    if report is None:
        return "pending"
    if report.diagnostic:
        return "range-exceeded"
    return "zero" if report.bracket == (0.0, 0.0) else "no-negative"


def _check_top_down_pass(source, alpha, hi, among=None, alone=False):
    """Run t4's top-down pass on the rate grid ending at ``hi`` over its grid
    rows, or over those indexed in ``among``, and check each bracket it reads
    against the same beta scanned alone on that grid (and, with ``alone``, each
    row passed alone).  Returns each row's scan ends and the betas of each
    kind; a row not in ``among`` reads as skipped."""
    grid = bd._beta_grid(source, alpha)
    among = range(grid.size) if among is None else among
    scans = [_single_row_scan(source, alpha, b, hi) if i in among else None
             for i, b in enumerate(grid)]
    ends = [_scan_ends(scan) for scan in scans]
    kinds: dict[str, list] = {}
    for beta, scan in zip(grid, scans):
        kinds.setdefault(_row_kind(scan), []).append(beta)
        if scan is not None and scan[0] > 1:
            kinds.setdefault("several crossings", []).append(beta)
    live = [i for i, scan in enumerate(scans) if _row_kind(scan) not in ("skipped", "zero")]
    params = [bd._genie_row(source, alpha, grid[i]) for i in live]
    read = [(-math.inf, -math.inf) if scan is None else ends[i] for i, scan in enumerate(scans)]
    for i, p, lower, upper in zip(live, params, *bd._top_down_pass(params, hi)):
        read[i] = (lower, upper)
        if alone:
            assert [*zip(*bd._top_down_pass([p], hi))] == [ends[i]]
    largest_lower = max(lower for lower, _ in ends)
    assert max(lower for lower, _ in read) == largest_lower
    for (lower, upper), want in zip(read, ends):
        # A row the pass does not read has an upper end at or above its own
        # scan's, and at or below the largest lower end.
        assert (lower, upper) == want or (lower == -math.inf and want[1] <= upper <= largest_lower)
    return ends, kinds


def _row_stops(source, alpha):
    """Check t4's pass on each rate grid it reads: on the first grid over every
    grid row, then on each grown grid over the rows still violated at the last
    grid's end, each of those also passed alone.  Returns, for each grid row,
    the end of the grid where its own scan stops and its scan ends there."""
    hi = bd._scan_start(source.omega)
    ends = _check_top_down_pass(source, alpha, hi)[0]
    stops = {i: (hi, row_ends) for i, row_ends in enumerate(ends)}
    while hi < bd.RHO_RANGE_CAP:
        among = [i for i, (end, (_, upper)) in stops.items() if end == hi and upper == math.inf]
        if not among:
            break
        hi = min(hi * 100.0, bd.RHO_RANGE_CAP)
        ends = _check_top_down_pass(source, alpha, hi, among, alone=True)[0]
        stops.update((i, (hi, ends[i])) for i in among)
    return stops


@pytest.mark.parametrize("family, omega, snr_db, alpha", T4_SWEEP_CASES)
def test_t4_solves_only_rows_that_can_hold_the_maximum(
    monkeypatch, caplog, family, omega, snr_db, alpha
):
    src = bd.source_at_snr(SWEEP_FAMILIES[family], omega, snr_db)
    stops = _row_stops(src, alpha)
    start = bd._scan_start(omega)
    rates = bd._rho_grid(start)

    def on_grid(deficit):
        with np.errstate(all="ignore"):
            return deficit(rates).tobytes()

    # The rows t4 solves, those of the array pass: a float row may differ in an ulp.
    _, rows, _ = bd._grid_rows(src, alpha)
    row_of = {on_grid(bd._genie_deficit(*row)): i for i, row in enumerate(rows) if row is not None}
    solves, grid_ends = [], []
    solve = bd._solve_implicit

    def spy(deficit, grid_end):
        report = solve(deficit, grid_end)
        solves.append((on_grid(deficit), report))
        grid_ends.append(grid_end)
        return report

    monkeypatch.setattr(bd, "_solve_implicit", spy)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        bd.t4_genie_iid(src, alpha)
    solved = [row_of[key] for key, _ in solves if key in row_of]
    largest_lower = max(lower for _, (lower, _) in stops.values())
    want = [i for i, (_, (_, upper)) in stops.items() if upper > largest_lower]
    # Only the rows whose upper end, on the grid where their own scan stops,
    # exceeds the largest lower end read on such a grid, each solved from that
    # grid; when none does, the first row not skipped, from the first grid.
    assert solved == want or (not want and len(solved) <= 1)
    assert grid_ends[: len(solved)] == [stops[i][0] if want else start for i in solved]
    assert len(solved) < bd.BETA_GRID_POINTS
    # The multi-crossing line counts every solve that found several crossings.
    multi = {key for key, report in solves if report.crossings_found > 1}
    lines = [r.getMessage() for r in caplog.records if "crossing" in r.getMessage()]
    if multi:
        assert len(lines) == 1 and f": {len(multi)} beta values found" in lines[0]
    else:
        assert not lines


def _growth_rows(source, alpha):
    """The grid rows still violated at the end of the first rate grid."""
    _, rows, _ = bd._grid_rows(source, alpha)
    ends, _ = _check_top_down_pass(source, alpha, bd._scan_start(source.omega))
    return [rows[i] for i, (_, upper) in enumerate(ends) if upper == math.inf]


def test_t4_follows_the_rows_violated_at_a_grid_end_up_the_rate_grids(monkeypatch):
    # Most rows are still violated at the first grid's end: the pass runs again
    # over those rows only on each grown grid, t4 solves a few of them from the
    # last, and none is scanned again on the first grid.
    src, alpha = gaussian_source(1e-4, -10.0), 1e-3
    start = bd._scan_start(src.omega)
    first, growth = bd._rho_grid(start), _growth_rows(src, alpha)
    passes, rescans, starts = [], [], []
    top_down_pass, genie_deficit, solve = bd._top_down_pass, bd._genie_deficit, bd._solve_implicit

    def deficit_spy(*params):
        deficit = genie_deficit(*params)
        return lambda rho: (rho is first and rescans.append(params)) or deficit(rho)

    def pass_spy(params, hi):
        passes.append(hi)
        return top_down_pass(params, hi)

    monkeypatch.setattr(bd, "_top_down_pass", pass_spy)
    monkeypatch.setattr(bd, "_genie_deficit", deficit_spy)
    monkeypatch.setattr(bd, "_solve_implicit", lambda d, hi: starts.append(hi) or solve(d, hi))
    bd.t4_genie_iid(src, alpha)
    assert len(growth) > 90 and passes == [start, 1e2 * start, 1e4 * start]
    assert not [params for params in rescans if params in growth]
    assert 0 < len(starts) <= 6 and starts[0] == passes[-1]


@pytest.mark.parametrize(
    "family, omega, snr_db, alpha, kinds",
    [
        # every gamma of info_V is 0 (no density), with zero rows
        ("pointmass", 1e-4, -10.0, 0.03, {"pending", "zero"}),
        # zero rows beside rows still violated at the end of the first grid
        ("pointmass", 0.3, -80.0, 1e-3, {"range-exceeded", "zero"}),
        # beta = alpha needs no rate (r_target = 0) but has a density
        ("gaussian", 1e-4, 20.0, 0.03, {"pending", "no-negative"}),
        ("sliced", 1e-2, 0.0, 0.3, {"pending", "no-negative"}),
        ("gaussian", 1e-4, 10.0, 0.6, {"pending", "several crossings"}),
        # the winning row has two crossings
        ("gaussian", 0.1, 0.0, 0.7, {"pending", "several crossings"}),
    ],
)
def test_top_down_pass_matches_single_row_scans(family, omega, snr_db, alpha, kinds):
    src = bd.source_at_snr(T4_FAMILIES[family], omega, snr_db)
    _, found = _check_top_down_pass(src, alpha, bd._scan_start(src.omega), alone=True)
    assert kinds <= set(found)


@pytest.mark.parametrize("no_variance_row", [True, False], ids=["range-exceeded", "deep"])
def test_top_down_pass_with_skipped_rows_and_mixed_zero_gamma(monkeypatch, no_variance_row):
    # Some rows lose their density (info_V's gamma is 0 beside nonzero ones),
    # one row's parameters fail and, in the first case, one row has no
    # variance (info_G's gamma is 0, so it stays violated to the range cap and
    # the pass stops at its first chunk).
    src = gaussian_source(1e-4, 20.0)
    grid = bd._beta_grid(src, 0.03)
    genie_params = bd._genie_params

    def patched(source, beta):
        if isinstance(beta, np.ndarray):  # the rows are built one beta at a time
            raise ValueError("patched out")
        pref, om_b, v_eff, vh_eff = genie_params(source, beta)
        if beta == grid[41]:
            raise ValueError("patched failure")
        if beta == grid[42] and no_variance_row:
            return pref, om_b, 0.0, vh_eff
        if int(np.searchsorted(grid, beta)) % 3 == 0:
            return pref, om_b, v_eff, 0.0
        return pref, om_b, v_eff, vh_eff

    monkeypatch.setattr(bd, "_genie_params", patched)
    _, kinds = _check_top_down_pass(src, 0.03, bd._scan_start(src.omega))
    assert kinds["skipped"] == [grid[41]]
    assert len(kinds["pending"]) > 100
    assert (grid[42] in kinds.get("range-exceeded", [])) == no_variance_row
    rep, beta = bd.t4_genie_iid(src, 0.03)
    row, _ = _best_grid_row(src, 0.03)
    assert rep == _solve_t4_row(src, 0.03, beta) and rep.rho_lower >= row.rho_lower
    assert bool(rep.diagnostic) == no_variance_row


def _full_top_down_pass(params, hi):
    """The top-down pass without interval bounds: every row is evaluated on
    every chunk down to the first where some row is negative, and every other
    row reads (-inf, the chunk's lowest rate)."""
    rates = bd._rho_grid(hi)
    block = bd._genie_deficit(*np.array(params).T[:, :, None])
    for stop in range(rates.size, 0, -bd.TOP_PASS_POINTS):
        start = max(stop - bd.TOP_PASS_POINTS, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = block(rates[start:stop])
            if not np.isfinite(vals).all():
                bd._refuse_non_finite(rates, block(rates))
        neg = vals < 0.0
        hit = neg.any(axis=1)
        if hit.any():
            last = stop - 1 - np.argmax(neg[hit, ::-1], axis=1)
            lower, upper = np.full(len(params), -math.inf), np.full(len(params), rates[start])
            lower[hit] = rates[last]
            upper[hit] = np.append(rates, math.inf)[last + 1]
            return lower, upper
    return np.zeros(len(params)), np.zeros(len(params))


def _live_rows(source, alpha):
    """The deficit arguments of t4's grid rows that are neither skipped nor zero."""
    _, rows, _ = bd._grid_rows(source, alpha)
    return [p for p in rows if p is not None and (p[4] != 0.0 or p[3] != 0.0)]


def _both_passes(source, alpha):
    """The pass's and the full evaluation's ends as lists, or the text of the
    NonFiniteDeficitError each raised; None when no row is live."""
    if not (params := _live_rows(source, alpha)):
        return None
    out, hi = [], bd._scan_start(source.omega)
    for top_down_pass in (bd._top_down_pass, _full_top_down_pass):
        try:
            out.append([ends.tolist() for ends in top_down_pass(params, hi)])
        except bd.NonFiniteDeficitError as exc:
            out.append(str(exc))
    return out


def test_the_pass_guards_hold_where_the_rate_functions_rise():
    # Float info_G never falls in r where gamma and r*gamma are at most
    # MONOTONE_GAMMA, and info_V never falls off [INFO_V_PEAK, 1): there the
    # pass's interval bounds hold.
    for gamma in np.geomspace(1e-12, bd.MONOTONE_GAMMA, 23):
        vals = info_G(np.geomspace(1e-10, min(bd.MONOTONE_GAMMA / gamma, 1e12), 400_000), gamma)
        assert np.isfinite(vals).all() and (np.diff(vals) >= 0.0).all()
    for gamma in np.geomspace(1e-6, 1e12, 19):
        for lo, hi in ((1e-10, bd.INFO_V_PEAK), (1.0, 1e10)):
            vals = info_V(np.geomspace(lo, hi, 200_000), gamma)
            assert np.isfinite(vals).all() and (np.diff(vals) >= 0.0).all()
    # Beyond them both fall: info_G at gamma 1e13 with r*gamma at most 1e10
    # (so the guard bounds gamma as well as r*gamma), info_V on [INFO_V_PEAK, 1).
    assert (np.diff(info_G(np.geomspace(1e-10, 1e-3, 400_000), 1e13)) < 0.0).any()
    assert info_V(0.8, 1e-3) > info_V(0.99, 1e-3)


@given(
    dist=BOUND_DOMAIN_FAMILIES,
    omega=st.floats(1e-6, 0.5),
    snr_db=st.floats(-30.0, 80.0),
    alpha=st.floats(1e-6, 1.0, exclude_max=True),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_top_down_pass_matches_the_full_evaluation(dist, omega, snr_db, alpha):
    both = _both_passes(bd.source_at_snr(dist, omega, snr_db), alpha)
    assert both is None or both[0] == both[1]


@pytest.mark.parametrize("snr_db", [140.0, 150.0, 160.0, 170.0, 180.0, 190.0, 200.0])
def test_top_down_pass_refuses_as_the_full_evaluation(snr_db):
    # Where a cleared chunk could hide a value that is not finite, the pass
    # names the same lowest rate as the full evaluation.
    refused = 0
    for dist in (Gaussian(0.0, 1.0), Uniform(2.0, 1.0), PointMass(0.2, 1.0, outer_mass=0.1),
                 PointMass(0.2, 1.0, limit=True)):
        for alpha in (0.03, 0.3):
            new, full = _both_passes(bd.source_at_snr(dist, 1e-4, snr_db), alpha)
            assert new == full
            refused += isinstance(new, str)
    assert bool(refused) == (snr_db >= 160.0)


def test_top_down_pass_evaluates_few_of_the_full_rows_and_rates(monkeypatch):
    # The interval bounds clear almost every (row, chunk): a change that stops
    # them doing so fails here.
    src = gaussian_source(1e-4, 20.0)
    counts = {}
    genie_deficit = bd._genie_deficit

    def spy(*params):
        deficit = genie_deficit(*params)

        def counted(rho):
            vals = deficit(rho)
            if np.ndim(vals) == 2:  # a block of rows by rates
                counts[key] = counts.get(key, 0) + vals.size
            return vals

        return counted

    monkeypatch.setattr(bd, "_genie_deficit", spy)
    key = "pass"
    bd.t4_genie_iid(src, 0.03)
    key = "full"
    _full_top_down_pass(_live_rows(src, 0.03), bd._scan_start(src.omega))
    assert 0 < counts["pass"] < 0.05 * counts["full"]


@pytest.mark.parametrize("bound", [BoundId.T2_GENIE, BoundId.T4_IID_GENIE])
@pytest.mark.parametrize("row", [41, 165], ids=["far", "best"])
def test_genie_bounds_skip_a_beta_whose_parameters_fail(monkeypatch, caplog, bound, row):
    # One grid beta's parameters fail, far from the maximum or at t4's best
    # row: the bound skips it with one line naming the bound, alpha and beta.
    src = gaussian_source(1e-4, 20.0)
    grid = bd._beta_grid(src, 0.03)
    genie_params = bd._genie_params

    def patched(source, beta):
        if np.any(beta == grid[row]):  # the array pass fails too, and falls back
            raise ValueError("patched failure")
        return genie_params(source, beta)

    whole, _ = bd.evaluate_bound(src, bound, 0.03)
    monkeypatch.setattr(bd, "_genie_params", patched)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        rho, _ = bd.evaluate_bound(src, bound, 0.03)
    assert [r.getMessage() for r in caplog.records] == [
        f"{bound.value} at alpha=0.03: skipping beta={grid[row]:g} (patched failure)"
    ]
    if row == 41:
        assert rho == whole
    assert 0.0 < rho < math.inf


def test_best_lower_builds_the_beta_rows_once_per_call(monkeypatch, caplog):
    # t2 and t4 share one call's beta rows, and each logs its own skip line;
    # the next call builds the rows again.
    src = gaussian_source(1e-4, 20.0)
    grid = bd._beta_grid(src, 0.03)
    genie_params = bd._genie_params
    on_grid, passes = [], []

    def patched(source, beta):
        if isinstance(beta, np.ndarray):  # the array pass holds grid[41], so it falls back
            passes.append(beta.tolist())
            raise ValueError("patched failure")
        on_grid.append(beta in grid)
        if beta == grid[41]:
            raise ValueError("patched failure")
        return genie_params(source, beta)

    monkeypatch.setattr(bd, "_genie_params", patched)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        first = bd.best_lower(src, 0.03, "iid")
        assert sum(on_grid) == len(grid) and passes == [grid[:-1].tolist()]
        assert bd.best_lower(src, 0.03, "iid") == first
    assert sum(on_grid) == 2 * len(grid) and len(passes) == 2
    assert [r.getMessage() for r in caplog.records] == 2 * [
        f"{bound} at alpha=0.03: skipping beta={grid[41]:g} (patched failure)"
        for bound in ("t2_genie", "t4_iid_genie")
    ]


ROW_FAMILIES = [
    Gaussian(0.0, 1.0),
    Gaussian(1.0, 1.0),
    Uniform(0.0, 1.0),
    Uniform(2.0, 1.0),
    PointMass(0.2, 1.0, outer_mass=0.1),
    PointMass(0.2, 1.0, limit=True),
    _sliced_from_eta(0.2),
]


def _ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


@given(
    dist=st.sampled_from(ROW_FAMILIES),
    omega=st.floats(1e-6, 0.5),
    snr_db=st.floats(-30.0, 200.0),
    alpha=st.floats(5e-324, 1.0 - 1e-16, allow_subnormal=True),
)
@example(dist=Gaussian(0.0, 1.0), omega=0.5, snr_db=0.0, alpha=5e-324)
@example(dist=Gaussian(0.0, 1.0), omega=1e-4, snr_db=20.0, alpha=1.0 - 1e-16)
@example(dist=PointMass(0.2, 1.0, outer_mass=0.1), omega=1e-4, snr_db=200.0, alpha=1e-300)
@example(dist=_sliced_from_eta(0.2), omega=1e-4, snr_db=-30.0, alpha=1e-12)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_grid_rows_match_the_float_rows(dist, omega, snr_db, alpha):
    """The rows of the array pass (or of its fallback) are those of the float
    route: None and skip notes at the same betas in the same order and text,
    the row at beta = 1 equal, the rest within a few ulps: the entropy power
    as its entropy, whose rounding its exponential scales, and the target
    rate, whose entropies cancel just above beta = alpha, to 1e-15 absolute."""
    src = bd.source_at_snr(dist, omega, snr_db)
    grid = bd._beta_grid(src, alpha)
    with bd._record(None) as float_notes:
        want = [bd._genie_row(src, alpha, beta) for beta in grid]
    with bd._record(None) as notes:
        got_grid, got, _ = bd._grid_rows(src, alpha)
    text = [[(k, a, b, type(e), str(e)) for k, a, b, e in held] for held in (notes, float_notes)]
    assert text[0] == text[1]
    assert np.array_equal(got_grid, grid) and len(got) == len(want)
    assert [row is None for row in got] == [row is None for row in want]
    assert got[-1] == want[-1]
    for row, ref in zip(got[:-1], want[:-1]):
        if row is None:
            continue
        assert all(_ulps_apart(x, y) <= 4 for x, y in zip(row[:3], ref[:3])), (row, ref)
        if ref[3] > 0.0:  # the entropy 0.5 * log(vh_eff * 2 pi e / om_b)
            h, h_ref = (0.5 * math.log(r[3] * 2.0 * math.pi * math.e / r[1]) for r in (row, ref))
            assert abs(h - h_ref) <= 4 * np.spacing(max(abs(h), abs(h_ref), 1.0)), (row, ref)
        else:
            assert row[3] == ref[3]
        assert _ulps_apart(row[4], ref[4]) <= 4 or abs(row[4] - ref[4]) <= 1e-15, (row, ref)


def test_best_lower_builds_the_beta_rows_in_one_array_pass(monkeypatch):
    # Per curves input, the array pass saves 199 scalar truncations and 199
    # target rates against the float route (row by row, as the fallback does).
    # Those rows are tuples of floats.
    points = ((0.0, 3e-3), (20.0, 0.03), (40.0, 0.25))
    inputs = [(dist, snr, alpha) for dist in T4_FAMILIES.values() for snr, alpha in points]
    for dist, snr, alpha in inputs:
        _, rows, _ = bd._grid_rows(bd.source_at_snr(dist, 1e-4, snr), alpha)
        assert all(type(x) is float for row in rows[:-1] for x in row)
    genie_params = bd._genie_params

    def scalar_calls(fall_back):
        """Per input, the value and the scalar truncate and rate_R calls."""
        calls = {"truncate": 0, "rate_R": 0}
        out = []
        with monkeypatch.context() as mp:
            for name in calls:

                def spy(*args, real=getattr(bd, name), name=name):
                    calls[name] += not isinstance(args[-1], np.ndarray)
                    return real(*args)

                mp.setattr(bd, name, spy)
            if fall_back:

                def float_only(source, beta):
                    if isinstance(beta, np.ndarray):
                        raise ValueError("float route")
                    return genie_params(source, beta)

                mp.setattr(bd, "_genie_params", float_only)
            for dist, snr, alpha in inputs:
                calls.update(truncate=0, rate_R=0)
                value = bd.best_lower(bd.source_at_snr(dist, 1e-4, snr), alpha, "iid")
                out.append((value, calls["truncate"], calls["rate_R"]))
        return out

    for (value, truncs, rates), (row_value, row_truncs, row_rates) in zip(
        scalar_calls(False), scalar_calls(True)
    ):
        assert value == row_value
        assert row_truncs - truncs >= 190 and row_rates - rates >= 190, (truncs, row_truncs)


def _noisy(slope, root, amp):
    """A deficit rising through ``root`` at ``slope``, plus a deterministic
    round-off-like term of at most ``amp`` that flips its sign near the root."""

    def deficit(rho):
        return slope * (rho - root) + amp * (hash(rho) % 2001 / 1000.0 - 1.0)

    return deficit


@given(
    lo=st.floats(1e-8, 1e8),
    ratio=st.floats(1e-15, 1e4),
    at=st.floats(0.0, 1.0),
    slope=st.floats(1e-6, 1e6),
    amp=st.sampled_from([0.0, 1e-16, 1e-12, 1e-8]),
)
@example(lo=1.0, ratio=1e-15, at=0.0, slope=1.0, amp=0.0)
@example(lo=0.01, ratio=0.0093, at=0.4, slope=1e-3, amp=1e-12)
@example(lo=1e-8, ratio=1e4, at=0.9, slope=1.0, amp=0.0)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_bisect_keeps_its_contract_over_random_brackets(lo, ratio, at, slope, amp):
    # Any bracket whose deficit is negative at its lower end and not at its
    # upper end, the deficit smooth or noisy near its root: the report's ends
    # keep those signs and are adjacent floats unless the BISECTION_STEPS cap
    # was hit, and its residual is the float deficit at its lower end.  Each
    # step reads one new midpoint; the residual is read again only while the
    # lower end is still the scan's grid point.
    hi = lo * (1.0 + ratio)
    if not lo < hi < math.inf:
        return
    root = math.nextafter(lo, math.inf) + at * (hi - lo)
    deficit, calls = _noisy(slope, root, amp), []

    def counted(rho):
        calls.append(rho)
        return deficit(rho)

    if not deficit(lo) < 0.0 <= deficit(hi):
        return
    report = bd._bisect(counted, 3, (lo, hi))
    r_lo, r_hi = report.bracket
    assert r_lo == report.rho_lower and lo <= r_lo < r_hi <= hi
    assert r_lo == lo or deficit(r_lo) < 0.0
    assert r_hi == hi or deficit(r_hi) >= 0.0
    assert report.residual == deficit(r_lo) and report.crossings_found == 3
    mids = calls[:-1] if r_lo == lo else calls
    assert r_lo != lo or calls[-1] == lo
    assert all(lo < rho < hi for rho in mids) and len(set(mids)) == len(mids)
    assert math.nextafter(r_lo, math.inf) == r_hi or len(mids) == bd.BISECTION_STEPS


CURVE_INPUTS = [
    (dist, snr, alpha) for dist in T4_FAMILIES.values()
    for snr in (0.0, 20.0, 40.0) for alpha in (3e-3, 3e-2, 0.25)
]


def test_once_builds_each_key_once_and_replays_its_notes():
    # The memo builds a key once and stores its value with the notes its
    # build took; every read, the first included, adds them to the open
    # record, and with none open a read notes nothing.  A build that raises
    # stores nothing, so the next read builds again and raises again.
    table, builds = {}, []

    def build(x):
        builds.append(x)
        bd._note("skip", 0.1, x, "first")
        bd._note("cap", 0.1, detail=x)
        if x < 0:
            raise ValueError("negative")
        return 2 * x

    noted = [("skip", 0.1, 3, "first"), ("cap", 0.1, None, 3)]
    for reads in range(1, 4):
        with bd._record(None) as notes:
            assert bd._once(table, "k", build, 3) == 6
        assert notes == noted and builds == [3], reads
    with bd._record(None) as notes:
        assert [bd._once(table, "k", build, 3) for _ in range(2)] == [6, 6]
        assert bd._once(table, "j", build, 4) == 8
    assert notes == [*noted, *noted, ("skip", 0.1, 4, "first"), ("cap", 0.1, None, 4)]
    assert builds == [3, 4] and bd._notes.get() is None
    assert bd._once(table, "k", build, 3) == 6 and bd._notes.get() is None
    for tries in range(1, 3):
        with bd._record(None) as notes:
            with pytest.raises(ValueError, match="negative"):
                bd._once(table, "bad", build, -1)
        assert notes == [] and "bad" not in table and builds == [3, 4, *[-1] * tries]
    assert bd._notes.get() is None


def test_best_lower_builds_each_float_beta_row_once(monkeypatch):
    # t2's and t4's golden steps and t4's refinement read the float rows of
    # one call's memo, so no beta's row is built twice in a call; the next
    # call builds its own.
    built = []
    genie_row = bd._genie_row

    def spy(source, alpha, beta):
        built.append(float(beta))
        return genie_row(source, alpha, beta)

    monkeypatch.setattr(bd, "_genie_row", spy)
    for dist, snr, alpha in CURVE_INPUTS:
        src = bd.source_at_snr(dist, 1e-4, snr)
        for _ in range(2):
            built.clear()
            bd.best_lower(src, alpha, "iid")
            assert len(built) > 1 and len(set(built)) == len(built), (dist, snr, alpha)


def test_best_lower_solves_each_genie_deficit_once(monkeypatch):
    # p4's or p6's deficit is t4's row at beta = 1, solved from the same grid
    # end: one best_lower call solves it once, and every bound reads the
    # report that a solve of its own gives.  p5's, with its own conditional
    # information, is solved apart.
    genie_solve, solve = bd._genie_solve, bd._solve_implicit
    keys, reports, solved = [], [], []

    def own(params, hi, cond=None):
        reports.append(bd._solve_implicit(bd._genie_deficit(*params, cond), hi))
        return reports[-1]

    def shared(params, hi, cond=None):
        keys.append((params, hi, cond))
        reports.append(genie_solve(params, hi, cond))
        return reports[-1]

    monkeypatch.setattr(bd, "_solve_implicit", lambda deficit, hi: solved.append(hi) or solve(deficit, hi))
    repeats = 0
    for dist, snr, alpha in CURVE_INPUTS:
        src = bd.source_at_snr(dist, 1e-4, snr)
        runs = []
        for genie in (own, shared):
            keys.clear(), reports.clear(), solved.clear()
            with monkeypatch.context() as mp:
                mp.setattr(bd, "_genie_solve", genie)
                runs.append((bd.best_lower(src, alpha, "iid"), list(reports), len(solved)))
        (want, want_reports, n_own), (got, got_reports, n_shared) = runs
        assert got == want and got_reports == want_reports, (dist, snr, alpha)
        assert n_own - n_shared == len(keys) - len(set(keys))
        repeats += len(keys) - len(set(keys))
    assert repeats >= len(T4_FAMILIES)


def test_classify_scans_reads_each_row():
    grid = bd._rho_grid(8.0)
    n = grid.size
    vals = np.ones((5, n))
    vals[0, [2, 3, 6]] = -1.0  # two crossings, the last after index 6
    vals[1, :] = 0.0  # zero is not a violation
    vals[2, [100, 1500]] = -1.0  # one crossing, then violated to the end
    vals[2, 1501:] = -2.0
    vals[3, :40] = -0.5  # violated from the first rate, one crossing
    vals[4, -2] = -0.0  # negative zero is not a violation either
    floor = bd.RHO_GRID_FLOOR
    exceeded = "range-exceeded: inequality still violated at scan end"
    assert [bd._classify_scan(grid, row) for row in vals] == [
        (2, None, (grid[6], grid[7])),
        (0, bd.ImplicitSolveReport(0.0, 0, (0.0, floor), 0.0), None),
        (1, bd.ImplicitSolveReport(grid[-1], 1, (grid[-1], math.inf), -2.0, exceeded), None),
        (1, None, (grid[39], grid[40])),
        (0, bd.ImplicitSolveReport(0.0, 0, (0.0, floor), 1.0), None),
    ]


def test_scan_refuses_a_non_finite_deficit():
    grid = bd._rho_grid(8.0)
    vals = np.ones((3, grid.size))
    vals[2, 5] = math.nan
    vals[0, 9] = -math.inf
    vals[1, 700] = math.inf
    # the lowest rate at which any row is not finite
    with pytest.raises(bd.NonFiniteDeficitError, match=f"rho={grid[5]:g} "):
        bd._refuse_non_finite(grid, vals)
    for row, index in zip(vals, (9, 700, 5)):
        with pytest.raises(bd.NonFiniteDeficitError, match=f"rho={grid[index]:g} "):
            bd._classify_scan(grid, row)
    # info_G loses its precision at gamma ~ 1e16 and returns NaN
    src = gaussian_source(1e-4, 200.0)
    with pytest.raises(ValueError, match="deficit is not finite at rho="):
        bd.p4_iid(src, 0.1)
    for bound in (BoundId.P4_IID, BoundId.P6_IID_ENTROPY, BoundId.T4_IID_GENIE):
        with pytest.raises(bd.NonFiniteDeficitError, match=f"^{bound.value} at alpha=0.1: "):
            bd.evaluate_bound(src, bound, 0.1)


@pytest.mark.parametrize("info", [info_G, info_V])
def test_rate_functions_take_per_row_gamma(info):
    r = np.geomspace(1e-6, 1e6, 37)
    gamma = np.geomspace(1e-8, 1e8, 37)
    gamma[::5] = 0.0
    got = info(r, gamma)
    want = np.array([info(float(ri), float(gi)) for ri, gi in zip(r, gamma)])
    assert np.all(got[gamma == 0.0] == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # a column of gammas against a row of rates broadcasts to one row per gamma
    table = info(r[None, :], gamma[:, None])
    assert table.shape == (37, 37)
    np.testing.assert_array_equal(table[3], info(r, gamma[3]))
    # a float rate against an array of gammas
    for rate in (0.5, 1.0, 2.0):
        want = [info(rate, float(gi)) for gi in gamma]
        np.testing.assert_allclose(info(rate, gamma), want, rtol=1e-14, atol=0.0)
    assert np.all(info(r, 0.0) == 0.0)


def test_inversion_lines_write_one_alpha_as_one(caplog):
    # A rate's folded lines name one alpha, and "1 alpha value", when every
    # note came from one alpha (two skipped betas at one alpha included);
    # else the range and the count of alphas.
    tail = "found more than one crossing; kept the largest violated rate for each"
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        with bd._record(BoundId.P6_IID_ENTROPY, 1e-4):
            bd._note("crossings", 0.5, None, 2)
        with bd._record(BoundId.P6_IID_ENTROPY, 1e-4):
            bd._note("crossings", 0.25, None, 2)
            bd._note("crossings", 0.5, None, 3)
        with bd._record(BoundId.T2_GENIE, 2e-4):
            bd._note("skip", 0.5, 0.7, "first")
            bd._note("skip", 0.5, 0.9, "second")
        with bd._record(BoundId.T4_IID_GENIE, 2e-4):
            bd._note("skip", 0.5, 0.7, "first")
            bd._note("beta crossings", 0.5, 0.8, 2)
            bd._note("skip", 0.75, 0.8, "second")
    assert [r.getMessage() for r in caplog.records] == [
        f"p6_iid_entropy at alpha=0.5 (inverting rho=0.0001): 1 alpha value {tail}",
        f"p6_iid_entropy at alpha=0.25..0.5 (inverting rho=0.0001): 2 alpha values {tail}",
        "t2_genie at alpha=0.5 (inverting rho=0.0002): skipping beta values at 1 alpha value "
        "(first: first)",
        "t4_iid_genie at alpha=0.5..0.75 (inverting rho=0.0002): skipping beta values at 2 alpha "
        "values (first: first)",
        f"t4_iid_genie at alpha=0.5 (inverting rho=0.0002): 1 alpha value {tail}",
    ]


def test_single_solve_warnings_name_alpha(caplog):
    src = gaussian_source(1e-4, 10.0)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, list(np.geomspace(1e-4, 1e-2, 8)))
    lines = [r.getMessage() for r in caplog.records if "crossing" in r.getMessage()]
    assert lines
    assert all(line.startswith("p6_iid_entropy at alpha=") for line in lines)


def test_genie_bounds_of_a_nonzero_mean_gaussian_keep_beta_one():
    # Only beta = 1, the source's own parameters, needs no truncation, which a
    # nonzero-mean Gaussian refuses: t2 is then p3 and t4 is p6.
    src = bd.source_at_snr(Gaussian(1.0, 1.0), 1e-4, 10.0)
    assert bd.t2_genie(src, 0.1) == (bd.p3_general(src, 0.1), 1.0)
    rep, beta = bd.t4_genie_iid(src, 0.1)
    assert (rep, beta) == (bd.p6_entropy(src, 0.1), 1.0)


def test_t4_ties_p6_at_beta_one_and_p6_wins():
    # At beta = 1 t4's row is p6's own deficit, so a tie goes to p6 by order.
    for dist, snr_db, alpha in [
        (_sliced_from_eta(0.2), 60.0, 0.03),
        (T4_FAMILIES["uniform"], 22.40161559973288, 0.28550566723757304),
    ]:
        src = bd.source_at_snr(dist, 1e-4, snr_db)
        t4, beta = bd.t4_genie_iid(src, alpha)
        assert beta == 1.0
        assert t4.rho_lower == bd.p6_entropy(src, alpha).rho_lower
        assert bd.best_lower(src, alpha, "iid")[1] is BoundId.P6_IID_ENTROPY


@pytest.mark.parametrize("bound", [b for b in BoundId if b is not BoundId.C1_TEST])
def test_every_rate_bound_evaluates(bound):
    rho, beta = bd.evaluate_bound(gaussian_source(1e-4, 10.0), bound, 0.1)
    assert math.isfinite(rho) and rho >= 0.0
    assert beta is None or 0.1 <= beta <= 1.0


def test_c1_test_is_not_a_rate_bound():
    with pytest.raises(ValueError):
        bd.evaluate_bound(gaussian_source(), BoundId.C1_TEST, 0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: bd.t2_genie(s, 0.0), "alpha must lie in (0, 1), got 0.0"),
        (lambda s: bd.t2_genie(s, 1.0), "alpha must lie in (0, 1), got 1.0"),
        (lambda s: bd.t4_genie_iid(s, 0.0), "alpha must lie in (0, 1), got 0.0"),
        (lambda s: bd.t4_genie_iid(s, 1.0), "alpha must lie in (0, 1), got 1.0"),
        (lambda s: bd.p8_shape(s, 0.0, s.power), "alpha must lie in (0, 1/4), got 0.0"),
        (lambda s: bd.p8_shape(s, 0.25, s.power), "alpha must lie in (0, 1/4), got 0.25"),
        (lambda s: bd.best_lower(s, 0.1, "gaussian"),
         "matrix_class must be 'any' or 'iid', got gaussian"),
        (lambda s: bd.p3_general(dataclasses.replace(s, variance=0.0), 0.1),
         "source variance must be positive"),
        (lambda s: bd.p4_iid(dataclasses.replace(s, variance=-1.0), 0.1),
         "source variance must be positive"),
    ],
    ids=["t2-0", "t2-1", "t4-0", "t4-1", "p8-0", "p8-quarter", "best_lower", "p3", "p4"],
)
def test_arguments_outside_a_bounds_domain_are_refused(call, message):
    with pytest.raises(ValueError) as refused:
        call(gaussian_source(1e-4, 20.0))
    assert str(refused.value) == message


BEST_LOWER_ORDER = {
    "any": [BoundId.P3_GENERAL, BoundId.T2_GENIE],
    "iid": [
        BoundId.P3_GENERAL,
        BoundId.T2_GENIE,
        BoundId.P4_IID,
        BoundId.P5_IID_GAUSSIAN,
        BoundId.P6_IID_ENTROPY,
        BoundId.T4_IID_GENIE,
        BoundId.T3_NOISELESS_IID_F,
    ],
}


@pytest.mark.parametrize("matrix_class", ["any", "iid"])
@pytest.mark.parametrize("family", list(T4_FAMILIES))
def test_best_lower_is_the_first_largest_applicable_bound(family, matrix_class):
    src = bd.source_at_snr(T4_FAMILIES[family], 1e-4, 20.0)
    best_val, best_id = -math.inf, None
    for bound in BEST_LOWER_ORDER[matrix_class]:
        try:
            val, _ = bd.evaluate_bound(src, bound, 0.03)
        except ValueError:  # needs Gaussian values or a density
            continue
        if val > best_val:
            best_val, best_id = val, bound
    assert bd.best_lower(src, 0.03, matrix_class) == (best_val, best_id)


def test_implicit_residuals_small():
    src = gaussian_source(1e-4, 10.0)
    for alpha in (0.01, 0.1):
        for rep in (bd.p4_iid(src, alpha), bd.p5_gaussian(src, alpha), bd.p6_entropy(src, alpha)):
            assert abs(rep.residual) <= 1e-9


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def test_p7_domain_and_growth():
    src = gaussian_source(1e-4, 10.0)
    with pytest.raises(ValueError):
        bd.p7_shape(src, 0.3, 10.0)
    # decay rate 1: the shape blows up polynomially as alpha -> 0
    v1 = bd.p7_shape(src, 1e-3, 10.0)
    v2 = bd.p7_shape(src, 1e-1, 10.0)
    assert v1 / v2 > 100.0


def test_p7_log_growth_for_floored_sources():
    src = bd.source_at_snr(PointMass(0.2, 1.0, limit=True), 1e-4, 10.0)
    ratios = []
    for alpha in np.geomspace(1e-3, 0.2, 12):
        ratios.append(bd.p7_shape(src, float(alpha), 10.0) / math.log(1.0 / alpha))
    assert max(ratios) / min(ratios) < 50.0  # bounded ratio, not polynomial blowup


def test_p7_brackets_the_genie_bound():
    # the shape carries an unknowable constant, so the ratio of the genie
    # bound to it is not pinned; but both grow alike as alpha -> 0 (the
    # bounds are tight as a function of the fraction of errors), so the
    # ratio stays within a narrow band down to alpha = 1e-9
    src = gaussian_source(1e-4, 0.0)
    ratios = []
    for alpha in np.geomspace(1e-9, 0.249, 12):
        shape = bd.p7_shape(src, float(alpha), src.power)
        genie, _ = bd.t2_genie(src, float(alpha))
        ratios.append(genie / shape)
    assert min(ratios) > 0.0
    assert math.isfinite(max(ratios))
    assert max(ratios) / min(ratios) < 1.5


def test_p8_condition_and_scaling():
    pm = bd.source_at_snr(PointMass(0.2, 1.0, limit=True), 1e-4, 10.0)
    assert bd.p8_shape(pm, 0.1, 10.0)[1] is False
    gauss = gaussian_source(1e-4, 10.0)
    assert bd.p8_shape(gauss, 0.1, 10.0)[1] is True
    # excess rate scales like 1/log(1+P)
    products = []
    for power in np.geomspace(1.0, 1e6, 7):
        value, _ = bd.p8_shape(gauss, 0.1, float(power))
        products.append((value - gauss.omega) * math.log1p(float(power)))
    assert max(products) == pytest.approx(min(products), rel=1e-9)


# ---------------------------------------------------------------------------
# Aggregation and inversion
# ---------------------------------------------------------------------------


def test_best_lower_iid_dominates_any():
    for dist in (Gaussian(0.0, 1.0), _sliced_from_eta(0.2)):
        for snr in (0.0, 30.0):
            src = bd.source_at_snr(dist, 1e-4, snr)
            any_val, _ = bd.best_lower(src, 0.1, "any")
            iid_val, _ = bd.best_lower(src, 0.1, "iid")
            assert iid_val >= any_val - 1e-12


def _check_best_lower_properties(dist, omega, snr_db, alpha_lo, alpha_hi, snr_hi=None):
    src = bd.source_at_snr(dist, omega, snr_db)
    iid, _ = bd.best_lower(src, alpha_lo, "iid")
    any_val, _ = bd.best_lower(src, alpha_lo, "any")
    assert math.isfinite(iid) and iid >= 0.0
    assert iid >= any_val
    assert bd.best_lower(src, alpha_hi, "iid")[0] <= iid
    if snr_hi is not None:
        louder = bd.source_at_snr(dist, omega, snr_hi)
        assert bd.best_lower(louder, alpha_lo, "iid")[0] <= iid
        assert bd.best_lower(louder, alpha_lo, "any")[0] <= any_val


@given(
    dist=BOUND_DOMAIN_FAMILIES,
    omega=st.floats(1e-6, 0.5),
    snrs=st.lists(st.floats(-30.0, 80.0), min_size=2, max_size=2),
    alphas=st.lists(st.floats(1e-3, 1.0, exclude_max=True), min_size=2, max_size=2),
)
# alpha >= 1 - omega needs no rate, yet t4 once bisected round-off at 71 dB
@example(dist=Gaussian(0.0, 1.0), omega=0.5, snrs=[0.0, 71.0], alphas=[0.5, 0.6])
# the genie bounds peak at the kink beta = 1 - outer_mass, which the beta grid
# once missed, so best_lower rose with alpha
@example(
    dist=PointMass(0.2, 1.0, outer_mass=0.1),
    omega=0.0003580125055937264,
    snrs=[11.225325847303935, 30.0],
    alphas=[2.5396476758501306e-06, 9.02146833240461e-05],
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_best_lower_properties_over_the_bound_domain(dist, omega, snrs, alphas):
    """best_lower is finite, nonnegative, i.i.d. >= any, and nonincreasing in
    alpha and in SNR, for alpha in [1e-3, 1) and at the smaller alphas of the
    examples and the tests below."""
    alpha_lo, alpha_hi = sorted(alphas)
    snr_lo, snr_hi = sorted(snrs)
    _check_best_lower_properties(dist, omega, snr_lo, alpha_lo, alpha_hi, snr_hi)


def test_best_lower_properties_at_a_small_gaussian_beta_star():
    # beta* ~ 5e-6 here, where a cancelling form of the kept variance
    # fraction errs by 25 %; the genie bounds follow such an error up and
    # down and break monotonicity in alpha.
    _check_best_lower_properties(
        Gaussian(0.0, 1.0), 1.7801471416452694e-06, 69.72342990973904,
        4.323090122222269e-09, 2.2033686778946125e-07,
    )


def test_best_lower_properties_at_an_underflowing_gaussian_alpha():
    # The Gaussian truncation of beta = alpha takes log(0); t2 and t4 skip
    # that beta.
    _check_best_lower_properties(Gaussian(0.0, 1.0), 0.5, 0.0, 5e-324, 0.5)


@given(
    dist=BOUND_DOMAIN_FAMILIES,
    omega=st.floats(1e-6, 0.5),
    snr_db=st.floats(-30.0, 80.0),
    alpha=st.floats(1e-12, 1.0, exclude_min=True, exclude_max=True),
)
@example(dist=Gaussian(0.0, 1.0), omega=0.5, snr_db=71.0, alpha=0.5)
@example(
    dist=PointMass(0.2, 1.0, outer_mass=0.1),
    omega=0.0003580125055937264,
    snr_db=11.225325847303935,
    alpha=9.02146833240461e-05,
)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_bound_orderings_that_hold_by_construction(dist, omega, snr_db, alpha):
    """t2 >= p3 and t4 >= p6 >= p4, with no tolerance: t2's beta = 1 row is
    p3, t4's is p6's deficit (p4's for a source with no density, which skips
    p6), and p6's deficit is p4's less a nonnegative term."""
    src = bd.source_at_snr(dist, omega, snr_db)
    assert bd.t2_genie(src, alpha)[0] >= bd.p3_general(src, alpha)
    t4 = bd.t4_genie_iid(src, alpha)[0].rho_lower
    p4 = bd.p4_iid(src, alpha).rho_lower
    if src.entropy_power > 0.0:
        p6 = bd.p6_entropy(src, alpha).rho_lower
        assert t4 >= p6 >= p4
    else:
        assert t4 >= p4


@pytest.mark.parametrize("alpha", [2.5396476758501306e-06, 9.02146833240461e-05])
def test_genie_bounds_hold_the_point_mass_kink(alpha):
    # Both genie objectives peak in a corner at beta = 1 - outer_mass: t2 and
    # t4 are there, and no smaller than their maximum over a dense beta grid
    # that holds it.
    dist = PointMass(0.2, 1.0, outer_mass=0.1)
    src = bd.source_at_snr(dist, 0.0003580125055937264, 11.225325847303935)
    kink = 1.0 - dist.outer_mass
    dense = np.union1d(np.linspace(alpha, 1.0, 200), kink + np.linspace(-1e-3, 1e-3, 41))
    dense = np.union1d(dense, [kink])

    def t2_at(beta):
        pref, _, v_eff, _, r = bd._genie_row(src, alpha, beta)
        return 2.0 * pref * r / math.log1p(v_eff)

    t2, t2_beta = bd.t2_genie(src, alpha)
    t4, t4_beta = bd.t4_genie_iid(src, alpha)
    assert t2_beta == t4_beta == kink
    assert t2 >= max(t2_at(float(b)) for b in dense) * (1.0 - 1e-9)
    dense_t4 = max(_solve_t4_row(src, alpha, float(b)).rho_lower for b in dense)
    assert t4.rho_lower >= dense_t4 * (1.0 - 1e-9)


def test_best_lower_discrete_high_snr():
    dist = PointMass(0.2, 1.0, limit=True)
    lo = bd.best_lower(bd.source_at_snr(dist, 1e-4, 0.0), 0.3, "iid")
    hi = bd.best_lower(bd.source_at_snr(dist, 1e-4, 100.0), 0.3, "iid")
    assert hi[0] < 0.02 * lo[0]  # vanishes as SNR grows
    assert hi[1] in (BoundId.P4_IID, BoundId.T2_GENIE, BoundId.T4_IID_GENIE)


def test_best_lower_keeps_noiseless_floor():
    src = gaussian_source(1e-4, 80.0)
    val, _ = bd.best_lower(src, 0.1, "iid")
    assert val >= src.omega


def test_alpha_curve_roundtrip():
    src = gaussian_source(1e-4, 20.0)
    rho_grid = [2e-4, 4e-4, 1e-3, 5e-3]
    curve = bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, rho_grid)
    assert len(curve.points) == len(rho_grid)
    alphas = [a for _, a in curve.points]
    assert all(a2 <= a1 + 1e-9 for a1, a2 in zip(alphas, alphas[1:]))
    for rho, alpha in curve.points:
        if alpha > 0:
            value, _ = bd.evaluate_bound(src, BoundId.P6_IID_ENTROPY, alpha)
            assert value <= rho * (1 + 1e-6)


def test_alpha_curve_evaluates_the_bracket_ends_once(monkeypatch, caplog):
    # One call over several rates evaluates the two bracket ends once, and
    # every other alpha once too, and gives the points, beta*, brackets and
    # warning lines of one call per rate.  p6 evaluates only the alphas that
    # confirm (or repair) each rate's bisection on rate_R, none of them shared
    # between rates, so the joint call saves exactly the repeated ends.  Every
    # alpha is made to hold a multi-crossing note, which the line of every
    # rate that reaches it must count: the ends' replayed notes included.
    src = gaussian_source(1e-4, 10.0)
    rates = list(np.geomspace(1e-4, 1e-2, 8))
    ends = (bd.ALPHA_FLOOR, 1.0 - 1e-9)
    calls = []
    evaluate = bd.evaluate_bound

    def counting(source, bound, alpha):
        calls.append(alpha)
        bd._note("crossings", alpha, detail=2)
        return evaluate(source, bound, alpha)

    monkeypatch.setattr(bd, "evaluate_bound", counting)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        single, reached = [], []
        for rho in rates:
            single.append(bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, [rho]))
            reached.append(len(calls) - sum(reached))
        single_calls = list(calls)
        single_lines = [r.getMessage() for r in caplog.records]
        calls.clear()
        caplog.clear()
        joint = bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, rates)
        joint_lines = [r.getMessage() for r in caplog.records]
    assert [alpha for alpha in calls if alpha in ends] == list(ends)
    assert len(calls) == len(set(calls)) and set(calls) == set(single_calls)
    assert len(calls) == len(single_calls) - 2 * (len(rates) - 1)
    assert joint.points == [point for curve in single for point in curve.points]
    merged = {key: {k: v for curve in single for k, v in curve.solver_meta[key].items()}
              for key in ("beta_star", "bracket")}
    assert joint.solver_meta == {
        "omitted": [],
        "alpha_floor": bd.ALPHA_FLOOR,
        **merged,
        "repaired": [rho for curve in single for rho in curve.solver_meta["repaired"]],
    }
    assert joint_lines == single_lines
    assert len(joint_lines) == len(rates)
    assert all(f"{n} alpha values found more" in line for n, line in zip(reached, joint_lines))
    assert all(line.startswith("p6_iid_entropy at alpha=1e-06..1 ") for line in joint_lines)
    assert bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, []).points == []


@pytest.mark.parametrize("rho", [math.nan, math.inf, -1e-3])
def test_alpha_curve_rejects_bad_rates(rho):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        bd.alpha_curve(gaussian_source(1e-4, 20.0), BoundId.P4_IID, [1e-3, rho])


def test_alpha_curve_saturates_at_zero():
    src = gaussian_source(1e-4, 20.0)
    curve = bd.alpha_curve(src, BoundId.P4_IID, [1.0])
    assert curve.points[0][1] == 0.0


def _bisected_alpha(source, bound, rho):
    """The reference inversion: bisection over alpha on the bound itself, with
    alpha_curve's bracket, midpoints and step cap; None where it omits rho."""
    lo, hi = bd.ALPHA_FLOOR, 1.0 - 1e-9
    val_lo, val_hi = (bd.evaluate_bound(source, bound, a)[0] for a in (lo, hi))
    if val_lo < val_hi or val_hi > rho:
        return None
    if val_lo <= rho:
        return 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if bd.evaluate_bound(source, bound, mid)[0] <= rho:
            hi = mid
        else:
            lo = mid
    return hi


INVERTED_ON_RATE_R = [BoundId.P3_GENERAL, BoundId.P4_IID, BoundId.P5_IID_GAUSSIAN, BoundId.P6_IID_ENTROPY]


@given(
    dist=BOUND_DOMAIN_FAMILIES,
    omega=st.floats(1e-6, 0.5),
    snr_db=st.floats(-30.0, 80.0),
    pick=st.integers(0, 3),
    alphas=st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=1, max_size=3),
    scale=st.floats(-0.3, 0.3),
)
@example(dist=Gaussian(0.0, 1.0), omega=0.5, snr_db=-30.0, pick=3, alphas=[1e-6, 0.01, 0.3], scale=0.0)
@example(dist=Uniform(math.sqrt(2.3), 1.0), omega=0.2, snr_db=-25.0, pick=1, alphas=[1e-3, 0.1],
         scale=0.2)
@example(dist=Gaussian(0.0, 1.0), omega=1e-3, snr_db=60.0, pick=2, alphas=[1e-5, 0.05, 0.9], scale=-0.1)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_inversion_on_rate_r_is_confirmed_by_the_bound(dist, omega, snr_db, pick, alphas, scale):
    # Each rate is the bound at a drawn alpha, scaled by up to 2x either way,
    # so the rates reach as far up the ladder of scan grids as the bound does.
    # Every alpha written meets rho, and the bound exceeds rho at the lower
    # end of its last bracket.  Where rho > 0 the alpha is the reference
    # bisection's to 1e-12 relative, or 2^-59 (the width of a bracket halved
    # 60 times).  Where rho = 0 the bound is 0 wherever rate_R has cancelled
    # to 0, a set round-off leaves ragged just below 1 - omega, so the two
    # bisections may stop at different alphas of it (1e-9 apart was seen).
    src = bd.source_at_snr(dist, omega, snr_db)
    bounds = [b for b in INVERTED_ON_RATE_R if bd._BOUNDS[b].applies(src)]
    bound = bounds[pick % len(bounds)]
    rates = [bd.evaluate_bound(src, bound, a)[0] * 10.0**scale for a in alphas]
    curve = bd.alpha_curve(src, bound, rates)
    written = dict(curve.points)
    for rho in rates:
        want = _bisected_alpha(src, bound, rho)
        assert (want is None) == (rho not in written)
        if want:
            alpha = written[rho]
            lo, hi = curve.solver_meta["bracket"][rho]
            assert hi == alpha and lo < alpha
            assert bd.evaluate_bound(src, bound, alpha)[0] <= rho < bd.evaluate_bound(src, bound, lo)[0]
            if rho > 0.0:
                assert alpha == pytest.approx(want, rel=1e-12, abs=2.0**-59)
        elif want == 0.0:
            assert written[rho] == 0.0


@pytest.mark.parametrize("factor", [0.5, 1.5], ids=["c-too-small", "c-too-large"])
def test_inversion_repairs_a_bracket_the_bound_overrules(monkeypatch, factor):
    # A c scaled away from p6's own sends the bisection on rate_R to a wrong
    # bracket.  The bound overrules it at one end; the bracket is widened
    # until the bound confirms both ends and is bisected on the bound, so the
    # alphas are those of the honest c and of the reference.
    src = gaussian_source(1e-4, 10.0)
    rates = [float(rho) for rho in np.geomspace(1e-4, 1e-2, 8)[[0, 2]]]
    honest = bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, rates)
    assert honest.solver_meta["repaired"] == []
    row = bd._BOUNDS[BoundId.P6_IID_ENTROPY]
    misled = dataclasses.replace(row, target_free=lambda s: lambda rho: factor * row.target_free(s)(rho))
    monkeypatch.setitem(bd._BOUNDS, BoundId.P6_IID_ENTROPY, misled)
    alphas = []
    evaluate = bd.evaluate_bound

    def counting(source, bound, alpha):
        alphas.append(alpha)
        return evaluate(source, bound, alpha)

    monkeypatch.setattr(bd, "evaluate_bound", counting)
    curve = bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, rates)
    assert curve.solver_meta["repaired"] == rates
    assert len(alphas) > 2 + 2 * len(rates)  # more than the ends and two confirmations a rate
    for (rho, alpha), (_, want) in zip(curve.points, honest.points):
        lo, hi = curve.solver_meta["bracket"][rho]
        assert hi == alpha and {lo, hi} <= set(alphas)
        assert evaluate(src, BoundId.P6_IID_ENTROPY, hi)[0] <= rho
        assert evaluate(src, BoundId.P6_IID_ENTROPY, lo)[0] > rho
        assert alpha == pytest.approx(want, rel=1e-12, abs=0.0)
        assert alpha == pytest.approx(_bisected_alpha(src, BoundId.P6_IID_ENTROPY, rho), rel=1e-12)


def test_snr_monotonicity():
    dists = {
        "gauss": Gaussian(0.0, 1.0),
        "uniform": Uniform(math.sqrt(2.3), 1.0),
        "sliced": _sliced_from_eta(0.2),
    }
    for name, dist in dists.items():
        for alpha in (0.05, 0.3):
            prev = {}
            for snr in (0.0, 10.0, 30.0):
                src = bd.source_at_snr(dist, 1e-4, snr)
                vals = {
                    "p3": bd.p3_general(src, alpha),
                    "t2": bd.t2_genie(src, alpha)[0],
                    "p4": bd.p4_iid(src, alpha).rho_lower,
                    "p6": bd.p6_entropy(src, alpha).rho_lower,
                }
                for key, val in vals.items():
                    if key in prev:
                        assert val <= prev[key] * (1 + 1e-7) + 1e-12, (name, key, snr)
                    prev[key] = val
