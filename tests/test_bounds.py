"""Bound evaluators: closed forms, implicit solves, genie maximization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
        _, _, bracket = bd._classify_scans(grid, vals[None, :])[0]
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


def test_t2_beta_one_slice_is_p3():
    src = gaussian_source(1e-4, 0.0)
    pref, om_b, v_eff, _ = bd._genie_params(src, 1.0)
    objective = 2.0 * pref * rate_R(om_b / pref, 0.3) / math.log1p(v_eff)
    assert objective == pytest.approx(bd.p3_general(src, 0.3), rel=1e-14)


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


def _reference_t4(source, alpha):
    """t4 as one scalar-bisection solve per beta, then the golden step."""

    def solve_for(beta):
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

        return bd._solve_implicit(deficit, source.omega)

    def value_of(beta):
        rep = solve_for(beta)
        return -math.inf if rep is None else rep.rho_lower

    grid = bd._beta_grid(alpha)
    reports = [solve_for(b) for b in grid]
    values = np.array([-math.inf if rep is None else rep.rho_lower for rep in reports])
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    beta_star, val = bd._golden_max(value_of, lo, hi)
    if values[best] >= val:
        return reports[best], float(grid[best])
    return solve_for(beta_star), beta_star


T4_FAMILIES = {
    "gaussian": Gaussian(0.0, 1.0),
    "uniform": Uniform(math.sqrt(2.3), 1.0),
    "pointmass": PointMass(0.2, 1.0, limit=True),
    "sliced": _sliced_from_eta(0.2),
}


@pytest.mark.parametrize(
    "family, omega, snr_db, alpha",
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
       ("sliced", 1e-4, 10.0, 3e-3)],
)
def test_t4_batched_sweep_matches_per_beta_solves(family, omega, snr_db, alpha):
    src = bd.source_at_snr(T4_FAMILIES[family], omega, snr_db)
    rep, beta = bd.t4_genie_iid(src, alpha)
    ref, ref_beta = _reference_t4(src, alpha)
    assert beta == ref_beta
    assert rep == ref


def test_t4_rows_reach_zero_and_range_exceeded_paths():
    src = bd.source_at_snr(PointMass(0.2, 1.0, limit=True), 0.3, -80.0)
    reports = []
    scan = bd._scan_implicit

    def spy(deficit_vec, omega):
        result = scan(deficit_vec, omega)
        reports.append(result[1])
        return result

    zero_rows = 0
    for beta in bd._beta_grid(1e-3):
        pref, om_b, _, vh_eff = bd._genie_params(src, beta)
        zero_rows += vh_eff == 0.0 and rate_R(om_b / pref, min(1e-3 / beta, 1.0)) == 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bd, "_scan_implicit", spy)
        rep, _ = bd.t4_genie_iid(src, 1e-3)
    assert zero_rows > 0
    assert any(r is not None and r.diagnostic for r in reports)
    assert rep.diagnostic is not None and rep.rho_lower == bd.RHO_RANGE_CAP


def test_t4_logs_one_multi_crossing_line(caplog):
    src = gaussian_source(1e-4, 10.0)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        bd.t4_genie_iid(src, 0.6)
    lines = [r.getMessage() for r in caplog.records if "crossing" in r.getMessage()]
    assert len(lines) == 1
    assert lines[0].startswith("t4_iid_genie at alpha=0.6: ") and "beta in [" in lines[0]


def _single_row_scan(source, alpha, beta):
    """One beta scanned alone: None when skipped, else (crossings, report, bracket)."""
    try:
        pref, om_b, v_eff, vh_eff = bd._genie_params(source, beta)
    except (ValueError, ArithmeticError):
        return None
    r_target = rate_R(om_b / pref, min(alpha / beta, 1.0))
    if r_target == 0.0 and vh_eff == 0.0:
        return 0, bd.ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0), None
    deficit = bd._genie_deficit(pref, om_b, v_eff, vh_eff, r_target)
    return bd._scan_implicit(deficit, source.omega)


def _block_rows_by_kind(source, alpha, blocks):
    """Scan each block of betas as t4 does and check every row against the
    same beta scanned alone; returns the betas of each kind of row."""
    kinds: dict[str, list] = {}
    for betas in blocks:
        multi = set()
        rows = bd._scan_genie_rows(source, alpha, betas, multi)
        assert len(rows) == len(betas)
        for beta, (report, pending) in zip(betas, rows):
            want = _single_row_scan(source, alpha, beta)
            if want is None:
                assert report is None and pending is None
                kinds.setdefault("skipped", []).append(beta)
                continue
            crossings, want_report, bracket = want
            assert report == want_report
            assert (beta in multi) == (crossings > 1)
            if crossings > 1:
                kinds.setdefault("several crossings", []).append(beta)
            if pending is None:
                assert bracket is None
            else:
                assert pending[1:] == (crossings, bracket)
                assert pending[0](float(bracket[0])) < 0.0
            if report is None:
                kind = "pending"
            elif report.diagnostic:
                kind = "range-exceeded"
            elif report.bracket == (0.0, 0.0):
                kind = "zero"
            else:
                kind = "no-negative"
            kinds.setdefault(kind, []).append(beta)
    return kinds


def _t4_blocks(alpha):
    """t4's blocks of the beta grid, then a short last block and a block of one."""
    grid = bd._beta_grid(alpha)
    step = bd.BETA_BLOCK_ROWS
    return [grid[i : i + step] for i in range(0, len(grid), step)] + [grid[-3:], grid[7:8]]


@pytest.mark.parametrize(
    "family, omega, snr_db, alpha, kinds",
    [
        # every gamma of info_V is 0 (no density), with zero rows
        ("pointmass", 1e-4, -10.0, 0.03, {"pending", "zero"}),
        # zero rows beside rows still violated at the end of the range cap
        ("pointmass", 0.3, -80.0, 1e-3, {"range-exceeded", "zero"}),
        # beta = alpha needs no rate (r_target = 0) but has a density
        ("gaussian", 1e-4, 20.0, 0.03, {"pending", "no-negative"}),
        ("sliced", 1e-2, 0.0, 0.3, {"pending", "no-negative"}),
        ("gaussian", 1e-4, 10.0, 0.6, {"pending", "several crossings"}),
    ],
)
def test_block_scan_matches_single_row_scans(family, omega, snr_db, alpha, kinds):
    src = bd.source_at_snr(T4_FAMILIES[family], omega, snr_db)
    assert kinds <= set(_block_rows_by_kind(src, alpha, _t4_blocks(alpha)))


def test_block_scan_with_skipped_rows_and_mixed_zero_gamma(monkeypatch):
    # Within each block, some rows lose their density (info_V's gamma is 0
    # beside nonzero ones), one row has no variance (info_G's gamma is 0, so
    # it stays violated to the range cap) and one row's parameters fail.
    src = gaussian_source(1e-4, 20.0)
    grid = bd._beta_grid(0.03)
    genie_params = bd._genie_params

    def patched(source, beta):
        pref, om_b, v_eff, vh_eff = genie_params(source, beta)
        if beta == grid[41]:
            raise ValueError("patched failure")
        if beta == grid[42]:
            return pref, om_b, 0.0, vh_eff
        if int(np.searchsorted(grid, beta)) % 3 == 0:
            return pref, om_b, v_eff, 0.0
        return pref, om_b, v_eff, vh_eff

    monkeypatch.setattr(bd, "_genie_params", patched)
    kinds = _block_rows_by_kind(src, 0.03, _t4_blocks(0.03))
    assert kinds["skipped"] == [grid[41]]
    assert grid[42] in kinds["range-exceeded"]
    assert len(kinds["pending"]) > 100


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
    assert bd._classify_scans(grid, vals) == [
        (2, None, (grid[6], grid[7])),
        (0, bd.ImplicitSolveReport(0.0, 0, (0.0, floor), 0.0), None),
        (1, bd.ImplicitSolveReport(grid[-1], 1, (grid[-1], math.inf), -2.0, exceeded), None),
        (1, None, (grid[39], grid[40])),
        (0, bd.ImplicitSolveReport(0.0, 0, (0.0, floor), 1.0), None),
    ]
    # a row alone reads the same as in the block
    for row, want in zip(vals, bd._classify_scans(grid, vals)):
        assert bd._classify_scans(grid, row[None, :]) == [want]


def test_scan_refuses_a_non_finite_deficit():
    grid = bd._rho_grid(8.0)
    vals = np.ones((3, grid.size))
    vals[2, 5] = math.nan
    vals[0, 9] = -math.inf
    vals[1, 700] = math.inf
    with pytest.raises(bd.NonFiniteDeficitError, match=f"rho={grid[5]:g} "):
        bd._classify_scans(grid, vals)
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


def test_single_solve_warnings_name_alpha(caplog):
    src = gaussian_source(1e-4, 10.0)
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        bd.alpha_curve(src, BoundId.P6_IID_ENTROPY, list(np.geomspace(1e-4, 1e-2, 8)))
    lines = [r.getMessage() for r in caplog.records if "crossing" in r.getMessage()]
    assert lines
    assert all(line.startswith("p6_iid_entropy at alpha=") for line in lines)


def test_t4_ties_p6_at_beta_one_and_p6_wins():
    src = bd.source_at_snr(_sliced_from_eta(0.2), 1e-4, 60.0)
    t4, beta = bd.t4_genie_iid(src, 0.03)
    assert beta == 1.0
    assert t4.rho_lower == bd.p6_entropy(src, 0.03).rho_lower
    assert bd.best_lower(src, 0.03, "iid")[1] is BoundId.P6_IID_ENTROPY


@pytest.mark.parametrize("bound", [b for b in BoundId if b is not BoundId.C1_TEST])
def test_every_rate_bound_evaluates(bound):
    rho, beta = bd.evaluate_bound(gaussian_source(1e-4, 10.0), bound, 0.1)
    assert math.isfinite(rho) and rho >= 0.0
    assert beta is None or 0.1 <= beta <= 1.0


def test_c1_test_is_not_a_rate_bound():
    with pytest.raises(ValueError):
        bd.evaluate_bound(gaussian_source(), BoundId.C1_TEST, 0.1)


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


BOUND_DOMAIN_FAMILIES = st.one_of(
    st.just(Gaussian(0.0, 1.0)),
    st.just(Uniform(math.sqrt(2.3), 1.0)),
    st.builds(PointMass, st.just(0.2), st.just(1.0), st.floats(1e-3, 0.5)),
    st.just(_sliced_from_eta(0.2)),
)


def _check_best_lower_properties(dist, omega, snr_db, alpha_lo, alpha_hi):
    src = bd.source_at_snr(dist, omega, snr_db)
    iid, _ = bd.best_lower(src, alpha_lo, "iid")
    any_val, _ = bd.best_lower(src, alpha_lo, "any")
    assert math.isfinite(iid) and iid >= 0.0
    assert iid >= any_val
    assert bd.best_lower(src, alpha_hi, "iid")[0] <= iid


@given(
    dist=BOUND_DOMAIN_FAMILIES,
    omega=st.floats(1e-6, 0.5),
    snr_db=st.floats(-30.0, 80.0),
    alphas=st.lists(st.floats(1e-3, 1.0, exclude_max=True), min_size=2, max_size=2),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_best_lower_properties_over_the_bound_domain(dist, omega, snr_db, alphas):
    """best_lower is finite, nonnegative, i.i.d. >= any, and nonincreasing in
    alpha, for alpha in [1e-3, 1); the smaller alphas below still fail."""
    alpha_lo, alpha_hi = sorted(alphas)
    _check_best_lower_properties(dist, omega, snr_db, alpha_lo, alpha_hi)


def test_best_lower_properties_at_a_small_gaussian_beta_star():
    # beta* ~ 5e-6 here, where a cancelling form of the kept variance
    # fraction errs by 25 %; the genie bounds follow such an error up and
    # down and break monotonicity in alpha.
    _check_best_lower_properties(
        Gaussian(0.0, 1.0), 1.7801471416452694e-06, 69.72342990973904,
        4.323090122222269e-09, 2.2033686778946125e-07,
    )


@pytest.mark.xfail(strict=True, reason="open defects at small alpha, see CHANGES.md")
@pytest.mark.parametrize(
    "dist, omega, snr_db, alpha_lo, alpha_hi",
    [
        # t2 raises: the Gaussian truncation of beta = alpha takes log(0)
        (Gaussian(0.0, 1.0), 0.5, 0.0, 5e-324, 0.5),
        # the beta grid misses the sharp maximum at beta = 1 - outer_mass
        (PointMass(0.2, 1.0, outer_mass=0.1), 0.0003580125055937264, 11.225325847303935,
         2.5396476758501306e-06, 9.02146833240461e-05),
    ],
    ids=["gaussian-alpha-underflow", "pointmass-kink"],
)
def test_best_lower_properties_fail_at_small_alpha(dist, omega, snr_db, alpha_lo, alpha_hi):
    _check_best_lower_properties(dist, omega, snr_db, alpha_lo, alpha_hi)


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


@pytest.mark.parametrize("rho", [math.nan, math.inf, -1e-3])
def test_alpha_curve_rejects_bad_rates(rho):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        bd.alpha_curve(gaussian_source(1e-4, 20.0), BoundId.P4_IID, [1e-3, rho])


def test_alpha_curve_saturates_at_zero():
    src = gaussian_source(1e-4, 20.0)
    curve = bd.alpha_curve(src, BoundId.P4_IID, [1.0])
    assert curve.points[0][1] == 0.0


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
