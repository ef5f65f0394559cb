"""Scalar rate functions: entropy, pattern rate, and the log-det functionals."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srdbounds.distributions import Gaussian, PointMass, SlicedGaussian, Uniform
from srdbounds.ratefun import (
    binary_entropy,
    delta,
    info_G,
    info_V,
    rate_R,
    rate_R_hamming,
    source_functionals,
    xi,
)

R_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 4.0)
GAMMA_GRID = (0.0, 0.1, 1.0, 10.0, 1e3, 1e6)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.1) == pytest.approx(0.3250829733914482, abs=1e-14)


@given(p=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_binary_entropy_symmetric_and_bounded(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= math.log(2.0) + 1e-15
    assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_rate_values():
    assert rate_R(0.1, 0.95) == 0.0
    assert rate_R(0.1, 0.9) == 0.0  # boundary alpha = 1 - omega
    assert rate_R(0.1, 0.0) == pytest.approx(binary_entropy(0.1), abs=1e-15)
    assert rate_R(0.1, 0.1) == pytest.approx(0.23763234181666926, abs=1e-14)


def test_rate_continuous_at_cutoff():
    eps = 1e-9
    assert rate_R(0.2, 0.8 - eps) == pytest.approx(0.0, abs=1e-7)


@given(
    omega=st.floats(min_value=1e-4, max_value=0.5),
    a1=st.floats(min_value=0.0, max_value=1.0),
    a2=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_rate_nonincreasing_in_alpha(omega, a1, a2):
    if a1 > a2:
        a1, a2 = a2, a1
    assert rate_R(omega, a1) >= rate_R(omega, a2) - 1e-12


def test_rate_hamming_variant():
    assert rate_R_hamming(0.1, 0.05) == pytest.approx(
        binary_entropy(0.1) - binary_entropy(0.05)
    )


def test_delta_values():
    assert delta(1.0) == 1.0
    assert delta(0.5) == pytest.approx(2.0, abs=1e-14)
    assert delta(0.9) == pytest.approx(10.0 ** (1.0 / 9.0), abs=1e-13)


def test_delta_limits():
    assert delta(1e-10) == pytest.approx(math.e, rel=1e-8)
    for r in (1 - 1e-6, 1 - 1e-9, 1 - 1e-12):
        assert delta(r) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValueError):
        delta(0.0)
    with pytest.raises(ValueError):
        delta(1.5)


@pytest.mark.parametrize("f", [xi, info_G, info_V])
def test_array_branch_rejects_what_the_float_branch_rejects(f):
    for bad_r in (0.0, -1.0):
        with pytest.raises(ValueError, match="r must be positive"):
            f(bad_r, 1.0)
        with pytest.raises(ValueError, match="r must be positive"):
            f(np.array([0.5, bad_r]), 1.0)
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        f(0.5, -1e-3)
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        f(np.array([0.5, 2.0]), np.array([1.0, -1e-3]))


def test_delta_array_branch_domain():
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"r must lie in \(0, 1\]"):
            delta(bad)
        with pytest.raises(ValueError, match=r"r must lie in \(0, 1\]"):
            delta(np.array([0.5, bad]))
    r = np.array([1e-10, 0.5, 0.9, 1.0])
    np.testing.assert_allclose(delta(r), [delta(float(x)) for x in r], rtol=1e-14)


def test_info_v_array_branch_is_the_two_branch_formula():
    """The one formula in lo = min(r, 1) and hi = max(r, 1) gives, on floats
    and on arrays, what the two branches r <= 1 and r > 1 gave."""

    def float_delta(x):
        return 1.0 if x == 1.0 else math.exp((1.0 - 1.0 / x) * math.log1p(-x))

    def float_branches(r, gamma):
        if gamma == 0.0:
            return 0.0
        if r <= 1.0:
            return 0.5 * r * math.log1p(gamma * float_delta(r) / math.e)
        return 0.5 * math.log1p(r * gamma * float_delta(1.0 / r) / math.e)

    def delta_written_out(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.exp((1.0 - 1.0 / x) * np.log1p(-x))
        return np.where(x < 1.0, inner, 1.0)

    def two_branches(r, gamma):
        val_low = 0.5 * r * np.log1p(gamma * delta_written_out(np.minimum(r, 1.0)) / math.e)
        high = np.maximum(r, 1.0)
        val_high = 0.5 * np.log1p(r * gamma * delta_written_out(1.0 / high) / math.e)
        return np.where(r <= 1.0, val_low, val_high)

    # both sides of 1, exactly 1, and a subnormal rate whose reciprocal is finite
    mixed = np.array([1e-308, 1e-9, 0.3, 1.0 - 1e-16, 1.0, 1.0 + 2e-16, 2.0, 1e7])
    for r in mixed.tolist():
        for g in (0.0, 0.7, 1e12):
            assert info_V(r, g) == float_branches(r, g)
    rows = np.stack([mixed, np.geomspace(1e-8, 1.0, 8), np.geomspace(1.5, 1e9, 8)])
    gamma = np.array([[0.0], [3.0], [1e6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for r in (mixed, rows[1], rows[2], rows):
            for g in (0.7, 1e12, gamma):
                want = two_branches(r, g)
                np.testing.assert_array_equal(info_V(r, g), want)
        got = info_V(rows, gamma)
    assert np.all(got[0] == 0.0) and np.all(got[1:] > 0.0)


def test_xi_values():
    assert xi(0.3, 0.0) == 0.0
    assert xi(1.0, 1.0) == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)
    assert xi(4.0, 1.0) == pytest.approx(3.0 - math.sqrt(5.0), abs=1e-12)


def test_info_g_basics():
    assert info_G(0.7, 0.0) == 0.0
    assert info_G(0.5, 10.0) <= 0.5 * math.log(11.0)
    # the sharper reading also holds numerically on the grid
    for r in R_GRID:
        for gamma in GAMMA_GRID:
            assert info_G(r, gamma) <= 0.5 * r * math.log1p(gamma) + 1e-12


def test_info_v_closed_form_at_unit_aspect():
    for gamma in (0.5, 5.0, 1e4):
        assert info_V(1.0, gamma) == pytest.approx(0.5 * math.log1p(gamma / math.e))
    assert info_V(0.5, 0.0) == 0.0


def test_info_v_info_g_ratio():
    assert info_V(0.5, 10.0) / info_G(0.5, 10.0) < 1.0
    assert info_V(0.5, 1e6) / info_G(0.5, 1e6) > 0.99
    assert info_V(0.5, 1e8) / info_G(0.5, 1e8) > 0.999


def test_grid_monotonicity_and_envelopes():
    for r in R_GRID:
        prev_g = prev_v = -1.0
        for gamma in GAMMA_GRID:
            g = info_G(r, gamma)
            v = info_V(r, gamma)
            assert 0.0 <= v <= g + 1e-12
            assert g <= r * math.log1p(gamma) + 1e-12
            assert v >= min(r, 1.0) * 0.5 * math.log1p(gamma / math.e) - 1e-12
            assert g >= prev_g - 1e-12 and v >= prev_v - 1e-12
            prev_g, prev_v = g, v


def test_no_nans_at_corner_cases():
    vals = [
        info_G(1.0, 0.0),
        info_G(1.0, 1e12),
        info_V(1.0, 0.0),
        info_V(1.0 + 1e-15, 3.0),
        rate_R(0.5, 0.5),
        delta(1.0),
    ]
    assert all(math.isfinite(v) for v in vals)


# ---------------------------------------------------------------------------
# Source functionals
# ---------------------------------------------------------------------------


def test_theta_gaussian_is_one():
    sp = source_functionals(0.3, Gaussian(0.0, 7.0))
    assert sp.theta == pytest.approx(1.0, rel=1e-12)
    assert sp.entropy_power == pytest.approx(sp.variance, rel=1e-12)


def test_theta_uniform_zero_mean():
    sp = source_functionals(0.1, Uniform(0.0, 3.0))
    assert sp.theta == pytest.approx(12.0 / (2 * math.pi * math.e), rel=1e-12)


def test_pointmass_has_no_entropy_power():
    sp = source_functionals(0.1, PointMass(0.2, 1.0, limit=True))
    assert sp.entropy_power == 0.0 and sp.theta == 0.0


@pytest.mark.parametrize(
    "dist",
    [Gaussian(1.0, 2.0), Uniform(2.0, 1.0), PointMass(0.3, 1.0, limit=True), SlicedGaussian(0.5, 0.4)],
)
@pytest.mark.parametrize("omega", [1e-4, 0.1, 0.5])
def test_power_variance_chain(dist, omega):
    sp = source_functionals(omega, dist)
    assert (1 - omega) * sp.power <= sp.variance * (1 + 1e-12) + 1e-15
    assert sp.variance <= sp.power * (1 + 1e-12)
    assert 0.0 <= sp.theta <= 1.0 + 1e-12
    if sp.variance > 0:
        assert sp.entropy_power / sp.variance == pytest.approx(sp.theta, rel=1e-9, abs=1e-12)
