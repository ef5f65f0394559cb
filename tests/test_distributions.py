"""Distribution moments, truncation closed forms, and their oracles."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import srdbounds
from srdbounds.distributions import (
    Gaussian,
    PointMass,
    SlicedGaussian,
    Uniform,
    _density_and_support,
    decay_rate,
    moments,
    q_function,
    q_inverse,
    sample_values,
    scale_to_power,
    truncate,
    truncate_oracle,
)

ALL_VARIANTS = [
    Gaussian(0.0, 1.0),
    Gaussian(0.0, 4.0),
    Uniform(2.0, 1.0),
    Uniform(0.5, 1.0),
    PointMass(0.2, 1.0, outer_mass=0.1),
    PointMass(0.2, 1.0, limit=True),
    SlicedGaussian(0.5, 0.4),
]

CONTINUOUS = [v for v in ALL_VARIANTS if not isinstance(v, PointMass)]


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        Uniform(-0.5, 1.0)
    with pytest.raises(ValueError):
        PointMass(0.0, 1.0, outer_mass=0.1)  # atom at zero forbidden
    with pytest.raises(ValueError):
        PointMass(1.5, 1.0, outer_mass=0.1)  # floor above the power
    with pytest.raises(ValueError):
        PointMass(0.2, 1.0, outer_mass=1.0)
    with pytest.raises(ValueError):
        SlicedGaussian(0.0, 1.0)
    with pytest.raises(ValueError):
        SlicedGaussian(1.0, 0.0)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def test_standard_normal_moments():
    m = moments(Gaussian(0.0, 1.0))
    assert m.mean == 0.0 and m.variance == 1.0
    assert m.diff_entropy == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=1e-15)


def test_uniform_second_moment():
    m = moments(Uniform(2.0, 1.0))
    assert m.second_moment == pytest.approx(5.0, abs=1e-12)


def test_pointmass_limit_moments():
    m = moments(PointMass(0.2, 1.0, limit=True))
    assert m.mean == 0.0
    assert m.variance == pytest.approx(1.0)
    assert m.diff_entropy is None


def test_sliced_power_matches_montecarlo():
    dist = SlicedGaussian(0.5, 0.4)
    rng = np.random.Generator(np.random.Philox(key=5))
    draws = sample_values(dist, 2_000_000, rng)
    emp = float(np.mean(draws**2))
    se = float(np.std(draws**2) / math.sqrt(len(draws)))
    assert abs(emp - moments(dist).second_moment) <= 4 * se


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_second_moment_identity(dist):
    m = moments(dist)
    assert m.second_moment == pytest.approx(m.mean**2 + m.variance, rel=1e-12)


# ---------------------------------------------------------------------------
# Gaussian tail function
# ---------------------------------------------------------------------------


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    # oracle: scipy's survival function
    assert q_function(1.0) == pytest.approx(stats.norm.sf(1.0), abs=1e-15)
    assert q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-13)


def test_q_inverse_roundtrip():
    assert abs(q_inverse(0.5)) <= 1e-13
    for p in (1e-12, 1e-3, 0.25, 0.5, 0.75, 0.999, 1 - 1e-9):
        assert abs(q_function(q_inverse(p)) - p) <= 1e-13


def test_q_inverse_domain():
    for p in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            q_inverse(p)


# ---------------------------------------------------------------------------
# Truncation closed forms
# ---------------------------------------------------------------------------


def test_truncate_rejects_zero_beta():
    with pytest.raises(ValueError):
        truncate(Gaussian(0.0, 1.0), 0.0)


def test_gaussian_beta_one_is_untruncated():
    tr = truncate(Gaussian(0.0, 2.5), 1.0)
    assert tr.variance == pytest.approx(2.5, abs=1e-15)
    assert tr.diff_entropy == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 2.5))
    assert math.isinf(tr.threshold)


def test_gaussian_nonzero_mean_unsupported():
    with pytest.raises(ValueError):
        truncate(Gaussian(1.0, 1.0), 0.5)


def test_uniform_truncation_example():
    tr = truncate(Uniform(2.0, 1.0), 0.5)
    assert tr.mean == pytest.approx(2.0 - 0.5 * math.sqrt(3.0), abs=1e-12)
    assert tr.variance == pytest.approx(0.25, abs=1e-12)


def test_pointmass_floor_regime():
    tr = truncate(PointMass(0.2, 1.0, outer_mass=0.1), 0.05)
    assert tr.variance == pytest.approx(0.2, abs=0)
    assert tr.mean == 0.0 and tr.diff_entropy is None


def test_pointmass_mixture_regime_exact():
    dist = PointMass(0.2, 1.0, outer_mass=0.1)
    tr = truncate(dist, 0.95)
    # direct accounting: total power splits between kept and discarded mass
    kept = (0.9 * 0.2 + 0.05 * dist.outer_sq) / 0.95
    assert tr.variance == pytest.approx(kept, rel=1e-14)
    oracle = truncate_oracle(dist, 0.95, "quadrature")
    assert tr.variance == pytest.approx(oracle.result.variance, rel=1e-14)


@pytest.mark.parametrize("beta", [0.05, 0.5, 1.0])
def test_pointmass_limit_oracle_matches_truncate(beta):
    dist = PointMass(0.2, 1.0, limit=True)
    assert truncate_oracle(dist, beta, "quadrature").result == truncate(dist, beta)


def test_pointmass_limit_all_mass_at_floor():
    dist = PointMass(0.2, 1.0, limit=True)
    for beta in (0.01, 0.5, 0.999):
        assert truncate(dist, beta).variance == 0.2
    assert truncate(dist, 1.0).variance == 1.0


def test_gaussian_small_beta_quadratic_shrinkage():
    tr = truncate(Gaussian(0.0, 1.0), 1e-3)
    assert tr.variance / 1e-6 == pytest.approx(math.pi / 6.0, rel=1e-3)


# (beta, kept variance fraction r and entropy of a standard Gaussian, variance
# of SlicedGaussian(0.3, 1.1)), at the float beta shown
GAUSSIAN_CUT_REFERENCE = [
    (1e-12, 5.2359877559829885e-25, -26.712082582723875, 0.090000000000394339),
    (1e-09, 5.2359877559829894e-19, -19.804327303741738, 0.090000000394346081),
    (1e-06, 5.2359877559846332e-13, -12.89657202475934, 0.090000394346662978),
    (0.001, 5.2359894009178556e-7, -5.9888164839779942, 0.090394922097479866),
    (0.05, 0.0013100262742689852, -2.0761387272121837, 0.1111647916456751),
    (0.5, 0.1426518354885188, 0.29711727038898683, 0.45122256884998732),
    (0.95, 0.75884161706989729, 1.2470660473520708, 1.3758202889883696),
    (0.999999999, 0.99999996172265634, 1.4189385130660009, 1.6920969867673924),
]


@pytest.mark.parametrize(
    "beta, r, h, sliced_var",
    GAUSSIAN_CUT_REFERENCE,
    ids=[repr(row[0]) for row in GAUSSIAN_CUT_REFERENCE],
)
def test_gaussian_cut_matches_reference_values(beta, r, h, sliced_var):
    """The Gaussian and sliced-Gaussian cuts agree with values computed once
    by direct quadrature at 50 digits:

        import mpmath as mp
        mp.mp.dps = 50
        floor, sv = mp.mpf(0.3), mp.mpf(1.1)
        for beta in (1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-9):
            b = mp.mpf(beta)
            t = mp.sqrt(2) * mp.erfinv(b)
            phi = lambda x: mp.exp(-x * x / 2) / mp.sqrt(2 * mp.pi)
            r = 2 * mp.quad(lambda x: x * x * phi(x), [0, t]) / b
            r_abs = 2 * mp.quad(lambda x: x * phi(x), [0, t]) / b
            h = (mp.log(2 * mp.pi * b * b) + r) / 2
            var = floor**2 + r * sv + 2 * floor * mp.sqrt(sv) * r_abs
            print(beta, mp.nstr(r, 17), mp.nstr(h, 17), mp.nstr(var, 17))
    """
    # On both routes: the float's, and an array's (beta last of two).
    for route in (float, lambda b: np.array([0.5, b])):
        tr = truncate(Gaussian(0.0, 1.0), route(beta))
        assert np.atleast_1d(tr.variance)[-1] == pytest.approx(r, rel=1e-13, abs=0)
        assert np.atleast_1d(tr.diff_entropy)[-1] == pytest.approx(h, rel=1e-13, abs=0)
        sliced = truncate(SlicedGaussian(0.3, 1.1), route(beta)).variance
        assert np.atleast_1d(sliced)[-1] == pytest.approx(sliced_var, rel=1e-13, abs=0)


@pytest.mark.parametrize("dist", CONTINUOUS)
@pytest.mark.parametrize("beta", [0.05, 0.3, 0.7, 1.0])
def test_truncate_matches_quadrature(dist, beta):
    closed = truncate(dist, beta)
    oracle = truncate_oracle(dist, beta, "quadrature")
    assert closed.mean == pytest.approx(oracle.result.mean, abs=1e-8)
    assert closed.variance == pytest.approx(oracle.result.variance, abs=1e-8)
    assert closed.diff_entropy == pytest.approx(oracle.result.diff_entropy, abs=1e-8)


# Betas every array below holds, with the family's kinks: tiny, the smallest
# normal, subnormal, and 1.
EDGE_BETAS = [1e-300, 2.2250738585072014e-308, 1e-310, 5e-324, 1.0]


def _ulps_apart(a, b) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / np.spacing(max(abs(a), abs(b)))


@given(
    dist=st.sampled_from(ALL_VARIANTS + [Uniform(0.0, 1.0)]),
    betas=st.lists(st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=True), max_size=30),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_array_truncation_matches_the_float_route(dist, betas):
    """Every field of an array truncation is within 4 ulps of the float's at
    each beta, and the moments' own where the float's are at beta = 1.  Where
    some float truncation raises, the array raises under the row pass's error
    state, and the other betas are compared."""
    betas = [*betas, *EDGE_BETAS, *dist.kinks]
    ok, want = [], []
    for beta in betas:
        try:
            want.append(truncate(dist, beta))
            ok.append(beta)
        except (ValueError, ArithmeticError):
            pass
    if len(ok) < len(betas):
        with pytest.raises((ValueError, ArithmeticError)):
            with np.errstate(all="raise", under="ignore"):
                truncate(dist, np.array(betas))
    if not ok:
        return
    got = truncate(dist, np.array(ok))
    for field, column in zip(got._fields, got):
        for i, ref in enumerate(getattr(tr, field) for tr in want):
            value = column[i] if isinstance(column, np.ndarray) else column
            if ref is None or value is None:
                assert ref is value, field
            else:
                assert _ulps_apart(float(value), ref) <= 4, (field, ok[i], value, ref)
    full = truncate(dist, np.array([1.0]))
    m = moments(dist)
    if not isinstance(dist, Uniform | SlicedGaussian):  # the float's are the moments here
        assert (full.variance, full.diff_entropy) == (m.variance, m.diff_entropy)
        assert full == truncate(dist, 1.0)


@pytest.mark.parametrize("dist", ALL_VARIANTS, ids=repr)
def test_the_oracles_never_take_the_closed_form_route(monkeypatch, dist):
    # Neither oracle calls a family's truncate, the Gaussian cut, or the
    # helpers that pick math or NumPy for the closed forms.
    def closed_form_route(*args):
        raise AssertionError("an oracle called the closed-form route")

    for name in ("_gaussian_cut", "_lib", "_where"):
        monkeypatch.setattr(srdbounds.distributions, name, closed_form_route)
    monkeypatch.setattr(type(dist), "truncate", closed_form_route)
    with pytest.raises(AssertionError):
        truncate(dist, np.array([0.3, 1.0]))
    for beta in (0.3, 1.0):
        assert math.isfinite(truncate_oracle(dist, beta, "quadrature").result.variance)
    assert math.isfinite(truncate_oracle(dist, 0.3, "montecarlo", budget=2_000).result.variance)


def _reference_density(dist):
    """scipy.stats pdf, CDF and a 50-point grid reaching past the support."""
    if isinstance(dist, Gaussian):
        law = stats.norm(loc=dist.mean, scale=math.sqrt(dist.variance))
        return law.pdf, law.cdf, dist.mean + 7.0 * law.std() * np.linspace(-1, 1, 50)
    if isinstance(dist, Uniform):
        half = math.sqrt(3.0 * dist.variance)
        law = stats.uniform(loc=dist.mean - half, scale=2.0 * half)
        return law.pdf, law.cdf, dist.mean + 1.5 * half * np.linspace(-1, 1, 50)
    b = dist.floor
    core = stats.norm(scale=math.sqrt(dist.slice_variance))

    def pdf(x):
        return core.pdf(abs(x) - b) if abs(x) >= b else 0.0

    def cdf(x):
        return core.cdf(x - b) if x >= b else core.cdf(x + b) if x <= -b else 0.5

    return pdf, cdf, (b + 7.0 * core.std()) * np.linspace(-1, 1, 50)


ORACLE_LAWS = [
    Gaussian(0.0, 1.0),
    Gaussian(1.5, 2.0),
    Uniform(2.0, 1.0),
    Uniform(0.5, 1.0),
    SlicedGaussian(0.5, 0.4),
]


@pytest.mark.parametrize("dist", ORACLE_LAWS, ids=repr)
def test_oracle_densities_match_scipy_stats(dist):
    pdf, cdf, _ = _density_and_support(dist)
    ref_pdf, ref_cdf, grid = _reference_density(dist)
    # Seven standard deviations out, the two erfc implementations part by a
    # few units in the last place.
    for x in map(float, grid):
        assert pdf(x) == pytest.approx(float(ref_pdf(x)), rel=1e-15, abs=0), x
        assert cdf(x) == pytest.approx(float(ref_cdf(x)), rel=2e-15, abs=0), x


@pytest.mark.parametrize("dist", ORACLE_LAWS, ids=repr)
def test_quadrature_oracle_avoids_the_closed_form_route(monkeypatch, dist):
    def closed_form_route(*args):
        raise AssertionError("the oracle called truncate's special function")

    monkeypatch.setattr(special, "erfinv", closed_form_route)
    monkeypatch.setattr(special, "gammainc", closed_form_route)
    if isinstance(dist, Gaussian) and dist.mean != 0.0:
        # Refused before any special function is called.
        with pytest.raises(ValueError, match="zero-mean"):
            truncate(dist, 0.3)
    elif not isinstance(dist, Uniform):
        with pytest.raises(AssertionError):
            truncate(dist, 0.3)
    for beta in (0.3, 1.0):
        oracle = truncate_oracle(dist, beta, "quadrature")
        assert math.isfinite(oracle.result.variance)


def test_sliced_variance_matches_montecarlo():
    # adjudicates the sign convention in the shifted-magnitude cross term
    dist = SlicedGaussian(0.5, 0.4)
    closed = truncate(dist, 0.7)
    mc = truncate_oracle(dist, 0.7, "montecarlo", budget=10_000_000, seed=42)
    assert abs(closed.variance - mc.result.variance) <= 3 * mc.variance_err


def test_uniform_beta_one_matches_moments():
    m = moments(Uniform(0.0, 1.0))
    oracle = truncate_oracle(Uniform(0.0, 1.0), 1.0, "quadrature")
    assert oracle.result.mean == pytest.approx(m.mean, abs=1e-10)
    assert oracle.result.variance == pytest.approx(m.variance, abs=1e-10)


# ---------------------------------------------------------------------------
# Truncation invariants (property tests)
# ---------------------------------------------------------------------------


@given(beta=st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_truncation_never_raises_power(beta):
    for dist in ALL_VARIANTS:
        tr = truncate(dist, beta)
        m = moments(dist)
        assert tr.second_moment <= m.second_moment * (1 + 1e-9)


@given(
    beta_lo=st.floats(min_value=1e-4, max_value=1.0),
    beta_hi=st.floats(min_value=1e-4, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_truncated_power_monotone_in_beta(beta_lo, beta_hi):
    if beta_lo > beta_hi:
        beta_lo, beta_hi = beta_hi, beta_lo
    for dist in ALL_VARIANTS:
        lo = truncate(dist, beta_lo).second_moment
        hi = truncate(dist, beta_hi).second_moment
        assert lo <= hi * (1 + 1e-9) + 1e-15


@given(beta=st.floats(min_value=1e-4, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_entropy_power_below_variance(beta):
    for dist in CONTINUOUS:
        tr = truncate(dist, beta)
        entropy_power = math.exp(2.0 * tr.diff_entropy) / (2 * math.pi * math.e)
        assert entropy_power <= tr.variance * (1 + 1e-9)


def test_entropy_power_equality_only_for_full_gaussian():
    tr = truncate(Gaussian(0.0, 2.0), 1.0)
    entropy_power = math.exp(2.0 * tr.diff_entropy) / (2 * math.pi * math.e)
    assert entropy_power == pytest.approx(tr.variance, rel=1e-12)


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_beta_one_reproduces_untruncated_moments(dist):
    if isinstance(dist, Gaussian) and dist.mean != 0.0:
        return
    tr = truncate(dist, 1.0)
    m = moments(dist)
    assert tr.mean == pytest.approx(m.mean, abs=1e-14)
    assert tr.variance == pytest.approx(m.variance, rel=1e-12)
    if m.diff_entropy is None:
        assert tr.diff_entropy is None
    else:
        assert tr.diff_entropy == pytest.approx(m.diff_entropy, rel=1e-12)


def test_threshold_increasing_in_beta():
    betas = np.linspace(0.05, 0.999, 40)
    for dist in CONTINUOUS:
        thresholds = [truncate(dist, float(b)).threshold for b in betas]
        assert all(t2 > t1 for t1, t2 in zip(thresholds, thresholds[1:]))


# ---------------------------------------------------------------------------
# Decay rate and power scaling
# ---------------------------------------------------------------------------


def test_decay_rates():
    assert decay_rate(Gaussian(0.0, 1.0)) == 1.0
    assert decay_rate(Uniform(2.0, 1.0)) == 0.0  # ratio 4 > 3
    assert decay_rate(Uniform(math.sqrt(2.3), 1.0)) == 1.0
    assert decay_rate(PointMass(0.2, 1.0, limit=True)) == 0.0
    assert decay_rate(SlicedGaussian(0.5, 0.4)) == 0.0


def test_only_a_finite_point_mass_has_a_kink():
    # The truncated variance leaves the floor at beta = 1 - outer_mass.  Like
    # decay_rate, kinks is not a field: repr, equality and hashing ignore it.
    pm = PointMass(0.2, 1.0, outer_mass=0.1)
    (kink,) = pm.kinks
    assert kink == 1.0 - pm.outer_mass
    assert truncate(pm, kink).variance == pm.floor_sq < truncate(pm, kink + 1e-9).variance
    assert all(dist.kinks == () for dist in ALL_VARIANTS if dist != pm)
    for dist in ALL_VARIANTS:
        assert {"kinks", "decay_rate"}.isdisjoint(f.name for f in dataclasses.fields(dist))
    assert repr(pm) == "PointMass(floor_sq=0.2, power=1.0, outer_mass=0.1, limit=False)"


def test_scale_to_power_gaussian():
    scaled = scale_to_power(Gaussian(0.0, 1.0), 0.1, 1.0)
    assert isinstance(scaled, Gaussian)
    assert scaled.variance == pytest.approx(10.0, rel=1e-12)


def test_scale_to_power_pointmass_preserves_shape():
    dist = PointMass(0.2, 1.0, limit=True)
    scaled = scale_to_power(dist, 1e-4, 1e-4 * 7.0)
    assert scaled.floor_sq / scaled.power == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_scale_to_power_hits_target_and_keeps_decay(dist):
    scaled = scale_to_power(dist, 0.2, 3.0)
    assert 0.2 * moments(scaled).second_moment == pytest.approx(3.0, rel=1e-12)
    assert decay_rate(scaled) == decay_rate(dist)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_sampler_moments(dist):
    if isinstance(dist, PointMass) and dist.limit:
        return  # limit draws sit at the floor; power escapes to the outer atom
    rng = np.random.Generator(np.random.Philox(key=9))
    draws = sample_values(dist, 400_000, rng)
    emp = float(np.mean(draws**2))
    se = float(np.std(draws**2) / math.sqrt(len(draws)))
    assert abs(emp - moments(dist).second_moment) <= 4 * se + 1e-12


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

FAMILIES = {"Gaussian", "Uniform", "PointMass", "SlicedGaussian"}
# The oracles are the independent route and share nothing with the closed
# forms, which each family owns; nothing else asks a value which family it is.
FAMILY_CHECKS_ALLOWED = {"_density_and_support", "_quadrature_oracle", "SourceParams.is_gaussian"}


def _family_isinstance_scopes(tree):
    """The qualified name of the function around each ``isinstance(x, F)``
    call whose class argument names a value family."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
            ):
                kinds = child.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                names = {getattr(k, "id", getattr(k, "attr", None)) for k in kinds}
                if names & FAMILIES:
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_oracles_and_is_gaussian_ask_for_a_family():
    scopes = {}
    for path in sorted(Path(srdbounds.__file__).parent.glob("*.py")):
        for scope in _family_isinstance_scopes(ast.parse(path.read_text())):
            scopes.setdefault(scope, []).append(path.name)
    assert set(scopes) == FAMILY_CHECKS_ALLOWED, scopes


def test_bounds_warns_only_from_its_record():
    # Every warning of the bound module leaves through one writer, the record,
    # and nothing else there logs.
    tree = ast.parse(Path(srdbounds.bounds.__file__).read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (node.func.attr in {"warning", "warn"} or ast.unparse(node.func.value) == "log")
    ]
    (record,) = [node for node in tree.body if getattr(node, "name", None) == "_record"]
    assert len(calls) == 1 and calls[0] in list(ast.walk(record))
    # Nor does the module define or use the paths the record replaced.
    names = {getattr(node, "name", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert not names & {"_held_crossings", "_warn_crossings", "_crossing_summary"}


def test_montecarlo_factors_in_one_loop():
    # Both random-matrix limits read one bidiagonal draw: the module calls no
    # Cholesky factor and no redraw remains, and the samplers form no matrix
    # product (no Gram) and call nothing from np.linalg.
    source = Path(srdbounds.montecarlo.__file__).read_text()
    tree = ast.parse(source)
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [name for name in calls if "cholesky" in name]
    assert "LinAlgError" not in source and "_sampled_logdets" not in source
    sampler_names = {"_sampled_bidiagonals", "_mp_logdets", "mp_logdet", "det_power"}
    samplers = [node for node in tree.body if getattr(node, "name", None) in sampler_names]
    assert len(samplers) == len(sampler_names)
    for node in (node for sampler in samplers for node in ast.walk(sampler)):
        assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            assert "linalg" not in name, name
            assert name.split(".")[-1] not in {"dot", "matmul", "einsum", "inner", "tensordot"}
