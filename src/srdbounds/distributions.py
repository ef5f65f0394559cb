"""Nonzero-value distributions: moments, magnitude truncation, decay rate.

Four parametric families are supported, all with finite positive power and no
probability mass at zero.  Each is a frozen dataclass that owns its closed
forms (``moments``, ``truncate``, ``sample``, ``decay_rate``, ``scaled``) and
says where they have ``kinks``; the module functions are the public names.
``truncate`` keeps the smallest-magnitude fraction ``beta`` of a distribution
and returns its mean, variance, and differential entropy in closed form, for a
float ``beta`` with ``math`` or an ndarray with NumPy (one formula per family,
as in ``ratefun``; an array's values are within a few ulps of the floats', and
exact at ``beta = 1`` where the float's are); ``truncate_oracle`` recomputes
the same quantities by adaptive quadrature of the closed-form densities (or
exact atom summation) and by Monte Carlo so the closed forms can be checked
independently.  Only the oracles use ``scipy.integrate`` and
``scipy.optimize``, and they import them when first called, so a process
that runs no oracle loads only ``scipy.special`` from scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import ClassVar, NamedTuple

import numpy as np
from scipy import special

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
SQRT2 = math.sqrt(2.0)
SQRT_HALF = math.sqrt(0.5)
SQRT3 = math.sqrt(3.0)


class AccuracyError(RuntimeError):
    """Raised when a numerical oracle cannot reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Distribution specifications and their closed forms
# ---------------------------------------------------------------------------
# ``truncate(beta)`` takes the ``beta`` in (0, 1] that the module function
# checks.  ``kinks`` (the retained fractions in (0, 1) where the truncated
# moments are not smooth) and ``decay_rate`` are not dataclass fields, so
# constructors, ``repr``, equality and hashing see only the parameters.


def _check_second_moment(mean: float, variance: float) -> None:
    """Refuse a finite mean and variance whose second moment is not finite."""
    if not math.isfinite(mean * mean + variance):
        raise ValueError(f"mean^2 + variance overflows the float range (mean={mean:g})")


@dataclass(frozen=True)
class Gaussian:
    """Gaussian nonzero values with the given mean and variance."""

    mean: float = 0.0
    variance: float = 1.0
    decay_rate: ClassVar[float] = 1.0
    kinks: ClassVar[tuple[float, ...]] = ()

    def __post_init__(self):
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if not math.isfinite(self.mean):
            raise ValueError("mean must be finite")
        _check_second_moment(self.mean, self.variance)

    def moments(self) -> Moments:
        h = 0.5 * math.log(2.0 * math.pi * math.e * self.variance)
        return Moments(self.mean, self.variance, self.mean**2 + self.variance, h)

    def truncate(self, beta) -> TruncationResult:
        """Zero mean only; ``beta = 1`` returns the moments exactly."""
        if self.mean != 0.0:
            raise ValueError("closed-form truncation requires a zero-mean Gaussian")
        _, t, r = _gaussian_cut(beta)
        h = 0.5 * (_lib(beta).log(2.0 * math.pi * beta * beta * self.variance) + r)
        one = beta == 1.0  # where the entropy is the moments' own
        if one.any() if type(one) is np.ndarray else one:
            h = _where(one, self.moments().diff_entropy, h)
        return TruncationResult(beta, t, 0.0, r * self.variance, h)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + math.sqrt(self.variance) * rng.standard_normal(size)

    def scaled(self, c2: float) -> Gaussian:
        return Gaussian(math.sqrt(c2) * self.mean, c2 * self.variance)


@dataclass(frozen=True)
class Uniform:
    """Continuous uniform nonzero values with nonnegative mean.

    The support is the interval ``mean ± sqrt(3 * variance)``.
    """

    mean: float = 0.0
    variance: float = 1.0
    kinks: ClassVar[tuple[float, ...]] = ()

    def __post_init__(self):
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be positive and finite, got {self.variance}")
        if not (self.mean >= 0 and math.isfinite(self.mean)):
            raise ValueError(f"mean must be nonnegative and finite, got {self.mean}")
        _check_second_moment(self.mean, self.variance)

    @property
    def decay_rate(self) -> float:  # 1 when the support reaches the origin
        return 1.0 if self.mean**2 <= 3.0 * self.variance else 0.0

    def moments(self) -> Moments:
        h = 0.5 * math.log(12.0 * self.variance)
        return Moments(self.mean, self.variance, self.mean**2 + self.variance, h)

    def truncate(self, beta) -> TruncationResult:
        a = self.mean - SQRT3 * math.sqrt(self.variance)
        b = self.mean + SQRT3 * math.sqrt(self.variance)
        width = beta * (b - a)
        straddle = (a < 0) & (width <= -2 * a)  # the kept interval is centred on 0
        lo, hi = _where(straddle, -0.5 * width, a), _where(straddle, 0.5 * width, a + width)
        mean = 0.5 * (lo + hi)
        var = beta * beta * self.variance
        h = 0.5 * _lib(beta).log(12.0 * var)
        return TruncationResult(beta, hi, mean, var, h)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        half = SQRT3 * math.sqrt(self.variance)
        return self.mean + half * (2.0 * rng.random(size) - 1.0)

    def scaled(self, c2: float) -> Uniform:
        return Uniform(math.sqrt(c2) * self.mean, c2 * self.variance)


@dataclass(frozen=True)
class PointMass:
    """Symmetric two-magnitude discrete values.

    Mass ``1 - outer_mass`` sits at magnitude ``sqrt(floor_sq)`` and mass
    ``outer_mass`` at the larger magnitude that brings the power up to
    ``power``.  With ``limit=True`` the outer atoms carry vanishing mass
    (``outer_mass`` is ignored): every truncation with ``beta < 1`` then keeps
    only the floor atoms.
    """

    floor_sq: float
    power: float
    outer_mass: float = 0.0
    limit: bool = False
    decay_rate: ClassVar[float] = 0.0

    def __post_init__(self):
        if not (self.power > 0 and math.isfinite(self.power)):
            raise ValueError(f"power must be positive and finite, got {self.power}")
        if not 0 < self.floor_sq <= self.power:
            raise ValueError(
                f"floor_sq must lie in (0, power]; got {self.floor_sq} with power {self.power}"
            )
        if not self.limit:
            if not 0 < self.outer_mass < 1:
                raise ValueError(f"outer_mass must lie in (0, 1), got {self.outer_mass}")
            if self.power - (1 - self.outer_mass) * self.floor_sq < 0:
                raise ValueError("outer atom squared magnitude would be negative")

    @property
    def outer_sq(self) -> float:
        """Squared magnitude of the outer atoms (infinite in the limit case)."""
        if self.limit:
            return math.inf
        return (self.power - (1 - self.outer_mass) * self.floor_sq) / self.outer_mass

    @property
    def kinks(self) -> tuple[float, ...]:
        """The truncated variance leaves the floor at ``beta = 1 - outer_mass``."""
        return () if self.limit else (1.0 - self.outer_mass,)

    def moments(self) -> Moments:
        # Atoms are placed symmetrically, so the mean vanishes and the
        # variance equals the power regardless of outer_mass.
        return Moments(0.0, self.power, self.power, None)

    def truncate(self, beta) -> TruncationResult:
        if self.limit:  # the outer atoms' vanishing mass is kept only at beta = 1
            outer, var = beta == 1.0, self.power
        else:
            eps = self.outer_mass
            outer = beta > 1.0 - eps  # some outer atoms are kept
            b = _where(outer, beta, 1.0 - eps)  # the floor's betas take the floor's variance
            var = self.power - (1.0 - b) * (1.0 - eps) / (b * eps) * (self.power - self.floor_sq)
        t = _where(outer, math.sqrt(self.outer_sq), math.sqrt(self.floor_sq))
        return TruncationResult(beta, t, 0.0, _where(outer, var, self.floor_sq), None)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """The limit case draws only its floor atoms."""
        signs = rng.choice([-1.0, 1.0], size=size)
        if self.limit:
            return signs * math.sqrt(self.floor_sq)
        outer = rng.random(size) < self.outer_mass
        return signs * np.where(outer, math.sqrt(self.outer_sq), math.sqrt(self.floor_sq))

    def scaled(self, c2: float) -> PointMass:
        return replace(self, floor_sq=c2 * self.floor_sq, power=c2 * self.power)


@dataclass(frozen=True)
class SlicedGaussian:
    """Gaussian magnitudes shifted away from zero by a hard floor.

    A draw is ``Z + sign(Z) * floor`` with ``Z`` zero-mean Gaussian of variance
    ``slice_variance``, so the support excludes ``(-floor, floor)``.
    """

    floor: float
    slice_variance: float
    decay_rate: ClassVar[float] = 0.0
    kinks: ClassVar[tuple[float, ...]] = ()

    def __post_init__(self):
        if not (self.floor > 0 and math.isfinite(self.floor)):
            raise ValueError(f"floor must be positive and finite, got {self.floor}")
        if not (self.slice_variance > 0 and math.isfinite(self.slice_variance)):
            raise ValueError(
                f"slice_variance must be positive and finite, got {self.slice_variance}"
            )

    @property
    def power(self) -> float:
        b = self.floor
        sz = math.sqrt(self.slice_variance)
        return b * b + 2.0 * b * sz * SQRT_2_OVER_PI + self.slice_variance

    def moments(self) -> Moments:
        h = 0.5 * math.log(2.0 * math.pi * math.e * self.slice_variance)
        return Moments(0.0, self.power, self.power, h)

    def truncate(self, beta) -> TruncationResult:
        e, t, r = _gaussian_cut(beta)
        sz2, lib = self.slice_variance, _lib(beta)
        # E[|Z|; |Z| <= t] / beta for a standard Gaussian Z
        r_tilde = SQRT_2_OVER_PI * (-lib.expm1(-e * e)) / beta
        var = self.floor**2 + r * sz2 + 2.0 * self.floor * math.sqrt(sz2) * r_tilde
        h = 0.5 * (lib.log(2.0 * math.pi * beta * beta * sz2) + r)
        return TruncationResult(beta, t, 0.0, var, h)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        z = math.sqrt(self.slice_variance) * rng.standard_normal(size)
        return z + np.sign(z) * self.floor

    def scaled(self, c2: float) -> SlicedGaussian:
        return SlicedGaussian(math.sqrt(c2) * self.floor, c2 * self.slice_variance)


DistributionSpec = Gaussian | Uniform | PointMass | SlicedGaussian


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """Mean, variance, second moment, and differential entropy of a distribution.

    ``diff_entropy`` is ``None`` for distributions without a density.
    """

    mean: float
    variance: float
    second_moment: float
    diff_entropy: float | None


class TruncationResult(NamedTuple):  # built in a third of a frozen dataclass's time
    """Moments of the smallest-magnitude fraction ``beta`` of a distribution;
    for an array of ``beta``, an array of each field that depends on ``beta``.

    ``threshold`` is the magnitude cutoff: in standardized units for Gaussian
    and sliced-Gaussian variants (the kept region is ``|x| <= sigma * t`` and
    ``|x| <= floor + slice_sigma * t`` respectively), absolute otherwise.
    """

    beta: float
    threshold: float
    mean: float
    variance: float
    diff_entropy: float | None

    @property
    def second_moment(self) -> float:
        return self.mean * self.mean + self.variance


@dataclass(frozen=True)
class OracleTruncation:
    """Truncated moments recomputed by an independent numerical route.

    Error fields are absolute-error estimates for quadrature and standard
    errors for Monte Carlo; ``entropy_err`` is ``None`` when the oracle does
    not estimate entropy (Monte Carlo, discrete variants).
    """

    result: TruncationResult
    mean_err: float
    variance_err: float
    entropy_err: float | None


def _gaussian_cut(beta):
    """``(e, t, r)`` for a standard Gaussian cut at ``|z| <= t`` keeping mass
    ``beta``: ``e = t / sqrt(2) = erfinv(beta)`` (inf at ``beta = 1``) and the
    kept variance fraction ``r = P(chi2_3 <= t^2) / beta = gammainc(3/2, e^2) / beta``:
    floats for a float ``beta``, arrays for an array."""
    e = special.erfinv(beta)
    r = special.gammainc(1.5, e * e) / beta
    return (e, SQRT2 * e, r) if type(beta) is np.ndarray else (float(e), SQRT2 * float(e), float(r))


def _lib(beta):
    """NumPy for an array ``beta``, else ``math``."""
    return np if type(beta) is np.ndarray else math


def _where(cond, a, b):
    """``a`` where ``cond`` holds, else ``b``: ``np.where`` for an array ``cond``."""
    return np.where(cond, a, b) if type(cond) is np.ndarray else a if cond else b


# ---------------------------------------------------------------------------
# Truncation oracles
# ---------------------------------------------------------------------------


def _gaussian_pdf_cdf(mean: float, sigma: float):
    """Scalar density and CDF of a Gaussian, written out in ``math``."""
    c = 1.0 / (sigma * math.sqrt(2.0 * math.pi))

    def pdf(x):
        z = (x - mean) / sigma
        return c * math.exp(-0.5 * z * z)

    def cdf(x):
        return 0.5 * math.erfc(-(x - mean) / sigma * SQRT_HALF)

    return pdf, cdf


def _density_and_support(dist):
    """Scalar density and CDF closures and the support intervals of the
    continuous variants.  They are written out in ``math`` and share nothing
    with :func:`truncate`'s ``erfinv``/``gammainc`` route."""
    if isinstance(dist, Gaussian):
        pdf, cdf = _gaussian_pdf_cdf(dist.mean, math.sqrt(dist.variance))
        return pdf, cdf, [(-math.inf, math.inf)]
    if isinstance(dist, Uniform):
        a = dist.mean - SQRT3 * math.sqrt(dist.variance)
        b = dist.mean + SQRT3 * math.sqrt(dist.variance)
        width = b - a

        def pdf(x):
            return 1.0 / width if a <= x <= b else 0.0

        def cdf(x):
            return min(max((x - a) / width, 0.0), 1.0)

        return pdf, cdf, [(a, b)]
    if isinstance(dist, SlicedGaussian):
        b = dist.floor
        core_pdf, core_cdf = _gaussian_pdf_cdf(0.0, math.sqrt(dist.slice_variance))

        def pdf(x):
            ax = abs(x)
            return core_pdf(ax - b) if ax >= b else 0.0

        def cdf(x):
            # X = Z + sign(Z) * b, so the CDF is flat on (-b, b) at 1/2.
            if x >= b:
                return core_cdf(x - b)
            if x <= -b:
                return core_cdf(x + b)
            return 0.5

        return pdf, cdf, [(-math.inf, -b), (b, math.inf)]
    raise ValueError(f"no density for {dist!r}")


def _magnitude_quantile(dist, beta: float) -> float:
    """Absolute threshold t with Pr{|X| <= t} = beta, found by bracketed root."""
    from scipy import optimize

    _, cdf, _ = _density_and_support(dist)

    def mass(t):
        return cdf(t) - cdf(-t)

    hi = 1.0
    while mass(hi) < beta and hi < 1e12:
        hi *= 2.0
    return float(optimize.brentq(lambda t: mass(t) - beta, 0.0, hi, xtol=1e-14, rtol=1e-15))


def _quadrature_oracle(dist, beta: float) -> OracleTruncation:
    from scipy import integrate

    if isinstance(dist, PointMass):
        return _atom_oracle(dist, beta)
    pdf, _, support = _density_and_support(dist)
    t = math.inf if beta == 1.0 else _magnitude_quantile(dist, beta)

    pieces = []
    for lo, hi in support:
        lo_c, hi_c = max(lo, -t), min(hi, t)
        if lo_c < hi_c:
            pieces.append((lo_c, hi_c))

    def integrate_f(g):
        total, err = 0.0, 0.0
        for lo, hi in pieces:
            val, e = integrate.quad(g, lo, hi, limit=200, epsabs=1e-12, epsrel=1e-12)
            total += val
            err += e
        return total, err

    mass, mass_err = integrate_f(pdf)
    if abs(mass - beta) > 1e-7:
        raise AccuracyError(f"quadrature mass {mass} missed beta {beta}")
    m1, e1 = integrate_f(lambda x: x * pdf(x))
    m2, e2 = integrate_f(lambda x: x * x * pdf(x))
    neg_ent, e3 = integrate_f(lambda x: (p := pdf(x)) * math.log(max(p, 1e-300)))
    mean = m1 / beta
    var = m2 / beta - mean * mean
    # Truncated density is pdf/beta on the kept region.
    h = math.log(beta) - neg_ent / beta
    return OracleTruncation(
        TruncationResult(beta, t, mean, var, h),
        mean_err=e1 / beta,
        variance_err=e2 / beta,
        entropy_err=e3 / beta,
    )


def _atom_oracle(dist: PointMass, beta: float) -> OracleTruncation:
    """Truncated moments from the finite atom list, in exact rational
    arithmetic over the squared magnitudes (floats convert losslessly)."""
    if dist.limit:
        if beta == 1.0:
            res = TruncationResult(1.0, math.inf, 0.0, dist.power, None)
        else:
            res = TruncationResult(beta, math.sqrt(dist.floor_sq), 0.0, dist.floor_sq, None)
        return OracleTruncation(res, 0.0, 0.0, None)
    # The regime boundary is decided in float arithmetic (matching the public
    # contract); the moments within a regime are exact rationals.
    if beta <= 1.0 - dist.outer_mass:
        res = TruncationResult(beta, math.sqrt(dist.floor_sq), 0.0, dist.floor_sq, None)
        return OracleTruncation(res, 0.0, 0.0, None)
    b2 = Fraction(dist.floor_sq)
    power = Fraction(dist.power)
    eps = Fraction(dist.outer_mass)
    beta_f = Fraction(beta)
    outer_sq = (power - (1 - eps) * b2) / eps
    m2 = (1 - eps) * b2 + (beta_f - (1 - eps)) * outer_sq
    var = float(m2 / beta_f)
    res = TruncationResult(beta, math.sqrt(float(outer_sq)), 0.0, var, None)
    return OracleTruncation(res, 0.0, 0.0, None)


def _montecarlo_oracle(dist, beta: float, budget: int, seed: int) -> OracleTruncation:
    # Batch means: each batch truncates its own draws, so the reported
    # standard errors include the threshold-selection noise, not just the
    # within-sample spread.
    batches = 25
    per_batch = max(budget // batches, 10)
    from .montecarlo import trial_rng  # imported here: montecarlo imports this module

    rng = trial_rng(seed, -1)  # no trial has index -1: the oracle's own stream
    means, variances, thresholds = [], [], []
    for _ in range(batches):
        x = sample_values(dist, per_batch, rng)
        keep = max(1, int(math.floor(beta * per_batch)))
        # Magnitudes that all differ have one ascending order, so the default
        # sort keeps the same draws in the same order as a stable one; only
        # ties (atoms) need the stable sort's first-drawn-first rule.
        mags = np.abs(x)
        order = np.argsort(mags)
        ranked = mags[order]
        if not np.all(ranked[1:] > ranked[:-1]):
            order = np.argsort(mags, kind="stable")
        kept = x[order[:keep]]
        means.append(float(np.mean(kept)))
        variances.append(float(np.var(kept, ddof=1)) if keep > 1 else 0.0)
        thresholds.append(float(np.abs(kept[-1])))
    mean = float(np.mean(means))
    var = float(np.mean(variances))
    se_mean = float(np.std(means, ddof=1) / math.sqrt(batches))
    se_var = float(np.std(variances, ddof=1) / math.sqrt(batches))
    return OracleTruncation(
        TruncationResult(beta, float(np.mean(thresholds)), mean, var, None),
        mean_err=se_mean,
        variance_err=se_var,
        entropy_err=None,
    )


def truncate_oracle(
    dist: DistributionSpec,
    beta: float,
    method: str = "quadrature",
    budget: int = 1_000_000,
    seed: int = 0,
) -> OracleTruncation:
    """Recompute truncated moments independently of the closed forms.

    ``method="quadrature"`` integrates the density over the kept magnitude
    region (exact atom summation for the discrete variant); ``"montecarlo"``
    keeps the empirically smallest ``beta`` fraction of ``budget`` draws.
    Intended for verification against :func:`truncate`.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if method == "quadrature":
        return _quadrature_oracle(dist, beta)
    if method == "montecarlo":
        return _montecarlo_oracle(dist, beta, budget, seed)
    raise ValueError(f"unknown oracle method {method!r}")


# ---------------------------------------------------------------------------
# Moments, truncation, sampling, decay rate, power scaling
# ---------------------------------------------------------------------------


def moments(dist: DistributionSpec) -> Moments:
    """Exact mean, variance, second moment, and entropy of a distribution."""
    return dist.moments()


def truncate(dist: DistributionSpec, beta) -> TruncationResult:
    """Closed-form moments of the smallest-magnitude fraction ``beta``, a float
    or an array (see the module docstring).

    ``beta = 1`` gives the untruncated moments up to rounding (the Gaussian
    and the point masses return them exactly); ``beta = 0`` is a domain
    error.  The Gaussian closed form requires a zero mean.
    """
    array = type(beta) is np.ndarray
    if not (((0.0 < beta) & (beta <= 1.0)).all() if array else 0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    return dist.truncate(beta)


def sample_values(dist: DistributionSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. values.  The limiting point-mass draws only its floor atoms."""
    return dist.sample(size, rng)


def decay_rate(dist: DistributionSpec) -> float:
    """How fast mass near zero vanishes: 0 for supports bounded away from zero,
    1 when the density is positive and flat through the origin."""
    return dist.decay_rate


def scale_to_snr(dist: DistributionSpec, omega: float, snr_db: float) -> DistributionSpec:
    """Rescale to the per-sample SNR ``10^(snr_db / 10)`` against unit noise."""
    try:
        power = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"an SNR of {snr_db} dB overflows the float range") from None
    return scale_to_power(dist, omega, power)


def _check_omega(omega: float) -> None:
    """Refuse a sparsity rate outside (0, 0.5]."""
    if not 0.0 < omega <= 0.5:
        raise ValueError(f"omega must lie in (0, 0.5], got {omega}")


def scale_to_power(dist: DistributionSpec, omega: float, target_power: float) -> DistributionSpec:
    """Rescale so the vector-source power ``omega * E[X^2]`` equals the target.

    Scaling is linear in the values, so the decay rate and all shape ratios
    are preserved.  A power that underflows to 0 raises ValueError.
    """
    _check_omega(omega)
    if not target_power > 0:
        raise ValueError(f"target power must be positive, got {target_power}")
    if not (power := omega * moments(dist).second_moment) > 0.0:
        raise ValueError(f"the source power omega * E[X^2] underflows to 0 at omega={omega}")
    return dist.scaled(target_power / power)
