"""Closed-form scalar functions shared by every sampling-rate bound.

All entropies and rates are in nats.  The functions are pure and accept plain
floats.  Vectorized twins used by the implicit solvers live in ``bounds``;
they take an array of rates and a scalar ``gamma`` or one ``gamma`` per row,
which lets the genie-aided i.i.d. bound bisect all its ``beta`` rows at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import DistributionSpec, Gaussian, moments

TWO_PI_E = 2.0 * math.pi * math.e


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in nats, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log1p(-p)


def rate_R(omega: float, alpha: float) -> float:
    """Nats per dimension needed to encode a sparsity pattern of rate ``omega``
    to within relative-overlap distortion ``alpha``."""
    _check_omega(omega)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha >= 1.0 - omega:
        return 0.0
    return (
        binary_entropy(omega)
        - omega * binary_entropy(alpha)
        - (1.0 - omega) * binary_entropy(omega * alpha / (1.0 - omega))
    )


def rate_R_hamming(omega: float, alpha: float) -> float:
    """Hamming-distortion analog of :func:`rate_R`.

    Documented alternate form only; the bound evaluators use :func:`rate_R`.
    """
    _check_omega(omega)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return max(0.0, binary_entropy(omega) - binary_entropy(alpha))


def delta(r: float) -> float:
    """(1-r)^(1-1/r) on (0, 1], continuously extended to 1 at r = 1.

    Decreases from e at r -> 0+ to 1 at r = 1.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if r == 1.0:
        return 1.0
    return math.exp((1.0 - 1.0 / r) * math.log1p(-r))


def xi(r: float, gamma: float) -> float:
    """Auxiliary term of the asymptotic random-matrix log-determinant.

    Evaluated as 4*gamma^2*r / (s1 + s2)^2 to avoid cancellation between the
    two square roots.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if gamma == 0.0:
        return 0.0
    sr = math.sqrt(r)
    s1 = math.sqrt(gamma * (sr + 1.0) ** 2 + 1.0)
    s2 = math.sqrt(gamma * (sr - 1.0) ** 2 + 1.0)
    return 4.0 * gamma * gamma * r / (s1 + s2) ** 2


def info_G(r: float, gamma: float) -> float:
    """Asymptotic normalized log-determinant rate for an i.i.d. matrix of
    aspect ratio ``r`` at signal-to-noise ``gamma`` (nats per dimension)."""
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if gamma == 0.0:
        return 0.0
    x = xi(r, gamma)
    return 0.5 * (r * math.log1p(gamma - x) + math.log1p(r * gamma - x) - x / gamma)


def info_V(r: float, gamma: float) -> float:
    """Entropy-power lower envelope of :func:`info_G`; equals 0 at gamma = 0
    and approaches :func:`info_G` as gamma grows."""
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if gamma == 0.0:
        return 0.0
    if r <= 1.0:
        return 0.5 * r * math.log1p(gamma * delta(r) / math.e)
    return 0.5 * math.log1p(r * gamma * delta(1.0 / r) / math.e)


@dataclass(frozen=True)
class SourceParams:
    """Sparsity rate, value distribution, and the derived source functionals.

    ``power`` is the per-sample SNR under the unit-row-power matrix scaling,
    ``variance`` the effective Gaussian-coding variance, ``entropy_power``
    the density-driven part (0 without a density), and ``theta`` their
    normalized ratio in [0, 1], equal to 1 only for a zero-mean Gaussian.
    """

    omega: float
    dist: DistributionSpec
    power: float
    variance: float
    entropy_power: float
    theta: float

    def is_gaussian(self) -> bool:
        return isinstance(self.dist, Gaussian)


def source_functionals(omega: float, dist: DistributionSpec) -> SourceParams:
    """Evaluate power, variance, entropy power, and theta for a source."""
    _check_omega(omega)
    m = moments(dist)
    power = omega * m.second_moment
    variance = omega * (1.0 - omega) * m.mean**2 + omega * m.variance
    if m.diff_entropy is None:
        n_f = 0.0
    else:
        n_f = math.exp(2.0 * m.diff_entropy) / TWO_PI_E
    entropy_power = omega * n_f
    theta = n_f / (m.variance + (1.0 - omega) * m.mean**2)
    return SourceParams(omega, dist, power, variance, entropy_power, theta)


def _check_omega(omega: float) -> None:
    if not 0.0 < omega <= 0.5:
        raise ValueError(f"omega must lie in (0, 0.5], got {omega}")
