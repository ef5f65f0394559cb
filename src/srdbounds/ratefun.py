"""Closed-form functions shared by every sampling-rate bound.

All entropies and rates are in nats.  The functions are pure.  The
random-matrix rate functions (``delta``, ``xi``, ``info_G``, ``info_V``),
``binary_entropy`` and ``rate_R`` take a float or an ndarray; all but
``delta`` are one formula each, evaluated with ``math`` or NumPy as the
argument's type picks.  A float runs ``math``: an implicit solve bisects with
single rates, and ``math`` is about ten times faster than NumPy on one value.
An array runs NumPy, broadcasting ``r`` against a scalar ``gamma`` or one
``gamma`` per row, which lets a solver scan a whole rate grid at once, or a
block of grids with one ``gamma`` each (t4's top-down pass bounds one row per
retained fraction at the ends of each 64-rate chunk, then evaluates on a chunk
only the rows its bound does not clear).  Each element of an array goes
through the same float operations whatever the broadcast, so a row of a block
is bit-identical to the same row scanned alone.  Both evaluations raise the
same errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, Gaussian, moments

TWO_PI_E = 2.0 * math.pi * math.e


def binary_entropy(p: float | np.ndarray) -> float | np.ndarray:
    """Entropy of a Bernoulli(p) in nats, with H(0) = H(1) = 0 by continuity;
    ``p`` is a float or an array."""
    array = type(p) is np.ndarray
    if not (((0.0 <= p) & (p <= 1.0)).all() if array else 0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return _entropy(p, np if array else math)


def rate_R(omega: float | np.ndarray, alpha: float | np.ndarray) -> float | np.ndarray:
    """Nats per dimension needed to encode a sparsity pattern of rate ``omega``
    to within relative-overlap distortion ``alpha``; clamped at 0, as the
    entropies cancel to a round-off of either sign just below ``1 - omega``.
    Takes floats, or two arrays of one shape (one pair per genie ``beta``)."""
    if array := type(omega) is np.ndarray:
        _check_args(omega.min(), alpha.min())  # a range holds if both its ends do
        _check_args(omega.max(), alpha.max())
        if (free := alpha >= 1.0 - omega).any():
            return np.where(free, 0.0, rate_R(omega, np.where(free, 0.0, alpha)))
    else:
        _check_args(omega, alpha)
        if alpha >= 1.0 - omega:
            return 0.0
    lib, rest = np if array else math, 1.0 - omega
    r = (
        _entropy(omega, lib)
        - omega * _entropy(alpha, lib)
        - rest * _entropy(omega * alpha / rest, lib)
    )
    return np.maximum(0.0, r) if array else max(0.0, r)


def _entropy(p, lib):
    """:func:`binary_entropy` of a ``p`` in [0, 1], with ``lib`` math or NumPy."""
    if lib is np and (edge := (p == 0.0) | (p == 1.0)).any():
        return np.where(edge, 0.0, _entropy(np.where(edge, 0.5, p), np))
    if lib is math and (p == 0.0 or p == 1.0):
        return 0.0
    return -p * lib.log(p) - (1.0 - p) * lib.log1p(-p)


def delta(r: float | np.ndarray) -> float | np.ndarray:
    """(1-r)^(1-1/r) on (0, 1], continuously extended to 1 at r = 1.

    Decreases from e at r -> 0+ to 1 at r = 1.  Takes a float or an array.
    """
    if isinstance(r, np.ndarray):
        if not (0.0 < r.min() and r.max() <= 1.0):
            raise ValueError(f"r must lie in (0, 1], got values in [{r.min()}, {r.max()}]")
        return _delta_array(r)
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if r == 1.0:
        return 1.0
    return math.exp((1.0 - 1.0 / r) * math.log1p(-r))


def xi(r: float | np.ndarray, gamma: float | np.ndarray) -> float | np.ndarray:
    """Auxiliary term of the asymptotic random-matrix log-determinant.

    Evaluated as 4*gamma^2*r / (s1 + s2)^2 to avoid cancellation between the
    two square roots.
    """
    if _check_rate_args(r, gamma):
        return _xi(r, gamma, np.sqrt)
    if gamma == 0.0:
        return 0.0
    return _xi(r, gamma, math.sqrt)


def info_G(r: float | np.ndarray, gamma: float | np.ndarray) -> float | np.ndarray:
    """Asymptotic normalized log-determinant rate for an i.i.d. matrix of
    aspect ratio ``r`` at signal-to-noise ``gamma`` (nats per dimension)."""
    if _check_rate_args(r, gamma):
        zero = _zero_gamma_rows(info_G, r, gamma)
        if zero is not None:
            return zero
        sqrt, log1p = np.sqrt, np.log1p
    elif gamma == 0.0:
        return 0.0
    else:
        sqrt, log1p = math.sqrt, math.log1p
    x = _xi(r, gamma, sqrt)
    return 0.5 * (r * log1p(gamma - x) + log1p(r * gamma - x) - x / gamma)


def info_V(r: float | np.ndarray, gamma: float | np.ndarray) -> float | np.ndarray:
    """Entropy-power lower envelope of :func:`info_G`; equals 0 at gamma = 0
    and approaches :func:`info_G` as gamma grows.  With lo = min(r, 1) and
    hi = max(r, 1), it is 0.5*lo*log1p(hi*gamma*delta(lo/hi)/e)."""
    if _check_rate_args(r, gamma):
        zero = _zero_gamma_rows(info_V, r, gamma)
        if zero is not None:
            return zero
        lo, hi = np.minimum(r, 1.0), np.maximum(r, 1.0)
        d, log1p = _delta_array(lo / hi), np.log1p
    elif gamma == 0.0:
        return 0.0
    else:
        lo, hi = (r, 1.0) if r <= 1.0 else (1.0, r)
        d, log1p = delta(lo / hi), math.log1p
    return 0.5 * lo * log1p(hi * gamma * d / math.e)


def _delta_array(r: np.ndarray) -> np.ndarray:
    """:func:`delta` on an array already known to lie in (0, 1]."""
    inner = r < 1.0
    if inner.all():
        return np.exp((1.0 - 1.0 / r) * np.log1p(-r))
    out = np.ones_like(r)
    out[inner] = _delta_array(r[inner])
    return out


def _xi(r, gamma, sqrt):
    """:func:`xi` on checked arguments, with ``math.sqrt`` or ``np.sqrt``."""
    sr = sqrt(r)
    s1 = sqrt(gamma * (sr + 1.0) ** 2 + 1.0)
    s2 = sqrt(gamma * (sr - 1.0) ** 2 + 1.0)
    return 4.0 * gamma * gamma * r / (s1 + s2) ** 2


def _check_rate_args(r, gamma) -> bool:
    """Reject r <= 0 and gamma < 0; True when either argument is an array."""
    if type(r) is float and type(gamma) is float and r > 0.0 and gamma >= 0.0:
        return False  # an implicit solve's single rate, checked without NumPy
    r_array = isinstance(r, np.ndarray)
    gamma_array = isinstance(gamma, np.ndarray)
    r_min = r.min() if r_array else r
    if r_min <= 0:
        raise ValueError(f"r must be positive, got {r_min}")
    gamma_min = gamma.min() if gamma_array else gamma
    if gamma_min < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma_min}")
    return r_array or gamma_array


def _zero_gamma_rows(info, r, gamma):
    """For array arguments: ``info(r, gamma)`` with 0 wherever ``gamma == 0``,
    or None when no ``gamma`` is 0 and ``info`` should evaluate directly."""
    zero = np.asarray(gamma) == 0.0
    if not zero.any():
        return None
    if zero.all():
        return np.zeros(np.broadcast(r, gamma).shape)
    return np.where(zero, 0.0, info(r, np.where(zero, 1.0, gamma)))


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


def _check_args(omega: float, alpha: float) -> None:
    """Reject a sparsity rate outside (0, 0.5] and a distortion outside [0, 1]."""
    _check_omega(omega)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
