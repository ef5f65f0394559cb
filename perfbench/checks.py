"""Correctness checks for the benchmark, computed apart from the program.

Every reference here is either a property the method must have (ordering,
monotonicity, optimality of an exhaustive search) or a quantity recomputed by
an independent route: the pattern rate from this file's own binary entropy,
the log-det rate by quadrature over the Marchenko-Pastur law, hypergeometric
means by direct summation, covering counts by ``math.comb``.  No check
compares against a stored copy of the program's output.

Each ``check_*`` function returns a list of problem strings; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

# Relative slack for orderings between bounds (as in the acceptance grid).
ORDER_TOL = 1e-9
# Relative slack for monotonicity in alpha and SNR.
MONO_TOL = 1e-7
# A p4 solution must sit within this relative distance of the MP crossing.
CROSSING_REL = 1e-6
# Gram-solve residuals differ from lstsq ones by up to ~3e-9 relative.
RESIDUAL_RTOL = 1e-7
# Width of the band around an exact mean, in standard errors.
MEAN_BAND_SE = 5.0


# ---------------------------------------------------------------------------
# Independent reference quantities
# ---------------------------------------------------------------------------


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def pattern_rate(omega: float, alpha: float) -> float:
    """R(omega, alpha) in nats: H(w) - w H(a) - (1-w) H(w a / (1-w))."""
    if alpha >= 1.0 - omega:
        return 0.0
    return (
        binary_entropy(omega)
        - omega * binary_entropy(alpha)
        - (1.0 - omega) * binary_entropy(omega * alpha / (1.0 - omega))
    )


def mp_logdet_rate(r: float, gamma: float) -> float:
    """lim (1/2n) log det(I + (gamma/n) M^T M) for an (r n) x n Gaussian M.

    With S = M^T M / m, whose spectrum follows the Marchenko-Pastur law of
    ratio y = 1/r, the limit is (1/2) E log(1 + gamma r x).  The atom at zero
    (y > 1) contributes nothing; the continuous part is integrated after the
    substitution x = 1 + y + 2 sqrt(y) cos(t), which removes the square-root
    edges.
    """
    y = 1.0 / r
    mid, half = 1.0 + y, 2.0 * math.sqrt(y)
    c = gamma * r

    def integrand(t):
        x = mid + half * math.cos(t)
        s = half * math.sin(t)
        weight = s * s / (2.0 * math.pi * y)
        return weight * (math.log1p(c * x) / x if x > 0.0 else c)

    val, _ = integrate.quad(integrand, 0.0, math.pi, epsabs=1e-15, epsrel=1e-13, limit=200)
    return 0.5 * val


def gaussian_coding_variance(power: float, omega: float, mean: float, variance: float) -> float:
    """V = w(1-w) mu^2 + w sigma^2 after scaling the values so that
    w E[X^2] = power; the ratio mu^2 : sigma^2 survives the scaling."""
    return power * ((1.0 - omega) * mean * mean + variance) / (mean * mean + variance)


def hypergeom_pmf(total: int, good: int, draws: int, hits: int) -> float:
    if hits < 0 or hits > good or draws - hits > total - good or hits > draws:
        return 0.0
    return math.comb(good, hits) * math.comb(total - good, draws - hits) / math.comb(total, draws)


def rate_sharing_distortion(k: int, u: int, live_true: int) -> tuple[float, float]:
    """Mean and variance of the distortion given ``live_true`` live true
    indices: stage 2 draws k - L of the u zeroed columns, h = k - L of which
    are true, so the hits are hypergeometric(u, h, h)."""
    h = k - live_true
    if h == 0:
        return 0.0, 0.0
    mean_hits = h * h / u
    var_hits = h * (h / u) * (1.0 - h / u) * (u - h) / (u - 1) if u > 1 else 0.0
    return (h - mean_hits) / k, var_hits / (k * k)


def rate_sharing_target(k: int, u: int, m: int, weights: dict[int, float]) -> tuple[float, float]:
    """Conditional mean distortion over trials that complete (L < m), with
    each L weighted by ``weights[L]``, and the per-trial variance."""
    moments = {L: rate_sharing_distortion(k, u, L) for L, w in weights.items() if L < m and w > 0}
    total = sum(weights[L] for L in moments)
    mean = sum(weights[L] * mu for L, (mu, _) in moments.items()) / total
    second = sum(weights[L] * (var + mu * mu) for L, (mu, var) in moments.items()) / total
    return mean, second - mean * mean


def covering_lower(n: int, k: int, alpha: float) -> int:
    swaps = int(math.floor(alpha * k))
    ball = sum(math.comb(k, a) * math.comb(n - k, a) for a in range(swaps + 1))
    return -(-math.comb(n, k) // ball)


def det_power_target(r: float) -> float:
    if r == 1.0:
        return 1.0 / math.e
    return (r / (r - 1.0)) ** (r - 1.0) / math.e


def lstsq_residual(y: np.ndarray, mat: np.ndarray, support) -> float:
    cols = mat[:, list(support)]
    fit, *_ = np.linalg.lstsq(cols, y, rcond=None)
    return float(np.sum((y - cols @ fit) ** 2))


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def check_curve_grid(label: str, snrs, alphas, grid) -> list[str]:
    """``grid[i][j]`` is the bound at snrs[i], alphas[j] (both ascending):
    finite, nonnegative and nonincreasing along both axes."""
    problems = []
    for i, row in enumerate(grid):
        for j, val in enumerate(row):
            if not (math.isfinite(val) and val >= 0.0):
                problems.append(f"{label}: value {val} at snr={snrs[i]}, alpha={alphas[j]}")
            if j and val > row[j - 1] * (1 + MONO_TOL) + 1e-12:
                problems.append(f"{label}: rises in alpha at snr={snrs[i]}, alpha={alphas[j]}")
            if i and val > grid[i - 1][j] * (1 + MONO_TOL) + 1e-12:
                problems.append(f"{label}: rises in SNR at snr={snrs[i]}, alpha={alphas[j]}")
    return problems


def _le(a: float, b: float) -> bool:
    return a <= b * (1 + ORDER_TOL) + ORDER_TOL


def check_orderings(label: str, b: dict) -> list[str]:
    """``b`` holds p3, t2, p4, t4, best_iid, best_any and, when the source
    qualifies, p6 (a density) and p5 (Gaussian values)."""
    pairs = [("p3", "t2"), ("p4", "t4"), ("best_any", "best_iid")]
    if "p6" in b:
        pairs += [("p4", "p6"), ("p6", "t4")]
    if "p5" in b:
        pairs.append(("p6", "p5"))
    problems = [f"{label}: {lo} > {hi}" for lo, hi in pairs if not _le(b[lo], b[hi])]
    # best_lower is the strongest applicable bound, so no bound exceeds it.
    for key in ("p3", "t2", "p4", "p5", "p6", "t4"):
        if key in b and not _le(b[key], b["best_iid"]):
            problems.append(f"{label}: {key} exceeds best_lower")
    return problems


def check_p3(label: str, p3: float, omega: float, alpha: float, variance: float) -> list[str]:
    want = 2.0 * pattern_rate(omega, alpha) / math.log1p(variance)
    if abs(p3 - want) > 1e-12 * max(want, 1e-300):
        return [f"{label}: p3_general {p3!r} != 2R/log(1+V) = {want!r}"]
    return []


def check_p4_crossing(label: str, rho: float, omega: float, alpha: float, variance: float) -> list[str]:
    """The log-det rate must cross R between rho (1 - d) and rho (1 + d)."""
    target = pattern_rate(omega, alpha)
    if target == 0.0:
        return [] if rho == 0.0 else [f"{label}: p4 {rho} with zero pattern rate"]
    below = mp_logdet_rate(rho * (1 - CROSSING_REL), variance) - target
    above = mp_logdet_rate(rho * (1 + CROSSING_REL), variance) - target
    if not (below < 0.0 <= above):
        return [f"{label}: p4 solution {rho!r} is not at the MP crossing ({below:.3g}, {above:.3g})"]
    return []


def check_sorted_curve(label: str, xs, ys, lo: float = 0.0, hi: float = math.inf) -> list[str]:
    """ys finite, within [lo, hi] and nonincreasing in xs (ascending)."""
    problems = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        if not (math.isfinite(y) and lo <= y <= hi):
            problems.append(f"{label}: value {y} at {x}")
        if i and y > ys[i - 1] * (1 + MONO_TOL) + 1e-12:
            problems.append(f"{label}: rises at {x}")
    return problems


def check_snr_curve(rows: list[dict]) -> list[str]:
    """Acceptance criterion 12: rho_best is nonincreasing in SNR, the point
    mass wins below -10 dB and the sliced Gaussian above 30 dB."""
    snrs = [float(r["snr_db"]) for r in rows]
    problems = check_sorted_curve("snr-curve", snrs, [float(r["rho_best"]) for r in rows])
    for snr, row in zip(snrs, rows):
        if snr < -10.0 and row["winner"] != "pointmass":
            problems.append(f"snr-curve: winner {row['winner']} at {snr} dB")
        if snr > 30.0 and row["winner"] != "sliced":
            problems.append(f"snr-curve: winner {row['winner']} at {snr} dB")
    return problems


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------


def check_ml_noiseless(label: str, support, truth) -> list[str]:
    if tuple(sorted(support)) != tuple(sorted(truth)):
        return [f"{label}: noiseless ML returned {tuple(support)}, truth {tuple(truth)}"]
    return []


def check_ml_noisy(label, y, mat, support, residual_min, rivals) -> list[str]:
    """``residual_min`` is the lstsq residual of ``support`` and no larger
    than the residual of any rival support (the truth and random ones)."""
    slack = 1e-12 * float(y @ y)
    own = lstsq_residual(y, mat, support)
    problems = []
    if abs(residual_min - own) > RESIDUAL_RTOL * own + slack:
        problems.append(f"{label}: residual_min {residual_min!r} != lstsq {own!r}")
    for rival in rivals:
        res = lstsq_residual(y, mat, rival)
        if residual_min > res * (1 + RESIDUAL_RTOL) + slack:
            problems.append(f"{label}: support {tuple(rival)} beats the ML residual")
    return problems


# ---------------------------------------------------------------------------
# rate_sharing
# ---------------------------------------------------------------------------


def check_rate_sharing_trial(label, estimate, truth, zeroed, k: int, m: int) -> list[str]:
    """``estimate`` is the decoded support, or None for a declared error."""
    live_true = set(truth) - set(zeroed)
    if estimate is None:
        if len(live_true) < m:
            return [f"{label}: error declared with {len(live_true)} < m={m} live true indices"]
        return []
    problems = []
    if len(live_true) >= m:
        problems.append(f"{label}: no error declared with {len(live_true)} >= m={m} live true indices")
    if len(set(estimate)) != k:
        problems.append(f"{label}: estimate {tuple(estimate)} does not have size {k}")
    if not live_true <= set(estimate):
        problems.append(f"{label}: estimate misses live true indices {sorted(live_true - set(estimate))}")
    return problems


def check_mean_band(label: str, values, mean: float, variance: float) -> list[str]:
    if not values:
        return [f"{label}: no completed trials"]
    se = math.sqrt(variance / len(values))
    got = float(np.mean(values))
    if abs(got - mean) > MEAN_BAND_SE * se:
        return [f"{label}: mean {got:.6g} is {abs(got - mean) / se:.1f} SE from {mean:.6g}"]
    return []


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def check_covering(lower: int, upper: int, n: int, k: int, alpha: float) -> list[str]:
    want = covering_lower(n, k, alpha)
    problems = []
    if lower != want:
        problems.append(f"covering: lower end {lower} != ceil(C(n,k)/ball) = {want}")
    if lower > upper:
        problems.append(f"covering: lower end {lower} exceeds upper end {upper}")
    return problems


def check_exit(label: str, code, want: int = 0) -> list[str]:
    return [] if code == want else [f"{label}: exit code {code}, expected {want}"]
