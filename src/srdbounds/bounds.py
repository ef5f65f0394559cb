"""Lower bounds on the sampling rate needed for approximate support recovery.

Closed-form noiseless bounds, implicit noisy bounds solved numerically,
genie-aided bounds maximized over the revealed fraction, simplified scaling
shapes, and curve helpers (``best_lower``, ``alpha_curve``).

An implicit bound is solved by scanning its deficit over one cached,
read-only log grid of rates and bisecting the last sign change.  Each deficit
is written once: the rate functions of ``ratefun`` take a float or an array,
so the same deficit scans the grid as an array and bisects one float at a
time.  p4, p6 and the genie-aided i.i.d. bound t4 share one deficit: p6 is t4
at ``beta = 1``, where the genie reveals nothing, and p4 is p6 without a
density.  t4 sweeps 200 retained fractions ``beta`` and scans them four rows
at a time, as one (4 x 2000) array with one set of parameters per row; each
element goes through the same float operations as in a single-row scan, so
every row reads as if scanned alone.  One classification reads every scan,
of one row or of a block, and refuses a NaN or infinite deficit.  A row's
solved rate lies in its scan bracket, so only the rows whose bracket reaches
above the largest lower end of any row can hold the maximum; only those are
bisected, so every value t4 compares is the one a single solve gives.

One table (``_BOUNDS``) says which bounds exist, how each is evaluated, which
sources it applies to and which matrix class ``best_lower`` uses it for.

Every evaluator returns the largest sampling rate that the corresponding
necessary condition rules out, i.e. a lower bound on the achievable rate at
the requested distortion.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import functools
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionSpec, truncate
from .ratefun import SourceParams, _check_args, delta, info_G, info_V, rate_R, source_functionals

log = logging.getLogger(__name__)

RHO_GRID_POINTS = 2000
RHO_GRID_FLOOR = 1e-8
RHO_RANGE_CAP = 1e9
BISECTION_STEPS = 80
BETA_GRID_POINTS = 200
BETA_BLOCK_ROWS = 4  # t4 scans its beta rows this many at a time
BETA_REFINE_RTOL = 1e-6
ALPHA_FLOOR = 1e-6  # the smallest distortion alpha_curve searches


class BoundId(str, enum.Enum):
    """Identifies which necessary condition produced a bound value."""

    T1_NOISELESS = "t1_noiseless"
    P2_NOISELESS_IID = "p2_noiseless_iid"
    T3_NOISELESS_IID_F = "t3_noiseless_iid_f"
    C1_TEST = "c1_test"
    P3_GENERAL = "p3_general"
    T2_GENIE = "t2_genie"
    P4_IID = "p4_iid"
    P5_IID_GAUSSIAN = "p5_iid_gaussian"
    P6_IID_ENTROPY = "p6_iid_entropy"
    T4_IID_GENIE = "t4_iid_genie"
    S_COR_THM2 = "s_cor_thm2"
    S_NOISELESS_SIMPLE = "s_noiseless_simple"
    P7_SHAPE = "p7_shape"
    P8_SHAPE = "p8_shape"


@dataclass(frozen=True)
class ImplicitSolveReport:
    """Outcome of solving one implicit rate inequality.

    ``rho_lower`` is the reported lower bound, ``bracket`` the final interval
    around the crossing, ``residual`` the defining deficit evaluated at
    ``rho_lower``.  ``diagnostic`` is set when the scan range was exhausted
    with the inequality still violated (the bound is then at least the range
    end).
    """

    rho_lower: float
    crossings_found: int
    bracket: tuple[float, float]
    residual: float
    diagnostic: str | None = None


class NonFiniteDeficitError(ValueError):
    """A deficit is NaN or infinite on its scan grid, so its sign says nothing."""


@dataclass
class BoundCurve:
    """A computed curve of bound values with its solver metadata."""

    bound: BoundId
    source: SourceParams
    axis: str
    points: list[tuple[float, float]]
    solver_meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Implicit-inequality solver
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _rho_grid(hi: float) -> np.ndarray:
    """The ascending log grid of rates scanned up to ``hi`` (read-only, shared)."""
    grid = np.geomspace(RHO_GRID_FLOOR, hi, RHO_GRID_POINTS)
    grid.flags.writeable = False
    return grid


def _scan_implicit(deficit, omega: float):
    """Scan the deficit over the rate grid; returns ``(crossings, report,
    bracket)``.

    The deficit is LHS - RHS of the defining inequality; achievable rates have
    nonnegative deficit, so the lower bound is the last negative-to-nonnegative
    crossing on an ascending log grid.  The scan range grows geometrically
    while the inequality is still violated at its end; the deficit of every
    supported bound eventually turns positive, so this terminates well before
    the hard cap except for pathological inputs.  ``report`` is the final
    answer when there is no crossing to refine; otherwise it is None and
    ``bracket`` holds the grid points around the last crossing.
    """
    hi = _scan_start(omega)
    while True:
        grid = _rho_grid(hi)
        # A NaN or infinite value is refused below, so numpy need not warn.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = deficit(grid)
        if vals[-1] < 0.0 and hi < RHO_RANGE_CAP:
            hi = min(hi * 100.0, RHO_RANGE_CAP)
            continue
        return _classify_scans(grid, vals[None, :])[0]


def _scan_start(omega: float) -> float:
    """The upper end of the first rate grid a scan evaluates."""
    return max(8.0, 40.0 * omega)


def _classify_scans(grid: np.ndarray, vals: np.ndarray) -> list:
    """Read each row of ``vals``, one deficit on ``grid`` per row, as
    :func:`_scan_implicit` reports it: one ``(crossings, report, bracket)``
    per row, where a row still negative at the grid's end is range-exceeded.

    Raises NonFiniteDeficitError, naming the first such rate, when any value
    is NaN or infinite.
    """
    finite = np.isfinite(vals)
    if not finite.all():
        rho = float(grid[np.argmin(finite.all(axis=0))])
        raise NonFiniteDeficitError(
            f"the deficit is not finite at rho={rho:g} "
            "(the rate functions lose precision at this SNR)"
        )
    neg = vals < 0.0
    # Every negative value of a row that ends nonnegative is followed by a
    # crossing, so the row's last crossing sits at its last negative value.
    width = grid.size - 1
    crossings = [0] * len(vals)
    last_neg = [-1] * len(vals)
    for pos in np.flatnonzero(neg[:, :-1] & ~neg[:, 1:]).tolist():
        row, last_neg[row] = divmod(pos, width)
        crossings[row] += 1
    scans = []
    for row, count, last, violated_at_end in zip(vals, crossings, last_neg, neg[:, -1].tolist()):
        if violated_at_end:
            report = ImplicitSolveReport(
                float(grid[-1]),
                count,
                (float(grid[-1]), math.inf),
                float(row[-1]),
                diagnostic="range-exceeded: inequality still violated at scan end",
            )
            scans.append((count, report, None))
        elif last < 0:
            # Not even the smallest rate in range is ruled out.
            report = ImplicitSolveReport(0.0, 0, (0.0, RHO_GRID_FLOOR), float(row[0]))
            scans.append((count, report, None))
        else:
            scans.append((count, None, (float(grid[last]), float(grid[last + 1]))))
    return scans


def _solve_implicit(
    deficit, omega: float, bound: BoundId | None = None, alpha: float | None = None
) -> ImplicitSolveReport:
    """Largest rate at which the deficit is still negative (bound violated).

    ``deficit`` takes a float or an array of rates: it scans the grid at once
    and refines the last crossing by bisection one rate at a time.  A solve
    that finds more than one crossing logs a warning naming ``bound`` and
    ``alpha``; without a bound the caller reports it.
    """
    crossings, report, bracket = _scan_implicit(deficit, omega)
    if report is not None:
        return report
    if crossings > 1 and bound is not None:
        _warn_crossings(
            bound,
            alpha,
            "implicit solve found %d crossings; keeping the largest violated rate",
            crossings,
        )
    return _bisect(deficit, crossings, bracket)


# alpha_curve collects the alpha values of multi-crossing warnings here while
# it inverts one rate, and logs them as one line; None logs each one.
_held_crossings: contextvars.ContextVar[set | None] = contextvars.ContextVar(
    "_held_crossings", default=None
)


def _warn_crossings(bound: BoundId, alpha: float, message: str, *args) -> None:
    """Log '<bound> at alpha=<alpha>: <message>', or hold alpha back for
    :func:`alpha_curve`'s summary."""
    held = _held_crossings.get()
    if held is None:
        log.warning("%s at alpha=%g: " + message, bound.value, alpha, *args)
    else:
        held.add(alpha)


@contextlib.contextmanager
def _crossing_summary(bound: BoundId, rho: float):
    """Replace the multi-crossing warnings of one rate's inversion by one line."""
    held: set[float] = set()
    token = _held_crossings.set(held)
    try:
        yield
    finally:
        _held_crossings.reset(token)
    if held:
        log.warning(
            "%s at alpha=%g..%g (inverting rho=%g): %d alpha values found more than one "
            "crossing; kept the largest violated rate for each",
            bound.value,
            min(held),
            max(held),
            rho,
            len(held),
        )


def _bisect(deficit, crossings: int, bracket) -> ImplicitSolveReport:
    """Refine a scan bracket by bisection, one rate at a time."""
    lo, hi = bracket
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if deficit(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return ImplicitSolveReport(lo, crossings, (lo, hi), deficit(lo))


# ---------------------------------------------------------------------------
# Noiseless bounds
# ---------------------------------------------------------------------------


def t1_noiseless(omega: float, alpha: float) -> float:
    """Noiseless rate-distortion tradeoff for the unconstrained source."""
    _check_args(omega, alpha)
    if alpha >= 1.0 - omega:
        return 0.0
    return omega - omega / (1.0 - omega) * alpha


def p2_noiseless_iid(omega: float, alpha: float) -> float:
    """Noiseless tradeoff restricted to i.i.d. matrices (no rate sharing)."""
    _check_args(omega, alpha)
    if alpha >= 1.0 - omega:
        return 0.0
    return omega


def c1_test(source: SourceParams, alpha: float) -> bool:
    """True when the full rate ``omega`` stays necessary for this source."""
    r = rate_R(source.omega, alpha)
    return source.theta > delta(source.omega) * math.exp(-2.0 * r / source.omega)


def t3_noiseless_iid(source: SourceParams, alpha: float) -> float:
    """Noiseless i.i.d.-matrix bound for a source with a density.

    Returns the supremum of rates below ``omega`` ruled out by the
    entropy-power condition; 0 for sources without a density.
    """
    omega = source.omega
    _check_args(omega, alpha)
    theta = source.theta
    if theta == 0.0:
        log.debug("t3: source has no density; noiseless bound degenerates to 0")
        return 0.0
    r_target = rate_R(omega, alpha)
    if r_target == 0.0:
        return 0.0
    log_inv_theta = math.log(1.0 / theta)

    def deficit(rho):
        log = np.log if isinstance(rho, np.ndarray) else math.log
        return 0.5 * rho * (log_inv_theta + log(delta(rho)) - log(delta(rho / omega))) - r_target

    if deficit(omega * (1.0 - 1e-12)) < 0.0:
        return omega

    # The deficit is nonnegative at the grid's last point (checked above), so
    # the scan either brackets a crossing or finds no violated rate.
    grid = np.linspace(omega * 1e-6, omega * (1.0 - 1e-12), 4000)
    _, _, bracket = _classify_scans(grid, deficit(grid)[None, :])[0]
    if bracket is None:
        return 0.0
    return _bisect(deficit, 0, bracket).rho_lower


def s_noiseless_simple(source: SourceParams, alpha: float) -> float:
    """Closed-form noiseless bound min{omega, 2R / (1 + log(1/theta))}."""
    _check_args(source.omega, alpha)
    if source.theta == 0.0:
        return 0.0
    r = rate_R(source.omega, alpha)
    return min(source.omega, 2.0 * r / (1.0 + math.log(1.0 / source.theta)))


# ---------------------------------------------------------------------------
# Noisy bounds, arbitrary matrices
# ---------------------------------------------------------------------------


def p3_general(source: SourceParams, alpha: float) -> float:
    """Mutual-information bound valid for any sampling matrix."""
    _check_args(source.omega, alpha)
    if source.variance <= 0:
        raise ValueError("source variance must be positive")
    r = rate_R(source.omega, alpha)
    if r == 0.0:
        return 0.0
    return 2.0 * r / math.log1p(source.variance)


def _genie_params(source: SourceParams, beta: float):
    """Effective (prefactor, sparsity rate, variance, entropy power) after a
    genie reveals the largest ``1 - beta`` fraction of nonzero values."""
    omega = source.omega
    tr = truncate(source.dist, beta)
    om_b = beta * omega
    pref = 1.0 - (1.0 - beta) * omega
    v_eff = om_b * (1.0 - om_b) * tr.mean**2 + om_b * tr.variance
    if tr.diff_entropy is None:
        vh_eff = 0.0
    else:
        vh_eff = om_b * math.exp(2.0 * tr.diff_entropy) / (2.0 * math.pi * math.e)
    return pref, om_b, v_eff, vh_eff


def _beta_grid(alpha: float) -> np.ndarray:
    """``alpha``, then geometric offsets from ``alpha`` up to 1 (never past 1)."""
    lo = min(max(1e-12, alpha * 1e-9), 1.0 - alpha)
    offsets = np.geomspace(lo, 1.0 - alpha, BETA_GRID_POINTS - 1)
    grid = np.concatenate(([alpha], alpha + offsets))
    grid[-1] = 1.0
    return grid


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization to a relative interval of BETA_REFINE_RTOL."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > BETA_REFINE_RTOL * max(abs(a), abs(b), 1e-300):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = c if fc > fd else d
    return x, max(fc, fd)


def _maximize_over_beta(objective, grid: np.ndarray, values: np.ndarray):
    """Refine the grid maximum of ``values`` (``objective`` on ``grid``) by
    golden section over the neighbouring grid points.

    Returns ``(beta_star, value, index)``: ``index`` is the grid position when
    the grid value is at least as large as the refined one and is kept, and
    None when the refined point wins.
    """
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    beta_star, val = _golden_max(objective, lo, hi)
    if values[best] >= val:
        return float(grid[best]), float(values[best]), best
    return beta_star, val, None


def t2_genie(source: SourceParams, alpha: float) -> tuple[float, float]:
    """Genie bound for any matrix, maximized over the retained fraction.

    Returns the bound and the maximizing retained fraction ``beta_star``.
    """
    omega = source.omega
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_args(omega, alpha)

    def objective(beta):
        pref, om_b, v_eff, _ = _genie_params(source, beta)
        r = rate_R(om_b / pref, min(alpha / beta, 1.0))
        if r == 0.0:
            return 0.0
        return 2.0 * pref * r / math.log1p(v_eff)

    grid = _beta_grid(alpha)
    values = np.array([objective(b) for b in grid])
    beta_star, val, _ = _maximize_over_beta(objective, grid, values)
    return val, beta_star


# ---------------------------------------------------------------------------
# Noisy bounds, i.i.d. matrices
# ---------------------------------------------------------------------------


def _genie_deficit(pref, om_b, v_eff, vh_eff, r_target):
    """Deficit of the genie-aided entropy-power inequality, as a function of
    the rate.

    The arguments are those of :func:`_genie_params` and the target rate.
    The deficit takes a float or an array of rates, as
    :func:`_solve_implicit` needs.  At ``beta = 1`` the genie reveals
    nothing (``pref = 1``, ``om_b = omega``), which is p6; with no density
    (``vh_eff = 0``) as well, it is p4.
    """
    om_t = om_b / pref
    return lambda rho: info_G(rho / pref, v_eff) - r_target - om_t * info_V(rho / om_b, vh_eff)


def p4_iid(source: SourceParams, alpha: float) -> ImplicitSolveReport:
    """Log-determinant bound for i.i.d. matrices (unique crossing)."""
    _check_args(source.omega, alpha)
    if source.variance <= 0:
        raise ValueError("source variance must be positive")
    r_target = rate_R(source.omega, alpha)
    if r_target == 0.0:
        return ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0)
    deficit = _genie_deficit(1.0, source.omega, source.variance, 0.0, r_target)
    return _solve_implicit(deficit, source.omega, BoundId.P4_IID, alpha)


def p5_gaussian(source: SourceParams, alpha: float) -> ImplicitSolveReport:
    """Strengthened i.i.d. bound when the values are Gaussian."""
    _check_args(source.omega, alpha)
    if not source.is_gaussian():
        raise ValueError("p5 requires a Gaussian value distribution")
    omega = source.omega
    r_target = rate_R(omega, alpha)
    if r_target == 0.0:
        return ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0)
    v = source.variance
    cond_gamma = omega * source.dist.variance

    def deficit(rho):
        return info_G(rho, v) - r_target - omega * info_G(rho / omega, cond_gamma)

    return _solve_implicit(deficit, omega, BoundId.P5_IID_GAUSSIAN, alpha)


def p6_entropy(source: SourceParams, alpha: float) -> ImplicitSolveReport:
    """Entropy-power strengthened i.i.d. bound for any density.

    Also cross-checks that the closed-form simplification never exceeds the
    solved bound.
    """
    _check_args(source.omega, alpha)
    if source.entropy_power <= 0.0:
        raise ValueError("p6 requires a distribution with a density; use p4 instead")
    omega = source.omega
    r_target = rate_R(omega, alpha)
    if r_target == 0.0:
        return ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0)
    deficit = _genie_deficit(1.0, omega, source.variance, source.entropy_power, r_target)
    report = _solve_implicit(deficit, omega, BoundId.P6_IID_ENTROPY, alpha)
    simple = s_cor_thm2(source, alpha)
    if simple > report.rho_lower * (1.0 + 1e-9) + 1e-12:
        log.warning(
            "simplified bound %.6g exceeds solved p6 bound %.6g", simple, report.rho_lower
        )
    return report


def s_cor_thm2(source: SourceParams, alpha: float) -> float:
    """Closed-form (weaker) version of the entropy-power bound.

    The defining inequality references min(rho, omega) on its right side; the
    implied bound is the unique fixed point, which has two explicit branches.
    """
    _check_args(source.omega, alpha)
    r = rate_R(source.omega, alpha)
    if r == 0.0:
        return 0.0
    big_l = math.log1p(source.variance)
    c = math.log1p(source.entropy_power / math.e)
    saturated = (2.0 * r + source.omega * c) / big_l
    if saturated >= source.omega:
        return saturated
    return 2.0 * r / (big_l - c)


def _scan_genie_rows(source: SourceParams, alpha: float, betas, multi: set) -> list:
    """Scan t4's deficit for each retained fraction in ``betas`` as one array.

    Returns one ``(report, pending)`` per beta.  ``report`` is set when the
    scan settles the row, and ``pending`` holds the ``(deficit, crossings,
    bracket)`` to bisect otherwise; both are None when the genie parameters
    cannot be computed.  A row still violated at the end of the first grid is
    scanned again alone, so its range grows as in :func:`_scan_implicit`.
    Each beta whose scan finds several crossings is added to ``multi``.
    """
    omega = source.omega
    rows: list = [(None, None)] * len(betas)
    live, params = [], []
    for i, beta in enumerate(betas):
        try:
            pref, om_b, v_eff, vh_eff = _genie_params(source, beta)
        except (ValueError, ArithmeticError) as exc:
            log.warning("t4: skipping beta=%g (%s)", beta, exc)
            continue
        r_target = rate_R(om_b / pref, min(alpha / beta, 1.0))
        if r_target == 0.0 and vh_eff == 0.0:
            rows[i] = (ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0), None)
            continue
        live.append(i)
        params.append((pref, om_b, v_eff, vh_eff, r_target))
    if not live:
        return rows
    grid = _rho_grid(_scan_start(omega))
    # One column per parameter broadcasts the deficit to one row per beta.
    block = _genie_deficit(*np.array(params).T[:, :, None])
    with np.errstate(divide="ignore", invalid="ignore"):  # as in _scan_implicit
        vals = block(grid)
    for i, p, scan in zip(live, params, _classify_scans(grid, vals)):
        deficit = _genie_deficit(*p)
        crossings, report, bracket = scan
        if report is not None and report.diagnostic:  # still violated at the end
            crossings, report, bracket = _scan_implicit(deficit, omega)
        if crossings > 1:
            multi.add(float(betas[i]))
        rows[i] = (report, None) if report else (None, (deficit, crossings, bracket))
    return rows


def t4_genie_iid(source: SourceParams, alpha: float) -> tuple[ImplicitSolveReport, float]:
    """Genie-aided entropy-power bound for i.i.d. matrices.

    Maximizes the solved rate over the retained fraction ``beta``; returns the
    best solve report and ``beta_star``.  The grid rows are scanned
    BETA_BLOCK_ROWS at a time, and only the rows that can hold the maximum
    are bisected; each golden-section step scans its beta as a block of one.
    """
    omega = source.omega
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_args(omega, alpha)
    multi: set[float] = set()  # beta values whose scan found several crossings
    grid = _beta_grid(alpha)
    rows = []
    for start in range(0, len(grid), BETA_BLOCK_ROWS):
        rows += _scan_genie_rows(source, alpha, grid[start : start + BETA_BLOCK_ROWS], multi)
    reports = [report for report, _ in rows]
    # Each row's solved rate lies in [values, upper]: the rate itself when the
    # scan settles the row, its bracket when it is pending, -inf if skipped.
    values = np.array([-math.inf if rep is None else rep.rho_lower for rep in reports])
    upper = values.copy()
    for i, (_, pending) in enumerate(rows):
        if pending:
            values[i], upper[i] = pending[2]
    # A bisection ends inside its bracket, so a row whose upper end does not
    # exceed the largest lower end stays strictly below the maximum.
    for i in np.flatnonzero(upper > values.max()):
        reports[i] = _bisect(*rows[i][1])
        values[i] = reports[i].rho_lower

    def solve(beta) -> ImplicitSolveReport | None:
        ((report, pending),) = _scan_genie_rows(source, alpha, [beta], multi)
        return _bisect(*pending) if pending else report

    def value_of(beta):
        rep = solve(beta)
        return -math.inf if rep is None else rep.rho_lower

    beta_star, _, kept = _maximize_over_beta(value_of, grid, values)
    report = solve(beta_star) if kept is None else reports[kept]
    if multi:
        _warn_crossings(
            BoundId.T4_IID_GENIE,
            alpha,
            "%d beta values found more than one crossing "
            "(beta in [%g, %g]); kept the largest violated rate for each",
            len(multi),
            min(multi),
            max(multi),
        )
    return report, beta_star


# ---------------------------------------------------------------------------
# Scaling shapes
# ---------------------------------------------------------------------------


def p7_shape(source: SourceParams, alpha: float, power: float) -> float:
    """Small-distortion shape alpha*omega*log(1/(alpha*omega)) / log(1+alpha^(2L+1)P).

    The distribution-dependent constant is normalized to 1, so only the shape
    is meaningful.
    """
    if not 0.0 < alpha < 0.25:
        raise ValueError(f"alpha must lie in (0, 1/4), got {alpha}")
    from .distributions import decay_rate

    big_l = decay_rate(source.dist)
    x = alpha * source.omega
    return x * math.log(1.0 / x) / math.log1p(alpha ** (2.0 * big_l + 1.0) * power)


def p8_shape(source: SourceParams, alpha: float, power: float) -> tuple[float, bool]:
    """High-SNR excess-rate shape omega + omega*log(1/omega)/log(1+P).

    The boolean reports whether the entropy-power condition that makes the
    full rate necessary holds for this source and distortion.
    """
    if not 0.0 < alpha < 0.25:
        raise ValueError(f"alpha must lie in (0, 1/4), got {alpha}")
    omega = source.omega
    value = omega + omega * math.log(1.0 / omega) / math.log1p(power)
    r = rate_R(omega, alpha)
    condition = source.theta > math.exp(1.0 - r / omega)
    return value, condition


# ---------------------------------------------------------------------------
# Aggregation and curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Bound:
    """One row of the bound table.

    ``evaluate(source, alpha)`` returns ``(rho, beta_star or None)``;
    ``matrix_class`` is the class of matrices for which ``best_lower`` uses the
    bound ("any", or "iid" for i.i.d. matrices only), or None when it never
    does; ``applies(source)`` is False for sources the bound rejects.
    """

    evaluate: Callable[[SourceParams, float], tuple[float, float | None]]
    matrix_class: str | None
    applies: Callable[[SourceParams], bool] = lambda source: True


def _t4_value(source: SourceParams, alpha: float) -> tuple[float, float]:
    report, beta_star = t4_genie_iid(source, alpha)
    return report.rho_lower, beta_star


# The evaluators look their bound up by name at call time, so rebinding a
# module-level name (as a tracer does) reaches every call.  ``best_lower``
# walks the rows in this order and keeps the first of equal values, so the
# order decides ties.
_BOUNDS: dict[BoundId, _Bound] = {
    BoundId.P3_GENERAL: _Bound(lambda s, a: (p3_general(s, a), None), "any"),
    BoundId.T2_GENIE: _Bound(lambda s, a: t2_genie(s, a), "any"),
    BoundId.P4_IID: _Bound(lambda s, a: (p4_iid(s, a).rho_lower, None), "iid"),
    BoundId.P5_IID_GAUSSIAN: _Bound(
        lambda s, a: (p5_gaussian(s, a).rho_lower, None), "iid", lambda s: s.is_gaussian()
    ),
    BoundId.P6_IID_ENTROPY: _Bound(
        lambda s, a: (p6_entropy(s, a).rho_lower, None), "iid", lambda s: s.entropy_power > 0.0
    ),
    BoundId.T4_IID_GENIE: _Bound(_t4_value, "iid"),
    BoundId.T3_NOISELESS_IID_F: _Bound(lambda s, a: (t3_noiseless_iid(s, a), None), "iid"),
    BoundId.T1_NOISELESS: _Bound(lambda s, a: (t1_noiseless(s.omega, a), None), None),
    BoundId.P2_NOISELESS_IID: _Bound(lambda s, a: (p2_noiseless_iid(s.omega, a), None), None),
    BoundId.S_COR_THM2: _Bound(lambda s, a: (s_cor_thm2(s, a), None), None),
    BoundId.S_NOISELESS_SIMPLE: _Bound(lambda s, a: (s_noiseless_simple(s, a), None), None),
    BoundId.P7_SHAPE: _Bound(lambda s, a: (p7_shape(s, a, s.power), None), None),
    BoundId.P8_SHAPE: _Bound(lambda s, a: (p8_shape(s, a, s.power)[0], None), None),
}
_MATRIX_CLASSES = {"any": ("any",), "iid": ("any", "iid")}


def evaluate_bound(
    source: SourceParams, bound: BoundId, alpha: float
) -> tuple[float, float | None]:
    """Evaluate one bound; returns (rho, beta_star or None).

    Raises ValueError for bounds inapplicable to the source (no density, not
    Gaussian), which ``best_lower`` skips, and for ``C1_TEST``, which is a
    condition, not a rate bound.  Every ValueError raised by the evaluator
    keeps its type and gains the bound and ``alpha`` as a prefix; among them
    is NonFiniteDeficitError, naming the rate where an implicit bound's
    deficit is NaN or infinite on its scan grid.
    """
    if bound not in _BOUNDS:
        raise ValueError(f"bound {bound} is not an evaluatable rate bound")
    try:
        return _BOUNDS[bound].evaluate(source, alpha)
    except ValueError as exc:
        raise type(exc)(f"{bound.value} at alpha={alpha:g}: {exc}") from None


def best_lower(
    source: SourceParams, alpha: float, matrix_class: str = "iid"
) -> tuple[float, BoundId]:
    """Strongest applicable lower bound and its identity.

    ``matrix_class="any"`` uses bounds valid for every sampling matrix;
    ``"iid"`` adds the i.i.d.-matrix bounds (a superset, hence never weaker).
    Bounds requiring a density or Gaussian values are skipped when the source
    does not qualify.
    """
    if matrix_class not in _MATRIX_CLASSES:
        raise ValueError(f"matrix_class must be 'any' or 'iid', got {matrix_class}")
    classes = _MATRIX_CLASSES[matrix_class]
    best_val, best_id = -math.inf, None
    for bound, row in _BOUNDS.items():
        if row.matrix_class not in classes or not row.applies(source):
            continue
        val, _ = evaluate_bound(source, bound, alpha)
        if val > best_val:
            best_val, best_id = val, bound
    return best_val, best_id


def alpha_curve(
    source: SourceParams,
    bound: BoundId,
    rho_grid: list[float],
) -> BoundCurve:
    """Invert a bound to distortion-versus-rate: for each rate, the smallest
    distortion whose bound does not exceed it.

    Distortions are searched in ``[ALPHA_FLOOR, 1)``.  Rates where the bound
    fails to be monotone across the bisection bracket are omitted with a
    diagnostic entry in ``solver_meta``.  A NaN, infinite or negative rate
    raises ValueError before anything is evaluated.  The
    multi-crossing warnings of one rate's inversion are logged as one line
    naming the bound, the rate, their count and their alpha range.
    """
    bad = [rho for rho in rho_grid if not 0.0 <= rho < math.inf]
    if bad:
        raise ValueError(f"rates must be finite and nonnegative, got {bad[0]}")
    points: list[tuple[float, float]] = []
    meta: dict = {"omitted": [], "alpha_floor": ALPHA_FLOOR, "beta_star": {}}

    def rho_of(alpha):
        return evaluate_bound(source, bound, alpha)

    for rho in sorted(rho_grid):
        with _crossing_summary(bound, rho):
            lo, hi = ALPHA_FLOOR, 1.0 - 1e-9
            val_lo, _ = rho_of(lo)
            val_hi, beta = rho_of(hi)
            if val_lo < val_hi:
                meta["omitted"].append((rho, "non-monotone bracket"))
                continue
            if val_lo <= rho:
                points.append((rho, 0.0))
                continue
            if val_hi > rho:
                meta["omitted"].append((rho, "bound exceeds rho on full range"))
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                val_mid, beta_mid = rho_of(mid)
                if val_mid <= rho:
                    hi, beta = mid, beta_mid
                else:
                    lo = mid
            meta["beta_star"][rho] = beta
            points.append((rho, hi))
    return BoundCurve(bound, source, "alpha_vs_rho", points, meta)


def source_at_snr(dist: DistributionSpec, omega: float, snr_db: float) -> SourceParams:
    """Scale a distribution to the per-sample SNR (dB) and wrap it as a source."""
    from .distributions import scale_to_snr

    return source_functionals(omega, scale_to_snr(dist, omega, snr_db))
