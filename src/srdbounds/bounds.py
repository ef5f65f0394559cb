"""Lower bounds on the sampling rate needed for approximate support recovery.

Closed-form noiseless bounds, implicit noisy bounds solved numerically,
genie-aided bounds maximized over the revealed fraction, simplified scaling
shapes, and curve helpers (``best_lower``, ``alpha_curve``).

An implicit bound is solved by scanning its deficit over one cached,
read-only log grid of rates and bisecting the last sign change.  Each deficit
is written once: the rate functions of ``ratefun`` take a float or an array,
so the same deficit scans the grid as an array and bisects one float at a
time.  Each matrix class has one formula.  p3 is t2's row value at
``beta = 1`` (``_any_matrix_rate``).  p4, p5, p6 and the genie-aided i.i.d.
bound t4 share one deficit: p4, p5 and p6 are it at ``beta = 1``, where the
genie reveals nothing, with 0, ``info_G`` or ``info_V`` (the entropy power)
bounding what the values still hide; a ``best_lower`` call solves each such
deficit once.  t2 and t4 share one row per retained fraction ``beta`` (200
of them), built below ``beta = 1`` in one array pass, else one float at a
time; the float row at a ``beta`` off the grid, which golden section reads, is
built once per call.
t4 reads each row on the rate grids its own scan climbs, one top-down pass per
grid that skips each chunk a monotone interval bound clears, solves the rows
whose upper end exceeds the largest lower end and refines the best by the
envelope condition.  A NaN or infinite deficit on a rate a scan reads is refused.

Warnings leave by one route.  Each evaluation of p4, p5, p6, t2 or t4, and
each rate ``alpha_curve`` inverts, opens a record (``_record``); every warning
site adds a note to the open one, and each record logs its notes as it closes.
A value built once and read many times (``_once``) keeps the notes its build
took and adds them to the open record on every read.

One table (``_BOUNDS``) says which bounds exist, how each is evaluated, which
sources it applies to and which matrix class ``best_lower`` uses it for.  For
p3, p4, p5 and p6, which depend on alpha only through the target rate
``rate_R``, it also names the rest of the inequality, c.  ``alpha_curve``
inverts those by bisecting on ``rate_R`` against c, with no implicit solve, and
then solves the bound at the bracket it ends on: the bound confirms the
bracket, or the bracket is widened and bisected on the bound.  t2 and t4,
whose beta grid alpha also sets, bisect on the bound at every step.

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

from .distributions import DistributionSpec, decay_rate, scale_to_snr, truncate
from .ratefun import SourceParams, _check_args, delta, info_G, info_V, rate_R, source_functionals

log = logging.getLogger(__name__)

RHO_GRID_POINTS = 2000
RHO_GRID_FLOOR = 1e-8
RHO_RANGE_CAP = 1e9
BISECTION_STEPS = 80
BETA_GRID_POINTS = 200
TOP_PASS_POINTS = 64  # t4's top-down pass reads this many rates at a time
MONOTONE_GAMMA = 1e10  # float info_G rises in r where gamma and r*gamma are at most this
INFO_V_PEAK = 0.79  # info_V rises in r but on [INFO_V_PEAK, 1), where its maximum lies
BETA_REFINE_RTOL = 1e-6
BETA_REFINE_ROUNDS = 4  # t4's envelope refinements, each from the last rate found
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


_ZERO_REPORT = ImplicitSolveReport(0.0, 0, (0.0, 0.0), 0.0)  # a bound that needs no rate


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


def _scan_implicit(deficit, hi: float):
    """Scan the deficit over the rate grid ending at ``hi``; returns
    ``(crossings, report, bracket)``.

    The deficit is LHS - RHS of the defining inequality; achievable rates have
    nonnegative deficit, so the lower bound is the last negative-to-nonnegative
    crossing on an ascending log grid.  The scan climbs the ladder of grids
    (:func:`_next_end`) while the inequality is still violated at its end; the
    deficit of every supported bound eventually turns positive, so this
    terminates well before the hard cap except for pathological inputs.
    ``report`` is the final answer when there is no crossing to refine;
    otherwise it is None and ``bracket`` holds the grid points around the last crossing.
    """
    while True:
        grid = _rho_grid(hi)
        # A NaN or infinite value is refused below, so numpy need not warn.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = deficit(grid)
        if not vals[-1] < 0.0 or (hi := _next_end(hi)) is None:
            return _classify_scan(grid, vals)


def _scan_start(omega: float) -> float:
    """The upper end of the first rate grid a scan evaluates."""
    return max(8.0, 40.0 * omega)


def _next_end(hi: float) -> float | None:
    """The end of the next rate grid up the ladder a scan still violated at the
    end ``hi`` climbs (100 times ``hi``, at most RHO_RANGE_CAP); None at the cap."""
    return min(hi * 100.0, RHO_RANGE_CAP) if hi < RHO_RANGE_CAP else None


def _refuse_non_finite(grid: np.ndarray, vals: np.ndarray) -> None:
    """Raise NonFiniteDeficitError, naming the lowest rate of ``grid`` at which
    ``vals`` (one deficit on ``grid``, or one per row) is NaN or infinite."""
    finite = np.isfinite(np.atleast_2d(vals)).all(axis=0)
    if not finite.all():
        raise NonFiniteDeficitError(
            f"the deficit is not finite at rho={float(grid[np.argmin(finite)]):g} "
            "(the rate functions lose precision at this SNR)"
        )


def _classify_scan(grid: np.ndarray, vals: np.ndarray):
    """Read one deficit ``vals`` on ``grid`` as :func:`_scan_implicit` reports
    it: ``(crossings, report, bracket)``, where a deficit still negative at the
    grid's end is range-exceeded.  A NaN or infinite value is refused."""
    _refuse_non_finite(grid, vals)
    neg = vals < 0.0
    # Every negative value of a deficit that ends nonnegative is followed by a
    # crossing, so the last crossing sits at the last negative value.
    ends = np.flatnonzero(neg[:-1] & ~neg[1:])
    crossings = int(ends.size)
    if neg[-1]:
        end = float(grid[-1])
        exceeded = "range-exceeded: inequality still violated at scan end"
        report = ImplicitSolveReport(end, crossings, (end, math.inf), float(vals[-1]), exceeded)
        return crossings, report, None
    if not crossings:
        # Not even the smallest rate in range is ruled out.
        return 0, ImplicitSolveReport(0.0, 0, (0.0, RHO_GRID_FLOOR), float(vals[0])), None
    return crossings, None, (float(grid[ends[-1]]), float(grid[ends[-1] + 1]))


def _solve_implicit(deficit, hi: float) -> ImplicitSolveReport:
    """Largest rate at which the deficit is still negative (bound violated).

    ``deficit`` takes a float or an array of rates: it scans each grid, from the
    one ending at ``hi``, at once and bisects the last crossing one rate at a time.
    """
    crossings, report, bracket = _scan_implicit(deficit, hi)
    return report if report is not None else _bisect(deficit, crossings, bracket)


def _bisect(deficit, crossings: int, bracket) -> ImplicitSolveReport:
    """Refine a scan bracket by bisection, one rate at a time."""
    lo, hi = bracket
    f_lo = None  # the float deficit at lo, once lo is no longer the grid point
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (f_mid := deficit(mid)) < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return ImplicitSolveReport(lo, crossings, (lo, hi), deficit(lo) if f_lo is None else f_lo)


# ---------------------------------------------------------------------------
# Warning records
# ---------------------------------------------------------------------------

# Each kind of note's line, after "<bound> at alpha=<alpha>: " (but for the last
# three), from the first note and the count n and range lo..hi of the betas noted
# (an inversion's alphas, written as one alpha when n is 1).
_LINES = {
    "crossings": "implicit solve found {detail} crossings; keeping the largest violated rate",
    "beta crossings": "{n} beta values found more than one crossing (beta in [{lo:g}, {hi:g}]); "
    "kept the largest violated rate for each",
    "skip": "skipping beta={beta:g} ({detail})",
    "skips": "skipping {n} beta values in [{lo:g}, {hi:g}] (first: {detail})",
    "cap": "still violated at the scan cap rho={detail:g}; the bound is at least the cap",
    "check": "simplified bound {detail[0]:.6g} exceeds solved p6 bound {detail[1]:.6g}",
    "omitted": "inverting rho={rho:g}: rate omitted ({detail})",
    "inversion": "at alpha={lo:g}{up_to} (inverting rho={rho:g}): {n} alpha value{s} found more "
    "than one crossing; kept the largest violated rate for each",
    "inversion skips": "at alpha={lo:g}{up_to} (inverting rho={rho:g}): skipping beta values "
    "at {n} alpha value{s} (first: {detail})",
}
# In a rate's inversion, these kinds fold over alpha into one line of the kind named.
_OVER_ALPHA = {"crossings": "inversion", "beta crossings": "inversion", "skip": "inversion skips"}

_notes: contextvars.ContextVar[list | None] = contextvars.ContextVar("_notes", default=None)
# Set by best_lower; _grid_rows and _genie_solve read it through _once.
_tables: contextvars.ContextVar[dict] = contextvars.ContextVar("_tables")


def _note(kind: str, alpha: float | None, beta: float | None = None, detail=None) -> None:
    """Add a note of ``kind`` (a key of ``_LINES``) to the open record, if any."""
    if (notes := _notes.get()) is not None:
        notes.append((kind, alpha, beta, detail))


@contextlib.contextmanager
def _record(bound: BoundId | None, rho: float | None = None):
    """Open the record of one evaluation of ``bound`` (also as a decorator), or
    of one rate ``rho``'s inversion; nested in an open record, the block adds to
    it, and with ``bound`` None the record is new and only held.  Closed without
    an error, a record logs one line per kind and alpha, in the order first noted
    (a rate's crossings and skipped betas fold over alpha): the module's only warnings."""
    if bound is not None and (outer := _notes.get()) is not None:
        yield outer
        return
    held: list = []
    token = _notes.set(held)
    try:
        yield held
    finally:
        _notes.reset(token)
    groups: dict[tuple, list] = {}
    for kind, alpha, beta, detail in held if bound is not None else ():
        if rho is not None and kind in _OVER_ALPHA:
            kind, alpha, beta = _OVER_ALPHA[kind], None, alpha
        groups.setdefault((kind, alpha), []).append((beta, detail))
    for (kind, alpha), got in groups.items():
        (beta, detail), spread = got[0], {beta for beta, _ in got}
        lo, hi, n = min(spread), max(spread), len(spread)
        line = _LINES["skips" if kind == "skip" and len(got) > 1 else kind].format(
            rho=rho, beta=beta, detail=detail, n=n, lo=lo, hi=hi,
            s="s" if n > 1 else "", up_to=f"..{hi:g}" if n > 1 else "",
        )
        log.warning("%s %s%s", bound.value, "" if alpha is None else f"at alpha={alpha:g}: ", line)


def _once(table: dict, key, build: Callable, *args):
    """``build(*args)``, built once per ``key`` of ``table``: stored with the
    notes its build took, which every read, the first one included, adds to
    the open record.  A build that raises stores nothing.  In ``best_lower``'s
    table, t2 and t4 read one (source, alpha)'s beta rows, each noting their
    skips, and p4 or p6 and t4 one solve of the deficit they share at beta = 1;
    outside ``best_lower`` each call builds its own."""
    if (got := table.get(key)) is None:
        token = _notes.set(held := [])  # not _record(None): this is on every row's path
        try:
            got = table[key] = build(*args), held
        finally:
            _notes.reset(token)
    for note in got[1]:
        _note(*note)
    return got[0]


def _noted(report: ImplicitSolveReport, alpha: float, beta=None) -> ImplicitSolveReport:
    """``report``, noting a value at the scan cap, or the several crossings a
    bisection chose among (at t4's ``beta``)."""
    if report.diagnostic:
        _note("cap", alpha, detail=report.rho_lower)
    elif report.crossings_found > 1:
        kind = "crossings" if beta is None else "beta crossings"
        _note(kind, alpha, beta, report.crossings_found)
    return report


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
    _, _, bracket = _classify_scan(grid, deficit(grid))
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
    return _any_matrix_rate(1.0, rate_R(source.omega, alpha), source.variance)


def _any_matrix_rate(pref: float, r: float, v: float) -> float:
    """The rate that the any-matrix condition ``rho/2 * log(1 + v) >= pref * r``
    rules out: p3 at ``pref = 1``, t2 at one beta's row.  A target rate or a
    variance of 0 (one that underflowed rules out no rate here) gives 0."""
    if r == 0.0 or v == 0.0:
        return 0.0
    return 2.0 * pref * r / math.log1p(v)


def _genie_params(source: SourceParams, beta):
    """Effective (prefactor, sparsity rate, variance, entropy power) after a
    genie reveals the largest ``1 - beta`` fraction of nonzero values.

    At a float ``beta = 1`` the genie reveals nothing: these are p6's own
    parameters, the source's variance and entropy power, not their truncated
    recomputation.  An array of ``beta`` (each truncated) gives arrays.
    """
    omega = source.omega
    if not (array := type(beta) is np.ndarray) and beta == 1.0:
        return 1.0, omega, source.variance, source.entropy_power
    tr = truncate(source.dist, beta)
    om_b = beta * omega
    pref = 1.0 - (1.0 - beta) * omega
    v_eff = om_b * (1.0 - om_b) * tr.mean**2 + om_b * tr.variance
    if tr.diff_entropy is None:
        vh_eff = 0.0
    else:
        exp = np.exp if array else math.exp
        vh_eff = om_b * exp(2.0 * tr.diff_entropy) / (2.0 * math.pi * math.e)
    return pref, om_b, v_eff, vh_eff


def _beta_grid(source: SourceParams, alpha: float) -> np.ndarray:
    """``alpha``, then geometric offsets from ``alpha`` up to 1 (never past 1),
    with each of the value family's kinks that lies strictly inside (alpha, 1):
    a maximum there is a corner, which neither the geometric grid nor golden
    section lands on exactly."""
    lo = min(max(1e-12, alpha * 1e-9), 1.0 - alpha)
    offsets = np.geomspace(lo, 1.0 - alpha, BETA_GRID_POINTS - 1)
    grid = np.concatenate(([alpha], alpha + offsets))
    grid[-1] = 1.0
    kinks = [k for k in source.dist.kinks if alpha < k < 1.0]
    return np.union1d(grid, kinks) if kinks else grid


@_record(None)  # a beta that golden section skips is skipped silently
def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization to a relative interval of BETA_REFINE_RTOL."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)  # each step's row then runs on floats, not NumPy scalars
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


@_record(BoundId.T2_GENIE)
def t2_genie(source: SourceParams, alpha: float) -> tuple[float, float]:
    """Genie bound for any matrix, maximized over the retained fraction.

    Returns the bound and the maximizing retained fraction ``beta_star``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_args(source.omega, alpha)

    def value(row):
        return -math.inf if row is None else _any_matrix_rate(row[0], row[4], row[2])

    # The grid maximum, refined by golden section over its neighbours.
    grid, rows, row_at = _grid_rows(source, alpha)
    values = np.array([value(row) for row in rows])
    best = int(np.argmax(values))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    beta_star, val = _golden_max(lambda beta: value(row_at(beta)), lo, hi)
    if values[best] >= val:
        return float(values[best]), float(grid[best])
    return float(val), float(beta_star)


# ---------------------------------------------------------------------------
# Noisy bounds, i.i.d. matrices
# ---------------------------------------------------------------------------


def _genie_deficit(pref, om_b, v_eff, vh_eff, r_target, cond=None):
    """Deficit of the genie-aided inequality, as a function of the rate.

    The arguments are those of :func:`_genie_params` and the target rate; the
    conditional information is ``cond`` at ``vh_eff``, :func:`info_V` (the
    entropy power) unless given.  The deficit takes a float or an array of
    rates, as :func:`_solve_implicit` needs.  At ``beta = 1`` the genie
    reveals nothing (``pref = 1``, ``om_b = omega``): p4, p5 and p6.
    """
    cond = info_V if cond is None else cond  # looked up here, so a rebinding reaches it
    om_t = om_b / pref
    return lambda rho: info_G(rho / pref, v_eff) - r_target - om_t * cond(rho / om_b, vh_eff)


def _genie_solve(params: tuple, hi: float, cond=None) -> ImplicitSolveReport:
    """:func:`_solve_implicit` of :func:`_genie_deficit` at ``params`` (and
    ``cond``), from the grid ending at ``hi``, read through :func:`_once`."""
    key = ("solve", params, hi, cond)
    return _once(_tables.get({}), key, _solve_implicit, _genie_deficit(*params, cond), hi)


def _iid_solve(source: SourceParams, alpha: float, vh: float, cond=None) -> ImplicitSolveReport:
    """p4, p5 or p6: the genie deficit at ``beta = 1`` with the conditional
    term ``vh`` (read by ``cond``, as :func:`_genie_deficit`), solved from the
    first grid and noted; the zero report when no rate is needed."""
    r_target = rate_R(source.omega, alpha)
    if r_target == 0.0:
        return _ZERO_REPORT
    params = (1.0, source.omega, source.variance, vh, r_target)
    return _noted(_genie_solve(params, _scan_start(source.omega), cond), alpha)


@_record(BoundId.P4_IID)
def p4_iid(source: SourceParams, alpha: float) -> ImplicitSolveReport:
    """Log-determinant bound for i.i.d. matrices (unique crossing): 0 bounds
    what the values still hide."""
    _check_args(source.omega, alpha)
    if source.variance <= 0:
        raise ValueError("source variance must be positive")
    return _iid_solve(source, alpha, 0.0)


@_record(BoundId.P5_IID_GAUSSIAN)
def p5_gaussian(source: SourceParams, alpha: float) -> ImplicitSolveReport:
    """Strengthened i.i.d. bound when the values are Gaussian: the Gaussian's
    exact conditional information, ``info_G`` at ``omega * sigma^2``."""
    _check_args(source.omega, alpha)
    if not source.is_gaussian():
        raise ValueError("p5 requires a Gaussian value distribution")
    return _iid_solve(source, alpha, source.omega * source.dist.variance, info_G)


@_record(BoundId.P6_IID_ENTROPY)
def p6_entropy(source: SourceParams, alpha: float) -> ImplicitSolveReport:
    """Entropy-power strengthened i.i.d. bound for any density.

    Also cross-checks that the closed-form simplification never exceeds the
    solved bound.
    """
    _check_args(source.omega, alpha)
    if source.entropy_power <= 0.0:
        raise ValueError("p6 requires a distribution with a density; use p4 instead")
    report = _iid_solve(source, alpha, source.entropy_power)
    simple = 0.0 if report is _ZERO_REPORT else s_cor_thm2(source, alpha)  # no rate, no check
    if simple > report.rho_lower * (1.0 + 1e-9) + 1e-12:
        _note("check", alpha, detail=(simple, report.rho_lower))
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


def _genie_row(source: SourceParams, alpha: float, beta: float) -> tuple | None:
    """The genie parameters at one retained fraction (those of
    :func:`_genie_params`), then the target rate: the arguments of
    :func:`_genie_deficit`, and of t2's objective.  None, and a note, when
    they cannot be computed at this ``beta``, which t2 and t4 then skip."""
    try:
        pref, om_b, v_eff, vh_eff = _genie_params(source, beta)
        return pref, om_b, v_eff, vh_eff, rate_R(om_b / pref, min(alpha / beta, 1.0))
    except (ValueError, ArithmeticError) as exc:
        _note("skip", alpha, beta, exc)
        return None


def _grid_rows(source: SourceParams, alpha: float) -> tuple[np.ndarray, list, Callable]:
    """The beta grid, its :func:`_genie_row` rows, noting each skip, and a
    function giving the float row at any beta, each read through :func:`_once`.

    The rows below beta = 1 are one array pass, as floats within a few ulps of
    the float rows, or if it raises (a nonzero-mean Gaussian, a log of an
    underflowed 0, an overflow), the float rows.  The row at 1 is the float's.
    The float rows of the betas off the grid, which golden section reads, are
    never taken from the array pass.
    """

    def build():
        grid = _beta_grid(source, alpha)
        built: dict = {}  # keyed by the float beta alone, so no row hashes the source

        def row(beta):
            return _once(built, beta, _genie_row, source, alpha, beta)

        try:  # the rows below beta = 1, the grid's last point
            with np.errstate(all="raise", under="ignore"):
                params = _genie_params(source, grid[:-1])
                r = rate_R(params[1] / params[0], np.minimum(alpha / grid[:-1], 1.0))
            rows = list(zip(*(col.tolist() for col in np.broadcast_arrays(*params, r))))
        except (ValueError, ArithmeticError):
            rows = [_genie_row(source, alpha, beta) for beta in grid[:-1]]
        return grid, [*rows, row(grid[-1])], row

    return _once(_tables.get({}), (source, alpha), build)


def _top_down_pass(params, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """t4's top-down pass over the deficits of ``params`` (one row of
    :func:`_genie_deficit` arguments per beta): the ends of each row's bracket.

    The rate grid ending at ``hi`` is read TOP_PASS_POINTS rates at a time from
    its end down, to the first chunk where some row is negative.  Each such row's
    bracket surrounds its last negative rate (upper end ``inf`` at the grid's
    end); every other row is nonnegative from the chunk's lowest rate up and
    reads (``-inf``, that rate), or all read 0 if no row is negative.
    A row is evaluated only on the chunks [a, b] its interval bound does not
    clear: the deficit's operations on ``info_G`` at a and ``info_V`` at b,
    above a 1e-12 relative margin, where both rise (gamma and r*gamma of
    ``info_G`` at most MONOTONE_GAMMA, r of ``info_V`` off [INFO_V_PEAK, 1)).
    A NaN or infinite value raises NonFiniteDeficitError, naming the lowest
    rate of the grid at which some row is not finite.
    """
    rates = _rho_grid(hi)
    stops = np.arange(rates.size, 0, -TOP_PASS_POINTS)
    starts = np.maximum(stops - TOP_PASS_POINTS, 0)
    lows, tops = rates[starts], rates[stops - 1]
    # One column per parameter broadcasts to one row per beta.
    pref, om_b, v, vh, r_t = cols = np.array(params).T[:, :, None]
    with np.errstate(all="ignore"):  # a bound that is not finite clears nothing
        g, r_v = info_G(lows / pref, v), tops / om_b
        om_v = om_b / pref * info_V(r_v, vh)
        rising = (v <= MONOTONE_GAMMA) & (tops / pref * v <= MONOTONE_GAMMA)
        rising &= (r_v <= INFO_V_PEAK) | (lows / om_b >= 1.0)
        clear = rising & (g - r_t - om_v > 1e-12 * (abs(g) + r_t + om_v))
    for start, stop, cleared in zip(starts, stops, clear.T):
        if not (rows := np.flatnonzero(~cleared)).size:
            continue
        # A NaN or infinite value is refused here, so numpy need not warn.
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = _genie_deficit(*cols[:, rows])(rates[start:stop])
            if not np.isfinite(vals).all():
                _refuse_non_finite(rates, _genie_deficit(*cols)(rates))  # the lowest such rate
        neg = vals < 0.0
        hit = neg.any(axis=1)
        if hit.any():
            last = stop - 1 - np.argmax(neg[hit, ::-1], axis=1)  # last negative index
            lower, upper = np.full(len(params), -math.inf), np.full(len(params), rates[start])
            lower[rows[hit]] = rates[last]
            upper[rows[hit]] = np.append(rates, math.inf)[last + 1]
            return lower, upper
    return np.zeros(len(params)), np.zeros(len(params))


@_record(BoundId.T4_IID_GENIE)
def t4_genie_iid(source: SourceParams, alpha: float) -> tuple[ImplicitSolveReport, float]:
    """Genie-aided entropy-power bound for i.i.d. matrices.

    Maximizes the solved rate over the retained fraction ``beta``; returns the
    best solve report and ``beta_star``.  Each grid row follows the ladder of
    rate grids its own scan would: the top-down pass reads its bracket on the
    first grid, and on each next grid while it is still violated at the end.
    The rows whose upper end on the grid where they stop exceeds the largest
    lower end read on such a grid are solved from that grid, as p4 and p6 are,
    in index order, and the first of the largest rates is kept; if there are
    none, the first row not skipped is solved.  The best row is refined by
    the envelope condition (the deficit's beta-derivative vanishes at the
    maximizer's rate): golden section over the neighbouring grid points finds
    the beta most violated at the best rate so far, and a full solve there
    replaces that rate only if larger, at most BETA_REFINE_ROUNDS times, while
    the rate rises.
    """
    omega = source.omega
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    _check_args(omega, alpha)
    if rate_R(omega, alpha) == 0.0:  # every beta's target rate is 0 as well
        return _ZERO_REPORT, alpha

    def solve(beta, params, rho_hi):
        if params[4] == 0.0 and params[3] == 0.0:  # no rate needed and no density
            return _ZERO_REPORT
        return _noted(_genie_solve(params, rho_hi), alpha, beta)

    grid, rows, row_at = _grid_rows(source, alpha)
    rising = [i for i, p in enumerate(rows) if p is not None and (p[4] != 0.0 or p[3] != 0.0)]
    ends = {}  # row -> (the end of the grid its scan stops on, its lower and upper end there)
    rho_hi = start = _scan_start(omega)
    while rising and rho_hi is not None:  # a row still violated at its grid's end climbs on
        lower, upper = _top_down_pass([rows[i] for i in rising], rho_hi)
        ends.update((i, (rho_hi, lo, up)) for i, lo, up in zip(rising, lower, upper))
        rising, rho_hi = [i for i, up in zip(rising, upper) if up == math.inf], _next_end(rho_hi)
    # A solve reaches its row's lower end and ends inside its bracket, so a row not
    # solved ends at or below a solved one (below, unless it reads 0 where no row is
    # negative).  The first grid puts every row in ``ends``, in index order.
    top = max((lo for _, lo, _ in ends.values()), default=-math.inf)
    kept = [(i, end) for i, (end, _, up) in ends.items() if up > top]
    kept = kept or [(next(i for i, p in enumerate(rows) if p is not None), start)]
    reports = ((solve(grid[i], rows[i], end), i) for i, end in kept)
    report, best = max(reports, key=lambda pair: pair[0].rho_lower)  # the first largest
    beta_star = float(grid[best])
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]

    def violation(beta, rho):  # minus the deficit at a fixed rate; skipped as on the grid
        params = row_at(beta)
        return -math.inf if params is None else -_genie_deficit(*params)(rho)

    for _ in range(BETA_REFINE_ROUNDS):
        # The deficit is not defined at rate 0; a range-exceeded row ends its scan.
        if report.rho_lower == 0.0 or report.diagnostic:
            break
        beta, _ = _golden_max(functools.partial(violation, rho=report.rho_lower), lo, hi)
        if beta == beta_star or (found := row_at(beta)) is None:
            break
        solved = solve(beta, found, start)
        if not solved.rho_lower > report.rho_lower:
            break
        report, beta_star = solved, float(beta)
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
    ``target_free(source)``, for a bound that depends on alpha only through
    the target ``rate_R(omega, alpha)``, is the rest of its inequality, c: its
    deficit at target 0, of a float or an array of rates (``alpha_curve``
    inverts such a bound on ``rate_R``).
    """

    evaluate: Callable[[SourceParams, float], tuple[float, float | None]]
    matrix_class: str | None
    applies: Callable[[SourceParams], bool] = lambda source: True
    target_free: Callable[[SourceParams], Callable] | None = None


def _t4_value(source: SourceParams, alpha: float) -> tuple[float, float]:
    report, beta_star = t4_genie_iid(source, alpha)
    return report.rho_lower, beta_star


# The evaluators look their bound up by name at call time, so rebinding a
# module-level name (as a tracer does) reaches every call.  ``best_lower``
# walks the rows in this order and keeps the first of equal values, so the
# order decides ties.
_BOUNDS: dict[BoundId, _Bound] = {
    BoundId.P3_GENERAL: _Bound(
        lambda s, a: (p3_general(s, a), None), "any",
        target_free=lambda s: lambda rho: 0.5 * rho * math.log1p(s.variance),
    ),
    BoundId.T2_GENIE: _Bound(lambda s, a: t2_genie(s, a), "any"),
    BoundId.P4_IID: _Bound(
        lambda s, a: (p4_iid(s, a).rho_lower, None), "iid",
        target_free=lambda s: _genie_deficit(1.0, s.omega, s.variance, 0.0, 0.0),
    ),
    BoundId.P5_IID_GAUSSIAN: _Bound(
        lambda s, a: (p5_gaussian(s, a).rho_lower, None), "iid", lambda s: s.is_gaussian(),
        lambda s: _genie_deficit(1.0, s.omega, s.variance, s.omega * s.dist.variance, 0.0, info_G),
    ),
    BoundId.P6_IID_ENTROPY: _Bound(
        lambda s, a: (p6_entropy(s, a).rho_lower, None), "iid", lambda s: s.entropy_power > 0.0,
        lambda s: _genie_deficit(1.0, s.omega, s.variance, s.entropy_power, 0.0),
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
        raise ValueError(f"bound {bound.value} is not an evaluatable rate bound")
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
    call = contextvars.copy_context()  # t2 and t4 share one beta-row table in this call
    call.run(_tables.set, {})
    for bound, row in _BOUNDS.items():
        if row.matrix_class not in classes or not row.applies(source):
            continue
        val, _ = call.run(evaluate_bound, source, bound, alpha)
        if val > best_val:
            best_val, best_id = val, bound
    return best_val, best_id


def _bisect_alpha(meets, lo: float, hi: float) -> tuple[float, float]:
    """Halve ``[lo, hi]`` towards the smallest distortion that ``meets`` (a
    predicate that holds at ``hi`` and not at ``lo``), at most 60 times or
    until the ends are neighbouring floats; returns the last bracket."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return lo, hi


def _widen(meets, lo: float, hi: float, floor: float, top: float) -> tuple[float, float]:
    """Grow ``[lo, hi]`` geometrically, from its own width and within
    ``[floor, top]``, until ``meets`` holds at ``hi`` and not at ``lo``; it
    must hold at ``top`` and not at ``floor``, which end the widening."""
    step = hi - lo
    while not meets(hi):
        lo, step = hi, 2.0 * step
        hi = min(hi + step, top)
    while meets(lo):
        hi, step = lo, 2.0 * step
        lo = max(lo - step, floor)
    return lo, hi


def _threshold(c, omega: float):
    """For a bound's target-free ``c``, the map from a rate rho to T(rho): the
    least c at each rate above rho on the first grid of the scan's ladder that
    ends above rho, and at the float above rho unless rho is below the grids'
    floor (a NaN is passed over).  At a target rate of at most T(rho), a scan
    stops on that grid or below it, and its deficit is nonnegative at every
    rate it reads above rho.  A scan reads no rate below the floor, where the
    rate functions underflow, so there a scanned bound meets rho only at 0
    (p3, which does not scan, is then left to the bound's confirmation)."""
    least = {}  # the end of a ladder grid -> the least c from each of its rates up

    def threshold(rho: float) -> float:
        end = _scan_start(omega)
        while end is not None and end <= rho:
            end = _next_end(end)
        t = c(math.nextafter(rho, math.inf)) if rho >= RHO_GRID_FLOOR else math.inf
        if end is None:
            return t
        grid = _rho_grid(end)
        with np.errstate(all="ignore"):  # a NaN or infinite c only passes or fails the test
            ups = _once(
                least, end, lambda: np.append(np.fmin.accumulate(c(grid)[::-1])[::-1], math.inf)
            )
        return float(np.fmin(t, ups[np.searchsorted(grid, rho, side="right")]))

    return threshold


def alpha_curve(source: SourceParams, bound: BoundId, rho_grid: list[float]) -> BoundCurve:
    """Invert a bound to distortion-versus-rate: for each rate, the smallest
    distortion whose bound does not exceed it.

    Distortions are searched in ``[ALPHA_FLOOR, 1)``.  A rate that no alpha
    there meets, or where the bound is not monotone across that bracket, is
    omitted, with its reason in ``solver_meta``.  A NaN, infinite or negative
    rate raises ValueError before anything is evaluated.  The warnings of one
    rate's inversion, those of the bracket ends included, form one record.
    Each distortion is evaluated once per call, and its notes replayed.

    Two routes bisect the bracket, with the same midpoints.  t2 and t4 (whose
    beta grid alpha also sets) test the bound itself at each one.  A bound
    whose table row names its target-free c (p3, p4, p5, p6) tests only
    ``rate_R(omega, alpha) <= T(rho)`` (:func:`_threshold`), with no implicit
    solve; the bound itself then confirms the bracket: it must meet rho at the
    upper end and exceed it at the lower.  Where it does not, the bracket is
    widened geometrically until the bound confirms both ends, and bisected on
    the bound.  So the bound is evaluated at every distortion written, as the
    first route does.  ``solver_meta`` holds each rate's last bracket
    (``"bracket"``) and the rates where the bound overruled the bracket that
    c gave (``"repaired"``).
    """
    if bad := [rho for rho in rho_grid if not 0.0 <= rho < math.inf]:
        raise ValueError(f"rates must be finite and nonnegative, got {bad[0]}")
    points: list[tuple[float, float]] = []
    meta: dict = {
        "omitted": [], "alpha_floor": ALPHA_FLOOR, "beta_star": {}, "bracket": {}, "repaired": []
    }
    seen: dict = {}  # alpha -> ((value, beta*), notes), read through _once
    target_free = _BOUNDS[bound].target_free if bound in _BOUNDS else None
    threshold = None if target_free is None else _threshold(target_free(source), source.omega)
    floor, top = ALPHA_FLOOR, 1.0 - 1e-9

    def at(alpha):
        return _once(seen, alpha, evaluate_bound, source, bound, alpha)

    for rho in sorted(rho_grid):
        with _record(bound, rho):  # each rate's record starts with the bracket ends' notes
            (val_lo, _), (val_hi, _) = at(floor), at(top)
            rises = val_lo < val_hi
            if rises or val_hi > rho:  # or val_lo >= val_hi > rho: no alpha meets rho
                reason = "non-monotone bracket" if rises else "bound exceeds rho on full range"
                meta["omitted"].append((rho, reason))
                _note("omitted", None, detail=reason)
                continue
            if val_lo <= rho:
                points.append((rho, 0.0))
                continue

            def meets(alpha):
                return at(alpha)[0] <= rho

            if threshold is None:
                lo, hi = _bisect_alpha(meets, floor, top)
            else:
                t = threshold(rho)
                lo, hi = _bisect_alpha(lambda alpha: rate_R(source.omega, alpha) <= t, floor, top)
                if not (meets(hi) and not meets(lo)):
                    meta["repaired"].append(rho)
                    lo, hi = _bisect_alpha(meets, *_widen(meets, lo, hi, floor, top))
            meta["beta_star"][rho] = at(hi)[1]
            meta["bracket"][rho] = (lo, hi)
            points.append((rho, hi))
    return BoundCurve(bound, source, "alpha_vs_rho", points, meta)


def source_at_snr(dist: DistributionSpec, omega: float, snr_db: float) -> SourceParams:
    """Scale a distribution to the per-sample SNR (dB) and wrap it as a source."""
    return source_functionals(omega, scale_to_snr(dist, omega, snr_db))
