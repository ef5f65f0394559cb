"""Command-line front end: bound curves, verification suites, simulations.

CSV files are the output contract (12 significant digits, fixed column order,
deterministic for a fixed seed and configuration); every output is accompanied
by a key=value manifest recording the command, a configuration hash, the seed,
and the tool version.  SVG plots are optional and purely decorative.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import math
import sys

import numpy as np

from . import __version__
from . import bounds as bd
from . import montecarlo as mc
from . import simulate as sim
from .distributions import (
    Gaussian,
    PointMass,
    SlicedGaussian,
    Uniform,
    truncate,
    truncate_oracle,
)
from .montecarlo import BudgetError
from .ratefun import rate_R

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY_FAIL = 3
EXIT_BUDGET = 4
GRID_MAX_POINTS = 1_000_000

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _config_hash(items: dict) -> str:
    canon = "\n".join(f"{k}={_fmt(items[k])}" for k in sorted(items))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write_manifest(out_path: str, command: str, args_dict: dict, seed) -> None:
    lines = {
        "command": command,
        "config_hash": _config_hash(args_dict),
        "seed": "" if seed is None else str(seed),
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(out_path + ".manifest", "w") as fh:
        for key in ("command", "config_hash", "seed", "tool_version", "timestamp"):
            fh.write(f"{key} = {lines[key]}\n")


def _parse_grid(spec: str) -> np.ndarray:
    """Grid spec 'start:stop:count[:log]', of at most GRID_MAX_POINTS points."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError(f"grid spec must be start:stop:count[:log], got {spec!r}")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid ends must be finite, got {spec!r}")
    if count < 1:
        raise ValueError("grid count must be at least 1")
    if count > GRID_MAX_POINTS:
        raise BudgetError(f"grid count {count} exceeds the budget of {GRID_MAX_POINTS} points")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ValueError(f"unknown grid qualifier {parts[3]!r}")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _sliced_from_eta(eta: float, power: float = 1.0) -> SlicedGaussian:
    """Sliced-Gaussian with floor magnitude sqrt(eta * power) and total power
    ``power`` (solves the normalization quadratic for the slice sigma)."""
    b = math.sqrt(eta * power)
    c = SQRT_2_OVER_PI
    disc = b * b * c * c + power - b * b
    sz = -b * c + math.sqrt(disc)
    if sz <= 0:
        raise ValueError(f"eta={eta} leaves no room for a positive slice width")
    return SlicedGaussian(b, sz * sz)


def _dist_from_args(args) -> object:
    kind = args.dist
    if kind == "gaussian":
        return Gaussian(args.mean, args.sigma2)
    if kind == "uniform":
        if args.mu2_over_sigma2 is not None:
            return Uniform(math.sqrt(args.mu2_over_sigma2 * args.sigma2), args.sigma2)
        return Uniform(args.mean, args.sigma2)
    if kind == "pointmass":
        if args.eps_mass is None:
            return PointMass(args.eta, 1.0, limit=True)
        return PointMass(args.eta, 1.0, outer_mass=args.eps_mass)
    if kind == "sliced":
        return _sliced_from_eta(args.eta)
    raise ValueError(f"unknown distribution {kind!r}")


def _add_dist_flags(parser) -> None:
    parser.add_argument(
        "--dist",
        choices=["gaussian", "uniform", "pointmass", "sliced"],
        default="gaussian",
        help="nonzero-value distribution family",
    )
    parser.add_argument("--mean", type=float, default=0.0, help="mean (gaussian/uniform)")
    parser.add_argument("--sigma2", type=float, default=1.0, help="variance (gaussian/uniform)")
    parser.add_argument(
        "--mu2-over-sigma2",
        type=float,
        default=None,
        help="set the uniform mean from the squared-mean-to-variance ratio",
    )
    parser.add_argument(
        "--eta",
        type=float,
        default=0.2,
        help="floor power as a fraction of total power (pointmass/sliced)",
    )
    parser.add_argument(
        "--eps-mass",
        type=float,
        default=None,
        help="outer atom mass for pointmass (omitted: vanishing-mass limit)",
    )


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def cmd_bounds(args) -> int:
    dist = _dist_from_args(args)
    source = bd.source_at_snr(dist, args.omega, args.snr_db)
    names = [b.strip() for b in args.bounds.split(",") if b.strip()]
    if not names:
        raise ValueError("empty bound list")
    bound_ids = [bd.BoundId(name) for name in names]
    grid = _parse_grid(args.grid)

    rows: list[list] = []
    if args.invert:
        for bound in bound_ids:
            curve = bd.alpha_curve(source, bound, [float(g) for g in grid])
            for rho, alpha in curve.points:
                beta = curve.solver_meta["beta_star"].get(rho)
                rows.append([bound.value, rho, alpha, beta])
        header = ["bound", "rho", "alpha", "beta_star"]
    else:
        for bound in bound_ids:
            for alpha in grid:
                rho, beta = bd.evaluate_bound(source, bound, float(alpha))
                rows.append([bound.value, float(alpha), rho, beta])
        header = ["bound", "alpha", "rho", "beta_star"]

    _write_csv(args.out, header, rows)
    _write_manifest(args.out, "bounds", _namespace_dict(args), args.seed)
    if args.svg:
        # Both layouts plot distortion against sampling rate.
        series: dict[str, list] = {}
        for row in rows:
            rho, alpha = (row[1], row[2]) if args.invert else (row[2], row[1])
            series.setdefault(row[0], []).append((float(rho), float(alpha)))
        _write_svg(args.svg, series, "sampling rate", "distortion")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# snr-curve
# ---------------------------------------------------------------------------


def cmd_snr_curve(args) -> int:
    if not 0.0 <= args.eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {args.eta}")
    grid = _parse_grid(args.grid)
    rows = []
    for snr_db in grid:
        candidates = {
            "pointmass": PointMass(args.eta, 1.0, limit=True),
            "sliced": _sliced_from_eta(args.eta),
        }
        best = {}
        for name, dist in candidates.items():
            source = bd.source_at_snr(dist, args.omega, float(snr_db))
            best[name] = bd.best_lower(source, args.alpha, "iid")
        winner = max(best, key=lambda name: best[name][0])
        rows.append(
            [
                float(snr_db),
                best["pointmass"][0],
                best["pointmass"][1].value,
                best["sliced"][0],
                best["sliced"][1].value,
                max(best["pointmass"][0], best["sliced"][0]),
                winner,
            ]
        )
    header = [
        "snr_db",
        "rho_pointmass",
        "bound_pointmass",
        "rho_sliced",
        "bound_sliced",
        "rho_best",
        "winner",
    ]
    _write_csv(args.out, header, rows)
    _write_manifest(args.out, "snr-curve", _namespace_dict(args), args.seed)
    if args.svg:
        series = {
            "pointmass": [(row[0], row[1]) for row in rows],
            "sliced": [(row[0], row[3]) for row in rows],
        }
        _write_svg(args.svg, series, "SNR (dB)", "sampling rate")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check(name: str, measured: float, tolerance: float, passed: bool | None = None) -> dict:
    """One verify row; ``passed`` defaults to ``measured <= tolerance``."""
    if passed is None:
        passed = measured <= tolerance
    return {"check": name, "measured": measured, "tolerance": tolerance, "passed": passed}


def _suite_truncation(args) -> list[dict]:
    checks = []
    cases = [
        ("gaussian_1", Gaussian(0.0, 1.0)),
        ("gaussian_4", Gaussian(0.0, 4.0)),
        ("uniform_offset", Uniform(2.0, 1.0)),
        ("uniform_straddle", Uniform(0.5, 1.0)),
        ("sliced", SlicedGaussian(0.5, 0.4)),
    ]
    betas = [0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0]
    for name, dist in cases:
        for beta in betas:
            closed = truncate(dist, beta)
            quad = truncate_oracle(dist, beta, "quadrature")
            gap = max(
                abs(closed.mean - quad.result.mean),
                abs(closed.variance - quad.result.variance),
                abs(closed.diff_entropy - quad.result.diff_entropy),
            )
            checks.append(_check(f"truncation_quad_{name}_beta{beta}", gap, 1e-8))
    mc_cases = [
        ("gaussian", Gaussian(0.0, 1.0), 0.3),
        ("uniform", Uniform(2.0, 1.0), 0.5),
        ("sliced", SlicedGaussian(0.5, 0.4), 0.7),
    ]
    for name, dist, beta in mc_cases:
        closed = truncate(dist, beta)
        mco = truncate_oracle(dist, beta, "montecarlo", budget=400_000, seed=args.seed)
        gap = abs(closed.variance - mco.result.variance)
        tol = 3.0 * mco.variance_err
        checks.append(_check(f"truncation_mc_{name}_beta{beta}", gap, tol))
    pm = PointMass(0.2, 1.0, outer_mass=0.1)
    for beta in (0.05, 0.9, 0.95, 1.0):
        closed = truncate(pm, beta)
        exact = truncate_oracle(pm, beta, "quadrature")
        gap = abs(closed.variance - exact.result.variance)
        checks.append(_check(f"truncation_atoms_beta{beta}", gap, 0.0))
    return checks


def _suite_mp_logdet(args) -> list[dict]:
    checks = []
    gammas = (1.0, 10.0, 100.0)
    for r in (0.5, 1.0, 2.0):
        config = mc.MCConfig(n=args.n, r=r, trials=args.trials, seed=args.seed)
        for gamma, est in zip(gammas, mc._mp_logdets(config, gammas)):
            checks.append(_check(f"mp_logdet_r{r}_g{gamma}", est.relative_gap, 0.02))
    return checks


def _suite_det_power(args) -> list[dict]:
    checks = []
    for r in (1.0, 2.0):
        est = mc.det_power(mc.MCConfig(n=args.n, r=r, trials=min(args.trials, 25), seed=args.seed))
        checks.append(_check(f"det_power_r{r}", est.relative_gap, 0.03))
    return checks


def _suite_covering(args) -> list[dict]:
    if args.n < 1:
        raise ValueError(f"n must be at least 1, got {args.n}")
    # Checks omega = k/n and alpha before any cover is built.
    rate = rate_R(args.k / args.n, args.alpha)
    lower, upper = mc.covering_bracket(args.n, args.k, args.alpha, seed=args.seed)
    lo_rate = math.log(lower) / args.n
    up_rate = math.log(upper) / args.n
    name = f"n{args.n}_k{args.k}"
    return [
        _check(
            f"covering_lower_{name}",
            lo_rate - rate,
            0.15,
            abs(lo_rate - rate) <= 0.15 and lower <= upper,
        ),
        _check(f"covering_upper_{name}", up_rate - rate, 0.15, abs(up_rate - rate) <= 0.15),
    ]


def _suite_power_ratio(args) -> list[dict]:
    grid = np.geomspace(1e-3, 1.0, 50)
    scan = mc.power_ratio_scan(Gaussian(0.0, 1.0), 0.1, grid)
    gap = abs(scan[0][1] - math.pi / 6.0) / (math.pi / 6.0)
    checks = [_check("power_ratio_gaussian_pi6", gap, 0.01)]
    for name, dist in [
        ("gaussian", Gaussian(0.0, 1.0)),
        ("uniform", Uniform(2.0, 1.0)),
        ("pointmass", PointMass(0.2, 1.0, limit=True)),
        ("sliced", SlicedGaussian(0.5, 0.4)),
    ]:
        ratios = [r for _, r in mc.power_ratio_scan(dist, 0.1, grid)]
        ok = min(ratios) > 0.0 and math.isfinite(max(ratios))
        checks.append(
            _check(f"power_ratio_bounded_{name}", max(ratios) / min(ratios), math.inf, ok)
        )
    return checks


def _suite_rank(args) -> list[dict]:
    p_gauss = mc.rank_deficiency(16, 0.5, "gaussian", trials=min(args.trials, 200), seed=args.seed)
    probs = [
        mc.rank_deficiency(n, 0.5, "rademacher", trials=max(args.trials, 1000), seed=args.seed)
        for n in (8, 16, 32)
    ]
    return [
        _check("rank_gaussian_never_deficient", p_gauss, 0.0),
        _check(
            "rank_rademacher_decreasing",
            max(probs[1] - probs[0], probs[2] - probs[1]),
            0.0,
            probs[0] > probs[1] > probs[2],
        ),
    ]


VERIFY_SUITES = {
    "truncation": _suite_truncation,
    "mp_logdet": _suite_mp_logdet,
    "det_power": _suite_det_power,
    "covering": _suite_covering,
    "power_ratio": _suite_power_ratio,
    "rank": _suite_rank,
}


def cmd_verify(args) -> int:
    suites = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    rows = []
    all_passed = True
    for suite in suites:
        if suite not in VERIFY_SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        suite_args = args
        if args.suite == "all" and suite == "covering":
            # --n means the matrix dimension elsewhere; the covering check
            # needs an enumerable support universe, so "all" runs its
            # reference case.
            suite_args = argparse.Namespace(**vars(args))
            suite_args.n, suite_args.k, suite_args.alpha = 22, 4, 0.5
        for check in VERIFY_SUITES[suite](suite_args):
            status = "PASS" if check["passed"] else "FAIL"
            all_passed &= check["passed"]
            print(
                f"{status} {check['check']}: measured {_fmt(check['measured'])} "
                f"tolerance {_fmt(check['tolerance'])}"
            )
            rows.append(
                [suite, check["check"], status, check["measured"], check["tolerance"]]
            )
    if args.out:
        _write_csv(args.out, ["suite", "check", "status", "measured", "tolerance"], rows)
        _write_manifest(args.out, "verify", _namespace_dict(args), args.seed)
    print(("all checks passed" if all_passed else "SOME CHECKS FAILED"))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    dist = _dist_from_args(args)
    config = sim.SimConfig(
        n=args.n,
        omega=args.omega,
        dist=dist,
        rho=args.rho,
        snr_db=None if args.noiseless else args.snr_db,
        matrix=args.matrix,
        epsilon=args.epsilon,
        trials=args.trials,
        seed=args.seed,
    )
    outcomes, summary = sim.run_experiment(config)
    rows = [
        [o.trial, o.distortion, o.exact, o.residual_min, o.runner_up_gap] for o in outcomes
    ]
    _write_csv(args.out, ["trial", "distortion", "exact", "residual_min", "runner_up_gap"], rows)
    _write_manifest(args.out, "simulate", _namespace_dict(args), args.seed)
    with open(args.out + ".summary", "w") as fh:
        fh.write(f"trials = {summary.trials}\n")
        fh.write(f"completed = {summary.completed}\n")
        fh.write(f"declared_errors = {summary.declared_errors}\n")
        fh.write(f"mean_distortion = {_fmt(summary.mean_distortion)}\n")
        fh.write(f"distortion_se = {_fmt(summary.distortion_se)}\n")
        fh.write(f"exact_rate = {_fmt(summary.exact_rate)}\n")
        fh.write(f"truncated = {1 if summary.truncated else 0}\n")
    print(
        f"completed {summary.completed}/{summary.trials} trials; "
        f"mean distortion {_fmt(summary.mean_distortion)}; "
        f"exact rate {_fmt(summary.exact_rate)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# truncate-table
# ---------------------------------------------------------------------------


def cmd_truncate_table(args) -> int:
    dist = _dist_from_args(args)
    grid = _parse_grid(args.grid)
    rows = []
    for beta in grid:
        tr = truncate(dist, float(beta))
        rows.append([tr.beta, tr.threshold, tr.mean, tr.variance, tr.diff_entropy])
    _write_csv(args.out, ["beta", "threshold", "mean", "variance", "diff_entropy"], rows)
    _write_manifest(args.out, "truncate-table", _namespace_dict(args), args.seed)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG (decorative)
# ---------------------------------------------------------------------------


def _write_svg(path: str, series: dict, xlabel: str, ylabel: str) -> None:
    """Minimal deterministic polyline plot; CSV remains the contract."""
    width, height, margin = 640, 480, 60
    points = [p for pts in series.values() for p in pts if all(map(math.isfinite, p))]
    if not points:
        xs = ys = (0.0, 1.0)
    else:
        xs = (min(p[0] for p in points), max(p[0] for p in points))
        ys = (min(p[1] for p in points), max(p[1] for p in points))
    spanx = xs[1] - xs[0] or 1.0
    spany = ys[1] - ys[0] or 1.0

    def to_px(p):
        x = margin + (p[0] - xs[0]) / spanx * (width - 2 * margin)
        y = height - margin - (p[1] - ys[0]) / spany * (height - 2 * margin)
        return f"{x:.2f},{y:.2f}"

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle">{xlabel}</text>',
        f'<text x="15" y="{height // 2}" text-anchor="middle" '
        f'transform="rotate(-90 15 {height // 2})">{ylabel}</text>',
    ]
    for idx, (name, pts) in enumerate(sorted(series.items())):
        finite = [p for p in pts if all(map(math.isfinite, p))]
        if not finite:
            continue
        color = palette[idx % len(palette)]
        path_str = " ".join(to_px(p) for p in sorted(finite))
        parts.append(f'<polyline points="{path_str}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * idx + 12}" '
            f'fill="{color}" font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _namespace_dict(args) -> dict:
    return {
        k: v for k, v in vars(args).items() if k not in ("func", "config") and v is not None
    }


def _load_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line is not key = value: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = _coerce(val)
    return values


def _coerce(val: str):
    low = val.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            continue
    return val


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdbounds",
        description="Sampling-rate lower bounds for approximate sparsity-pattern "
        "recovery, with Monte-Carlo verification and desk-scale simulations.",
    )
    parser.add_argument("--config", default=None, help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate bound curves to CSV")
    _add_dist_flags(p_bounds)
    p_bounds.add_argument("--omega", type=float, default=1e-4)
    p_bounds.add_argument("--snr-db", type=float, default=10.0)
    p_bounds.add_argument(
        "--bounds",
        default="p4_iid,p6_iid_entropy",
        help="comma-separated bound identifiers",
    )
    p_bounds.add_argument("--grid", default="1e-3:0.9:40:log", help="distortion grid")
    p_bounds.add_argument(
        "--invert",
        action="store_true",
        help="treat the grid as sampling rates and solve for distortions",
    )
    p_bounds.add_argument("--seed", type=int, default=0)
    p_bounds.add_argument("--out", required=True)
    p_bounds.add_argument("--svg", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_snr = sub.add_parser("snr-curve", help="best bound vs SNR for a floored source")
    p_snr.add_argument("--omega", type=float, default=1e-4)
    p_snr.add_argument("--alpha", type=float, default=0.1)
    p_snr.add_argument("--eta", type=float, default=0.2)
    p_snr.add_argument("--grid", default="-25:55:17", help="SNR grid in dB")
    p_snr.add_argument("--seed", type=int, default=0)
    p_snr.add_argument("--out", required=True)
    p_snr.add_argument("--svg", default=None)
    p_snr.set_defaults(func=cmd_snr_curve)

    p_verify = sub.add_parser("verify", help="run numerical verification suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        choices=list(VERIFY_SUITES) + ["all"],
    )
    p_verify.add_argument("--n", type=int, default=400)
    p_verify.add_argument("--k", type=int, default=2)
    p_verify.add_argument("--alpha", type=float, default=0.5)
    p_verify.add_argument("--trials", type=int, default=50)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a recovery experiment to CSV")
    _add_dist_flags(p_sim)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--omega", type=float, required=True)
    p_sim.add_argument("--rho", type=float, required=True)
    p_sim.add_argument("--snr-db", type=float, default=None)
    p_sim.add_argument("--noiseless", action="store_true")
    p_sim.add_argument(
        "--matrix", choices=["iid_gaussian", "rate_sharing"], default="iid_gaussian"
    )
    p_sim.add_argument("--epsilon", type=float, default=0.1, help="rate-sharing slack")
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_tab = sub.add_parser("truncate-table", help="dump truncated moments over a beta grid")
    _add_dist_flags(p_tab)
    p_tab.add_argument("--grid", default="0.05:1:20:log", help="beta grid")
    p_tab.add_argument("--seed", type=int, default=0)
    p_tab.add_argument("--out", required=True)
    p_tab.set_defaults(func=cmd_truncate_table)

    if config:
        for action in parser._subparsers._group_actions:
            for sub_parser in action.choices.values():
                for sub_action in sub_parser._actions:
                    if sub_action.dest in config:
                        sub_parser.set_defaults(**{sub_action.dest: config[sub_action.dest]})
                        sub_action.required = False
    return parser


def _config_path(argv: list[str]) -> str | None:
    """The ``--config`` value, in either ``--config FILE`` or ``--config=FILE``
    form; raises argparse.ArgumentError when the value is missing."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config", default=None)
    return pre.parse_known_args(argv)[0].config


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config_path = _config_path(argv)
        config = {} if config_path is None else _load_config(config_path)
    except (argparse.ArgumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser(config)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
