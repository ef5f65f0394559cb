"""One benchmark workload, run in its own process by ``run.py``.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The launcher sets the BLAS pool to one thread and puts the checkout's ``src``
first on ``PYTHONPATH`` before this process starts.  The last line of
standard output is a JSON object with the raw measurements; ``run.py`` turns
it into the benchmark's result line.  See README.md for what each workload
runs and why.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import tracing
from srdbounds import bounds, cli, montecarlo, simulate
from srdbounds.bounds import (
    BoundId,
    best_lower,
    evaluate_bound,
    p3_general,
    p4_iid,
    p5_gaussian,
    p6_entropy,
    source_at_snr,
    t2_genie,
    t4_genie_iid,
)
from srdbounds.distributions import Gaussian, PointMass, SlicedGaussian, Uniform, truncate, truncate_oracle
from srdbounds.montecarlo import (
    MCConfig,
    covering_bracket,
    det_power,
    mp_logdet,
    power_ratio_scan,
    rank_deficiency,
)
from srdbounds.simulate import MultipleMinimalSupportsError, exhaustive_ml, rate_sharing_recover

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# The guide's tail percentile needs at least ten operations beyond it, and
# with fewer than forty samples that percentile would be no tail.
MIN_OPS = 40
TAIL_BEYOND = 10
FAILED = object()
# The host's load changes this VM's speed by 10-30 % within seconds, for the
# program and for any fixed piece of code alike.  So a timed run takes a
# calibration sample at least every CAL_EVERY_S, and scales each operation
# and each CLI pass by CAL_REF_S / (median of the CAL_NEAREST samples nearest
# to it), i.e. to the speed at which a sample takes CAL_REF_S.  A sample
# mixes the kinds of work the program does, about 2 ms each: interpreter
# arithmetic, allocating and hashing Python objects, numpy passes over
# memory, and LAPACK on a small matrix.  It is run once untimed first, so
# that what the program left in the caches does not change it.
CAL_REF_S = 0.0085
CAL_EVERY_S = 0.15
CAL_NEAREST = 9


class Calibration:
    def __init__(self):
        # (midpoint, wall seconds, thread CPU seconds) of each sample; the
        # midpoint is on the perf_counter clock
        self.samples: list[tuple[float, float, float]] = []
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(50_000)
        self.buf = np.empty_like(self.values)
        square = rng.standard_normal((100, 100))
        self.spd = square @ square.T + 100.0 * np.eye(100)
        self.last = time.perf_counter()

    def _work(self) -> None:
        # Nothing here allocates a block above glibc's 128 KiB mmap
        # threshold, which the program's own large arrays raise: a fresh
        # 400 KB array, or a dict of 4,000 keys, costs page faults in one
        # workload's process and not in another's.
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        for _ in range(8):
            table = {(i, i ^ 5): [i] for i in range(500)}
            sorted(table, key=lambda key: key[1])
        for _ in range(5):
            np.multiply(self.values, 1.0001, out=self.buf)
            self.buf.sort()
        for _ in range(22):
            np.linalg.cholesky(self.spd)

    def sample(self) -> None:
        self._work()
        start, cpu = time.perf_counter(), time.thread_time()
        self._work()
        self.last = time.perf_counter()
        self.samples.append((0.5 * (start + self.last), self.last - start, time.thread_time() - cpu))

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def factor_at(self, t: float, busy: bool = False) -> float:
        """The scale for work done around time ``t``: from the median of the
        CAL_NEAREST samples nearest to it, in wall time or, with ``busy``,
        in the time the thread was running."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:CAL_NEAREST]
        return CAL_REF_S / statistics.median(s[2] if busy else s[1] for s in near)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """A round of operations (the same make-up every round), a fixed
    sequence of CLI subcommands, a warm-up and the output checks."""

    cli_repeats = 3
    # Nominal durations of one round and one CLI pass on the reference VM.
    # The CLI passes take their share of --seconds and whole rounds fill the
    # rest, but a run never times fewer than MIN_OPS operations.
    round_seconds = 1.0
    cli_seconds = 1.0
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def round(self, index: int) -> list:
        raise NotImplementedError

    def run_op(self, inp):
        raise NotImplementedError

    def cli_argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def check(self, rounds: list) -> list[str]:
        """``rounds`` is a list of (inputs, outputs) pairs."""
        raise NotImplementedError

    def check_cli(self) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# curves: best_lower over value families, SNR and alpha; bound subcommands
# ---------------------------------------------------------------------------


def _sliced(eta: float) -> SlicedGaussian:
    """Sliced Gaussian with floor power eta and unit total power."""
    b, c = math.sqrt(eta), math.sqrt(2.0 / math.pi)
    width = -b * c + math.sqrt(b * b * c * c + 1.0 - b * b)
    return SlicedGaussian(b, width * width)


class Curves(Workload):
    # A pass's bounds subcommand runs on the default thread pool, which the
    # single-threaded calibration does not track; five passes steady the
    # median.
    cli_repeats = 5
    round_seconds = 3.6
    cli_seconds = 4.2
    omega = 1e-4
    # family -> (distribution, mean, variance); only mean^2 : variance
    # matters for the coding variance V once the values are scaled to an SNR.
    families = {
        "gaussian": (Gaussian(0.0, 1.0), 0.0, 1.0),
        "uniform": (Uniform(math.sqrt(2.3), 1.0), math.sqrt(2.3), 1.0),
        "pointmass": (PointMass(0.2, 1.0, limit=True), 0.0, 1.0),
        "sliced": (_sliced(0.2), 0.0, 1.0),
    }
    snr_centres = (0.0, 20.0, 40.0)
    alpha_centres = (3e-3, 3e-2, 0.25)

    def round(self, index):
        rng = _rng(self.seed, 1, index)
        ops = []
        for name, (dist, _, _) in self.families.items():
            snrs = sorted(c + rng.uniform(-5.0, 5.0) for c in self.snr_centres)
            alphas = sorted(c * 10.0 ** rng.uniform(-0.25, 0.25) for c in self.alpha_centres)
            for i, snr in enumerate(snrs):
                source = source_at_snr(dist, self.omega, snr)
                for j, alpha in enumerate(alphas):
                    ops.append((name, i, j, snr, alpha, source))
        return ops

    def run_op(self, inp):
        return best_lower(inp[5], inp[4], "iid")

    def cli_argvs(self):
        return [
            ["snr-curve", "--out", self.path("snr.csv")],
            ["bounds", "--bounds", "t4_iid_genie,t2_genie", "--grid", "1e-3:0.5:8:log",
             "--out", self.path("genie.csv")],
            ["bounds", "--invert", "--bounds", "p4_iid,p6_iid_entropy", "--grid", "1e-4:1e-2:8:log",
             "--out", self.path("invert.csv")],
        ]

    def warm_up(self):
        inp = self.round(0)[0]
        self.run_op(inp)
        for argv in (
            ["snr-curve", "--grid", "0:10:2", "--out", self.path("warm.csv")],
            ["bounds", "--bounds", "t4_iid_genie,t2_genie", "--grid", "1e-2:0.1:2", "--out", self.path("warm.csv")],
            ["bounds", "--invert", "--bounds", "p4_iid,p6_iid_entropy", "--grid", "1e-3:1e-2:2",
             "--out", self.path("warm.csv")],
        ):
            cli.main(argv)

    def check(self, rounds):
        problems = []
        for r, (inputs, outputs) in enumerate(rounds):
            grids = {name: ([0.0] * 3, [0.0] * 3, [[math.nan] * 3 for _ in range(3)]) for name in self.families}
            for (name, i, j, snr, alpha, _), out in zip(inputs, outputs):
                snrs, alphas, rho = grids[name]
                snrs[i], alphas[j] = snr, alpha
                rho[i][j] = math.nan if out is FAILED else out[0]
            for name, (snrs, alphas, rho) in grids.items():
                problems += checks.check_curve_grid(f"round {r} {name}", snrs, alphas, rho)
        # Orderings and independent recomputations at two corners per family.
        inputs, outputs = rounds[0]
        for inp, out in zip(inputs, outputs):
            if out is FAILED or (inp[1], inp[2]) not in ((0, 0), (2, 2)):
                continue
            name, _, _, snr, alpha, source = inp
            label = f"{name} snr={snr:.3f} alpha={alpha:.4g}"
            b = {
                "p3": p3_general(source, alpha),
                "t2": t2_genie(source, alpha)[0],
                "p4": p4_iid(source, alpha).rho_lower,
                "t4": t4_genie_iid(source, alpha)[0].rho_lower,
                "best_iid": out[0],
                "best_any": best_lower(source, alpha, "any")[0],
            }
            if name != "pointmass":
                b["p6"] = p6_entropy(source, alpha).rho_lower
            if name == "gaussian":
                b["p5"] = p5_gaussian(source, alpha).rho_lower
            _, mean, variance = self.families[name]
            v = checks.gaussian_coding_variance(10.0 ** (snr / 10.0), self.omega, mean, variance)
            problems += checks.check_orderings(label, b)
            problems += checks.check_p3(label, b["p3"], self.omega, alpha, v)
            problems += checks.check_p4_crossing(label, b["p4"], self.omega, alpha, v)
        return problems

    def check_cli(self):
        problems = checks.check_snr_curve(_read_csv(self.workdir / "snr.csv"))
        for bound in ("t4_iid_genie", "t2_genie"):
            rows = [r for r in _read_csv(self.workdir / "genie.csv") if r["bound"] == bound]
            problems += checks.check_sorted_curve(
                f"bounds {bound}", [float(r["alpha"]) for r in rows], [float(r["rho"]) for r in rows]
            )
        source = source_at_snr(Gaussian(0.0, 1.0), self.omega, 10.0)
        for bound in ("p4_iid", "p6_iid_entropy"):
            rows = [r for r in _read_csv(self.workdir / "invert.csv") if r["bound"] == bound]
            rhos, alphas = [float(r["rho"]) for r in rows], [float(r["alpha"]) for r in rows]
            problems += checks.check_sorted_curve(f"bounds --invert {bound}", rhos, alphas, hi=1.0)
            for rho, alpha in zip(rhos, alphas):
                # The inverted distortion must be one the bound allows at rho.
                if alpha > 0.0 and evaluate_bound(source, BoundId(bound), alpha)[0] > rho * (1 + 1e-9):
                    problems.append(f"bounds --invert {bound}: alpha {alpha} needs more than rho {rho}")
        return problems


# ---------------------------------------------------------------------------
# recovery: exhaustive ML at n=24, k=6, m=8
# ---------------------------------------------------------------------------


class Recovery(Workload):
    cli_repeats = 7
    round_seconds = 0.8
    cli_seconds = 1.1
    n, k, m = 24, 6, 8
    snr_db = 10.0
    rivals = 20
    # noiseless, 10 dB, noiseless, 10 dB
    noisy_pattern = (False, True, False, True)

    def round(self, index):
        rng = _rng(self.seed, 2, index)
        # unit noise; w E[X^2] equals the per-sample SNR with w = k/n
        sigma_noisy = math.sqrt(10.0 ** (self.snr_db / 10.0) * self.n / self.k)
        trials = []
        for noisy in self.noisy_pattern:
            mat = rng.standard_normal((self.m, self.n)) / math.sqrt(self.n)
            truth = tuple(sorted(int(i) for i in rng.choice(self.n, self.k, replace=False)))
            x = np.zeros(self.n)
            x[list(truth)] = (sigma_noisy if noisy else 1.0) * rng.standard_normal(self.k)
            y = mat @ x
            if noisy:
                y = y + rng.standard_normal(self.m)
            rivals = [tuple(rng.choice(self.n, self.k, replace=False)) for _ in range(self.rivals)]
            trials.append((noisy, y, mat, truth, rivals))
        return trials

    def run_op(self, inp):
        return exhaustive_ml(inp[1], inp[2], self.k)

    def cli_argvs(self):
        return [["simulate", "--n", "24", "--omega", "0.25", "--rho", "0.3333", "--noiseless",
                 "--trials", "6", "--seed", "0", "--out", self.path("sim.csv")]]

    def warm_up(self):
        self.run_op(self.round(0)[0])
        cli.main(["simulate", "--n", "24", "--omega", "0.25", "--rho", "0.3333", "--noiseless",
                  "--trials", "1", "--out", self.path("warm.csv")])

    def check(self, rounds):
        problems = []
        for r, (inputs, outputs) in enumerate(rounds):
            for t, ((noisy, y, mat, truth, rivals), out) in enumerate(zip(inputs, outputs)):
                if out is FAILED:
                    continue
                label = f"round {r} trial {t}"
                if noisy:
                    problems += checks.check_ml_noisy(
                        label, y, mat, out.support, out.residual_min, [truth, *rivals]
                    )
                else:
                    problems += checks.check_ml_noiseless(label, out.support, truth)
        return problems

    def check_cli(self):
        rows = _read_csv(self.workdir / "sim.csv")
        problems = [] if len(rows) == 6 else [f"simulate: {len(rows)} rows, expected 6"]
        for row in rows:
            if row["exact"] != "1":
                problems.append(f"simulate: noiseless trial {row['trial']} not exact")
        return problems


# ---------------------------------------------------------------------------
# rate_sharing: the two-stage decoder at n=24, omega=0.25, rho=0.15
# ---------------------------------------------------------------------------


class RateSharing(Workload):
    # A trial's work is fixed by its (epsilon, L) group, yet trials of one
    # group took 11-19 ms within a process, so the median of a single round
    # of 80 moved by 9-27 % between runs; four rounds average more of that
    # out.  The tail is taken per round (80 trials, so it falls inside the
    # costliest group rather than on the VM's occasional stalls) and the
    # median over the rounds reported.
    cli_repeats = 5
    min_rounds = 4
    round_seconds = 0.9
    cli_seconds = 1.7
    n, k = 24, 6
    rho, omega = 0.15, 0.25
    epsilons = (0.0, 0.1)
    per_epsilon = 40

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.m = math.ceil(self.rho * self.n)
        # The trials of a round are stratified by L, the number of true
        # indices among the live columns, with hypergeometric shares rounded
        # to whole trials: the cost of a trial depends mostly on L, so every
        # round has the same cost make-up.
        self.zeroed_size = {}
        self.counts = {}
        for eps in self.epsilons:
            u = math.ceil((1.0 - (1.0 - eps) * self.rho / self.omega) * self.n)
            shares = {L: self.per_epsilon * checks.hypergeom_pmf(self.n, self.k, self.n - u, L)
                      for L in range(self.k + 1)}
            counts = {L: int(s) for L, s in shares.items()}
            for L in sorted(shares, key=lambda L: counts[L] - shares[L])[: self.per_epsilon - sum(counts.values())]:
                counts[L] += 1
            self.zeroed_size[eps], self.counts[eps] = u, counts

    def round(self, index):
        rng = _rng(self.seed, 3, index)
        trials = []
        for eps in self.epsilons:
            u = self.zeroed_size[eps]
            for live_true, count in self.counts[eps].items():
                for _ in range(count):
                    zeroed = np.sort(rng.choice(self.n, u, replace=False))
                    live = np.setdiff1d(np.arange(self.n), zeroed)
                    truth = np.concatenate((rng.choice(live, live_true, replace=False),
                                            rng.choice(zeroed, self.k - live_true, replace=False)))
                    mat = rng.standard_normal((self.m, self.n)) / math.sqrt(self.n)
                    mat[:, zeroed] = 0.0
                    x = np.zeros(self.n)
                    x[truth] = rng.standard_normal(self.k)
                    decoder_rng = np.random.default_rng(rng.integers(2**63))
                    trials.append((eps, mat @ x, mat, zeroed, decoder_rng, tuple(sorted(truth.tolist()))))
        order = rng.permutation(len(trials))
        return [trials[i] for i in order]

    def run_op(self, inp):
        eps, y, mat, zeroed, decoder_rng, _ = inp
        try:
            return rate_sharing_recover(y, mat, self.k, zeroed, decoder_rng)
        except MultipleMinimalSupportsError:
            return None

    def cli_argvs(self):
        return [["simulate", "--n", "24", "--omega", "0.25", "--rho", "0.15", "--noiseless",
                 "--matrix", "rate_sharing", "--epsilon", "0.1", "--trials", "200", "--seed", "0",
                 "--out", self.path("rs.csv")]]

    def warm_up(self):
        self.run_op(self.round(0)[0])
        cli.main(["simulate", "--n", "24", "--omega", "0.25", "--rho", "0.15", "--noiseless",
                  "--matrix", "rate_sharing", "--trials", "5", "--out", self.path("warm.csv")])

    def check(self, rounds):
        problems = []
        distortions = {eps: [] for eps in self.epsilons}
        for r, (inputs, outputs) in enumerate(rounds):
            for t, (inp, out) in enumerate(zip(inputs, outputs)):
                if out is FAILED:
                    continue
                eps, _, _, zeroed, _, truth = inp
                problems += checks.check_rate_sharing_trial(
                    f"round {r} trial {t}", out, truth, zeroed.tolist(), self.k, self.m
                )
                if out is not None:
                    distortions[eps].append(1.0 - len(set(truth) & set(out)) / self.k)
        for eps in self.epsilons:
            mean, var = checks.rate_sharing_target(self.k, self.zeroed_size[eps], self.m, self.counts[eps])
            problems += checks.check_mean_band(f"mean distortion eps={eps}", distortions[eps], mean, var)
        return problems

    def check_cli(self):
        rows = _read_csv(self.workdir / "rs.csv")
        summary = dict(line.split(" = ") for line in Path(self.path("rs.csv.summary")).read_text().splitlines())
        problems = []
        if int(summary["completed"]) + int(summary["declared_errors"]) != 200 or len(rows) != int(summary["completed"]):
            problems.append(f"simulate rate_sharing: inconsistent summary {summary}")
        u = self.zeroed_size[0.1]
        weights = {L: checks.hypergeom_pmf(self.n, self.k, self.n - u, L) for L in range(self.k + 1)}
        mean, var = checks.rate_sharing_target(self.k, u, self.m, weights)
        problems += checks.check_mean_band(
            "simulate rate_sharing mean distortion", [float(r["distortion"]) for r in rows], mean, var
        )
        return problems


# ---------------------------------------------------------------------------
# verification: the library calls of `verify --suite all`, at its sizes,
# trial counts and seeds
# ---------------------------------------------------------------------------


class Verification(Workload):
    # One pass of `verify --suite all` takes about 16 s; a second one would
    # cost a sixth of the benchmark's whole time.
    cli_repeats = 1
    round_seconds = 15.0
    cli_seconds = 16.0
    truncation_cases = {
        "gaussian_1": Gaussian(0.0, 1.0),
        "gaussian_4": Gaussian(0.0, 4.0),
        "uniform_offset": Uniform(2.0, 1.0),
        "uniform_straddle": Uniform(0.5, 1.0),
        "sliced": SlicedGaussian(0.5, 0.4),
    }
    betas = (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9, 1.0)
    ratio_cases = {
        "gaussian": Gaussian(0.0, 1.0),
        "uniform": Uniform(2.0, 1.0),
        "pointmass": PointMass(0.2, 1.0, limit=True),
        "sliced": SlicedGaussian(0.5, 0.4),
    }
    covering = (22, 4, 0.5)

    def round(self, index):
        ops = [("quad", dist, beta) for dist in self.truncation_cases.values() for beta in self.betas]
        ops += [("mc", Gaussian(0.0, 1.0), 0.3), ("mc", Uniform(2.0, 1.0), 0.5),
                ("mc", SlicedGaussian(0.5, 0.4), 0.7)]
        ops += [("atoms", PointMass(0.2, 1.0, outer_mass=0.1), beta) for beta in (0.05, 0.9, 0.95, 1.0)]
        ops += [("mp_logdet", r, gamma) for r in (0.5, 1.0, 2.0) for gamma in (1.0, 10.0, 100.0)]
        ops += [("det_power", 1.0), ("det_power", 2.0), ("covering",), ("pi6",)]
        ops += [("ratio", dist) for dist in self.ratio_cases.values()]
        ops += [("rank_gaussian",), ("rank_rademacher",)]
        # verify fixes its own seeds, so the benchmark seed only sets the
        # order of the checks within a round.
        order = _rng(self.seed, 4, index).permutation(len(ops))
        return [ops[i] for i in order]

    def run_op(self, inp):
        kind = inp[0]
        if kind in ("quad", "atoms"):
            return truncate(inp[1], inp[2]), truncate_oracle(inp[1], inp[2], "quadrature")
        if kind == "mc":
            return truncate(inp[1], inp[2]), truncate_oracle(inp[1], inp[2], "montecarlo", budget=400_000, seed=0)
        if kind == "mp_logdet":
            return mp_logdet(MCConfig(n=400, r=inp[1], gamma=inp[2], trials=50, seed=0))
        if kind == "det_power":
            return det_power(MCConfig(n=400, r=inp[1], trials=25, seed=0))
        if kind == "covering":
            return covering_bracket(*self.covering, seed=0)
        if kind == "pi6":
            return power_ratio_scan(Gaussian(0.0, 1.0), 0.1, np.geomspace(1e-3, 1.0, 50))
        if kind == "ratio":
            return power_ratio_scan(inp[1], 0.1, np.geomspace(1e-3, 1.0, 50))
        if kind == "rank_gaussian":
            return rank_deficiency(16, 0.5, "gaussian", trials=50, seed=0)
        return [rank_deficiency(n, 0.5, "rademacher", trials=1000, seed=0) for n in (8, 16, 32)]

    def cli_argvs(self):
        return [["verify", "--suite", "all", "--out", self.path("verify.csv")]]

    def warm_up(self):
        truncate_oracle(Gaussian(0.0, 1.0), 0.5, "quadrature")
        truncate_oracle(Gaussian(0.0, 1.0), 0.5, "montecarlo", budget=1000, seed=0)
        mp_logdet(MCConfig(n=16, trials=2, seed=0))
        det_power(MCConfig(n=16, r=2.0, trials=2, seed=0))
        power_ratio_scan(Gaussian(0.0, 1.0), 0.1, [0.5])
        rank_deficiency(8, 0.5, "rademacher", trials=10, seed=0)
        cli.main(["verify", "--suite", "covering", "--n", "10", "--k", "2", "--out", self.path("warm.csv")])

    def check(self, rounds):
        problems = []
        for inputs, outputs in rounds:
            for inp, out in zip(inputs, outputs):
                if out is not FAILED:
                    problems += self._check_op(inp, out)
        return problems

    def _check_op(self, inp, out):
        kind, label = inp[0], " ".join(map(str, inp))
        if kind == "quad":
            closed, quad = out[0], out[1].result
            gap = max(abs(closed.mean - quad.mean), abs(closed.variance - quad.variance),
                      abs(closed.diff_entropy - quad.diff_entropy))
            return [] if gap <= 1e-8 else [f"{label}: closed form and quadrature differ by {gap}"]
        if kind == "mc":
            gap = abs(out[0].variance - out[1].result.variance)
            return [] if gap <= 3.0 * out[1].variance_err else [f"{label}: Monte-Carlo variance off by {gap}"]
        if kind == "atoms":
            ok = out[0].variance == out[1].result.variance
            return [] if ok else [f"{label}: atom variance {out[0].variance} != {out[1].result.variance}"]
        if kind == "mp_logdet":
            target = checks.mp_logdet_rate(round(inp[1] * 400) / 400, inp[2])
            gap = abs(out.mean - target) / target
            return [] if gap <= 0.02 else [f"{label}: log-det mean {out.mean} is {gap:.3%} from {target}"]
        if kind == "det_power":
            target = checks.det_power_target(inp[1])
            gap = abs(out.mean - target) / target
            return [] if gap <= 0.03 else [f"{label}: determinant power {out.mean} is {gap:.3%} from {target}"]
        if kind == "covering":
            n, k, alpha = self.covering
            lower, upper = out
            problems = checks.check_covering(lower, upper, n, k, alpha)
            rate = checks.pattern_rate(k / n, alpha)
            for end, value in (("lower", lower), ("upper", upper)):
                if abs(math.log(value) / n - rate) > 0.15:
                    problems.append(f"covering: {end} end {value} is off the pattern rate {rate}")
            return problems
        if kind == "pi6":
            gap = abs(out[0][1] - math.pi / 6.0) / (math.pi / 6.0)
            return [] if gap <= 0.01 else [f"{label}: ratio {out[0][1]} is {gap:.3%} from pi/6"]
        if kind == "ratio":
            ratios = [r for _, r in out]
            ok = min(ratios) > 0.0 and math.isfinite(max(ratios))
            return [] if ok else [f"{label}: power ratio not bounded"]
        if kind == "rank_gaussian":
            return [] if out == 0.0 else [f"{label}: Gaussian submatrix rank deficient ({out})"]
        ok = out[0] > out[1] > out[2]
        return [] if ok else [f"{label}: Rademacher deficiency {out} not decreasing"]

    def check_cli(self):
        rows = _read_csv(self.workdir / "verify.csv")
        failing = [r["check"] for r in rows if r["status"] != "PASS"]
        problems = [f"verify: {name} failed" for name in failing]
        if len(rows) < 60:
            problems.append(f"verify: only {len(rows)} checks reported")
        return problems


WORKLOADS = {"curves": Curves, "recovery": Recovery, "rate_sharing": RateSharing, "verification": Verification}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _run_round(wl: Workload, inputs: list, spans: list | None = None, after_op=None) -> tuple[list, int]:
    """Run one round; append each operation's (start, wall seconds, latency)
    to ``spans``.

    The latency is the time the operation's thread was running.  On this
    shared VM the hypervisor now and then takes the CPU away for 100-300 ms;
    the wall time counts that and the thread's CPU time does not.  The
    operations run on the calling thread alone (one BLAS thread), so the two
    differ by nothing else.  Should an operation keep other threads of the
    process busy, its wall time is taken instead."""
    outputs, failed = [], 0
    for inp in inputs:
        start, cpu, cpus = time.perf_counter(), time.thread_time(), time.process_time()
        try:
            out = wl.run_op(inp)
        except Exception:
            traceback.print_exc()
            out, failed = FAILED, failed + 1
        if spans is not None:
            wall, cpu, cpus = time.perf_counter() - start, time.thread_time() - cpu, time.process_time() - cpus
            spans.append((start, wall, cpu if cpus <= 1.05 * cpu + 1e-4 else wall))
        outputs.append(out)
        if after_op is not None:
            after_op()
    return outputs, failed


def _run_cli(wl: Workload) -> tuple[float, float, list[str]]:
    """One pass of the CLI sequence: its start, wall time and problems."""
    problems = []
    start = time.perf_counter()
    for argv in wl.cli_argvs():
        problems += checks.check_exit(" ".join(argv[:1]), cli.main(argv))
    return start, time.perf_counter() - start, problems


def _tail(latencies: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND latencies beyond it."""
    return sorted(latencies)[len(latencies) - 1 - TAIL_BEYOND]


def _summarize(latencies: list[float], walls: list[float], block: int) -> dict:
    """The timed figures.  The tail is taken in each block of ``block``
    consecutive operations (whole rounds, at least MIN_OPS) and the median
    over the blocks is reported, so that one stall of the machine moves one
    block's tail and not the run's."""
    n = max(1, len(latencies) // block)
    blocks = [latencies[i * len(latencies) // n:(i + 1) * len(latencies) // n] for i in range(n)]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * statistics.median(_tail(b) for b in blocks),
        "cli_wall_s": statistics.median(walls),
    }


def run_timed(wl: Workload, seconds: float) -> dict:
    """A fixed number of whole rounds, so that the operations (and with them
    the tail percentile) do not depend on the machine's speed, with the
    ``cli_repeats`` passes of the CLI sequence spread evenly between them."""
    inputs = wl.round(0)
    fill = (seconds - wl.cli_repeats * wl.cli_seconds) / wl.round_seconds
    count = max(wl.min_rounds, math.ceil(MIN_OPS / len(inputs)), round(fill))
    total = count * len(inputs)
    block = len(inputs) * math.ceil(MIN_OPS / len(inputs))
    pass_after = [(2 * j + 1) * total // (2 * wl.cli_repeats) for j in range(wl.cli_repeats)]
    spans, rounds, failed, passes, problems = [], [], 0, [], []
    ready = time.monotonic()
    cal = Calibration()
    cal.sample()

    def after_op():
        while len(passes) < len(pass_after) and len(spans) >= pass_after[len(passes)]:
            start, wall, bad = _run_cli(wl)
            passes.append((start, wall))
            problems.extend(bad)
            cal.sample()
        cal.maybe_sample()

    for index in range(count):
        if index:
            inputs = wl.round(index)
        outputs, bad = _run_round(wl, inputs, spans, after_op)
        rounds.append((inputs, outputs))
        failed += bad
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems += wl.check(rounds) + wl.check_cli()
    raw = _summarize([d for _, _, d in spans], [w for _, w in passes], block)
    # Each operation and each CLI pass is scaled by the samples taken
    # around it, so that a slow spell of the machine is taken out of the
    # operations it slowed.  Operation latencies are thread CPU times, so
    # they are scaled by the samples' thread CPU times.
    scaled = _summarize([d * cal.factor_at(t + w / 2, busy=True) for t, w, d in spans],
                        [w * cal.factor_at(t + w / 2) for t, w in passes], block)
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "ops/s"),
        "op_p50_ms": (scaled["op_p50_ms"], "ms"),
        "op_tail_ms": (scaled["op_tail_ms"], "ms"),
        "cli_wall_s": (scaled["cli_wall_s"], "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"ready": ready, "setup_scale": cal.factor_at(cal.samples[0][0]),
            "attempted": len(spans), "failed": failed, "problems": problems,
            "metrics": metrics, "raw": raw, "spans": spans, "passes": passes, "samples": cal.samples}


def _supports(args, result):
    return math.comb(args["mat"].shape[1], args["k"])


def _rejected(args, result):
    return result.rejected


# What the trace notes per call: supports searched, matrices rejected.
OBSERVERS = {"simulate.exhaustive_ml": _supports, "montecarlo.mp_logdet": _rejected}


def run_traced(wl: Workload, name: str, seed: int) -> dict:
    """The same fixed batch (whole rounds, at least MIN_OPS operations, and
    one CLI pass) first untraced, then traced; the difference in wall time
    is the tracing overhead."""
    size = len(wl.round(0))
    batch = range(math.ceil(MIN_OPS / size))

    def phase(rounds_in):
        start = time.perf_counter()
        rounds, failed = [], 0
        for inputs in rounds_in:
            outputs, bad = _run_round(wl, inputs)
            rounds.append((inputs, outputs))
            failed += bad
        _, _, problems = _run_cli(wl)
        return time.perf_counter() - start, rounds, failed, problems

    plain_s, plain, failed0, problems = phase([wl.round(i) for i in batch])
    traced_in = [wl.round(i) for i in batch]
    tracer = tracing.Tracer(OBSERVERS)
    tracer.install([cli, bounds, simulate, montecarlo, sys.modules[__name__]])
    try:
        traced_s, traced, failed1, problems1 = phase(traced_in)
    finally:
        tracer.remove()
    problems += problems1 + wl.check(plain + traced) + wl.check_cli()
    for r, ((_, a), (_, b)) in enumerate(zip(plain, traced)):
        if any(x is not y and not (x == y) for x, y in zip(a, b)):
            problems.append(f"round {r}: traced outputs differ from untraced ones")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{name}-seed{seed}.json",
                 {"seed": seed, "plain_s": plain_s, "traced_s": traced_s})
    metrics = tracing.layer_metrics(tracer.summary(), traced_s - plain_s)
    return {"attempted": 2 * size * len(batch), "failed": failed0 + failed1,
            "problems": problems, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"srdbounds was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            ready = time.monotonic()
            cal = Calibration()
            for _ in range(CAL_NEAREST):
                cal.sample()
            result = {"ready": ready, "setup_scale": cal.factor_at(cal.samples[0][0])}
        elif args.trace:
            result = run_traced(wl, args.workload, args.seed)
        else:
            result = run_timed(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
