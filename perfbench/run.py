"""srdbounds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (curves, recovery, rate_sharing or verification) in its own
process with the checkout's ``src`` on the path and the BLAS pool at one
thread, checks the program's outputs, and prints one JSON object as the last
line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Results and traces are also written under perfbench/out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("curves", "recovery", "rate_sharing", "verification")
# setup_s is the median of this many set-ups plus the measured run's own,
# each scaled by the calibration samples taken right after it.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: with two, exhaustive_ml and mp_logdet times spread by
    # tens of percent between runs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # The program's default curve-evaluation pool is what users run.
    env.pop("SRD_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, extra: list[str], deadline: float) -> tuple[float, dict]:
    """Start one workload process; return its start time and its result."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return started, json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "srdbounds" / "__init__.py").is_file():
        print(f"no srdbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                started, probe = run_child(args, ["--setup-only"], deadline)
                setups.append((probe["ready"] - started) * probe["setup_scale"])
        started, res = run_child(args, [], deadline)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        setups.append((res["ready"] - started) * res["setup_scale"])
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    for problem in res["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12} {name:<40} {value:>14.6g} {unit}")
    print(f"{args.workload:>12} attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {result['correct']}")
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    record = {**result, "setups_s": setups,
              **{key: res[key] for key in ("raw", "spans", "passes", "samples") if key in res}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
