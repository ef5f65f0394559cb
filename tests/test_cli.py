"""CLI contract: CSV schema, manifests, config precedence, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srdbounds
from srdbounds.cli import GRID_MAX_POINTS, _coerce, _fmt, _parse_grid, _sliced_from_eta, main
from srdbounds.distributions import PointMass, truncate
from srdbounds.montecarlo import BudgetError


def run_cli(args):
    return main(list(args))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_grid_parsing():
    grid = _parse_grid("1:5:5")
    assert list(grid) == [1.0, 2.0, 3.0, 4.0, 5.0]
    log = _parse_grid("0.01:1:3:log")
    assert log[0] == pytest.approx(0.01) and log[-1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        _parse_grid("1:2")
    with pytest.raises(ValueError):
        _parse_grid("1:2:3:cubic")


def test_grid_refuses_non_finite_ends():
    # refused before numpy sees them, so no RuntimeWarning is raised
    for spec in ("0.5:inf:3", "nan:1:3", "1e-3:inf:4:log", "-inf:1:2"):
        with pytest.raises(ValueError, match="grid ends must be finite"):
            _parse_grid(spec)


def test_coerce_types():
    assert _coerce("3") == 3
    assert _coerce("3.5") == 3.5
    assert _coerce("true") is True
    assert _coerce("hello") == "hello"


def test_sliced_from_eta_normalization():
    dist = _sliced_from_eta(0.2, power=4.0)
    assert dist.power == pytest.approx(4.0, rel=1e-12)
    assert dist.floor**2 == pytest.approx(0.8, rel=1e-12)


def test_bounds_command_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "curve.csv"
    code = run_cli(
        [
            "bounds",
            "--dist", "gaussian",
            "--omega", "1e-4",
            "--snr-db", "20",
            "--bounds", "p4_iid,p6_iid_entropy",
            "--grid", "0.05:0.5:4:log",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["bound", "alpha", "rho", "beta_star"]
    assert len(rows) == 1 + 2 * 4
    manifest = (out.parent / (out.name + ".manifest")).read_text()
    assert "command = bounds" in manifest
    assert "config_hash = " in manifest


def test_bounds_empty_list_is_usage_error(tmp_path):
    code = run_cli(
        ["bounds", "--bounds", "", "--grid", "0.1:0.2:2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_bounds_c1_test_is_usage_error(tmp_path, capsys):
    code = run_cli(
        ["bounds", "--bounds", "c1_test", "--grid", "0.1:0.2:2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: bound c1_test is not an evaluatable rate bound\n"


def test_bounds_rerun_byte_identical(tmp_path):
    args = [
        "bounds",
        "--omega", "1e-3",
        "--snr-db", "10",
        "--bounds", "p3_general,t2_genie",
        "--grid", "0.05:0.6:5",
        "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_inversion_logs_one_crossing_line_per_rate(tmp_path, caplog):
    args = [
        "bounds",
        "--invert",
        "--bounds", "p4_iid,p6_iid_entropy",
        "--grid", "1e-4:1e-2:8:log",
        "--out", str(tmp_path / "inv.csv"),
    ]
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        assert run_cli(args) == 0
    lines = [r.getMessage() for r in caplog.records if "crossing" in r.getMessage()]
    assert lines
    pairs = [(line.split(" at ")[0], line.split("rho=")[1].split(")")[0]) for line in lines]
    assert len(set(pairs)) == len(pairs)
    assert all(" values found more than one crossing" in line for line in lines)


def test_simulate_command_and_summary(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(
        [
            "simulate",
            "--n", "20",
            "--omega", "0.1",
            "--rho", "0.15",
            "--noiseless",
            "--trials", "40",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["trial", "distortion", "exact", "residual_min", "runner_up_gap"]
    assert len(rows) == 41
    summary = (out.parent / (out.name + ".summary")).read_text()
    assert "exact_rate = 1" in summary


def test_simulate_budget_refusal(tmp_path):
    code = run_cli(
        [
            "simulate",
            "--n", "28",
            "--omega", "0.5",
            "--rho", "0.5",
            "--noiseless",
            "--out", str(tmp_path / "never.csv"),
        ]
    )
    assert code == 4


def test_simulate_stage1_span_budget_refusal(tmp_path, capsys):
    # Stage 1 would hold 572 MiB of span bases; refused before any draw.
    out = tmp_path / "never.csv"
    code = run_cli(
        [
            "simulate",
            "--n", "22",
            "--omega", "0.5",
            "--rho", "0.49",
            "--matrix", "rate_sharing",
            "--epsilon", "0",
            "--noiseless",
            "--out", str(out),
        ]
    )
    assert code == 4 and not out.exists()
    assert capsys.readouterr().err.startswith("budget refused: stage 1 would hold ")


@pytest.mark.parametrize("suite", ["mp_logdet", "det_power"])
def test_verify_matrix_budget_refusal(tmp_path, monkeypatch, capsys, suite):
    # A 100000 x 100000 draw would need 80 GB; the refusal comes first.
    monkeypatch.chdir(tmp_path)
    assert run_cli(["verify", "--suite", suite, "--n", "100000", "--trials", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("budget refused: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "rank", "--trials", "0"],
        ["verify", "--suite", "covering", "--n", "0", "--k", "0"],
        # omega = 12/22 is out of range; C(22,12) would also exceed the
        # enumeration budget, so this exits 2 only if omega is checked first.
        ["verify", "--suite", "covering", "--n", "22", "--k", "12"],
        ["bounds", "--snr-db", "5000", "--grid", "0.1:0.2:2", "--out", "b.csv"],
        ["simulate", "--n", "10", "--omega", "0.2", "--rho", "0.3", "--snr-db", "5000",
         "--trials", "2", "--out", "s.csv"],
        ["bounds", "--invert", "--grid", "nan:1:3", "--out", "b.csv"],
        ["bounds", "--invert", "--grid", "0.5:inf:3", "--out", "b.csv"],
        ["bounds", "--invert", "--grid=-5:1:3", "--out", "b.csv"],
        ["simulate", "--n", "20", "--omega", "0.1", "--rho", "nan", "--noiseless",
         "--trials", "1", "--out", "s.csv"],
        ["snr-curve", "--eta", "1.5", "--out", "s.csv"],
        ["bounds", "--grid", "0.1:0.2:0", "--out", "b.csv"],
        # eta = 1 puts all the power in the floor, leaving no slice width
        ["truncate-table", "--dist", "sliced", "--eta", "1.0", "--out", "t.csv"],
    ],
    ids=[
        "rank-zero-trials",
        "covering-zero-n",
        "covering-omega-before-cover",
        "bounds-snr-overflow",
        "simulate-snr-overflow",
        "invert-nan-rate",
        "invert-inf-rate",
        "invert-negative-rate",
        "simulate-nan-rho",
        "snr-curve-eta-above-one",
        "grid-zero-count",
        "sliced-eta-one",
    ],
)
def test_out_of_range_input_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--bounds", "p4_iid", "--snr-db", "200", "--grid", "0.1:0.1:1",
         "--out", "b.csv"],
        ["snr-curve", "--grid=200:200:1", "--out", "s.csv"],
    ],
    ids=["bounds", "snr-curve"],
)
def test_non_finite_deficit_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    # At 200 dB info_G returns NaN on the scan grid; the solve says so
    # instead of counting NaN as nonnegative and failing later.
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: p4_iid at alpha=0.1: the deficit is not finite at rho=")
    assert err.count("\n") == 1 and "crossing" not in err
    assert not list(tmp_path.glob("*.csv"))


def test_t4_non_finite_deficit_is_usage_error(tmp_path, monkeypatch, capsys):
    # t4's top-down pass meets the NaN and refuses it, naming the lowest rate
    # at which some beta row is not finite on the first grid.
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--bounds", "t4_iid_genie", "--snr-db", "200", "--grid", "0.1:0.1:1",
            "--out", "b.csv"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        "error: t4_iid_genie at alpha=0.1: the deficit is not finite at rho=4.77327e-05 "
        "(the rate functions lose precision at this SNR)\n"
    )
    assert not list(tmp_path.glob("*.csv"))


def test_t2_skips_a_beta_whose_variance_underflows(tmp_path, monkeypatch, capsys):
    # At alpha = 1e-150 the smallest betas keep a variance of 0, which rules
    # out no rate.  t2 stays finite and raises no RuntimeWarning, which the
    # test filter would turn into an error.
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--dist", "uniform", "--mean", "1.51657508881031", "--bounds", "t2_genie",
            "--grid", "1e-150:1e-150:1", "--out", "b.csv"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().err == ""
    (row,) = read_csv(tmp_path / "b.csv")[1:]
    assert row[0] == "t2_genie" and 0.0 < float(row[2]) < float("inf")


def test_genie_bounds_skip_a_beta_whose_cut_fails(tmp_path, monkeypatch, caplog):
    # At alpha = 1e-300 the Gaussian cut of beta = alpha takes log(0); t2 and
    # t4 skip that beta, with one line each, and still give a rate.  t4's rate
    # there is the scan cap, which its own line names.
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--bounds", "t2_genie,t4_iid_genie", "--grid", "1e-300:1e-299:2",
            "--out", "b.csv"]
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        assert run_cli(argv) == 0
    cap = "still violated at the scan cap rho=1e+09; the bound is at least the cap"
    assert [r.getMessage() for r in caplog.records] == [
        f"t2_genie at alpha={alpha}: skipping beta={alpha} (math domain error)"
        for alpha in ("1e-300", "1e-299")
    ] + [
        line
        for alpha in ("1e-300", "1e-299")
        for line in (
            f"t4_iid_genie at alpha={alpha}: skipping beta={alpha} (math domain error)",
            f"t4_iid_genie at alpha={alpha}: {cap}",
        )
    ]
    rows = read_csv(tmp_path / "b.csv")[1:]
    assert [row[0] for row in rows] == ["t2_genie"] * 2 + ["t4_iid_genie"] * 2
    assert all(0.0 < float(row[2]) < float("inf") for row in rows)


def test_genie_bounds_fold_their_skipped_betas_into_one_line(tmp_path, monkeypatch, caplog):
    # A nonzero-mean Gaussian cuts no beta below 1: each such grid beta of t2
    # and t4 (and t4's refined one) is skipped, in one line per bound and alpha.
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--dist", "gaussian", "--mean", "1.0", "--bounds", "t4_iid_genie,t2_genie",
            "--grid", "0.1:0.2:2", "--out", "b.csv"]
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        assert run_cli(argv) == 0
    error = "closed-form truncation requires a zero-mean Gaussian"
    assert [r.getMessage() for r in caplog.records] == [
        f"t4_iid_genie at alpha=0.1: skipping 200 beta values in [0.1, 1] (first: {error})",
        f"t4_iid_genie at alpha=0.2: skipping 200 beta values in [0.2, 1] (first: {error})",
        f"t2_genie at alpha=0.1: skipping 199 beta values in [0.1, 0.90162] (first: {error})",
        f"t2_genie at alpha=0.2: skipping 199 beta values in [0.2, 0.915475] (first: {error})",
    ]
    assert (tmp_path / "b.csv").read_text() == (
        "bound,alpha,rho,beta_star\n"
        "t4_iid_genie,0.1,0.000876440933273,1\n"
        "t4_iid_genie,0.2,0.000762970605793,1\n"
        "t2_genie,0.1,0.000720138958576,1\n"
        "t2_genie,0.2,0.000612711791902,1\n"
    )


def test_inversion_folds_skipped_betas_into_one_line_per_rate(tmp_path, monkeypatch, caplog):
    # In an inversion the skipped betas of every alpha tried, the bracket
    # ends' included, fold into one line per rate.
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--invert", "--dist", "gaussian", "--mean", "1.0", "--bounds", "t2_genie",
            "--grid", "1e-4:1e-3:3:log", "--out", "b.csv"]
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        assert run_cli(argv) == 0
    error = "closed-form truncation requires a zero-mean Gaussian"
    assert [r.getMessage() for r in caplog.records] == [
        f"t2_genie at alpha=1e-06..1 (inverting rho={rho}): skipping beta values at {n} alpha "
        f"values (first: {error})"
        for rho, n in [("0.0001", 55), ("0.000316228", 55), ("0.001", 2)]
    ]
    assert (tmp_path / "b.csv").read_text() == (
        "bound,rho,alpha,beta_star\n"
        "t2_genie,0.0001,0.820618359879,1\n"
        "t2_genie,0.000316227766017,0.527915131095,1\n"
        "t2_genie,0.001,0,\n"
    )


def test_inversion_names_an_omitted_rate(tmp_path, monkeypatch, caplog):
    # No alpha brings p3 down to rho = 1e-20 at omega = 1e-10, so that rate
    # has no row; one line names the bound, the rate and the reason.
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--invert", "--omega", "1e-10", "--bounds", "p3_general",
            "--grid", "1e-20:1e-11:3:log", "--out", "b.csv"]
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        assert run_cli(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "p3_general inverting rho=1e-20: rate omitted (bound exceeds rho on full range)"
    ]
    assert [row[1] for row in read_csv(tmp_path / "b.csv")[1:]] == ["3.16227766017e-16", "1e-11"]


def test_t4_names_a_value_at_the_scan_cap(tmp_path, monkeypatch, caplog):
    # At these alphas t4 is still violated where its scan stops, so the value
    # written is the cap itself, a lower bound; one line per alpha says so.
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--bounds", "t4_iid_genie", "--grid", "1e-9:1e-7:2:log", "--out", "b.csv"]
    with caplog.at_level("WARNING", logger="srdbounds.bounds"):
        assert run_cli(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"t4_iid_genie at alpha={alpha}: still violated at the scan cap rho=1e+09; "
        "the bound is at least the cap"
        for alpha in ("1e-09", "1e-07")
    ]
    assert [row[2] for row in read_csv(tmp_path / "b.csv")[1:]] == ["1000000000"] * 2


def test_evaluator_error_names_the_bound_and_alpha(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--dist", "uniform", "--bounds", "p5_iid_gaussian", "--grid", "0.1:0.1:1",
            "--out", "b.csv"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: p5_iid_gaussian at alpha=0.1: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--grid", "1e-3:0.9:1000000000000", "--out", "b.csv"],
        ["snr-curve", "--grid", "0:10:1000000000000", "--out", "s.csv"],
        ["truncate-table", "--grid", "0.01:1:1000000000000", "--out", "t.csv"],
        ["simulate", "--n", "20", "--omega", "0.1", "--rho", "1e308", "--noiseless",
         "--trials", "1", "--out", "s.csv"],
    ],
    ids=["bounds-grid", "snr-curve-grid", "truncate-table-grid", "simulate-huge-rho"],
)
def test_oversized_input_is_refused(tmp_path, monkeypatch, capsys, argv):
    # Each is refused before anything is allocated or drawn.
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("budget refused: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))


def test_grid_budget_edge():
    assert len(_parse_grid(f"0:1:{GRID_MAX_POINTS}")) == GRID_MAX_POINTS
    with pytest.raises(BudgetError):
        _parse_grid(f"0:1:{GRID_MAX_POINTS + 1}")


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 0.25\nn = 20\nrho = 0.15\ntrials = 5\nnoiseless = true\n")
    out = tmp_path / "sim.csv"
    code = run_cli(
        ["--config", str(cfg), "simulate", "--omega", "0.1", "--out", str(out)]
    )
    assert code == 0
    # flag overrides config: omega 0.1 gives k=2, m=3 noiseless, all exact
    summary = (out.parent / (out.name + ".summary")).read_text()
    assert "exact_rate = 1" in summary


@pytest.mark.parametrize(
    "argv",
    [
        ["truncate-table", "--out", "t.csv", "--config"],
        ["--config", "missing.cfg", "truncate-table", "--out", "t.csv"],
        ["--config", "bad.cfg", "truncate-table", "--out", "t.csv"],
        ["--config=missing.cfg", "truncate-table", "--out", "t.csv"],
        # a config value bypasses argparse's choices, so verify checks the suite
        ["--config", "suite.cfg", "verify", "--out", "t.csv"],
    ],
    ids=["no-value", "missing-file", "malformed-line", "equals-missing-file", "unknown-suite"],
)
def test_bad_config_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("bogus line\n")
    (tmp_path / "suite.cfg").write_text("suite = bogus\n")
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 0.5:1:2\n")
    out = tmp_path / "tab.csv"
    assert run_cli([f"--config={cfg}", "truncate-table", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 1 + 2


@pytest.mark.parametrize(
    "flags,dist",
    [
        ([], PointMass(0.2, 1.0, limit=True)),
        (["--eps-mass", "0.1"], PointMass(0.2, 1.0, outer_mass=0.1)),
    ],
    ids=["limit", "eps-mass"],
)
def test_truncate_table_of_a_point_mass(tmp_path, flags, dist):
    # --eta defaults to 0.2; without --eps-mass the outer atoms' mass vanishes.
    out = tmp_path / "tab.csv"
    grid = "0.05:1:20"  # reaches the kink at 0.9 and beta = 1
    assert run_cli(["truncate-table", "--dist", "pointmass", *flags, "--grid", grid,
                    "--out", str(out)]) == 0
    cuts = [truncate(dist, float(beta)) for beta in _parse_grid(grid)]
    rows = [[_fmt(v) for v in (t.beta, t.threshold, t.mean, t.variance, t.diff_entropy)]
            for t in cuts]
    assert read_csv(out) == [["beta", "threshold", "mean", "variance", "diff_entropy"], *rows]


def test_bounds_uniform_ratio_flag(tmp_path):
    out = tmp_path / "uniform.csv"
    code = run_cli(
        [
            "bounds",
            "--dist", "uniform",
            "--mu2-over-sigma2", "4",
            "--omega", "1e-3",
            "--snr-db", "10",
            "--bounds", "t2_genie",
            "--grid", "0.05:0.3:3",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 4
    assert all(float(r[2]) > 0 for r in rows[1:])


def test_bounds_svg_output(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    for argv in (
        ["bounds", "--omega", "1e-3", "--snr-db", "10", "--bounds", "p4_iid", "--grid", "0.05:0.5:4"],
        ["snr-curve", "--grid", "0:10:2"],
    ):
        svg.unlink(missing_ok=True)
        code = run_cli([*argv, "--out", str(out), "--svg", str(svg)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text


def test_truncate_table(tmp_path):
    out = tmp_path / "tab.csv"
    code = run_cli(
        ["truncate-table", "--dist", "sliced", "--eta", "0.2", "--grid", "0.1:1:4", "--out", str(out)]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["beta", "threshold", "mean", "variance", "diff_entropy"]
    variances = [float(r[3]) for r in rows[1:]]
    assert variances == sorted(variances)


def test_verify_power_ratio_suite(tmp_path):
    out = tmp_path / "verify.csv"
    code = run_cli(["verify", "--suite", "power_ratio", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert all(row[2] == "PASS" for row in rows[1:])


def test_verify_covering_suite():
    assert run_cli(["verify", "--suite", "covering", "--n", "10", "--k", "2", "--alpha", "0.5"]) == 0


def test_verify_covering_suite_defaults_to_its_reference_case(tmp_path):
    # --n defaults to the random-matrix suites' dimension, which the covering
    # check cannot enumerate, so without --n it runs (n, k, alpha) = (22, 4, 0.5).
    out = tmp_path / "covering.csv"
    assert run_cli(["verify", "--suite", "covering", "--out", str(out)]) == 0
    rows = read_csv(out)[1:]
    assert [row[1] for row in rows] == ["covering_lower_n22_k4", "covering_upper_n22_k4"]
    assert all(row[2] == "PASS" for row in rows)
    # The manifest still records the default matrix dimension.
    hashes = []
    for extra in ([], ["--n", "400"]):
        assert run_cli(["verify", "--suite", "power_ratio", *extra, "--out", str(out)]) == 0
        manifest = (tmp_path / "covering.csv.manifest").read_text().splitlines()
        hashes.append([line for line in manifest if line.startswith("config_hash")])
    assert hashes[0] == hashes[1]


def test_verify_all_reaches_every_suite(tmp_path):
    # --n names the matrix dimension; "all" must still run the covering
    # reference case instead of tripping its enumeration guard
    out = tmp_path / "all.csv"
    code = run_cli(["verify", "--suite", "all", "--n", "64", "--trials", "5", "--out", str(out)])
    assert code in (0, 3)  # small-n statistical checks may miss tolerance
    suites = {row[0] for row in read_csv(out)[1:]}
    assert suites == {"truncation", "mp_logdet", "det_power", "covering", "power_ratio", "rank"}


def test_installed_entry_point_usage_error():
    # The subprocess finds the package where this process imported it from,
    # installed or not.
    src = str(Path(srdbounds.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "srdbounds.cli", "bounds", "--grid", "bad"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.6 s and 20 MB on every CLI call; the package
    # needs none of it.
    src = str(Path(srdbounds.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import srdbounds, srdbounds.cli, sys; print('scipy.stats' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
