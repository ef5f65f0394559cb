"""CLI contract: CSV schema, manifests, config precedence, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import srdbounds
from srdbounds.cli import GRID_MAX_POINTS, _coerce, _parse_grid, _sliced_from_eta, main
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


def test_bounds_c1_test_is_usage_error(tmp_path):
    code = run_cli(
        ["bounds", "--bounds", "c1_test", "--grid", "0.1:0.2:2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


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


def test_evaluator_error_names_the_bound_and_alpha(tmp_path, monkeypatch, capsys):
    # At alpha = 1e-300 the Gaussian cut keeps no variance and t2 takes log(0).
    monkeypatch.chdir(tmp_path)
    argv = ["bounds", "--bounds", "t2_genie", "--grid", "1e-300:1e-299:2", "--out", "b.csv"]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t2_genie at alpha=1e-300: ") and err.count("\n") == 1
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
    ],
    ids=["no-value", "missing-file", "malformed-line", "equals-missing-file"],
)
def test_bad_config_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("bogus line\n")
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
    code = run_cli(
        [
            "bounds",
            "--omega", "1e-3",
            "--snr-db", "10",
            "--bounds", "p4_iid",
            "--grid", "0.05:0.5:4",
            "--out", str(out),
            "--svg", str(svg),
        ]
    )
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
