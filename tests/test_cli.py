import gc
import subprocess
import sys
import warnings

import pytest

from epirare import read_path_csv
from epirare.cli import main


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "epirare.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


def test_simulate_emits_readable_path(tmp_path):
    out = tmp_path / "path.csv"
    code = main([
        "simulate", "--model", "sir", "--lam", "0.12", "--gamma", "1",
        "--scaling", "unscaled", "--s0", "9", "--i0", "1", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    with open(out) as handle:
        path = read_path_csv(handle)
    assert path.initial.s == 9
    assert path.final_state.i == 0


def test_simulate_zero_horizon_stops_at_start(capsys):
    code = main([
        "simulate", "--model", "sir", "--lam", "0.12", "--gamma", "1",
        "--scaling", "unscaled", "--s0", "9", "--i0", "1", "--seed", "7",
        "--horizon", "0",
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["time,kind,s,i,r", "0.0,INIT,9,1,0"]


def test_simulate_reed_frost_schema(capsys):
    code = main([
        "simulate", "--model", "rf", "--q", "0.9", "--s0", "10", "--i0", "1",
        "--generations", "4", "--seed", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "generation,s,i"
    assert len(lines) == 6


def test_simulate_hiv_path(capsys):
    code = main([
        "simulate", "--model", "hiv", "--lam", "0.01", "--gamma1", "1",
        "--gamma2", "0.5", "--c", "1", "--s0", "10", "--i0", "2", "--seed", "2",
    ])
    assert code == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "time,kind,s,i,r"


def test_exact_subcommand(capsys):
    code = main([
        "exact", "--lam", "0.12", "--gamma", "1", "--scaling", "unscaled",
        "--s0", "2", "--i0", "1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,probability"
    probs = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_estimate_with_overrides(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[toy]\nmodel = sir\nlambda = 0.12\ngamma = 1.0\nscaling = unscaled\n"
        "s0 = 9\ni0 = 1\nevent = final_size\nn_c = 10\nmethod = cmc\n"
        "particles = 300\nreplications = 10\nmaster_seed = 3\n"
    )
    code = main([
        "estimate", "--config", str(config), "--method", "ibps",
        "--keep-frac", "0.2", "--variant", "keepall", "--replications", "5",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("method,params")
    assert lines[1].startswith("ibps[keepall;keep=0.2]")


def test_estimate_closes_out_file(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[toy]\nmodel = sir\nlambda = 0.12\ngamma = 1.0\nscaling = unscaled\n"
        "s0 = 9\ni0 = 1\nevent = final_size\nn_c = 10\nmethod = cmc\n"
        "particles = 100\nreplications = 4\nmaster_seed = 5\n"
    )
    out = tmp_path / "row.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["estimate", "--config", str(config), "--out", str(out)]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,params")
    assert len(lines) == 2 and lines[1].startswith("cmc,N=100;reps=4;seed=5,")


def test_sweep_deterministic_bytes(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(
        "[toy]\nmodel = sir\nlambda = 0.12\ngamma = 1.0\nscaling = unscaled\n"
        "s0 = 9\ni0 = 1\nevent = final_size\nn_c = 10\nmethod = cmc\n"
        "particles = 200\nreplications = 8\nmaster_seed = 11\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_fig2_emits_aligned_series(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["fig2", "--replicates", "2000", "--seed", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_c,exact,cmc"
    assert len(lines) == 42  # thresholds 1..41
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[2]) == pytest.approx(1.0)


def test_cli_error_exit_code():
    proc = _run_cli("estimate", "--config", "/nonexistent.ini")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_cli_entry_point_runs():
    proc = _run_cli("exact", "--lam", "1", "--gamma", "1", "--s0", "2", "--i0", "1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,probability")
