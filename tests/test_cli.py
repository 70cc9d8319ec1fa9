import gc
import hashlib
import os
import subprocess
import sys
import warnings

import pytest

from epirare import lockstep, read_path_csv
from epirare.cli import main


# the child interpreter imports epirare from wherever this one does
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def _run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "epirare.cli", *argv],
        capture_output=True,
        text=True,
        env=_ENV,
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


def test_simulate_hiv_path_that_can_never_end_fails(monkeypatch, capsys):
    # nobody detected spontaneously and nobody left to infect or trace: a
    # path without a horizon would wait forever
    monkeypatch.setattr(lockstep, "_ITERATION_CAP", 1000)
    code = main([
        "simulate", "--model", "hiv", "--lam", "0.5", "--gamma1", "0",
        "--gamma2", "1", "--c", "1", "--s0", "5", "--i0", "1",
    ])
    assert code == 2
    assert "can never end" in capsys.readouterr().err


MODEL_ARGS = {
    "sir": [
        "--model", "sir", "--lam", "0.12", "--gamma", "1", "--scaling", "unscaled",
        "--s0", "9", "--i0", "1",
    ],
    "hiv": [
        "--model", "hiv", "--lam", "1.3e-5", "--gamma1", "0.13", "--gamma2", "0.19",
        "--c", "1", "--s0", "10000", "--i0", "3",
    ],
    "rf": ["--model", "rf", "--q", "0.9", "--s0", "10", "--i0", "1"],
}
# `epirare simulate` output by (model, seed), as sha256 of the CSV bytes;
# contact tracing runs with --horizon 90
SIMULATE_PINS = {
    ("sir", 0): "223ee58176682e63e51cadc268887dda3299632824f0ae5b7f24a20c1fbb3201",
    ("sir", 1): "ffbfababb2096f6abd8e373e16019d908835fb9a5cc607099dd59b97573cf366",
    ("sir", 7): "4950d0ebc15ccc69d4b3f097704c7f52cd48d4456229e84a0f1f2a0332ecd414",
    ("hiv", 0): "cfd0a1b61aa72207a86cc324a49a55a55e64819c5f303c3e6bb12c239ea87fe0",
    ("hiv", 1): "d117b3bcc1c277f3f371e1d005bccd4a6cc66ce5465645ec5275df7cb4bcb69a",
    ("hiv", 7): "e44e3e28b7191eefe906e0d792cdc8b9e5529ec173105f3984fdcbe4a4bb9aa5",
    ("rf", 0): "1b8d6d75ee387d593c4ecddd8d4275b40ff048ff352b7f10c34a0651966ea920",
    ("rf", 1): "f139254838e2c162a3ce7add24b88674322415be35d206237b0089e6734d79e1",
    ("rf", 7): "a9b56a5aa5fd922ba1b3121b7fd85f4585b296904b59f7b1f5e69557be73b2f6",
}


@pytest.mark.parametrize("model,seed", sorted(SIMULATE_PINS))
def test_simulate_output_pinned(tmp_path, model, seed):
    out = tmp_path / "path.csv"
    horizon = ["--horizon", "90"] if model == "hiv" else []
    argv = [*MODEL_ARGS[model], *horizon, "--seed", str(seed), "--out", str(out)]
    assert main(["simulate", *argv]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_PINS[model, seed]


@pytest.mark.parametrize("model", ["sir", "hiv"])
def test_simulate_rejects_negative_horizon(capsys, model):
    for horizon in ("-1", "nan"):
        assert main(["simulate", *MODEL_ARGS[model], "--horizon", horizon]) == 2
        assert "horizon must be non-negative" in capsys.readouterr().err


def test_simulate_rejects_negative_generations(capsys):
    assert main(["simulate", *MODEL_ARGS["rf"], "--generations", "-1"]) == 2
    assert "must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("replicates", ["0", "-3"])
def test_fig2_rejects_replicates_below_one(capsys, replicates):
    assert main(["fig2", "--replicates", replicates]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "epirare: error: replicates must be positive\n"


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


# `epirare exact` output by model, as sha256 of the CSV bytes
EXACT_PINS = {
    "toy": (
        ["--lam", "0.12", "--gamma", "1", "--scaling", "unscaled", "--s0", "9", "--i0", "1"],
        "7a7fea4adcef2c16cba281ca1bb941b1d8747458b7c7f2da05806790abeb28f0",
    ),
    "fig2": (
        ["--lam", "1", "--gamma", "1", "--scaling", "mass_action", "--s0", "40", "--i0", "1",
         "--n", "41"],
        "abc75ef56beef62e76b40c186b11b3457602c686edb1d40f1bb00e524c291d59",
    ),
    "abakaliki": (
        ["--lam", "0.0008254", "--gamma", "0.087613", "--scaling", "unscaled", "--s0", "119",
         "--i0", "1"],
        "a12c4582bfae0dc2812cd9cdb2ec3e0bd2f3c2e13d9313ff987113311474e8ae",
    ),
}


@pytest.mark.parametrize("model", sorted(EXACT_PINS))
def test_exact_output_pinned(tmp_path, model):
    argv, digest = EXACT_PINS[model]
    out = tmp_path / "exact.csv"
    assert main(["exact", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_exact_rejects_population_below_initial_counts(capsys):
    # used to print P(k=40) = 0.85 for a population of 5 holding 41 people
    argv = ["exact", "--lam", "1", "--gamma", "1", "--s0", "40", "--i0", "1", "--n", "5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "smaller than s0 + i0" in captured.err
    assert captured.out == ""


def test_cli_entry_point_runs():
    proc = _run_cli("exact", "--lam", "1", "--gamma", "1", "--s0", "2", "--i0", "1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,probability")


def test_cli_closed_output_pipe_is_quiet():
    argv = ["simulate", *MODEL_ARGS["sir"], "--seed", "7"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "epirare.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_ENV,
    )
    proc.stdout.close()  # no reader left before the first write
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1
