import argparse
import csv
import gc
import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from epirare import EventKind, lockstep
from epirare.cli import _build_parser, main
from reference import CompartmentState, path_from_arrays


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
    with open(out, newline="") as handle:
        header, init, *rows = csv.reader(handle)
    assert header == ["time", "kind", "s", "i", "r"]
    assert init == ["0.0", "INIT", "9", "1", "0"]
    # the rows replay as a valid path: increasing times, and each state the
    # one its event kind leads to
    path = path_from_arrays(
        CompartmentState(9, 1, 0), [float(row[0]) for row in rows],
        [EventKind[row[1]] for row in rows], math.inf,
    )
    assert [[str(x) for x in (ev.state_after.s, ev.state_after.i, ev.state_after.r)]
            for ev in path.events] == [row[2:] for row in rows]
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


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["--model", "rf", "--q", "0.9", "--lam", "5", "--gamma", "3", "--gamma2", "7"],
         "--gamma, --gamma2, --lam"),
        (["--model", "sir", "--lam", "0.5", "--gamma", "1", "--q", "0.3", "--gamma1", "4",
          "--c", "2"], "--c, --gamma1, --q"),
        ([*MODEL_ARGS["rf"], "--horizon", "5"], "--horizon"),
        ([*MODEL_ARGS["hiv"], "--scaling", "unscaled", "--n", "20000"], "--n, --scaling"),
        ([*MODEL_ARGS["sir"], "--generations", "3"], "--generations"),
    ],
    ids=["rf-sir-hiv", "sir-rf-hiv", "rf-horizon", "hiv-scaling-n", "sir-generations"],
)
def test_simulate_rejects_another_models_flags(capsys, argv, foreign):
    # each used to be ignored with exit 0
    assert main(["simulate", *argv, "--s0", "10", "--i0", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"epirare: error: {argv[1]} model takes no {foreign}\n"


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["--model", "sir", "--lam", "1"], "--lam and --gamma"),
        (["--model", "rf"], "--q"),
        (["--model", "hiv", "--lam", "1", "--c", "1"], "--lam and --gamma1 and --gamma2 and --c"),
    ],
    ids=["sir", "rf", "hiv"],
)
def test_simulate_names_the_flags_a_model_needs(capsys, argv, needs):
    assert main(["simulate", *argv, "--s0", "10", "--i0", "1"]) == 2
    assert capsys.readouterr().err == f"epirare: error: {argv[1]} model needs {needs}\n"


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


TOY_CMC = (
    "[toy]\nmodel = sir\nlambda = 0.12\ngamma = 1.0\nscaling = unscaled\n"
    "s0 = 9\ni0 = 1\nevent = final_size\nn_c = 10\nmethod = cmc\n"
    "particles = 100\nreplications = 4\nmaster_seed = 5\n"
)


@pytest.mark.parametrize(
    "flags, unread",
    [
        (["--keep-frac", "0.2"], "keep_fraction"),
        (["--alpha", "0.1", "--variant", "keepall"], "alpha, variant"),
        (["--method", "temporal", "--keep-frac", "0.2"], "keep_fraction"),
    ],
    ids=["keep-frac", "alpha-variant", "temporal-keep-frac"],
)
def test_estimate_rejects_an_override_its_method_does_not_read(tmp_path, capsys, flags, unread):
    # used to run plain crude Monte-Carlo and ignore the flag
    config = tmp_path / "exp.ini"
    config.write_text(TOY_CMC)
    assert main(["estimate", "--config", str(config), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"reads no {unread}" in captured.err


@pytest.mark.parametrize(
    "text, flags, message",
    [
        (TOY_CMC, ["--section", "nope"], "no section 'nope' in "),
        (TOY_CMC + TOY_CMC.replace("[toy]", "[toy2]"), [],
         "config has several sections; pick one with --section"),
    ],
    ids=["missing-section", "two-sections"],
)
def test_estimate_rejects_a_section_it_cannot_pick(tmp_path, capsys, text, flags, message):
    config = tmp_path / "exp.ini"
    config.write_text(text)
    assert main(["estimate", "--config", str(config), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


RF_IBPS = (
    "[rf]\nmodel = rf\nq = 0.9\ns0 = 12\ni0 = 1\nevent = cumulative_infections\n"
    "generations = 5\nn_c = 8\nmethod = ibps\nkeep_fraction = 0.5\n"
    "particles = 40\nreplications = 3\nmaster_seed = 7\n"
)
SIR_IBPS = TOY_CMC.replace("method = cmc", "method = ibps\nkeep_fraction = 0.2")


@pytest.mark.parametrize(
    "text, flags, unread",
    [
        (RF_IBPS, ["--alpha", "5"], "alpha"),
        (RF_IBPS, ["--variant", "keepall"], "variant"),
        (RF_IBPS.replace("keep_fraction = 0.5", "keep_fraction = 0.5\nweight_rule = potential_v"),
         ["--variant", "keepall", "--alpha", "0.2"], "variant"),
        (SIR_IBPS, ["--alpha", "0.1"], "alpha"),
        (TOY_CMC, ["--method", "ibps", "--keep-frac", "0.2", "--alpha", "0.1"], "alpha"),
    ],
    ids=["rf-indicator-alpha", "rf-variant", "rf-potential-variant", "sir-alpha",
         "sir-method-alpha"],
)
def test_estimate_rejects_an_ibps_override_its_event_does_not_read(
    tmp_path, capsys, text, flags, unread
):
    # alpha under the indicator rule and a variant on Reed-Frost used to print
    # the row printed without them; alpha on SIR failed only in the run
    config = tmp_path / "exp.ini"
    config.write_text(text)
    assert main(["estimate", "--config", str(config), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # ibps_estimate's own check, made before any replication draws
    assert f"ibps reads no {unread} on " in captured.err


def test_estimate_takes_an_ibps_override_its_event_reads(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(RF_IBPS.replace("keep_fraction = 0.5", "keep_fraction = 0.5\n"
                                      "weight_rule = potential_v"))
    assert main(["estimate", "--config", str(config), "--alpha", "0.1"]) == 0
    # the golden sweep's ibps-rf row
    assert capsys.readouterr().out.splitlines()[1] == (
        "ibps[multinomial;keep=0.5;potential_v(a=0.1)],N=40;reps=3;seed=7,"
        "1.900e-01,1.772e-02,0,0,"
    )


def test_estimate_has_no_restart_flag(tmp_path, capsys):
    # retrying an extinct ensemble biased the estimate upwards; the flag is gone
    config = tmp_path / "exp.ini"
    config.write_text(SIR_IBPS)
    with pytest.raises(SystemExit) as exit_:
        main(["estimate", "--config", str(config), "--restart-on-extinction", "1"])
    assert exit_.value.code == 2
    assert "--restart-on-extinction" in capsys.readouterr().err


def test_readme_estimate_flags_match_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("\nFlags: ")[1].split(". ")[0]
    (commands,) = (action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    flags = {flag for action in commands.choices["estimate"]._actions
             for flag in action.option_strings}
    assert set(re.findall(r"`(--[a-z-]+)`", sentence)) == flags - {
        "--config", "--section", "-h", "--help"
    }


def test_estimate_names_a_config_without_sections(tmp_path, capsys):
    # used to report that the config has several sections
    config = tmp_path / "exp.ini"
    config.write_text("; nothing here yet\n")
    assert main(["estimate", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"epirare: error: config {config} has no sections\n"


def test_sweep_names_a_config_without_sections(tmp_path, capsys):
    # used to print only the header and exit 0
    config = tmp_path / "exp.ini"
    config.write_text("; nothing here yet\n")
    assert main(["sweep", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"epirare: error: config {config} has no sections\n"


def test_sweep_fails_on_a_bad_section_before_any_runs(tmp_path, capsys):
    # used to run the first section and then fail at replication 0 of the second
    config = tmp_path / "exp.ini"
    config.write_text(TOY_CMC + TOY_CMC.replace("[toy]", "[bad]").replace(
        "method = cmc", "method = ibps\nkeep_fraction = 0.2\nvariant = bogus"))
    assert main(["sweep", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "epirare: error: [bad] variant must be one of ('multinomial', 'keepall')\n"
    )


def test_estimate_method_override_keeps_unread_section_options(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(TOY_CMC.replace("method = cmc", "method = ibps\nkeep_fraction = 0.2"))
    assert main(["estimate", "--config", str(config), "--method", "cmc"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("cmc,N=100;reps=4;seed=5,")


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


@pytest.mark.parametrize("command", ["simulate", "exact"])
def test_population_without_mass_action_is_rejected(capsys, command):
    # used to be ignored: `exact` printed the unscaled law whatever n was
    assert main([command, *MODEL_ARGS["sir"][2:], "--n", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "population size n is read under mass-action scaling only" in captured.err


def test_exact_takes_only_the_sir_model(capsys):
    # exact has no --model flag: its model is sir
    with pytest.raises(SystemExit) as exit_:
        main(["exact", *MODEL_ARGS["rf"]])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --model rf" in capsys.readouterr().err
    # it declares only the sir model's flags from the flag table
    with pytest.raises(SystemExit) as exit_:
        main(["exact", *MODEL_ARGS["sir"][2:], "--q", "0.9"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --q 0.9" in capsys.readouterr().err


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
