import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epirare import FinalSize, ReedFrostParams, Scaling, SirParams
from epirare.harness import (
    ExperimentConfig,
    RunError,
    parse_config_text,
    run,
    sweep,
    write_sweep_csv,
)

TOY_TEXT = """
[toy-cmc]
model = sir
lambda = 0.12
gamma = 1.0
scaling = unscaled
s0 = 9
i0 = 1
event = final_size
n_c = 10
method = cmc
particles = 500
replications = 30
master_seed = 7

[toy-ibps]
model = sir
lambda = 0.12
gamma = 1.0
scaling = unscaled
s0 = 9
i0 = 1
event = final_size
n_c = 10
method = ibps
keep_fraction = 0.2
particles = 300
replications = 20
master_seed = 7
"""


def test_parse_config_round_trip():
    configs = parse_config_text(TOY_TEXT)
    assert [c.label for c in configs] == ["toy-cmc", "toy-ibps"]
    cmc_cfg, ibps_cfg = configs
    assert isinstance(cmc_cfg.model, SirParams)
    assert cmc_cfg.model.scaling is Scaling.UNSCALED
    assert cmc_cfg.event == FinalSize(n_c=10)
    assert cmc_cfg.particles == 500
    assert ibps_cfg.keep_fraction == pytest.approx(0.2)


def test_parse_reed_frost_and_instrumental():
    text = """
[rf-is]
model = reed_frost
q = 0.9
s0 = 20
i0 = 1
event = cumulative_infections
generations = 6
n_c = 10
method = is
q_new = 0.8
particles = 200
replications = 5
master_seed = 1
"""
    (config,) = parse_config_text(text)
    assert isinstance(config.model, ReedFrostParams)
    assert config.instrumental.q == pytest.approx(0.8)


def test_parse_rejects_nan_values():
    with pytest.raises(ValueError, match="finite"):
        parse_config_text(TOY_TEXT.replace("lambda = 0.12", "lambda = nan"))
    with pytest.raises(ValueError, match="horizon"):
        parse_config_text(
            "[x]\nmodel = sir\nlambda = 1\ngamma = 1\ns0 = 2\ni0 = 1\n"
            "event = duration\nT = nan\nmethod = cmc\n"
        )


def test_parse_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown model"):
        parse_config_text("[x]\nmodel = seir\nevent = final_size\nn_c = 1\n")
    with pytest.raises(ValueError, match="unknown event"):
        parse_config_text(
            "[x]\nmodel = sir\nlambda = 1\ngamma = 1\ns0 = 2\ni0 = 1\nevent = nope\n"
        )


@pytest.mark.parametrize(
    "extra, key",
    [
        ("mu = 0.1\n", "mu"),
        ("rho = 0.0\n", "rho"),
        ("partcles = 50\n", "partcles"),
        ("lambda_new = 0.5\nq_new = 0.5\n", "q_new"),
    ],
    ids=["mu", "rho", "partcles", "other-model"],
)
def test_parse_rejects_unread_keys(extra, key):
    section = "[x]\nlambda = 1\ngamma = 1\ns0 = 2\ni0 = 1\nevent = final_size\nn_c = 2\n"
    with pytest.raises(ValueError, match=rf"\[x\] unknown key\(s\): {key}$"):
        parse_config_text(section + extra)


def test_parse_rejects_unread_default_keys():
    with pytest.raises(ValueError, match=r"\[toy-cmc\] unknown key\(s\): replicatons"):
        parse_config_text("[DEFAULT]\nreplicatons = 5\n" + TOY_TEXT)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (config,) = parse_config_text(readme.split("```ini\n")[1].split("```")[0])
    assert config.label == "abakaliki-ibps" and config.keep_fraction == 0.01


def test_run_reports_mean_and_spread():
    config = parse_config_text(TOY_TEXT)[0]
    row = run(config)
    assert row.replications == 30
    assert len(row.estimates) == 30
    assert row.value == pytest.approx(sum(row.estimates) / 30)
    mean = row.value
    var = sum((v - mean) ** 2 for v in row.estimates) / 29
    assert row.stderr == pytest.approx(math.sqrt(var))


def test_run_is_deterministic():
    config = parse_config_text(TOY_TEXT)[1]
    row_a = run(config)
    row_b = run(config)
    assert row_a.estimates == row_b.estimates
    assert row_a.value == row_b.value


def test_run_single_replication_warns_and_zeroes_spread(caplog):
    config = parse_config_text(TOY_TEXT)[0]
    config = type(config)(**{**config.__dict__, "replications": 1})
    with caplog.at_level("WARNING"):
        row = run(config)
    assert row.stderr == 0.0
    assert any("single replication" in record.message for record in caplog.records)


def test_run_parallel_workers_match_serial():
    config = parse_config_text(TOY_TEXT)[0]
    serial = run(config)
    parallel = run(type(config)(**{**config.__dict__, "workers": 2}))
    assert serial.estimates == parallel.estimates


@pytest.mark.parametrize("workers", [0, -4])
def test_parse_rejects_workers_below_one(workers):
    text = TOY_TEXT.split("[toy-ibps]")[0] + f"workers = {workers}\n"
    with pytest.raises(ValueError, match="workers must be positive"):
        parse_config_text(text)


@pytest.mark.parametrize("restarts", [-1, -2])
def test_parse_rejects_negative_restart_count(restarts):
    text = TOY_TEXT.split("[toy-ibps]")[0] + f"restart_on_extinction = {restarts}\n"
    with pytest.raises(ValueError, match="restart_on_extinction must be non-negative"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "method, event, options",
    [
        ("ibps", "final_size\nn_c = 10", "keep_fraction = 0.5\nlevels = 5, 10\n"),
        ("ibps", "final_size\nn_c = 10", ""),
        ("temporal", "duration\nT = 2.0", "time_grid = 1.0, 2.0\nkeep_count = 5\n"),
        ("temporal", "duration\nT = 2.0", ""),
    ],
    ids=["ibps-both", "ibps-neither", "temporal-both", "temporal-neither"],
)
def test_parse_rejects_all_but_one_option_of_a_pair(method, event, options):
    # both options used to parse, so a sweep ran every earlier section
    # before this one failed
    section = (
        f"\n[b]\nlambda = 1\ngamma = 1\ns0 = 9\ni0 = 1\nmethod = {method}\n"
        f"event = {event}\n{options}"
    )
    with pytest.raises(ValueError, match="exactly one of"):
        parse_config_text(TOY_TEXT + section)


def test_import_leaves_the_process_pool_unloaded():
    # only a run with workers > 1 needs it
    code = "import sys, epirare.harness; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.strip() == "False"


def test_run_wraps_errors_with_replication_index():
    bad = ExperimentConfig(
        label="broken",
        model=SirParams(lam=0.1, gamma=1.0, s0=3, i0=1, scaling=Scaling.UNSCALED),
        event=FinalSize(n_c=2),
        method="ibps",
        particles=10,
        replications=3,
        master_seed=0,
        levels=(1.0, 3.0),  # does not end at the threshold
    )
    with pytest.raises(RunError, match="replication 0 of 'broken'"):
        run(bad)


def test_sweep_empty_is_header_only():
    buffer = io.StringIO()
    write_sweep_csv(sweep([]), buffer)
    assert buffer.getvalue() == (
        "method,params,value,stderr,extinct_ensembles,zero_runs,wall_seconds\n"
    )


def test_sweep_csv_format():
    configs = parse_config_text(TOY_TEXT)
    rows = sweep(configs)
    buffer = io.StringIO()
    write_sweep_csv(rows, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "method,params,value,stderr,extinct_ensembles,zero_runs,wall_seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "cmc"
    # scientific notation with 4 significant digits
    assert "e" in first[2] and len(first[2].split("e")[0].replace("-", "").replace(".", "")) == 4
    assert first[6] == ""  # wall column present but empty by default


def test_sweep_csv_timing_flag_populates_wall_column():
    configs = parse_config_text(TOY_TEXT)[:1]
    rows = sweep(configs)
    buffer = io.StringIO()
    write_sweep_csv(rows, buffer, timing=True)
    wall = buffer.getvalue().splitlines()[1].split(",")[6]
    assert float(wall) >= 0.0


def test_sweep_rerun_identical_bytes():
    configs = parse_config_text(TOY_TEXT)
    first = io.StringIO()
    second = io.StringIO()
    write_sweep_csv(sweep(configs), first)
    write_sweep_csv(sweep(configs), second)
    assert first.getvalue() == second.getvalue()


def test_method_labels():
    configs = parse_config_text(TOY_TEXT)
    assert configs[0].method_label == "cmc"
    assert configs[1].method_label == "ibps[multinomial;keep=0.2]"
