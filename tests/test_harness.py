import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from epirare import (
    CumulativeInfections,
    Diagnostics,
    Duration,
    FinalSize,
    HivParams,
    Incidence,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SirParams,
    ce_estimate,
    cmc,
    harness,
    ibps_estimate,
    is_estimate,
    temporal_split_estimate,
)
from epirare.harness import (
    METHOD_RECORDS,
    ExperimentConfig,
    ResultRow,
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
        ("method = is\nlambda_new = 0.5\nq_new = 0.5\n", "q_new"),
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


# a valid section body per method, with every option key that method reads
# on its model and event; ibps and temporal take one of their two schedules
# each, ibps on Reed-Frost reads alpha only under a potential rule, and cmc
# also parses an incidence event
SIR_SECTION = "[x]\nlambda = 1\ngamma = 1\ns0 = 9\ni0 = 1\n"
RF_SECTION = "[x]\nmodel = rf\nq = 0.9\ns0 = 9\ni0 = 1\n"
RF_EVENT = "cumulative_infections\ngenerations = 4\nn_c = 5"
METHOD_SECTIONS = {
    "cmc": (SIR_SECTION, "final_size\nn_c = 5", "", {}),
    "cmc-incidence": (
        SIR_SECTION, "incidence\nT = 2.0\nn_i = 4", "", {"event": Incidence(T=2.0, n_i=4)}
    ),
    "is": (
        SIR_SECTION, "final_size\nn_c = 5", "lambda_new = 2\ngamma_new = 0.5\n",
        {"instrumental": SirParams(lam=2.0, gamma=0.5, s0=9, i0=1)},
    ),
    "ce": (SIR_SECTION, "final_size\nn_c = 5", "iterations = 3\n", {"iterations": 3}),
    "ibps": (
        SIR_SECTION, "final_size\nn_c = 5",
        "keep_fraction = 0.2\nvariant = KeepAll\n",
        {"keep_fraction": 0.2, "variant": "keepall"},
    ),
    "ibps-levels": (
        SIR_SECTION, "final_size\nn_c = 5", "levels = 2, 5\n", {"levels": (2.0, 5.0)}
    ),
    "ibps-rf": (
        RF_SECTION, RF_EVENT,
        "keep_fraction = 0.2\nweight_rule = Potential_V\nalpha = 0.1\n",
        {"keep_fraction": 0.2, "weight_rule": "potential_v", "alpha": 0.1},
    ),
    "ibps-rf-indicator": (
        RF_SECTION, RF_EVENT, "keep_fraction = 0.2\nweight_rule = indicator\n",
        {"keep_fraction": 0.2, "weight_rule": "indicator", "alpha": 0.0},
    ),
    "temporal": (
        SIR_SECTION, "duration\nT = 2.0", "time_grid = 1.0, 2.0\n", {"time_grid": (1.0, 2.0)},
    ),
    "temporal-adaptive": (
        SIR_SECTION, "duration\nT = 2.0", "keep_count = 5\n", {"keep_count": 5}
    ),
}
# the option keys each case's section reads: its method's, and of ibps's only
# those its event reads (splitting.ibps_unread)
READS = {
    "cmc": set(),
    "is": {"lambda_new", "gamma_new"},
    "ce": {"iterations"},
    "ibps": {"keep_fraction", "levels", "variant"},
    "ibps-rf": {"keep_fraction", "levels", "weight_rule", "alpha"},
    "ibps-rf-indicator": {"keep_fraction", "levels", "weight_rule"},
    "temporal": {"time_grid", "keep_count"},
}
# option keys no method reads any more: restart_on_extinction retried an
# extinct ensemble, which biased the estimate upwards
REMOVED_KEYS = {"restart_on_extinction"}


def _method_section(case: str, extra: str = "") -> str:
    model, event, options, _ = METHOD_SECTIONS[case]
    method = case.split("-")[0]
    return f"{model}method = {method}\nevent = {event}\n{options}{extra}"


@pytest.mark.parametrize("case", sorted(METHOD_SECTIONS))
def test_parse_reads_every_option_of_its_method(case):
    (config,) = parse_config_text(_method_section(case))
    assert config.method == case.split("-")[0]
    for name, value in METHOD_SECTIONS[case][3].items():
        assert getattr(config, name) == value, name


@pytest.mark.parametrize(
    "case, key",
    [(case, key) for case in READS
     for key in sorted(set().union(*READS.values(), REMOVED_KEYS) - READS[case])],
)
def test_parse_rejects_an_option_its_method_does_not_read(case, key):
    # each used to parse and be ignored, so a cmc section with levels ran plain
    # crude Monte-Carlo, and a Reed-Frost ibps section with a variant or with
    # alpha under the indicator rule printed the row it prints without them
    with pytest.raises(ValueError, match=rf"^\[x\] unknown key\(s\): {key}$"):
        parse_config_text(_method_section(case, f"{key} = 1\n"))


def test_parse_rejects_another_methods_option_from_default():
    with pytest.raises(ValueError, match=r"^\[toy-cmc\] unknown key\(s\): iterations$"):
        parse_config_text("[DEFAULT]\niterations = 9\n" + TOY_TEXT)


@pytest.mark.parametrize(
    "reader, case, setting",
    [
        ("ibps-rf", "ibps-rf-indicator", "alpha = 5"),
        ("ibps", "ibps-rf", "variant = keepall"),
        ("ibps-rf", "ibps", "weight_rule = potential_v"),
        ("ibps-rf", "ibps", "alpha = 0.1"),
    ],
    ids=["rf-indicator-alpha", "rf-variant", "sir-weight-rule", "sir-alpha"],
)
def test_parse_rejects_an_ibps_option_its_event_does_not_read_from_default(
    reader, case, setting
):
    # the first section reads the key and the second does not: the parse fails
    # before either runs, where a sweep used to run the first section and
    # then ignore the key in the second, or fail there at replication 0
    first = _method_section(reader).replace("[x]", "[first]")
    with pytest.raises(ValueError, match=rf"^\[x\] unknown key\(s\): {setting.split()[0]}$"):
        parse_config_text(f"[DEFAULT]\n{setting}\n{first}{_method_section(case)}")


def test_parse_rejects_population_without_mass_action():
    # n used to be read and ignored under the unscaled rate lambda*S*I
    text = TOY_TEXT.replace("scaling = unscaled\n", "scaling = unscaled\nn = 20\n", 1)
    with pytest.raises(ValueError, match=r"^\[toy-cmc\] unknown key\(s\): n$"):
        parse_config_text(text)
    with pytest.raises(ValueError, match=r"^\[toy-cmc\] unknown key\(s\): n$"):
        parse_config_text("[DEFAULT]\nn = 20\n" + TOY_TEXT)
    (config,) = parse_config_text(SIR_SECTION + "event = final_size\nn_c = 5\nn = 20\n")
    assert config.model.population == 20


def test_parse_rejects_temporal_splitting_of_a_threshold_event():
    # used to pass the parse, so a sweep ran every earlier section first
    section = (
        "\n[b]\nlambda = 1\ngamma = 1\ns0 = 9\ni0 = 1\nmethod = temporal\n"
        "event = final_size\nn_c = 10\nkeep_count = 5\n"
    )
    with pytest.raises(ValueError, match="temporal splitting estimates duration events"):
        parse_config_text(TOY_TEXT + section)


def test_readme_method_table_matches_methods():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Method | Option keys it reads |\n")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines()[1:]:
        method, *keys = re.findall(r"`([^`]+)`", line)
        documented[method] = set(keys)
    # an option is set by its own key, an instrumental law by its *_new keys
    assert documented == {
        method: {key for name, read in record.options.items()
                 for key in (read if isinstance(read, dict) else {name})}
        for method, record in METHOD_RECORDS.items()
    }
    # the ibps row states, part by part, what every event reads, what a
    # jump-process event and a Reed-Frost event read besides, and what a
    # potential rule adds on Reed-Frost
    ibps_row = next(line for line in table.splitlines() if line.startswith("| `ibps` |"))
    common, jump, chain, potential = (
        set(re.findall(r"`([^`]+)`", part)) for part in ibps_row.split(";")
    )
    common.discard("ibps")
    ibps = METHOD_RECORDS["ibps"]
    reads = {(event, rule): set(ibps.options) - set(ibps.unread(event, {"weight_rule": rule}))
             for event in (FinalSize(n_c=5), CumulativeInfections(t=4, n_c=5))
             for rule in ("indicator", "potential_v")}
    assert reads[FinalSize(n_c=5), "indicator"] == reads[FinalSize(n_c=5), "potential_v"]
    assert reads[FinalSize(n_c=5), "indicator"] == common | jump
    assert reads[CumulativeInfections(t=4, n_c=5), "indicator"] == common | chain
    assert reads[CumulativeInfections(t=4, n_c=5), "potential_v"] == common | chain | potential


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


@pytest.mark.parametrize("method", ["cmc", "is", "ce"])
def test_run_single_replication_reports_its_own_error_bar(caplog, method):
    config = parse_config_text(TOY_TEXT)[0]
    config = dataclasses.replace(
        config, method=method, replications=1, iterations=3,
        instrumental=dataclasses.replace(config.model, lam=0.3) if method == "is" else None,
    )
    with caplog.at_level("WARNING"):
        row = run(config)
    entry = METHOD_RECORDS[method]
    est = entry.estimate(SeedSpec(config.master_seed, replication=0), **entry.args(config))
    assert row.stderr == est.std_error > 0.0
    assert not any("single replication" in record.message for record in caplog.records)


def test_run_single_replication_warns_and_zeroes_spread(caplog):
    # a splitting run sets no per-run error bar
    config = parse_config_text(TOY_TEXT)[1]
    config = dataclasses.replace(config, replications=1)
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


def test_run_wraps_errors_with_replication_index(monkeypatch):
    # a failure only a run can raise: the record calls the estimator by its
    # module-level name, so the name rebound here is the one that runs
    def failing(*args, **kwargs):
        raise ValueError("engine failure")

    monkeypatch.setattr(harness, "cmc", failing)
    config = dataclasses.replace(parse_config_text(TOY_TEXT)[0], label="broken")
    with pytest.raises(RunError, match="^replication 0 of 'broken': engine failure$"):
        run(config)


TOY_SIR = SirParams(lam=0.12, gamma=1.0, s0=9, i0=1, scaling=Scaling.UNSCALED)
TOY_RF = ReedFrostParams(q=0.9, s0=9, i0=1)
TOY_HIV = HivParams(lam=0.1, gamma1=0.5, gamma2=0.2, c=1.0, s0=9, i0=1)
SIR_BODY = "lambda = 0.12\ngamma = 1\nscaling = unscaled\ns0 = 9\ni0 = 1\n"
RF_BODY = "model = rf\nq = 0.9\ns0 = 9\ni0 = 1\n"
HIV_BODY = "model = hiv\nlambda = 0.1\ngamma1 = 0.5\ngamma2 = 0.2\nc = 1\ns0 = 9\ni0 = 1\n"
# settings that used to parse and then fail only at replication 0 of a run, after
# every earlier section of a sweep had run (and `is` on hiv, which failed the parse
# for want of an instrumental law): each section body, and its estimator's call
PARSE_TIME_CASES = {
    "weight-rule": (
        RF_BODY + "event = cumulative_infections\ngenerations = 4\nn_c = 5\nmethod = ibps\n"
        "keep_fraction = 0.2\nweight_rule = bogus\nparticles = 10\n",
        lambda seed: ibps_estimate(TOY_RF, CumulativeInfections(t=4, n_c=5), n_particles=10,
                                   keep_fraction=0.2, weight_rule="bogus", seed=seed),
    ),
    "variant": (
        SIR_BODY + "event = final_size\nn_c = 10\nmethod = ibps\nkeep_fraction = 0.2\n"
        "variant = bogus\nparticles = 10\n",
        lambda seed: ibps_estimate(TOY_SIR, FinalSize(n_c=10), n_particles=10,
                                   keep_fraction=0.2, variant="bogus", seed=seed),
    ),
    "iterations": (
        SIR_BODY + "event = final_size\nn_c = 10\nmethod = ce\niterations = 0\nparticles = 10\n",
        lambda seed: ce_estimate(TOY_SIR, FinalSize(n_c=10), 10, 0, seed),
    ),
    "ce-on-hiv": (
        HIV_BODY + "event = duration\nT = 1\nmethod = ce\nparticles = 10\n",
        lambda seed: ce_estimate(TOY_HIV, Duration(T=1.0), 10, 5, seed),
    ),
    "is-on-hiv": (
        HIV_BODY + "event = duration\nT = 1\nmethod = is\nparticles = 10\n",
        lambda seed: is_estimate(TOY_HIV, Duration(T=1.0), None, 10, seed),
    ),
    "levels-short-of-threshold": (
        SIR_BODY + "event = final_size\nn_c = 4\nmethod = ibps\nlevels = 2, 3\nparticles = 10\n",
        lambda seed: ibps_estimate(TOY_SIR, FinalSize(n_c=4), n_particles=10,
                                   schedule=(2.0, 3.0), seed=seed),
    ),
    "levels-past-threshold": (
        SIR_BODY + "event = final_size\nn_c = 2\nmethod = ibps\nlevels = 1, 3\nparticles = 10\n",
        lambda seed: ibps_estimate(TOY_SIR, FinalSize(n_c=2), n_particles=10,
                                   schedule=(1.0, 3.0), seed=seed),
    ),
    "keep-count": (
        SIR_BODY + "event = duration\nT = 2\nmethod = temporal\nkeep_count = 50\n"
        "particles = 10\n",
        lambda seed: temporal_split_estimate(TOY_SIR, 2.0, n_particles=10, keep_count=50,
                                             seed=seed),
    ),
    "one-particle": (
        SIR_BODY + "event = final_size\nn_c = 10\nmethod = ibps\nkeep_fraction = 0.2\n"
        "particles = 1\n",
        lambda seed: ibps_estimate(TOY_SIR, FinalSize(n_c=10), n_particles=1,
                                   keep_fraction=0.2, seed=seed),
    ),
    "cmc-rf-final-size": (
        RF_BODY + "event = final_size\nn_c = 5\nmethod = cmc\nparticles = 10\n",
        lambda seed: cmc(TOY_RF, FinalSize(n_c=5), 10, seed),
    ),
    # failed as "instrumental rates must be positive", a law it was never given
    "ce-zero-lambda": (
        "lambda = 0\ngamma = 1\ns0 = 10\ni0 = 2\nevent = final_size\nn_c = 5\nmethod = ce\n"
        "iterations = 3\nparticles = 100\n",
        lambda seed: ce_estimate(SirParams(lam=0.0, gamma=1.0, s0=10, i0=2), FinalSize(n_c=5),
                                 100, 3, seed),
    ),
    "keep-fraction": (
        SIR_BODY + "event = final_size\nn_c = 10\nmethod = ibps\nkeep_fraction = 1.5\n"
        "particles = 10\n",
        lambda seed: ibps_estimate(TOY_SIR, FinalSize(n_c=10), n_particles=10,
                                   keep_fraction=1.5, seed=seed),
    ),
    "is-without-instrumental": (
        SIR_BODY + "event = final_size\nn_c = 10\nmethod = is\nparticles = 10\n",
        lambda seed: is_estimate(TOY_SIR, FinalSize(n_c=10), None, 10, seed),
    ),
    "temporal-on-rf": (
        RF_BODY + "event = duration\nT = 2\nmethod = temporal\nkeep_count = 5\nparticles = 10\n",
        lambda seed: temporal_split_estimate(TOY_RF, 2.0, n_particles=10, keep_count=5,
                                             seed=seed),
    ),
    "grid-from-zero": (
        SIR_BODY + "event = duration\nT = 2\nmethod = temporal\ntime_grid = 0, 2\n"
        "particles = 10\n",
        lambda seed: temporal_split_estimate(TOY_SIR, 2.0, n_particles=10,
                                             time_grid=(0.0, 2.0), seed=seed),
    ),
    # parsed, and a run cut at 3.0000000001 and then at the horizon 3
    "grid-past-horizon": (
        SIR_BODY + "event = duration\nT = 3\nmethod = temporal\n"
        "time_grid = 3.0000000001, 3.0000000002\nparticles = 10\n",
        lambda seed: temporal_split_estimate(TOY_SIR, 3.0, n_particles=10,
                                             time_grid=(3.0000000001, 3.0000000002), seed=seed),
    ),
    # parsed, and a run went through all 100,000 stages of the stage cap
    "temporal-infinite-horizon": (
        SIR_BODY + "event = duration\nT = inf\nmethod = temporal\nkeep_count = 5\n"
        "particles = 20\n",
        lambda seed: temporal_split_estimate(TOY_SIR, math.inf, n_particles=20, keep_count=5,
                                             seed=seed),
    ),
    "temporal-infinite-grid": (
        SIR_BODY + "event = duration\nT = inf\nmethod = temporal\ntime_grid = 10, inf\n"
        "particles = 20\n",
        lambda seed: temporal_split_estimate(TOY_SIR, math.inf, n_particles=20,
                                             time_grid=(10.0, math.inf), seed=seed),
    ),
}


@pytest.mark.parametrize("case", PARSE_TIME_CASES)
def test_parse_fails_with_the_estimators_own_check(case):
    # one check per method: the estimator runs it first, and a config runs it
    # when it is made, so the parse fails with the estimator's message
    section, call = PARSE_TIME_CASES[case]
    with pytest.raises((TypeError, ValueError)) as direct:
        call(SeedSpec(0))
    with pytest.raises(ValueError) as parsed:
        parse_config_text("[a]\n" + section)
    assert str(parsed.value) == f"[a] {direct.value}"


@pytest.mark.parametrize(
    "case, message",
    [
        ("ce-zero-lambda", "cross-entropy needs a positive nominal infection rate: 0.0"),
        ("temporal-infinite-horizon", "temporal splitting needs a finite horizon"),
        ("temporal-infinite-grid", "temporal splitting needs a finite horizon"),
    ],
)
def test_parse_fails_fast_naming_the_fault(case, message):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^\[a\] {re.escape(message)}$"):
        parse_config_text("[a]\n" + PARSE_TIME_CASES[case][0])
    assert time.perf_counter() - started < 1.0


def test_parse_keeps_an_infinite_horizon_for_cmc():
    (config,) = parse_config_text(
        "[a]\n" + SIR_BODY + "event = duration\nT = inf\nmethod = cmc\nparticles = 20\n"
    )
    assert config.event == Duration(T=math.inf)


def test_parse_rejects_a_negative_master_seed():
    # used to parse, so a sweep ran every earlier section and then failed at
    # replication 0 of this one
    first, second = TOY_TEXT.split("[toy-ibps]")
    text = first + "[toy-ibps]" + second.replace("master_seed = 7", "master_seed = -1")
    with pytest.raises(ValueError, match=r"^\[toy-ibps\] master_seed must be non-negative$"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("lambda = 0.12", "lambda = nan", "lambda must be finite and non-negative: nan"),
        ("lambda = 0.12\n", "", "missing key: lambda"),
        ("n_c = 10\n", "", "missing key: n_c"),
        ("n_c = 10\n", "n_c = 10%\n", "'%' must be followed by '%' or '(', found: '%'"),
        ("scaling = unscaled", "scaling = bogus", "unknown scaling: bogus"),
        ("method = ibps", "method = bogus",
         "method must be one of ('cmc', 'is', 'ce', 'ibps', 'temporal'): bogus"),
    ],
    ids=["nan-lambda", "no-lambda", "no-n_c", "stray-percent", "bogus-scaling", "bogus-method"],
)
def test_parse_names_the_section_of_a_model_or_event_error(old, new, message):
    # the model's own errors and the INI reader's named no section, and a
    # missing key failed with "'<=' not supported between instances of 'int'
    # and 'NoneType'"
    first, second = TOY_TEXT.split("[toy-ibps]")
    with pytest.raises(ValueError, match=rf"^\[toy-ibps\] {re.escape(message)}$"):
        parse_config_text(first + "[toy-ibps]" + second.replace(old, new))


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


def test_sweep_csv_counts_the_replications_that_estimate_zero():
    # the zero_runs column is read off the replications' estimates; the
    # golden sweep has no row with a zero run to show it
    row = ResultRow("x", "ibps", "N=2", 0.25, 0.5, 4, Diagnostics(extinct_ensembles=2), 0.0,
                    estimates=(0.0, 1.0, 0.0, 0.0))
    buffer = io.StringIO()
    write_sweep_csv([row], buffer)
    assert buffer.getvalue().splitlines()[1].split(",")[4:6] == ["2", "3"]


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
