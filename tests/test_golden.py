"""Golden fixture: exact outputs at fixed seeds, pinned across refactors.

A change that keeps the order of random draws must leave every value here
unchanged: the bytes of a small sweep covering every method x model pairing,
the per-level survival fractions of splitting runs on every event the
splitting estimators accept, the level-hit times of one conditional sample,
and a digest of every field and event-log column the jump engines return,
clocked and clock-free.  Clock-free calls run the chain loop: each iteration
draws one block of standard exponentials, a row per live path and a column
per run of removals.  A change that moves draws on purpose regenerates the
pins with ``PYTHONPATH=src python tests/test_golden.py`` and says so in
CHANGES.md.
"""

import dataclasses
import hashlib
import io
import pprint

import numpy as np
import pytest

from epirare import (
    DiagnosesIncrement,
    Duration,
    FinalSize,
    HivParams,
    Incidence,
    Scaling,
    SeedSpec,
    SirParams,
    ibps_estimate,
    temporal_split_estimate,
)
from epirare import lockstep
from epirare.harness import parse_config_text, sweep, write_sweep_csv
from reference import NEVER

SWEEP_INI = """\
[DEFAULT]
particles = 40
replications = 3
master_seed = 7

[cmc-sir]
model = sir
lambda = 0.12
gamma = 1.0
scaling = unscaled
s0 = 9
i0 = 1
event = final_size
n_c = 6
method = cmc

[cmc-rf]
model = rf
q = 0.9
s0 = 12
i0 = 1
event = cumulative_infections
generations = 5
n_c = 6
method = cmc

[cmc-hiv]
model = hiv
lambda = 0.05
gamma1 = 1.0
gamma2 = 0.5
c = 1.0
s0 = 25
i0 = 2
initial_detection_ages = 0.5, 2.0
event = duration
T = 1.5
method = cmc

[is-sir]
model = sir
lambda = 0.12
gamma = 1.0
scaling = unscaled
s0 = 9
i0 = 1
event = final_size
n_c = 8
method = is
lambda_new = 0.3
gamma_new = 0.7

[is-rf]
model = rf
q = 0.9
s0 = 12
i0 = 1
event = cumulative_infections
generations = 5
n_c = 8
method = is
q_new = 0.8

[ce-sir]
model = sir
lambda = 0.12
gamma = 1.0
scaling = unscaled
s0 = 9
i0 = 1
event = final_size
n_c = 8
method = ce
iterations = 3

[ce-rf]
model = rf
q = 0.9
s0 = 12
i0 = 1
event = cumulative_infections
generations = 5
n_c = 8
method = ce
iterations = 3

[ibps-sir]
model = sir
lambda = 0.12
gamma = 1.0
scaling = unscaled
s0 = 9
i0 = 1
event = final_size
n_c = 8
method = ibps
keep_fraction = 0.3

[ibps-sir-levels]
model = sir
lambda = 0.035
gamma = 1.0
scaling = unscaled
s0 = 30
i0 = 2
event = diagnoses_increment
t = 0.5
u = 1.5
n_r = 8
method = ibps
levels = 3, 5, 8
variant = keepall

[ibps-rf]
model = rf
q = 0.9
s0 = 12
i0 = 1
event = cumulative_infections
generations = 5
n_c = 8
method = ibps
keep_fraction = 0.5
weight_rule = potential_v
alpha = 0.1

[ibps-hiv]
model = hiv
lambda = 0.05
gamma1 = 1.0
gamma2 = 0.5
c = 1.0
s0 = 25
i0 = 2
initial_detection_ages = 0.5, 2.0
event = final_size
n_c = 16
method = ibps
keep_fraction = 0.3

[temporal-sir]
model = sir
lambda = 0.12
gamma = 1.0
scaling = unscaled
s0 = 9
i0 = 1
event = duration
T = 3.0
method = temporal
time_grid = 1.0, 2.0, 3.0

[temporal-hiv]
model = hiv
lambda = 0.05
gamma1 = 1.0
gamma2 = 0.5
c = 1.0
s0 = 25
i0 = 2
initial_detection_ages = 0.5, 2.0
event = duration
T = 4.0
method = temporal
keep_count = 10
"""

GOLDEN_CSV = """\
method,params,value,stderr,extinct_ensembles,zero_runs,wall_seconds
cmc,N=40;reps=3;seed=7,2.167e-01,1.443e-02,0,0,
cmc,N=40;reps=3;seed=7,4.583e-01,6.292e-02,0,0,
cmc,N=40;reps=3;seed=7,3.667e-01,3.819e-02,0,0,
is,N=40;reps=3;seed=7,9.529e-02,2.172e-02,0,0,
is,N=40;reps=3;seed=7,2.362e-01,4.739e-02,0,0,
ce[K=3],N=40;reps=3;seed=7,9.711e-02,1.573e-03,0,0,
ce[K=3],N=40;reps=3;seed=7,2.445e-01,4.839e-03,0,0,
ibps[multinomial;keep=0.3],N=40;reps=3;seed=7,1.059e-01,2.242e-02,0,0,
ibps[keepall;fixed-levels],N=40;reps=3;seed=7,5.785e-02,6.330e-02,0,0,
ibps[multinomial;keep=0.5;potential_v(a=0.1)],N=40;reps=3;seed=7,1.900e-01,1.772e-02,0,0,
ibps[multinomial;keep=0.3],N=40;reps=3;seed=7,5.496e-03,1.737e-03,0,0,
temporal[K=2],N=40;reps=3;seed=7,1.952e-01,3.171e-02,0,0,
temporal[adaptive],N=40;reps=3;seed=7,2.135e-02,1.017e-02,0,0,
"""

SIR = SirParams(lam=0.035, gamma=1.0, s0=30, i0=2, scaling=Scaling.UNSCALED)
HIV = HivParams(
    lam=0.05, gamma1=1.0, gamma2=0.5, c=1.0, s0=25, i0=2,
    initial_detection_ages=(0.5, 2.0),
)
SIR_EVENTS = {
    "final_size": FinalSize(n_c=16),
    "incidence": Incidence(T=2.0, n_i=12),
    "diagnoses": DiagnosesIncrement(t=0.5, u=1.5, n_r=10),
}
HIV_EVENTS = {
    "final_size": FinalSize(n_c=18),
    "incidence": Incidence(T=3.0, n_i=9),
    "diagnoses": DiagnosesIncrement(t=0.5, u=2.0, n_r=9),
}
IBPS_CASES = {
    f"{model_name}-{event_name}-{variant}": (model, spec, variant)
    for model_name, model, events in (("sir", SIR, SIR_EVENTS), ("hiv", HIV, HIV_EVENTS))
    for event_name, spec in events.items()
    for variant in ("multinomial", "keepall")
}
TEMPORAL_CASES = {
    "sir-adaptive": (SIR, 6.0, dict(keep_count=30)),
    "sir-grid": (SIR, 2.5, dict(time_grid=(0.5, 1.0, 1.5, 2.0, 2.5))),
    "hiv-adaptive": (HIV, 4.0, dict(keep_count=30)),
    "hiv-grid": (HIV, 4.0, dict(time_grid=(1.0, 2.0, 3.0, 4.0))),
}


HIT_TIME_CASES = ("hiv-incidence", "sir-diagnoses", "sir-final_size")

ENGINE_EVENTS = {
    "final_size": FinalSize(n_c=16),
    "incidence": Incidence(T=2.0, n_i=9),
    "duration": Duration(T=1.5),
    "diagnoses": DiagnosesIncrement(t=0.5, u=1.5, n_r=8),
}
ENGINE_CASES = {
    f"{model_name}-{event_name}-{'record' if record else 'bare'}-{start}": (
        model_name, event_name, record, start
    )
    for model_name in ("sir", "hiv")
    for event_name in ENGINE_EVENTS
    for record in (False, True)
    for start in ("fresh", "init")
}
# clock-free SIR final-size calls, weighted against a base law
CHAIN_BASE = SirParams(lam=0.02, gamma=1.2, s0=30, i0=2, scaling=Scaling.UNSCALED)
ENGINE_CASES.update({
    f"{name}-clock_free": case
    for name, case in ENGINE_CASES.items() if case[:2] == ("sir", "final_size")
})


def _sweep_csv() -> str:
    buf = io.StringIO()
    write_sweep_csv(sweep(parse_config_text(SWEEP_INI)), buf)
    return buf.getvalue()


def _ibps_per_level(name: str) -> tuple:
    model, spec, variant = IBPS_CASES[name]
    est, _ = ibps_estimate(
        model, spec, n_particles=120, keep_fraction=0.2, variant=variant,
        seed=SeedSpec(2024, replication=3), conditional_sample=False,
    )
    return est.per_level


def _fixed_schedule_per_level() -> tuple:
    est, _ = ibps_estimate(
        SIR, SIR_EVENTS["final_size"], n_particles=120,
        schedule=(4, 8, 12, 16),
        seed=SeedSpec(2024, replication=4), conditional_sample=False,
    )
    return est.per_level


def _temporal_per_level(name: str) -> tuple:
    model, horizon, kwargs = TEMPORAL_CASES[name]
    est = temporal_split_estimate(
        model, horizon, n_particles=120, seed=SeedSpec(2025, replication=1), **kwargs
    )
    return est.per_level


def _conditional_hit_times(name: str) -> tuple:
    model_name, event_name = name.split("-")
    model, events = (SIR, SIR_EVENTS) if model_name == "sir" else (HIV, HIV_EVENTS)
    _, ensemble = ibps_estimate(
        model, events[event_name], n_particles=10, keep_fraction=0.3, seed=SeedSpec(2026)
    )
    return (
        ensemble.levels,
        tuple(
            tuple(NEVER if t == np.inf else t for t in hits)
            for hits in ensemble.level_hit_times.tolist()
        ),
        tuple(np.diff(ensemble.log.offsets).tolist()),
    )


def _engine_init(model_name: str, spec) -> lockstep.Row:
    """Start points cut at time 0.4, with some paths finished at the start:
    extinct ones, and ones already at the horizon or the target."""
    model = SIR if model_name == "sir" else HIV
    engine = getattr(lockstep, f"{model_name}_ensemble")
    ens = engine(model, 150, SeedSpec(2027).generator(), Duration(0.4))
    s, i, r, t = (x.copy() for x in (ens.s, ens.i, ens.r, ens.t))
    total = s + i + r
    stop = lockstep._stop(spec)
    if "horizon" in stop:
        t[:3] = stop["horizon"]
    if "r" in stop.get("target", ()):
        r[3:5] = stop["target_level"]
    elif "max_i" in stop.get("target", ()):
        i[3:5] = stop["target_level"]
    i[5:7] = 0
    s[3:7] = total[3:7] - i[3:7] - r[3:7]
    return lockstep.Row(s, i, r, t, max_i=i, decayed=ens.decayed, window_rem=0)


def _digest(ens: lockstep.JumpEnsemble) -> str:
    """sha256 over the name, dtype, shape and bytes of every ensemble field
    and event-log column."""
    digest = hashlib.sha256()
    items = [(f.name, getattr(ens, f.name)) for f in dataclasses.fields(ens) if f.name != "log"]
    if ens.log_rate_ratio is not None:
        items.append(("log_rate_ratio", ens.log_rate_ratio))
    if ens.log is not None:
        items += [(f"log.{f.name}", getattr(ens.log, f.name)) for f in dataclasses.fields(ens.log)]
    for name, value in items:
        digest.update(name.encode())
        if value is None:
            digest.update(b"None")
        else:
            value = np.ascontiguousarray(value)
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(value.tobytes())
    return digest.hexdigest()


def _engine_digest(name: str) -> str:
    model_name, event_name, record, start = ENGINE_CASES[name]
    spec = ENGINE_EVENTS[event_name]
    model = SIR if model_name == "sir" else HIV
    engine = getattr(lockstep, f"{model_name}_ensemble")
    init = _engine_init(model_name, spec) if start == "init" else None
    rng = SeedSpec(2028).generator()
    if name.endswith("clock_free"):
        ens = engine(model, 200, rng, spec, init=init, base=CHAIN_BASE, record=record)
    elif (model_name, event_name) == ("sir", "final_size"):
        # the engine decides an SIR final size clock-free; its jump loop, clocked
        rates = lockstep._sir_rates(SIR)
        ens = lockstep._jump_loop(
            rates, SIR, 200, rng, init=init, record=record, base=rates, **lockstep._stop(spec)
        )
    else:
        base = dict(base=SIR) if model_name == "sir" else {}
        ens = engine(model, 200, rng, spec, init=init, record=record, **base)
    return _digest(ens)


PER_LEVEL = {'hiv-diagnoses-keepall': (0.20833333333333334,
                           0.8666666666666667,
                           0.31666666666666665,
                           0.06666666666666667),
 'hiv-diagnoses-multinomial': (0.20833333333333334, 0.26666666666666666),
 'hiv-final_size-keepall': (0.225,
                            0.18333333333333332,
                            0.2916666666666667,
                            0.85,
                            0.19166666666666668,
                            0.06666666666666667,
                            0.025,
                            0.9916666666666667),
 'hiv-final_size-multinomial': (0.225, 0.3333333333333333, 0.30833333333333335, 0.2, 0.65),
 'hiv-incidence-keepall': (0.4, 0.30833333333333335, 0.45, 0.2),
 'hiv-incidence-multinomial': (0.4,
                               0.30833333333333335,
                               0.24166666666666667,
                               0.4583333333333333),
 'sir-diagnoses-keepall': (0.23333333333333334,
                           0.20833333333333334,
                           0.13333333333333333,
                           0.041666666666666664),
 'sir-diagnoses-multinomial': (0.23333333333333334, 0.25, 0.3333333333333333),
 'sir-final_size-keepall': (0.2, 0.9666666666666667),
 'sir-final_size-multinomial': (0.2, 0.825),
 'sir-incidence-keepall': (0.2833333333333333,
                           0.225,
                           0.39166666666666666,
                           0.31666666666666665,
                           0.39166666666666666),
 'sir-incidence-multinomial': (0.2833333333333333,
                               0.25833333333333336,
                               0.35833333333333334,
                               0.24166666666666667)}

FIXED_SCHEDULE_PER_LEVEL = (0.6, 0.6833333333333333, 0.75, 0.7083333333333334)

TEMPORAL_PER_LEVEL = {'hiv-adaptive': (0.25, 0.25, 0.25, 0.8333333333333334),
 'hiv-grid': (0.5333333333333333, 0.275, 0.3, 0.36666666666666664),
 'sir-adaptive': (0.25, 0.5583333333333333),
 'sir-grid': (0.9, 0.8166666666666667, 0.875, 0.8833333333333333, 0.8666666666666667)}

HIT_TIMES = {'hiv-incidence': ((5.0, 6.0, 8.0, 9.0),
                   ((0.17273146096328418,
                     0.1902102001925909,
                     0.42254782644584715,
                     0.5119945040792179),
                    (0.17273146096328418,
                     0.1902102001925909,
                     0.42254782644584715,
                     0.5119945040792179),
                    (0.17273146096328418,
                     0.3424008035660603,
                     0.40458912303540334,
                     0.4050772004190145),
                    (0.17273146096328418,
                     0.1902102001925909,
                     0.2833971685749435,
                     0.28530022600746147),
                    (0.17273146096328418,
                     0.3424008035660603,
                     0.40458912303540334,
                     0.46901886280876803),
                    (0.17273146096328418,
                     0.3424008035660603,
                     0.40458912303540334,
                     0.46901886280876803),
                    (0.17273146096328418,
                     0.1902102001925909,
                     0.42254782644584715,
                     0.5119945040792179),
                    (0.17273146096328418,
                     0.1902102001925909,
                     0.2833971685749435,
                     0.28530022600746147),
                    (0.17273146096328418,
                     0.3424008035660603,
                     0.40458912303540334,
                     0.4997446482906611),
                    (0.17273146096328418,
                     0.1902102001925909,
                     0.2833971685749435,
                     0.28530022600746147)),
                   (11, 11, 7, 7, 7, 7, 11, 7, 7, 7)),
 'sir-diagnoses': ((6.0, 7.0, 10.0),
                   ((1.314680368137901, 1.9881414834052706, NEVER),
                    (1.314680368137901, 1.9881414834052706, NEVER),
                    (1.314680368137901, 1.9881414834052706, NEVER),
                    (1.314680368137901, 1.9881414834052706, NEVER),
                    (1.314680368137901, 1.9881414834052706, NEVER),
                    (1.314680368137901, 1.9881414834052706, NEVER),
                    (1.314680368137901, 1.47593262332614, NEVER),
                    (1.314680368137901, 1.682949924221073, NEVER),
                    (1.314680368137901, 1.9881414834052706, NEVER),
                    (1.314680368137901, 1.47593262332614, NEVER)),
                   (14, 14, 14, 14, 14, 14, 14, 13, 14, 13)),
 'sir-final_size': ((16.0,),
                    ((2.4930644110705606,),
                     (2.0309993674736924,),
                     (2.3070861952460797,),
                     (3.168617434008551,),
                     (4.3113823144343,),
                     (4.611316367283139,),
                     (4.5039504332238,),
                     (4.623908853377381,),
                     (2.324210506125967,),
                     (6.470167221630455,)),
                    (22, 22, 25, 24, 23, 25, 23, 22, 22, 22))}

ENGINE_DIGESTS = {'hiv-diagnoses-bare-fresh': '0fcc34bb2a7d27a09670626b762bf7ffa4031bd955ed48d4d779425377ca2ea7',
 'hiv-diagnoses-bare-init': '4ef888b7f54c7110561d321903afac1c5379d1f31632d2c49352854fbc854a29',
 'hiv-diagnoses-record-fresh': '3c935124e4161c16e4b17500692b8b19630a4fe08dcab16124f4698b618b76b2',
 'hiv-diagnoses-record-init': 'a7b69b97c17ed05f27d1b1bc8a114051c5879fad537ef8ed12537f923a544ae2',
 'hiv-duration-bare-fresh': '141164b0db43b74ef49199bd61fdf2f4c34275fd109c4cfbf01231a9d559d8db',
 'hiv-duration-bare-init': 'a536ee44c2278992c09fefb28ca9224cff47ec3a57e2bfac8cb9c474d1d37eb2',
 'hiv-duration-record-fresh': '01af785faba769a41731f094c871cb97ac2afc31113e5ec14f5f9b38af0eb4a2',
 'hiv-duration-record-init': '310c1235c8d5d93b24a525f90977b1a61e8d2ab68cb3f1cafb281b733e92fc31',
 'hiv-final_size-bare-fresh': '828e58cc6bbb393386babb407cf0ef07bb3e730c8e0677a269420289053e89f6',
 'hiv-final_size-bare-init': '2a3f078e2715a9ca24369ded4fe9c230b2878fb7ac777b6081e111517f748214',
 'hiv-final_size-record-fresh': 'ebd85bd7b279b5f99a684b736c141e2e38729986e91c39dbaac756958217ad82',
 'hiv-final_size-record-init': 'bc5588e1a7855c0d13fd2378eb5153febcc03aaf2a64465cfd8870ccab636b56',
 'hiv-incidence-bare-fresh': 'a480a61f0cfc889252380f7d13907d7bba87626a0f6937f42d8f962c2badb305',
 'hiv-incidence-bare-init': 'afa4a39248332347e20b633984fa4eec8ad8db328326830b22229088f3248759',
 'hiv-incidence-record-fresh': 'ced682f3bd2da3e006d31b58c45ad14a7585e6dea85a3251789f3a528afa0d0a',
 'hiv-incidence-record-init': '259008cfafb3008cc1c784e4804cd844bfed25e31cd5454c04cb2a9cc1bfd162',
 'sir-diagnoses-bare-fresh': '142884848bfd86de264f335605a441171923c5749d0f2ec13497d2e60d237959',
 'sir-diagnoses-bare-init': '6dafbfbc5635d4e75198d245b26e31eeab9661c441663f8394361752f1d5c09b',
 'sir-diagnoses-record-fresh': 'e72803f1e5a86490c7b4d0978630ddea03eb44e8cb7aa9e06dbe1b98d5fae888',
 'sir-diagnoses-record-init': '5f1f747faa1ad7cb4f5fdc52cc064063b8e7574014fbc123f51374faab82d3b7',
 'sir-duration-bare-fresh': 'b8a51ea9a8dfe9e09f7d42d330e3cd1c079c79da70117bca153a9410b76d723e',
 'sir-duration-bare-init': '538ca2809a4d5e863d82334fd44adeba6c5f4005a22b303e2f54edc8b491da2a',
 'sir-duration-record-fresh': '35ceab641b63f03f80751eceb17644290becfb845f7c1ca65a67aa578671cfaf',
 'sir-duration-record-init': '91d3b959fdf012841403490bd75a6dde4f38cdafcf9d09924bc42723b257995d',
 'sir-final_size-bare-fresh': '2dc8ee009af810c5b9a054e0a8407afdffb1e421073a391eeb524ab8aa86262b',
 'sir-final_size-bare-fresh-clock_free': 'f96412d324fa493e18b38a522826765a6d4e590c179b1efdbc3ab1155945e3be',
 'sir-final_size-bare-init': '08def2f9a640048aaad5a9f3756bb53baa7a93d541b9954a58c10ffec1343b2d',
 'sir-final_size-bare-init-clock_free': '361cdf74e3219516c95d49094fa14d9582169b56845101b87f60fbe8fa217c10',
 'sir-final_size-record-fresh': '0010f0635d5465437bdb320b713d6cb5add3f3890200d2fca07fc7efd5bf9073',
 'sir-final_size-record-fresh-clock_free': '1a1afa3140bdffec168bfa5bd558d8aef3fed13eb467ce6dc3a5e95f7ecad0f9',
 'sir-final_size-record-init': '819d26551013bb95e0a20bcaacd62d78b077f6f5576ce774e44e004fc7991994',
 'sir-final_size-record-init-clock_free': 'eed8962daf35085e63cb30b37dfd1632b0851c088a23141e26db895d40c13c0e',
 'sir-incidence-bare-fresh': '57b476331c9c9ee848e76c131a9e6c0bf56305d72763f1c959cf5c39756e1ef2',
 'sir-incidence-bare-init': '643a7a7924f18d4540109e54b4cfc1d53757e3ef68604c8b582753cc0cf08aef',
 'sir-incidence-record-fresh': '26479c79089099245df88803ce9e3e79d607f5620342cdb022649a72bc369ef4',
 'sir-incidence-record-init': '5d57ac3859285d0e520dfe70f8767e699bda2509ad5dec3414e1e57b63b0afc3'}


def test_sweep_csv_bytes():
    assert _sweep_csv() == GOLDEN_CSV


@pytest.mark.parametrize("name", sorted(IBPS_CASES))
def test_ibps_per_level(name):
    assert _ibps_per_level(name) == PER_LEVEL[name]


def test_ibps_fixed_schedule_per_level():
    assert _fixed_schedule_per_level() == FIXED_SCHEDULE_PER_LEVEL


@pytest.mark.parametrize("name", sorted(TEMPORAL_CASES))
def test_temporal_per_level(name):
    assert _temporal_per_level(name) == TEMPORAL_PER_LEVEL[name]


@pytest.mark.parametrize("name", HIT_TIME_CASES)
def test_conditional_sample_level_hit_times(name):
    assert _conditional_hit_times(name) == HIT_TIMES[name]


@pytest.mark.parametrize("name", sorted(ENGINE_CASES))
def test_engine_digest(name):
    assert _engine_digest(name) == ENGINE_DIGESTS[name]


if __name__ == "__main__":
    print(f'GOLDEN_CSV = """\\\n{_sweep_csv()}"""')
    for name, value in (
        ("PER_LEVEL", {n: _ibps_per_level(n) for n in sorted(IBPS_CASES)}),
        ("FIXED_SCHEDULE_PER_LEVEL", _fixed_schedule_per_level()),
        ("TEMPORAL_PER_LEVEL", {n: _temporal_per_level(n) for n in sorted(TEMPORAL_CASES)}),
        ("HIT_TIMES", {n: _conditional_hit_times(n) for n in HIT_TIME_CASES}),
        ("ENGINE_DIGESTS", {n: _engine_digest(n) for n in sorted(ENGINE_CASES)}),
    ):
        print(f"\n{name} = {pprint.pformat(value, width=96)}")
