"""Golden fixture: exact outputs at fixed seeds, pinned across refactors.

A change that keeps the order of random draws must leave every value here
unchanged: the bytes of a small sweep covering every method x model pairing,
the per-level survival fractions of splitting runs on every event the
splitting estimators accept, and the level-hit times of one conditional
sample.  A change that moves draws on purpose regenerates the pins with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
"""

import io
import pprint

import pytest

from epirare import (
    Axis,
    DiagnosesIncrement,
    FinalSize,
    HivParams,
    Incidence,
    LevelSchedule,
    NEVER,
    Scaling,
    SeedSpec,
    SirParams,
    ibps_estimate,
    temporal_split_estimate,
)
from epirare.harness import parse_config_text, sweep, write_sweep_csv

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
cmc,N=40;reps=3;seed=7,1.417e-01,2.887e-02,0,0,
cmc,N=40;reps=3;seed=7,4.583e-01,6.292e-02,0,0,
cmc,N=40;reps=3;seed=7,3.667e-01,3.819e-02,0,0,
is,N=40;reps=3;seed=7,6.116e-02,2.815e-02,0,0,
is,N=40;reps=3;seed=7,2.362e-01,4.739e-02,0,0,
ce[K=3],N=40;reps=3;seed=7,1.006e-01,9.875e-03,0,0,
ce[K=3],N=40;reps=3;seed=7,2.360e-01,1.059e-02,0,0,
ibps[multinomial;keep=0.3],N=40;reps=3;seed=7,7.641e-02,2.355e-02,0,0,
ibps[keepall;fixed-levels],N=40;reps=3;seed=7,5.073e-02,4.546e-02,0,0,
ibps[multinomial;keep=0.5;potential_v(a=0.1)],N=40;reps=3;seed=7,1.900e-01,1.772e-02,0,0,
ibps[multinomial;keep=0.3],N=40;reps=3;seed=7,5.444e-03,2.738e-03,0,0,
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
        schedule=LevelSchedule((4, 8, 12, 16), Axis.REMOVED),
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
        tuple(p.level_hit_times for p in ensemble.particles),
        tuple(len(p.path.events) for p in ensemble.particles),
    )


PER_LEVEL = {'hiv-diagnoses-keepall': (0.20833333333333334, 0.8666666666666667, 0.31666666666666665, 0.075),
 'hiv-diagnoses-multinomial': (0.20833333333333334, 0.25),
 'hiv-final_size-keepall': (0.225,
                            0.18333333333333332,
                            0.2916666666666667,
                            0.85,
                            0.19166666666666668,
                            0.06666666666666667,
                            0.025,
                            0.9916666666666667),
 'hiv-final_size-multinomial': (0.225,
                                0.3333333333333333,
                                0.30833333333333335,
                                0.2916666666666667,
                                0.25),
 'hiv-incidence-keepall': (0.4, 0.30833333333333335, 0.45, 0.2),
 'hiv-incidence-multinomial': (0.4,
                               0.30833333333333335,
                               0.24166666666666667,
                               0.4583333333333333),
 'sir-diagnoses-keepall': (0.23333333333333334,
                           0.20833333333333334,
                           0.11666666666666667,
                           0.025),
 'sir-diagnoses-multinomial': (0.23333333333333334, 0.25833333333333336, 0.38333333333333336),
 'sir-final_size-keepall': (0.2, 0.6416666666666667),
 'sir-final_size-multinomial': (0.2, 0.6666666666666666),
 'sir-incidence-keepall': (0.2833333333333333,
                           0.225,
                           0.39166666666666666,
                           0.31666666666666665,
                           0.39166666666666666),
 'sir-incidence-multinomial': (0.2833333333333333,
                               0.25833333333333336,
                               0.35833333333333334,
                               0.24166666666666667)}

FIXED_SCHEDULE_PER_LEVEL = (0.625, 0.675, 0.7, 0.6666666666666666)

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
                    ((5.056503777765171,),
                     (8.185042130719344,),
                     (8.185042130719344,),
                     (5.056503777765171,),
                     (5.413352362856014,),
                     (4.395103119567834,),
                     (4.395103119567834,),
                     (4.395103119567834,),
                     (8.185042130719344,),
                     (8.185042130719344,)),
                    (31, 31, 31, 31, 32, 34, 34, 34, 31, 31))}


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


if __name__ == "__main__":
    print(f'GOLDEN_CSV = """\\\n{_sweep_csv()}"""')
    for name, value in (
        ("PER_LEVEL", {n: _ibps_per_level(n) for n in sorted(IBPS_CASES)}),
        ("FIXED_SCHEDULE_PER_LEVEL", _fixed_schedule_per_level()),
        ("TEMPORAL_PER_LEVEL", {n: _temporal_per_level(n) for n in sorted(TEMPORAL_CASES)}),
        ("HIT_TIMES", {n: _conditional_hit_times(n) for n in HIT_TIME_CASES}),
    ):
        print(f"\n{name} = {pprint.pformat(value, width=96)}")
