"""Experiment configuration, replication orchestration, and table output.

Configs are flat INI-style sections, one experiment per section, diffable as
provenance.  A run executes independent replications with derived seed
streams and reports the mean estimate and the empirical standard deviation
across replications; everything is deterministic given the master seed.
"""

from __future__ import annotations

import configparser
import dataclasses
import logging
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .core import (
    HivParams,
    ModelParams,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SirParams,
)
from .estimators import (
    Diagnostics,
    Estimate,
    ce_check,
    ce_estimate,
    cmc,
    cmc_check,
    is_check,
    is_estimate,
)
from .events import (
    CumulativeInfections,
    DiagnosesIncrement,
    Duration,
    EventSpec,
    FinalSize,
    Incidence,
)
from .splitting import (
    ibps_check,
    ibps_estimate,
    ibps_unread,
    temporal_check,
    temporal_split_estimate,
)

__all__ = [
    "METHOD_RECORDS",
    "ExperimentConfig",
    "MethodRecord",
    "ResultRow",
    "RunError",
    "parse_config_file",
    "parse_config_text",
    "run",
    "sweep",
    "write_sweep_csv",
]

log = logging.getLogger(__name__)

CSV_COLUMNS = "method,params,value,stderr,extinct_ensembles,zero_runs,wall_seconds"


class RunError(RuntimeError):
    """A replication failed; carries the replication index for context."""


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


@dataclass(frozen=True)
class MethodRecord:
    """One estimation method as an experiment runs it: ``options`` maps each
    option field it reads to the reader of its INI value, or for an
    instrumental law to the INI keys that set the model's fields (read when
    the model has that field); ``unread(event, options)`` names the options it
    does not read on ``event``, given those read before.  ``args(config)``
    gives its estimator's arguments but the seed; ``check(**args)`` is the
    check the estimator runs first, and ``estimate(seed, **args)`` calls the
    estimator by its module-level name, so a name rebound at run time runs.
    ``label(config)`` names the method in a result row.
    """

    options: dict
    args: Callable[["ExperimentConfig"], dict]
    check: Callable[..., None]
    estimate: Callable[..., Estimate]
    unread: Callable[[EventSpec, dict], dict] = lambda event, options: {}
    label: Callable[["ExperimentConfig"], str] = lambda config: config.method


def _horizon(event: EventSpec) -> float:
    if not isinstance(event, Duration):
        raise ValueError("temporal splitting estimates duration events")
    return event.T


METHOD_RECORDS = {
    "cmc": MethodRecord(
        options={},
        args=lambda c: dict(model=c.model, spec=c.event, n_paths=c.particles),
        check=cmc_check,
        estimate=lambda seed, **args: cmc(**args, seed=seed),
    ),
    "is": MethodRecord(
        options={"instrumental": {"lambda_new": "lam", "gamma_new": "gamma", "q_new": "q"}},
        args=lambda c: dict(model=c.model, spec=c.event, instrumental=c.instrumental,
                            n_paths=c.particles),
        check=is_check,
        estimate=lambda seed, **args: is_estimate(**args, seed=seed),
    ),
    "ce": MethodRecord(
        options={"iterations": int},
        args=lambda c: dict(model=c.model, spec=c.event, n_paths=c.particles,
                            iterations=c.iterations),
        check=ce_check,
        estimate=lambda seed, **args: ce_estimate(**args, seed=seed)[0],
        label=lambda c: f"ce[K={c.iterations}]",
    ),
    "ibps": MethodRecord(
        options={"keep_fraction": float, "levels": _parse_floats, "variant": str.lower,
                 "weight_rule": str.lower, "alpha": float},
        args=lambda c: dict(
            model=c.model, spec=c.event, n_particles=c.particles, schedule=c.levels,
            keep_fraction=c.keep_fraction, variant=c.variant, weight_rule=c.weight_rule,
            alpha=c.alpha,
        ),
        check=ibps_check,
        estimate=lambda seed, **args: ibps_estimate(
            **args, seed=seed, conditional_sample=False
        )[0],
        unread=lambda event, options: ibps_unread(
            event, options.get("weight_rule", ExperimentConfig.weight_rule)
        ),
        label=lambda c: "ibps[{};{}{}]".format(
            c.variant, "fixed-levels" if c.keep_fraction is None else f"keep={c.keep_fraction:g}",
            "" if c.weight_rule == "indicator" else f";{c.weight_rule}(a={c.alpha:g})",
        ),
    ),
    "temporal": MethodRecord(
        options={"time_grid": _parse_floats, "keep_count": int},
        args=lambda c: dict(
            model=c.model, horizon=_horizon(c.event), n_particles=c.particles,
            time_grid=c.time_grid, keep_count=c.keep_count,
        ),
        check=temporal_check,
        estimate=lambda seed, **args: temporal_split_estimate(**args, seed=seed),
        label=lambda c: "temporal[{}]".format(
            "adaptive" if c.keep_count is not None else f"K={len(c.time_grid) - 1}"
        ),
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, event, method, method options, replications.

    A config is checked when it is made, by its method's estimator check
    (``METHOD_RECORDS``); the option fields of other methods are not read.
    """

    label: str
    model: ModelParams
    event: EventSpec
    method: str
    particles: int
    replications: int
    master_seed: int
    keep_fraction: float | None = None
    levels: tuple[float, ...] | None = None
    variant: str = "multinomial"
    weight_rule: str = "indicator"
    alpha: float = 0.0
    iterations: int = 5
    instrumental: ModelParams | None = None
    time_grid: tuple[float, ...] | None = None
    keep_count: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHOD_RECORDS:
            raise ValueError(f"method must be one of {tuple(METHOD_RECORDS)}: {self.method}")
        for name in ("particles", "replications", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        SeedSpec(self.master_seed)  # the seed stream's own check
        record = METHOD_RECORDS[self.method]
        record.check(**record.args(self))

    @property
    def method_label(self) -> str:
        return METHOD_RECORDS[self.method].label(self)

    @property
    def params_text(self) -> str:
        bits = [f"N={self.particles}", f"reps={self.replications}", f"seed={self.master_seed}"]
        return ";".join(bits)


@dataclass(frozen=True)
class ResultRow:
    """One output table row: a method's aggregated estimate."""

    label: str
    method: str
    params: str
    value: float
    stderr: float
    replications: int
    diagnostics: Diagnostics
    wall_seconds: float
    estimates: tuple[float, ...] = ()


def _replicate(config: ExperimentConfig, rep: int) -> Estimate:
    record = METHOD_RECORDS[config.method]
    try:
        est = record.estimate(SeedSpec(config.master_seed, replication=rep), **record.args(config))
    except Exception as exc:
        raise RunError(f"replication {rep} of '{config.label}': {exc}") from exc
    return est


def run(config: ExperimentConfig) -> ResultRow:
    """Execute all replications of one experiment and aggregate the results.

    The value is the mean of per-replication estimates and the stderr their
    sample standard deviation; with a single replication it is that
    replication's own ``std_error``, and where that is 0 the spread is
    reported as zero with a warning.
    """
    t0 = time.perf_counter()
    reps = range(config.replications)
    if config.workers > 1:
        # imported on use: the process pool module costs every import 12-19 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_replicate, [config] * config.replications, reps,
                                    chunksize=max(1, config.replications // (4 * config.workers))))
    else:
        results = [_replicate(config, rep) for rep in reps]
    values = np.array([est.value for est in results])
    diag = Diagnostics()
    for est in results:
        diag = diag.merged(est.diagnostics)
    if config.replications > 1:
        stderr = float(values.std(ddof=1))
    else:
        stderr = results[0].std_error
        if stderr == 0.0:
            log.warning(
                "experiment '%s' ran a single replication; no spread estimate", config.label
            )
    return ResultRow(
        label=config.label,
        method=config.method_label,
        params=config.params_text,
        value=float(values.mean()),
        stderr=stderr,
        replications=config.replications,
        diagnostics=diag,
        wall_seconds=time.perf_counter() - t0,
        estimates=tuple(float(v) for v in values),
    )


def sweep(configs: Iterable[ExperimentConfig]) -> list[ResultRow]:
    """Run each experiment in order; one row per config."""
    return [run(config) for config in configs]


def write_sweep_csv(rows: Sequence[ResultRow], out: TextIO, timing: bool = False) -> None:
    """Emit the result table.

    Probabilities use scientific notation with 4 significant digits.  The
    wall-seconds column is only populated when ``timing`` is set, so that
    default output is byte-identical across reruns with one master seed.
    """
    out.write(CSV_COLUMNS + "\n")
    for row in rows:
        wall = f"{row.wall_seconds:.3f}" if timing else ""
        out.write(
            f"{row.method},{row.params},{row.value:.3e},{row.stderr:.3e},"
            f"{row.diagnostics.extinct_ensembles},{row.estimates.count(0.0)},{wall}\n"
        )


# ---------------------------------------------------------------------------
# config-file parsing


def _required(section: configparser.SectionProxy, key: str, convert=float):
    if (text := section.get(key)) is None:
        raise ValueError(f"missing key: {key}")
    return convert(text)


def _parse_model(section: configparser.SectionProxy) -> ModelParams:
    kind = section.get("model", "").strip().lower()
    if kind in ("sir", ""):
        scaling = section.get("scaling", "mass_action").strip().lower()
        if scaling not in ("mass_action", "unscaled"):
            raise ValueError(f"unknown scaling: {scaling}")
        return SirParams(
            lam=_required(section, "lambda"),
            gamma=_required(section, "gamma"),
            s0=_required(section, "s0", int),
            i0=_required(section, "i0", int),
            scaling=Scaling(scaling),
            n=section.getint("n", fallback=None) if scaling == "mass_action" else None,
        )
    if kind in ("rf", "reed_frost", "reed-frost"):
        return ReedFrostParams(
            q=_required(section, "q"), s0=_required(section, "s0", int),
            i0=_required(section, "i0", int),
        )
    if kind == "hiv":
        return HivParams(
            lam=_required(section, "lambda"),
            gamma1=_required(section, "gamma1"),
            gamma2=_required(section, "gamma2"),
            c=_required(section, "c"),
            s0=_required(section, "s0", int),
            i0=_required(section, "i0", int),
            initial_detection_ages=_parse_floats(section.get("initial_detection_ages", "")),
        )
    raise ValueError(f"unknown model: {kind}")


def _parse_event(section: configparser.SectionProxy) -> EventSpec:
    kind = section.get("event", "").strip().lower()
    if kind == "final_size":
        return FinalSize(n_c=_required(section, "n_c", int))
    if kind == "duration":
        return Duration(T=_required(section, "T"))
    if kind == "incidence":
        return Incidence(T=_required(section, "T"), n_i=_required(section, "n_i", int))
    if kind == "diagnoses_increment":
        return DiagnosesIncrement(
            t=_required(section, "t"), u=_required(section, "u"),
            n_r=_required(section, "n_r", int),
        )
    if kind == "cumulative_infections":
        return CumulativeInfections(
            t=_required(section, "generations", int), n_c=_required(section, "n_c", int)
        )
    raise ValueError(f"unknown event: {kind}")


class _ReadTracker(configparser.ConfigParser):
    """A parser that records every (section, key) it is asked for."""

    def __init__(self) -> None:
        super().__init__()
        self.read_keys: set[tuple[str, str]] = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def _parse_section(parser: _ReadTracker, label: str) -> ExperimentConfig:
    section = parser[label]
    model = _parse_model(section)
    event = _parse_event(section)
    method = section.get("method", "cmc").strip().lower()
    # the option fields the method reads, as its record says (an unknown
    # method reads none, and the config rejects it); an empty value leaves a
    # field unset
    record = METHOD_RECORDS.get(method, METHOD_RECORDS["cmc"])
    options = {}
    for name, read in record.options.items():
        if name in record.unread(event, options):
            continue
        if isinstance(read, dict):
            law = {field: float(text) for key, field in read.items()
                   if hasattr(model, field) and (text := section.get(key, "").strip())}
            if law:
                options[name] = dataclasses.replace(model, **law)
        elif text := section.get(name, "").strip():
            options[name] = read(text)
    config = ExperimentConfig(
        label=label,
        model=model,
        event=event,
        method=method,
        particles=section.getint("particles", fallback=1000),
        replications=section.getint("replications", fallback=1000),
        master_seed=section.getint("master_seed", fallback=0),
        workers=section.getint("workers", fallback=1),
        **options,
    )
    unread = sorted(key for key in section if (label, key) not in parser.read_keys)
    if unread:
        raise ValueError(f"unknown key(s): {', '.join(unread)}")
    return config


def parse_config_text(text: str) -> list[ExperimentConfig]:
    """Parse experiments from INI text; one section per experiment.

    A section reads its model's, event's and run keys and the option keys its
    method reads on its model and event (``METHOD_RECORDS``); any other key,
    one from ``[DEFAULT]`` included, is an error.  So is a value the model,
    the event or the method's estimator check rejects.  Every error names its
    section, ``[label] ...``, and the parse fails before any section runs.
    """
    parser = _ReadTracker()
    parser.read_string(text)
    configs = []
    for label in parser.sections():
        try:
            configs.append(_parse_section(parser, label))
        except (TypeError, ValueError, configparser.Error) as exc:
            raise ValueError(f"[{label}] {exc}") from exc
    return configs


def parse_config_file(path: str) -> list[ExperimentConfig]:
    """The experiments of a config file, which must hold at least one."""
    with open(path, "r", encoding="utf-8") as handle:
        configs = parse_config_text(handle.read())
    if not configs:
        raise ValueError(f"config {path} has no sections")
    return configs
