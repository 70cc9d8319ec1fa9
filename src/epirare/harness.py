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
from typing import Iterable, Sequence, TextIO

import numpy as np

from .core import (
    HivParams,
    ModelParams,
    ReedFrostParams,
    Scaling,
    SeedSpec,
    SirParams,
)
from .estimators import Diagnostics, ce_estimate, cmc, is_estimate
from .events import (
    CumulativeInfections,
    DiagnosesIncrement,
    Duration,
    EventSpec,
    FinalSize,
    Incidence,
)
from .splitting import ibps_estimate, ibps_unread_options, temporal_split_estimate

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "RunError",
    "parse_config_file",
    "parse_config_text",
    "run",
    "sweep",
    "write_sweep_csv",
]

log = logging.getLogger(__name__)

# the ExperimentConfig option fields each method reads; a config section or an `estimate`
# override may set only those of its own method, and of ibps's only those its event reads
METHODS = {
    "cmc": (),
    "is": ("instrumental",),
    "ce": ("iterations",),
    "ibps": ("keep_fraction", "levels", "variant", "weight_rule", "alpha",
             "restart_on_extinction"),
    "temporal": ("time_grid", "keep_count", "restart_on_extinction"),
}
CSV_COLUMNS = "method,params,value,stderr,extinct_ensembles,zero_runs,wall_seconds"


class RunError(RuntimeError):
    """A replication failed; carries the replication index for context."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: model, event, method, method options, replications."""

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
    restart_on_extinction: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {tuple(METHODS)}: {self.method}")
        for name in ("particles", "replications", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.restart_on_extinction < 0:
            raise ValueError("restart_on_extinction must be non-negative")
        if self.keep_fraction is not None and not 0.0 < self.keep_fraction < 1.0:
            raise ValueError("keep_fraction must lie in (0, 1)")
        if self.method == "is" and self.instrumental is None:
            raise ValueError("importance sampling needs instrumental parameters")
        if self.method == "ibps" and (self.keep_fraction is None) == (self.levels is None):
            raise ValueError("ibps needs exactly one of keep_fraction or levels")
        if self.method == "temporal" and (self.time_grid is None) == (self.keep_count is None):
            raise ValueError("temporal needs exactly one of time_grid or keep_count")
        if self.method == "temporal" and not isinstance(self.event, Duration):
            raise ValueError("temporal splitting estimates duration events")

    @property
    def method_label(self) -> str:
        if self.method == "ibps":
            sel = (
                f"keep={self.keep_fraction:g}" if self.keep_fraction is not None
                else "fixed-levels"
            )
            extra = "" if self.weight_rule == "indicator" else f";{self.weight_rule}(a={self.alpha:g})"
            return f"ibps[{self.variant};{sel}{extra}]"
        if self.method == "temporal":
            sel = "adaptive" if self.keep_count is not None else f"K={len(self.time_grid) - 1}"
            return f"temporal[{sel}]"
        if self.method == "ce":
            return f"ce[K={self.iterations}]"
        return self.method

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


def _replicate(config: ExperimentConfig, rep: int) -> tuple[float, Diagnostics]:
    seed = SeedSpec(config.master_seed, replication=rep)
    model, event = config.model, config.event
    try:
        if config.method == "cmc":
            est = cmc(model, event, config.particles, seed)
        elif config.method == "is":
            est = is_estimate(model, event, config.instrumental, config.particles, seed)
        elif config.method == "ce":
            est, _ = ce_estimate(model, event, config.particles, config.iterations, seed)
        elif config.method == "ibps":
            est, _ = ibps_estimate(
                model,
                event,
                n_particles=config.particles,
                schedule=config.levels,
                keep_fraction=config.keep_fraction,
                variant=config.variant,
                weight_rule=config.weight_rule,
                alpha=config.alpha,
                seed=seed,
                restart_on_extinction=config.restart_on_extinction,
                conditional_sample=False,
            )
        else:
            est = temporal_split_estimate(
                model,
                event.T,
                n_particles=config.particles,
                time_grid=config.time_grid,
                keep_count=config.keep_count,
                seed=seed,
                restart_on_extinction=config.restart_on_extinction,
            )
    except Exception as exc:
        raise RunError(f"replication {rep} of '{config.label}': {exc}") from exc
    return est.value, est.diagnostics


def run(config: ExperimentConfig) -> ResultRow:
    """Execute all replications of one experiment and aggregate the results.

    The value is the mean of per-replication estimates and the stderr their
    sample standard deviation; with a single replication the spread is
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
    values = np.array([v for v, _ in results])
    diag = Diagnostics()
    for _, d in results:
        diag = diag.merged(d)
    if config.replications == 1:
        log.warning("experiment '%s' ran a single replication; no spread estimate", config.label)
        stderr = 0.0
    else:
        stderr = float(values.std(ddof=1))
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
            f"{row.diagnostics.extinct_ensembles},{row.diagnostics.zero_runs},{wall}\n"
        )


# ---------------------------------------------------------------------------
# config-file parsing


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_model(section: configparser.SectionProxy, label: str) -> ModelParams:
    kind = section.get("model", "").strip().lower()
    if kind in ("sir", ""):
        scaling = section.get("scaling", "mass_action").strip().lower()
        if scaling not in ("mass_action", "unscaled"):
            raise ValueError(f"[{label}] unknown scaling: {scaling}")
        return SirParams(
            lam=section.getfloat("lambda"),
            gamma=section.getfloat("gamma"),
            s0=section.getint("s0"),
            i0=section.getint("i0"),
            scaling=Scaling(scaling),
            n=section.getint("n", fallback=None) if scaling == "mass_action" else None,
        )
    if kind in ("rf", "reed_frost", "reed-frost"):
        return ReedFrostParams(
            q=section.getfloat("q"), s0=section.getint("s0"), i0=section.getint("i0")
        )
    if kind == "hiv":
        return HivParams(
            lam=section.getfloat("lambda"),
            gamma1=section.getfloat("gamma1"),
            gamma2=section.getfloat("gamma2"),
            c=section.getfloat("c"),
            s0=section.getint("s0"),
            i0=section.getint("i0"),
            initial_detection_ages=_parse_floats(section.get("initial_detection_ages", "")),
        )
    raise ValueError(f"[{label}] unknown model: {kind}")


def _parse_event(section: configparser.SectionProxy, label: str) -> EventSpec:
    kind = section.get("event", "").strip().lower()
    if kind == "final_size":
        return FinalSize(n_c=section.getint("n_c"))
    if kind == "duration":
        return Duration(T=section.getfloat("T"))
    if kind == "incidence":
        return Incidence(T=section.getfloat("T"), n_i=section.getint("n_i"))
    if kind == "diagnoses_increment":
        return DiagnosesIncrement(
            t=section.getfloat("t"), u=section.getfloat("u"), n_r=section.getint("n_r")
        )
    if kind == "cumulative_infections":
        return CumulativeInfections(
            t=section.getint("generations"), n_c=section.getint("n_c")
        )
    raise ValueError(f"[{label}] unknown event: {kind}")


# the INI keys of each model's instrumental law, by the model field they set
_INSTRUMENTAL_KEYS = {
    SirParams: {"lambda_new": "lam", "gamma_new": "gamma"},
    ReedFrostParams: {"q_new": "q"},
}


def _parse_instrumental(
    section: configparser.SectionProxy, model: ModelParams
) -> ModelParams | None:
    keys = _INSTRUMENTAL_KEYS.get(type(model), {})
    law = {field: float(text) for key, field in keys.items()
           if (text := section.get(key, "").strip())}
    return dataclasses.replace(model, **law) if law else None


# how an INI value becomes an option field; an empty value leaves it unset
_OPTION_READERS = {
    "keep_fraction": float, "alpha": float, "iterations": int, "keep_count": int,
    "restart_on_extinction": int, "variant": str.lower, "weight_rule": str.lower,
    "levels": _parse_floats, "time_grid": _parse_floats,
}


class _ReadTracker(configparser.ConfigParser):
    """A parser that records every (section, key) it is asked for."""

    def __init__(self) -> None:
        super().__init__()
        self.read_keys: set[tuple[str, str]] = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def parse_config_text(text: str) -> list[ExperimentConfig]:
    """Parse experiments from INI text; one section per experiment.  A section
    reads its model's, event's and run keys and only its own method's option
    keys (``METHODS``), of ibps's only those its event reads, ``alpha`` after
    ``weight_rule``; any other key, one from ``[DEFAULT]`` included, is an
    error, so a misplaced option fails the parse before any section runs."""
    parser = _ReadTracker()
    parser.read_string(text)
    configs = []
    for label in parser.sections():
        section = parser[label]
        model = _parse_model(section, label)
        event = _parse_event(section, label)
        method = section.get("method", "cmc").strip().lower()
        options = {}
        for name in METHODS.get(method, ()):
            weight_rule = options.get("weight_rule", ExperimentConfig.weight_rule)
            if method == "ibps" and name in ibps_unread_options(event, weight_rule):
                continue
            if name == "instrumental":
                options[name] = _parse_instrumental(section, model)
            elif value := section.get(name, "").strip():
                options[name] = _OPTION_READERS[name](value)
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
            raise ValueError(f"[{label}] unknown key(s): {', '.join(unread)}")
        configs.append(config)
    return configs


def parse_config_file(path: str) -> list[ExperimentConfig]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
