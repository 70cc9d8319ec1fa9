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
    LevelSchedule,
    event_axis,
)
from .splitting import ibps_estimate, temporal_split_estimate

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

METHODS = ("cmc", "is", "ce", "ibps", "temporal")
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
            raise ValueError(f"method must be one of {METHODS}: {self.method}")
        if self.particles < 1:
            raise ValueError("particles must be positive")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.restart_on_extinction < 0:
            raise ValueError("restart_on_extinction must be non-negative")
        if self.keep_fraction is not None and not 0.0 < self.keep_fraction < 1.0:
            raise ValueError("keep_fraction must lie in (0, 1)")
        if self.method == "is" and self.instrumental is None:
            raise ValueError("importance sampling needs instrumental parameters")
        if self.method == "ibps" and self.keep_fraction is None and self.levels is None:
            raise ValueError("ibps needs keep_fraction or levels")
        if self.method == "temporal" and self.time_grid is None and self.keep_count is None:
            raise ValueError("temporal needs time_grid or keep_count")

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
            schedule = None
            if config.levels is not None:
                schedule = LevelSchedule(config.levels, event_axis(event))
            est, _ = ibps_estimate(
                model,
                event,
                n_particles=config.particles,
                schedule=schedule,
                keep_fraction=config.keep_fraction,
                variant=config.variant,
                weight_rule=config.weight_rule,
                alpha=config.alpha,
                seed=seed,
                restart_on_extinction=config.restart_on_extinction,
                conditional_sample=False,
            )
        else:
            if not isinstance(event, Duration):
                raise ValueError("temporal splitting estimates duration events")
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
            n=section.getint("n", fallback=None),
        )
    if kind in ("rf", "reed_frost", "reed-frost"):
        return ReedFrostParams(
            q=section.getfloat("q"), s0=section.getint("s0"), i0=section.getint("i0")
        )
    if kind == "hiv":
        ages_text = section.get("initial_detection_ages", "").strip()
        ages = tuple(float(a) for a in ages_text.split(",") if a.strip()) if ages_text else ()
        return HivParams(
            lam=section.getfloat("lambda"),
            gamma1=section.getfloat("gamma1"),
            gamma2=section.getfloat("gamma2"),
            c=section.getfloat("c"),
            s0=section.getint("s0"),
            i0=section.getint("i0"),
            initial_detection_ages=ages,
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


def _parse_instrumental(
    section: configparser.SectionProxy, model: ModelParams
) -> ModelParams | None:
    if isinstance(model, SirParams):
        lam_new = section.getfloat("lambda_new", fallback=None)
        gamma_new = section.getfloat("gamma_new", fallback=None)
        if lam_new is None and gamma_new is None:
            return None
        return dataclasses.replace(
            model,
            lam=lam_new if lam_new is not None else model.lam,
            gamma=gamma_new if gamma_new is not None else model.gamma,
        )
    if isinstance(model, ReedFrostParams):
        q_new = section.getfloat("q_new", fallback=None)
        if q_new is None:
            return None
        return dataclasses.replace(model, q=q_new)
    return None


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


class _ReadTracker(configparser.ConfigParser):
    """A parser that records every (section, key) it is asked for."""

    def __init__(self) -> None:
        super().__init__()
        self.read_keys: set[tuple[str, str]] = set()

    def get(self, section, option, **kwargs):
        self.read_keys.add((section, self.optionxform(option)))
        return super().get(section, option, **kwargs)


def parse_config_text(text: str) -> list[ExperimentConfig]:
    """Parse experiments from INI text; one section per experiment.  A key no
    parser reads for its section, ``[DEFAULT]`` ones included, is an error."""
    parser = _ReadTracker()
    parser.read_string(text)
    configs = []
    for label in parser.sections():
        section = parser[label]
        model = _parse_model(section, label)
        event = _parse_event(section, label)
        levels_text = section.get("levels", "").strip()
        grid_text = section.get("time_grid", "").strip()
        config = ExperimentConfig(
            label=label,
            model=model,
            event=event,
            method=section.get("method", "cmc").strip().lower(),
            particles=section.getint("particles", fallback=1000),
            replications=section.getint("replications", fallback=1000),
            master_seed=section.getint("master_seed", fallback=0),
            keep_fraction=section.getfloat("keep_fraction", fallback=None),
            levels=_parse_floats(levels_text) if levels_text else None,
            variant=section.get("variant", "multinomial").strip().lower(),
            weight_rule=section.get("weight_rule", "indicator").strip().lower(),
            alpha=section.getfloat("alpha", fallback=0.0),
            iterations=section.getint("iterations", fallback=5),
            instrumental=_parse_instrumental(section, model),
            time_grid=_parse_floats(grid_text) if grid_text else None,
            keep_count=section.getint("keep_count", fallback=None),
            restart_on_extinction=section.getint("restart_on_extinction", fallback=0),
            workers=section.getint("workers", fallback=1),
        )
        unread = sorted(key for key in section if (label, key) not in parser.read_keys)
        if unread:
            raise ValueError(f"[{label}] unknown key(s): {', '.join(unread)}")
        configs.append(config)
    return configs


def parse_config_file(path: str) -> list[ExperimentConfig]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())
