"""Probability estimators: crude Monte-Carlo, fixed importance sampling with
exact likelihood ratios, and cross-entropy adaptive importance sampling.

Each estimator consumes a SeedSpec whose replication coordinate is set by the
caller; internal phases derive sibling streams through the stage coordinate,
so a run is reproducible bit for bit from (master seed, replication).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import lockstep
from .core import (
    HivParams,
    ModelParams,
    ReedFrostParams,
    SeedSpec,
    SirParams,
)
from .events import (
    CumulativeInfections,
    Duration,
    EventSpec,
    event_threshold,
)

__all__ = [
    "Diagnostics",
    "Estimate",
    "ce_estimate",
    "cmc",
    "is_estimate",
]

# |log likelihood-ratio| beyond this is flagged: exp() would saturate a double.
LOG_RATIO_OVERFLOW = 700.0


@dataclass(frozen=True)
class Diagnostics:
    """Counters surfaced alongside an estimate.

    ``zero_runs`` counts runs whose final value was exactly zero and, for the
    cross-entropy method, iterations whose weights all vanished.
    """

    extinct_ensembles: int = 0
    zero_runs: int = 0
    likelihood_overflows: int = 0

    def merged(self, other: "Diagnostics") -> "Diagnostics":
        return Diagnostics(
            self.extinct_ensembles + other.extinct_ensembles,
            self.zero_runs + other.zero_runs,
            self.likelihood_overflows + other.likelihood_overflows,
        )


@dataclass(frozen=True)
class Estimate:
    """A probability estimate with its replication spread and diagnostics."""

    value: float
    std_error: float = 0.0
    per_level: tuple[float, ...] = ()
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def __post_init__(self) -> None:
        if not (0.0 <= self.value < math.inf and 0.0 <= self.std_error < math.inf):
            raise ValueError("estimate and standard error must be finite and non-negative")
        if any(not 0.0 <= p <= 1.0 for p in self.per_level):
            raise ValueError("per-level survival fractions must lie in [0, 1]")


def _batch_indicators(batch: lockstep.JumpEnsemble, spec: EventSpec) -> np.ndarray:
    if isinstance(spec, Duration):
        return batch.i > 0
    return getattr(batch, spec.progress) >= event_threshold(spec)


def _ensemble_fn(model: ModelParams):
    if isinstance(model, SirParams):
        return lockstep.sir_ensemble
    if isinstance(model, HivParams):
        return lockstep.hiv_ensemble
    raise TypeError(f"not a jump-process model: {model}")


def _validate_event_model(model: ModelParams, spec: EventSpec) -> None:
    discrete = isinstance(model, ReedFrostParams)
    if discrete != isinstance(spec, CumulativeInfections):
        raise ValueError(
            "cumulative-infection events pair with the Reed-Frost model; "
            "all other events pair with the jump-process models"
        )


def cmc(model: ModelParams, spec: EventSpec, n_paths: int, seed: SeedSpec) -> Estimate:
    """Crude Monte-Carlo: empirical frequency of the event over i.i.d. paths."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    _validate_event_model(model, spec)
    rng = seed.generator()
    if isinstance(model, ReedFrostParams):
        _, infectives = lockstep.rf_chains(model, spec.t - 1, n_paths, rng)
        hits = infectives.sum(axis=1) >= spec.n_c
    else:
        batch = _ensemble_fn(model)(model, n_paths, rng, spec)
        hits = _batch_indicators(batch, spec)
    value = float(np.mean(hits))
    return Estimate(value, diagnostics=Diagnostics(zero_runs=int(value == 0.0)))


def _sir_log_ratio(
    batch: lockstep.JumpEnsemble, base: SirParams, instr: SirParams
) -> np.ndarray:
    """Per path, the log likelihood ratio d(base)/d(instrumental) of a batch
    simulated under the instrumental law, at each path's stopping time; -inf
    where a base rate of zero meets a path that used it.

    On a clock-free batch it is the ratio of the jump chains, the product
    over events of the base over the instrumental chance of the event.
    That is the conditional expectation of the ratio of the whole paths
    given the chain, so it weights a chain-decided event without bias and
    with no more variance (Rao-Blackwell)."""
    if batch.log_rate_ratio is None:
        log_phi = -(
            (base.lam - instr.lam) * batch.int_pair
            + (base.gamma - instr.gamma) * batch.int_i
        )
    else:
        log_phi = -batch.log_rate_ratio
    if base.lam > 0:
        log_phi = log_phi + batch.n_inf * math.log(base.lam / instr.lam)
    else:
        log_phi = np.where(batch.n_inf > 0, -np.inf, log_phi)
    log_phi = log_phi + batch.n_rem * math.log(base.gamma / instr.gamma)
    return log_phi


def _is_weights(
    model: ModelParams,
    spec: EventSpec,
    instrumental: ModelParams,
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool, object]:
    """One importance-sampling step: simulate ``n_paths`` under the
    instrumental law and return the per-path weights (likelihood ratio x
    event indicator), whether a hit's finite log-ratio overflows, and the
    paths: the (S, I) chains for Reed-Frost, the engine batch for SIR."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if isinstance(model, ReedFrostParams):
        S, I = lockstep.rf_chains(instrumental, spec.t - 1, n_paths, rng)
        hits = I.sum(axis=1) >= spec.n_c
        log_ratio = lockstep.rf_loglik(S, I, model.q) - lockstep.rf_loglik(
            S, I, instrumental.q
        )
        paths = (S, I)
    else:
        if instrumental.lam <= 0:
            raise ValueError("instrumental rates must be positive")
        if (model.scaling, model.population) != (instrumental.scaling, instrumental.population):
            raise ValueError("base and instrumental laws must share scaling and population")
        paths = lockstep.sir_ensemble(instrumental, n_paths, rng, spec, base=model)
        hits = _batch_indicators(paths, spec)
        log_ratio = _sir_log_ratio(paths, model, instrumental)
    finite = np.isfinite(log_ratio)
    overflow = bool(np.any(np.abs(log_ratio[finite & hits]) > LOG_RATIO_OVERFLOW))
    with np.errstate(over="ignore"):
        weights = np.where(hits, np.exp(log_ratio), 0.0)
    return weights, overflow, paths


def is_estimate(
    model: ModelParams,
    spec: EventSpec,
    instrumental: ModelParams,
    n_paths: int,
    seed: SeedSpec,
) -> Estimate:
    """Fixed importance sampling: simulate under the instrumental law and
    reweight by the exact likelihood ratio."""
    _validate_event_model(model, spec)
    if not isinstance(model, (ReedFrostParams, SirParams)):
        raise TypeError("importance sampling supports the Reed-Frost and SIR models")
    if not isinstance(instrumental, type(model)):
        raise TypeError("instrumental law must match the model family")
    if (instrumental.s0, instrumental.i0) != (model.s0, model.i0):
        raise ValueError("instrumental law must share the initial condition")
    weights, overflow, _ = _is_weights(model, spec, instrumental, n_paths, seed.generator())
    value = float(np.mean(weights))
    diag = Diagnostics(zero_runs=int(value == 0.0), likelihood_overflows=int(overflow))
    return Estimate(value, diagnostics=diag)


def _rf_ce_update(
    S: np.ndarray, I: np.ndarray, weights: np.ndarray, q_prev: float
) -> float:
    """Weighted maximum-likelihood escape probability, by 1-D search."""
    # imported on use: only Reed-Frost needs it, and `import epirare` stays numpy-only
    from scipy.optimize import minimize_scalar

    eps = 1e-9
    active = weights > 0

    def negative_objective(q: float) -> float:
        return -float(weights[active] @ lockstep.rf_loglik(S[active], I[active], q))

    res = minimize_scalar(
        negative_objective, bounds=(eps, 1.0 - eps), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x) if res.success else q_prev


def ce_estimate(
    model: ModelParams,
    spec: EventSpec,
    n_paths: int,
    iterations: int,
    seed: SeedSpec,
) -> tuple[Estimate, list[ModelParams]]:
    """Cross-entropy adaptive importance sampling.

    Starting from the nominal parameters, each iteration simulates under the
    current instrumental law, forms the importance-sampling estimate, and
    refits the instrumental parameters by weighted maximum likelihood with
    weights ratio * indicator.  Returns the last iteration's estimate plus the
    learned parameter trace.  An iteration whose weights all vanish keeps the
    parameters and is counted in ``zero_runs``.

    On an SIR final size the batches run clock-free: the weights are ratios
    of jump chains, the conditional expectations of the whole paths' ratios
    given the chain, and the rate integrals are summed at the nominal rates,
    so that weight times integral is the conditional expectation of the
    whole path's ratio times its integral.  The weighted maximum-likelihood
    update below is then the same cross-entropy step, in expectation, as
    with whole paths.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    _validate_event_model(model, spec)
    if not isinstance(model, (ReedFrostParams, SirParams)):
        raise TypeError("the cross-entropy method supports Reed-Frost and SIR models")
    trace: list[ModelParams] = [model]
    current = model
    zero_runs = 0
    overflow = 0
    theta = 0.0
    for k in range(1, iterations + 1):
        rng = seed.stream(stage=k).generator()
        weights, overflowed, paths = _is_weights(model, spec, current, n_paths, rng)
        overflow += overflowed
        theta = float(np.mean(weights))
        if not np.any(weights > 0):
            zero_runs += 1
            trace.append(current)
            continue
        if isinstance(model, ReedFrostParams):
            q_new = _rf_ce_update(*paths, weights, current.q)
            current = dataclasses.replace(current, q=q_new)
        else:
            w_pair = float(weights @ paths.int_pair)
            w_int_i = float(weights @ paths.int_i)
            lam_new = float(weights @ paths.n_inf) / w_pair if w_pair > 0 else current.lam
            gam_new = float(weights @ paths.n_rem) / w_int_i if w_int_i > 0 else current.gamma
            current = dataclasses.replace(
                current, lam=max(lam_new, 1e-12), gamma=max(gam_new, 1e-12)
            )
        trace.append(current)
    diag = Diagnostics(
        zero_runs=zero_runs + int(theta == 0.0), likelihood_overflows=overflow
    )
    return Estimate(theta, diagnostics=diag), trace
