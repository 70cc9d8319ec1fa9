"""Probability estimators: crude Monte-Carlo, fixed importance sampling with
exact likelihood ratios, and cross-entropy adaptive importance sampling.

Importance sampling reports a per-run standard error from the spread of its
weights; the cross-entropy method returns the mean of its last half of
iterations, each an importance-sampling estimate under a law fitted before
its own paths were drawn, with the standard error of that mean.

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
    event_progress,
    event_threshold,
)

__all__ = [
    "Diagnostics",
    "Estimate",
    "ce_check",
    "ce_estimate",
    "cmc",
    "cmc_check",
    "is_check",
    "is_estimate",
]

# |log likelihood-ratio| beyond this is flagged: exp() would saturate a double.
LOG_RATIO_OVERFLOW = 700.0


@dataclass(frozen=True)
class Diagnostics:
    """Counters surfaced alongside an estimate."""

    extinct_ensembles: int = 0
    likelihood_overflows: int = 0

    def merged(self, other: "Diagnostics") -> "Diagnostics":
        return Diagnostics(
            self.extinct_ensembles + other.extinct_ensembles,
            self.likelihood_overflows + other.likelihood_overflows,
        )


@dataclass(frozen=True)
class Estimate:
    """A probability estimate with its per-run standard error and diagnostics.

    ``std_error`` is set by crude Monte-Carlo, importance sampling and the
    cross-entropy method from the spread of their hits or weights; the
    splitting estimators leave it at 0.0.
    """

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
    """Per path, whether the event happened: its progress
    (``event_progress``) reaches the threshold."""
    if isinstance(spec, Duration):
        return batch.i > 0
    return event_progress(spec, batch) >= event_threshold(spec)


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


def cmc_check(model: ModelParams, spec: EventSpec, n_paths: int) -> None:
    """Raise on the arguments ``cmc`` rejects; importance sampling runs it too."""
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    _validate_event_model(model, spec)


def cmc(model: ModelParams, spec: EventSpec, n_paths: int, seed: SeedSpec) -> Estimate:
    """Crude Monte-Carlo: empirical frequency of the event over i.i.d. paths."""
    cmc_check(model, spec, n_paths)
    rng = seed.generator()
    if isinstance(model, ReedFrostParams):
        _, infectives = lockstep.rf_chains(model, spec.t - 1, n_paths, rng)
        hits = infectives.sum(axis=1) >= spec.n_c
    else:
        batch = _ensemble_fn(model)(model, n_paths, rng, spec)
        hits = _batch_indicators(batch, spec)
    value = float(np.mean(hits))
    std_error = _weight_sd(hits) / math.sqrt(n_paths)
    return Estimate(value, std_error)


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
    if isinstance(model, ReedFrostParams):
        S, I = lockstep.rf_chains(instrumental, spec.t - 1, n_paths, rng)
        hits = I.sum(axis=1) >= spec.n_c
        log_ratio = lockstep.rf_loglik(S, I, model.q) - lockstep.rf_loglik(
            S, I, instrumental.q
        )
        paths = (S, I)
    else:
        paths = lockstep.sir_ensemble(instrumental, n_paths, rng, spec, base=model)
        hits = _batch_indicators(paths, spec)
        log_ratio = _sir_log_ratio(paths, model, instrumental)
    finite = np.isfinite(log_ratio)
    overflow = bool(np.any(np.abs(log_ratio[finite & hits]) > LOG_RATIO_OVERFLOW))
    with np.errstate(over="ignore"):
        weights = np.where(hits, np.exp(log_ratio), 0.0)
    return weights, overflow, paths


def _weight_sd(weights: np.ndarray) -> float:
    """Sample standard deviation (ddof=1) of the weights, 0.0 for a single
    path.  The weights are scaled by the largest before squaring, so weights
    near the overflow flag give a finite spread whenever their mean is finite."""
    top = float(np.max(weights))
    if weights.size < 2 or top == 0.0:
        return 0.0
    scaled = weights / top
    scaled -= scaled.mean()
    return top * math.sqrt(float(scaled @ scaled) / (weights.size - 1))


def is_check(
    model: ModelParams, spec: EventSpec, instrumental: ModelParams | None, n_paths: int
) -> None:
    """Raise on the arguments ``is_estimate`` rejects; the cross-entropy method
    runs it on its nominal law, which its first iteration samples under."""
    cmc_check(model, spec, n_paths)
    if not isinstance(model, (ReedFrostParams, SirParams)):
        raise TypeError("importance sampling supports the Reed-Frost and SIR models")
    if instrumental is None:
        raise ValueError("importance sampling needs instrumental parameters")
    if not isinstance(instrumental, type(model)):
        raise TypeError("instrumental law must match the model family")
    if (instrumental.s0, instrumental.i0) != (model.s0, model.i0):
        raise ValueError("instrumental law must share the initial condition")
    if isinstance(model, SirParams):
        if instrumental.lam <= 0:
            raise ValueError("instrumental rates must be positive")
        if (model.scaling, model.population) != (instrumental.scaling, instrumental.population):
            raise ValueError("base and instrumental laws must share scaling and population")


def is_estimate(
    model: ModelParams,
    spec: EventSpec,
    instrumental: ModelParams,
    n_paths: int,
    seed: SeedSpec,
) -> Estimate:
    """Fixed importance sampling: simulate under the instrumental law and
    reweight by the exact likelihood ratio, taken where the engine stops
    each path, at the event's decision."""
    is_check(model, spec, instrumental, n_paths)
    weights, overflow, _ = _is_weights(model, spec, instrumental, n_paths, seed.generator())
    value = float(np.mean(weights))
    std_error = _weight_sd(weights) / math.sqrt(n_paths)
    diag = Diagnostics(likelihood_overflows=int(overflow))
    return Estimate(value, std_error, diagnostics=diag)


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


def ce_check(model: ModelParams, spec: EventSpec, n_paths: int, iterations: int) -> None:
    """Raise on the arguments ``ce_estimate`` rejects."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if not isinstance(model, (ReedFrostParams, SirParams)):
        raise TypeError("the cross-entropy method supports Reed-Frost and SIR models")
    if isinstance(model, SirParams) and model.lam <= 0:
        raise ValueError(f"cross-entropy needs a positive nominal infection rate: {model.lam}")
    is_check(model, spec, model, n_paths)


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
    weights ratio * indicator.  An iteration whose weights all vanish keeps
    the parameters.

    Returns the equal-weight mean of the estimates of the last ceil(K/2)
    iterations (K//2 + 1 ... K), plus the learned parameter trace.  Iteration
    k's law is fitted from earlier iterations only, before its own stream is
    drawn, so its estimate is unbiased given the past, and so is a mean with
    weights fixed in advance; the early iterations, under laws still far from
    the event, would only add variance.  The standard error is that of the
    mean, sqrt(sum of s_k^2 / N) / (number kept), where s_k^2 is iteration
    k's weight variance: the kept estimates are martingale increments, so
    its square is unbiased for the variance of their mean.

    On an SIR final size the batches run clock-free: the weights are ratios
    of jump chains, the conditional expectations of the whole paths' ratios
    given the chain, and the rate integrals are summed at the nominal rates,
    so that weight times integral is the conditional expectation of the
    whole path's ratio times its integral.  The weighted maximum-likelihood
    update below is then the same cross-entropy step, in expectation, as
    with whole paths.  Each path stops where the event is decided, and the
    event is settled by then, so fitting the law of the stopped paths is
    the whole cross-entropy step: only that part of a law is ever sampled.
    """
    ce_check(model, spec, n_paths, iterations)
    trace: list[ModelParams] = [model]
    current = model
    overflow = 0
    thetas: list[float] = []
    sds: list[float] = []
    for k in range(1, iterations + 1):
        rng = seed.stream(stage=k).generator()
        weights, overflowed, paths = _is_weights(model, spec, current, n_paths, rng)
        overflow += overflowed
        thetas.append(float(np.mean(weights)))
        sds.append(_weight_sd(weights))
        if not np.any(weights > 0):
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
    kept = slice(iterations // 2, None)
    n_kept = iterations - iterations // 2
    value = math.fsum(thetas[kept]) / n_kept
    std_error = math.hypot(*sds[kept]) / math.sqrt(n_paths) / n_kept
    diag = Diagnostics(likelihood_overflows=overflow)
    return Estimate(value, std_error, diagnostics=diag), trace
