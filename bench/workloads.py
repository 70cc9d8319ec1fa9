"""The benchmark's workloads: their inputs, references and replication call.

Every workload runs N = 1000 particles or paths per replication, and
replication r draws from ``SeedSpec(seed, replication=r)``, the stream address
``epirare.harness`` uses.  So the benchmark's own loop and ``harness.run`` on
``Workload.config`` consume the same random numbers and return the same
estimates bit for bit.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses an ``epirare`` found anywhere else, so the benchmark always measures
the code next to it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import epirare  # noqa: E402
from epirare import estimators, final_size, splitting  # noqa: E402
from epirare.core import HivParams, Scaling, SeedSpec, SirParams  # noqa: E402
from epirare.events import Duration, FinalSize  # noqa: E402
from epirare.harness import ExperimentConfig  # noqa: E402

if not Path(epirare.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"epirare must be imported from {SRC}, found {epirare.__file__}")

PARTICLES = 1000

ABAKALIKI = SirParams(
    lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED
)
ABAKALIKI_EVENT = FinalSize(81)
# Exact P(final size >= 81) as published with the model; the oracle must
# reproduce it before any estimate is checked against the oracle.
ABAKALIKI_TAIL = 2.4206e-3

HIV_DESK = HivParams(lam=1.3e-5, gamma1=0.13, gamma2=0.19, c=1.0, s0=10_000, i0=3)
HIV_EVENT = Duration(90.0)

# P(contact-tracing epidemic outlives T = 90) by crude Monte-Carlo over
# 4e7 paths: 34753 hits.  Produced by the command below; the master seed is
# one the benchmark is not run with, so no benchmark stream coincides with it.
HIV_REFERENCE_COMMAND = "python3 bench/hiv_reference.py --paths 40000000 --seed 900001"
HIV_REFERENCE = 8.68825e-4
HIV_REFERENCE_SE = 4.658514095501308e-06


@dataclass(frozen=True)
class Reference:
    """Value the workload's mean estimate is checked against."""

    value: float
    std_error: float
    source: str


@dataclass(frozen=True)
class Workload:
    """One benchmark input: what it runs, why, and how it is checked.

    ``reps_per_second`` is the nominal replication rate on the machine the
    benchmark was tuned on.  It fixes the replication count of a run as
    ``round(seconds * reps_per_second)``, so a run at a given seed replays
    the same replications whatever the speed of the code under test.
    """

    name: str
    why: str
    reps_per_second: float
    replicate: Callable[[int, int], float]
    config: Callable[[int, int], ExperimentConfig]
    reference: Callable[[], Reference]

    def replications(self, seconds: float) -> int:
        return max(2, round(seconds * self.reps_per_second))


def _abakaliki_reference() -> Reference:
    dist = final_size.exact_final_size(ABAKALIKI)
    value = final_size.tail_pf(dist, ABAKALIKI.i0, ABAKALIKI_EVENT.n_c)
    if not math.isclose(value, ABAKALIKI_TAIL, rel_tol=1e-4):
        raise RuntimeError(f"exact Abakaliki tail {value!r} is not {ABAKALIKI_TAIL}")
    return Reference(value, 0.0, "exact_final_size")


def _hiv_reference() -> Reference:
    return Reference(HIV_REFERENCE, HIV_REFERENCE_SE, HIV_REFERENCE_COMMAND)


def _ibps(seed: int, rep: int) -> float:
    est, _ = splitting.ibps_estimate(
        ABAKALIKI,
        ABAKALIKI_EVENT,
        n_particles=PARTICLES,
        keep_fraction=0.01,
        seed=SeedSpec(seed, replication=rep),
        conditional_sample=False,
    )
    return est.value


def _temporal(seed: int, rep: int) -> float:
    est = splitting.temporal_split_estimate(
        HIV_DESK,
        HIV_EVENT.T,
        n_particles=PARTICLES,
        keep_count=100,
        seed=SeedSpec(seed, replication=rep),
    )
    return est.value


def _ce(seed: int, rep: int) -> float:
    est, _ = estimators.ce_estimate(
        ABAKALIKI, ABAKALIKI_EVENT, PARTICLES, 5, SeedSpec(seed, replication=rep)
    )
    return est.value


def _config(name: str, **fields) -> Callable[[int, int], ExperimentConfig]:
    def build(seed: int, replications: int) -> ExperimentConfig:
        return ExperimentConfig(
            label=name,
            particles=PARTICLES,
            replications=replications,
            master_seed=seed,
            **fields,
        )

    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ibps-abakaliki",
            why="IBPS keep 1% on the Abakaliki final-size tail: splitting bookkeeping "
            "at a level cut, refill batches of ~1000 paths on the SIR engine",
            reps_per_second=19.0,
            replicate=_ibps,
            config=_config(
                "ibps-abakaliki", model=ABAKALIKI, event=ABAKALIKI_EVENT,
                method="ibps", keep_fraction=0.01,
            ),
            reference=_abakaliki_reference,
        ),
        Workload(
            name="temporal-hiv",
            why="temporal splitting to T=90 on the contact-tracing model: time cuts "
            "and per-slot decayed sums; the only workload on the HIV engine",
            reps_per_second=10.0,
            replicate=_temporal,
            config=_config(
                "temporal-hiv", model=HIV_DESK, event=HIV_EVENT,
                method="temporal", keep_count=100,
            ),
            reference=_hiv_reference,
        ),
        Workload(
            name="ce-abakaliki",
            why="cross-entropy IS, 5 iterations, on the Abakaliki tail: unrecorded "
            "SIR engine batches and no splitting, so splitting changes bypass it",
            reps_per_second=11.0,
            replicate=_ce,
            config=_config(
                "ce-abakaliki", model=ABAKALIKI, event=ABAKALIKI_EVENT,
                method="ce", iterations=5,
            ),
            reference=_abakaliki_reference,
        ),
    )
}
