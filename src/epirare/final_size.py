"""Final-size distribution of the Markovian SIR model.

The final size is read off the embedded jump chain: from (s, i) with i > 0
the next event is an infection, to (s-1, i+1), or a removal, to (s, i-1),
and the states (s, 0) absorb with s0 - s of the initial susceptibles ever
infected.  ``exact_final_size`` pushes the chain's probability mass through
the (s, i) lattice one row of constant s at a time, summing only positive
terms, so nothing cancels and float64 suffices at any population.  It is
the ground truth for the estimator tests; a result that is not a
probability vector raises instead of being renormalized.  The independent
arbitrary-precision solve it is checked against lives with the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .core import SirParams

__all__ = [
    "exact_final_size",
    "tail_pf",
    "threshold_for_tail",
]

_SUM_TOL = 1e-9


def exact_final_size(params: SirParams) -> np.ndarray:
    """Distribution of k = initially susceptible individuals ever infected.

    Absorption law of the embedded jump chain, computed a row of constant s
    at a time from s0 down to 0.  With r the per-infective infection rate at
    s, an event is an infection with probability p = r / (r + gamma) and a
    removal with q = gamma / (r + gamma), whatever i is (p = 0, q = 1 at
    s = 0).  The mass v[i] that ever visits (s, i) is what flows in from
    row s+1 plus what removals bring down from (s, i+1):

        v[i] = inflow[i] + q * v[i+1],   0 <= i <= i0 + s0 - s.

    v[0] is the mass absorbed at (s, 0), and p * v[i] for i >= 1 flows into
    (s-1, i+1).  O(s0^2) time, O(s0) memory.

    Returns a length s0+1 probability vector indexed by k.
    """
    s0, i0 = params.s0, params.i0
    dist = np.zeros(s0 + 1)
    # inflow[i]: mass entering row s at (s, i), for i <= i0 + s0 - s
    inflow = [0.0] * (i0 + 1)
    inflow[i0] = 1.0
    for s in range(s0, -1, -1):
        rate = params.pair_rate(s, 1)  # 0 at s = 0: p = 0 and q = 1 there
        p = rate / (rate + params.gamma)
        q = params.gamma / (rate + params.gamma)
        visits = []  # v[i] from the top of the row down to v[0]
        v = 0.0
        for x in reversed(inflow):
            v = x + q * v
            visits.append(v)
        dist[s0 - s] = visits.pop()
        inflow = [0.0, 0.0, *[p * v for v in reversed(visits)]]
    total = float(dist.sum())
    if not (np.all(np.isfinite(dist)) and abs(total - 1.0) <= _SUM_TOL):
        raise FloatingPointError(
            f"final-size probabilities are not a distribution: sum {total!r}"
        )
    return dist


def tail_pf(dist: np.ndarray, i0: int, n_c: float) -> float:
    """P{final epidemic size >= n_c} for a final-size distribution over k.

    The final size counts every individual ever infected, i0 + k in total,
    so a fractional threshold reads as the next integer, as in ``FinalSize``.
    """
    if not n_c >= 1:  # NaN too
        raise ValueError(f"threshold must be at least 1: {n_c}")
    s0 = len(dist) - 1
    if n_c <= i0:
        return 1.0
    if n_c > i0 + s0:
        return 0.0
    return float(np.sum(dist[math.ceil(n_c) - i0 :]))


def threshold_for_tail(dist: np.ndarray, i0: int, target: float) -> int:
    """Smallest threshold whose exact tail probability best matches target."""
    if not 0.0 <= target <= 1.0:  # NaN too
        raise ValueError(f"target must be a probability in [0, 1]: {target}")
    s0 = len(dist) - 1
    best_nc, best_gap = 1, math.inf
    for n_c in range(1, i0 + s0 + 1):
        gap = abs(tail_pf(dist, i0, n_c) - target)
        if gap < best_gap:
            best_nc, best_gap = n_c, gap
    return best_nc
