import math
import time

import numpy as np
import pytest

from epirare import (
    Scaling,
    SirParams,
    exact_final_size,
    tail_pf,
    threshold_for_tail,
)
from reference import UnstableSolveError, final_size_solve

ABAKALIKI = SirParams(
    lam=0.0008254, gamma=0.087613, s0=119, i0=1, scaling=Scaling.UNSCALED
)


def _toy(s0=1, i0=1, lam=0.12, gamma=1.0, scaling=Scaling.UNSCALED):
    return SirParams(lam=lam, gamma=gamma, s0=s0, i0=i0, scaling=scaling)


def test_exact_single_susceptible_closed_form():
    # removal before the single possible infection: gamma / (gamma + lam)
    dist = exact_final_size(_toy())
    assert dist[0] == pytest.approx(1 / 1.12, abs=1e-12)
    assert dist[1] == pytest.approx(0.12 / 1.12, abs=1e-12)


def test_exact_no_infection_when_lambda_zero():
    dist = exact_final_size(_toy(s0=7, lam=0.0))
    assert dist[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(dist[1:] == 0.0)


def test_exact_matches_brute_force_small_case():
    params = _toy(s0=2, lam=1.0)
    exact = exact_final_size(params)
    reference = final_size_solve(params)
    assert np.max(np.abs(exact - reference)) < 1e-10
    assert exact[0] == pytest.approx(1 / 3, abs=1e-12)
    assert exact[1] == pytest.approx(1 / 6, abs=1e-12)


def test_exact_matches_brute_force_spot_grid():
    # the full acceptance grid runs elsewhere; spot-check both scalings here
    for scaling in (Scaling.UNSCALED, Scaling.MASS_ACTION):
        for lam, gamma in ((0.1, 1.0), (5.0, 0.1)):
            params = SirParams(lam=lam, gamma=gamma, s0=9, i0=2, scaling=scaling)
            exact = exact_final_size(params)
            reference = final_size_solve(params)
            assert np.max(np.abs(exact - reference)) < 1e-10


def test_exact_distribution_sums_to_one():
    dist = exact_final_size(_toy(s0=40, i0=1, lam=1.0, gamma=1.0, scaling=Scaling.MASS_ACTION))
    assert abs(dist.sum() - 1.0) < 1e-9
    assert np.all(dist >= 0.0)


def test_exact_low_precision_is_detected():
    params = SirParams(lam=1.0, gamma=1.0, s0=60, i0=1, scaling=Scaling.MASS_ACTION, n=61)
    with pytest.raises(UnstableSolveError):
        final_size_solve(params, dps=15)


def test_brute_force_no_infectives():
    dist = exact_final_size(_toy(s0=4, i0=0))
    assert dist[0] == 1.0
    assert np.all(dist[1:] == 0.0)


def test_brute_force_tiny_gamma_infects_everyone():
    dist = exact_final_size(_toy(s0=3, gamma=1e-9, lam=1.0))
    assert dist[-1] >= 1 - 1e-6


def test_exact_matches_reference_solve_at_abakaliki():
    elapsed = []  # best of three, so one scheduling hiccup cannot fail it
    for _ in range(3):
        started = time.perf_counter()
        dist = exact_final_size(ABAKALIKI)
        elapsed.append(time.perf_counter() - started)
    reference = final_size_solve(ABAKALIKI)
    assert np.all(reference > 0.0)
    assert np.max(np.abs(dist - reference) / reference) <= 1e-12
    assert tail_pf(dist, ABAKALIKI.i0, 81) == pytest.approx(2.4206e-3, rel=1e-4)
    assert min(elapsed) <= 0.02, f"Abakaliki oracle took {min(elapsed):.3f}s"


def test_exact_large_population_is_a_distribution():
    params = SirParams(lam=1.5, gamma=1.0, s0=2000, i0=1, scaling=Scaling.MASS_ACTION)
    started = time.perf_counter()
    dist = exact_final_size(params)
    elapsed = time.perf_counter() - started
    assert len(dist) == 2001
    assert np.all(np.isfinite(dist)) and np.all(dist >= 0.0)
    assert abs(dist.sum() - 1.0) <= 1e-12
    assert elapsed <= 2.0, f"s0=2000 oracle took {elapsed:.2f}s"


def test_exact_rejects_a_non_finite_result():
    # finite rates whose product overflows: p = inf / inf
    params = SirParams(lam=1e308, gamma=1.0, s0=3, i0=1, scaling=Scaling.UNSCALED)
    with pytest.raises(FloatingPointError, match="not a distribution"):
        exact_final_size(params)


def test_tail_pf_trivial_bounds():
    dist = np.array([0.5, 0.3, 0.2])
    assert tail_pf(dist, i0=2, n_c=2) == 1.0
    assert tail_pf(dist, i0=2, n_c=1) == 1.0
    assert tail_pf(dist, i0=2, n_c=5) == 0.0


def test_tail_pf_partial_sum():
    dist = np.array([0.5, 0.3, 0.2])
    assert tail_pf(dist, i0=1, n_c=2) == pytest.approx(0.5)
    assert tail_pf(dist, i0=1, n_c=3) == pytest.approx(0.2)


def test_tail_pf_fractional_threshold_reads_as_the_next_integer():
    # as FinalSize does: FinalSize(5.5) is the event FinalSize(6)
    dist = exact_final_size(_toy(s0=9))
    assert tail_pf(dist, 1, 5.5) == tail_pf(dist, 1, 6)
    for n_c in np.arange(1.25, 11.5, 0.5):
        assert tail_pf(dist, 1, n_c) == tail_pf(dist, 1, math.ceil(n_c))


def test_tail_pf_rejects_threshold_below_one():
    for n_c in (0, 0.5, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            tail_pf(np.array([1.0]), i0=1, n_c=n_c)


def test_tail_curve_monotone_fig2_model():
    params = SirParams(lam=1.0, gamma=1.0, s0=40, i0=1, scaling=Scaling.MASS_ACTION, n=41)
    dist = exact_final_size(params)
    tails = [tail_pf(dist, params.i0, n_c) for n_c in range(1, 42)]
    assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))
    assert tails[0] == 1.0
    assert tails[-1] > 0.0


def test_threshold_for_tail_picks_closest():
    params = _toy(s0=9, lam=0.12)
    dist = exact_final_size(params)
    n_c = threshold_for_tail(dist, params.i0, 2.0e-2)
    best = min(
        range(1, 11), key=lambda m: abs(tail_pf(dist, params.i0, m) - 2.0e-2)
    )
    assert n_c == best
    assert n_c == 10  # whole population; exact tail 2.0195e-2


def test_exact_handles_integer_rate_ratios():
    # gamma == pairwise rate: phi = 1/2 exactly at l = 0
    params = _toy(s0=1, lam=1.0, gamma=1.0)
    dist = exact_final_size(params)
    assert dist[0] == pytest.approx(0.5, abs=1e-14)
