"""Unit tests for the mean-field equilibrium solver."""

import functools
import math

import numpy as np
import pytest

from repro.core.meanfield import (
    _arrival_pmf,
    accept_rate,
    bin_transition_matrix,
    equilibrium,
    equilibrium_throw_intensity,
    poisson_pmf,
    stationary_loads,
)
from repro.errors import ConfigurationError
from repro.stats.markov import stationary_distribution

# ---------------------------------------------------------------------------
# Scalar oracle: the chain built one term at a time with Python loops, the
# way the solver computed it before it was vectorised.
# ---------------------------------------------------------------------------


def _oracle_pmf(rate, kmax):
    pmf = np.zeros(kmax + 1)
    log_term = -rate
    log_rate = math.log(rate) if rate > 0 else -math.inf
    for k in range(kmax + 1):
        pmf[k] = math.exp(log_term)
        log_term += log_rate - math.log(k + 1)
    pmf[kmax] += max(0.0, 1.0 - pmf.sum())
    return pmf


def _oracle_transition(pmf, c):
    transition = np.zeros((c + 1, c + 1))
    for load in range(c + 1):
        for arrivals, probability in enumerate(pmf):
            after = min(c, load + arrivals)
            transition[load, max(0, after - 1)] += probability
    return transition


def _oracle_accept_rate(intensity, c):
    pmf = _oracle_pmf(intensity, len(_arrival_pmf(intensity, c)) - 1)
    dist = stationary_distribution(_oracle_transition(pmf, c))
    arrivals = np.arange(len(pmf))
    total = 0.0
    for load in range(c + 1):
        total += dist[load] * float((pmf * np.minimum(arrivals, c - load)).sum())
    return total


@functools.cache
def _oracle_intensity(c, lam, tol=1e-10):
    low, high = lam, math.log(1.0 / (1.0 - lam)) + c + 2.0
    for _ in range(200):
        mid = (low + high) / 2
        if _oracle_accept_rate(mid, c) > lam:
            high = mid
        else:
            low = mid
        if high - low < tol:
            break
    return (low + high) / 2


GRID_LAMBDAS = [1.0 - 2.0**-k for k in range(1, 16)]
GRID_CAPACITIES = range(1, 17)


@pytest.mark.parametrize("c", GRID_CAPACITIES)
class TestVectorisedChainMatchesOracle:
    def test_chain_functions(self, c):
        for lam in GRID_LAMBDAS:
            for intensity in (lam, math.log(1.0 / (1.0 - lam)), math.log(1.0 / (1.0 - lam)) + c):
                kmax = len(_arrival_pmf(intensity, c)) - 1
                oracle_pmf = _oracle_pmf(intensity, kmax)
                np.testing.assert_allclose(poisson_pmf(intensity, kmax), oracle_pmf, atol=1e-12)
                np.testing.assert_allclose(
                    bin_transition_matrix(intensity, c),
                    _oracle_transition(oracle_pmf, c),
                    atol=1e-12,
                )
                assert accept_rate(intensity, c) == pytest.approx(
                    _oracle_accept_rate(intensity, c), abs=1e-12
                )

    def test_throw_intensity(self, c):
        for lam in GRID_LAMBDAS:
            assert equilibrium_throw_intensity(c, lam) == pytest.approx(
                _oracle_intensity(c, lam), abs=1e-9
            )

    def test_warm_start_pool_sizes_unchanged(self, c):
        for lam in GRID_LAMBDAS:
            oracle_pool = max(0.0, _oracle_intensity(c, lam) - lam)
            for n in (2**7, 2**10, 2**15):
                assert equilibrium(c, lam).pool_size(n) == max(0, int(round(oracle_pool * n)))


class TestPoissonPmf:
    def test_sums_to_one(self):
        assert poisson_pmf(3.0, 50).sum() == pytest.approx(1.0)

    def test_matches_closed_form(self):
        pmf = poisson_pmf(2.0, 20)
        for k in (0, 1, 5):
            expected = math.exp(-2.0) * 2.0**k / math.factorial(k)
            assert pmf[k] == pytest.approx(expected)

    def test_zero_rate(self):
        pmf = poisson_pmf(0.0, 5)
        assert pmf[0] == 1.0
        assert pmf[1:].sum() == 0.0

    def test_tail_folded_into_last_bin(self):
        pmf = poisson_pmf(10.0, 5)
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf[5] > math.exp(-10.0) * 10.0**5 / math.factorial(5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            poisson_pmf(-1.0, 5)
        with pytest.raises(ConfigurationError):
            poisson_pmf(1.0, -1)


class TestStationaryLoads:
    def test_unit_capacity_always_empty(self):
        # c=1 bins delete everything they accept each round.
        dist = stationary_loads(2.0, c=1)
        assert dist[0] == pytest.approx(1.0)
        assert dist[1] == pytest.approx(0.0)

    def test_distribution_normalised(self):
        for c in (1, 2, 4):
            dist = stationary_loads(1.5, c)
            assert dist.sum() == pytest.approx(1.0)
            assert np.all(dist >= -1e-12)

    def test_high_intensity_saturates(self):
        # Huge intensity: bin always fills to c, deletes one -> load c-1.
        dist = stationary_loads(50.0, c=3)
        assert dist[2] == pytest.approx(1.0, abs=1e-6)

    def test_zero_intensity_stays_empty(self):
        dist = stationary_loads(0.0, c=3)
        assert dist[0] == pytest.approx(1.0)


class TestAcceptRate:
    def test_unit_capacity_closed_form(self):
        # c=1: accept rate = P(A >= 1) = 1 - e^{-intensity}.
        for intensity in (0.5, 1.0, 2.5):
            assert accept_rate(intensity, 1) == pytest.approx(1 - math.exp(-intensity), abs=1e-6)

    def test_monotone_in_intensity(self):
        rates = [accept_rate(x, 2) for x in (0.5, 1.0, 2.0, 4.0)]
        assert rates == sorted(rates)

    def test_bounded_by_one(self):
        # At most one deletion per bin per round in equilibrium.
        assert accept_rate(30.0, 2) <= 1.0 + 1e-9


class TestEquilibrium:
    def test_unit_capacity_matches_ln_form(self):
        # For c=1 the equilibrium intensity is exactly ln(1/(1-lam)).
        for lam in (0.5, 0.75, 1 - 2**-8):
            intensity = equilibrium_throw_intensity(1, lam)
            assert intensity == pytest.approx(math.log(1 / (1 - lam)), rel=1e-5)

    def test_zero_lambda(self):
        eq = equilibrium(2, 0.0)
        assert eq.normalized_pool == 0.0
        assert eq.mean_wait == 0.0

    def test_pool_decreases_in_capacity(self):
        lam = 1 - 2**-8
        pools = [equilibrium(c, lam).normalized_pool for c in (1, 2, 3, 4)]
        assert pools == sorted(pools, reverse=True)

    def test_pool_increases_in_lambda(self):
        pools = [equilibrium(2, lam).normalized_pool for lam in (0.5, 0.75, 0.9375)]
        assert pools == sorted(pools)

    def test_little_law_consistency(self):
        eq = equilibrium(2, 0.75)
        assert eq.mean_wait == pytest.approx((eq.normalized_pool + eq.mean_load) / 0.75)

    def test_pool_size_helper(self):
        eq = equilibrium(1, 0.75)
        assert eq.pool_size(1000) == round(eq.normalized_pool * 1000)

    def test_matches_simulation(self):
        # The headline validation: fluid limit vs the actual process.
        from repro.analysis.sweep import measure_capped

        for c, lam in ((1, 0.75), (2, 1 - 2**-6)):
            predicted = equilibrium(c, lam).normalized_pool
            point = measure_capped(n=2048, c=c, lam=lam, measure=300, seed=1)
            assert point.normalized_pool == pytest.approx(predicted, rel=0.1)

    def test_wait_prediction_matches_simulation(self):
        from repro.analysis.sweep import measure_capped

        c, lam = 2, 0.875
        predicted = equilibrium(c, lam).mean_wait
        point = measure_capped(n=2048, c=c, lam=lam, measure=300, seed=2)
        assert point.avg_wait == pytest.approx(predicted, rel=0.1)


class TestMemo:
    def test_repeat_call_returns_same_object(self):
        assert equilibrium(3, 0.875) is equilibrium(3, 0.875)

    def test_load_distribution_is_read_only(self):
        dist = equilibrium(2, 0.75).load_distribution
        assert not dist.flags.writeable
        with pytest.raises(ValueError):
            dist[0] = 1.0

    def test_invalid_input_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                equilibrium(0, 0.5)
            with pytest.raises(ConfigurationError):
                equilibrium(2, 1.0)
