"""Unit tests for point measurement."""

import pytest

from repro.analysis.sweep import measure_capped, measure_greedy
from repro.errors import ConfigurationError


class TestMeasureCapped:
    def test_basic_point(self):
        point = measure_capped(n=256, c=2, lam=0.75, measure=100, seed=0)
        assert point.n == 256
        assert point.c == 2
        assert 0 <= point.normalized_pool < 3
        assert point.avg_wait >= 0
        assert point.max_wait >= point.wait_p99

    def test_reproducible(self):
        a = measure_capped(n=128, c=1, lam=0.5, measure=50, seed=9)
        b = measure_capped(n=128, c=1, lam=0.5, measure=50, seed=9)
        assert a.normalized_pool == b.normalized_pool
        assert a.max_wait == b.max_wait

    def test_different_seeds_differ(self):
        a = measure_capped(n=128, c=1, lam=0.75, measure=50, seed=1)
        b = measure_capped(n=128, c=1, lam=0.75, measure=50, seed=2)
        assert a.normalized_pool != b.normalized_pool

    def test_replicates_tighten_ci(self):
        few = measure_capped(n=128, c=1, lam=0.75, measure=50, replicates=2, seed=0)
        many = measure_capped(n=128, c=1, lam=0.75, measure=50, replicates=8, seed=0)
        assert many.pool_ci.half_width <= few.pool_ci.half_width * 1.5
        assert many.replicates == 8

    def test_warm_and_cold_agree_in_steady_state(self):
        warm = measure_capped(n=512, c=1, lam=0.75, measure=300, seed=3, warm_start=True)
        cold = measure_capped(n=512, c=1, lam=0.75, measure=300, seed=3, warm_start=False)
        assert warm.normalized_pool == pytest.approx(cold.normalized_pool, rel=0.15)

    def test_explicit_burn_in_respected(self):
        point = measure_capped(n=128, c=1, lam=0.5, measure=50, seed=0, burn_in=7)
        assert point.burn_in == 7

    def test_infinite_capacity(self):
        point = measure_capped(n=256, c=None, lam=0.75, measure=100, seed=4)
        assert point.normalized_pool == 0.0

    def test_row_rendering(self):
        point = measure_capped(n=128, c=None, lam=0.5, measure=50, seed=0)
        row = point.row()
        assert row["c"] == "inf"
        assert row["n"] == 128


class TestMeasureGreedy:
    def test_basic_point(self):
        point = measure_greedy(n=256, d=2, lam=0.75, measure=100, seed=0)
        assert point.normalized_pool == 0.0
        assert point.avg_wait >= 0

    def test_reproducible(self):
        a = measure_greedy(n=128, d=1, lam=0.5, measure=50, seed=5)
        b = measure_greedy(n=128, d=1, lam=0.5, measure=50, seed=5)
        assert a.avg_wait == b.avg_wait


@pytest.mark.parametrize(
    "measure_point",
    [
        lambda: measure_capped(n=128, c=1, lam=0.5, measure=50, replicates=0),
        lambda: measure_greedy(n=128, d=1, lam=0.5, measure=50, replicates=0),
    ],
    ids=["capped", "greedy"],
)
def test_zero_replicates_rejected(measure_point):
    with pytest.raises(ConfigurationError, match="replicate"):
        measure_point()
