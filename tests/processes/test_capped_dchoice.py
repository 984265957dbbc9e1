"""Unit tests for the d-choice CAPPED ablation process."""

import pytest

from repro.engine.driver import SimulationDriver
from repro.errors import ConfigurationError
from repro.processes.capped_dchoice import CappedDChoiceProcess


class TestConfiguration:
    def test_rejects_zero_probes(self):
        with pytest.raises(ConfigurationError):
            CappedDChoiceProcess(n=8, capacity=1, lam=0.5, d=0)

    def test_rejects_negative_initial_pool(self):
        with pytest.raises(ConfigurationError):
            CappedDChoiceProcess(n=8, capacity=1, lam=0.5, initial_pool=-1)


class TestDynamics:
    def test_conservation(self):
        process = CappedDChoiceProcess(n=64, capacity=2, lam=0.75, d=2, rng=0)
        generated = deleted = 0
        for _ in range(80):
            record = process.step()
            generated += record.arrivals
            deleted += record.deleted
            assert record.thrown == record.accepted + record.pool_size
        assert generated == deleted + record.pool_size + record.total_load

    def test_capacity_respected(self):
        process = CappedDChoiceProcess(n=32, capacity=3, lam=0.875, d=2, rng=1)
        for _ in range(60):
            record = process.step()
            assert record.max_load <= 3
        process.check_invariants()

    def test_d1_matches_capped_distributionally(self):
        from repro.core.capped import CappedProcess

        driver = SimulationDriver(burn_in=300, measure=400)
        plain = driver.run(CappedProcess(n=512, capacity=2, lam=0.875, rng=2))
        dchoice = driver.run(CappedDChoiceProcess(n=512, capacity=2, lam=0.875, d=1, rng=3))
        assert dchoice.normalized_pool == pytest.approx(plain.normalized_pool, rel=0.1)
        assert dchoice.avg_wait == pytest.approx(plain.avg_wait, rel=0.1)

    def test_second_choice_noop_at_unit_capacity(self):
        # c=1 bins start every round empty: start-of-round loads carry no
        # signal, so the second probe changes nothing beyond noise (the
        # APPROX'12 parallel d-choice weakness).
        driver = SimulationDriver(burn_in=400, measure=400)
        one = driver.run(CappedDChoiceProcess(n=512, capacity=1, lam=0.9375, d=1, rng=4))
        two = driver.run(CappedDChoiceProcess(n=512, capacity=1, lam=0.9375, d=2, rng=4))
        assert two.normalized_pool == pytest.approx(one.normalized_pool, rel=0.1)

    def test_second_choice_reduces_pool_with_persistent_loads(self):
        driver = SimulationDriver(burn_in=400, measure=400)
        one = driver.run(CappedDChoiceProcess(n=512, capacity=2, lam=0.9375, d=1, rng=4))
        two = driver.run(CappedDChoiceProcess(n=512, capacity=2, lam=0.9375, d=2, rng=4))
        assert two.normalized_pool < one.normalized_pool
        assert two.avg_wait < one.avg_wait

    def test_is_capped_process_on_its_own_stream(self):
        from repro.core.capped import CappedProcess
        from repro.rng import RngFactory

        stream = RngFactory(6).generator("capped-dchoice")
        plain = CappedProcess(n=64, capacity=2, lam=0.75, d=2, rng=stream)
        dchoice = CappedDChoiceProcess(n=64, capacity=2, lam=0.75, rng=6)
        for _ in range(30):
            a, b = plain.step(), dchoice.step()
            assert (a.pool_size, a.max_load) == (b.pool_size, b.max_load)
            assert a.wait_values.tolist() == b.wait_values.tolist()
            assert a.wait_counts.tolist() == b.wait_counts.tolist()

    def test_warm_start(self):
        process = CappedDChoiceProcess(n=64, capacity=2, lam=0.75, d=2, rng=5, initial_pool=40)
        assert process.pool_size == 40
