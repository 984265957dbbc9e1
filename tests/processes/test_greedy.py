"""Unit tests for batch GREEDY[d] with leaky bins."""

import numpy as np
import pytest

from repro.engine.driver import SimulationDriver
from repro.errors import ConfigurationError
from repro.kernels.round import least_loaded
from repro.processes.greedy import GreedyBatchProcess


class TestConfiguration:
    def test_rejects_bad_d(self):
        with pytest.raises(ConfigurationError):
            GreedyBatchProcess(n=8, d=0, lam=0.5)

    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            GreedyBatchProcess(n=0, d=1, lam=0.5)

    def test_rejects_non_integral_rate(self):
        with pytest.raises(ConfigurationError):
            GreedyBatchProcess(n=10, d=1, lam=0.123)


class TestDynamics:
    def test_never_rejects_balls(self):
        process = GreedyBatchProcess(n=32, d=2, lam=0.75, rng=0)
        for _ in range(50):
            record = process.step()
            assert record.accepted == record.arrivals
            assert record.pool_size == 0

    def test_conservation(self):
        process = GreedyBatchProcess(n=32, d=2, lam=0.75, rng=1)
        arrived = deleted = 0
        for _ in range(60):
            record = process.step()
            arrived += record.arrivals
            deleted += record.deleted
        assert arrived == deleted + record.total_load

    def test_wait_counts_match_arrivals(self):
        process = GreedyBatchProcess(n=32, d=1, lam=0.5, rng=2)
        for _ in range(30):
            record = process.step()
            assert record.wait_total == record.arrivals

    def test_two_choices_balance_better(self):
        driver = SimulationDriver(burn_in=300, measure=300)
        one = driver.run(GreedyBatchProcess(n=256, d=1, lam=0.9375, rng=3))
        two = driver.run(GreedyBatchProcess(n=256, d=2, lam=0.9375, rng=3))
        assert two.max_wait < one.max_wait

    def test_d1_commit_is_uniform(self, rng):
        committed = least_loaded(rng.integers(0, 4, size=(1500, 1)), np.zeros(4, dtype=np.int64))
        counts = np.bincount(committed, minlength=4)
        assert counts.min() > 0.7 * counts.max()

    def test_commit_prefers_less_loaded(self, rng):
        committed = least_loaded(rng.integers(0, 2, size=(100, 2)), np.array([10, 0]))
        # With d=2, a ball only lands in bin 0 if both probes hit bin 0.
        assert np.count_nonzero(committed == 1) > np.count_nonzero(committed == 0)

    def test_empty_round(self):
        process = GreedyBatchProcess(n=8, d=2, lam=0.0, rng=6)
        record = process.step()
        assert record.arrivals == 0
        assert record.wait_total == 0

    def test_check_invariants(self):
        process = GreedyBatchProcess(n=16, d=2, lam=0.5, rng=7)
        for _ in range(20):
            process.step()
        process.check_invariants()

    def test_is_capped_process_on_its_own_stream(self):
        from repro.core.capped import CappedProcess
        from repro.rng import RngFactory

        stream = RngFactory(6).generator("greedy")
        plain = CappedProcess(n=64, capacity=None, lam=0.75, d=2, rng=stream)
        greedy = GreedyBatchProcess(n=64, d=2, lam=0.75, rng=6)
        for _ in range(30):
            a, b = plain.step(), greedy.step()
            assert (a.total_load, a.max_load) == (b.total_load, b.max_load)
            assert a.wait_values.tolist() == b.wait_values.tolist()
            assert a.wait_counts.tolist() == b.wait_counts.tolist()


class TestWaitingTimeIdentity:
    def test_wait_equals_queue_position(self):
        # Deterministic single-bin check: positions accumulate across the
        # batch and drain one per round.
        class Batches:
            mean_rate = 0.0

            def arrivals(self, t, rng):
                return {1: 3, 2: 2}.get(t, 0)

        process = GreedyBatchProcess(n=1, d=1, lam=0.0, rng=8, arrivals=Batches())
        record = process.step()
        assert np.repeat(record.wait_values, record.wait_counts).tolist() == [0, 1, 2]
        assert (record.deleted, record.total_load) == (1, 2)
        # Round 2's balls queue behind the two left over: positions 2 and 3.
        record = process.step()
        assert np.repeat(record.wait_values, record.wait_counts).tolist() == [2, 3]
        assert (record.deleted, record.total_load) == (1, 3)
        record = process.step()
        assert (record.arrivals, record.deleted, record.total_load) == (0, 1, 2)
