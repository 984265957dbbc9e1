"""Unit tests for the CAPPED(c, λ) simulators."""

import numpy as np
import pytest

from repro.core.capped import CappedProcess, ExactCappedSimulator
from repro.errors import ConfigurationError


class TestConfiguration:
    def test_rejects_zero_bins(self):
        with pytest.raises(ConfigurationError):
            CappedProcess(n=0, capacity=1, lam=0.5)

    def test_rejects_non_integral_lambda_n(self):
        with pytest.raises(ConfigurationError):
            CappedProcess(n=10, capacity=1, lam=0.55)

    def test_rejects_negative_initial_pool(self):
        with pytest.raises(ConfigurationError):
            CappedProcess(n=10, capacity=1, lam=0.5, initial_pool=-1)

    def test_initial_pool_preloaded(self):
        process = CappedProcess(n=10, capacity=1, lam=0.5, initial_pool=7)
        assert process.pool_size == 7


class TestRoundMechanics:
    def test_round_counter_advances(self):
        process = CappedProcess(n=8, capacity=1, lam=0.5, rng=0)
        process.step()
        process.step()
        assert process.round == 2

    def test_arrivals_match_lambda_n(self):
        process = CappedProcess(n=8, capacity=1, lam=0.5, rng=0)
        record = process.step()
        assert record.arrivals == 4

    def test_ball_conservation(self):
        # thrown = accepted + leftover pool, every round.
        process = CappedProcess(n=64, capacity=2, lam=0.75, rng=1)
        for _ in range(50):
            record = process.step()
            assert record.thrown == record.accepted + record.pool_size

    def test_loads_bounded_by_capacity(self):
        process = CappedProcess(n=32, capacity=3, lam=0.875, rng=2)
        for _ in range(100):
            record = process.step()
            assert record.max_load <= 3
        process.check_invariants()

    def test_single_bin_deterministic(self):
        # n=1: every ball lands in bin 0; acceptance and deletion are exact.
        process = CappedProcess(n=1, capacity=2, lam=0.0, rng=0, initial_pool=5)
        record = process.step()
        assert record.accepted == 2
        assert record.deleted == 1
        assert record.pool_size == 3
        assert record.total_load == 1

    def test_lambda_zero_drains_system(self):
        process = CappedProcess(n=16, capacity=2, lam=0.0, rng=3, initial_pool=30)
        for _ in range(200):
            record = process.step()
        assert record.pool_size == 0
        assert record.total_load == 0

    def test_deleted_at_most_nonempty_bins(self):
        process = CappedProcess(n=16, capacity=2, lam=0.5, rng=4)
        for _ in range(30):
            record = process.step()
            assert record.deleted <= 16

    def test_infinite_capacity_accepts_everything(self):
        process = CappedProcess(n=16, capacity=None, lam=0.75, rng=5)
        for _ in range(50):
            record = process.step()
            assert record.pool_size == 0
            assert record.accepted == record.thrown


class TestInjectedChoices:
    def test_deterministic_allocation(self):
        # 4 balls all aimed at bin 0 with capacity 2: accept 2, 2 left over.
        process = CappedProcess(n=4, capacity=2, lam=1 - 1 / 4, rng=0, initial_pool=1)
        choices = np.zeros(4, dtype=np.int64)
        record = process.step(choices=choices)
        assert record.accepted == 2
        assert record.pool_size == 2

    def test_oldest_first_acceptance(self):
        # Pool ball (label 0) and new balls (label 1) compete for one slot.
        process = CappedProcess(n=2, capacity=1, lam=0.5, rng=0, initial_pool=1)
        record = process.step(choices=np.zeros(2, dtype=np.int64))
        # The accepted ball is the initial-pool ball (age 1 at deletion...
        # recorded at acceptance as wait = t - 0 + 0 = 1).
        assert record.accepted == 1
        assert record.wait_values.tolist() == [1]

    def test_wrong_choice_count_rejected(self):
        process = CappedProcess(n=4, capacity=1, lam=0.5, rng=0)
        with pytest.raises(ConfigurationError):
            process.step(choices=np.zeros(99, dtype=np.int64))

    def test_positional_waits(self):
        # Two balls into an empty capacity-2 bin: positions 0 and 1 ->
        # waits 0 and 1 (both new this round).
        process = CappedProcess(n=2, capacity=2, lam=1.0 - 0.5, rng=0, initial_pool=1)
        # pool ball label 0 -> bin 1; new ball label 1 -> bin 1.
        record = process.step(choices=np.array([1, 1]))
        # pool ball: wait = (1-0)+0 = 1; new ball: wait = (1-1)+1 = 1.
        assert record.wait_values.tolist() == [1]
        assert record.wait_counts.tolist() == [2]


class TestWaitingTimes:
    def test_waits_nonnegative(self):
        process = CappedProcess(n=32, capacity=2, lam=0.75, rng=6)
        for _ in range(50):
            record = process.step()
            if len(record.wait_values):
                assert record.wait_values.min() >= 0

    def test_wait_counts_match_accepted(self):
        process = CappedProcess(n=32, capacity=2, lam=0.75, rng=7)
        for _ in range(50):
            record = process.step()
            assert record.wait_total == record.accepted


class TestExactSimulator:
    def test_matches_interface(self):
        exact = ExactCappedSimulator(n=8, capacity=1, lam=0.5, rng=0)
        record = exact.step()
        assert record.thrown == record.accepted + record.pool_size

    def test_records_waits_at_deletion(self):
        # One bin, capacity 2: the first round's accepted ball is deleted
        # the same round (wait 0); a ball accepted at position 1 waits 1.
        exact = ExactCappedSimulator(n=1, capacity=2, lam=0.0, rng=0)
        exact.pool.extend(exact._ids.make_batch(0, 2))
        record = exact.step(choices=np.zeros(2, dtype=np.int64))
        assert record.deleted == 1
        assert record.wait_values.tolist() == [1]
        record = exact.step(choices=np.zeros(0, dtype=np.int64))
        assert record.wait_values.tolist() == [2]

    def test_conservation_over_run(self):
        exact = ExactCappedSimulator(n=16, capacity=2, lam=0.75, rng=8)
        generated = 0
        deleted = 0
        for _ in range(40):
            record = exact.step()
            generated += record.arrivals
            deleted += record.deleted
        in_system = record.pool_size + record.total_load
        assert generated == deleted + in_system

    def test_drain_returns_all_waits(self):
        exact = ExactCappedSimulator(n=8, capacity=2, lam=0.75, rng=9)
        generated = 0
        for _ in range(10):
            generated += exact.step().arrivals
        already_deleted = sum(b.total_deleted for b in exact.bin_buffers)
        drained = exact.drain()
        assert len(drained) == generated - already_deleted

    def test_check_invariants(self):
        exact = ExactCappedSimulator(n=8, capacity=2, lam=0.5, rng=10)
        for _ in range(20):
            exact.step()
            exact.check_invariants()


class TestExactSimulatorInitialPool:
    def test_initial_pool_unsupported_gracefully(self):
        # ExactCappedSimulator has no initial_pool parameter by design (it
        # is the faithful cold-start reference); this documents that.
        with pytest.raises(TypeError):
            ExactCappedSimulator(n=8, capacity=1, lam=0.5, initial_pool=5)  # type: ignore[call-arg]
