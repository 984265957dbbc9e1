"""Unit tests for the AgeProfiler observer."""

from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.observers import AgeProfiler


class TestAgeProfiler:
    def test_records_per_round(self):
        profiler = AgeProfiler()
        process = CappedProcess(n=64, capacity=1, lam=0.875, rng=0)
        SimulationDriver(burn_in=0, measure=50, observers=[profiler]).run(process)
        assert len(profiler.max_ages) == 50
        assert len(profiler.age_class_counts) == 50

    def test_ages_nonnegative_and_bounded(self):
        profiler = AgeProfiler()
        process = CappedProcess(n=128, capacity=1, lam=0.9375, rng=1)
        SimulationDriver(burn_in=100, measure=200, observers=[profiler]).run(process)
        assert min(profiler.max_ages) >= 0
        # The oldest pool age is itself a lower bound on future waits, so
        # in steady state it stays within the waiting-time scale.
        assert profiler.peak_age < 50

    def test_ignores_processes_without_pool(self):
        from repro.processes.becchetti import RepeatedBallsProcess

        profiler = AgeProfiler()
        process = RepeatedBallsProcess(n=32, rng=2)
        SimulationDriver(burn_in=0, measure=10, observers=[profiler]).run(process)
        assert profiler.max_ages == []
        assert profiler.peak_age == 0

    def test_empty_pool_records_zero_age(self):
        profiler = AgeProfiler()
        process = CappedProcess(n=64, capacity=3, lam=1 / 64, rng=3)
        SimulationDriver(burn_in=0, measure=20, observers=[profiler]).run(process)
        # At this trivial load the pool is empty almost every round.
        assert min(profiler.max_ages) == 0
