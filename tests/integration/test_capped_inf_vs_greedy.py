"""Integration: CAPPED(∞, λ) ≡ GREEDY[1] (paper Section II).

With no capacity limit every ball is accepted by its sampled bin, so a
pool-based and a load-vector-based simulator simulate the same process.
:class:`GreedyBatchProcess` *is* ``CappedProcess(capacity=None, d)``; this
file keeps the load-vector algorithm it replaced as a test-local oracle
(``d`` probes per arrival, wait = start-of-round load + rank among this
round's arrivals to the same bin, then one leaky deletion per non-empty
bin) and checks record-for-record equality against it, on both kernels,
from the same ``"greedy"`` generator.
"""

import numpy as np
import pytest

from repro.core.capped import CappedProcess
from repro.engine.driver import SimulationDriver
from repro.engine.metrics import RoundRecord
from repro.processes.greedy import GreedyBatchProcess
from repro.rng import resolve_rng


def _ranks_within_groups(groups: np.ndarray) -> np.ndarray:
    """Arrival rank of each element among equal values of ``groups``.

    ``groups[k]`` is the bin ball ``k`` committed to; the result gives each
    ball its 0-based position among this round's arrivals to the same bin,
    in ball order (the arbitrary-but-fixed batch tie-break).
    """
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    boundaries = np.empty(len(groups), dtype=bool)
    if len(groups):
        boundaries[0] = True
        boundaries[1:] = sorted_groups[1:] != sorted_groups[:-1]
    group_starts = np.where(boundaries, np.arange(len(groups)), 0)
    np.maximum.accumulate(group_starts, out=group_starts)
    ranks_sorted = np.arange(len(groups)) - group_starts
    ranks = np.empty(len(groups), dtype=np.int64)
    ranks[order] = ranks_sorted
    return ranks


class LoadVectorGreedy:
    """Batch GREEDY[d] on a plain load vector: the reference algorithm."""

    def __init__(self, n: int, d: int, lam: float, rng=None) -> None:
        self.n, self.d = n, d
        self.per_round = round(lam * n)
        self.rng = resolve_rng(rng, "greedy")
        self.loads = np.zeros(n, dtype=np.int64)
        self.round = 0

    def step(self, committed: np.ndarray | None = None) -> RoundRecord:
        self.round += 1
        if committed is None:
            probes = self.rng.integers(0, self.n, size=(self.per_round, self.d))
            best = np.argmin(self.loads[probes], axis=1)  # first minimum wins
            committed = probes[np.arange(self.per_round), best]
        generated = len(committed)
        waits = self.loads[committed] + _ranks_within_groups(committed)
        wait_values, wait_counts = np.unique(waits, return_counts=True)
        self.loads += np.bincount(committed, minlength=self.n)
        nonempty = self.loads > 0
        deleted = int(np.count_nonzero(nonempty))
        self.loads[nonempty] -= 1
        return RoundRecord(
            round=self.round,
            arrivals=generated,
            thrown=generated,
            accepted=generated,
            deleted=deleted,
            pool_size=0,
            total_load=int(self.loads.sum()),
            max_load=int(self.loads.max()),
            wait_values=wait_values,
            wait_counts=wait_counts,
        )


def fields(record: RoundRecord) -> tuple:
    return (
        record.round,
        record.arrivals,
        record.thrown,
        record.accepted,
        record.deleted,
        record.pool_size,
        record.total_load,
        record.max_load,
        record.wait_values.tolist(),
        record.wait_counts.tolist(),
    )


class TestRanks:
    def test_single_group(self):
        ranks = _ranks_within_groups(np.array([2, 2, 2]))
        assert ranks.tolist() == [0, 1, 2]

    def test_interleaved_groups(self):
        ranks = _ranks_within_groups(np.array([0, 1, 0, 1, 0]))
        assert ranks.tolist() == [0, 0, 1, 1, 2]

    def test_empty(self):
        assert _ranks_within_groups(np.zeros(0, dtype=np.int64)).size == 0

    def test_stable_order_within_group(self):
        # Ball order is preserved within a bin (the batch tie-break).
        groups = np.array([3, 1, 3, 3, 1])
        ranks = _ranks_within_groups(groups)
        assert ranks.tolist() == [0, 0, 1, 2, 1]


@pytest.mark.parametrize("kernel", ["fused", "legacy"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("lam", [1 - 2**-2, 1 - 2**-6, 1 - 2**-10])
def test_matches_load_vector_greedy(kernel, d, lam):
    # Through the GREEDY cold start (5/(1−λ) rounds) and 200 rounds past it.
    n, seed = 1024, 11
    rounds = round(5 / (1 - lam)) + 200
    greedy = GreedyBatchProcess(n=n, d=d, lam=lam, rng=seed)
    greedy.kernel = kernel  # read per step; nothing is drawn before the first
    reference = LoadVectorGreedy(n=n, d=d, lam=lam, rng=seed)
    for _ in range(rounds):
        assert fields(greedy.step()) == fields(reference.step())
    assert greedy.bins.loads.tolist() == reference.loads.tolist()
    greedy.check_invariants()


def test_statistics_match_distributionally():
    driver = SimulationDriver(burn_in=400, measure=400)
    capped = driver.run(CappedProcess(n=512, capacity=None, lam=0.875, rng=1))
    greedy = driver.run(GreedyBatchProcess(n=512, d=1, lam=0.875, rng=2))
    assert capped.avg_wait == pytest.approx(greedy.avg_wait, rel=0.1)
    assert capped.max_wait == pytest.approx(greedy.max_wait, abs=4)
    assert capped.summary.peak_max_load == pytest.approx(greedy.summary.peak_max_load, abs=4)


def test_identical_under_shared_choices():
    n, lam, rounds = 64, 0.75, 80
    capped = CappedProcess(n=n, capacity=None, lam=lam, rng=0)
    reference = LoadVectorGreedy(n=n, d=1, lam=lam, rng=0)
    choice_rng = np.random.default_rng(5)
    arrivals = round(lam * n)
    for _ in range(rounds):
        choices = choice_rng.integers(0, n, size=arrivals)
        assert fields(capped.step(choices=choices)) == fields(reference.step(choices))
        assert capped.bins.loads.tolist() == reference.loads.tolist()


def test_pool_always_empty_for_infinite_capacity():
    capped = CappedProcess(n=128, capacity=None, lam=0.9375, rng=3)
    for _ in range(100):
        assert capped.step().pool_size == 0
