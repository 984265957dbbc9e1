"""Batch-parallel GREEDY[d] with leaky bins (Berenbrink et al., PODC'16).

The paper's main comparison target ("Self-Stabilizing Balls and Bins in
Batches — The Power of Leaky Bins"). Per round:

1. ``λn`` new balls arrive.
2. Each ball samples ``d`` bins independently and uniformly at random and
   commits to one with the **least load at the beginning of the round** —
   balls of the current batch are *not* counted (this is the defining
   batch-parallel semantics; see the paper's introduction for why counting
   them would be unrealistic).
3. Bins have unbounded FIFO queues; at the end of the round every
   non-empty bin deletes (serves) its first ball.

Known bounds (PODC'16): waiting time / maximum load at any time is w.h.p.
``O(1/(1−λ)·log(n/(1−λ)))`` for d = 1 and ``O(log(n/(1−λ)))`` for d = 2.
CAPPED(c, λ) improves this to ``~ln(1/(1−λ))/c + log log n + O(c)`` — the
comparison experiment CLAIM-BASE regenerates exactly this contrast.

Waiting times use the position identity (see
:mod:`repro.balls.bin_array`): with one deletion per non-empty bin per
round, a ball entering queue position ``p`` in round ``t`` is served at the
end of round ``t + p``, so its waiting time ``p`` is known at arrival.

GREEDY[1] is distributionally identical to CAPPED(∞, λ); the test suite
cross-validates the two implementations.
"""

from __future__ import annotations

import numpy as np

from repro.engine.metrics import RoundRecord
from repro.errors import ConfigurationError, InvariantViolation
from repro.kernels.round import least_loaded
from repro.rng import resolve_rng
from repro.workloads.arrivals import ArrivalProcess, DeterministicArrivals

__all__ = ["GreedyBatchProcess"]

_EMPTY = np.zeros(0, dtype=np.int64)


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


class GreedyBatchProcess:
    """Round-based GREEDY[d] with unbounded leaky bins.

    Parameters
    ----------
    n:
        Number of bins.
    d:
        Choices per ball (d ≥ 1).
    lam:
        Injection rate λ ∈ [0, 1) with integral ``λn`` (unless a custom
        arrival process is supplied).
    rng:
        Seed, generator, or factory.
    arrivals:
        Optional custom arrival process.

    Examples
    --------
    >>> process = GreedyBatchProcess(n=64, d=2, lam=0.75, rng=3)
    >>> record = process.step()
    >>> record.accepted
    48
    """

    def __init__(
        self,
        n: int,
        d: int,
        lam: float,
        rng=None,
        arrivals: ArrivalProcess | None = None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one bin, got n={n}")
        if d < 1:
            raise ConfigurationError(f"need at least one choice, got d={d}")
        self.n = n
        self.d = d
        self.lam = lam
        self.rng = resolve_rng(rng, "greedy")
        self.arrivals = arrivals if arrivals is not None else DeterministicArrivals(n=n, lam=lam)
        self.loads = np.zeros(n, dtype=np.int64)
        self.round = 0
        self.peak_load = 0

    @property
    def pool_size(self) -> int:
        """Always 0 — GREEDY never rejects balls (unbounded bins)."""
        return 0

    def commit_bins(self, arrivals: int) -> np.ndarray:
        """Sample d choices per ball and commit to the least loaded.

        Load comparisons use the loads at the *beginning of the round*
        only. Ties among a ball's d choices go to the first-sampled
        minimum (an arbitrary-but-fixed rule, as in the source papers).
        """
        if arrivals == 0:
            return _EMPTY
        return least_loaded(self.rng.integers(0, self.n, size=(arrivals, self.d)), self.loads)

    def step(self) -> RoundRecord:
        """Advance one round of batch GREEDY[d]."""
        self.round += 1
        t = self.round

        generated = self.arrivals.arrivals(t, self.rng)
        committed = self.commit_bins(generated)

        if generated:
            ranks = _ranks_within_groups(committed)
            waits = self.loads[committed] + ranks
            wait_values, wait_counts = np.unique(waits, return_counts=True)
            self.loads += np.bincount(committed, minlength=self.n)
        else:
            wait_values, wait_counts = _EMPTY, _EMPTY

        peak = int(self.loads.max())
        if peak > self.peak_load:
            self.peak_load = peak

        nonempty = self.loads > 0
        deleted = int(np.count_nonzero(nonempty))
        self.loads[nonempty] -= 1

        return RoundRecord(
            round=t,
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

    def check_invariants(self) -> None:
        """Loads must be non-negative."""
        if np.any(self.loads < 0):
            raise InvariantViolation("negative bin load in GREEDY process")

    def get_state(self) -> dict:
        """Checkpoint the process (loads, counters, RNG) for exact resume."""
        return {
            "round": self.round,
            "loads": self.loads.tolist(),
            "peak_load": self.peak_load,
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        loads = np.asarray(state["loads"], dtype=np.int64)
        if loads.shape != (self.n,):
            raise ValueError(f"state has {loads.shape} loads, expected ({self.n},)")
        self.round = int(state["round"])
        self.loads = loads.copy()
        self.peak_load = int(state["peak_load"])
        self.rng.bit_generator.state = state["rng"]
        self.check_invariants()
