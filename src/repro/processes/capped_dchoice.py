"""CAPPED(c, λ) with d probes per ball — a capacity-vs-choices ablation.

The paper deliberately uses **one** random choice per ball and buys its
improvement with buffer capacity, noting that "an advantage of the
GREEDY[d] process from [PODC'16] is that it only needs d random choices to
allocate a ball" while their process retries. The natural follow-up —
what does a *combination* buy? — is exactly the kind of ablation the
paper's design discussion invites.

``CappedDChoiceProcess`` extends CAPPED(c, λ): every pool ball samples
``d`` bins and sends its allocation request to a sampled bin with the most
free buffer space at the *beginning of the round* (batch semantics, as in
GREEDY[d]; ties towards the first-sampled probe). Acceptance and FIFO
deletion are unchanged: the oldest requests win, capacity caps admissions,
rejected balls return to the pool.

For d = 1 this is exactly CAPPED(c, λ) up to how randomness is consumed
(the test suite checks distributional agreement). The ablation bench shows
where a second choice helps (small c) and where capacity has already
absorbed the contention (c near the sweet spot).
"""

from __future__ import annotations

import numpy as np

from repro.balls.bin_array import BinArray
from repro.balls.pool import AgePool
from repro.engine.metrics import RoundRecord
from repro.errors import ConfigurationError, InvariantViolation
from repro.kernels.round import positional_waits as _positional_waits
from repro.kernels.round import resolve_capped_round, wait_histogram as _wait_histogram
from repro.rng import resolve_rng
from repro.workloads.arrivals import ArrivalProcess, DeterministicArrivals

__all__ = ["CappedDChoiceProcess"]

_EMPTY = np.zeros(0, dtype=np.int64)


class CappedDChoiceProcess:
    """CAPPED(c, λ) where each ball probes ``d`` bins per round.

    Parameters
    ----------
    n, capacity, lam:
        As in :class:`~repro.core.capped.CappedProcess` (capacity must be
        finite — with unbounded bins this degenerates to GREEDY[d]).
    d:
        Probes per ball per round; d = 1 recovers the paper's process.
    kernel:
        ``"fused"`` (default) commits every ball's probes in one draw and
        resolves acceptance in one counting pass; ``"legacy"`` is the
        per-bucket sweep. Bit-identical for the same seed, including RNG
        consumption (row-major ``(count, d)`` draws concatenate to one
        ``(thrown, d)`` draw — see ``docs/kernels.md``).
    """

    def __init__(
        self,
        n: int,
        capacity: int,
        lam: float,
        d: int = 2,
        rng=None,
        arrivals: ArrivalProcess | None = None,
        initial_pool: int = 0,
        kernel: str = "fused",
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"need at least one bin, got n={n}")
        if capacity is None or capacity < 1:
            raise ConfigurationError(f"capacity must be a positive int, got {capacity}")
        if d < 1:
            raise ConfigurationError(f"need at least one probe, got d={d}")
        if initial_pool < 0:
            raise ConfigurationError(f"initial_pool must be non-negative, got {initial_pool}")
        if kernel not in ("fused", "legacy"):
            raise ConfigurationError(f"kernel must be 'fused' or 'legacy', got {kernel!r}")
        self.n = n
        self.capacity = capacity
        self.lam = lam
        self.d = d
        self.kernel = kernel
        self.rng = resolve_rng(rng, "capped-dchoice")
        self.arrivals = arrivals if arrivals is not None else DeterministicArrivals(n=n, lam=lam)
        self.pool = AgePool()
        if initial_pool:
            self.pool.add(0, initial_pool)
        self.bins = BinArray(n, capacity)
        self.round = 0

    @property
    def pool_size(self) -> int:
        """Current pool size ``m(t)``."""
        return self.pool.size

    def _commit(self, count: int, start_loads: np.ndarray) -> np.ndarray:
        """Sample d probes per ball; commit to the emptiest probed bin.

        Start-of-round loads only (batch semantics); ties go to the first
        sampled probe, matching the GREEDY[d] baseline's rule.
        """
        probes = self.rng.integers(0, self.n, size=(count, self.d))
        if self.d == 1:
            return probes[:, 0]
        best = np.argmin(start_loads[probes], axis=1)
        return probes[np.arange(count), best]

    def _resolve_fused(self, t: int, thrown: int) -> tuple[int, np.ndarray, np.ndarray]:
        """One draw, one commit, one counting acceptance pass for all buckets.

        Returns ``(accepted_total, wait_values, wait_counts)`` — see
        :meth:`repro.core.capped.CappedProcess._resolve_fused`.
        """
        labels, counts = self.pool.as_arrays()
        committed = self._commit(thrown, self.bins.loads)
        resolved = resolve_capped_round(
            self.bins.free_slots(),
            self.bins.loads,
            committed,
            counts,
            t - labels,
        )
        if resolved.accepted_total:
            self.bins.commit_accepted(resolved.accepted_per_key, resolved.accepted_total)
            self.pool.remove_bulk(resolved.accepted_per_bucket)
        return resolved.accepted_total, *resolved.wait_hist

    def _resolve_legacy(self, t: int) -> tuple[int, np.ndarray]:
        """The original per-bucket sweep — the executable reference.

        Commits are drawn up front (loads are untouched until the first
        accept, so no defensive copy is needed) and pool removals are
        committed in one bulk call, so the sweep never iterates a mutating
        structure.
        """
        labels, counts = self.pool.as_arrays()
        committed_chunks = [self._commit(int(count), self.bins.loads) for count in counts]

        wait_chunks: list[np.ndarray] = []
        removed = np.zeros(len(labels), dtype=np.int64)
        for i, (label, committed) in enumerate(zip(labels, committed_chunks)):
            requests = np.bincount(committed, minlength=self.n)
            accepted = np.minimum(requests, self.bins.free_slots())
            bucket_accepted = int(accepted.sum())
            if bucket_accepted:
                nonzero = np.nonzero(accepted)[0]
                starts = (t - label) + self.bins.loads[nonzero]
                wait_chunks.append(_positional_waits(starts, accepted[nonzero]))
                self.bins.accept(requests)
                removed[i] = bucket_accepted
        if removed.any():
            self.pool.remove_bulk(removed)

        waits = np.concatenate(wait_chunks) if wait_chunks else _EMPTY
        return int(removed.sum()), waits

    def step(self) -> RoundRecord:
        """Advance one round: probe, commit, capped-accept, FIFO-delete."""
        self.round += 1
        t = self.round

        generated = self.arrivals.arrivals(t, self.rng)
        self.pool.add(t, generated)
        thrown = self.pool.size

        if self.kernel == "fused":
            accepted_total, wait_values, wait_counts = self._resolve_fused(t, thrown)
        else:
            accepted_total, waits = self._resolve_legacy(t)
            wait_values, wait_counts = _wait_histogram(waits)

        deleted = self.bins.delete_one_each()

        return RoundRecord(
            round=t,
            arrivals=generated,
            thrown=thrown,
            accepted=accepted_total,
            deleted=deleted,
            pool_size=self.pool.size,
            total_load=self.bins.total_load,
            max_load=int(self.bins.loads.max()),
            wait_values=wait_values,
            wait_counts=wait_counts,
        )

    def check_invariants(self) -> None:
        """Pool and bin-state consistency."""
        self.pool.check_invariants()
        self.bins.check_invariants()
        oldest = self.pool.oldest_label
        if oldest is not None and oldest > self.round:
            raise InvariantViolation("pool contains balls from the future")

    def get_state(self) -> dict:
        """Checkpoint the full process state (pool, bins, RNG, round)."""
        return {
            "round": self.round,
            "pool": self.pool.get_state(),
            "bins": self.bins.get_state(),
            "rng": self.rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state` (same n/c/λ/d process)."""
        self.round = int(state["round"])
        self.pool.set_state(state["pool"])
        self.bins.set_state(state["bins"])
        self.rng.bit_generator.state = state["rng"]
        self.check_invariants()
