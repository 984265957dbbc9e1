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

With unbounded bins every ball is accepted where it commits, so the pool
stays empty and CAPPED(∞, λ) with ``d`` probes *is* GREEDY[d] (paper
Section II states d = 1). The process is therefore
:class:`~repro.core.capped.CappedProcess` with ``capacity=None``, seeded
on its own ``"greedy"`` RNG stream.
"""

from __future__ import annotations

from repro.core.capped import CappedProcess
from repro.workloads.arrivals import ArrivalProcess

__all__ = ["GreedyBatchProcess"]


class GreedyBatchProcess(CappedProcess):
    """GREEDY[d]: :class:`CappedProcess` with unbounded bins and ``d`` choices.

    ``d`` ≥ 1 is the number of choices per ball; ``lam``, ``rng`` and
    ``arrivals`` are as for :class:`CappedProcess` (``λn`` must be an
    integer unless a custom ``arrivals`` process is given).

    Examples
    --------
    >>> process = GreedyBatchProcess(n=64, d=2, lam=0.75, rng=3)
    >>> record = process.step()
    >>> record.accepted, record.pool_size
    (48, 0)
    """

    rng_stream = "greedy"

    def __init__(
        self, n: int, d: int, lam: float, rng=None, arrivals: ArrivalProcess | None = None
    ) -> None:
        super().__init__(n, None, lam, rng=rng, arrivals=arrivals, d=d)
