"""CAPPED(c, λ) with d probes per ball — a capacity-vs-choices ablation.

The paper deliberately uses **one** random choice per ball and buys its
improvement with buffer capacity, noting that "an advantage of the
GREEDY[d] process from [PODC'16] is that it only needs d random choices to
allocate a ball" while their process retries. The natural follow-up —
what does a *combination* buy? — is exactly the kind of ablation the
paper's design discussion invites.

Every pool ball samples ``d`` bins and sends its allocation request to a
sampled bin with the least load at the *beginning of the round* (batch
semantics, as in GREEDY[d]; ties towards the first-sampled probe).
Acceptance and FIFO deletion are unchanged: the oldest requests win,
capacity caps admissions, rejected balls return to the pool.

The process is :class:`~repro.core.capped.CappedProcess` with ``d`` probes;
``CappedDChoiceProcess`` only defaults to d = 2 and seeds its own
``"capped-dchoice"`` RNG stream, so the ablation's runs do not share
randomness with the plain CAPPED runs at the same seed. The ablation bench
shows where a second choice helps (small c) and where capacity has already
absorbed the contention (c near the sweet spot).
"""

from __future__ import annotations

from repro.core.capped import CappedProcess

__all__ = ["CappedDChoiceProcess"]


class CappedDChoiceProcess(CappedProcess):
    """:class:`CappedProcess` with ``d = 2`` probes by default.

    Takes every :class:`CappedProcess` option. With ``capacity=None`` it
    is GREEDY[d] (:class:`~repro.processes.greedy.GreedyBatchProcess`) on
    this class's RNG stream.
    """

    rng_stream = "capped-dchoice"

    def __init__(self, n: int, capacity: int | None, lam: float, d: int = 2, **kwargs) -> None:
        super().__init__(n, capacity, lam, d=d, **kwargs)
