"""Routing policies for the server farm.

A policy maps each pending request to the index of the server it probes
this tick. The farm then lets each probed server admit the oldest requests
up to capacity; rejected requests stay pending (the pool). The three
policies correspond to the processes studied in the paper and its
baselines:

* :class:`RandomPolicy` — one uniform probe; with bounded servers this is
  exactly CAPPED(c, λ).
* :class:`LeastLoadedPolicy` — d uniform probes, commit to the currently
  least loaded; with unbounded servers this is batch GREEDY[d].
* :class:`RoundRobinPolicy` — deterministic cyclic assignment, the
  zero-information control.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.cluster.server import Request, Server
from repro.errors import ConfigurationError
from repro.kernels.round import least_loaded

__all__ = ["RoutingPolicy", "RandomPolicy", "LeastLoadedPolicy", "RoundRobinPolicy"]


@runtime_checkable
class RoutingPolicy(Protocol):
    """Chooses one probed server per pending request."""

    def route(
        self,
        pending: Sequence[Request],
        servers: Sequence[Server],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return one server index per request in ``pending``."""
        ...  # pragma: no cover - protocol


class RandomPolicy:
    """One independent uniform probe per request (the CAPPED rule)."""

    def route(
        self,
        pending: Sequence[Request],
        servers: Sequence[Server],
        rng: np.random.Generator,
    ) -> np.ndarray:
        return rng.integers(0, len(servers), size=len(pending))


class LeastLoadedPolicy:
    """Probe ``d`` uniform servers, commit to the least loaded.

    Queue lengths are read once at the start of the tick (batch
    semantics, as in the PODC'16 GREEDY[d] model); ties go to the
    first-sampled probe.
    """

    def __init__(self, d: int) -> None:
        if d < 1:
            raise ConfigurationError(f"need at least one probe, got d={d}")
        self.d = d

    def route(
        self,
        pending: Sequence[Request],
        servers: Sequence[Server],
        rng: np.random.Generator,
    ) -> np.ndarray:
        loads = np.array([s.queue_length for s in servers], dtype=np.int64)
        return least_loaded(rng.integers(0, len(servers), size=(len(pending), self.d)), loads)


class RoundRobinPolicy:
    """Deterministic cyclic assignment (ignores randomness and load)."""

    def __init__(self) -> None:
        self._cursor = 0

    def route(
        self,
        pending: Sequence[Request],
        servers: Sequence[Server],
        rng: np.random.Generator,
    ) -> np.ndarray:
        count = len(pending)
        indices = (self._cursor + np.arange(count)) % len(servers)
        self._cursor = int((self._cursor + count) % len(servers))
        return indices
