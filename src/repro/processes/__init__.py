"""Baseline processes from the paper's related work.

Each baseline is implemented against the same round-process interface as
the core simulators so that the comparison experiments and the engine's
driver work uniformly:

* :mod:`repro.processes.greedy` — batch-parallel GREEDY[d] with leaky bins
  (Berenbrink et al., PODC'16 / Algorithmica'18); the paper's primary
  comparison target. It is CAPPED(∞, λ) with d probes, a ``CappedProcess``
  subclass on its own RNG stream.
* :mod:`repro.processes.threshold` — the static parallel THRESHOLD[T]
  protocol of Adler et al.
* :mod:`repro.processes.sequential` — classical sequential one-choice and
  GREEDY[d] (Azar et al.) static allocations.
* :mod:`repro.processes.always_go_left` — Vöcking's asymmetric
  ALWAYS-GO-LEFT[d].
* :mod:`repro.processes.becchetti` — self-stabilizing repeated
  balls-into-bins (Becchetti et al., SPAA'15).
* :mod:`repro.processes.adler_parallel` — the infinite parallel d-copy
  FIFO process of Adler, Berenbrink, Schröder (ESA'98).
* :mod:`repro.processes.lenzen` — a simplified heavily-loaded parallel
  threshold allocator after Lenzen, Parter, Yogev (SPAA'19).
* :mod:`repro.processes.capped_dchoice` — CAPPED(c, λ) with d probes per
  ball, the capacity-vs-choices ablation.
* :mod:`repro.processes.stemann` — Stemann's collision protocol (SPAA'96).
* :mod:`repro.processes.infinite_sequential` — Azar et al.'s infinite
  sequential GREEDY[d] with deletions.
"""

from repro.processes.adler_parallel import AdlerParallelProcess
from repro.processes.always_go_left import always_go_left
from repro.processes.becchetti import RepeatedBallsProcess
from repro.processes.capped_dchoice import CappedDChoiceProcess
from repro.processes.greedy import GreedyBatchProcess
from repro.processes.infinite_sequential import InfiniteSequentialGreedy
from repro.processes.lenzen import heavily_loaded_threshold
from repro.processes.sequential import sequential_greedy_d, sequential_one_choice
from repro.processes.stemann import stemann_collision
from repro.processes.threshold import threshold_allocate

__all__ = [
    "GreedyBatchProcess",
    "CappedDChoiceProcess",
    "threshold_allocate",
    "stemann_collision",
    "InfiniteSequentialGreedy",
    "sequential_one_choice",
    "sequential_greedy_d",
    "always_go_left",
    "RepeatedBallsProcess",
    "AdlerParallelProcess",
    "heavily_loaded_threshold",
]
