"""Per-round records and streaming measurement collectors.

Every process's ``step()`` emits one :class:`RoundRecord`. The
:class:`MetricsCollector` folds records from the measurement window into
constant-size summaries matching the quantities reported in the paper's
Section V: normalized pool size (pool divided by n, averaged over rounds),
average waiting time, and maximum waiting time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.stats.streaming import Histogram, RunningStats

__all__ = ["RoundRecord", "MetricsCollector", "MetricsSummary"]

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(slots=True)
class RoundRecord:
    """What happened in one simulated round.

    Attributes
    ----------
    round:
        The round index ``t`` (1-based, matching the paper).
    arrivals:
        Newly generated balls this round.
    thrown:
        Balls that chose a bin this round (pool leftovers + arrivals for
        CAPPED; whatever the process defines for baselines).
    accepted:
        Balls accepted into bin buffers this round.
    deleted:
        Balls deleted (served) at the end of the round.
    pool_size:
        Pool size ``m(t)`` at the end of the round (0 for processes
        without a pool).
    total_load:
        Sum of bin loads at the end of the round.
    max_load:
        Maximum bin load at the end of the round.
    wait_values / wait_counts:
        Waiting-time observations finalised this round, as a sparse
        (value, multiplicity) pair of arrays. Fast simulators record a
        ball's waiting time at *acceptance* (when it becomes determined);
        exact simulators record it at deletion. In steady state the two
        attributions have identical distributions.
    """

    round: int
    arrivals: int = 0
    thrown: int = 0
    accepted: int = 0
    deleted: int = 0
    pool_size: int = 0
    total_load: int = 0
    max_load: int = 0
    wait_values: np.ndarray = field(default_factory=lambda: _EMPTY)
    wait_counts: np.ndarray = field(default_factory=lambda: _EMPTY)

    @property
    def wait_total(self) -> int:
        """Number of waiting-time observations in this record."""
        return int(self.wait_counts.sum()) if len(self.wait_counts) else 0


@dataclass(frozen=True, slots=True)
class MetricsSummary:
    """Aggregated measurement-window statistics.

    ``normalized_pool`` is ``mean(pool_size) / n`` — the y-axis of the
    paper's Figure 4. ``avg_wait`` / ``max_wait`` are the y-axes of
    Figure 5.
    """

    rounds: int
    n: int
    mean_pool: float
    normalized_pool: float
    peak_pool: int
    avg_wait: float
    max_wait: int
    wait_p99: int
    mean_load: float
    peak_max_load: int
    throughput: float
    balls_observed: int

    def __str__(self) -> str:
        return (
            f"rounds={self.rounds} pool/n={self.normalized_pool:.3f} "
            f"avg_wait={self.avg_wait:.3f} max_wait={self.max_wait} "
            f"p99_wait={self.wait_p99} peak_load={self.peak_max_load}"
        )


class MetricsCollector:
    """Streams :class:`RoundRecord` objects into a :class:`MetricsSummary`.

    Parameters
    ----------
    n:
        Number of bins (used for normalisation).
    keep_pool_series:
        If True (default) the full per-round pool-size series is kept —
        rounds number in the thousands, so this is cheap and enables
        stationarity diagnostics and dominance checks.
    """

    def __init__(self, n: int, keep_pool_series: bool = True) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        self.keep_pool_series = keep_pool_series
        self.rounds = 0
        self.pool_stats = RunningStats()
        self.load_stats = RunningStats()
        self.wait_stats = RunningStats()
        self.wait_histogram = Histogram()
        self.peak_pool = 0
        self.peak_max_load = 0
        self.total_deleted = 0
        self._pool_series: list[int] = []

    def observe(self, record: RoundRecord) -> None:
        """Fold one round into the summary."""
        self.rounds += 1
        self.pool_stats.add(record.pool_size)
        self.load_stats.add(record.total_load)
        if record.pool_size > self.peak_pool:
            self.peak_pool = record.pool_size
        if record.max_load > self.peak_max_load:
            self.peak_max_load = record.max_load
        self.total_deleted += record.deleted
        if len(record.wait_values):
            self.wait_histogram.add_array(record.wait_values, record.wait_counts)
            for value, count in zip(record.wait_values.tolist(), record.wait_counts.tolist()):
                self.wait_stats.add(float(value), float(count))
        if self.keep_pool_series:
            self._pool_series.append(record.pool_size)

    @property
    def pool_series(self) -> np.ndarray:
        """Per-round pool sizes over the observed window."""
        return np.asarray(self._pool_series, dtype=np.int64)

    def get_state(self) -> dict:
        """Snapshot every streaming accumulator for checkpoint/restore."""
        return {
            "n": self.n,
            "keep_pool_series": self.keep_pool_series,
            "rounds": self.rounds,
            "pool_stats": self.pool_stats.get_state(),
            "load_stats": self.load_stats.get_state(),
            "wait_stats": self.wait_stats.get_state(),
            "wait_histogram": self.wait_histogram.get_state(),
            "peak_pool": self.peak_pool,
            "peak_max_load": self.peak_max_load,
            "total_deleted": self.total_deleted,
            "pool_series": list(self._pool_series),
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot from :meth:`get_state` (same ``n``).

        A restored collector folds subsequent records into the identical
        accumulator trajectory, so a summary over (restored prefix + live
        suffix) equals the uninterrupted run's bit for bit.
        """
        if int(state["n"]) != self.n:
            raise ValueError(f"collector state has n={state['n']}, expected n={self.n}")
        self.keep_pool_series = bool(state["keep_pool_series"])
        self.rounds = int(state["rounds"])
        self.pool_stats.set_state(state["pool_stats"])
        self.load_stats.set_state(state["load_stats"])
        self.wait_stats.set_state(state["wait_stats"])
        self.wait_histogram.set_state(state["wait_histogram"])
        self.peak_pool = int(state["peak_pool"])
        self.peak_max_load = int(state["peak_max_load"])
        self.total_deleted = int(state["total_deleted"])
        self._pool_series = [int(v) for v in state["pool_series"]]

    def summary(self) -> MetricsSummary:
        """Produce the aggregate summary for everything observed so far."""
        if self.rounds == 0:
            raise ValueError("no rounds observed; cannot summarise")
        has_waits = self.wait_histogram.total > 0
        return MetricsSummary(
            rounds=self.rounds,
            n=self.n,
            mean_pool=self.pool_stats.mean,
            normalized_pool=self.pool_stats.mean / self.n,
            peak_pool=self.peak_pool,
            avg_wait=self.wait_stats.mean,
            max_wait=self.wait_histogram.max if has_waits else 0,
            wait_p99=self.wait_histogram.quantile(0.99) if has_waits else 0,
            mean_load=self.load_stats.mean,
            peak_max_load=self.peak_max_load,
            throughput=self.total_deleted / self.rounds,
            balls_observed=self.wait_histogram.total,
        )
