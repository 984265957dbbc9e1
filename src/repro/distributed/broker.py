"""Asyncio TCP broker: at-least-once work queue over idempotent task digests.

One broker process coordinates any number of *workers* (which lease,
execute, and complete tasks) and *clients* (sweep runners which submit
task batches and stream results back). The broker itself never executes
simulation code — it is pure bookkeeping, so a single asyncio loop
handles a whole fleet.

Delivery semantics
------------------
* **At-least-once.** A task is either queued, leased (to exactly one
  worker, with a deadline), or resolved. A worker that stops
  heartbeating past its lease deadline — SIGKILLed, wedged, unplugged —
  has its task **re-leased** to the next worker that asks. Nothing is
  lost; at worst a task runs twice.
* **Idempotent keys.** Task keys are content-addressed digests of
  (kind, params, replicate, code fingerprint), so duplicate executions
  produce identical outcomes and the first ``complete`` wins; later
  duplicates are acknowledged and dropped.
* **Shared result cache.** With ``cache_dir`` set, every completion is
  written to the same content-addressed cache the local runner uses
  (tagged with an ``origin`` recording which worker computed it), and
  every submitted key is first checked against it — a task computed
  *anywhere* is never recomputed, and later local runs see the upload as
  a ``remote-cache`` hit.
* **Preemption-friendly.** With ``checkpoint_dir`` set, each lease
  carries a per-key snapshot directory; a re-leased task resumes from
  its predecessor's newest checkpoint instead of restarting at round
  zero, so killing a worker loses bounded work.

Code-fingerprint safety: a worker whose measurement fingerprint differs
from the submitting client's is never leased that client's measurement
tasks, and a discovery task (an experiment generator, which may touch any
module) is leased only to a worker whose whole-package fingerprint
matches — mixed-version fleets go idle rather than silently producing
results from different code, and the broker sends its clients a
``no-matching-worker`` event saying how many queued tasks no connected
worker can run. Discovery bundles are plans, not outcomes, so they never
enter the shared result cache.
"""

from __future__ import annotations

import asyncio
import contextlib
import hmac
import secrets
import shutil
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.distributed.protocol import (
    PROTOCOL,
    auth_response,
    read_frame_async,
    write_frame_async,
)
from repro.distributed.store import SweepStateStore, read_events, replay_events
from repro.errors import ProtocolError
from repro.parallel.cache import ResultCache
from repro.parallel.tasks import is_discovery
from repro.telemetry.fleet import decompress_snapshot, merge_fleet_snapshots
from repro.telemetry.registry import HISTOGRAM_QUANTILES, MetricsRegistry, quantile_key
from repro.telemetry.runtime import current as _telemetry_current
from repro.telemetry.sinks import write_prometheus
from repro.telemetry.tracing import SpanBuffer, build_span

__all__ = [
    "Broker",
    "BrokerConfig",
    "FLEET_PROM_FILENAME",
    "resolve_address",
    "run_broker",
]

#: Prometheus textfile of the merged fleet registry, inside ``--state-dir``.
FLEET_PROM_FILENAME = "fleet.prom"

#: Statuses a task moves through; "done"/"failed" are terminal.
QUEUED, LEASED, DONE, FAILED = "queued", "leased", "done", "failed"


@dataclass
class BrokerConfig:
    """Tunable knobs for one broker process."""

    host: str = "127.0.0.1"
    port: int = 0
    cache_dir: Path | str | None = None
    state_dir: Path | str | None = None
    checkpoint_dir: Path | str | None = None
    checkpoint_every: int | None = None
    lease_timeout: float = 15.0
    heartbeat_interval: float | None = None  # default: lease_timeout / 3
    max_retries: int = 2
    max_releases: int = 20
    port_file: Path | str | None = None
    # Shared-secret HMAC challenge/response on connect (see _authenticate);
    # None disables the handshake entirely.
    auth_token: str | None = None
    # PEM cert/key pair for a TLS listener; both or neither.
    tls_cert: Path | str | None = None
    tls_key: Path | str | None = None
    # Rotate events.jsonl once the live log exceeds this many bytes (the
    # snapshot already carries everything rotated away); None = only the
    # mandatory compaction after a restart recovery.
    compact_events_bytes: int | None = None
    compact_keep: int = 1

    def resolved_heartbeat(self) -> float:
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return max(0.05, self.lease_timeout / 3.0)

    def tls_context(self):
        """Server-side SSLContext from the cert/key pair, or None."""
        if self.tls_cert is None and self.tls_key is None:
            return None
        if self.tls_cert is None or self.tls_key is None:
            from repro.errors import ConfigurationError

            raise ConfigurationError("TLS needs both --tls-cert and --tls-key")
        import ssl

        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(str(self.tls_cert), str(self.tls_key))
        return context


@dataclass
class _Task:
    """Broker-side state of one submitted task."""

    key: str
    payload: dict[str, Any]
    run_id: str
    # Code fingerprint a worker must match: the measurement fingerprint,
    # or the whole-package one for a discovery task (see _fits).
    fingerprint: str
    status: str = QUEUED
    worker: str | None = None
    deadline: float = 0.0
    attempts: int = 0  # executions that *failed* with an error frame
    releases: int = 0  # lease lapses / worker deaths survived
    result: dict[str, Any] | None = None
    error: str | None = None
    # Tracing context from the submitting client ({"trace", "parent"});
    # None when the run is untraced — every span site guards on it.
    trace: dict[str, Any] | None = None
    queued_since: float = 0.0  # wall-clock start of the current queue wait
    lease_span: str | None = None  # open span id of the current lease
    lease_started: float = 0.0
    lease_seq: int = 0  # 1-based lease attempt counter (re-lease chains)
    order: int = 0  # submit sequence; breaks cost-ordering ties FIFO
    priority: bool = False  # re-leased work jumps the cost ordering
    # Lease carried over from a previous broker generation: the worker is
    # expected to reattach (frame or heartbeat) before the reaper fires.
    adopted: bool = False
    group: str = ""  # cost-estimation bucket (the task's point key)
    # Every lifecycle span emitted for this task, replayed to clients
    # that (re)subscribe after the fact — e.g. across a broker restart.
    span_log: list[dict[str, Any]] = field(default_factory=list)


def _task_group(payload: dict[str, Any]) -> str:
    """Cost-estimation bucket for a payload: its parameter point.

    Replicates of one sweep point share a group (and, empirically, a
    runtime), which is what makes the per-group mean a usable expected
    cost. Payloads without kind/params (whole-experiment tasks) fall
    back to their experiment id.
    """
    try:
        if "kind" in payload and "params" in payload:
            from repro.parallel.keys import point_key

            return point_key(str(payload["kind"]), dict(payload["params"]))
    except (TypeError, ValueError):
        pass
    return str(payload.get("experiment_id", "") or "")


@dataclass
class _WorkerConn:
    worker_id: str
    fingerprint: str
    writer: asyncio.StreamWriter
    package: str = ""  # whole-package fingerprint; "" = never leased discovery
    leased: set[str] = field(default_factory=set)
    completed: int = 0
    slots: int = 1


@dataclass
class _ClientConn:
    run_id: str
    fingerprint: str
    writer: asyncio.StreamWriter
    package: str = ""
    outstanding: set[str] = field(default_factory=set)
    submitted: int = 0

    def fingerprint_for(self, payload: dict[str, Any]) -> str:
        """The code fingerprint a worker needs to run ``payload``."""
        return self.package if is_discovery(payload) else self.fingerprint


def _fits(task: _Task, worker: _WorkerConn) -> bool:
    """May ``worker`` run ``task``? Its code must match the submitter's."""
    if is_discovery(task.payload):
        return bool(worker.package) and task.fingerprint == worker.package
    return task.fingerprint == worker.fingerprint


class Broker:
    """The in-process broker engine (see module docstring).

    :meth:`serve` binds and runs forever (until :meth:`shutdown`); tests
    may also drive an instance in a background event loop via
    :func:`asyncio.run_coroutine_threadsafe`.
    """

    def __init__(self, config: BrokerConfig | None = None, **kwargs: Any) -> None:
        self.config = config if config is not None else BrokerConfig(**kwargs)
        self.broker_id = f"broker-{uuid.uuid4().hex[:8]}"
        self.cache = (
            ResultCache(self.config.cache_dir) if self.config.cache_dir is not None else None
        )
        self.store = (
            SweepStateStore(self.config.state_dir) if self.config.state_dir is not None else None
        )
        self.tasks: dict[str, _Task] = {}
        self.queue: list[str] = []  # queued task keys; dispatch order via _lease_for
        self.workers: dict[str, _WorkerConn] = {}
        self.clients: list[_ClientConn] = []
        # Fleet telemetry: the broker's own registry (lease latency, queue
        # depth, release/retry counters — independent of any process-wide
        # telemetry session) plus the latest piggybacked snapshot per
        # worker, merged into fleet.prom and the fleet-stats broadcast.
        self.metrics = MetricsRegistry()
        self.worker_metrics: dict[str, dict[str, Any]] = {}
        self.generation = 1  # +1 per broker that recovers this state dir
        self._order = 0  # monotonically increasing submit sequence
        # Per-group elapsed history feeding the cost-aware lease order;
        # rebuilt from completion events on recovery.
        from repro.parallel.progress import TimingStats

        self.cost_history = TimingStats()
        self._recovered = self._recover() if self.store is not None else False
        # Broker span ids must not collide across restarts of the same
        # state dir: later generations mint under a suffixed origin.
        origin = "b" if self.generation == 1 else f"b{self.generation}"
        self._spans = SpanBuffer(origin)  # span-id minter for broker spans
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()
        self._wake_reaper = asyncio.Event()
        self._sessions: set[asyncio.Task] = set()
        self._unservable: dict[str, int] | None = None  # last no-matching-worker notice

    # ------------------------------------------------------------------
    # restart recovery
    # ------------------------------------------------------------------

    def _recover(self) -> bool:
        """Re-adopt a pre-existing state dir: rebuild the queue and leases.

        The newest valid snapshot supplies the durable task table; the
        live event-log tail past its ``seq`` is replayed on top (crash
        between snapshot writes loses nothing). Pending tasks re-queue in
        their original submit order, in-flight leases stay leased —
        bound to their old worker ids with ``releases``/``attempts``
        counters and checkpoint-dir bindings intact — for one
        ``lease_timeout`` of reattach grace before the reaper treats the
        silence as a worker death. Completed/failed keys are kept as the
        cross-client dedup set and the poison guard's memory.
        """
        assert self.store is not None
        directory = self.store.directory
        snapshot = SweepStateStore.load_state(directory)
        table: dict[str, dict[str, Any]] = {}
        order_hint = 0
        if snapshot is not None:
            for key, entry in snapshot.tasks.items():
                table[key] = dict(entry)
                order_hint = max(order_hint, int(entry.get("order", 0)))
        tail_seq = snapshot.seq if snapshot is not None else 0
        saw_events = False
        for event in replay_events(directory, after_seq=tail_seq):
            saw_events = True
            order_hint = self._apply_event(table, event, order_hint)
        if snapshot is None and not table and not saw_events:
            return False  # genuinely fresh state dir
        self.generation = (snapshot.generation if snapshot is not None else 1) + 1
        now = time.time()
        grace_deadline = time.monotonic() + self.config.lease_timeout
        adopted = requeued = 0
        queued: list[_Task] = []
        for key, entry in table.items():
            status = entry.get("status", QUEUED)
            task = _Task(
                key=key,
                payload=dict(entry.get("payload") or {}),
                run_id=str(entry.get("run", "")),
                fingerprint=str(entry.get("code", "")),
                status=status,
                worker=entry.get("worker"),
                attempts=int(entry.get("attempts", 0)),
                releases=int(entry.get("releases", 0)),
                error=entry.get("error"),
                trace=entry.get("trace") or None,
                queued_since=now,
                lease_span=entry.get("lease_span"),
                lease_started=float(entry.get("lease_started") or 0.0),
                lease_seq=int(entry.get("lease_seq", 0)),
                order=int(entry.get("order", 0)),
                priority=bool(entry.get("priority", False)),
                group=str(entry.get("group", "")),
            )
            if status == LEASED:
                task.adopted = True
                task.deadline = grace_deadline
                adopted += 1
            elif status == QUEUED:
                queued.append(task)
                requeued += 1
            self.tasks[key] = task
        # Original submit order (priority re-leases first) — the cost-aware
        # dispatch reorders at lease time, but the durable queue is stable.
        queued.sort(key=lambda t: (not t.priority, t.order))
        self.queue = [t.key for t in queued]
        self._order = order_hint
        self._replay_history(directory)
        self.store.state.generation = self.generation
        self.store.state.started_unix = (
            snapshot.started_unix if snapshot is not None and snapshot.started_unix else now
        )
        self._record(
            "broker-recover",
            broker=self.broker_id,
            generation=self.generation,
            requeued=requeued,
            adopted_leases=adopted,
            done=sum(1 for t in self.tasks.values() if t.status == DONE),
            failed=sum(1 for t in self.tasks.values() if t.status == FAILED),
        )
        self._snapshot_state()
        # Fold everything replayed into the fresh snapshot and rotate the
        # log: the *next* recovery replays only the new segment (O(state)).
        self.store.compact(keep_archives=self.config.compact_keep)
        return True

    def _apply_event(
        self, table: dict[str, dict[str, Any]], event: dict[str, Any], order_hint: int
    ) -> int:
        """Fold one replayed event into the recovery task table."""
        kind = event.get("event")
        key = event.get("key")
        if kind == "task" and isinstance(key, str):
            entry = table.setdefault(key, {})
            order_hint = max(order_hint, int(event.get("order", order_hint + 1)))
            entry.update(
                status=QUEUED,
                payload=event.get("payload") or {},
                run=event.get("run", ""),
                code=event.get("code", ""),
                order=int(event.get("order", order_hint)),
                trace=event.get("trace"),
                group=event.get("group", ""),
            )
            entry.setdefault("releases", 0)
            entry.setdefault("attempts", 0)
            return order_hint
        if not isinstance(key, str) or key not in table:
            return order_hint
        entry = table[key]
        if kind == "lease":
            entry["status"] = LEASED
            entry["worker"] = event.get("worker")
            entry["lease_seq"] = int(event.get("lease_seq", entry.get("lease_seq", 0) + 1))
            entry["lease_span"] = event.get("span")
            entry["lease_started"] = event.get("ts", 0.0)
        elif kind == "reattach":
            entry["status"] = LEASED
            entry["worker"] = event.get("worker")
        elif kind == "re-lease":
            entry["status"] = QUEUED
            entry["worker"] = None
            entry["releases"] = int(event.get("releases", entry.get("releases", 0) + 1))
            entry["priority"] = True
            entry["lease_span"] = None
        elif kind == "fail":
            entry["status"] = QUEUED
            entry["worker"] = None
            entry["attempts"] = int(event.get("attempts", entry.get("attempts", 0) + 1))
            entry["lease_span"] = None
        elif kind in ("complete", "cache-hit"):
            entry["status"] = DONE
            if event.get("worker"):
                entry["worker"] = event.get("worker")
        elif kind == "task-failed":
            entry["status"] = FAILED
            entry["error"] = event.get("error")
        return order_hint

    def _replay_history(self, directory: Path) -> None:
        """Rebuild cost history and live tasks' span logs from the event log.

        Reads the surviving history (archives + live log). Cost samples
        come from ``complete`` events' ``group``/``elapsed``; span
        records are re-attached to still-live tasks so a client that
        (re)subscribes after the restart receives the full chain.
        """
        by_trace: dict[str, str] = {}
        for key, task in self.tasks.items():
            if task.trace is not None:
                by_trace[task.trace["trace"]] = key
        for event in read_events(directory):
            kind = event.get("event")
            if kind == "complete" and event.get("group"):
                self.cost_history.add(
                    str(event.get("key", "")),
                    float(event.get("elapsed", 0.0) or 0.0),
                    group=str(event["group"]),
                )
            elif kind == "span":
                key = by_trace.get(str(event.get("trace", "")))
                if key is None:
                    continue
                task = self.tasks[key]
                if task.status in (DONE, FAILED):
                    continue
                # Back to the build_span shape clients expect in event frames.
                span = {k: v for k, v in event.items() if k not in ("ts", "seq", "event")}
                task.span_log.append(span)

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------

    def _record(self, kind: str, sync: bool = True, **fields: Any) -> None:
        if self.store is not None:
            self.store.record(kind, sync=sync, **fields)

    def _durable_entry(self, task: _Task) -> dict[str, Any]:
        """One task's row in the snapshot's durable task table.

        Non-terminal rows keep the payload (a recovered broker can lease
        them without the submitting client); terminal rows shrink to the
        dedup/poison bookkeeping (``releases``/``attempts``/``error``)
        so the guards survive a restart without hoarding payloads.
        """
        entry: dict[str, Any] = {
            "status": task.status,
            "order": task.order,
            "releases": task.releases,
            "attempts": task.attempts,
            "run": task.run_id,
            "code": task.fingerprint,
        }
        if task.group:
            entry["group"] = task.group
        if task.worker:
            entry["worker"] = task.worker
        if task.error:
            entry["error"] = task.error
        if task.status in (QUEUED, LEASED):
            entry["payload"] = task.payload
            if task.trace is not None:
                entry["trace"] = task.trace
            if task.priority:
                entry["priority"] = True
        if task.status == LEASED:
            entry["lease_seq"] = task.lease_seq
            entry["lease_span"] = task.lease_span
            entry["lease_started"] = task.lease_started
        return entry

    def _snapshot_state(self) -> None:
        if self.store is None:
            return
        state = self.store.state
        state.generation = self.generation
        state.tasks_total = len(self.tasks)
        state.tasks_done = sum(1 for t in self.tasks.values() if t.status == DONE)
        state.tasks_failed = sum(1 for t in self.tasks.values() if t.status == FAILED)
        state.tasks_queued = len(self.queue)
        state.tasks_leased = sum(1 for t in self.tasks.values() if t.status == LEASED)
        state.releases_total = sum(t.releases for t in self.tasks.values())
        state.retries_total = sum(t.attempts for t in self.tasks.values())
        state.tasks = {key: self._durable_entry(task) for key, task in self.tasks.items()}
        state.queue = list(self.queue)
        self.store.write_state()

    def _gauges(self) -> None:
        tel = _telemetry_current()
        if tel is None:
            return
        tel.set_gauge("broker_queue_depth", len(self.queue))
        tel.set_gauge(
            "broker_leased", sum(1 for t in self.tasks.values() if t.status == LEASED)
        )
        tel.set_gauge("broker_workers", len(self.workers))

    def _count(self, metric: str, **labels: Any) -> None:
        tel = _telemetry_current()
        if tel is not None:
            tel.inc(metric, **labels)

    async def _broadcast_event(self, kind: str, **fields: Any) -> None:
        """Forward one fleet event to every connected client (best effort)."""
        frame = {"type": "event", "kind": kind, **fields}
        for client in list(self.clients):
            try:
                await write_frame_async(client.writer, frame)
            except (ConnectionError, ProtocolError, OSError):
                pass  # the client-reader loop owns disconnect handling

    # ------------------------------------------------------------------
    # fleet tracing + telemetry
    # ------------------------------------------------------------------

    def _make_span(
        self,
        task: _Task,
        name: str,
        start: float,
        end: float | None = None,
        *,
        parent: str | None = None,
        **attrs: Any,
    ) -> dict[str, Any]:
        """Mint a broker-origin span in this task's trace.

        Parent defaults to the client's root ``task`` span so every hop
        hangs off the same tree even when leases interleave.
        """
        assert task.trace is not None
        return build_span(
            task.trace["trace"],
            self._spans.mint_id(),
            name,
            start,
            end,
            parent=parent if parent is not None else task.trace.get("parent"),
            **attrs,
        )

    async def _emit_span(self, span: dict[str, Any], task: _Task | None = None) -> None:
        """Persist one lifecycle span durably and stream it to clients.

        The span lands in the broker's ``events.jsonl`` (tailable with
        :func:`repro.telemetry.tracing.read_spans`) and is broadcast as an
        event frame so the submitting client can append it to the run's
        ``trace.jsonl``. When ``task`` is given the span is also retained
        on its ``span_log`` so a client that (re)subscribes later — e.g.
        across a broker restart — can be replayed the full chain.
        """
        self._record("span", **{k: v for k, v in span.items() if k != "event"})
        if task is not None and task.status not in (DONE, FAILED):
            task.span_log.append(span)
        await self._broadcast_event("span", span=span)

    def _note_worker_metrics(self, worker_id: str, frame: dict[str, Any]) -> None:
        """Absorb a piggybacked registry snapshot from a worker frame."""
        blob = frame.get("metrics")
        if not blob:
            return
        snapshot = decompress_snapshot(blob)
        if snapshot is not None:
            self.worker_metrics[worker_id] = snapshot

    def _fleet_stats(self) -> dict[str, Any]:
        """Queue/latency digest broadcast to clients after each resolve."""
        stats: dict[str, Any] = {
            "queue_depth": len(self.queue),
            "leased": sum(1 for t in self.tasks.values() if t.status == LEASED),
            "workers": len(self.workers),
            "releases": sum(t.releases for t in self.tasks.values()),
            "retries": sum(t.attempts for t in self.tasks.values()),
            "tasks_done": sum(1 for t in self.tasks.values() if t.status == DONE),
            "tasks_total": len(self.tasks),
        }
        histogram = self.metrics.get("fleet_task_seconds")
        stream = histogram.stream() if histogram is not None else None
        if stream is not None and stream.count:
            for q in HISTOGRAM_QUANTILES:
                stats[quantile_key(q)] = round(stream.quantile(q), 6)
        return stats

    def _write_fleet_prom(self) -> None:
        """Render the merged fleet registry as a Prometheus textfile.

        Worker snapshots arrive compressed on heartbeat/complete frames;
        the merge labels each worker's series with ``worker=...`` while the
        broker's own series stay unlabelled.
        """
        if self.store is None:
            return
        self.metrics.gauge(
            "fleet_queue_depth", "Tasks waiting for a lease."
        ).set(len(self.queue))
        self.metrics.gauge("fleet_workers", "Connected workers.").set(len(self.workers))
        snapshot = merge_fleet_snapshots(self.worker_metrics, base=self.metrics.snapshot())
        write_prometheus(snapshot, self.store.directory / FLEET_PROM_FILENAME)

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------

    def _checkpoint_plumbing(self, task: _Task) -> dict[str, Any] | None:
        if self.config.checkpoint_dir is None or is_discovery(task.payload):
            return None
        return {
            "dir": str(Path(self.config.checkpoint_dir) / task.key),
            "every": self.config.checkpoint_every,
        }

    def _cached_result(self, task: _Task) -> tuple[dict[str, Any], str] | None:
        """(result bundle, source) served from the shared cache, if any."""
        if self.cache is None or is_discovery(task.payload):
            return None
        cached = self.cache.get(task.key)
        if cached is None or "outcome" not in cached:
            return None
        origin = cached.get("origin")
        source = "remote-cache" if origin else "cache"
        bundle = {
            "outcome": cached["outcome"],
            "elapsed": 0.0,
            "pid": None,
            "resumed_round": None,
        }
        if origin:
            bundle["origin"] = origin
        return bundle, source

    def _result_frame(self, task: _Task, source: str) -> dict[str, Any]:
        assert task.result is not None
        return {
            "type": "result",
            "key": task.key,
            "result": task.result,
            "source": source,
            "worker": task.worker,
            "releases": task.releases,
            "attempts": task.attempts,
        }

    async def _resolve(self, task: _Task, source: str) -> None:
        """Deliver a finished task to every client waiting on its key."""
        self._count("broker_tasks_total", source=source)
        for client in list(self.clients):
            if task.key not in client.outstanding:
                continue
            client.outstanding.discard(task.key)
            try:
                if task.status == DONE:
                    await write_frame_async(client.writer, self._result_frame(task, source))
                else:
                    await write_frame_async(
                        client.writer,
                        {
                            "type": "task_failed",
                            "key": task.key,
                            "error": task.error or "unknown failure",
                            "attempts": task.attempts,
                            "releases": task.releases,
                        },
                    )
                if not client.outstanding:
                    await write_frame_async(client.writer, {"type": "done"})
                    self._record("run-done", run=client.run_id, submitted=client.submitted)
            except (ConnectionError, ProtocolError, OSError):
                pass
        self._gauges()
        self._snapshot_state()
        if (
            self.store is not None
            and self.config.compact_events_bytes is not None
            and self.store.events_bytes() >= self.config.compact_events_bytes
        ):
            # The snapshot just written carries everything in the live log.
            self.store.compact(keep_archives=self.config.compact_keep)
        self._write_fleet_prom()
        await self._broadcast_event("fleet-stats", **self._fleet_stats())

    async def _complete_task(self, task: _Task, result: dict[str, Any], worker_id: str) -> None:
        # Transient telemetry riders: worker-minted spans and the upload
        # start stamp travel on the result but are not part of the outcome
        # — strip them before the bundle is cached or forwarded to clients
        # (span events reach clients separately, via _emit_span).
        worker_spans = result.pop("spans", None)
        upload_start = result.pop("upload_start", None)
        task.status = DONE
        task.worker = worker_id
        task.adopted = False
        task.result = result
        elapsed = float(result.get("elapsed", 0.0) or 0.0)
        if task.group and elapsed > 0.0:
            # Feed the cost-aware lease order (longest-expected-first).
            self.cost_history.add(task.key, elapsed, group=task.group)
        fleet_seconds = self.metrics.histogram(
            "fleet_task_seconds", "Per-task compute seconds across the fleet."
        )
        fleet_seconds.observe(elapsed)
        fleet_seconds.observe(elapsed, worker=worker_id)
        if task.trace is not None:
            now = time.time()
            for span in worker_spans or []:
                if isinstance(span, dict):
                    await self._emit_span(span)
            if upload_start is not None:
                await self._emit_span(
                    self._make_span(
                        task,
                        "upload",
                        float(upload_start),
                        now,
                        parent=task.lease_span,
                        worker=worker_id,
                    )
                )
            if task.lease_span is not None:
                await self._emit_span(
                    build_span(
                        task.trace["trace"],
                        task.lease_span,
                        "leased",
                        task.lease_started,
                        now,
                        parent=task.trace.get("parent"),
                        worker=worker_id,
                        seq=task.lease_seq,
                        status="ok",
                    )
                )
                task.lease_span = None
        if self.cache is not None and not is_discovery(task.payload):
            entry: dict[str, Any] = {
                "spec": {
                    k: v
                    for k, v in task.payload.items()
                    if k not in ("checkpoint", "trace", "cprofile")
                },
                "outcome": result["outcome"],
                "origin": {"worker": worker_id, "broker": self.broker_id},
            }
            if result.get("resumed_round") is not None:
                entry["origin"]["resumed_round"] = result["resumed_round"]
            self.cache.put(task.key, entry)
        if self.config.checkpoint_dir is not None:
            # The outcome is durable; its snapshots have served their purpose.
            shutil.rmtree(Path(self.config.checkpoint_dir) / task.key, ignore_errors=True)
        self._record(
            "complete",
            key=task.key,
            worker=worker_id,
            releases=task.releases,
            resumed_round=result.get("resumed_round"),
            elapsed=round(float(result.get("elapsed", 0.0)), 6),
            group=task.group or None,
        )
        await self._resolve(task, source="computed")

    def _requeue(self, task: _Task, *, front: bool = False) -> None:
        task.status = QUEUED
        task.worker = None
        task.deadline = 0.0
        task.adopted = False
        if front:
            # Re-leased casualties also outrank the cost ordering, so a
            # preempted task resumes from its checkpoint immediately.
            task.priority = True
            self.queue.insert(0, task.key)
        else:
            self.queue.append(task.key)

    async def _release_lease(self, task: _Task, reason: str) -> None:
        """A leased task's worker is gone or silent: take the lease back."""
        worker_id = task.worker
        task.releases += 1
        self._count("broker_releases_total")
        self.metrics.counter(
            "fleet_releases_total", "Leases taken back from silent workers."
        ).inc()
        self._record("re-lease", key=task.key, worker=worker_id, reason=reason)
        await self._broadcast_event(
            "re-lease", key=task.key, worker=worker_id, reason=reason, releases=task.releases
        )
        if task.trace is not None and task.lease_span is not None:
            # Close the dead lease attempt; the re-lease chain shows up in
            # the trace as queued → leased(released) → queued → leased(ok).
            await self._emit_span(
                build_span(
                    task.trace["trace"],
                    task.lease_span,
                    "leased",
                    task.lease_started,
                    time.time(),
                    parent=task.trace.get("parent"),
                    worker=worker_id,
                    seq=task.lease_seq,
                    status="released",
                    reason=reason,
                )
            )
            task.lease_span = None
        task.queued_since = time.time()
        if task.releases > self.config.max_releases:
            task.status = FAILED
            task.error = (
                f"re-leased {task.releases} times (> max_releases="
                f"{self.config.max_releases}); last worker {worker_id}: {reason}"
            )
            self._record(
                "task-failed",
                key=task.key,
                error=task.error,
                attempts=task.attempts,
                releases=task.releases,
            )
            await self._resolve(task, source="failed")
            return
        # Front of the queue: a preempted task resumes from its checkpoint
        # immediately instead of waiting behind fresh work.
        self._requeue(task, front=True)
        self._gauges()

    async def _fail_task(self, task: _Task, error: str, worker_id: str) -> None:
        task.attempts += 1
        self._record("fail", key=task.key, worker=worker_id, error=error, attempts=task.attempts)
        if task.trace is not None and task.lease_span is not None:
            await self._emit_span(
                build_span(
                    task.trace["trace"],
                    task.lease_span,
                    "leased",
                    task.lease_started,
                    time.time(),
                    parent=task.trace.get("parent"),
                    worker=worker_id,
                    seq=task.lease_seq,
                    status="failed",
                    error=error,
                )
            )
            task.lease_span = None
        task.queued_since = time.time()
        if task.attempts > self.config.max_retries:
            task.status = FAILED
            task.worker = worker_id
            task.error = error
            self._record(
                "task-failed",
                key=task.key,
                error=error,
                attempts=task.attempts,
                releases=task.releases,
            )
            await self._resolve(task, source="failed")
            return
        # Only an actual requeue is a retry — the terminal failure above
        # surfaces as task_failed, mirroring the local pool's accounting.
        self._count("broker_retries_total")
        self.metrics.counter(
            "fleet_retries_total", "Tasks requeued after a worker-side error."
        ).inc()
        await self._broadcast_event(
            "retry", key=task.key, worker=worker_id, error=error, attempts=task.attempts
        )
        self._requeue(task)
        self._gauges()

    def _expected_cost(self, task: _Task) -> float | None:
        """Mean observed compute seconds for this task's group, if any."""
        samples = self.cost_history.by_group.get(task.group) if task.group else None
        if not samples:
            return None
        return sum(samples) / len(samples)

    def _lease_for(self, worker: _WorkerConn) -> _Task | None:
        """Pop the best queued task whose fingerprint matches this worker.

        Cost-aware dispatch order: re-leased casualties first (they hold
        checkpoints), then never-measured groups (exploration — the long
        paper-profile cells get sampled before the sweep's tail), then
        longest-expected-first so stragglers don't land last, with the
        original submit order breaking ties.
        """
        best_index: int | None = None
        best_rank: tuple[int, int, float, int] | None = None
        for index, key in enumerate(self.queue):
            task = self.tasks[key]
            if not _fits(task, worker):
                continue
            cost = self._expected_cost(task)
            rank = (
                0 if task.priority else 1,
                0 if cost is None else 1,
                -(cost or 0.0),
                task.order,
            )
            if best_rank is None or rank < best_rank:
                best_rank, best_index = rank, index
        if best_index is None:
            return None
        task = self.tasks[self.queue.pop(best_index)]
        task.status = LEASED
        task.worker = worker.worker_id
        task.deadline = time.monotonic() + self.config.lease_timeout
        task.adopted = False
        worker.leased.add(task.key)
        return task

    async def _adopt_lease(self, worker: _WorkerConn, task: _Task, via: str) -> None:
        """Re-bind an orphaned lease to the worker still computing it.

        Reached from an explicit ``reattach`` frame or from the first
        heartbeat naming a key this connection doesn't hold — both happen
        when the worker (or the broker) survived a link death. The lease
        continues where it left off: ``releases`` and checkpoint bindings
        untouched, deadline refreshed.
        """
        if task.status == QUEUED and task.key in self.queue:
            self.queue.remove(task.key)
        task.status = LEASED
        task.worker = worker.worker_id
        task.deadline = time.monotonic() + self.config.lease_timeout
        task.adopted = False
        worker.leased.add(task.key)
        self._record(
            "reattach",
            key=task.key,
            worker=worker.worker_id,
            via=via,
            generation=self.generation,
        )
        await self._broadcast_event(
            "reattach", key=task.key, worker=worker.worker_id, via=via
        )
        if task.trace is not None:
            now = time.time()
            if task.lease_span is None:
                task.lease_seq += 1
                task.lease_span = self._spans.mint_id()
                task.lease_started = now
            await self._emit_span(
                self._make_span(
                    task,
                    "reattach",
                    now,
                    now,
                    parent=task.lease_span,
                    worker=worker.worker_id,
                    via=via,
                    generation=self.generation,
                ),
                task,
            )
        self._gauges()

    async def _note_unservable(self) -> None:
        """Tell clients when queued work fits none of the connected workers.

        Such tasks wait, by design, for a worker running the submitter's
        code; without this notice the sweep would just hang in silence. The
        notice repeats only when one of its counts changes.
        """
        workers = list(self.workers.values())
        stranded = [
            task
            for task in (self.tasks[key] for key in self.queue)
            if not any(_fits(task, worker) for worker in workers)
        ]
        notice = None
        if workers and stranded:
            notice = {
                "tasks": len(stranded),
                "discovery": sum(1 for task in stranded if is_discovery(task.payload)),
                "workers": len(workers),
            }
        if notice == self._unservable:
            return
        self._unservable = notice
        if notice is not None:
            self._record("no-matching-worker", **notice)
            await self._broadcast_event("no-matching-worker", **notice)

    @property
    def _drained(self) -> bool:
        """True when work was submitted, all of it is resolved, and no client
        is still connected (a sweep may submit again: measure after discover)."""
        return (
            bool(self.tasks)
            and not self.queue
            and not self.clients
            and not any(t.status == LEASED for t in self.tasks.values())
        )

    # ------------------------------------------------------------------
    # connection handlers
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Track the session so shutdown can cancel it instead of leaving
        # the coroutine to die on a closed event loop.
        session = asyncio.current_task()
        if session is not None:
            self._sessions.add(session)
        try:
            await self._dispatch_connection(reader, writer)
        finally:
            if session is not None:
                self._sessions.discard(session)

    async def _dispatch_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello = await read_frame_async(reader)
        except ProtocolError:
            writer.close()
            return
        if hello is None or hello.get("type") != "hello":
            writer.close()
            return
        if hello.get("protocol") != PROTOCOL:
            with contextlib.suppress(ConnectionError, OSError):
                await write_frame_async(
                    writer,
                    {
                        "type": "error",
                        "error": f"protocol mismatch: broker speaks {PROTOCOL}, "
                        f"peer sent {hello.get('protocol')!r}",
                    },
                )
            writer.close()
            return
        role = hello.get("role")
        if role not in ("worker", "client"):
            writer.close()
            return
        if not await self._authenticate(str(role), reader, writer):
            return
        if role == "worker":
            await self._worker_session(hello, reader, writer)
        else:
            await self._client_session(hello, reader, writer)

    async def _authenticate(
        self, role: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Shared-secret challenge/response; True when the peer may proceed.

        Without a configured token this is a no-op (no extra frames on
        the wire). Otherwise the peer's next frame after the challenge
        must be a valid ``auth`` — rejected peers never reach the lease
        queue or the submit path, and get a diagnosable ``error`` frame
        before the close.
        """
        token = self.config.auth_token
        if not token:
            return True
        nonce = secrets.token_hex(16)
        try:
            await write_frame_async(writer, {"type": "challenge", "nonce": nonce})
            reply = await asyncio.wait_for(read_frame_async(reader), timeout=30.0)
        except (ProtocolError, ConnectionError, OSError, asyncio.TimeoutError):
            writer.close()
            return False
        mac = str(reply.get("mac", "")) if isinstance(reply, dict) else ""
        ok = (
            isinstance(reply, dict)
            and reply.get("type") == "auth"
            and hmac.compare_digest(mac, auth_response(token, nonce, role))
        )
        if not ok:
            self._record("auth-reject", role=role)
            self._count("broker_auth_rejects_total")
            with contextlib.suppress(ConnectionError, ProtocolError, OSError):
                await write_frame_async(
                    writer,
                    {
                        "type": "error",
                        "error": "authentication failed: this broker requires a "
                        "matching --auth-token",
                    },
                )
            writer.close()
            return False
        return True

    async def _worker_session(
        self, hello: dict[str, Any], reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker = _WorkerConn(
            worker_id=str(hello.get("worker", f"worker-{uuid.uuid4().hex[:8]}")),
            fingerprint=str(hello.get("code", "")),
            writer=writer,
            slots=max(1, int(hello.get("slots", 1) or 1)),
            package=str(hello.get("package", "")),
        )
        self.workers[worker.worker_id] = worker
        self._record("worker-join", worker=worker.worker_id, slots=worker.slots)
        await self._broadcast_event("worker-join", worker=worker.worker_id, slots=worker.slots)
        await self._note_unservable()
        self._gauges()
        await write_frame_async(
            writer,
            {
                "type": "welcome",
                "protocol": PROTOCOL,
                "broker": self.broker_id,
                "heartbeat": self.config.resolved_heartbeat(),
                "lease_timeout": self.config.lease_timeout,
                "generation": self.generation,
            },
        )
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None or frame.get("type") == "bye":
                    break
                await self._worker_frame(worker, frame)
        except (ProtocolError, ConnectionError, OSError):
            pass  # torn frame / dead socket: treated exactly like a lapse
        finally:
            # A reconnecting worker reuses its id: if a fresh connection
            # already replaced this one in the registry, this stale
            # session must not evict it or release its adopted leases.
            if self.workers.get(worker.worker_id) is worker:
                self.workers.pop(worker.worker_id, None)
            self._record("worker-leave", worker=worker.worker_id, completed=worker.completed)
            await self._broadcast_event("worker-leave", worker=worker.worker_id)
            await self._note_unservable()
            # Don't wait for the lease deadline: the connection death *is*
            # the signal that any in-flight task needs a new home.
            for key in list(worker.leased):
                task = self.tasks.get(key)
                if task is None or task.status != LEASED or task.worker != worker.worker_id:
                    continue
                successor = self.workers.get(worker.worker_id)
                if successor is not None and successor is not worker and key in successor.leased:
                    continue  # the lease lives on over the new connection
                await self._release_lease(task, reason="worker disconnected")
            self._gauges()
            self._snapshot_state()
            writer.close()

    async def _worker_frame(self, worker: _WorkerConn, frame: dict[str, Any]) -> None:
        kind = frame.get("type")
        if kind == "lease":
            task = self._lease_for(worker)
            if task is None:
                await write_frame_async(
                    worker.writer, {"type": "idle", "drain": self._drained}
                )
                return
            task.lease_seq += 1
            message = {"type": "task", "key": task.key, "payload": task.payload}
            checkpoint = self._checkpoint_plumbing(task)
            if checkpoint is not None:
                message["checkpoint"] = checkpoint
            if task.trace is not None:
                now = time.time()
                await self._emit_span(
                    self._make_span(task, "queued", task.queued_since or now, now), task
                )
                queue_seconds = now - task.queued_since if task.queued_since else 0.0
                self.metrics.histogram(
                    "fleet_queue_seconds", "Seconds a task waited for a lease."
                ).observe(max(0.0, queue_seconds))
                task.lease_span = self._spans.mint_id()
                task.lease_started = now
                # The worker parents its running span under this lease span
                # and mints its own ids, prefixed by its worker id.
                message["trace"] = {
                    "trace": task.trace["trace"],
                    "parent": task.lease_span,
                    "origin": worker.worker_id,
                }
            # Recorded after the span mint so a recovering broker restores
            # the open lease span id along with the lease itself.
            self._record(
                "lease",
                key=task.key,
                worker=worker.worker_id,
                releases=task.releases,
                lease_seq=task.lease_seq,
                span=task.lease_span,
            )
            self._gauges()
            await write_frame_async(worker.writer, message)
            return
        key = frame.get("key")
        task = self.tasks.get(key) if isinstance(key, str) else None
        if kind == "heartbeat":
            self._note_worker_metrics(worker.worker_id, frame)
            keys = frame.get("keys")
            if not isinstance(keys, list):
                keys = [key] if isinstance(key, str) else []
            for each in keys:
                held = self.tasks.get(each) if isinstance(each, str) else None
                if held is None:
                    continue
                if held.status == LEASED and held.worker == worker.worker_id:
                    held.deadline = time.monotonic() + self.config.lease_timeout
                    if each not in worker.leased or held.adopted:
                        # First pulse over a fresh connection for a lease
                        # granted before the old one (or the broker) died.
                        await self._adopt_lease(worker, held, via="heartbeat")
                elif held.status == QUEUED and _fits(held, worker) and each not in worker.leased:
                    # The lease lapsed (reaped, or recovery grace expired)
                    # but the worker is demonstrably still computing it —
                    # re-adopting beats double-executing.
                    await self._adopt_lease(worker, held, via="heartbeat")
            return
        if kind == "reattach":
            adopted: list[str] = []
            rejected: list[str] = []
            for each in frame.get("keys") or []:
                held = self.tasks.get(each) if isinstance(each, str) else None
                if held is not None and (
                    (held.status == LEASED and held.worker == worker.worker_id)
                    or (held.status == QUEUED and _fits(held, worker))
                ):
                    await self._adopt_lease(worker, held, via="reattach")
                    adopted.append(each)
                else:
                    # Already resolved, or re-leased to a live worker —
                    # the reattaching worker must drop the slot.
                    rejected.append(each)
            await write_frame_async(
                worker.writer, {"type": "reattach-ok", "adopted": adopted, "rejected": rejected}
            )
            self._snapshot_state()
            return
        if kind == "complete":
            self._note_worker_metrics(worker.worker_id, frame)
            worker.leased.discard(key)
            if task is None or task.status in (DONE, FAILED):
                # Duplicate completion of a re-leased task: idempotent keys
                # make this safe to acknowledge and drop.
                self._record("duplicate-complete", key=key, worker=worker.worker_id)
                return
            worker.completed += 1
            await self._complete_task(task, dict(frame.get("result") or {}), worker.worker_id)
            return
        if kind == "fail":
            worker.leased.discard(key)
            if task is None or task.status in (DONE, FAILED):
                return
            await self._fail_task(task, str(frame.get("error", "worker error")), worker.worker_id)
            return
        raise ProtocolError(f"unexpected worker frame type {kind!r}")

    async def _client_session(
        self, hello: dict[str, Any], reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _ClientConn(
            run_id=str(hello.get("run", f"run-{uuid.uuid4().hex[:8]}")),
            fingerprint=str(hello.get("code", "")),
            writer=writer,
            package=str(hello.get("package", "")),
        )
        self.clients.append(client)
        self._record("run-start", run=client.run_id)
        await write_frame_async(
            writer,
            {
                "type": "welcome",
                "protocol": PROTOCOL,
                "broker": self.broker_id,
                "generation": self.generation,
            },
        )
        try:
            while True:
                frame = await read_frame_async(reader)
                if frame is None or frame.get("type") == "bye":
                    break
                if frame.get("type") != "submit":
                    raise ProtocolError(f"unexpected client frame type {frame.get('type')!r}")
                await self._submit(client, frame)
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            # An abandoned run's queued tasks still execute (their results
            # land in the shared cache for the retry), so no cleanup here
            # beyond forgetting the result subscriptions.
            if client in self.clients:
                self.clients.remove(client)
            self._record("run-leave", run=client.run_id)
            writer.close()

    async def _submit(self, client: _ClientConn, frame: dict[str, Any]) -> None:
        entries = frame.get("tasks") or []
        client.submitted += len(entries)
        self._record("submit", run=client.run_id, tasks=len(entries))
        for entry in entries:
            key = entry["key"]
            trace_ctx = entry.get("trace")
            if not (isinstance(trace_ctx, dict) and trace_ctx.get("trace")):
                trace_ctx = None
            task = self.tasks.get(key)
            if task is None:
                self._order += 1
                task = _Task(
                    key=key,
                    payload=dict(entry["payload"]),
                    run_id=client.run_id,
                    fingerprint=client.fingerprint_for(entry["payload"]),
                    trace=trace_ctx,
                    queued_since=time.time(),
                    order=self._order,
                    group=_task_group(entry["payload"]),
                )
                if task.trace is not None:
                    await self._emit_span(
                        self._make_span(task, "submitted", time.time(), run=client.run_id),
                        task,
                    )
                cached = self._cached_result(task)
                if cached is not None:
                    bundle, source = cached
                    task.status = DONE
                    origin = bundle.get("origin") or {}
                    task.worker = origin.get("worker")
                    task.result = bundle
                    self.tasks[key] = task
                    client.outstanding.add(key)
                    self._record("cache-hit", key=key, source=source, run=client.run_id)
                    if task.trace is not None:
                        # Zero-length queue wait: the chain stays complete
                        # (submitted → queued) even when nothing ran.
                        now = time.time()
                        await self._emit_span(
                            self._make_span(task, "queued", now, now, source=source)
                        )
                    await self._resolve(task, source=source)
                    continue
                self.tasks[key] = task
                self.queue.append(key)
                client.outstanding.add(key)
                # Durable birth record (payload included) so a restarted
                # broker can requeue this task without its client. fsync
                # is batched: one sync below covers the whole submit.
                self._record(
                    "task",
                    sync=False,
                    key=key,
                    run=client.run_id,
                    code=task.fingerprint,
                    order=task.order,
                    group=task.group or None,
                    payload=task.payload,
                    trace=task.trace,
                )
            elif task.status == DONE:
                if task.result is None and not await self._reserve_recovered(client, task, entry):
                    continue
                # Another run already computed this key (content-addressed
                # dedup across clients): serve it straight from memory.
                client.outstanding.add(key)
                self._record("cache-hit", key=key, source="memory", run=client.run_id)
                await self._resolve(task, source="remote-cache")
            elif task.status == FAILED:
                client.outstanding.add(key)
                await self._resolve(task, source="failed")
            else:
                # Already queued or leased (submitted by another client, or
                # re-adopted across a broker restart): subscribe, and replay
                # the span chain so the resumed run's trace stays complete.
                client.outstanding.add(key)
                if task.trace is None and trace_ctx is not None:
                    task.trace = trace_ctx
                if trace_ctx is not None:
                    for span in task.span_log:
                        with contextlib.suppress(ConnectionError, ProtocolError, OSError):
                            await write_frame_async(
                                client.writer,
                                {"type": "event", "kind": "span", "span": span},
                            )
        if self.store is not None:
            self.store.sync()
        await self._note_unservable()
        if not client.outstanding:
            await write_frame_async(client.writer, {"type": "done"})
        self._gauges()
        self._snapshot_state()
        self._wake_reaper.set()

    async def _reserve_recovered(
        self, client: _ClientConn, task: _Task, entry: dict[str, Any]
    ) -> bool:
        """Restore a recovered DONE task's result; False = requeued instead.

        A restart keeps terminal rows only as bookkeeping — the bundle
        itself lives in the shared cache. Cache hit: rehydrate and serve.
        Cache miss (no ``--cache-dir``, or the entry was pruned):
        recompute from the resubmitted payload — at-least-once over
        idempotent keys makes that safe.
        """
        cached = self._cached_result(task)
        if cached is not None:
            bundle, _source = cached
            origin = bundle.get("origin") or {}
            task.worker = origin.get("worker") or task.worker
            task.result = bundle
            return True
        task.payload = dict(entry["payload"])
        task.fingerprint = client.fingerprint_for(task.payload)
        task.status = QUEUED
        task.queued_since = time.time()
        task.trace = task.trace or (
            entry.get("trace") if isinstance(entry.get("trace"), dict) else None
        )
        self.queue.append(task.key)
        client.outstanding.add(task.key)
        self._record(
            "task",
            key=task.key,
            run=client.run_id,
            code=task.fingerprint,
            order=task.order,
            group=task.group or None,
            payload=task.payload,
            trace=task.trace,
            recomputed=True,
        )
        return False

    # ------------------------------------------------------------------
    # lease reaper + server lifecycle
    # ------------------------------------------------------------------

    async def _reap_leases(self) -> None:
        """Re-lease tasks whose workers stopped heartbeating."""
        interval = max(0.02, self.config.lease_timeout / 4.0)
        while not self._stopping.is_set():
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._wake_reaper.wait(), timeout=interval)
            self._wake_reaper.clear()
            now = time.monotonic()
            for task in list(self.tasks.values()):
                if task.status == LEASED and now > task.deadline:
                    worker = self.workers.get(task.worker or "")
                    if worker is not None:
                        worker.leased.discard(task.key)
                    await self._release_lease(task, reason="lease expired (heartbeat lapse)")
            self._snapshot_state()

    async def serve(self) -> None:
        """Bind, announce the port, and run until :meth:`shutdown`."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            ssl=self.config.tls_context(),
        )
        sockets = self._server.sockets or []
        self.port = sockets[0].getsockname()[1] if sockets else self.config.port
        if self.config.port_file is not None:
            port_path = Path(self.config.port_file)
            port_path.parent.mkdir(parents=True, exist_ok=True)
            port_path.write_text(f"{self.port}\n", encoding="utf-8")
        self._record(
            "broker-start",
            broker=self.broker_id,
            port=self.port,
            generation=self.generation,
            recovered=self._recovered,
        )
        reaper = asyncio.ensure_future(self._reap_leases())
        try:
            await self._stopping.wait()
        finally:
            reaper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await reaper
            self._server.close()
            await self._server.wait_closed()
            for session in list(self._sessions):
                session.cancel()
            if self._sessions:
                await asyncio.gather(*self._sessions, return_exceptions=True)
            self._record("broker-stop", broker=self.broker_id)
            self._write_fleet_prom()
            self._write_manifest()
            if self.store is not None:
                self.store.close()

    def shutdown(self) -> None:
        """Request an orderly stop (signal-handler and test safe)."""
        self._stopping.set()
        self._wake_reaper.set()

    def _write_manifest(self) -> None:
        """Stamp the state dir with the standard telemetry run manifest."""
        if self.store is None:
            return
        from repro.telemetry.manifest import build_manifest, write_manifest

        tel = _telemetry_current()
        # Without a process-wide telemetry session the broker still has its
        # own fleet registry — the manifest is never metrics-blind.
        metrics = tel.registry.snapshot() if tel is not None else self.metrics.snapshot()
        config = {
            "role": "broker",
            "broker": self.broker_id,
            "generation": self.generation,
            "auth": self.config.auth_token is not None,
            "tls": self.config.tls_cert is not None,
            "host": self.config.host,
            "port": self.port,
            "lease_timeout": self.config.lease_timeout,
            "max_retries": self.config.max_retries,
            "max_releases": self.config.max_releases,
            "cache_dir": str(self.config.cache_dir) if self.config.cache_dir else None,
            "workers_seen": sorted(
                {e.get("worker") for e in self._worker_events()} - {None}
            ),
            "tasks_total": len(self.tasks),
            "releases_total": sum(t.releases for t in self.tasks.values()),
        }
        write_manifest(build_manifest(config, seeds=[], metrics=metrics), self.store.directory)

    def _worker_events(self) -> list[dict[str, Any]]:
        from repro.distributed.store import read_events

        if self.store is None:
            return []
        return [e for e in read_events(self.store.directory) if e["event"] == "worker-join"]


def run_broker(config: BrokerConfig, announce=None) -> None:
    """Blocking broker entry point with SIGINT/SIGTERM orderly shutdown."""
    import signal

    async def _main() -> None:
        broker = Broker(config)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(sig, broker.shutdown)
        serve = asyncio.ensure_future(broker.serve())
        # Wait for the bind so the announcement carries the real port.
        while broker.port is None and not serve.done():
            await asyncio.sleep(0.01)
        if announce is not None and broker.port is not None:
            announce(broker.port)
        await serve

    asyncio.run(_main())


def resolve_address(address: str) -> tuple[str, int]:
    """Parse ``host:port`` (or ``:port`` / bare port) into a socket address."""
    from repro.errors import DistributedError

    text = address.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError as err:
        raise DistributedError(f"invalid broker address {address!r}: {err}") from err
    if not (0 < port < 65536):
        raise DistributedError(f"invalid broker port {port} in {address!r}")
    try:
        socket.getaddrinfo(host, port)
    except socket.gaierror as err:
        raise DistributedError(f"unresolvable broker host {host!r}: {err}") from err
    return host, port
