"""Worker-side task functions (module-level, so they pickle cleanly).

Two task shapes cross the process boundary:

* :func:`execute_task` — run one replicate of one measurement cell and
  return its outcome payload (plus wall-clock elapsed);
* :func:`discover_experiment` — run an experiment generator under a
  :class:`~repro.parallel.context.RecordingContext` to extract its
  measurement plan. Generators that never call the sweep helpers (pure
  driver experiments such as ``dominance`` or the ablations) execute for
  real during discovery, so their full cost also lands on a worker; their
  finished result is returned directly.

:func:`payload_key` and :func:`payload_label` tell the two shapes apart
(a discovery payload carries ``experiment_id``), so the pool, the broker
client and fleet workers can carry either.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ParallelExecutionError
from repro.faults.chaos import maybe_chaos
from repro.parallel.context import RecordingContext, use_context
from repro.parallel.keys import discovery_digest, point_key, task_digest

__all__ = [
    "TaskSpec",
    "execute_task",
    "discover_experiment",
    "is_discovery",
    "payload_key",
    "payload_label",
    "profile_payload",
    "result_payload",
    "result_from_payload",
]


@dataclass(frozen=True)
class TaskSpec:
    """One replicate of one measurement cell."""

    kind: str
    params: dict[str, Any]
    replicate: int

    @property
    def point_key(self) -> str:
        return point_key(self.kind, self.params)

    @property
    def digest(self) -> str:
        return task_digest(self.kind, self.params, self.replicate)

    @property
    def label(self) -> str:
        parts = [self.kind]
        for name in ("n", "c", "d", "lam"):
            if name in self.params and self.params[name] is not None:
                value = self.params[name]
                parts.append(
                    f"{name}={value:.6g}" if isinstance(value, float) else f"{name}={value}"
                )
        parts.append(f"r{self.replicate}")
        return " ".join(parts)

    def payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": self.params, "replicate": self.replicate}

    @staticmethod
    def from_payload(payload: dict[str, Any]) -> "TaskSpec":
        return TaskSpec(
            kind=payload["kind"],
            params=dict(payload["params"]),
            replicate=int(payload["replicate"]),
        )


def is_discovery(payload: dict[str, Any]) -> bool:
    """True for a :func:`discover_experiment` payload, False for a measurement."""
    return "experiment_id" in payload


def payload_key(payload: dict[str, Any]) -> str:
    """Content address of either task shape."""
    if is_discovery(payload):
        return discovery_digest(payload["experiment_id"], payload["profile"])
    return TaskSpec.from_payload(payload).digest


def payload_label(payload: dict[str, Any]) -> str:
    """Display label of either task shape."""
    if is_discovery(payload):
        return f"discover:{payload['experiment_id']}"
    return TaskSpec.from_payload(payload).label


def execute_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one replicate measurement; returns its outcome and timing.

    The optional ``checkpoint``/``trace``/``cprofile`` payload keys are
    runner plumbing, not part of the task identity:
    :meth:`TaskSpec.from_payload` ignores them, so the task digest — and
    hence the journal/cache key — is byte-identical with checkpointing,
    tracing, or profiling on or off. ``trace`` is a span context
    (``{"trace": id, "parent": span-id, "origin": minter-prefix}``): the
    worker then returns its lifecycle spans (``running``, and a
    ``checkpoint`` point span on resume) in the transient bundle.
    ``cprofile`` wraps the measurement in cProfile and returns top-N
    ``hotspots``. Journal and cache persist only the outcome, so neither
    ever affects results.
    """
    from repro.analysis.sweep import run_replicate

    checkpoint = payload.get("checkpoint") or {}
    checkpoint_dir = checkpoint.get("dir")
    checkpoint_every = checkpoint.get("every")
    trace_ctx = payload.get("trace") or None
    spec = TaskSpec.from_payload(payload)
    # Chaos hook for runner fault-tolerance tests: a no-op unless the
    # REPRO_CHAOS environment variable deliberately arms it.
    maybe_chaos(spec.label)
    resumed_round = None
    if checkpoint_dir is not None:
        from repro.checkpoint import CheckpointStore

        # Provenance peek only — the driver does its own (telemetry-visible)
        # restore from the same store when it starts stepping.
        resumed_round = CheckpointStore(checkpoint_dir).latest_round()
    start = time.perf_counter()
    started_unix = time.time()
    hotspots = None
    if payload.get("cprofile"):
        from repro.telemetry.profiling import profile_call

        outcome, hotspots = profile_call(
            run_replicate,
            spec.kind,
            spec.params,
            spec.replicate,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
    else:
        outcome = run_replicate(
            spec.kind,
            spec.params,
            spec.replicate,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
    elapsed = time.perf_counter() - start
    # The pid feeds per-worker throughput in --live-status; the journal
    # and cache persist only the outcome, so it never affects results.
    bundle = {
        "outcome": outcome.to_dict(),
        "elapsed": elapsed,
        "pid": os.getpid(),
        "resumed_round": resumed_round,
    }
    if hotspots is not None:
        bundle["hotspots"] = hotspots
    if trace_ctx and trace_ctx.get("trace"):
        from repro.telemetry.tracing import SpanBuffer

        spans = SpanBuffer(str(trace_ctx.get("origin") or f"p{os.getpid()}"))
        parent = trace_ctx.get("parent")
        running = spans.record(
            trace_ctx["trace"],
            "running",
            started_unix,
            started_unix + elapsed,
            parent=parent,
            pid=os.getpid(),
        )
        if resumed_round is not None:
            spans.record(
                trace_ctx["trace"],
                "checkpoint",
                started_unix,
                parent=running,
                resumed_round=resumed_round,
            )
        bundle["spans"] = spans.drain()
    return bundle


def profile_payload(profile: Any) -> dict[str, Any]:
    """Serialise a :class:`~repro.analysis.experiments.Profile`."""
    return {
        "name": profile.name,
        "n": profile.n,
        "measure": profile.measure,
        "replicates": profile.replicates,
        "seed": profile.seed,
    }


def result_payload(result: Any) -> dict[str, Any]:
    """Serialise an :class:`~repro.analysis.experiments.ExperimentResult`."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "profile": result.profile,
        "columns": result.columns,
        "rows": result.rows,
        "notes": result.notes,
        "verdicts": result.verdicts,
    }


def result_from_payload(payload: dict[str, Any]) -> Any:
    from repro.analysis.experiments import ExperimentResult

    return ExperimentResult(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        profile=payload["profile"],
        columns=list(payload["columns"]),
        rows=list(payload["rows"]),
        notes=list(payload["notes"]),
        verdicts=dict(payload["verdicts"]),
    )


def discover_experiment(payload: dict[str, Any]) -> dict[str, Any]:
    """Extract an experiment's measurement plan (worker side).

    Returns ``{"points": [...], "result": ..., "elapsed": ...}`` where
    ``result`` is the finished experiment payload when the generator made
    no measurement calls (its recording run *was* the real run), else None.
    """
    from repro.analysis.experiments import PROFILES, Profile, get_experiment

    experiment_id = payload["experiment_id"]
    profile_dict = payload["profile"]
    profile = PROFILES.get(profile_dict["name"])
    if profile is None or profile_payload(profile) != profile_dict:
        profile = Profile(**profile_dict)
    generator = get_experiment(experiment_id)
    recorder = RecordingContext()
    start = time.perf_counter()
    with use_context(recorder):
        result = generator(profile)
    if result is None:  # defensive: a generator must return a result
        raise ParallelExecutionError(f"experiment {experiment_id!r} returned no result")
    return {
        "points": list(recorder.points.values()),
        "result": None if recorder.calls else result_payload(result),
        "elapsed": time.perf_counter() - start,
    }
