"""Preemption: SIGKILL a worker mid-task and mid-upload, lose nothing.

Real worker *subprocesses* (the ``repro worker`` CLI path) against an
in-process broker. The chaos hooks arm the kill inside the worker:

* ``at_round`` — the worker SIGKILLs itself mid-simulation, after that
  round's checkpoint write;
* ``match="upload capped"`` — the worker SIGKILLs itself in the window
  between computing a measurement result and sending the ``complete``
  frame (``match="upload discover:"`` does the same to a discovery
  task, which the fleet runs before any measurement).

Either way the broker must re-lease, a surviving worker must finish the
sweep (resuming from the newest checkpoint when one exists), and the
merged CSV must be byte-identical to a run that was never touched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.experiments import Profile, run_experiment
from repro.distributed.store import read_events
from repro.faults.chaos import CHAOS_ENV
from repro.parallel.runner import run_experiments
from repro.parallel.tasks import payload_key, profile_payload

TINY = Profile(name="tiny", n=256, measure=30, replicates=2, seed=4242)

#: Broker key of fig4_left's discovery task at TINY.
DISCOVERY_KEY = payload_key({"experiment_id": "fig4_left", "profile": profile_payload(TINY)})


def spawn_worker(address: str, worker_id: str, chaos: dict | None = None) -> subprocess.Popen:
    env = dict(os.environ)
    src = str((os.path.dirname(__file__) + "/../../src").replace("\\", "/"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if chaos is not None:
        env[CHAOS_ENV] = json.dumps(chaos)
    else:
        env.pop(CHAOS_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", address, "--id", worker_id, "--quiet"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def reap(*procs: subprocess.Popen) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture
def serial_csv():
    return run_experiment("fig4_left", TINY).csv()


class TestSigkillMidTask:
    def test_killed_worker_releases_and_checkpoint_resumes(
        self, make_broker, tmp_path, serial_csv
    ):
        # Broker owns checkpoints: every lease carries a snapshot dir, so
        # the re-leased task can resume where the dead worker left off.
        broker = make_broker(
            state_dir=tmp_path / "state",
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=10,
            lease_timeout=10.0,
        )
        # Victim kills itself (SIGKILL, no cleanup) after round 20 of its
        # first task — after the round-20 snapshot hit disk.
        victim = spawn_worker(
            broker.address,
            "victim",
            chaos={
                "action": "kill",
                "at_round": 20,
                "times": 1,
                "marker_dir": str(tmp_path / "markers"),
            },
        )
        survivor = spawn_worker(broker.address, "survivor")
        try:
            cache_dir = tmp_path / "cache"
            report = run_experiments(
                ["fig4_left"], profile=TINY, broker=broker.address, cache_dir=cache_dir
            )
            assert report.results[0].csv() == serial_csv
            assert report.tasks_releases >= 1
            assert report.tasks_quarantined == 0
            assert report.remote_workers.get("survivor", 0) > 0

            # The journal carries the full story: the re-leased task was
            # computed remotely AND resumed from the victim's snapshot.
            entries = [
                json.loads(line)
                for line in (cache_dir / "journal.jsonl").read_text().splitlines()
            ]
            resumed = [
                e
                for e in entries
                if e.get("provenance", {}).get("resumed_round") is not None
            ]
            assert len(resumed) >= 1
            assert resumed[0]["provenance"]["source"] == "remote"
            assert resumed[0]["provenance"]["resumed_round"] == 20
            assert resumed[0]["provenance"]["releases"] >= 1
        finally:
            reap(victim, survivor)

        # The victim really died by SIGKILL.
        assert victim.wait(timeout=10) == -9

        # The broker's event log shows the re-lease and the resume.
        events = list(read_events(tmp_path / "state"))
        releases = [e for e in events if e["event"] == "re-lease"]
        assert any(e["worker"] == "victim" for e in releases)
        resumed_completes = [
            e
            for e in events
            if e["event"] == "complete" and e.get("resumed_round") is not None
        ]
        assert any(e["worker"] == "survivor" for e in resumed_completes)

        # Durable outcomes mean every snapshot dir was cleaned up.
        assert not any((tmp_path / "ckpt").iterdir())


class TestSigkillMidUpload:
    def test_killed_upload_is_recomputed_losslessly(self, make_broker, tmp_path, serial_csv):
        broker = make_broker(state_dir=tmp_path / "state", lease_timeout=10.0)
        # Victim computes its first task fully, then dies in the window
        # between the result existing in memory and the complete frame.
        victim = spawn_worker(
            broker.address,
            "victim",
            chaos={
                "action": "kill",
                "match": "upload capped",
                "times": 1,
                "marker_dir": str(tmp_path / "markers"),
            },
        )
        survivor = spawn_worker(broker.address, "survivor")
        try:
            report = run_experiments(["fig4_left"], profile=TINY, broker=broker.address)
            assert report.results[0].csv() == serial_csv
            assert report.tasks_releases >= 1
            assert report.tasks_quarantined == 0
            assert report.tasks_remote == report.tasks_total
        finally:
            reap(victim, survivor)
        assert victim.wait(timeout=10) == -9

        # Exactly one measurement was torn mid-upload; it completed
        # elsewhere and no duplicate outcome leaked into the results store.
        events = list(read_events(tmp_path / "state"))
        assert any(
            e["event"] == "re-lease" and e["worker"] == "victim" and e["key"] != DISCOVERY_KEY
            for e in events
        )
        measured = [e for e in events if e["event"] == "complete" and e["key"] != DISCOVERY_KEY]
        assert len(measured) == report.tasks_total
        assert len({e["key"] for e in measured}) == report.tasks_total


def sweep_replacing_the_only_worker(broker, tmp_path, match: str):
    """Run fig4_left on a one-worker fleet whose worker SIGKILLs itself in
    the upload window of the first task labelled ``match``; a replacement
    joins once it is dead. Returns the sweep report."""
    victim = spawn_worker(
        broker.address,
        "victim",
        chaos={
            "action": "kill",
            "match": match,
            "times": 1,
            "marker_dir": str(tmp_path / "markers"),
        },
    )
    replacement: list[subprocess.Popen] = []

    def replace_when_dead():
        victim.wait()
        time.sleep(0.2)
        replacement.append(spawn_worker(broker.address, "replacement"))

    watcher = threading.Thread(target=replace_when_dead, daemon=True)
    watcher.start()
    try:
        report = run_experiments(["fig4_left"], profile=TINY, broker=broker.address)
        watcher.join(timeout=10)
    finally:
        reap(victim, *replacement)
    assert victim.wait(timeout=10) == -9
    return report


class TestWorkerRestartAfterKill:
    def test_single_worker_fleet_recovers_when_worker_is_replaced(
        self, make_broker, tmp_path, serial_csv
    ):
        # Harsher variant: the ONLY worker dies; the sweep stalls until a
        # replacement joins, then finishes correctly.
        broker = make_broker(state_dir=tmp_path / "state", lease_timeout=10.0)
        report = sweep_replacing_the_only_worker(broker, tmp_path, match="upload capped")
        assert report.results[0].csv() == serial_csv
        assert report.tasks_releases >= 1
        assert report.remote_workers.get("replacement", 0) > 0


class TestSigkillMidDiscoveryUpload:
    def test_killed_discovery_upload_is_rerun_by_the_replacement(
        self, make_broker, tmp_path, serial_csv
    ):
        # The only worker dies holding fig4_left's finished discovery plan;
        # the broker re-leases the discovery task to the replacement, and
        # the measurements it plans then run as usual.
        broker = make_broker(state_dir=tmp_path / "state", lease_timeout=10.0)
        report = sweep_replacing_the_only_worker(broker, tmp_path, match="upload discover:")
        assert report.results[0].csv() == serial_csv
        assert report.tasks_quarantined == 0

        events = list(read_events(tmp_path / "state"))
        releases = [e for e in events if e["event"] == "re-lease"]
        assert [(e["key"], e["worker"]) for e in releases] == [(DISCOVERY_KEY, "victim")]
        discovered = [e for e in events if e["event"] == "complete" and e["key"] == DISCOVERY_KEY]
        assert [e["worker"] for e in discovered] == ["replacement"]


class TestTracedPreemption:
    def test_trace_reconstructs_the_kill_and_resume_chain(
        self, make_broker, tmp_path, serial_csv
    ):
        """Acceptance bar for fleet tracing: a SIGKILLed worker's task must
        show its full story in ``trace.jsonl`` — the original lease
        (released on death), the re-lease, and the checkpoint resume —
        while every other journaled task shows a complete span chain and
        the merged CSV stays byte-identical to the untouched serial run.
        """
        from repro.telemetry import runtime
        from repro.telemetry.tracing import Tracer, assemble_traces, read_spans, trace_gaps

        broker = make_broker(
            state_dir=tmp_path / "state",
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=10,
            lease_timeout=10.0,
        )
        victim = spawn_worker(
            broker.address,
            "victim",
            chaos={
                "action": "kill",
                "at_round": 20,
                "times": 1,
                "marker_dir": str(tmp_path / "markers"),
            },
        )
        survivor = spawn_worker(broker.address, "survivor")
        trace_path = tmp_path / "trace.jsonl"
        runtime.disable()
        try:
            with runtime.session(tracer=Tracer(trace_path)):
                report = run_experiments(["fig4_left"], profile=TINY, broker=broker.address)
            assert report.results[0].csv() == serial_csv
            assert report.tasks_releases >= 1
        finally:
            reap(victim, survivor)
        assert victim.wait(timeout=10) == -9

        traces = assemble_traces(read_spans(trace_path))
        assert len(traces) == report.tasks_total
        for trace in traces:
            assert trace_gaps(trace) == [], f"incomplete chain for {trace.label}"

        def lease_status(span):
            return (span.get("attrs") or {}).get("status")

        killed = [
            t
            for t in traces
            if any(lease_status(s) == "released" for s in t.named("leased"))
        ]
        assert killed, "no trace shows the victim's released lease"
        story = killed[0]
        leases = sorted(story.named("leased"), key=lambda s: s["attrs"]["seq"])
        assert lease_status(leases[0]) == "released"
        assert leases[0]["attrs"]["worker"] == "victim"
        assert lease_status(leases[-1]) == "ok"
        assert leases[-1]["attrs"]["worker"] == "survivor"
        # The re-leased attempt resumed from the victim's round-20 snapshot.
        (checkpoint,) = story.named("checkpoint")
        assert checkpoint["attrs"]["resumed_round"] == 20
        # The resume's running span sits under the surviving lease.
        assert any(s["parent"] == leases[-1]["span"] for s in story.named("running"))
        # Each lease attempt re-queued the task first.
        assert len(story.named("queued")) == len(leases)
        assert story.root["attrs"]["releases"] >= 1
