"""Chaos proof: SIGKILL the broker mid-sweep, restart it, lose nothing.

A real ``repro broker`` subprocess is killed with SIGKILL (no cleanup,
no atexit) while a multi-slot worker fleet is mid-sweep, then a
successor broker is started on the same ``--state-dir`` and port. The
acceptance bar from the paper-repro roadmap:

* the merged CSV is byte-identical to a serial run that was never
  interrupted;
* no task executes twice to completion (events.jsonl accounting);
* the successor runs as generation 2 and re-adopts surviving leases
  (``reattach`` events), visible to ``repro trace`` consumers.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.experiments import Profile, run_experiment
from repro.distributed.store import read_events
from repro.faults.chaos import CHAOS_ENV
from repro.parallel.runner import run_experiments
from repro.parallel.tasks import payload_key, profile_payload

TINY = Profile(name="tiny", n=256, measure=30, replicates=2, seed=4242)
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def child_env(chaos: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    if chaos is not None:
        env[CHAOS_ENV] = json.dumps(chaos)
    else:
        env.pop(CHAOS_ENV, None)
    return env


def spawn_broker(tmp_path, port: int = 0) -> tuple[subprocess.Popen, int]:
    port_file = tmp_path / f"port.{time.monotonic_ns()}"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "broker",
            "--host", "127.0.0.1", "--port", str(port),
            "--port-file", str(port_file),
            "--state-dir", str(tmp_path / "state"),
            "--cache-dir", str(tmp_path / "cache"),
            "--lease-timeout", "10.0",
        ],
        env=child_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text().strip())
        if proc.poll() is not None:
            raise RuntimeError(f"broker exited early with {proc.returncode}")
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("broker did not write its port file in time")


def spawn_worker(
    address: str, worker_id: str, jobs: int = 2, chaos: dict | None = None
) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker", address,
            "--id", worker_id, "--jobs", str(jobs), "--quiet",
        ],
        env=child_env(chaos),
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


class TestBrokerSigkillMidSweep:
    def test_restarted_broker_resumes_the_sweep_losslessly(self, tmp_path, serial_csv):
        import threading

        first, port = spawn_broker(tmp_path)
        address = f"127.0.0.1:{port}"
        # One slot hangs for 6s right before uploading its first finished
        # measurement ("capped ..." label; the fleet runs fig4_left's
        # discovery first, and that upload must not be the one that hangs):
        # the marker file the chaos hook drops is our cross-process signal
        # that a measurement lease is provably held and the rest of the
        # measurement batch is queued, so the SIGKILL lands while the
        # worker still owes the broker an in-flight task. The hang outlasts
        # the restart, forcing the upload onto the generation-2 broker via
        # a reattach.
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        worker = spawn_worker(
            address,
            "fleet-a",
            jobs=2,
            chaos={
                "action": "hang",
                "match": "upload capped",
                "seconds": 6.0,
                "times": 1,
                "marker_dir": str(marker_dir),
            },
        )
        state_dir = tmp_path / "state"
        second: list[subprocess.Popen] = []

        def kill_and_restart() -> None:
            # Wait until the hang chaos has claimed its slot: from that
            # moment a lease is held and will stay held across the kill.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if any(marker_dir.iterdir()):
                    break
                time.sleep(0.05)
            os.kill(first.pid, signal.SIGKILL)
            first.wait(timeout=10)
            second.append(spawn_broker(tmp_path, port=port)[0])

        chaos = threading.Thread(target=kill_and_restart, daemon=True)
        chaos.start()
        try:
            report = run_experiments(["fig4_left"], profile=TINY, broker=address)
            chaos.join(timeout=30)
        finally:
            reap(worker, first, *second)

        # The broker really died by SIGKILL and a successor took over.
        assert first.returncode == -9
        assert second, "successor broker never started"

        # Byte-identical science: the interrupted sweep equals serial.
        assert report.results[0].csv() == serial_csv
        assert report.tasks_quarantined == 0
        # Every task ran on the fleet; work finished before the kill may be
        # re-served to the reconnected client from the recovered store as
        # remote-cache rather than streamed live, depending on timing.
        assert report.tasks_remote + report.tasks_from_remote_cache == report.tasks_total
        # The client rode through the outage.
        assert report.broker_reconnects >= 1

        events = list(read_events(state_dir))
        discovery = payload_key({"experiment_id": "fig4_left", "profile": profile_payload(TINY)})
        # The first generation died with measurements queued: their birth
        # records precede the recovery, so the successor re-queued them.
        recover_at = next(i for i, e in enumerate(events) if e["event"] == "broker-recover")
        assert any(
            e["event"] == "task" and e["key"] != discovery for e in events[:recover_at]
        )
        # Exactly one completion per measurement key — nothing executed
        # twice to completion, across both broker generations.
        measured = [e for e in events if e["event"] == "complete" and e["key"] != discovery]
        assert len(measured) == report.tasks_total
        assert len({e["key"] for e in measured}) == report.tasks_total
        # The successor recovered as generation 2.
        recoveries = [e for e in events if e["event"] == "broker-recover"]
        assert recoveries and recoveries[-1]["generation"] == 2
        # The worker's surviving leases were re-adopted, not re-executed:
        # reattach events carry the worker id and the new generation.
        reattaches = [e for e in events if e["event"] == "reattach"]
        assert any(e["worker"] == "fleet-a" and e["key"] != discovery for e in reattaches)
        # The client-side tally only counts reattach events it was connected
        # to witness; whether the worker or the client reconnects first is a
        # race, so the durable log above is the authoritative assertion.
        assert report.tasks_reattached <= len(reattaches)
