"""Discovery on the fleet: a broker sweep computes nothing in the client.

In broker mode the runner submits each experiment's discovery payload to
the broker like any other task. Workers run the generator under a
recording context and return its plan (or, for experiments that make no
measurement calls, its finished result). These tests pin the contract:
the merged CSVs stay byte-identical to serial, discovery never runs in
the client, a discovery task only goes to a worker running the same
package, and discovery bundles never enter the measurement result cache.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.analysis.experiments import Profile, run_experiment
from repro.distributed import BrokerClient
from repro.distributed.protocol import PROTOCOL, connect_broker, open_hello, recv_frame, send_frame
from repro.errors import DistributedError, ParallelExecutionError
from repro.parallel import runner as runner_module
from repro.parallel.keys import measurement_fingerprint
from repro.parallel.runner import ExperimentRunner, run_experiments
from repro.parallel.tasks import payload_key, profile_payload

from .test_broker import payload_for

TINY = Profile(name="tiny", n=256, measure=30, replicates=2, seed=4242)

#: fig4_left is measured through sweep tasks; drain_stages makes no
#: measurement calls, so its discovery run is its final result.
MIXED = ["fig4_left", "drain_stages"]


def discovery_payload(experiment_id: str) -> dict:
    return {"experiment_id": experiment_id, "profile": profile_payload(TINY)}


@pytest.fixture
def fleet(make_broker, stub_worker):
    """A broker with two real workers attached."""
    broker = make_broker()
    stub_worker(broker.address, worker_id="fleet-a")
    stub_worker(broker.address, worker_id="fleet-b")
    return broker


class TestDiscoveryOnTheFleet:
    def test_mixed_sweep_is_byte_identical_to_serial(self, fleet):
        report = run_experiments(MIXED, profile=TINY, broker=fleet.address)
        assert not report.failures
        produced = {result.experiment_id: result.csv() for result in report.results}
        for experiment_id in MIXED:
            assert produced[experiment_id] == run_experiment(experiment_id, TINY).csv()
        assert report.tasks_remote == report.tasks_total > 0
        assert len(report.timings.by_group["discover"]) == len(MIXED)

    def test_discovery_never_runs_in_the_client(self, fleet, monkeypatch):
        def refuse(payload):
            raise AssertionError("discover_experiment ran in the client")

        monkeypatch.setattr(runner_module, "discover_experiment", refuse)
        report = run_experiments(MIXED, profile=TINY, broker=fleet.address)
        assert not report.failures
        assert len(report.results) == len(MIXED)
        for experiment_id in MIXED:
            task = fleet.broker.tasks[payload_key(discovery_payload(experiment_id))]
            assert task.status == "done"
            assert task.worker in ("fleet-a", "fleet-b")

    def test_discovery_keys_differ_from_measurement_keys(self):
        key = payload_key(discovery_payload("fig4_left"))
        assert key != payload_key(discovery_payload("drain_stages"))
        other = Profile(name="tiny", n=256, measure=30, replicates=2, seed=1)
        assert key != payload_key({"experiment_id": "fig4_left", "profile": profile_payload(other)})
        assert key != payload_key(payload_for(0))

    def test_jobs_with_broker_is_refused(self):
        with pytest.raises(ParallelExecutionError, match="no effect with a broker"):
            ExperimentRunner(profile=TINY, jobs=2, broker="127.0.0.1:7070")


class TestPackageFingerprint:
    def _raw_worker(self, address: str, package: str) -> socket.socket:
        host, port = address.rsplit(":", 1)
        sock = connect_broker(host, int(port))
        sock.settimeout(10.0)
        welcome = open_hello(
            sock,
            {
                "type": "hello",
                "role": "worker",
                "protocol": PROTOCOL,
                "worker": "stale",
                "code": measurement_fingerprint(),
                "package": package,
            },
        )
        assert welcome["type"] == "welcome"
        return sock

    def test_mismatched_package_leases_measurements_but_not_discovery(self, make_broker):
        broker = make_broker()
        stale = self._raw_worker(broker.address, package="some-other-build")
        discovery = discovery_payload("fig4_left")
        measurement = payload_for(0)
        events: list[dict] = []
        client = BrokerClient(broker.address, max_reconnects=0, on_event=events.append)

        def consume() -> None:
            # Never finishes: nobody here can run the discovery task, and
            # the broker stops at teardown.
            with client, contextlib.suppress(DistributedError):
                list(client.run_tasks([discovery, measurement]))

        threading.Thread(target=consume, daemon=True).start()
        try:
            leased = []
            deadline = time.monotonic() + 10.0
            while not leased and time.monotonic() < deadline:
                send_frame(stale, {"type": "lease"})
                frame = recv_frame(stale)
                if frame["type"] == "task":
                    leased.append(frame["payload"])
                else:
                    time.sleep(0.02)
            assert leased == [measurement]
            # The discovery task stays queued: this worker runs other code.
            for _ in range(3):
                send_frame(stale, {"type": "lease"})
                assert recv_frame(stale)["type"] == "idle"
            assert broker.broker.tasks[payload_key(discovery)].status == "queued"
            # ...and the client is told why, rather than waiting in silence.
            notices = [e for e in events if e["kind"] == "no-matching-worker"]
            assert notices and notices[0]["discovery"] == 1
            assert notices[0]["workers"] == 1
        finally:
            send_frame(stale, {"type": "bye"})
            stale.close()

    def test_stalled_sweep_warns_then_finishes_when_a_match_joins(
        self, make_broker, stub_worker, capsys
    ):
        broker = make_broker()
        stale = self._raw_worker(broker.address, package="some-other-build")
        reports = []
        sweep = threading.Thread(
            target=lambda: reports.append(
                run_experiments(["drain_stages"], profile=TINY, broker=broker.address)
            ),
            daemon=True,
        )
        sweep.start()
        try:
            warned = ""
            deadline = time.monotonic() + 10.0
            while "discovery" not in warned and time.monotonic() < deadline:
                time.sleep(0.05)
                warned += capsys.readouterr().err
            assert "fit none of the 1 connected worker(s)" in warned
            assert "same whole repro package" in warned
            stub_worker(broker.address, worker_id="matching")
            sweep.join(timeout=30.0)
            assert reports and not reports[0].failures
            assert reports[0].results[0].csv() == run_experiment("drain_stages", TINY).csv()
        finally:
            send_frame(stale, {"type": "bye"})
            stale.close()


class TestBrokerCache:
    def test_discovery_bundles_never_enter_the_result_cache(
        self, make_broker, stub_worker, tmp_path
    ):
        cache_dir = tmp_path / "broker-cache"
        broker = make_broker(cache_dir=cache_dir)
        stub_worker(broker.address, worker_id="cached")
        report = run_experiments(MIXED, profile=TINY, broker=broker.address)
        assert not report.failures
        entries = [json.loads(path.read_text()) for path in cache_dir.glob("*.json")]
        assert len(entries) == report.tasks_total > 0
        assert all("outcome" in entry for entry in entries)
        for experiment_id in MIXED:
            key = payload_key(discovery_payload(experiment_id))
            assert not list(cache_dir.glob(f"{key}*"))
        # A fresh broker on the same cache directory serves every
        # measurement from the cache, and discovery reruns on its fleet.
        second = make_broker(cache_dir=cache_dir)
        stub_worker(second.address, worker_id="fresh")
        again = run_experiments(MIXED, profile=TINY, broker=second.address)
        assert [r.csv() for r in again.results] == [r.csv() for r in report.results]
        assert again.tasks_from_remote_cache == again.tasks_total
        for experiment_id in MIXED:
            task = second.broker.tasks[payload_key(discovery_payload(experiment_id))]
            assert (task.status, task.worker) == ("done", "fresh")
