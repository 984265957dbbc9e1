"""Broker semantics with stub workers: leases, dedup, retries, re-leases.

These tests run a real broker (background event loop) and real worker
protocol sessions, but the task function is stubbed so nothing here pays
for a simulation — this file is about the queue's delivery contract.
"""

from __future__ import annotations

import os
import socket
import time

import pytest

from repro.distributed import BrokerClient, RemoteTaskFailure
from repro.distributed.protocol import PROTOCOL, recv_frame, send_frame
from repro.distributed.store import read_events
from repro.errors import DistributedError
from repro.parallel.keys import measurement_fingerprint, task_digest
from repro.parallel.tasks import TaskSpec


def payload_for(index: int) -> dict:
    return {"kind": "capped", "params": {"n": 64, "c": 2, "lam": 0.5, "x": index}, "replicate": 0}


def stub_result(payload: dict) -> dict:
    return {
        "outcome": {"echo": payload["params"]},
        "elapsed": 0.001,
        "pid": os.getpid(),
        "resumed_round": None,
    }


def collect(client: BrokerClient, payloads: list[dict]) -> dict[str, object]:
    """Drain run_tasks into {digest: bundle-or-failure}."""
    results = {}
    with client:
        for payload, bundle in client.run_tasks(payloads):
            results[TaskSpec.from_payload(payload).digest] = bundle
    return results


class TestCompletion:
    def test_tasks_complete_with_worker_provenance(self, make_broker, stub_worker):
        broker = make_broker()
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-a")
        payloads = [payload_for(i) for i in range(6)]
        results = collect(BrokerClient(broker.address), payloads)
        assert len(results) == 6
        for payload in payloads:
            bundle = results[TaskSpec.from_payload(payload).digest]
            assert not isinstance(bundle, RemoteTaskFailure)
            assert bundle["outcome"] == {"echo": payload["params"]}
            assert bundle["source"] == "computed"
            assert bundle["worker"] == "stub-a"
            assert bundle["releases"] == 0

    def test_fleet_events_reach_the_client(self, make_broker, stub_worker):
        import threading

        broker = make_broker()
        events = []
        client = BrokerClient(broker.address, on_event=events.append)
        results: dict[str, object] = {}

        def drive():
            results.update(collect(client, [payload_for(0)]))

        # The client must be connected before the worker joins to see the
        # join event (fleet events are forwarded live, not replayed).
        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        time.sleep(0.3)
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-ev")
        driver.join(timeout=10.0)
        assert len(results) == 1
        kinds = {event["kind"] for event in events}
        assert "worker-join" in kinds

    def test_empty_submit_completes_immediately(self, make_broker):
        broker = make_broker()
        assert collect(BrokerClient(broker.address), []) == {}


class TestSharedCache:
    def test_completion_lands_in_shared_cache_with_origin(
        self, make_broker, stub_worker, tmp_path
    ):
        from repro.parallel.cache import ResultCache

        broker = make_broker(cache_dir=tmp_path / "cache")
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-c")
        payload = payload_for(1)
        collect(BrokerClient(broker.address), [payload])
        entry = ResultCache(tmp_path / "cache").get(TaskSpec.from_payload(payload).digest)
        assert entry is not None
        assert entry["outcome"] == {"echo": payload["params"]}
        assert entry["origin"]["worker"] == "stub-c"
        assert entry["origin"]["broker"]

    def test_second_run_is_served_from_cache_without_a_worker(
        self, make_broker, stub_worker, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        first = make_broker(cache_dir=cache_dir)
        stub_worker(first.address, task_fn=stub_result, worker_id="stub-d")
        payloads = [payload_for(i) for i in range(3)]
        collect(BrokerClient(first.address), payloads)
        first.stop()

        # A fresh broker over the same cache, with NO workers attached:
        # every task must resolve instantly as a remote-cache hit.
        second = make_broker(cache_dir=cache_dir)
        results = collect(BrokerClient(second.address), payloads)
        assert len(results) == 3
        for bundle in results.values():
            assert bundle["source"] == "remote-cache"

    def test_inflight_dedup_across_clients(self, make_broker, stub_worker):
        broker = make_broker()
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-e")
        payload = payload_for(2)
        first = collect(BrokerClient(broker.address, run_id="run-a"), [payload])
        second = collect(BrokerClient(broker.address, run_id="run-b"), [payload])
        digest = TaskSpec.from_payload(payload).digest
        assert first[digest]["source"] == "computed"
        # The broker remembers the resolved key in memory and never
        # re-executes it for a later run.
        assert second[digest]["source"] == "remote-cache"
        assert second[digest]["outcome"] == first[digest]["outcome"]


class TestFailures:
    def test_failing_task_retries_then_fails_terminally(self, make_broker, stub_worker):
        broker = make_broker(max_retries=2)

        def explode(payload):
            raise ValueError("injected stub failure")

        stub_worker(broker.address, task_fn=explode, worker_id="stub-f")
        payload = payload_for(3)
        results = collect(BrokerClient(broker.address), [payload])
        failure = results[TaskSpec.from_payload(payload).digest]
        assert isinstance(failure, RemoteTaskFailure)
        assert "injected stub failure" in failure.error
        assert failure.attempts == 3  # 1 first try + 2 retries

    def test_zero_retries_fails_on_first_error(self, make_broker, stub_worker):
        broker = make_broker(max_retries=0)

        def explode(payload):
            raise ValueError("no second chances")

        stub_worker(broker.address, task_fn=explode, worker_id="stub-g")
        results = collect(BrokerClient(broker.address), [payload_for(4)])
        (failure,) = results.values()
        assert isinstance(failure, RemoteTaskFailure)
        assert failure.attempts == 1

    def test_flaky_task_succeeds_after_retry(self, make_broker, stub_worker):
        broker = make_broker(max_retries=2)
        calls = {"count": 0}

        def flaky(payload):
            calls["count"] += 1
            if calls["count"] == 1:
                raise RuntimeError("first attempt dies")
            return stub_result(payload)

        events = []
        client = BrokerClient(broker.address, on_event=events.append)
        stub_worker(broker.address, task_fn=flaky, worker_id="stub-h")
        results = collect(client, [payload_for(5)])
        (bundle,) = results.values()
        assert not isinstance(bundle, RemoteTaskFailure)
        assert calls["count"] == 2
        assert sum(1 for e in events if e["kind"] == "retry") == 1


class TestReLease:
    def raw_worker_hello(self, address: str, worker_id: str) -> socket.socket:
        host, port = address.split(":")
        sock = socket.create_connection((host, int(port)), timeout=5.0)
        send_frame(
            sock,
            {
                "type": "hello",
                "role": "worker",
                "protocol": PROTOCOL,
                "worker": worker_id,
                "code": measurement_fingerprint(),
            },
        )
        welcome = recv_frame(sock)
        assert welcome["type"] == "welcome"
        return sock

    def lease_one(self, sock: socket.socket) -> dict:
        send_frame(sock, {"type": "lease"})
        frame = recv_frame(sock)
        assert frame["type"] == "task"
        return frame

    def drive_in_thread(self, client: BrokerClient, payloads: list[dict]):
        """Pump run_tasks from a thread so the test can play raw worker."""
        import threading

        results: dict[str, object] = {}

        def drive():
            results.update(collect(client, payloads))

        thread = threading.Thread(target=drive, daemon=True)
        thread.start()
        return results, thread

    def poll_for_task(self, sock: socket.socket) -> dict:
        """Lease-poll until the broker hands this session a task."""
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            send_frame(sock, {"type": "lease"})
            frame = recv_frame(sock)
            if frame["type"] == "task":
                return frame
            time.sleep(0.02)
        raise AssertionError("no task leased within 5s")

    def test_worker_disconnect_releases_immediately(self, make_broker, stub_worker, tmp_path):
        broker = make_broker(state_dir=tmp_path / "state")
        payload = payload_for(6)
        events = []
        client = BrokerClient(broker.address, on_event=events.append)
        results, driver = self.drive_in_thread(client, [payload])

        # Vanishing worker: leases the task, then dies without a word.
        doomed = self.raw_worker_hello(broker.address, "doomed")
        leased = self.poll_for_task(doomed)
        doomed.close()  # SIGKILL-equivalent at the protocol level
        stub_worker(broker.address, task_fn=stub_result, worker_id="rescuer")
        driver.join(timeout=10.0)
        assert not driver.is_alive()
        assert leased["payload"]["params"] == payload["params"]
        (bundle,) = results.values()
        assert not isinstance(bundle, RemoteTaskFailure)
        assert bundle["worker"] == "rescuer"
        assert bundle["releases"] == 1
        assert any(e["kind"] == "re-lease" for e in events)
        broker.stop()
        recorded = [e for e in read_events(tmp_path / "state") if e["event"] == "re-lease"]
        assert len(recorded) == 1
        assert recorded[0]["worker"] == "doomed"
        assert "disconnected" in recorded[0]["reason"]

    def test_heartbeat_lapse_releases_after_deadline(self, make_broker, stub_worker):
        broker = make_broker(lease_timeout=0.4)
        payload = payload_for(7)
        client = BrokerClient(broker.address)
        results, driver = self.drive_in_thread(client, [payload])

        # Wedged worker: holds the lease, never heartbeats, never finishes.
        silent = self.raw_worker_hello(broker.address, "silent")
        self.poll_for_task(silent)
        stub_worker(broker.address, task_fn=stub_result, worker_id="medic")
        driver.join(timeout=10.0)
        assert not driver.is_alive()
        silent.close()
        (bundle,) = results.values()
        assert not isinstance(bundle, RemoteTaskFailure)
        assert bundle["worker"] == "medic"
        assert bundle["releases"] == 1


class TestFingerprintSafety:
    def test_mismatched_worker_is_never_leased_work(self, make_broker, stub_worker):
        broker = make_broker()
        payload = payload_for(8)
        digest = task_digest(payload["kind"], payload["params"], 0)

        # A worker from a "different code version" polls and stays idle.
        host, port = broker.address.split(":")
        stranger = socket.create_connection((host, int(port)), timeout=5.0)
        send_frame(
            stranger,
            {
                "type": "hello",
                "role": "worker",
                "protocol": PROTOCOL,
                "worker": "stranger",
                "code": "fingerprint-from-another-commit",
            },
        )
        assert recv_frame(stranger)["type"] == "welcome"

        import threading

        client = BrokerClient(broker.address)
        results: dict[str, object] = {}

        def drive():
            results.update(collect(client, [payload]))

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()
        # Give the stranger repeated shots at stealing the task while the
        # submit lands; it must only ever see idle frames.
        first = None
        for _ in range(10):
            send_frame(stranger, {"type": "lease"})
            first = recv_frame(stranger)
            assert first["type"] == "idle"
            time.sleep(0.05)
        stub_worker(broker.address, task_fn=stub_result, worker_id="native")
        driver.join(timeout=10.0)
        stranger.close()
        assert results[digest]["worker"] == "native"

    def test_protocol_mismatch_is_rejected(self, make_broker):
        broker = make_broker()
        host, port = broker.address.split(":")
        sock = socket.create_connection((host, int(port)), timeout=5.0)
        send_frame(sock, {"type": "hello", "role": "worker", "protocol": "repro-broker/v0"})
        reply = recv_frame(sock)
        assert reply["type"] == "error"
        assert "protocol mismatch" in reply["error"]
        sock.close()


class TestAddresses:
    def test_resolve_address_forms(self):
        from repro.distributed import resolve_address

        assert resolve_address("127.0.0.1:7070") == ("127.0.0.1", 7070)
        assert resolve_address(":7070") == ("127.0.0.1", 7070)
        assert resolve_address("7070") == ("127.0.0.1", 7070)

    def test_resolve_address_rejects_garbage(self):
        from repro.distributed import resolve_address

        with pytest.raises(DistributedError):
            resolve_address("localhost:notaport")
        with pytest.raises(DistributedError):
            resolve_address("localhost:99999")

    def test_client_reports_unreachable_broker(self):
        client = BrokerClient("127.0.0.1:1", timeout=0.5)
        with pytest.raises(DistributedError, match="is `repro broker` running"):
            list(client.run_tasks([payload_for(9)]))
