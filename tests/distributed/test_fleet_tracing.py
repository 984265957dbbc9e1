"""Fleet tracing + telemetry through a real broker: spans, fleet.prom.

Same harness as ``test_broker.py`` (real broker, stub task functions):
these tests assert the observability contract — every lifecycle hop
lands as a span in the broker's durable ``events.jsonl`` and streams to
the client as ``event`` frames, and piggybacked worker metrics merge
into the ``fleet.prom`` textfile.
"""

from __future__ import annotations

import os
import socket
import threading
import time

from repro.distributed import BrokerClient, RemoteTaskFailure
from repro.distributed.broker import FLEET_PROM_FILENAME
from repro.distributed.protocol import PROTOCOL, recv_frame, send_frame
from repro.parallel.keys import measurement_fingerprint
from repro.parallel.tasks import TaskSpec
from repro.telemetry.sinks import parse_prometheus
from repro.telemetry.tracing import read_spans, trace_id_for


def payload_for(index: int) -> dict:
    return {"kind": "capped", "params": {"n": 64, "c": 2, "lam": 0.5, "x": index}, "replicate": 0}


def traced_payload(index: int) -> dict:
    """A task payload carrying client-minted trace context."""
    payload = payload_for(index)
    digest = TaskSpec.from_payload(payload).digest
    payload["trace"] = {"trace": trace_id_for(digest), "parent": f"c:{index + 1}"}
    return payload


def stub_result(payload: dict) -> dict:
    return {
        "outcome": {"echo": payload["params"]},
        "elapsed": 0.001,
        "pid": os.getpid(),
        "resumed_round": None,
    }


def collect(client: BrokerClient, payloads: list[dict]) -> dict[str, object]:
    results = {}
    with client:
        for payload, bundle in client.run_tasks(payloads):
            results[TaskSpec.from_payload(payload).digest] = bundle
    return results


def spans_by_name(spans: list[dict], trace: str) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for span in spans:
        if span["trace"] == trace:
            grouped.setdefault(span["name"], []).append(span)
    return grouped


class TestBrokerSpans:
    def test_lifecycle_spans_land_in_events_jsonl(self, make_broker, stub_worker, tmp_path):
        broker = make_broker(state_dir=tmp_path / "state")
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-t")
        payload = traced_payload(0)
        trace = payload["trace"]["trace"]
        results = collect(BrokerClient(broker.address), [payload])
        assert not isinstance(next(iter(results.values())), RemoteTaskFailure)
        broker.stop()

        spans = read_spans(tmp_path / "state" / "events.jsonl")
        named = spans_by_name(spans, trace)
        assert set(named) >= {"submitted", "queued", "leased", "upload"}
        (lease,) = named["leased"]
        assert lease["attrs"]["status"] == "ok"
        assert lease["attrs"]["seq"] == 1
        assert lease["attrs"]["worker"] == "stub-t"
        # queued/leased hang off the client's root span; upload hangs off
        # the lease attempt that actually carried the result home.
        assert named["queued"][0]["parent"] == "c:1"
        assert lease["parent"] == "c:1"
        assert named["upload"][0]["parent"] == lease["span"]
        assert named["upload"][0]["end"] >= named["upload"][0]["start"]

    def test_span_events_stream_to_the_client(self, make_broker, stub_worker):
        broker = make_broker()
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-s")
        events = []
        payload = traced_payload(1)
        collect(BrokerClient(broker.address, on_event=events.append), [payload])
        span_events = [e for e in events if e.get("kind") == "span"]
        names = {e["span"]["name"] for e in span_events}
        assert {"submitted", "queued", "leased", "upload"} <= names
        assert all(e["span"]["trace"] == payload["trace"]["trace"] for e in span_events)

    def test_fleet_stats_events_reach_the_client(self, make_broker, stub_worker):
        broker = make_broker()
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-f")
        events = []
        collect(
            BrokerClient(broker.address, on_event=events.append),
            [payload_for(2), payload_for(3)],
        )
        stats = [e for e in events if e.get("kind") == "fleet-stats"]
        # The final digest is broadcast after this client's "done" frame,
        # so the last one *observed* may predate the final completion.
        assert stats
        last = stats[-1]
        assert last["tasks_total"] == 2
        assert last["tasks_done"] >= 1
        assert "queue_depth" in last
        assert isinstance(last.get("p50"), float)

    def test_untraced_submit_emits_no_spans(self, make_broker, stub_worker, tmp_path):
        broker = make_broker(state_dir=tmp_path / "state")
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-u")
        events = []
        collect(BrokerClient(broker.address, on_event=events.append), [payload_for(4)])
        broker.stop()
        assert not [e for e in events if e.get("kind") == "span"]
        assert read_spans(tmp_path / "state" / "events.jsonl") == []

    def test_cache_hit_closes_the_chain_with_zero_length_queue(
        self, make_broker, stub_worker, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        first = make_broker(cache_dir=cache_dir)
        stub_worker(first.address, task_fn=stub_result, worker_id="stub-c1")
        collect(BrokerClient(first.address), [payload_for(5)])

        # A fresh broker sharing the cache serves the traced re-submit
        # without a worker — the chain must still show submitted → queued.
        second = make_broker(cache_dir=cache_dir, state_dir=tmp_path / "state2")
        payload = traced_payload(5)
        results = collect(BrokerClient(second.address), [payload])
        bundle = next(iter(results.values()))
        assert bundle["source"] == "remote-cache"  # origin-stamped cache entry
        second.stop()
        named = spans_by_name(
            read_spans(tmp_path / "state2" / "events.jsonl"), payload["trace"]["trace"]
        )
        assert set(named) == {"submitted", "queued"}
        (queued,) = named["queued"]
        assert queued["start"] == queued["end"]
        assert queued["attrs"]["source"] == "remote-cache"


class TestReLeaseSpans:
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

    def poll_for_task(self, sock: socket.socket) -> dict:
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            send_frame(sock, {"type": "lease"})
            frame = recv_frame(sock)
            if frame["type"] == "task":
                return frame
            time.sleep(0.02)
        raise AssertionError("no task leased within 5s")

    def test_dead_worker_leaves_a_released_lease_span(
        self, make_broker, stub_worker, tmp_path
    ):
        broker = make_broker(state_dir=tmp_path / "state")
        payload = traced_payload(6)
        trace = payload["trace"]["trace"]
        client = BrokerClient(broker.address)
        results: dict[str, object] = {}

        def drive():
            results.update(collect(client, [payload]))

        driver = threading.Thread(target=drive, daemon=True)
        driver.start()

        doomed = self.raw_worker_hello(broker.address, "doomed")
        leased = self.poll_for_task(doomed)
        assert leased.get("trace", {}).get("trace") == trace
        doomed.close()  # protocol-level SIGKILL
        stub_worker(broker.address, task_fn=stub_result, worker_id="rescuer")
        driver.join(timeout=10.0)
        assert not driver.is_alive()
        (bundle,) = results.values()
        assert not isinstance(bundle, RemoteTaskFailure)
        assert bundle["releases"] == 1
        broker.stop()

        named = spans_by_name(read_spans(tmp_path / "state" / "events.jsonl"), trace)
        leases = sorted(named["leased"], key=lambda s: s["attrs"]["seq"])
        assert [lease["attrs"]["status"] for lease in leases] == ["released", "ok"]
        assert [lease["attrs"]["seq"] for lease in leases] == [1, 2]
        assert leases[0]["attrs"]["worker"] == "doomed"
        assert leases[1]["attrs"]["worker"] == "rescuer"
        # The task re-queued after the death: two queue-wait spans.
        assert len(named["queued"]) == 2


class TestFleetProm:
    def test_worker_metrics_merge_into_fleet_prom(self, make_broker, stub_worker, tmp_path):
        broker = make_broker(state_dir=tmp_path / "state")
        stub_worker(
            broker.address, task_fn=stub_result, worker_id="stub-m", telemetry=True
        )
        collect(BrokerClient(broker.address), [payload_for(i) for i in range(3)])
        broker.stop()

        prom = tmp_path / "state" / FLEET_PROM_FILENAME
        assert prom.exists()
        families = parse_prometheus(prom.read_text(encoding="utf-8"))

        # Broker-side families: queue depth gauge + latency summary.
        assert families["fleet_queue_depth"]["samples"][-1]["value"] == 0.0
        fleet_counts = [
            s
            for s in families["fleet_task_seconds"]["samples"]
            if s["name"] == "fleet_task_seconds_count" and "worker" not in s["labels"]
        ]
        assert fleet_counts and fleet_counts[0]["value"] == 3.0

        # Piggybacked worker registry, re-labelled per worker.
        worker_counts = [
            s
            for s in families["worker_task_seconds"]["samples"]
            if s["name"] == "worker_task_seconds_count"
            and s["labels"].get("worker") == "stub-m"
        ]
        assert worker_counts and worker_counts[0]["labels"]["kind"] == "capped"
        totals = [
            s
            for s in families["worker_tasks_total"]["samples"]
            if s["labels"] == {"status": "ok", "worker": "stub-m"}
        ]
        assert totals and totals[0]["value"] >= 1.0

    def test_torn_events_tail_does_not_break_span_reads(
        self, make_broker, stub_worker, tmp_path
    ):
        broker = make_broker(state_dir=tmp_path / "state")
        stub_worker(broker.address, task_fn=stub_result, worker_id="stub-z")
        collect(BrokerClient(broker.address), [traced_payload(7)])
        broker.stop()
        events = tmp_path / "state" / "events.jsonl"
        with events.open("a", encoding="utf-8") as handle:
            handle.write('{"ts": 1.0, "event": "span", "trace": "torn-mid-wri')
        spans = read_spans(events)
        assert spans and all("span" in record for record in spans)
