"""Frame codec: roundtrips, clean EOF vs torn frames, corrupt prefixes."""

from __future__ import annotations

import asyncio
import socket
import struct
import threading

import pytest

from repro.distributed.protocol import (
    MAX_FRAME_BYTES,
    connect_broker,
    encode_frame,
    read_frame_async,
    recv_frame,
    send_frame,
    write_frame_async,
)
from repro.errors import DistributedError, ProtocolError, ReproError


def socket_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


class TestBlockingCodec:
    def test_roundtrip(self):
        a, b = socket_pair()
        message = {"type": "task", "key": "k" * 40, "payload": {"params": {"lam": 0.75}}}
        send_frame(a, message)
        assert recv_frame(b) == message
        a.close()
        b.close()

    def test_multiple_frames_in_order(self):
        a, b = socket_pair()
        for index in range(5):
            send_frame(a, {"type": "lease", "index": index})
        for index in range(5):
            assert recv_frame(b)["index"] == index
        a.close()
        b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket_pair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_eof_mid_body_raises(self):
        a, b = socket_pair()
        frame = encode_frame({"type": "complete", "result": "x" * 100})
        a.sendall(frame[: len(frame) - 20])  # die mid-body
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_eof_mid_header_raises(self):
        a, b = socket_pair()
        a.sendall(b"\x00\x00")  # half a length prefix
        a.close()
        with pytest.raises(ProtocolError):
            recv_frame(b)
        b.close()

    def test_corrupt_length_prefix_rejected(self):
        a, b = socket_pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="corrupt prefix"):
            recv_frame(b)
        a.close()
        b.close()

    def test_non_object_body_rejected(self):
        a, b = socket_pair()
        body = b'["not", "an", "object"]'
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="'type'"):
            recv_frame(b)
        a.close()
        b.close()

    def test_body_without_type_rejected(self):
        a, b = socket_pair()
        body = b'{"key": "abc"}'
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            recv_frame(b)
        a.close()
        b.close()


class TestConnectBroker:
    def test_sets_tcp_nodelay(self):
        # Without it a worker's lease frame, sent right after its complete
        # frame, waits out the broker's delayed ACK (~40 ms per task).
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            sock = connect_broker("127.0.0.1", listener.getsockname()[1])
            try:
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
            finally:
                sock.close()
        finally:
            listener.close()


class TestAsyncCodec:
    def run_pair(self, server_side, client_side):
        """Drive the asyncio half against a blocking socket peer."""
        a, b = socket_pair()
        result = {}

        async def main():
            reader, writer = await asyncio.open_connection(sock=a)
            try:
                result["value"] = await server_side(reader, writer)
            finally:
                writer.close()

        thread = threading.Thread(target=client_side, args=(b,), daemon=True)
        thread.start()
        asyncio.run(main())
        thread.join(timeout=5.0)
        b.close()
        return result.get("value")

    def test_async_reads_blocking_writes(self):
        message = {"type": "hello", "role": "worker", "worker": "w-1"}

        async def server(reader, writer):
            return await read_frame_async(reader)

        assert self.run_pair(server, lambda sock: send_frame(sock, message)) == message

    def test_async_writes_blocking_reads(self):
        message = {"type": "welcome", "heartbeat": 5.0}
        got = {}

        async def server(reader, writer):
            await write_frame_async(writer, message)
            return None

        self.run_pair(server, lambda sock: got.update(recv_frame(sock)))
        assert got == message

    def test_async_clean_eof_returns_none(self):
        async def server(reader, writer):
            return await read_frame_async(reader)

        assert self.run_pair(server, lambda sock: sock.close()) is None

    def test_async_torn_frame_raises(self):
        frame = encode_frame({"type": "complete", "result": "y" * 64})

        def client(sock):
            sock.sendall(frame[:-10])
            sock.close()

        async def server(reader, writer):
            with pytest.raises(ProtocolError, match="mid-frame"):
                await read_frame_async(reader)
            return "raised"

        assert self.run_pair(server, client) == "raised"


class TestErrorTaxonomy:
    def test_protocol_error_is_distributed_and_repro_error(self):
        # Callers catching the repo-wide ReproError (or the distributed
        # family) must see codec failures too.
        assert issubclass(ProtocolError, DistributedError)
        assert issubclass(DistributedError, ReproError)
        assert issubclass(DistributedError, RuntimeError)
