"""Tests for the binary columnar wire protocol (repro.server.wire).

Three layers: the codec round-trips every op bit-exactly (including the
u32-id compact form and the padded tenant field); malformed frames fail
with precise errors and never crash the decoder; and the HTTP server
negotiates content types -- binary ingest lands in the same coalescer
staging columns as JSON (bit-identical sketches), binary query responses
follow the Accept header, and JSON clients keep working untouched.

Also covers the HTTP/1.1 pipelining contract of ``server/http.py``:
multiple keep-alive requests written in one TCP segment are parsed and
answered in order, and a request split across segments reassembles.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.tcm import TCM
from repro.server import SketchServer, wire
from repro.server.durability import DurabilityManager
from repro.server.loadgen import _request
from repro.server.registry import SketchRegistry


def run_async(coro):
    return asyncio.run(coro)


def u64(values):
    return np.asarray(values, dtype=np.uint64)


class TestCodec:
    def test_ingest_round_trip(self):
        src, dst = u64([1, 2, 3]), u64([4, 5, 6])
        wts = np.asarray([1.5, 2.0, 0.5])
        body = wire.encode_ingest("alpha", src, dst, wts)
        frame = wire.decode_frame(body)
        assert frame.op == wire.OP_INGEST
        assert frame.tenant == "alpha"
        assert frame.count == 3
        np.testing.assert_array_equal(frame.sources, src)
        np.testing.assert_array_equal(frame.targets, dst)
        np.testing.assert_array_equal(frame.weights, wts)
        assert frame.timestamps is None

    def test_ingest_default_weights_are_none(self):
        body = wire.encode_ingest("t", u64([1]), u64([2]))
        frame = wire.decode_frame(body)
        assert frame.weights is None

    def test_ingest_with_timestamps(self):
        body = wire.encode_ingest("w", u64([1, 2]), u64([3, 4]),
                                  np.asarray([1.0, 1.0]),
                                  np.asarray([10.0, 20.0]))
        frame = wire.decode_frame(body)
        np.testing.assert_array_equal(frame.timestamps,
                                      np.asarray([10.0, 20.0]))

    def test_u32_ids_widen_to_u64(self):
        src = np.asarray([7, 8], dtype=np.uint32)
        dst = np.asarray([9, 10], dtype=np.uint32)
        body = wire.encode_ingest("t", src, dst, u32_ids=True)
        wide = wire.encode_ingest("t", src.astype(np.uint64),
                                  dst.astype(np.uint64))
        assert len(body) < len(wide)
        frame = wire.decode_frame(body)
        assert frame.sources.dtype == np.uint64
        np.testing.assert_array_equal(frame.sources, u64([7, 8]))
        np.testing.assert_array_equal(frame.targets, u64([9, 10]))

    def test_remove_round_trip(self):
        body = wire.encode_remove("t", u64([1]), u64([2]),
                                  np.asarray([3.0]))
        frame = wire.decode_frame(body)
        assert frame.op == wire.OP_REMOVE
        np.testing.assert_array_equal(frame.weights, np.asarray([3.0]))

    def test_query_kinds_round_trip(self):
        pairs = wire.encode_query("t", "edge", u64([1, 2]), u64([3, 4]))
        frame = wire.decode_frame(pairs)
        assert frame.op == wire.OP_QUERY and frame.kind == "edge"
        assert frame.count == 2
        nodes = wire.encode_query("t", "outflow", u64([5, 6, 7]))
        frame = wire.decode_frame(nodes)
        assert frame.kind == "outflow" and frame.count == 3
        assert frame.targets is None
        total = wire.encode_query("t", "total")
        frame = wire.decode_frame(total)
        assert frame.kind == "total" and frame.count == 0

    def test_advance_round_trip(self):
        frame = wire.decode_frame(wire.encode_advance("w", 123.5))
        assert frame.op == wire.OP_ADVANCE and frame.timestamp == 123.5

    def test_values_round_trip(self):
        values = np.asarray([1.0, 2.5, 0.0])
        out = wire.decode_values(wire.encode_values(values))
        np.testing.assert_array_equal(out, values)

    def test_tenant_padding_keeps_columns_aligned(self):
        # Any tenant-name length must leave the id columns 8-byte
        # aligned so np.frombuffer gets a zero-copy aligned view.
        for name in ("a", "ab", "abcdefg", "abcdefgh", "abcdefghi"):
            frame = wire.decode_frame(
                wire.encode_ingest(name, u64([1]), u64([2])))
            assert frame.tenant == name

    def test_header_is_16_bytes(self):
        assert wire.HEADER_SIZE == 16
        body = wire.encode_ingest("t", u64([1]), u64([2]))
        assert body[:4] == wire.WIRE_MAGIC
        assert body[4] == wire.WIRE_VERSION


class TestCodecErrors:
    def test_too_short(self):
        with pytest.raises(wire.WireError, match="too short"):
            wire.decode_frame(b"TCMW")

    def test_bad_magic(self):
        body = bytearray(wire.encode_ingest("t", u64([1]), u64([2])))
        body[:4] = b"NOPE"
        with pytest.raises(wire.WireError, match="magic"):
            wire.decode_frame(bytes(body))

    def test_version_mismatch_suggests_json(self):
        body = bytearray(wire.encode_ingest("t", u64([1]), u64([2])))
        body[4] = 99
        with pytest.raises(wire.WireError, match="json"):
            wire.decode_frame(bytes(body))

    def test_truncated_columns(self):
        body = wire.encode_ingest("t", u64([1, 2, 3]), u64([4, 5, 6]))
        with pytest.raises(wire.WireError):
            wire.decode_frame(body[:-8])

    def test_unknown_op(self):
        body = bytearray(wire.encode_ingest("t", u64([1]), u64([2])))
        body[5] = 99
        with pytest.raises(wire.WireError, match="op"):
            wire.decode_frame(bytes(body))

    def test_mismatched_lengths_rejected_at_encode(self):
        with pytest.raises(ValueError):
            wire.encode_ingest("t", u64([1, 2]), u64([3]))


class _Client:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def json(self, method, path, body=None):
        raw = b"" if body is None else json.dumps(body).encode()
        status, payload = await _request(self.reader, self.writer,
                                         method, path, raw)
        return status, (json.loads(payload) if payload else None)

    async def binary(self, path, body, accept=None):
        head = (f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: {wire.CONTENT_TYPE}\r\n"
                f"Content-Length: {len(body)}\r\n")
        if accept is not None:
            head += f"Accept: {accept}\r\n"
        head += "\r\n"
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        return await self.read_response()

    async def read_response(self):
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        headers = {}
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        payload = await self.reader.readexactly(length) if length else b""
        return status, headers, payload

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _with_server(scenario, **server_kwargs):
    server_kwargs.setdefault("max_delay", 0.002)
    server = SketchServer(port=0, **server_kwargs)
    port = await server.start()
    client = await _Client.open(port)
    try:
        return await scenario(client, server, port)
    finally:
        await client.close()
        await server.stop()


class TestWireOverHTTP:
    def test_binary_ingest_matches_json_ingest(self):
        async def scenario(client, server, port):
            for name in ("bin", "js"):
                status, _ = await client.json(
                    "PUT", f"/sketches/{name}",
                    {"kind": "tcm", "d": 2, "width": 64, "seed": 3})
                assert status == 201
            src = list(range(40))
            dst = [s + 1 for s in src]
            wts = [float(1 + (s % 3)) for s in src]
            status, _, _ = await client.binary(
                "/sketches/bin/ingest",
                wire.encode_ingest("bin", u64(src), u64(dst),
                                   np.asarray(wts)))
            assert status == 200
            status, body = await client.json(
                "POST", "/sketches/js/ingest",
                {"sources": src, "targets": dst, "weights": wts})
            assert status == 200
            # Same seed + same columns => bit-identical matrices.
            status, a = await client.json(
                "POST", "/sketches/bin/query",
                {"kind": "edge", "pairs": list(zip(src, dst))})
            status, b = await client.json(
                "POST", "/sketches/js/query",
                {"kind": "edge", "pairs": list(zip(src, dst))})
            assert a["values"] == b["values"]

        run_async(_with_server(scenario))

    def test_binary_query_content_negotiation(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/t",
                              {"kind": "tcm", "d": 2, "width": 64})
            await client.binary(
                "/sketches/t/ingest",
                wire.encode_ingest("t", u64([1, 2]), u64([3, 4]),
                                   np.asarray([2.0, 5.0])))
            query = wire.encode_query("t", "edge", u64([1, 2]),
                                      u64([3, 4]))
            status, headers, payload = await client.binary(
                "/sketches/t/query", query, accept=wire.CONTENT_TYPE)
            assert status == 200
            assert headers["content-type"] == wire.CONTENT_TYPE
            np.testing.assert_array_equal(wire.decode_values(payload),
                                          np.asarray([2.0, 5.0]))
            # Without Accept, the same binary query answers in JSON.
            status, headers, payload = await client.binary(
                "/sketches/t/query", query)
            assert status == 200
            assert headers["content-type"].startswith("application/json")
            assert json.loads(payload)["values"] == [2.0, 5.0]

        run_async(_with_server(scenario))

    def test_binary_remove_and_advance(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/t",
                              {"kind": "tcm", "d": 2, "width": 64})
            await client.binary(
                "/sketches/t/ingest",
                wire.encode_ingest("t", u64([1]), u64([2]),
                                   np.asarray([5.0])))
            status, _, payload = await client.binary(
                "/sketches/t/remove",
                wire.encode_remove("t", u64([1]), u64([2]),
                                   np.asarray([2.0])))
            assert status == 200 and json.loads(payload)["removed"] == 1
            status, body = await client.json(
                "POST", "/sketches/t/query",
                {"kind": "edge", "pairs": [[1, 2]]})
            assert body["values"] == [3.0]

            await client.json("PUT", "/sketches/w",
                              {"kind": "window", "horizon": 100.0,
                               "d": 2, "width": 32})
            status, _, payload = await client.binary(
                "/sketches/w/advance", wire.encode_advance("w", 42.0))
            assert status == 200
            assert json.loads(payload)["watermark"] == 42.0

        run_async(_with_server(scenario))

    def test_window_binary_ingest_with_timestamps(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/w",
                              {"kind": "window", "horizon": 100.0,
                               "d": 2, "width": 32})
            body = wire.encode_ingest(
                "w", u64([1, 2]), u64([3, 4]), np.asarray([1.0, 1.0]),
                np.asarray([5.0, 6.0]))
            status, _, payload = await client.binary(
                "/sketches/w/ingest", body)
            assert status == 200
            status, body = await client.json("GET", "/sketches/w")
            assert body["watermark"] == 6.0

        run_async(_with_server(scenario))

    def test_tenant_mismatch_is_400(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/a",
                              {"kind": "tcm", "d": 2, "width": 32})
            body = wire.encode_ingest("b", u64([1]), u64([2]))
            status, _, payload = await client.binary(
                "/sketches/a/ingest", body)
            assert status == 400
            assert "tenant" in json.loads(payload)["error"]

        run_async(_with_server(scenario))

    def test_op_action_mismatch_is_400(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/t",
                              {"kind": "tcm", "d": 2, "width": 32})
            body = wire.encode_ingest("t", u64([1]), u64([2]))
            status, _, payload = await client.binary(
                "/sketches/t/query", body)
            assert status == 400

        run_async(_with_server(scenario))

    def test_garbage_binary_body_is_400(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/t",
                              {"kind": "tcm", "d": 2, "width": 32})
            status, _, payload = await client.binary(
                "/sketches/t/ingest", b"this is not a frame")
            assert status == 400
            # The connection survives a bad frame.
            status, body = await client.json("GET", "/healthz")
            assert status == 200

        run_async(_with_server(scenario))

    def test_responses_carry_cached_date_header(self):
        async def scenario(client, server, port):
            status, headers, _ = await client.binary(
                "/sketches/none/ingest",
                wire.encode_ingest("none", u64([1]), u64([2])))
            # 404 (no tenant) still carries the Date header.
            assert status == 404
            assert headers["date"].endswith(" GMT")
            status2, headers2, _ = await client.binary(
                "/sketches/none/ingest",
                wire.encode_ingest("none", u64([1]), u64([2])))
            # Same second => byte-identical cached value (no reformat).
            a, b = headers["date"], headers2["date"]
            assert a == b or abs(
                int(a.split(":")[2][:2]) - int(b.split(":")[2][:2])) <= 1

        run_async(_with_server(scenario))


class TestBadWeightIsolation:
    """A negative or non-finite weight fails its own request with a 400,
    before staging and before the WAL: a valid request coalesced into
    the same flush still applies, and recovery replays cleanly."""

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_bad_request_fails_alone(self, tmp_path, encoding, bad):
        good = ([1, 2, 3], [4, 5, 6], [1.0, 2.0, 3.0])
        poison = ([1, 7], [4, 8], [5.0, bad])
        probe = [(1, 4), (7, 8)]

        async def send(port, action, columns):
            sources, targets, weights = columns
            client = await _Client.open(port)
            try:
                if encoding == "json":
                    status, _ = await client.json(
                        "POST", f"/sketches/t/{action}",
                        {"sources": sources, "targets": targets,
                         "weights": weights})
                    return status
                encode = (wire.encode_ingest if action == "ingest"
                          else wire.encode_remove)
                status, _, _ = await client.binary(
                    f"/sketches/t/{action}",
                    encode("t", u64(sources), u64(targets),
                           np.asarray(weights)))
                return status
            finally:
                await client.close()

        async def scenario(client, server, port):
            status, _ = await client.json(
                "PUT", "/sketches/t",
                {"kind": "tcm", "d": 2, "width": 64, "seed": 3})
            assert status == 201
            statuses = await asyncio.gather(send(port, "ingest", good),
                                            send(port, "ingest", poison))
            assert list(statuses) == [200, 400]
            assert await send(port, "remove", poison) == 400
            _, body = await client.json(
                "POST", "/sketches/t/query",
                {"kind": "edge", "pairs": [list(p) for p in probe]})
            return body["values"]

        values = run_async(_with_server(
            scenario, max_delay=0.05, data_dir=str(tmp_path),
            fsync="always"))
        reference = TCM(d=2, width=64, seed=3)
        reference.ingest_columns(*good)
        assert values == reference.edge_weights(probe).tolist()

        registry = SketchRegistry()
        manager = DurabilityManager(str(tmp_path), fsync="off")
        report = manager.recover(registry)
        assert report["replay_errors"] == 0
        for got, want in zip(registry.get("t").sketch.sketches,
                             reference.sketches):
            np.testing.assert_array_equal(got.matrix, want.matrix)
        manager.close_all(registry)


class TestHTTPPipelining:
    def test_two_requests_in_one_segment_answered_in_order(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/t",
                              {"kind": "tcm", "d": 2, "width": 32})
            ingest = json.dumps({"sources": [1], "targets": [2],
                                 "weights": [7.0]}).encode()
            query = json.dumps({"kind": "edge",
                                "pairs": [[1, 2]]}).encode()
            blob = (
                b"POST /sketches/t/ingest HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(ingest)).encode() +
                b"\r\n\r\n" + ingest +
                b"POST /sketches/t/query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(query)).encode() +
                b"\r\n\r\n" + query)
            # One write, one TCP segment, two pipelined requests.
            client.writer.write(blob)
            await client.writer.drain()
            status, _, payload = await client.read_response()
            assert status == 200
            assert json.loads(payload)["ingested"] == 1
            status, _, payload = await client.read_response()
            assert status == 200
            # Read-your-writes holds across the pipelined pair.
            assert json.loads(payload)["values"] == [7.0]

        run_async(_with_server(scenario))

    def test_request_split_across_segments(self):
        async def scenario(client, server, port):
            await client.json("PUT", "/sketches/t",
                              {"kind": "tcm", "d": 2, "width": 32})
            body = wire.encode_ingest("t", u64([9]), u64([10]),
                                      np.asarray([3.0]))
            head = (f"POST /sketches/t/ingest HTTP/1.1\r\nHost: x\r\n"
                    f"Content-Type: {wire.CONTENT_TYPE}\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            blob = head + body
            # Dribble the request: a split mid-header and mid-body.
            for chunk in (blob[:20], blob[20:len(head) + 7],
                          blob[len(head) + 7:]):
                client.writer.write(chunk)
                await client.writer.drain()
                await asyncio.sleep(0.01)
            status, _, payload = await client.read_response()
            assert status == 200
            assert json.loads(payload)["ingested"] == 1
            status, resp = await client.json(
                "POST", "/sketches/t/query",
                {"kind": "edge", "pairs": [[9, 10]]})
            assert resp["values"] == [3.0]

        run_async(_with_server(scenario))
