"""Tests of the benchmark harness itself, not of the program it drives.

    python3 -m pytest bench/tests -q

They start real servers for the smoke runs, so they take about a minute.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from traced_serve import Target, Tracer, load_spans, self_times  # noqa: E402


def _work_dir(name: str) -> str:
    path = os.path.join(ROOT, ".bench_out", "tests", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_smoke_runs_every_workload_with_the_benchmark_names(trace, section):
    benchmark = _benchmark()
    out = _work_dir(f"smoke-{trace}")
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--trace", str(trace), "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in benchmark[section]}
    seen = {}
    for key, metric in result["metrics"].items():
        workload, name = key.split("/")
        seen.setdefault(workload, {})[name] = metric["unit"]
        assert isinstance(metric["value"], float)
    assert set(seen) == {w["name"] for w in benchmark["workloads"]}
    for metrics in seen.values():
        assert metrics == expected
    assert elapsed < 90


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25].
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]


def test_tracer_links_nested_spans_per_thread():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.002), Target("", "", "inner"))

    def body():
        inner()
        inner()
    outer = tracer.wrap(body, Target("", "", "outer"))
    worker = threading.Thread(target=outer)
    worker.start()
    outer()
    worker.join(timeout=10)
    assert not worker.is_alive()
    path = os.path.join(_work_dir("tracer"), "spans.npz")
    tracer.dump(path)
    spans = load_spans(path)
    names = spans["meta"]["names"]
    layer = np.array([names[i] for i in spans["layer"]])
    outers = np.flatnonzero(layer == "outer")
    inners = np.flatnonzero(layer == "inner")
    assert len(outers) == 2 and len(inners) == 4
    assert set(spans["parent"][inners]) == set(outers)
    assert (spans["thread"][spans["parent"][inners]]
            == spans["thread"][inners]).all()
    assert len(set(spans["thread"][outers])) == 2
    own = self_times(spans["start"], spans["end"], spans["parent"])
    for i in outers:
        children = inners[spans["parent"][inners] == i]
        duration = spans["end"][i] - spans["start"][i]
        covered = (spans["end"][children] - spans["start"][children]).sum()
        assert own[i] == duration - covered >= 0


def test_answer_check_fails_against_a_perturbed_reference(monkeypatch):
    original = workloads.Traffic.reference

    def perturbed(self, counts):
        counts = counts.copy()
        counts[np.flatnonzero(self.kinds == workloads.INGEST)[0]] += 1
        return original(self, counts)

    monkeypatch.setattr(workloads.Traffic, "reference", perturbed)
    bench = run.WorkloadRun(workloads.SPECS["ingest-binary"], 1, 0.5,
                            False, True, _work_dir("perturbed"))
    try:
        record = asyncio.run(bench.run())
    finally:
        bench.kill_all()
    assert not record["correct"]
    final = record["checks"]["final"]
    assert final["edges"]["mismatched"] + final["outflows"]["mismatched"] > 0


def test_open_loop_latency_runs_from_the_scheduled_send():
    rate, seconds, stall = 100.0, 1.0, 0.3

    async def scenario():
        lock = asyncio.Lock()
        stalled = []

        async def handle(reader, writer):
            try:
                while True:
                    head = await reader.readuntil(b"\r\n\r\n")
                    at = head.lower().index(b"content-length:") + 15
                    await reader.readexactly(
                        int(head[at:head.index(b"\r\n", at)]))
                    async with lock:
                        if not stalled:
                            stalled.append(True)
                            await asyncio.sleep(stall)
                    writer.write(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Length: 2\r\n\r\n{}")
                    await writer.drain()
            except (asyncio.IncompleteReadError, ConnectionError):
                pass
            finally:
                writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        traffic = SimpleNamespace(
            requests=[harness.encode_request("POST", "/x", b"{}",
                                             "application/json")],
            kinds=np.array([workloads.EDGE]), elems=np.array([0]), pool=1)
        client = run.Client(traffic, SimpleNamespace(
            host="127.0.0.1", port=server.sockets[0].getsockname()[1]))
        await client.connect()
        try:
            return await client.open_loop(0, seconds, rate)
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    drive = asyncio.run(scenario())
    assert drive.attempted == int(rate * seconds) and drive.failed == 0
    # Requests due during the stall wait in the client until a
    # connection frees up; timed from their send they would look fast.
    delayed = sum(1 for ns in drive.query_ns if ns >= 0.1e9)
    assert delayed >= 15
    assert max(drive.late_ns) < 0.05e9


def test_exits_nonzero_without_the_program():
    bare = _work_dir("bare")
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ingest-binary",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
