"""The standing benchmark of the TCM sketch service.

    python3 bench/run.py [--workload W] [--seed S] [--seconds T]
                         [--trace [0|1]] [--smoke] [--out DIR]

Per workload (all four when ``--workload`` is omitted) one run:

1. builds the seeded request pool (``workloads.py``) before any clock;
2. boots ``python -m repro serve --port 0`` ``SETUPS`` times, each to
   ready plus the tenant ``PUT`` -> ``setup_s`` is their median;
3. on ``ingest-durable`` only: acks a fixed prefix, then SIGKILLs and
   restarts the server ``RESTARTS`` times.  Each restart replays the same
   log, its time to ready goes to the record's ``recovery_s`` (the
   median), and the answers after each restart must equal those before
   the kill;
4. warms up, then drives the server for ``--seconds`` from this one
   asyncio process over two keep-alive connections, closed or open
   loop as the workload says;
5. checks the answers to 4096 edge, 1024 out-flow and 64 reach probes
   bit for bit against an in-process reference ``TCM``.

End-to-end metrics come from untraced runs.  ``--trace 1`` starts the
server under ``traced_serve.py`` and reports per-layer metrics instead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record
(provenance, sample counts, every layer) goes to ``--out``.  The exit
code is 1 if any answer was wrong and 2 if the program is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import harness
import workloads
from harness import Connection, ServerProcess
from traced_serve import layer_metrics, load_spans, recovery_metrics

SETUPS = 5
RESTARTS = 5
WARMUP_S = 1.0
CONNECTIONS = 2
REQUEST_TIMEOUT_S = 30.0
DEFAULT_SECONDS = 20
SMOKE = {"seconds": 1.0, "warmup": 0.2, "pool": 64, "prefix": 16,
         "probes": (256, 64, 16)}

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "ingest_elems_per_s": "elem/s",
    "req_per_s": "req/s",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "setup_s": "s",
    "server_peak_rss_mb": "MiB",
}

#: Per-layer metrics reported on every workload: name -> unit.
#: bench/README.md maps each to the end-to-end metric it should move.
PER_LAYER = {
    "decode.ns_per_elem": "ns/elem",
    "coalescer.add_ns_per_elem": "ns/elem",
    "coalescer.batch_elems_mean": "elem",
    "coalescer.deadline_flush_frac": "fraction",
    "coalescer.wait_ms_p50": "ms",
    "coalescer.wait_ms_p99": "ms",
    "tcm.ingest_keys_self_ns_per_elem": "ns/elem",
    "family.hash_bulk_ns_per_elem": "ns/elem",
    "kernels.dedup_ns_per_elem": "ns/elem",
    "kernels.scatter_ns_per_elem": "ns/elem",
    "tcm.edge_weights_us_per_call": "us/call",
    "query_engine.index_build_ms_mean": "ms",
    "server.cpu_util": "fraction",
    "server.cpu_ns_per_elem": "ns/elem",
    "server.unattributed_ns_per_elem": "ns/elem",
    "trace.attributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "client.cpu_util": "fraction",
}

#: Per-layer metrics in the record and the printed report only.  Most
#: are layers that some workloads bypass, where they would read 0 on
#: every run; an index build count per reach is always d = 4.
REPORT_LAYERS = {
    "wire.decode_ns_per_elem": "ns/elem",
    "http.json_decode_ns_per_elem": "ns/elem",
    "labels.label_keys_ns_per_elem": "ns/elem",
    "labels.cache_hit_ratio": "fraction",
    "kernels.dedup_unique_ratio": "fraction",
    "query_engine.index_builds_per_reach": "ratio",
    "tcm.out_flows_us_per_call": "us/call",
    "durability.append_ns_per_elem": "ns/elem",
    "durability.commit_ns_per_elem": "ns/elem",
    "durability.records_per_group": "records",
    "durability.fsync_ms_p99": "ms",
    "durability.fsyncs": "count",
    "durability.scan_s": "s",
    "durability.replay_s": "s",
    "client.sched_late_p99_ms": "ms",
}


class BenchError(RuntimeError):
    """The program misbehaved in a way that ends the run."""


@dataclass
class Drive:
    """What one driving phase saw."""

    start_ns: int = 0
    end_ns: int = 0
    next_seq: int = 0
    attempted: int = 0
    failed: int = 0
    elems: int = 0
    acked: List[int] = field(default_factory=list)
    ingest_ns: List[int] = field(default_factory=list)
    query_ns: List[int] = field(default_factory=list)
    late_ns: List[int] = field(default_factory=list)
    statuses: Dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


class Client:
    """Two keep-alive connections and the closed and open loops."""

    def __init__(self, traffic, server: ServerProcess):
        self.traffic = traffic
        self.server = server
        self.conns: List[Optional[Connection]] = []

    async def connect(self) -> None:
        self.conns = [await Connection.open(self.server.host,
                                            self.server.port)
                      for _ in range(CONNECTIONS)]

    async def close(self) -> None:
        for conn in self.conns:
            if conn is not None:
                await conn.close()
        self.conns = []

    async def send(self, slot: int, raw: bytes):
        """One request on connection ``slot``; (status, body), with
        status 0 for a transport failure or timeout (the connection is
        then replaced)."""
        conn = self.conns[slot]
        try:
            if conn is None:
                conn = self.conns[slot] = await Connection.open(
                    self.server.host, self.server.port)
            return await asyncio.wait_for(conn.request(raw),
                                          REQUEST_TIMEOUT_S)
        except (OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError) as exc:
            if conn is not None:
                await conn.close()
            self.conns[slot] = None
            return 0, str(exc).encode()

    def _record(self, drive: Drive, seq: int, status: int,
                latency_ns: int) -> None:
        traffic = self.traffic
        entry = seq % traffic.pool
        drive.attempted += 1
        drive.statuses[str(status)] = drive.statuses.get(str(status), 0) + 1
        if status != 200:
            drive.failed += 1
            return
        if traffic.kinds[entry] == 0:
            drive.acked.append(seq)
            drive.elems += int(traffic.elems[entry])
            drive.ingest_ns.append(latency_ns)
        else:
            drive.query_ns.append(latency_ns)

    async def closed_loop(self, start_seq: int, *,
                          seconds: Optional[float] = None,
                          count: Optional[int] = None) -> Drive:
        """Each connection sends its next request when the last returns."""
        drive = Drive(next_seq=start_seq)
        clock = time.perf_counter_ns
        drive.start_ns = clock()
        stop_ns = drive.start_ns + int((seconds or 0) * 1e9)
        last_seq = start_seq + count if count is not None else None
        requests = self.traffic.requests
        pool = self.traffic.pool

        async def worker(slot: int) -> None:
            while (clock() < stop_ns if last_seq is None
                   else drive.next_seq < last_seq):
                seq = drive.next_seq
                drive.next_seq += 1
                sent = clock()
                status, _ = await self.send(slot, requests[seq % pool])
                self._record(drive, seq, status, clock() - sent)

        await asyncio.gather(*(worker(slot) for slot in range(CONNECTIONS)))
        drive.end_ns = clock()
        return drive

    async def open_loop(self, start_seq: int, seconds: float,
                        rate: float) -> Drive:
        """Requests are due on a fixed schedule whatever the server does;
        latency runs from when a request was due, so a stall also
        charges the requests queued behind it."""
        drive = Drive(next_seq=start_seq)
        clock = time.perf_counter_ns
        queue: asyncio.Queue = asyncio.Queue()
        requests = self.traffic.requests
        pool = self.traffic.pool

        async def worker(slot: int) -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                seq, due = item
                status, _ = await self.send(slot, requests[seq % pool])
                self._record(drive, seq, status, clock() - due)

        workers = [asyncio.ensure_future(worker(slot))
                   for slot in range(CONNECTIONS)]
        drive.start_ns = clock()
        total = int(seconds * rate)
        try:
            for i in range(total):
                due = drive.start_ns + int(i * 1e9 / rate)
                delay = (due - clock()) / 1e9
                if delay > 0:
                    await asyncio.sleep(delay)
                drive.late_ns.append(max(clock() - due, 0))
                queue.put_nowait((drive.next_seq, due))
                drive.next_seq += 1
        finally:
            for _ in workers:
                queue.put_nowait(None)
            await asyncio.gather(*workers)
        drive.end_ns = clock()
        return drive

    async def drive(self, start_seq: int, seconds: float) -> Drive:
        spec = self.traffic.spec
        if spec.loop == "open":
            return await self.open_loop(start_seq, seconds, spec.rate)
        return await self.closed_loop(start_seq, seconds=seconds)

    async def probe(self):
        """Answers to the edge, out-flow and reach probes."""
        answers = []
        for raw in self.traffic.probe_requests:
            status, body = await self.send(0, raw)
            if status != 200:
                raise BenchError(f"probe answered {status}: {body[:200]!r}")
            answers.append(self.traffic.decode_values(body))
        return answers


def _percentile(values: List[int], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) \
        / 1e6 if values else 0.0


def _supported(n: int, q: float) -> bool:
    """At least ten samples lie beyond the ``q`` percentile."""
    return n * (100.0 - q) / 100.0 >= 10


def _latency_table(values: List[int]) -> Dict[str, float]:
    """Median and every tail percentile the sample count supports."""
    table = {"n": len(values)}
    for q in (50, 90, 95, 99, 99.9):
        if q == 50 or _supported(len(values), q):
            table[f"p{q:g}_ms"] = _percentile(values, q)
    if values:
        table["max_ms"] = max(values) / 1e6
    return table


def _compare(got, want) -> Dict[str, Dict[str, object]]:
    """Per probe kind: how many answers differ, and the first that does."""
    report = {}
    for name, g, w in zip(("edges", "outflows", "reach"), got, want):
        bad = np.flatnonzero(g != w) if g.shape == w.shape \
            else np.arange(max(len(g), len(w)))
        report[name] = {"probes": int(len(w)), "mismatched": int(len(bad))}
        if len(bad):
            i = int(bad[0])
            report[name]["first"] = {
                "index": i,
                "got": float(g[i]) if i < len(g) else None,
                "want": float(w[i]) if i < len(w) else None}
    return report


class WorkloadRun:
    """Everything one ``--workload`` run does, and its servers."""

    def __init__(self, spec, seed: int, seconds: float, trace: bool,
                 smoke: bool, work_dir: str):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.work_dir = work_dir
        self.servers: List[ServerProcess] = []
        started = time.perf_counter()
        self.traffic = workloads.build(
            spec, seed, pool=SMOKE["pool"] if smoke else None,
            probes=SMOKE["probes"] if smoke else (4096, 1024, 64))
        self.build_s = time.perf_counter() - started
        self.put = harness.encode_request(
            "PUT", f"/sketches/{workloads.TENANT}",
            json.dumps(workloads.TENANT_CONFIG).encode(), workloads.JSON)
        self.spawned = 0

    def spawn(self, data_dir: Optional[str]) -> ServerProcess:
        spans = (os.path.join(self.work_dir, f"spans-{self.spawned}.npz")
                 if self.trace else None)
        self.spawned += 1
        server = ServerProcess(workloads.serve_args(self.spec, data_dir),
                               spans_path=spans)
        self.servers.append(server)
        return server

    async def create_tenant(self, client: Client) -> None:
        status, body = await client.send(0, self.put)
        if status != 201:
            raise BenchError(f"PUT tenant answered {status}: {body[:200]!r}")

    def kill_all(self) -> None:
        for server in self.servers:
            server.kill()

    async def run(self) -> Dict[str, object]:
        spec, traffic = self.spec, self.traffic
        data_dir = None
        correct = True
        checks: Dict[str, object] = {}
        acked: List[int] = []

        # 1. set-up, several times.
        setups = []
        for k in range(SETUPS):
            if spec.durable:
                data_dir = os.path.join(self.work_dir, f"data-{k}")
            server = self.spawn(data_dir)
            server.wait_ready()
            client = Client(traffic, server)
            await client.connect()
            await self.create_tenant(client)
            setups.append(time.perf_counter() - server.spawned_at)
            if k < SETUPS - 1:
                await client.close()
                server.kill()
                if data_dir:
                    shutil.rmtree(data_dir)

        # 2. a durable server: crash after a fixed prefix and restart.
        seq = 0
        recoveries: List[float] = []
        recovery_layers = []
        if spec.durable:
            prefix = SMOKE["prefix"] if self.smoke else spec.recovery_prefix
            drive = await client.closed_loop(seq, count=prefix)
            seq = drive.next_seq
            acked += drive.acked
            if drive.failed:
                raise BenchError(f"{drive.failed} prefix requests failed")
            before = await client.probe()
            for _ in range(RESTARTS):
                await client.close()
                server.kill()
                server = self.spawn(data_dir)
                recoveries.append(server.wait_ready())
                if self.trace:
                    recovery_layers.append(
                        recovery_metrics(load_spans(server.dump_spans())))
                client = Client(traffic, server)
                await client.connect()
                report = _compare(await client.probe(), before)
                if any(r["mismatched"] for r in report.values()):
                    correct = False
                    checks["recovery"] = report

        # 3. warm up, then the measured phase.
        warmup = SMOKE["warmup"] if self.smoke else WARMUP_S
        drive = await client.drive(seq, warmup)
        seq = drive.next_seq
        acked += drive.acked
        cpu0 = harness.proc_cpu_seconds(server.pid)
        client_cpu0 = time.process_time()
        steal0 = harness.host_steal_seconds()
        phase = await client.drive(seq, self.seconds)
        server_cpu = harness.proc_cpu_seconds(server.pid) - cpu0
        client_cpu = time.process_time() - client_cpu0
        steal = harness.host_steal_seconds() - steal0
        peak_rss = harness.proc_peak_rss_mb(server.pid)
        acked += phase.acked

        # 4. the answer check.
        want = traffic.expected(traffic.reference(
            traffic.ack_counts(np.asarray(acked, dtype=np.int64))))
        checks["final"] = _compare(await client.probe(), want)
        if any(r["mismatched"] for r in checks["final"].values()):
            correct = False
        spans = load_spans(server.dump_spans()) if self.trace else None
        await client.close()
        exit_code = server.stop()

        wall = phase.seconds
        samples = {"ingest": len(phase.ingest_ns),
                   "query": len(phase.query_ns),
                   "setup": len(setups), "recovery": len(recoveries)}
        metrics = {
            "ingest_elems_per_s": phase.elems / wall,
            "req_per_s": phase.completed / wall,
            "ingest_p50_ms": _percentile(phase.ingest_ns, 50),
            "ingest_p99_ms": _percentile(phase.ingest_ns, 99),
            "query_p50_ms": _percentile(phase.query_ns, 50),
            "query_p99_ms": _percentile(phase.query_ns, 99),
            "setup_s": statistics.median(setups),
            "server_peak_rss_mb": peak_rss,
        }
        record: Dict[str, object] = {
            "workload": spec.name, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "smoke": self.smoke, "correct": correct,
            "attempted": phase.attempted, "failed": phase.failed,
            "failed_frac": phase.failed / max(phase.attempted, 1),
            "statuses": phase.statuses, "checks": checks,
            "samples": samples,
            "p99_supported": {kind: _supported(n, 99) for kind, n in
                              samples.items() if kind in ("ingest", "query")},
            "latency": {"ingest": _latency_table(phase.ingest_ns),
                        "query": _latency_table(phase.query_ns)},
            "recovery_s": (statistics.median(recoveries) if recoveries
                           else None),
            "server_cpu_us_per_req":
                server_cpu / max(phase.completed, 1) * 1e6,
            "raw": {"setup_s": setups, "recovery_s": recoveries,
                    "phase_s": wall, "server_cpu_s": server_cpu,
                    "client_cpu_s": client_cpu, "host_steal_s": steal,
                    "elems": phase.elems, "build_s": self.build_s},
            "sched_late_p99_ms": _percentile(phase.late_ns, 99),
            "server_exit_code": exit_code,
            "provenance": provenance(self, server),
        }
        if self.trace:
            layers = layer_metrics(spans, phase.start_ns, phase.end_ns,
                                   elems=phase.elems,
                                   server_cpu_s=server_cpu)
            layers["decode.ns_per_elem"] = sum(
                layers[name] for name in ("wire.decode_ns_per_elem",
                                          "http.json_decode_ns_per_elem",
                                          "labels.label_keys_ns_per_elem"))
            layers["server.cpu_util"] = server_cpu / wall
            layers["client.cpu_util"] = client_cpu / wall
            layers["client.sched_late_p99_ms"] = record["sched_late_p99_ms"]
            for name in ("durability.scan_s", "durability.replay_s"):
                layers[name] = (statistics.mean(
                    layer[name] for layer in recovery_layers)
                    if recovery_layers else 0.0)
            record["layers"] = layers
            record["missing_layers"] = spans["meta"]["missing"]
            record["metrics"] = {name: layers[name] for name in PER_LAYER}
            record["units"] = PER_LAYER
        else:
            record["metrics"] = metrics
            record["units"] = END_TO_END
        return record


def provenance(run: WorkloadRun, server: ServerProcess) -> Dict[str, object]:
    from repro.hashing.labels import LABEL_CACHE_LIMIT
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "commit": commit or None,
        "seed": run.seed,
        "client_pid": os.getpid(),
        "server_pid": server.pid,
        "connections": CONNECTIONS,
        "loop": run.spec.loop,
        "rate_per_s": run.spec.rate or None,
        "pool_requests": run.traffic.pool,
        "label_cache_limit": LABEL_CACHE_LIMIT,
        **{f"pool_{key}": value for key, value in run.traffic.info.items()},
    }


def _print_record(record: Dict[str, object]) -> None:
    name = record["workload"]
    units = record["units"]
    print(f"== {name} seed={record['seed']} trace={int(record['trace'])} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} samples={record['samples']}")
    for metric, value in record["metrics"].items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    if record["trace"]:
        for metric, unit in REPORT_LAYERS.items():
            print(f"{name} {metric} {record['layers'][metric]:.6g} {unit} "
                  f"(record only)")
        for where in record["missing_layers"]:
            print(f"{name} layer missing: {where}")
    else:
        print(f"{name} server_cpu_us_per_req "
              f"{record['server_cpu_us_per_req']:.6g} us/req (no bound)")
        if record["recovery_s"] is not None:
            print(f"{name} recovery_s {record['recovery_s']:.6g} s "
                  f"(no bound)")
    for kind, ok in record["p99_supported"].items():
        if not ok:
            print(f"{name} {kind}_p99_ms: fewer than 10 samples beyond p99")
    provenance = record["provenance"]
    distinct = provenance.get("pool_distinct_labels")
    if distinct is not None and distinct <= provenance["label_cache_limit"]:
        print(f"{name} the pool's {distinct} distinct labels fit the label "
              f"cache ({provenance['label_cache_limit']}): it never evicts")
    if not record["correct"]:
        print(f"{name} WRONG ANSWERS: {json.dumps(record['checks'])}")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SPECS),
                        action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured phase length (default "
                             f"{DEFAULT_SECONDS}, smoke {SMOKE['seconds']})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: run the server traced, report per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pools and phases: checks, not numbers")
    parser.add_argument("--out", default=".bench_out",
                        help="directory for result records")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if not harness.program_present():
        print(f"bench: the program is missing (no {harness.SRC}/repro); "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    # A terminated run still unwinds through ``kill_all``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    names = args.workload or list(workloads.SPECS)
    seconds = args.seconds or (SMOKE["seconds"] if args.smoke
                               else DEFAULT_SECONDS)
    out_dir = os.path.join(harness.ROOT, args.out)
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for name in names:
        work_dir = os.path.join(
            out_dir, f"tmp-{name}-{args.seed}-{args.trace}-{os.getpid()}")
        os.makedirs(work_dir)
        run = WorkloadRun(workloads.SPECS[name], args.seed, seconds,
                          bool(args.trace), args.smoke, work_dir)
        try:
            record = asyncio.run(run.run())
        finally:
            run.kill_all()
            shutil.rmtree(work_dir, ignore_errors=True)
        path = os.path.join(
            out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        _print_record(record)
        records.append(record)

    prefix = len(records) > 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{metric}" if prefix else metric):
                {"value": value, "unit": r["units"][metric]}
            for r in records for metric, value in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
