"""The ``tcm`` command-line tool.

An operator-facing front end over the library::

    tcm generate ipflow trace.txt --scale small     # synthetic workload
    tcm stats trace.txt                             # stream shape report
    tcm summarize trace.txt sketch.npz --d 5 --width 96
    tcm ingest trace.txt sketch.npz --parallel 4 --chunk-size 65536
    tcm window trace.txt window.npz --horizon 1000 --mode rotating
    tcm info sketch.npz
    tcm query sketch.npz edge 10.0.0.1 10.0.0.9
    tcm query sketch.npz reach 10.0.0.1 10.0.0.9
    tcm query sketch.npz inflow 10.0.0.9
    tcm obs --dataset gtgraph --scale tiny     # metrics/health demo
    tcm serve --data-dir /var/lib/tcm          # durable sketch service
    tcm recover /var/lib/tcm                   # offline recovery audit

Also available as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.serialization import load_tcm, save_tcm
from repro.core.tcm import TCM
from repro.streams.io import read_stream, write_stream
from repro.streams.stats import summarize, weight_histogram


def _cmd_generate(args) -> int:
    from repro.experiments import datasets

    stream = datasets.by_name(args.dataset, args.scale)
    count = write_stream(stream, args.output)
    print(f"wrote {count} elements "
          f"({'directed' if stream.directed else 'undirected'}) "
          f"to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    stream = read_stream(args.stream, directed=not args.undirected)
    report = summarize(stream)
    print(f"elements        {report.elements}")
    print(f"distinct edges  {report.distinct_edges}")
    print(f"nodes           {report.nodes}")
    print(f"total weight    {report.total_weight:g}")
    print(f"edge weights    [{report.min_edge_weight:g}, "
          f"{report.max_edge_weight:g}] "
          f"(mean {report.mean_edge_weight:g}, "
          f"gini {report.weight_gini:.3f})")
    print(f"degree gini     {report.degree_gini:.3f}")
    print("\nweight histogram (equal-count buckets):")
    for low, high, count in weight_histogram(stream, buckets=10):
        print(f"  [{low:g}, {high:g}]: {count}")
    return 0


def _cmd_summarize(args) -> int:
    stream = read_stream(args.stream, directed=not args.undirected)
    tcm = TCM(d=args.d, width=args.width, seed=args.seed,
              directed=stream.directed, keep_labels=args.keep_labels)
    count = tcm.ingest(stream)
    save_tcm(tcm, args.sketch)
    ratio = tcm.size_in_cells / max(1, count)
    print(f"summarized {count} elements into {args.sketch} "
          f"({tcm.d} x {args.width}x{args.width} cells, "
          f"{ratio:.2f} cells/element)")
    return 0


def _cmd_ingest(args) -> int:
    """High-throughput chunked (optionally parallel) stream-file ingest.

    Unlike ``summarize`` this never materializes the stream: elements are
    read lazily from the file and absorbed in ``--chunk-size`` batches,
    so memory stays constant however long the file is.  ``--parallel N``
    deals chunks to N worker processes building same-seed TCMs that are
    merged into one summary (docs/PERFORMANCE.md).
    """
    import time as _time

    from repro.streams.io import iter_stream_file

    if args.parallel < 1:
        raise SystemExit(f"--parallel must be >= 1, got {args.parallel}")
    if args.conservative and args.parallel > 1:
        raise SystemExit("conservative summaries are not mergeable; "
                         "use --parallel 1 with --conservative")
    config = dict(d=args.d, width=args.width, seed=args.seed,
                  directed=not args.undirected,
                  keep_labels=args.keep_labels, sparse=args.sparse)
    edges = iter_stream_file(args.stream)
    start = _time.perf_counter()
    if args.parallel > 1:
        from repro.distributed.parallel import ParallelTCMBuilder
        builder = ParallelTCMBuilder(workers=args.parallel,
                                     chunk_size=args.chunk_size, **config)
        tcm = builder.build(edges)
        count = None
    else:
        tcm = TCM(**config)
        if args.conservative:
            count = tcm.ingest_conservative(edges,
                                            chunk_size=args.chunk_size)
        else:
            count = tcm.ingest(edges, chunk_size=args.chunk_size)
    elapsed = _time.perf_counter() - start
    save_tcm(tcm, args.sketch)
    if count is None:
        # The parallel path streams the file straight into worker
        # processes without counting elements in the parent.
        print(f"ingested {args.stream} into {args.sketch} "
              f"in {elapsed:.2f}s "
              f"({args.parallel} workers, chunk size {args.chunk_size})")
    else:
        rate = count / elapsed if elapsed > 0 else float("inf")
        mode = "conservative" if args.conservative else "chunked"
        print(f"ingested {count} elements into {args.sketch} "
              f"in {elapsed:.2f}s ({mode}, chunk size {args.chunk_size}, "
              f"{rate:,.0f} elements/s)")
    return 0


def _cmd_window(args) -> int:
    """Maintain a sliding window over a timestamped stream file.

    Streams the file lazily through either the exact batch-deletion
    window (``--mode exact``, the default) or the approximate rotating
    sub-sketch window (``--mode rotating``), reports maintenance
    statistics, and optionally saves the final windowed summary -- the
    exact window's TCM, or the rotating window's merged view -- to a
    sketch file for ``tcm query``.
    """
    import time as _time

    from repro.streams.io import iter_stream_file
    from repro.streams.rotating import RotatingWindowTCM
    from repro.streams.window import SlidingWindow

    if args.horizon <= 0:
        raise SystemExit(f"--horizon must be positive, got {args.horizon}")
    config = dict(d=args.d, width=args.width, seed=args.seed,
                  directed=not args.undirected, sparse=args.sparse)
    edges = iter_stream_file(args.stream)
    start = _time.perf_counter()
    if args.mode == "rotating":
        window = RotatingWindowTCM(args.horizon, buckets=args.buckets,
                                   **config)
        count = window.consume(edges, chunk_size=args.chunk_size)
        summary = window.merged
        detail = (f"{args.buckets} buckets, "
                  f"staleness < {window.max_staleness:g}")
    else:
        window = SlidingWindow(TCM(**config), args.horizon)
        count = window.consume(edges, chunk_size=args.chunk_size)
        summary = window.summary
        detail = f"{len(window)} live elements"
    elapsed = _time.perf_counter() - start
    rate = count / elapsed if elapsed > 0 else float("inf")
    print(f"windowed {count} elements ({args.mode}, "
          f"horizon {args.horizon:g}, {detail}) "
          f"in {elapsed:.2f}s ({rate:,.0f} elements/s)")
    print(f"watermark    {window.watermark:g}")
    print(f"total weight {summary.total_weight_estimate():g}")
    if args.sketch is not None:
        save_tcm(summary, args.sketch)
        print(f"wrote windowed summary to {args.sketch}")
    return 0


def _cmd_info(args) -> int:
    tcm = load_tcm(args.sketch)
    print(f"sketches     {tcm.d}")
    for i, sketch in enumerate(tcm.sketches):
        extended = " extended" if sketch.keeps_labels else ""
        print(f"  [{i}] {sketch.rows}x{sketch.cols}"
              f"{' graphical' if sketch.is_graphical else ' non-square'}"
              f"{extended}")
    print(f"directed     {tcm.directed}")
    print(f"aggregation  {tcm.aggregation.value}")
    print(f"total cells  {tcm.size_in_cells}")
    print(f"total weight {tcm.total_weight_estimate():g}")
    return 0


def _run_query_batch(tcm, path: str) -> int:
    """Answer a query file through the batched kernels, in input order.

    Lines are ``<kind> <node> [<node>]`` with kinds ``edge``, ``reach``,
    ``shortest``, ``outflow``, ``inflow`` and ``flow``; blank lines and
    ``#`` comments are skipped.  Queries are grouped by kind so each
    group costs one engine kernel call, then printed in input order.
    """
    pair_kinds = ("edge", "reach", "shortest")
    node_kinds = ("outflow", "inflow", "flow")
    parsed = []  # (kind, index-within-kind-group)
    groups = {kind: [] for kind in pair_kinds + node_kinds}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            if kind in pair_kinds:
                if len(parts) != 3:
                    raise SystemExit(f"{path}:{lineno}: {kind} needs two "
                                     f"node labels, got {line!r}")
                payload = (parts[1], parts[2])
            elif kind in node_kinds:
                if len(parts) != 2:
                    raise SystemExit(f"{path}:{lineno}: {kind} needs one "
                                     f"node label, got {line!r}")
                payload = parts[1]
            else:
                raise SystemExit(f"{path}:{lineno}: unknown query kind "
                                 f"{kind!r}")
            parsed.append((kind, len(groups[kind])))
            groups[kind].append(payload)
    answers = {
        "edge": tcm.edge_weights(groups["edge"]),
        "reach": (tcm.reachable_many(groups["reach"])
                  if groups["reach"] else []),
        "shortest": (tcm.shortest_path_weights(groups["shortest"])
                     if groups["shortest"] else []),
        "outflow": (tcm.out_flows(groups["outflow"])
                    if groups["outflow"] else []),
        "inflow": tcm.in_flows(groups["inflow"]) if groups["inflow"] else [],
        "flow": tcm.flows(groups["flow"]) if groups["flow"] else [],
    }
    for kind, idx in parsed:
        value = answers[kind][idx]
        if kind == "reach":
            print("reachable" if value else "unreachable")
        else:
            print(f"{float(value):g}")
    return 0


def _cmd_query(args) -> int:
    tcm = load_tcm(args.sketch)
    if args.batch is not None:
        return _run_query_batch(tcm, args.batch)
    kind = args.kind
    if kind is None or args.node1 is None:
        raise SystemExit("query needs a kind and node label(s) "
                         "(or --batch FILE)")
    if kind == "subgraph":
        from repro.core.query_parser import parse_subgraph_query
        query = parse_subgraph_query(args.node1)
        print(f"{tcm.subgraph_weight(query):g}")
    elif kind == "edge":
        if args.node2 is None:
            raise SystemExit("edge queries need two node labels")
        print(f"{tcm.edge_weight(args.node1, args.node2):g}")
    elif kind == "reach":
        if args.node2 is None:
            raise SystemExit("reach queries need two node labels")
        print("reachable" if tcm.reachable(args.node1, args.node2)
              else "unreachable")
    elif kind == "shortest":
        if args.node2 is None:
            raise SystemExit("shortest queries need two node labels")
        print(f"{tcm.shortest_path_weight(args.node1, args.node2):g}")
    elif kind == "outflow":
        print(f"{tcm.out_flow(args.node1):g}")
    elif kind == "inflow":
        print(f"{tcm.in_flow(args.node1):g}")
    elif kind == "flow":
        print(f"{tcm.flow(args.node1):g}")
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown query kind {kind!r}")
    return 0


def _cmd_serve(args) -> int:
    """``tcm serve``: the multi-tenant micro-batching sketch service.

    Binds the asyncio HTTP/JSON front end (docs/SERVER.md), enables
    observability (so ``/metrics`` and ``/stats`` are live) and a
    background runtime sampler, then runs until SIGINT/SIGTERM.  On
    shutdown every staged micro-batch is drained, and the per-endpoint
    latency quantiles (``repro.obs.runtime.latency_quantiles``) are
    printed as the final service report.
    """
    import asyncio
    import signal

    from repro.obs import instruments
    from repro.obs.runtime import RuntimeSampler, latency_quantiles
    from repro.server import SketchServer

    if args.max_batch < 1:
        raise SystemExit(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.max_delay_ms <= 0:
        raise SystemExit(
            f"--max-delay-ms must be positive, got {args.max_delay_ms}")
    if args.fsync_interval_ms <= 0:
        raise SystemExit(f"--fsync-interval-ms must be positive, "
                         f"got {args.fsync_interval_ms}")
    if args.rotate_mb <= 0:
        raise SystemExit(f"--rotate-mb must be positive, got {args.rotate_mb}")
    if args.max_body_mb <= 0:
        raise SystemExit(f"--max-body-mb must be positive, "
                         f"got {args.max_body_mb}")
    if args.lag_limit_ms <= 0:
        raise SystemExit(f"--lag-limit-ms must be positive, "
                         f"got {args.lag_limit_ms}")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1:
        return _cmd_serve_sharded(args)
    if not args.no_obs:
        instruments.enable()
    server = SketchServer(host=args.host, port=args.port,
                          max_batch=args.max_batch,
                          max_delay=args.max_delay_ms / 1000.0,
                          batching=not args.no_batching,
                          max_body=int(args.max_body_mb * (1 << 20)),
                          max_backlog=args.max_backlog,
                          max_connections=args.max_connections,
                          lag_limit=args.lag_limit_ms / 1000.0,
                          data_dir=args.data_dir,
                          fsync=args.fsync,
                          fsync_interval=args.fsync_interval_ms / 1000.0,
                          rotate_bytes=int(args.rotate_mb * (1 << 20)),
                          snapshot_interval=args.snapshot_interval)

    async def _run() -> None:
        port = await server.start()
        print(f"tcm serve: listening on http://{args.host}:{port} "
              f"(batching {'on' if server.batching else 'off'}, "
              f"max_batch={args.max_batch}, "
              f"max_delay={args.max_delay_ms:g}ms)", flush=True)
        if args.data_dir is not None:
            report = server.recovery_report or {}
            print(f"tcm serve: durable in {args.data_dir} "
                  f"(fsync={args.fsync}, "
                  f"snapshot every {args.snapshot_interval:g}s); "
                  f"recovered {len(report.get('tenants', {}))} tenants, "
                  f"{report.get('records', 0)} WAL records "
                  f"({report.get('elements', 0)} elements, "
                  f"{report.get('torn_frames', 0)} torn frames) "
                  f"in {report.get('seconds', 0.0):.3f}s", flush=True)
        sampler = None
        if not args.no_obs:
            sampler = RuntimeSampler()
            sampler.start(interval=args.sample_interval)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop.wait()
        await server.stop()
        if sampler is not None:
            sampler.stop()
        if not args.no_obs:
            for key, q in sorted(latency_quantiles().items()):
                if not key.startswith("server_request_seconds"):
                    continue
                print(f"tcm serve: {key} "
                      f"p50={q['p50'] * 1e3:.3f}ms "
                      f"p99={q['p99'] * 1e3:.3f}ms "
                      f"n={int(q['count'])}", flush=True)
        print("tcm serve: shut down cleanly", flush=True)

    asyncio.run(_run())
    return 0


def _cmd_serve_sharded(args) -> int:
    """``tcm serve --workers N``: the multi-process sharded service.

    Forks N complete servers (own event loop, coalescers, per-worker
    WAL directory) that share the listening port via ``SO_REUSEPORT``
    and own disjoint tenant sets by hash affinity -- see
    ``repro.server.sharding`` and docs/SERVER.md.  The parent only
    orchestrates (port map, signal relay, reaping); a clean SIGTERM
    drains every worker before the parent exits 0.
    """
    import os

    from repro.server.sharding import run_sharded

    def _worker(shard, channel, shared_port) -> int:
        import asyncio
        import signal

        from repro.obs import instruments
        from repro.server import SketchServer

        if not args.no_obs:
            instruments.enable()
        data_dir = (os.path.join(args.data_dir, f"worker-{shard.index}")
                    if args.data_dir is not None else None)
        server = SketchServer(host=args.host, port=shared_port,
                              max_batch=args.max_batch,
                              max_delay=args.max_delay_ms / 1000.0,
                              batching=not args.no_batching,
                              max_body=int(args.max_body_mb * (1 << 20)),
                              max_backlog=args.max_backlog,
                              max_connections=args.max_connections,
                              lag_limit=args.lag_limit_ms / 1000.0,
                              data_dir=data_dir,
                              fsync=args.fsync,
                              fsync_interval=args.fsync_interval_ms / 1000.0,
                              rotate_bytes=int(args.rotate_mb * (1 << 20)),
                              snapshot_interval=args.snapshot_interval,
                              shard=shard)

        async def _run() -> None:
            await server.start(reuse_port=True, direct_port=0)
            shard.ports[:] = channel.report(server.direct_port)
            if instruments.OBS.enabled:
                instruments.OBS.server_worker_index.set(shard.index)
                instruments.OBS.server_cluster_workers.set(shard.count)
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except NotImplementedError:  # pragma: no cover
                    pass
            await stop.wait()
            await server.stop()
            print(f"tcm serve: worker {shard.index} shut down cleanly",
                  flush=True)

        asyncio.run(_run())
        return 0

    def _banner(shared_port, reports) -> None:
        print(f"tcm serve: listening on http://{args.host}:{shared_port} "
              f"(batching {'on' if not args.no_batching else 'off'}, "
              f"max_batch={args.max_batch}, "
              f"max_delay={args.max_delay_ms:g}ms)", flush=True)
        ports = ", ".join(
            f"{i}:pid={r['pid']}:port={r['direct_port']}"
            for i, r in enumerate(reports))
        print(f"tcm serve: {args.workers} workers ({ports})", flush=True)
        if args.data_dir is not None:
            print(f"tcm serve: durable in {args.data_dir} "
                  f"(fsync={args.fsync}, one WAL dir per worker)",
                  flush=True)

    code = run_sharded(args.workers, args.host, args.port, _worker,
                       banner=_banner)
    if code == 0:
        print("tcm serve: shut down cleanly", flush=True)
    return code


def _cmd_recover(args) -> int:
    """``tcm recover``: offline recovery check for a ``--data-dir``.

    Rebuilds every tenant from its latest usable snapshot plus the WAL
    tail -- exactly what ``tcm serve --data-dir`` does at boot -- and
    prints the per-tenant report without starting a server.  Use it to
    audit a data directory after a crash, or to measure recovery time.
    Exits non-zero if any tenant fails to recover or the replay hit
    poison records.
    """
    import os

    from repro.server.durability import DurabilityManager
    from repro.server.registry import SketchRegistry

    if not os.path.isdir(args.data_dir):
        raise SystemExit(f"not a directory: {args.data_dir}")
    registry = SketchRegistry()
    manager = DurabilityManager(args.data_dir, fsync="off")
    try:
        report = manager.recover(registry)
    finally:
        manager.close_all(registry)
    print(f"tcm recover: {len(report['tenants'])} tenants, "
          f"{report['records']} WAL records "
          f"({report['elements']} elements) replayed "
          f"in {report['seconds']:.3f}s")
    print(f"  torn frames discarded: {report['torn_frames']}")
    print(f"  replay errors:         {report['replay_errors']}")
    for name in sorted(registry.names()):
        tenant = registry.get(name)
        print(f"  tenant {name!r}: kind={tenant.kind} "
              f"total_weight={tenant.sketch.total_weight_estimate():g}")
    return 1 if report["replay_errors"] else 0


def _cmd_loadgen(args) -> int:
    """``tcm loadgen``: resilient driver for a running ``tcm serve``.

    Pre-generates the request mix, fans it over persistent keep-alive
    connections (closed loop, or open loop with ``--rate``), retries
    transient failures with backoff, and prints throughput plus
    client-side p50/p99 (and the server's own histogram quantiles from
    ``/stats``).
    """
    import asyncio
    import json as _json

    from repro.server import run_loadgen

    if args.rate is not None and args.rate <= 0:
        raise SystemExit(f"--rate must be positive, got {args.rate}")
    sketch_config = {"kind": args.kind, "d": args.d, "width": args.width,
                     "seed": args.seed}
    if args.kind == "window":
        sketch_config["horizon"] = args.horizon
    summary = asyncio.run(run_loadgen(
        args.host, args.port, sketch=args.sketch,
        connections=args.connections, requests=args.requests,
        elements=args.elements, n_nodes=args.nodes,
        query_ratio=args.query_ratio, seed=args.seed,
        sketch_config=sketch_config, cleanup=args.cleanup,
        rate=args.rate, request_timeout=args.timeout,
        max_retries=args.retries, wire_mode=args.wire,
        encode=args.encode))
    lat = summary["latency_ms"]
    print(f"loadgen: {summary['requests']} requests over "
          f"{summary['connections']} connections in "
          f"{summary['seconds']:.2f}s ({summary['mode']} loop, "
          f"{summary['wire']} wire)")
    print(f"  {summary['req_per_s']:,.0f} req/s, "
          f"{summary['elements_per_s']:,.0f} elements/s "
          f"({summary['ingested_elements']} ingested, "
          f"{summary['errors']} errors, {summary['retries']} retries)")
    print(f"  latency p50 {lat['p50']:.3f}ms, p99 {lat['p99']:.3f}ms, "
          f"max {lat['max']:.3f}ms")
    if summary["errors_by_class"]:
        parts = ", ".join(f"{k}={v}" for k, v
                          in sorted(summary["errors_by_class"].items()))
        print(f"  errors by class: {parts}")
    sheds = summary["sheds"]
    if sheds["http_429"] or sheds["http_503"]:
        print(f"  sheds: 429={sheds['http_429']} 503={sheds['http_503']} "
              f"retry_after_honored={sheds['retry_after_honored']}")
    if args.out is not None:
        with open(args.out, "w") as fh:
            _json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if summary["errors"] else 0


def _cmd_diff(args) -> int:
    from repro.core.compare import (
        sketch_distance,
        top_changed_cells,
        top_changed_edges,
    )

    before = load_tcm(args.before)
    after = load_tcm(args.after)
    print(f"L1 distance   {sketch_distance(before, after, 'l1'):g}")
    print(f"Linf distance {sketch_distance(before, after, 'linf'):g}")
    if after.sketches[0].keeps_labels and before.sketches[0].keeps_labels:
        changes = top_changed_edges(before, after, k=args.top)
        if changes:
            print("\nbiggest edge changes:")
            for (x, y), delta in changes:
                sign = "+" if delta >= 0 else ""
                print(f"  {x} -> {y}: {sign}{delta:g}")
    else:
        cells = top_changed_cells(before, after, k=args.top)
        if cells:
            print("\nbiggest cell changes (build with --keep-labels for "
                  "label decoding):")
            for (row, col), delta in cells:
                sign = "+" if delta >= 0 else ""
                print(f"  cell ({row}, {col}): {sign}{delta:g}")
    return 0


def _cmd_obs_flight(args) -> int:
    """``tcm obs flight``: drive a drift workload, dump the black box.

    Runs a short instrumented soak -- stationary R-MAT, then a quadrant
    parameter shift -- with the accuracy tracker, runtime sampler and
    flight recorder attached, then prints (or writes with ``--out``) the
    recorder's JSON post-mortem: spans, saturation warnings, drift
    alarms and workload marks, oldest first.
    """
    import itertools

    from repro import obs
    from repro.streams.generators import rmat_edges_drifting

    obs.enable()
    obs.FLIGHT.clear()
    try:
        tcm = TCM(d=args.d, width=args.width, seed=args.seed)
        tracker = obs.AccuracyTracker(tcm, sample_size=args.sample_size,
                                      seed=args.seed, name="flight",
                                      flight=obs.FLIGHT)
        sampler = obs.RuntimeSampler()
        n_edges = {"tiny": 20_000, "small": 100_000,
                   "medium": 400_000}[args.scale]
        stream = rmat_edges_drifting(1 << 12, n_edges, seed=args.seed,
                                     rate=1000.0)
        obs.FLIGHT.mark("workload start", edges=n_edges,
                        drift="rmat quadrant shift at 50%")
        chunk_size = max(1, n_edges // 20)
        marked_drift = False
        seen = 0
        iterator = iter(stream)
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            sources = [e.source for e in chunk]
            targets = [e.target for e in chunk]
            weights = [e.weight for e in chunk]
            with obs.span("obs.flight.ingest", elements=len(chunk)):
                tcm.ingest_columns(sources, targets, weights)
            tracker.observe_columns(sources, targets, weights)
            tracker.tick(timestamp=chunk[-1].timestamp)
            sampler.sample()
            obs.FLIGHT.check_saturation(tcm, summary="flight")
            obs.FLIGHT.capture_spans()
            seen += len(chunk)
            if not marked_drift and seen >= n_edges // 2:
                obs.FLIGHT.mark("drift phase reached", elements=seen)
                marked_drift = True
        obs.FLIGHT.mark("workload end", elements=seen,
                        runtime=sampler.summary())
        dump = obs.FLIGHT.dump_json(indent=2)
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(dump)
            print(f"wrote flight post-mortem to {args.out} "
                  f"({len(obs.FLIGHT)} events)")
        else:
            print(dump)
    finally:
        obs.disable()
    return 0


def _cmd_obs(args) -> int:
    """Instrumented demo ingest: emit metrics, health and trace snapshots.

    Enables observability, replays a stream (a file if given, else a
    synthetic dataset) through an instrumented per-element ingest with
    the periodic reporter attached, runs a sample query workload to
    populate the latency histograms, then prints the Prometheus text
    exposition and/or the JSON snapshot.  ``tcm obs flight`` instead runs
    the drift workload and dumps the flight recorder's post-mortem.
    """
    from repro import obs
    from repro.experiments import datasets
    from repro.streams.replay import MonitoringHub

    if args.stream == "flight":
        return _cmd_obs_flight(args)

    obs.enable()
    try:
        if args.stream is not None:
            stream = read_stream(args.stream, directed=not args.undirected)
        else:
            stream = datasets.by_name(args.dataset, args.scale)

        tcm = TCM(d=args.d, width=args.width, seed=args.seed,
                  directed=stream.directed)
        reporter = obs.PeriodicReporter(every=args.every,
                                        emit=lambda line: print(line))
        hub = MonitoringHub()
        hub.attach("summary", tcm)
        hub.attach("reporter", reporter)
        tracker = None
        if args.accuracy:
            tracker = obs.AccuracyTracker(tcm, sample_size=args.sample_size,
                                          seed=args.seed, name="demo",
                                          flight=obs.FLIGHT)
            hub.attach("shadow-truth", tracker.comparator)
        with obs.span("obs.demo.ingest"):
            hub.replay(stream)
        reporter.report()
        if tracker is not None:
            report = tracker.tick()
            print(f"[obs] accuracy: {report.sampled_keys} sampled keys, "
                  f"mean ARE {report.mean_are:.4f}, "
                  f"observed epsilon {report.observed_epsilon:.6f}, "
                  f"FPR {report.false_positive_rate:.3f}")

        # A sample query workload so every latency histogram has data.
        with obs.span("obs.demo.queries"):
            edges = sorted(stream.distinct_edges, key=repr)[:args.queries]
            for x, y in edges:
                tcm.edge_weight(x, y)
            tcm.edge_weights(edges)
            nodes = sorted(stream.nodes, key=repr)[:args.queries]
            for node in nodes[:20]:
                if stream.directed:
                    tcm.out_flow(node)
                    tcm.in_flow(node)
                else:
                    tcm.flow(node)
            if edges:
                tcm.reachable(*edges[0])

        health = obs.publish_health(tcm, name="demo")
        for warning in obs.saturation_warnings(health):
            print(f"warning: {warning}")

        if args.format in ("prom", "both"):
            print(obs.render_prometheus())
        if args.format in ("json", "both"):
            print(obs.json_snapshot(tcms={"demo": tcm}, indent=2))
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(obs.json_snapshot(tcms={"demo": tcm}, indent=2))
            print(f"wrote JSON snapshot to {args.out}")
    finally:
        obs.disable()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcm",
        description="TCM graph-stream summarization (SIGMOD'16 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset to a stream file")
    generate.add_argument("dataset",
                          choices=("dblp", "ipflow", "gtgraph", "twitter"))
    generate.add_argument("output")
    generate.add_argument("--scale", choices=("tiny", "small", "medium"),
                          default="small")
    generate.set_defaults(handler=_cmd_generate)

    stats = commands.add_parser("stats", help="describe a stream file")
    stats.add_argument("stream")
    stats.add_argument("--undirected", action="store_true")
    stats.set_defaults(handler=_cmd_stats)

    summarize_cmd = commands.add_parser(
        "summarize", help="build a TCM from a stream file")
    summarize_cmd.add_argument("stream")
    summarize_cmd.add_argument("sketch")
    summarize_cmd.add_argument("--d", type=int, default=4)
    summarize_cmd.add_argument("--width", type=int, default=256)
    summarize_cmd.add_argument("--seed", type=int, default=0)
    summarize_cmd.add_argument("--undirected", action="store_true")
    summarize_cmd.add_argument("--keep-labels", action="store_true",
                               help="build the extended sketch (§5.1.4)")
    summarize_cmd.set_defaults(handler=_cmd_summarize)

    ingest = commands.add_parser(
        "ingest", help="chunked high-throughput (optionally parallel) "
                       "build from a stream file (docs/PERFORMANCE.md)")
    ingest.add_argument("stream")
    ingest.add_argument("sketch")
    ingest.add_argument("--d", type=int, default=4)
    ingest.add_argument("--width", type=int, default=256)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--undirected", action="store_true")
    ingest.add_argument("--keep-labels", action="store_true",
                        help="build the extended sketch (§5.1.4)")
    ingest.add_argument("--sparse", action="store_true",
                        help="dict-backed sparse backend (§5.1.1)")
    ingest.add_argument("--chunk-size", type=int, default=65536,
                        help="elements per ingest batch (default 65536)")
    ingest.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="worker processes for a sharded build "
                             "(same-seed TCMs, merged; default 1)")
    ingest.add_argument("--conservative", action="store_true",
                        help="conservative (Estan-Varghese) batched "
                             "ingest; insert-only, not mergeable")
    ingest.set_defaults(handler=_cmd_ingest)

    window = commands.add_parser(
        "window", help="maintain a sliding time-window summary over a "
                       "timestamped stream file (docs/PERFORMANCE.md)")
    window.add_argument("stream")
    window.add_argument("sketch", nargs="?", default=None,
                        help="optional output file for the final "
                             "windowed summary")
    window.add_argument("--horizon", type=float, required=True,
                        help="window length in stream time units")
    window.add_argument("--mode", choices=("exact", "rotating"),
                        default="exact",
                        help="exact batch-deletion window, or the "
                             "approximate rotating sub-sketch ring")
    window.add_argument("--buckets", type=int, default=8,
                        help="sub-sketches per horizon (rotating mode)")
    window.add_argument("--d", type=int, default=4)
    window.add_argument("--width", type=int, default=256)
    window.add_argument("--seed", type=int, default=0)
    window.add_argument("--undirected", action="store_true")
    window.add_argument("--sparse", action="store_true",
                        help="dict-backed sparse backend (§5.1.1)")
    window.add_argument("--chunk-size", type=int, default=65536,
                        help="elements per maintenance batch")
    window.set_defaults(handler=_cmd_window)

    info = commands.add_parser("info", help="describe a sketch file")
    info.add_argument("sketch")
    info.set_defaults(handler=_cmd_info)

    query = commands.add_parser("query", help="query a sketch file")
    query.add_argument("sketch")
    query.add_argument("kind", nargs="?", default=None,
                       choices=("edge", "reach", "shortest", "outflow",
                                "inflow", "flow", "subgraph"))
    query.add_argument("node1", nargs="?", default=None,
                       help="node label; for 'subgraph', the query text, "
                            "e.g. '*->b, b->c, c->*'")
    query.add_argument("node2", nargs="?", default=None)
    query.add_argument("--batch", metavar="FILE", default=None,
                       help="answer a file of queries ('edge x y', "
                            "'reach x y', 'shortest x y', 'outflow x', "
                            "'inflow x', 'flow x'; '#' comments) through "
                            "the batched kernels, results in input order")
    query.set_defaults(handler=_cmd_query)

    obs_cmd = commands.add_parser(
        "obs", help="instrumented demo ingest; emit metrics/health "
                    "snapshots (docs/OBSERVABILITY.md)")
    obs_cmd.add_argument("stream", nargs="?", default=None,
                         metavar="stream|flight",
                         help="optional stream file, or the literal "
                              "'flight' to run the drift workload and "
                              "dump the flight-recorder post-mortem; "
                              "default: a synthetic dataset "
                              "(--dataset/--scale)")
    obs_cmd.add_argument("--dataset",
                         choices=("dblp", "ipflow", "gtgraph", "twitter"),
                         default="gtgraph",
                         help="synthetic dataset (gtgraph = R-MAT)")
    obs_cmd.add_argument("--scale", choices=("tiny", "small", "medium"),
                         default="tiny")
    obs_cmd.add_argument("--d", type=int, default=4)
    obs_cmd.add_argument("--width", type=int, default=64)
    obs_cmd.add_argument("--seed", type=int, default=0)
    obs_cmd.add_argument("--undirected", action="store_true")
    obs_cmd.add_argument("--queries", type=int, default=100,
                         help="sample queries per family after ingest")
    obs_cmd.add_argument("--every", type=int, default=5000,
                         help="periodic-reporter cadence in elements")
    obs_cmd.add_argument("--accuracy", action="store_true",
                         help="attach a shadow-truth accuracy tracker and "
                              "print observed ARE/epsilon/FPR after ingest")
    obs_cmd.add_argument("--sample-size", type=int, default=256,
                         help="shadow-truth sampled edge keys "
                              "(--accuracy and flight modes)")
    obs_cmd.add_argument("--format", choices=("prom", "json", "both"),
                         default="both")
    obs_cmd.add_argument("--out", default=None,
                         help="also write the JSON snapshot to this file")
    obs_cmd.set_defaults(handler=_cmd_obs)

    serve = commands.add_parser(
        "serve", help="run the multi-tenant micro-batching sketch "
                      "service (docs/SERVER.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listening port (0 picks a free one)")
    serve.add_argument("--max-batch", type=int, default=4096,
                       help="flush a micro-batch at this many staged "
                            "elements (default 4096)")
    serve.add_argument("--max-delay-ms", type=float, default=2.0,
                       help="flush a micro-batch when its oldest request "
                            "has waited this long (default 2ms)")
    serve.add_argument("--no-batching", action="store_true",
                       help="disable coalescing: apply every request "
                            "immediately via the scalar paths (the "
                            "BENCH_server.json baseline)")
    serve.add_argument("--no-obs", action="store_true",
                       help="skip enabling observability (faster, but "
                            "/metrics and /stats stay empty)")
    serve.add_argument("--sample-interval", type=float, default=5.0,
                       help="runtime-sampler cadence in seconds")
    serve.add_argument("--data-dir", default=None,
                       help="enable durability: per-tenant write-ahead "
                            "logs and snapshots under this directory, "
                            "with crash recovery at boot")
    serve.add_argument("--fsync", choices=("always", "interval", "off"),
                       default="interval",
                       help="WAL fsync policy: per record, time-based "
                            "(--fsync-interval-ms), or never "
                            "(default interval)")
    serve.add_argument("--fsync-interval-ms", type=float, default=50.0,
                       help="max seconds of acked data at risk with "
                            "--fsync interval (default 50ms)")
    serve.add_argument("--snapshot-interval", type=float, default=30.0,
                       help="background snapshot cadence in seconds; "
                            "0 disables periodic snapshots (default 30)")
    serve.add_argument("--rotate-mb", type=float, default=64.0,
                       help="rotate WAL segments at this size (default 64)")
    serve.add_argument("--max-body-mb", type=float, default=8.0,
                       help="reject request bodies larger than this "
                            "with 413 (default 8)")
    serve.add_argument("--max-backlog", type=int, default=None,
                       help="bound staged ingest elements per tenant; "
                            "admission beyond it sheds 429 "
                            "(default 8 * max_batch)")
    serve.add_argument("--max-connections", type=int, default=512,
                       help="concurrent connection cap; beyond it new "
                            "connections get 503 (default 512)")
    serve.add_argument("--lag-limit-ms", type=float, default=250.0,
                       help="event-loop lag threshold for shedding "
                            "ingest with 429 (default 250ms)")
    serve.add_argument("--workers", type=int, default=1,
                       help="fork this many sharded worker processes "
                            "sharing the port via SO_REUSEPORT, with "
                            "tenants assigned by hash affinity "
                            "(default 1: single process)")
    serve.set_defaults(handler=_cmd_serve)

    recover = commands.add_parser(
        "recover", help="offline crash-recovery check for a 'tcm serve' "
                        "--data-dir (docs/SERVER.md)")
    recover.add_argument("data_dir",
                         help="the --data-dir to recover tenants from")
    recover.set_defaults(handler=_cmd_recover)

    loadgen = commands.add_parser(
        "loadgen", help="drive a running 'tcm serve' with a concurrent "
                        "request mix and report throughput/latency")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8765)
    loadgen.add_argument("--sketch", default="loadgen",
                         help="tenant name to create and drive")
    loadgen.add_argument("--kind", choices=("tcm", "window"),
                         default="tcm")
    loadgen.add_argument("--horizon", type=float, default=1000.0,
                         help="window horizon (--kind window)")
    loadgen.add_argument("--d", type=int, default=4)
    loadgen.add_argument("--width", type=int, default=256)
    loadgen.add_argument("--seed", type=int, default=7)
    loadgen.add_argument("--connections", type=int, default=16,
                         help="persistent keep-alive connections")
    loadgen.add_argument("--requests", type=int, default=512,
                         help="total requests across all connections")
    loadgen.add_argument("--elements", type=int, default=256,
                         help="stream elements per ingest request")
    loadgen.add_argument("--nodes", type=int, default=4096,
                         help="node-id universe for the generated edges")
    loadgen.add_argument("--query-ratio", type=float, default=0.0,
                         help="fraction of requests that are batched "
                              "edge queries (default: all ingest)")
    loadgen.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate in requests/s "
                              "(default: closed loop)")
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         help="per-request timeout in seconds (default 30)")
    loadgen.add_argument("--retries", type=int, default=3,
                         help="max retries per request for transient "
                              "failures and 429/503 sheds (default 3)")
    loadgen.add_argument("--wire", choices=("json", "binary"),
                         default="json",
                         help="request encoding: JSON bodies or the "
                              "binary columnar wire protocol "
                              "(docs/SERVER.md; default json)")
    loadgen.add_argument("--encode", choices=("eager", "lazy"),
                         default="eager",
                         help="serialize request bodies before the clock "
                              "starts (eager) or inside the timed loop "
                              "(lazy, the honest end-to-end client cost; "
                              "default eager)")
    loadgen.add_argument("--cleanup", action="store_true",
                         help="delete the tenant when done")
    loadgen.add_argument("--out", default=None,
                         help="also write the JSON summary here")
    loadgen.set_defaults(handler=_cmd_loadgen)

    diff = commands.add_parser(
        "diff", help="compare two sketch files (graph evolution)")
    diff.add_argument("before")
    diff.add_argument("after")
    diff.add_argument("--top", type=int, default=10,
                      help="how many changed edges/cells to list")
    diff.set_defaults(handler=_cmd_diff)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
