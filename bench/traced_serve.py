"""Run ``tcm serve`` with spans recorded around each layer's entry point.

Usage::

    python bench/traced_serve.py --spans PATH -- serve --port 0 [...]

Tracing is outside-in: the program is not edited.  Before the server
starts, each synchronous function from :func:`targets` is replaced, at the
binding its caller looks up, by a wrapper that records a span: layer
name, start and end ``perf_counter_ns``, an element count, an auxiliary
count, the parent span (a per-thread stack) and the thread.  Spans stay
in memory and are written to ``PATH`` (a ``.npz``) when the process
exits or receives SIGUSR1.  A target that no longer exists is reported
as missing instead of failing the run.

``perf_counter_ns`` reads ``CLOCK_MONOTONIC``, which every process on
the machine shares, so the client can cut the spans to its own measured
phase by time.

The analysis half (:func:`self_times`, :func:`layer_metrics`) is
imported by ``run.py``; importing this module patches nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# -- what gets wrapped ---------------------------------------------------------
#
# A target's ``before(args, kwargs)`` runs just before the call and returns
# a state; its ``count(args, result, state, start_ns)`` runs after it and
# returns the span's element count and auxiliary count.

def _count_arg(index: int) -> Callable:
    return lambda args, result, state, start: (len(args[index]), 0)


def _one(args, result, state, start):
    return 1, 0


def _label_hits(args, kwargs):
    from repro.hashing.labels import label_cache_info
    return label_cache_info()["hits"]


def _label_keys_count(args, result, hits, start):
    from repro.hashing.labels import label_cache_info
    return len(result), label_cache_info()["hits"] - hits


def _json_elems(args, result, state, start):
    for field in ("sources", "pairs", "nodes"):
        values = result.get(field)
        if isinstance(values, list):
            return len(values), 0
    return 0, 0


def _flush_name(args, kwargs) -> str:
    reason = args[1] if len(args) > 1 else kwargs.get("reason", "explicit")
    return f"coalescer.flush[{reason}]"


class Target:
    """One wrap target: ``module`` + dotted ``attr`` -> layer ``name``."""

    def __init__(self, module: str, attr: str, name: str,
                 count: Callable = _one, *,
                 before: Optional[Callable] = None,
                 name_of: Optional[Callable] = None):
        self.module = module
        self.attr = attr
        self.name = name
        self.count = count
        self.before = before
        self.name_of = name_of

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attr}"


def targets() -> List[Target]:
    """Layer boundaries, outermost first.  Methods are patched on their
    class, functions on the module whose code calls them."""
    # id(coalescer) -> start of the first ``add`` of its open batch; the
    # ``flush`` that applies the batch turns it into the batch's wait.
    first_add: Dict[int, int] = {}

    def add_before(args, kwargs):
        return len(args[0]) == 0

    def add_count(args, result, first, start):
        if first:
            first_add[id(args[0])] = start
        return len(args[1]), 0

    def flush_before(args, kwargs):
        return first_add.pop(id(args[0]), None) if len(args[0]) else None

    def flush_count(args, result, first, start):
        return int(result or 0), start - first if first is not None else -1

    return [
        Target("repro.server.wire", "decode_frame", "wire.decode",
               lambda args, result, state, start: (result.count, 0)),
        Target("repro.server.http", "SketchServer._json_body",
               "http.json_decode", _json_elems),
        Target("repro.server.http", "label_keys", "labels.label_keys",
               _label_keys_count, before=_label_hits),
        Target("repro.server.coalescer", "IngestCoalescer.add",
               "coalescer.add", add_count, before=add_before),
        Target("repro.server.coalescer", "IngestCoalescer.flush",
               "coalescer.flush", flush_count, before=flush_before,
               name_of=_flush_name),
        Target("repro.core.tcm", "TCM.ingest_keys", "tcm.ingest_keys",
               _count_arg(1)),
        Target("repro.core.kernels", "dedup_keys", "kernels.dedup",
               lambda args, result, state, start: (len(args[0]),
                                                   len(result[0]))),
        Target("repro.core.tcm", "_hash_bulk", "family.hash_bulk",
               _count_arg(1)),
        Target("repro.core.kernels", "NumpyKernels.scatter_add",
               "kernels.scatter", _count_arg(2)),
        Target("repro.core.tcm", "TCM.edge_weights", "tcm.edge_weights",
               _count_arg(1)),
        Target("repro.core.tcm", "TCM.out_flows", "tcm.out_flows",
               _count_arg(1)),
        Target("repro.core.tcm", "TCM.reachable_many",
               "tcm.reachable_many", _count_arg(1)),
        Target("repro.core.query_engine", "build_connectivity_index",
               "query_engine.index_build"),
        Target("repro.server.durability", "WalWriter.append_ingest",
               "durability.append", _count_arg(1)),
        Target("repro.server.durability", "WalWriter._commit_group",
               "durability.commit", _count_arg(1)),
        Target("repro.server.durability", "WalWriter._do_fsync",
               "durability.fsync"),
        Target("repro.server.durability", "scan_segment", "durability.scan",
               lambda args, result, state, start: (len(result[0]), 0)),
        Target("repro.server.registry", "TenantSketch.replay",
               "durability.replay",
               lambda args, result, state, start: (args[1].elements, 0)),
    ]


# -- the recorder ----------------------------------------------------------------

class Tracer:
    """In-memory span recorder with one span list and stack per thread."""

    def __init__(self) -> None:
        self.names: Dict[str, int] = {}
        self.missing: List[str] = []
        self.span_cost_ns = 0.0
        self._local = threading.local()
        self._threads: List[Tuple[int, list]] = []
        self._lock = threading.Lock()

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self._threads.append((threading.get_ident(), state[0]))
        return state

    def _layer(self, name: str) -> int:
        layer = self.names.get(name)
        if layer is None:
            with self._lock:
                layer = self.names.setdefault(name, len(self.names))
        return layer

    def wrap(self, fn: Callable, target: Target) -> Callable:
        layer = self._layer(target.name)
        count, before, name_of = target.count, target.before, target.name_of
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            state = before(args, kwargs) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            n, aux = count(args, result, state, start)
            spans[index] = (layer if name_of is None
                            else self._layer(name_of(args, kwargs)),
                            start, end, n, aux, parent)
            return result

        return traced

    def install(self, targets: List[Target]) -> None:
        """Patch every target; unknown ones go to :attr:`missing`."""
        for target in targets:
            try:
                owner: Any = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) \
                    else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.where)
                continue
            setattr(owner, leaf, self.wrap(original, target))
        self.span_cost_ns = self._calibrate()

    def _calibrate(self, calls: int = 20000) -> float:
        """Added cost of one span, measured on a no-op in this process."""
        def noop(x):
            return x
        traced = self.wrap(noop, Target("", "", "trace.calibrate"))
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter_ns()
            for i in range(calls):
                noop(i)
            plain = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for i in range(calls):
                traced(i)
            best = min(best, (time.perf_counter_ns() - start - plain) / calls)
        spans, _ = self._thread_state()
        del spans[-3 * calls:]
        return best

    def dump(self, path: str) -> None:
        """Write every completed span to ``path`` atomically."""
        open_span = (-1, 0, 0, 0, 0, -1)
        with self._lock:
            threads = list(self._threads)
        blocks = []
        base = 0
        for thread, spans in threads:
            block = np.array([open_span if span is None else span
                              for span in list(spans)],
                             dtype=np.int64).reshape(-1, 6)
            parent = block[:, 5]
            parent[parent >= 0] += base
            base += len(block)
            blocks.append(np.column_stack(
                [block, np.full(len(block), thread, dtype=np.int64)]))
        table = np.concatenate(blocks) if blocks \
            else np.zeros((0, 7), dtype=np.int64)
        meta = {"names": sorted(self.names, key=self.names.get),
                "missing": self.missing, "span_cost_ns": self.span_cost_ns}
        tmp = f"{path}.tmp.npz"
        np.savez(tmp, meta=np.array(json.dumps(meta)),
                 **{key: table[:, i] for i, key in enumerate(
                     ("layer", "start", "end", "n", "aux", "parent",
                      "thread"))})
        os.replace(tmp, path)


# -- analysis --------------------------------------------------------------------

def load_spans(path: str) -> Dict[str, Any]:
    with np.load(path) as data:
        spans = {key: data[key] for key in data.files if key != "meta"}
        spans["meta"] = json.loads(str(data["meta"]))
    return spans


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=len(duration))
    return duration - covered.astype(np.int64)


def _quantile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: Dict[str, Any], t0: int, t1: int, *,
                  elems: int, server_cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics from the spans that start inside ``[t0, t1]``.

    ``*_ns_per_elem`` values divide a layer's self time by the elements
    ingested in the window, so they add up towards
    ``server.cpu_ns_per_elem``.
    """
    names = spans["meta"]["names"]
    self_ns = self_times(spans["start"], spans["end"], spans["parent"])
    inside = (spans["start"] >= t0) & (spans["start"] <= t1) \
        & (spans["layer"] >= 0)
    layer = spans["layer"][inside]
    duration = (spans["end"] - spans["start"])[inside]
    own = self_ns[inside]
    n = spans["n"][inside]
    aux = spans["aux"][inside]
    roots = spans["parent"][inside] < 0
    per = max(elems, 1)

    def pick(*prefixes: str) -> np.ndarray:
        ids = [i for i, name in enumerate(names)
               if name.split("[")[0] in prefixes]
        return np.isin(layer, ids)

    def self_per_elem(name: str) -> float:
        return float(own[pick(name)].sum()) / per

    def per_call_us(name: str) -> float:
        chosen = pick(name)
        return float(duration[chosen].mean()) / 1e3 if chosen.any() else 0.0

    out: Dict[str, float] = {}
    for metric, name in (("wire.decode_ns_per_elem", "wire.decode"),
                         ("http.json_decode_ns_per_elem",
                          "http.json_decode"),
                         ("labels.label_keys_ns_per_elem",
                          "labels.label_keys"),
                         ("coalescer.add_ns_per_elem", "coalescer.add"),
                         ("tcm.ingest_keys_self_ns_per_elem",
                          "tcm.ingest_keys"),
                         ("family.hash_bulk_ns_per_elem",
                          "family.hash_bulk"),
                         ("kernels.dedup_ns_per_elem", "kernels.dedup"),
                         ("kernels.scatter_ns_per_elem", "kernels.scatter"),
                         ("durability.append_ns_per_elem",
                          "durability.append"),
                         ("durability.commit_ns_per_elem",
                          "durability.commit")):
        out[metric] = self_per_elem(name)

    labels = pick("labels.label_keys")
    looked_up = n[labels].sum()
    out["labels.cache_hit_ratio"] = (float(aux[labels].sum()) / looked_up
                                     if looked_up else 0.0)

    flushes = pick("coalescer.flush") & (n > 0)
    deadline = np.isin(layer, [i for i, name in enumerate(names)
                               if name == "coalescer.flush[deadline]"])
    out["coalescer.batch_elems_mean"] = (float(n[flushes].mean())
                                         if flushes.any() else 0.0)
    out["coalescer.deadline_flush_frac"] = (
        float((flushes & deadline).sum()) / flushes.sum()
        if flushes.any() else 0.0)
    waits = aux[flushes & (aux >= 0)] / 1e6
    out["coalescer.wait_ms_p50"] = _quantile(waits, 50)
    out["coalescer.wait_ms_p99"] = _quantile(waits, 99)

    dedup = pick("kernels.dedup")
    out["kernels.dedup_unique_ratio"] = (float(aux[dedup].sum())
                                         / n[dedup].sum()
                                         if dedup.any() else 0.0)

    # Reach queries come only from the answer check after the window,
    # so the index metrics read every span of the server.
    every_layer = spans["layer"]
    builds = np.isin(every_layer, [i for i, name in enumerate(names)
                                   if name == "query_engine.index_build"])
    reaches = np.isin(every_layer, [i for i, name in enumerate(names)
                                    if name == "tcm.reachable_many"]).sum()
    out["query_engine.index_builds_per_reach"] = (float(builds.sum())
                                                  / reaches
                                                  if reaches else 0.0)
    out["query_engine.index_build_ms_mean"] = (
        float((spans["end"] - spans["start"])[builds].mean()) / 1e6
        if builds.any() else 0.0)
    out["tcm.edge_weights_us_per_call"] = per_call_us("tcm.edge_weights")
    out["tcm.out_flows_us_per_call"] = per_call_us("tcm.out_flows")

    commits = pick("durability.commit")
    out["durability.records_per_group"] = (float(n[commits].mean())
                                           if commits.any() else 0.0)
    fsyncs = pick("durability.fsync")
    out["durability.fsync_ms_p99"] = _quantile(duration[fsyncs] / 1e6, 99)
    out["durability.fsyncs"] = float(fsyncs.sum())

    cpu_ns = server_cpu_s * 1e9
    # fsync is time waiting on the disk, not CPU the server spent.
    attributed = float(duration[roots].sum() - duration[fsyncs].sum())
    out["server.cpu_ns_per_elem"] = cpu_ns / per
    out["server.unattributed_ns_per_elem"] = (cpu_ns - attributed) / per
    out["trace.attributed_frac"] = attributed / cpu_ns if cpu_ns else 0.0
    out["trace.overhead_frac"] = (len(layer) * spans["meta"]["span_cost_ns"]
                                  / cpu_ns if cpu_ns else 0.0)
    return out


def recovery_metrics(spans: Dict[str, Any]) -> Dict[str, float]:
    """Seconds a restarted server spent scanning and replaying its WAL."""
    names = spans["meta"]["names"]
    duration = spans["end"] - spans["start"]
    out = {}
    for metric, name in (("durability.scan_s", "durability.scan"),
                         ("durability.replay_s", "durability.replay")):
        chosen = spans["layer"] == (names.index(name) if name in names
                                    else -2)
        out[metric] = float(duration[chosen].sum()) / 1e9
    return out


# -- entry point -------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: traced_serve.py --spans PATH -- serve [ARGS...]",
              file=sys.stderr)
        return 2
    path, serve = argv[1], argv[3:]
    tracer = Tracer()
    tracer.install(targets())
    for where in tracer.missing:
        print(f"traced_serve: layer missing: {where}", flush=True)
    signal.signal(signal.SIGUSR1, lambda *_: tracer.dump(path))
    from repro.cli import main as cli_main
    try:
        return cli_main(serve)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
