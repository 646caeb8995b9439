"""The benchmark's workloads: seeded request pools, server flags, answers.

Every workload is a pool of pre-encoded requests that a run cycles
through.  The pool is built from ``--seed`` before any clock starts, and
the program only ever sees the generated requests.  Because tenant
weights are small integers and the tenant aggregates by SUM, the state
after any number of acknowledged requests is known exactly: it is the
pool's ingest columns, each weighted by how many times its request was
acknowledged.  :meth:`Traffic.reference` builds that state in-process
with the same ``TCM`` configuration, and the answer check compares the
server against it bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import encode_request

TENANT = "bench"
#: The tenant every workload creates, and the reference model's config.
TENANT_CONFIG = {"kind": "tcm", "d": 4, "width": 256, "seed": 7}
COLUMNAR = "application/x-tcm-columnar"
JSON = "application/json"

KINDS = ("ingest", "edge", "outflow")
INGEST, EDGE, OUTFLOW = range(3)
#: Pairs (edge) or nodes (outflow) per query request.
QUERY_ITEMS = 256

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


@dataclass(frozen=True)
class Spec:
    """One workload's traffic shape (bench/README.md gives the reasons)."""

    name: str
    loop: str                        # "closed" or "open"
    encoding: str                    # "binary" or "json"
    pool: int                        # distinct requests, cycled
    shares: Tuple[float, ...]        # per KINDS entry
    ingest_elems: int
    n_nodes: int
    zipf_s: Optional[float]          # None: uniform ids
    weights: Tuple[int, int]         # inclusive integer weight range
    rate: float = 0.0                # open loop: requests per second
    durable: bool = False
    recovery_prefix: int = 0         # requests acked before each crash


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("ingest-binary", loop="closed", encoding="binary", pool=512,
         shares=(0.7, 0.3, 0.0), ingest_elems=2048,
         n_nodes=1 << 16, zipf_s=None, weights=(1, 1000)),
    Spec("ingest-json-labels", loop="closed", encoding="json", pool=6400,
         shares=(0.6, 0.4, 0.0), ingest_elems=512,
         n_nodes=1 << 22, zipf_s=0.9, weights=(40, 1500)),
    Spec("ingest-durable", loop="closed", encoding="binary", pool=512,
         shares=(0.7, 0.3, 0.0), ingest_elems=2048,
         n_nodes=1 << 16, zipf_s=None, weights=(1, 1000),
         durable=True, recovery_prefix=1024),
    Spec("read-mix", loop="open", encoding="binary", pool=2048,
         shares=(0.5, 0.32, 0.18), ingest_elems=1024,
         n_nodes=1 << 16, zipf_s=1.1, weights=(1, 1000), rate=200.0),
)}


def serve_args(spec: Spec, data_dir: Optional[str]) -> List[str]:
    """The only server flags a workload sets: the ones that define it."""
    if not spec.durable:
        return []
    return ["--data-dir", data_dir, "--fsync", "always",
            "--snapshot-interval", "0"]


# -- generators --------------------------------------------------------------

class _Nodes:
    """Seeded node sampler: uniform or Zipf over ``n`` ids.

    Zipf ranks go through a seeded permutation, so the hot ids are
    scattered over the id space rather than being 0, 1, 2, ...
    """

    def __init__(self, rng: np.random.Generator, n: int,
                 zipf_s: Optional[float]):
        self.rng = rng
        self.n = n
        self.cdf = None
        if zipf_s is not None:
            weights = np.arange(1, n + 1, dtype=np.float64) ** -zipf_s
            self.cdf = np.cumsum(weights)
            self.cdf /= self.cdf[-1]
            self.perm = rng.permutation(n).astype(np.uint64)

    def draw(self, size: int) -> np.ndarray:
        if self.cdf is None:
            return self.rng.integers(0, self.n, size=size, dtype=np.uint64)
        ranks = np.searchsorted(self.cdf, self.rng.random(size),
                                side="right")
        return self.perm[np.minimum(ranks, self.n - 1)]


def ipv4_labels(ids: np.ndarray) -> List[str]:
    """Distinct dotted-quad labels for distinct ids (an odd multiplier
    is a bijection mod 2^32)."""
    addr = (ids.astype(np.uint64) * np.uint64(2654435761)
            + np.uint64(0x0A000000)) & np.uint64(0xFFFFFFFF)
    octets = [((addr >> np.uint64(shift)) & np.uint64(255)).tolist()
              for shift in (24, 16, 8, 0)]
    return [f"{a}.{b}.{c}.{d}" for a, b, c, d in zip(*octets)]


def fnv1a_keys(labels: Sequence[str]) -> np.ndarray:
    """FNV-1a 64 of each label's UTF-8 bytes, vectorised.

    The service keys string labels with FNV-1a (docs/API.md); computing
    it here independently keeps the reference free of the program's own
    label cache.
    """
    raw = np.array([s.encode("utf-8") for s in labels])
    width = raw.dtype.itemsize
    lengths = np.char.str_len(raw)
    data = raw.view(np.uint8).reshape(len(labels), width).astype(np.uint64)
    keys = np.full(len(labels), _FNV_OFFSET, dtype=np.uint64)
    for pos in range(width):
        live = lengths > pos
        keys[live] = (keys[live] ^ data[live, pos]) * _FNV_PRIME
    return keys


# -- the traffic pool ----------------------------------------------------------

@dataclass
class Traffic:
    """A workload's pre-encoded pool plus what the answer check needs."""

    spec: Spec
    seed: int
    requests: List[bytes]
    kinds: np.ndarray                     # KINDS index per pool entry
    elems: np.ndarray                     # ingest elements per entry
    columns: List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]
    probe_requests: List[bytes]           # edge, outflow, reach probes
    probe_edges: Tuple[np.ndarray, np.ndarray]
    probe_nodes: np.ndarray
    probe_reach: Tuple[np.ndarray, np.ndarray]
    info: Dict[str, int] = field(default_factory=dict)

    @property
    def pool(self) -> int:
        return len(self.requests)

    def ack_counts(self, acked: np.ndarray) -> np.ndarray:
        """Times each pool entry was acknowledged, from the acked
        request sequence numbers."""
        return np.bincount(acked % self.pool, minlength=self.pool)

    def reference(self, counts: np.ndarray):
        """The in-process TCM after ``counts[j]`` acks of entry ``j``."""
        from repro.core.tcm import TCM
        config = {k: v for k, v in TENANT_CONFIG.items() if k != "kind"}
        tcm = TCM(**config)
        picked = [j for j in np.flatnonzero(counts)
                  if self.columns[j] is not None]
        if picked:
            src = np.concatenate([self.columns[j][0] for j in picked])
            dst = np.concatenate([self.columns[j][1] for j in picked])
            wts = np.concatenate([self.columns[j][2] * counts[j]
                                  for j in picked])
            tcm.ingest_keys(src, dst, wts)
        return tcm

    def expected(self, tcm) -> List[np.ndarray]:
        """Reference answers to the probe requests."""
        def pairs(columns):
            return list(zip(columns[0].tolist(), columns[1].tolist()))
        return [np.asarray(answers, dtype=np.float64) for answers in (
            tcm.edge_weights(pairs(self.probe_edges)),
            tcm.out_flows(self.probe_nodes.tolist()),
            tcm.reachable_many(pairs(self.probe_reach)))]

    def decode_values(self, body: bytes) -> np.ndarray:
        if self.spec.encoding == "binary":
            from repro.server import wire
            return np.array(wire.decode_values(body), dtype=np.float64)
        return np.asarray(json.loads(body)["values"], dtype=np.float64)


def _action_path(action: str) -> str:
    return f"/sketches/{TENANT}/{action}"


class _Encoder:
    """Encodes id columns as binary frames or JSON label lists."""

    def __init__(self, encoding: str, label_of=None):
        self.binary = encoding == "binary"
        self.label_of = label_of          # id array -> list of labels

    def ingest(self, src, dst, wts) -> bytes:
        if self.binary:
            from repro.server import wire
            body = wire.encode_ingest(TENANT, src, dst, wts)
            return encode_request("POST", _action_path("ingest"), body,
                                  COLUMNAR)
        body = json.dumps({"sources": self.label_of(src),
                           "targets": self.label_of(dst),
                           "weights": wts.astype(np.int64).tolist()})
        return encode_request("POST", _action_path("ingest"),
                              body.encode(), JSON)

    def query(self, kind: str, src, dst=None) -> bytes:
        if self.binary:
            from repro.server import wire
            body = wire.encode_query(TENANT, kind, src, dst)
            return encode_request("POST", _action_path("query"), body,
                                  COLUMNAR, accept=COLUMNAR)
        if dst is None:
            payload = {"kind": kind, "nodes": self.label_of(src)}
        else:
            payload = {"kind": kind,
                       "pairs": [list(p) for p in zip(self.label_of(src),
                                                      self.label_of(dst))]}
        return encode_request("POST", _action_path("query"),
                              json.dumps(payload).encode(), JSON)


def build(spec: Spec, seed: int, *, pool: Optional[int] = None,
          probes: Tuple[int, int, int] = (4096, 1024, 64)) -> Traffic:
    """Generate a workload's pool from ``seed``.

    ``probes`` counts the answer check's edge pairs, out-flow nodes and
    reach pairs; ``pool`` and ``probes`` shrink for smoke runs.  Reach
    queries are probed only: each one rebuilds the connectivity index
    and stalls the event loop for tens of milliseconds, so a few of
    them in the timed traffic would set the p99 on their own.
    """
    rng = np.random.default_rng([seed, sum(map(ord, spec.name))])
    size = pool or spec.pool
    nodes = _Nodes(rng, spec.n_nodes, spec.zipf_s)
    kinds = rng.choice(len(KINDS), size=size, p=spec.shares).astype(np.int8)
    kinds[0] = INGEST
    lo, hi = spec.weights
    n_ingest = int(np.count_nonzero(kinds == INGEST))
    src = nodes.draw(n_ingest * spec.ingest_elems).reshape(n_ingest, -1)
    dst = nodes.draw(n_ingest * spec.ingest_elems).reshape(n_ingest, -1)
    wts = rng.integers(lo, hi + 1, size=src.shape).astype(np.float64)
    # Queries ask about edges the pool really ingests half the time,
    # and about random pairs the other half.
    edge_rows = rng.integers(0, n_ingest, size=1 << 16)
    edge_cols = rng.integers(0, spec.ingest_elems, size=1 << 16)
    seen_src, seen_dst = src[edge_rows, edge_cols], dst[edge_rows, edge_cols]

    def pairs(count: int):
        half = count // 2
        at = rng.integers(0, len(seen_src), size=half)
        return (np.concatenate([seen_src[at], nodes.draw(count - half)]),
                np.concatenate([seen_dst[at], nodes.draw(count - half)]))

    def node_list(count: int):
        half = count // 2
        at = rng.integers(0, len(seen_src), size=half)
        return np.concatenate([seen_src[at], nodes.draw(count - half)])

    query_ids = {j: (node_list(QUERY_ITEMS), None) if kinds[j] == OUTFLOW
                 else pairs(QUERY_ITEMS)
                 for j in np.flatnonzero(kinds != INGEST)}
    probe_src, probe_dst = pairs(probes[0])
    probe_nodes = node_list(probes[1])
    reach_src, reach_dst = pairs(probes[2])

    info: Dict[str, int] = {}
    keys_of = None
    label_of = None
    if spec.encoding == "json":
        used = np.zeros(spec.n_nodes, dtype=bool)
        used[src] = True
        used[dst] = True
        info["distinct_labels"] = int(np.count_nonzero(used))
        for ids in [probe_src, probe_dst, probe_nodes, reach_src, reach_dst,
                    *(ids for pair in query_ids.values() for ids in pair
                      if ids is not None)]:
            used[ids] = True
        distinct = np.flatnonzero(used)
        labels = np.array(ipv4_labels(distinct), dtype=object)
        keys = fnv1a_keys(labels.tolist())
        index = np.zeros(spec.n_nodes, dtype=np.int64)
        index[distinct] = np.arange(len(distinct))

        def label_of(ids):
            return labels[index[ids]].tolist()

        def keys_of(ids):
            return keys[index[ids]]

    encoder = _Encoder(spec.encoding, label_of)
    requests: List[bytes] = []
    elems = np.zeros(size, dtype=np.int64)
    columns: List[Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    row = 0
    for j in range(size):
        if kinds[j] == INGEST:
            s, d, w = src[row], dst[row], wts[row]
            row += 1
            requests.append(encoder.ingest(s, d, w))
            elems[j] = len(s)
            if keys_of is not None:
                s, d = keys_of(s), keys_of(d)
            columns.append((s, d, w))
        else:
            ids = query_ids[j]
            requests.append(encoder.query(KINDS[kinds[j]], *ids))
            columns.append(None)
    probe_requests = [encoder.query("edge", probe_src, probe_dst),
                      encoder.query("outflow", probe_nodes),
                      encoder.query("reach", reach_src, reach_dst)]
    if keys_of is not None:
        probe_src, probe_dst = keys_of(probe_src), keys_of(probe_dst)
        probe_nodes = keys_of(probe_nodes)
        reach_src, reach_dst = keys_of(reach_src), keys_of(reach_dst)
    info["pool_bytes"] = sum(len(r) for r in requests)
    return Traffic(spec, seed, requests, kinds, elems, columns,
                   probe_requests, (probe_src, probe_dst), probe_nodes,
                   (reach_src, reach_dst), info)
