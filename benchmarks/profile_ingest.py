"""Profile the chunked ingest path: where does an element's time go?

Two views of the same R-MAT workload:

1. a stage breakdown that times the ingest pipeline's phases in
   isolation -- edge generation, column extraction, label->key
   conversion, hashing and the ufunc.at scatter -- so a regression in any
   one layer is visible as a shifted percentage rather than a vague
   slowdown of the whole;
2. a cProfile of the real end-to-end ``TCM.ingest`` call (stdlib
   machinery included), top functions by cumulative time.

Run it directly or via ``make profile-ingest``::

    python benchmarks/profile_ingest.py --edges 200000
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys
import time
from typing import Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np

from repro.core.tcm import TCM
from repro.hashing.labels import label_keys
from repro.streams.generators import rmat_edges
from repro.streams.model import StreamEdge


def stage_breakdown(n_edges: int, n_nodes: int, d: int, width: int,
                    seed: int, chunk_size: int) -> Dict[str, float]:
    """Seconds per pipeline stage, measured on the same edge set.

    The stages re-enact what ``ingest`` -> ``ingest_columns`` ->
    ``_apply_key_columns`` do per chunk, but timed separately: the sum
    of the stages approximates (does not exactly equal) the end-to-end
    time because isolating them removes chunking overhead.
    """
    timings: Dict[str, float] = {}

    start = time.perf_counter()
    edges: List[StreamEdge] = list(rmat_edges(n_nodes, n_edges, seed=seed))
    timings["generation"] = time.perf_counter() - start

    start = time.perf_counter()
    sources = [e.source for e in edges]
    targets = [e.target for e in edges]
    weights = np.array([e.weight for e in edges], dtype=np.float64)
    timings["column_extraction"] = time.perf_counter() - start

    start = time.perf_counter()
    source_keys = label_keys(sources)
    target_keys = label_keys(targets)
    timings["label_keys"] = time.perf_counter() - start

    tcm = TCM(d=d, width=width, seed=seed)

    start = time.perf_counter()
    hashed = list(tcm._sketch_cells(source_keys, target_keys))
    timings["hashing"] = time.perf_counter() - start

    start = time.perf_counter()
    for sketch, rows, cols in hashed:
        sketch._scatter(rows, cols, weights)
    timings["scatter"] = time.perf_counter() - start

    return timings


def print_breakdown(timings: Dict[str, float], n_edges: int) -> None:
    total = sum(timings.values())
    print(f"\nstage breakdown ({n_edges:,} edges)")
    print(f"{'stage':<20} {'seconds':>10} {'share':>8} {'elements/s':>14}")
    for stage, seconds in timings.items():
        rate = n_edges / seconds if seconds > 0 else float("inf")
        print(f"{stage:<20} {seconds:>10.4f} {seconds / total:>7.1%} "
              f"{rate:>14,.0f}")
    print(f"{'total':<20} {total:>10.4f} {'100.0%':>8} "
          f"{n_edges / total:>14,.0f}")


def profile_end_to_end(n_edges: int, n_nodes: int, d: int, width: int,
                       seed: int, chunk_size: int, top: int) -> None:
    tcm = TCM(d=d, width=width, seed=seed)
    stream = rmat_edges(n_nodes, n_edges, seed=seed)
    profiler = cProfile.Profile()
    profiler.enable()
    tcm.ingest(stream, chunk_size=chunk_size)
    profiler.disable()
    print(f"\ncProfile of TCM.ingest ({n_edges:,} edges, chunk size "
          f"{chunk_size:,}), top {top} by cumulative time:")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(top)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="profile the chunked ingest pipeline stage by stage")
    parser.add_argument("--edges", type=int, default=200_000)
    parser.add_argument("--nodes", type=int, default=16384)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--width", type=int, default=256)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--chunk-size", type=int, default=65536)
    parser.add_argument("--top", type=int, default=15,
                        help="cProfile rows to print")
    parser.add_argument("--skip-cprofile", action="store_true",
                        help="only print the stage breakdown")
    args = parser.parse_args(argv)

    timings = stage_breakdown(args.edges, args.nodes, args.d, args.width,
                              args.seed, args.chunk_size)
    print_breakdown(timings, args.edges)
    if not args.skip_cprofile:
        profile_end_to_end(args.edges, args.nodes, args.d, args.width,
                           args.seed, args.chunk_size, args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
