"""Schema-validate every committed ``BENCH_*.json`` regression record.

The repo commits one JSON record per standing benchmark gate
(ingest throughput, query latency, window throughput, instrumentation
overhead, the soak gate).  Each record is both documentation -- "this is
what the implementation achieved on the reference machine" -- and a CI
input: the overhead gate re-measures against the committed budget, and
the soak record's gate flags must all be true or the commit is claiming
a regression is fine.

A record that silently drifts out of shape (a renamed key, a gate flag
accidentally dropped, a truncated write) would disable those checks
without failing anything.  This script closes that hole: CI runs

    python benchmarks/validate_bench_records.py

which loads every ``BENCH_*.json`` in the repo root and applies the
strictest validator available for it -- the producing benchmark's own
``validate_record`` where one exists, a structural schema check
otherwise.  Unknown ``BENCH_*.json`` files fail loudly: a new record
must register a validator here before it can be committed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Allow "python benchmarks/validate_bench_records.py" from the repo root
# without PYTHONPATH gymnastics.
for path in (REPO_ROOT, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


def _require(record: Dict, key: str, kind, filename: str) -> object:
    if key not in record:
        raise ValueError(f"{filename}: missing required key {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise ValueError(
            f"{filename}: key {key!r} should be "
            f"{getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _check_common(record: Dict, filename: str) -> None:
    """Every record names its benchmark and captures its config."""
    _require(record, "benchmark", str, filename)
    _require(record, "config", dict, filename)


def _check_ingest(record: Dict, filename: str) -> None:
    rates = _require(record, "rates_elements_per_sec", dict, filename)
    for mode, rate in rates.items():
        if not isinstance(rate, (int, float)) or rate <= 0:
            raise ValueError(
                f"{filename}: rate for {mode!r} must be positive, got {rate!r}")
    _require(record, "speedup_vs_per_edge", dict, filename)
    memory = _require(record, "memory", dict, filename)
    _require(memory, "peak_rss_kib", dict, filename)
    # Provenance: the record must say how many hardware cores the
    # parallel numbers had, or the domination figures are uninterpretable.
    config = record["config"]
    cpu_count = _require(config, "cpu_count", int, filename)
    if cpu_count < 1:
        raise ValueError(
            f"{filename}: cpu_count must be >= 1, got {cpu_count}")
    if config.get("workers", 1) > 1:
        comparison = _require(record, "parallel_vs_chunked", dict, filename)
        _require(comparison, "transport", dict, filename)
        for key in ("sum_ratio", "min_ratio"):
            ratio = _require(comparison, key, (int, float), filename)
            if ratio <= 0:
                raise ValueError(
                    f"{filename}: parallel_vs_chunked.{key} must be "
                    f"positive, got {ratio!r}")
        for key in ("sum_dominates", "min_dominates"):
            _require(comparison, key, bool, filename)


def _check_overhead(record: Dict, filename: str) -> None:
    modes = _require(record, "modes", dict, filename)
    for mode in ("disabled", "enabled"):
        row = _require(modes, mode, dict, filename)
        _require(row, "best_seconds", (int, float), filename)
        _require(row, "overhead_vs_disabled_pct", (int, float), filename)
    budget = _require(record, "budget_pct", (int, float), filename)
    measured = modes["enabled"]["overhead_vs_disabled_pct"]
    # The committed record is the budget CI gates against; committing one
    # that already busts its own budget would make the gate meaningless.
    if measured > budget:
        raise ValueError(
            f"{filename}: committed enabled overhead {measured:+.2f}% "
            f"exceeds its own budget_pct of {budget:.1f}%")


def _check_query(record: Dict, filename: str) -> None:
    from benchmarks.bench_query_latency import validate_record
    validate_record(record)


def _check_window(record: Dict, filename: str) -> None:
    from benchmarks.bench_window_throughput import validate_record
    validate_record(record)


def _check_soak(record: Dict, filename: str) -> None:
    from benchmarks.bench_soak import validate_record
    validate_record(record)


def _check_server(record: Dict, filename: str) -> None:
    from benchmarks.bench_server import validate_record
    validate_record(record, filename)


def _check_chaos(record: Dict, filename: str) -> None:
    from benchmarks.bench_chaos import validate_record
    validate_record(record, filename)


def _check_wire(record: Dict, filename: str) -> None:
    from benchmarks.bench_wire import validate_record
    validate_record(record, filename)


#: filename -> validator.  A BENCH_*.json with no entry here is an error:
#: new standing records must register their schema check to be committed.
VALIDATORS: Dict[str, Callable[[Dict, str], None]] = {
    "BENCH_ingest_throughput.json": _check_ingest,
    "BENCH_obs_overhead.json": _check_overhead,
    "BENCH_query_latency.json": _check_query,
    "BENCH_window_throughput.json": _check_window,
    "BENCH_soak.json": _check_soak,
    "BENCH_server.json": _check_server,
    "BENCH_chaos.json": _check_chaos,
    "BENCH_wire.json": _check_wire,
}


def validate_all(root: str = REPO_ROOT) -> List[str]:
    """Validate every BENCH_*.json under ``root``; return the filenames."""
    filenames = sorted(name for name in os.listdir(root)
                       if name.startswith("BENCH_") and name.endswith(".json"))
    if not filenames:
        raise ValueError(f"no BENCH_*.json records found in {root}")
    for filename in filenames:
        validator = VALIDATORS.get(filename)
        if validator is None:
            raise ValueError(
                f"{filename}: no registered validator -- add one to "
                f"benchmarks/validate_bench_records.py")
        with open(os.path.join(root, filename)) as fh:
            try:
                record = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{filename}: invalid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ValueError(f"{filename}: top level must be a JSON object")
        _check_common(record, filename)
        validator(record, filename)
    return filenames


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="schema-validate all committed BENCH_*.json records")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="directory holding the records (default: repo root)")
    args = parser.parse_args(argv)
    try:
        filenames = validate_all(args.root)
    except ValueError as exc:
        print(f"FAIL: {exc}")
        return 1
    for filename in filenames:
        print(f"ok: {filename}")
    print(f"{len(filenames)} records valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
