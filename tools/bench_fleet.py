#!/usr/bin/env python3
"""Measure fleet campaign throughput: cold execution vs content-cache hits.

Drives the same grid twice through ``run_specs(jobs=2)`` — the exact
service boundary ``repro fleet serve`` uses, supervised workers and all —
against one sharded store:

* **cold**: empty store, every cell simulated by the worker fleet;
* **cached**: identical grid resubmitted, every cell answered from the
  content-addressed cache without execution.

Reports specs/sec for both and the resulting speedup, and writes
``BENCH_fleet.json`` at the repo root.  The interesting number is the
cached rate: it bounds how fast overlapping campaigns (or a resume after
a crash) can confirm work is already done — pure queue + store overhead,
no simulation.

``--check`` additionally asserts the determinism contract that makes the
cache safe at all: the cached pass executes *zero* cells and serves
results bit-identical to the cold pass.  That assertion is
machine-independent, so CI runs it; the wall-clock rates are only
comparable on the machine that produced them::

    PYTHONPATH=src python tools/bench_fleet.py            # report + BENCH_fleet.json
    PYTHONPATH=src python tools/bench_fleet.py --check    # CI: identity only
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.campaign.runner import run_specs  # noqa: E402
from repro.campaign.spec import Campaign  # noqa: E402
from repro.config import ScenarioConfig, TrafficConfig  # noqa: E402
from repro.fleet import ShardedResultStore  # noqa: E402

JOBS = 2
#: protocol × load × seed grid: 8 cells, a few wall-seconds cold.
PROTOCOLS = ["basic", "pcmac"]
LOADS = [200.0, 400.0]
SEEDS = [1, 2]


def _campaign() -> Campaign:
    base = ScenarioConfig(
        node_count=10,
        duration_s=8.0,
        traffic=TrafficConfig(flow_count=3, offered_load_bps=200e3),
    )
    return Campaign.build(base, PROTOCOLS, LOADS, SEEDS)


def _fields(result) -> dict:
    fields = asdict(result)
    fields.pop("wallclock_s")
    return fields


def _pass(specs, store) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    report = run_specs(specs, jobs=JOBS, store=store)
    wall = time.perf_counter() - t0
    assert not report.errors, report.errors
    stats = {
        "specs": len(specs),
        "executed": report.executed,
        "cached": report.cached,
        "wall_s": round(wall, 3),
        "specs_per_s": round(len(specs) / wall, 2),
    }
    return stats, dict(report.results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the cache-identity contract (CI mode); still reports",
    )
    parser.add_argument(
        "--out",
        default=str(ROOT / "BENCH_fleet.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args()

    campaign = _campaign()
    specs = campaign.specs()
    with tempfile.TemporaryDirectory() as tmp:
        store = ShardedResultStore(Path(tmp) / "store", shards=4)
        cold, cold_results = _pass(specs, store)
        cached, cached_results = _pass(specs, store)

    assert cold["executed"] == len(specs), cold
    if args.check:
        assert cached["executed"] == 0, (
            f"cache pass re-executed {cached['executed']} cells"
        )
        assert cached["cached"] == len(specs), cached
        for key, result in cold_results.items():
            assert _fields(cached_results[key]) == _fields(result), (
                f"cache served a different result for {key[:12]}"
            )
        print("bench_fleet: cache identity OK "
              f"({len(specs)} cells, 0 re-executed, bit-identical)")

    speedup = cached["specs_per_s"] / cold["specs_per_s"]
    payload = {
        "grid": {
            "protocols": PROTOCOLS,
            "loads_kbps": LOADS,
            "seeds": SEEDS,
            "jobs": JOBS,
        },
        "cold": cold,
        "cache_hit": cached,
        "speedup": round(speedup, 1),
    }
    print(f"cold:      {cold['specs_per_s']:>8.2f} specs/s "
          f"({cold['wall_s']:.2f}s wall, {cold['executed']} executed)")
    print(f"cache-hit: {cached['specs_per_s']:>8.2f} specs/s "
          f"({cached['wall_s']:.2f}s wall, {cached['cached']} cached)")
    print(f"speedup:   {speedup:>8.1f}x")
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
