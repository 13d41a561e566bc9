#!/usr/bin/env python3
"""Measure whole-run engine throughput and dump ``BENCH_engine.json``.

Where ``tools/bench_phy.py`` times one hot call (``Channel.transmit``),
this harness times *entire runs* — build a paper scenario, execute it to
its horizon, and report events/sec and wall time.  That is the number the
campaign subsystem actually multiplies by hundreds of runs per sweep, and
it exercises every layer of the per-event hot path at once: kernel pop,
MAC timers, PHY fan-out, radio bookkeeping, tracing and metrics.

Grid: protocol (basic, pcmac) × mobility (static, mobile) × N ∈ {10, 50,
200}, matching the paper's Section IV environment (the sim horizon shrinks
as N grows so every cell costs roughly the same wall time), plus
mega-scale rows at N ∈ {2000, 10000} (static, paper density — the field
side grows ∝ √(N/50)).  Every cell runs the default build: spatial-index
fan-out with one kernel wave per transmission.

``--smoke-mega`` is the mega-scale identity gate: one N=2000 cell run
with waves and with the brute-force channel (every signal edge its own
event); ``events_executed`` and the result digest must match.

    PYTHONPATH=src python tools/bench_engine.py                 # writes BENCH_engine.json
    PYTHONPATH=src python tools/bench_engine.py --repeat 5 --out /tmp/e.json
    PYTHONPATH=src python tools/bench_engine.py --smoke-mega    # CI: N=2000 identity
    # compare against a previous run (e.g. one taken on an older commit):
    PYTHONPATH=src python tools/bench_engine.py --baseline OLD.json

Each cell reports the best-of-``--repeat`` run (highest events/sec; the
event count itself is deterministic and is asserted identical across
repeats).  With ``--baseline`` the output embeds the old numbers and a
per-cell speedup so the perf trajectory is a checked-in number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from dataclasses import replace  # noqa: E402

from bench_grid import MEGA_SIZES  # noqa: E402

from repro.builder import NetworkBuilder  # noqa: E402
from repro.config import MobilityConfig, ScenarioConfig  # noqa: E402
from repro.experiments.scenario import build_network  # noqa: E402
from repro.scenariospec import ScenarioSpec  # noqa: E402

#: Simulated horizon per network size [s] — sized so each cell takes on the
#: order of a second of wall time and the grid stays runnable in CI-ish time.
DURATIONS_S = {10: 25.0, 50: 4.0, 200: 2.5}
PROTOCOLS = ("basic", "pcmac")
MOBILITIES = (("static", False), ("mobile", True))
SEED = 7

#: Mega-scale horizons [s]: traffic starts at t=1.0 s, so these buy a short
#: steady-state window while keeping a 10k-node cell to ~a minute of wall.
MEGA_DURATIONS_S = {2000: 1.6, 10000: 1.3}


def run_cell(protocol: str, mobile: bool, n: int, repeat: int) -> dict:
    """Best-of-``repeat`` whole-run measurement for one grid cell."""
    cfg = replace(ScenarioConfig(), node_count=n, duration_s=DURATIONS_S[n], seed=SEED)
    best = None
    events = None
    for _ in range(repeat):
        net = build_network(cfg, protocol, mobile=mobile)
        t0 = time.perf_counter()
        net.sim.run_until(cfg.duration_s)
        wall = time.perf_counter() - t0
        executed = net.sim.events_executed
        if events is None:
            events = executed
        elif executed != events:
            raise AssertionError(
                f"non-deterministic run: {executed} events vs {events}"
            )
        if best is None or wall < best:
            best = wall
    return {
        "scenario": f"{protocol}-{'mobile' if mobile else 'static'}-n{n}",
        "protocol": protocol,
        "mobile": mobile,
        "n": n,
        "sim_duration_s": DURATIONS_S[n],
        "events": events,
        "wall_s": round(best, 4),
        "events_per_sec": round(events / best, 1),
    }


def mega_spec(protocol: str, n: int) -> ScenarioSpec:
    """A static world at the paper's Section IV density (the field side
    scales ∝ √(N/50) from the 50-node 1000 m square)."""
    side = 1000.0 * math.sqrt(n / 50.0)
    cfg = replace(
        ScenarioConfig(),
        node_count=n,
        duration_s=MEGA_DURATIONS_S[n],
        seed=SEED,
        mobility=MobilityConfig(field_width_m=side, field_height_m=side),
    )
    return ScenarioSpec.from_legacy(cfg, protocol, mobile=False)


def run_mega_cell(protocol: str, n: int, repeat: int) -> dict:
    """One mega row: best-of-``repeat``, identical event counts asserted."""
    spec = mega_spec(protocol, n)
    duration = spec.cfg.duration_s
    events = None
    best = None
    for _ in range(repeat):
        net = NetworkBuilder(spec).build()
        t0 = time.perf_counter()
        net.sim.run_until(duration)
        wall = time.perf_counter() - t0
        executed = net.sim.events_executed
        if events is None:
            events = executed
        elif executed != events:
            raise AssertionError(
                f"non-deterministic run at n={n}: {executed} events vs {events}"
            )
        if best is None or wall < best:
            best = wall
    return {
        "scenario": f"{protocol}-static-n{n}",
        "protocol": protocol,
        "mobile": False,
        "n": n,
        "mega": True,
        "sim_duration_s": duration,
        "field_side_m": round(spec.cfg.mobility.field_width_m, 1),
        "events": events,
        "wall_s": round(best, 4),
        "events_per_sec": round(events / best, 1),
    }


def mega_identity_smoke(n: int = 2000) -> int:
    """Waves vs the brute per-edge channel on one mega cell: same
    ``events_executed``, same result digest.  Returns a process exit code."""
    spec = mega_spec("basic", n)
    seen = {}
    for name, spatial_index in (("waves", True), ("brute", False)):
        net = NetworkBuilder(spec, spatial_index=spatial_index).build()
        result = net.run()
        fields = asdict(result)
        fields.pop("wallclock_s")
        blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        seen[name] = (result.events_executed, digest)
        print(
            f"{name:>6} n={n}  {result.events_executed:>9d} events  "
            f"{result.events_executed / result.wallclock_s:>10,.0f} ev/s  "
            f"digest {digest[:16]}"
        )
    if seen["waves"] != seen["brute"]:
        print("mega smoke FAILED: waves and per-edge events diverge")
        return 1
    print("mega smoke OK: identical events_executed and result digests")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_engine.json"))
    ap.add_argument("--repeat", type=int, default=3, help="best-of repeats")
    ap.add_argument(
        "--mega-repeat", type=int, default=2,
        help="best-of repeats for the mega-scale rows",
    )
    ap.add_argument(
        "--no-mega", action="store_true",
        help="skip the N in {2000, 10000} rows (quick classic-grid run)",
    )
    ap.add_argument(
        "--smoke-mega", action="store_true",
        help="CI smoke: one N=2000 mega cell with waves and with the brute "
        "per-edge channel, events_executed and result digests asserted "
        "identical; writes no file",
    )
    ap.add_argument(
        "--baseline",
        default=None,
        help="previous bench_engine JSON to embed and compute speedups against",
    )
    args = ap.parse_args(argv)

    if args.smoke_mega:
        return mega_identity_smoke()

    results = []
    for protocol in PROTOCOLS:
        for mob_name, mobile in MOBILITIES:
            for n in sorted(DURATIONS_S):
                row = run_cell(protocol, mobile, n, args.repeat)
                results.append(row)
                print(
                    f"{row['scenario']:>20}  {row['events']:>9d} events  "
                    f"{row['wall_s']:7.3f} s  {row['events_per_sec']:>10,.0f} ev/s"
                )
    if not args.no_mega:
        for protocol in PROTOCOLS:
            for n in MEGA_SIZES:
                row = run_mega_cell(protocol, n, args.mega_repeat)
                results.append(row)
                print(
                    f"{row['scenario']:>20}  {row['events']:>9d} events  "
                    f"{row['wall_s']:7.3f} s  {row['events_per_sec']:>10,.0f} ev/s"
                )

    payload = {
        "benchmark": "engine_whole_run",
        "schema": 3,
        "generated_by": "tools/bench_engine.py",
        "config": {
            "repeat": args.repeat,
            "mega_repeat": args.mega_repeat,
            "seed": SEED,
            "durations_s": {str(k): v for k, v in sorted(DURATIONS_S.items())},
            "mega_durations_s": {
                str(k): v for k, v in sorted(MEGA_DURATIONS_S.items())
            },
            "unit": "events per second of wall time, whole run (build excluded)",
            "note": (
                "every cell runs the spatial index with one kernel wave per "
                "transmission; mega rows (mega: true) run static worlds at "
                "paper density"
            ),
        },
        "results": results,
    }

    if args.baseline:
        base = json.loads(Path(args.baseline).read_text())
        base_by_name = {r["scenario"]: r for r in base.get("results", [])}
        speedups = {}
        for row in results:
            old = base_by_name.get(row["scenario"])
            if old is None:
                continue
            if old["events"] != row["events"]:
                print(
                    f"WARNING: {row['scenario']} event count changed "
                    f"{old['events']} -> {row['events']} (schedule not comparable)"
                )
            row["baseline_events_per_sec"] = old["events_per_sec"]
            speedup = row["events_per_sec"] / old["events_per_sec"]
            row["speedup"] = round(speedup, 2)
            speedups[row["scenario"]] = row["speedup"]
            print(f"{row['scenario']:>20}  speedup {speedup:5.2f}x")
        payload["baseline"] = {
            "generated_by": base.get("generated_by"),
            "note": "measured on the pre-optimisation engine (see git history)",
            "results": list(base_by_name.values()),
        }
        payload["speedup_vs_baseline"] = speedups

    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
