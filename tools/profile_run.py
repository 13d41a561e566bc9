#!/usr/bin/env python3
"""cProfile one scenario run and print the hottest call sites.

The perf playbook's step zero — measure before touching anything.  Takes
any declarative ``spec.json`` (the :class:`~repro.scenariospec.ScenarioSpec`
format, same as ``repro quick --scenario``), builds it, runs it to its
horizon under :mod:`cProfile`, and prints the top cumulative hot spots plus
whole-run events/sec:

    PYTHONPATH=src python tools/profile_run.py --scenario examples/grid_poisson.spec.json
    PYTHONPATH=src python tools/profile_run.py --scenario spec.json --sort tottime --top 40
    PYTHONPATH=src python tools/profile_run.py --scenario spec.json --duration 5 --dump /tmp/run.prof

``--dump`` writes the raw stats for snakeviz/pstats digging; ``--duration``
overrides the spec's horizon so a 400 s paper scenario can be profiled in
seconds.  Build time is excluded — only the run loop is profiled, matching
what ``tools/bench_engine.py`` measures.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.builder import NetworkBuilder  # noqa: E402
from repro.scenariospec import ScenarioSpec  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--scenario", required=True, help="path to a ScenarioSpec spec.json"
    )
    ap.add_argument(
        "--duration", type=float, default=None,
        help="override the spec's duration_s (profile a short slice)",
    )
    ap.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "calls"],
        help="pstats sort key (default: cumulative)",
    )
    ap.add_argument("--top", type=int, default=20, help="rows to print")
    ap.add_argument(
        "--brute-force", action="store_true",
        help="disable the spatial-index fan-out and its waves "
        "(profile the per-edge oracle path)",
    )
    ap.add_argument("--dump", default=None, help="write raw pstats to this path")
    ap.add_argument(
        "--out", default=None,
        help="also write the formatted report to this text file",
    )
    args = ap.parse_args(argv)

    spec = ScenarioSpec.load(args.scenario)
    if args.duration is not None:
        spec = replace(spec, cfg=replace(spec.cfg, duration_s=args.duration))
    print(f"scenario: {args.scenario}  (content key {spec.key()[:16]})")
    print(
        f"mac={spec.mac.name} n={spec.cfg.node_count} "
        f"duration={spec.cfg.duration_s}s seed={spec.cfg.seed}"
    )

    net = NetworkBuilder(spec, spatial_index=not args.brute_force).build()

    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    net.sim.run_until(spec.cfg.duration_s)
    profiler.disable()
    wall = time.perf_counter() - t0

    events = net.sim.events_executed
    summary = (
        f"{events} events in {wall:.3f} s wall "
        f"({events / wall:,.0f} events/s under the profiler — expect "
        "~2x faster unprofiled)"
    )
    print(f"\n{summary}\n")
    stats = pstats.Stats(profiler)
    if args.dump:
        stats.dump_stats(args.dump)
        print(f"raw stats written to {args.dump}")
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(
                f"scenario: {args.scenario}  (content key {spec.key()[:16]})\n"
                f"{summary}\n\n"
            )
            pstats.Stats(profiler, stream=fh).sort_stats(args.sort).print_stats(
                args.top
            )
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
