"""Campaign runner bench: serial vs parallel vs cached wall-clock.

Times the same small protocol × load × seed grid three ways:

* ``jobs=1`` — one in-process worker, the serial baseline;
* ``jobs=N`` — N supervised worker processes (N = up to 4);
* cached    — a second invocation against a warm result store (pure hits).

Prints one ``BENCH`` line with the three numbers and the parallel speedup
so the trajectory of the runner is recorded alongside the figure benches.
Determinism is asserted, not just timed: the parallel results must equal
the serial ones field-for-field (wallclock aside).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict

from repro.campaign.runner import run_specs
from repro.campaign.spec import Campaign
from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.fleet.shards import open_store


def bench_grid() -> Campaign:
    """A 2-protocol × 2-load × 2-seed grid, sized so one cell takes ~1 s."""
    base = ScenarioConfig(
        node_count=16,
        duration_s=15.0,
        traffic=TrafficConfig(flow_count=4),
        mobility=MobilityConfig(field_width_m=566.0, field_height_m=566.0),
    )
    return Campaign.build(base, ("basic", "pcmac"), (300.0, 500.0), (1, 2))


def _strip_wallclock(result) -> dict:
    fields = asdict(result)
    fields.pop("wallclock_s")
    return fields


def test_campaign_runner_scaling(benchmark, tmp_path, capsys):
    campaign = bench_grid()
    specs = campaign.specs()
    # At least 2 workers so worker processes (not the in-process worker)
    # are what gets timed, even on single-core CI runners.
    jobs = max(2, min(4, os.cpu_count() or 1))

    t0 = time.perf_counter()
    serial = run_specs(specs, jobs=1)
    t_serial = time.perf_counter() - t0

    store = open_store(tmp_path / "store")
    parallel = benchmark.pedantic(
        lambda: run_specs(specs, jobs=jobs, store=store), rounds=1, iterations=1
    )
    t_parallel = parallel.wallclock_s

    t0 = time.perf_counter()
    cached = run_specs(specs, jobs=jobs, store=store)
    t_cached = time.perf_counter() - t0

    # Cross-process determinism: parallel output == serial output.
    assert set(serial.results) == set(parallel.results)
    for key in serial.results:
        assert _strip_wallclock(serial.results[key]) == (
            _strip_wallclock(parallel.results[key])
        )
    assert cached.executed == 0
    assert cached.cached == len(specs)

    with capsys.disabled():
        speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
        print(
            f"\nBENCH campaign_runner cells={len(specs)} jobs={jobs} "
            f"serial={t_serial:.2f}s parallel={t_parallel:.2f}s "
            f"cached={t_cached * 1000:.1f}ms speedup={speedup:.2f}x"
        )
