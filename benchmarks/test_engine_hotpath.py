"""Whole-run engine hot-path benchmarks (the BENCH_engine.json companions).

Where ``test_engine_microbench.py`` times isolated substrate pieces, these
measure the paths the run-loop optimisations targeted, at whole-run or
storm scale:

* the kernel loop over an event storm, per-edge events vs one wave;
* MAC-style timer churn (arm, usually cancel, re-arm) including the lazy-
  cancel compaction the churn relies on;
* tracing emit cost for disabled categories (the near-zero-cost contract);
* a complete small paper scenario, end to end.

CI runs these once with ``--benchmark-disable`` so the code cannot rot;
locally ``python -m pytest benchmarks/test_engine_hotpath.py`` gives honest
pytest-benchmark numbers.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ScenarioConfig
from repro.experiments.scenario import build_network
from repro.sim.kernel import Simulator, WaveTemplate
from repro.sim.trace import Tracer

# ---------------------------------------------------------------------------
# Kernel loop
# ---------------------------------------------------------------------------


def _event_storm(sim: Simulator, chains: int = 50, length: int = 100) -> int:
    """Self-rescheduling chains — the kernel loop with trivial handlers."""
    count = [0]

    def tick():
        count[0] += 1
        if count[0] < chains * length:
            sim.schedule_in(0.001, tick)

    for k in range(chains):
        sim.schedule(0.0005 * k, tick)
    sim.run_until(1e9)
    return count[0]


def test_kernel_loop_event_storm(benchmark):
    def storm():
        return _event_storm(Simulator())

    # The last in-flight tick of each chain still fires after the threshold
    # crossing, so the total lands slightly above chains*length.
    assert benchmark(storm) >= 5000


@pytest.mark.parametrize("wave", [False, True], ids=["per-edge", "wave"])
def test_fanout_edge_storm(benchmark, wave):
    """Transmissions of 45 receivers each: two events per receiver vs one
    wave per transmission (same dispatch order, same edge count)."""
    n = 45
    offsets = [i * 1e-7 for i in range(n)]

    def sink_lead(arg, x):
        pass

    def sink_trail(arg):
        pass

    template = WaveTemplate(offsets, [sink_lead] * n, [sink_trail] * n, [0.0] * n)

    def storm():
        sim = Simulator()

        def transmit():
            if wave:
                template.launch(sim, 1e-3, None, None)
                return
            now = sim.now
            for d in offsets:
                sim.schedule(now + d, sink_lead, 1, "", (None, 0.0))
                sim.schedule(now + d + 1e-3, sink_trail, 0, "", (None,))

        for k in range(200):
            sim.schedule(k * 1e-2, transmit)
        sim.run_until(1e9)
        return sim.events_executed

    assert benchmark(storm) == 200 * (2 * n + 1)


def test_kernel_cancel_heavy_storm(benchmark):
    """Set-and-cancel timer pattern: exercises lazy cancel + compaction."""

    def churn():
        sim = Simulator()
        fired = [0]

        def work():
            fired[0] += 1
            # Arm a timeout, then immediately cancel it (the MAC pattern:
            # almost every timeout is cancelled by the response arriving).
            ev = sim.schedule_in(10.0, work)
            sim.cancel(ev)
            if fired[0] < 3000:
                sim.schedule_in(0.001, work)

        sim.schedule(0.0, work)
        sim.run_until(1e9)
        return fired[0]

    assert benchmark(churn) == 3000


def test_tracer_disabled_emit_overhead(benchmark):
    """The fast-path contract: counting a disabled category is ~one int add."""
    tracer = Tracer()
    handle = tracer.handle("phy.tx")

    def emits():
        for _ in range(10_000):
            handle.count += 1
            if handle.store:  # never true here — no dict/record allocation
                handle.record(0.0, 0, frame=1)
        return handle.count

    assert benchmark(emits) > 0


# ---------------------------------------------------------------------------
# Whole run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", ["basic", "pcmac"])
def test_whole_run_small_scenario(benchmark, protocol):
    """End-to-end events/sec on a small paper scenario (N=10, 4 s)."""
    cfg = replace(ScenarioConfig(), node_count=10, duration_s=4.0, seed=7)

    def run():
        net = build_network(cfg, protocol, mobile=False)
        net.sim.run_until(cfg.duration_s)
        return net.sim.events_executed

    events = benchmark(run)
    assert events > 1000
