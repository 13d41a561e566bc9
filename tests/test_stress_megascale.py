"""Mega-scale stress: a 2000-node world, waves vs per-edge events, leak-guarded.

Slow-marked (deselected from tier-1; run with ``python -m pytest -m slow``).
One paper-density 2000-node static world is executed with the brute-force
channel (every signal edge its own event) and with the indexed channel
(one wave per transmission).  The runs must produce the *identical*
``ExperimentResult`` — the mega-scale analogue of the differential suite's
bit-identity — and the wave run must hold its memory: the queue stays far
shallower than the per-edge one, and extending the run does not grow peak
RSS beyond a modest allowance (a template-cache or wave leak would blow
well past it at this scale).
"""

from __future__ import annotations

import math
import resource
from dataclasses import asdict, replace

import pytest

from repro.builder import NetworkBuilder
from repro.config import MobilityConfig, ScenarioConfig
from repro.scenariospec import ScenarioSpec

N_NODES = 2000
#: The first RREQ floods start with the traffic at 1 s.
HORIZON_S = 1.3
#: Paper Section IV density (5·10⁻⁵ nodes/m²) at 2000 nodes.
SIDE_M = math.sqrt(N_NODES / 5e-5)
#: Peak-RSS growth allowance for one extra simulated second [KiB].
RSS_ALLOWANCE_KIB = 256 * 1024


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _run(spatial_index: bool):
    cfg = replace(
        ScenarioConfig(),
        node_count=N_NODES,
        duration_s=HORIZON_S,
        seed=3,
        mobility=MobilityConfig(field_width_m=SIDE_M, field_height_m=SIDE_M),
    )
    spec = ScenarioSpec.from_legacy(cfg, "basic", mobile=False)
    net = NetworkBuilder(spec, spatial_index=spatial_index).build()
    peak_pending = 0
    for i in range(1, 131):
        net.sim.run_until(HORIZON_S * i / 130)
        peak_pending = max(peak_pending, net.sim.pending_events)
    result = asdict(net.run())
    result.pop("wallclock_s")
    return net, result, peak_pending


@pytest.mark.slow
def test_2000_node_world_waves_match_per_edge_and_memory_is_bounded():
    _, oracle, oracle_pending = _run(spatial_index=False)
    net, waves, waves_pending = _run(spatial_index=True)
    assert waves == oracle
    # Non-vacuous: a 2000-node world at paper density is busy.
    assert oracle["events_executed"] > 500_000
    # One entry per transmission instead of two per edge.
    assert waves_pending * 2 < oracle_pending

    # RSS guard: another simulated second at steady state must replay
    # cached wave templates, not allocate proportionally.
    before = _peak_rss_kib()
    net.sim.run_until(HORIZON_S + 1.0)
    growth = _peak_rss_kib() - before
    assert growth < RSS_ALLOWANCE_KIB, f"peak RSS grew {growth} KiB"
