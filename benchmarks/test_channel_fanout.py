"""Transmit fan-out benchmarks: brute per-edge scan vs spatial index + waves.

Measures the cost of ``Channel.transmit`` (fan-out plus dispatch of the
signal edges — one event per edge for the brute scan, one wave per
transmission for the spatial index) over the shared ``bench_grid`` sweep — classic
sizes N ∈ {10, 50, 200, 800} plus the mega-scale columns N ∈ {2000,
10000} — for two placement regimes:

* **sparse** — 5·10⁻⁶ nodes/m²: a handful of radios per interference disk,
  the regime the spatial index targets (fan-out should approach O(degree)).
* **dense** — 5·10⁻⁵ nodes/m², the paper's Section IV density: most of the
  field is inside one 3×3 cell block, so the index's win comes from the
  cached wave templates and their cheap dispatch rather than culling.

Those worlds are static.  One more row, **moving**, puts N = 50 nodes at
the dense (paper) density on random-waypoint legs at the paper's 3 m/s
with no pause, so the world is never still: every transmit resolves its
block afresh from the leg arrays instead of replaying a template.

Radios are inert sinks so the numbers isolate the channel (the radio state
machine is benchmarked separately in ``test_engine_microbench.py``).
``tools/bench_phy.py`` reuses these builders to dump the cross-PR
perf-trajectory file ``BENCH_phy.json``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from bench_grid import DENSITIES, MEGA_SIZES, SIZES, TX_SAMPLE

from repro.config import MobilityConfig, PhyConfig
from repro.mobility.static import StaticMobility
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import TwoRayGround
from repro.sim.kernel import Simulator

PHY = PhyConfig()

#: The moving row: node count, and the random-waypoint speed [m/s].
MOVING_N = 50
MOVING_SPEED_MPS = 3.0


class _SinkRadio:
    """Inert duck-typed radio: absorbs signal edges at zero cost."""

    __slots__ = ("sim", "node_id", "mobility")

    def __init__(self, sim: Simulator, node_id: int, mobility) -> None:
        self.sim = sim
        self.node_id = node_id
        self.mobility = mobility

    @property
    def position(self):
        return self.mobility.position_at(self.sim.now)

    def begin_tx(self, frame) -> None:
        pass

    def signal_start(self, frame, power) -> None:
        pass

    def signal_end(self, frame_id) -> None:
        pass


def build_fanout_world(
    n: int, density: float, spatial: bool, seed: int = 7, moving: bool = False
):
    """A world of ``n`` sink radios at the given node density: static, or
    with ``moving`` on random-waypoint legs that never pause."""
    side = math.sqrt(n / density)
    sim = Simulator()
    chan = Channel(
        sim,
        TwoRayGround(),
        interference_floor_w=PHY.interference_floor_w,
        spatial_index=spatial,
        max_tx_power_w=PHY.max_power_w,
        max_speed_mps=MOVING_SPEED_MPS if moving else 0.0,
    )
    legs = MobilityConfig(
        speed_mps=MOVING_SPEED_MPS, pause_s=0.0, field_width_m=side,
        field_height_m=side,
    )
    rng = np.random.default_rng(seed)
    radios = []
    for i in range(n):
        pos = (float(rng.uniform(0.0, side)), float(rng.uniform(0.0, side)))
        if moving:
            mobility = RandomWaypoint(np.random.default_rng(seed * 1009 + i), legs, pos)
        else:
            mobility = StaticMobility(pos)
        radio = _SinkRadio(sim, i, mobility)
        chan.attach(radio)
        radios.append(radio)
    return sim, chan, radios


def make_frame() -> PhyFrame:
    return PhyFrame(
        payload=None,
        size_bytes=100,
        bitrate_bps=2e6,
        plcp_s=0.0,
        tx_power_w=PHY.max_power_w,
        src=0,
        frame_id=1,
    )


def fanout_round(sim: Simulator, chan: Channel, srcs, frame: PhyFrame) -> None:
    """One measured unit: TX_SAMPLE transmissions plus edge dispatch."""
    for src in srcs:
        chan.transmit(src, frame)
    sim.run_until(sim.now + 1.0)


#: mode name -> spatial_index for the world builder.
MODES = {"brute": False, "indexed": True}


def build_mode_world(
    n: int, density: float, mode: str, seed: int = 7, moving: bool = False
):
    """A fan-out world configured for one named bench mode."""
    return build_fanout_world(n, density, MODES[mode], seed, moving)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("placement", sorted(DENSITIES))
@pytest.mark.parametrize("n", SIZES)
def test_transmit_fanout(benchmark, n, placement, mode):
    sim, chan, radios = build_mode_world(n, DENSITIES[placement], mode)
    srcs = radios[:TX_SAMPLE]
    frame = make_frame()
    benchmark.group = f"fanout-{placement}-n{n}"
    benchmark(fanout_round, sim, chan, srcs, frame)


@pytest.mark.parametrize("placement", sorted(DENSITIES))
@pytest.mark.parametrize("n", MEGA_SIZES)
def test_transmit_fanout_mega(benchmark, n, placement):
    """Mega-scale columns: the spatial index with waves only.

    The brute O(N) scan is omitted here — at N = 10 000 it is the
    pathology the spatial index exists to avoid, and timing it adds
    minutes without information (its classic-size scaling is linear).
    """
    sim, chan, radios = build_mode_world(n, DENSITIES[placement], "indexed")
    srcs = radios[:TX_SAMPLE]
    frame = make_frame()
    benchmark.group = f"fanout-mega-{placement}-n{n}"
    benchmark(fanout_round, sim, chan, srcs, frame)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_transmit_fanout_moving(benchmark, mode):
    """Paper density, nodes always moving: no transmit replays a template."""
    sim, chan, radios = build_mode_world(
        MOVING_N, DENSITIES["dense"], mode, moving=True
    )
    srcs = radios[:TX_SAMPLE]
    frame = make_frame()
    benchmark.group = f"fanout-moving-n{MOVING_N}"
    benchmark(fanout_round, sim, chan, srcs, frame)


def test_moving_schedule_matches_brute():
    """Correctness guard for the moving row's size and density: a world
    whose nodes keep moving obeys the equivalence contract."""
    from tests.phy.test_channel_equivalence import assert_equivalent

    side = math.sqrt(MOVING_N / DENSITIES["dense"])
    assert_equivalent(
        seed=7, n=MOVING_N, side_m=side, mobile=True, tx_count=30,
        require_events=True,
    )


@pytest.mark.parametrize("placement", sorted(DENSITIES))
@pytest.mark.parametrize("n", (10, 200))
def test_indexed_schedule_matches_brute(n, placement):
    """Correctness guard: the bench worlds obey the equivalence contract.

    Runs under ``--benchmark-disable`` too, so CI's smoke step exercises the
    builders and both fan-out paths even when timing is off.
    """
    from tests.phy.test_channel_equivalence import assert_equivalent

    side = math.sqrt(n / DENSITIES[placement])
    assert_equivalent(seed=7, n=n, side_m=side, mobile=False, tx_count=30)
