"""Spatial-index channel vs brute-force oracle: exact dispatch equivalence.

The grid-indexed fan-out (``Channel(spatial_index=True)``), which queues
each transmission's edges as one kernel wave, must produce the *exact*
dispatch sequence of the brute-force all-radios scan, which schedules every
edge as its own event — same arrival times, same received powers
(bit-identical floats), same delivery order — for any placement, any
mobility, any transmission pattern.  These tests
build two mirrored worlds (identically seeded mobility, identical
transmission scripts), run both, and compare the recorded signal-edge logs
with plain ``==``.  Worlds run under each propagation model: the paper's
two-ray ground and free space take the fan-out's bulk-gain branch
(``bulk_exact``), log-distance shadowing its scalar-gain branch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MobilityConfig, PhyConfig
from repro.mobility.static import StaticMobility
from repro.mobility.waypoint import RandomWaypoint
from repro.phy.channel import Channel
from repro.phy.frame import PhyFrame
from repro.phy.propagation import FreeSpace, LogDistanceShadowing, TwoRayGround
from repro.sim.kernel import Simulator

PHY = PhyConfig()
MAX_POWER_W = PHY.max_power_w
SPEED_MPS = 30.0  # fast nodes stress reindexing within a short horizon
HORIZON_S = 20.0

#: Propagation models by name; only the first two are ``bulk_exact``.
PROPAGATIONS = {
    "two_ray": TwoRayGround(),
    "free_space": FreeSpace(),
    "log_distance": LogDistanceShadowing(),
}


class RecordingRadio:
    """Duck-typed radio that logs every signal edge it is handed."""

    def __init__(self, sim, node_id, mobility, log):
        self.sim = sim
        self.node_id = node_id
        self.mobility = mobility
        self.log = log

    @property
    def position(self):
        return self.mobility.position_at(self.sim.now)

    def begin_tx(self, frame):
        pass

    def signal_start(self, frame, power):
        self.log.append(("start", self.sim.now, self.node_id, frame.frame_id, power))

    def signal_end(self, frame_id):
        self.log.append(("end", self.sim.now, self.node_id, frame_id))


def build_world(
    seed, n, side_m, mobile, spatial_index, prop="two_ray", floor_w=None,
    pause_s=0.2,
):
    """One (sim, channel, radios, log) world; same seed ⇒ same world.

    ``prop`` names the propagation model; ``floor_w`` overrides the
    interference floor (default: the PHY's); ``pause_s`` is the mobile
    nodes' pause, the initial one included.
    """
    sim = Simulator()
    chan = Channel(
        sim,
        PROPAGATIONS[prop],
        interference_floor_w=floor_w or PHY.interference_floor_w,
        spatial_index=spatial_index,
        max_tx_power_w=MAX_POWER_W,
        max_speed_mps=SPEED_MPS if mobile else 0.0,
        reindex_interval_s=0.5,
    )
    rng = np.random.default_rng(seed)
    mob_cfg = MobilityConfig(
        speed_mps=SPEED_MPS, pause_s=pause_s, field_width_m=side_m,
        field_height_m=side_m,
    )
    log: list = []
    radios = []
    for i in range(n):
        pos = (float(rng.uniform(0.0, side_m)), float(rng.uniform(0.0, side_m)))
        if mobile:
            mob = RandomWaypoint(np.random.default_rng(seed * 1009 + i), mob_cfg, pos)
        else:
            mob = StaticMobility(pos)
        radio = RecordingRadio(sim, i, mob, log)
        chan.attach(radio)
        radios.append(radio)
    return sim, chan, radios, log


def make_script(seed, n, tx_count):
    """A reproducible transmission script: (time, src, power, size, fid)."""
    rng = np.random.default_rng(seed ^ 0xBEEF)
    times = np.sort(rng.uniform(0.0, HORIZON_S, size=tx_count))
    levels = PHY.power_levels_w
    return [
        (
            float(times[k]),
            int(rng.integers(0, n)),
            float(levels[int(rng.integers(0, len(levels)))]),
            int(rng.integers(20, 600)),
            k + 1,
        )
        for k in range(tx_count)
    ]


def run_script(seed, n, side_m, mobile, spatial_index, script, **world):
    sim, chan, radios, log = build_world(
        seed, n, side_m, mobile, spatial_index, **world
    )
    for t, src, power, size, fid in script:
        frame = PhyFrame(
            payload=None,
            size_bytes=size,
            bitrate_bps=2e6,
            plcp_s=0.0,
            tx_power_w=power,
            src=src,
            frame_id=fid,
        )
        sim.schedule(t, lambda s=radios[src], f=frame: chan.transmit(s, f))
    sim.run_until(HORIZON_S + 10.0)
    return chan, log


def assert_equivalent(
    seed, n, side_m, mobile, tx_count=40, require_events=False, **world
):
    script = make_script(seed, n, tx_count)
    _, brute = run_script(seed, n, side_m, mobile, False, script, **world)
    _, indexed = run_script(seed, n, side_m, mobile, True, script, **world)
    assert brute == indexed
    if require_events:
        # These geometries are dense enough that an all-empty log would mean
        # the equality assertion above was vacuous.
        assert brute


class TestScheduleEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(2, 40),
        side_m=st.sampled_from([300.0, 1000.0, 3000.0]),
        prop=st.sampled_from(sorted(PROPAGATIONS)),
    )
    def test_static_random_worlds(self, seed, n, side_m, prop):
        assert_equivalent(seed, n, side_m, mobile=False, prop=prop)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        n=st.integers(2, 30),
        side_m=st.sampled_from([500.0, 2000.0]),
        prop=st.sampled_from(sorted(PROPAGATIONS)),
    )
    def test_mobile_random_worlds(self, seed, n, side_m, prop):
        assert_equivalent(seed, n, side_m, mobile=True, prop=prop)

    @pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
    @pytest.mark.parametrize("prop", sorted(PROPAGATIONS))
    def test_propagation_models_cull_at_the_floor(self, prop, mobile):
        """A floor at each model's 400 m gain spreads a 1500 m field over
        several grid cells, so every model culls in-block candidates at
        the floor boundary."""
        floor = MAX_POWER_W * PROPAGATIONS[prop].gain_at(400.0)
        assert_equivalent(
            3, n=40, side_m=1500.0, mobile=mobile, tx_count=80,
            require_events=True, prop=prop, floor_w=floor,
        )

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_dense_static_seeds(self, seed):
        assert_equivalent(
            seed, n=50, side_m=1000.0, mobile=False, tx_count=80, require_events=True
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sparse_mobile_seeds(self, seed):
        assert_equivalent(
            seed, n=60, side_m=5000.0, mobile=True, tx_count=80, require_events=True
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_dense_block_static_seeds(self, seed):
        """Dense static blocks: waves of ~100 edges replayed from templates.

        This geometry packs ≥ 64 static radios into the 3×3 cell blocks
        around most transmitters, so many transmissions overlap and their
        waves interleave edge by edge.
        """
        assert_equivalent(
            seed, n=150, side_m=1500.0, mobile=False, tx_count=60,
            require_events=True,
        )

    def test_unattached_transmitter_matches_brute(self):
        seed, n, side = 9, 10, 800.0
        logs = []
        for flag in (False, True):
            sim, chan, radios, log = build_world(seed, n, side, False, flag)
            lone = RecordingRadio(sim, 99, StaticMobility((side / 2, side / 2)), log)
            frame = PhyFrame(
                payload=None, size_bytes=100, bitrate_bps=2e6, plcp_s=0.0,
                tx_power_w=MAX_POWER_W, src=99, frame_id=1,
            )
            chan.transmit(lone, frame)
            sim.run_until(1.0)
            logs.append(log)
        assert logs[0] == logs[1] and logs[0]

    def test_detach_and_reattach_sequence_matches_brute(self):
        seed, n, side = 5, 12, 900.0
        logs = []
        for flag in (False, True):
            sim, chan, radios, log = build_world(seed, n, side, False, flag)

            def fire(src, fid, when, s=sim, c=chan, r=radios):
                frame = PhyFrame(
                    payload=None, size_bytes=200, bitrate_bps=2e6, plcp_s=0.0,
                    tx_power_w=MAX_POWER_W, src=src, frame_id=fid,
                )
                s.schedule(when, lambda: c.transmit(r[src], frame))

            fire(0, 1, 0.5)
            sim.schedule(1.0, lambda: chan.detach(radios[3]))
            fire(1, 2, 1.5)  # radio 3 must not hear this
            sim.schedule(2.0, lambda: chan.attach(radios[3]))
            fire(2, 3, 2.5)  # radio 3 hears again, now last in attach order
            sim.run_until(5.0)
            logs.append(log)
        assert logs[0] == logs[1] and logs[0]


class TestGainCacheInvalidation:
    """The template cache must never serve a gain computed at a stale
    position: it holds one template per (source, tx power) while the world
    is still, and drops them all when the world moves, gains or loses a
    radio."""

    def _world(self, mobile, pause_s=0.2, n=2):
        return build_world(seed=21, n=n, side_m=400.0, mobile=mobile,
                           spatial_index=True, pause_s=pause_s)

    def _transmit_at(self, sim, chan, src, t, fid, power=MAX_POWER_W):
        frame = PhyFrame(
            payload=None, size_bytes=100, bitrate_bps=2e6, plcp_s=0.0,
            tx_power_w=power, src=src.node_id, frame_id=fid,
        )
        sim.schedule(t, lambda: chan.transmit(src, frame))

    def _count_resolves(self, chan):
        calls = []
        resolve = chan._resolve

        def counted(*args):
            calls.append(args)
            return resolve(*args)

        chan._resolve = counted
        return calls

    def _snapshot_at(self, sim, chan, t):
        """The template cache's keys just after the transmits at ``t``."""
        seen = []
        sim.schedule(t, lambda: seen.append(set(chan._static_fanouts)), priority=9)
        return seen

    def test_waypoint_movement_invalidates_cached_gain(self):
        sim, chan, radios, log = self._world(mobile=True)
        # Identically seeded replicas of both trajectories give the oracle
        # gains (sampled in time order — waypoint queries are monotonic).
        mob_cfg = MobilityConfig(speed_mps=SPEED_MPS, pause_s=0.2,
                                 field_width_m=400.0, field_height_m=400.0)
        replicas = [
            RandomWaypoint(
                np.random.default_rng(21 * 1009 + i), mob_cfg,
                radios[i].mobility._last_pos,
            )
            for i in (0, 1)
        ]
        prop = TwoRayGround()
        tx_times = (0.1, 5.0, 12.0)
        expected = [
            MAX_POWER_W
            * prop.gain(replicas[0].position_at(t), replicas[1].position_at(t))
            for t in tx_times
        ]
        for fid, t in enumerate(tx_times, start=1):
            self._transmit_at(sim, chan, radios[0], t, fid)
        sim.run_until(HORIZON_S)
        starts = [e for e in log if e[0] == "start" and e[2] == 1]
        assert len(starts) == 3
        assert [e[4] for e in starts] == expected
        # The node genuinely moved between transmissions, so the powers
        # must differ — a stale cache would repeat the first value.
        powers = [e[4] for e in starts]
        assert len(set(powers)) == 3

    def test_static_world_caches_each_link_once(self):
        """A static world resolves each (source, power) once and replays
        the same template object for every later transmission."""
        sim, chan, radios, log = self._world(mobile=False)
        calls = self._count_resolves(chan)
        for fid, t in enumerate((0.1, 1.0, 2.0, 3.0), start=1):
            self._transmit_at(sim, chan, radios[0], t, fid)
        sim.run_until(10.0)
        starts = [e for e in log if e[0] == "start"]
        assert len(starts) == 4
        assert len({e[4] for e in starts}) == 1  # same link, same gain
        assert len(calls) == 1
        assert set(chan._static_fanouts) == {(0, MAX_POWER_W)}
        tmpl = chan._static_fanouts[(0, MAX_POWER_W)]
        assert tmpl.xs == (starts[0][4],)

    def test_source_movement_evicts_its_cached_links(self):
        """Leaving the initial pause drops every template, and a moving
        world caches none: each transmit resolves afresh."""
        sim, chan, radios, log = self._world(mobile=True)
        tx_times = (0.1, 5.0, 12.0)
        for fid, t in enumerate(tx_times, start=1):
            self._transmit_at(sim, chan, radios[0], t, fid)
        calls = self._count_resolves(chan)
        still = self._snapshot_at(sim, chan, 0.1)
        moving = self._snapshot_at(sim, chan, 5.0)
        sim.run_until(HORIZON_S)
        assert len([e for e in log if e[0] == "start"]) == 3
        assert still == [{(0, MAX_POWER_W)}]
        assert moving == [set()]
        assert len(calls) == 3
        assert chan._static_fanouts == {}

    def test_pause_legs_keep_epoch_and_reuse_cache(self):
        mob = RandomWaypoint(
            np.random.default_rng(3),
            MobilityConfig(speed_mps=3.0, pause_s=3.0),
            (100.0, 100.0),
        )
        mob.position_at(0.0)
        e0 = mob.epoch
        mob.position_at(1.0)  # still inside the initial 3 s pause
        assert mob.epoch == e0
        mob.position_at(10.0)  # moving now
        assert mob.epoch > e0

        # A world inside its initial 3 s pause is still: one template per
        # (source, power), replayed until the pause ends.
        sim, chan, radios, log = self._world(mobile=True, pause_s=3.0, n=3)
        calls = self._count_resolves(chan)
        low = PHY.power_levels_w[0]
        script = [(0.5, 0, MAX_POWER_W), (1.0, 0, MAX_POWER_W), (1.5, 1, MAX_POWER_W),
                  (2.0, 0, low), (2.5, 0, MAX_POWER_W), (3.5, 0, MAX_POWER_W)]
        for fid, (t, src, power) in enumerate(script, start=1):
            self._transmit_at(sim, chan, radios[src], t, fid, power)
        paused = self._snapshot_at(sim, chan, 2.5)
        moving = self._snapshot_at(sim, chan, 3.5)
        sim.run_until(HORIZON_S)
        assert paused == [{(0, MAX_POWER_W), (1, MAX_POWER_W), (0, low)}]
        assert moving == [set()]
        assert len(calls) == 4  # three templates, then one moving resolve

    def test_attach_and_detach_drop_templates(self):
        sim, chan, radios, log = self._world(mobile=False, n=3)
        self._transmit_at(sim, chan, radios[0], 0.1, 1)
        sim.run_until(1.0)
        assert set(chan._static_fanouts) == {(0, MAX_POWER_W)}
        chan.detach(radios[2])
        assert chan._static_fanouts == {}
        self._transmit_at(sim, chan, radios[0], 1.5, 2)
        sim.run_until(2.0)
        assert len(chan._static_fanouts[(0, MAX_POWER_W)].xs) == 1
        chan.attach(radios[2])
        assert chan._static_fanouts == {}
        self._transmit_at(sim, chan, radios[0], 2.5, 3)
        sim.run_until(3.0)
        assert len(chan._static_fanouts[(0, MAX_POWER_W)].xs) == 2
        heard = [(e[3], e[2]) for e in log if e[0] == "start"]
        assert sorted(heard) == [(1, 1), (1, 2), (2, 1), (3, 1), (3, 2)]


class TestSpatialIndexGuards:
    """The index fails loudly whenever its culling guarantee would not hold."""

    def _channel(self, max_speed=0.0):
        sim = Simulator()
        return sim, Channel(
            sim,
            TwoRayGround(),
            interference_floor_w=PHY.interference_floor_w,
            spatial_index=True,
            max_tx_power_w=MAX_POWER_W,
            max_speed_mps=max_speed,
        )

    def test_attach_rejects_mobility_faster_than_channel_bound(self):
        sim, chan = self._channel(max_speed=3.0)
        mob_cfg = MobilityConfig(speed_mps=3.0, pause_s=1.0)
        ok = RecordingRadio(
            sim, 0,
            RandomWaypoint(np.random.default_rng(1), mob_cfg, (0.0, 0.0)),
            [],
        )
        chan.attach(ok)  # exactly at the bound: allowed
        fast = RecordingRadio(
            sim, 1,
            RandomWaypoint(np.random.default_rng(2), mob_cfg, (5.0, 5.0),
                           speed_range=(1.0, 9.0)),
            [],
        )
        with pytest.raises(ValueError, match="max_speed_mps"):
            chan.attach(fast)
        assert fast not in chan.radios

    def test_attach_rejects_radio_without_mobility_model(self):
        sim, chan = self._channel()

        class BareRadio:
            node_id = 0
            position = (0.0, 0.0)

        with pytest.raises(ValueError, match="no mobility model"):
            chan.attach(BareRadio())

    def test_transmit_rejects_power_above_channel_bound(self):
        sim, chan = self._channel()
        radio = RecordingRadio(sim, 0, StaticMobility((0.0, 0.0)), [])
        chan.attach(radio)
        frame = PhyFrame(
            payload=None, size_bytes=10, bitrate_bps=2e6, plcp_s=0.0,
            tx_power_w=MAX_POWER_W * 2.0, src=0, frame_id=1,
        )
        with pytest.raises(ValueError, match="max_tx_power_w"):
            chan.transmit(radio, frame)

    def test_spatial_index_requires_max_tx_power(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="max_tx_power_w"):
            Channel(sim, TwoRayGround(), spatial_index=True)
