"""Wave edge cases: whole runs against the brute per-edge oracle.

The indexed channel queues each transmission's signal edges as one kernel
wave; the brute-force channel schedules every edge as its own event.  Each
case below drives both through the same scenario and the same disturbance —
horizons that cut a wave in half, ``stop()`` from inside an edge handler, a
receiver detached mid-frame, a receiver-side fade, exactly tied delays,
delays one rounding step apart — and requires the full ``ExperimentResult``
(``wallclock_s`` aside) to be identical.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.builder import NetworkBuilder
from repro.campaign.spec import RunSpec
from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.obs.telemetry import run_with_heartbeat
from repro.phy.radio import Radio
from repro.scenariospec import ComponentSpec, ScenarioSpec
from repro.sim.kernel import Wave


def _spec(n=16, duration_s=4.0, seed=3, protocol="pcmac", mobile=False):
    cfg = replace(ScenarioConfig(), node_count=n, duration_s=duration_s, seed=seed)
    return ScenarioSpec.from_legacy(cfg, protocol, mobile=mobile)


def _summary(result) -> dict:
    out = asdict(result)
    out.pop("wallclock_s")  # the only legitimately nondeterministic field
    return out


def _run_both(spec: ScenarioSpec, drive=None) -> tuple:
    """(oracle, waves) results; ``drive(net)`` replaces ``net.run()``."""
    out = []
    for spatial_index in (False, True):
        net = NetworkBuilder(spec, spatial_index=spatial_index).build()
        result = drive(net) if drive is not None else net.run()
        out.append(_summary(result))
    return tuple(out)


def _cut_waves(sim) -> tuple[int, int]:
    """Queued waves cut inside their (leading, trailing) phase."""
    lead = trail = 0
    for entry in sim._queue._heap:
        wave = entry[3]
        if isinstance(wave, Wave):
            n = len(wave._tmpl.offsets)
            lead += 0 < wave._pos < n
            trail += wave._pos > n
    return lead, trail


class TestHorizonsInsideWaves:
    def test_horizons_between_edges_of_one_phase(self, monkeypatch):
        """Horizons placed between consecutive edges of one fan-out cut
        waves inside both phases; every slice ends at the oracle's clock
        and event count."""
        spec = _spec(duration_s=3.0)
        edge_times = []
        for name in ("signal_start", "signal_end"):
            original = getattr(Radio, name)

            def recording(self, *args, _original=original):
                edge_times.append(self.sim.now)
                return _original(self, *args)

            monkeypatch.setattr(Radio, name, recording)
        _run_both(spec)
        monkeypatch.undo()
        times = sorted(set(edge_times))
        gaps = [(a + b) / 2 for a, b in zip(times, times[1:]) if b - a < 1e-5]
        horizons = gaps[:: max(1, len(gaps) // 400)]
        marks, cuts = [], []

        def sliced(net):
            sim = net.sim
            mark, cut = [], [0, 0]
            for h in horizons:
                sim.run_until(h)
                mark.append((sim.now, sim.events_executed))
                lead, trail = _cut_waves(sim)
                cut[0] += lead
                cut[1] += trail
            marks.append(mark)
            cuts.append(cut)
            return net.run()

        oracle, waves = _run_both(spec, sliced)
        assert waves == oracle
        assert marks[0] == marks[1]
        assert cuts[0] == [0, 0] and min(cuts[1]) > 0  # non-vacuous

    def test_run_with_heartbeat_is_bit_identical(self):
        spec = RunSpec(scenario=_spec(duration_s=3.0, mobile=True))
        beats = []
        result, _ = run_with_heartbeat(spec, beats.append, slices=333)
        oracle, _ = _run_both(spec.scenario)
        assert _summary(result) == oracle
        assert len(beats) == 334  # every slice plus the final beat
        assert beats[-1].events == oracle["events_executed"]


class TestStopInsideEdgeHandler:
    @pytest.mark.parametrize("nth", [1, 2, 7, 500, 1501])
    def test_stop_mid_wave_then_resume(self, monkeypatch, nth):
        original = Radio.signal_start
        calls = {"n": 0}

        def stopping_start(self, frame, rx_power_w):
            original(self, frame, rx_power_w)
            calls["n"] += 1
            if calls["n"] == nth:
                self.sim.stop()

        monkeypatch.setattr(Radio, "signal_start", stopping_start)
        stops = []

        def drive(net):
            calls["n"] = 0
            net.sim.run_until(net.cfg.duration_s)
            stops.append((net.sim.now, net.sim.events_executed, net.sim.pending_events))
            return net.run()

        oracle, waves = _run_both(_spec(), drive)
        assert waves == oracle
        assert stops[0][:2] == stops[1][:2]
        assert stops[0][0] < 4.0  # the stop really happened mid-run


class TestDetachMidFrame:
    def test_in_flight_edges_still_reach_a_detached_radio(self, monkeypatch):
        """Detach a receiver between a frame's leading and trailing edge
        (and re-attach it later): its queued edges are still delivered."""
        original = Radio.signal_start
        state = {}

        def detaching_start(self, frame, rx_power_w):
            original(self, frame, rx_power_w)
            if self.node_id == 5 and self.sim.now > 1.5 and "at" not in state:
                state["at"] = self.sim.now
                chan = state["net"].data_channel
                sim = self.sim
                sim.schedule(sim.now + 1e-6, chan.detach, args=(self,))
                sim.schedule(sim.now + 0.5, chan.attach, args=(self,))

        monkeypatch.setattr(Radio, "signal_start", detaching_start)
        arrivals = []

        def drive(net):
            state.clear()
            state["net"] = net
            sim = net.sim
            sim.run_until(1.5)
            while "at" not in state:
                sim.step()
            # Past the detach, before the frame's trailing edge.
            sim.run_until(state["at"] + 2e-6)
            radio = net.nodes[5].mac.radio
            assert radio not in net.data_channel.radios
            arrivals.append(len(radio._arrivals))
            return net.run()

        oracle, waves = _run_both(_spec(n=12, protocol="basic"), drive)
        assert waves == oracle
        # The frame detected mid-flight is still on the air at radio 5.
        assert arrivals[0] == arrivals[1] >= 1


class TestReceiverFade:
    def test_fade_on_a_receiver_matches_oracle(self):
        faults = ComponentSpec(
            "scripted", link_fades=((0, 1, 1.0, 3.0, 0.05), (2, 1, 0.0, 4.0, 0.3))
        )
        cfg = replace(
            ScenarioConfig(),
            node_count=8,
            duration_s=4.0,
            seed=3,
            traffic=TrafficConfig(flow_count=2, offered_load_bps=400e3),
        )
        spec = replace(
            ScenarioSpec.from_legacy(cfg, "pcmac", flow_pairs=((0, 1), (2, 1))),
            faults=faults,
        )
        oracle, waves = _run_both(spec)
        assert waves == oracle
        assert oracle["resilience"] is not None


class TestTiedAndCollapsingDelays:
    def test_symmetric_grid_equal_delays(self):
        """A square grid makes many receivers exactly equidistant from the
        sender: their waves tie on time and priority and order by seq."""
        spec = replace(
            _spec(n=25, protocol="basic"), placement=ComponentSpec("grid")
        )
        nets = []

        def drive(net):
            nets.append(net)
            return net.run()

        oracle, waves = _run_both(spec, drive)
        assert waves == oracle
        templates = [
            t for t in nets[1].data_channel._static_fanouts.values() if t is not None
        ]
        assert any(
            len(set(t.offsets)) < len(t.offsets) for t in templates
        ), "no exactly tied delays formed"

    def test_delays_one_rounding_step_apart_fall_back(self):
        """Receivers 1e-9 m apart in distance, the nearer attached later:
        ``now + delay`` collapses their times, so seq order (not delay
        order) must decide, and the template refuses to ride a wave."""
        positions = ((0.0, 0.0), (100.000000001, 0.0), (100.0, 0.0), (150.0, 60.0))
        cfg = replace(
            ScenarioConfig(),
            node_count=4,
            duration_s=3.0,
            seed=2,
            traffic=TrafficConfig(flow_count=1, offered_load_bps=200e3),
            mobility=MobilityConfig(field_width_m=200.0, field_height_m=200.0),
        )
        spec = ScenarioSpec.from_legacy(
            cfg, "basic", positions=positions, mobile=False, flow_pairs=((0, 3),)
        )
        nets = []

        def drive(net):
            nets.append(net)
            return net.run()

        oracle, waves = _run_both(spec, drive)
        assert waves == oracle
        assert oracle["sent"] > 0
        chan = nets[1].data_channel
        tmpl = next(
            t for (src, _), t in chan._static_fanouts.items() if src == 0
        )
        near, far = 100.0 / 299792458.0, 100.000000001 / 299792458.0
        assert near != far and 1.0 + near == 1.0 + far
        assert tmpl.gap < 1e-15
        assert not tmpl.fits(1.0, 1e-3)


class TestProfilingCounts:
    """Per-edge profiler counts are pinned: waves attribute each edge to its
    own ``phy.sig_start`` / ``phy.sig_end`` label, exactly as per-edge
    events did."""

    @pytest.mark.parametrize(
        "mobile, events, starts, ends",
        [(False, 35204, 15342, 15336), (True, 37361, 16144, 16144)],
        ids=["static", "mobile"],
    )
    @pytest.mark.parametrize("spatial_index", [False, True], ids=["brute", "waves"])
    def test_signal_edge_counts(self, mobile, events, starts, ends, spatial_index):
        spec = _spec(n=16, duration_s=8.0, seed=3, mobile=mobile)
        net = NetworkBuilder(spec, spatial_index=spatial_index).build()
        net.sim.enable_profiling()
        result = net.run()
        profile = net.sim.profile
        assert result.events_executed == events
        assert profile["phy.sig_start"][0] == starts
        assert profile["phy.sig_end"][0] == ends
        assert sum(cell[0] for cell in profile.values()) == events
