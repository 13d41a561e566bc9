"""Live telemetry: sliced execution is bit-identical, heartbeats flow."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.config import ScenarioConfig
from repro.fleet.shards import open_store
from repro.obs.telemetry import RunProgress, peak_rss_kb, runtime_stats
from repro.scenariospec import ScenarioSpec


def small_spec(seed: int = 3) -> RunSpec:
    return RunSpec(
        scenario=ScenarioSpec(
            cfg=ScenarioConfig(node_count=8, duration_s=5.0, seed=seed),
            mac="basic",
        )
    )


def strip_wallclock(result):
    return replace(result, wallclock_s=0.0)


class TestRunWithHeartbeat:
    def test_sliced_run_is_bit_identical(self):
        spec = small_spec()
        plain = spec.run()
        beats: list[RunProgress] = []
        sliced = spec.run(beats.append, slices=7)
        assert strip_wallclock(sliced) == strip_wallclock(plain)
        assert sliced.events_executed == plain.events_executed
        assert beats[-1].wall_s == sliced.wallclock_s

    def test_heartbeat_stream_shape(self):
        spec = small_spec()
        beats: list[RunProgress] = []
        spec.run(beats.append, slices=4)
        assert len(beats) == 5  # one per slice + the final done beat
        assert [b.done for b in beats] == [False] * 4 + [True]
        assert all(b.key == spec.key() for b in beats)
        assert all(b.label == spec.label() for b in beats)
        # Sim time advances monotonically to the horizon.
        times = [b.sim_time_s for b in beats]
        assert times == sorted(times)
        assert beats[-1].sim_time_s == 5.0
        # Event counts are cumulative and end at the true total.
        events = [b.events for b in beats]
        assert events == sorted(events)

    def test_slices_must_be_positive(self):
        with pytest.raises(ValueError, match="slices"):
            small_spec().run(lambda p: None, slices=0)

    def test_runtime_stats_shape(self):
        result = small_spec().run()
        stats = runtime_stats(result)
        assert set(stats) == {"wall_s", "events", "events_per_sec", "peak_rss_kb"}
        assert stats["events"] == result.events_executed
        assert stats["peak_rss_kb"] == peak_rss_kb() > 0


class TestRunProgress:
    def mk(self, **over) -> RunProgress:
        base = dict(
            key="k", label="basic@80kbps/seed1", sim_time_s=2.0,
            duration_s=8.0, events=1000, wall_s=0.5, peak_rss_kb=65536,
        )
        base.update(over)
        return RunProgress(**base)

    def test_rates_and_eta(self):
        p = self.mk()
        assert p.events_per_sec == pytest.approx(2000.0)
        assert p.sim_rate == pytest.approx(4.0)
        assert p.eta_s == pytest.approx(1.5)  # 6 sim-s left at 4 sim-s/wall-s

    def test_zero_wall_is_safe(self):
        p = self.mk(wall_s=0.0)
        assert p.events_per_sec == 0.0
        assert p.sim_rate == 0.0
        assert p.eta_s == 0.0

    def test_line_renders_running_and_done(self):
        running = self.mk().line()
        assert "t=2.0/8s" in running and "ev/s" in running
        done = self.mk(done=True, events=5000, wall_s=1.0).line()
        assert "done" in done and "5,000 ev" in done


class TestRunnerTelemetry:
    def test_serial_runner_streams_and_persists_runtime(self, tmp_path):
        specs = [small_spec(1), small_spec(2)]
        beats: list[RunProgress] = []
        store = open_store(tmp_path)
        report = run_specs(
            specs, store=store, telemetry=beats.append, slices=3
        )
        assert report.executed == 2
        assert len(beats) == 2 * 4  # (3 slices + done) per cell
        for spec in specs:
            stats = store.runtime_stats(spec.key())
            assert stats["events"] == report.results[spec.key()].events_executed

    def test_pooled_runner_matches_serial_results(self, tmp_path):
        specs = [small_spec(1), small_spec(2), small_spec(3)]
        beats: list[RunProgress] = []
        store = open_store(tmp_path / "live")
        live = run_specs(
            specs, jobs=2, store=store, telemetry=beats.append, slices=3
        )
        plain = run_specs(specs)
        for spec in specs:
            key = spec.key()
            assert strip_wallclock(live.results[key]) == (
                strip_wallclock(plain.results[key])
            )
        # Every cell heartbeated across the process boundary.
        assert {b.key for b in beats} == {s.key() for s in specs}
        assert sum(1 for b in beats if b.done) == 3

    def test_cached_cells_emit_no_heartbeats(self, tmp_path):
        spec = small_spec(1)
        store = open_store(tmp_path)
        run_specs([spec], store=store)
        beats: list[RunProgress] = []
        report = run_specs([spec], store=store, telemetry=beats.append)
        assert report.cached == 1 and report.executed == 0
        assert beats == []
