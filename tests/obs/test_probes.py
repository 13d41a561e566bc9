"""Time-series probes: sampling cadence, gauge semantics, store round trip."""

from __future__ import annotations

import json

import pytest

from repro.campaign.store import result_from_dict, result_to_dict
from repro.config import ScenarioConfig
from repro.obs.probes import DEFAULT_GAUGES, GAUGE_FNS, TimeSeries
from repro.scenariospec import ComponentSpec, ScenarioSpec


def probed_spec(**params) -> ScenarioSpec:
    params.setdefault("interval_s", 1.0)
    return ScenarioSpec(
        cfg=ScenarioConfig(node_count=6, duration_s=5.0, seed=3),
        mac="basic",
        observability=ComponentSpec("probes", **params),
    )


class TestSamplingCadence:
    def test_tick_times_are_the_arithmetic_grid(self):
        ts = probed_spec().run().timeseries
        assert ts.times == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert ts.samples == 6
        assert ts.interval_s == 1.0
        assert ts.node_count == 6

    def test_fractional_interval(self):
        ts = probed_spec(interval_s=2.5).run().timeseries
        assert ts.times == (0.0, 2.5, 5.0)

    def test_default_gauges_in_canonical_order(self):
        ts = probed_spec().run().timeseries
        assert ts.gauges == DEFAULT_GAUGES
        assert len(ts.data) == len(DEFAULT_GAUGES)

    def test_gauge_subset_is_respected(self):
        ts = probed_spec(gauges=("cw", "route_count")).run().timeseries
        assert ts.gauges == ("cw", "route_count")
        assert len(ts.data) == 2

    def test_unknown_gauge_rejected_at_build(self):
        with pytest.raises(ValueError, match="unknown gauge"):
            probed_spec(gauges=("not_a_gauge",)).build()

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            probed_spec(interval_s=0.0).build()


class TestGaugeSemantics:
    def test_battery_gauge_is_sentinel_when_unmetered(self):
        ts = probed_spec(gauges=("battery_j",)).run().timeseries
        assert all(v == -1.0 for row in ts.gauge("battery_j") for v in row)

    def test_battery_gauge_drains_when_metered(self):
        spec = ScenarioSpec(
            cfg=ScenarioConfig(node_count=6, duration_s=5.0, seed=3),
            mac="basic",
            energy=ComponentSpec("wavelan", battery_j=30.0),
            observability=ComponentSpec("probes", gauges=("battery_j",)),
        )
        ts = spec.run().timeseries
        series = ts.node_series("battery_j", 0)
        assert series[0] == pytest.approx(30.0)
        assert series[-1] < series[0]
        # Batteries only discharge: the trajectory is monotone non-rising.
        assert all(b <= a for a, b in zip(series, series[1:]))

    def test_cw_starts_at_cwmin(self):
        ts = probed_spec(gauges=("cw",)).run().timeseries
        assert all(v >= 31.0 for v in ts.gauge("cw")[0])

    def test_radio_state_codes_are_in_range(self):
        ts = probed_spec(gauges=("radio_state",)).run().timeseries
        values = {v for row in ts.gauge("radio_state") for v in row}
        assert values <= {0.0, 1.0, 2.0, 3.0}

    def test_every_registered_gauge_samples_every_node(self):
        ts = probed_spec().run().timeseries
        for name in GAUGE_FNS:
            rows = ts.gauge(name)
            assert len(rows) == ts.samples
            assert all(len(row) == ts.node_count for row in rows)

    def test_unknown_gauge_lookup_raises(self):
        ts = probed_spec().run().timeseries
        with pytest.raises(KeyError, match="unknown gauge"):
            ts.gauge("nope")


class TestTimeSeriesRoundTrip:
    def test_store_serialisation_is_lossless(self):
        result = probed_spec().run()
        rebuilt = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert rebuilt == result
        assert isinstance(rebuilt.timeseries, TimeSeries)
        assert rebuilt.timeseries.gauge("cw") == result.timeseries.gauge("cw")

    def test_pre_observability_store_lines_still_load(self):
        result = ScenarioSpec(
            cfg=ScenarioConfig(node_count=6, duration_s=2.0, seed=1),
            mac="basic",
        ).run()
        payload = result_to_dict(result)
        del payload["timeseries"]  # a line written before the obs fields
        del payload["profile"]
        rebuilt = result_from_dict(payload)
        assert rebuilt.timeseries is None and rebuilt.profile is None
        assert rebuilt == result

    def test_full_store_round_trip_through_disk(self, tmp_path):
        from repro.campaign.spec import RunSpec
        from repro.fleet.shards import open_store

        spec = RunSpec(scenario=probed_spec())
        result = spec.run()
        open_store(tmp_path).put(spec, result)
        reloaded = open_store(tmp_path)  # fresh load from disk
        stored = reloaded.get(spec.key())
        assert stored == result
        assert stored.timeseries.times == result.timeseries.times
