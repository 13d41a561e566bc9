"""Result store tests: round trips, resume across instances, torn writes,
and the one-format guarantee — every opener reads a campaign's store
without rewriting it."""

from __future__ import annotations

import json

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import result_from_dict, result_to_dict
from repro.config import ScenarioConfig, TrafficConfig
from repro.experiments.scenario import ExperimentResult, FlowSummary
from repro.fleet.shards import open_store


def make_spec(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(
        node_count=4,
        duration_s=2.0,
        seed=seed,
        traffic=TrafficConfig(flow_count=2, offered_load_bps=50e3),
    )
    return RunSpec(cfg=cfg, protocol="basic")


def make_result(seed: int = 1) -> ExperimentResult:
    return ExperimentResult(
        protocol="basic",
        offered_load_kbps=50.0,
        duration_s=1.0,
        throughput_kbps=12.5,
        avg_delay_ms=3.25,
        delivery_ratio=0.5,
        fairness=0.9,
        sent=10,
        received=5,
        drops={"ifq": 2, "retry": 3},
        mac_totals={"rts_sent": 9.0},
        routing_totals={"rreq": 4},
        events_executed=1234,
        wallclock_s=0.01,
        seed=seed,
        flows=(
            FlowSummary(0, 5, 3, 0.6, 6.0, 2.0),
            FlowSummary(1, 5, 2, 0.4, 6.5, 4.5),
        ),
    )


class TestSerialisation:
    def test_result_dict_round_trip(self):
        original = make_result()
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(original))))
        assert rebuilt == original

    def test_legacy_dict_without_flows(self):
        payload = result_to_dict(make_result())
        payload.pop("flows")
        rebuilt = result_from_dict(payload)
        assert rebuilt.flows == ()


class TestResultStore:
    def test_put_then_get(self, tmp_path):
        store = open_store(tmp_path / "store")
        spec, result = make_spec(), make_result()
        key = store.put(spec, result)
        assert key == spec.key()
        assert key in store
        assert store.get(key) == result
        assert len(store) == 1

    def test_resume_across_instances(self, tmp_path):
        root = tmp_path / "store"
        first = open_store(root)
        spec, result = make_spec(), make_result()
        first.put(spec, result)

        second = open_store(root)
        assert spec.key() in second
        assert second.get(spec.key()) == result
        assert second.spec_summary(spec.key())["protocol"] == "basic"

    def test_audit_record_carries_rerunnable_scenario(self, tmp_path):
        """The stored spec summary embeds the full serialized ScenarioSpec,
        so a store entry can be re-expanded into the exact cell that ran."""
        from repro.scenariospec import ScenarioSpec

        store = open_store(tmp_path / "store")
        spec, result = make_spec(), make_result()
        key = store.put(spec, result)

        reloaded = open_store(tmp_path / "store")
        scenario_dict = reloaded.spec_summary(key)["scenario"]
        rebuilt = ScenarioSpec.from_dict(scenario_dict)
        assert rebuilt == spec.scenario
        assert rebuilt.key() == key

    def test_missing_key_returns_none(self, tmp_path):
        store = open_store(tmp_path / "store")
        assert store.get("deadbeef") is None
        assert "deadbeef" not in store

    def test_last_write_wins_on_duplicate_key(self, tmp_path):
        # put() is exactly-once per key, but lines appended by other
        # writers (older versions, a migration) can repeat a key: the
        # loader keeps the last.
        root = tmp_path / "store"
        store = open_store(root)
        spec = make_spec()
        store.put(spec, make_result())
        newer = make_result()
        newer.throughput_kbps = 99.0
        line = {"key": spec.key(), "spec": {}, "result": result_to_dict(newer)}
        with store._file_for(spec.key()).open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(line) + "\n")
        reloaded = open_store(root)
        assert len(reloaded) == 1
        assert reloaded.get(spec.key()).throughput_kbps == 99.0

    def test_torn_final_line_is_ignored(self, tmp_path):
        root = tmp_path / "store"
        store = open_store(root)
        spec, result = make_spec(), make_result()
        store.put(spec, result)
        # Simulate a crash mid-append: a truncated JSON tail.
        with store._file_for(spec.key()).open("a", encoding="utf-8") as fh:
            fh.write('{"key": "abc", "result": {"proto')

        reloaded = open_store(root)
        assert len(reloaded) == 1
        assert reloaded.get(spec.key()) == result

    def test_meta_file_written_once(self, tmp_path):
        root = tmp_path / "store"
        open_store(root)
        meta = json.loads((root / "meta.json").read_text())
        assert meta["store_format"] >= 1
        assert meta["spec_schema"] >= 1
        # Reopening must not rewrite it.
        before = (root / "meta.json").stat().st_mtime_ns
        open_store(root)
        assert (root / "meta.json").stat().st_mtime_ns == before


class TestOneStoreFormat:
    """Opening a campaign's store anywhere reads every row, rewrites nothing.

    An opener that read a sharded store as flat would see 0 results and
    rewrite ``meta.json`` to the flat format, hiding every result from
    later openers.
    """

    @pytest.fixture(scope="class")
    def campaign_store(self, tmp_path_factory):
        from repro.campaign.runner import run_specs

        root = tmp_path_factory.mktemp("campaign") / "store"
        specs = [make_spec(seed) for seed in (1, 2, 3)]
        report = run_specs(specs, jobs=2, store=open_store(root, shards=4))
        assert report.executed == len(specs)
        return root, len(specs)

    def test_export_reads_every_row_and_keeps_meta(self, campaign_store):
        from repro.analysis.export import load_store_results, store_to_csv

        root, cells = campaign_store
        meta = (root / "meta.json").read_bytes()
        assert len(load_store_results(root)) == cells
        assert len(store_to_csv(root).splitlines()) == cells + 1
        assert (root / "meta.json").read_bytes() == meta
        assert len(open_store(root)) == cells

    @pytest.mark.parametrize(
        "module, runner",
        [
            ("capture_study", "run_capture_study"),
            ("chaos_resilience", "run_chaos_resilience"),
            ("energy_savings", "run_energy_savings"),
        ],
    )
    def test_experiment_store_flag_reads_every_row(
        self, campaign_store, monkeypatch, module, runner
    ):
        import importlib

        root, cells = campaign_store
        meta = (root / "meta.json").read_bytes()
        experiment = importlib.import_module(f"repro.experiments.{module}")
        seen = {}

        class Opened(Exception):
            pass

        def capture(*args, store=None, **kwargs):
            seen["store"] = store
            raise Opened

        monkeypatch.setattr(experiment, runner, capture)
        with pytest.raises(Opened):
            experiment.main(["--store", str(root), "--out", "-"])
        assert len(seen["store"]) == cells
        assert (root / "meta.json").read_bytes() == meta
