"""run_specs on top of the fleet machinery.

The contract: ``run_specs`` keeps its surface (report shape, resume,
error records) while executing through enqueue → workers → store, and its
results are bit-identical to ``RunSpec.run`` of the same specs at every
``jobs``.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import pytest

from repro.campaign.runner import run_specs
from repro.campaign.spec import RunSpec
from repro.config import ScenarioConfig, TrafficConfig
from repro.fleet.shards import ShardedResultStore
from repro.scenariospec import ComponentSpec, ScenarioSpec


def cell(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(
        node_count=4,
        duration_s=2.0,
        seed=seed,
        traffic=TrafficConfig(flow_count=1, offered_load_bps=50e3),
    )
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def doomed(seed: int = 99) -> RunSpec:
    cfg = ScenarioConfig(node_count=6, duration_s=2.0, seed=seed)
    return RunSpec(
        scenario=ScenarioSpec(
            cfg=cfg,
            mac=ComponentSpec("basic"),
            placement=ComponentSpec("explicit", positions=((0.0, 0.0),)),
        )
    )


def deterministic_fields(result) -> dict:
    fields = asdict(result)
    fields.pop("wallclock_s")
    return fields


class TestFleetRunSpecs:
    def test_storeless_run_uses_a_temporary_store(self, monkeypatch):
        import repro.fleet.shards as shards

        roots = []
        opened = shards.open_store

        def spy(root, **kwargs):
            roots.append(root)
            return opened(root, **kwargs)

        monkeypatch.setattr(shards, "open_store", spy)
        report = run_specs([cell(1), cell(2)], jobs=2)
        assert report.executed == 2
        (root,) = roots
        assert not os.path.exists(root)  # removed on return

    def test_results_identical_to_serial(self, tmp_path):
        specs = [cell(1), cell(2)]
        serial = run_specs(specs)
        store = ShardedResultStore(tmp_path / "store", shards=4)
        fleet = run_specs(specs, jobs=2, store=store)
        assert fleet.executed == 2
        assert not fleet.errors
        for spec in specs:
            key = spec.key()
            assert deterministic_fields(
                fleet.results[key]
            ) == deterministic_fields(serial.results[key])

    def test_store_holds_one_line_per_key(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        specs = [cell(1), cell(2)]
        run_specs(specs, jobs=2, store=store)
        lines = []
        for path in store._result_files():
            if path.exists():
                lines.extend(path.read_text().splitlines())
        assert len(lines) == 2

    def test_resume_is_all_cache_hits(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        specs = [cell(1), cell(2)]
        run_specs(specs, jobs=2, store=store)
        again = run_specs(specs, jobs=2, store=store)
        assert again.cached == 2
        assert again.executed == 0

    def test_failures_carry_the_lease_audit(self, tmp_path):
        store = ShardedResultStore(tmp_path / "store", shards=4)
        report = run_specs(
            [cell(1), doomed()],
            jobs=2,
            store=store,
            retries=1,
        )
        assert report.executed == 1
        error = report.errors[doomed().key()]
        assert error["kind"] == "ValueError"
        assert error["attempts"] == 2  # retries=1 → attempt budget of 2
        assert len(error["owners"]) == 2
        assert error["label"] == doomed().label()
        # Persisted identically: resume reads the same record back.
        assert store.error(doomed().key())["owners"] == error["owners"]
