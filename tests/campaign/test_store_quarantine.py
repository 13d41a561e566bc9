"""Result store corruption quarantine and error-line semantics.

The store used to silently drop unparseable JSONL lines — a torn write
from a crashed campaign would vanish without a trace.  Now bad lines move
to a ``.corrupt`` sidecar with a warning, the main file is rewritten
atomically, and structured error lines coexist with results (success
always outranking error for the same key).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.campaign.spec import RunSpec
from repro.campaign.store import CORRUPT_SUFFIX
from repro.config import ScenarioConfig
from repro.fleet.shards import open_store
from repro.scenariospec import ComponentSpec, ScenarioSpec


def cell(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(node_count=6, duration_s=2.0, seed=seed)
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def populated_store(tmp_path, seeds=(1, 2)):
    store = open_store(tmp_path / "store")
    for seed in seeds:
        spec = cell(seed)
        store.put(spec, spec.scenario.run())
    return store


def shard_of(store, seed: int = 1):
    """The shard file holding ``cell(seed)`` — where the tests corrupt."""
    return store._file_for(cell(seed).key())


class TestQuarantine:
    def test_corrupt_lines_move_to_sidecar(self, tmp_path):
        store = populated_store(tmp_path)
        with shard_of(store).open("a", encoding="utf-8") as fh:
            fh.write('{"key": "torn-off-mid-wri\n')
            fh.write("not json at all\n")

        with pytest.warns(RuntimeWarning, match="quarantined 2 corrupt"):
            reloaded = open_store(tmp_path / "store")

        assert len(reloaded) == 2
        sidecar = shard_of(store).with_name(shard_of(store).name + CORRUPT_SUFFIX)
        assert len(sidecar.read_text().splitlines()) == 2
        # The main file is clean now: a third load warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = open_store(tmp_path / "store")
        assert len(again) == 2

    def test_results_survive_the_rewrite_intact(self, tmp_path):
        store = populated_store(tmp_path)
        originals = {k: store.get(k) for k in store.keys()}
        with shard_of(store).open("a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        with pytest.warns(RuntimeWarning):
            reloaded = open_store(tmp_path / "store")
        for key, result in originals.items():
            assert reloaded.get(key) == result


class TestErrorLines:
    def test_put_error_stays_out_of_the_index(self, tmp_path):
        store = open_store(tmp_path / "store")
        spec = cell()
        key = store.put_error(spec, {"kind": "ValueError", "message": "x"})
        assert key == spec.key()
        assert store.get(key) is None
        assert key not in store
        assert store.error(key)["kind"] == "ValueError"
        assert store.errors() == {key: store.error(key)}

    def test_error_lines_survive_reload(self, tmp_path):
        store = open_store(tmp_path / "store")
        store.put_error(cell(), {"kind": "ValueError", "message": "x"})
        reloaded = open_store(tmp_path / "store")
        assert reloaded.error(cell().key()) is not None
        assert len(reloaded) == 0

    def test_success_outranks_error_in_either_order(self, tmp_path):
        spec = cell()
        result = spec.scenario.run()

        # error then success (the retry-eventually-worked order)...
        store = open_store(tmp_path / "a")
        store.put_error(spec, {"kind": "ValueError", "message": "x"})
        store.put(spec, result)
        assert store.get(spec.key()) == result
        assert store.error(spec.key()) is None
        reloaded = open_store(tmp_path / "a")
        assert reloaded.get(spec.key()) == result
        assert reloaded.error(spec.key()) is None

        # ...and success then error (a later campaign failed the cell):
        # the deterministic result still wins on reload.
        store_b = open_store(tmp_path / "b")
        store_b.put(spec, result)
        with shard_of(store_b).open("a", encoding="utf-8") as fh:
            fh.write(
                json.dumps(
                    {
                        "key": spec.key(),
                        "spec": {},
                        "error": {"kind": "ValueError", "message": "x"},
                    }
                )
                + "\n"
            )
        reloaded_b = open_store(tmp_path / "b")
        assert reloaded_b.get(spec.key()) == result
        assert reloaded_b.error(spec.key()) is None


class TestSidecarDedupe:
    """A sidecar that sees the same torn line twice records it once, and a
    load that adds nothing new to the sidecar stays silent."""

    def test_repeat_corruption_is_not_duplicated(self, tmp_path):
        store = populated_store(tmp_path)
        with shard_of(store).open("a", encoding="utf-8") as fh:
            fh.write("same garbage\n")
        with pytest.warns(RuntimeWarning, match="quarantined 1 corrupt"):
            open_store(tmp_path / "store")
        # The identical bad line lands again (a crash-looping writer).
        with shard_of(store).open("a", encoding="utf-8") as fh:
            fh.write("same garbage\n")
        # It is removed from the main file but NOT re-counted: the
        # sidecar already holds it, so the load warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = open_store(tmp_path / "store")
        assert len(reloaded) == 2
        sidecar = shard_of(store).with_name(shard_of(store).name + CORRUPT_SUFFIX)
        assert sidecar.read_text().splitlines() == ["same garbage"]

    def test_growing_sidecar_reports_the_total(self, tmp_path):
        store = populated_store(tmp_path)
        with shard_of(store).open("a", encoding="utf-8") as fh:
            fh.write("first garbage\n")
        with pytest.warns(RuntimeWarning, match="sidecar now holds 1"):
            open_store(tmp_path / "store")
        with shard_of(store).open("a", encoding="utf-8") as fh:
            fh.write("second garbage\n")
        with pytest.warns(RuntimeWarning, match="sidecar now holds 2"):
            open_store(tmp_path / "store")
        sidecar = shard_of(store).with_name(shard_of(store).name + CORRUPT_SUFFIX)
        assert sidecar.read_text().splitlines() == [
            "first garbage",
            "second garbage",
        ]
