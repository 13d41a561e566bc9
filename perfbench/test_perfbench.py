"""The benchmark's own tests: goldens, tracing and BENCHMARK.json.

Run from the repository root::

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from repro.builder import NetworkBuilder  # noqa: E402

GOLDENS = wl.load_goldens()
SEEDS = (GOLDENS["seeds"]["default"], GOLDENS["seeds"]["held_out"])


def _first_cell(workload: str, seed: int) -> wl.Cell:
    if workload == "campaign-grid":
        spec = wl.grid_specs(seed)[0]
        return wl.Cell(wl.grid_cell_id(spec), spec.scenario)
    return wl.sim_cells(workload, seed, run.DEFAULT_SECONDS)[0]


@pytest.mark.parametrize("method", spans.LAYER_METHODS, ids=lambda m: f"{m[1]}.{m[2]}")
def test_every_wrapped_method_resolves(method):
    _, target, name = method
    assert callable(vars(spans.resolve(target, name))[name])


def test_a_renamed_method_fails_loudly():
    with pytest.raises(spans.UnresolvedMethodError):
        spans.resolve("repro.sim.kernel:Simulator", "schedule_renamed")
    with pytest.raises(spans.UnresolvedMethodError):
        # inherited, not defined on the class: wrapping it would miss calls
        spans.resolve("repro.mac.basic:Basic80211Mac", "on_rx_end")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_first_cell_matches_its_golden(workload, seed):
    cell = _first_cell(workload, seed)
    assert cell.cell_id in GOLDENS["cells"][workload], "no golden for this seed"
    result = NetworkBuilder(cell.spec).build().run()
    assert wl.check_result(GOLDENS, workload, cell.cell_id, result) == []


def test_golden_check_catches_a_changed_result():
    cell = _first_cell("campaign-grid", SEEDS[0])
    result = NetworkBuilder(cell.spec).build().run()
    problems = wl.check_result(GOLDENS, "campaign-grid", cell.cell_id, replace(result, sent=0))
    assert any("golden" in p for p in problems)


def test_traced_run_is_bit_identical_and_counts_repeat():
    spec = wl.sim_cells("paper-n50", SEEDS[0], 2)[0].spec
    spec = replace(spec, cfg=replace(spec.cfg, duration_s=2.0))
    plain = wl.result_digest(NetworkBuilder(spec).build().run())
    rec = spans.SpanRecorder()
    rec.install()
    try:
        traced = []
        for _ in range(2):
            rec.reset()
            digest = wl.result_digest(NetworkBuilder(spec).build().run())
            traced.append((digest, spans.counts(rec.dump())))
    finally:
        rec.uninstall()
    assert traced[0][0] == traced[1][0] == plain
    assert traced[0][1] == traced[1][1]
    calls = {name: row[0] for name, row in spans.by_name(rec.dump()).items()}
    for name in ("sim.schedule", "phy.transmit", "phy.signal_start", "mobility.poll",
                 "mac.on_rx_end", "net.route_packet", "metrics.on_app_send"):
        assert calls.get(name, 0) > 0, name


def test_uninstall_restores_the_classes():
    from repro.sim.kernel import Simulator

    original = vars(Simulator)["schedule"]
    rec = spans.SpanRecorder()
    rec.install()
    assert vars(Simulator)["schedule"] is not original
    rec.uninstall()
    assert vars(Simulator)["schedule"] is original


def test_self_time_excludes_children_and_super_calls_fold():
    rec = spans.SpanRecorder()

    def leaf():
        return 1

    wrapped_leaf = rec._wrap(leaf, "b")
    outer = rec._wrap(lambda: wrapped_leaf() + wrapped_leaf(), "a")
    same = rec._wrap(lambda: outer(), "a")  # a super() call: folds into one span
    assert same() == 2
    paths = rec.dump()
    assert paths["a"][0] == 1 and paths["a;b"][0] == 2
    assert paths["a"][2] == paths["a"][1] + paths["a;b"][2]


def test_benchmark_json_names_what_the_harness_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in run.PER_LAYER.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-n50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
