"""The benchmark's workloads, built from a seed through stable surfaces only.

Every workload is a *bundle* of cells, each cell one ``ScenarioSpec`` (no
``engine`` slot) whose seed derives from the workload seed.  One cell's
events/s depends on its event mix — on this machine single 50-node cells
spread 6% (coefficient of variation) across seeds — so a run measures a
bundle sized from ``--seconds`` and the cross-seed spread shrinks with the
bundle.  The same (seed, seconds) pair always gives the same bundle.

The simulator receives only the generated scenario: the benchmark builds it
with ``NetworkBuilder.build`` or hands it to ``run_specs``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.campaign.spec import Campaign, RunSpec
from repro.config import MobilityConfig, ScenarioConfig, TrafficConfig
from repro.scenariospec import ScenarioSpec

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

#: Cell seeds of workload seed ``s`` are ``s * SEED_STRIDE + i``, so the
#: bundles of two workload seeds never share a cell.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Cell:
    """One scenario of a bundle, with the id its golden is filed under."""

    cell_id: str
    spec: ScenarioSpec


def _paper_cell(seed: int) -> ScenarioSpec:
    # Section IV: 50 nodes, 1000 m square, random waypoint 3 m/s with 3 s
    # pause, 10 CBR flows; 1000 kbps offered is the saturated end of Fig. 8.
    cfg = ScenarioConfig(
        node_count=50,
        duration_s=PAPER_HORIZON_S,
        seed=seed,
        traffic=TrafficConfig(flow_count=10, offered_load_bps=1000e3),
        mobility=MobilityConfig(speed_mps=3.0, pause_s=3.0),
    )
    return ScenarioSpec(cfg=cfg, mac="pcmac")


def _mega_cell(seed: int) -> ScenarioSpec:
    # Paper density: the field side scales with sqrt(N / 50) from 1000 m.
    side = 1000.0 * math.sqrt(MEGA_NODES / 50.0)
    cfg = ScenarioConfig(
        node_count=MEGA_NODES,
        duration_s=MEGA_HORIZON_S,
        seed=seed,
        mobility=MobilityConfig(field_width_m=side, field_height_m=side),
    )
    return ScenarioSpec(cfg=cfg, mac="basic", mobility="static")


#: Simulated horizon of one paper-n50 cell [s] (traffic starts at 1 s).
PAPER_HORIZON_S = 4.0
#: Measured CPU seconds of one paper-n50 cell, used to size the bundle.
PAPER_CELL_S = 2.6
MEGA_NODES = 2000
#: Simulated horizon of one mega-n2000 cell [s]; the first RREQ floods
#: start with the traffic at 1 s.
MEGA_HORIZON_S = 1.3
MEGA_CELL_S = 4.5

#: campaign-grid: the Fig. 8 shape on small cells.
GRID_PROTOCOLS = ("basic", "pcmac", "scheme1", "scheme2")
GRID_LOADS_KBPS = (100.0, 200.0, 400.0)
GRID_JOBS = 2
#: Measured wall seconds of one cold pass of the grid with two workers.
GRID_PASS_S = 4.5


def bundle_size(workload: str, seconds: float) -> int:
    """Cells (or cold passes, for campaign-grid) that fill ``seconds``."""
    per = {"paper-n50": PAPER_CELL_S, "mega-n2000": MEGA_CELL_S, "campaign-grid": GRID_PASS_S}
    return max(2, round(seconds / per[workload]))


def sim_cells(workload: str, seed: int, seconds: float) -> list[Cell]:
    """The bundle of a simulation workload (paper-n50 or mega-n2000)."""
    make = {"paper-n50": _paper_cell, "mega-n2000": _mega_cell}[workload]
    seeds = [seed * SEED_STRIDE + i for i in range(bundle_size(workload, seconds))]
    return [Cell(str(s), make(s)) for s in seeds]


def grid_specs(seed: int, grid: int = 0) -> list[RunSpec]:
    """Grid number ``grid`` of a campaign-grid run: protocols x loads x two
    seeds, the protocols sharing seeds at each load as in Fig. 8.

    A cell's cost depends on its seed, so each load takes its own seed pair
    and successive cold passes run fresh grids: a run's throughput then
    averages over many seeds instead of two.
    """
    side = 1000.0 * math.sqrt(20 / 50.0)
    base = ScenarioConfig(
        node_count=20,
        duration_s=3.0,
        traffic=TrafficConfig(flow_count=5),
        mobility=MobilityConfig(field_width_m=side, field_height_m=side),
    )
    specs = []
    for i, load in enumerate(GRID_LOADS_KBPS):
        first = seed * SEED_STRIDE + 2 * (len(GRID_LOADS_KBPS) * grid + i)
        campaign = Campaign.build(base, GRID_PROTOCOLS, [load], (first, first + 1))
        specs.extend(campaign.specs())
    return specs


def grid_cell_id(spec: RunSpec) -> str:
    """Golden id of a campaign-grid cell."""
    return f"{spec.protocol}/{spec.load_kbps:g}/{spec.seed}"


# ---------------------------------------------------------------- correctness


def result_digest(result) -> str:
    """SHA-256 of ``asdict(result)`` without the machine-dependent wallclock."""
    fields = asdict(result)
    fields.pop("wallclock_s")
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_goldens() -> dict:
    """``{"seeds": {...}, "cells": {workload: {cell_id: {digest, events}}}}``."""
    return json.loads(GOLDENS_PATH.read_text())


def check_result(goldens: dict, workload: str, cell_id: str, result) -> list[str]:
    """Problems with one cell's result: golden mismatch or broken invariant."""
    problems = []
    digest = result_digest(result)
    golden = goldens["cells"].get(workload, {}).get(cell_id)
    if golden is not None:
        if golden["events"] != result.events_executed:
            problems.append(
                f"{cell_id}: events_executed {result.events_executed} != golden {golden['events']}"
            )
        if golden["digest"] != digest:
            problems.append(f"{cell_id}: result digest differs from its golden")
    if result.events_executed <= 0 or result.sent <= 0:
        problems.append(f"{cell_id}: nothing simulated")
    if not 0 <= result.received <= result.sent:
        problems.append(f"{cell_id}: received {result.received} of {result.sent} sent")
    if sum(f.sent for f in result.flows) != result.sent:
        problems.append(f"{cell_id}: per-flow sent does not add up")
    return problems
