#!/usr/bin/env python3
"""CI smoke: a campaign survives a dying worker and resumes cleanly.

Runs a tiny two-worker campaign in which one cell is rigged to blow up in
the worker (an ``explicit`` placement whose position count contradicts
``node_count`` — the builder raises inside the child process) and asserts
the failure-containment contract end to end:

* the healthy cells complete and land in the store;
* the rigged cell is retried (``attempts == retries + 1``) and recorded
  as a structured error line — kind, message, traceback — not silence;
* the errored key stays *out* of the result index, so a resumed campaign
  re-attempts exactly that cell while the healthy ones are cache hits.

Exits non-zero (via assert) on any violation.  Kept as a script rather
than a pytest so CI exercises the same ``run_specs`` entry points the
``repro campaign`` CLI uses, with real worker processes.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.campaign.runner import run_specs  # noqa: E402
from repro.campaign.spec import RunSpec  # noqa: E402
from repro.config import ScenarioConfig  # noqa: E402
from repro.fleet.shards import open_store  # noqa: E402
from repro.scenariospec import ComponentSpec, ScenarioSpec  # noqa: E402


def _cell(seed: int) -> RunSpec:
    cfg = replace(ScenarioConfig(), node_count=10, duration_s=3.0, seed=seed)
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def _doomed() -> RunSpec:
    # One position for a 10-node scenario: the builder raises in the worker.
    cfg = replace(ScenarioConfig(), node_count=10, duration_s=3.0, seed=99)
    return RunSpec(
        scenario=ScenarioSpec(
            cfg=cfg,
            mac=ComponentSpec("basic"),
            placement=ComponentSpec("explicit", positions=((0.0, 0.0),)),
        )
    )


def main() -> int:
    specs = [_cell(1), _doomed(), _cell(2)]
    doomed_key = specs[1].key()
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "store"

        store = open_store(store_path)
        report = run_specs(
            specs, jobs=2, store=store, retries=1,
            progress=lambda s: print("  " + s),
        )
        assert len(report.results) == 2, report.results.keys()
        assert doomed_key in report.errors, "dying worker not recorded"
        err = report.errors[doomed_key]
        assert err["attempts"] == 2, err
        assert err["kind"] == "ValueError", err
        assert "traceback" in err, err
        assert not report.stopped

        # A fresh store load sees the error but keeps it out of the index.
        store2 = open_store(store_path)
        assert len(store2) == 2
        assert store2.error(doomed_key) is not None
        assert store2.get(doomed_key) is None

        # Resume: healthy cells are cache hits, the doomed cell re-runs.
        ran: list[str] = []
        report2 = run_specs(
            specs, jobs=2, store=store2, retries=0,
            progress=lambda s: ran.append(s),
        )
        assert len(report2.results) == 2
        assert doomed_key in report2.errors
        cached = [line for line in ran if "cached" in line]
        assert len(cached) == 2, ran

    print("chaos_smoke: OK (worker death contained, recorded, resumed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
