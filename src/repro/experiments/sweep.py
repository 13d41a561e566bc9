"""Offered-load sweeps over protocols and seeds (the paper's methodology).

The paper "increase[s] the traffic load until the network get saturated" and
plots one curve per MAC protocol.  ``run_load_sweep`` replays that: for each
(protocol, load, seed) triple a fresh network is built — sharing the seed
across protocols gives common random numbers (same placement, mobility and
flow endpoints), the standard variance-reduction device for simulation
comparisons.

Since the campaign subsystem landed, the sweep is a thin façade over
:mod:`repro.campaign`: the grid expands into content-addressed
:class:`~repro.campaign.spec.RunSpec` cells, the runner executes them
(in-process or on ``jobs`` worker processes), and an optional result
store (:func:`repro.fleet.shards.open_store`) memoises finished cells so
repeated or interrupted sweeps skip already-computed work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.campaign.runner import run_specs
from repro.campaign.spec import Campaign
from repro.campaign.store import ResultStore
from repro.config import ScenarioConfig
from repro.experiments.scenario import ExperimentResult


@dataclass
class SweepResult:
    """Results of a protocol × load × seed sweep."""

    protocols: list[str]
    loads_kbps: list[float]
    seeds: list[int]
    #: results[(protocol, load_kbps)] -> list of per-seed ExperimentResult.
    results: dict[tuple[str, float], list[ExperimentResult]] = field(
        default_factory=dict
    )

    def mean_series(self, metric: str) -> dict[str, list[float]]:
        """Per-protocol series of seed-averaged ``metric`` over the loads."""
        out: dict[str, list[float]] = {}
        for proto in self.protocols:
            series = []
            for load in self.loads_kbps:
                runs = self.results[(proto, load)]
                series.append(sum(getattr(r, metric) for r in runs) / len(runs))
            out[proto] = series
        return out

    def throughput_series(self) -> dict[str, list[float]]:
        """Figure 8's series: mean aggregate throughput [kbps] per protocol."""
        return self.mean_series("throughput_kbps")

    def delay_series(self) -> dict[str, list[float]]:
        """Figure 9's series: mean end-to-end delay [ms] per protocol."""
        return self.mean_series("avg_delay_ms")

    def all_runs(self) -> list[ExperimentResult]:
        """Every run, ordered by (protocol, load), seeds in run order."""
        return [r for key in sorted(self.results) for r in self.results[key]]


def sweep_from_campaign(
    campaign: Campaign, results: dict[str, ExperimentResult]
) -> SweepResult:
    """Assemble a :class:`SweepResult` from campaign results keyed by spec."""
    sweep = SweepResult(
        protocols=list(campaign.protocols),
        loads_kbps=list(campaign.loads_kbps),
        seeds=list(campaign.seeds),
    )
    for spec in campaign.specs():
        cell = sweep.results.setdefault(
            (spec.protocol, spec.load_kbps), []
        )
        cell.append(results[spec.key()])
    return sweep


def run_load_sweep(
    base: ScenarioConfig,
    protocols: Sequence[str],
    loads_kbps: Sequence[float],
    *,
    seeds: Sequence[int] = (1,),
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = True,
) -> SweepResult:
    """Run every (protocol, load, seed) combination of the paper's sweep.

    ``jobs`` > 1 distributes cells over worker processes; each cell
    carries its own seed, so the results are identical to ``jobs=1``.  With a
    ``store``, finished cells are memoised on disk and later invocations
    (or a re-run after an interruption) skip them unless ``resume=False``.
    """
    campaign = Campaign.build(base, protocols, loads_kbps, seeds)
    report = run_specs(
        campaign.specs(), jobs=jobs, store=store, resume=resume, progress=progress
    )
    return sweep_from_campaign(campaign, report.results)
