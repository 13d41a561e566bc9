"""Campaign runner tests: cross-process determinism, caching, resume.

The determinism regression is the load-bearing test: a campaign executed on
worker processes must produce results identical (wallclock aside) to the
same specs run in-process — each cell carries its own seed, so fan-out
must not change any simulated quantity.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict

import pytest

from repro.campaign.runner import run_campaign, run_specs
from repro.campaign.spec import Campaign, RunSpec
from repro.config import ScenarioConfig, TrafficConfig
from repro.fleet.queue import WorkQueue
from repro.fleet.shards import open_store


def small_cfg(**overrides) -> ScenarioConfig:
    defaults = dict(
        node_count=6,
        duration_s=3.0,
        seed=1,
        traffic=TrafficConfig(flow_count=2, offered_load_bps=80e3),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def small_campaign() -> Campaign:
    return Campaign.build(small_cfg(), ["basic", "pcmac"], [50.0, 80.0], [1, 2])


def deterministic_fields(result) -> dict:
    """Every result field except the wallclock measurement."""
    fields = asdict(result)
    fields.pop("wallclock_s")
    return fields


def forbid_processes(monkeypatch) -> None:
    """Make any attempt to start a worker process fail the test."""
    import multiprocessing

    from repro.campaign.runner import _start_method

    def no_process(*args, **kwargs):
        raise AssertionError("a worker process was started")

    ctx = multiprocessing.get_context(_start_method())
    monkeypatch.setattr(ctx, "Process", no_process)


def doomed_spec() -> RunSpec:
    """Raises ValueError in the builder: one position for six nodes."""
    from repro.scenariospec import ComponentSpec, ScenarioSpec

    return RunSpec(
        scenario=ScenarioSpec(
            cfg=small_cfg(seed=99),
            mac=ComponentSpec("basic"),
            placement=ComponentSpec("explicit", positions=((0.0, 0.0),)),
        )
    )


def executed_by_workers(queue: WorkQueue, since: set[str]) -> tuple[int, int]:
    """(executed, cache_hits) summed over workers that exited after ``since``."""
    executed = hits = 0
    for worker, beat in queue.heartbeats().items():
        if worker in since:
            continue
        fields = dict(item.split("=") for item in beat["report"].split())
        executed += int(fields["executed"])
        hits += int(fields["cache_hits"])
    return executed, hits


class TestDeterminismAcrossProcesses:
    def test_pool_results_identical_to_serial(self):
        specs = small_campaign().specs()
        serial = run_specs(specs, jobs=1)
        pooled = run_specs(specs, jobs=4)
        assert serial.executed == pooled.executed == len(specs)
        assert set(serial.results) == set(pooled.results)
        for key in serial.results:
            assert deterministic_fields(serial.results[key]) == (
                deterministic_fields(pooled.results[key])
            )

    def test_single_spec_short_circuits_the_pool(self, monkeypatch):
        spec = RunSpec(cfg=small_cfg(), protocol="basic")
        # jobs > 1 with one pending cell runs its one worker in-process.
        forbid_processes(monkeypatch)
        report = run_specs([spec], jobs=8)
        assert report.executed == 1
        assert spec.key() in report.results

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_results_identical_to_spec_run(self, tmp_path, jobs):
        specs = small_campaign().specs()
        report = run_specs(specs, jobs=jobs, store=open_store(tmp_path / "s"))
        assert report.executed == len(specs)
        for spec in specs:
            assert deterministic_fields(report.results[spec.key()]) == (
                deterministic_fields(spec.run())
            )


class TestCachingAndResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        campaign = small_campaign()
        store = open_store(tmp_path / "store")
        first = run_campaign(campaign, jobs=2, store=store)
        assert first.executed == campaign.size
        assert first.cached == 0

        second = run_campaign(campaign, jobs=2, store=open_store(tmp_path / "store"))
        assert second.executed == 0
        assert second.cached == campaign.size
        for key in first.results:
            assert deterministic_fields(first.results[key]) == (
                deterministic_fields(second.results[key])
            )

    def test_interrupted_campaign_resumes_partial_store(self, tmp_path):
        campaign = small_campaign()
        specs = campaign.specs()
        store = open_store(tmp_path / "store")
        # Simulate an interruption: only half the cells completed.
        run_specs(specs[: len(specs) // 2], store=store)
        assert len(store) == len(specs) // 2

        report = run_campaign(campaign, store=open_store(tmp_path / "store"))
        assert report.cached == len(specs) // 2
        assert report.executed == len(specs) - len(specs) // 2
        assert set(report.results) == {s.key() for s in specs}

    def test_no_resume_recomputes_everything(self, tmp_path):
        campaign = small_campaign()
        store = open_store(tmp_path / "store")
        run_campaign(campaign, store=store)
        again = run_campaign(campaign, store=store, resume=False)
        assert again.executed == campaign.size
        assert again.cached == 0

    def test_duplicate_specs_collapse(self):
        spec = RunSpec(cfg=small_cfg(), protocol="basic")
        report = run_specs([spec, spec, spec])
        assert report.executed == 1
        assert report.total == 1

    def test_progress_lines_and_report_accounting(self, tmp_path):
        campaign = small_campaign()
        store = open_store(tmp_path / "store")
        lines: list[str] = []
        run_campaign(campaign, store=store, progress=lines.append)
        assert len(lines) == campaign.size
        cached_lines: list[str] = []
        run_campaign(campaign, store=store, progress=cached_lines.append)
        assert len(cached_lines) == campaign.size
        assert all(line.startswith("[cached]") for line in cached_lines)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            run_specs([], jobs=0)

    def test_in_spec_order(self):
        campaign = small_campaign()
        specs = campaign.specs()
        report = run_specs(specs, jobs=2)
        ordered = report.in_spec_order(specs)
        assert [r.seed for r in ordered] == [s.seed for s in specs]
        assert [r.protocol for r in ordered] == [s.protocol for s in specs]


class TestGuaranteesAcrossJobs:
    """What ``run_specs`` promises, whether its worker runs in-process
    (``jobs=1``) or as supervised processes."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_no_resume_simulates_every_cell_again(self, tmp_path, jobs):
        specs = small_campaign().specs()
        store = open_store(tmp_path / "store")
        run_specs(specs, jobs=jobs, store=store)
        queue = WorkQueue(store.root / "fleet")
        before = set(queue.heartbeats())
        again = run_specs(specs, jobs=jobs, store=store, resume=False)
        assert again.executed == len(specs)
        assert again.cached == 0
        # The workers simulated every cell: none was served as a cache hit.
        assert executed_by_workers(queue, before) == (len(specs), 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_should_stop_drains_and_resumes(self, tmp_path, jobs):
        specs = Campaign.build(
            small_cfg(), ["basic", "pcmac"], [50.0, 80.0], [1, 2, 3, 4]
        ).specs()
        store = open_store(tmp_path / "store")
        lines: list[str] = []
        first = run_specs(
            specs,
            jobs=jobs,
            store=store,
            progress=lines.append,
            should_stop=lambda: len(lines) >= 1,
        )
        assert first.stopped
        assert 1 <= len(first.results) < len(specs)
        assert not first.errors
        # Every finished cell reached the store; the rest resume.
        again = run_specs(specs, jobs=jobs, store=open_store(tmp_path / "store"))
        assert again.cached == len(first.results)
        assert again.executed == len(specs) - len(first.results)
        assert not again.stopped

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_resume_reruns_only_errored_cells(self, tmp_path, jobs):
        specs = [RunSpec(cfg=small_cfg(seed=s), protocol="basic") for s in (1, 2)]
        specs.append(doomed_spec())
        store = open_store(tmp_path / "store")
        first = run_specs(specs, jobs=jobs, store=store)
        assert set(first.errors) == {doomed_spec().key()}
        lines: list[str] = []
        again = run_specs(
            specs, jobs=jobs, store=open_store(tmp_path / "store"),
            progress=lines.append,
        )
        assert again.cached == 2
        assert again.executed == 0
        assert set(again.errors) == {doomed_spec().key()}
        assert sum(line.startswith("[cached]") for line in lines) == 2

    def test_all_cached_starts_no_worker_and_no_queue(self, tmp_path, monkeypatch):
        specs = small_campaign().specs()
        root = tmp_path / "store"
        run_specs(specs, jobs=2, store=open_store(root))
        shutil.rmtree(root / "fleet")
        forbid_processes(monkeypatch)
        again = run_specs(specs, jobs=2, store=open_store(root))
        assert again.cached == len(specs)
        assert not (root / "fleet").exists()


class TestSweepFacade:
    def test_parallel_sweep_matches_serial_sweep(self):
        from repro.experiments.sweep import run_load_sweep

        kwargs = dict(seeds=(1, 2))
        serial = run_load_sweep(small_cfg(), ["basic"], [50.0, 80.0], **kwargs)
        pooled = run_load_sweep(
            small_cfg(), ["basic"], [50.0, 80.0], jobs=3, **kwargs
        )
        assert serial.throughput_series() == pooled.throughput_series()
        assert serial.delay_series() == pooled.delay_series()

    def test_sweep_through_store_hits_cache(self, tmp_path):
        from repro.experiments.sweep import run_load_sweep

        store = open_store(tmp_path / "store")
        first = run_load_sweep(
            small_cfg(), ["basic"], [50.0], seeds=(1,), store=store
        )
        lines: list[str] = []
        second = run_load_sweep(
            small_cfg(),
            ["basic"],
            [50.0],
            seeds=(1,),
            store=store,
            progress=lines.append,
        )
        assert all(line.startswith("[cached]") for line in lines)
        assert first.throughput_series() == second.throughput_series()
