"""FleetWorker paths: execute, cache-hit, release-retry, retire, abandon."""

from __future__ import annotations

import pytest

from repro.campaign.spec import RunSpec
from repro.config import ScenarioConfig, TrafficConfig
from repro.fleet.lease import LeaseLost
from repro.fleet.queue import WorkQueue
from repro.fleet.shards import ShardedResultStore
from repro.fleet.worker import FleetWorker
from repro.scenariospec import ComponentSpec, ScenarioSpec

TTL = 30.0


def cell(seed: int = 1) -> RunSpec:
    cfg = ScenarioConfig(
        node_count=4,
        duration_s=2.0,
        seed=seed,
        traffic=TrafficConfig(flow_count=1, offered_load_bps=50e3),
    )
    return RunSpec(scenario=ScenarioSpec(cfg=cfg, mac=ComponentSpec("basic")))


def doomed(seed: int = 99) -> RunSpec:
    """Raises ValueError in the builder: one position for six nodes."""
    cfg = ScenarioConfig(node_count=6, duration_s=2.0, seed=seed)
    return RunSpec(
        scenario=ScenarioSpec(
            cfg=cfg,
            mac=ComponentSpec("basic"),
            placement=ComponentSpec("explicit", positions=((0.0, 0.0),)),
        )
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def store(tmp_path) -> ShardedResultStore:
    return ShardedResultStore(tmp_path / "store", shards=4)


@pytest.fixture
def queue(store) -> WorkQueue:
    return WorkQueue(store.root / "fleet")


class TestExecutePath:
    def test_drains_queue_and_stores_results(self, store, queue):
        specs = [cell(1), cell(2)]
        for spec in specs:
            queue.enqueue(spec)
        report = FleetWorker(store, queue, lease_ttl_s=TTL).run()
        assert report.executed == 2
        assert report.claims == 2
        assert queue.drained()
        for spec in specs:
            assert store.get(spec.key()) is not None
            assert store.runtime_stats(spec.key())  # persisted alongside

    def test_exit_heartbeat_left_behind(self, store, queue):
        worker = FleetWorker(store, queue, lease_ttl_s=TTL)
        worker.run()
        beat = queue.heartbeats()[worker.worker_id]
        assert beat["state"] == "exited"

    def test_max_runs_bounds_the_loop(self, store, queue):
        for seed in (1, 2, 3):
            queue.enqueue(cell(seed))
        report = FleetWorker(store, queue, lease_ttl_s=TTL).run(max_runs=1)
        assert report.claims == 1
        assert queue.pending_count() == 2

    def test_stop_request_ends_the_loop(self, store, queue):
        queue.enqueue(cell(1))
        queue.request_stop()
        report = FleetWorker(store, queue, lease_ttl_s=TTL).run()
        assert report.claims == 0
        assert not queue.drained()


class TestCachePath:
    def test_stored_key_completes_without_execution(self, store, queue):
        spec = cell(1)
        store.put(spec, spec.scenario.run())
        lines_before = store._file_for(spec.key()).read_text()
        queue.enqueue(spec)
        report = FleetWorker(store, queue, lease_ttl_s=TTL).run()
        assert report.cache_hits == 1
        assert report.executed == 0
        assert queue.drained()
        assert store._file_for(spec.key()).read_text() == lines_before

    def test_hit_written_by_another_instance_is_seen(self, store, queue):
        spec = cell(1)
        other = ShardedResultStore(store.root)
        other.put(spec, spec.scenario.run())
        queue.enqueue(spec)
        # `store` has not refreshed; the worker's per-key refresh must see it.
        report = FleetWorker(store, queue, lease_ttl_s=TTL).run()
        assert report.cache_hits == 1


class TestFailurePath:
    def test_release_then_retire_with_audit(self, store, queue):
        spec = doomed()
        queue.enqueue(spec)
        report = FleetWorker(
            store, queue, lease_ttl_s=TTL, max_attempts=2
        ).run()
        assert report.released == 1  # first attempt went back to the queue
        assert report.failed == 1  # second attempt retired it
        assert queue.drained()
        error = store.error(spec.key())
        assert error["kind"] == "ValueError"
        assert error["attempts"] == 2
        assert len(error["owners"]) == 2  # same worker claimed twice
        assert error["label"] == spec.label()

    def test_last_error_noted_on_release(self, store, queue):
        spec = doomed()
        queue.enqueue(spec)
        FleetWorker(store, queue, lease_ttl_s=TTL, max_attempts=3).run(
            max_runs=1
        )
        task = queue.task(spec.key())
        assert task["last_error"]["reason"] == "ValueError"
        assert "positions" in task["last_error"]["message"]


class TestExhaustedPath:
    def test_retires_on_behalf_of_dead_owners(self, tmp_path):
        clock = FakeClock()
        store = ShardedResultStore(tmp_path / "store", shards=4)
        queue = WorkQueue(store.root / "fleet", clock=clock)
        spec = cell(1)
        queue.enqueue(spec)
        # Two owners claim and silently die (their leases lapse unrenewed).
        for owner in ("dead1", "dead2"):
            queue.claim(owner, ttl_s=1.0, max_attempts=2)
            clock.now += 2.0
        report = FleetWorker(
            store, queue, lease_ttl_s=TTL, max_attempts=2
        ).run()
        assert report.retired == 1
        assert report.executed == 0
        assert queue.drained()
        error = store.error(spec.key())
        assert error["kind"] == "LeaseExpired"
        assert error["owners"] == ["dead1", "dead2"]
        assert error["steal_reason"] == "lease-expired"
        assert "dead2" in error["message"]


class TestStealAbandonment:
    def test_stolen_lease_abandons_the_run(self, tmp_path, monkeypatch):
        clock = FakeClock()
        store = ShardedResultStore(tmp_path / "store", shards=4)
        queue = WorkQueue(store.root / "fleet", clock=clock)
        spec = cell(1)
        queue.enqueue(spec)

        def stolen(lease, *, ttl_s):
            raise LeaseLost("stolen mid-run")

        def stall(progress) -> None:
            clock.now += TTL  # the next slice finds the lease lapsed

        monkeypatch.setattr(queue, "renew", stolen)
        report = FleetWorker(
            store, queue, lease_ttl_s=TTL, telemetry=stall
        ).run(max_runs=1)
        assert report.abandoned == 1
        assert report.executed == 0
        # The thief (or the exactly-once store) owns the outcome; this
        # worker must not have recorded anything.
        assert store.get(spec.key()) is None
        assert store.error(spec.key()) is None


class TestInterruption:
    def test_interrupted_run_is_handed_back_unpenalised(
        self, store, queue, monkeypatch
    ):
        spec = cell(1)
        queue.enqueue(spec)

        def interrupted(self, progress=None, *, slices=20):
            raise KeyboardInterrupt

        monkeypatch.setattr(RunSpec, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            FleetWorker(store, queue, lease_ttl_s=TTL).run()
        task = queue.task(spec.key())
        assert task["attempts"] == 0
        assert task["last_error"]["reason"] == "interrupted"
        assert queue.lease_of(spec.key()) is None  # claimable at once


class TestRenewalCadence:
    """Renewal (two fsync'd writes) happens only once half the TTL is gone."""

    def run_counting(self, tmp_path, monkeypatch, tick_s: float):
        clock = FakeClock()
        store = ShardedResultStore(tmp_path / "store", shards=4)
        queue = WorkQueue(store.root / "fleet", clock=clock)
        queue.enqueue(cell(1))
        renewals = []
        renew = queue.renew

        def counting(lease, *, ttl_s):
            renewals.append((clock.now, lease.expires_at))
            return renew(lease, ttl_s=ttl_s)

        def tick(progress) -> None:
            clock.now += tick_s

        monkeypatch.setattr(queue, "renew", counting)
        report = FleetWorker(
            store, queue, lease_ttl_s=TTL, slices=20, telemetry=tick
        ).run()
        assert report.executed == 1
        return renewals

    def test_run_shorter_than_half_ttl_never_renews(self, tmp_path, monkeypatch):
        # 21 beats x 0.5 s = 10.5 s of wall time < TTL / 2 = 15 s.
        assert self.run_counting(tmp_path, monkeypatch, tick_s=0.5) == []

    def test_long_run_renews_before_expiry(self, tmp_path, monkeypatch):
        # 21 beats x TTL / 8: the run lasts 2.6 TTLs.
        renewals = self.run_counting(tmp_path, monkeypatch, tick_s=TTL / 8)
        assert len(renewals) >= 3
        assert all(now < expires_at for now, expires_at in renewals)


class TestStatusStallFlag:
    def test_healthy_worker_is_never_flagged(self, tmp_path):
        from repro.fleet.supervisor import fleet_status

        clock = FakeClock()
        store = ShardedResultStore(tmp_path / "store", shards=4)
        queue = WorkQueue(store.root / "fleet", clock=clock)
        spec = cell(1)
        queue.enqueue(spec)
        queue.claim("w1", ttl_s=TTL)
        queue.heartbeat("w1", {"state": "running", "key": spec.key()})

        def stalled() -> bool:
            status = fleet_status(store, queue, stall_after_s=TTL / 4)
            return status.workers[0].stalled

        # Heartbeats refresh only at renewal: an old beat under a live
        # lease is a healthy worker mid-run.
        clock.now += TTL * 0.9
        assert not stalled()
        # Past expiry without renewal, the worker is stalled.
        clock.now += TTL * 0.2
        assert stalled()
