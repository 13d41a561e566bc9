"""Fleet supervision: enqueueing, liveness reporting, stall detection.

The supervisor side of the fleet is deliberately stateless: everything it
reports is derived on demand from the queue directory, the lease files,
the worker heartbeats, and the result store — so ``repro fleet status``
can be run from any machine sharing the filesystem, at any time,
including while a campaign is mid-flight or after a crash.

:func:`enqueue_specs` is the intake path (content-addressed: keys already
in the store are cache hits and never enqueued); :func:`fleet_status`
assembles the structured liveness picture — per-task state
(pending / running / stealable), per-worker heartbeat age with stall
flagging, and store totals — that the CLI renders and tests assert on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.campaign.spec import RunSpec
from repro.campaign.store import ResultStore
from repro.fleet.queue import WorkQueue

#: A worker heartbeat older than this is flagged as stalled by default.
DEFAULT_STALL_AFTER_S = 60.0


@dataclass(frozen=True)
class EnqueueReport:
    """Outcome of one :func:`enqueue_specs` intake."""

    #: Runs newly added to the queue.
    queued: int
    #: Runs already queued (an overlapping campaign got there first).
    already_queued: int
    #: Runs already in the store — content-addressed cache hits.
    cached: int


def enqueue_specs(
    specs: Iterable[RunSpec], store: ResultStore, queue: WorkQueue
) -> EnqueueReport:
    """Queue every spec whose result is not already stored.

    Duplicates collapse by content key; keys with stored results are
    counted as cache hits and never enqueued, so resubmitting a finished
    campaign costs index lookups only.
    """
    store.refresh()
    queued = already = cached = 0
    seen: set[str] = set()
    for spec in specs:
        key = spec.key()
        if key in seen:
            continue
        seen.add(key)
        if store.get(key) is not None:
            cached += 1
        elif queue.enqueue(spec):
            queued += 1
        else:
            already += 1
    return EnqueueReport(queued=queued, already_queued=already, cached=cached)


@dataclass(frozen=True)
class TaskStatus:
    """One queued run's state, as of the status snapshot."""

    key: str
    label: str
    #: ``pending`` (claimable now), ``running`` (live lease), or
    #: ``stealable`` (lease lapsed; next claim takes it over).
    state: str
    attempts: int
    #: Current lease owner, if any.
    owner: str | None
    #: Seconds of lease validity left (0 when pending/stealable).
    lease_remaining_s: float
    #: Times this run changed hands via steal.
    steals: int
    #: Kind of the most recent attempt's failure, if any.
    last_error: str | None


@dataclass(frozen=True)
class WorkerStatus:
    """One worker heartbeat, aged against the snapshot time."""

    worker: str
    state: str
    #: Seconds since the heartbeat file was written.
    age_s: float
    #: Key the worker reported working on, if any.
    key: str | None
    #: True when the heartbeat is older than the stall threshold while
    #: the worker claims to be running and holds no live lease on its run
    #: (a healthy worker renews its lease before it lapses, but refreshes
    #: its heartbeat only as often as it renews).
    stalled: bool


@dataclass(frozen=True)
class FleetStatus:
    """Structured liveness snapshot of one fleet directory."""

    tasks: tuple[TaskStatus, ...]
    workers: tuple[WorkerStatus, ...]
    #: Completed results in the store.
    results: int
    #: Permanent errors in the store.
    errors: int
    #: True when a cooperative stop has been requested.
    stop_requested: bool
    snapshot_at: float = field(default_factory=time.time)

    @property
    def pending(self) -> int:
        """Tasks claimable right now (no live lease)."""
        return sum(1 for t in self.tasks if t.state != "running")

    @property
    def running(self) -> int:
        """Tasks under a live lease."""
        return sum(1 for t in self.tasks if t.state == "running")

    @property
    def stalled_workers(self) -> int:
        """Workers whose heartbeat has gone quiet mid-task."""
        return sum(1 for w in self.workers if w.stalled)

    def render(self) -> str:
        """Human-readable multi-section status for the CLI."""
        lines = [
            f"fleet: {len(self.tasks)} task(s) queued "
            f"({self.running} running, {self.pending} pending), "
            f"{self.results} result(s), {self.errors} error(s)"
            + (", STOP requested" if self.stop_requested else "")
        ]
        if self.tasks:
            lines.append("  tasks:")
            for t in self.tasks:
                detail = f"attempts={t.attempts}"
                if t.owner:
                    detail += f" owner={t.owner}"
                if t.state == "running":
                    detail += f" ttl={t.lease_remaining_s:.1f}s"
                if t.steals:
                    detail += f" steals={t.steals}"
                if t.last_error:
                    detail += f" last_error={t.last_error}"
                lines.append(
                    f"    {t.key[:12]}  {t.state:<10} {t.label}  {detail}"
                )
        if self.workers:
            lines.append("  workers:")
            for w in self.workers:
                mark = "  STALLED" if w.stalled else ""
                at = f" on {w.key[:12]}" if w.key else ""
                lines.append(
                    f"    {w.worker}  {w.state:<8} "
                    f"beat {w.age_s:.1f}s ago{at}{mark}"
                )
        else:
            lines.append("  workers: none heard from")
        return "\n".join(lines)


def fleet_status(
    store: ResultStore,
    queue: WorkQueue,
    *,
    stall_after_s: float = DEFAULT_STALL_AFTER_S,
) -> FleetStatus:
    """Assemble the structured liveness snapshot the CLI renders."""
    store.refresh()
    now = queue.clock()
    tasks: list[TaskStatus] = []
    for doc in queue.tasks():
        key = doc["key"]
        lease = queue.lease_of(key)
        if lease is None:
            state, owner, remaining = "pending", None, 0.0
        elif lease.expired(now):
            state, owner, remaining = "stealable", lease.owner, 0.0
        else:
            state, owner = "running", lease.owner
            remaining = lease.remaining_s(now)
        last = doc.get("last_error") or {}
        tasks.append(
            TaskStatus(
                key=key,
                label=str(doc.get("label", "")),
                state=state,
                attempts=int(doc.get("attempts", 0)),
                owner=owner,
                lease_remaining_s=remaining,
                steals=len(doc.get("steals", ())),
                last_error=last.get("kind") or last.get("reason"),
            )
        )
    workers: list[WorkerStatus] = []
    for worker_id, beat in queue.heartbeats().items():
        age = max(0.0, now - float(beat.get("time", 0.0)))
        state = str(beat.get("state", "unknown"))
        stalled = state not in ("exited", "idle") and age > stall_after_s
        if stalled and beat.get("key"):
            lease = queue.lease_of(beat["key"])
            stalled = (
                lease is None or lease.owner != worker_id or lease.expired(now)
            )
        workers.append(
            WorkerStatus(
                worker=worker_id,
                state=state,
                age_s=age,
                key=beat.get("key"),
                stalled=stalled,
            )
        )
    return FleetStatus(
        tasks=tuple(tasks),
        workers=tuple(workers),
        results=len(store),
        errors=len(store.errors()),
        stop_requested=queue.stop_requested(),
        snapshot_at=now,
    )
