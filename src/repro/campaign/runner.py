"""Campaign executor: every pending cell drains through the fleet queue.

The executor is deliberately dumb about *what* it runs: a spec is a sealed
description, a worker just calls :meth:`RunSpec.run`.  Determinism falls
out of the spec design — every cell carries its own seed and the simulator
is single-threaded per run — so a campaign at ``jobs=8`` produces results
identical to ``jobs=1``, merely sooner.  Results are keyed by content
hash, which also makes the executor indifferent to completion order.

There is one execution path.  :func:`run_specs` serves cache hits from
the store and returns at once when nothing is left — no queue, no
process.  Otherwise it **enqueues** the pending cells into the store's
durable work queue (:mod:`repro.fleet`) and **drains** it: with one worker
(``min(jobs, pending) == 1``) a :class:`~repro.fleet.worker.FleetWorker`
runs in this process (no fork, so it stays debuggable); with more,
supervised worker processes claim cells under expiring leases while this
process records each key the moment its task reaches a terminal state.
Without a ``store`` a temporary one is used and removed on return.  So
every campaign survives a SIGKILLed worker (its lease lapses and a
sibling steals the run), can be joined by ``repro fleet work`` processes
sharing the store, and executes a cell shared with an overlapping
campaign once.

Live telemetry (``telemetry=...``) receives the
:class:`~repro.obs.telemetry.RunProgress` beats workers emit between
sim-time slices — slicing ``run_until`` does not change the dispatch
order, so results stay bit-identical.

Failure containment
-------------------
A cell that raises does not kill the campaign: the worker catches the
exception, releases the cell for another attempt while the queue's
attempt budget (``retries + 1`` claims) lasts, and otherwise records a
structured error (``ResultStore.put_error`` — key, spec, exception
kind/message/traceback, attempts, lease owners) while the remaining cells
run to completion.  ``timeout_s`` bounds each cell's wall time on worker
processes: the parent terminates a worker whose current run is over
budget, charges the run that attempt (a ``Timeout`` error once the budget
is spent) and respawns the worker.  A ``should_stop`` callback makes
shutdown cooperative: once it returns True no new cell starts, in-flight
cells finish (a failing one is recorded rather than retried), and the
report covers everything that finished — unfinished cells stay queued,
and the store resumes them on the next invocation.
"""

from __future__ import annotations

import multiprocessing
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.campaign.spec import Campaign, RunSpec
from repro.campaign.store import ResultStore
from repro.obs.telemetry import DEFAULT_SLICES, TelemetryFn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import ExperimentResult
    from repro.fleet.lease import Lease
    from repro.fleet.queue import WorkQueue

ProgressFn = Callable[[str], None]
StopFn = Callable[[], bool]


#: Largest traceback stored in an error record [chars].  Hung or killed
#: workers can surface tracebacks through arbitrarily deep retry wrappers;
#: bounding keeps the store's JSONL lines small and greppable.
MAX_TRACEBACK_CHARS = 4000


def _bound_traceback(text: str, limit: int = MAX_TRACEBACK_CHARS) -> str:
    """Cap ``text`` at ``limit`` chars, keeping the head and the tail.

    The head names the call site, the tail names the exception — the middle
    frames are the expendable part, replaced by an elision marker that
    records how much was cut.
    """
    if len(text) <= limit:
        return text
    half = (limit - 60) // 2
    elided = len(text) - 2 * half
    return (
        text[:half]
        + f"\n... [{elided} chars elided] ...\n"
        + text[-half:]
    )


def error_record(
    exc: BaseException, attempts: int, *, label: str | None = None
) -> dict:
    """Structured description of a cell's permanent failure.

    This is the shape :meth:`ResultStore.put_error` persists and
    :attr:`CampaignReport.errors` carries: exception kind, message,
    bounded traceback (head + tail, capped at
    :data:`MAX_TRACEBACK_CHARS`), how many attempts were made, and — when
    the caller knows it — the spec's human label, so error lines from
    hung or killed workers stay greppable by cell.
    """
    record = {
        "kind": type(exc).__name__,
        "message": str(exc),
        "traceback": _bound_traceback(
            "".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        ),
        "attempts": attempts,
    }
    if label is not None:
        record["label"] = label
    return record


def _start_method() -> str:
    """Fork on Linux (cheap), spawn everywhere else.

    macOS nominally offers fork too, but forking a process that has touched
    the system frameworks (numpy links Accelerate) can deadlock — the reason
    CPython made spawn the macOS default in 3.8.  Workers are re-imported
    under spawn, which is safe here: the worker entry point is module-level
    and ``repro.__main__`` guards its CLI dispatch.
    """
    return "fork" if sys.platform.startswith("linux") else "spawn"


@dataclass
class CampaignReport:
    """Outcome of one campaign invocation."""

    #: spec key → result, covering every requested cell.
    results: dict[str, "ExperimentResult"] = field(default_factory=dict)
    #: Cells actually simulated this invocation.
    executed: int = 0
    #: Cells served from the store without simulation.
    cached: int = 0
    #: Wall-clock time of the whole invocation [s].
    wallclock_s: float = 0.0
    #: spec key → :func:`error_record` for cells that failed every attempt.
    errors: dict[str, dict] = field(default_factory=dict)
    #: True when a ``should_stop`` callback ended the campaign early —
    #: cells neither in ``results`` nor ``errors`` were simply not started.
    stopped: bool = False

    @property
    def total(self) -> int:
        """Requested cell count (executed + cached)."""
        return self.executed + self.cached

    def in_spec_order(self, specs: Sequence[RunSpec]) -> list["ExperimentResult"]:
        """Results reordered to match ``specs`` (the grid's nesting order)."""
        return [self.results[spec.key()] for spec in specs]


def run_specs(
    specs: Sequence[RunSpec],
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    resume: bool = True,
    progress: ProgressFn | None = None,
    telemetry: TelemetryFn | None = None,
    slices: int = DEFAULT_SLICES,
    timeout_s: float | None = None,
    retries: int = 0,
    should_stop: StopFn | None = None,
    lease_ttl_s: float | None = None,
) -> CampaignReport:
    """Execute every spec, reusing stored results where possible.

    Args:
        specs: the cells to ensure results for (duplicates collapse).
        jobs: worker count; 1 = one worker in this process.
        store: on-disk memo and work queue (see
            :func:`repro.fleet.shards.open_store`); finished cells land in
            it as they complete, so an interrupted campaign resumes on the
            next call.  None = a temporary store, removed on return.
        resume: when False, stored results are ignored — every cell is
            re-simulated (the store keeps its first line per key).
        progress: optional callback receiving one line per finished cell.
        telemetry: optional callback receiving
            :class:`~repro.obs.telemetry.RunProgress` heartbeats while
            cells execute (live progress).  Called from a drainer thread
            when cells run on worker processes.
        slices: sim-time slices per run (heartbeat and lease-renewal
            points).
        timeout_s: per-cell wall-clock budget, enforced on worker
            processes (``jobs > 1``; one process cannot interrupt its own
            run).  An overdue cell's worker is terminated and respawned;
            the overdue attempt counts against ``retries``, and a cell out
            of attempts is recorded as a ``Timeout`` error.
        retries: extra attempts per failing cell before it is recorded as
            a permanent error (0 = record on the first failure).
        should_stop: cooperative-shutdown poll — once it returns True no
            new cell starts; in-flight cells drain and the report's
            ``stopped`` flag is set.
        lease_ttl_s: lease validity window [s] (None = the fleet
            default).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs!r}")
    t0 = time.perf_counter()
    report = CampaignReport()

    pending: dict[str, RunSpec] = {}
    for spec in specs:
        key = spec.key()
        if key in pending or key in report.results:
            continue
        cached = store.get(key) if (store is not None and resume) else None
        if cached is not None:
            report.results[key] = cached
            report.cached += 1
            if progress is not None:
                progress(f"[cached] {cached.row()}  seed={cached.seed}")
        else:
            pending[key] = spec

    if pending:
        from repro.fleet.queue import DEFAULT_LEASE_TTL_S
        from repro.fleet.shards import open_store

        temporary = store is None
        if temporary:
            store = open_store(tempfile.mkdtemp(prefix="repro-campaign-"))
        try:
            _drain(
                pending,
                store,
                report,
                jobs=jobs,
                resume=resume,
                progress=progress,
                telemetry=telemetry,
                timeout_s=timeout_s,
                should_stop=should_stop,
                worker={
                    "lease_ttl_s": lease_ttl_s or DEFAULT_LEASE_TTL_S,
                    "max_attempts": retries + 1,
                    "slices": slices,
                },
            )
        finally:
            if temporary:
                shutil.rmtree(store.root, ignore_errors=True)

    report.wallclock_s = time.perf_counter() - t0
    return report


def _drain(
    pending: dict[str, RunSpec],
    store: ResultStore,
    report: CampaignReport,
    *,
    jobs: int,
    resume: bool,
    progress: ProgressFn | None,
    telemetry: TelemetryFn | None,
    timeout_s: float | None,
    should_stop: StopFn | None,
    worker: dict,
) -> None:
    """Enqueue ``pending`` into the store's work queue and drain it.

    A key is done once its task is terminal (the queue file is gone — a
    worker removes it only after the result or error is durably stored),
    so each key is read back from the store exactly once.
    """
    from repro.fleet.queue import WorkQueue
    from repro.fleet.worker import FleetWorker

    def stopping() -> bool:
        if should_stop is not None and should_stop():
            report.stopped = True
            return True
        return False

    queue = WorkQueue(store.root / "fleet")
    queue.clear_stop()
    for spec in pending.values():
        queue.enqueue(spec, rerun=not resume)
    undone = dict(pending)

    def collect() -> None:
        """Record every pending key whose task reached a terminal state."""
        live = queue.live_keys()
        finished = [key for key in undone if key not in live]
        if not finished:
            return
        store.refresh()
        for key in finished:
            spec = undone.pop(key)
            result = store.get(key)
            if result is not None:
                report.results[key] = result
                report.executed += 1
                if progress is not None:
                    progress(
                        f"[{report.executed}/{len(pending)}] {result.row()}"
                        f"  seed={result.seed}"
                    )
                continue
            error = store.error(key)
            if error is None:
                continue  # task removed by hand: nothing to report
            report.errors[key] = error
            if progress is not None:
                progress(
                    f"[failed] {spec.protocol} load={spec.load_kbps} "
                    f"seed={spec.seed}: {error['kind']}: {error['message']} "
                    f"(attempts={error['attempts']})"
                )

    if min(jobs, len(pending)) == 1:

        def between_runs() -> bool:
            collect()
            return not undone or stopping()

        FleetWorker(store, queue, telemetry=telemetry, **worker).run(
            should_stop=between_runs
        )
        collect()
    elif not stopping():
        _supervise(
            queue,
            store,
            report,
            undone,
            collect,
            stopping,
            workers=min(jobs, len(pending)),
            telemetry=telemetry,
            timeout_s=timeout_s,
            worker=worker,
        )


def _fleet_worker_entry(
    store_root: str,
    worker: dict,
    keys: frozenset[str],
    telemetry_queue=None,
) -> None:
    """Entry point of one supervised worker process (module-level: picklable).

    Reconstructs the shared store/queue from the filesystem and runs the
    claim loop until every task of ``keys`` is terminal or a STOP is
    requested.  Ctrl-C reaches the whole foreground process group, so
    SIGINT is ignored here (the parent drains cooperatively); SIGTERM goes
    back to SIG_DFL, since a forked worker inherits the CLI's no-kill
    handler and the parent must be able to terminate an overdue worker.
    """
    from repro.fleet.queue import WorkQueue
    from repro.fleet.shards import open_store
    from repro.fleet.worker import FleetWorker

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    store = open_store(store_root)
    queue = WorkQueue(store.root / "fleet")
    telemetry = telemetry_queue.put if telemetry_queue is not None else None
    FleetWorker(store, queue, telemetry=telemetry, **worker).run(
        poll_s=0.02,  # an idle tail delays the campaign's return
        should_stop=lambda: keys.isdisjoint(queue.live_keys()),
    )


def _supervise(
    queue: "WorkQueue",
    store: ResultStore,
    report: CampaignReport,
    undone: dict[str, RunSpec],
    collect: Callable[[], None],
    stopping: StopFn,
    *,
    workers: int,
    telemetry: TelemetryFn | None,
    timeout_s: float | None,
    worker: dict,
) -> None:
    """Run ``workers`` worker processes until every key in ``undone`` is done.

    Worker death is survivable twice over: the dead worker's leases lapse
    and are stolen by siblings, and missing processes are respawned
    (bounded) while cells remain.  A cooperative stop raises the queue's
    STOP flag: workers finish their current run and exit; unclaimed tasks
    stay queued for the next invocation to resume.
    """
    from repro.fleet.lease import worker_identity

    ctx = multiprocessing.get_context(_start_method())
    manager = telemetry_queue = drainer = None
    if telemetry is not None:
        # Workers stream heartbeats over a manager queue; a drainer thread
        # forwards them to the callback so the drain loop never blocks.
        manager = ctx.Manager()
        telemetry_queue = manager.Queue()

        def forward() -> None:
            while True:
                item = telemetry_queue.get()
                if item is None:
                    return
                telemetry(item)

        drainer = threading.Thread(target=forward, daemon=True)
        drainer.start()

    keys = frozenset(undone)
    ids = [""] * workers  # the current worker id in each slot

    def spawn(slot: int):
        ids[slot] = worker_identity()
        proc = ctx.Process(
            target=_fleet_worker_entry,
            args=(
                str(store.root),
                {**worker, "worker_id": ids[slot]},
                keys,
                telemetry_queue,
            ),
        )
        proc.start()
        return proc

    procs = [spawn(i) for i in range(workers)]
    #: Supervision budget: a crashed worker is replaced, but a hard fault
    #: that kills every replacement cannot respawn forever.
    respawns_left = 2 * workers
    stop_sent = False
    try:
        while True:
            # Liveness before collecting: a worker that exited because the
            # campaign finished has its last key recorded below.
            dead = [i for i, proc in enumerate(procs) if not proc.is_alive()]
            collect()
            if not undone:
                break
            if not stop_sent and stopping():
                queue.request_stop()
                stop_sent = True
            if timeout_s is not None:
                now = queue.clock()
                for lease in queue.leases():
                    if (
                        lease.owner in ids
                        and lease.key in undone
                        and now - lease.acquired_at > timeout_s
                    ):
                        i = ids.index(lease.owner)
                        procs[i].terminate()
                        procs[i].join()
                        queue.clear_heartbeat(lease.owner)
                        _expire(
                            queue,
                            store,
                            lease,
                            undone[lease.key],
                            timeout_s=timeout_s,
                            max_attempts=worker["max_attempts"],
                            final=stop_sent,
                        )
                        procs[i] = spawn(i)
            if stop_sent:
                if len(dead) == len(procs):
                    break
            else:
                for i in dead:
                    if respawns_left > 0:
                        respawns_left -= 1
                        procs[i] = spawn(i)
                if not any(proc.is_alive() for proc in procs):
                    # Every worker (and every replacement) died with cells
                    # still queued: stop rather than spin forever.  The
                    # unfinished cells stay queued for a resume.
                    report.stopped = True
                    break
            time.sleep(0.02)
    finally:
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - defensive teardown
                proc.terminate()
                proc.join()
        # Our STOP must not wedge external `repro fleet work` processes
        # that outlive this invocation.
        if stop_sent:
            queue.clear_stop()
        if telemetry_queue is not None:
            telemetry_queue.put(None)
            drainer.join()
            manager.shutdown()


def _expire(
    queue: "WorkQueue",
    store: ResultStore,
    lease: "Lease",
    spec: RunSpec,
    *,
    timeout_s: float,
    max_attempts: int,
    final: bool,
) -> None:
    """Charge an overdue run its attempt: release it, or record a Timeout.

    The run's worker is already terminated; its claim counted the attempt.
    """
    from repro.fleet.lease import LeaseLost
    from repro.fleet.queue import Claimed

    task = queue.task(lease.key)
    if task is None:
        return  # it finished right at the deadline
    claimed = Claimed(spec=spec, lease=lease, task=task)
    error = {
        "kind": "Timeout",
        "message": f"cell exceeded timeout_s={timeout_s}",
        "traceback": "",
        "label": spec.label(),
        **claimed.error_metadata(),
    }
    try:
        if final or error["attempts"] >= max_attempts:
            store.put_error(spec, error)
            queue.discard(claimed)
        else:
            queue.release(lease, reason="Timeout", error=error)
    except LeaseLost:
        pass  # stolen meanwhile: the thief owns the outcome


def run_campaign(campaign: Campaign, **options) -> CampaignReport:
    """Expand a grid campaign and execute it (``options``: :func:`run_specs`)."""
    return run_specs(campaign.specs(), **options)
