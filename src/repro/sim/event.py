"""Event primitives for the discrete-event kernel.

Events are ordered by ``(time, priority, sequence)``.  The monotonically
increasing sequence number guarantees a *stable, deterministic* ordering for
events scheduled at the same instant — a property the MAC layer relies on
(e.g. a carrier-sense BUSY edge must be observed before a same-instant
backoff expiry fires in scheduling order).

Performance note: the heap stores plain ``(time, priority, seq, event)``
tuples so ordering comparisons run entirely in C tuple comparison — the
unique ``seq`` guarantees the :class:`Event` object itself is never compared.
Profiling showed a dataclass ``__lt__`` here cost ~40 % of total runtime on
paper-scale runs.

Cancellation is O(1) lazy: a cancelled event stays in the heap but is skipped
when popped.  This is the standard approach for simulators with heavy timer
churn (every MAC frame sets and usually cancels a timeout).  Two refinements
keep that approach honest on paper-scale runs:

* **Self-contained bookkeeping.**  :meth:`Event.cancel` notifies its owning
  queue directly, so ``len(queue)`` stays correct no matter which layer
  cancels.
* **Periodic compaction.**  Lazily-cancelled entries are purged wholesale
  (filter + ``heapify``) once they outnumber live entries, so pop cost
  cannot degrade on long runs where timers are set and cancelled millions
  of times.  Compaction never reorders dispatch: ``(time, priority, seq)``
  is a total order, so any heap arrangement pops the same sequence.

The binary heap is also the queue of :class:`~repro.sim.kernel.Wave`
entries (one per transmission's signal-edge fan-out); a wave is never
cancelled and sits in the heap under the key of its next edge, so the
contract above holds for it unchanged.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: Compaction trigger: purge cancelled heap entries once at least this many
#: have accumulated *and* they outnumber the live entries.  The floor keeps
#: tiny queues from compacting constantly; the ratio bounds amortised cost.
COMPACT_MIN_DEAD = 512


class Event:
    """A scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires [s].
        priority: tie-break rank; lower fires first at equal time.
        seq: insertion sequence number (assigned by the queue).
        fn: callable invoked when the event fires.
        args: positional arguments for ``fn`` (None = call with none).
            Passing the target method plus its arguments avoids allocating a
            per-event closure or wrapper object on high-rate schedule sites
            (each signal edge of every frame lands here).
        label: human-readable tag for traces and debugging.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "label", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any] | None,
        label: str = "",
        queue: "EventQueue | None" = None,
        args: tuple | None = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.label = label
        self._queue = queue

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called (or the event fired)."""
        return self.fn is None

    def cancel(self) -> None:
        """Cancel the event; it is skipped when its heap entry surfaces.

        Bookkeeping is self-contained: the owning queue's live count is
        updated here, exactly once, so calling ``cancel`` directly (instead
        of through :meth:`Simulator.cancel`) cannot corrupt ``len(queue)``.
        Cancelling an already-fired or already-cancelled event is a no-op.
        """
        if self.fn is None:
            return
        self.fn = None
        q = self._queue
        if q is not None:
            q._note_dead()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time!r}, {self.label or 'anon'}, {state})"


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_seq", "_live", "_dead")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        #: Cancelled entries still sitting in the heap (compaction trigger).
        self._dead = 0

    def push(
        self,
        time: float,
        fn: Callable[..., Any],
        *,
        priority: int = 0,
        label: str = "",
        args: tuple | None = None,
    ) -> Event:
        """Schedule ``fn`` at absolute time ``time`` and return the event."""
        seq = self._seq
        ev = Event(time, priority, seq, fn, label, self, args)
        heapq.heappush(self._heap, (time, priority, seq, ev))
        self._seq = seq + 1
        self._live += 1
        return ev

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty.

        Cancelled events are discarded transparently.
        """
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if ev.fn is None:
                self._dead -= 1
                continue
            self._live -= 1
            return ev
        return None

    def pop_next(self, end_time: float) -> Event | None:
        """Fused peek+pop: the earliest live event with ``time <= end_time``.

        Returns None when the queue is drained or the next live event lies
        beyond ``end_time`` (which is then left in the heap).  One heap
        traversal replaces the historical ``peek_time()`` + ``pop()`` pair
        on the kernel's hot loop; cancelled entries encountered on the way
        are discarded exactly as :meth:`pop` would.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.fn is None:
                heapq.heappop(heap)
                self._dead -= 1
                continue
            if entry[0] > end_time:
                return None
            heapq.heappop(heap)
            self._live -= 1
            return ev
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].fn is None:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None

    def compact(self) -> None:
        """Purge every cancelled entry from the heap in one pass.

        O(n) filter + heapify.  Dispatch order is unaffected: entries are
        totally ordered by ``(time, priority, seq)``, so rebuilding the heap
        cannot change the pop sequence.
        """
        if self._dead == 0:
            return
        heap = self._heap
        # In-place (slice assignment, not rebinding): the kernel's hot loop
        # holds a direct reference to the heap list across handler calls,
        # and a handler's cancellations can trigger compaction mid-run.
        heap[:] = [entry for entry in heap if entry[3].fn is not None]
        heapq.heapify(heap)
        self._dead = 0

    def _note_dead(self) -> None:
        """Internal: an in-heap event was cancelled (called by Event.cancel)."""
        self._live -= 1
        self._dead += 1
        if self._dead >= COMPACT_MIN_DEAD and self._dead > len(self._heap) // 2:
            self.compact()

    def __len__(self) -> int:
        """Number of live (non-cancelled) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

