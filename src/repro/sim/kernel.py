"""The simulation kernel: a clock plus an event queue.

Design notes
------------
The kernel is intentionally tiny — all protocol behaviour lives in the PHY /
MAC / routing layers, which interact with the kernel only through
:meth:`Simulator.schedule` / :meth:`Simulator.cancel` and :attr:`Simulator.now`.
That keeps the hot loop (pop event, advance clock, call handler) free of
indirection, which matters: a full paper-scale run executes tens of millions
of events.  Profiling showed the heap operations and handler dispatch
dominate, so the hot loop is *fused*: it peeks and pops in one heap
traversal, and :meth:`schedule` / :meth:`schedule_in` inline the queue push
(one C-level heap operation per event instead of two Python frames).

Waves
-----
A transmission fans out into a leading and a trailing signal edge at every
receiver in range — at paper density ~97 % of all events.  Scheduling each
edge separately costs an :class:`~repro.sim.event.Event`, a ``schedule``
call, a push and a pop on a deep heap.  A :class:`Wave` is **one** queue
entry holding all of one transmission's edges, pre-sorted by their exact
``(time, priority, seq)`` keys (the sorted receivers live in a reusable
:class:`WaveTemplate`).  It reserves the seq block per-edge scheduling would
have used (receiver ``i``'s leading edge gets ``base + 2i``, its trailing
edge ``base + 2i + 1``), and after each edge compares its next key with the
heap head, the run horizon and :meth:`Simulator.stop`: it either dispatches
the next edge inline or re-queues itself under that key.  Every edge
therefore fires exactly where the per-edge schedule would have fired it,
and ``events_executed`` still counts one per edge.  The profiled loop and
:meth:`Simulator.step` take one edge per queue pop.

Queue accounting: :attr:`Simulator.pending_events` counts live queue
*entries*, so a wave with many edges left is one pending entry.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.sim.event import Event, EventQueue

#: Priorities of a wave's two edge kinds.  At equal times a trailing edge
#: dispatches before a leading one, so a frame that ends exactly as the next
#: one starts is gone from the air before the newcomer arrives.
LEAD_PRIORITY = 1
TRAIL_PRIORITY = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, running twice...)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, lambda: fired.append(sim.now))
        >>> sim.run_until(10.0)
        >>> fired
        [1.5]
    """

    __slots__ = (
        "_queue",
        "_now",
        "_running",
        "_events_executed",
        "_stopped",
        "_profile",
        "_horizon",
    )

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._profile: dict[str, list] | None = None
        #: How far a :class:`Wave` may dispatch inline: the ``run_until``
        #: horizon during a fused run, ``-inf`` otherwise (``step()`` and the
        #: profiled loop take one edge per queue pop).
        self._horizon = -math.inf

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time [s]."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far (one per wave edge)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of live queue entries (a :class:`Wave` counts as one)."""
        return len(self._queue)

    # -- self-profiling ------------------------------------------------------

    def enable_profiling(self) -> None:
        """Switch :meth:`run_until` to the self-timing loop.

        Accumulates wall-clock time per event kind (the schedule ``label``,
        falling back to the handler's qualified name; a wave edge carries
        its wave's lead or trail label).  Dispatch order and
        ``events_executed`` are identical to the normal loop — only wall
        time changes, so profiling must stay off for benchmark runs.
        """
        if self._profile is None:
            self._profile = {}

    @property
    def profile(self) -> dict[str, list] | None:
        """Raw ``{kind: [calls, cumulative_seconds]}`` data, or None if off."""
        return self._profile

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self,
        time: float,
        fn: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        args: tuple | None = None,
    ) -> Event:
        """Schedule ``fn`` at absolute simulation time ``time``.

        Scheduling in the past raises :class:`SimulationError`; scheduling at
        exactly ``now`` is allowed and fires after the current handler returns.
        ``args`` are passed positionally to ``fn`` at fire time — high-rate
        callers use this instead of allocating a closure per event.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} < now={self._now!r} ({label or fn!r})"
            )
        # Manually inlined EventQueue.push — one Python frame per event is
        # measurable on the hottest allocation site of a run.
        q = self._queue
        seq = q._seq
        ev = Event(time, priority, seq, fn, label, q, args)
        heappush(q._heap, (time, priority, seq, ev))
        q._seq = seq + 1
        q._live += 1
        return ev

    def schedule_in(
        self,
        delay: float,
        fn: Callable[..., Any],
        priority: int = 0,
        label: str = "",
        args: tuple | None = None,
    ) -> Event:
        """Schedule ``fn`` after a non-negative relative ``delay``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r} for {label or fn!r}")
        q = self._queue
        seq = q._seq
        time = self._now + delay
        ev = Event(time, priority, seq, fn, label, q, args)
        heappush(q._heap, (time, priority, seq, ev))
        q._seq = seq + 1
        q._live += 1
        return ev

    def cancel(self, event: Event | None) -> None:
        """Cancel a previously scheduled event (no-op on None / already done).

        Equivalent to ``event.cancel()`` — queue bookkeeping lives on the
        event itself, so cancelling directly is equally safe.
        """
        if event is not None:
            event.cancel()

    # -- execution -----------------------------------------------------------

    def run_until(self, end_time: float) -> None:
        """Dispatch events in order until the queue drains or ``end_time``.

        The clock is left at ``end_time`` (or the last event time if the
        queue drained earlier and that is later — it cannot be).
        """
        if self._running:
            raise SimulationError("run_until re-entered — simulator is not reentrant")
        self._running = True
        self._stopped = False
        try:
            if self._profile is not None:
                self._run_profiled(end_time)
            else:
                self._horizon = end_time
                self._run_fused(end_time)
            if not self._stopped and self._now < end_time:
                # A drained queue still advances the clock to the horizon; a
                # stop() leaves it at the stopping event's time.
                self._now = end_time
        finally:
            self._horizon = -math.inf
            self._running = False

    def _run_fused(self, end_time: float) -> None:
        """Hot loop: peek and pop inlined over the raw heap.

        Semantically identical to calling :meth:`EventQueue.pop_next` per
        entry; inlining removes one Python frame per event.  Queue
        bookkeeping (``_live`` / ``_dead``) is maintained exactly as
        ``pop_next`` does.  A popped :class:`Wave` is just an entry whose
        handler may dispatch further edges before returning.
        """
        queue = self._queue
        heap = queue._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev.fn is None:
                heappop(heap)
                queue._dead -= 1
                continue
            if entry[0] > end_time:
                break
            heappop(heap)
            queue._live -= 1
            self._now = ev.time
            fn = ev.fn
            ev.fn = None  # mark consumed; cheap guard against re-fire
            self._events_executed += 1
            args = ev.args
            if args is None:
                fn()
            else:
                fn(*args)
            if self._stopped:
                break

    def _run_profiled(self, end_time: float) -> None:
        """The fused loop with a ``perf_counter`` pair around each dispatch.

        Same event order as :meth:`_run_fused`; attribution is keyed by the
        schedule ``label`` (empty labels fall back to the handler's
        ``__qualname__``).  The horizon stays ``-inf``, so a wave dispatches
        one edge per pop and every edge is timed under its own label.  The
        timing overhead is real wall time — results feed
        :class:`repro.obs.profile.ProfileReport`, never benchmarks.
        """
        queue = self._queue
        profile = self._profile
        assert profile is not None
        pop_next = queue.pop_next
        while True:
            ev = pop_next(end_time)
            if ev is None:
                break
            self._now = ev.time
            fn = ev.fn
            ev.fn = None
            self._events_executed += 1
            kind = ev.label or getattr(fn, "__qualname__", "") or type(fn).__name__
            args = ev.args
            t0 = perf_counter()
            if args is None:
                fn()
            else:
                fn(*args)
            dt = perf_counter() - t0
            cell = profile.get(kind)
            if cell is None:
                profile[kind] = [1, dt]
            else:
                cell[0] += 1
                cell[1] += dt
            if self._stopped:
                break

    def step(self) -> bool:
        """Dispatch exactly one event (one wave edge).  False if queue empty."""
        ev = self._queue.pop()
        if ev is None:
            return False
        assert ev.fn is not None
        self._now = ev.time
        fn = ev.fn
        ev.fn = None
        self._events_executed += 1
        args = ev.args
        if args is None:
            fn()
        else:
            fn(*args)
        return True

    def stop(self) -> None:
        """Request that :meth:`run_until` return after the current handler."""
        self._stopped = True


class WaveTemplate:
    """The receivers of a wave, sorted into dispatch order; reusable.

    Built from per-receiver sequences in *rank* order — the order per-edge
    scheduling would visit them, rank ``r`` owning the seqs ``base + 2r``
    (leading edge) and ``base + 2r + 1`` (trailing edge).  Receiver ``r``
    has a leading edge at ``now + offsets[r]`` (priority
    :data:`LEAD_PRIORITY`) calling ``leads[r](lead_arg, xs[r])``, and a
    trailing edge at ``now + offsets[r] + span_s`` (priority
    :data:`TRAIL_PRIORITY`) calling ``trails[r](trail_arg)``.

    The template stores the same sequences re-sorted by offset, ties kept in
    rank order (``ranks`` maps back), plus what :meth:`fits` needs.  It
    depends on neither the clock nor the seq base, so an all-static world
    builds one per (source, power) and replays it for every transmission.
    Parallel tuples of plain floats keep a cached template small and cheap
    for the garbage collector to walk.
    """

    __slots__ = ("offsets", "ranks", "leads", "trails", "xs", "lo", "hi", "gap")

    def __init__(
        self,
        offsets: Sequence[float],
        leads: Sequence[Callable[[Any, Any], Any]],
        trails: Sequence[Callable[[Any], Any]],
        xs: Sequence[Any],
    ) -> None:
        if not offsets:
            raise ValueError("a wave needs at least one receiver")
        # Rows sort by (offset, rank); ranks are unique, so the callables
        # are never compared.
        rows = sorted(zip(offsets, range(len(offsets)), leads, trails, xs))
        self.offsets, self.ranks, self.leads, self.trails, self.xs = zip(*rows)
        offsets, ranks = self.offsets, self.ranks
        self.lo = offsets[0]
        self.hi = offsets[-1]
        #: Smallest offset step between neighbours in inverted rank order.
        gap = math.inf
        for k in range(1, len(ranks)):
            if ranks[k] < ranks[k - 1] and offsets[k] - offsets[k - 1] < gap:
                gap = offsets[k] - offsets[k - 1]
        self.gap = gap

    def fits(self, now: float, span_s: float) -> bool:
        """Whether offset order is key order for a wave launched at ``now``.

        The wave dispatches every leading edge in offset order, then every
        trailing edge in offset order.  That is key order when:

        * every leading edge is strictly before every trailing edge —
          checked exactly, with the float operations the edge times use;
        * rounding ``now + offset`` (and ``+ span_s``) cannot collapse two
          neighbours in inverted rank order onto one time, where their seqs
          would have to swap them.  Each rounding moves a time by at most
          half an ulp of the largest trailing time ``U``, so an offset step
          above ``4 U`` keeps every inverted pair strictly ordered.  Equal
          offsets tie exactly and are already in rank order.
        """
        return (
            now + self.hi < now + self.lo + span_s
            and self.gap > 4.0 * math.ulp(now + self.hi + span_s)
        )

    def launch(
        self,
        sim: Simulator,
        span_s: float,
        lead_arg: Any,
        trail_arg: Any,
        labels: tuple[str, str] = ("", ""),
    ) -> None:
        """Queue every edge at the current clock: as one :class:`Wave` when
        :meth:`fits`, else edge by edge through :meth:`Simulator.schedule`
        in rank order (the keys are the same either way)."""
        now = sim._now
        if self.fits(now, span_s):
            Wave(sim, self, span_s, lead_arg, trail_arg, labels)
            return
        offsets, leads, trails, xs = self.offsets, self.leads, self.trails, self.xs
        schedule = sim.schedule
        trail_args = (trail_arg,)
        for k in sorted(range(len(offsets)), key=self.ranks.__getitem__):
            t = now + offsets[k]
            schedule(t, leads[k], LEAD_PRIORITY, labels[0], (lead_arg, xs[k]))
            schedule(t + span_s, trails[k], TRAIL_PRIORITY, labels[1], trail_args)


class Wave:
    """One queue entry standing for every edge of one :class:`WaveTemplate`.

    Launched at clock ``t0`` with seq base ``base`` (the wave reserves the
    ``2 * n`` seqs per-edge scheduling would have used), it dispatches the
    template's leading edges in order, then its trailing edges in order —
    key order, as :meth:`WaveTemplate.fits` checked.  The kernel pops it
    like an event; each dispatch runs edges inline until the next key is
    not the earliest in the queue, lies beyond the run horizon, or the
    simulator was stopped, then re-queues the wave under that key.  An
    exhausted wave simply drops out of the queue.
    """

    __slots__ = (
        "time", "fn", "args", "label", "_sim", "_tmpl", "_t0", "_span",
        "_base", "_lead_arg", "_trail_arg", "_labels", "_pos",
    )

    def __init__(
        self,
        sim: Simulator,
        template: WaveTemplate,
        span_s: float,
        lead_arg: Any,
        trail_arg: Any,
        labels: tuple[str, str],
    ) -> None:
        q = sim._queue
        base = q._seq
        q._seq = base + 2 * len(template.offsets)
        self._sim = sim
        self._tmpl = template
        self._t0 = t0 = sim._now
        self._span = span_s
        self._base = base
        self._lead_arg = lead_arg
        self._trail_arg = trail_arg
        self._labels = labels
        self._pos = 0
        self.args = None
        self.label = labels[0]
        self.time = t = t0 + template.lo
        self.fn = self._fire
        heappush(q._heap, (t, LEAD_PRIORITY, base + 2 * template.ranks[0], self))
        q._live += 1

    def _fire(self) -> None:
        # The kernel popped this wave, set the clock and counted the edge at
        # ``_pos``.  Dispatch it, then run each following edge while it is
        # the earliest key due: one check-then-dispatch loop per phase, as
        # this per-edge overhead is what a wave saves over per-edge events.
        sim = self._sim
        heap = sim._queue._heap
        horizon = sim._horizon
        tmpl = self._tmpl
        offsets = tmpl.offsets
        ranks = tmpl.ranks
        n = len(offsets)
        t0 = self._t0
        base = self._base
        k = self._pos
        if k < n:
            leads = tmpl.leads
            xs = tmpl.xs
            arg = self._lead_arg
            leads[k](arg, xs[k])
            k += 1
            while k < n:
                t = t0 + offsets[k]
                if sim._stopped or t > horizon:
                    return self._requeue(heap, k, t, LEAD_PRIORITY, base + 2 * ranks[k])
                if heap:
                    head = heap[0]
                    if head[0] <= t and (
                        head[0] < t
                        or (head[1], head[2]) < (LEAD_PRIORITY, base + 2 * ranks[k])
                    ):
                        return self._requeue(
                            heap, k, t, LEAD_PRIORITY, base + 2 * ranks[k]
                        )
                sim._now = t
                sim._events_executed += 1
                leads[k](arg, xs[k])
                k += 1
            i = 0
        else:
            i = k - n
            tmpl.trails[i](self._trail_arg)
            i += 1
        trails = tmpl.trails
        arg = self._trail_arg
        span = self._span
        while i < n:
            t = t0 + offsets[i] + span
            if sim._stopped or t > horizon:
                return self._requeue(
                    heap, n + i, t, TRAIL_PRIORITY, base + 2 * ranks[i] + 1
                )
            if heap:
                head = heap[0]
                if head[0] <= t and (
                    head[0] < t
                    or (head[1], head[2]) < (TRAIL_PRIORITY, base + 2 * ranks[i] + 1)
                ):
                    return self._requeue(
                        heap, n + i, t, TRAIL_PRIORITY, base + 2 * ranks[i] + 1
                    )
            sim._now = t
            sim._events_executed += 1
            trails[i](arg)
            i += 1

    def _requeue(self, heap: list, k: int, t: float, prio: int, seq: int) -> None:
        """Queue the wave again under the key of its next edge ``k``."""
        self._pos = k
        self.time = t
        self.fn = self._fire
        self.label = self._labels[k >= len(self._tmpl.offsets)]
        heappush(heap, (t, prio, seq, self))
        self._sim._queue._live += 1
