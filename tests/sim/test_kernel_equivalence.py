"""Dispatch order of the kernel: heap plus waves vs a sorted-list model.

The kernel's queue is a binary heap of events and :class:`~repro.sim.kernel.Wave`
entries (one per transmission's edge fan-out).  Its contract is simple to
state: every live edge and event fires in ``(time, priority, seq)`` order,
where a wave's edges own the seqs per-edge scheduling would have given them.
:class:`ListModel` implements that contract in the most literal way — a flat
list scanned for its minimum key before every dispatch, waves expanded into
one entry per edge — and the property tests below drive both through
identical scripts: interleaved schedules, cancellations, compactions, wave
launches (including float-collapsing offsets that force the per-edge
fallback), handlers that spawn, cancel and stop, and ``run_until`` sliced at
arbitrary horizons.  Whole paper scenarios then pit the brute-force channel
(every edge its own event) against the indexed channel (waves).
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builder import NetworkBuilder
from repro.config import ScenarioConfig
from repro.scenariospec import ScenarioSpec
from repro.sim.event import EventQueue
from repro.sim.kernel import LEAD_PRIORITY, TRAIL_PRIORITY, Simulator, WaveTemplate

# ---------------------------------------------------------------------------
# Property: queue-level dispatch order under schedule/cancel/compaction
# ---------------------------------------------------------------------------

#: One scripted operation: ("push", time, priority) | ("cancel", k) |
#: ("compact",).  ``k`` picks among the events pushed so far (modulo).
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=-3, max_value=3),
        ),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10_000)),
        st.tuples(st.just("compact")),
    ),
    min_size=1,
    max_size=300,
)


def _apply(queue: EventQueue, ops, compaction: bool):
    """Run the op script against ``queue``; returns the pushed events."""
    pushed = []
    for op in ops:
        if op[0] == "push":
            pushed.append(
                queue.push(op[1], lambda: None, priority=op[2], label=f"e{len(pushed)}")
            )
        elif op[0] == "cancel":
            if pushed:
                pushed[op[1] % len(pushed)].cancel()
        elif compaction:  # explicit compact on one queue only
            queue.compact()
    return pushed


class TestQueueDispatchOrder:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_order_stable_under_interleaved_cancel_and_compaction(self, ops):
        compacted, plain = EventQueue(), EventQueue()
        _apply(compacted, ops, compaction=True)
        pushed = _apply(plain, ops, compaction=False)

        got = []
        while (ev := compacted.pop_next(float("inf"))) is not None:
            got.append((ev.time, ev.priority, ev.seq, ev.label))
        want = []
        while (ev := plain.pop()) is not None:
            want.append((ev.time, ev.priority, ev.seq, ev.label))

        assert got == want
        # The dispatch sequence is exactly the live events sorted by the
        # (time, priority, seq) total order.
        live = sorted(
            (ev.time, ev.priority, ev.seq, ev.label)
            for ev in pushed
            if not ev.cancelled
        )
        assert got == live
        assert len(compacted) == len(plain) == 0


# ---------------------------------------------------------------------------
# The sorted-list model and the scripted workload both kernels run
# ---------------------------------------------------------------------------


class ListModel:
    """The dispatch contract, literally: scan a flat list for the min key."""

    def __init__(self) -> None:
        self.now = 0.0
        self.entries: list[list] = []  # [time, priority, seq, fn-or-None]
        self.seq = 0
        self.events_executed = 0
        self.stopped = False

    def schedule(self, time, fn, priority=0):
        entry = [time, priority, self.seq, fn]
        self.seq += 1
        self.entries.append(entry)
        return entry

    def cancel(self, entry) -> None:
        entry[3] = None

    def launch(self, offsets, span, leads, trails, lead_arg, trail_arg) -> None:
        """A wave is its edges: rank ``r`` owns seqs ``base + 2r`` / ``+ 1``."""
        base = self.seq
        self.seq += 2 * len(offsets)
        for r, off in enumerate(offsets):
            t = self.now + off
            self.entries.append(
                [t, LEAD_PRIORITY, base + 2 * r, partial(leads[r], lead_arg, r)]
            )
            self.entries.append(
                [t + span, TRAIL_PRIORITY, base + 2 * r + 1, partial(trails[r], trail_arg)]
            )

    def stop(self) -> None:
        self.stopped = True

    def run_until(self, end_time: float) -> None:
        self.stopped = False
        while True:
            live = [e for e in self.entries if e[3] is not None]
            if not live:
                break
            entry = min(live, key=lambda e: (e[0], e[1], e[2]))
            if entry[0] > end_time:
                break
            self.entries.remove(entry)
            self.now = entry[0]
            fn = entry[3]
            entry[3] = None
            self.events_executed += 1
            fn()
            if self.stopped:
                break
        if not self.stopped and self.now < end_time:
            self.now = end_time


class KernelAdapter:
    """The real kernel behind the :class:`ListModel` interface."""

    def __init__(self) -> None:
        self.sim = Simulator()

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def events_executed(self) -> int:
        return self.sim.events_executed

    def schedule(self, time, fn, priority=0):
        return self.sim.schedule(time, fn, priority=priority)

    def cancel(self, ev) -> None:
        ev.cancel()

    def launch(self, offsets, span, leads, trails, lead_arg, trail_arg) -> None:
        WaveTemplate(offsets, leads, trails, list(range(len(offsets)))).launch(
            self.sim, span, lead_arg, trail_arg
        )

    def stop(self) -> None:
        self.sim.stop()

    def run_until(self, end_time: float) -> None:
        self.sim.run_until(end_time)


#: Offsets that tie exactly, differ by one ulp (so ``now + offset`` can
#: collapse them against rank order), or spread past a short span.
_OFFSETS = (0.0, 1e-6, 3e-6, math.nextafter(3e-6, 1.0), 5e-6, 0.02, 0.05, 0.4)
_SPANS = (1e-3, 2e-6, 0.25)
#: Push delays: anywhere, or on/inside the leading and trailing windows of
#: a wave launched at the same instant, where its edges must interleave.
_DELAYS = st.one_of(
    st.floats(min_value=0.0, max_value=2.0),
    st.sampled_from((0.0, 3e-6, 0.01, 0.02, 0.03, 0.25, 0.26, 0.27, 0.29)),
)

_action = st.one_of(
    st.tuples(
        st.just("push"),
        _DELAYS,
        st.integers(min_value=-1, max_value=2),
    ),
    st.tuples(
        st.just("wave"),
        st.lists(st.sampled_from(_OFFSETS), min_size=1, max_size=6),
        st.sampled_from(_SPANS),
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("stop")),
)


class Script:
    """Deterministic workload run identically against either kernel.

    Top-level ops and handler reactions are drawn by hypothesis; every
    dispatched event or edge appends ``(now, label)`` to ``fired``.  A
    handler whose label id maps to a plan entry performs that entry's
    actions, so handlers spawn, cancel, compact and stop mid-wave.
    """

    #: Bound on items spawned by handlers (keeps plans from running away).
    MAX_SPAWNED = 150

    def __init__(self, kernel, plan) -> None:
        self.k = kernel
        self.plan = plan
        self.fired: list[tuple[float, object]] = []
        self.events: list = []
        self.next_id = 0
        self.spawned = 0

    def _label(self) -> int:
        self.next_id += 1
        return self.next_id

    def _react(self, lid) -> None:
        if self.spawned >= self.MAX_SPAWNED:
            return
        for action in self.plan.get(lid % 7, ()):
            self.spawned += 1
            self.act(action)

    def _event(self, lid) -> None:
        self.fired.append((self.k.now, lid))
        self._react(lid)

    def _lead(self, r, wid, x) -> None:
        assert x == r
        self.fired.append((self.k.now, (wid, "L", r)))
        self._react(wid + r)

    def _trail(self, r, wid) -> None:
        self.fired.append((self.k.now, (wid, "T", r)))
        self._react(wid + r + 3)

    def act(self, action) -> None:
        kind = action[0]
        k = self.k
        if kind == "push":
            lid = self._label()
            self.events.append(
                k.schedule(k.now + action[1], partial(self._event, lid), action[2])
            )
        elif kind == "wave":
            offsets = action[1]
            n = len(offsets)
            # The adapter hands leads ``(lead_arg, x)`` with x = rank; the
            # model binds the rank itself — both land in ``_lead(r, wid, r)``.
            k.launch(
                offsets,
                action[2],
                [partial(self._lead, r) for r in range(n)],
                [partial(self._trail, r) for r in range(n)],
                self._label(),
                self.next_id,
            )
        elif kind == "cancel":
            if self.events:
                k.cancel(self.events[action[1] % len(self.events)])
        elif kind == "compact":
            if isinstance(k, KernelAdapter):
                k.sim._queue.compact()
        elif kind == "stop":
            k.stop()


def _run_script(kernel, ops, plan):
    script = Script(kernel, plan)
    for op in ops:
        if op[0] == "run":
            kernel.run_until(kernel.now + op[1])
            script.fired.append(("run", kernel.now))
        elif op[0] != "stop":  # a top-level stop() outside a run is moot
            script.act(op)
    kernel.run_until(kernel.now + 10.0)
    return script.fired, kernel.events_executed, kernel.now


class TestWaveDispatchOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                _action,
                st.tuples(st.just("run"), st.floats(min_value=0.0, max_value=1.0)),
            ),
            min_size=1,
            max_size=40,
        ),
        plan=st.dictionaries(
            st.integers(min_value=0, max_value=6),
            st.lists(_action, max_size=3),
            max_size=5,
        ),
    )
    def test_heap_and_waves_match_sorted_list_model(self, ops, plan):
        """Same fired sequence, same per-edge count, same clock — under any
        interleaving of schedule, cancel, compaction, wave launch, stop and
        sliced ``run_until``."""
        assert _run_script(KernelAdapter(), ops, plan) == _run_script(
            ListModel(), ops, plan
        )

    @pytest.mark.parametrize("priority", [-1, 0, 1, 2])
    def test_events_inside_both_edge_windows_interleave(self, priority):
        """Events between leading edges, between trailing edges and tied
        with an edge's exact time split the wave where the model says."""
        ops = [("wave", [0.0, 0.02, 0.04, 0.04], 0.25)]
        ops += [("push", d, priority) for d in (0.01, 0.02, 0.26, 0.27, 0.29)]
        ops += [("run", 0.265), ("run", 1.0)]
        fired, executed, _ = _run_script(KernelAdapter(), ops, {})
        assert executed == 13
        assert (fired, executed) == _run_script(ListModel(), ops, {})[:2]

    def test_collapsing_offsets_fall_back_to_per_edge_entries(self):
        """Offsets one ulp apart in inverted rank order cannot ride a wave.

        At ``now = 1.0`` both collapse onto one time, where seq order (rank
        0 first) must win over offset order; the template refuses to launch
        a wave and queues four separate edges instead.
        """
        near = 3e-6
        far = math.nextafter(near, 1.0)
        sim = Simulator()
        sim.run_until(1.0)
        assert sim.now + near == sim.now + far
        tmpl = WaveTemplate([far, near], [print, print], [print, print], [0, 1])
        assert tmpl.ranks == (1, 0) and tmpl.gap == far - near
        assert not tmpl.fits(sim.now, 1e-3)
        tmpl.launch(sim, 1e-3, None, None)
        assert sim.pending_events == 4
        # Equal offsets tie exactly and ride one wave.
        tied = WaveTemplate([near, near], [print, print], [print, print], [0, 1])
        assert tied.fits(sim.now, 1e-3)
        tied.launch(sim, 1e-3, None, None)
        assert sim.pending_events == 5


# ---------------------------------------------------------------------------
# Kernel loops: fused, profiled, step() and sliced horizons agree
# ---------------------------------------------------------------------------


class _ScriptedRun:
    """Deterministic workload: each fired event may spawn and cancel others."""

    def __init__(self, sim: Simulator, plan):
        self.sim = sim
        self.plan = plan  # idx -> (spawn_delays, cancel_indices)
        self.fired: list[tuple[float, str]] = []
        self.events: list = []

    def start(self, initial):
        for k, (t, prio) in enumerate(initial):
            self._push(t, prio, k)
        # One wave rides along so every loop also dispatches wave edges.
        WaveTemplate(
            [0.0, 0.5, 0.5, 1.5], [self._lead] * 4, [self._trail] * 4, [0, 1, 2, 3]
        ).launch(self.sim, 2.0, "w", "w")

    def _lead(self, arg, x):
        self.fired.append((self.sim.now, f"{arg}L{x}"))

    def _trail(self, arg):
        self.fired.append((self.sim.now, f"{arg}T"))

    def _push(self, time, priority, idx):
        ev = self.sim.schedule(
            time, lambda idx=idx: self._fire(idx), priority=priority, label=f"s{idx}"
        )
        self.events.append(ev)

    def _fire(self, idx):
        self.fired.append((self.sim.now, f"s{idx}"))
        spawn, cancels = self.plan.get(idx, ((), ()))
        for k, delay in enumerate(spawn):
            self._push(self.sim.now + delay, (idx + k) % 3, 1000 * (idx + 1) + k)
        for c in cancels:
            if self.events:
                self.sim.cancel(self.events[c % len(self.events)])


@settings(max_examples=25, deadline=None)
@given(
    initial=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),
            st.integers(min_value=0, max_value=2),
        ),
        min_size=1,
        max_size=20,
    ),
    plan=st.dictionaries(
        st.integers(min_value=0, max_value=19),
        st.tuples(
            st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=3),
            st.lists(st.integers(min_value=0, max_value=100), max_size=3),
        ),
        max_size=10,
    ),
    horizon=st.floats(min_value=1.0, max_value=20.0),
    slices=st.integers(min_value=2, max_value=9),
)
def test_all_kernel_variants_dispatch_identically(initial, plan, horizon, slices):
    """The fused loop, sliced horizons, the profiled loop and ``step()``
    dispatch the same sequence, waves included."""

    def fused(sim):
        sim.run_until(horizon)

    def sliced(sim):
        for i in range(1, slices + 1):
            sim.run_until(horizon * i / slices if i < slices else horizon)

    def profiled(sim):
        sim.enable_profiling()
        sim.run_until(horizon)

    def stepped(sim):
        while sim.pending_events:
            ev_time = sim._queue.peek_time()
            if ev_time is None or ev_time > horizon:
                break
            sim.step()
        sim.run_until(horizon)

    runs = []
    for drive in (fused, sliced, profiled, stepped):
        sim = Simulator()
        script = _ScriptedRun(sim, plan)
        script.start(initial)
        drive(sim)
        runs.append((script.fired, sim.events_executed, sim.now, sim.pending_events))
    assert all(r == runs[0] for r in runs[1:])


# ---------------------------------------------------------------------------
# Whole-run: bit-identical ExperimentResults across paper scenarios
# ---------------------------------------------------------------------------


def _run_result(protocol: str, mobile: bool, spatial_index: bool) -> dict:
    cfg = replace(ScenarioConfig(), node_count=10, duration_s=5.0, seed=11)
    spec = ScenarioSpec.from_legacy(cfg, protocol, mobile=mobile)
    net = NetworkBuilder(spec, spatial_index=spatial_index).build()
    result = asdict(net.run())
    result.pop("wallclock_s")  # the only legitimately nondeterministic field
    return result


class TestWholeRunEquivalence:
    """Waves (indexed channel) must reproduce per-edge events bit for bit."""

    @pytest.mark.parametrize("protocol", ["basic", "pcmac"])
    @pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
    def test_experiment_results_bit_identical(self, protocol, mobile):
        waves = _run_result(protocol, mobile, spatial_index=True)
        per_edge = _run_result(protocol, mobile, spatial_index=False)
        assert waves == per_edge
        # Equality above is exact (floats compared with ==); spot-check the
        # fields the acceptance criteria single out.
        assert waves["events_executed"] == per_edge["events_executed"]
        assert waves["events_executed"] > 0
        assert waves["sent"] > 0
