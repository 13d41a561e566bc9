"""Span tracing from outside the program: wrap public layer methods.

The traced run replaces a fixed list of public methods (``LAYER_METHODS``)
on their classes with thin wrappers *before* any network is built, so every
bound method the simulator caches at build time is already the wrapper.
Nothing under ``src/`` changes.

Each wrapper opens a span (name, start, end, parent) around the call.  Spans
are folded into their call path as they close: the recorder keeps, per
distinct path, the call count, the self time (duration minus the time its
wrapped children covered) and the total time.  That is all the per-layer
metrics and the collapsed stacks need, and memory stays bounded by the
number of distinct paths instead of growing with the ~10^6 spans of a run.

A call to a method whose caller span has the same name (a ``super()`` call
from an overriding subclass, e.g. ``PcmacMac.on_rx_start``) is folded into
the caller's span, so one listener callback counts once.

Worker processes forked by the campaign pool inherit the wrappers.  The
recorder resets itself in each forked child and, after every
``RunSpec.run`` there, writes its aggregates to ``export_dir``; the parent
folds them in with :meth:`SpanRecorder.absorb_children`.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

#: (span name, "module:Class", method) for every wrapped public method.
#: Span names are ``<layer>.<method>``; the layer is the ``repro`` package
#: that defines the class (``core`` is folded into ``mac``).
LAYER_METHODS: tuple[tuple[str, str, str], ...] = (
    ("sim.run_until", "repro.sim.kernel:Simulator", "run_until"),
    ("sim.schedule", "repro.sim.kernel:Simulator", "schedule"),
    ("sim.schedule", "repro.sim.kernel:Simulator", "schedule_in"),
    ("phy.transmit", "repro.phy.channel:Channel", "transmit"),
    ("phy.signal_start", "repro.phy.radio:Radio", "signal_start"),
    ("phy.signal_end", "repro.phy.radio:Radio", "signal_end"),
    ("mobility.poll", "repro.mobility.base:MobilityModel", "poll"),
    ("mobility.poll", "repro.mobility.static:StaticMobility", "poll"),
    ("mac.enqueue_packet", "repro.mac.base:DcfMac", "enqueue_packet"),
    ("mac.on_carrier_busy", "repro.mac.base:DcfMac", "on_carrier_busy"),
    ("mac.on_carrier_idle", "repro.mac.base:DcfMac", "on_carrier_idle"),
    ("mac.on_rx_start", "repro.mac.base:DcfMac", "on_rx_start"),
    ("mac.on_rx_start", "repro.core.pcmac:PcmacMac", "on_rx_start"),
    ("mac.on_rx_drop", "repro.mac.base:DcfMac", "on_rx_drop"),
    ("mac.on_tx_end", "repro.mac.base:DcfMac", "on_tx_end"),
    ("mac.on_rx_end", "repro.mac.base:DcfMac", "on_rx_end"),
    (
        "mac.core.announce_reception",
        "repro.core.control_channel:ControlChannelAgent",
        "announce_reception",
    ),
    ("mac.core.on_rx_end", "repro.core.control_channel:ControlChannelAgent", "on_rx_end"),
    ("net.route_packet", "repro.net.aodv.protocol:AodvProtocol", "route_packet"),
    ("net.on_packet", "repro.net.aodv.protocol:AodvProtocol", "on_packet"),
    ("metrics.on_app_send", "repro.metrics.collector:MetricsCollector", "on_app_send"),
    (
        "metrics.on_app_receive",
        "repro.metrics.collector:MetricsCollector",
        "on_app_receive",
    ),
    ("metrics.on_drop", "repro.metrics.collector:MetricsCollector", "on_drop"),
    ("campaign.key", "repro.campaign.spec:RunSpec", "key"),
    ("campaign.run", "repro.campaign.spec:RunSpec", "run"),
    ("campaign.store.get", "repro.campaign.store:ResultStore", "get"),
    ("campaign.store.put", "repro.fleet.shards:ShardedResultStore", "put"),
)

#: The store's durability boundary, counted as a span of its own.
FSYNC_SPAN = "campaign.fsync"
#: Key of the simulator's pending-events peak in a :meth:`SpanRecorder.dump`.
PENDING_PEAK = "#pending_peak"


class UnresolvedMethodError(LookupError):
    """A wrapped method no longer exists where ``LAYER_METHODS`` says."""


def resolve(target: str, method: str):
    """The class named by ``"module:Class"``; raises if it lacks ``method``.

    The method must be defined on that class itself (not inherited), so a
    rename or a move cannot silently leave a layer reading zero.
    """
    module_name, _, cls_name = target.partition(":")
    cls = getattr(importlib.import_module(module_name), cls_name, None)
    if cls is None:
        raise UnresolvedMethodError(f"{target}: class not found")
    if method not in vars(cls) or not callable(vars(cls)[method]):
        raise UnresolvedMethodError(f"{target}.{method}: method not defined on the class")
    return cls


@dataclass
class SpanRecorder:
    """Aggregated span tree plus the pending-events peak of the simulator."""

    #: path id -> (parent path id, span name); id 0 is the root.
    nodes: list[tuple[int, str]] = field(default_factory=lambda: [(-1, "")])
    #: (parent path id, span name) -> path id.
    index: dict[tuple[int, str], int] = field(default_factory=dict)
    #: per path id: [calls, self_ns, total_ns].
    stats: list[list[int]] = field(default_factory=lambda: [[0, 0, 0]])
    #: open spans: [name, path id, start_ns, child_ns].
    stack: list[list] = field(default_factory=list)
    pending_peak: int = 0
    #: aggregates exported by forked children, see :meth:`absorb_children`.
    absorbed: dict[str, list[int]] = field(default_factory=dict)
    export_dir: Path | None = None
    _owner_pid: int = 0
    _installed: list[tuple[object, str, object]] = field(default_factory=list)

    # ----------------------------------------------------------- recording

    def reset(self) -> None:
        """Forget every recorded span (open spans included)."""
        self.nodes[:] = [(-1, "")]
        self.index.clear()
        self.stats[:] = [[0, 0, 0]]
        self.stack.clear()
        self.pending_peak = 0
        self.absorbed.clear()

    def _path(self, parent: int, name: str) -> int:
        pid = self.index.get((parent, name))
        if pid is None:
            pid = len(self.nodes)
            self.nodes.append((parent, name))
            self.stats.append([0, 0, 0])
            self.index[(parent, name)] = pid
        return pid

    def _wrap(self, fn, name: str, after=None):
        clock = time.perf_counter_ns
        stack = self.stack
        stats = self.stats
        path = self._path

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, path(stack[-1][1] if stack else 0, name), clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[2]
                stack.pop()
                if stack:
                    stack[-1][3] += dur
                row = stats[frame[1]]
                row[0] += 1
                row[1] += dur - frame[3]
                row[2] += dur
                if after is not None:
                    after(args[0])

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _note_pending(self, sim) -> None:
        pending = sim.pending_events
        if pending > self.pending_peak:
            self.pending_peak = pending

    def _export_after_run(self, _spec) -> None:
        if self.export_dir is not None and os.getpid() != self._owner_pid:
            out = self.export_dir / f"child-{os.getpid()}.json"
            tmp = out.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.dump()))
            tmp.replace(out)

    # ------------------------------------------------------------ install

    def install(self, export_dir: Path | None = None) -> None:
        """Wrap every ``LAYER_METHODS`` entry (and ``os.fsync``)."""
        if self._installed:
            raise RuntimeError("recorder already installed")
        self.export_dir = export_dir
        self._owner_pid = os.getpid()
        targets = [(name, resolve(t, m), m) for name, t, m in LAYER_METHODS]
        for name, cls, method in targets:
            original = vars(cls)[method]
            after = None
            if name == "sim.schedule":
                after = self._note_pending
            elif name == "campaign.run":
                after = self._export_after_run
            self._installed.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, after))
        self._installed.append((os, "fsync", os.fsync))
        os.fsync = self._wrap(os.fsync, FSYNC_SPAN)
        os.register_at_fork(after_in_child=self.reset)

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        for owner, method, original in reversed(self._installed):
            setattr(owner, method, original)
        self._installed.clear()

    # ------------------------------------------------------------- output

    def dump(self) -> dict[str, list[int]]:
        """``{"a;b;c": [calls, self_ns, total_ns]}`` over every path."""
        out: dict[str, list[int]] = {PENDING_PEAK: [self.pending_peak, 0, 0]}
        for pid in range(1, len(self.nodes)):
            names = []
            node = pid
            while node > 0:
                parent, name = self.nodes[node]
                names.append(name)
                node = parent
            out[";".join(reversed(names))] = list(self.stats[pid])
        _add(out, self.absorbed)
        return out

    def absorb_children(self) -> None:
        """Fold every exported child dump into :meth:`dump` and delete it."""
        if self.export_dir is None:
            return
        for path in sorted(self.export_dir.glob("child-*.json")):
            _add(self.absorbed, json.loads(path.read_text()))
            path.unlink()


def _add(acc: dict[str, list[int]], paths: dict[str, list[int]]) -> None:
    for key, row in paths.items():
        mine = acc.setdefault(key, [0, 0, 0])
        if key == PENDING_PEAK:
            mine[0] = max(mine[0], row[0])
        else:
            for i in range(3):
                mine[i] += row[i]


def by_name(paths: dict[str, list[int]]) -> dict[str, list[int]]:
    """Fold path aggregates onto their leaf span name: [calls, self, total]."""
    out: dict[str, list[int]] = {}
    for key, row in paths.items():
        if key.startswith("#"):
            continue
        acc = out.setdefault(key.rsplit(";", 1)[-1], [0, 0, 0])
        for i in range(3):
            acc[i] += row[i]
    return out


def counts(paths: dict[str, list[int]]) -> dict[str, int]:
    """The deterministic part of an aggregate: calls per path."""
    return {key: row[0] for key, row in paths.items()}


def write_collapsed(paths: dict[str, list[int]], out: Path) -> None:
    """Collapsed stacks (``a;b;c <self µs>``) for speedscope / flamegraph."""
    lines = [
        f"{key} {row[1] // 1000}"
        for key, row in sorted(paths.items())
        if not key.startswith("#") and row[1] >= 1000
    ]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
