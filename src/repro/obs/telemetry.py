"""Live campaign telemetry: per-run progress streamed while a cell runs.

The enabling observation: the kernel dispatches an identical event sequence
whether ``run_until(T)`` is called once or as a monotone series of slices
``run_until(t_1), ..., run_until(T)`` — events at exactly a slice boundary
run in the earlier call, and the clock advance between calls schedules
nothing.  So a worker can execute a cell in sim-time slices and emit a
:class:`RunProgress` between slices — sim-time rate, events/sec, ETA, peak
RSS — without perturbing determinism (regression-tested in
``tests/obs/test_telemetry.py``).

:meth:`RunSpec.run(progress) <repro.campaign.spec.RunSpec.run>` is the
one way a cell runs sliced: fleet workers pass a callback that renews
their lease and forwards progress to the campaign's telemetry (over a
queue from worker processes), and the parent renders a live line.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.spec import RunSpec
    from repro.experiments.scenario import ExperimentResult


def peak_rss_kb() -> int:
    """This process's peak resident set size [KiB] (0 where unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class RunProgress:
    """One heartbeat from a running cell."""

    #: The cell's content key (matches the result store's addressing).
    key: str
    #: Short human label (``RunSpec.label()``).
    label: str
    #: Simulated seconds completed so far.
    sim_time_s: float
    #: The cell's horizon [simulated s].
    duration_s: float
    #: Events dispatched so far.
    events: int
    #: Wall-clock seconds elapsed so far.
    wall_s: float
    #: Peak resident set size of the executing process [KiB].
    peak_rss_kb: int
    #: True on the final heartbeat (the cell just finished).
    done: bool = False

    @property
    def events_per_sec(self) -> float:
        """Dispatch rate so far [events per wall-clock second]."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def sim_rate(self) -> float:
        """Simulated seconds per wall-clock second."""
        return self.sim_time_s / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def eta_s(self) -> float:
        """Estimated wall-clock seconds remaining (0 when done/unknown)."""
        if self.done or self.sim_time_s <= 0 or self.wall_s <= 0:
            return 0.0
        remaining = self.duration_s - self.sim_time_s
        return max(0.0, self.wall_s * remaining / self.sim_time_s)

    def line(self) -> str:
        """A compact single-line rendering for live progress displays."""
        if self.done:
            return (
                f"{self.label}: done  {self.events:,} ev in {self.wall_s:.1f}s "
                f"({self.events_per_sec:,.0f} ev/s, rss {self.peak_rss_kb // 1024} MiB)"
            )
        return (
            f"{self.label}: t={self.sim_time_s:.1f}/{self.duration_s:.0f}s  "
            f"{self.events_per_sec:,.0f} ev/s  eta {self.eta_s:.0f}s  "
            f"rss {self.peak_rss_kb // 1024} MiB"
        )


TelemetryFn = Callable[[RunProgress], Any]

#: Heartbeats per run — sized so a typical cell reports every few hundred
#: milliseconds without the slicing overhead becoming measurable.
DEFAULT_SLICES = 20


def run_sliced(
    spec: "RunSpec",
    emit: TelemetryFn,
    *,
    slices: int = DEFAULT_SLICES,
) -> "ExperimentResult":
    """Execute one cell in sim-time slices, emitting progress between them.

    The body of ``RunSpec.run(progress)``: the result is bit-identical to
    ``spec.run()`` (wallclock aside — the recorded wallclock covers the
    whole sliced execution, callbacks included).
    """
    if slices < 1:
        raise ValueError(f"slices must be >= 1, got {slices!r}")
    key = spec.key()
    label = spec.label()
    net = spec.scenario.build()
    duration = net.cfg.duration_s
    sim = net.sim
    t0 = time.perf_counter()

    def beat(done: bool = False) -> RunProgress:
        return RunProgress(
            key=key,
            label=label,
            sim_time_s=sim.now,
            duration_s=duration,
            events=sim.events_executed,
            wall_s=time.perf_counter() - t0,
            peak_rss_kb=peak_rss_kb(),
            done=done,
        )

    for i in range(1, slices + 1):
        sim.run_until(min(duration, duration * i / slices))
        emit(beat())
    # The horizon is already reached: run() dispatches nothing further and
    # just assembles the summary; restore the true whole-run wallclock.
    result = net.run()
    final = beat(done=True)
    emit(final)
    return replace(result, wallclock_s=final.wall_s)


def runtime_stats(result: "ExperimentResult") -> dict:
    """The per-run runtime stats dict the result store persists."""
    return {
        "wall_s": round(result.wallclock_s, 4),
        "events": result.events_executed,
        "events_per_sec": round(
            result.events_executed / result.wallclock_s, 1
        )
        if result.wallclock_s > 0
        else 0.0,
        "peak_rss_kb": peak_rss_kb(),
    }
