"""The flight recorder: streaming sinks, probes, profiling, telemetry.

Everything in this package is *opt-in observability* — instrumentation that
watches a run without changing what is simulated.  It is wired through the
``observability`` scenario slot (default ``null``: zero instrumentation,
event-schedule bit-identical, guarded by ``tools/bench_obs.py``):

* :mod:`repro.obs.sinks` — streaming trace sinks.  A
  :class:`~repro.obs.sinks.JsonlSink` attached to a
  :class:`~repro.sim.trace.Tracer` exports every record of its categories
  to disk instead of truncating at ``max_records``.
* :mod:`repro.obs.probes` — periodic per-node gauge sampling
  (:class:`~repro.obs.probes.GaugeSampler`) into a columnar
  :class:`~repro.obs.probes.TimeSeries` that rides
  ``ExperimentResult.timeseries`` through the campaign store.
* :mod:`repro.obs.profile` — wall-clock attribution per event-handler kind
  from the kernel's opt-in profiled loop, rendered as a
  :class:`~repro.obs.profile.ProfileReport`.
* :mod:`repro.obs.telemetry` — live per-run progress
  (:class:`~repro.obs.telemetry.RunProgress`) streamed from campaign
  workers to the parent, plus the sliced heartbeat runner that produces it
  without perturbing the event schedule.

The split from :mod:`repro.sim.trace` is deliberate: the tracer stays a
dependency-free hot-path primitive; this package holds everything with I/O,
wall clocks, or cross-process concerns.
"""

from repro.obs.probes import DEFAULT_GAUGES, GaugeSampler, TimeSeries
from repro.obs.profile import ProfileEntry, ProfileReport
from repro.obs.sinks import JsonlSink, TraceSink
from repro.obs.telemetry import RunProgress, run_sliced

__all__ = [
    "DEFAULT_GAUGES",
    "GaugeSampler",
    "JsonlSink",
    "ProfileEntry",
    "ProfileReport",
    "RunProgress",
    "TimeSeries",
    "TraceSink",
    "run_sliced",
]
