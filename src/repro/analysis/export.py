"""CSV export of experiment results for external plotting tools.

The package plots in ASCII by design (no plotting dependency); users who
want publication figures export the sweeps to CSV and plot elsewhere.
"""

from __future__ import annotations

import csv
import io
import os
from typing import TextIO

from repro.experiments.scenario import ExperimentResult
from repro.experiments.sweep import SweepResult
from repro.fleet.shards import open_store

#: Columns of the per-run CSV schema, in order.
RESULT_FIELDS = (
    "protocol",
    "offered_load_kbps",
    "seed",
    "duration_s",
    "throughput_kbps",
    "avg_delay_ms",
    "delivery_ratio",
    "fairness",
    "sent",
    "received",
    "events_executed",
    "wallclock_s",
)


def write_results_csv(results: list[ExperimentResult], out: TextIO) -> int:
    """Write one CSV row per run; returns the row count."""
    writer = csv.writer(out)
    writer.writerow(RESULT_FIELDS)
    for r in results:
        writer.writerow([getattr(r, f) for f in RESULT_FIELDS])
    return len(results)


def sweep_to_csv(sweep: SweepResult) -> str:
    """Render a full sweep (every protocol × load × seed run) as CSV text."""
    buf = io.StringIO()
    write_results_csv(sweep.all_runs(), buf)
    return buf.getvalue()


def load_store_results(root: str | os.PathLike) -> list[ExperimentResult]:
    """Read every result from a campaign store directory.

    Rows are sorted by (protocol, offered load, seed) so the export is
    stable regardless of the order cells finished in.
    """
    if not os.path.isdir(root):
        raise FileNotFoundError(f"no campaign store at {os.fspath(root)!r}")
    results = open_store(root).results()
    results.sort(key=lambda r: (r.protocol, r.offered_load_kbps, r.seed))
    return results


def store_to_csv(root: str | os.PathLike) -> str:
    """Render a campaign store directory as per-run CSV text."""
    buf = io.StringIO()
    write_results_csv(load_store_results(root), buf)
    return buf.getvalue()


def series_to_csv(
    x_name: str, xs: list[float], series: dict[str, list[float]]
) -> str:
    """Render seed-averaged series (one column per protocol) as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([x_name, *series.keys()])
    for i, x in enumerate(xs):
        writer.writerow([x, *(series[name][i] for name in series)])
    return buf.getvalue()
