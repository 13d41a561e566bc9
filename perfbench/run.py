#!/usr/bin/env python3
"""The repository benchmark: one workload per run, or every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-n50 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py                    # every workload, default seed
    python3 perfbench/run.py --workload mega-n2000 --seed 11 --record

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps each layer's public methods
(see ``spans.py``), reports the per-layer metrics and writes collapsed
stacks to ``.perfbench/<workload>-seed<seed>.collapsed``.  Either way every
cell's result is checked against its golden (``goldens.json``, when the
seed has one) and against the invariants in ``workloads.check_result``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--record`` (untraced only) files the run's cell digests as goldens.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from repro.builder import NetworkBuilder  # noqa: E402
from repro.campaign.runner import run_specs  # noqa: E402
from repro.campaign.spec import RunSpec  # noqa: E402
from repro.fleet.shards import ShardedResultStore  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("paper-n50", "mega-n2000", "campaign-grid")
DEFAULT_SECONDS = 25

#: name -> (unit, better) for the untraced run.
END_TO_END = {
    "events_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "campaign_specs_per_s": ("1/s", "higher"),
    "cached_specs_per_s": ("1/s", "higher"),
    "success_share": ("ratio", "higher"),
}

#: name -> (unit, better, end-to-end metric it should move, workload).
PER_LAYER = {
    "sim.schedule.calls_per_event": ("count", "lower", "events_per_s", "mega-n2000"),
    "sim.schedule.ns_per_call": ("ns", "lower", "events_per_s", "mega-n2000"),
    "sim.loop.self_share": ("ratio", "lower", "events_per_s", "mega-n2000"),
    "sim.pending.peak": ("count", "lower", "peak_rss_mb", "mega-n2000"),
    "phy.transmit.calls": ("count", "lower", "events_per_s", "paper-n50,mega-n2000"),
    "phy.transmit.self_share": ("ratio", "lower", "events_per_s", "paper-n50,mega-n2000"),
    "phy.fanout.edges_per_transmit": ("count", "lower", "events_per_s", "mega-n2000"),
    "phy.signal.calls_per_event": ("count", "lower", "events_per_s", "mega-n2000"),
    "phy.signal.ns_per_call": ("ns", "lower", "events_per_s", "mega-n2000"),
    "phy.signal.self_share": ("ratio", "lower", "events_per_s", "mega-n2000"),
    "mobility.poll.calls_per_event": ("count", "lower", "events_per_s", "paper-n50"),
    "mobility.poll.self_share": ("ratio", "lower", "events_per_s", "paper-n50"),
    "mac.handler.calls_per_event": ("count", "lower", "events_per_s", "paper-n50"),
    "mac.handler.self_share": ("ratio", "lower", "events_per_s", "paper-n50"),
    "mac.model.cts_timeouts": ("count", "lower", "none: must not change", "paper-n50"),
    "mac.model.drops_retry_limit": ("count", "lower", "none: must not change", "paper-n50"),
    "net.route.calls_per_event": ("count", "lower", "events_per_s", "mega-n2000"),
    "net.route.self_share": ("ratio", "lower", "events_per_s", "mega-n2000"),
    "net.model.rreq_forwarded": ("count", "lower", "none: must not change", "mega-n2000"),
    "traffic.model.sent": ("count", "higher", "none: must not change", "all"),
    "metrics.collector.calls_per_event": ("count", "lower", "events_per_s", "paper-n50"),
    "metrics.collector.self_share": ("ratio", "lower", "events_per_s", "paper-n50"),
    "campaign.key.us_per_spec": ("us", "lower", "cached_specs_per_s", "campaign-grid"),
    "campaign.store.get.us_per_call": ("us", "lower", "cached_specs_per_s", "campaign-grid"),
    "campaign.store.put.ms_per_call": ("ms", "lower", "campaign_specs_per_s", "campaign-grid"),
    "campaign.store.fsync_per_spec": ("count", "lower", "campaign_specs_per_s", "campaign-grid"),
    "campaign.cell.run_s_median": ("s", "lower", "campaign_specs_per_s", "campaign-grid"),
    "campaign.overhead_share": ("ratio", "lower", "campaign_specs_per_s", "campaign-grid"),
    "campaign.cached.hit_share": ("ratio", "higher", "cached_specs_per_s", "campaign-grid"),
}

#: Cells served by the cached passes after each cold cell (or cold grid
#: pass): ~0.1-0.2 s of serving, long enough to catch the host at speed.
CACHED_CELLS_PER_SLICE = 480
#: Set-up repetitions of campaign-grid (spec list + fresh store) per pass.
SETUP_REPEATS = 5
STORE_SHARDS = 4


@dataclass
class Outcome:
    """What one workload run measured, and every problem it found."""

    workload: str
    attempted: int = 0
    failed_cells: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: cell id -> (result digest, events_executed) of the measured cells.
    cells: dict[str, tuple[str, int]] = field(default_factory=dict)
    # What the per-layer metrics are derived from (the last measured pass).
    results: list = field(default_factory=list)
    cell_run_s: list[float] = field(default_factory=list)
    cold_wall_s: float = 0.0
    jobs: int = 1
    puts: int = 0
    served: int = 0
    executed_when_cached: int = 0
    #: end-to-end metric -> its samples (per cell, per pass or per set-up),
    #: printed beside each metric and written out for later analysis.
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    paths: dict[str, list[int]] = field(default_factory=dict)
    traced_events_per_s: float = 0.0

    def fail(self, cell_id: str, problems: list[str]) -> None:
        if problems:
            self.failed_cells.add(cell_id)
            self.problems.extend(problems)

    def note_cell(self, cell_id: str, result) -> None:
        """Check a cell against its golden and against earlier runs of it."""
        digest = wl.result_digest(result)
        seen = self.cells.setdefault(cell_id, (digest, result.events_executed))
        problems = wl.check_result(GOLDENS, self.workload, cell_id, result)
        if seen[0] != digest:
            problems.append(f"{cell_id}: result differs between runs of the same cell")
        self.fail(cell_id, problems)


GOLDENS = wl.load_goldens()


def _peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _fresh_dir(name: str) -> Path:
    path = OUT / "tmp" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _serve_cached(specs, ids, store_root: Path, jobs: int, out: Outcome) -> None:
    """Serve ``specs`` from the reopened store, CACHED_CELLS_PER_SLICE cells.

    Each pass must execute nothing and serve the cold results bit for bit.
    The slices run between the cold cells (or passes), so the passes sample
    the whole run rather than one second of a machine whose speed drifts.
    A simulation workload serves the cell it just ran, so every pass of a
    run has the same size.
    """
    store = ShardedResultStore(store_root)
    checked = set()  # ids of result objects already digest-checked
    for _ in range(-(-CACHED_CELLS_PER_SLICE // len(specs))):
        t0 = time.perf_counter()
        report = run_specs(specs, jobs=jobs, store=store)
        out.samples["cached_specs_per_s"].append(report.cached / (time.perf_counter() - t0))
        out.served += report.cached
        if report.executed:
            out.fail("cached-pass", [f"a cached pass executed {report.executed} cells"])
        out.executed_when_cached += report.executed
        for spec, cell_id in zip(specs, ids):
            got = report.results.get(spec.key())
            if id(got) in checked:
                continue
            if got is None or wl.result_digest(got) != out.cells[cell_id][0]:
                out.fail(cell_id, [f"{cell_id}: cached result differs from the cold one"])
            checked.add(id(got))


# ------------------------------------------------------------- workloads


def _run_cell(cell: wl.Cell, out: Outcome):
    """Build and run one cell: (result, build_s, loop_cpu_s, wall_s) or None."""
    out.attempted += 1
    gc.collect()  # the previous cell's garbage is not this cell's set-up
    try:
        t0 = time.perf_counter()
        net = NetworkBuilder(cell.spec).build()
        build_s = time.perf_counter() - t0
        c0 = time.process_time()
        result = net.run()
        cpu = time.process_time() - c0
        wall = time.perf_counter() - t0
    except Exception:  # noqa: BLE001 - a raising cell is a counted failure
        out.fail(cell.cell_id, [f"{cell.cell_id}: raised\n{traceback.format_exc()}"])
        return None
    out.note_cell(cell.cell_id, result)
    return result, build_s, cpu, wall


def run_sim(out: Outcome, seed: int, seconds: float, trace: bool) -> None:
    """paper-n50 / mega-n2000: every cell built and run in this process."""
    cells = wl.sim_cells(out.workload, seed, seconds)
    rec = None
    if trace:
        # The first cell runs once untraced and then twice traced: each
        # traced result must match the untraced one (note_cell), and the
        # two traced runs must count exactly the same calls.
        _run_cell(cells[0], out)
        rec = spans.SpanRecorder()
        rec.install()
        _run_cell(cells[0], out)
        first_counts = spans.counts(rec.dump())
        rec.reset()
    store_root = _fresh_dir(f"{out.workload}-store")
    store = ShardedResultStore(store_root, shards=STORE_SHARDS)
    events, cpu_s, wall_s, specs, ids = 0, 0.0, 0.0, [], []
    for i, cell in enumerate(cells):
        ran = _run_cell(cell, out)
        if rec is not None and i == 0 and spans.counts(rec.dump()) != first_counts:
            out.fail(cell.cell_id, [f"{cell.cell_id}: traced call counts differ between runs"])
        if ran is None:
            continue
        result, build_s, cpu, wall = ran
        out.results.append(result)
        out.samples["setup_s"].append(build_s)
        out.samples["events_per_s"].append(result.events_executed / cpu)
        out.samples["campaign_specs_per_s"].append(1.0 / wall)
        events += result.events_executed
        cpu_s += cpu
        wall_s += wall
        specs.append(RunSpec(scenario=cell.spec))
        ids.append(cell.cell_id)
        store.put(specs[-1], result)
        _serve_cached(specs[-1:], ids[-1:], store_root, 1, out)
    if not out.results:
        return
    out.puts = len(specs)
    out.cell_run_s = [r.wallclock_s for r in out.results]
    out.cold_wall_s = wall_s
    _summarize(out, events / cpu_s, len(specs) / wall_s)
    if rec is not None:
        out.paths = rec.dump()
        rec.uninstall()


def run_grid(out: Outcome, seed: int, seconds: float, trace: bool) -> None:
    """campaign-grid: a closed loop of two workers, then cached passes.

    Each cold pass runs the next grid of the seed into a fresh sharded
    store, so every cell executes and is written (put + fsync).  Traced,
    grid 0 runs once untraced and then twice traced; the two traced passes
    must count the same calls.
    """
    out.jobs = wl.GRID_JOBS
    modes = [False, True, True] if trace else [False] * wl.bundle_size(out.workload, seconds)
    rec = spans.SpanRecorder() if trace else None
    traced_counts, events, loop_s, cells, wall_s = [], 0, 0.0, 0, 0.0
    for p, traced in enumerate(modes):
        if traced and p == 1:
            rec.install(export_dir=_fresh_dir("children"))
        if traced:
            rec.reset()
        # Set-up is timed before every pass, so its samples spread over the run.
        for i in range(SETUP_REPEATS):
            store_root = _fresh_dir(f"grid-store-{p}-{i}")
            t0 = time.perf_counter()
            specs = wl.grid_specs(seed, 0 if trace else p)
            store = ShardedResultStore(store_root, shards=STORE_SHARDS)
            out.samples["setup_s"].append(time.perf_counter() - t0)
        ids = [wl.grid_cell_id(s) for s in specs]
        t0 = time.perf_counter()
        report = run_specs(specs, jobs=wl.GRID_JOBS, store=store)
        wall = time.perf_counter() - t0
        out.attempted += len(specs)
        for key, error in report.errors.items():
            out.fail(key, [f"{error.get('label', key)}: {error['kind']}: {error['message']}"])
        if report.executed != len(specs):
            out.fail("cold-pass", [f"cold pass executed {report.executed} of {len(specs)}"])
        for spec, cell_id in zip(specs, ids):
            result = report.results.get(spec.key())
            if result is not None:
                out.note_cell(cell_id, result)
        if traced:
            rec.absorb_children()
            traced_counts.append(spans.counts(rec.dump()))
        out.results = list(report.results.values())
        out.cell_run_s = [r.wallclock_s for r in out.results]
        out.cold_wall_s = wall
        out.puts = len(specs)
        pass_events = sum(r.events_executed for r in out.results)
        out.samples["campaign_specs_per_s"].append(len(specs) / wall)
        out.samples["events_per_s"].append(_ratio(pass_events, sum(out.cell_run_s)))
        events += pass_events
        loop_s += sum(out.cell_run_s)
        cells += len(specs)
        wall_s += wall
        _serve_cached(specs, ids, store_root, wl.GRID_JOBS, out)
    if len(traced_counts) == 2 and traced_counts[0] != traced_counts[1]:
        out.fail("trace-counts", ["traced call counts differ between cold passes"])
    _summarize(out, _ratio(events, loop_s), _ratio(cells, wall_s))
    if rec is not None:
        out.paths = rec.dump()
        rec.uninstall()


# ---------------------------------------------------------------- metrics


def _summarize(out: Outcome, events_per_s: float, specs_per_s: float) -> None:
    """The end-to-end metrics of a run from its totals and samples.

    This host's speed wanders by up to 2x in phases of seconds, so rates
    are totals over the whole run (time-weighted), which gave the smallest
    run-to-run spread over ten runs per workload.  A cached pass takes
    milliseconds and lands wholly in one phase, so its rate is the fastest
    pass: like ``timeit``, the estimate of the code's own cost that
    contention cannot inflate.
    """
    out.metrics.update(
        events_per_s=events_per_s,
        setup_s=statistics.median(out.samples["setup_s"]),
        campaign_specs_per_s=specs_per_s,
        cached_specs_per_s=max(out.samples["cached_specs_per_s"]),
    )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(out: Outcome) -> dict[str, float]:
    """Every PER_LAYER metric from the traced aggregates and the results."""
    names = spans.by_name(out.paths)

    def total(pick, column: int) -> int:
        return sum(row[column] for name, row in names.items() if pick(name))

    def group(*prefixes):
        return lambda name: name.startswith(prefixes)

    def exact(*wanted):
        return lambda name: name in wanted

    events = sum(r.events_executed for r in out.results)
    run_ns = total(exact("sim.run_until"), 2)

    def calls(pick) -> int:
        return total(pick, 0)

    def self_ns(pick) -> int:
        return total(pick, 1)

    def share(pick) -> float:
        return _ratio(self_ns(pick), run_ns)

    def per_event(pick) -> float:
        return _ratio(calls(pick), events)

    sched = exact("sim.schedule")
    signal = exact("phy.signal_start", "phy.signal_end")
    transmit = exact("phy.transmit")
    mac, net, coll = group("mac."), group("net."), group("metrics.")

    def per_call(name: str, scale: float) -> float:
        return _ratio(total(exact(name), 2), calls(exact(name))) / scale

    def model(field_name: str, table: str) -> int:
        return sum(getattr(r, table).get(field_name, 0) for r in out.results)

    return {
        "sim.schedule.calls_per_event": per_event(sched),
        "sim.schedule.ns_per_call": _ratio(self_ns(sched), calls(sched)),
        "sim.loop.self_share": share(exact("sim.run_until")),
        "sim.pending.peak": out.paths.get(spans.PENDING_PEAK, [0])[0],
        "phy.transmit.calls": calls(transmit),
        "phy.transmit.self_share": share(transmit),
        "phy.fanout.edges_per_transmit": _ratio(
            calls(exact("phy.signal_start")), calls(transmit)
        ),
        "phy.signal.calls_per_event": per_event(signal),
        "phy.signal.ns_per_call": _ratio(self_ns(signal), calls(signal)),
        "phy.signal.self_share": share(signal),
        "mobility.poll.calls_per_event": per_event(exact("mobility.poll")),
        "mobility.poll.self_share": share(exact("mobility.poll")),
        "mac.handler.calls_per_event": per_event(mac),
        "mac.handler.self_share": share(mac),
        "mac.model.cts_timeouts": model("cts_timeouts", "mac_totals"),
        "mac.model.drops_retry_limit": model("drops_retry_limit", "mac_totals"),
        "net.route.calls_per_event": per_event(net),
        "net.route.self_share": share(net),
        "net.model.rreq_forwarded": model("rreq_forwarded", "routing_totals"),
        "traffic.model.sent": sum(r.sent for r in out.results),
        "metrics.collector.calls_per_event": per_event(coll),
        "metrics.collector.self_share": share(coll),
        "campaign.key.us_per_spec": per_call("campaign.key", 1e3),
        "campaign.store.get.us_per_call": per_call("campaign.store.get", 1e3),
        "campaign.store.put.ms_per_call": per_call("campaign.store.put", 1e6),
        "campaign.store.fsync_per_spec": _ratio(calls(exact(spans.FSYNC_SPAN)), out.puts),
        "campaign.cell.run_s_median": statistics.median(out.cell_run_s or [0.0]),
        "campaign.overhead_share": 1.0
        - _ratio(sum(out.cell_run_s), out.jobs * out.cold_wall_s),
        "campaign.cached.hit_share": _ratio(
            out.served, out.served + out.executed_when_cached
        ),
    }


# -------------------------------------------------------------------- CLI


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run one workload in this process and fill in its metrics."""
    out = Outcome(workload)
    if workload == "campaign-grid":
        run_grid(out, seed, seconds, trace)
    else:
        run_sim(out, seed, seconds, trace)
    shutil.rmtree(OUT / "tmp", ignore_errors=True)
    if trace:
        if out.paths:
            spans.write_collapsed(out.paths, OUT / f"{workload}-seed{seed}.collapsed")
        out.traced_events_per_s = out.metrics.get("events_per_s", 0.0)
        out.metrics = per_layer(out)
    else:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}-seed{seed}.samples.json").write_text(json.dumps(out.samples))
        out.metrics["peak_rss_mb"] = _peak_rss_mb()
        out.metrics["success_share"] = 1.0 - len(out.failed_cells) / max(1, out.attempted)
    return out


def record_goldens(out: Outcome) -> None:
    """File this run's cell digests as goldens (refuses a failed run)."""
    if out.problems:
        raise SystemExit("refusing to record goldens from a run with problems")
    goldens = wl.load_goldens()
    table = goldens["cells"].setdefault(out.workload, {})
    for cell_id, (digest, events) in out.cells.items():
        table[cell_id] = {"digest": digest, "events": events}
    goldens["cells"][out.workload] = dict(sorted(table.items()))
    wl.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1) + "\n")


def report_line(out: Outcome, trace: bool) -> dict:
    """The result line; a metric a failed run could not measure reads 0."""
    table = PER_LAYER if trace else END_TO_END
    return {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": len(out.failed_cells),
        "metrics": {
            name: {"value": out.metrics.get(name, 0.0), "unit": table[name][0]}
            for name in table
        },
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process (so peak RSS is its own)."""
    lines = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        body = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(body[:-1]))
        if proc.returncode != 0:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        lines[workload] = json.loads(body[-1])
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {
            f"{w}/{name}": m for w, line in lines.items() for name, m in line["metrics"].items()
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=GOLDENS["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="file goldens (untraced)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.record and args.trace:
        parser.error("--record needs an untraced run")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
          f"{out.attempted} cells attempted, {len(out.failed_cells)} failed")
    for problem in out.problems:
        print(f"  PROBLEM {problem}")
    table = PER_LAYER if args.trace else END_TO_END
    for name in table:
        line = f"  {name:<36} {out.metrics.get(name, 0.0):>16.6g} {table[name][0]}"
        values = out.samples.get(name, [])
        if not args.trace and len(values) >= 2:
            q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
            line += f"   (n={len(values)}, quartiles {q1:.6g} / {q2:.6g} / {q3:.6g})"
        print(line)
    if args.trace:
        print(f"  (traced events per run-loop second: {out.traced_events_per_s:.6g})")
    if args.record:
        record_goldens(out)
    print(json.dumps(report_line(out, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
