"""On-disk result store, content-addressed by :meth:`RunSpec.key`.

:class:`ResultStore` is the layout-independent core: the in-memory index,
the JSONL line format, durable appends, incremental refresh and corrupt-line
quarantine.  The one concrete layout is
:class:`~repro.fleet.shards.ShardedResultStore` (key-prefix shards with
per-shard writer locks), and :func:`repro.fleet.shards.open_store` is how
every caller opens a store directory.  A flat ``results.jsonl`` written by
older versions is only a migration input: opening its directory folds the
lines into shards once.

Each JSONL line is ``{"key", "spec", "result"}`` (plus an optional
``"runtime"`` — machine-local execution stats of the run) where ``spec``
is an audit record (protocol / load / seed plus the full serialized
:class:`~repro.scenariospec.ScenarioSpec` under ``"scenario"`` — re-runnable
via ``ScenarioSpec.from_dict``, though addressing is always by ``key``) and
``result`` the serialised
:class:`~repro.experiments.scenario.ExperimentResult`.  A run that failed
permanently is recorded as a ``{"key", "spec", "error"}`` line instead —
the error is inspectable via :meth:`ResultStore.error` but the key stays
*absent* from the result index, so a resumed campaign re-runs it.
Appending after every finished run makes interruption safe: a killed
campaign keeps every completed cell, and the next invocation against the
same store resumes from there.

Writes are durable before they are visible: ``_append`` flushes and fsyncs
the line (and, on file creation, the containing directory) *before* the
in-memory index is updated, so a crash mid-put leaves either a complete
line on disk or nothing — never an indexed-but-unwritten cell.

The store also supports **concurrent readers**: :meth:`ResultStore.refresh`
ingests lines appended by other processes since the last read (tracked by
per-file byte offsets; a file that shrank or changed inode — compaction or
quarantine by another process — triggers a full reload).  A trailing line
without a newline during ``refresh`` is treated as an in-flight append by
another writer and held back until it completes.

Unparseable lines (a torn tail from an interrupted write, or bytes mangled
by a filesystem fault) are **quarantined** on load: they are moved to a
``<file>.corrupt`` sidecar, the file is atomically rewritten without them,
and a warning reports the counts — nothing is silently dropped, and the
file is clean again for the next append.  Lines already present in the
sidecar are not appended twice, and a sidecar that merely persists across
loads (without gaining new lines) does not re-warn.  When a key appears
more than once the last line wins.
"""

from __future__ import annotations

import json
import os
import warnings
from abc import ABC, abstractmethod
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.campaign.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.scenario import ExperimentResult

#: The flat pre-shard layout's file, read only to migrate it.
RESULTS_FILE = "results.jsonl"
META_FILE = "meta.json"
#: Sidecar receiving lines the loader could not parse (never deleted).
CORRUPT_SUFFIX = ".corrupt"


def result_to_dict(result: "ExperimentResult") -> dict:
    """Serialise an :class:`ExperimentResult` to a JSON-able dict."""
    return asdict(result)


def result_from_dict(data: dict) -> "ExperimentResult":
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` output."""
    from repro.energy.report import EnergyReport, NodeEnergy
    from repro.experiments.scenario import ExperimentResult, FlowSummary
    from repro.obs.probes import TimeSeries
    from repro.obs.profile import ProfileReport

    payload = dict(data)
    payload["flows"] = tuple(
        FlowSummary(**flow) for flow in payload.get("flows", ())
    )
    payload["drops"] = {str(k): int(v) for k, v in payload["drops"].items()}
    energy = payload.get("energy")
    if energy is not None:
        payload["energy"] = EnergyReport(
            model=energy["model"],
            nodes=tuple(NodeEnergy(**node) for node in energy["nodes"]),
        )
    else:
        # Pre-energy store lines lack the key entirely.
        payload["energy"] = None
    # Observability payloads: absent on pre-obs lines, null on null-obs runs.
    timeseries = payload.get("timeseries")
    payload["timeseries"] = (
        TimeSeries.from_payload(timeseries) if timeseries is not None else None
    )
    profile = payload.get("profile")
    payload["profile"] = (
        ProfileReport.from_payload(profile) if profile is not None else None
    )
    resilience = payload.get("resilience")
    if resilience is not None:
        from repro.faults.resilience import ResilienceReport

        payload["resilience"] = ResilienceReport.from_payload(resilience)
    else:
        # Pre-faults store lines lack the key; null-faults runs store null.
        payload["resilience"] = None
    return ExperimentResult(**payload)


class ResultStore(ABC):
    """Append-only JSONL store of finished campaign cells.

    The in-memory index mirrors the files; ``put`` appends one durable line
    *then* updates the index, so a crash loses at most the cell being
    written and never leaves the index ahead of the disk.  ``refresh``
    ingests lines other processes appended since the last read.
    Subclasses define the layout: which files hold lines, which file a key
    appends to, and the ``meta.json`` self-description.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index: dict[str, "ExperimentResult"] = {}
        self._specs: dict[str, dict] = {}
        self._runtimes: dict[str, dict] = {}
        self._errors: dict[str, dict] = {}
        #: path → (inode, byte offset) of the last ingested position.
        self._offsets: dict[Path, tuple[int, int]] = {}
        self._write_meta()
        self._load()

    # ---------------------------------------------------------------- layout

    @abstractmethod
    def _meta(self) -> dict:
        """The store's self-description, persisted as ``meta.json``."""

    @abstractmethod
    def _result_files(self) -> list[Path]:
        """Every JSONL file holding result lines."""

    @abstractmethod
    def _file_for(self, key: str) -> Path:
        """The JSONL file new lines for ``key`` are appended to."""

    # ------------------------------------------------------------------ disk

    def _write_meta(self) -> None:
        meta_path = self.root / META_FILE
        meta = self._meta()
        if meta_path.exists():
            try:
                if json.loads(meta_path.read_text()) == meta:
                    return
            except (OSError, json.JSONDecodeError):
                pass
            # Stale or unreadable meta (e.g. a store created under an older
            # spec schema, whose keys no longer match anyway): refresh so the
            # store's self-description matches what gets appended from now on.
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")

    def _load(self) -> None:
        for path in self._result_files():
            self._read_file(path, tail_is_torn=True)

    def refresh(self) -> None:
        """Ingest lines appended by other processes since the last read.

        Cheap when nothing changed (one ``stat`` per file).  A file that
        shrank or changed inode — rewritten by another process's compaction
        or quarantine — is fully reloaded, which is safe because ingesting
        a file's lines in order is idempotent.  A trailing line with no
        newline is an append in flight: it is held back, not quarantined.
        """
        for path in self._result_files():
            self._read_file(path, tail_is_torn=False)

    def refresh_key(self, key: str) -> None:
        """Like :meth:`refresh`, but only for the file holding ``key``.

        The cheap single-key staleness check fleet workers use on the
        cache-hit path — one ``stat`` instead of one per shard.
        """
        self._read_file(self._file_for(key), tail_is_torn=False)

    def _read_file(self, path: Path, *, tail_is_torn: bool) -> None:
        """Ingest ``path`` from its last-read offset.

        ``tail_is_torn`` selects how a trailing newline-less fragment is
        treated: on initial load it is a torn write from a crash (parse it,
        quarantine on failure); on refresh it may be another writer's
        in-flight append (hold it back until the newline lands).
        """
        if not path.exists():
            self._offsets.pop(path, None)
            return
        st = path.stat()
        ino, offset = self._offsets.get(path, (None, 0))
        if ino is not None and (st.st_ino != ino or st.st_size < offset):
            offset = 0  # rewritten behind our back: full (idempotent) reload
        if st.st_size == offset and st.st_ino == ino:
            return
        with path.open("rb") as fh:
            fh.seek(offset)
            data = fh.read()
        consumed = len(data)
        text = data.decode("utf-8", errors="replace")
        if text and not text.endswith("\n") and not tail_is_torn:
            cut = text.rfind("\n") + 1
            held_back = text[cut:]
            consumed -= len(held_back.encode("utf-8", errors="replace"))
            text = text[:cut]
        bad: list[str] = []
        for line in text.splitlines():
            line = line.strip()
            if line and not self._ingest_line(line):
                bad.append(line)
        self._offsets[path] = (st.st_ino, offset + consumed)
        if bad:
            self._quarantine(path)

    def _ingest_line(self, line: str) -> bool:
        """Index one JSONL line; False when it does not parse."""
        try:
            record = json.loads(line)
            key = record["key"]
            if "error" in record:
                # A permanently failed run: remember why, but keep
                # the key out of the result index so resume retries.
                # A success for the same (deterministic) key always
                # outranks an error, whichever was written later.
                if key not in self._index:
                    self._errors[key] = record["error"]
                self._specs.setdefault(key, record.get("spec", {}))
                return True
            result = result_from_dict(record["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return False
        self._index[key] = result
        self._errors.pop(key, None)
        self._specs[key] = record.get("spec", {})
        runtime = record.get("runtime")
        if runtime is not None:
            self._runtimes[key] = runtime
        return True

    def _quarantine(self, path: Path) -> None:
        """Move unparseable lines to the sidecar; rewrite the file clean.

        The rewrite is atomic (tmp + fsync + rename) so a crash mid-cleanup
        leaves either the old file or the clean one, never a hybrid.  Lines
        the sidecar already holds are not appended twice, and no warning is
        emitted unless the sidecar actually grew — so reloading a store
        whose corruption was already quarantined stays silent.
        """
        good: list[str] = []
        bad: list[str] = []
        with path.open("r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                (good if self._parseable(line) else bad).append(line)
        sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
        already: set[str] = set()
        if sidecar.exists():
            already = {
                line.strip()
                for line in sidecar.read_text(encoding="utf-8").splitlines()
                if line.strip()
            }
        fresh = [line for line in bad if line not in already]
        if fresh:
            self._write_lines(sidecar, fresh)
        self._rewrite(path, good)
        self._offsets[path] = (path.stat().st_ino, path.stat().st_size)
        if fresh:
            warnings.warn(
                f"result store {path}: quarantined {len(fresh)} corrupt "
                f"line(s) to {sidecar.name} (kept {len(good)} good line(s), "
                f"sidecar now holds {len(already) + len(fresh)})",
                RuntimeWarning,
                stacklevel=4,
            )

    @staticmethod
    def _parseable(line: str) -> bool:
        """True when ``line`` is a loadable store record."""
        try:
            record = json.loads(line)
            record["key"]
            if "error" not in record:
                result_from_dict(record["result"])
        except (json.JSONDecodeError, KeyError, TypeError):
            return False
        return True

    @staticmethod
    def _write_lines(path: Path, lines: list[str], mode: str = "a") -> None:
        """Write ``lines`` (one per line) and fsync before returning."""
        with path.open(mode, encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _rewrite(self, path: Path, lines: list[str]) -> None:
        """Atomically replace ``path`` with ``lines`` (tmp + fsync + rename)."""
        tmp = path.with_name(path.name + ".tmp")
        self._write_lines(tmp, lines, mode="w")
        tmp.replace(path)
        self._dirsync(path.parent)

    @staticmethod
    def _dirsync(directory: Path) -> None:
        """fsync a directory so a just-created/renamed entry is durable."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync on dirs unsupported
            pass
        finally:
            os.close(fd)

    # ----------------------------------------------------------------- access

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: str) -> "ExperimentResult | None":
        """The stored result for ``key``, or None."""
        return self._index.get(key)

    def keys(self) -> Iterator[str]:
        """All stored cell keys."""
        return iter(self._index)

    def results(self) -> list["ExperimentResult"]:
        """Every stored result (load order; duplicates resolved last-wins)."""
        return list(self._index.values())

    def spec_summary(self, key: str) -> dict:
        """The audit summary recorded with ``key`` (may be empty)."""
        return self._specs.get(key, {})

    def runtime_stats(self, key: str) -> dict:
        """Per-run runtime stats (wall time, events/sec, peak RSS) for
        ``key`` — empty for cells recorded without telemetry."""
        return self._runtimes.get(key, {})

    def error(self, key: str) -> dict | None:
        """The recorded permanent failure for ``key``, or None.

        Errored keys are *not* in the result index (``get`` returns None,
        ``in`` is False), so a resumed campaign re-runs them; the error
        record survives for post-mortems until a success overwrites it.
        """
        return self._errors.get(key)

    def errors(self) -> dict[str, dict]:
        """Every recorded permanent failure, keyed by cell key."""
        return dict(self._errors)

    def _append(self, record: dict) -> None:
        """Durably append one JSONL record to its home file.

        The containing directory is fsynced when the file is created, so
        the new directory entry survives a crash too.  Callers update the
        in-memory index only *after* this returns — disk first, index
        second — which is what makes a mid-put crash recoverable.
        """
        path = self._file_for(record["key"])
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        created = not path.exists()
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_lines(path, [line])
        if created:
            self._dirsync(path.parent)

    @staticmethod
    def _spec_summary(spec: RunSpec) -> dict:
        return {
            "protocol": spec.protocol,
            "load_kbps": spec.load_kbps,
            "seed": spec.seed,
            "node_count": spec.cfg.node_count,
            "duration_s": spec.cfg.duration_s,
            # The full serialized scenario (the hash pre-image), so a
            # store entry is auditable and re-runnable by *what* ran:
            # feed it back through ScenarioSpec.from_dict.
            "scenario": spec.scenario.to_dict(),
        }

    def put(
        self,
        spec: RunSpec,
        result: "ExperimentResult",
        *,
        runtime: dict | None = None,
    ) -> str:
        """Record one finished cell; returns its key.

        ``runtime`` is an optional machine-local stats dict (see
        :func:`repro.obs.telemetry.runtime_stats`) persisted alongside the
        cell but excluded from the result — it describes *this* execution,
        not the scenario.
        """
        key = spec.key()
        record = {
            "key": key,
            "spec": self._spec_summary(spec),
            "result": result_to_dict(result),
        }
        if runtime is not None:
            record["runtime"] = runtime
        self._append(record)
        self._index[key] = result
        self._errors.pop(key, None)
        self._specs[key] = record["spec"]
        if runtime is not None:
            self._runtimes[key] = runtime
        return key

    def put_error(self, spec: RunSpec, error: dict) -> str:
        """Record one permanently failed cell; returns its key.

        ``error`` is a structured failure description (see
        :func:`repro.campaign.runner.error_record` — kind, message,
        traceback, attempts).  The key stays absent from the result index
        so a later ``--resume`` re-runs the cell.
        """
        key = spec.key()
        self._append(
            {"key": key, "spec": self._spec_summary(spec), "error": error}
        )
        self._errors[key] = error
        self._specs.setdefault(key, self._spec_summary(spec))
        return key
