"""The result store's layout: sharded, multi-writer, crash-safe compaction.

Fleet workers append concurrently; one shared file would serialize them
(and eventually tear).  :class:`ShardedResultStore` — the only store
layout — splits the key space by content-hash prefix::

    <root>/
        meta.json                    # format 2: records the shard count
        shards/
            results-00.jsonl         # keys whose hash lands in shard 0x00
            results-00.jsonl.lock    # per-shard flock for writers
            ...

Properties the fleet relies on:

* **Exactly-once put.**  ``put`` takes the shard lock, ingests any lines
  other writers appended meanwhile, and appends only when the key is
  still absent — so two workers that both finish the same run (a steal
  race) record it once.  ``put_error`` additionally yields to an existing
  success: an error line is never written over a completed result.
* **Lock-free reads.**  ``get``/``refresh`` never take locks — appends
  are whole lines and the incremental reader holds back a torn tail, so
  readers see a prefix-consistent stream.
* **Crash-safe compaction.**  :meth:`compact` folds each shard to one
  line per key (the last success, else the last error — exactly the
  in-memory index semantics) and swaps it in by tmp + fsync + rename, so
  a crash mid-compaction leaves the old shard intact.  Other processes
  notice the inode change and reload idempotently.
* **Legacy adoption.**  Opening a directory holding a flat
  ``results.jsonl`` (the pre-shard format) migrates its lines into shards
  once (the original is kept as ``results.jsonl.migrated``), so existing
  stores upgrade in place.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.campaign.spec import SPEC_SCHEMA_VERSION
from repro.campaign.store import (
    CORRUPT_SUFFIX,
    META_FILE,
    RESULTS_FILE,
    ResultStore,
)
from repro.fleet.locks import FileLock

#: On-disk format id of the sharded layout (the flat pre-shard one was 1).
SHARDED_STORE_FORMAT = 2

SHARD_DIR = "shards"
#: Default shard count — 256 keys/shard at 4k runs, and small enough that
#: an empty store costs nothing (shard files appear on first write).
DEFAULT_SHARDS = 16
MAX_SHARDS = 4096


def shard_index(key: str, shards: int) -> int:
    """Map a content key to its shard ordinal, uniformly.

    Keys are SHA-256 hex, so the leading 32 bits are already uniform; the
    CRC fallback covers tests/tools that address synthetic keys.
    """
    try:
        prefix = int(key[:8], 16)
    except ValueError:
        prefix = zlib.crc32(key.encode("utf-8"))
    return prefix % shards


@dataclass
class CompactionStats:
    """What one :meth:`ShardedResultStore.compact` pass did."""

    #: Shard files examined (only ones that exist on disk).
    shards: int = 0
    #: JSONL lines before folding, summed over shards.
    lines_before: int = 0
    #: JSONL lines after folding (== distinct keys kept).
    lines_after: int = 0
    #: Unparseable lines moved to ``.corrupt`` sidecars during the pass.
    quarantined: int = 0

    @property
    def folded(self) -> int:
        """Duplicate/superseded lines removed by the pass."""
        return self.lines_before - self.lines_after - self.quarantined


class ShardedResultStore(ResultStore):
    """Key-prefix-sharded JSONL result store for concurrent writers.

    The :class:`~repro.campaign.store.ResultStore` core with a shard
    layout, writer-side locking and idempotent ``put`` layered on top.
    """

    def __init__(
        self, root: str | os.PathLike, *, shards: int = DEFAULT_SHARDS
    ) -> None:
        if not 1 <= shards <= MAX_SHARDS:
            raise ValueError(f"shards must be in [1, {MAX_SHARDS}], got {shards!r}")
        root = Path(root)
        # An existing sharded store dictates its own shard count — the
        # layout on disk wins over the constructor argument.
        existing = self._existing_shard_count(root)
        self._shards = existing if existing is not None else int(shards)
        super().__init__(root)

    @staticmethod
    def _existing_shard_count(root: Path) -> int | None:
        """The shard count recorded in an existing meta.json, if any."""
        try:
            meta = json.loads((root / META_FILE).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        count = meta.get("shards")
        return int(count) if isinstance(count, int) and count >= 1 else None

    # ------------------------------------------------------------- layout

    @property
    def shards(self) -> int:
        """The store's shard count (fixed at creation)."""
        return self._shards

    def _meta(self) -> dict:
        return {
            "store_format": SHARDED_STORE_FORMAT,
            "spec_schema": SPEC_SCHEMA_VERSION,
            "shards": self._shards,
        }

    def _shard_path(self, index: int) -> Path:
        return self.root / SHARD_DIR / f"results-{index:02x}.jsonl"

    def _file_for(self, key: str) -> Path:
        return self._shard_path(shard_index(key, self._shards))

    def _result_files(self) -> list[Path]:
        shard_dir = self.root / SHARD_DIR
        if not shard_dir.is_dir():
            return []
        return sorted(
            p
            for p in shard_dir.glob("results-*.jsonl")
            if not p.name.startswith(".")
        )

    def _shard_lock(self, path: Path) -> FileLock:
        return FileLock(path.with_name(path.name + ".lock"))

    # --------------------------------------------------------------- load

    def _load(self) -> None:
        (self.root / SHARD_DIR).mkdir(parents=True, exist_ok=True)
        self._migrate_legacy()
        super()._load()

    def _migrate_legacy(self) -> None:
        """Fold a flat ``results.jsonl`` into shards, once, under a lock.

        Raw lines are distributed verbatim (the per-line format is
        identical), unparseable ones go to the root sidecar, and the flat
        file is renamed ``results.jsonl.migrated`` so a second opener
        sees nothing to do.
        """
        legacy = self.root / RESULTS_FILE
        if not legacy.exists():
            return
        with FileLock(self.root / SHARD_DIR / ".migrate.lock"):
            if not legacy.exists():  # another process won the race
                return
            buckets: dict[Path, list[str]] = {}
            bad: list[str] = []
            with legacy.open("r", encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        key = json.loads(line)["key"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        bad.append(line)
                        continue
                    buckets.setdefault(self._file_for(key), []).append(line)
            for path, lines in buckets.items():
                self._write_lines(path, lines)
            if bad:
                self._write_lines(
                    legacy.with_name(legacy.name + CORRUPT_SUFFIX), bad
                )
            self._dirsync(self.root / SHARD_DIR)
            legacy.replace(legacy.with_name(legacy.name + ".migrated"))
            self._dirsync(self.root)

    # -------------------------------------------------------------- writes

    def put(self, spec, result, *, runtime: dict | None = None) -> str:
        """Record one finished cell, exactly once per content key.

        Under the shard lock the store first ingests concurrent appends;
        if the key is already present the call is an idempotent no-op —
        the second finisher of a stolen run does not duplicate the line.
        """
        key = spec.key()
        path = self._file_for(key)
        with self._shard_lock(path):
            self._read_file(path, tail_is_torn=False)
            if key in self._index:
                return key
            return super().put(spec, result, runtime=runtime)

    def put_error(self, spec, error: dict) -> str:
        """Record one permanent failure — unless a success already exists.

        A completed result always outranks an error for the same
        (deterministic) key, so a late error from a presumed-dead worker
        never shadows the thief's success.
        """
        key = spec.key()
        path = self._file_for(key)
        with self._shard_lock(path):
            self._read_file(path, tail_is_torn=False)
            if key in self._index:
                return key
            return super().put_error(spec, error)

    # ---------------------------------------------------------- compaction

    def compact(self) -> CompactionStats:
        """Fold every shard to one line per key; crash-safe, lock-guarded.

        Keeps, per key, the **last success** line (its runtime included)
        or — when no success exists — the **last error** line: exactly
        what the in-memory index derives from the full history, so reads
        before and after compaction are bit-identical.  Each shard is
        rewritten to a tmp file, fsynced, then renamed over the original;
        a crash at any point leaves a complete shard (old or new) behind.
        """
        stats = CompactionStats()
        for path in self._result_files():
            with self._shard_lock(path):
                self._compact_shard(path, stats)
        # Everything just read is already indexed; offsets were advanced
        # inside the lock, so concurrent refreshes stay cheap.
        return stats

    def _compact_shard(self, path: Path, stats: CompactionStats) -> None:
        successes: dict[str, str] = {}
        errors: dict[str, str] = {}
        order: list[str] = []
        bad: list[str] = []
        lines_before = 0
        with path.open("r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                lines_before += 1
                try:
                    record = json.loads(line)
                    key = record["key"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    bad.append(line)
                    continue
                if key not in successes and key not in errors:
                    order.append(key)
                if "error" in record:
                    errors[key] = line
                else:
                    successes[key] = line
        kept = [successes.get(key) or errors[key] for key in order]
        self._rewrite(path, kept)
        if bad:
            self._write_lines(path.with_name(path.name + CORRUPT_SUFFIX), bad)
        # Re-ingest the folded shard (idempotent): this both picks up any
        # lines other writers appended since our last refresh and leaves
        # the offset at the new file's end.
        self._offsets.pop(path, None)
        self._read_file(path, tail_is_torn=False)
        stats.shards += 1
        stats.lines_before += lines_before
        stats.lines_after += len(kept)
        stats.quarantined += len(bad)


def open_store(
    root: str | os.PathLike, *, shards: int | None = None
) -> ShardedResultStore:
    """Open (or create) the store at ``root`` — every store opener's entry.

    An existing store keeps its recorded shard count; a new one gets
    ``shards`` (default :data:`DEFAULT_SHARDS`); a flat pre-shard
    ``results.jsonl`` is migrated into shards on the way in.
    """
    return ShardedResultStore(root, shards=shards or DEFAULT_SHARDS)
