"""On-disk content-addressed result cache for sweep cells.

Layout: one JSON file per cell under ``<root>/<key[:2]>/<key>.json``,
wrapped in an envelope ``{"schema", "key", "payload", "created_unix"}``.
Writes are atomic (temp file + ``os.replace`` in the same directory), so
a crash mid-write can leave a stray temp file but never a half-entry.

Reads are *paranoid*: an entry that fails to parse, carries the wrong
schema version, or names a different key than its filename is moved to
``<root>/quarantine/`` and reported as a miss -- corrupt state can slow a
sweep down, never poison or crash it.  Quarantined files keep their bytes
for post-mortems.

The cache never compares payload contents: the key already encodes the
full cell identity (config digest, workload, mapping, scale, seed) plus
the cache schema and pipeline versions, so a hit is by construction the
result of an identical computation.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional

from .cells import CACHE_SCHEMA_VERSION


class ResultCache:
    """Content-addressed store of completed cell payloads."""

    def __init__(self, root: "str | os.PathLike[str]"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Per-instance traffic counters (this process's view, not global).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0

    # -- paths ------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- read -------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or None (miss / quarantined)."""
        path = self.entry_path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
            if entry.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError(
                    f"schema {entry.get('schema')!r} != {CACHE_SCHEMA_VERSION}"
                )
            if entry.get("key") != key:
                raise ValueError(f"entry names key {entry.get('key')!r}")
            payload = entry["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload is not an object")
        except Exception:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _quarantine(self, path: Path) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self.quarantine_dir / path.name)
            self.quarantined += 1
        except OSError:
            # Someone else already moved/removed it; a miss either way.
            pass

    # -- write ------------------------------------------------------------
    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store one payload atomically (idempotent: last write wins, and
        for a content-addressed key every write carries identical data)."""
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            # repro-lint: allow[DET101] reason=creation stamp is envelope metadata, never key material
            "created_unix": round(time.time(), 3),
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    # -- maintenance ------------------------------------------------------
    def _entry_files(self):
        for shard in sorted(self.root.iterdir()):
            if shard.name == "quarantine" or not shard.is_dir():
                continue
            yield from sorted(shard.glob("*.json"))

    def stats(self) -> Dict[str, Any]:
        """On-disk inventory plus this instance's traffic counters."""
        entries = list(self._entry_files())
        quarantined = (
            list(self.quarantine_dir.glob("*"))
            if self.quarantine_dir.exists()
            else []
        )
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "quarantined": len(quarantined),
            "schema": CACHE_SCHEMA_VERSION,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
            },
        }

    def clear(self, include_quarantine: bool = True) -> int:
        """Delete cached entries; returns how many were removed."""
        removed = 0
        for path in list(self._entry_files()):
            path.unlink(missing_ok=True)
            removed += 1
        if include_quarantine and self.quarantine_dir.exists():
            for path in list(self.quarantine_dir.glob("*")):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
