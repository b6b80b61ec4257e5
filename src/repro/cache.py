"""Content-addressed two-tier cache for experiment results.

:class:`ResultCache` memoizes the result rows of individual runner tasks
behind a content key, so repeated and overlapping sweeps stop recomputing
experiments whose inputs have not changed.  The store is deliberately dumb:
keys are opaque SHA-256 hex digests the caller derives from canonical JSON
(:func:`content_key`), values are JSON-serializable row lists, and the cache
never interprets either.

Two tiers:

* **memory** -- a process-wide LRU of canonical-JSON entries (capacity via
  ``REPRO_CACHE_MEMORY_ENTRIES``, default 256).  Entries are stored as
  serialized text and parsed on every hit, so a memory hit returns exactly
  the objects a disk hit would -- and callers can never mutate the cached
  copy.
* **disk** -- a persistent content-addressed directory
  (``REPRO_CACHE_DIR`` or ``~/.cache/repro``), layered *behind* the memory
  tier.  Entries live at ``v<schema>/<key[:2]>/<key>.json`` and are written
  atomically (unique temp file + ``os.replace``), so concurrent writers on
  the same entry can never produce a torn read: a reader sees either the
  old complete entry or the new complete entry.

Every disk entry is self-verifying.  It is one line of canonical JSON
header -- ``{"key", "package_version", "rows_sha256", "schema"}`` -- then a
newline, then the rows' canonical JSON (which contains no raw newline), and
``rows_sha256`` is the SHA-256 of those row bytes exactly as stored.  A
load hashes the bytes it read, parses them once and hands the same text to
the memory tier, so a disk hit serializes nothing.  A load that finds
anything wrong -- an unparseable header or body, a truncated file, a schema
or key mismatch, a row digest that does not match -- evicts the entry and
reports a miss instead of crashing, so a corrupted cache degrades to
recomputation.

This module reads no wall clocks and draws no randomness: eviction is
explicit (:func:`clear_disk_cache`) or LRU-capacity driven, never TTL
based, so cache behaviour is a pure function of the calls made against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Mapping
from typing import Any

#: Bump when the on-disk entry layout changes; old entries become invisible
#: (they live under their own ``v<N>`` directory) rather than misread.
#: Version 2: a header line, then the rows' canonical JSON.
CACHE_SCHEMA_VERSION = 2

#: The cache modes :class:`ResultCache` (and ``ExperimentSpec.cache``) accept.
CACHE_MODES = ("off", "memory", "disk")

#: Environment variable overriding the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable overriding the memory-tier LRU capacity.
CACHE_MEMORY_ENTRIES_ENV = "REPRO_CACHE_MEMORY_ENTRIES"

_DEFAULT_MEMORY_ENTRIES = 256


def canonical_json(value: Any) -> str:
    """The canonical serialized form: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def content_key(body: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of ``body``'s canonical JSON form.

    >>> key = content_key({"experiment": "waste", "tp_size": 32})
    >>> key == content_key({"tp_size": 32, "experiment": "waste"})
    True
    >>> len(key)
    64
    """
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def cache_dir() -> Path:
    """The on-disk cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _memory_capacity() -> int:
    raw = os.environ.get(CACHE_MEMORY_ENTRIES_ENV)
    if raw is None:
        return _DEFAULT_MEMORY_ENTRIES
    try:
        return max(1, int(raw))
    except ValueError:
        return _DEFAULT_MEMORY_ENTRIES


# One process-wide LRU shared by every ResultCache instance: repeated runner
# invocations in the same process hit it regardless of which instance stored
# the entry.  Values are canonical-JSON strings (see module docstring).
_MEMORY: OrderedDict[str, str] = OrderedDict()
_MEMORY_LOCK = threading.Lock()


def clear_memory_cache() -> int:
    """Drop every memory-tier entry; returns how many were held."""
    with _MEMORY_LOCK:
        count = len(_MEMORY)
        _MEMORY.clear()
    return count


class ResultCache:
    """Two-tier content-addressed store for JSON result rows.

    ``mode`` is one of :data:`CACHE_MODES`: ``"off"`` turns every operation
    into a no-op (``get`` always misses), ``"memory"`` uses only the
    process-wide LRU, ``"disk"`` layers the persistent tier behind it.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     cache = ResultCache("disk", tmp)
    ...     key = content_key({"experiment": "waste"})
    ...     cache.get(key) is None
    ...     cache.put(key, [{"metrics": {"x": 0.5}}])
    ...     cache.get(key)
    True
    True
    [{'metrics': {'x': 0.5}}]
    """

    def __init__(self, mode: str, directory: str | os.PathLike[str] | None = None) -> None:
        if mode not in CACHE_MODES:
            raise ValueError(f"unknown cache mode {mode!r}; known: {list(CACHE_MODES)}")
        self.mode = mode
        self.directory = Path(directory) if directory is not None else cache_dir()
        self.memory_entries = _memory_capacity()

    # -------------------------------------------------------------- interface
    def get(self, key: str) -> list[dict[str, Any]] | None:
        """The cached rows for ``key``, or ``None`` on a miss.

        Checks the memory tier first, then (in ``"disk"`` mode) the on-disk
        tier; a disk hit is promoted into the memory LRU.  Corrupt disk
        entries are evicted and reported as misses.
        """
        if self.mode == "off":
            return None
        with _MEMORY_LOCK:
            text = _MEMORY.get(key)
            if text is not None:
                _MEMORY.move_to_end(key)
        if text is not None:
            return _parse_rows(text)
        if self.mode != "disk":
            return None
        loaded = self._load_disk(key)
        if loaded is None:
            return None
        rows, text = loaded
        self._remember(key, text)
        return rows

    def put(self, key: str, rows: list[dict[str, Any]]) -> bool:
        """Store ``rows`` under ``key`` in every enabled tier.

        Disk writes are atomic (temp file + ``os.replace``) and best-effort:
        an unwritable cache directory degrades to memory-only caching rather
        than failing the computation that produced the rows.  Returns whether
        the entry landed in the mode's primary tier (always ``True`` for
        ``"memory"``; ``False`` in ``"disk"`` mode when the write failed).
        """
        if self.mode == "off":
            return False
        text = canonical_json(rows)
        self._remember(key, text)
        if self.mode == "disk":
            return self._store_disk(key, text)
        return True

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s entry lives (or would live) on disk."""
        return self.directory / f"v{CACHE_SCHEMA_VERSION}" / key[:2] / f"{key}.json"

    # ---------------------------------------------------------- memory tier
    def _remember(self, key: str, text: str) -> None:
        with _MEMORY_LOCK:
            _MEMORY[key] = text
            _MEMORY.move_to_end(key)
            while len(_MEMORY) > self.memory_entries:
                _MEMORY.popitem(last=False)

    # ------------------------------------------------------------ disk tier
    def _load_disk(self, key: str) -> tuple[list[dict[str, Any]], str] | None:
        path = self.entry_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        loaded = _parse_entry(key, data)
        if loaded is None:
            _evict(path)
        return loaded

    def _store_disk(self, key: str, text: str) -> bool:
        header = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "package_version": _package_version(),
            "rows_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        path = self.entry_path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(f"{canonical_json(header)}\n{text}".encode())
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
            return False
        return True


def _parse_entry(key: str, data: bytes) -> tuple[list[dict[str, Any]], str] | None:
    """A disk entry's rows and their stored text; ``None`` if stale or corrupt."""
    head, newline, body = data.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError:
        return None
    if (
        not newline
        or not isinstance(header, dict)
        or header.get("schema") != CACHE_SCHEMA_VERSION
        or header.get("key") != key
        or header.get("rows_sha256") != hashlib.sha256(body).hexdigest()
    ):
        return None
    try:
        text = body.decode("utf-8")
        rows = json.loads(text)
    except ValueError:
        return None
    return (rows, text) if isinstance(rows, list) else None


def _parse_rows(text: str) -> list[dict[str, Any]]:
    rows: list[dict[str, Any]] = json.loads(text)
    return rows


def _evict(path: Path) -> None:
    """Best-effort removal of a corrupt or stale entry."""
    with contextlib.suppress(OSError):
        path.unlink()


def _package_version() -> str:
    import repro

    return str(getattr(repro, "__version__", "0"))


# ------------------------------------------------------------- operability
@dataclass(frozen=True)
class CacheInfo:
    """A point-in-time summary of the on-disk tier (``repro cache info``)."""

    directory: str
    schema_version: int
    entries: int
    total_bytes: int


def disk_cache_info(directory: str | os.PathLike[str] | None = None) -> CacheInfo:
    """Entry count and total size of the current-schema on-disk tier."""
    base = Path(directory) if directory is not None else cache_dir()
    root = base / f"v{CACHE_SCHEMA_VERSION}"
    entries = 0
    total_bytes = 0
    if root.is_dir():
        for path in sorted(root.rglob("*.json")):
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
    return CacheInfo(
        directory=str(base),
        schema_version=CACHE_SCHEMA_VERSION,
        entries=entries,
        total_bytes=total_bytes,
    )


def clear_disk_cache(directory: str | os.PathLike[str] | None = None) -> int:
    """Remove every on-disk entry (all schema versions); returns the count.

    Only ``v<digit>``-prefixed subdirectories of the cache root are touched,
    so pointing ``REPRO_CACHE_DIR`` at a shared directory cannot make
    ``clear`` delete unrelated files.
    """
    base = Path(directory) if directory is not None else cache_dir()
    removed = 0
    for version_dir in sorted(base.glob("v[0-9]*")):
        if not version_dir.is_dir():
            continue
        for path in sorted(version_dir.rglob("*.json")):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        for sub in sorted(version_dir.rglob("*"), reverse=True):
            if sub.is_dir():
                with contextlib.suppress(OSError):
                    sub.rmdir()
        with contextlib.suppress(OSError):
            version_dir.rmdir()
    return removed


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_MEMORY_ENTRIES_ENV",
    "CACHE_MODES",
    "CACHE_SCHEMA_VERSION",
    "CacheInfo",
    "ResultCache",
    "cache_dir",
    "canonical_json",
    "clear_disk_cache",
    "clear_memory_cache",
    "content_key",
    "disk_cache_info",
]
