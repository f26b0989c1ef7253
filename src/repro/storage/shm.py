"""Zero-copy database sharing via POSIX shared memory.

:class:`~repro.harness.parallel.MorselPool` is the one user: its
persistent workers attach the parent's database instead of pickling or
regenerating it.  This module exports a database's
column arrays **once** into a single
:class:`multiprocessing.shared_memory.SharedMemory` segment and hands
workers a small picklable :class:`ShmManifest`; attaching maps the
segment and wraps read-only numpy views around the same physical pages
— no copies, no pickling of array data, O(columns) attach time.

Lifecycle:

* :func:`export_database` lays out every column back-to-back in one
  segment and returns the manifest.  Exports are memoised per database
  object, unlinked by :func:`invalidate` (which
  ``repro.engine.caches.forget`` calls) and, as a fallback, at
  interpreter exit.
* :func:`attach_database` (worker side) opens the segment by name,
  checks its header and every column's crc32, and rebuilds an
  equivalent :class:`~repro.storage.Database` whose column ``values``
  are read-only views into shared pages.  The attach is unregistered
  from :mod:`multiprocessing.resource_tracker` so a worker exiting
  cannot destroy a segment the parent still owns.
* :func:`detach_all` closes a process's attachments (used by tests; a
  worker exiting cleans up via the same atexit hook).

Only the exporting process ever unlinks.  Dictionaries travel in the
manifest (they are small python lists); per-column access statistics
are *not* shared — each process records its own.
"""

from __future__ import annotations

import atexit
import os
import struct
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple
from weakref import WeakValueDictionary

import numpy as np

from repro.storage.column import Column
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.types import ColumnType

try:  # stdlib since 3.8; guarded for exotic platforms without shm
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover
    shared_memory = None
    resource_tracker = None

_ALIGN = 64  # cache-line align every column within the segment

#: fixed-size segment header: magic, epoch, payload bytes, creator pid.
#: Validated on attach so a stale manifest (pointing at a recycled or
#: re-exported segment) fails loudly instead of serving wrong bytes.
_MAGIC = b"REPROSHM"
_HEADER_FMT = "<8sQQQ"
_HEADER_SIZE = _ALIGN  # struct needs 32 bytes; pad to one cache line

#: segment names are self-describing (``repro-<pid>-<epoch>-<salt>``) so
#: orphan reaping can tell whether the creating process is still alive
#: without any side-channel registry.
_NAME_PREFIX = "repro-"

#: export/attach accounting (surfaced by MetricsCollector)
stats = {
    "exports": 0,
    "attaches": 0,
    "exported_bytes": 0,
    "attach_seconds": 0.0,
    "integrity_failures": 0,
    "verified_columns": 0,
    "orphans_reaped": 0,
}


class ShmIntegrityError(RuntimeError):
    """A segment failed header or checksum validation on attach."""


def available() -> bool:
    """True when this platform supports shared-memory export."""
    return shared_memory is not None


def _tracker_pid() -> Optional[int]:
    """Pid of this process's resource-tracker daemon (None if unknown)."""
    if resource_tracker is None:
        return None
    return getattr(resource_tracker._resource_tracker, "_pid", None)


@dataclass(frozen=True)
class ColumnSpec:
    """Where one column lives inside the segment (picklable)."""

    table: str
    name: str
    ctype: str  # ColumnType value
    dtype: str
    offset: int
    rows: int
    nominal_rows: int
    dictionary: Optional[Tuple[str, ...]] = None
    compression: Optional[object] = None
    #: crc32 of the column's bytes at export time (0 = unchecked)
    checksum: int = 0


@dataclass(frozen=True)
class ShmManifest:
    """Everything a worker needs to reattach a database (picklable)."""

    shm_name: str
    database_name: str
    total_bytes: int
    #: pid of the exporting process's resource-tracker daemon; workers
    #: that share it (fork) must NOT unregister the segment, workers
    #: with their own tracker (spawn) must (see attach_database)
    tracker_pid: Optional[int] = None
    #: export generation; attach rejects a manifest whose epoch does
    #: not match the segment header (stale-manifest detection)
    epoch: int = 0
    #: pid of the exporting process (orphan reaping probes it)
    created_pid: int = 0
    #: table name -> explicit nominal row count (None = unscaled)
    table_nominal_rows: Dict[str, Optional[int]] = field(default_factory=dict)
    columns: Tuple[ColumnSpec, ...] = ()


class _Export:
    """A live export: the owning segment plus its manifest."""

    __slots__ = ("shm", "manifest")

    def __init__(self, shm, manifest):
        self.shm = shm
        self.manifest = manifest

    def unlink(self) -> None:
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # already gone
            pass
        _created_names.discard(self.manifest.shm_name)


#: id(database) -> _Export; the WeakValueDictionary below notices when
#: the database object itself dies so the id can be reclaimed safely.
_exports: Dict[int, _Export] = {}
_export_owners: "WeakValueDictionary[int, Database]" = WeakValueDictionary()

#: segments this process has *attached* (worker side): name -> shm
_attached: Dict[str, object] = {}

#: every segment name this process ever created and has not yet
#: unlinked — the leak-check registry consulted by leaked_segments()
_created_names: Set[str] = set()

#: (name, epoch) pairs already checksum-verified in this process
_verified: Set[Tuple[str, int]] = set()

#: monotonically increasing export generation for this process
_epoch = 0


def _next_epoch() -> int:
    global _epoch
    _epoch += 1
    return _epoch


def _segment_path(name: str) -> str:
    return os.path.join("/dev/shm", name.lstrip("/"))


def segment_exists(name: str) -> bool:
    """True when the named segment is still linked in the filesystem."""
    return os.path.exists(_segment_path(name))


def leaked_segments() -> List[str]:
    """Segments this process created that outlive their export.

    A name still on disk whose :class:`_Export` is gone was leaked —
    e.g. an abnormal exit path skipped ``invalidate``.  Live exports
    are not leaks.
    """
    live = {export.manifest.shm_name for export in _exports.values()}
    return sorted(
        name for name in _created_names
        if name not in live and segment_exists(name)
    )


def reap_orphans() -> int:
    """Unlink segments whose creating process is dead (pool startup).

    Only names matching our ``repro-<pid>-...`` pattern are touched;
    a pid that no longer exists (or that we cannot signal and is not
    ours) marks the segment as orphaned.  Returns the reap count.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # non-Linux: nothing to scan
        return 0
    reaped = 0
    try:
        names = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - scan denied
        return 0
    for name in names:
        if not name.startswith(_NAME_PREFIX):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[1])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid():
            continue  # our own live exports are reaped via invalidate
        try:
            os.kill(pid, 0)
            continue  # creator still alive
        except ProcessLookupError:
            pass  # creator is gone: orphan
        except PermissionError:
            continue  # alive, owned by someone else
        try:
            os.unlink(os.path.join(shm_dir, name))
            reaped += 1
        except OSError:  # pragma: no cover - raced another reaper
            continue
    stats["orphans_reaped"] += reaped
    return reaped


def export_database(database: Database) -> ShmManifest:
    """Export ``database``'s columns into one shared segment (memoised).

    Returns the picklable manifest to hand to worker processes.
    """
    if shared_memory is None:
        raise RuntimeError("shared memory is not available on this platform")
    _reap_dead_exports()
    export = _exports.get(id(database))
    if export is not None:
        return export.manifest

    specs: List[ColumnSpec] = []
    offset = _HEADER_SIZE
    layout: List[Tuple[Column, int]] = []
    for table in database.tables:
        for column in table.columns:
            offset = -(-offset // _ALIGN) * _ALIGN
            layout.append((column, offset))
            offset += column.values.nbytes
    total = offset

    epoch = _next_epoch()
    shm = _create_segment(epoch, total)
    struct.pack_into(_HEADER_FMT, shm.buf, 0,
                     _MAGIC, epoch, total, os.getpid())
    for column, start in layout:
        values = np.ascontiguousarray(column.values)
        view = np.ndarray(values.shape, dtype=values.dtype,
                          buffer=shm.buf, offset=start)
        view[:] = values
        specs.append(ColumnSpec(
            table=column.table,
            name=column.name,
            ctype=column.ctype.value,
            dtype=values.dtype.str,
            offset=start,
            rows=len(values),
            nominal_rows=column.nominal_rows,
            dictionary=(tuple(column.dictionary)
                        if column.dictionary is not None else None),
            compression=column.compression,
            checksum=zlib.crc32(values),
        ))
    manifest = ShmManifest(
        shm_name=shm.name,
        database_name=database.name,
        total_bytes=total,
        tracker_pid=_tracker_pid(),
        epoch=epoch,
        created_pid=os.getpid(),
        table_nominal_rows={
            table.name: table._nominal_rows for table in database.tables
        },
        columns=tuple(specs),
    )
    _exports[id(database)] = _Export(shm, manifest)
    _export_owners[id(database)] = database
    _created_names.add(shm.name)
    stats["exports"] += 1
    stats["exported_bytes"] += total
    return manifest


def _create_segment(epoch: int, total: int):
    """Create a self-describing named segment (retrying collisions)."""
    for salt in range(1 << 16):
        name = "{}{}-{}-{:x}".format(_NAME_PREFIX, os.getpid(), epoch, salt)
        try:
            return shared_memory.SharedMemory(
                create=True, size=total, name=name)
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a unique shm segment name")


def _validate_segment(shm, manifest: ShmManifest) -> None:
    """Header + per-column checksum validation (attach side)."""
    if len(shm.buf) < _HEADER_SIZE:
        raise ShmIntegrityError(
            "segment {} too small for header".format(manifest.shm_name))
    magic, epoch, total, _pid = struct.unpack_from(_HEADER_FMT, shm.buf, 0)
    if magic != _MAGIC:
        raise ShmIntegrityError(
            "segment {} has bad magic {!r}".format(manifest.shm_name, magic))
    if epoch != manifest.epoch or total != manifest.total_bytes:
        raise ShmIntegrityError(
            "stale manifest for {}: manifest epoch {} / {} bytes, segment "
            "epoch {} / {} bytes".format(
                manifest.shm_name, manifest.epoch, manifest.total_bytes,
                epoch, total))
    for spec in manifest.columns:
        nbytes = np.dtype(spec.dtype).itemsize * spec.rows
        actual = zlib.crc32(shm.buf[spec.offset:spec.offset + nbytes])
        if actual != spec.checksum:
            raise ShmIntegrityError(
                "checksum mismatch for {}.{} in {}: expected {:#010x}, "
                "got {:#010x}".format(spec.table, spec.name,
                                      manifest.shm_name, spec.checksum,
                                      actual))
        stats["verified_columns"] += 1


def attach_database(manifest: ShmManifest) -> Database:
    """Rebuild a database from ``manifest`` over shared pages.

    Column arrays are read-only views into the segment — mutating
    attached data is a bug, and numpy will raise on the attempt.
    """
    if shared_memory is None:
        raise RuntimeError("shared memory is not available on this platform")
    start = perf_counter()
    shm = _attached.get(manifest.shm_name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=manifest.shm_name)
        # Attaching registered the segment with *this* process's
        # resource tracker (stdlib behaviour through 3.12), which would
        # unlink it when this process exits.  Undo that — but only when
        # the tracker is our own (spawn): under fork we share the
        # exporter's tracker, where the duplicate registration deduped
        # to a no-op and unregistering would strip the exporter's entry.
        if (resource_tracker is not None
                and _tracker_pid() != manifest.tracker_pid):
            try:
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:  # pragma: no cover - tracker internals
                pass
        _attached[manifest.shm_name] = shm
    key = (manifest.shm_name, manifest.epoch)
    if key not in _verified:
        try:
            _validate_segment(shm, manifest)
        except ShmIntegrityError:
            stats["integrity_failures"] += 1
            _attached.pop(manifest.shm_name, None)
            try:
                shm.close()
            except (BufferError, OSError):  # pragma: no cover
                pass
            raise
        _verified.add(key)

    database = Database(manifest.database_name)
    tables: Dict[str, Table] = {}
    for name, nominal in manifest.table_nominal_rows.items():
        tables[name] = database.create_table(name, nominal_rows=nominal)
    for spec in manifest.columns:
        view = np.ndarray((spec.rows,), dtype=np.dtype(spec.dtype),
                          buffer=shm.buf, offset=spec.offset)
        view.flags.writeable = False
        column = Column(
            spec.table, spec.name, ColumnType(spec.ctype), view,
            nominal_rows=spec.nominal_rows,
            dictionary=(list(spec.dictionary)
                        if spec.dictionary is not None else None),
        )
        column.compression = spec.compression
        tables[spec.table]._attach(column)
    stats["attaches"] += 1
    stats["attach_seconds"] += perf_counter() - start
    return database


def detach_all() -> None:
    """Close every segment this process attached (worker cleanup)."""
    for shm in _attached.values():
        try:
            shm.close()
        except (BufferError, OSError):  # views still alive: leave mapped
            pass
    _attached.clear()


def forget_exports() -> None:
    """Drop export bookkeeping inherited across fork — WITHOUT unlinking.

    A forked worker inherits the parent's ``_exports`` registry; the
    segments in it belong to the parent, so the worker must forget (not
    unlink) them.  Called from worker initialisers.
    """
    _exports.clear()
    _created_names.clear()


def _reap_dead_exports() -> None:
    """Unlink exports whose owning database object has been collected."""
    for key in list(_exports):
        if key not in _export_owners:
            _exports.pop(key).unlink()


def invalidate(database: Optional[Database] = None) -> None:
    """Unlink shared exports — all of them, or one database's.

    ``repro.engine.caches.forget`` calls it, so shared segments go
    down with every other piece of state derived from a database.
    """
    if database is None:
        for export in _exports.values():
            export.unlink()
        _exports.clear()
        return
    export = _exports.pop(id(database), None)
    if export is not None:
        export.unlink()
    _reap_dead_exports()


def retire(database: Database) -> Optional[_Export]:
    """Take ``database``'s export out of the registry WITHOUT unlinking
    it — the next :func:`export_database` makes a fresh one.  The caller
    owns the returned export and must ``unlink()`` it; until then
    :func:`leaked_segments` reports it."""
    return _exports.pop(id(database), None)


def export_count(database: Optional[Database] = None) -> int:
    if database is not None:
        return 1 if id(database) in _exports else 0
    return len(_exports)


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter exit
    invalidate()
    detach_all()
