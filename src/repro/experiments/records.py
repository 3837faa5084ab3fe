"""Columnar storage for sweep result records (the *result plane*).

:mod:`repro.experiments.runner` produces one flat record per simulated
(tree, processors, memory factor, heuristic) instance.  Up to PR 2 those
records lived as a ``list[dict]``: every worker pickled full dicts through
the pool pipe and every aggregation walked Python objects — the first
bottleneck ROADMAP flags for the paper's million-instance campaigns.

:class:`RecordTable` replaces the list-of-dicts as the canonical sweep
output.  It is **columnar**: one typed NumPy array per record field, all of
them slices of a single contiguous arena (mirroring
:class:`~repro.core.tree_store.TreeStore`), so that

* the :class:`~repro.experiments.backends.SharedMemoryBackend` can
  preallocate the whole result buffer in named shared memory, let workers
  write rows in place and ship back only **row indices** (a pickled ``int``
  instead of a pickled dict),
* :mod:`repro.experiments.metrics` aggregates over columns with vectorised
  NumPy operations instead of per-record Python loops, and
* :meth:`RecordTable.save` / :meth:`RecordTable.load` persist the same arena
  bytes to disk (mmap-able, versioned header like
  :mod:`repro.core.tree_store`), which backs the :class:`ResultCache` used
  by :func:`repro.experiments.suite.run_suite` to skip already-computed
  sweeps.

Compatibility: a :class:`RecordTable` behaves as a read-only sequence of
plain-``dict`` records (:meth:`RecordTable.to_dicts`, ``__iter__``,
``__getitem__``, ``==`` against a list of dicts), so every call site written
against the PR 2 list-of-dicts pipeline keeps working unchanged, and the
round-tripped values are identical to the dicts :func:`~repro.experiments.runner.run_single`
produced (Python ``int``/``float``/``bool``/``str``/``None``, exact bits).

Arena layout (version 1, little-endian)::

    0   8 bytes   magic  b"MTRECTB1"
    8   u64       format version
    16  u64       number of rows
    24  u64       length of the JSON metadata block
    32  u64       offset of the data section (8-byte aligned)
    40  ...       JSON metadata: {"fields": [[name, dtype], ...],
                                  "metadata": {...free form...}}
    data_offset   one contiguous column per field, in schema order,
                  each column start 8-byte aligned

The record schema (:data:`RECORD_FIELDS`) is fixed and derived from
:func:`repro.experiments.runner.run_single` — a unit test asserts the two
never drift apart.  String fields use fixed-width unicode columns so rows
have a fixed size (a worker can write row ``i`` without coordination).

``failure_reason`` is nullable and **dictionary-encoded** (format version 2):
the column stores ``int32`` codes (``0`` encodes ``None``, ``k > 0`` the
``k``-th distinct message) and the small codes table travels in the arena's
JSON metadata.  Failure messages are few and templated while the historical
``U128`` column paid 512 bytes per row whether or not anything failed, so
failure-heavy sweeps shrink roughly 4x — and messages are no longer
truncated at 128 characters.  Codes are assigned in canonical row order by
whoever owns the table (the merge side of every backend), so equal sweeps
still produce byte-equal tables.  Version-1 files (fixed-width
``failure_reason``) still load: the column layout is described by the
embedded metadata, not hard-coded.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing import shared_memory

    from .config import SweepConfig

__all__ = [
    "Field",
    "RECORD_FIELDS",
    "RecordTable",
    "ResultCache",
    "InMemoryRowCache",
    "RowCache",
    "CACHE_SCHEMA_VERSION",
    "records_equal",
    "quarantine_corrupt_file",
]

#: Version of the :class:`ResultCache` keying scheme.  Participates in every
#: cache key (sweep blobs *and* instance rows), so bumping it orphans all
#: pre-existing entries — they are silently ignored (never crashed on) and
#: eventually overwritten.  Version 3 introduced instance-level row storage
#: and retired the pre-plan sweep-level keying.
CACHE_SCHEMA_VERSION = 3

_MAGIC = b"MTRECTB1"
_VERSION = 2
#: magic, version, n_rows, meta_len, data_offset
_HEADER = struct.Struct("<8sQQQQ")


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


@dataclass(frozen=True)
class Field:
    """One column of the record schema."""

    name: str
    dtype: str  #: NumPy dtype string (``"<i8"``, ``"<f8"``, ``"|b1"``, ``"<U24"``)
    nullable: bool = False  #: ``None`` is representable (``""`` / code ``0``)
    #: ``"dict"`` for dictionary-encoded string columns: the column stores
    #: integer codes, the value table lives in the arena metadata.
    encoding: str | None = None

    # Cached per field: ``set_row`` reads both for every field of every row.
    @cached_property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @cached_property
    def str_width(self) -> int | None:
        """Character capacity for unicode columns, ``None`` for scalars."""
        dt = self.np_dtype
        return dt.itemsize // 4 if dt.kind == "U" else None


#: The fixed sweep-record schema, in the exact key order of
#: :func:`repro.experiments.runner.run_single`'s output dict.
RECORD_FIELDS: tuple[Field, ...] = (
    Field("tree_index", "<i8"),
    Field("tree_size", "<i8"),
    Field("tree_height", "<i8"),
    Field("scheduler", "<U24"),
    Field("num_processors", "<i8"),
    Field("memory_factor", "<f8"),
    Field("memory_limit", "<f8"),
    Field("minimum_memory", "<f8"),
    Field("completed", "|b1"),
    Field("makespan", "<f8"),
    Field("lower_bound", "<f8"),
    Field("classical_lower_bound", "<f8"),
    Field("memory_lower_bound", "<f8"),
    Field("normalized_makespan", "<f8"),
    Field("peak_memory", "<f8"),
    Field("memory_fraction", "<f8"),
    Field("scheduling_seconds", "<f8"),
    Field("scheduling_seconds_per_node", "<f8"),
    Field("activation_order", "<U16"),
    Field("execution_order", "<U16"),
    Field("failure_reason", "<i4", nullable=True, encoding="dict"),
)


def _column_offsets(
    fields: Sequence[Field], n_rows: int, data_offset: int
) -> tuple[list[int], int]:
    """Per-column arena offsets from ``data_offset`` on, and the total size."""
    offsets: list[int] = []
    cursor = int(data_offset)
    for field in fields:
        cursor = _align8(cursor)
        offsets.append(cursor)
        cursor += field.np_dtype.itemsize * n_rows
    return offsets, _align8(cursor)


def _layout(fields: Sequence[Field], n_rows: int, meta_bytes: bytes) -> tuple[int, list[int], int]:
    """Arena layout: (data offset, per-column offsets, total bytes)."""
    data_offset = _align8(_HEADER.size + len(meta_bytes))
    offsets, nbytes = _column_offsets(fields, n_rows, data_offset)
    return data_offset, offsets, nbytes


def _meta_bytes(
    fields: Sequence[Field],
    metadata: Mapping[str, Any] | None,
    codes: Mapping[str, Sequence[str]] | None = None,
) -> bytes:
    meta: dict[str, Any] = {
        "fields": [[f.name, f.dtype, f.nullable, f.encoding] for f in fields],
        "metadata": dict(metadata or {}),
    }
    if codes:  # only dictionary-encoded columns with at least one value
        non_empty = {name: list(values) for name, values in codes.items() if values}
        if non_empty:
            meta["codes"] = non_empty
    return json.dumps(meta, separators=(",", ":")).encode("utf-8")


class RecordTable:
    """A fixed-schema, arena-backed, columnar table of sweep records.

    Construct through the classmethods:

    * :meth:`empty` — preallocate ``n`` zeroed rows (writable);
    * :meth:`from_dicts` — convert a list of record dicts;
    * :meth:`load` — mmap (or read) a file written by :meth:`save`;
    * :meth:`create_shared` / :meth:`attach` — the shared-memory result
      buffer of the sweep backends.

    The table is also a read-only *sequence of dict records*: iterating
    yields plain dicts identical to the historical pipeline's, ``table[i]``
    materialises one row and ``table == [ {...}, ... ]`` compares values.
    """

    def __init__(
        self,
        buffer: "bytes | bytearray | memoryview | mmap.mmap",
        *,
        shm: "shared_memory.SharedMemory | None" = None,
        mmap_obj: mmap.mmap | None = None,
    ) -> None:
        """Wrap an existing arena ``buffer`` (bytearray, mmap or shm view).

        Most callers should use the classmethod constructors instead.
        """
        self._buffer = buffer
        self._shm = shm
        self._mmap = mmap_obj

        size = memoryview(buffer).nbytes
        if size < _HEADER.size:
            raise ValueError("buffer too small to hold a RecordTable header")
        magic, version, n_rows, meta_len, data_offset = _HEADER.unpack_from(buffer, 0)
        if magic != _MAGIC:
            raise ValueError("not a RecordTable arena (bad magic)")
        if version > _VERSION:
            raise ValueError(f"unsupported RecordTable version {version}")
        if data_offset % 8 != 0 or data_offset < _align8(_HEADER.size + meta_len):
            raise ValueError("not a RecordTable arena (invalid data offset)")
        if size < _HEADER.size + meta_len:
            raise ValueError("truncated RecordTable arena: metadata exceeds the buffer")
        meta = json.loads(bytes(memoryview(buffer)[_HEADER.size : _HEADER.size + meta_len]))
        fields = tuple(
            # Version-1 metadata carried [name, dtype, nullable]; version 2
            # appends the encoding.  Both load.
            Field(entry[0], entry[1], bool(entry[2]), entry[3] if len(entry) > 3 else None)
            for entry in meta["fields"]
        )

        offsets, nbytes = _column_offsets(fields, int(n_rows), int(data_offset))
        if size < nbytes:
            raise ValueError(f"truncated RecordTable arena: {size} bytes, layout needs {nbytes}")

        self._n_rows = int(n_rows)
        self._nbytes = int(nbytes)
        self.fields = fields
        self.metadata: dict[str, Any] = meta.get("metadata", {})
        # Dictionary-encoded columns: value tables (code k-1 -> string) and
        # the reverse index used when encoding rows.  They live Python-side
        # and are embedded into the arena metadata by ``save``.
        stored_codes = meta.get("codes", {})
        self._meta_raw = bytes(memoryview(buffer)[_HEADER.size : _HEADER.size + meta_len])
        self._dict_codes: dict[str, list[str]] = {}
        self._dict_index: dict[str, dict[str, int]] = {}
        for field in fields:
            if field.encoding == "dict":
                values = [str(v) for v in stored_codes.get(field.name, [])]
                self._dict_codes[field.name] = values
                self._dict_index[field.name] = {v: k + 1 for k, v in enumerate(values)}
        self._columns: dict[str, np.ndarray] = {}
        for field, offset in zip(fields, offsets):
            self._columns[field.name] = np.frombuffer(
                buffer, dtype=field.np_dtype, count=self._n_rows, offset=offset
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls, n_rows: int, *, metadata: Mapping[str, Any] | None = None) -> "RecordTable":
        """Preallocate a writable table of ``n_rows`` zeroed records."""
        if n_rows < 0:
            raise ValueError("n_rows must be >= 0")
        meta = _meta_bytes(RECORD_FIELDS, metadata)
        data_offset, _, nbytes = _layout(RECORD_FIELDS, n_rows, meta)
        arena = bytearray(nbytes)
        _HEADER.pack_into(arena, 0, _MAGIC, _VERSION, n_rows, len(meta), data_offset)
        arena[_HEADER.size : _HEADER.size + len(meta)] = meta
        return cls(arena)

    @classmethod
    def from_dicts(
        cls,
        records: Iterable[Mapping[str, Any]],
        *,
        metadata: Mapping[str, Any] | None = None,
    ) -> "RecordTable":
        """Build a table from record dicts (the historical pipeline format)."""
        records = list(records)
        table = cls.empty(len(records), metadata=metadata)
        for index, record in enumerate(records):
            table.set_row(index, record)
        return table

    @classmethod
    def load(cls, path: str | Path, *, use_mmap: bool = True) -> "RecordTable":
        """Open a table file written by :meth:`save`.

        With ``use_mmap=True`` (default) the file is memory-mapped read-only,
        so opening a huge result set is O(1) in I/O; the column arrays page
        in lazily.
        """
        path = Path(path)
        if use_mmap:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            return cls(mapped, mmap_obj=mapped)
        return cls(path.read_bytes())

    @classmethod
    def create_shared(
        cls, n_rows: int, *, metadata: Mapping[str, Any] | None = None, name: str | None = None
    ) -> "tuple[shared_memory.SharedMemory, RecordTable]":
        """Preallocate a table in a fresh named shared-memory block.

        Returns ``(shm, table)``: the caller owns the
        :class:`multiprocessing.shared_memory.SharedMemory` (``close()`` +
        ``unlink()`` when done — and :meth:`close` the table first, its
        column views pin the buffer); workers :meth:`attach` by ``shm.name``
        and write disjoint rows with :meth:`set_row` without any locking.
        """
        from multiprocessing import shared_memory

        meta = _meta_bytes(RECORD_FIELDS, metadata)
        data_offset, _, nbytes = _layout(RECORD_FIELDS, n_rows, meta)
        shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        try:
            _HEADER.pack_into(shm.buf, 0, _MAGIC, _VERSION, n_rows, len(meta), data_offset)
            shm.buf[_HEADER.size : _HEADER.size + len(meta)] = meta
            table = cls(shm.buf)
        except BaseException:
            shm.unlink()
            try:
                shm.close()
            except BufferError:  # the unwinding frame may still hold views
                pass
            raise
        return shm, table

    @classmethod
    def attach(cls, name: str) -> "RecordTable":
        """Attach to a table published with :meth:`create_shared` (writable)."""
        from ..core.tree_store import _open_shared_memory

        shm = _open_shared_memory(name)
        return cls(shm.buf, shm=shm)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _arena_view(self) -> memoryview:
        return memoryview(self._buffer)[: self._nbytes]

    def _rebuild_arena(self, meta: bytes) -> bytearray:
        """Repack the table into a fresh arena carrying ``meta``.

        Needed when the dictionary-code tables grew after the arena header
        was written: the metadata block changes length, which shifts every
        column offset, so the columns are copied into the new layout.
        """
        data_offset, offsets, nbytes = _layout(self.fields, self._n_rows, meta)
        arena = bytearray(nbytes)
        _HEADER.pack_into(arena, 0, _MAGIC, _VERSION, self._n_rows, len(meta), data_offset)
        arena[_HEADER.size : _HEADER.size + len(meta)] = meta
        for field, offset in zip(self.fields, offsets):
            view = np.frombuffer(arena, dtype=field.np_dtype, count=self._n_rows, offset=offset)
            view[:] = self._columns[field.name]
        return arena

    def to_bytes(self) -> bytes:
        """The self-describing arena bytes (the service wire format).

        Dictionary-code tables accumulated since the arena was created are
        embedded into the metadata block first, so the returned bytes always
        round-trip their encoded columns: ``RecordTable(table.to_bytes())``
        reproduces the table exactly.  When embedding forces a repack, the
        table adopts the rebuilt arena (codes included), so a second call
        on an unchanged table is zero-copy again.
        """
        meta = _meta_bytes(self.fields, self.metadata, self._dict_codes)
        if meta != self._meta_raw:
            # Re-initialise around the rebuilt arena: the embedded metadata
            # now carries the codes, so parsing restores them and _meta_raw
            # matches on the next call.  Previously handed-out column views
            # (and any old mmap/shm handle) stay alive on the old arena
            # until their last reference dies.
            self.__init__(self._rebuild_arena(meta))
        return bytes(self._arena_view())

    def save(self, path: str | Path) -> Path:
        """Write the arena to ``path`` (atomically) and return the path."""
        from ..resilience.atomic import atomic_write_bytes

        return atomic_write_bytes(path, self.to_bytes())

    def copy(self) -> "RecordTable":
        """Deep copy into a private in-memory arena (detached from shm/mmap)."""
        arena = bytearray(self._arena_view())
        table = RecordTable(arena)
        # Carry the runtime dictionary-code tables (the arena metadata only
        # catches up on save).
        table._dict_codes = {name: list(values) for name, values in self._dict_codes.items()}
        table._dict_index = {name: dict(index) for name, index in self._dict_index.items()}
        return table

    def close(self) -> None:
        """Drop the column views and release any mmap / shared-memory handle.

        Required before the owning shared-memory segment can be closed:
        the column arrays hold buffer exports into it.
        """
        self._columns = {}
        self._buffer = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    # ------------------------------------------------------------------ #
    # columnar access
    # ------------------------------------------------------------------ #
    @property
    def nbytes(self) -> int:
        """Size of the arena in bytes."""
        return self._nbytes

    def column(self, name: str) -> np.ndarray:
        """The NumPy column for ``name``.

        Plain fields return the arena view directly.  Dictionary-encoded
        fields are **decoded** into an object array of ``str | None`` so the
        values match the row views — callers filtering with
        ``table.column("failure_reason") == "deadlock..."`` compare strings,
        not private integer codes.  Use :meth:`raw_column` for the arena
        bytes.
        """
        field = self._field(name)
        if field.encoding == "dict":
            return np.asarray(self._decode_column(field), dtype=object)
        return self._columns[name]

    def raw_column(self, name: str) -> np.ndarray:
        """The raw arena view for ``name`` (integer codes for encoded fields)."""
        self._field(name)
        return self._columns[name]

    def _field(self, name: str) -> Field:
        for field in self.fields:
            if field.name == name:
                return field
        raise KeyError(
            f"unknown record field {name!r}; available: {[f.name for f in self.fields]}"
        )

    def _encode(self, field: Field, value: Any) -> int:
        """Dictionary-encode ``value`` for ``field`` (``None`` -> code 0)."""
        if value is None:
            if not field.nullable:
                raise ValueError(f"field {field.name!r} is not nullable")
            return 0
        index = self._dict_index[field.name]
        code = index.get(value)
        if code is None:
            codes = self._dict_codes[field.name]
            codes.append(value)
            code = index[value] = len(codes)
        return code

    def set_row(self, index: int, record: Mapping[str, Any]) -> None:
        """Write one record dict into row ``index`` (O(1), columnar placement).

        Every schema field must be present in ``record``; string values that
        exceed their column's fixed width raise (silent truncation would
        break the value-identity guarantee of the table).  Dictionary-encoded
        fields have no width limit — new values grow the codes table.
        """
        for field in self.fields:
            value = record[field.name]
            if field.encoding == "dict":
                value = self._encode(field, value)
            else:
                width = field.str_width
                if width is not None:
                    if value is None:
                        if not field.nullable:
                            raise ValueError(f"field {field.name!r} is not nullable")
                        value = ""
                    elif len(value) > width:
                        raise ValueError(
                            f"value of field {field.name!r} is {len(value)} characters, "
                            f"column capacity is {width}: {value!r}"
                        )
            self._columns[field.name][index] = value

    def set_value(self, index: int, name: str, value: Any) -> None:
        """Write one field of one row (encoding-aware).

        The shared-memory backend uses this to place canonical failure codes
        after the unordered worker results are collected: workers cannot
        share a growing codes table, so the merge side owns the encoding.
        """
        field = self._field(name)
        if field.encoding == "dict":
            value = self._encode(field, value)
        self._columns[name][index] = value

    # ------------------------------------------------------------------ #
    # dict-records view (compatibility with the list-of-dicts pipeline)
    # ------------------------------------------------------------------ #
    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialise every row as a plain dict (schema key order).

        Values come back as native Python scalars with exact bits —
        ``int`` / ``float`` / ``bool`` / ``str`` / ``None`` — so the result
        is value-identical to the historical ``run_single`` dicts.
        """
        names = []
        columns = []
        for field in self.fields:
            data = self._columns[field.name].tolist()
            if field.encoding == "dict":
                codes = self._dict_codes[field.name]
                data = [None if code == 0 else codes[code - 1] for code in data]
            elif field.nullable:
                data = [None if value == "" else value for value in data]
            names.append(field.name)
            columns.append(data)
        return [dict(zip(names, row)) for row in zip(*columns)]

    def row(self, index: int) -> dict[str, Any]:
        """Materialise one row as a plain dict."""
        if not -self._n_rows <= index < self._n_rows:
            raise IndexError(f"row index {index} out of range [0, {self._n_rows})")
        out: dict[str, Any] = {}
        for field in self.fields:
            value = self._columns[field.name][index].item()
            if field.encoding == "dict":
                codes = self._dict_codes[field.name]
                value = None if value == 0 else codes[value - 1]
            elif field.nullable and value == "":
                value = None
            out[field.name] = value
        return out

    def __len__(self) -> int:
        return self._n_rows

    def __getitem__(self, key: "str | int | slice") -> Any:
        if isinstance(key, str):
            return self.column(key)
        if isinstance(key, slice):
            return self.to_dicts()[key]
        return self.row(key)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.to_dicts())

    def _decode_column(self, field: Field) -> list[str | None]:
        codes = self._dict_codes[field.name]
        return [
            None if code == 0 else codes[code - 1]
            for code in self._columns[field.name].tolist()
        ]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordTable):
            if len(self) != len(other) or self.fields != other.fields:
                return False
            for f in self.fields:
                if f.encoding == "dict":
                    # Compare decoded values: equal tables may have assigned
                    # codes in a different first-seen order.
                    if self._decode_column(f) != other._decode_column(f):
                        return False
                elif not np.array_equal(
                    self._columns[f.name],
                    other._columns[f.name],
                    equal_nan=f.np_dtype.kind == "f",
                ):
                    return False
            return True
        if isinstance(other, (list, tuple)):
            return self.to_dicts() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RecordTable(rows={self._n_rows}, fields={len(self.fields)}, nbytes={self._nbytes})"


def records_equal(
    a: Iterable[Mapping[str, Any]],
    b: Iterable[Mapping[str, Any]],
    *,
    ignore: Iterable[str] = (),
) -> bool:
    """Value equality of two record sequences, NaN-tolerant.

    Plain ``list[dict] ==`` treats ``nan != nan``, which makes failed
    instances (``normalized_makespan`` is NaN) incomparable; this helper
    compares field by field and counts two NaNs as equal.  ``ignore`` drops
    fields (e.g. the wall-clock timings) from the comparison.
    """
    ignored = frozenset(ignore)
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        keys = set(ra) - ignored
        if keys != set(rb) - ignored:
            return False
        for key in keys:
            va, vb = ra[key], rb[key]
            if isinstance(va, float) and isinstance(vb, float):
                if not (va == vb or (np.isnan(va) and np.isnan(vb))):
                    return False
            elif va != vb or type(va) is not type(vb):
                return False
    return True


# --------------------------------------------------------------------------- #
# persistent result cache
# --------------------------------------------------------------------------- #
class RowCache(Protocol):
    """The instance-row cache protocol :func:`~repro.experiments.plan.execute_plan_cached` consumes.

    Both :class:`ResultCache` (persistent) and :class:`InMemoryRowCache`
    (per-suite-run dedup when no cache directory is configured) implement it.
    """

    hits: int
    misses: int
    rows_cached: int
    rows_fresh: int

    def get_rows(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]: ...

    def put_rows(self, pairs: Iterable[tuple[str, Mapping[str, Any]]]) -> None: ...


def quarantine_corrupt_file(path: Path) -> None:
    """Move a corrupt cache file aside (``<name>.quarantined``) and count it.

    Renaming rather than deleting keeps the evidence for post-mortems while
    guaranteeing the next load sees a clean miss instead of re-parsing the
    same torn bytes; the per-run health ledger records the quarantine.
    """
    from ..resilience.health import current_health

    try:
        os.replace(path, path.with_name(path.name + ".quarantined"))
    except OSError:  # already gone / unwritable directory — a miss either way
        return
    current_health().cache_quarantines += 1


class ResultCache:
    """A directory of saved :class:`RecordTable` files keyed by sweep identity.

    The key is a digest of *what determines the record values*: the dataset
    descriptor (kind, scale, seed) and the :class:`~repro.experiments.config.SweepConfig`
    fields **minus** the execution-only knobs (``jobs``, ``backend`` — every
    backend/worker count produces identical records, timing fields aside)
    plus the schema version.  Layout: one ``<key>.records`` arena file per
    sweep under the cache directory (see the module docstring for the file
    format).

    Used by :func:`repro.experiments.suite.run_suite` and ``memtree figure
    --cache-dir`` so a re-run at the same scale loads results instead of
    re-simulating.
    """

    #: Config fields excluded from the key: they change how a sweep runs,
    #: never what it produces.  ``fault_plan`` qualifies because recoverable
    #: faults reproduce identical records and quarantined rows are never
    #: written to the cache (:func:`~repro.experiments.plan.execute_plan_cached`).
    EXECUTION_ONLY_FIELDS = frozenset(
        {"jobs", "backend", "native", "fault_plan"}
    )

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Row-granularity counters (the plan layer fills these): rows served
        #: from the store vs rows simulated fresh this session.
        self.rows_cached = 0
        self.rows_fresh = 0
        self._row_table: RecordTable | None = None
        self._row_index: dict[str, int] | None = None

    def key(self, dataset_key: Sequence[Any], config: "SweepConfig") -> str:
        """Stable digest of one sweep's identity.

        The package version participates in the key so upgrading the
        simulator invalidates recorded results instead of silently serving
        numbers an older code base produced.
        """
        from dataclasses import asdict

        from .. import __version__

        fields = {
            k: v for k, v in sorted(asdict(config).items()) if k not in self.EXECUTION_ONLY_FIELDS
        }
        payload = {
            "schema_version": _VERSION,
            "cache_schema_version": CACHE_SCHEMA_VERSION,
            "package_version": __version__,
            "dataset": list(dataset_key),
            "config": fields,
        }
        blob = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:40]

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.records"

    def get(self, key: str) -> RecordTable | None:
        """Load the cached table for ``key``, or ``None`` on a miss.

        A corrupt/truncated cache file counts as a miss (the entry is
        recomputed and overwritten), never an error.
        """
        path = self.path(key)
        if path.exists():
            try:
                table = RecordTable.load(path)
            except (ValueError, OSError):
                quarantine_corrupt_file(path)
            else:
                self.hits += 1
                return table
        self.misses += 1
        return None

    def put(self, key: str, table: RecordTable) -> Path:
        """Persist ``table`` under ``key`` (atomic replace)."""
        return table.save(self.path(key))

    # ------------------------------------------------------------------ #
    # instance-level row storage (cache schema version 3)
    # ------------------------------------------------------------------ #
    # One ``rows.records`` arena holds every cached instance record; the
    # sidecar ``rows.index.json`` maps instance content keys (see
    # :meth:`~repro.experiments.plan.SweepPlan.instance_keys`) to row
    # positions.  Keys embed :data:`CACHE_SCHEMA_VERSION`, so a directory
    # written by an older scheme simply never matches — stale sweep-level
    # ``<key>.records`` blobs coexist harmlessly until overwritten.

    def _rows_path(self) -> Path:
        return self.directory / "rows.records"

    def _rows_index_path(self) -> Path:
        return self.directory / "rows.index.json"

    def _load_rows(self) -> tuple[RecordTable | None, dict[str, int]]:
        """Open the row store lazily; anything corrupt is quarantined aside
        (``*.quarantined``) and the store degrades to empty — a miss, never
        an error, and the next ``put_rows`` rebuilds a clean store."""
        if self._row_index is None:
            table: RecordTable | None = None
            index: dict[str, int] = {}
            index_path = self._rows_index_path()
            if index_path.exists() and self._rows_path().exists():
                try:
                    raw = json.loads(index_path.read_text(encoding="utf-8"))
                    table = RecordTable.load(self._rows_path())
                    index = {str(k): int(v) for k, v in raw.items()}
                    if index and max(index.values()) >= len(table):
                        raise ValueError("row index points past the row table")
                except (ValueError, OSError, AttributeError):
                    table, index = None, {}
                    quarantine_corrupt_file(self._rows_path())
                    quarantine_corrupt_file(index_path)
            self._row_table, self._row_index = table, index
        return self._row_table, self._row_index

    def get_rows(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        """Cached record dicts for every key present in the row store."""
        table, index = self._load_rows()
        out: dict[str, dict[str, Any]] = {}
        if table is not None:
            for key in keys:
                position = index.get(key)
                if position is not None:
                    out[key] = table.row(position)
        return out

    def count_cached(self, keys: Sequence[str]) -> int:
        """How many of ``keys`` the row store holds (dry-run prediction)."""
        _, index = self._load_rows()
        return sum(1 for key in keys if key in index)

    def put_rows(self, pairs: Iterable[tuple[str, Mapping[str, Any]]]) -> None:
        """Insert/overwrite instance rows and persist the store atomically.

        The arena is rebuilt from all rows on every call — the store is
        small relative to the simulations it saves, and a rebuild keeps the
        arena compact and its dictionary codes canonical.

        The whole read-merge-write runs under an exclusive cross-process
        :class:`~repro.resilience.locks.FileLock` (``rows.lock``), and the
        on-disk store is **re-read inside the lock** rather than merged
        from this process's cached snapshot: two processes appending
        concurrently each merge on top of whatever the other already
        published, so neither replace can drop the other's rows.  Each
        publish itself stays on the crash-safe atomic-write path — a writer
        killed mid-section releases the lock via the kernel and leaves
        intact files behind.
        """
        from ..resilience.atomic import atomic_write_text
        from ..resilience.locks import FileLock

        fresh = {key: dict(record) for key, record in pairs}
        if not fresh:
            return
        with FileLock(self.directory / "rows.lock"):
            # Merge-on-replace: drop the cached snapshot so the merge base
            # is the store as concurrent writers left it, not as this
            # process last saw it.
            self._row_table, self._row_index = None, None
            table, index = self._load_rows()
            merged: dict[str, dict[str, Any]] = {}
            if table is not None:
                for key, position in index.items():
                    merged[key] = table.row(position)
            merged.update(fresh)
            keys = list(merged)
            new_table = RecordTable.from_dicts(merged[key] for key in keys)
            new_index = {key: position for position, key in enumerate(keys)}
            new_table.save(self._rows_path())
            atomic_write_text(
                self._rows_index_path(), json.dumps(new_index, separators=(",", ":"))
            )
            self._row_table, self._row_index = new_table, new_index
            self._maybe_inject_corruption()

    def _maybe_inject_corruption(self) -> None:
        """``cache-corrupt`` hook: truncate the just-written row store.

        Fires only under an armed :class:`~repro.resilience.faults.FaultPlan`
        (``REPRO_FAULTS``); the torn arena must read back as a miss —
        quarantined aside on the next load — never as an error, which is
        exactly what the chaos suite asserts.
        """
        from ..resilience.faults import resolve_fault_plan

        plan = resolve_fault_plan(None)
        if plan is None or not plan.fire("cache-corrupt", "rows-store"):
            return
        path = self._rows_path()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        # Drop the in-memory handle so this process re-reads the torn file
        # (and takes the quarantine path) just like a fresh process would.
        self._row_table, self._row_index = None, None

    def stats(self) -> str:
        """One-line human-readable hit/miss summary."""
        return f"{self.hits} hits / {self.misses} misses ({self.directory})"

    def row_stats(self) -> str:
        """One-line row-granularity summary (cached vs freshly simulated)."""
        return f"{self.rows_cached} rows cached / {self.rows_fresh} rows fresh"


class InMemoryRowCache:
    """A process-local :class:`RowCache` with no persistence.

    :func:`repro.experiments.suite.run_suite` uses one per run when no cache
    directory is configured: overlapping figures still dedup shared
    instances within the run, nothing touches disk.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.rows_cached = 0
        self.rows_fresh = 0
        self._rows: dict[str, dict[str, Any]] = {}

    def get_rows(self, keys: Sequence[str]) -> dict[str, dict[str, Any]]:
        return {key: dict(self._rows[key]) for key in keys if key in self._rows}

    def count_cached(self, keys: Sequence[str]) -> int:
        return sum(1 for key in keys if key in self._rows)

    def put_rows(self, pairs: Iterable[tuple[str, Mapping[str, Any]]]) -> None:
        for key, record in pairs:
            self._rows[key] = dict(record)

    def row_stats(self) -> str:
        return f"{self.rows_cached} rows cached / {self.rows_fresh} rows fresh"
