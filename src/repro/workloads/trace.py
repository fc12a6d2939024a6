"""Trace records and the columnar trace dataset.

A :class:`JobRecord` is one row of the study dataset: everything the
analysis layer needs about one job (identity, machine, shape, timestamps,
status, structural circuit metrics, calibration-crossover flag).

:class:`TraceDataset` stores those rows **columnar**: every field lives in
one typed NumPy array (float64 with NaN for optional values, int64 for
counts, small-int codes plus a vocabulary for categorical strings).  The
analysis layer consumes whole columns through :meth:`TraceDataset.values`,
boolean-mask selection (:meth:`where` / :meth:`mask_equal`) and the
group-by primitives, so a 6000-job study is processed as a handful of
vectorised array operations rather than hundreds of thousands of Python
attribute accesses.  Row-oriented callers keep working: indexing and
iteration materialise :class:`JobRecord` views lazily from the columns.

Persistence: JSON and CSV round-trips (unchanged, byte-compatible formats)
plus a versioned compressed ``.npz`` column dump that loads an order of
magnitude faster and is written deterministically (same trace in, same
bytes out) so on-disk caches stay byte-stable.

Out-of-core: when a resident-bytes budget is active (see
:func:`repro.workloads.blocks.set_memory_budget`), a dataset is chunked
into fixed-size :class:`~repro.workloads.blocks.ColumnBlock` rows that
spill to versioned ``.npz`` block files past the budget and stream back on
access.  :meth:`TraceDataset.iter_blocks` / :meth:`TraceDataset.map_blocks`
are the sanctioned full-scan path; column access, selection and group-by
keep working unchanged on chunked datasets (they stream block-wise under
the hood), and every on-disk format — including the byte-stable cache
``.npz`` — is identical whether or not the dataset was chunked in memory.
"""

from __future__ import annotations

import csv
import io
import json
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.exceptions import TraceSchemaError, WorkloadError
from repro.core.types import JobStatus
from repro.workloads.blocks import (
    BLOCK_SCHEMA_VERSION,
    BlockStore,
    ColumnBlock,
    DEFAULT_BLOCK_ROWS,
    ResidencyGovernor,
    get_memory_budget,
    write_block_file,
    write_npz_member,
)

#: Version of the *generated-trace semantics*: bump when the generator or
#: simulator changes the content of equivalent-config traces so stale cache
#: entries (and cross-version comparisons) are detected explicitly.
#: 2: columnar data plane — batched circuit synthesis and the bucketed
#: external-load estimator reshape machine selection slightly.
#: 3: scenario engine — the simulator's backlog sampling draws from a
#: dedicated block-buffered per-machine stream instead of the machine's
#: general stream, which re-times every queue/backlog draw.
TRACE_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class JobRecord:
    """One job of the study trace (the analysis layer's unit of data).

    Inside a :class:`TraceDataset` these objects are *views*: they are
    materialised on demand from the dataset's columns and are not what the
    dataset stores.
    """

    job_id: str
    provider: str
    access: str                 # "public" | "privileged" (of the machine)
    machine: str
    machine_qubits: int
    month_index: int            # 0 = first month of the study window
    batch_size: int
    shots: int
    circuit_family: str
    circuit_width: int
    circuit_depth: int
    circuit_gates: int
    circuit_cx: int
    circuit_cx_depth: int
    memory_slots: int
    submit_time: float          # seconds from the study epoch
    start_time: Optional[float]
    end_time: Optional[float]
    status: str                 # JobStatus value
    queue_seconds: Optional[float]
    run_seconds: Optional[float]
    compile_seconds: float
    pending_ahead: int
    crossed_calibration: bool
    user_policy: str = "unknown"

    # -- derived quantities ----------------------------------------------------------

    @property
    def total_trials(self) -> int:
        """Machine trials contributed by this job (batch x shots)."""
        return self.batch_size * self.shots

    @property
    def utilization(self) -> float:
        """Fraction of the machine's qubits used by the job's circuits (Fig. 8)."""
        if self.machine_qubits <= 0:
            return 0.0
        return min(1.0, self.circuit_width / self.machine_qubits)

    @property
    def queue_minutes(self) -> Optional[float]:
        return None if self.queue_seconds is None else self.queue_seconds / 60.0

    @property
    def run_minutes(self) -> Optional[float]:
        return None if self.run_seconds is None else self.run_seconds / 60.0

    @property
    def queue_to_run_ratio(self) -> Optional[float]:
        if not self.run_seconds or self.queue_seconds is None:
            return None
        if self.run_seconds <= 0:
            return None
        return self.queue_seconds / self.run_seconds

    @property
    def per_circuit_queue_seconds(self) -> Optional[float]:
        """Effective queue time per circuit in the batch (Fig. 11's metric)."""
        if self.queue_seconds is None or self.batch_size == 0:
            return None
        return self.queue_seconds / self.batch_size

    @property
    def per_circuit_run_seconds(self) -> Optional[float]:
        if self.run_seconds is None or self.batch_size == 0:
            return None
        return self.run_seconds / self.batch_size

    @property
    def is_done(self) -> bool:
        return self.status == JobStatus.DONE.value

    def as_dict(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in _FIELD_NAMES}


_FIELD_NAMES = [f.name for f in fields(JobRecord)]

# -- column schema -------------------------------------------------------------------

#: integer-valued fields, stored as int64 columns
_INT_COLUMNS = (
    "machine_qubits", "month_index", "batch_size", "shots", "circuit_width",
    "circuit_depth", "circuit_gates", "circuit_cx", "circuit_cx_depth",
    "memory_slots", "pending_ahead",
)
#: always-present float fields, stored as float64 columns
_FLOAT_COLUMNS = ("submit_time", "compile_seconds")
#: Optional[float] fields, stored as float64 columns with NaN for None
_OPTIONAL_FLOAT_COLUMNS = ("start_time", "end_time", "queue_seconds",
                           "run_seconds")
_BOOL_COLUMNS = ("crossed_calibration",)
#: low-cardinality string fields, stored as int32 codes + sorted vocabulary
_CATEGORICAL_COLUMNS = ("provider", "access", "machine", "circuit_family",
                        "status", "user_policy")
#: high-cardinality string fields, stored as fixed-width unicode arrays
_STRING_COLUMNS = ("job_id",)
#: every stored (non-derived) column, in schema order
_STORED_COLUMNS = (_INT_COLUMNS + _FLOAT_COLUMNS + _OPTIONAL_FLOAT_COLUMNS
                   + _BOOL_COLUMNS + _CATEGORICAL_COLUMNS + _STRING_COLUMNS)

#: JobRecord properties exposed as computed (derived) columns
_DERIVED_COLUMNS = (
    "queue_minutes", "run_minutes", "utilization", "queue_to_run_ratio",
    "per_circuit_queue_seconds", "per_circuit_run_seconds", "total_trials",
    "is_done",
)
#: derived columns that can be missing (NaN in arrays, None in row views)
_OPTIONAL_DERIVED_COLUMNS = frozenset((
    "queue_minutes", "run_minutes", "queue_to_run_ratio",
    "per_circuit_queue_seconds", "per_circuit_run_seconds",
))

#: Version of the ``.npz`` column-dump layout; bump on incompatible changes.
NPZ_SCHEMA_VERSION = 1


def _string_array(values: Sequence[str]) -> np.ndarray:
    if not values:
        return np.asarray([], dtype="<U1")
    return np.asarray(list(values), dtype=str)


def _encode_categorical(values: Sequence[str]) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Encode strings as (int32 codes, sorted vocabulary)."""
    vocab = tuple(sorted(set(values)))
    mapping = {value: code for code, value in enumerate(vocab)}
    codes = np.fromiter((mapping[v] for v in values), dtype=np.int32,
                        count=len(values))
    return codes, vocab


def _read_member_array(archive: zipfile.ZipFile, member: str) -> np.ndarray:
    with archive.open(member + ".npy") as handle:
        return np.lib.format.read_array(io.BytesIO(handle.read()),
                                        allow_pickle=False)


def _parse_npz_header(text: str, path: Path) -> Dict[str, object]:
    header = json.loads(text)
    found = header.get("schema")
    if found != NPZ_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"trace npz {path} was written with column-layout schema "
            f"{found!r} but this version reads schema {NPZ_SCHEMA_VERSION}; "
            f"regenerate the trace (or delete the file) to proceed")
    return header


class _LazyNpzColumns(dict):
    """Column mapping that decompresses one ``.npz`` member per first access.

    Behaves like the eager ``{name: ndarray}`` dict the dataset stores, but a
    column is only read (and DEFLATE-decompressed) from the archive the first
    time something touches it, so analyses over a few columns never pay for
    the rest of the trace.  Whole-dataset operations (subsetting, group-by,
    re-saving) iterate ``items()`` and therefore force-load everything.
    """

    def __init__(self, path: Path, names: Sequence[str]):
        super().__init__()
        self._path = Path(path)
        self._names = tuple(names)

    def __missing__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        with zipfile.ZipFile(self._path) as archive:
            array = _read_member_array(archive, f"col__{name}")
        dict.__setitem__(self, name, array)
        return array

    def loaded(self) -> Tuple[str, ...]:
        """Names of the columns decompressed so far."""
        return tuple(dict.keys(self))

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def keys(self) -> Tuple[str, ...]:  # type: ignore[override]
        return self._names

    def items(self):  # type: ignore[override]
        return [(name, self[name]) for name in self._names]

    def values(self):  # type: ignore[override]
        return [self[name] for name in self._names]


def columns_from_records(
    rows: Sequence[JobRecord],
) -> Tuple[Dict[str, np.ndarray], Dict[str, Tuple[str, ...]]]:
    """Columnarise records into typed arrays plus categorical vocabularies."""
    columns: Dict[str, np.ndarray] = {}
    vocabs: Dict[str, Tuple[str, ...]] = {}
    for name in _INT_COLUMNS:
        columns[name] = np.asarray([getattr(r, name) for r in rows],
                                   dtype=np.int64)
    for name in _FLOAT_COLUMNS:
        columns[name] = np.asarray([getattr(r, name) for r in rows],
                                   dtype=np.float64)
    for name in _OPTIONAL_FLOAT_COLUMNS:
        columns[name] = np.asarray(
            [np.nan if getattr(r, name) is None else getattr(r, name)
             for r in rows],
            dtype=np.float64,
        )
    for name in _BOOL_COLUMNS:
        columns[name] = np.asarray([getattr(r, name) for r in rows],
                                   dtype=np.bool_)
    for name in _CATEGORICAL_COLUMNS:
        codes, vocab = _encode_categorical([getattr(r, name) for r in rows])
        columns[name] = codes
        vocabs[name] = vocab
    for name in _STRING_COLUMNS:
        columns[name] = _string_array([getattr(r, name) for r in rows])
    return columns, vocabs


class ShardColumns(NamedTuple):
    """One shard's already-columnar rows, as produced by a worker.

    The parallel runner's simulation tasks return these instead of
    ``List[JobRecord]`` — rows are columnarised where they were simulated
    and the merge is pure array work (vocabulary union + code remap +
    concatenate + lexsort), never a row-object round-trip.
    """

    rows: int
    columns: Dict[str, np.ndarray]
    vocabs: Dict[str, Tuple[str, ...]]

    @classmethod
    def from_records(cls, records: Sequence[JobRecord]) -> "ShardColumns":
        columns, vocabs = columns_from_records(records)
        return cls(rows=len(records), columns=columns, vocabs=vocabs)


def merge_shard_columns(
    payloads: Sequence[ShardColumns],
    metadata: Optional[Dict[str, object]] = None,
) -> "TraceDataset":
    """Merge per-shard column payloads into one sorted dataset.

    Value- and byte-identical to flattening every shard's records, sorting
    by ``(submit_time, job_id)`` and columnarising the result: vocabularies
    are unioned (sorted, exactly like a full-list encode), shard codes are
    remapped into the union, and one stable ``np.lexsort`` orders the rows.
    """
    payloads = [p for p in payloads if p is not None]
    if not payloads or sum(p.rows for p in payloads) == 0:
        columns, vocabs = columns_from_records([])
        return TraceDataset._from_columns(columns, vocabs, metadata)
    columns: Dict[str, np.ndarray] = {}
    vocabs: Dict[str, Tuple[str, ...]] = {}
    for name in _CATEGORICAL_COLUMNS:
        merged = tuple(sorted(
            set().union(*(set(p.vocabs[name]) for p in payloads))))
        mapping = {value: code for code, value in enumerate(merged)}
        parts = []
        for payload in payloads:
            remap = np.asarray(
                [mapping[v] for v in payload.vocabs[name]] or [0],
                dtype=np.int32)
            parts.append(remap[payload.columns[name]])
        columns[name] = np.concatenate(parts)
        vocabs[name] = merged
    for name in _STORED_COLUMNS:
        if name in _CATEGORICAL_COLUMNS:
            continue
        columns[name] = np.concatenate(
            [np.asarray(p.columns[name]) for p in payloads])
    order = np.lexsort((columns["job_id"], columns["submit_time"]))
    columns = {name: column[order] for name, column in columns.items()}
    return TraceDataset.from_columns(columns, vocabs, metadata)


class _BlockColumns(dict):
    """Column mapping over a :class:`~repro.workloads.blocks.BlockStore`.

    Presents the same ``{name: ndarray}`` surface the dataset's plain dict
    backend does, but a column is concatenated from the store's blocks on
    every access and never cached — the resident-bytes budget stays in
    charge of what lives in memory.
    """

    def __init__(self, store: BlockStore):
        super().__init__()
        self._store = store

    def __missing__(self, name: str) -> np.ndarray:
        if name not in self._store.names:
            raise KeyError(name)
        return self._store.column(name)

    def __contains__(self, name: object) -> bool:
        return name in self._store.names

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.names)

    def __len__(self) -> int:
        return len(self._store.names)

    def keys(self) -> Tuple[str, ...]:  # type: ignore[override]
        return self._store.names

    def items(self):  # type: ignore[override]
        return [(name, self[name]) for name in self._store.names]

    def values(self):  # type: ignore[override]
        return [self[name] for name in self._store.names]


#: stored columns each derived column is computed from (block streaming
#: materialises only these when a scan asks for a derived name)
_DERIVED_INPUTS: Dict[str, Tuple[str, ...]] = {
    "queue_minutes": ("queue_seconds",),
    "run_minutes": ("run_seconds",),
    "queue_to_run_ratio": ("queue_seconds", "run_seconds"),
    "per_circuit_queue_seconds": ("queue_seconds", "batch_size"),
    "per_circuit_run_seconds": ("run_seconds", "batch_size"),
    "utilization": ("machine_qubits", "circuit_width"),
    "total_trials": ("batch_size", "shots"),
    "is_done": ("status",),
}

#: manifest file name inside a block-manifest cache entry directory
MANIFEST_NAME = "manifest.json"


class TraceDataset:
    """An ordered, columnar collection of :class:`JobRecord` rows.

    Construct through :meth:`from_records`, :meth:`from_columns` or
    :meth:`from_blocks`; ``TraceDataset()`` is the empty dataset.
    """

    def __init__(self, *, metadata: Optional[Dict[str, object]] = None):
        self._init_from_records([], metadata)

    # -- construction ------------------------------------------------------------------

    def _init_from_records(self, rows: List[JobRecord],
                           metadata: Optional[Dict[str, object]]) -> None:
        self.metadata: Dict[str, object] = dict(metadata or {})
        columns, vocabs = columns_from_records(rows)
        self._columns = columns
        self._vocabs = vocabs
        self._derived: Dict[str, np.ndarray] = {}
        self._row_count: Optional[int] = None
        self._blocks: Optional[BlockStore] = None
        if rows and get_memory_budget() is not None:
            self._chunk_in_place()

    @classmethod
    def from_records(cls, records: Optional[Iterable[JobRecord]] = None,
                     metadata: Optional[Dict[str, object]] = None,
                     ) -> "TraceDataset":
        """Build a dataset from row records (the sanctioned spelling)."""
        dataset = cls.__new__(cls)
        dataset._init_from_records(list(records or []), metadata)
        return dataset

    @staticmethod
    def _columns_from_records(
        rows: List[JobRecord],
    ) -> Tuple[Dict[str, np.ndarray], Dict[str, Tuple[str, ...]]]:
        return columns_from_records(rows)

    @classmethod
    def _from_columns(cls, columns: Dict[str, np.ndarray],
                      vocabs: Dict[str, Tuple[str, ...]],
                      metadata: Optional[Dict[str, object]] = None,
                      ) -> "TraceDataset":
        dataset = cls.__new__(cls)
        dataset.metadata = dict(metadata or {})
        dataset._columns = columns
        dataset._vocabs = dict(vocabs)
        dataset._derived = {}
        dataset._row_count = None
        dataset._blocks = None
        return dataset

    @classmethod
    def from_columns(cls, columns: Dict[str, np.ndarray],
                     vocabs: Dict[str, Tuple[str, ...]],
                     metadata: Optional[Dict[str, object]] = None,
                     ) -> "TraceDataset":
        """Build a dataset from full columns, chunking under a budget."""
        dataset = cls._from_columns(columns, vocabs, metadata)
        if len(dataset) and get_memory_budget() is not None:
            dataset._chunk_in_place()
        return dataset

    @classmethod
    def from_blocks(cls, blocks: Iterable[Union[ColumnBlock,
                                                Dict[str, np.ndarray]]],
                    vocabs: Dict[str, Tuple[str, ...]],
                    metadata: Optional[Dict[str, object]] = None,
                    governor: Optional[ResidencyGovernor] = None,
                    ) -> "TraceDataset":
        """Build a chunked dataset from column blocks.

        ``blocks`` yields either ready :class:`ColumnBlock` objects (which
        must share ``governor``) or plain ``{name: ndarray}`` dicts.  With
        no blocks an empty (plain) dataset is returned.
        """
        store = BlockStore(governor)
        for block in blocks:
            if isinstance(block, ColumnBlock):
                store.append_block(block)
            else:
                store.append_arrays(block)
        if not store.blocks:
            columns, empty_vocabs = columns_from_records([])
            empty_vocabs.update(vocabs)
            return cls._from_columns(columns, empty_vocabs, metadata)
        return cls._from_block_store(store, vocabs, metadata)

    @classmethod
    def _from_block_store(cls, store: BlockStore,
                          vocabs: Dict[str, Tuple[str, ...]],
                          metadata: Optional[Dict[str, object]] = None,
                          ) -> "TraceDataset":
        dataset = cls.__new__(cls)
        dataset.metadata = dict(metadata or {})
        dataset._columns = _BlockColumns(store)
        dataset._vocabs = dict(vocabs)
        dataset._derived = {}
        dataset._row_count = store.rows
        dataset._blocks = store
        return dataset

    def _chunk_in_place(self, block_rows: Optional[int] = None,
                        governor: Optional[ResidencyGovernor] = None) -> None:
        """Re-back a plain (fully resident) dataset with a block store."""
        size = len(self)
        columns = self._columns
        rows_per_block = int(block_rows) if block_rows else DEFAULT_BLOCK_ROWS
        budget = (governor.budget if governor is not None
                  else get_memory_budget())
        if block_rows is None and budget is not None and size:
            # Size blocks to the budget: several blocks should fit at once,
            # so the governor can actually rotate (spill/reload) them.
            bytes_per_row = max(1, sum(
                column.nbytes for column in columns.values()) // size)
            rows_per_block = min(rows_per_block,
                                 max(1, budget // (4 * bytes_per_row)))
        rows_per_block = max(1, rows_per_block)
        store = BlockStore(governor)
        for start in range(0, max(size, 1), rows_per_block):
            stop = min(start + rows_per_block, size)
            store.append_arrays({
                name: np.ascontiguousarray(column[start:stop])
                for name, column in columns.items()
            }, rows=stop - start)
        self._columns = _BlockColumns(store)
        self._derived = {}
        self._row_count = store.rows
        self._blocks = store

    # -- container protocol ------------------------------------------------------------

    def __len__(self) -> int:
        # Cached so lazily loaded datasets do not decompress a column just
        # to learn the row count (the npz header carries it).
        count = self._row_count
        if count is None:
            count = int(self._columns["month_index"].shape[0])
            self._row_count = count
        return count

    def __iter__(self) -> Iterator[JobRecord]:
        if len(self) == 0:
            return iter(())
        lists = [self.column(name) for name in _FIELD_NAMES]
        return (JobRecord(*row) for row in zip(*lists))

    def __getitem__(self, index: Union[int, slice]):
        size = len(self)
        if isinstance(index, slice):
            return [self._record_at(i) for i in range(*index.indices(size))]
        i = int(index)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("record index out of range")
        return self._record_at(i)

    def _record_at(self, i: int) -> JobRecord:
        columns = self._columns
        vocabs = self._vocabs
        kwargs: Dict[str, object] = {}
        for name in _INT_COLUMNS:
            kwargs[name] = int(columns[name][i])
        for name in _FLOAT_COLUMNS:
            kwargs[name] = float(columns[name][i])
        for name in _OPTIONAL_FLOAT_COLUMNS:
            value = float(columns[name][i])
            kwargs[name] = None if value != value else value
        for name in _BOOL_COLUMNS:
            kwargs[name] = bool(columns[name][i])
        for name in _CATEGORICAL_COLUMNS:
            kwargs[name] = vocabs[name][int(columns[name][i])]
        for name in _STRING_COLUMNS:
            kwargs[name] = str(columns[name][i])
        return JobRecord(**kwargs)

    @property
    def records(self) -> List[JobRecord]:
        """Materialise every row as a :class:`JobRecord` (in trace order)."""
        return list(self)

    def append(self, record: JobRecord) -> None:
        self.extend([record])

    def extend(self, records: Iterable[JobRecord]) -> None:
        """Append rows (rebuilds the affected columns; not a hot path)."""
        rows = list(records)
        if not rows:
            return
        if self._blocks is not None:
            self._materialise_in_place()
        new_columns, new_vocabs = columns_from_records(rows)
        for name in (_INT_COLUMNS + _FLOAT_COLUMNS + _OPTIONAL_FLOAT_COLUMNS
                     + _BOOL_COLUMNS):
            self._columns[name] = np.concatenate(
                [self._columns[name], new_columns[name]])
        for name in _STRING_COLUMNS:
            self._columns[name] = np.concatenate(
                [np.asarray(self._columns[name], dtype=str),
                 np.asarray(new_columns[name], dtype=str)])
        for name in _CATEGORICAL_COLUMNS:
            merged = tuple(sorted(set(self._vocabs[name])
                                  | set(new_vocabs[name])))
            mapping = {value: code for code, value in enumerate(merged)}
            remap_old = np.asarray(
                [mapping[v] for v in self._vocabs[name]] or [0],
                dtype=np.int32)
            remap_new = np.asarray(
                [mapping[v] for v in new_vocabs[name]] or [0], dtype=np.int32)
            self._columns[name] = np.concatenate([
                remap_old[self._columns[name]],
                remap_new[new_columns[name]],
            ])
            self._vocabs[name] = merged
        self._derived.clear()
        self._row_count = None

    def _materialise_in_place(self) -> None:
        """Replace the block backend with plain fully resident columns."""
        store = self._blocks
        if store is None:
            return
        self._columns = {name: store.column(name) for name in store.names}
        self._derived = {}
        self._blocks = None

    # -- the chunked data plane --------------------------------------------------------

    @property
    def is_chunked(self) -> bool:
        """True when the dataset is backed by governed column blocks."""
        return self._blocks is not None

    @property
    def is_out_of_core(self) -> bool:
        """True when the column bytes exceed the dataset's budget."""
        store = self._blocks
        return (store is not None
                and store.governor.budget is not None
                and store.total_nbytes > store.governor.budget)

    def column_nbytes(self) -> int:
        """Total stored-column bytes (resident or spilled)."""
        store = self._blocks
        if store is not None:
            return store.total_nbytes
        return sum(column.nbytes for column in self._columns.values())

    def data_plane_stats(self) -> Dict[str, object]:
        """Residency and spill counters (all zero for a plain dataset)."""
        store = self._blocks
        if store is None:
            return {
                "chunked": False,
                "blocks": 1 if len(self) else 0,
                "rows": len(self),
                "total_bytes": self.column_nbytes(),
                "spills": 0,
                "loads": 0,
                "evictions": 0,
            }
        return {"chunked": True, **store.stats()}

    @staticmethod
    def _stored_dependencies(names: Optional[Sequence[str]]
                             ) -> Optional[Tuple[str, ...]]:
        """Expand requested column names to the stored columns they need."""
        if names is None:
            return None
        needed: List[str] = []
        for name in names:
            stored = _DERIVED_INPUTS.get(name, (name,))
            for dependency in stored:
                if dependency not in _STORED_COLUMNS:
                    raise WorkloadError(f"unknown column {name!r}")
                if dependency not in needed:
                    needed.append(dependency)
        return tuple(needed)

    def iter_blocks(self, columns: Optional[Sequence[str]] = None,
                    block_rows: Optional[int] = None,
                    ) -> Iterator["TraceDataset"]:
        """Yield the dataset as resident per-block datasets, in row order.

        This is the sanctioned full-scan path: each yielded block is a
        small fully resident :class:`TraceDataset` (sharing the parent's
        vocabularies, so codes and categories line up) and only one block's
        arrays need to be in memory at a time.  ``columns`` restricts which
        stored columns are materialised (derived names pull in their
        inputs); a spilled block then decompresses only those members.
        ``block_rows`` controls the chunking of *plain* datasets (chunked
        datasets always yield their physical blocks).
        """
        names = self._stored_dependencies(columns)
        store = self._blocks
        if store is not None:
            wanted = tuple(names if names is not None else store.names)
            for start, stop, block in store.iter_ranges():
                if names is None:
                    arrays = dict(block.arrays())
                else:
                    arrays = {name: block.column(name) for name in wanted}
                yield self._block_view(arrays, block.rows)
            return
        size = len(self)
        rows_per_block = max(1, int(block_rows or DEFAULT_BLOCK_ROWS))
        wanted = tuple(names if names is not None
                       else tuple(self._columns.keys()))
        for start in range(0, size, rows_per_block):
            stop = min(start + rows_per_block, size)
            arrays = {name: self._columns[name][start:stop]
                      for name in wanted}
            yield self._block_view(arrays, stop - start)

    def _block_view(self, arrays: Dict[str, np.ndarray],
                    rows: int) -> "TraceDataset":
        view = TraceDataset._from_columns(arrays, self._vocabs)
        view._row_count = rows
        return view

    def map_blocks(self, fn: Callable[["TraceDataset"], object],
                   columns: Optional[Sequence[str]] = None,
                   block_rows: Optional[int] = None) -> List[object]:
        """Apply ``fn`` to every block (see :meth:`iter_blocks`)."""
        return [fn(block)
                for block in self.iter_blocks(columns, block_rows)]

    def grouped_values(self, by: str, name: str,
                       drop_missing: bool = True
                       ) -> Dict[object, np.ndarray]:
        """Per-group float values of one column, streamed block-wise.

        Equivalent to ``{key: subset.numeric_column(name) for key, subset
        in trace.group_by(by).items()}`` (same keys, same per-group order)
        but touches only the two columns involved, one block at a time —
        the analysis layer's grouped reductions never materialise a full
        per-group trace.  Keys are sorted; empty groups cannot occur.
        """
        parts: Dict[object, List[np.ndarray]] = {}
        categorical = by in _CATEGORICAL_COLUMNS
        for block in self.iter_blocks(columns=[by, name]):
            keys = block._columns[by] if categorical else block.values(by)
            if keys.shape[0] == 0:
                continue
            if not categorical and keys.dtype.kind == "f" \
                    and np.isnan(keys).any():
                raise WorkloadError(
                    f"cannot group by {by!r}: column has missing values")
            values = np.asarray(block.values(name), dtype=float)
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
            starts = np.concatenate([[0], boundaries])
            ends = np.concatenate([boundaries, [keys.shape[0]]])
            for start, end in zip(starts.tolist(), ends.tolist()):
                key = sorted_keys[start].item()
                parts.setdefault(key, []).append(values[order[start:end]])
        vocab = self._vocabs[by] if categorical else None
        grouped: Dict[object, np.ndarray] = {}
        for key in sorted(parts):
            values = np.concatenate(parts[key])
            if drop_missing:
                values = values[~np.isnan(values)]
            grouped[vocab[key] if vocab is not None else key] = values
        return grouped

    # -- vectorised column access ------------------------------------------------------

    def values(self, name: str) -> np.ndarray:
        """The column ``name`` as a NumPy array (the vectorised primitive).

        Optional float columns use NaN for missing values; categorical
        columns decode to a string array; derived :class:`JobRecord`
        properties (``queue_minutes``, ``utilization``, ...) are computed as
        whole columns and cached.  The returned array is a view of dataset
        state — do not mutate it.
        """
        columns = self._columns
        # Chunked datasets never cache full-length arrays on the dataset —
        # the resident-bytes budget governs what stays in memory, so every
        # values() call re-streams from the blocks (transient result).
        cache = self._derived if self._blocks is None else None
        if name in columns:
            if name in _CATEGORICAL_COLUMNS:
                cached = cache.get(name) if cache is not None else None
                if cached is None:
                    vocab = _string_array(self._vocabs[name])
                    if len(self._vocabs[name]) == 0:
                        cached = np.asarray([], dtype="<U1")
                    else:
                        cached = vocab[columns[name]]
                    if cache is not None:
                        cache[name] = cached
                return cached
            return columns[name]
        if name in _DERIVED_COLUMNS:
            cached = cache.get(name) if cache is not None else None
            if cached is None:
                cached = self._compute_derived(name)
                if cache is not None:
                    cache[name] = cached
            return cached
        raise WorkloadError(f"unknown column {name!r}")

    def _compute_derived(self, name: str) -> np.ndarray:
        # Each branch touches only the stored columns it needs (matching
        # _DERIVED_INPUTS), so block-wise scans of one derived column only
        # materialise that column's inputs.
        columns = self._columns
        with np.errstate(divide="ignore", invalid="ignore"):
            if name == "queue_minutes":
                return columns["queue_seconds"] / 60.0
            if name == "run_minutes":
                return columns["run_seconds"] / 60.0
            if name == "queue_to_run_ratio":
                queue = columns["queue_seconds"]
                run = columns["run_seconds"]
                valid = ~np.isnan(queue) & (run > 0)
                return np.where(valid, queue / run, np.nan)
            if name == "per_circuit_queue_seconds":
                batch = columns["batch_size"]
                return np.where(batch != 0,
                                columns["queue_seconds"] / batch, np.nan)
            if name == "per_circuit_run_seconds":
                batch = columns["batch_size"]
                return np.where(batch != 0,
                                columns["run_seconds"] / batch, np.nan)
            if name == "utilization":
                qubits = columns["machine_qubits"]
                width = columns["circuit_width"]
                return np.where(
                    qubits > 0,
                    np.minimum(1.0, width / np.maximum(qubits, 1)),
                    0.0,
                )
            if name == "total_trials":
                return columns["batch_size"] * columns["shots"]
            if name == "is_done":
                return self.mask_equal("status", JobStatus.DONE.value)
        raise WorkloadError(f"unknown column {name!r}")  # pragma: no cover

    def column(self, name: str) -> List[object]:
        """The column as a Python list (``None`` for missing values)."""
        array = self.values(name)
        if name in _OPTIONAL_FLOAT_COLUMNS or name in _OPTIONAL_DERIVED_COLUMNS:
            return [None if v != v else v for v in array.tolist()]
        return array.tolist()

    def numeric_column(self, name: str, drop_none: bool = True) -> np.ndarray:
        """The column as a fresh float array, with missing values dropped.

        Unlike :meth:`values`, the result never aliases dataset state and is
        safe to mutate.
        """
        array = np.asarray(self.values(name), dtype=float)
        if drop_none:
            return array[~np.isnan(array)]
        return array.copy()

    def categories(self, name: str) -> Tuple[str, ...]:
        """The sorted vocabulary of a categorical column."""
        try:
            return self._vocabs[name]
        except KeyError:
            raise WorkloadError(f"{name!r} is not a categorical column") \
                from None

    def mask_equal(self, name: str, value: object) -> np.ndarray:
        """Vectorised equality mask over a column (categoricals via codes)."""
        if name in _CATEGORICAL_COLUMNS:
            vocab = self._vocabs[name]
            try:
                code = vocab.index(value)  # type: ignore[arg-type]
            except ValueError:
                return np.zeros(len(self), dtype=bool)
            return self._columns[name] == code
        return self.values(name) == value

    def value_counts(self, name: str) -> Dict[object, int]:
        """Occurrence counts of each present value of a column."""
        if name in _CATEGORICAL_COLUMNS:
            vocab = self._vocabs[name]
            counts = np.bincount(self._columns[name],
                                 minlength=max(len(vocab), 1))
            return {vocab[code]: int(count)
                    for code, count in enumerate(counts[:len(vocab)])
                    if count > 0}
        array = self.values(name)
        uniques, counts = np.unique(array, return_counts=True)
        return {value: int(count)
                for value, count in zip(uniques.tolist(), counts.tolist())}

    # -- selection ---------------------------------------------------------------------

    def _subset(self, selector: np.ndarray,
                metadata: Optional[Dict[str, object]] = None) -> "TraceDataset":
        if self._blocks is not None:
            return self._subset_blocks(selector, metadata)
        columns = {name: column[selector]
                   for name, column in self._columns.items()}
        return TraceDataset._from_columns(columns, self._vocabs, metadata)

    def _subset_blocks(self, selector: np.ndarray,
                       metadata: Optional[Dict[str, object]] = None
                       ) -> "TraceDataset":
        """Block-streamed row selection; the child shares the governor.

        Ascending selections (boolean masks, sorted index arrays — every
        internal caller) stream one parent block at a time into one child
        block each, so peak memory stays O(block).  An unsorted ``take``
        gathers column-at-a-time instead, preserving the requested order.
        """
        store = self._blocks
        selector = np.asarray(selector)
        if selector.dtype == bool:
            indices = np.flatnonzero(selector)
        else:
            indices = selector.astype(np.int64, copy=False)
            size = len(self)
            indices = np.where(indices < 0, indices + size, indices)
        ascending = bool(np.all(np.diff(indices) >= 0)) \
            if indices.size > 1 else True
        child = BlockStore(store.governor)
        if ascending:
            for start, stop, block in store.iter_ranges():
                local = indices[(indices >= start) & (indices < stop)] - start
                if local.size == 0 and child.blocks:
                    continue
                arrays = block.arrays()
                child.append_arrays(
                    {name: np.ascontiguousarray(array[local])
                     for name, array in arrays.items()},
                    rows=int(local.size))
                store.governor.enforce()
        else:
            gathered: Dict[str, np.ndarray] = {}
            for name in store.names:
                gathered[name] = store.column(name)[indices]
            child.append_arrays(gathered, rows=int(indices.size))
        return TraceDataset._from_block_store(child, self._vocabs, metadata)

    def where(self, mask: np.ndarray) -> "TraceDataset":
        """Vectorised row selection by boolean mask (keeps metadata)."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise WorkloadError(
                f"mask length {mask.shape} does not match {len(self)} rows")
        return self._subset(mask, metadata=dict(self.metadata))

    def take(self, indices: Sequence[int]) -> "TraceDataset":
        """Row selection by integer indices, in the given order."""
        return self._subset(np.asarray(list(indices), dtype=np.int64),
                            metadata=dict(self.metadata))

    def filter(self, predicate: Callable[[JobRecord], bool]) -> "TraceDataset":
        """Row-predicate selection (compatibility path; prefer :meth:`where`)."""
        size = len(self)
        if size == 0:
            return self._subset(np.zeros(0, dtype=bool),
                                metadata=dict(self.metadata))
        mask = np.fromiter((bool(predicate(r)) for r in self), dtype=bool,
                           count=size)
        return self._subset(mask, metadata=dict(self.metadata))

    def completed(self) -> "TraceDataset":
        """Jobs that reached a terminal state and actually ran (have run time)."""
        return self.where(self._columns["run_seconds"] > 0)

    def successful(self) -> "TraceDataset":
        return self.where(self.mask_equal("status", JobStatus.DONE.value))

    def for_machine(self, machine: str) -> "TraceDataset":
        return self.where(self.mask_equal("machine", machine))

    def machines(self) -> List[str]:
        return self._present_categories("machine")

    def providers(self) -> List[str]:
        return self._present_categories("provider")

    def _present_categories(self, name: str) -> List[str]:
        vocab = self._vocabs[name]
        present = np.unique(self._columns[name])
        return [vocab[int(code)] for code in present]

    def group_by(self, name: str) -> Dict[object, "TraceDataset"]:
        """Split into per-value subsets of a categorical or integer column.

        Keys are sorted; each subset preserves row order.  Subsets share the
        parent's categorical vocabularies, so codes remain comparable.

        One stable sort reorders every column once; the per-group datasets
        are then contiguous slices (views), so the cost is independent of
        the number of groups rather than one full-column scan per group.
        """
        size = len(self)
        if size == 0:
            return {}
        if name in _CATEGORICAL_COLUMNS:
            keys = self._columns[name]
            vocab = self._vocabs[name]

            def decode(key: object) -> object:
                return vocab[key]
        else:
            keys = self.values(name)
            if keys.dtype.kind == "f" and np.isnan(keys).any():
                raise WorkloadError(
                    f"cannot group by {name!r}: column has missing values")

            def decode(key: object) -> object:
                return key
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [size]])
        if self._blocks is not None:
            # Chunked path: each group is a block-streamed ascending
            # selection (stable argsort keeps within-group indices sorted),
            # so no more than one parent block's columns are resident at a
            # time and the group datasets share the governor's budget.
            groups_chunked: Dict[object, "TraceDataset"] = {}
            for start, end in zip(starts.tolist(), ends.tolist()):
                key = decode(sorted_keys[start].item())
                groups_chunked[key] = self._subset_blocks(order[start:end])
            return groups_chunked
        sorted_columns = {column_name: column[order]
                          for column_name, column in self._columns.items()}
        groups: Dict[object, "TraceDataset"] = {}
        for start, end in zip(starts.tolist(), ends.tolist()):
            key = decode(sorted_keys[start].item())
            columns = {column_name: column[start:end]
                       for column_name, column in sorted_columns.items()}
            groups[key] = TraceDataset._from_columns(columns, self._vocabs)
        return groups

    def group_by_machine(self) -> Dict[str, "TraceDataset"]:
        return self.group_by("machine")

    def group_by_month(self) -> Dict[int, "TraceDataset"]:
        return self.group_by("month_index")

    # -- aggregate summaries -------------------------------------------------------------

    def total_circuits(self) -> int:
        return int(self._columns["batch_size"].sum())

    def total_trials(self) -> int:
        return int(self.values("total_trials").sum())

    def status_counts(self) -> Dict[str, int]:
        return self.value_counts("status")

    def summary(self) -> Dict[str, object]:
        return {
            "jobs": len(self),
            "circuits": self.total_circuits(),
            "trials": self.total_trials(),
            "machines": len(self.machines()),
            "statuses": self.status_counts(),
        }

    # -- persistence ----------------------------------------------------------------------

    def _row_dicts(self) -> List[Dict[str, object]]:
        lists = [self.column(name) for name in _FIELD_NAMES]
        return [dict(zip(_FIELD_NAMES, row)) for row in zip(*lists)]

    def to_json(self, path: Union[str, Path]) -> None:
        payload = {
            "metadata": self.metadata,
            "records": self._row_dicts(),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "TraceDataset":
        payload = json.loads(Path(path).read_text())
        records = [JobRecord(**row) for row in payload.get("records", [])]
        return cls.from_records(records, metadata=payload.get("metadata", {}))

    def to_csv(self, path: Union[str, Path]) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=_FIELD_NAMES)
            writer.writeheader()
            for row in self._row_dicts():
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "TraceDataset":
        records: List[JobRecord] = []
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                records.append(JobRecord(**_coerce_row(row)))
        return cls.from_records(records)

    def to_npz(self, path: Union[str, Path]) -> None:
        """Write the columns as a versioned, deterministic compressed .npz.

        The member order, timestamps and compression are fixed, so the same
        trace always produces the same bytes — a requirement of the on-disk
        trace cache's byte-stability guarantee.  Members are written one at
        a time, with each column materialised on demand and released after
        writing, so dumping a chunked dataset needs at most one full column
        (not the whole trace) resident.
        """
        members = sorted(
            [f"col__{name}" for name in self._columns.keys()]
            + [f"vocab__{name}" for name in self._vocabs]
            + ["__meta__"])
        header = json.dumps({
            "schema": NPZ_SCHEMA_VERSION,
            "rows": len(self),
            "metadata": self.metadata,
        })
        with zipfile.ZipFile(path, "w",
                             compression=zipfile.ZIP_DEFLATED) as archive:
            for member in members:
                if member == "__meta__":
                    array = _string_array([header])
                elif member.startswith("vocab__"):
                    array = _string_array(
                        self._vocabs[member[len("vocab__"):]])
                else:
                    array = self._columns[member[len("col__"):]]
                write_npz_member(archive, member, array)

    @classmethod
    def from_npz(cls, path: Union[str, Path],
                 lazy: bool = False) -> "TraceDataset":
        """Load a trace written by :meth:`to_npz`.

        With ``lazy=True`` only the header and the categorical vocabularies
        are decompressed up front; each column is decompressed on first
        access, so comparisons that touch a handful of columns never pay for
        the whole trace.

        Raises :class:`~repro.core.exceptions.TraceSchemaError` (a
        ``ValueError`` subclass) when the column-layout schema does not
        match, naming the expected and found versions and the path, and
        ``KeyError`` on missing members.
        """
        path = Path(path)
        if lazy:
            return cls._from_npz_lazy(path)
        with np.load(path, allow_pickle=False) as data:
            header = _parse_npz_header(str(data["__meta__"][0]), path)
            columns: Dict[str, np.ndarray] = {}
            vocabs: Dict[str, Tuple[str, ...]] = {}
            for name in (_INT_COLUMNS + _FLOAT_COLUMNS
                         + _OPTIONAL_FLOAT_COLUMNS + _BOOL_COLUMNS
                         + _STRING_COLUMNS):
                columns[name] = data[f"col__{name}"]
            for name in _CATEGORICAL_COLUMNS:
                columns[name] = data[f"col__{name}"]
                vocabs[name] = tuple(data[f"vocab__{name}"].tolist())
            metadata = header.get("metadata", {})
        dataset = cls.from_columns(columns, vocabs, metadata)
        if isinstance(header.get("rows"), int):
            dataset._row_count = int(header["rows"])
        return dataset

    @classmethod
    def _from_npz_lazy(cls, path: Path) -> "TraceDataset":
        names = (_INT_COLUMNS + _FLOAT_COLUMNS + _OPTIONAL_FLOAT_COLUMNS
                 + _BOOL_COLUMNS + _CATEGORICAL_COLUMNS + _STRING_COLUMNS)
        vocabs: Dict[str, Tuple[str, ...]] = {}
        with zipfile.ZipFile(path) as archive:
            header = _parse_npz_header(
                str(_read_member_array(archive, "__meta__")[0]), path)
            for name in _CATEGORICAL_COLUMNS:
                vocabs[name] = tuple(
                    _read_member_array(archive, f"vocab__{name}").tolist())
            members = set(archive.namelist())
        missing = [name for name in names if f"col__{name}.npy" not in members]
        if missing:
            raise KeyError(
                f"trace npz {path} is missing columns {missing}")
        dataset = cls._from_columns(_LazyNpzColumns(path, names), vocabs,
                                    header.get("metadata", {}))
        if isinstance(header.get("rows"), int):
            dataset._row_count = int(header["rows"])
        return dataset

    # -- block manifests ---------------------------------------------------------------

    def to_block_manifest(self, directory: Union[str, Path]) -> Path:
        """Write the trace as a block-manifest directory.

        Layout: ``manifest.json`` (schema versions, rows, vocabularies,
        metadata, per-block file names and row counts) plus one versioned
        ``block-NNNNNN.npz`` file per block.  Blocks are streamed one at a
        time, so an out-of-core trace is persisted without ever being fully
        resident.  The cache stores budget-exceeding traces this way.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        entries: List[Dict[str, object]] = []
        for index, block in enumerate(self.iter_blocks()):
            name = f"block-{index:06d}.npz"
            arrays = {column: block._columns[column]
                      for column in block._columns.keys()}
            write_block_file(directory / name, arrays, len(block))
            entries.append({"file": name, "rows": len(block)})
        manifest = {
            "schema": BLOCK_SCHEMA_VERSION,
            "npz_schema": NPZ_SCHEMA_VERSION,
            "rows": len(self),
            "metadata": self.metadata,
            "vocabs": {name: list(vocab)
                       for name, vocab in self._vocabs.items()},
            "columns": list(_STORED_COLUMNS),
            "blocks": entries,
        }
        (directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True))
        return directory

    @classmethod
    def from_block_manifest(cls, directory: Union[str, Path],
                            budget: Optional[int] = None,
                            use_default_budget: bool = True,
                            ) -> "TraceDataset":
        """Load a block-manifest directory written by
        :meth:`to_block_manifest` without materialising any block.

        Every block starts spilled, backed by its manifest file; the
        governor's budget (explicit ``budget``, else the process-wide
        default) decides how many blocks may be resident at once.  Raises
        :class:`~repro.core.exceptions.TraceSchemaError` on a schema
        mismatch.
        """
        directory = Path(directory)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        found = manifest.get("schema")
        if found != BLOCK_SCHEMA_VERSION:
            raise TraceSchemaError(
                f"trace manifest {directory} was written with block schema "
                f"{found!r} but this version reads schema "
                f"{BLOCK_SCHEMA_VERSION}; regenerate the trace (or delete "
                f"the entry) to proceed")
        if budget is None and use_default_budget:
            budget = get_memory_budget()
        governor = ResidencyGovernor(budget)
        names = tuple(manifest.get("columns", _STORED_COLUMNS))
        store = BlockStore(governor)
        for entry in manifest["blocks"]:
            path = directory / str(entry["file"])
            store.append_block(ColumnBlock(
                governor, path=path, rows=int(entry["rows"]), names=names,
                nbytes=0))
        vocabs = {name: tuple(vocab)
                  for name, vocab in manifest.get("vocabs", {}).items()}
        if not store.blocks:
            columns, empty_vocabs = columns_from_records([])
            empty_vocabs.update(vocabs)
            return cls._from_columns(columns, empty_vocabs,
                                     manifest.get("metadata", {}))
        dataset = cls._from_block_store(store, vocabs,
                                        manifest.get("metadata", {}))
        dataset._row_count = int(manifest.get("rows", store.rows))
        return dataset

    # -- Arrow / Parquet export --------------------------------------------------------

    @staticmethod
    def _require_pyarrow():
        try:
            import pyarrow  # noqa: F401
        except ImportError:
            raise WorkloadError(
                "Arrow/Parquet export needs the optional 'pyarrow' package, "
                "which is not installed in this environment; install "
                "pyarrow (pip install pyarrow) or export to csv/json "
                "instead") from None
        return pyarrow

    def to_arrow(self):
        """The trace as a ``pyarrow.Table`` (optional dependency).

        Categorical columns become dictionary arrays (codes + vocabulary,
        mirroring the columnar layout), optional floats map NaN to null,
        and the trace metadata rides along in the schema metadata.  Raises
        :class:`~repro.core.exceptions.WorkloadError` with an actionable
        message when pyarrow is unavailable.
        """
        pa = self._require_pyarrow()
        arrays = []
        names = []
        for name in _STORED_COLUMNS:
            column = self._columns[name]
            if name in _CATEGORICAL_COLUMNS:
                vocab = list(self._vocabs[name])
                array = pa.DictionaryArray.from_arrays(
                    pa.array(np.asarray(column, dtype=np.int32)),
                    pa.array(vocab, type=pa.string()))
            elif name in _OPTIONAL_FLOAT_COLUMNS:
                array = pa.array(np.asarray(column, dtype=np.float64),
                                 from_pandas=True)  # NaN -> null
            elif name in _STRING_COLUMNS:
                array = pa.array([str(v) for v in column.tolist()],
                                 type=pa.string())
            else:
                array = pa.array(column)
            arrays.append(array)
            names.append(name)
        table = pa.table(dict(zip(names, arrays)))
        if self.metadata:
            table = table.replace_schema_metadata(
                {"repro_trace_metadata": json.dumps(self.metadata,
                                                    sort_keys=True)})
        return table

    def to_parquet(self, path: Union[str, Path]) -> None:
        """Write the trace as a Parquet file (optional pyarrow)."""
        self._require_pyarrow()
        import pyarrow.parquet as pq
        pq.write_table(self.to_arrow(), str(path))

    def to_feather(self, path: Union[str, Path]) -> None:
        """Write the trace as an Arrow IPC (Feather v2) file."""
        self._require_pyarrow()
        import pyarrow.feather as feather
        feather.write_feather(self.to_arrow(), str(path))

    @classmethod
    def load(cls, path: Union[str, Path],
             lazy: bool = False) -> "TraceDataset":
        """Load a trace from .npz, .csv or .json (by file suffix).

        ``lazy`` requests per-column on-demand loading and only applies to
        the ``.npz`` format (text formats are parsed whole regardless).
        """
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".npz":
            return cls.from_npz(path, lazy=lazy)
        if suffix == ".csv":
            return cls.from_csv(path)
        return cls.from_json(path)

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace as .npz, .csv or .json (by file suffix)."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".npz":
            self.to_npz(path)
        elif suffix == ".csv":
            self.to_csv(path)
        else:
            self.to_json(path)


def _coerce_row(row: Dict[str, str]) -> Dict[str, object]:
    """Convert CSV string values back to the JobRecord field types."""
    coerced: Dict[str, object] = {}
    for key, value in row.items():
        if key in _INT_COLUMNS:
            coerced[key] = int(float(value))
        elif key in _FLOAT_COLUMNS:
            coerced[key] = float(value)
        elif key in _OPTIONAL_FLOAT_COLUMNS:
            coerced[key] = None if value in ("", "None") else float(value)
        elif key in _BOOL_COLUMNS:
            coerced[key] = value in ("True", "true", "1")
        else:
            coerced[key] = value
    return coerced
