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
bytes out) so on-disk caches stay byte-stable.  The ``.npz`` is the one
on-disk trace format of the trace cache, with or without a memory budget.

Blocks: every dataset holds its columns in one
:class:`~repro.workloads.blocks.BlockStore`.  With no resident-bytes
budget (see :func:`repro.workloads.blocks.set_memory_budget`) the store
is one resident block under an unbudgeted governor.  Under a budget the
rows are cut into :class:`~repro.workloads.blocks.ColumnBlock` row ranges,
four of which fit in it, that spill to raw column files past the budget
and stream back on access.  :meth:`TraceDataset.iter_blocks` is the
sanctioned full-scan path; column access, selection and group-by stream
block-wise under the hood.  Under a budget the ``.npz`` dump is written
and read a block at a time, so neither ever holds a whole column, and its
bytes do not depend on the block layout.
"""

from __future__ import annotations

import csv
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
    BlockStore,
    DEFAULT_BLOCK_ROWS,
    NpyMemberReader,
    ResidencyGovernor,
    get_memory_budget,
    read_npz_member,
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
#: The order an ``.npz`` load reads its columns in: ``job_id``, the
#: widest, before the small categorical codes, so a whole load holds
#: fewer resident columns beside its read buffers.
_NPZ_READ_ORDER = (_INT_COLUMNS + _FLOAT_COLUMNS + _OPTIONAL_FLOAT_COLUMNS
                   + _BOOL_COLUMNS + _STRING_COLUMNS + _CATEGORICAL_COLUMNS)


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


def _merge_categorical(
    parts: Sequence[Tuple[np.ndarray, Tuple[str, ...]]],
) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Concatenate ``(codes, vocabulary)`` parts of one categorical column.

    The vocabularies are unioned and sorted, exactly like a full-list
    encode, and each part's codes are remapped into the union.
    """
    merged = tuple(sorted(set().union(*(vocab for _, vocab in parts))))
    mapping = {value: code for code, value in enumerate(merged)}
    remapped = [
        np.asarray([mapping[v] for v in vocab] or [0], dtype=np.int32)[codes]
        for codes, vocab in parts
    ]
    return np.concatenate(remapped), merged


def _cut_blocks(store: BlockStore, rows: int, column_nbytes: int,
                read: Callable[[int, int], Dict[str, np.ndarray]],
                ) -> BlockStore:
    """Fill ``store`` with ``rows`` rows; ``read(start, count)`` gives
    each block's arrays, in row order.

    With no budget the rows are one block (an empty trace is one empty
    block, so every store knows its columns).  Under a budget, blocks are
    cut so that four fit in it at once and the governor can actually
    rotate (spill and reload) them.
    """
    budget = store.governor.budget
    rows_per_block = max(rows, 1)
    if budget is not None and rows:
        bytes_per_row = max(1, column_nbytes // rows)
        rows_per_block = min(DEFAULT_BLOCK_ROWS,
                             max(1, budget // (4 * bytes_per_row)))
    for start in range(0, max(rows, 1), rows_per_block):
        count = min(rows_per_block, rows - start)
        store.append_arrays(read(start, count), rows=count)
    return store


def _store_columns(columns: Dict[str, np.ndarray],
                   governor: Optional[ResidencyGovernor] = None,
                   ) -> BlockStore:
    """Full columns as a block store under ``governor`` (by default, a
    new one of the process-wide budget)."""
    return _cut_blocks(
        BlockStore(governor), len(columns["month_index"]),
        sum(column.nbytes for column in columns.values()),
        lambda start, count: {
            name: np.ascontiguousarray(column[start:start + count])
            for name, column in columns.items()})


def _parse_npz_header(text: str, path: Path) -> Dict[str, object]:
    header = json.loads(text)
    found = header.get("schema")
    if found != NPZ_SCHEMA_VERSION:
        raise TraceSchemaError(
            f"trace npz {path} was written with column-layout schema "
            f"{found!r} but this version reads schema {NPZ_SCHEMA_VERSION}; "
            f"regenerate the trace (or delete the file) to proceed")
    return header


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
        return TraceDataset.from_columns(columns, vocabs, metadata)
    columns: Dict[str, np.ndarray] = {}
    vocabs: Dict[str, Tuple[str, ...]] = {}
    for name in _CATEGORICAL_COLUMNS:
        columns[name], vocabs[name] = _merge_categorical(
            [(p.columns[name], p.vocabs[name]) for p in payloads])
    for name in _STORED_COLUMNS:
        if name in _CATEGORICAL_COLUMNS:
            continue
        columns[name] = np.concatenate(
            [np.asarray(p.columns[name]) for p in payloads])
    order = np.lexsort((columns["job_id"], columns["submit_time"]))
    columns = {name: column[order] for name, column in columns.items()}
    return TraceDataset.from_columns(columns, vocabs, metadata)


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


class TraceDataset:
    """An ordered, columnar collection of :class:`JobRecord` rows.

    Construct through :meth:`from_records` or :meth:`from_columns`;
    ``TraceDataset()`` is the empty dataset.
    """

    def __init__(self, *, metadata: Optional[Dict[str, object]] = None):
        columns, vocabs = columns_from_records([])
        self._attach(_store_columns(columns), vocabs, metadata)

    # -- construction ------------------------------------------------------------------

    def _attach(self, store: BlockStore, vocabs: Dict[str, Tuple[str, ...]],
                metadata: Optional[Dict[str, object]]) -> "TraceDataset":
        """The one constructor: a dataset is its store of stored columns,
        the categorical vocabularies and the metadata."""
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._store = store
        self._vocabs = dict(vocabs)
        self._derived: Dict[str, np.ndarray] = {}
        return self

    @classmethod
    def _from_store(cls, store: BlockStore,
                    vocabs: Dict[str, Tuple[str, ...]],
                    metadata: Optional[Dict[str, object]] = None,
                    ) -> "TraceDataset":
        return cls.__new__(cls)._attach(store, vocabs, metadata)

    @classmethod
    def from_records(cls, records: Optional[Iterable[JobRecord]] = None,
                     metadata: Optional[Dict[str, object]] = None,
                     ) -> "TraceDataset":
        """Build a dataset from row records (the sanctioned spelling)."""
        columns, vocabs = columns_from_records(list(records or []))
        return cls.from_columns(columns, vocabs, metadata)

    @classmethod
    def from_columns(cls, columns: Dict[str, np.ndarray],
                     vocabs: Dict[str, Tuple[str, ...]],
                     metadata: Optional[Dict[str, object]] = None,
                     ) -> "TraceDataset":
        """Build a dataset from full columns: one resident block with no
        memory budget, governed blocks cut to fit one."""
        return cls._from_store(_store_columns(columns), vocabs, metadata)

    # -- container protocol ------------------------------------------------------------

    def __len__(self) -> int:
        return self._store.rows

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
        for start, stop, block in self._store.iter_ranges():
            if i < stop:
                break
        columns = block.arrays()
        i -= start
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
        """Append rows, re-cutting the blocks under the dataset's own
        governor (rebuilds every column; not a hot path)."""
        rows = list(records)
        if not rows:
            return
        new_columns, new_vocabs = columns_from_records(rows)
        store = self._store
        columns: Dict[str, np.ndarray] = {}
        for name in store.names:
            if name in _CATEGORICAL_COLUMNS:
                columns[name], self._vocabs[name] = _merge_categorical([
                    (store.column(name), self._vocabs[name]),
                    (new_columns[name], new_vocabs[name]),
                ])
            else:
                columns[name] = np.concatenate([store.column(name),
                                                new_columns[name]])
        self._store = _store_columns(columns, store.governor)
        self._derived.clear()

    # -- the block data plane ----------------------------------------------------------

    @property
    def is_out_of_core(self) -> bool:
        """True when the column bytes exceed the dataset's budget."""
        store = self._store
        budget = store.governor.budget
        return budget is not None and store.total_nbytes > budget

    def column_nbytes(self) -> int:
        """Total stored-column bytes (resident or spilled)."""
        return self._store.total_nbytes

    def data_plane_stats(self) -> Dict[str, object]:
        """The store's block, residency and spill counters."""
        return self._store.stats()

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
                    ) -> Iterator["TraceDataset"]:
        """Yield the dataset's blocks as resident datasets, in row order.

        This is the sanctioned full-scan path: each yielded block is a
        small fully resident :class:`TraceDataset` (sharing the parent's
        vocabularies, so codes and categories line up) and only one block's
        arrays need to be in memory at a time.  ``columns`` restricts which
        stored columns are materialised (derived names pull in their
        inputs); a spilled block then reads only those columns.  A view's
        governor is unbudgeted: its arrays belong to a parent block that
        the parent's governor already counts.
        """
        names = self._stored_dependencies(columns)
        for block in self._store.blocks:
            arrays = block.arrays() if names is None \
                else {name: block.column(name) for name in names}
            view = BlockStore(ResidencyGovernor())
            view.append_arrays(arrays, rows=block.rows)
            yield TraceDataset._from_store(view, self._vocabs)

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
            keys = block._store.column(by) if categorical \
                else block.values(by)
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
        store = self._store
        # Under a budget nothing full-length is cached on the dataset —
        # the budget governs what stays in memory, so every values() call
        # re-streams from the blocks (transient result).
        cache = self._derived if store.governor.budget is None else None
        if name in store.names:
            if name in _CATEGORICAL_COLUMNS:
                cached = cache.get(name) if cache is not None else None
                if cached is None:
                    vocab = _string_array(self._vocabs[name])
                    if len(self._vocabs[name]) == 0:
                        cached = np.asarray([], dtype="<U1")
                    else:
                        cached = vocab[store.column(name)]
                    if cache is not None:
                        cache[name] = cached
                return cached
            return store.column(name)
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
        column = self._store.column
        with np.errstate(divide="ignore", invalid="ignore"):
            if name == "queue_minutes":
                return column("queue_seconds") / 60.0
            if name == "run_minutes":
                return column("run_seconds") / 60.0
            if name == "queue_to_run_ratio":
                queue = column("queue_seconds")
                run = column("run_seconds")
                valid = ~np.isnan(queue) & (run > 0)
                return np.where(valid, queue / run, np.nan)
            if name == "per_circuit_queue_seconds":
                batch = column("batch_size")
                return np.where(batch != 0,
                                column("queue_seconds") / batch, np.nan)
            if name == "per_circuit_run_seconds":
                batch = column("batch_size")
                return np.where(batch != 0,
                                column("run_seconds") / batch, np.nan)
            if name == "utilization":
                qubits = column("machine_qubits")
                width = column("circuit_width")
                return np.where(
                    qubits > 0,
                    np.minimum(1.0, width / np.maximum(qubits, 1)),
                    0.0,
                )
            if name == "total_trials":
                return column("batch_size") * column("shots")
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
            return self._store.column(name) == code
        return self.values(name) == value

    def value_counts(self, name: str) -> Dict[object, int]:
        """Occurrence counts of each present value of a column."""
        if name in _CATEGORICAL_COLUMNS:
            vocab = self._vocabs[name]
            counts = np.bincount(self._store.column(name),
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
        """Block-streamed row selection; the child shares the governor.

        Ascending selections (boolean masks, sorted index arrays — every
        internal caller) stream one parent block at a time into one child
        block each, so peak memory stays O(block).  An unsorted ``take``
        gathers column-at-a-time instead, preserving the requested order.
        """
        store = self._store
        selector = np.asarray(selector)
        if selector.dtype == bool:
            indices = np.flatnonzero(selector)
        else:
            size = len(self)
            indices = selector.astype(np.int64, copy=False)
            if indices.size and (indices.min() < -size
                                 or indices.max() >= size):
                raise IndexError("record index out of range")
            indices = np.where(indices < 0, indices + size, indices)
        child = BlockStore(store.governor)
        if np.all(indices[1:] >= indices[:-1]):
            for start, stop, block in store.iter_ranges():
                low, high = np.searchsorted(indices, (start, stop))
                if low == high and child.blocks:
                    continue
                local = indices[low:high] - start
                child.append_arrays(
                    {name: np.ascontiguousarray(array[local])
                     for name, array in block.arrays().items()},
                    rows=int(local.size))
                store.governor.enforce()
        else:
            child.append_arrays(
                {name: store.column(name)[indices] for name in store.names},
                rows=int(indices.size))
        return TraceDataset._from_store(child, self._vocabs, metadata)

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
        return self.where(self._store.column("run_seconds") > 0)

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
        present = np.unique(self._store.column(name))
        return [vocab[int(code)] for code in present]

    def group_by(self, name: str) -> Dict[object, "TraceDataset"]:
        """Split into per-value subsets of a categorical or integer column.

        Keys are sorted; each subset preserves row order.  Subsets share the
        parent's categorical vocabularies, so codes remain comparable.

        One stable sort orders the keys; each group is then an ascending
        selection (the sort keeps a group's rows in trace order), streamed
        a parent block at a time into blocks that share the governor.
        """
        size = len(self)
        if size == 0:
            return {}
        if name in _CATEGORICAL_COLUMNS:
            keys = self._store.column(name)
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
        return {decode(sorted_keys[start].item()):
                self._subset(order[start:end])
                for start, end in zip(starts.tolist(), ends.tolist())}

    def group_by_machine(self) -> Dict[str, "TraceDataset"]:
        return self.group_by("machine")

    def group_by_month(self) -> Dict[int, "TraceDataset"]:
        return self.group_by("month_index")

    # -- aggregate summaries -------------------------------------------------------------

    def total_circuits(self) -> int:
        return int(self._store.column("batch_size").sum())

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
        trace cache's byte-stability guarantee.  Each column member is
        written block by block, so the dump holds one block's column at a
        time, never a whole column; a spilled block reads only that
        column.
        """
        rows = len(self)
        header = json.dumps({
            "schema": NPZ_SCHEMA_VERSION,
            "rows": rows,
            "metadata": self.metadata,
        })
        store = self._store
        members = sorted(
            [f"col__{name}" for name in store.names]
            + [f"vocab__{name}" for name in self._vocabs]
            + ["__meta__"])
        with zipfile.ZipFile(path, "w",
                             compression=zipfile.ZIP_DEFLATED) as archive:
            for member in members:
                kind, _, name = member.partition("__")
                if member == "__meta__":
                    array = _string_array([header])
                elif kind == "vocab":
                    array = _string_array(self._vocabs[name])
                else:
                    write_npz_member(
                        archive, member, rows, store.dtype(name),
                        (block.column(name) for block in store.blocks))
                    continue
                write_npz_member(archive, member, len(array), array.dtype,
                                 [array])

    @classmethod
    def from_npz(cls, path: Union[str, Path]) -> "TraceDataset":
        """Load a trace written by :meth:`to_npz`.

        The dataset never goes back to the file.  With no memory budget
        each column is read whole, one member at a time, into one block
        (reading in step would hold every member's inflate state at once);
        under one, every column member is read in step, one block of rows
        at a time, into governed blocks laid out as :meth:`from_columns`
        would cut the same columns, so no whole column is ever resident.

        Raises :class:`~repro.core.exceptions.TraceSchemaError` (a
        ``ValueError`` subclass) when the column-layout schema does not
        match, naming the expected and found versions and the path;
        ``KeyError`` on missing members; and ``ValueError`` when a member is
        not a 1-D, C-order array of plain items of the trace's length.
        ``zipfile`` and ``zlib`` raise their own errors for a damaged
        archive.
        """
        path = Path(path)
        with zipfile.ZipFile(path) as archive:
            header = _parse_npz_header(
                str(read_npz_member(archive, "__meta__", 1)[0]), path)
            rows = header.get("rows")
            if not isinstance(rows, int) or rows < 0:
                raise ValueError(f"trace npz {path} declares {rows!r} rows")
            vocabs = {
                name: tuple(read_npz_member(archive,
                                            f"vocab__{name}").tolist())
                for name in _CATEGORICAL_COLUMNS
            }
            metadata = header.get("metadata", {})
            if get_memory_budget() is None:
                columns = {name: read_npz_member(archive, f"col__{name}",
                                                 rows)
                           for name in _NPZ_READ_ORDER}
                return cls.from_columns(columns, vocabs, metadata)
            readers: Dict[str, NpyMemberReader] = {}
            try:
                for name in _NPZ_READ_ORDER:
                    readers[name] = NpyMemberReader(
                        archive, f"col__{name}", rows)
                store = _cut_blocks(
                    BlockStore(), rows,
                    sum(rows * reader.dtype.itemsize
                        for reader in readers.values()),
                    lambda start, count: {
                        name: reader.read(count)
                        for name, reader in readers.items()})
            finally:
                for reader in readers.values():
                    reader.close()
        return cls._from_store(store, vocabs, metadata)

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
            column = self._store.column(name)
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
    def load(cls, path: Union[str, Path]) -> "TraceDataset":
        """Load a trace from .npz, .csv or .json (by file suffix)."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".npz":
            return cls.from_npz(path)
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
