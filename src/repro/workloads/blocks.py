"""Chunked column blocks, disk spill, and the resident-bytes governor.

The data plane stores every trace as an ordered sequence of
:class:`ColumnBlock` objects — row ranges whose columns live in one
``{name: ndarray}`` dict each.  A :class:`BlockStore` owns the sequence
and a :class:`ResidencyGovernor` enforces a configurable resident-bytes
budget across every store that shares it: past the budget,
least-recently used blocks are *spilled* to a file of raw column bytes
in the governor's private directory (or simply dropped when they were
spilled before) and transparently re-read, CRC-checked, on the next
access.  A governor tracks its blocks weakly, so a block nothing else
holds leaves the accounting as soon as it is freed.

The module is deliberately independent of :mod:`repro.workloads.trace`
(which builds on it) — it knows nothing about job records, vocabularies or
derived columns, only about named arrays of equal length.

The process-wide memory budget defaults to unlimited; set it with
:func:`set_memory_budget`, the ``REPRO_MEMORY_BUDGET`` environment variable
(bytes, with optional ``K``/``M``/``G`` suffix) or the CLI's
``--memory-budget`` flag.  ``None`` disables spilling entirely: a trace
is then one resident block under an unbudgeted governor.
"""

from __future__ import annotations

import io
import os
import tempfile
import threading
import weakref
import zipfile
import zlib
from functools import reduce
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.exceptions import WorkloadError
from repro.telemetry import Tally, get_registry, get_tracer

__all__ = [
    "BlockStore",
    "ColumnBlock",
    "DEFAULT_BLOCK_ROWS",
    "NpyMemberReader",
    "ResidencyGovernor",
    "get_memory_budget",
    "parse_byte_size",
    "read_npz_member",
    "set_memory_budget",
    "write_npz_member",
]

#: The residency event families: each governor tallies its own events
#: into these, so ``/metrics`` exposes them (at zero) even in processes
#: that never build an out-of-core dataset.
_RESIDENCY_FAMILIES = {
    event: get_registry().counter(f"repro_residency_{event}_total",
                                  help=help_text)
    for event, help_text in (
        ("spills", "Blocks spilled (written to a new spill file)."),
        ("loads", "Blocks re-read from their spill file."),
        ("evictions", "Blocks released from memory (spilled or dropped)."),
    )
}
#: Every live governor, read by the one resident-bytes gauge.
_LIVE_GOVERNORS: "weakref.WeakSet[ResidencyGovernor]" = weakref.WeakSet()
_LIVE_LOCK = threading.Lock()


def _live_resident_bytes(governors: "weakref.WeakSet") -> int:
    with _LIVE_LOCK:
        live = list(governors)
    return sum(governor.resident_bytes for governor in live)


get_registry().callback_gauge(
    "repro_residency_resident_bytes", _LIVE_GOVERNORS, _live_resident_bytes,
    help="Bytes held by resident blocks across live governors.")

#: Most rows per block when a trace is cut under a budget.  Small enough
#: that one block of the full column set stays in the tens of megabytes
#: at the paper's record width, large enough that per-block overheads
#: vanish.
DEFAULT_BLOCK_ROWS = 65536

_ENV_BUDGET = "REPRO_MEMORY_BUDGET"

_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def parse_byte_size(text: Union[str, int, None]) -> Optional[int]:
    """Parse a byte budget: plain integer or ``K``/``M``/``G`` suffixed.

    ``None``, ``""`` and the literal strings ``none``/``unlimited`` mean no
    budget.  Raises :class:`~repro.core.exceptions.WorkloadError` on
    malformed input.
    """
    if text is None:
        return None
    if isinstance(text, int):
        if text < 0:
            raise WorkloadError(f"memory budget must be >= 0, got {text}")
        return text
    cleaned = str(text).strip().lower()
    if cleaned in ("", "none", "unlimited"):
        return None
    multiplier = 1
    if cleaned[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = int(float(cleaned) * multiplier)
    except ValueError:
        raise WorkloadError(
            f"cannot parse memory budget {text!r}; expected bytes or a "
            f"K/M/G-suffixed size like '256M'") from None
    if value < 0:
        raise WorkloadError(f"memory budget must be >= 0, got {text!r}")
    return value


_memory_budget: Optional[int] = parse_byte_size(os.environ.get(_ENV_BUDGET))
_budget_lock = threading.Lock()


def set_memory_budget(budget: Union[str, int, None]) -> Optional[int]:
    """Set the process-wide resident-bytes budget (None = unlimited).

    Affects datasets *built after* the call: construction paths give each
    new dataset a governor of this budget and cut its blocks to fit it.
    Returns the parsed byte value.
    """
    global _memory_budget
    parsed = parse_byte_size(budget)
    with _budget_lock:
        _memory_budget = parsed
    return parsed


def get_memory_budget() -> Optional[int]:
    """The process-wide resident-bytes budget (None = unlimited)."""
    with _budget_lock:
        return _memory_budget


# -- deterministic npz helpers ---------------------------------------------------------

#: Bytes per read while a ``.npy`` member is decoded (NumPy's own
#: ``read_array`` buffer size), so a whole-member read holds the array
#: plus one such buffer.
_READ_BYTES = 1 << 18


def write_npz_member(archive: zipfile.ZipFile, member: str, length: int,
                     dtype: np.dtype, chunks: Iterable[np.ndarray]) -> None:
    """Write one 1-D ``.npy`` member of ``length`` items, chunk by chunk.

    The ``.npy`` 1.0 header declares the whole member, then each chunk is
    cast to ``dtype`` and deflated as it arrives, so a member never exists
    in memory at once.  Timestamp and compression are fixed, and deflate
    output does not depend on how its input is split, so the bytes equal
    those of ``np.save`` on the concatenated chunks: the trace's ``.npz``
    dump is written byte-deterministically.
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {
        "descr": np.lib.format.dtype_to_descr(dtype),
        "fortran_order": False,
        "shape": (int(length),),
    })
    info = zipfile.ZipInfo(member + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
    info.compress_type = zipfile.ZIP_DEFLATED
    info.file_size = header.tell() + int(length) * dtype.itemsize
    with archive.open(info, "w") as handle:
        handle.write(header.getbuffer())
        for chunk in chunks:
            handle.write(np.ascontiguousarray(chunk, dtype=dtype))


class NpyMemberReader:
    """One 1-D ``.npy`` member of an open ``.npz``, read a row range at a
    time.

    The header is checked on open: the member must be a 1-D, C-order
    array of a non-object dtype (what ``np.load(allow_pickle=False)``
    guarantees), of exactly ``rows`` items when ``rows`` is given;
    anything else raises ``ValueError``.  The member is read to its end,
    so ``zipfile`` checks its CRC, and bytes past the declared items are
    corrupt too.
    """

    def __init__(self, archive: zipfile.ZipFile, member: str,
                 rows: Optional[int] = None):
        handle = archive.open(member + ".npy")
        try:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran_order, dtype = \
                    np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran_order, dtype = \
                    np.lib.format.read_array_header_2_0(handle)
            else:
                raise ValueError(f"member {member} has .npy version "
                                 f"{version}; expected 1.0 or 2.0")
            if len(shape) != 1 or fortran_order or dtype.hasobject \
                    or (rows is not None and shape[0] != rows):
                raise ValueError(
                    f"member {member} holds a {dtype} array of shape "
                    f"{shape}, not a 1-D C-order array of plain items "
                    f"of the trace's length")
        except BaseException:
            handle.close()
            raise
        self._handle = handle
        self.member = member
        self.dtype = dtype
        self.length = int(shape[0])
        self.remaining = self.length

    def read(self, count: int) -> np.ndarray:
        """The next ``count`` items; the member closes after its last."""
        itemsize = self.dtype.itemsize
        array = np.ndarray(count, dtype=self.dtype)
        step = max(1, _READ_BYTES // max(1, itemsize))
        for start in range(0, count, step):
            stop = min(count, start + step)
            data = self._handle.read((stop - start) * itemsize)
            if len(data) != (stop - start) * itemsize:
                raise ValueError(f"member {self.member} is truncated")
            array[start:stop] = np.frombuffer(data, dtype=self.dtype)
        self.remaining -= count
        if self.remaining == 0:
            trailing = self._handle.read(1)
            self.close()
            if trailing:
                raise ValueError(f"member {self.member} has bytes past its "
                                 f"{self.length} items")
        return array

    def close(self) -> None:
        self._handle.close()


def read_npz_member(archive: zipfile.ZipFile, member: str,
                    rows: Optional[int] = None) -> np.ndarray:
    """One whole 1-D member (see :class:`NpyMemberReader`)."""
    reader = NpyMemberReader(archive, member, rows)
    try:
        return reader.read(reader.length)
    finally:
        reader.close()


# -- residency -------------------------------------------------------------------------

class ResidencyGovernor:
    """LRU accountant of resident block bytes across one or more stores.

    A governor is shared between a dataset and every subset/group derived
    from it, so the *combined* resident footprint of a whole analysis is
    what the budget bounds.  ``budget=None`` disables enforcement (blocks
    are tracked but never released).  Blocks are tracked weakly: the
    governor never keeps a block alive, so a dropped subset's blocks
    neither count against the budget nor get spilled.
    """

    def __init__(self, budget: Optional[int] = None):
        if budget is not None and budget < 0:
            raise WorkloadError(f"budget must be >= 0, got {budget}")
        self.budget = budget
        self.spills = Tally(_RESIDENCY_FAMILIES["spills"])
        self.loads = Tally(_RESIDENCY_FAMILIES["loads"])
        self.evictions = Tally(_RESIDENCY_FAMILIES["evictions"])
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        #: insertion-ordered resident set; its dict keeps LRU order
        self._resident: "weakref.WeakKeyDictionary[ColumnBlock, None]" = \
            weakref.WeakKeyDictionary()
        self._lock = threading.RLock()
        self._spill_seq = 0
        with _LIVE_LOCK:
            _LIVE_GOVERNORS.add(self)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return sum(block.nbytes for block in self._resident)

    def spill_path(self) -> Path:
        """A fresh path for one spill file in the governor's private
        directory (made on first use under ``TMPDIR``)."""
        with self._lock:
            if self._tmp is None:
                self._tmp = tempfile.TemporaryDirectory(
                    prefix="repro-blocks-")
            self._spill_seq += 1
            return Path(self._tmp.name) / f"spill-{self._spill_seq:06d}.bin"

    def admit(self, block: "ColumnBlock") -> None:
        """Track a block that just became resident (most recently used)."""
        with self._lock:
            self._resident.pop(block, None)
            self._resident[block] = None

    def touch(self, block: "ColumnBlock") -> None:
        """Bump a resident block's recency."""
        with self._lock:
            if block in self._resident:
                self._resident.pop(block)
                self._resident[block] = None

    def discard(self, block: "ColumnBlock") -> None:
        with self._lock:
            self._resident.pop(block, None)

    def enforce(self, keep: Optional["ColumnBlock"] = None) -> None:
        """Release least-recently-used blocks until within budget.

        ``keep`` (the block the caller is actively reading) is never
        released, so a budget smaller than one block still makes progress.
        """
        if self.budget is None:
            return
        with self._lock:
            total = sum(block.nbytes for block in self._resident)
            if total <= self.budget:
                return
            for block in list(self._resident):
                if total <= self.budget:
                    break
                if block is keep:
                    continue
                total -= block.nbytes
                block._release()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "budget_bytes": self.budget,
                "resident_bytes": self.resident_bytes,
                "resident_blocks": len(self._resident),
                "spills": self.spills.value,
                "loads": self.loads.value,
                "evictions": self.evictions.value,
            }


class ColumnBlock:
    """One row range of a trace: named equal-length arrays.

    A block is either *resident* (``_arrays`` holds the column dict) or
    *spilled* (``path`` names the file the governor spilled it to: the
    columns' raw bytes end to end, each with its offset and CRC-32 in
    ``_spilled``).  A block starts resident; once spilled, releasing it
    again writes nothing.  The spill file is written and read by one
    process and deleted with its block, so it carries no header or
    version.
    """

    def __init__(self, governor: ResidencyGovernor,
                 arrays: Dict[str, np.ndarray],
                 rows: Optional[int] = None,
                 names: Optional[Sequence[str]] = None):
        self.governor = governor
        self._arrays: Optional[Dict[str, np.ndarray]] = dict(arrays)
        self.path: Optional[Path] = None
        self._spilled: Dict[str, Tuple[int, int]] = {}
        first = next(iter(self._arrays.values()), None)
        self.rows = int(rows if rows is not None
                        else (0 if first is None else first.shape[0]))
        self.names = tuple(names if names is not None
                           else sorted(self._arrays))
        #: each column's dtype, known without reloading a spilled block
        self.dtypes = {name: array.dtype
                       for name, array in self._arrays.items()}
        self.nbytes = sum(array.nbytes for array in self._arrays.values())
        governor.admit(self)
        governor.enforce(keep=self)

    @property
    def resident(self) -> bool:
        return self._arrays is not None

    def arrays(self) -> Dict[str, np.ndarray]:
        """The block's full column dict, loading from disk if spilled."""
        governor = self.governor
        arrays = self._arrays
        if arrays is None:
            with get_tracer().span("blocks.load", rows=self.rows,
                                   nbytes=self.nbytes):
                loaded = self._read(self.names)
            self._arrays = loaded
            governor.loads.inc()
            governor.admit(self)
            governor.enforce(keep=self)
            return loaded
        governor.touch(self)
        return arrays

    def column(self, name: str) -> np.ndarray:
        """One column of the block.

        A spilled block reads only the requested column's bytes — a
        single-column scan over a spilled trace never touches the other
        columns and does not change the block's residency.
        """
        if name not in self.names:
            raise KeyError(name)
        arrays = self._arrays
        if arrays is not None:
            self.governor.touch(self)
            return arrays[name]
        return self._read((name,))[name]

    def _read(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Columns read back from the spill file, each checked against its
        length and CRC-32 (:class:`WorkloadError` when either differs)."""
        arrays: Dict[str, np.ndarray] = {}
        with open(self.path, "rb") as handle:
            for name in names:
                offset, crc = self._spilled[name]
                handle.seek(offset)
                array = np.fromfile(handle, dtype=self.dtypes[name],
                                    count=self.rows)
                if array.shape[0] != self.rows or zlib.crc32(array) != crc:
                    raise WorkloadError(
                        f"spill file {self.path} is damaged: column "
                        f"{name!r} does not read back as written")
                arrays[name] = array
        return arrays

    def _release(self) -> None:
        """Drop the resident arrays, spilling first when not yet on disk.

        Called by the governor under its lock; callers holding array
        references keep them valid (the block simply reloads later).
        """
        if self._arrays is None:
            return
        if self.path is None:
            path = self.governor.spill_path()
            with get_tracer().span("blocks.spill", rows=self.rows,
                                   nbytes=self.nbytes), \
                    open(path, "wb") as handle:
                offset = 0
                for name in self.names:
                    array = np.ascontiguousarray(self._arrays[name])
                    handle.write(array)
                    self._spilled[name] = (offset, zlib.crc32(array))
                    offset += array.nbytes
            self.path = path
            # The file goes when the block does, not only with the
            # governor's directory: a dropped subset leaves no file.
            weakref.finalize(self, path.unlink, missing_ok=True)
            self.governor.spills.inc()
        self._arrays = None
        self.governor.evictions.inc()
        self.governor.discard(self)


class BlockStore:
    """An ordered sequence of column blocks forming one logical table."""

    def __init__(self, governor: Optional[ResidencyGovernor] = None):
        self.governor = governor if governor is not None else \
            ResidencyGovernor(get_memory_budget())
        self.blocks: List[ColumnBlock] = []
        self.rows = 0
        self.names: Tuple[str, ...] = ()

    def append_block(self, block: ColumnBlock) -> ColumnBlock:
        if block.governor is not self.governor:
            raise WorkloadError(
                "a block must share its store's residency governor")
        if self.blocks and tuple(block.names) != self.names:
            raise WorkloadError(
                f"block columns {sorted(block.names)} do not match the "
                f"store's {sorted(self.names)}")
        if not self.blocks:
            self.names = tuple(block.names)
        self.blocks.append(block)
        self.rows += block.rows
        return block

    def append_arrays(self, arrays: Dict[str, np.ndarray],
                      rows: Optional[int] = None) -> ColumnBlock:
        return self.append_block(ColumnBlock(
            self.governor, arrays=arrays, rows=rows,
            names=tuple(sorted(arrays))))

    def iter_ranges(self) -> Iterator[Tuple[int, int, ColumnBlock]]:
        """Yield ``(start_row, stop_row, block)`` in trace order."""
        start = 0
        for block in self.blocks:
            yield start, start + block.rows, block
            start += block.rows

    def column(self, name: str) -> np.ndarray:
        """The full column: a one-block store's own array, else one
        transient concatenation (a spilled block reads only this column's
        bytes, without loading the rest of its columns)."""
        if name not in self.names:
            raise KeyError(name)
        if len(self.blocks) == 1:
            return self.blocks[0].column(name)
        return np.concatenate([block.column(name)
                               for block in self.blocks])

    def dtype(self, name: str) -> np.dtype:
        """The dtype :meth:`column` returns, read from no spill file."""
        return reduce(np.promote_types,
                      (block.dtypes[name] for block in self.blocks))

    @property
    def total_nbytes(self) -> int:
        return sum(block.nbytes for block in self.blocks)

    def stats(self) -> Dict[str, object]:
        resident = sum(1 for block in self.blocks if block.resident)
        return {
            "blocks": len(self.blocks),
            "rows": self.rows,
            "total_bytes": self.total_nbytes,
            "resident_blocks": resident,
            "spilled_blocks": len(self.blocks) - resident,
            **self.governor.stats(),
        }
