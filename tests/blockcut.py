"""Rebuild a trace in blocks of a chosen size, under its own governor.

The library cuts a trace into blocks only to fit a memory budget (one
block when there is none).  The block-identity, spill and cache tests
need other layouts, down to one row per block, so they cut them here
with the :class:`~repro.workloads.blocks.BlockStore` API.
"""

from repro.workloads.blocks import BlockStore, ResidencyGovernor
from repro.workloads.trace import TraceDataset


def stored_columns(trace):
    """The trace's stored columns, whole (categoricals as their codes)."""
    store = trace._store
    return {name: store.column(name) for name in store.names}


def chunked_copy(trace, block_rows, budget=None):
    """An independent copy of ``trace`` in blocks of ``block_rows`` rows,
    under a new governor of ``budget`` bytes (``None``: unbudgeted)."""
    columns = stored_columns(trace)
    store = BlockStore(ResidencyGovernor(budget))
    for start in range(0, max(len(trace), 1), block_rows):
        store.append_arrays({name: column[start:start + block_rows].copy()
                             for name, column in columns.items()})
    return TraceDataset._from_store(store, trace._vocabs, trace.metadata)
