"""Name where two saved traces part.

A byte-identity test that only says "bytes differ" leaves the reader to
find the job that moved.  :func:`first_difference` loads both traces and
reports the first row whose fields differ, with its ``job_id`` and both
values of every differing column; the goldens use it as their failure
message.
"""

from dataclasses import fields
from typing import Optional

from repro.workloads.trace import JobRecord, TraceDataset

#: The trace's stored columns, in record field order.
COLUMNS = tuple(field.name for field in fields(JobRecord))


def first_difference(left_path, right_path) -> Optional[str]:
    """Where the traces saved at ``left_path`` and ``right_path`` first
    differ, or ``None`` when their metadata and every field of every row
    are equal."""
    left = TraceDataset.load(left_path)
    right = TraceDataset.load(right_path)
    if left.metadata != right.metadata:
        return f"metadata differs: {left.metadata!r} != {right.metadata!r}"
    if len(left) != len(right):
        return f"row counts differ: {len(left)} != {len(right)}"
    pairs = {name: (left.column(name), right.column(name))
             for name in COLUMNS}
    for row in range(len(left)):
        differing = [f"{name} {ours[row]!r} != {theirs[row]!r}"
                     for name, (ours, theirs) in pairs.items()
                     if ours[row] != theirs[row]]
        if differing:
            job_id = pairs["job_id"][0][row]
            return (f"first difference at row {row} (job_id {job_id!r}): "
                    + "; ".join(differing))
    return None
