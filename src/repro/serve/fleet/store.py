"""Read-only shared-memory store for estimator tables.

The fleet's workers all serve the same :class:`EstimatorTable` grids,
and those grids are by far the most expensive thing a serving process
builds (a full Monte-Carlo sweep per topology).  The supervisor
therefore builds each table set exactly once, serializes the grids into
one shared-memory segment with :func:`publish_tables`, and every worker
attaches zero-copy views with :func:`attach_tables`.

The segment is a :mod:`repro.utils.segment` — the same layout, commit
protocol, generation check and lifecycle as shared CSR graphs and the
distance store.  Each table contributes three arrays (``<i>.sizes``,
``<i>.tree_size``, ``<i>.mean_path``, in sorted key order); the header
``meta`` carries everything scalar about each table (key, name, mode,
source, error bound, algorithm), so a descriptor is all a worker needs
to reconstruct the full table dict.

Zero-downtime reload rides on POSIX unlink semantics: the supervisor
publishes generation ``g+1`` as a *new* segment, tells workers to
attach-and-swap, and only then unlinks generation ``g``.  Workers still
holding views over the old segment keep a valid mapping until their
last view dies; new attachments can only land on the new generation.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.serve.tables import EstimatorTable
from repro.utils import segment

__all__ = ["attach_tables", "publish_tables"]

#: Each table's grids (stored as arrays ``<i>.<field>``) and its scalar
#: fields (stored in the header ``meta``).
_GRIDS = {"sizes": np.int64, "tree_size": np.float64, "mean_path": np.float64}
_SCALARS = ("name", "mode", "source", "rel_error_bound", "algorithm")


def publish_tables(
    tables: Dict[Tuple[str, ...], EstimatorTable], generation: int
) -> segment.Handle:
    """Serialize a table set into one shared segment (one copy total).

    Keys are the service's table keys verbatim — ``(name, mode)`` for
    SPT tables, ``(name, mode, algorithm)`` for non-SPT ones — so the
    worker's attached dict mirrors the supervisor's exactly.
    """
    entries = []
    arrays = {}
    for i, (key, table) in enumerate(sorted(tables.items())):
        entries.append({"key": list(key), **{f: getattr(table, f) for f in _SCALARS}})
        for field, dtype in _GRIDS.items():
            arrays[f"{i}.{field}"] = np.asarray(getattr(table, field), dtype=dtype)
    return segment.publish(
        arrays, generation=generation, meta={"tables": entries}
    )


def attach_tables(
    descriptor: segment.Descriptor,
) -> Dict[Tuple[str, ...], EstimatorTable]:
    """Reconstruct the table dict as zero-copy, read-only views.

    The views pin the segment mapping for the tables' own lifetime, so
    the dict can be handed to :meth:`EstimationService.install_tables`
    and forgotten — the mapping survives the supervisor's unlink until
    the tables do, and goes away with the last of them.
    """
    attached = segment.attach(descriptor)
    tables = {}
    for i, entry in enumerate(attached.meta["tables"]):
        grids = {field: attached.arrays[f"{i}.{field}"] for field in _GRIDS}
        scalars = {field: entry[field] for field in _SCALARS}
        tables[tuple(entry["key"])] = EstimatorTable(**scalars, **grids)
    return tables
