"""CSV corpus source/sink — the other interchange format corpora arrive
in (exports from warehouses, spreadsheets, log dumps). Mirrors the JSONL
seam (`sources/jsonl.py`): Ray Data already streams `read_csv` (pyarrow
CSV reader, RFC-4180 quoting) and `write_csv` (one shard per block);
this module adds the repo's staged-layout conventions — complete-or-absent
directories (`state/storage.py::staged`) and column pruning at the read.

No reference analog (GraphLite reads whitespace text edge lists only —
`engine/InputFormatter.cc`); this is a north-rule training-data source.
"""

from __future__ import annotations

import ray.data

from graphlite_ray.state import storage


def stage_csv(ds: "ray.data.Dataset", out_dir: str) -> str:
    """Write `ds` as a CSV shard directory (one file per block, header
    row per shard, RFC-4180 quoting), idempotent: a complete directory
    is never rewritten and an interrupted one is cleared first
    (`storage.staged`), so the staging composes with resumable
    pipelines."""
    return storage.staged(out_dir, lambda: ds.write_csv(out_dir))


def read_csv(path: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Streaming CSV read; prunes to `columns` right after parse (the
    pyarrow CSV reader can skip columns, but Ray's reader surface doesn't
    expose it per-file — the prune caps what leaves the read tasks, not
    what they parse; same honest caveat as the JSONL seam)."""
    ds = ray.data.read_csv(path, file_extensions=["csv"])
    if columns is not None:
        ds = ds.select_columns(columns)
    return ds
