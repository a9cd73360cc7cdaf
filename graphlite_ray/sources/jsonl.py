"""JSONL corpus source/sink — the interchange format LLM corpora actually
ship in (one JSON object per line; Common Crawl derivatives, HF datasets,
internal dumps all speak it).

Thin, deliberately: Ray Data already has streaming `read_json` (pyarrow
NDJSON reader, block-per-file) and `write_json` (one shard per block) —
this module adds the repo conventions on top: complete-or-absent staged
layouts (`state/storage.py::staged`, resumable like every other staged
dir, and cleared before a rewrite so a re-run never duplicates data)
and column pruning at the read.

No reference analog (GraphLite reads whitespace text edge lists only —
`engine/InputFormatter.cc`); this is a north-rule training-data source.
"""

from __future__ import annotations

import ray.data

from graphlite_ray.state import storage


def stage_jsonl(ds: "ray.data.Dataset", out_dir: str) -> str:
    """Write `ds` as a JSONL shard directory (one file per block),
    idempotent: a complete directory is never rewritten and an
    interrupted one is cleared first (`storage.staged`), so the staging
    composes with resumable pipelines."""
    return storage.staged(out_dir, lambda: ds.write_json(out_dir))


def read_jsonl(path: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Streaming JSONL read; prunes to `columns` right after parse (the
    pyarrow NDJSON reader has no projection pushdown, so the prune caps
    what leaves the read tasks, not what they parse — documented
    honestly)."""
    ds = ray.data.read_json(
        path, file_extensions=["json", "jsonl"], ignore_missing_paths=False
    )
    if columns is not None:
        ds = ds.select_columns(columns)
    return ds
