"""Staged directories are complete or absent (`state/storage.py::staged`):
only the ``_SUCCESS`` marker, written last, lets a later call reuse one."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from graphlite_ray.pipelines.sampling import sage_features
from graphlite_ray.sources.csvio import read_csv, stage_csv
from graphlite_ray.sources.jsonl import read_jsonl, stage_jsonl


def _sage(work_dir: str) -> pd.DataFrame:
    edges = pd.DataFrame([(i, (i * 7 + j) % 40) for i in range(40) for j in range(1, 8)],
                         columns=["src", "dst"])
    urlmap = pd.DataFrame({"vertex_id": np.arange(40),
                           "url": [f"https://x{i}.test/a{i}-{i % 3}" for i in range(40)]})
    return sage_features(ray.data.from_pandas(edges).repartition(4),
                         ray.data.from_pandas(urlmap).repartition(2),
                         work_dir, hops=2, fanout=3, seed_mod=8, dim=8, B=8)


def test_interrupted_sampling_stages_are_rebuilt(work_dir):
    """A staged dir without its marker (a build that crashed mid-way) is
    rebuilt, even when ``bucket_0.parquet`` is there: reusing it would make
    the co-partitioned attaches silently partial inner joins."""
    clean = _sage(os.path.join(work_dir, "clean"))
    crashed = os.path.join(work_dir, "crashed")
    _sage(crashed)
    for stage in ("khop_adj_f3_b8", "sage_feats_d8_b8"):
        d = os.path.join(crashed, stage)
        if os.path.exists(os.path.join(d, "_SUCCESS")):
            os.remove(os.path.join(d, "_SUCCESS"))
        buckets = sorted(f for f in os.listdir(d) if f.startswith("bucket_"))
        assert "bucket_0.parquet" in buckets and len(buckets) > 1
        os.remove(os.path.join(d, buckets[-1]))
    pd.testing.assert_frame_equal(_sage(crashed), clean)


@pytest.mark.parametrize("stage,read", [(stage_csv, read_csv), (stage_jsonl, read_jsonl)])
def test_interrupted_corpus_stage_is_cleared_before_rewrite(work_dir, stage, read):
    """A re-run after a crashed write must not keep the crashed run's
    shards: Ray names each shard afresh, so they would add duplicate rows."""
    df = pd.DataFrame({"doc_id": np.arange(30), "text": [f"doc {i}" for i in range(30)]})
    out = stage(ray.data.from_pandas(df).repartition(3), os.path.join(work_dir, "docs"))
    os.remove(os.path.join(out, "_SUCCESS"))
    stage(ray.data.from_pandas(df).repartition(3), out)
    got = read(out, columns=["doc_id", "text"]).to_pandas().sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(got, df, check_dtype=False)
