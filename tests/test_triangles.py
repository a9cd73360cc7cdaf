"""Triangle count vs trace(A^3)/6 oracle (FIXTURES.md F4)."""

import tempfile

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from graphlite_ray.pipelines import triangles
from graphlite_ray.pipelines.triangles import (
    approx_triangle_count,
    clique4_count,
    k_truss,
    transitivity,
    triangle_count,
    vertex_triangle_counts,
)
from tests.conftest import random_digraph


def tri_oracle(src: np.ndarray, dst: np.ndarray) -> int:
    vids = np.unique(np.concatenate([src, dst]))
    n = len(vids)
    s = np.searchsorted(vids, src)
    d = np.searchsorted(vids, dst)
    A = np.zeros((n, n), np.int64)
    keep = s != d
    A[s[keep], d[keep]] = 1
    A[d[keep], s[keep]] = 1
    return int(np.trace(A @ A @ A) // 6)


def _ds(src, dst):
    return ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    )


def test_triangle_known():
    # one triangle + a pendant edge + self-loop + parallel/reciprocal noise
    src = np.array([0, 1, 2, 2, 0, 1, 3, 3], np.int64)
    dst = np.array([1, 2, 0, 0, 1, 0, 0, 3], np.int64)
    assert triangle_count(_ds(src, dst), B=4) == 1


@pytest.mark.parametrize("n,m,seed", [(30, 150, 5), (80, 500, 6)])
def test_triangle_random_matches_oracle(tmp_path, n, m, seed):
    src, dst = random_digraph(n, m, seed, with_dangling=False)
    got = triangle_count(_ds(src, dst), work_dir=str(tmp_path), B=8)
    assert got == tri_oracle(src, dst)


def test_triangle_bucketed_path_matches_broadcast(tmp_path, monkeypatch):
    """Force the large-graph bucketed backend (no graph fits the broadcast
    limit) and check it agrees with the oracle + the broadcast backend."""
    src, dst = random_digraph(60, 400, seed=8, with_dangling=False)
    bc = triangle_count(_ds(src, dst), work_dir=str(tmp_path / "a"), B=8)
    monkeypatch.setattr(triangles, "SMALL_GRAPH_EDGES", 0)
    bk = triangle_count(_ds(src, dst), work_dir=str(tmp_path / "b"), B=8)
    assert bc == bk == tri_oracle(src, dst)


def test_bucketed_listing_clears_a_reused_work_dir(tmp_path, monkeypatch):
    """The second graph's wedge (1, 3) at vertex 0 hashes to a pair bucket
    none of its edges fill; the first graph's edge (1, 3) in that bucket
    must not close it."""
    monkeypatch.setattr(triangles, "SMALL_GRAPH_EDGES", 0)
    lo, hi = [0, 0, 1, 1, 3, 3], [1, 3, 4, 5, 6, 7]
    assert triangle_count(_ds(lo + [1], hi + [3]), work_dir=str(tmp_path), B=8) == 1
    assert triangle_count(_ds(lo, hi), work_dir=str(tmp_path), B=8) == 0


@pytest.mark.parametrize("edge_limit", [2_000_000, 0], ids=["broadcast", "bucketed"])
def test_triangle_operators_leave_no_temp_dirs(tmp_path, monkeypatch, edge_limit):
    """Operators that return numbers clean up the scratch space the
    bucketed backend needs; the broadcast backend creates none. The lazy
    Dataset operators need a caller-owned work_dir on the bucketed one."""
    monkeypatch.setattr(triangles, "SMALL_GRAPH_EDGES", edge_limit)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    src, dst = random_digraph(30, 150, 5, with_dangling=False)
    assert triangle_count(_ds(src, dst), B=4) == tri_oracle(src, dst)
    transitivity(_ds(src, dst), B=4)
    approx_triangle_count(_ds(src, dst), pct=50, B=4)
    clique4_count(_ds(src, dst), B=4)
    vertex_triangle_counts(_ds(src, dst), str(tmp_path / "vtri"), B=4).count()
    k_truss(_ds(src, dst), 4, str(tmp_path / "truss"), B=4).count()
    if edge_limit == 0:
        with pytest.raises(ValueError, match="work_dir"):
            vertex_triangle_counts(_ds(src, dst), B=4)
    assert list(scratch.iterdir()) == []
