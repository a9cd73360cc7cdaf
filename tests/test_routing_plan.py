"""Static routing plan (`worker.py` module docstring): programs with a
reducing combiner that send on every out-edge are combined and split
through slots computed once per run.
The plan must be invisible in results — blocks, checkpoints and final
values bit-identical to the sort path — and the consumer's per-producer
``local_index`` cache must never serve ids a producer did not send."""

import copy
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlite_ray.pipelines.linkgraph import run_on_edges
from graphlite_ray.programs import (
    ConnectedComponents,
    LabelPropagation,
    PageRank,
    _scatter_to_neighbors,
)
from graphlite_ray.state.csr import CSRShard, build_graph_shards
from graphlite_ray.worker import COMBINERS, PartitionWorker, RoutingPlan, _split_by_partition
from tests.conftest import cc_oracle, random_digraph
from tests.test_warm_pool import _parquet_files


def _assert_blocks_bitwise_equal(got: dict, want: dict):
    assert got.keys() == want.keys()
    for j in want:
        assert len(got[j]) == len(want[j])
        for a, b in zip(got[j], want[j]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


# ------------------------------------------------ plan combine == sort combine


@st.composite
def planned_shards(draw):
    """(indices, P): a shard's destination ids in CSR order."""
    P = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["random", "one_partition", "hub", "parallel"]))
    ids = np.array(
        draw(st.lists(st.integers(0, 400), min_size=1, max_size=300)), np.int64
    )
    if shape == "one_partition":
        # every edge lands in one partition; the others get empty blocks
        ids = ids * P + draw(st.integers(0, P - 1))
    elif shape == "hub":
        hub = draw(st.integers(0, 400))
        ids[: max(1, 2 * len(ids) // 3)] = hub
        ids = np.random.default_rng(len(ids)).permutation(ids)
    elif shape == "parallel":
        ids = np.repeat(ids, draw(st.integers(2, 4)))
    return ids, P


@settings(max_examples=80, deadline=None)
@given(planned_shards(), st.integers(0, 2**32 - 1))
def test_plan_sum_is_bitwise_combine_sum(shard, seed):
    indices, P = shard
    rng = np.random.default_rng(seed)
    val = rng.standard_normal(len(indices)) * 10.0 ** rng.integers(-3, 6, len(indices))
    got = RoutingPlan(indices, P).sum(val)
    _assert_blocks_bitwise_equal(got, _split_by_partition(COMBINERS["sum"].reduce(indices, val), P))


@st.composite
def keyed_messages(draw, combiner, n):
    """The ``cols`` of ``n`` messages under ``combiner``: float64 or int64
    values with NaN and +-0.0 for "min"/"max", random 63-bit keys from a
    small pool (so (dst, key) segments repeat) for the keyed rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if COMBINERS[combiner].cols == ("val",):
        if draw(st.booleans()):
            return (rng.integers(-(2**63), 2**63 - 1, n),)
        pool = np.concatenate([[np.nan, 0.0, -0.0, np.inf, -np.inf], rng.standard_normal(4)])
        return (pool[rng.integers(0, len(pool), n)],)
    keys = rng.integers(0, 2**63 - 1, draw(st.integers(1, 8)))
    cnt = (rng.integers(0, 5, n) if draw(st.booleans())
           else np.array([np.nan, 0.0, -0.0, 1.5, 2.0])[rng.integers(0, 5, n)])
    return keys[rng.integers(0, len(keys), n)], cnt


@settings(max_examples=120, deadline=None)
@given(planned_shards(), st.sampled_from(["min", "max", "sum_by_key", "max_by_key"]),
       st.booleans(), st.data())
def test_plan_reduce_is_bitwise_combine_then_split(shard, combiner, wide_ids, data):
    indices, P = shard
    if wide_ids:
        # spread the ids over 63 bits; (a * (m * P + 1)) % P == a % P
        indices = indices * ((2**48 // P) * P + 1)
    cols = data.draw(keyed_messages(combiner, len(indices)))
    row = COMBINERS[combiner]
    got = RoutingPlan(indices, P).reduce(row.ufunc, *cols)
    _assert_blocks_bitwise_equal(got, _split_by_partition(row.reduce(indices, *cols), P))


# --------------------------------------------------------- in-process driving


def _build(work_dir, src, dst, P, symmetrize=False):
    gd = os.path.join(work_dir, f"graph_P{P}")
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    )
    meta = build_graph_shards(edges, P, gd, symmetrize=symmetrize)
    return gd, meta


def _spawn(program, gd, meta):
    P = meta["P"]
    return [PartitionWorker(p, P, gd, copy.deepcopy(program), meta["n_vertices"]) for p in range(P)]


def test_plan_built_only_by_partitions_that_send_on_every_edge(work_dir):
    # P=3; vertices with id % 3 == 2 have no out-edges, so partition 2's
    # shard has vertices but nnz == 0 and never sends
    src, dst = random_digraph(300, 1500, seed=5, with_dangling=False)
    keep = src % 3 != 2
    gd, meta = _build(work_dir, src[keep], dst[keep], P=3)
    assert CSRShard.load(gd, 2, 3).nnz == 0
    workers = _spawn(PageRank(), gd, meta)
    for w in workers:
        w.step(0, {"delta": 0.0})
    assert [w._plan is not None for w in workers] == [True, True, False]


class WritesTopology(PageRank):
    name = "writes_topology"

    def compute(self, ctx, shard, values, active, inbox):
        out = super().compute(ctx, shard, values, active, inbox)
        out.out_dst[0] = out.out_dst[-1]  # out_dst IS shard.indices here
        return out


def test_shard_topology_is_read_only(work_dir):
    src, dst = random_digraph(50, 200, seed=9, with_dangling=False)
    gd, meta = _build(work_dir, src, dst, P=2)
    shard = CSRShard.load(gd, 0, 2)
    for a in (shard.vids, shard.indices, shard.indptr, shard.edge_src_local):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    assert _scatter_to_neighbors(shard, np.ones(shard.n), np.ones(shard.n, bool))[0] is shard.indices
    (w, _) = _spawn(WritesTopology(), gd, meta)
    with pytest.raises(ValueError, match="read-only"):
        w.step(0, {"delta": 0.0})


# ------------------------------------------------ run level: plan vs sort path


def _copy_indices(out, shard):
    """Hand the worker a copy of `shard.indices`: same ids, so the same
    messages, but the plan's identity test fails and the sort path runs."""
    if out.out_dst is shard.indices:
        out.out_dst = shard.indices.copy()
    return out


class SortPathPageRank(PageRank):
    def compute(self, ctx, shard, values, active, inbox):
        return _copy_indices(super().compute(ctx, shard, values, active, inbox), shard)


class SortPathLabelPropagation(LabelPropagation):
    def compute(self, ctx, shard, values, active, inbox):
        return _copy_indices(super().compute(ctx, shard, values, active, inbox), shard)


class SortPathConnectedComponents(ConnectedComponents):
    def compute(self, ctx, shard, values, active, inbox):
        return _copy_indices(super().compute(ctx, shard, values, active, inbox), shard)


@pytest.mark.parametrize(
    "planned, sort_path",
    [(PageRank, SortPathPageRank),
     (LabelPropagation, SortPathLabelPropagation),
     (ConnectedComponents, SortPathConnectedComponents)],
    ids=["pagerank", "lpa", "cc"],
)
def test_checkpoints_byte_identical_to_sort_path(work_dir, planned, sort_path):
    src, dst = random_digraph(400, 2000, seed=21)
    # partition 3 has no out-edges (unless the program symmetrizes)
    keep = src % 4 != 3
    src, dst = src[keep], dst[keep]
    a = run_on_edges(planned(), src, dst, f"{work_dir}/plan", P=4, ckpt_every=1)
    b = run_on_edges(sort_path(), src, dst, f"{work_dir}/sort", P=4, ckpt_every=1)
    assert a.final_superstep == b.final_superstep
    fa, fb = _parquet_files(a.ckpt_dir), _parquet_files(b.ckpt_dir)
    assert len(fa) > 4 * a.final_superstep
    assert fa == fb


def test_index_cache_misses_when_a_frontier_replaces_every_edge(work_dir):
    """CC sends on every edge at superstep 0 and on a shrinking frontier
    after it: each consumer must recompute the local rows of a producer
    whose ids changed."""
    src, dst = random_digraph(300, 600, seed=31)
    res = run_on_edges("connected_components", src, dst, work_dir, P=4)
    assert res.final_superstep > 2
    got = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    assert got == cc_oracle(src, dst)
