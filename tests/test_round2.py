"""Round-2 behaviors: resume identity (config hash), strict message
addressing, checkpoint temp-file hygiene, anti-join strategies, observable
native join, exact embedding near-dup, streaming weighted-edge runs."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from graphlite_ray.engine import BSPResult
from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset, run_on_edges
from graphlite_ray.state.csr import CSRShard, build_graph_shards

SF = "/root/testdata/sf0.001"


def test_resume_rejects_different_config(work_dir):
    """Same work/ckpt dir, different SSSP source: without the manifest
    config hash the second run would silently return the first's results."""
    src = np.array([0, 1, 2, 3], np.int64)
    dst = np.array([1, 2, 3, 0], np.int64)
    r1 = run_on_edges("sssp", src, dst, work_dir, P=2, resume=True, source=0)
    v1 = r1.values().to_pandas().set_index("vertex_id")["value"]
    assert v1[0] == 0.0 and v1[2] == 2.0
    r2 = run_on_edges("sssp", src, dst, work_dir, P=2, resume=True, source=2)
    v2 = r2.values().to_pandas().set_index("vertex_id")["value"]
    assert v2[2] == 0.0 and v2[0] == 2.0  # ring: 2 -> 3 -> 0


def test_resume_same_config_reuses(work_dir):
    src = np.array([0, 1, 2], np.int64)
    dst = np.array([1, 2, 0], np.int64)
    r1 = run_on_edges("sssp", src, dst, work_dir, P=2, resume=True, source=0)
    r2 = run_on_edges("sssp", src, dst, work_dir, P=2, resume=True, source=0)
    assert r2.supersteps_run == 0  # resumed from the halted manifest
    assert r2.final_superstep == r1.final_superstep


def test_local_index_raises_on_unknown(work_dir):
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array([0, 2], pa.int64()), "dst": pa.array([2, 0], pa.int64())})
    )
    gd = os.path.join(work_dir, "g")
    build_graph_shards(edges, 1, gd)
    shard = CSRShard.load(gd, 0, 1)
    assert list(shard.local_index(np.array([0, 2]))) == [0, 1]
    with pytest.raises(KeyError):
        shard.local_index(np.array([1], np.int64))  # not a vertex
    with pytest.raises(KeyError):
        shard.local_index(np.array([99], np.int64))  # beyond the last vid


def test_values_skips_checkpoint_temp_files(work_dir):
    d = os.path.join(work_dir, "ss_3")
    os.makedirs(d)
    t = pa.table({"vertex_id": pa.array([1, 2], pa.int64()), "value": [0.5, 0.7]})
    pq.write_table(t, os.path.join(d, "values_p0.parquet"))
    # a crash mid-checkpoint leaves an atomic-write temp behind
    pq.write_table(t, os.path.join(d, "values_p0.parquet.tmp.12345"))
    res = BSPResult(final_superstep=3, supersteps_run=1, halted=True, ckpt_dir=work_dir)
    assert res.values().count() == 2  # temp file not read -> no duplicates


def test_anti_join_bucketed_matches_broadcast():
    from graphlite_ray.pipelines.relational import q_customers_without_orders

    a = q_customers_without_orders(SF)
    b = q_customers_without_orders(SF, max_broadcast_keys=0)  # force bucketed
    pd.testing.assert_frame_equal(a, b)


def test_anti_join_bucketed_removes_its_bucket_dir():
    import tempfile

    from graphlite_ray.pipelines.relational import q_customers_without_orders

    def anti_dirs():
        return {n for n in os.listdir(tempfile.gettempdir()) if n.startswith("glr_anti_")}

    before = anti_dirs()
    q_customers_without_orders(SF, max_broadcast_keys=0)
    assert anti_dirs() - before == set()


def test_native_join_strategy_recorded():
    from graphlite_ray.pipelines import relational as R
    from graphlite_ray.pipelines.joins import native_join_available

    out = R.q_native_join_revenue(SF)
    assert R.LAST_JOIN_STRATEGY["strategy"] in ("native", "broadcast")
    if native_join_available():
        assert R.LAST_JOIN_STRATEGY["strategy"] == "native"
        assert R.LAST_JOIN_STRATEGY["fallback_reason"] is None
    b = R.q_native_join_revenue(SF, strategy="broadcast")
    assert R.LAST_JOIN_STRATEGY["strategy"] == "broadcast"
    pd.testing.assert_frame_equal(out, b)  # both paths agree


def test_embedding_near_dup_exact_planted():
    from graphlite_ray.stages.dedup import embedding_near_dup_exact

    rng = np.random.RandomState(7)
    V = rng.standard_normal((30, 8))
    V[21] = V[20] + 0.001 * rng.standard_normal(8)
    ds = ray.data.from_pandas(
        pd.DataFrame({"vec_id": range(30), "embedding": [v.astype(np.float32) for v in V]})
    )
    tau = 0.99
    res = embedding_near_dup_exact(ds, tau=tau)
    got = {(int(a), int(b)) for a, b in zip(res.pairs["a"], res.pairs["b"])}
    # independent numpy oracle over all pairs
    V32 = V.astype(np.float32).astype(np.float64)
    Vn = V32 / np.linalg.norm(V32, axis=1, keepdims=True)
    S = Vn @ Vn.T
    i, j = np.triu_indices(30, k=1)
    want = {(int(a), int(b)) for a, b in zip(i[S[i, j] >= tau], j[S[i, j] >= tau])}
    assert got == want and (20, 21) in got


class SenderSum(__import__("graphlite_ray.compat", fromlist=["PerVertexProgram"]).PerVertexProgram):
    """Raw-delivery test program: at ss0 every vertex messages all its
    out-neighbors; at ss1 each receiver sums the SENDER IDS of every
    delivered message (parallel edges must deliver duplicates — the
    reference's uncombined semantics, `include/Vertex.h:68-79`)."""

    name = "sender_sum"
    combiner = "none"

    def init_value(self, vid):
        return 0.0

    def compute_vertex(self, v):
        if v.getSuperstep() == 0:
            v.sendMessageToAllNeighbors(1.0)
        else:
            s = 0.0
            for m in v.messages():
                s += float(m.getSrc()) * m.getValue()
            v.setValue(s)
        v.voteToHalt()


def test_raw_delivery_exposes_sender_ids(work_dir):
    # ids 1..4; parallel edge 1->2 twice; self-contained hand oracle
    src = np.array([1, 1, 2, 3, 4], np.int64)
    dst = np.array([2, 2, 3, 1, 1], np.int64)
    res = run_on_edges(SenderSum(), src, dst, work_dir, P=3)
    assert res.halted
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    # per-dst sum of sender ids, one term PER EDGE (duplicates preserved)
    want = {1: 3.0 + 4.0, 2: 1.0 + 1.0, 3: 2.0, 4: 0.0}
    assert vals == want


def test_raw_pagerank_matches_combined(work_dir):
    """PageRank computed with uncombined Message delivery must equal the
    vectorized sum-combined engine (combining is semantically neutral)."""
    from graphlite_ray.compat import Message, PageRankPerVertex

    class RawPageRank(PageRankPerVertex):
        name = "pagerank_raw"
        combiner = "none"

        def compute_vertex(self, v):
            if v.getSuperstep() == 0:
                val = 1.0
            else:
                if v.getSuperstep() >= 2 and v.getAggrGlobal("delta") < 1e-6:
                    v.voteToHalt()
                    return
                s = 0.0
                for m in v.messages():
                    assert isinstance(m, Message)
                    s += m.getValue()
                val = 0.15 + 0.85 * s
                v.accumulateAggr("delta", abs(v.getValue() - val))
            v.setValue(val)
            n = v.getOutEdgeCount()
            if n > 0:
                v.sendMessageToAllNeighbors(val / n)

    from graphlite_ray.sources.edgelist import TINYGRAPH, TINYGRAPH_PAGERANK, read_edgelist

    n, src, dst = read_edgelist(TINYGRAPH)
    res = run_on_edges(RawPageRank(), src, dst, work_dir, P=3)
    assert res.halted
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    for vid, golden in TINYGRAPH_PAGERANK.items():
        assert vals[vid] == pytest.approx(golden, abs=1e-6)


def test_oracle_sql_self_stages(monkeypatch):
    """The driver may evaluate oracle_sql() BEFORE running any query:
    the staged-artifact oracles (out_degrees/triangle_count/sssp over the
    edges glob, media dims) must create their inputs themselves."""
    import glob as globmod
    import shutil

    import duckdb

    import __ray_entry__ as E

    monkeypatch.setattr(E, "_ORACLE_SF", "/root/testdata/sf0.001")
    _, work = E._graph_work("/root/testdata/sf0.001")
    shutil.rmtree(work, ignore_errors=True)  # nothing staged yet
    sqls = E.oracle_sql()
    files = globmod.glob(os.path.join(work, "edges", "*.parquet"))
    assert files, "oracle_sql() must stage the edge table it reads"
    con = duckdb.connect()
    n = con.execute(sqls["out_degrees"]).df()
    assert len(n) > 0 and set(n.columns) == {"src", "out_degree"}
    m = con.execute(sqls["media_image_dims"]).df()
    assert len(m) > 0


def test_reshard_graph_preserves_results(work_dir):
    """Repartitioning an existing graph to a different P (the resharding
    operator) must not change program results."""
    from graphlite_ray.state.csr import load_graph_meta, reshard_graph

    src = np.array([0, 0, 1, 2, 3, 4], np.int64)
    dst = np.array([1, 2, 3, 3, 0, 0], np.int64)
    r1 = run_on_edges("pagerank", src, dst, os.path.join(work_dir, "a"), P=2)
    g_old = os.path.join(work_dir, "a", "graph")
    g_new = os.path.join(work_dir, "resharded")
    reshard_graph(g_old, g_new, new_P=5)
    assert load_graph_meta(g_new)["P"] == 5
    from graphlite_ray.engine import run_bsp
    from graphlite_ray.programs import PageRank

    r2 = run_bsp(PageRank(), g_new, os.path.join(work_dir, "ckpt2"))
    v1 = r1.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    v2 = r2.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    assert np.allclose(v1["value"], v2["value"])
    assert (v1["vertex_id"] == v2["vertex_id"]).all()


def test_hash_partition_balance_on_skewed_graph(work_dir):
    """Hub skew: a power-law-ish graph's EDGES concentrate on hubs, but
    hash partitioning by src id keeps the per-partition vertex counts
    balanced, and the docstring'd skew mitigations (producer-side combine)
    bound hub fan-in to P rows per superstep — asserted via the engine's
    recv counter."""
    rng = np.random.RandomState(0)
    # one hub (id 7) with 2000 out-edges + background ring of 500
    ring_src = np.arange(500, dtype=np.int64)
    ring_dst = (ring_src + 1) % 500
    hub_dst = rng.randint(0, 500, 2000).astype(np.int64)
    src = np.concatenate([ring_src, np.full(2000, 7, np.int64)])
    dst = np.concatenate([ring_dst, hub_dst])
    # reverse edges: everyone points AT the hub too (fan-in skew)
    src2 = np.concatenate([src, hub_dst])
    dst2 = np.concatenate([dst, np.full(2000, 7, np.int64)])
    res = run_on_edges("pagerank", src2, dst2, work_dir, P=4, max_supersteps=3)
    vals = res.values().to_pandas()
    parts = vals["vertex_id"] % 4
    counts = parts.value_counts()
    assert counts.max() / max(counts.min(), 1) < 2.0  # balanced vertices
    # sum-combined fan-in: hub receives at most P combined rows/superstep,
    # not one per in-edge — recv counts the COMBINED rows delivered
    per_ss_recv = [m["recv"] for m in res.metrics]
    n_vertices = vals["vertex_id"].nunique()
    assert max(per_ss_recv) <= n_vertices * 4  # bounded by P rows/vertex


def test_storage_uri_root_end_to_end(work_dir):
    """The whole engine (CSR build, checkpoints, manifests, resume) runs
    against a pyarrow-filesystem URI root, not just plain local paths —
    the reference's HDFS story (`engine/InputFormatter.cc:34-80`) mapped
    onto pyarrow fs: pointing at shared storage is a path-string change."""
    uri_root = "file://" + work_dir + "/uri_work"
    src = np.array([0, 1, 2, 3], np.int64)
    dst = np.array([1, 2, 3, 0], np.int64)
    r1 = run_on_edges("sssp", src, dst, uri_root, P=2, resume=True, source=0)
    assert r1.halted
    v1 = r1.values().to_pandas().set_index("vertex_id")["value"]
    assert v1[3] == 3.0
    # resume through the URI root finds the completed manifest
    r2 = run_on_edges("sssp", src, dst, uri_root, P=2, resume=True, source=0)
    assert r2.supersteps_run == 0 and r2.final_superstep == r1.final_superstep
    # state physically landed under the plain path the URI names
    assert os.path.exists(os.path.join(work_dir, "uri_work", "graph", "meta.json"))


def test_storage_bucketed_join_uri_root(work_dir):
    from graphlite_ray.pipelines.joins import attach_from_bucketed, write_bucketed

    left = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()), "x": pa.array([10, 20, 30, 40], pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"k2": pa.array([2, 4], pa.int64()), "y": pa.array([200, 400], pa.int64())})
    )
    uri_dir = "file://" + work_dir + "/buckets"
    write_bucketed(right, "k2", 4, uri_dir)
    out = attach_from_bucketed(left, "k", uri_dir, 4, "k2").to_pandas()
    assert sorted(zip(out["k"], out["y"])) == [(2, 200), (4, 400)]


def _merge_pairmin(a, b):
    return min(tuple(a), tuple(b))


def _merge_hist(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


class DegStats(__import__("graphlite_ray.programs", fromlist=["VertexProgram"]).VertexProgram):
    """Arbitrary-TYPED aggregators (reference `AggregatorBase` opaque user
    values, include/AggregatorBase.h:44-84): a (deg, vid) argmin tuple and
    a degree histogram dict, merged by user merge fns. At ss1 the compute
    asserts the ss0 globals arrived merged (k -> k+1 visibility) and with
    the right TYPES (tuple survives the JSON manifest via encode/decode)."""

    name = "degstats"
    combiner = "sum"

    def aggregators(self):
        from graphlite_ray.programs import AggregatorSpec

        return {
            "argmin_deg": AggregatorSpec(
                init=(float("inf"), -1),
                merge_fn=_merge_pairmin,
                encode=list,
                decode=lambda v: tuple(v),
            ),
            "deg_hist": AggregatorSpec(init={}, merge_fn=_merge_hist),
        }

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def compute(self, ctx, shard, values, active, inbox):
        from graphlite_ray.programs import ComputeOut

        out = ComputeOut()
        if ctx.superstep == 0:
            pairs = [(int(d), int(v)) for d, v in zip(shard.out_deg, shard.vids)]
            out.aggr["argmin_deg"] = min(pairs) if pairs else (float("inf"), -1)
            hist = {}
            for d in shard.out_deg:
                hist[str(int(d))] = hist.get(str(int(d)), 0) + 1
            out.aggr["deg_hist"] = hist
        else:
            am = ctx.aggr_global["argmin_deg"]
            assert isinstance(am, tuple), f"tuple lost through manifest: {am!r}"
            values[:] = float(am[0])
            out.halted = active.copy()
        return out


def test_typed_aggregators_merge_and_survive_restore(work_dir):
    src = np.array([0, 0, 0, 1, 2], np.int64)
    dst = np.array([1, 2, 3, 2, 3], np.int64)
    # stop after ss0 so the manifest (with encoded aggregators) is the only
    # carrier of the globals, then resume: decode path must restore types
    r1 = run_on_edges(DegStats(), src, dst, work_dir, P=2, max_supersteps=1)
    assert r1.aggr_history[0]["argmin_deg"] == (0, 3)
    assert r1.aggr_history[0]["deg_hist"] == {"3": 1, "1": 2, "0": 1}
    r2 = run_on_edges(DegStats(), src, dst, work_dir, P=2, resume=True, max_supersteps=5)
    vals = {r["vertex_id"]: r["value"] for r in r2.values().take_all()}
    assert all(v == 0.0 for v in vals.values())  # argmin deg broadcast back
    assert r2.halted


class HookedPR(__import__("graphlite_ray.compat", fromlist=["PageRankPerVertex"]).PageRankPerVertex):
    name = "hooked_pr"

    def __init__(self):
        self.calls = []

    def master_init(self, graph_meta):
        self.calls.append(("init", graph_meta["n_vertices"]))

    def master_term(self, result):
        self.calls.append(("term", result.halted))


def test_master_init_term_hooks(work_dir):
    src = np.array([0, 1, 2], np.int64)
    dst = np.array([1, 2, 0], np.int64)
    prog = HookedPR()
    res = run_on_edges(prog, src, dst, work_dir, P=2)
    assert prog.calls == [("init", 3), ("term", True)]
    assert res.halted


def test_run_on_edge_dataset_weighted_matches_arrays(work_dir):
    src = np.array([0, 0, 1, 2, 3], np.int64)
    dst = np.array([1, 2, 3, 3, 0], np.int64)
    w = np.array([1.0, 2.0, 1.0, 3.0, 1.0])
    r1 = run_on_edges(
        "weighted_pagerank", src, dst, os.path.join(work_dir, "a"), P=2, weights=w
    )
    edges = ray.data.from_arrow(
        pa.table({"src": src, "dst": dst, "weight": w})
    )
    r2 = run_on_edge_dataset(
        "weighted_pagerank", edges, os.path.join(work_dir, "b"), P=2
    )
    v1 = r1.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    v2 = r2.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    assert np.allclose(v1["value"], v2["value"]) and (v1["vertex_id"] == v2["vertex_id"]).all()
