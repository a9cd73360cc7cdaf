"""BSP-engine property tests (SURVEY.md §5 item 3, FIXTURES.md F4/F6):
vote-to-halt + reactivation, aggregator ss->ss+1 visibility, termination,
dangling semantics, parallel-edge message duplication, checkpoint/resume."""

import numpy as np
import pytest

from graphlite_ray.pipelines.linkgraph import run_on_edges
from graphlite_ray.programs import AggregatorSpec, ComputeOut, VertexProgram
from graphlite_ray.engine import latest_checkpoint, run_bsp
from graphlite_ray.state.csr import build_graph_shards


class HaltProbe(VertexProgram):
    """2-vertex program exercising C2/C3 (`engine/Node.cc:56-62,85-88`):
    vertex A sends one message to B at ss0 then halts; B halts at ss0
    WITHOUT sending; B must be reactivated by A's message at ss1, record
    it, and halt again -> global termination at ss2 (act=0, sent=0)."""

    name = "halt_probe"
    combiner = "sum"

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        if not inbox.empty:
            values[inbox.idx] += inbox.val  # proves reactivated compute ran
        if ctx.superstep == 0:
            is_a = shard.vids == 0
            if is_a.any():
                out.out_dst = np.array([1], np.int64)
                out.out_val = np.array([7.0])
                out.sent = 1
        out.halted = active.copy()
        return out


def test_vote_to_halt_and_reactivation(work_dir):
    src = np.array([0], np.int64)
    dst = np.array([1], np.int64)
    res = run_on_edges(HaltProbe(), src, dst, work_dir, P=2)
    assert res.halted
    # ss0: both compute (active), A sends, both halt.
    # ss1: only B computes (reactivated by the message), halts again.
    assert [m["computed"] for m in res.metrics] == [2, 1]
    assert [m["sent"] for m in res.metrics] == [1, 0]
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    assert vals[1] == 7.0  # the reactivated vertex processed its inbox


class AggrEcho(VertexProgram):
    """Aggregator visibility off-by-one (`example/PageRankVertex.cc:152-157`):
    each superstep every vertex accumulates 1.0; compute() must observe the
    PREVIOUS superstep's merged global (n_vertices * ss), not the current."""

    name = "aggr_echo"
    combiner = "sum"
    max_supersteps = 4

    def __init__(self):
        self.seen: list[float] = []

    def aggregators(self):
        return {"ones": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def compute(self, ctx, shard, values, active, inbox):
        values[:] = ctx.aggr_global["ones"]  # record what this ss observed
        return ComputeOut(aggr={"ones": float(shard.n)})


def test_aggregator_off_by_one(work_dir):
    src = np.array([0, 1, 2], np.int64)
    dst = np.array([1, 2, 0], np.int64)
    res = run_on_edges(AggrEcho(), src, dst, work_dir, P=2, max_supersteps=4)
    # ran 4 supersteps; at the last one the observed global is 3 vertices *
    # the PREVIOUS superstep's accumulation round (= 3.0), proving k -> k+1
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    assert all(v == 3.0 for v in vals.values())
    assert res.aggr_history == [{"ones": 3.0}] * 4


def test_dangling_vertices_receive_but_never_send(work_dir):
    # vertex 3 is dangling (in-edges only): it must hold rank, never send
    src = np.array([0, 1, 2], np.int64)
    dst = np.array([3, 3, 3], np.int64)
    res = run_on_edges("pagerank", src, dst, f"{work_dir}/pr", P=2)
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    # senders converge to 0.15 (no in-edges); dangling accumulates 3 shares
    assert vals[0] == pytest.approx(0.15, abs=1e-6)
    assert vals[3] == pytest.approx(0.15 + 0.85 * 3 * 0.15, abs=1e-4)


def test_parallel_edges_deliver_duplicate_messages(work_dir):
    # reference keeps parallel edges (SURVEY.md §2.7): two 0->1 edges halve
    # 0's per-edge share but deliver twice, so vertex 1 gets both
    src = np.array([0, 0], np.int64)
    dst = np.array([1, 1], np.int64)
    res = run_on_edges("pagerank", src, dst, work_dir, P=2)
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    assert vals[1] == pytest.approx(0.15 + 0.85 * 0.15, abs=1e-4)
    # sent counts the logical per-edge messages (2), pre-combine
    assert res.metrics[-2]["sent"] >= 2 or res.metrics[0]["sent"] == 2


def _check_resume_bit_identical(work_dir, P, src, dst):
    """Kill after superstep 5, resume: the first resumed superstep's
    checkpoint and the final values equal the uninterrupted run
    bit-for-bit. (Rounding can wash a wrong summation order at superstep 6
    out of the converged values, so those alone do not show it.)"""
    from tests.test_warm_pool import _parquet_files

    # uninterrupted; checkpoints ss6 (then every 7th)
    r_full = run_on_edges("pagerank", src, dst, f"{work_dir}/full", P=P, ckpt_every=7)
    full_vals = {r["vertex_id"]: r["value"] for r in r_full.values().take_all()}

    # interrupted: checkpoint every 3 supersteps, stop hard at ss5
    r_part = run_on_edges(
        "pagerank", src, dst, f"{work_dir}/part", P=P, ckpt_every=3, max_supersteps=6
    )
    assert not r_part.halted
    m = latest_checkpoint(f"{work_dir}/part/ckpt_pagerank")
    assert m is not None and m["superstep"] == 5

    # resume from the manifest in a fresh engine run
    r_res = run_on_edges(
        "pagerank", src, dst, f"{work_dir}/part", P=P, ckpt_every=7, resume=True
    )
    assert r_res.halted
    assert r_res.final_superstep == r_full.final_superstep
    ss6 = _parquet_files(f"{r_full.ckpt_dir}/ss_6")
    assert len(ss6) > P and _parquet_files(f"{r_res.ckpt_dir}/ss_6") == ss6
    res_vals = {r["vertex_id"]: r["value"] for r in r_res.values().take_all()}
    assert res_vals == full_vals  # bit-for-bit
    return m


def test_checkpoint_resume_bit_identical(work_dir):
    """FIXTURES.md F6: kill after superstep k, resume, final values equal
    the uninterrupted run bit-for-bit."""
    from tests.conftest import random_digraph

    m = _check_resume_bit_identical(work_dir, 4, *random_digraph(200, 900, seed=77))

    # lineage manifest records metrics + aggregators per checkpoint
    assert "per_partition" in m and len(m["per_partition"]) == 4
    assert "totals" in m and m["totals"]["superstep"] == 5


def test_checkpoint_resume_bit_identical_at_p12(work_dir):
    """Restored in-flight messages are delivered in producer order, as live
    ones are. Sorting `msgs_s{i}_d{p}` names as strings put s10 and s11
    before s2, which changed the float sums of the first resumed superstep
    (289 of 2000 values at superstep 6 on this graph)."""
    from tests.conftest import random_digraph

    _check_resume_bit_identical(work_dir, 12, *random_digraph(2000, 12000, seed=12))


def test_manifest_lineage_fields(work_dir):
    src = np.array([0, 1], np.int64)
    dst = np.array([1, 0], np.int64)
    res = run_on_edges("pagerank", src, dst, work_dir, P=2)
    m = latest_checkpoint(f"{work_dir}/ckpt_pagerank")
    assert m["program"] == "pagerank"
    assert m["halted"] is True
    assert m["graph_meta"]["n_vertices"] == 2
    assert m["complete"] is True
    assert "aggr_global" in m


def test_program_bound_beats_default_superstep_cap(work_dir):
    """The superstep cap is the smaller of the caller's and the program's
    bounds, and 200 only when neither gives one. DensestSubgraph (bound
    602) peels a 400-vertex path two endpoints per round: ~200 rounds of
    two supersteps each, which must end by its own fixpoint."""
    src = np.arange(399, dtype=np.int64)
    res = run_on_edges("densest_subgraph", src, src + 1, work_dir, P=2)
    assert res.halted and res.final_superstep > 200
    capped = run_on_edges("densest_subgraph", src, src + 1, f"{work_dir}/c", P=2,
                          max_supersteps=50)
    assert not capped.halted and capped.final_superstep == 49
