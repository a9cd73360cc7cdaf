"""Warm partition actors: `run_bsp` keeps one pool of P `PartitionWorker`
actors per Ray session and reuses it across runs. These tests pin down the
pool's three hazards: state leaking from one run into the next, an idle pool
holding CPUs that other Ray work needs, and handles that outlive their Ray
session."""

import concurrent.futures
import json
import os
import subprocess
import sys
import time

import pyarrow as pa
import pytest
import ray
import ray.data

from graphlite_ray import engine
from graphlite_ray.engine import run_bsp
from graphlite_ray.pipelines.linkgraph import run_on_edges
from graphlite_ray.programs import (
    DensestSubgraph,
    HyperBall,
    LabelPropagation,
    PageRank,
)
from graphlite_ray.state.csr import add_edges, build_graph_shards
from tests.conftest import random_digraph

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FailingPageRank(PageRank):
    """Raises a Python exception (not an actor death) in partition 1's
    compute at superstep 2."""

    name = "failing_pagerank"

    def compute(self, ctx, shard, values, active, inbox):
        if ctx.superstep == 2 and ctx.part_id == 1:
            raise ValueError("compute failed")
        return super().compute(ctx, shard, values, active, inbox)


def _parquet_files(ckpt_dir: str) -> dict[str, bytes]:
    out = {}
    for root, _, files in os.walk(ckpt_dir):
        for f in files:
            if f.endswith(".parquet"):
                path = os.path.join(root, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, ckpt_dir)] = fh.read()
    return out


def _edges(src, dst) -> "ray.data.Dataset":
    return ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    )


# case -> (what runs before program B, program B, B reuses that run's pool)
CASES = {
    "pagerank_then_lpa": (
        lambda wd, s, d: run_on_edges("pagerank", s, d, f"{wd}/a", P=4),
        LabelPropagation, True,
    ),
    "vector_valued": (
        lambda wd, s, d: run_on_edges("label_propagation", s, d, f"{wd}/a", P=4),
        lambda: HyperBall(p=4, radius=5), True,
    ),
    "extra_state": (
        lambda wd, s, d: run_on_edges(DensestSubgraph(), s, d, f"{wd}/a", P=4),
        DensestSubgraph, True,
    ),
    "after_failed_run": (
        lambda wd, s, d: pytest.raises(Exception, run_on_edges,
                                       FailingPageRank(), s, d, f"{wd}/a", P=4),
        PageRank, False,
    ),
    "after_other_P": (
        lambda wd, s, d: (run_on_edges("pagerank", s, d, f"{wd}/a", P=4),
                          run_on_edges("pagerank", s, d, f"{wd}/a8", P=8)),
        LabelPropagation, False,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_program_after_warm_run_matches_fresh_actors(work_dir, case):
    """Program B on a pool that already ran something gives bit-identical
    values and checkpoint files to B on freshly spawned actors."""
    before, make_b, reuses = CASES[case]
    src, dst = random_digraph(150, 700, seed=23)
    before(work_dir, src, dst)
    pool = engine._pool
    warm = run_on_edges(make_b(), src, dst, f"{work_dir}/warm", P=4)
    assert (engine._pool is pool) == reuses
    engine._drop_pool()
    fresh = run_on_edges(make_b(), src, dst, f"{work_dir}/fresh", P=4)

    assert warm.final_superstep == fresh.final_superstep
    # the final checkpoint's values_p*.parquet ARE the run's values
    files = _parquet_files(warm.ckpt_dir)
    assert any(f.startswith(f"ss_{warm.final_superstep}/values_p") for f in files)
    assert files == _parquet_files(fresh.ckpt_dir)


def test_run_after_add_edges_rewrote_graph_matches_fresh_actors(work_dir):
    """`add_edges` rewrites shards in place under the same graph dir; a
    warm actor must run on the rewritten shard, not on the one it loaded
    for the previous run."""
    src, dst = random_digraph(150, 700, seed=29)
    half = len(src) // 2
    graph_dir = f"{work_dir}/graph"
    build_graph_shards(_edges(src[:half], dst[:half]), 4, graph_dir)
    run_bsp(PageRank(), graph_dir, f"{work_dir}/ckpt_a")
    pool = engine._pool
    add_edges(graph_dir, _edges(src[half:], dst[half:]))
    warm = run_bsp(PageRank(), graph_dir, f"{work_dir}/ckpt_warm")
    assert engine._pool is pool
    engine._drop_pool()
    fresh = run_bsp(PageRank(), graph_dir, f"{work_dir}/ckpt_fresh")
    assert warm.final_superstep == fresh.final_superstep
    assert _parquet_files(warm.ckpt_dir) == _parquet_files(fresh.ckpt_dir)
    # and the rewritten graph really is the union, not the first half
    union = f"{work_dir}/union"
    build_graph_shards(_edges(src, dst), 4, union)
    want = run_bsp(PageRank(), union, f"{work_dir}/ckpt_union")
    assert _parquet_files(warm.ckpt_dir) == _parquet_files(want.ckpt_dir)


def test_idle_pool_does_not_block_other_ray_work(work_dir):
    """A warm pool stays alive between runs; it must reserve no CPUs, or on
    this 4-CPU session a P=4 pool would keep every Ray Data stage waiting."""
    src, dst = random_digraph(100, 400, seed=3)
    run_on_edges("pagerank", src, dst, work_dir, P=4)
    assert engine._pool is not None and len(engine._pool[1]) == 4

    ds = ray.data.range(64, override_num_blocks=4).map_batches(
        lambda b: {"id": b["id"] * 2}
    )
    ex = concurrent.futures.ThreadPoolExecutor(1)
    try:
        total = ex.submit(lambda: ds.sum("id")).result(timeout=120)
    finally:
        ex.shutdown(wait=False)
    assert total == 2 * sum(range(64))


CHILD = """
import glob, json, os, sys
import ray
from graphlite_ray import engine
from graphlite_ray.pipelines.linkgraph import run_on_edges
from tests.conftest import random_digraph

src, dst = random_digraph(120, 500, seed=5)
runs = []
for i in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    res = run_on_edges("pagerank", src, dst, f"{sys.argv[1]}/s{i}", P=2)
    vals = sorted((r["vertex_id"], r["value"]) for r in res.values().take_all())
    runs.append((vals, engine._pool[0]))
    ray.shutdown()  # the second iteration finds the first session's pool
print(json.dumps({"same_values": runs[0][0] == runs[1][0],
                  "new_pool": runs[0][1] != runs[1][1],
                  "mailbox_files": glob.glob(f"/dev/shm/graphlite-{os.getpid()}-*")}))
"""


def _partition_worker_pids() -> set[int]:
    pids = set()
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/cmdline", "rb") as f:
                    if b"ray::PartitionWorker" in f.read():
                        pids.add(int(d))
            except OSError:
                pass  # exited while scanning
    return pids


def test_pool_survives_session_change_and_dies_with_its_session(work_dir):
    """In a child process: run, `ray.shutdown()`, `ray.init()`, run again.
    The old session's handles must be dropped uncalled (calling them raises
    or aborts the process) and the values must match; after the last
    shutdown no partition actor and no mailbox file may be left."""
    existing = _partition_worker_pids()  # this session's own warm pool
    out = subprocess.run(
        [sys.executable, "-c", CHILD, work_dir],
        cwd=REPO, env={**os.environ, "PYTHONPATH": REPO},
        capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {"same_values": True, "new_pool": True, "mailbox_files": []}

    deadline = time.monotonic() + 10
    while (left := _partition_worker_pids() - existing) and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not left, f"partition actors left running: {sorted(left)}"
