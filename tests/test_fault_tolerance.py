"""Mid-run actor death -> automatic recovery from the latest checkpoint
(north rule: resumable mid-iteration; the reference hangs on worker death,
SURVEY.md §4)."""

import os

import numpy as np
import pytest

from graphlite_ray.pipelines.linkgraph import run_on_edges
from graphlite_ray.programs import PageRank
from tests.conftest import random_digraph


class CrashOncePageRank(PageRank):
    """Kills partition 1's ACTOR PROCESS at superstep 3, exactly once per
    marker file — simulating a node loss mid-superstep."""

    name = "crash_once_pagerank"

    def __init__(self, marker: str):
        super().__init__()
        self.marker = marker

    def compute(self, ctx, shard, values, active, inbox):
        if ctx.superstep == 3 and ctx.part_id == 1 and not os.path.exists(self.marker):
            with open(self.marker, "w") as f:
                f.write("crashed")
            os._exit(1)  # hard process death, not a Python exception
        return super().compute(ctx, shard, values, active, inbox)


@pytest.mark.parametrize("routing", ["mailbox", "per_dest"])
def test_actor_death_recovers_from_checkpoint(work_dir, routing):
    src, dst = random_digraph(150, 700, seed=55)

    plain = run_on_edges(
        "pagerank", src, dst, f"{work_dir}/plain_{routing}", P=4, routing=routing
    )
    want = {r["vertex_id"]: r["value"] for r in plain.values().take_all()}

    marker = f"{work_dir}/crash_marker_{routing}"
    res = run_on_edges(
        CrashOncePageRank(marker), src, dst, f"{work_dir}/crash_{routing}",
        P=4, ckpt_every=2, routing=routing,
    )
    assert os.path.exists(marker)  # the crash really happened
    assert res.halted
    assert res.final_superstep == plain.final_superstep
    got = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    assert got == want  # bit-identical despite the mid-run actor death
