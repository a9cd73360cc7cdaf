"""The control channel (`engine.py` module docstring): on one node each
attempt drives its partition actors over unix-socket connections, one
`PartitionWorker.serve` call per actor, instead of one Ray call per
partition per superstep. It must keep the Ray-call semantics: a dead actor
mid-command is retried from the last checkpoint, an exception comes back
with its message, and a run leaves no call, socket or mailbox file behind."""

import contextlib
import json
import os
import subprocess

import pytest
import ray

from graphlite_ray import engine
from graphlite_ray.pipelines.linkgraph import run_on_edges
from graphlite_ray.programs import PageRank
from graphlite_ray.worker import MAILBOX_DIR
from tests.conftest import random_digraph
from tests.test_mailbox import _mailbox_files
from tests.test_warm_pool import FailingPageRank, _parquet_files


class ExitInCheckpointPageRank(PageRank):
    """The first actor to checkpoint superstep 3 exits its process inside
    `checkpoint` (after its values file, before the manifest), once per
    marker file."""

    name = "exit_in_checkpoint_pagerank"

    def __init__(self, marker: str):
        super().__init__()
        self.marker = marker
        self.superstep = -1

    def compute(self, ctx, shard, values, active, inbox):
        self.superstep = ctx.superstep
        return super().compute(ctx, shard, values, active, inbox)

    def extra_state(self):
        if self.superstep == 3:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                pass
            else:
                os._exit(1)  # hard process death inside a non-step command
        return super().extra_state()


def _control_sockets() -> list[str]:
    """This driver's control listeners and connections, by abstract name."""
    with open("/proc/net/unix") as f:
        return [line for line in f if f"@graphlite-{os.getpid()}-" in line]


def test_actor_death_in_checkpoint_recovers_bit_identically(work_dir):
    src, dst = random_digraph(150, 700, seed=56)
    plain = run_on_edges(
        "pagerank", src, dst, f"{work_dir}/plain", P=4, ckpt_every=2, routing="mailbox"
    )
    marker = f"{work_dir}/exit_marker"
    res = run_on_edges(
        ExitInCheckpointPageRank(marker), src, dst, f"{work_dir}/crash",
        P=4, ckpt_every=2, routing="mailbox",
    )
    assert os.path.exists(marker)  # the actor really died
    assert res.halted and res.final_superstep == plain.final_superstep
    assert _parquet_files(res.ckpt_dir) == _parquet_files(plain.ckpt_dir)
    assert _mailbox_files() == [] and _control_sockets() == []


def test_runs_leave_no_call_socket_or_file(work_dir):
    src, dst = random_digraph(100, 400, seed=4)
    run_on_edges("pagerank", src, dst, f"{work_dir}/ok", P=4, routing="mailbox")
    # a serve call still running would queue `ready` behind it
    assert ray.get([w.ready.remote() for w in engine._pool[1]], timeout=10)
    assert _control_sockets() == [] and _mailbox_files() == []

    with pytest.raises(ValueError, match="compute failed") as failed:
        run_on_edges(FailingPageRank(), src, dst, f"{work_dir}/failed", P=4, routing="mailbox")
    assert any("in partition 1" in note for note in failed.value.__notes__)
    assert engine._pool is None  # a failed run kills its pool
    assert _control_sockets() == [] and _mailbox_files() == []

    run_on_edges("pagerank", src, dst, f"{work_dir}/again", P=4, routing="mailbox")
    assert ray.get([w.ready.remote() for w in engine._pool[1]], timeout=10)
    assert _control_sockets() == []


@pytest.mark.parametrize("routing", ["mailbox", "per_dest"])
def test_manifests_carry_driver_phase_timers(work_dir, routing):
    src, dst = random_digraph(100, 400, seed=6)
    res = run_on_edges("pagerank", src, dst, work_dir, P=4, ckpt_every=3, routing=routing)
    for t in res.metrics:
        assert 0 < t["dispatch_s"] and 0 < t["wait_s"]
        assert t["dispatch_s"] + t["wait_s"] <= t["wall_s"]
        assert ("ckpt_s" in t) == ((t["superstep"] + 1) % 3 == 0 or t is res.metrics[-1])
    for t in res.metrics:
        if "ckpt_s" in t:
            with open(os.path.join(res.ckpt_dir, f"manifest_ss{t['superstep']}.json")) as f:
                written = json.load(f)["totals"]
            # the manifest's ckpt_s stops before its own write
            assert 0 < written["ckpt_s"] <= t["ckpt_s"]
            assert written["wait_s"] == t["wait_s"]


def test_dead_drivers_mailbox_files_are_swept(work_dir):
    child = subprocess.Popen(["true"])
    child.wait()  # reaped: no process has this pid now
    dead = f"{MAILBOX_DIR}/graphlite-{child.pid}-deadbeef-p0-b0"
    live = f"{MAILBOX_DIR}/graphlite-{os.getpid()}-cafef00d-p0-b1"
    for path in (dead, live):
        open(path, "xb").close()
    try:
        src, dst = random_digraph(100, 400, seed=7)
        run_on_edges("pagerank", src, dst, work_dir, P=4, routing="mailbox")
        assert not os.path.exists(dead)
        assert os.path.exists(live)  # a live pid's files are never touched
    finally:
        for path in (dead, live):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
