"""One step contract for every routing (`worker.py` module docstring):
``step(ss, aggr, *posts, use_restored=False) -> (meta, post)`` with a post
``{dest: handle}``, and each consumer is sent only its own entry of every
post. Under ``per_dest`` a handle is a Ray task-return ref."""

import copy

import pytest
import ray

from graphlite_ray.engine import _ControlChannel, _RayCalls
from graphlite_ray.programs import PageRank
from graphlite_ray.worker import PartitionWorker, mailbox_prefix
from tests.conftest import random_digraph
from tests.test_routing_plan import _assert_blocks_bitwise_equal, _build


class _Recorder(PartitionWorker):
    """No graph: ``step`` replies with the posts it was sent and posts
    ``(ss, producer, dest)`` for every destination."""

    def __init__(self, part_id: int, P: int):
        self.part_id, self.P = part_id, P

    def step(self, superstep, aggr_global, *posts, use_restored=False):
        return {"posts": posts}, {d: (superstep, self.part_id, d) for d in range(self.P)}


@pytest.mark.parametrize("transport", ["socket", "ray"])
def test_each_consumer_is_sent_only_its_own_entries(ray_session, transport):
    P = 3
    actors = [ray.remote(num_cpus=0)(_Recorder).remote(p, P) for p in range(P)]
    if transport == "socket":
        calls = _ControlChannel(mailbox_prefix()).connect(actors)
    else:
        calls = _RayCalls(actors)
    try:
        msgs = [None] * P
        for ss in range(2):
            calls.send_step(ss, {}, msgs, False)
            metas, msgs = zip(*calls.recv())
            for j, m in enumerate(metas):
                want = [None] * P if ss == 0 else [{j: (0, i, j)} for i in range(P)]
                assert list(m["posts"]) == want
    finally:
        if transport == "socket":
            calls.close()
            ray.get(calls.serves, timeout=30)
        for a in actors:
            ray.kill(a, no_restart=True)


def test_per_dest_round_matches_in_process_step(work_dir):
    """A ``per_dest`` reply is ``(meta, {dest: ObjectRef})`` and its blocks
    are bit-equal to the in-process ``step``'s."""
    src, dst = random_digraph(3000, 30000, seed=21, with_dangling=False)
    gd, meta = _build(work_dir, src, dst, P=2)
    program = PageRank()
    program.master_init(meta)
    aggr = {k: s.init for k, s in program.aggregators().items()}
    Actor = ray.remote(num_cpus=0)(PartitionWorker)
    actors = [Actor.remote(p, 2, gd, copy.deepcopy(program), meta["n_vertices"], "per_dest")
              for p in range(2)]
    local = [PartitionWorker(p, 2, gd, copy.deepcopy(program), meta["n_vertices"]) for p in range(2)]
    try:
        calls = _RayCalls(actors)
        posts, local_posts = [None, None], [None, None]
        for ss in range(2):
            calls.send_step(ss, aggr, posts, False)
            replies = calls.recv()
            local_replies = [w.step(ss, aggr, *local_posts) for w in local]
            for (_, post), (_, want) in zip(replies, local_replies):
                assert post.keys() == want.keys() == {0, 1}
                assert all(isinstance(h, ray.ObjectRef) for h in post.values())
                _assert_blocks_bitwise_equal({j: ray.get(h) for j, h in post.items()}, want)
            posts = [post for _, post in replies]
            local_posts = [post for _, post in local_replies]
            assert [m["recv"] for m, _ in replies] == [m["recv"] for m, _ in local_replies]
    finally:
        for a in actors:
            ray.kill(a, no_restart=True)
