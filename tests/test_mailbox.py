"""Shared-memory mailboxes (`worker.py` module docstring): on one node the
message blocks go through per-run /dev/shm files, double-buffered by
superstep parity. The mailbox must be invisible in results (checkpoints
byte-identical to `per_dest`, which moves the same blocks as Ray objects),
and it must leave nothing behind: no file after any run, and no mapping in
an idle warm pool."""

import glob
import os

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlite_ray import engine
from graphlite_ray.engine import run_bsp
from graphlite_ray.pipelines.linkgraph import run_on_edges
from graphlite_ray.programs import (
    SSSP,
    AggregatorSpec,
    ConnectedComponents,
    Coreness,
    HyperBall,
    Inbox,
    LabelPropagation,
    MaximalIndependentSet,
    PageRank,
    mode_by_row,
)
from graphlite_ray.state.csr import build_graph_shards
from graphlite_ray.worker import COMBINERS, MAILBOX_DIR, Mailbox, mailbox_path
from tests.conftest import random_digraph
from tests.test_warm_pool import FailingPageRank, _parquet_files

MAILBOX_TAG = f"{MAILBOX_DIR}/graphlite-"


def _mailbox_files() -> list[str]:
    return glob.glob(f"{MAILBOX_TAG}{os.getpid()}-*")


def _graph(work_dir, src, dst, P, symmetrize) -> str:
    gd = os.path.join(work_dir, f"graph_P{P}_sym{int(symmetrize)}")
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    )
    build_graph_shards(edges, P, gd, symmetrize=symmetrize)
    return gd


def _assert_layouts_byte_identical(make, gd, work_dir, **kw):
    """Every checkpoint parquet file (values, extra state, in-flight
    messages) of a mailbox run equals the per_dest run's, byte for byte."""
    runs = {
        r: run_bsp(make(), gd, os.path.join(work_dir, f"ckpt_{r}"), routing=r, **kw)
        for r in ("mailbox", "per_dest")
    }
    assert runs["mailbox"].final_superstep == runs["per_dest"].final_superstep
    files = _parquet_files(runs["mailbox"].ckpt_dir)
    assert files == _parquet_files(runs["per_dest"].ckpt_dir)
    return runs["mailbox"], files


# one program per `COMBINERS` row, at least
PROGRAMS = {
    "pagerank": PageRank,  # sum
    "cc": ConnectedComponents,  # integer min
    "sssp": lambda: SSSP(source=0),  # float min
    "mis": MaximalIndependentSet,  # max
    "lpa": LabelPropagation,  # sum_by_key
    "hyperball": lambda: HyperBall(p=4, radius=5),  # 2-D values, max_by_key
    "coreness": Coreness,  # combiner "none"
}


# P-major order, so each P spawns its pool once
@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("P", [4, 12])
def test_checkpoints_byte_identical_to_per_dest(work_dir, name, P):
    src, dst = random_digraph(40 * P, 180 * P, seed=P)
    make = PROGRAMS[name]
    gd = _graph(work_dir, src, dst, P, make().symmetrize)
    res, files = _assert_layouts_byte_identical(make, gd, work_dir, ckpt_every=1)
    assert res.halted
    assert any(f.startswith("ss_0/msgs_") for f in files)  # in-flight blocks compared too


def test_growing_output_remaps_the_readers(work_dir):
    """SSSP from the root of a binary tree: the frontier, and so every
    producer's mailbox file, grows superstep after superstep, so each
    consumer must remap a file that grew past its mapping. No checkpoint
    before the last superstep, as each one closes the maps."""
    child = np.arange(1, 2**11 - 1, dtype=np.int64)
    gd = _graph(work_dir, (child - 1) // 2, child, 4, symmetrize=False)
    res, _ = _assert_layouts_byte_identical(lambda: SSSP(source=0), gd, work_dir)
    assert res.final_superstep == 10  # one superstep per tree level


def test_mailbox_round_trip_mixed_dtypes():
    """Columns of any 1-D dtype come back bit-equal at aligned offsets,
    and a post larger than the reader's mapping is read after a remap."""
    prefix = f"{MAILBOX_TAG}{os.getpid()}-roundtrip"
    for parity in (0, 1):
        open(mailbox_path(prefix, 0, parity), "xb").close()
    producer, consumer = Mailbox(prefix, 0), Mailbox(prefix, 1)
    try:
        for ss, n in ((0, 3), (1, 7), (2, 5000)):
            block = (
                np.arange(n, dtype=np.int64),
                np.arange(n, dtype=np.float32) / 3,
                np.arange(n) % 3 == 0,
            )
            post = producer.post(ss, {1: block, 2: block[:1]})
            got = consumer.read(0, ss, post[1])
            assert [a.tobytes() for a in got] == [a.tobytes() for a in block]
            assert [a.dtype for a in got] == [a.dtype for a in block]
            assert all(off % 64 == 0 for off, _ in post[1][1] + post[2][1])
            del got
    finally:
        producer.close()
        consumer.close()
        for parity in (0, 1):
            os.unlink(mailbox_path(prefix, 0, parity))


def test_no_mailbox_file_survives_a_run(work_dir):
    src, dst = random_digraph(100, 400, seed=3)
    run_on_edges("pagerank", src, dst, f"{work_dir}/ok", P=4, routing="mailbox")
    assert _mailbox_files() == []
    with pytest.raises(Exception, match="compute failed"):
        run_on_edges(FailingPageRank(), src, dst, f"{work_dir}/failed", P=4, routing="mailbox")
    assert _mailbox_files() == []


class TypoPageRank(PageRank):
    name = "typo_pagerank"
    combiner = "Min"


def test_unknown_combiner_rejected_before_any_mailbox(work_dir):
    src, dst = random_digraph(100, 400, seed=3)
    gd = _graph(work_dir, src, dst, 4, symmetrize=False)
    pool = engine._pool
    with pytest.raises(ValueError, match="'Min'; choose one of sum, min, max, sum_by_key, max_by_key, none"):
        run_bsp(TypoPageRank(), gd, os.path.join(work_dir, "ckpt"), routing="mailbox")
    assert _mailbox_files() == []
    assert engine._pool is pool


class MapsProbePageRank(PageRank):
    """PageRank that reports, through a max aggregator, whether its actor
    maps a mailbox file while it runs."""

    name = "maps_probe_pagerank"

    def aggregators(self):
        return {**super().aggregators(), "mapped": AggregatorSpec(init=0.0, op="max")}

    def compute(self, ctx, shard, values, active, inbox):
        out = super().compute(ctx, shard, values, active, inbox)
        with open("/proc/self/maps") as f:
            out.aggr["mapped"] = float(MAILBOX_TAG in f.read())
        return out


def test_idle_pool_maps_no_mailbox(work_dir):
    src, dst = random_digraph(100, 400, seed=9)
    res = run_on_edges(MapsProbePageRank(), src, dst, work_dir, P=4, routing="mailbox")
    # the probe sees the mailbox mapped mid-run, so the scan below can see it
    assert max(a["mapped"] for a in res.aggr_history) == 1.0
    pids = ray.get([w.__ray_call__.remote(lambda self: os.getpid()) for w in engine._pool[1]])
    for pid in pids:
        with open(f"/proc/{pid}/maps") as f:
            assert MAILBOX_TAG not in f.read()
        fd_dir = f"/proc/{pid}/fd"
        links = []
        for fd in os.listdir(fd_dir):
            try:
                links.append(os.readlink(os.path.join(fd_dir, fd)))
            except OSError:
                pass  # closed while scanning
        assert not any(MAILBOX_TAG in link for link in links)


# ------------------------------------------------------------ LPA mode


def _mode_by_lexsort(inbox: Inbox):
    """The sort path `mode_by_row` replaced: order by (idx, -count, key),
    first row per idx."""
    order = np.lexsort((inbox.key, -inbox.val, inbox.idx))
    idx_sorted = inbox.idx[order]
    first = np.ones(len(idx_sorted), bool)
    first[1:] = idx_sorted[1:] != idx_sorted[:-1]
    return idx_sorted[first], inbox.key[order][first]


@st.composite
def keyed_inboxes(draw):
    """A keyed inbox as delivery makes it: the "sum_by_key" row's combine
    over raw (row, label, count) messages. Few labels and small counts make
    ties."""
    n = draw(st.integers(1, 200))
    ints = lambda lo, hi: np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), np.int64)
    idx, key, cnt = COMBINERS["sum_by_key"].reduce(ints(0, 30), ints(0, draw(st.integers(0, 8))), ints(1, 3))
    return Inbox(idx=idx, val=cnt, key=key)


@settings(max_examples=150, deadline=None)
@given(keyed_inboxes())
def test_mode_by_row_matches_lexsort(inbox):
    rows, winners = mode_by_row(inbox)
    want_rows, want_winners = _mode_by_lexsort(inbox)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(winners, want_winners)
