"""Neighborhood function: exact BFS program vs brute force, HyperBall
accuracy, the max_by_key combiner, and crash recovery of the two new
state kinds (program extra state; vector-valued vertex values)."""

from __future__ import annotations

import collections
import os

import numpy as np
import pytest

from graphlite_ray.pipelines.linkgraph import run_on_edges
from graphlite_ray.pipelines.neighborhood import effective_diameter, neighborhood_table
from graphlite_ray.programs import HyperBall, NeighborhoodExact
from graphlite_ray.worker import COMBINERS
from tests.conftest import random_digraph


def _brute_nf(src, dst, radius, source_mod=None):
    adj = collections.defaultdict(list)
    for s, d in zip(src, dst):
        if s != d:
            adj[s].append(d)
    verts = sorted(set(src) | set(dst))
    seeds = [v for v in verts if source_mod is None or v % source_mod == 0]
    counts = np.zeros(radius + 1, np.int64)
    counts[0] = len(seeds)
    for u in seeds:
        dist = {u: 0}
        q = [u]
        for t in range(1, radius + 1):
            nq = []
            for x in q:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = t
                        nq.append(y)
            counts[t] += len(nq)
            q = nq
    return np.cumsum(counts)


def test_neighborhood_exact_matches_brute_force(ray_session, work_dir):
    src, dst = random_digraph(250, 1400, seed=3)
    res = run_on_edges(
        "neighborhood_exact", src, dst, f"{work_dir}/nf", P=4, radius=5
    )
    nf = neighborhood_table(res, exact=True)
    want = _brute_nf(src, dst, 5)
    assert (nf["cum_pairs"].to_numpy() == want).all()
    assert nf["t"].tolist() == list(range(6))


def test_neighborhood_exact_source_mod(ray_session, work_dir):
    src, dst = random_digraph(200, 900, seed=9)
    res = run_on_edges(
        "neighborhood_exact", src, dst, f"{work_dir}/nfs", P=4, radius=4, source_mod=4
    )
    nf = neighborhood_table(res, exact=True)
    want = _brute_nf(src, dst, 4, source_mod=4)
    assert (nf["cum_pairs"].to_numpy() == want).all()
    assert nf["new_pairs"].iloc[0] == sum(
        1 for v in set(src) | set(dst) if v % 4 == 0
    )


def test_hyperball_tracks_exact_within_bound(ray_session, work_dir):
    src, dst = random_digraph(300, 1800, seed=11)
    want = _brute_nf(src, dst, 5)
    res = run_on_edges("hyperball", src, dst, f"{work_dir}/hb", P=4, p=6, radius=5)
    nf = neighborhood_table(res, exact=False)
    rel = abs(nf["cum_pairs"].to_numpy() - want) / want
    assert rel.max() < 0.2, rel
    # effective diameters agree within one hop
    exact_res = run_on_edges(
        "neighborhood_exact", src, dst, f"{work_dir}/hb_exact", P=4, radius=5
    )
    d_exact = effective_diameter(neighborhood_table(exact_res, exact=True))
    d_hb = effective_diameter(nf)
    assert abs(d_exact - d_hb) < 1.0


def test_combine_max_by_key_matches_pandas():
    combine_max_by_key = COMBINERS["max_by_key"].reduce
    rng = np.random.default_rng(0)
    dst = rng.integers(0, 20, 500)
    key = rng.integers(0, 8, 500)
    val = rng.integers(1, 60, 500)
    d, k, v = combine_max_by_key(dst, key, val)
    import pandas as pd

    want = (
        pd.DataFrame({"d": dst, "k": key, "v": val})
        .groupby(["d", "k"], as_index=False)["v"]
        .max()
        .sort_values(["d", "k"])
    )
    assert np.array_equal(d, want["d"].to_numpy())
    assert np.array_equal(k, want["k"].to_numpy())
    assert np.array_equal(v, want["v"].to_numpy())
    # idempotent (max is): recombining the combined output is a no-op
    d2, k2, v2 = combine_max_by_key(d, k, v)
    assert np.array_equal(v, v2) and np.array_equal(d, d2) and np.array_equal(k, k2)


class _CrashOnce:
    """Mixin: kill partition 1's actor at superstep 2, once per marker."""

    def compute(self, ctx, shard, values, active, inbox):
        if ctx.superstep == 2 and ctx.part_id == 1 and not os.path.exists(self.marker):
            with open(self.marker, "w") as f:
                f.write("crashed")
            os._exit(1)
        return super().compute(ctx, shard, values, active, inbox)


class CrashOnceNeighborhood(_CrashOnce, NeighborhoodExact):
    name = "crash_once_neighborhood"

    def __init__(self, marker, **kw):
        super().__init__(**kw)
        self.marker = marker


class CrashOnceHyperBall(_CrashOnce, HyperBall):
    name = "crash_once_hyperball"

    def __init__(self, marker, **kw):
        super().__init__(**kw)
        self.marker = marker


def test_neighborhood_extra_state_survives_actor_death(ray_session, work_dir):
    """The reached-pair set rides checkpoints (extra_state/load_extra):
    a mid-run actor death must not double-count or drop wavefront pairs."""
    src, dst = random_digraph(150, 700, seed=21)
    plain = run_on_edges(
        "neighborhood_exact", src, dst, f"{work_dir}/plain", P=4, radius=5
    )
    want = neighborhood_table(plain, exact=True)
    marker = f"{work_dir}/nf_crash"
    res = run_on_edges(
        CrashOnceNeighborhood(marker, radius=5),
        src, dst, f"{work_dir}/crash", P=4, ckpt_every=1,
    )
    assert os.path.exists(marker)
    got = neighborhood_table(res, exact=True)
    assert (got["cum_pairs"].to_numpy() == want["cum_pairs"].to_numpy()).all()
    v_plain = {r["vertex_id"]: r["value"] for r in plain.values().take_all()}
    v_crash = {r["vertex_id"]: r["value"] for r in res.values().take_all()}
    assert v_plain == v_crash


def test_hyperball_registers_survive_actor_death(ray_session, work_dir):
    """Vector-valued vertex state (the (n, 64) uint8 register matrix)
    checkpoints as a fixed-size-list column and restores bit-identical."""
    src, dst = random_digraph(150, 700, seed=22)
    plain = run_on_edges("hyperball", src, dst, f"{work_dir}/plain", P=4, p=6, radius=5)
    want = neighborhood_table(plain, exact=False)
    marker = f"{work_dir}/hb_crash"
    res = run_on_edges(
        CrashOnceHyperBall(marker, p=6, radius=5),
        src, dst, f"{work_dir}/crash", P=4, ckpt_every=1,
    )
    assert os.path.exists(marker)
    got = neighborhood_table(res, exact=False)
    np.testing.assert_allclose(
        got["cum_pairs"].to_numpy(), want["cum_pairs"].to_numpy(), rtol=0, atol=1e-9
    )
    v_plain = {r["vertex_id"]: tuple(r["value"]) for r in plain.values().take_all()}
    v_crash = {r["vertex_id"]: tuple(r["value"]) for r in res.values().take_all()}
    assert v_plain == v_crash


def test_bit_length_u64_exact_full_range():
    from graphlite_ray.functions.sketches import bit_length_u64

    xs = np.array(
        [0, 1, 2, 3, (1 << 52) - 1, 1 << 52, (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
        np.uint64,
    )
    want = np.array([int(int(x).bit_length()) for x in xs], np.uint8)
    assert np.array_equal(bit_length_u64(xs), want)
    rng = np.random.default_rng(5)
    r = rng.integers(0, 1 << 63, 10000, dtype=np.uint64) | (
        rng.integers(0, 2, 10000, dtype=np.uint64) << np.uint64(63)
    )
    want_r = np.array([int(int(x).bit_length()) for x in r], np.uint8)
    assert np.array_equal(bit_length_u64(r), want_r)
