"""Round-4 graph-operator additions: HITS, personalized PageRank,
per-vertex triangles / clustering coefficient, reciprocity, degree
histogram — each against an independent brute-force numpy oracle on a
random directed multigraph (parallel edges + self-loops included, so the
documented simple-graph/multigraph semantics of each operator are
exercised)."""

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data


V, E, SEED = 60, 400, 7


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(SEED)
    src = rng.integers(0, V, E).astype(np.int64)
    dst = rng.integers(0, V, E).astype(np.int64)
    return src, dst


def _edges_ds(src, dst):
    t = pa.table({"src": src, "dst": dst})
    return ray.data.from_arrow(t)


def _simple_pairs(src, dst):
    return {(min(s, d), max(s, d)) for s, d in zip(src, dst) if s != d}


@pytest.mark.parametrize("edge_limit", [2_000_000, 0])
def test_vertex_triangle_counts_exact(graph, tmp_path, monkeypatch, edge_limit):
    from graphlite_ray.pipelines import triangles

    monkeypatch.setattr(triangles, "SMALL_GRAPH_EDGES", edge_limit)

    src, dst = graph
    pairs = _simple_pairs(src, dst)
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tris = set()
    for a, b in pairs:
        for c in adj[a] & adj[b]:
            tris.add(tuple(sorted((a, b, c))))
    tri = {}
    for t in tris:
        for v in t:
            tri[v] = tri.get(v, 0) + 1

    res = (
        triangles.vertex_triangle_counts(_edges_ds(src, dst), str(tmp_path))
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )
    verts = sorted(adj)
    assert res["vertex_id"].tolist() == verts
    assert res["triangles"].tolist() == [tri.get(v, 0) for v in verts]
    deg = np.array([len(adj[v]) for v in verts], np.float64)
    exp_cl = np.where(
        deg >= 2, 2.0 * res["triangles"].to_numpy() / (deg * (deg - 1)), 0.0
    )
    assert np.allclose(res["clustering"].to_numpy(), exp_cl)
    # each triangle credits exactly its three corners
    assert res["triangles"].sum() == 3 * len(tris)


def test_reciprocity_exact(graph):
    from graphlite_ray.pipelines.graphstats import reciprocity

    src, dst = graph
    dedges = {(s, d) for s, d in zip(src, dst) if s != d}
    recip = sum(1 for (s, d) in dedges if (d, s) in dedges)
    r = reciprocity(_edges_ds(src, dst))
    assert int(r["total_edges"][0]) == len(dedges)
    assert int(r["reciprocal_edges"][0]) == recip
    assert r["reciprocity"][0] == pytest.approx(recip / len(dedges))


def test_degree_histogram_exact(graph):
    from graphlite_ray.pipelines.graphstats import degree_histogram

    src, dst = graph
    od = pd.Series(src).value_counts()
    allv = np.unique(np.concatenate([src, dst]))
    degs = np.array([od.get(v, 0) for v in allv])
    u, c = np.unique(degs, return_counts=True)
    h = (
        degree_histogram(_edges_ds(src, dst))
        .to_pandas()
        .sort_values("out_degree", ignore_index=True)
    )
    assert h["out_degree"].tolist() == u.tolist()
    assert h["n_vertices"].tolist() == c.tolist()


def _dense(src, dst):
    verts = np.unique(np.concatenate([src, dst]))
    vidx = {v: i for i, v in enumerate(verts)}
    A = np.zeros((len(verts), len(verts)))
    for s, d in zip(src, dst):
        A[vidx[s], vidx[d]] += 1.0  # parallel edges count
    return verts, A


def test_hits_matches_numpy_replay(graph, tmp_path):
    from graphlite_ray.pipelines.linkgraph import hits_tagged_edges, run_on_edge_dataset

    src, dst = graph
    verts, A = _dense(src, dst)
    iters = 4
    val = np.ones(len(verts))
    norm = val.sum()
    for k in range(1, 2 * iters):
        val = (A.T @ val if k % 2 == 1 else A @ val) / norm
        norm = val.sum()
    val = val / norm  # final normalize-only superstep

    res = run_on_edge_dataset(
        "hits",
        hits_tagged_edges(_edges_ds(src, dst)),
        str(tmp_path / "hits"),
        P=4,
        tag="hitsdir",
        iters=iters,
    )
    got = (
        res.values()
        .select_columns(["vertex_id", "value"])
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )
    assert res.final_superstep == 2 * iters
    assert got["vertex_id"].tolist() == verts.tolist()
    assert np.allclose(got["value"].to_numpy(), val, atol=1e-12)
    assert got["value"].sum() == pytest.approx(1.0, abs=1e-12)


def test_personalized_pagerank_matches_numpy_replay(graph, tmp_path):
    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset

    src, dst = graph
    verts, A = _dense(src, dst)
    seeds = [int(verts[0]), int(verts[3])]
    sm = np.isin(verts, seeds).astype(np.float64)
    outdeg = A.sum(axis=1)
    val = sm.copy()  # ss0
    k = 1
    while True:
        contrib = np.divide(val, outdeg, out=np.zeros_like(val), where=outdeg > 0)
        new = 0.15 * sm + 0.85 * (A.T @ contrib)
        delta = np.abs(new - val).sum()
        val = new
        k += 1
        if k - 1 >= 2 and delta < 1e-6:
            break
        assert k < 300

    res = run_on_edge_dataset(
        "personalized_pagerank", _edges_ds(src, dst), str(tmp_path / "ppr"),
        P=4, seeds=seeds,
    )
    got = (
        res.values()
        .select_columns(["vertex_id", "value"])
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )
    assert got["vertex_id"].tolist() == verts.tolist()
    assert np.allclose(got["value"].to_numpy(), val, atol=1e-9)
    # restart mass is confined to the seed neighborhood: vertices
    # unreachable from the seeds end with exactly 0
    reach = set(seeds)
    frontier = list(seeds)
    idx = {v: i for i, v in enumerate(verts)}
    while frontier:
        u = frontier.pop()
        for w in verts[A[idx[u]] > 0]:
            if int(w) not in reach:
                reach.add(int(w))
                frontier.append(int(w))
    zero_mask = ~np.isin(verts, sorted(reach))
    assert (got["value"].to_numpy()[zero_mask] == 0.0).all()


def test_double_sweep_diameter_matches_bruteforce(graph, tmp_path):
    from graphlite_ray.pipelines.graphstats import double_sweep_diameter_edges

    src, dst = graph
    got = double_sweep_diameter_edges(
        _edges_ds(src, dst), str(tmp_path / "dsw"), P=4
    ).to_pandas()

    # brute-force replay: same pivot rule, two BFS sweeps over the
    # symmetrized simple adjacency
    verts = np.unique(np.concatenate([src, dst]))
    idx = {int(v): i for i, v in enumerate(verts)}
    n = len(verts)
    A = np.zeros((n, n), bool)
    for s, d in zip(src, dst):
        A[idx[int(s)], idx[int(d)]] = True
        A[idx[int(d)], idx[int(s)]] = True

    deg = pd.Series(src).value_counts()
    top = deg[deg == deg.max()].index.min()  # max out-degree, min-id tie

    def bfs(s):
        dist = np.full(n, -1, np.int64)
        dist[idx[int(s)]] = 0
        frontier = [idx[int(s)]]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in np.flatnonzero(A[u]):
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    d1 = bfs(top)
    far_candidates = verts[d1 == d1.max()]
    u1 = int(far_candidates.min())
    d2 = bfs(u1)
    assert got.to_dict("records") == [
        {"pivot": int(top), "endpoint": u1, "diameter_lb": int(d2.max())}
    ]


def test_mis_matches_sequential_greedy(graph, tmp_path):
    """Static-priority parallel MIS == the sequential greedy MIS in
    descending enc order (the documented equivalence), and is independent
    + maximal on the simple de-self-looped graph."""
    from graphlite_ray.pipelines.linkgraph import mis_labels
    from graphlite_ray.programs import MaximalIndependentSet

    src, dst = graph
    df = (
        mis_labels(_edges_ds(src, dst), str(tmp_path / "mis"), P=4)
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )

    keep = src != dst
    s2, d2 = src[keep], dst[keep]
    verts = np.unique(np.concatenate([s2, d2]))
    adj = {int(v): set() for v in verts}
    for a, b in zip(s2, d2):
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    enc = MaximalIndependentSet.enc(verts)
    mis, blocked = set(), set()
    for v in verts[np.argsort(-enc)]:
        v = int(v)
        if v not in blocked:
            mis.add(v)
            blocked.add(v)
            blocked.update(adj[v])

    assert df["vertex_id"].tolist() == verts.tolist()
    got = set(df.loc[df["in_mis"] == 1, "vertex_id"].astype(int))
    assert got == mis
    # independence + maximality
    assert all(w not in got for u in got for w in adj[u])
    assert all(int(v) in got or adj[int(v)] & got for v in verts)


def test_coloring_proper_and_matches_round_replay(graph, tmp_path):
    """Greedy coloring: proper (no adjacent equal colors), every vertex
    colored, and bit-equal to a sequential replay of the documented
    largest-first rounds (color = round index)."""
    from graphlite_ray.pipelines.linkgraph import coloring_labels
    from graphlite_ray.programs import MaximalIndependentSet

    src, dst = graph
    df = (
        coloring_labels(_edges_ds(src, dst), str(tmp_path / "col"), P=4)
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )

    keep = src != dst
    s2, d2 = src[keep], dst[keep]
    verts = np.unique(np.concatenate([s2, d2]))
    adj = {int(v): set() for v in verts}
    for a, b in zip(s2, d2):
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    enc = {int(v): e for v, e in zip(verts, MaximalIndependentSet.enc(verts))}

    color = {int(v): -1 for v in verts}
    r = 0
    while any(c == -1 for c in color.values()):
        winners = [
            v for v in color
            if color[v] == -1
            and all(
                enc[v] > enc[w] for w in adj[v] if color[w] == -1
            )
        ]
        assert winners, "round replay stalled"
        for v in winners:
            color[v] = r
        r += 1

    got = dict(zip(df["vertex_id"].astype(int), df["color"].astype(int)))
    assert got == color
    assert all(got[u] != got[w] for u in adj for w in adj[u])
    assert all(c >= 0 for c in got.values())


def test_matching_maximal_and_matches_round_replay(graph, tmp_path):
    """Handshake maximal matching: symmetric partners, valid matching
    (every matched edge exists), maximal (no adjacent unmatched pair),
    and bit-equal to a sequential replay of the documented rounds."""
    from graphlite_ray.pipelines.linkgraph import matching_labels
    from graphlite_ray.programs import MaximalIndependentSet

    src, dst = graph
    df = (
        matching_labels(_edges_ds(src, dst), str(tmp_path / "mm"), P=4)
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )

    keep = src != dst
    s2, d2 = src[keep], dst[keep]
    verts = np.unique(np.concatenate([s2, d2]))
    adj = {int(v): set() for v in verts}
    for a, b in zip(s2, d2):
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    enc = {int(v): e for v, e in zip(verts, MaximalIndependentSet.enc(verts))}

    partner = {int(v): -1 for v in verts}
    while True:
        unm = {v for v in partner if partner[v] == -1}
        tgt = {}
        for v in unm:
            cands = [w for w in adj[v] if w in unm]
            if cands:
                tgt[v] = max(cands, key=lambda w: enc[w])
        pairs = [(v, w) for v, w in tgt.items() if tgt.get(w) == v and v < w]
        if not pairs:
            break
        for v, w in pairs:
            partner[v], partner[w] = w, v

    got = dict(zip(df["vertex_id"].astype(int), df["partner"].astype(int)))
    assert got == partner
    matched = {v for v, p in got.items() if p != -1}
    assert all(got[got[v]] == v for v in matched)            # symmetric
    assert all(got[v] in adj[v] for v in matched)            # real edges
    unmatched = set(got) - matched
    assert all(not (adj[v] & unmatched) for v in unmatched)  # maximal


def test_assortativity_matches_bruteforce(graph, tmp_path):
    from graphlite_ray.pipelines.graphstats import degree_assortativity

    src, dst = graph
    got = degree_assortativity(_edges_ds(src, dst), str(tmp_path / "as"), B=4)

    keep = src != dst
    s2, d2 = src[keep], dst[keep]
    od = {}
    idg = {}
    for a in s2:
        od[int(a)] = od.get(int(a), 0) + 1
    for b in d2:
        idg[int(b)] = idg.get(int(b), 0) + 1
    x = np.array([od[int(a)] for a in s2], np.float64)
    y = np.array([idg[int(b)] for b in d2], np.float64)
    r = np.corrcoef(x, y)[0, 1]

    assert int(got["n_edges"].iloc[0]) == len(s2)
    assert abs(got["assortativity"].iloc[0] - r) < 1e-9


def _brute_truss(pairs, k):
    """Sequential peeling oracle: (edge -> final within-truss support)."""
    cur = set(pairs)
    while True:
        adj = {}
        for a, b in cur:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        sup = {
            (a, b): len(adj[a] & adj[b]) for a, b in cur
        }
        nxt = {e for e, s in sup.items() if s >= k - 2}
        if nxt == cur:
            return sup
        cur = nxt
        if not cur:
            return {}


@pytest.mark.parametrize(
    "k,edge_limit",
    [(3, 2_000_000), (5, 2_000_000), (3, 0), (5, 0)],
    ids=["3", "5", "3-bucketed", "5-bucketed"],
)
def test_k_truss_matches_bruteforce(graph, tmp_path, monkeypatch, k, edge_limit):
    from graphlite_ray.pipelines import triangles

    monkeypatch.setattr(triangles, "SMALL_GRAPH_EDGES", edge_limit)
    src, dst = graph
    got = (
        triangles.k_truss(_edges_ds(src, dst), k, str(tmp_path / f"kt{k}"), B=4)
        .to_pandas()
        .sort_values(["lo", "hi"], ignore_index=True)
    )
    want = _brute_truss(_simple_pairs(src, dst), k)
    got_d = {
        (int(l), int(h)): int(s)
        for l, h, s in zip(got["lo"], got["hi"], got["sup"])
    }
    assert got_d == want


def _brandes_directed(pairs, sources, verts):
    """Reference Brandes (directed, unweighted) over distinct pairs."""
    adj = {int(v): [] for v in verts}
    radj = {int(v): [] for v in verts}
    for a, b in pairs:
        adj[int(a)].append(int(b))
        radj[int(b)].append(int(a))
    bc = {int(v): 0.0 for v in verts}
    for s in sources:
        dist = {int(v): -1 for v in verts}
        sigma = {int(v): 0.0 for v in verts}
        dist[s], sigma[s] = 0, 1.0
        order, frontier = [], [s]
        while frontier:
            nxt = []
            for v in frontier:
                order.append(v)
            for v in frontier:
                for w in adj[v]:
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
                    if dist[w] == dist[v] + 1:
                        sigma[w] += sigma[v]
            frontier = list(dict.fromkeys(nxt))
        delta = {int(v): 0.0 for v in verts}
        for w in reversed(order):
            for v in radj[w]:
                if dist[v] == dist[w] - 1 and dist[v] != -1:
                    delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    return bc


def test_betweenness_matches_brandes(graph, tmp_path):
    from graphlite_ray.pipelines.linkgraph import betweenness_scores

    src, dst = graph
    pairs = sorted({(int(a), int(b)) for a, b in zip(src, dst)})
    verts = np.unique(np.concatenate([src, dst]))
    sources = [int(v) for v in sorted(verts)[:4]]

    got = (
        betweenness_scores(
            _edges_ds(src, dst), sources, str(tmp_path / "bc"), P=4
        )
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )
    want = _brandes_directed(pairs, sources, verts)
    assert got["vertex_id"].tolist() == [int(v) for v in verts]
    for v, g in zip(got["vertex_id"], got["betweenness"]):
        assert abs(g - want[int(v)]) < 1e-9, (v, g, want[int(v)])


def test_betweenness_resume_midrun(graph, tmp_path):
    """Per-source dist/sigma/delta and the phase scalars ride extra_state:
    a run checkpointed mid-flight (typically inside the forward phase)
    resumes to values identical to an uninterrupted run."""
    from graphlite_ray.pipelines.linkgraph import betweenness_scores

    src, dst = graph
    verts = np.unique(np.concatenate([src, dst]))
    sources = [int(v) for v in sorted(verts)[:4]]

    full = (
        betweenness_scores(
            _edges_ds(src, dst), sources, str(tmp_path / "full"), P=4
        )
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )

    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset
    from graphlite_ray.programs import Betweenness

    def _tagged():
        from graphlite_ray.pipelines.linkgraph import betweenness_scores as _  # noqa
        import pyarrow as pa

        pairs = sorted({(int(a), int(b)) for a, b in zip(src, dst)})
        s2 = np.array([p[0] for p in pairs], np.int64)
        d2 = np.array([p[1] for p in pairs], np.int64)
        w = np.concatenate(
            [np.full(len(s2), Betweenness.FWD), np.full(len(s2), Betweenness.REV)]
        )
        return ray.data.from_arrow(
            pa.table(
                {
                    "src": np.concatenate([s2, d2]),
                    "dst": np.concatenate([d2, s2]),
                    "weight": w,
                }
            )
        )

    part = run_on_edge_dataset(
        Betweenness(sources), _tagged(), str(tmp_path / "rez"), P=4,
        tag="bcdir", max_supersteps=3, ckpt_every=2,
    )
    assert not part.halted
    resumed = run_on_edge_dataset(
        Betweenness(sources), _tagged(), str(tmp_path / "rez"), P=4,
        tag="bcdir", resume=True,
    )
    assert resumed.halted
    got = (
        resumed.values()
        .select_columns(["vertex_id", "value"])
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )
    assert got["vertex_id"].tolist() == full["vertex_id"].tolist()
    assert np.array_equal(got["value"].to_numpy(), full["betweenness"].to_numpy())


def test_modularity_matches_bruteforce(graph, tmp_path):
    from graphlite_ray.pipelines.graphstats import community_modularity

    src, dst = graph
    verts = np.unique(np.concatenate([src, dst]))
    labels_np = (verts % 3).astype(np.int64)  # arbitrary 3-community split
    labels = ray.data.from_arrow(
        pa.table({"vertex_id": verts, "label": labels_np})
    )
    got = community_modularity(
        _edges_ds(src, dst), labels, str(tmp_path / "mod"), B=4
    )

    pairs = _simple_pairs(src, dst)
    lab = dict(zip(verts.tolist(), labels_np.tolist()))
    m = len(pairs)
    mc, dc = {}, {}
    for a, b in pairs:
        if lab[a] == lab[b]:
            mc[lab[a]] = mc.get(lab[a], 0) + 1
        dc[lab[a]] = dc.get(lab[a], 0) + 1
        dc[lab[b]] = dc.get(lab[b], 0) + 1
    q = sum(
        mc.get(c, 0) / m - (dc[c] / (2 * m)) ** 2 for c in dc
    )
    assert int(got["n_edges"].iloc[0]) == m
    assert int(got["n_communities"].iloc[0]) == 3
    assert abs(got["modularity"].iloc[0] - q) < 1e-12


def test_approx_triangles_deterministic_and_exact_at_full_sample(graph, tmp_path):
    from graphlite_ray.pipelines.triangles import (
        _edge_sample_mask,
        approx_triangle_count,
        triangle_count,
    )

    src, dst = graph
    exact = triangle_count(_edges_ds(src, dst))
    # pct=100 keeps every edge: the estimator must equal the exact count
    assert approx_triangle_count(_edges_ds(src, dst), pct=100) == float(exact)

    # pct=50: equals the brute-force count over the SAME deterministic
    # sample, scaled
    pairs = np.array(sorted(_simple_pairs(src, dst)), np.int64)
    m = _edge_sample_mask(pairs[:, 0], pairs[:, 1], 50)
    kept = {tuple(p) for p in pairs[m]}
    adj = {}
    for a, b in kept:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tris = {
        tuple(sorted((a, b, c)))
        for a, b in kept
        for c in adj[a] & adj[b]
    }
    got = approx_triangle_count(_edges_ds(src, dst), pct=50)
    assert got == len(tris) * 8.0


def test_coreness_matches_peeling(graph, tmp_path):
    """H-index iteration == classic minimum-degree peeling coreness."""
    from graphlite_ray.pipelines.linkgraph import coreness_labels

    src, dst = graph
    got = (
        coreness_labels(_edges_ds(src, dst), str(tmp_path / "core"), P=4)
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )

    pairs = _simple_pairs(src, dst)
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    core = {}
    live = {v: set(ns) for v, ns in adj.items()}
    degs = {v: len(ns) for v, ns in live.items()}
    kmax = 0
    while live:
        v = min(live, key=lambda x: (degs[x], x))
        kmax = max(kmax, degs[v])
        core[v] = kmax
        for w in live[v]:
            live[w].discard(v)
            degs[w] -= 1
        del live[v], degs[v]

    gd = dict(zip(got["vertex_id"].astype(int), got["coreness"].astype(int)))
    assert gd == core


def test_vertex_cover_covers_every_edge(graph, tmp_path):
    """Matching endpoints form a vertex cover (the 2-approximation)."""
    from graphlite_ray.pipelines.linkgraph import matching_labels

    src, dst = graph
    df = matching_labels(
        _edges_ds(src, dst), str(tmp_path / "vc"), P=4
    ).to_pandas()
    cover = set(df.loc[df.partner != -1, "vertex_id"].astype(int))
    keep = src != dst
    assert all(
        int(a) in cover or int(b) in cover
        for a, b in zip(src[keep], dst[keep])
    )
    # 2-approx bound: |cover| = 2 |matching| <= 2 |any cover|
    assert len(cover) % 2 == 0


@pytest.mark.parametrize(
    "maker",
    ["mis", "coloring", "matching", "coreness", "betweenness"],
)
def test_new_programs_partition_invariance(graph, tmp_path, maker):
    """Every round-4 program is a deterministic function of the graph:
    P=2 and P=5 runs must be row-identical (SURVEY §5 item 3)."""
    from graphlite_ray.pipelines import linkgraph as L

    src, dst = graph
    verts = np.unique(np.concatenate([src, dst]))
    sources = [int(v) for v in sorted(verts)[:3]]

    def run(P, sub):
        wd = str(tmp_path / f"{maker}_{sub}")
        if maker == "mis":
            ds = L.mis_labels(_edges_ds(src, dst), wd, P=P)
        elif maker == "coloring":
            ds = L.coloring_labels(_edges_ds(src, dst), wd, P=P)
        elif maker == "matching":
            ds = L.matching_labels(_edges_ds(src, dst), wd, P=P)
        elif maker == "coreness":
            ds = L.coreness_labels(_edges_ds(src, dst), wd, P=P)
        else:
            ds = L.betweenness_scores(_edges_ds(src, dst), sources, wd, P=P)
        df = ds.to_pandas().sort_values("vertex_id", ignore_index=True)
        return df

    a, b = run(2, "p2"), run(5, "p5")
    assert a.columns.tolist() == b.columns.tolist()
    assert a["vertex_id"].tolist() == b["vertex_id"].tolist()
    val = [c for c in a.columns if c != "vertex_id"][0]
    if a[val].dtype.kind == "f":
        assert np.allclose(a[val].to_numpy(), b[val].to_numpy(), atol=1e-9)
    else:
        assert a[val].tolist() == b[val].tolist()


def test_seeded_lpa_matches_round_replay(graph, tmp_path):
    """Seeded spreading == sequential replay of the documented rounds;
    seeds stay clamped, unreachable vertices stay -1."""
    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset
    from graphlite_ray.programs import SeededLabelPropagation

    src, dst = graph
    verts = np.unique(np.concatenate([src, dst]))
    seeds = {int(v): i % 2 for i, v in enumerate(sorted(verts)[:6])}

    res = run_on_edge_dataset(
        SeededLabelPropagation(seeds), _edges_ds(src, dst),
        str(tmp_path / "slpa"), P=4,
    )
    got = {
        r["vertex_id"]: int(r["value"])
        for r in res.values().take_all()
    }

    # sequential replay over the symmetrized MULTIGRAPH (multiplicity
    # counts, matching the engine's message sums)
    nbrs = {}
    for a, b in zip(src, dst):
        nbrs.setdefault(int(a), []).append(int(b))
        nbrs.setdefault(int(b), []).append(int(a))
    lab = {int(v): seeds.get(int(v), -1) for v in verts}
    for _ in range(29):
        new = dict(lab)
        changed = 0
        for v in verts:
            v = int(v)
            if v in seeds:
                continue
            cnt = {}
            for w in nbrs.get(v, []):
                if lab[w] != -1:
                    cnt[lab[w]] = cnt.get(lab[w], 0) + 1
            if cnt:
                best = min(cnt, key=lambda c: (-cnt[c], c))
                if best != lab[v]:
                    changed += 1
                new[v] = best
        lab = new
        if changed == 0:
            break
    assert got == lab
    assert all(got[v] == c for v, c in seeds.items())


def test_bipartite_components(graph, tmp_path):
    """Composed CC -> parity-BFS pipeline: per-component bipartiteness vs
    a brute-force 2-coloring, with planted bipartite (star, even cycle),
    non-bipartite (triangle, self-loop) components beside the random
    graph."""
    from graphlite_ray.pipelines.linkgraph import bipartite_components

    src, dst = graph
    extra_src = np.array(
        # star 1000-(1001..1004)          even 6-cycle 2000..2005
        [1000, 1000, 1000, 1000, 2000, 2001, 2002, 2003, 2004, 2005,
         # triangle 3000..3002            self-loop 4000
         3000, 3001, 3002, 4000],
        np.int64,
    )
    extra_dst = np.array(
        [1001, 1002, 1003, 1004, 2001, 2002, 2003, 2004, 2005, 2000,
         3001, 3002, 3000, 4000],
        np.int64,
    )
    s = np.concatenate([src, extra_src])
    d = np.concatenate([dst, extra_dst])

    got = (
        bipartite_components(_edges_ds(s, d), str(tmp_path / "bip"), P=4)
        .to_pandas()
        .sort_values("component", ignore_index=True)
    )

    # brute force: 2-color every component over the symmetrized simple view
    adj = {}
    for a, b in zip(s, d):
        adj.setdefault(int(a), set()).add(int(b))
        adj.setdefault(int(b), set()).add(int(a))
    seen, want = set(), {}
    for v0 in sorted(adj):
        if v0 in seen:
            continue
        col, comp, ok = {v0: 0}, [v0], True
        queue = [v0]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w == u:
                    ok = False
                    continue
                if w not in col:
                    col[w] = 1 - col[u]
                    comp.append(w)
                    queue.append(w)
                elif col[w] == col[u]:
                    ok = False
        seen.update(comp)
        want[min(comp)] = (len(comp), int(ok))

    gd = {
        int(c): (int(n), int(b))
        for c, n, b in zip(got["component"], got["n_vertices"], got["is_bipartite"])
    }
    assert gd == want
    assert want[1000][1] == 1 and want[2000][1] == 1     # planted bipartite
    assert want[3000][1] == 0 and want[4000][1] == 0     # planted odd
