"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship link-graph pipeline (pages -> extraction ->
CSR -> PageRank -> scores joined with urls) at sf0.001 scale.

``queries()`` exposes every implemented operator/pipeline from SURVEY.md §2
plus the training-data operator suite. SQL-expressible ones have a DuckDB
oracle in ``oracle_sql()`` with matching column names — including ALL six
graph algorithms (pagerank/weighted_pagerank/CC/LPA/kcore/sssp), whose
oracles are recursive CTEs replaying the engine's recurrence and halt rule
over the staged edge table. Hash-based / approximate / binary-decode
operators are rows-only checks (their exactness oracles live in pytest —
tests/test_engine_graph.py, tests/test_stages.py).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init``/``ray.shutdown``.

Float-aggregate note: distributed partial sums differ from DuckDB's
sequential sums in the last ulp, so every SUM-derived float column is
rounded to a fixed precision ON BOTH SIDES; single-pass ratios of integer
counts are bit-exact and left unrounded.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

# the driver may import this module from any cwd; the package lives beside it
_REPO_DIR = os.path.dirname(os.path.abspath(__file__))
if _REPO_DIR not in sys.path:
    sys.path.insert(0, _REPO_DIR)

# the synthetic page-table scale used for graph pipelines per sf dir
_PAGES_FOR_SF = {"sf0.001": 300, "sf0.01": 2000, "sf0.1": 20000}
_SEED = 42

# The shared tokenization contract (graphlite_ray/functions/tokenize.py):
# every token-splitting oracle uses this EXPLICIT ASCII class, identical to
# the Python stages' TOKEN_RE — RE2's '\s' and Python's str.split() disagree
# on non-ASCII whitespace, so neither appears in tokenizing SQL.
from graphlite_ray.functions.tokenize import SQL_WS_SPLIT as _WS


def _pages_n(sf_dir: str) -> int:
    return _PAGES_FOR_SF.get(os.path.basename(os.path.normpath(sf_dir)), 1000)


def _graph_work(sf_dir: str) -> tuple[str, str]:
    """(pages_dir, work_dir) for this sf scale; work dir is resumable.
    The hash version is part of the path so staged edges/shards built with
    an older id-hash are never silently reused."""
    from graphlite_ray.functions.hashing import HASH_VERSION
    from graphlite_ray.sources.pages import pages_path

    n = _pages_n(sf_dir)
    pages = pages_path(n, seed=_SEED)
    work = f"/tmp/glr_entry/h{HASH_VERSION}_n{n}_s{_SEED}"
    os.makedirs(work, exist_ok=True)
    return pages, work


def entry() -> Any:
    import ray.data  # noqa: F401  (Ray initialised by the driver)

    from graphlite_ray.pipelines.linkgraph import result_with_urls, run_algorithm

    pages, work = _graph_work("/root/testdata/sf0.001")
    res = run_algorithm("pagerank", pages, work, P=8, resume=True)
    return result_with_urls(res, work)


# ---------------------------------------------------------------- queries


def _q_pagerank(sf_dir: str):
    """PageRank to the reference's aggregator-halt fixpoint — DuckDB-oracled
    by a recursive CTE replaying the exact recurrence + halt rule over the
    staged edge table (`_pagerank_oracle_sql`). Values rounded to 6 decimals
    on both sides (float-SUM note above)."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("pagerank", pages, work, P=8, resume=True)
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["value"] = _round_half_away(df["value"], 6)
    return df


def _q_graph_katz(sf_dir: str):
    """Katz centrality (truncated series, alpha=0.05, 10 iterations) —
    DuckDB-oracled by a recursive CTE replaying the exact fixed-K
    recurrence over the staged edge table (`_katz_oracle_sql`). Values
    rounded to 6 decimals on both sides (float-SUM note above)."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("katz", pages, work, P=8, resume=True)
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["value"] = _round_half_away(df["value"], 6)
    return df


def _q_graph_eigenvector(sf_dir: str):
    """Eigenvector centrality (L1-normalized power iteration, 8 layers +
    final normalize) — DuckDB-oracled by a recursive CTE replaying the
    exact layer schedule incl. the aggregator k->k+1 normalization
    (`_eigenvector_oracle_sql`). Values rounded to 6 decimals both
    sides."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("eigenvector", pages, work, P=8, resume=True)
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["value"] = _round_half_away(df["value"], 6)
    return df


def _q_incremental_pagerank(sf_dir: str):
    """PageRank over an INCREMENTALLY built graph: CSR shards are built
    from half the staged edges (deterministic (src + dst) % 2 split), then
    the other half is delta-merged with `state.csr.add_edges` — the
    new-crawl-snapshot path: per-partition merge, no full rebuild,
    crash-safe via per-partition delta markers. Shard bytes are a pure
    function of the edge multiset (canonical sort in `_write_shard`), so
    the merged graph is bit-identical to the one-shot build and the SAME
    exact recursive-CTE PageRank oracle applies."""
    import ray.data

    from graphlite_ray.engine import run_bsp
    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.programs import BUILTIN_PROGRAMS
    from graphlite_ray.state import storage
    from graphlite_ray.state.csr import add_edges, build_graph_shards

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    graph_dir = storage.join(work, "graph_incr")

    def _half(parity: int):
        def _f(t: pa.Table) -> pa.Table:
            src = t["src"].to_numpy(zero_copy_only=False)
            dst = t["dst"].to_numpy(zero_copy_only=False)
            m = ((src + dst) % 2) == parity
            return pa.table({"src": src[m], "dst": dst[m]})

        return _f

    def _build():
        base = ray.data.read_parquet(
            edges_dir, columns=["src", "dst"]
        ).map_batches(_half(0), batch_format="pyarrow")
        build_graph_shards(base, 8, graph_dir)
        delta = ray.data.read_parquet(
            edges_dir, columns=["src", "dst"]
        ).map_batches(_half(1), batch_format="pyarrow")
        add_edges(graph_dir, delta, delta_id="snap2")

    storage.staged(graph_dir, _build)
    res = run_bsp(
        BUILTIN_PROGRAMS["pagerank"](),
        graph_dir,
        storage.join(work, "ckpt_pagerank_incr"),
        resume=True,
    )
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["value"] = _round_half_away(df["value"], 6)
    return df


def _q_cc(sf_dir: str):
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("connected_components", pages, work, P=8, resume=True)
    return res.values().select_columns(["vertex_id", "value"])


def _q_lpa(sf_dir: str):
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("label_propagation", pages, work, P=8, resume=True)
    return res.values().select_columns(["vertex_id", "value"])


def _xor5_weighted_edges(sf_dir: str):
    """The staged edge table with the xor5 deterministic weights
    (w = (src ^ dst) % 5 + 1) — the SINGLE definition shared by every
    weighted query AND kept in lockstep with the SQL oracles' inlined
    formula. The weighted CSR cache under the shared work dir is keyed by
    the 'xor5' tag: that tag IS the weighting-scheme identity, so any
    change to this formula must rename the tag."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)

    def _with_weights(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        w = ((src ^ dst) % 5 + 1).astype(np.float64)
        return pa.table({"src": src, "dst": dst, "weight": w})

    return ray.data.read_parquet(edges_dir, columns=["src", "dst"]).map_batches(
        _with_weights, batch_format="pyarrow"
    )


def _q_weighted_pagerank(sf_dir: str):
    """Weighted PageRank over the page graph with deterministic per-edge
    weights derived from the endpoint ids (DuckDB-oracled: the xor5 weight
    formula is inlined in the recursive-CTE oracle). Weight assignment is a
    map_batches stage — the edge table streams into the CSR build without
    ever touching the driver."""
    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset

    _, work = _graph_work(sf_dir)
    edges = _xor5_weighted_edges(sf_dir)
    res = run_on_edge_dataset(
        "weighted_pagerank", edges, os.path.join(work, "wpr"), P=8,
        tag="xor5", resume=True,
    )
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["value"] = _round_half_away(df["value"], 6)
    return df


def _sssp_source(sf_dir: str) -> int:
    from graphlite_ray.functions.hashing import ids_from_urls
    from graphlite_ray.sources.pages import url_of

    n = _pages_n(sf_dir)
    return int(ids_from_urls([url_of(0, n)])[0])


def _q_rich_club(sf_dir: str):
    """Rich-club curve phi(k) over the simple page graph
    (`pipelines/graphstats.py::rich_club` — cumulative min-degree /
    degree histograms, integer-exact, one degree attach)."""
    import ray.data

    from graphlite_ray.pipelines.graphstats import rich_club
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return rich_club(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        os.path.join(work, "rc"),
        B=16,
    )


def _q_densest(sf_dir: str):
    """Densest-subgraph 2-approx by parallel peeling (Bahmani et al.;
    programs.DensestSubgraph — integer cross-multiplied thresholds, two
    supersteps per round on the aggregator off-by-one). Output: peel
    round per vertex + membership of the densest round's survivor set.
    The oracle replays the rounds as a recursive CTE with the SAME
    integer compares, so even the density argmax is exact."""
    from graphlite_ray.pipelines.linkgraph import (
        assert_halted_by_fixpoint,
        run_algorithm,
    )
    from graphlite_ray.programs import DensestSubgraph

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("densest_subgraph", pages, work, P=8, resume=True)
    assert_halted_by_fixpoint("densest_subgraph")
    hv = res.aggr_history[-1].get("histV", {})
    he = res.aggr_history[-1].get("histE2", {})
    best = DensestSubgraph.densest_round(hv, he)
    df = res.values().to_pandas()
    out = pd.DataFrame(
        {
            "vertex_id": df["vertex_id"].astype("int64"),
            "peel_round": df["value"].astype("int64"),
            "in_densest": (df["value"].astype("int64") >= best).astype("int64"),
        }
    )
    return out.sort_values("vertex_id", ignore_index=True)


def _q_kcore(sf_dir: str, k: int = 4):
    """k-core decomposition by peeling (DuckDB-oracled: recursive-CTE
    synchronous peeling over the symmetrized staged edges).
    value = remaining degree for members of the k-core, -1 for peeled."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("kcore", pages, work, P=8, resume=True, k=k)
    return res.values().select_columns(["vertex_id", "value"])


def _q_sssp(sf_dir: str):
    """Shortest paths from page 0's vertex over the page graph — oracled by
    a DuckDB recursive CTE over the staged edge table."""
    from graphlite_ray.functions.hashing import ids_from_urls
    from graphlite_ray.pipelines.linkgraph import run_algorithm
    from graphlite_ray.sources.pages import url_of

    pages, work = _graph_work(sf_dir)
    n = _pages_n(sf_dir)
    source = int(ids_from_urls([url_of(0, n)])[0])
    res = run_algorithm("sssp", pages, work, P=8, resume=True, source=source)
    ds = res.values().select_columns(["vertex_id", "value"])

    def _finite(t):
        import pyarrow.compute as pc

        return t.filter(pc.is_finite(t["value"]))

    return ds.map_batches(_finite, batch_format="pyarrow")


def _q_sssp_weighted(sf_dir: str):
    """Weighted shortest paths (per-edge xor5 weights — the reference's
    Edge.weight payload under a DRIVER oracle): recursive weighted-walk
    CTE. Shares the wpr work dir so the weighted CSR build is reused.
    max_supersteps is raised to V-scale so Bellman-Ford always reaches its
    EXACT fixpoint (it halts at the true hop depth, ~graph diameter, long
    before the cap) — the oracle's distance bound (< 400) is then the
    only approximation surface, with ~5x margin over this graph's max
    finite weighted distance."""
    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset

    _, work = _graph_work(sf_dir)
    source = _sssp_source(sf_dir)
    edges = _xor5_weighted_edges(sf_dir)
    res = run_on_edge_dataset(
        "sssp", edges, os.path.join(work, "wpr"), P=8,
        tag="xor5", resume=True, source=source, max_supersteps=5000,
    )
    ds = res.values().select_columns(["vertex_id", "value"])

    def _finite(t):
        import pyarrow.compute as pc

        return t.filter(pc.is_finite(t["value"]))

    return ds.map_batches(_finite, batch_format="pyarrow")


def _q_reshard_degrees(sf_dir: str):
    """Online repartition (reshard_graph, S6): reshard the P=8 CSR layout
    to P=5 and recount out-degrees from the resharded edge shards — the
    oracle is the SAME degree SQL over the original staged edges, so any
    row lost/duplicated by the reshard shuffle fails the hash."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_graph
    from graphlite_ray.state import storage
    from graphlite_ray.state.csr import load_graph_meta, reshard_graph

    pages, work = _graph_work(sf_dir)
    graph_dir = prepare_graph(pages, work, P=8)
    out_dir = os.path.join(work, "graph_p5")
    meta_path = os.path.join(out_dir, "meta.json")
    if not (storage.exists(meta_path) and load_graph_meta(out_dir).get("P") == 5):
        reshard_graph(graph_dir, out_dir, 5)

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    files = [
        os.path.join(out_dir, n_)
        for n_ in sorted(storage.listdir(out_dir))
        if n_.startswith("edges_p") and n_.endswith(".parquet")
    ]

    def _partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["src"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"src": u, "c": c})

    def _final_frame(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("src", as_index=False)["c"].sum()
        return out.rename(columns={"c": "out_degree"})

    return grouped_map_bucketed(
        ray.data.read_parquet(files).map_batches(_partial, batch_format="pyarrow"),
        ["src"],
        _final_frame,
        B=16,
    )


def _host_edges_dir(sf_dir: str) -> str:
    """Stage the host-level edge table (one row per page-level link,
    host strings) under the work dir — shared input for the host-graph
    queries AND their DuckDB oracles."""
    from graphlite_ray.pipelines.linkgraph import host_edges, prepare_edges
    from graphlite_ray.state import storage

    pages, work = _graph_work(sf_dir)
    prepare_edges(pages, work, P=8)
    hdir = os.path.join(work, "host_edges")
    marker = os.path.join(hdir, "_SUCCESS")
    if not storage.exists(marker):
        if storage.isdir(hdir):
            storage.rmtree(hdir)
        storage.makedirs(hdir)
        host_edges(work).write_parquet(hdir)
        storage.write_text(marker, "ok")
    return hdir


def _q_host_edge_counts(sf_dir: str):
    """Host-graph collapse (the standard Common-Crawl host-level
    aggregation): (src_host, dst_host, n page-level links)."""
    from graphlite_ray.pipelines.linkgraph import host_edge_counts

    _, work = _graph_work(sf_dir)
    _host_edges_dir(sf_dir)  # ensures the staged edges exist
    return host_edge_counts(work)


def _q_graph_cliques4(sf_dir: str):
    """Exact 4-clique count of the simple undirected HOST graph
    (pipelines/triangles.py::clique4_count — kClist-style orientation
    counting, every wide step a bucketed exchange). The engine runs on
    hashed host ids; the count is relabeling-invariant, so the DuckDB
    oracle replays it with a 6-way id-ordered self-join over the staged
    host-STRING edges."""
    import ray.data

    from graphlite_ray.functions.hashing import ids_from_urls
    from graphlite_ray.pipelines.triangles import clique4_count

    _, work = _graph_work(sf_dir)
    hdir = _host_edges_dir(sf_dir)
    hosts_ds = ray.data.read_parquet(hdir, columns=["src_host", "dst_host"])

    def _ids(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "src": ids_from_urls(df["src_host"].to_numpy()),
                "dst": ids_from_urls(df["dst_host"].to_numpy()),
            }
        )

    n = clique4_count(
        hosts_ds.map_batches(_ids, batch_format="pandas"),
        work_dir=os.path.join(work, "c4"),
        B=16,
    )
    return pa.table({"cliques4": pa.array([n], pa.int64())})


def _q_host_pagerank(sf_dir: str):
    """PageRank on the HOST multigraph (parallel edges = page-level link
    counts). The engine runs on hashed host ids; the oracle replays the
    recurrence over the staged host-STRING edges — PageRank is
    relabeling-invariant, and the query joins values back to hosts."""
    import ray.data

    from graphlite_ray.functions.hashing import ids_from_urls
    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset

    _, work = _graph_work(sf_dir)
    hdir = _host_edges_dir(sf_dir)
    hosts_ds = ray.data.read_parquet(hdir, columns=["src_host", "dst_host"])

    def _ids(df: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "src": ids_from_urls(df["src_host"].to_numpy()),
                "dst": ids_from_urls(df["dst_host"].to_numpy()),
            }
        )

    res = run_on_edge_dataset(
        "pagerank",
        hosts_ds.map_batches(_ids, batch_format="pandas"),
        os.path.join(work, "hostpr"),
        P=4,
        resume=True,
    )

    # host dictionary: per-batch distinct -> small driver set (hosts are
    # the collapsed vertex set; at true web scale use the co-partitioned
    # urlmap join instead of a driver dict)
    def _uniq(df: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(
            np.concatenate([df["src_host"].to_numpy(), df["dst_host"].to_numpy()])
        )
        return pd.DataFrame({"host": h})

    hosts = np.unique(
        hosts_ds.map_batches(_uniq, batch_format="pandas").to_pandas()["host"].to_numpy()
    )
    id2host = dict(zip(ids_from_urls(hosts).tolist(), hosts.tolist()))
    # a 63-bit hash collision would silently merge two hosts into one
    # vertex and corrupt every rank; cheap to rule out here since the host
    # dictionary is already driver-side. The at-scale urlmap-join path
    # carries the same no-collision assumption (birthday bound: ~2^31.5
    # hosts for a 50% chance — beyond any real host count).
    if len(id2host) != len(hosts):
        raise RuntimeError(
            f"host id hash collision: {len(hosts)} hosts -> {len(id2host)} ids"
        )
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["host"] = df["vertex_id"].map(id2host)
    df["value"] = _round_half_away(df["value"], 6)
    return df[["host", "value"]].sort_values("host", ignore_index=True)


def _q_triangles(sf_dir: str):
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.triangles import triangle_count

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    n = triangle_count(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work_dir=os.path.join(work, "tri"),
        B=16,
    )
    return pa.table({"n_triangles": pa.array([n], pa.int64())})


def _q_graph_transitivity(sf_dir: str):
    """Global clustering coefficient 3*T/W of the simple undirected page
    graph — DuckDB-oracled exactly (triangle 3-way join + degree-derived
    wedge count; one float division, rounded 6dp both sides)."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.triangles import transitivity

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    T, W, C = transitivity(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work_dir=os.path.join(work, "tri"),
        B=16,
    )
    return pa.table(
        {
            "n_triangles": pa.array([T], pa.int64()),
            "n_wedges": pa.array([W], pa.int64()),
            "transitivity": pa.array([_round_half_away(np.array([C]), 6)[0]], pa.float64()),
        }
    )


def _q_extract_edges(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.extract import extract_links_batch

    pages, _ = _graph_work(sf_dir)
    return ray.data.read_parquet(pages, columns=["url", "html"]).map_batches(
        extract_links_batch, batch_format="pyarrow"
    )


def _q_anchor_text(sf_dir: str):
    """Inbound anchor-text index (pipelines/anchortext.py) — DuckDB oracle
    re-extracts full anchor elements from the raw html with the SAME RE2
    pattern and replays the entity-chain + whitespace-collapse anchor-text
    contract (functions/html.py ANCHOR_TEXT_VERSION=1), then aggregates
    independently."""
    import ray.data

    from graphlite_ray.pipelines.anchortext import anchor_text_index

    pages, _ = _graph_work(sf_dir)
    ds = ray.data.read_parquet(pages, columns=["url", "html"])
    return anchor_text_index(ds, B=32)


def _q_degrees(sf_dir: str):
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["src"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"src": u, "c": c})

    def _final_frame(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("src", as_index=False)["c"].sum()
        return out.rename(columns={"c": "out_degree"})

    return grouped_map_bucketed(
        ray.data.read_parquet(edges_dir, columns=["src"]).map_batches(
            _partial, batch_format="pyarrow"
        ),
        ["src"],
        _final_frame,
        B=16,
    )


def _ppr_seeds(sf_dir: str) -> list[int]:
    """Deterministic seed set for personalized PageRank: the vertex ids of
    synthetic pages 0..4 (same id-assignment as the engine)."""
    from graphlite_ray.functions.hashing import ids_from_urls
    from graphlite_ray.sources.pages import url_of

    n = _pages_n(sf_dir)
    return [int(v) for v in ids_from_urls([url_of(i, n) for i in range(5)])]


def _q_ppr(sf_dir: str):
    """Personalized PageRank restarted to the 5-page seed set — oracled by
    the same recursive-CTE recurrence replay as PageRank with the restart
    term confined to the seeds (`_pagerank_oracle_sql(seeds=...)`)."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm(
        "personalized_pagerank", pages, work, P=8, resume=True,
        seeds=_ppr_seeds(sf_dir),
    )
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["value"] = _round_half_away(df["value"], 6)
    return df


def _scc_edge_filter(t: "pa.Table") -> "pa.Table":
    """Deterministic, SQL-replicable edge subset for the SCC query: the
    staged page graph is one giant SCC (the generator's ring), so dropping
    edges with (src%3 + dst%3) % 3 == 0 breaks it into ~490 components at
    sf0.01 — a structure actually worth decomposing. Ids are positive, so
    Python % == SQL %."""
    s = t["src"].to_numpy(zero_copy_only=False)
    d = t["dst"].to_numpy(zero_copy_only=False)
    keep = (s % 3 + d % 3) % 3 != 0
    return pa.table({"src": s[keep], "dst": d[keep]})


def _q_graph_scc(sf_dir: str):
    """Strongly connected components over a deterministically filtered
    page graph (distributed coloring algorithm: TRIM / max-color forward
    / same-color backward detect rounds in ONE multi-phase vertex
    program; scc_id = max member id) — DuckDB-oracled by transitive
    closure + mutual-reachability max."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges, scc_labels

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    edges = ray.data.read_parquet(edges_dir, columns=["src", "dst"]).map_batches(
        _scc_edge_filter, batch_format="pyarrow"
    )
    return (
        scc_labels(edges, os.path.join(work, "sccrun"), P=8, resume=True)
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )


def _q_graph_bowtie_scc(sf_dir: str):
    """Broder-FAITHFUL bowtie: core = the LARGEST SCC (not the heuristic
    max-out-degree pivot), over the same filtered graph as `graph_scc` so
    the structure is non-trivial. The largest component's representative
    (its max member id) is a sufficient pivot because SCC members share
    reachability — `bowtie_classes` then classifies exactly as Broder
    2000 does."""
    import ray.data

    from graphlite_ray.pipelines.bowtie import bowtie_classes, largest_scc_pivot
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    edges = ray.data.read_parquet(edges_dir, columns=["src", "dst"]).map_batches(
        _scc_edge_filter, batch_format="pyarrow"
    )
    pivot = largest_scc_pivot(edges, os.path.join(work, "sccrun"), P=8, resume=True)
    return (
        bowtie_classes(
            edges, os.path.join(work, "bowtie_scc"), P=8, pivot=pivot, resume=True
        )
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )


_WALK_SEEDS_N = 8
_WALK_LEN = 12


def _walk_seeds(sf_dir: str) -> list[int]:
    """Walk w starts at the vertex id of synthetic page w (w = 0..7) —
    same id assignment as the engine and the urlmap."""
    from graphlite_ray.functions.hashing import ids_from_urls
    from graphlite_ray.sources.pages import url_of

    n = _pages_n(sf_dir)
    return [int(v) for v in ids_from_urls([url_of(i, n) for i in range(_WALK_SEEDS_N)])]


def _q_random_walks(sf_dir: str):
    """Deterministic seeded random walks (8 walks x 12 steps, BSP hop per
    superstep, visit trace via the aggregator lane) — DuckDB-oracled by a
    recursive CTE replaying the exact 32-bit hop mixer over dst-ranked
    neighbors."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm
    from graphlite_ray.pipelines.walks import walk_trace

    pages, work = _graph_work(sf_dir)
    res = run_algorithm(
        "random_walks", pages, work, P=8, resume=True,
        seeds=_walk_seeds(sf_dir), length=_WALK_LEN,
    )
    return walk_trace(res)


def _q_sage_features(sf_dir: str):
    """GraphSAGE-style pooled k-hop featurization (composite minibatch
    operator: khop tree x staged integer url-token features, SUM-pooled
    per seed — `pipelines/sampling.py::sage_features`); all-integer, so
    the tree+FNV+pooling SQL replay compares exactly."""
    import glob as _glob

    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges, prepare_urlmap
    from graphlite_ray.pipelines.sampling import sage_features

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    prepare_urlmap(work, P=8)  # no-op when already staged
    urlmap = ray.data.read_parquet(
        sorted(_glob.glob(os.path.join(work, "urlmap_p*.parquet")))
    )
    return sage_features(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        urlmap,
        work,
        hops=2,
        fanout=3,
        seed_mod=8,
        B=16,
    )


def _q_skipgram_pairs(sf_dir: str):
    """Skip-gram training pairs (window=2) from the second-order biased
    walk corpus — the node2vec corpus step (`walks.skipgram_pairs`).
    Oracle: the walk-trace replay self-joined within the window."""
    from graphlite_ray.pipelines.walks import skipgram_pairs

    return skipgram_pairs(_q_biased_walks(sf_dir), window=2)


_N2V_LEN = 8


def _q_biased_walks(sf_dir: str):
    """Second-order node2vec-style biased walks (8 walks x 8 steps) over
    the simple page graph — return/near/far integer weights, edge
    membership per hop via the pair-bucketed closure exchange
    (`pipelines/walks.py::biased_walks`); the oracle replays every
    weighted choice bit-for-bit (`_n2v_oracle_sql`)."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.walks import biased_walks

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return biased_walks(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        seeds=_walk_seeds(sf_dir),
        length=_N2V_LEN,
        work_dir=os.path.join(work, "n2v"),
        B=16,
    )


_HITS_ITERS = 4


def _q_hits(sf_dir: str):
    """HITS authority scores (L1-normalized, 4 iterations) over the page
    graph. The engine runs on the direction-tagged edge multiset (forward +
    reverse rows, the per-edge weight as direction tag); the oracle replays
    the exact alternating normalize-by-previous-layer recurrence
    (`_hits_oracle_sql`)."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import (
        hits_tagged_edges,
        prepare_edges,
        run_on_edge_dataset,
    )

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    edges = ray.data.read_parquet(edges_dir, columns=["src", "dst"])
    res = run_on_edge_dataset(
        "hits", hits_tagged_edges(edges), work, P=8, tag="hitsdir",
        resume=True, iters=_HITS_ITERS,
    )
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    df["value"] = _round_half_away(df["value"], 6)
    return df


def _q_vertex_triangles(sf_dir: str):
    """Per-vertex triangle counts + local clustering coefficient over the
    simple undirected page graph (DuckDB oracle: 3-way self-join on the
    id-oriented distinct edge set, credits to all three corners)."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.triangles import vertex_triangle_counts

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    df = vertex_triangle_counts(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work_dir=os.path.join(work, "vtri"),
        B=16,
    ).to_pandas()
    df["clustering"] = _round_half_away(df["clustering"], 6)
    return df.sort_values("vertex_id", ignore_index=True)


def _q_avg_neighbor_degree(sf_dir: str):
    """Per-vertex average out-degree of out-neighbors (localized
    degree-degree correlation; knn(v)) — role-tagged one-shuffle
    co-partitioned join, then a keyed mean. Oracle: LEFT JOIN against the
    degree CTE (dangling neighbors contribute 0)."""
    import ray.data

    from graphlite_ray.pipelines.graphstats import avg_neighbor_degree
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return avg_neighbor_degree(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"])
    )


def _q_graph_khop_sample(sf_dir: str):
    """GraphSAGE-style deterministic k-hop neighbor sample trees
    (hops=2, fanout=3) from the vid%8 seed set: each vertex's fixed
    out-sample ranks distinct out-neighbors by the splitmix64 key
    mix64(mix64(src)^dst) — built with ONE bucketed shuffle, each hop a
    co-partitioned attach. Oracle replays the key bit-for-bit
    (`_splitmix64_sql`) + ROW_NUMBER + the two-hop join chain."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.sampling import khop_sample

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return khop_sample(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work,
        hops=2,
        fanout=3,
        seed_mod=8,
    )


def _q_reciprocity(sf_dir: str):
    """Edge reciprocity of the page graph (distinct non-loop directed
    edges) — one bucketed shuffle on the unordered pair key."""
    import ray.data

    from graphlite_ray.pipelines.graphstats import reciprocity
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    df = reciprocity(ray.data.read_parquet(edges_dir, columns=["src", "dst"]))
    df["reciprocity"] = _round_half_away(df["reciprocity"], 6)
    return df


def _seeded_lpa_seeds(sf_dir: str) -> dict:
    """Deterministic class seeds for semi-supervised label spreading: the
    vertex ids of synthetic pages 0..9, alternating classes 0/1."""
    from graphlite_ray.functions.hashing import ids_from_urls
    from graphlite_ray.sources.pages import url_of

    n = _pages_n(sf_dir)
    ids = ids_from_urls([url_of(i, n) for i in range(10)])
    return {int(v): i % 2 for i, v in enumerate(ids)}


def _q_bipartite(sf_dir: str):
    """Per-component bipartiteness (composed CC -> parity BFS over one
    shared graph layout) — DuckDB oracle 2-colors independently: BFS
    distances from the CC roots, parity = dist % 2, component flagged by
    any monochromatic edge (the BFS-layer odd-cycle criterion)."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import bipartite_components, prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    out = (
        bipartite_components(
            ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
            work, P=8, resume=True,
        )
        .to_pandas()
        .sort_values("component", ignore_index=True)
    )
    # the oracle's parity BFS carries a depth cap (80): only comparable when
    # the engine run converged by fixpoint, not its own superstep cap
    from graphlite_ray.pipelines.linkgraph import assert_halted_by_fixpoint

    assert_halted_by_fixpoint("bipartite")
    return out


def _q_seeded_lpa(sf_dir: str):
    """Semi-supervised label spreading from 10 fixed class seeds
    (programs.SeededLabelPropagation) — DuckDB oracle replays the seeded
    mode recurrence with the seed clamp (`_seeded_lpa_oracle_sql`)."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm(
        "seeded_lpa", pages, work, P=8, resume=True,
        seeds=_seeded_lpa_seeds(sf_dir),
    )
    df = res.values().select_columns(["vertex_id", "value"]).to_pandas()
    return df.rename(columns={"value": "label"}).sort_values(
        "vertex_id", ignore_index=True
    )


def _q_vertex_cover(sf_dir: str):
    """2-approximation vertex cover = the endpoint set of the maximal
    matching (every edge has a matched endpoint, else the matching was
    not maximal; at most 2x optimal since any cover takes >= 1 endpoint
    per matched edge) — derived from `programs.MaximalMatching`, oracled
    by the matching replay's matched endpoints."""
    import pyarrow as pa
    import ray.data

    from graphlite_ray.pipelines.linkgraph import matching_labels, prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    m = matching_labels(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work, P=8, resume=True,
    )

    def _cover(t: pa.Table) -> pa.Table:
        p = t["partner"].to_numpy(zero_copy_only=False)
        v = t["vertex_id"].to_numpy(zero_copy_only=False)
        return pa.table({"vertex_id": v[p != -1]})

    return m.map_batches(_cover, batch_format="pyarrow").to_pandas().sort_values(
        "vertex_id", ignore_index=True
    )


def _q_component_sizes(sf_dir: str):
    """Weakly-connected component size distribution (size -> number of
    components) — one bucketed count over the CC labels, oracled via the
    CC min-label CTE + double group-by."""
    import pyarrow as pa

    from graphlite_ray.functions.grouping import grouped_map_bucketed
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("connected_components", pages, work, P=8, resume=True)
    labels = res.values().map_batches(
        lambda t: pa.table({"label": t["value"]}), batch_format="pyarrow"
    )

    def _csize(g):
        out = g.groupby("label", as_index=False).size()
        return out.rename(columns={"size": "n"}).astype({"n": "int64"})

    sizes = grouped_map_bucketed(labels, ["label"], _csize, B=16)

    def _hist(g):
        out = g.groupby("n", as_index=False).size()
        return out.rename(columns={"n": "size", "size": "n_components"}).astype(
            {"n_components": "int64"}
        )

    return (
        grouped_map_bucketed(sizes, ["n"], _hist, B=4)
        .to_pandas()
        .groupby("size", as_index=False)["n_components"]
        .sum()  # bucket partials for the same size merge here (<= B rows)
        .astype({"n_components": "int64"})
        .sort_values("size", ignore_index=True)
    )


def _q_coreness(sf_dir: str):
    """Full coreness (k-core decomposition) of the simple page graph via
    H-index iteration — DuckDB oracle replays the rounds with the same
    row_number H-index (`_coreness_oracle_sql`); a pytest proves equality
    with classic minimum-degree peeling."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import coreness_labels, prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return coreness_labels(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work, P=8, resume=True,
    )


def _q_triangles_approx(sf_dir: str):
    """DOULION approximate triangle count at pct=50 — the deterministic
    hash sample is SQL-replayable, so even the APPROXIMATE count is
    exactly oracled (count over the same sampled edge set x (100/pct)^3);
    estimator accuracy vs the exact sibling is measured in bench.py."""
    import pandas as pd
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.triangles import approx_triangle_count

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    est = approx_triangle_count(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]), pct=50
    )
    return pd.DataFrame({"n_triangles_est": [est]})


def _q_modularity(sf_dir: str):
    """Newman modularity of the LPA communities over the simple page graph
    — DuckDB oracle recomputes labels via the shared LPA CTE and scores
    them independently (`_modularity_oracle_sql`)."""
    import pyarrow as pa
    import ray.data

    from graphlite_ray.pipelines.graphstats import community_modularity
    from graphlite_ray.pipelines.linkgraph import prepare_edges, run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm("label_propagation", pages, work, P=8, resume=True)
    labels = res.values().map_batches(
        lambda t: pa.table({"vertex_id": t["vertex_id"], "label": t["value"]}),
        batch_format="pyarrow",
    )
    edges_dir = prepare_edges(pages, work, P=8)
    df = community_modularity(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]), labels, work
    )
    df["modularity"] = _round_half_away(df["modularity"], 6)
    return df


def _q_betweenness(sf_dir: str):
    """Sampled-source Brandes betweenness (sources = the 5-page seed set
    shared with personalized PageRank) — DuckDB oracle replays the
    forward-sigma BFS and the level-descending dependency accumulation
    (`_betweenness_oracle_sql`); a pytest proves equality with a
    sequential Brandes to 1e-9."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import betweenness_scores, prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    df = betweenness_scores(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        _ppr_seeds(sf_dir),
        work,
        P=8,
        resume=True,
    ).to_pandas()
    # the oracle's forward BFS caps at 80 levels: only comparable when the
    # engine run converged by fixpoint (r4 ADVICE cap-divergence guard)
    from graphlite_ray.pipelines.linkgraph import assert_halted_by_fixpoint

    assert_halted_by_fixpoint("betweenness")
    df["betweenness"] = _round_half_away(df["betweenness"], 6)
    return df.sort_values("vertex_id", ignore_index=True)


def _q_ktruss(sf_dir: str):
    """3-truss of the simple page graph with final within-truss support —
    DuckDB oracle replays the peeling rounds (recursive CTE; assumes the
    truss is non-empty at this scale, which it is: the empty-truss path is
    pytest-covered instead)."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.triangles import k_truss

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    out = k_truss(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        k=3,
        work_dir=f"{work}/truss3",
    ).to_pandas()
    return out.sort_values(["lo", "hi"], ignore_index=True)


def _q_assortativity(sf_dir: str):
    """Directed degree assortativity of the page graph (out-degree of src
    vs in-degree of dst, non-loop edge multiset) — exact-integer partial
    sums, one fixed float64 Pearson expression, shared rounding."""
    import ray.data

    from graphlite_ray.pipelines.graphstats import degree_assortativity
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    df = degree_assortativity(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]), work
    )
    df["assortativity"] = _round_half_away(df["assortativity"], 6)
    return df


_NF_RADIUS = 4
_NF_SOURCE_MOD = 8  # sources = vertices with vid % 8 == 0 (uniform over hashed ids)


def _q_graph_neighborhood(sf_dir: str):
    """EXACT neighborhood function N(t): ordered pairs (u in sources, v)
    with d(u -> v) <= t over the directed page graph, t = 0..4, from the
    deterministic vid%8 source set — multi-source BFS wavefronts in the
    BSP engine, DuckDB-oracled by a recursive-walk min-distance CTE.
    The exact sibling of `graph_neighborhood_approx`."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm
    from graphlite_ray.pipelines.neighborhood import neighborhood_table

    pages, work = _graph_work(sf_dir)
    res = run_algorithm(
        "neighborhood_exact", pages, work, P=8, resume=True,
        radius=_NF_RADIUS, source_mod=_NF_SOURCE_MOD,
    )
    return neighborhood_table(res, exact=True)


def _q_graph_neighborhood_approx(sf_dir: str):
    """HyperBall estimate of the same neighborhood function (p=6 -> 64
    registers/vertex, fixed memory per vertex at any graph size) — the
    scale path. Approximate vs the EXACT sibling (rel err < 0.2 asserted
    in pytest), but DETERMINISTIC given the seed hash — so it is fully
    DuckDB-oracled (`_hyperball_nf_oracle_sql`): per-radius registers,
    estimates, telescoped deltas and the final-superstep rule replayed in
    SQL, hash-exact at 3-digit half-away rounding."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm
    from graphlite_ray.pipelines.neighborhood import neighborhood_table

    pages, work = _graph_work(sf_dir)
    res = run_algorithm(
        "hyperball", pages, work, P=8, resume=True,
        p=6, radius=_NF_RADIUS, source_mod=_NF_SOURCE_MOD,
    )
    df = neighborhood_table(res, exact=False)
    df["new_pairs"] = _round_half_away(df["new_pairs"], 3)
    df["cum_pairs"] = _round_half_away(df["cum_pairs"], 3)
    return df


def _q_graph_hyperball_balls(sf_dir: str):
    """Per-vertex HyperBall registers at the final radius, fully
    DuckDB-oracled (r4 verdict item 9: SQL-replay the register updates):
    reg_sum is the bit-exact integer sum of the vertex's 64 registers;
    est is the bias-corrected HLL ball estimate (deterministic function of
    the registers, 6-digit rounded). The oracle rebuilds every register
    from scratch — recursive BFS ball membership + the splitmix64 hash
    replayed in SQL (`_splitmix64_sql`) — so the entire HyperBall
    machinery (hash, bucket, rho, max-merge, estimator) is verified
    end-to-end; the companion `graph_neighborhood_approx` query remains
    the rows-only telescoped-sum view of the same run."""
    from graphlite_ray.functions.sketches import estimate_registers
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm(
        "hyperball", pages, work, P=8, resume=True,
        p=6, radius=_NF_RADIUS, source_mod=_NF_SOURCE_MOD,
    )

    def _per_vertex(t: pa.Table) -> pa.Table:
        regs = np.stack(
            [np.asarray(v, np.uint8) for v in t["value"].to_pylist()]
        ) if t.num_rows else np.zeros((0, 64), np.uint8)
        est = estimate_registers(regs) if t.num_rows else np.zeros(0)
        return pa.table(
            {
                "vertex_id": t["vertex_id"],
                "reg_sum": regs.astype(np.int64).sum(axis=1),
                "est": _round_half_away(pd.Series(est), 6).to_numpy(),
            }
        )

    return res.values().map_batches(_per_vertex, batch_format="pyarrow")


_HC_RADIUS = 6
_HC_SOURCE_MOD = 4  # sources = vids % 4 == 0 (uniform over hashed ids)


def _q_graph_harmonic(sf_dir: str):
    """Truncated harmonic centrality H(v) = sum over sampled sources u of
    1/d(u->v), d <= 6 — the standard web-graph centrality (what HyperBall
    estimates), exact here via multi-source BFS wavefronts. Value is a
    float SUM of ≤radius reciprocal terms: rounded half-away to 6 on both
    sides (module float-aggregate note)."""
    from graphlite_ray.pipelines.linkgraph import run_algorithm

    pages, work = _graph_work(sf_dir)
    res = run_algorithm(
        "harmonic_centrality", pages, work, P=8, resume=True,
        radius=_HC_RADIUS, source_mod=_HC_SOURCE_MOD,
    )
    df = res.values().to_pandas()[["vertex_id", "value"]].rename(
        columns={"value": "harmonic"}
    )
    df["harmonic"] = _round_half_away(df["harmonic"], 6)
    return df.sort_values("vertex_id", ignore_index=True)


def _q_graph_bowtie(sf_dir: str):
    """Broder bowtie decomposition relative to the max-out-degree pivot
    (min id on ties): two SSSP reachability wavefronts (forward; backward
    over the streamed reversed edges) + one bucketed class shuffle —
    DuckDB-oracled via two recursive reachability walks and the same
    pivot rule."""
    import ray.data

    from graphlite_ray.pipelines.bowtie import bowtie_classes
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    edges = ray.data.read_parquet(edges_dir, columns=["src", "dst"])
    return (
        bowtie_classes(edges, os.path.join(work, "bowtie"), P=8, resume=True)
        .to_pandas()
        .sort_values("vertex_id", ignore_index=True)
    )


def _q_link_prediction(sf_dir: str):
    """Common-neighbor link-prediction scores (CN / Adamic-Adar / Jaccard)
    for distance-2 non-edge pairs of the simple page graph with >= 2
    common neighbors — wedge emit bucketed by center, pair-sum bucketed by
    the unordered pair. CN and Jaccard (one int division) are bit-exact;
    Adamic-Adar is a float SUM of 1/ln(deg) terms, rounded to 6 on both
    sides (same convention as the PageRank value columns)."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import prepare_edges
    from graphlite_ray.pipelines.linkpred import link_prediction_scores

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    df = link_prediction_scores(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]), min_common=2
    ).to_pandas()
    df["adamic_adar"] = _round_half_away(df["adamic_adar"], 6)
    df["jaccard"] = _round_half_away(df["jaccard"], 6)
    return df.sort_values(["u", "v"], ignore_index=True)


def _q_degree_histogram(sf_dir: str):
    """Out-degree distribution of the page multigraph (dst-only vertices
    at degree 0)."""
    import ray.data

    from graphlite_ray.pipelines.graphstats import degree_histogram
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return degree_histogram(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"])
    )


def _q_mis(sf_dir: str):
    """Maximal independent set of the simple page graph (Luby-style
    parallel greedy, static hash priorities) — DuckDB oracle replays the
    rounds themselves (`_mis_oracle_sql`); a pytest additionally proves
    equality with the sequential greedy order."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import mis_labels, prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    out = mis_labels(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work, P=8, resume=True,
    )
    # the oracle's round replay caps at 80 rounds: only comparable when the
    # engine run converged by fixpoint (r4 ADVICE cap-divergence guard)
    from graphlite_ray.pipelines.linkgraph import assert_halted_by_fixpoint

    assert_halted_by_fixpoint("mis")
    return out


def _q_coloring(sf_dir: str):
    """Proper greedy coloring of the simple page graph (largest-first
    parallel rounds, color = round index; `programs.GreedyColoring`) —
    DuckDB oracle replays the rounds (`_coloring_oracle_sql`); a pytest
    additionally proves properness and the round-replay equivalence."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import coloring_labels, prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return coloring_labels(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work, P=8, resume=True,
    )


def _q_matching(sf_dir: str):
    """Maximal matching of the simple page graph (deterministic pointer
    handshake, static hash priorities; `programs.MaximalMatching`) —
    DuckDB oracle replays the rounds (`_matching_oracle_sql`); a pytest
    additionally proves validity, maximality and round-replay equality."""
    import ray.data

    from graphlite_ray.pipelines.linkgraph import matching_labels, prepare_edges

    pages, work = _graph_work(sf_dir)
    edges_dir = prepare_edges(pages, work, P=8)
    return matching_labels(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
        work, P=8, resume=True,
    )


def _q_diameter(sf_dir: str):
    """Double-sweep diameter lower bound of the symmetrized page graph —
    DuckDB oracle replays the pivot rule (max directed out-degree, min-id
    tie) and BOTH BFS sweeps as recursive walk CTEs over the symmetrized
    staged edges."""
    from graphlite_ray.pipelines.graphstats import double_sweep_diameter

    pages, work = _graph_work(sf_dir)
    return double_sweep_diameter(pages, work, P=8, resume=True)


def _edges_glob(sf_dir: str) -> str:
    _, work = _graph_work(sf_dir)
    return os.path.join(work, "edges", "*.parquet")


# -- documents / embeddings ------------------------------------------------


def _q_doc_exact_dedup(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.dedup import exact_dedup

    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return exact_dedup(docs).select_columns(["doc_id"])


def _q_corpus_clean(sf_dir: str):
    """The composite corpus-cleanup chain (langid -> quality -> exact
    dedup -> token count) over the documents table AUGMENTED with planted
    exact duplicates (a re-keyed copy of every 5th doc, id + 1e6) so the
    dedup stage does real removal work — the oracle replays the same
    augmentation, filters, group-min dedup and token count in SQL, so a
    broken stage (filter letting copies through, dedup keeping them, or
    the wrong survivor id) hash-mismatches."""
    from graphlite_ray.pipelines.corpus import corpus_clean
    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _with_planted_dups(batch: pd.DataFrame) -> pd.DataFrame:
        dup = batch[batch["doc_id"] % 5 == 0].copy()
        dup["doc_id"] = dup["doc_id"] + 1_000_000
        return pd.concat([batch, dup], ignore_index=True)

    aug = docs.map_batches(_with_planted_dups, batch_format="pandas")
    return corpus_clean(aug)


def _q_doc_sequence_pack(sf_dir: str):
    """Streaming sequence packing into 512-token windows (distributed
    two-pass prefix scan in doc_id order) — oracled by a SQL window
    running-sum replay; integer arithmetic, bit-exact."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.curation import sequence_pack

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return sequence_pack(docs, capacity=512)


def _q_doc_chunks(sf_dir: str):
    """Fixed-token chunking with overlap (window=32, stride=16; map-only,
    no shuffle) — DuckDB-oracled exactly: generate_series starts over the
    shared-contract token list, list_slice + array_to_string rebuild each
    chunk's text."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.curation import chunk_documents

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return chunk_documents(docs, window=32, stride=16)


def _q_doc_stratified_sample(sf_dir: str):
    """Deterministic 10-per-language sample (Knuth id hash, the shared
    sampling-hash contract) over LangId predictions — oracled by the
    langid CTE + a row_number window."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.curation import stratified_sample
    from graphlite_ray.stages.textstats import LangId

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    lang = docs.map_batches(LangId, batch_format="pandas", concurrency=(1, 4))
    return stratified_sample(
        lang.select_columns(["doc_id", "lang_pred"]), "lang_pred", k=10
    )


def _q_doc_tokens(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.textstats import TokenCounter

    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(TokenCounter, batch_format="pandas", concurrency=(1, 4))


_BPE_TRAIN_ROUNDS = 10


def _q_doc_bpe_train(sf_dir: str):
    """BPE merge-table TRAINING over the corpus (the trainer for the vocab
    file `doc_bpe_tokens` consumes): one corpus pass builds the
    distinct-word frequency table, then each round runs on the vocab
    dataset only — pair counts -> bucketed sum -> per-bucket top-1 ->
    deterministic argmax (count DESC, pair ASC) -> streaming re-segment.
    DuckDB-oracled by a self-contained replay of the WHOLE loop
    (`stages/bpe.bpe_train_sql`: each round's best pair is a scalar
    subquery applied to the next round's vocab)."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.bpe import bpe_train_merges

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    merges = bpe_train_merges(docs, n_merges=_BPE_TRAIN_ROUNDS)
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(merges) + 1, dtype=np.int64),
            "x": [x for x, _ in merges],
            "y": [y for _, y in merges],
        }
    )


def _jsonl_dir(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return f"/tmp/glr_cache/docs_jsonl_{base}"


def _q_doc_jsonl_ingest(sf_dir: str):
    """JSONL source/sink seam: the corpus is staged once as a JSONL shard
    directory (Ray `write_json`, one object per line — the LLM-corpus
    interchange format), re-ingested with the streaming JSONL reader, and
    token-counted. The DuckDB oracle reads THE SAME staged JSONL with
    `read_json_auto`, so the round-trip (JSON escaping included) is part
    of what's checked — independent of the parquet the corpus came
    from."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.sources.jsonl import read_jsonl, stage_jsonl
    from graphlite_ray.stages.textstats import TokenCounter

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out_dir = stage_jsonl(docs, _jsonl_dir(sf_dir))
    ingested = read_jsonl(out_dir, columns=["doc_id", "text"])
    return (
        ingested.map_batches(TokenCounter, batch_format="pandas", concurrency=(1, 4))
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )


def _csv_dir(sf_dir: str) -> str:
    base = os.path.basename(os.path.normpath(sf_dir))
    return f"/tmp/glr_cache/docs_csv_{base}"


def _q_doc_csv_ingest(sf_dir: str):
    """CSV source/sink seam: the corpus is staged once as a CSV shard
    directory (Ray `write_csv`, RFC-4180 quoting), re-ingested with the
    streaming CSV reader, and token-counted. The DuckDB oracle reads THE
    SAME staged CSV with `read_csv`, so the quoting round-trip (commas,
    quotes, embedded delimiters in web text) is part of what's
    checked."""
    from graphlite_ray.sources.csvio import read_csv, stage_csv
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import TokenCounter

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out_dir = stage_csv(docs, _csv_dir(sf_dir))
    ingested = read_csv(out_dir, columns=["doc_id", "text"])
    return (
        ingested.map_batches(TokenCounter, batch_format="pandas", concurrency=(1, 4))
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )


def _q_doc_bpe_tokens(sf_dir: str):
    """Subword token budget per document: vocab-driven BPE merges applied
    rank-ordered per word (stages/bpe.py — merge table loaded once per
    actor, word counts memoized). The oracle replays the merge loop as
    nested replace() calls from the SAME merge list (bpe_doc_counts_sql),
    bit-exact integer counts."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.bpe import bpe_token_counts

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bpe_token_counts(docs, concurrency=(1, 4))


_EMBED_DIM, _EMBED_BUCKETS = 32, 4096


def _embed_weights_path() -> str:
    """Stage the deterministic 'model checkpoint' once (idempotent); both
    the TextEmbedder actors and the DuckDB oracle read this SAME file."""
    from graphlite_ray.stages.inference import stage_weights

    os.makedirs("/tmp/glr_cache", exist_ok=True)
    return stage_weights(
        f"/tmp/glr_cache/embed_w_d{_EMBED_DIM}_b{_EMBED_BUCKETS}_s7.parquet",
        dim=_EMBED_DIM,
        n_buckets=_EMBED_BUCKETS,
        seed=7,
    )


def _q_doc_embed_text(sf_dir: str):
    """Model-inference exemplar: hashing-trick linear embedder with weights
    loaded once per actor (stages/inference.py TextEmbedder). Output long
    format (doc_id, dim, value) with the shared 6-digit rounding; the
    oracle joins the staged weights parquet against the FNV hash replay."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.inference import embed_corpus

    wpath = _embed_weights_path()
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    emb = embed_corpus(docs, wpath, concurrency=(1, 4))

    def _long(t: pa.Table) -> pa.Table:
        from graphlite_ray.functions.rounding import round_half_away
        from graphlite_ray.stages.similarity import list_col_to_matrix

        ids = t["vec_id"].to_numpy(zero_copy_only=False)
        E = list_col_to_matrix(t["embedding"]).astype(np.float64)
        n, d = E.shape
        return pa.table(
            {
                "doc_id": np.repeat(ids, d),
                "dim": np.tile(np.arange(d, dtype=np.int64), n),
                "value": round_half_away(E.reshape(-1), 6),
            }
        )

    return emb.map_batches(_long, batch_format="pyarrow")


def _q_emb_text_near_dup(sf_dir: str):
    """The emb_* suite fed end-to-end from TEXT via the inference stage
    (r4 verdict item 5): embed the corpus, then the broadcast-exact cosine
    near-dup over the pipeline-produced embeddings."""
    from graphlite_ray.functions.rounding import round_half_away
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.dedup import embedding_near_dup_exact
    from graphlite_ray.stages.inference import embed_corpus

    wpath = _embed_weights_path()
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    emb = embed_corpus(docs, wpath, concurrency=(1, 4))
    res = embedding_near_dup_exact(emb, tau=0.9)
    out = res.pairs.copy()
    out["score"] = round_half_away(out["score"], 6)
    return out.astype({"a": "int64", "b": "int64"})


def _q_doc_span_clean(sf_dir: str):
    """Span dedup returning the CLEANED corpus (duplicate chunks removed,
    survivors reassembled in position order — stages/dedup.span_dedup_clean);
    oracle replays keep-first election + string_agg reassembly."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.dedup import span_dedup_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return span_dedup_clean(docs, chunk_tokens=8)


_MIX_RATES = {"src0": 100, "src1": 70, "src2": 30, "src3": 5}  # others: 10


def _q_doc_weighted_mix(sf_dir: str):
    """Domain-weighted corpus mixing (stages/curation.weighted_mix): fixed
    per-source keep percentages over the shared Knuth sampling hash —
    leakage-free, shuffle-free, exactly SQL-replayable."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.curation import weighted_mix

    docs = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )
    return weighted_mix(docs, _MIX_RATES, label_col="source", default_pct=10)


def _q_doc_quality_sqlable(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.textstats import QualityScorer

    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(QualityScorer, batch_format="pandas", concurrency=(1, 4))
    return out.select_columns(["doc_id", "n_chars", "alpha_ratio", "digit_ratio"])


def _q_doc_langid(sf_dir: str):
    """Heuristic language ID — DuckDB-oracled: the oracle re-implements the
    CJK-ratio + stopword-coverage decision rule in pure SQL. The query
    projects (doc_id, lang_pred); the confidence column stays available on
    the LangId stage itself."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import LangId

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = docs.map_batches(LangId, batch_format="pandas", concurrency=(1, 4))
    return out.select_columns(["doc_id", "lang_pred"])


def _q_doc_fingerprint(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.textstats import Fingerprinter

    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(Fingerprinter, batch_format="pandas", concurrency=(1, 4))


def _q_doc_minhash(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.dedup import minhash_dedup

    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    res = minhash_dedup(docs, threshold=0.7)
    cl = res.clusters.sort_values("doc_id", ignore_index=True)
    if not len(cl):
        cl = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                           "cluster_rep": pd.Series([], dtype="int64")})
    return cl


def _q_doc_minhash_stream(sf_dir: str):
    """The fully STREAMING minhash path (candidate pairs / texts /
    clusters never reach the driver — r5, `minhash_dedup_streaming`)
    against the SAME exhaustive-Jaccard + reachability oracle as the
    collected path: identical clusters from a disk-bucketed pipeline."""
    import shutil
    import tempfile

    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.dedup import minhash_dedup_streaming

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    work = tempfile.mkdtemp(prefix="glr_mhs_", dir="/tmp")
    try:
        _, clusters = minhash_dedup_streaming(docs, work, threshold=0.7)
        cl = clusters.to_pandas()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not len(cl):
        cl = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                           "cluster_rep": pd.Series([], dtype="int64")})
    return cl.sort_values("doc_id", ignore_index=True).astype("int64")


def _q_doc_ngram_jaccard(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.dedup import ngram_jaccard_dedup

    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    res = ngram_jaccard_dedup(docs, threshold=0.5)
    out = res.pairs[["a", "b"]].sort_values(["a", "b"], ignore_index=True)
    if not len(out):
        out = pd.DataFrame({"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")})
    return out


def _q_doc_simhash(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.dedup import simhash_dedup

    from graphlite_ray.sources.io import read_parquet_clean

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    res = simhash_dedup(docs, max_hamming=3)
    out = res.pairs[["a", "b"]].sort_values(["a", "b"], ignore_index=True)
    if not len(out):
        out = pd.DataFrame({"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")})
    return out


def _knn_queries(sf_dir: str) -> np.ndarray:
    """The 3 query vectors (vec_id 0, 1, 2), read deterministically."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 3)],
    )
    order = np.argsort(t["vec_id"].to_numpy(zero_copy_only=False))
    embs = t["embedding"].to_pylist()
    return np.stack([embs[i] for i in order]).astype(np.float64)


def _q_emb_knn(sf_dir: str):
    import ray.data

    from graphlite_ray.stages.similarity import knn_bruteforce

    from graphlite_ray.stages.similarity import read_embeddings

    emb = read_embeddings(f"{sf_dir}/embeddings.parquet")
    out = knn_bruteforce(emb, _knn_queries(sf_dir), k=10)
    return out[["query_id", "vec_id", "rank"]]


def _q_emb_knn_quantized(sf_dir: str):
    """Cosine top-k under symmetric int8 quantization (the 4x-smaller
    embedding-store scale path) — DuckDB-oracled EXACTLY: the oracle
    replays the quantization arithmetic (per-vector max|v|/127 scale,
    half-away round) and ranks by the same integer-dot similarity, whose
    floats are bit-deterministic (exact ints + correctly-rounded
    sqrt)."""
    from graphlite_ray.stages.similarity import knn_quantized, read_embeddings

    emb = read_embeddings(f"{sf_dir}/embeddings.parquet")
    out = knn_quantized(emb, _knn_queries(sf_dir), k=10)
    return out[["query_id", "vec_id", "rank"]]


# shared by the emb_knn_ivf query AND its oracle (one constant per knob —
# the r4 ADVICE shared-cap rule): k results, nprobe probed cells.
_IVF_K = 10
_IVF_NPROBE = 4


def _ensure_ivf_index(sf_dir: str) -> str:
    """Build (once, idempotent) and return this sf's on-disk IVF index dir.
    Shared by the query and the oracle staging so whichever runs first
    builds the SAME versioned index; also stages the engine's float64
    centroid matrix as a long-format parquet (`centroids_long.parquet`)
    so the SQL probe replay scores the exact floats the engine probes."""
    import tempfile

    import pyarrow.parquet as pq

    from graphlite_ray.stages.similarity import build_ivf_index, read_embeddings

    # v2: kmeans++ + replicas=2 index layout; versioned dir so a stale
    # pre-r4 index can't be silently reused
    index_dir = os.path.join(
        tempfile.gettempdir(), f"glr_ivf_v2_{os.path.basename(os.path.normpath(sf_dir))}"
    )
    if not os.path.exists(os.path.join(index_dir, "centroids.npy")):
        emb = read_embeddings(f"{sf_dir}/embeddings.parquet")
        build_ivf_index(emb, index_dir, n_clusters=16)
    cen_path = os.path.join(index_dir, "centroids_long.parquet")
    if not os.path.exists(cen_path):
        C = np.load(os.path.join(index_dir, "centroids.npy"))
        k, d = C.shape
        t = pa.table(
            {
                "cluster": np.repeat(np.arange(k, dtype=np.int64), d),
                "dim": np.tile(np.arange(d, dtype=np.int64), k),
                "w": C.reshape(-1),
            }
        )
        pq.write_table(t, cen_path + ".tmp")
        os.replace(cen_path + ".tmp", cen_path)
    return index_dir


def _q_emb_knn_ivf(sf_dir: str):
    """IVF-indexed ANN: disk index (one parquet per cluster), probes read
    only their clusters' files (sublinear in corpus size). Hash-exact
    DuckDB-oracled (r5): the STAGED INDEX is the oracle boundary — the SQL
    replays probe selection (top-nprobe centroid dots, ties to the lower
    cluster id), the union-of-probed-files membership (replica dedup), and
    the exact cosine ranking within it (`_ivf_oracle_sql`). Recall vs
    brute force additionally asserted in pytest."""
    from graphlite_ray.stages.similarity import knn_ivf_indexed

    index_dir = _ensure_ivf_index(sf_dir)
    out = knn_ivf_indexed(index_dir, _knn_queries(sf_dir), k=_IVF_K, nprobe=_IVF_NPROBE)
    return out[["query_id", "vec_id", "rank"]].astype(
        {"query_id": "int64", "vec_id": "int64", "rank": "int64"}
    )


def _kmeans_centroids_path(sf_dir: str) -> str:
    """Stage the deterministic k-means centroids for this sf once
    (idempotent, pure numpy — no Ray needed so the oracle side can stage
    lazily); both the assignment actors and the DuckDB oracle read this
    SAME rounded file."""
    from graphlite_ray.stages.similarity import fit_centroids_file

    os.makedirs("/tmp/glr_cache", exist_ok=True)
    base = os.path.basename(os.path.normpath(sf_dir))
    return fit_centroids_file(
        f"{sf_dir}/embeddings.parquet",
        f"/tmp/glr_cache/kmeans_c8_s42_{base}.parquet",
        n_clusters=8,
        seed=42,
    )


def _q_emb_kmeans(sf_dir: str):
    """Document clustering: corpus-wide hard k-means assignment (the
    distributed stage) against driver-fitted staged centroids — exact
    sibling of the IVF index's assignment step (`emb_knn_ivf` stays
    approximate-by-design; this query makes the clustering itself
    hash-exact). Oracle: argmax of SUM(v*w) over the staged centroid
    table, ties to the lowest cluster id."""
    from graphlite_ray.stages.similarity import kmeans_assign, read_embeddings

    cpath = _kmeans_centroids_path(sf_dir)
    emb = read_embeddings(f"{sf_dir}/embeddings.parquet")
    return (
        kmeans_assign(emb, cpath)
        .to_pandas()
        .sort_values("vec_id", ignore_index=True)
    )


def _q_emb_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023): k-means clusters + within-cluster
    cosine dedup, min-id keeper (`dedup.semantic_dedup`) — the oracle
    replays the staged-centroid assignment (the `emb_kmeans` CTE) and the
    pointwise drop rule as one NOT EXISTS self-join per cluster."""
    from graphlite_ray.stages.dedup import semantic_dedup
    from graphlite_ray.stages.similarity import read_embeddings

    cpath = _kmeans_centroids_path(sf_dir)
    emb = read_embeddings(f"{sf_dir}/embeddings.parquet")
    return (
        semantic_dedup(emb, cpath, tau=0.35)
        .to_pandas()
        .sort_values("vec_id", ignore_index=True)
    )


def _q_emb_near_dup(sf_dir: str):
    """EXACT cosine near-dup pairs (block matmul against the broadcast
    corpus matrix) — DuckDB-oracled via list_cosine_similarity."""
    import ray.data

    from graphlite_ray.stages.dedup import embedding_near_dup_exact
    from graphlite_ray.stages.similarity import read_embeddings

    emb = read_embeddings(f"{sf_dir}/embeddings.parquet")
    res = embedding_near_dup_exact(emb, tau=0.4)
    out = res.pairs[["a", "b"]].sort_values(["a", "b"], ignore_index=True)
    if not len(out):
        out = pd.DataFrame({"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")})
    return out


def _planted_near_dup_corpus(sf_dir: str, n_plant: int = 60, cos: float = 0.85):
    """The embeddings table plus DETERMINISTIC planted near-duplicates:
    for each of the first `n_plant` vectors v, a copy rotated to cosine
    exactly `cos` (unit-orthogonal jitter, seeded), id +10_000_000. Shared
    by the emb_near_dup_lsh query and its pytest subset-oracle so both see
    the identical corpus."""
    import ray.data

    from graphlite_ray.stages.similarity import read_embeddings

    emb = read_embeddings(f"{sf_dir}/embeddings.parquet").select_columns(
        ["vec_id", "embedding"]
    )
    rows = emb.take(n_plant)
    ids = np.array([r["vec_id"] for r in rows], np.int64)
    V = np.stack([np.asarray(r["embedding"], np.float64) for r in rows])
    d = V.shape[1]
    rng = np.random.RandomState(7)
    planted = np.empty_like(V)
    for i in range(len(V)):
        v = V[i] / max(np.linalg.norm(V[i]), 1e-12)
        r = rng.standard_normal(d)
        r -= (r @ v) * v
        r /= max(np.linalg.norm(r), 1e-12)
        planted[i] = (cos * v + np.sqrt(1.0 - cos * cos) * r) * np.linalg.norm(V[i])
    t = pa.table(
        {
            "vec_id": pa.array((ids + 10_000_000).astype(np.int64)),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(planted.reshape(-1).astype(np.float32), pa.float32()), d
            ),
        }
    )
    return emb.union(ray.data.from_arrow(t))


_LSH_NBITS, _LSH_TABLES, _LSH_TAU = 8, 16, 0.7


def _stage_lsh_inputs(sf_dir: str) -> tuple[str, str]:
    """Stage the planted LSH corpus (long format: vec_id, dim, val — exact
    float64 view of the float32 embeddings) and the seeded hyperplane
    matrix (dim, bit, w) so the DuckDB oracle replays the bucketer from
    the SAME inputs. Idempotent per sf."""
    import pyarrow.parquet as pq

    from graphlite_ray.stages.dedup import HyperplaneBucketer
    from graphlite_ray.stages.similarity import list_col_to_matrix

    sf_name = os.path.basename(os.path.normpath(sf_dir))
    os.makedirs("/tmp/glr_cache", exist_ok=True)
    cpath = f"/tmp/glr_cache/lsh_{sf_name}_corpus.parquet"
    ppath = f"/tmp/glr_cache/lsh_{sf_name}_planes.parquet"
    if os.path.exists(cpath) and os.path.exists(ppath):
        return cpath, ppath
    rows = _planted_near_dup_corpus(sf_dir).take_all()
    ids = np.array([r["vec_id"] for r in rows], np.int64)
    V = np.stack([np.asarray(r["embedding"], np.float64) for r in rows])
    n, d = V.shape
    t = pa.table(
        {
            "vec_id": np.repeat(ids, d),
            "dim": np.tile(np.arange(d, dtype=np.int64), n),
            "val": V.reshape(-1),
        }
    )
    tmp = f"{cpath}.tmp.{os.getpid()}"
    pq.write_table(t, tmp)
    os.replace(tmp, cpath)
    planes = HyperplaneBucketer(
        dim=d, nbits=_LSH_NBITS, n_tables=_LSH_TABLES, seed=42
    ).planes
    di, bi = np.divmod(
        np.arange(planes.size, dtype=np.int64), np.int64(planes.shape[1])
    )
    pt = pa.table({"dim": di, "bit": bi, "w": planes.reshape(-1)})
    tmp = f"{ppath}.tmp.{os.getpid()}"
    pq.write_table(pt, tmp)
    os.replace(tmp, ppath)
    return cpath, ppath


def _q_emb_near_dup_lsh(sf_dir: str):
    """OR-amplified hyperplane-LSH near-dup (the scale path) at its
    tau=0.7 design point (nbits=8, 16 independent tables), over the corpus
    plus deterministic planted near-duplicates at cosine 0.85 — so the
    query emits a NON-EMPTY verified pair set (the r3 version ran tau=0.98
    on a near-uniform corpus and proved nothing with 0 rows). r5: fully
    DuckDB-oracled — the staged corpus + staged hyperplanes let the oracle
    replay sign-bucketing, OR-amplification and the exact cosine verify
    (`_lsh_oracle_sql`); pytest additionally asserts subset-of-exact, and
    bench.py quantifies recall per run."""
    from graphlite_ray.stages.dedup import embedding_near_dup

    _stage_lsh_inputs(sf_dir)  # oracle inputs (cheap, cached per sf)
    ds = _planted_near_dup_corpus(sf_dir)
    res = embedding_near_dup(
        ds, tau=_LSH_TAU, nbits=_LSH_NBITS, n_tables=_LSH_TABLES
    )
    out = res.pairs[["a", "b"]].sort_values(["a", "b"], ignore_index=True)
    if not len(out):
        out = pd.DataFrame({"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")})
    return out


def _q_emb_label_counts(sf_dir: str):
    import ray.data

    from graphlite_ray.sources.io import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["label"])

    def _partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t["label"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table({"label": u.astype(np.int32), "c": c})

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"label": [g["label"].iloc[0]], "n": [int(g["c"].sum())]})

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("label")
        .map_groups(_final, batch_format="pandas")
    )


# -- multimodal media (synthetic deterministic table; BMP/WAV/GLRV real codecs)

_MEDIA_FOR_SF = {"sf0.001": 60, "sf0.01": 300, "sf0.1": 1200}


def _media_path(sf_dir: str) -> str:
    """Stage the deterministic media table (real BMP/PNG/JPEG/WAV/GLRV
    payloads) as parquet once per scale; queries stream it like any other
    input."""
    import pyarrow.parquet as pq

    from graphlite_ray.stages.multimodal import synthetic_media_table

    n = _MEDIA_FOR_SF.get(os.path.basename(os.path.normpath(sf_dir)), 60)
    # v4: image payloads rotate BMP/PNG/baseline-JPEG (jpeg sidecar psum =
    # the bitstream's exact reconstruction — lossy vs the source pixels)
    path = f"/tmp/glr_media/media_n{n}_s42_v4.parquet"
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t = pa.Table.from_pandas(
            synthetic_media_table(n), preserve_index=False
        ).replace_schema_metadata(None)
        pq.write_table(t, path + f".tmp.{os.getpid()}")
        os.replace(path + f".tmp.{os.getpid()}", path)
    return path


def _media_ds(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(_media_path(sf_dir))


def _q_media_image_dims(sf_dir: str):
    """REAL BMP decode: (media_id, height, width) parsed from the payload
    bytes — oracled against the encoder's meta JSON sidecar."""
    from graphlite_ray.stages.multimodal import decode_images

    media = _media_ds(sf_dir).filter(expr="media_type == 'image'")
    out = decode_images(media).to_pandas()
    return out[["media_id", "height", "width"]].sort_values(
        "media_id", ignore_index=True
    )


def _q_media_image_stats(sf_dir: str):
    """Full image decode stats incl. pixel sums — DuckDB-oracled against
    the encoder's ground-truth meta sidecar: the pipeline must actually
    decode the BMP payload to reproduce the recorded pixel sum."""
    from graphlite_ray.stages.multimodal import decode_images

    media = _media_ds(sf_dir).filter(expr="media_type == 'image'")
    return decode_images(media).to_pandas().sort_values("media_id", ignore_index=True)


def _round_half_away(s, nd: int) -> "pd.Series":
    """Round half-AWAY-from-zero (signed) — DuckDB ROUND's tie rule; the
    ONE rounding convention for every oracled float column (ADVICE r3).
    Single source: `graphlite_ray.functions.rounding.round_half_away`."""
    from graphlite_ray.functions.rounding import round_half_away

    return round_half_away(s, nd)


def _q_media_audio_energy(sf_dir: str):
    """REAL PCM-WAV decode -> per-frame energies — DuckDB-oracled against
    the encoder's recorded per-frame energies (lossless PCM: decode-side
    energies are bit-identical to encode-side)."""
    from graphlite_ray.stages.multimodal import sample_audio_frames

    media = _media_ds(sf_dir).filter(expr="media_type == 'audio'")
    out = sample_audio_frames(media, every_n=4).to_pandas()
    out["energy"] = _round_half_away(out["energy"], 4)
    return out.sort_values(["media_id", "frame_idx"], ignore_index=True)


def _q_media_video_frames(sf_dir: str):
    """REAL GLRV raw-container decode -> sampled frame summaries —
    DuckDB-oracled against the encoder's recorded per-frame means."""
    from graphlite_ray.stages.multimodal import sample_video_frames

    media = _media_ds(sf_dir).filter(expr="media_type == 'video'")
    out = sample_video_frames(media, every_n=2).to_pandas()
    out["mean_intensity"] = _round_half_away(out["mean_intensity"], 4)
    return out.sort_values(["media_id", "frame_idx"], ignore_index=True)


def _q_doc_token_df(sf_dir: str):
    """Per-token document frequency (TF-IDF building block) — DuckDB
    unnest/regexp_split oracle."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import token_doc_frequency

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = token_doc_frequency(docs).to_pandas()
    return out.sort_values("token", ignore_index=True)


_CMS_W, _CMS_D = 16, 3  # query-scale knobs: small width FORCES collisions
# so the one-sided overestimate is actually exercised


def _q_doc_cms_counts(sf_dir: str):
    """Count-min-sketch token-count estimates over the full vocabulary
    (width 16 x depth 3 — collisions guaranteed at this width, so the
    sketch is doing real work) — deterministic FNV-salt hash family, so
    the APPROXIMATE estimates are exactly oracled in SQL. Candidate
    enumeration = the vocabulary here; per-batch local heavy hitters are
    the at-scale candidate source (`functions/sketches.py::cms_estimates`
    docstring)."""
    from graphlite_ray.functions.sketches import cms_estimates, cms_token_table
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import token_doc_frequency

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    cms = cms_token_table(docs, width=_CMS_W, depth=_CMS_D).to_pandas()
    vocab = sorted(token_doc_frequency(docs).to_pandas()["token"])
    return cms_estimates(cms, vocab, _CMS_W, _CMS_D)


def _q_doc_inverted_index(sf_dir: str):
    """Inverted index (token -> df, cf, doc_id:tf postings sorted by
    doc_id) — DuckDB string_agg oracle, bit-exact on the postings
    strings."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import inverted_index

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = inverted_index(docs).to_pandas()
    return out.sort_values("token", ignore_index=True)


def _q_doc_editdist(sf_dir: str):
    """Edit-distance similarity join: all doc pairs whose 24-byte text
    prefix is within Levenshtein distance 2 (SymSpell deletion-
    neighborhood blocking + pair-vectorized DP verify,
    `stages/editdist.py`) — DuckDB levenshtein() self-join oracle."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.editdist import editdist_pairs

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return editdist_pairs(docs, prefix_len=24, k=2)


def _q_doc_upsert(sf_dir: str):
    """CDC upsert into a bucketed corpus store (`curation.upsert_corpus`):
    base = documents at version 1; delta = re-crawled docs (id % 7 == 0,
    version 2, n_chars + 1000) plus brand-new ids (id % 11 == 0, shifted
    +1e6). Latest version per key wins, delta wins ties; only delta-hit
    bucket files rewrite. Returns the post-merge store contents."""
    import tempfile

    import ray.data

    from graphlite_ray.pipelines.joins import write_bucketed
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.curation import upsert_corpus

    B = 8
    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    base = docs.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "version": np.ones(t.num_rows, np.int64),
                "n_chars": t["n_chars"],
            }
        ),
        batch_format="pyarrow",
    )
    store = tempfile.mkdtemp(prefix="glr_upsert_", dir="/tmp")
    write_bucketed(base, "doc_id", B, store)

    def _delta(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        n = t["n_chars"].to_numpy(zero_copy_only=False)
        re7 = d % 7 == 0
        new11 = d % 11 == 0
        return pa.table(
            {
                "doc_id": np.concatenate([d[re7], d[new11] + 1_000_000]),
                "version": np.concatenate(
                    [np.full(re7.sum(), 2, np.int64), np.ones(new11.sum(), np.int64)]
                ),
                "n_chars": np.concatenate([n[re7] + 1000, n[new11]]),
            }
        )

    upsert_corpus(store, docs.map_batches(_delta, batch_format="pyarrow"),
                  key_col="doc_id", ver_col="version", B=B)
    out = ray.data.read_parquet(store).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)[
        ["doc_id", "version", "n_chars"]
    ]


def _q_doc_tfidf(sf_dir: str):
    """Top-5 TF-IDF terms per document (libm-exact idf, rounded-score
    ranking) — DuckDB window-rank oracle."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import tfidf_top_terms

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (
        tfidf_top_terms(docs, k=5)
        .to_pandas()
        .sort_values(
            ["doc_id", "score", "token"],
            ascending=[True, False, True],
            ignore_index=True,
        )
    )


_BM25_QUERY = "hash join merge"  # all three terms exist in the corpus vocab
_BM25_K = 10
_BM25_K1 = 1.2
_BM25_B = 0.75


def _q_doc_bm25(sf_dir: str):
    """BM25 ranked retrieval: top-10 docs for a fixed query string
    (Robertson idf, rounded-score ranking, doc_id tie-break) — DuckDB
    oracle replays the per-term contributions as an ORDERED chain of
    scalar additions (sorted-term order = the pipeline's loop order), so
    the float sum is bit-exact, not SUM()-order-dependent."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import bm25_topk

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bm25_topk(docs, _BM25_QUERY, k=_BM25_K, k1=_BM25_K1, b=_BM25_B)


_PMI_MAX_TOKENS = 24  # per-doc kept-token cap — BELOW this corpus' max
# distinct-token count (31), so the truncation path is actually exercised
_PMI_MIN_COUNT = 2


def _q_doc_pmi(sf_dir: str):
    """PMI word-association pairs over the corpus (collocation mining):
    co-occurring token pairs with co_df >= 2 and ln-PMI, per-doc kept-token
    cap 24 (deterministic sorted-prefix truncation, replayed by the
    oracle's row_number) — DuckDB self-join oracle, pmi libm-bit-exact."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import token_pmi

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (
        token_pmi(docs, min_count=_PMI_MIN_COUNT, max_tokens_per_doc=_PMI_MAX_TOKENS)
        .to_pandas()
        .sort_values(["tok_a", "tok_b"], ignore_index=True)
    )


def _q_doc_lm_score(sf_dir: str):
    """Bigram LM quality score per document (CCNet-style perplexity
    filter, LM trained on the corpus itself; add-0.1 smoothing over the
    corpus vocabulary) — DuckDB oracle replays the exact count/smoothing
    arithmetic; avg_logp is a float SUM, rounded half-away to 6 on both
    sides (module-level float-aggregate note)."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import lm_score

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return lm_score(docs, alpha=0.1).to_pandas().sort_values("doc_id", ignore_index=True)


def _aug_url_variants(t: "pa.Table") -> "pa.Table":
    """Deterministic messy variants of each page url (the synthetic urls
    are clean, so the canonicalizer needs planted mess): tracking params,
    fragment + SHOUTING host, trailing-slash query, explicit :80. v0/v1/
    v2/v4 canonicalize back to the url; v3 keeps its real 'a=1' param."""
    import re as _re

    from graphlite_ray.stages.urlnorm import PREFIX_RE

    out = []
    for u in t["url"].to_pylist():
        m = _re.match(PREFIX_RE, u)
        pref = m.group(0) if m else ""
        out += [
            u,
            u + "?utm_source=feed&utm_campaign=x",
            pref.upper() + u[len(pref):] + "#sec",
            u + "/?a=1&utm_medium=m",
            _re.sub(r"^(http://[^/?#:]*)", r"\1:80", u),
        ]
    return pa.table({"url": pa.array(out, pa.string())})


def _q_url_canonical_dedup(sf_dir: str):
    """URL canonicalization + canonical-form dedup counts over a planted
    messy-variant corpus (5 variants per page url) — DuckDB-oracled by
    replaying both the augmentation and the exact rule chain with RE2 +
    list functions."""
    import ray.data

    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.urlnorm import canonical_url_counts

    pages, _ = _graph_work(sf_dir)
    urls = read_parquet_clean(pages, columns=["url"]).map_batches(
        _aug_url_variants, batch_format="pyarrow"
    )
    return (
        canonical_url_counts(urls)
        .to_pandas()
        .sort_values("canonical_url", ignore_index=True)
    )


def _q_props_rollup(sf_dir: str):
    """JSON-field extraction + group aggregate over the events props
    sidecar — DuckDB json_extract oracle."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import PropsExtractor

    ev = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["props", "value"])
    parsed = ev.map_batches(PropsExtractor, batch_format="pandas", concurrency=(1, 4))

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", as_index=False).agg(
            n=("value", "size"), sum_value=("value", "sum")
        )

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "k": [g["k"].iloc[0]],
                "n": [int(g["n"].sum())],
                "sum_value": [g["sum_value"].sum()],
            }
        )

    out = (
        parsed.map_batches(_partial, batch_format="pandas")
        .groupby("k")
        .map_groups(_final, batch_format="pandas")
        .to_pandas()
    )
    out["sum_value"] = _round_half_away(out["sum_value"], 4)
    return out.sort_values("k", ignore_index=True)


def _q_event_percentiles_hist(sf_dir: str):
    """Histogram-sketch quantiles (the bounded-memory scale path for
    per-group percentiles): two passes, groups x bins distributed state.
    DuckDB-oracled EXACTLY — bin assignment and the cumulative pick are
    pure IEEE arithmetic the SQL replays step for step."""
    from graphlite_ray.functions.sketches import histogram_quantiles
    from graphlite_ray.sources.io import read_parquet_clean

    ev = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    out = histogram_quantiles(ev, "event_type", "value", qs=(0.5, 0.95), bins=256)
    out["p50_est"] = _round_half_away(out["p50_est"], 6)
    out["p95_est"] = _round_half_away(out["p95_est"], 6)
    return out


def _q_distinct_users_approx(sf_dir: str):
    """HyperLogLog approximate distinct users per event type — DuckDB-
    oracled EXACTLY (r5): the splitmix64 hash, register index/rho, the
    exact-integer register sum (2^(63-reg) per register, HUGEINT), the
    bias-corrected estimate and the linear-counting branch are all
    replayed in SQL (`_distinct_users_approx_oracle_sql`). The exact
    counterpart `distinct_users` is oracled independently and pytest
    asserts the sketch's error bound."""
    from graphlite_ray.functions.sketches import approx_distinct_per_group
    from graphlite_ray.sources.io import read_parquet_clean

    ev = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    return approx_distinct_per_group(ev, "event_type", "user_id", p=12)


def _pii_oracle_sql() -> str:
    """regexp_extract_all replay of the PII scan: same explicit-ASCII
    patterns (graphlite_ray/stages/pii.py), same planted-text formula."""
    from graphlite_ray.stages.pii import EMAIL_RE, IPV4_RE, PHONE_RE

    planted_text = (
        "'contact a' || doc_id || '@mail' || (doc_id % 7) || '.com or a' "
        "|| doc_id || '@x.org call 555-123-4567 and +1 555 987 6543 "
        "from 192.168.' || (doc_id % 256) || '.' || ((doc_id * 7) % 256) "
        "|| ' end'"
    )
    return (
        "WITH planted AS (SELECT doc_id + 20000000 AS doc_id, "
        f"{planted_text} AS text FROM documents WHERE doc_id % 41 = 0), "
        "corpus AS (SELECT doc_id, text FROM documents "
        "UNION ALL SELECT doc_id, text FROM planted) "
        f"SELECT doc_id, "
        f"len(regexp_extract_all(text, '{EMAIL_RE}')) AS n_email, "
        f"len(regexp_extract_all(text, '{PHONE_RE}')) AS n_phone, "
        f"len(regexp_extract_all(text, '{IPV4_RE}')) AS n_ipv4 "
        "FROM corpus ORDER BY doc_id"
    )


def _q_doc_repetition(sf_dir: str):
    """Gopher-style repetition/boilerplate signals per document
    (dup-token fraction, top-bigram fraction) — DuckDB-oracled: both are
    single ratios of integer counts over the shared tokenization
    contract, bit-exact with no rounding."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import RepetitionScorer

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(RepetitionScorer, batch_format="pandas", concurrency=(1, 4))


def _q_doc_contamination(sf_dir: str):
    """Benchmark decontamination scores: every training doc's 5-gram
    shingle overlap with the (broadcast) pseudo-benchmark slice
    (doc_id % 97 == 0). DuckDB-oracled by EXACT string intersection of
    the same shingle definition; the pipeline runs on 64-bit shingle
    hashes (the scale path) — collision probability ~1e-10 documented in
    stages/contamination.py."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.contamination import (
        benchmark_shingle_hashes,
        contamination_scores,
    )

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _slice(eq: bool):
        def _f(t: pa.Table) -> pa.Table:
            m = t["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0
            return t.filter(pa.array(m if eq else ~m))

        return _f

    bench = docs.map_batches(_slice(True), batch_format="pyarrow")
    train = docs.map_batches(_slice(False), batch_format="pyarrow")
    out = contamination_scores(train, benchmark_shingle_hashes(bench, k=5), k=5)
    return out.to_pandas().sort_values("doc_id", ignore_index=True)


_BLOOM_M = 1 << 13  # bits; small on purpose at test scale so FALSE
_BLOOM_NH = 4  # POSITIVES occur and the SQL replay is exercised on them


def _q_doc_bloom_contamination(sf_dir: str):
    """Bloom-filter decontamination scores: the fixed-memory variant of
    `doc_contamination` — the benchmark shingle set is compressed to an
    m-bit Bloom bitmap (m/8 bytes broadcast REGARDLESS of set size; the
    100-TB path for blocklist-scale reference sets), and bloom_frac counts
    shingles whose n_hashes double-hashed bits are all set. DuckDB-oracled
    EXACTLY: the FNV shingle hash and the (h1 + j*h2) mod m positions are
    replayed in SQL, so the oracle reproduces the same false positives
    bit-for-bit."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.contamination import (
        bloom_build,
        bloom_contamination_scores,
    )

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def _slice(eq: bool):
        def _f(t: pa.Table) -> pa.Table:
            m = t["doc_id"].to_numpy(zero_copy_only=False) % 97 == 0
            return t.filter(pa.array(m if eq else ~m))

        return _f

    bench = docs.map_batches(_slice(True), batch_format="pyarrow")
    train = docs.map_batches(_slice(False), batch_format="pyarrow")
    bm = bloom_build(bench, m_bits=_BLOOM_M, n_hashes=_BLOOM_NH, k=5)
    out = bloom_contamination_scores(train, bm, _BLOOM_M, n_hashes=_BLOOM_NH, k=5)
    return out.to_pandas().sort_values("doc_id", ignore_index=True)


def _pii_planted_text(d: int) -> str:
    """Deterministic PII-bearing text derived from doc_id — constructed
    with the IDENTICAL formula in the SQL oracle so both sides scan the
    same strings (the synthetic corpus itself contains no PII, which
    would make the query zero-evidence)."""
    return (
        f"contact a{d}@mail{d % 7}.com or a{d}@x.org call 555-123-4567 "
        f"and +1 555 987 6543 from 192.168.{d % 256}.{(d * 7) % 256} end"
    )


def _q_doc_pii_scan(sf_dir: str):
    """PII audit counts (emails / phones / IPv4) per document over the
    corpus plus deterministic planted PII docs (ids +20M, doc_id % 41
    slice) — DuckDB-oracled: explicit-ASCII regexes with identical
    semantics in Python re and RE2, counts via regexp_extract_all."""
    import ray.data

    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.pii import scan_pii

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    base_ids = [r["doc_id"] for r in docs.select_columns(["doc_id"]).take_all()]
    ids = [d for d in base_ids if d % 41 == 0]
    planted = pa.table(
        {
            "doc_id": pa.array([d + 20_000_000 for d in ids], pa.int64()),
            "text": pa.array([_pii_planted_text(d) for d in ids], pa.string()),
        }
    )
    corpus = docs.union(ray.data.from_arrow(planted))
    out = scan_pii(corpus).to_pandas()
    return out.sort_values("doc_id", ignore_index=True)


def _q_doc_heavy_hitters(sf_dir: str):
    """Top-20 most frequent tokens (vocabulary heavy hitters) — exact:
    per-batch producer combine, bucketed token sums, per-bucket top-k,
    tiny driver merge. DuckDB GROUP BY + LIMIT oracle."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import token_heavy_hitters

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return token_heavy_hitters(docs, k=20)


def _q_doc_span_dedup(sf_dir: str):
    """Cross-doc span dedup at 8-token-chunk granularity — one bucketed
    shuffle on exact chunk text; DuckDB-oracled by an unnest + window
    replay of the keep-first rule."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.dedup import span_dedup

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (
        span_dedup(docs, chunk_tokens=8)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )


def _q_doc_shuffle(sf_dir: str):
    """Deterministic seeded global shuffle with exact 0-based positions
    (distributed sort + block-metadata prefix scan) — DuckDB-oracled via
    the same Knuth modular arithmetic + row_number replay."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.curation import corpus_shuffle

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return (
        corpus_shuffle(docs, seed=7)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )


def _q_doc_sample(sf_dir: str):
    """Deterministic 5% hash sample (leakage-free corpus sampling) —
    DuckDB-oracled via the same SQL-replicable Knuth hash as the split."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import HashSampler

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    out = docs.map_batches(
        HashSampler,
        fn_constructor_kwargs={"pct": 5},
        batch_format="pandas",
        concurrency=(1, 4),
    )
    return out.select_columns(["doc_id"])


def _q_doc_split(sf_dir: str):
    """Deterministic hash train/val/test split + per-split counts —
    DuckDB-oracled (the hash is plain modular arithmetic)."""
    from graphlite_ray.sources.io import read_parquet_clean
    from graphlite_ray.stages.textstats import SplitAssigner

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    assigned = docs.map_batches(SplitAssigner, batch_format="pandas", concurrency=(1, 4))

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("split", as_index=False).agg(n=("doc_id", "size"))

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"split": [g["split"].iloc[0]], "n": [int(g["n"].sum())]})

    return (
        assigned.map_batches(_partial, batch_format="pandas")
        .groupby("split")
        .map_groups(_final, batch_format="pandas")
        .to_pandas()
        .sort_values("split", ignore_index=True)
    )


def _round_cols(df: pd.DataFrame, cols: dict[str, int]) -> pd.DataFrame:
    df = df.copy()
    for c, nd in cols.items():
        df[c] = _round_half_away(df[c], nd)
    return df


def queries() -> dict[str, Callable[[str], Any]]:
    from graphlite_ray.pipelines import relational as R

    return {
        # link-graph engine (recursive-CTE DuckDB oracles + pytest parity)
        "pagerank": _q_pagerank,
        "graph_katz": _q_graph_katz,
        "graph_eigenvector": _q_graph_eigenvector,
        "graph_incremental_pagerank": _q_incremental_pagerank,
        "weighted_pagerank": _q_weighted_pagerank,
        "connected_components": _q_cc,
        "label_propagation": _q_lpa,
        "kcore": _q_kcore,
        "graph_densest": _q_densest,
        "graph_rich_club": _q_rich_club,
        "sssp": _q_sssp,
        "sssp_weighted": _q_sssp_weighted,
        "personalized_pagerank": _q_ppr,
        "hits_authority": _q_hits,
        "vertex_triangles": _q_vertex_triangles,
        "graph_reciprocity": _q_reciprocity,
        "graph_avg_nbr_degree": _q_avg_neighbor_degree,
        "graph_khop_sample": _q_graph_khop_sample,
        "degree_histogram": _q_degree_histogram,
        "graph_assortativity": _q_assortativity,
        "graph_truss3": _q_ktruss,
        "graph_betweenness": _q_betweenness,
        "graph_modularity": _q_modularity,
        "graph_coreness": _q_coreness,
        "graph_vertex_cover": _q_vertex_cover,
        "graph_component_sizes": _q_component_sizes,
        "graph_seeded_labels": _q_seeded_lpa,
        "graph_bipartite": _q_bipartite,
        "triangle_count_approx": _q_triangles_approx,
        "graph_diameter": _q_diameter,
        "graph_mis": _q_mis,
        "graph_coloring": _q_coloring,
        "graph_matching": _q_matching,
        "link_prediction": _q_link_prediction,
        "graph_neighborhood": _q_graph_neighborhood,
        "graph_neighborhood_approx": _q_graph_neighborhood_approx,
        "graph_hyperball_balls": _q_graph_hyperball_balls,
        "graph_bowtie": _q_graph_bowtie,
        "graph_harmonic": _q_graph_harmonic,
        "graph_scc": _q_graph_scc,
        "graph_bowtie_scc": _q_graph_bowtie_scc,
        "graph_random_walks": _q_random_walks,
        "graph_biased_walks": _q_biased_walks,
        "graph_sage_features": _q_sage_features,
        "walk_skipgram_pairs": _q_skipgram_pairs,
        "reshard_out_degrees": _q_reshard_degrees,
        "host_edge_counts": _q_host_edge_counts,
        "graph_cliques4": _q_graph_cliques4,
        "host_pagerank": _q_host_pagerank,
        "triangle_count": _q_triangles,
        "graph_transitivity": _q_graph_transitivity,
        "extract_edges": _q_extract_edges,
        "anchor_text_index": _q_anchor_text,
        "out_degrees": _q_degrees,
        # relational operator family (DuckDB-oracled)
        "filter_project": lambda sf: R.q_filter_project(sf),
        "pricing_summary": lambda sf: _round_cols(
            R.q_pricing_summary(sf),
            {"sum_qty": 2, "sum_base_price": 2, "sum_disc_price": 2, "avg_qty": 6},
        ),
        "revenue_by_nation": lambda sf: _round_cols(R.q_revenue_by_nation(sf), {"revenue": 2}),
        "topk_orders": lambda sf: R.q_topk_orders(sf),
        "events_ranked": lambda sf: R.q_events_ranked(sf),
        "events_latest_per_user": lambda sf: R.q_latest_event_per_user(sf),
        "user_journeys": lambda sf: R.q_user_journeys(sf, k=20),
        "events_pivot": lambda sf: R.q_events_pivot(sf),
        "events_ntile": lambda sf: R.q_events_ntile(sf, k=10),
        "distinct_users": lambda sf: R.q_distinct_users(sf),
        "hourly_windows": lambda sf: _round_cols(R.q_hourly_windows(sf), {"sum_value": 4}),
        "sliding_windows": lambda sf: _round_cols(R.q_sliding_windows(sf), {"sum_value": 4}),
        "sessions": lambda sf: R.q_sessions(sf),
        "events_rolling_avg": lambda sf: R.q_rolling_avg(sf),
        "event_gaps": lambda sf: R.q_event_gaps(sf),
        "event_funnel": lambda sf: R.q_event_funnel(sf),
        "retention_cohorts": lambda sf: R.q_retention_cohorts(sf),
        "rollup_acctbal": lambda sf: R.q_rollup_acctbal(sf),
        "cube_acctbal": lambda sf: R.q_cube_acctbal(sf),
        "full_outer_activity": lambda sf: R.q_full_outer_activity(sf),
        "events_daily_dense": lambda sf: R.q_daily_dense(sf),
        "events_mode_per_user": lambda sf: R.q_mode_per_user(sf),
        "events_sessionized": lambda sf: R.q_sessionized_events(sf),
        "user_set_ops": lambda sf: R.q_user_set_ops(sf),
        "union_counts": lambda sf: R.q_union_counts(sf),
        "asof_join": lambda sf: R.q_asof_join(sf),
        "range_join_pairs": lambda sf: R.q_range_join_pairs(sf),
        "event_value_percentiles": lambda sf: _round_cols(
            R.q_event_value_percentiles(sf), {"p50": 6, "p95": 6}
        ),
        "event_percentiles_hist": _q_event_percentiles_hist,
        "distinct_users_approx": _q_distinct_users_approx,
        "top_orders_per_priority": lambda sf: R.q_top_orders_per_priority(sf),
        "customers_without_orders": lambda sf: R.q_customers_without_orders(sf),
        "orders_by_priority": lambda sf: _round_cols(
            R.q_orders_by_priority(sf), {"total_price": 2, "avg_price": 6}
        ),
        "join_revenue_by_segment": lambda sf: _round_cols(
            R.q_native_join_revenue(sf), {"revenue": 2}
        ),
        "local_supplier_volume": lambda sf: _round_cols(
            R.q_local_supplier_volume(sf), {"revenue": 2}
        ),
        "small_quantity_revenue": lambda sf: _round_cols(
            R.q_small_quantity_revenue(sf), {"avg_qty": 6, "small_revenue": 2}
        ),
        # training-data operators over documents/embeddings
        "doc_exact_dedup": _q_doc_exact_dedup,
        "corpus_clean": _q_corpus_clean,
        "doc_tfidf": _q_doc_tfidf,
        "doc_editdist_pairs": _q_doc_editdist,
        "doc_upsert": _q_doc_upsert,
        "doc_bm25": _q_doc_bm25,
        "doc_pmi": _q_doc_pmi,
        "doc_lm_score": _q_doc_lm_score,
        "url_canonical_dedup": _q_url_canonical_dedup,
        "doc_token_df": _q_doc_token_df,
        "doc_inverted_index": _q_doc_inverted_index,
        "doc_cms_counts": _q_doc_cms_counts,
        "doc_heavy_hitters": _q_doc_heavy_hitters,
        "doc_repetition": _q_doc_repetition,
        "doc_contamination": _q_doc_contamination,
        "doc_bloom_contamination": _q_doc_bloom_contamination,
        "doc_pii_scan": _q_doc_pii_scan,
        "doc_sample": _q_doc_sample,
        "doc_shuffle": _q_doc_shuffle,
        "doc_span_dedup": _q_doc_span_dedup,
        "doc_span_clean": _q_doc_span_clean,
        "doc_sequence_pack": _q_doc_sequence_pack,
        "doc_chunks": _q_doc_chunks,
        "doc_stratified_sample": _q_doc_stratified_sample,
        "doc_split_counts": _q_doc_split,
        "props_rollup": _q_props_rollup,
        "doc_token_count": _q_doc_tokens,
        "doc_jsonl_ingest": _q_doc_jsonl_ingest,
        "doc_csv_ingest": _q_doc_csv_ingest,
        "doc_bpe_tokens": _q_doc_bpe_tokens,
        "doc_bpe_train": _q_doc_bpe_train,
        "doc_weighted_mix": _q_doc_weighted_mix,
        "doc_embed_text": _q_doc_embed_text,
        "emb_text_near_dup": _q_emb_text_near_dup,
        "doc_quality": _q_doc_quality_sqlable,
        "doc_langid": _q_doc_langid,
        "doc_fingerprint": _q_doc_fingerprint,
        "doc_minhash_dedup": _q_doc_minhash,
        "doc_minhash_stream": _q_doc_minhash_stream,
        "doc_ngram_jaccard": _q_doc_ngram_jaccard,
        "doc_simhash_pairs": _q_doc_simhash,
        "emb_knn": _q_emb_knn,
        "emb_knn_quantized": _q_emb_knn_quantized,
        "emb_kmeans": _q_emb_kmeans,
        "emb_knn_ivf": _q_emb_knn_ivf,
        "emb_semdedup": _q_emb_semdedup,
        "emb_near_dup": _q_emb_near_dup,
        "emb_near_dup_lsh": _q_emb_near_dup_lsh,
        "emb_label_counts": _q_emb_label_counts,
        # multimodal (real dependency-free codecs: BMP / PCM-WAV / GLRV)
        "media_image_dims": _q_media_image_dims,
        "media_image_stats": _q_media_image_stats,
        "media_audio_energy": _q_media_audio_energy,
        "media_video_frames": _q_media_video_frames,
    }


_ORACLE_SF = "/root/testdata/sf0.01"  # the driver compares at sf=0.01


def _staged_edges_glob() -> str:
    """Ensure the sf0.01 edge table is staged (cheap no-op when _SUCCESS
    exists) and return its parquet glob for DuckDB read_parquet oracles.
    These oracles verify the DOWNSTREAM operators (degree counting,
    triangle closure, shortest paths) independently of our engine — the
    staging table itself is the shared input, as the driver's registered
    views are for the relational queries."""
    from graphlite_ray.pipelines.linkgraph import prepare_edges

    pages, work = _graph_work(_ORACLE_SF)
    try:
        edges_dir = prepare_edges(pages, work, P=8)
    except Exception as e:
        # surface the STAGING failure itself instead of letting the oracle
        # die later on a confusing missing-parquet error
        raise RuntimeError(
            f"staging the sf0.01 edge table for the graph oracles failed: {e!r}"
        ) from e
    return os.path.join(edges_dir, "*.parquet")


def _langid_oracle_sql() -> str:
    """Pure-SQL re-implementation of the LangId decision rule (CJK char
    ratio > 0.15 -> zh; else the stopword set with the highest word
    coverage, first-language-wins ties, > 0.05 threshold, else 'und')."""
    from graphlite_ray.stages.textstats import STOPWORDS

    def lst(lang: str) -> str:
        return ", ".join(
            "'" + w.replace("'", "''") + "'" for w in sorted(STOPWORDS[lang])
        )

    word_re = "[A-Za-z\u00c0-\u00ff'']+"  # '' = escaped quote inside SQL string
    cjk_re = "[^\\x{4E00}-\\x{9FFF}\\x{3040}-\\x{30FF}\\x{AC00}-\\x{D7AF}]"
    return (
        "WITH words AS ("
        "SELECT doc_id, lower(w) AS w FROM ("
        f"SELECT doc_id, unnest(regexp_extract_all(text, '{word_re}')) AS w "
        "FROM documents)), "
        "counts AS (SELECT doc_id, count(*) AS nw, "
        f"sum(CASE WHEN w IN ({lst('en')}) THEN 1 ELSE 0 END) AS en_h, "
        f"sum(CASE WHEN w IN ({lst('de')}) THEN 1 ELSE 0 END) AS de_h, "
        f"sum(CASE WHEN w IN ({lst('fr')}) THEN 1 ELSE 0 END) AS fr_h, "
        f"sum(CASE WHEN w IN ({lst('es')}) THEN 1 ELSE 0 END) AS es_h "
        "FROM words GROUP BY doc_id), "
        "cjk AS (SELECT doc_id, length(text) AS nc, "
        f"length(regexp_replace(text, '{cjk_re}', '', 'g')) AS ncjk "
        "FROM documents) "
        "SELECT c.doc_id, CASE "
        "WHEN c.nc > 0 AND CAST(c.ncjk AS DOUBLE) / c.nc > 0.15 THEN 'zh' "
        "WHEN w.nw IS NULL OR w.nw = 0 THEN 'und' "
        "WHEN w.en_h >= w.de_h AND w.en_h >= w.fr_h AND w.en_h >= w.es_h THEN "
        "(CASE WHEN CAST(w.en_h AS DOUBLE) / w.nw > 0.05 THEN 'en' ELSE 'und' END) "
        "WHEN w.de_h > w.en_h AND w.de_h >= w.fr_h AND w.de_h >= w.es_h THEN "
        "(CASE WHEN CAST(w.de_h AS DOUBLE) / w.nw > 0.05 THEN 'de' ELSE 'und' END) "
        "WHEN w.fr_h > w.en_h AND w.fr_h > w.de_h AND w.fr_h >= w.es_h THEN "
        "(CASE WHEN CAST(w.fr_h AS DOUBLE) / w.nw > 0.05 THEN 'fr' ELSE 'und' END) "
        "ELSE (CASE WHEN CAST(w.es_h AS DOUBLE) / w.nw > 0.05 THEN 'es' ELSE 'und' END) "
        "END AS lang_pred "
        "FROM cjk c LEFT JOIN counts w USING (doc_id) ORDER BY c.doc_id"
    )


def _jaccard_pairs_sql(threshold: float) -> str:
    """Exhaustive 3-gram-shingle Jaccard pairs in pure SQL (no LSH).
    This equals the pipeline's LSH-candidates + exact-verify output on
    this corpus because (checked, deterministic: fixed data, fixed seed)
    every qualifying pair's Jaccard is far above the threshold, where the
    fixed banded candidate set provably contains it — the score
    distribution is bimodal with nothing near the threshold."""
    return (
        # list_filter: whitespace-kind-robust tokenization (matches
        # Python's split(); DuckDB trim only strips spaces)
        "WITH toks AS (SELECT doc_id, t FROM (SELECT doc_id, "
        f"list_filter(regexp_split_to_array(lower(text), '{_WS}'), "
        "x -> x <> '') AS t FROM documents) WHERE len(t) > 0), "
        "sh AS (SELECT doc_id, CASE WHEN len(t) < 3 "
        "THEN [array_to_string(t, ' ')] "
        "ELSE list_transform(generate_series(1, len(t) - 2), "
        "i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) END AS shingles "
        "FROM toks), "
        "ex AS (SELECT doc_id, unnest(list_distinct(shingles)) AS s FROM sh), "
        "inter AS (SELECT a.doc_id AS a, b.doc_id AS b, count(*) AS i "
        "FROM ex a JOIN ex b ON a.s = b.s AND a.doc_id < b.doc_id "
        "GROUP BY 1, 2), "
        "sizes AS (SELECT doc_id, count(*) AS n FROM ex GROUP BY 1), "
        "jpairs AS (SELECT i.a, i.b FROM inter i "
        "JOIN sizes sa ON sa.doc_id = i.a JOIN sizes sb ON sb.doc_id = i.b "
        f"WHERE CAST(i.i AS DOUBLE) / (sa.n + sb.n - i.i) >= {threshold})"
    )


# ---- iterative graph-algorithm oracles (recursive CTEs over the staged
# edge table). DuckDB permits aggregation + a repeated self-reference in
# the recursive term (both references see the previous iteration's rows),
# which is exactly a synchronous BSP superstep — so each oracle replays the
# engine's recurrence AND its halt rule independently, in pure SQL.

def _sym_edges_cte(edges_glob: str) -> str:
    """Symmetrized edge multiset (UNION ALL, multiplicity preserved) —
    byte-matches the engine's CSR symmetrization (state/csr.py:84-87)."""
    return (
        f"se AS (SELECT src, dst FROM read_parquet('{edges_glob}') "
        f"UNION ALL SELECT dst, src FROM read_parquet('{edges_glob}'))"
    )


def _mis_enc_sql(x: str) -> str:
    """SQL expression: vertex id -> the MIS comparison key enc(v)
    (programs.py::MaximalIndependentSet.enc), exact in BIGINT via a
    HUGEINT intermediate (the (v%2^31)*2654435761 product overflows
    BIGINT)."""
    return (
        f"CAST((({x} % 2147483648)::HUGEINT * 2654435761 + 40503) "
        f"% 4294967296 % 1048576 * 4294967296 + ({x} % 4294967296) AS BIGINT)"
    )


def _mis_oracle_sql(edges_glob: str) -> str:
    """Round-for-round replay of the MIS program (programs.py::
    MaximalIndependentSet): per round, an undecided vertex with
    enc(v) > max enc over UNDECIDED neighbors (no neighbor -> -1) joins
    (status 1); undecided neighbors of joiners are excluded (status 2).
    The working table carries the full per-vertex status each round (the
    kcore-oracle pattern); progress guard (undec < prevund) stops at the
    fixpoint. Universe + adjacency: distinct symmetrized non-loop edges,
    matching `mis_labels`' self-loop strip."""
    winners = (
        "SELECT u{i}.v FROM ms u{i} LEFT JOIN ("
        "SELECT e{i}.src AS v, max(" + _mis_enc_sql("q{i}.v") + ") AS mx "
        "FROM sd e{i} JOIN ms q{i} ON q{i}.v = e{i}.dst AND q{i}.status = 0 "
        "GROUP BY e{i}.src) nb{i} ON nb{i}.v = u{i}.v "
        "WHERE u{i}.status = 0 AND " + _mis_enc_sql("u{i}.v")
        + " > coalesce(nb{i}.mx, -1)"
    )
    return (
        "WITH RECURSIVE sd AS (SELECT DISTINCT src, dst FROM ("
        f"SELECT src, dst FROM read_parquet('{edges_glob}') UNION ALL "
        f"SELECT dst, src FROM read_parquet('{edges_glob}')) "
        "WHERE src <> dst), "
        "verts AS (SELECT DISTINCT src AS v FROM sd), "
        "ms(r, v, status, undec, prevund) AS ("
        "SELECT 0, v, 0::BIGINT, (SELECT count(*) FROM verts)::BIGINT, "
        "(SELECT count(*) FROM verts)::BIGINT + 1 FROM verts "
        "UNION ALL "
        "SELECT r + 1, v, st, "
        "sum(CASE WHEN st = 0 THEN 1 ELSE 0 END) OVER ()::BIGINT, undec "
        "FROM ("
        "SELECT m.r AS r, m.v AS v, m.undec AS undec, "
        "CASE WHEN m.status <> 0 THEN m.status "
        "WHEN w.v IS NOT NULL THEN 1 "
        "WHEN x.v IS NOT NULL THEN 2 ELSE 0 END AS st "
        "FROM ms m "
        "LEFT JOIN (" + winners.format(i=1) + ") w ON w.v = m.v "
        "LEFT JOIN (SELECT DISTINCT e0.dst AS v FROM sd e0 JOIN ("
        + winners.format(i=2)
        + ") w2 ON w2.v = e0.src) x ON x.v = m.v "
        "WHERE m.undec > 0 AND m.undec < m.prevund AND m.r < 80)) "
        "SELECT v AS vertex_id, "
        "CAST(CASE WHEN status = 1 THEN 1 ELSE 0 END AS BIGINT) AS in_mis "
        "FROM ms WHERE r = (SELECT max(r) FROM ms) ORDER BY vertex_id"
    )


def _coloring_oracle_sql(edges_glob: str) -> str:
    """Round-for-round replay of the greedy coloring program
    (programs.py::GreedyColoring): per round r, an UNCOLORED vertex with
    enc(v) > max enc over uncolored neighbors (no uncolored neighbor ->
    -1) takes color r. Shares the MIS oracle's enc encode, working-table
    shape and progress guard; universe + adjacency = distinct symmetrized
    non-loop edges, matching `coloring_labels`' self-loop strip."""
    return (
        "WITH RECURSIVE sd AS (SELECT DISTINCT src, dst FROM ("
        f"SELECT src, dst FROM read_parquet('{edges_glob}') UNION ALL "
        f"SELECT dst, src FROM read_parquet('{edges_glob}')) "
        "WHERE src <> dst), "
        "verts AS (SELECT DISTINCT src AS v FROM sd), "
        "cs(r, v, color, unc, prevunc) AS ("
        "SELECT 0, v, -1::BIGINT, (SELECT count(*) FROM verts)::BIGINT, "
        "(SELECT count(*) FROM verts)::BIGINT + 1 FROM verts "
        "UNION ALL "
        "SELECT r + 1, v, col, "
        "sum(CASE WHEN col = -1 THEN 1 ELSE 0 END) OVER ()::BIGINT, unc "
        "FROM ("
        "SELECT m.r AS r, m.v AS v, m.unc AS unc, "
        "CASE WHEN m.color <> -1 THEN m.color "
        "WHEN w.v IS NOT NULL THEN m.r ELSE -1 END AS col "
        "FROM cs m "
        "LEFT JOIN ("
        "SELECT u.v FROM cs u LEFT JOIN ("
        "SELECT e.src AS v, max(" + _mis_enc_sql("q.v") + ") AS mx "
        "FROM sd e JOIN cs q ON q.v = e.dst AND q.color = -1 "
        "GROUP BY e.src) nb ON nb.v = u.v "
        "WHERE u.color = -1 AND " + _mis_enc_sql("u.v")
        + " > coalesce(nb.mx, -1)"
        ") w ON w.v = m.v "
        "WHERE m.unc > 0 AND m.unc < m.prevunc AND m.r < 200)) "
        "SELECT v AS vertex_id, color "
        "FROM cs WHERE r = (SELECT max(r) FROM cs) ORDER BY vertex_id"
    )


def _matching_oracle_sql(edges_glob: str) -> str:
    """Round-for-round replay of the maximal matching program
    (programs.py::MaximalMatching): per round, every UNMATCHED vertex with
    an unmatched neighbor points at its argmax-enc unmatched neighbor
    (enc strict -> arg_max deterministic); mutual pointer pairs match.
    Working-table shape + progress guard follow the MIS oracle; a round
    that matches nobody leaves the state unchanged and the unm < prevunm
    guard then stops the recursion (that IS the program's eligible == 0
    fixpoint: while any adjacent unmatched pair exists, the globally
    max-enc unmatched endpoint always pairs). Universe + adjacency:
    distinct symmetrized non-loop edges, matching `matching_labels`'
    self-loop strip."""
    tgt = (
        "SELECT e{i}.src AS v, arg_max(q{i}.v, " + _mis_enc_sql("q{i}.v")
        + ") AS t FROM sd e{i} "
        "JOIN cs q{i} ON q{i}.v = e{i}.dst AND q{i}.partner = -1 "
        "JOIN cs u{i} ON u{i}.v = e{i}.src AND u{i}.partner = -1 "
        "GROUP BY e{i}.src"
    )
    return (
        "WITH RECURSIVE sd AS (SELECT DISTINCT src, dst FROM ("
        f"SELECT src, dst FROM read_parquet('{edges_glob}') UNION ALL "
        f"SELECT dst, src FROM read_parquet('{edges_glob}')) "
        "WHERE src <> dst), "
        "verts AS (SELECT DISTINCT src AS v FROM sd), "
        "cs(r, v, partner, unm, prevunm) AS ("
        "SELECT 0, v, -1::BIGINT, (SELECT count(*) FROM verts)::BIGINT, "
        "(SELECT count(*) FROM verts)::BIGINT + 1 FROM verts "
        "UNION ALL "
        "SELECT r + 1, v, np, "
        "sum(CASE WHEN np = -1 THEN 1 ELSE 0 END) OVER ()::BIGINT, unm "
        "FROM ("
        "SELECT m.r AS r, m.v AS v, m.unm AS unm, "
        "CASE WHEN m.partner <> -1 THEN m.partner "
        "WHEN mt.w IS NOT NULL THEN mt.w ELSE -1 END AS np "
        "FROM cs m "
        "LEFT JOIN (SELECT a.v AS v, a.t AS w FROM (" + tgt.format(i=1)
        + ") a JOIN (" + tgt.format(i=2) + ") b "
        "ON a.t = b.v AND b.t = a.v) mt ON mt.v = m.v "
        "WHERE m.unm > 0 AND m.unm < m.prevunm AND m.r < 200)) "
        "SELECT v AS vertex_id, partner "
        "FROM cs WHERE r = (SELECT max(r) FROM cs) ORDER BY vertex_id"
    )


def _bipartite_oracle_sql(edges_glob: str) -> str:
    """Independent 2-colorability check per weakly-connected component:
    CC labels via the min-label CTE (MATERIALIZED — referenced four
    times), BFS distances from each component's root via the
    recursive-walk pattern (UNION dedup), parity = dist % 2, and a
    component is bipartite iff no symmetrized edge (self-loops included —
    an odd 1-cycle) joins equal parities."""
    return (
        "SELECT component, n_vertices, is_bipartite FROM ("
        "WITH RECURSIVE lab AS MATERIALIZED ("
        + _cc_oracle_sql(edges_glob)
        + "), "
        f"se2 AS (SELECT src, dst FROM read_parquet('{edges_glob}') "
        f"UNION SELECT dst, src FROM read_parquet('{edges_glob}')), "
        "roots AS (SELECT DISTINCT value AS v FROM lab), "
        "w(v, d) AS (SELECT v, 0 FROM roots UNION "
        "SELECT se2.dst, w.d + 1 FROM w JOIN se2 ON se2.src = w.v "
        "WHERE w.d < 80), "  # page-graph eccentricity bound; matches the
        # engine cap family (diameter oracle: 150)
        "par AS (SELECT v, min(d) % 2 AS p FROM w GROUP BY v), "
        "bad AS (SELECT DISTINCT l.value AS comp FROM se2 e "
        "JOIN par a ON a.v = e.src JOIN par b ON b.v = e.dst "
        "JOIN lab l ON l.vertex_id = e.src WHERE a.p = b.p) "
        "SELECT l.value AS component, CAST(count(*) AS BIGINT) AS n_vertices, "
        "CAST(CASE WHEN max(CASE WHEN bad.comp IS NULL THEN 0 ELSE 1 END) = 1 "
        "THEN 0 ELSE 1 END AS BIGINT) AS is_bipartite "
        "FROM lab l LEFT JOIN bad ON bad.comp = l.value "
        "GROUP BY l.value) ORDER BY component"
    )


def _seeded_lpa_oracle_sql(edges_glob: str, seeds: dict, max_rounds: int = 29) -> str:
    """Round replay of SeededLabelPropagation: init = seed class or -1;
    per round, NON-seed vertices adopt the most frequent class among
    LABELED neighbors (multiplicity counts, ties -> min class — the LPA
    mode machinery); seeds are clamped; halt on a no-change round."""
    sv = ", ".join(f"({int(v)}, {int(c)})" for v, c in sorted(seeds.items()))
    return (
        f"WITH RECURSIVE {_sym_edges_cte(edges_glob)}, "
        f"seeds(v, c) AS (VALUES {sv}), "
        "sl(iter, v, val, changes) AS ("
        "SELECT 0, u.v, coalesce(s.c, -1::BIGINT), 1::BIGINT "
        "FROM (SELECT DISTINCT src AS v FROM se) u "
        "LEFT JOIN seeds s ON s.v = u.v "
        "UNION ALL "
        "SELECT iter + 1, v, newval, "
        "sum(CASE WHEN newval <> val THEN 1 ELSE 0 END) OVER () "
        "FROM ("
        "SELECT p.iter, p.v, p.val, "
        "CASE WHEN sd.v IS NOT NULL THEN p.val "
        "ELSE coalesce(w.l, p.val) END AS newval "
        "FROM sl p "
        "LEFT JOIN seeds sd ON sd.v = p.v "
        "LEFT JOIN (SELECT v, l FROM ("
        "SELECT v, l, row_number() OVER "
        "(PARTITION BY v ORDER BY c DESC, l ASC) AS rn "
        "FROM (SELECT e.dst AS v, p2.val AS l, count(*) AS c "
        "FROM sl p2 JOIN se e ON e.src = p2.v "
        "WHERE p2.val <> -1 GROUP BY e.dst, p2.val)"
        ") WHERE rn = 1) w ON w.v = p.v "
        f"WHERE p.changes > 0 AND p.iter < {max_rounds})) "
        "SELECT v AS vertex_id, val AS label FROM sl "
        "WHERE iter = (SELECT max(iter) FROM sl) ORDER BY vertex_id"
    )


def _coreness_oracle_sql(edges_glob: str) -> str:
    """Round-for-round replay of the H-index coreness iteration
    (programs.py::Coreness): core_0 = simple-graph degree; per round
    core := least(core, H) with H = max(least(rank, neighbor core)) over
    neighbors ranked by core desc (the row_number H-index). Universe +
    adjacency: distinct symmetrized non-loop edges, matching
    `coreness_labels`' canonical dedup; the changes guard stops at the
    fixpoint."""
    return (
        "WITH RECURSIVE sd AS (SELECT DISTINCT src, dst FROM ("
        f"SELECT src, dst FROM read_parquet('{edges_glob}') UNION ALL "
        f"SELECT dst, src FROM read_parquet('{edges_glob}')) "
        "WHERE src <> dst), "
        "cs(r, v, core, ch) AS ("
        "SELECT 0, src, CAST(count(*) AS BIGINT), 1::BIGINT "
        "FROM sd GROUP BY src "
        "UNION ALL "
        "SELECT r + 1, v, newc, "
        "sum(CASE WHEN newc <> core THEN 1 ELSE 0 END) OVER ()::BIGINT "
        "FROM ("
        "SELECT m.r AS r, m.v AS v, m.core AS core, "
        "least(m.core, hx.h) AS newc "
        "FROM cs m JOIN ("
        "SELECT src AS v, max(least(rn, c)) AS h FROM ("
        "SELECT e.src AS src, q.core AS c, row_number() OVER "
        "(PARTITION BY e.src ORDER BY q.core DESC) AS rn "
        "FROM sd e JOIN cs q ON q.v = e.dst) GROUP BY src) hx "
        "ON hx.v = m.v "
        "WHERE m.ch > 0 AND m.r < 100)) "
        "SELECT v AS vertex_id, core AS coreness "
        "FROM cs WHERE r = (SELECT max(r) FROM cs) ORDER BY vertex_id"
    )


def _betweenness_oracle_sql(edges_glob: str, sources: list[int]) -> str:
    """Superstep-for-superstep replay of programs.py::Betweenness over the
    DISTINCT directed edge set. Forward: the kcore-style working table
    carries full (s, v, dist, sigma) state per iteration; frontier rows
    (dist == it) push integer-exact sigma sums one level out; the
    newly-visited window count gates the recursion. Backward: per step bi,
    senders at dist == lmax_s - bi push (1 + delta)/sigma along REVERSE
    edges; receivers exactly one level up (dist == lmax_s - bi - 1 > 0 —
    rejects non-DAG in-neighbors and endpoints) set
    delta = sigma * sum. Final bc(v) = sum over sources of delta, shared
    ROUND(,6) absorbing the summation-association drift (the PageRank
    oracle convention)."""
    src_vals = ", ".join(f"({int(s)})" for s in sorted(sources))
    return (
        f"WITH RECURSIVE e AS (SELECT DISTINCT src, dst "
        f"FROM read_parquet('{edges_glob}')), "
        "verts AS (SELECT DISTINCT v FROM (SELECT src AS v FROM e "
        "UNION ALL SELECT dst FROM e)), "
        f"srcs(s) AS (VALUES {src_vals}), "
        "fw(it, s, v, dist, sigma, nn) AS ("
        "SELECT 0, s.s, vv.v, "
        "CASE WHEN vv.v = s.s THEN 0 ELSE -1 END, "
        "CAST(CASE WHEN vv.v = s.s THEN 1.0 ELSE 0.0 END AS DOUBLE), "
        "1::BIGINT FROM verts vv CROSS JOIN srcs s "
        "UNION ALL "
        "SELECT it + 1, s, v, nd, ns, "
        "sum(CASE WHEN nd <> dist THEN 1 ELSE 0 END) OVER ()::BIGINT "
        "FROM ("
        "SELECT m.it AS it, m.s AS s, m.v AS v, m.dist AS dist, "
        "CASE WHEN m.dist <> -1 THEN m.dist "
        "WHEN f.sig IS NOT NULL THEN m.it + 1 ELSE -1 END AS nd, "
        "CASE WHEN m.dist <> -1 THEN m.sigma "
        "WHEN f.sig IS NOT NULL THEN f.sig ELSE 0.0 END AS ns "
        "FROM fw m LEFT JOIN ("
        "SELECT q.s AS s, e1.dst AS v, sum(q.sigma) AS sig "
        "FROM fw q JOIN e e1 ON e1.src = q.v WHERE q.dist = q.it "
        "GROUP BY q.s, e1.dst) f ON f.s = m.s AND f.v = m.v "
        "WHERE m.nn > 0 AND m.it < 80)), "
        "ff AS MATERIALIZED (SELECT s, v, dist, sigma FROM fw "
        "WHERE it = (SELECT max(it) FROM fw)), "
        "lm AS MATERIALIZED (SELECT s, max(dist) AS lmax FROM ff GROUP BY s), "
        "bw(bi, s, v, delta) AS ("
        "SELECT 0, s, v, CAST(0.0 AS DOUBLE) FROM ff "
        "UNION ALL "
        "SELECT m.bi + 1, m.s, m.v, "
        "CASE WHEN g.acc IS NOT NULL "
        "AND f2.dist = l2.lmax - m.bi - 1 AND f2.dist > 0 "
        "THEN f2.sigma * g.acc ELSE m.delta END "
        "FROM bw m "
        "JOIN ff f2 ON f2.s = m.s AND f2.v = m.v "
        "JOIN lm l2 ON l2.s = m.s "
        "LEFT JOIN ("
        "SELECT q.s AS s, e2.src AS v, "
        "sum((1.0 + q.delta) / qf.sigma) AS acc "
        "FROM bw q "
        "JOIN ff qf ON qf.s = q.s AND qf.v = q.v "
        "JOIN lm ql ON ql.s = q.s "
        "JOIN e e2 ON e2.dst = q.v "
        "WHERE qf.dist = ql.lmax - q.bi AND qf.dist >= 1 "
        "GROUP BY q.s, e2.src) g ON g.s = m.s AND g.v = m.v "
        "WHERE m.bi < (SELECT max(lmax) FROM lm)) "
        "SELECT v AS vertex_id, ROUND(sum(delta), 6) AS betweenness "
        "FROM bw WHERE bi = (SELECT max(bi) FROM bw) "
        "GROUP BY v ORDER BY v"
    )


def _pagerank_oracle_sql(
    edges_glob: str,
    weighted: bool,
    src: str = "src",
    dst: str = "dst",
    out_name: str = "vertex_id",
    seeds: list[int] | None = None,
) -> str:
    """Replays the reference recurrence (0.15 + 0.85 * sum of incoming
    val/outdeg; dangling vertices receive but never send) and the engine's
    halt rule: stop at the FIRST iteration whose summed |delta| < 1e-6
    (programs.py:213-239 — values at that iteration are the final values,
    since the halting superstep makes no further update). The weighted
    variant inlines the xor5 weight formula: w = xor(src,dst) % 5 + 1,
    each sender distributing val * w_e / W_total (programs.py:242-268).
    `src`/`dst` parametrize the edge table's columns (BIGINT vertex ids or
    host STRINGS — PageRank is relabeling-invariant). `seeds` switches to
    the PERSONALIZED recurrence (programs.py PersonalizedPageRank): initial
    mass and the 0.15 restart term land only on the seed vertices."""
    rp = f"read_parquet('{edges_glob}')"
    if weighted:
        denom = (
            f"(SELECT {src} AS v, sum(xor({src}, {dst}) % 5 + 1) AS d "
            f"FROM {rp} GROUP BY {src})"
        )
        contrib = f"p2.val * (xor(e.{src}, e.{dst}) % 5 + 1) / p2.d"
    else:
        denom = f"(SELECT {src} AS v, count(*) AS d FROM {rp} GROUP BY {src})"
        contrib = "p2.val / p2.d"
    if seeds is None:
        init_val = "CAST(1.0 AS DOUBLE)"
        restart = "0.15"
    else:
        in_seeds = ", ".join(str(int(s)) for s in sorted(seeds))
        init_val = f"CAST(CASE WHEN v IN ({in_seeds}) THEN 1.0 ELSE 0.0 END AS DOUBLE)"
        restart = f"0.15 * (CASE WHEN p.v IN ({in_seeds}) THEN 1.0 ELSE 0.0 END)"
    return (
        "WITH RECURSIVE pr(iter, v, val, delta) AS ("
        f"SELECT 0, v, {init_val}, CAST(1e18 AS DOUBLE) "
        f"FROM (SELECT DISTINCT {src} AS v FROM {rp} "
        f"UNION SELECT DISTINCT {dst} FROM {rp}) "
        "UNION ALL "
        "SELECT iter + 1, v, newval, sum(abs(newval - val)) OVER () "
        "FROM ("
        f"SELECT p.iter, p.v, p.val, {restart} + 0.85 * coalesce(m.s, 0.0) AS newval "
        "FROM pr p "
        f"LEFT JOIN (SELECT e.{dst} AS v, sum({contrib}) AS s "
        f"FROM (SELECT pr.v, pr.val, od.d FROM pr JOIN {denom} od USING (v)) p2 "
        f"JOIN {rp} e ON e.{src} = p2.v "
        f"GROUP BY e.{dst}) m ON m.v = p.v "
        "WHERE p.delta >= 1e-6 AND p.iter < 199)) "
        f"SELECT v AS {out_name}, ROUND(val, 6) AS value FROM pr "
        f"WHERE iter = (SELECT max(iter) FROM pr) ORDER BY {out_name}"
    )


def _katz_oracle_sql(edges_glob: str, alpha: float, iters: int) -> str:
    """Replays the KatzCentrality program (programs.py): x_0 = 1, then
    `iters` rounds of x_{k+1}(v) = 1 + alpha * sum of incoming x_k(u) —
    parallel edges contributing once per edge (JOIN against the raw edge
    multiset, no DISTINCT). Fixed-K, so no halt rule to mirror."""
    rp = f"read_parquet('{edges_glob}')"
    return (
        "WITH RECURSIVE kz(iter, v, val) AS ("
        "SELECT 0, v, CAST(1.0 AS DOUBLE) "
        f"FROM (SELECT DISTINCT src AS v FROM {rp} "
        f"UNION SELECT DISTINCT dst FROM {rp}) "
        "UNION ALL "
        f"SELECT p.iter + 1, p.v, 1.0 + {alpha!r} * coalesce(m.s, 0.0) "
        "FROM kz p "
        "LEFT JOIN (SELECT e.dst AS v, sum(p2.val) AS s "
        f"FROM kz p2 JOIN {rp} e ON e.src = p2.v GROUP BY e.dst) m "
        "ON m.v = p.v "
        f"WHERE p.iter < {int(iters)}) "
        "SELECT v AS vertex_id, ROUND(val, 6) AS value FROM kz "
        f"WHERE iter = {int(iters)} ORDER BY vertex_id"
    )


def _eigenvector_oracle_sql(edges_glob: str, iters: int) -> str:
    """Replays the EigenvectorCentrality schedule (programs.py): layer 0 =
    all-ones; layer k = incoming sums of layer k-1 divided by layer k-1's
    L1 norm (aggregator k->k+1 visibility); the final step divides the
    last layer by its OWN norm. Single-direction sibling of the HITS
    oracle."""
    rp = f"read_parquet('{edges_glob}')"
    F = int(iters) + 1
    return (
        "WITH RECURSIVE "
        f"verts AS (SELECT DISTINCT v FROM (SELECT src AS v FROM {rp} "
        f"UNION ALL SELECT dst FROM {rp})), "
        "ev(iter, v, val, nrm) AS ("
        "SELECT 0, v, CAST(1.0 AS DOUBLE), "
        "CAST((SELECT count(*) FROM verts) AS DOUBLE) FROM verts "
        "UNION ALL "
        "SELECT iter + 1, v, newval, sum(newval) OVER () "
        "FROM ("
        f"SELECT p.iter, p.v, CASE WHEN p.iter + 1 < {F} THEN "
        "(CASE WHEN p.nrm > 0 THEN coalesce(m.s, 0.0) / p.nrm ELSE 0.0 END) "
        "ELSE (CASE WHEN p.nrm > 0 THEN p.val / p.nrm ELSE 0.0 END) END AS newval "
        "FROM ev p "
        "LEFT JOIN (SELECT e.dst AS v, sum(p2.val) AS s "
        f"FROM ev p2 JOIN {rp} e ON e.src = p2.v GROUP BY e.dst) m "
        "ON m.v = p.v "
        f"WHERE p.iter < {F})) "
        "SELECT v AS vertex_id, ROUND(val, 6) AS value FROM ev "
        f"WHERE iter = {F} ORDER BY vertex_id"
    )


def _hits_oracle_sql(edges_glob: str, iters: int) -> str:
    """Replays the HITS program's exact schedule (programs.py HITS): layer
    0 = all-ones hub; layer k = (incoming sums along forward edges for odd
    k / reverse edges for even k) divided by the SENDING layer's L1 norm
    (the aggregator's k->k+1 visibility); final step divides the last auth
    layer by its own norm. The direction-tagged edge multiset is the CTE
    `te` (fwd=1 original orientation, fwd=0 reversed); hub layers (even
    iter) send forward."""
    rp = f"read_parquet('{edges_glob}')"
    F = 2 * int(iters)
    return (
        "WITH RECURSIVE "
        f"te AS (SELECT src AS f, dst AS t, 1 AS fwd FROM {rp} "
        f"UNION ALL SELECT dst, src, 0 FROM {rp}), "
        # NB: inside a WITH RECURSIVE list DuckDB gives a named CTE's UNION
        # recursive-iteration treatment (observed: both branches appended
        # un-deduplicated), so the dedup must be an explicit outer DISTINCT
        f"verts AS (SELECT DISTINCT v FROM (SELECT src AS v FROM {rp} "
        f"UNION ALL SELECT dst FROM {rp})), "
        "h(iter, v, val, nrm) AS ("
        "SELECT 0, v, CAST(1.0 AS DOUBLE), "
        "CAST((SELECT count(*) FROM verts) AS DOUBLE) FROM verts "
        "UNION ALL "
        "SELECT iter + 1, v, newval, sum(newval) OVER () "
        "FROM ("
        f"SELECT p.iter, p.v, CASE WHEN p.iter + 1 < {F} THEN "
        "(CASE WHEN p.nrm > 0 THEN coalesce(m.s, 0.0) / p.nrm ELSE 0.0 END) "
        "ELSE (CASE WHEN p.nrm > 0 THEN p.val / p.nrm ELSE 0.0 END) END AS newval "
        "FROM h p "
        "LEFT JOIN (SELECT e.t AS v, sum(p2.val) AS s "
        "FROM h p2 JOIN te e ON e.f = p2.v "
        "AND e.fwd = (CASE WHEN p2.iter % 2 = 0 THEN 1 ELSE 0 END) "
        "GROUP BY e.t) m ON m.v = p.v "
        f"WHERE p.iter < {F})) "
        "SELECT v AS vertex_id, ROUND(val, 6) AS value FROM h "
        "WHERE iter = (SELECT max(iter) FROM h) ORDER BY vertex_id"
    )


def _cc_oracle_sql(edges_glob: str) -> str:
    """Min-label flood to fixpoint on the symmetrized graph — the engine's
    ConnectedComponents semantics (programs.py:271-304): final label = min
    vertex id in the weakly-connected component."""
    return (
        f"WITH RECURSIVE {_sym_edges_cte(edges_glob)}, "
        "cc(iter, v, val, changes) AS ("
        "SELECT 0, v, v, 1::BIGINT FROM (SELECT DISTINCT src AS v FROM se) "
        "UNION ALL "
        "SELECT iter + 1, v, newval, "
        "sum(CASE WHEN newval <> val THEN 1 ELSE 0 END) OVER () "
        "FROM ("
        "SELECT p.iter, p.v, p.val, least(p.val, coalesce(m.mn, p.val)) AS newval "
        "FROM cc p "
        "LEFT JOIN (SELECT e.dst AS v, min(p2.val) AS mn "
        "FROM cc p2 JOIN se e ON e.src = p2.v GROUP BY e.dst) m ON m.v = p.v "
        "WHERE p.changes > 0 AND p.iter < 300)) "
        "SELECT v AS vertex_id, val AS value FROM cc "
        "WHERE iter = (SELECT max(iter) FROM cc) ORDER BY vertex_id"
    )


def _lpa_cte(edges_glob: str, max_rounds: int = 19) -> str:
    """The shared `se, lp` CTE fragment replaying synchronous LPA with the
    engine's exact tie-break (most frequent neighbor label, ties -> MIN
    label; programs.py LabelPropagation) and halt rule (no changes, or the
    20-superstep cap = 19 update rounds). The mode is a (v, label) count +
    row_number window per iteration; multiplicity of parallel symmetrized
    edges counts, as in the engine's message sums. Used by the LPA oracle
    AND the modularity oracle (which scores these labels)."""
    return (
        f"{_sym_edges_cte(edges_glob)}, "
        "lp(iter, v, val, changes) AS ("
        "SELECT 0, v, v, 1::BIGINT FROM (SELECT DISTINCT src AS v FROM se) "
        "UNION ALL "
        "SELECT iter + 1, v, newval, "
        "sum(CASE WHEN newval <> val THEN 1 ELSE 0 END) OVER () "
        "FROM ("
        "SELECT p.iter, p.v, p.val, coalesce(w.l, p.val) AS newval "
        "FROM lp p "
        "LEFT JOIN (SELECT v, l FROM ("
        "SELECT v, l, row_number() OVER "
        "(PARTITION BY v ORDER BY c DESC, l ASC) AS rn "
        "FROM (SELECT e.dst AS v, p2.val AS l, count(*) AS c "
        "FROM lp p2 JOIN se e ON e.src = p2.v GROUP BY e.dst, p2.val)"
        ") WHERE rn = 1) w ON w.v = p.v "
        f"WHERE p.changes > 0 AND p.iter < {max_rounds}))"
    )


def _lpa_oracle_sql(edges_glob: str, max_rounds: int = 19) -> str:
    return (
        f"WITH RECURSIVE {_lpa_cte(edges_glob, max_rounds)} "
        "SELECT v AS vertex_id, val AS value FROM lp "
        "WHERE iter = (SELECT max(iter) FROM lp) ORDER BY vertex_id"
    )


def _modularity_oracle_sql(edges_glob: str) -> str:
    """Newman modularity of the LPA labels over the canonical simple
    graph, replayed independently: the shared `_lpa_cte` produces the
    labels, the canonical pair dedup mirrors `_canonical_simple_edges`,
    and Q uses the same fixed per-community float64 term as
    `community_modularity` with the shared ROUND(,6) absorbing
    cross-community summation association."""
    return (
        f"WITH RECURSIVE {_lpa_cte(edges_glob)}, "
        "labs AS MATERIALIZED (SELECT v, val AS label FROM lp "
        "WHERE iter = (SELECT max(iter) FROM lp)), "
        "sedge AS (SELECT DISTINCT least(src, dst) AS lo, "
        f"greatest(src, dst) AS hi FROM read_parquet('{edges_glob}') "
        "WHERE src <> dst), "
        "le AS (SELECT a.label AS la, b.label AS lb FROM sedge s "
        "JOIN labs a ON a.v = s.lo JOIN labs b ON b.v = s.hi), "
        "comm AS (SELECT label, CAST(sum(e) AS BIGINT) AS mc, "
        "CAST(sum(d) AS BIGINT) AS dc FROM ("
        "SELECT la AS label, 1 AS e, 0 AS d FROM le WHERE la = lb "
        "UNION ALL SELECT la, 0, 1 FROM le "
        "UNION ALL SELECT lb, 0, 1 FROM le) GROUP BY label), "
        "mm AS (SELECT CAST(sum(dc) / 2 AS BIGINT) AS m FROM comm) "
        "SELECT mm.m AS n_edges, "
        "(SELECT count(DISTINCT val) FROM lp "
        "WHERE iter = (SELECT max(iter) FROM lp)) AS n_communities, "
        "ROUND((SELECT sum(CAST(mc AS DOUBLE) / mm.m - "
        "(CAST(dc AS DOUBLE) / (2.0 * mm.m)) * "
        "(CAST(dc AS DOUBLE) / (2.0 * mm.m))) FROM comm), 6) AS modularity "
        "FROM mm"
    )


def _kcore_oracle_sql(edges_glob: str, k: int = 4) -> str:
    """Synchronous k-core peeling to fixpoint (programs.py:402-444):
    survivors_{t+1} = vertices of survivors_t with degree >= k inside
    survivors_t (symmetrized, multiplicity counts). Carried (n, prevn)
    columns detect the fixpoint (no removal last round -> stop). Output:
    remaining in-core degree for members, -1 for peeled vertices."""
    return (
        f"WITH RECURSIVE {_sym_edges_cte(edges_glob)}, "
        "verts AS (SELECT DISTINCT src AS v FROM se), "
        "kc(iter, v, deg, n, prevn) AS ("
        "SELECT 0, d.v, d.deg, (SELECT count(*) FROM verts)::BIGINT, "
        "(SELECT count(*) FROM verts)::BIGINT + 1 "
        "FROM (SELECT src AS v, count(*) AS deg FROM se GROUP BY src) d "
        "UNION ALL "
        "SELECT iter + 1, v, newdeg, count(*) OVER (), n "
        "FROM ("
        "SELECT p.iter, p.v, p.n, coalesce(m.c, 0)::BIGINT AS newdeg "
        "FROM kc p "
        "LEFT JOIN (SELECT e.src AS v, count(*) AS c FROM se e "
        f"JOIN kc a ON a.v = e.src AND a.deg >= {k} "
        f"JOIN kc b ON b.v = e.dst AND b.deg >= {k} "
        "GROUP BY e.src) m ON m.v = p.v "
        f"WHERE p.n < p.prevn AND p.deg >= {k} AND p.iter < 300)) "
        "SELECT vt.v AS vertex_id, CAST(coalesce(f.deg, -1) AS BIGINT) AS value "
        "FROM verts vt "
        "LEFT JOIN (SELECT v, deg FROM kc "
        f"WHERE iter = (SELECT max(iter) FROM kc) AND deg >= {k}) f "
        "ON f.v = vt.v ORDER BY vertex_id"
    )


def _utf8_bytes_sql(strvar: str) -> str:
    """SQL expression: string column/variable -> list of its UTF-8 bytes,
    derived arithmetically from codepoints (full 1-4 byte coverage incl.
    supplementary planes). Shared by the simhash and fingerprint
    oracles so the encoding logic cannot drift between them. The
    cp >= 0 filter drops DuckDB's `unicode('') = -1` sentinel so the
    empty string maps to [] (zero bytes), matching the library hash."""
    return (
        "flatten(list_transform(list_filter("
        f"list_transform(string_split({strvar}, ''), c -> unicode(c)), "
        "cp -> cp >= 0), "
        "cp -> CASE WHEN cp < 128 THEN [cp] "
        "WHEN cp < 2048 THEN [192 + cp // 64, 128 + cp % 64] "
        "WHEN cp < 65536 THEN "
        "[224 + cp // 4096, 128 + (cp // 64) % 64, 128 + cp % 64] "
        "ELSE [240 + cp // 262144, 128 + (cp // 4096) % 64, "
        "128 + (cp // 64) % 64, 128 + cp % 64] END))"
    )


def _fnv_tok_sql(prefix_byte: int) -> str:
    """SQL expression (HUGEINT in [0, 2^64)): `hash_strings(tok,
    salt=prefix_byte-42)` — the library FNV-1a-64 with the seed prefix,
    replayed byte-for-byte (the simhash oracle's machinery, parameterized
    on the salt prefix byte for the CMS hash family)."""
    M64 = "18446744073709551616::HUGEINT"
    PRIME = "1099511628211::HUGEINT"
    OFF = "14695981039346656037::HUGEINT"
    HALF = "9223372036854775808::HUGEINT"
    wrap = f"CAST(acc - CASE WHEN acc >= {HALF} THEN {M64} ELSE 0::HUGEINT END AS BIGINT)"
    step = (
        f"((xor({wrap}, CAST(byte AS BIGINT))::HUGEINT + "
        f"CASE WHEN xor({wrap}, CAST(byte AS BIGINT)) < 0 THEN {M64} "
        f"ELSE 0::HUGEINT END) * {PRIME}) % {M64}"
    )
    utf8 = _utf8_bytes_sql("tok")
    return (
        f"list_reduce(list_concat([{OFF}], "
        f"list_transform(list_concat([{int(prefix_byte)},0,0,0,0,0,0,0], {utf8}), "
        f"x -> x::HUGEINT)), (acc, byte) -> {step})"
    )


def _bpe_train_oracle() -> str:
    from graphlite_ray.stages.bpe import bpe_train_sql

    return bpe_train_sql(_BPE_TRAIN_ROUNDS)


def _bloom_oracle_sql() -> str:
    """Exact replay of the Bloom-filter decontamination
    (`stages/contamination.py::bloom_build/_bloom_positions`): 5-gram
    shingles -> FNV-1a-64 (same fold as the pipeline) -> h1 = top 32 bits,
    h2 = low 32 bits forced odd -> n_hashes positions (h1 + j*h2) mod m.
    m is a power of two and h2 is odd, so one shingle's positions are
    pairwise distinct — membership is therefore `count(matched bloom
    positions) = n_hashes`. False positives reproduce identically on both
    sides."""
    m, nh = _BLOOM_M, _BLOOM_NH
    fnv = _fnv_tok_sql(42)
    return (
        f"WITH toks AS (SELECT doc_id, list_filter("
        f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '') AS t "
        "FROM documents), "
        "sh AS (SELECT doc_id, CASE WHEN len(t) < 5 "
        "THEN [array_to_string(t, ' ')] "
        "ELSE list_transform(generate_series(1, len(t) - 4), "
        "i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' || t[i+3] "
        "|| ' ' || t[i+4]) END AS shingles FROM toks WHERE len(t) > 0), "
        "ex AS (SELECT doc_id, unnest(list_distinct(shingles)) AS tok FROM sh), "
        f"hh AS (SELECT doc_id, tok, {fnv} AS h FROM ex), "
        "hp AS (SELECT doc_id, tok, "
        "CAST(h // 4294967296 AS BIGINT) AS h1, "
        "CAST(h % 4294967296 AS BIGINT) | 1 AS h2 FROM hh), "
        f"pos AS (SELECT doc_id, tok, unnest(list_transform("
        f"generate_series(0, {nh - 1}), j -> (h1 + j * h2) % {m})) AS p "
        "FROM hp), "
        "bloom AS (SELECT DISTINCT p FROM pos WHERE doc_id % 97 = 0), "
        "tp AS (SELECT doc_id, tok, p FROM pos WHERE doc_id % 97 <> 0), "
        "hits AS (SELECT tp.doc_id, tp.tok, count(b.p) AS nb "
        "FROM tp LEFT JOIN bloom b ON tp.p = b.p GROUP BY tp.doc_id, tp.tok), "
        f"tot AS (SELECT doc_id, count(*) AS n, "
        f"sum(CASE WHEN nb = {nh} THEN 1 ELSE 0 END) AS hit "
        "FROM hits GROUP BY doc_id) "
        "SELECT d.doc_id, COALESCE(CAST(t.hit AS DOUBLE) / t.n, 0.0) "
        "AS bloom_frac "
        "FROM (SELECT doc_id FROM documents WHERE doc_id % 97 <> 0) d "
        "LEFT JOIN tot t ON d.doc_id = t.doc_id ORDER BY d.doc_id"
    )


def _embed_sql_cte() -> str:
    """Shared CTE chain: documents -> (doc_id, dim, v) hashing-trick
    embedding, the EXACT replay of `stages/inference.TextEmbedder`
    (same FNV hash, same staged weights parquet, float64 sums).
    `e` is MATERIALIZED — three downstream references must not re-run
    the FNV fold per reference."""
    wpath = _embed_weights_path()
    fnv = _fnv_tok_sql(42)
    return (
        "toks AS (SELECT doc_id, unnest(list_filter("
        f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '')) AS tok "
        "FROM documents), "
        f"hb AS (SELECT doc_id, CAST({fnv} % {_EMBED_BUCKETS} AS BIGINT) "
        "AS bucket FROM toks), "
        f"wts AS (SELECT bucket, dim, w FROM '{wpath}'), "
        "esum AS (SELECT hb.doc_id, wts.dim, SUM(wts.w) AS v "
        "FROM hb JOIN wts ON wts.bucket = hb.bucket GROUP BY hb.doc_id, wts.dim), "
        f"dims AS (SELECT unnest(generate_series(0, {_EMBED_DIM - 1})) AS dim), "
        "e AS MATERIALIZED (SELECT d.doc_id, dims.dim, COALESCE(esum.v, 0.0) AS v "
        "FROM documents d CROSS JOIN dims "
        "LEFT JOIN esum ON esum.doc_id = d.doc_id AND esum.dim = dims.dim)"
    )


_M64_SQL = "18446744073709551616::HUGEINT"
_HALF64_SQL = "9223372036854775808::HUGEINT"


def _xor64_sql(a: str, b: str) -> str:
    """Bitwise xor of two HUGEINT values in [0, 2^64): wrap both to signed
    BIGINT (two's complement), xor, unwrap — the FNV replay's trick."""
    wa = f"CAST(({a}) - CASE WHEN ({a}) >= {_HALF64_SQL} THEN {_M64_SQL} ELSE 0::HUGEINT END AS BIGINT)"
    wb = f"CAST(({b}) - CASE WHEN ({b}) >= {_HALF64_SQL} THEN {_M64_SQL} ELSE 0::HUGEINT END AS BIGINT)"
    x = f"xor({wa}, {wb})"
    return f"(({x})::HUGEINT + CASE WHEN ({x}) < 0 THEN {_M64_SQL} ELSE 0::HUGEINT END)"


def _mul64_sql(z: str, M: int) -> str:
    """(z * M) mod 2^64 for HUGEINT z in [0, 2^64) and a 64-bit constant:
    32-bit split keeps every intermediate < 2^65 (a direct product would
    overflow HUGEINT's 128-bit range)."""
    Mh, Ml = M >> 32, M & 0xFFFFFFFF
    return (
        f"((((({z}) // 4294967296) * {Ml} + (({z}) % 4294967296) * {Mh}) "
        f"% 4294967296) * 4294967296 + (({z}) % 4294967296) * {Ml}) % {_M64_SQL}"
    )


def _splitmix64_sql(x: str) -> str:
    """SQL expression (HUGEINT in [0, 2^64)): `functions.sketches.mix64`
    — the splitmix64 finalizer — replayed bit-for-bit (verified against
    the numpy side in pytest). Feeds the HyperBall register oracle."""
    GAMMA = 0x9E3779B97F4A7C15
    M1 = 0xBF58476D1CE4E5B9
    M2 = 0x94D049BB133111EB
    z0 = f"((({x})::HUGEINT + {GAMMA}::HUGEINT) % {_M64_SQL})"
    z1 = _mul64_sql(_xor64_sql(z0, f"({z0}) // 1073741824"), M1)
    z2 = _mul64_sql(_xor64_sql(z1, f"({z1}) // 134217728"), M2)
    return _xor64_sql(z2, f"({z2}) // 2147483648")


def _n2v_oracle_sql(edges_glob: str, seeds: list[int], length: int = 8) -> str:
    """Second-order biased-walk replay (`pipelines.walks.biased_walks`):
    the choice key is mix64(cand) XOR mix64(walk*A + step*B + copy), so
    ONLY TWO staged splitmix64 chains exist in the whole oracle — one
    over the candidate vertex set (mc), one over the tiny
    walk x step x copy grid (wm); every per-step key is then a bare
    XOR of two staged columns (`_xor64_sql`), and each step is a
    candidate join + weight CASE (the LEFT JOIN against the edge set IS
    the membership test) + copies-filter + ROW_NUMBER argmin. Weights:
    step 1 uniform; then W_RET / W_NEAR / W_FAR copies per class."""
    from graphlite_ray.pipelines.walks import W_FAR, W_NEAR, W_RET, _WK_A, _WK_B

    GAMMA = 0x9E3779B97F4A7C15
    M1 = 0xBF58476D1CE4E5B9
    M2 = 0x94D049BB133111EB

    def _mix_stages(x: str, out: str, pfx: str, carry: str) -> str:
        a = f"((({x})::HUGEINT + {GAMMA}::HUGEINT) % {_M64_SQL})"
        s1 = f"{pfx}1 AS (SELECT *, {a} AS {pfx}z0 FROM {pfx}0), "
        b = _mul64_sql(_xor64_sql(f"{pfx}z0", f"{pfx}z0 // 1073741824"), M1)
        s2 = f"{pfx}2 AS (SELECT *, {b} AS {pfx}z1 FROM {pfx}1), "
        c = _mul64_sql(_xor64_sql(f"{pfx}z1", f"{pfx}z1 // 134217728"), M2)
        s3 = f"{pfx}3 AS (SELECT *, {c} AS {pfx}z2 FROM {pfx}2), "
        d = _xor64_sql(f"{pfx}z2", f"{pfx}z2 // 2147483648")
        s4 = f"{pfx}4 AS (SELECT {carry}, {d} AS {out} FROM {pfx}3), "
        return s1 + s2 + s3 + s4

    maxw = max(W_RET, W_NEAR, W_FAR)
    seed_vals = ", ".join(
        f"({w}, {v})" for w, v in enumerate(sorted(int(s) for s in seeds))
    )
    sql = (
        f"WITH e AS MATERIALIZED (SELECT DISTINCT src, dst "
        f"FROM read_parquet('{edges_glob}') WHERE src <> dst), "
        "mc0 AS (SELECT DISTINCT dst AS v FROM e), "
        + _mix_stages("v", "hv", "mc", "v")
        + "mc AS (SELECT v, hv FROM mc4), "
        f"wseed AS (SELECT * FROM (VALUES {seed_vals}) AS t(walk, seed)), "
        "wm0 AS (SELECT walk, s.s, c.c, "
        f"(walk * {_WK_A} + s.s * {_WK_B} + c.c)::HUGEINT AS x FROM wseed "
        f"CROSS JOIN (SELECT unnest(generate_series(1, {length})) AS s) s "
        f"CROSS JOIN (SELECT unnest(generate_series(0, {maxw - 1})) AS c) c), "
        + _mix_stages("x", "hw", "wm", "walk, s, c")
        + "wm AS MATERIALIZED (SELECT walk, s, c, hw FROM wm4), "
        "f0 AS (SELECT walk, -1::BIGINT AS prev, seed::BIGINT AS cur FROM wseed), "
    )
    key = _xor64_sql("mc.hv", "wm.hw")
    for s in range(1, length + 1):
        sql += (
            f"c{s} AS (SELECT f.walk, f.prev, f.cur, e.dst AS cand "
            f"FROM f{s - 1} f JOIN e ON e.src = f.cur), "
            f"w{s} AS (SELECT c.*, CASE WHEN c.prev < 0 THEN 1 "
            f"WHEN c.cand = c.prev THEN {W_RET} "
            f"WHEN ex.src IS NOT NULL THEN {W_NEAR} ELSE {W_FAR} END AS wt "
            f"FROM c{s} c LEFT JOIN e ex "
            "ON ex.src = c.prev AND ex.dst = c.cand), "
            f"k{s} AS (SELECT w.walk, w.cur, w.cand, wm.c, {key} AS key "
            f"FROM w{s} w JOIN wm ON wm.walk = w.walk AND wm.s = {s} "
            "AND wm.c < w.wt JOIN mc ON mc.v = w.cand), "
            f"f{s} AS (SELECT walk, cur AS prev, cand AS cur FROM "
            "(SELECT *, row_number() OVER (PARTITION BY walk "
            f"ORDER BY key, cand, c) AS rn FROM k{s}) WHERE rn = 1), "
        )
    parts = ["SELECT walk AS walk_id, 0::BIGINT AS step, cur AS vertex_id FROM f0"]
    for s in range(1, length + 1):
        parts.append(
            f"SELECT walk AS walk_id, {s}::BIGINT AS step, cur AS vertex_id "
            f"FROM f{s}"
        )
    return sql.rstrip(", ") + " " + " UNION ALL ".join(parts) + " ORDER BY walk_id, step"


def _khop_oracle_sql(
    edges_glob: str, fanout: int = 3, seed_mod: int = 8
) -> str:
    """Two-hop GraphSAGE sample replay: the splitmix64 ranking key
    mix64(mix64(src) ^ dst) bit-for-bit (`_splitmix64_sql` over HUGEINT —
    vertex ids are non-negative 63-bit so the uint64 mapping is exact),
    ROW_NUMBER-per-src fanout cut, then the hop-1 and hop-2 join chain
    from the vid % seed_mod seed set. Keeps duplicate tree edges across
    parents, as `pipelines.sampling.khop_sample` does.

    Every mix64 ROUND is staged through its own CTE column: each
    `_splitmix64_sql`/`_mul64_sql`/`_xor64_sql` substitution textually
    duplicates its argument (~20x per round, ~10^3x per full mix), so a
    nested mix64(mix64(src)^dst) composes to a ~10^6-term expression that
    neither Python string-building nor DuckDB's parser survives, and even
    one unstaged mix64 costs ~1.6 MB of SQL / ~20 s of parse. Staged
    per-round, every expansion references a bare column and the whole
    oracle is a few KB."""
    GAMMA = 0x9E3779B97F4A7C15
    M1 = 0xBF58476D1CE4E5B9
    M2 = 0x94D049BB133111EB

    def _mix_stages(x: str, out: str, pfx: str) -> str:
        """CTE chain computing out = splitmix64(x), one round per CTE."""
        a = f"((({x})::HUGEINT + {GAMMA}::HUGEINT) % {_M64_SQL})"
        s1 = f"{pfx}1 AS (SELECT *, {a} AS {pfx}z0 FROM {pfx}0), "
        b = _mul64_sql(_xor64_sql(f"{pfx}z0", f"{pfx}z0 // 1073741824"), M1)
        s2 = f"{pfx}2 AS (SELECT *, {b} AS {pfx}z1 FROM {pfx}1), "
        c = _mul64_sql(_xor64_sql(f"{pfx}z1", f"{pfx}z1 // 134217728"), M2)
        s3 = f"{pfx}3 AS (SELECT *, {c} AS {pfx}z2 FROM {pfx}2), "
        d = _xor64_sql(f"{pfx}z2", f"{pfx}z2 // 2147483648")
        s4 = f"{pfx}4 AS (SELECT src, dst, {d} AS {out} FROM {pfx}3), "
        return s1 + s2 + s3 + s4

    return (
        _khop_ctes(edges_glob, fanout, seed_mod, _mix_stages)
        + " SELECT seed, 1::BIGINT AS hop, parent, vertex_id FROM h1 "
        "UNION ALL "
        "SELECT seed, 2::BIGINT AS hop, parent, vertex_id FROM h2 "
        "ORDER BY seed, hop, parent, vertex_id"
    )


def _khop_ctes(edges_glob: str, fanout: int, seed_mod: int, _mix_stages) -> str:
    """Shared CTE chain (WITH e ... h2) replaying the staged splitmix64
    fanout cut and the two-hop join — used by both the khop oracle and
    the SAGE-pooling oracle built on the same tree."""
    return (
        f"WITH e AS (SELECT DISTINCT src, dst FROM read_parquet('{edges_glob}')), "
        "ka0 AS (SELECT src, dst FROM e), "
        + _mix_stages("src", "ms", "ka")
        + f"kb0 AS (SELECT src, dst, {_xor64_sql('ms', 'dst::HUGEINT')} AS mx "
        "FROM ka4), "
        + _mix_stages("mx", "key", "kb")
        + "k AS (SELECT src, dst, key FROM kb4), "
        "adj AS (SELECT src, dst FROM (SELECT src, dst, row_number() OVER "
        "(PARTITION BY src ORDER BY key, dst) AS rn FROM k) "
        f"WHERE rn <= {fanout}), "
        f"seeds AS (SELECT DISTINCT src AS seed FROM e "
        f"WHERE src % {seed_mod} = 0), "
        "h1 AS (SELECT seed, seed AS parent, a.dst AS vertex_id "
        "FROM seeds JOIN adj a ON a.src = seed), "
        "h2 AS (SELECT h1.seed, h1.vertex_id AS parent, a.dst AS vertex_id "
        "FROM h1 JOIN adj a ON a.src = h1.vertex_id)"
    )


def _sage_oracle_sql(
    edges_glob: str, urlmap_glob: str, fanout: int = 3, seed_mod: int = 8,
    dim: int = 8,
) -> str:
    """`pipelines.sampling.sage_features` replay: the khop tree CTEs
    (shared `_khop_ctes`) plus the seed's hop-0 self row, url tokens via
    the same regexp split, FNV bucket counts (`_fnv_tok_sql(42)` — the
    library hash byte-for-byte), duplicate-preserving SUM pooling, and
    the dense seeds x dim zero-filled grid. All-integer, so the compare
    is exact with no rounding convention."""
    # reuse the khop generator's private staged-mix helper by rebuilding
    # the same closure constants here
    GAMMA = 0x9E3779B97F4A7C15
    M1 = 0xBF58476D1CE4E5B9
    M2 = 0x94D049BB133111EB

    def _mix_stages(x: str, out: str, pfx: str) -> str:
        a = f"((({x})::HUGEINT + {GAMMA}::HUGEINT) % {_M64_SQL})"
        s1 = f"{pfx}1 AS (SELECT *, {a} AS {pfx}z0 FROM {pfx}0), "
        b = _mul64_sql(_xor64_sql(f"{pfx}z0", f"{pfx}z0 // 1073741824"), M1)
        s2 = f"{pfx}2 AS (SELECT *, {b} AS {pfx}z1 FROM {pfx}1), "
        c = _mul64_sql(_xor64_sql(f"{pfx}z1", f"{pfx}z1 // 134217728"), M2)
        s3 = f"{pfx}3 AS (SELECT *, {c} AS {pfx}z2 FROM {pfx}2), "
        d = _xor64_sql(f"{pfx}z2", f"{pfx}z2 // 2147483648")
        s4 = f"{pfx}4 AS (SELECT src, dst, {d} AS {out} FROM {pfx}3), "
        return s1 + s2 + s3 + s4

    fnv = _fnv_tok_sql(42)
    return (
        _khop_ctes(edges_glob, fanout, seed_mod, _mix_stages)
        + ", tree AS (SELECT seed, seed AS vertex_id FROM seeds "
        "UNION ALL SELECT seed, vertex_id FROM h1 "
        "UNION ALL SELECT seed, vertex_id FROM h2), "
        f"um AS (SELECT vertex_id, url FROM read_parquet('{urlmap_glob}')), "
        "toks AS (SELECT vertex_id, unnest(list_filter("
        "regexp_split_to_array(lower(url), '[^a-z0-9]+'), x -> x <> '')) "
        "AS tok FROM um), "
        f"fb AS (SELECT vertex_id, CAST(({fnv}) % {dim} AS BIGINT) AS d, "
        "CAST(count(*) AS BIGINT) AS f FROM toks GROUP BY 1, 2), "
        "pooled AS (SELECT t.seed, fb.d, SUM(fb.f) AS f FROM tree t "
        "JOIN fb ON fb.vertex_id = t.vertex_id GROUP BY 1, 2), "
        f"dims AS (SELECT unnest(generate_series(0, {dim - 1})) AS d) "
        "SELECT s.seed, dims.d AS dim, CAST(COALESCE(p.f, 0) AS BIGINT) AS f "
        "FROM (SELECT DISTINCT seed FROM seeds) s CROSS JOIN dims "
        "LEFT JOIN pooled p ON p.seed = s.seed AND p.d = dims.d "
        "ORDER BY s.seed, dims.d"
    )


def _hyperball_oracle_sql(edges_glob: str, p: int = 6) -> str:
    """Ground-truth HyperBall registers: ball membership by recursive BFS
    from the mod-`_NF_SOURCE_MOD` sources (radius `_NF_RADIUS`), register
    index/rho from the splitmix64 replay, per-register MAX merge, then the
    bias-corrected HLL estimate (alpha_64 = 0.709) with the linear-counting
    small-range branch — `functions.sketches.estimate_registers` in SQL.
    The 2^-rho terms are exact powers of two well inside float64's
    mantissa, so the register sum is order-independent and exact."""
    m = 1 << p
    mix = _splitmix64_sql("u")
    shift = 1 << (64 - p)
    return (
        "WITH RECURSIVE "
        f"se AS (SELECT src, dst FROM read_parquet('{edges_glob}')), "
        "verts AS (SELECT DISTINCT v FROM "
        "(SELECT src AS v FROM se UNION ALL SELECT dst FROM se)), "
        f"src AS (SELECT v AS u FROM verts WHERE v % {_NF_SOURCE_MOD} = 0), "
        "w(u, v, d) AS (SELECT u, u, 0 FROM src "
        "UNION SELECT w.u, se.dst, w.d + 1 FROM w JOIN se ON se.src = w.v "
        f"WHERE w.d < {_NF_RADIUS}), "
        "mem AS (SELECT DISTINCT u, v FROM w), "
        f"h AS MATERIALIZED (SELECT u, {mix} AS hv FROM src), "
        f"hb AS (SELECT u, CAST(hv // {shift} AS BIGINT) AS bucket, "
        f"CAST({64 - p} AS BIGINT) - "
        f"(CASE WHEN hv % {shift} = 0 THEN 0 "
        f"ELSE length(bin(CAST(hv % {shift} AS BIGINT))) END) + 1 AS rho "
        "FROM h), "
        "regs AS (SELECT mem.v, hb.bucket, MAX(hb.rho) AS reg "
        "FROM mem JOIN hb ON hb.u = mem.u GROUP BY mem.v, hb.bucket), "
        "agg AS (SELECT v, SUM(power(2.0, -reg)) AS s_nz, "
        "COUNT(*) AS nz, SUM(reg) AS reg_sum FROM regs GROUP BY v), "
        "est AS (SELECT verts.v, COALESCE(agg.reg_sum, 0) AS reg_sum, "
        f"COALESCE(agg.s_nz, 0) + ({m} - COALESCE(agg.nz, 0)) AS sinv, "
        f"{m} - COALESCE(agg.nz, 0) AS zeros "
        "FROM verts LEFT JOIN agg ON agg.v = verts.v), "
        f"raw AS (SELECT v, reg_sum, zeros, 0.709 * {m} * {m} / sinv AS E "
        "FROM est) "
        "SELECT v AS vertex_id, CAST(reg_sum AS BIGINT) AS reg_sum, "
        f"ROUND(CASE WHEN E <= 2.5 * {m} AND zeros > 0 "
        f"THEN {m} * ln({m}::DOUBLE / zeros) ELSE E END, 6) AS est "
        "FROM raw ORDER BY vertex_id"
    )


def _hyperball_nf_oracle_sql(edges_glob: str, p: int = 6) -> str:
    """Ground-truth replay of the TELESCOPED HyperBall neighborhood
    function (converts `graph_neighborhood_approx` from rows-only to
    hash-exact — r4 verdict item 9): the per-radius register state at
    every t is the per-bucket MAX rho over sources within min-distance t
    (the changed-counter forwarding provably preserves this invariant:
    every value a vertex ever holds was forwarded exactly once when first
    attained), so N_hat(t) = sum_v est(regs_t(v)) and the engine's
    per-superstep `nf_delta` history telescopes to N_hat(t) - N_hat(t-1).
    The final superstep T is replayed too: the run ends one step after
    the last register increase (messages arrive, nothing grows, all halt),
    capped at the radius; `+ 0.0` normalizes a possible -0.0 from rounding
    a tiny negative stable-tail delta."""
    m = 1 << p
    r = _NF_RADIUS
    mix = _splitmix64_sql("u")
    shift = 1 << (64 - p)
    est = (
        f"CASE WHEN (0.709 * {m} * {m} / (s_nz + ({m} - nz))) <= {2.5 * m} "
        f"AND ({m} - nz) > 0 "
        f"THEN {m} * ln({m}::DOUBLE / ({m} - nz)) "
        f"ELSE 0.709 * {m} * {m} / (s_nz + ({m} - nz)) END"
    )
    return (
        "WITH RECURSIVE "
        f"se AS (SELECT src, dst FROM read_parquet('{edges_glob}')), "
        "verts AS (SELECT DISTINCT v FROM "
        "(SELECT src AS v FROM se UNION ALL SELECT dst FROM se)), "
        f"src AS (SELECT v AS u FROM verts WHERE v % {_NF_SOURCE_MOD} = 0), "
        "w(u, v, d) AS (SELECT u, u, 0 FROM src "
        "UNION SELECT w.u, se.dst, w.d + 1 FROM w JOIN se ON se.src = w.v "
        f"WHERE w.d < {r}), "
        "md AS (SELECT u, v, MIN(d) AS d FROM w GROUP BY u, v), "
        f"h AS MATERIALIZED (SELECT u, {mix} AS hv FROM src), "
        f"hb AS (SELECT u, CAST(hv // {shift} AS BIGINT) AS bucket, "
        f"CAST({64 - p} AS BIGINT) - "
        f"(CASE WHEN hv % {shift} = 0 THEN 0 "
        f"ELSE length(bin(CAST(hv % {shift} AS BIGINT))) END) + 1 AS rho "
        "FROM h), "
        f"ts AS (SELECT unnest(range(0, {r + 1})) AS t), "
        "regs AS (SELECT ts.t, md.v, hb.bucket, MAX(hb.rho) AS reg "
        "FROM md JOIN hb ON hb.u = md.u JOIN ts ON md.d <= ts.t "
        "GROUP BY ts.t, md.v, hb.bucket), "
        "vest AS (SELECT t, v, SUM(power(2.0, -reg)) AS s_nz, "
        "COUNT(*) AS nz FROM regs GROUP BY t, v), "
        f"pest AS (SELECT t, v, {est} AS est FROM vest), "
        "nhat AS (SELECT t, SUM(est) AS nh FROM pest GROUP BY t), "
        "chg AS (SELECT r1.t AS t FROM regs r1 LEFT JOIN regs r0 "
        "ON r0.t = r1.t - 1 AND r0.v = r1.v AND r0.bucket = r1.bucket "
        "WHERE r1.t >= 1 AND r1.reg > COALESCE(r0.reg, 0)), "
        "tf AS (SELECT CASE WHEN (SELECT count(*) FROM se "
        "JOIN src ON se.src = src.u) = 0 THEN 0 "
        f"ELSE LEAST({r}, COALESCE((SELECT MAX(t) FROM chg), 0) + 1) "
        "END AS tmax) "
        "SELECT ts.t AS t, "
        "ROUND(COALESCE(nhat.nh, 0) - "
        "COALESCE(LAG(COALESCE(nhat.nh, 0)) OVER (ORDER BY ts.t), 0), 3) "
        "+ 0.0 AS new_pairs, "
        "ROUND(COALESCE(nhat.nh, 0), 3) + 0.0 AS cum_pairs "
        "FROM ts LEFT JOIN nhat ON nhat.t = ts.t CROSS JOIN tf "
        "WHERE ts.t <= tf.tmax ORDER BY t"
    )


def _distinct_users_approx_oracle_sql(p: int = 12) -> str:
    """Ground-truth replay of `functions.sketches.approx_distinct_per_group`
    (p=12): splitmix64 hash of each user_id (`_splitmix64_sql`), register
    bucket = top p bits, rho = (64-p) - bit_length(suffix) + 1, per-group
    register MAX, then the bias-corrected HLL estimate. The register sum
    is EXACT on both sides — sum of 2^(63-reg) per register (Python int /
    HUGEINT), zero registers contributing 2^63 — so the only float ops are
    one division, the ln() in the linear-counting branch, and the final
    half-away rounding, each performed identically."""
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / float(m))
    # numerator alpha*m*m*2^63, evaluated HERE and inlined as a literal so
    # both engines divide the identical double by the exact integer sum
    num = alpha * float(m) * float(m) * 2.0**63
    mix = _splitmix64_sql("user_id")
    shift = 1 << (64 - p)
    return (
        "WITH du AS (SELECT DISTINCT event_type, user_id FROM events), "
        f"h AS MATERIALIZED (SELECT event_type, {mix} AS hv FROM du), "
        f"hb AS (SELECT event_type, CAST(hv // {shift} AS BIGINT) AS bucket, "
        f"CAST({64 - p} AS BIGINT) - "
        f"(CASE WHEN hv % {shift} = 0 THEN 0 "
        f"ELSE length(bin(CAST(hv % {shift} AS BIGINT))) END) + 1 AS rho "
        "FROM h), "
        "regs AS (SELECT event_type, bucket, MAX(rho) AS reg "
        "FROM hb GROUP BY event_type, bucket), "
        "agg AS (SELECT event_type, "
        "SUM(CAST(1::BIGINT << CAST(63 - reg AS INTEGER) AS HUGEINT)) AS s_nz, "
        "COUNT(*) AS nz FROM regs GROUP BY event_type), "
        f"est AS (SELECT event_type, s_nz + ({m} - nz)::HUGEINT * "
        f"9223372036854775808::HUGEINT AS S, {m} - nz AS zeros FROM agg), "
        f"raw AS (SELECT event_type, zeros, {num!r} / S AS E FROM est) "
        f"SELECT event_type, CAST(FLOOR(CASE WHEN E <= {2.5 * m} AND zeros > 0 "
        f"THEN {m} * ln({m}::DOUBLE / zeros) ELSE E END + 0.5) AS BIGINT) "
        "AS n_approx FROM raw ORDER BY event_type"
    )


def _ivf_oracle_sql(sf_dir: str) -> str:
    """Replay of `knn_ivf_indexed` over the STAGED index (converts
    emb_knn_ivf from rows-only to hash-exact — the staged-input oracle
    pattern): probe selection = top-`_IVF_NPROBE` clusters per query by
    centroid dot (normalization of the query scales all of a query's dots
    equally, so raw-embedding dots rank identically to the engine's
    normalized ones; ties to the LOWER cluster id = np.argsort stability),
    membership = DISTINCT vec_ids in the UNION of all probed clusters'
    files (replica copies dedup, exactly `_topk_final_merge`'s rule, and
    the union — not per-query cells — is what the engine scans), ranking =
    exact cosine within the membership, ties to the lower vec_id."""
    index_dir = _ensure_ivf_index(sf_dir)
    cen_path = os.path.join(index_dir, "centroids_long.parquet")
    glob = os.path.join(index_dir, "cluster_*.parquet")
    return (
        f"WITH cen AS (SELECT * FROM '{cen_path}'), "
        "q AS (SELECT vec_id AS query_id, CAST(unnest(embedding) AS DOUBLE) AS v, "
        "unnest(generate_series(1, len(embedding))) AS i "
        "FROM embeddings WHERE vec_id < 3), "
        "s AS (SELECT q.query_id, cen.cluster, SUM(q.v * cen.w) AS dot "
        "FROM q JOIN cen ON cen.dim = q.i - 1 GROUP BY q.query_id, cen.cluster), "
        "pr AS (SELECT cluster FROM (SELECT cluster, row_number() OVER "
        "(PARTITION BY query_id ORDER BY dot DESC, cluster ASC) AS r FROM s) "
        f"WHERE r <= {_IVF_NPROBE}), "
        "probed AS (SELECT DISTINCT cluster FROM pr), "
        f"mem AS (SELECT DISTINCT f.vec_id FROM read_parquet('{glob}', "
        "filename=true) f JOIN probed ON probed.cluster = "
        "CAST(regexp_extract(f.filename, 'cluster_(\\d+)\\.parquet', 1) AS BIGINT)), "
        "qe AS (SELECT vec_id AS query_id, embedding AS qe "
        "FROM embeddings WHERE vec_id < 3) "
        "SELECT query_id, vec_id, rank FROM ("
        "SELECT qe.query_id AS query_id, e.vec_id AS vec_id, "
        "row_number() OVER (PARTITION BY qe.query_id ORDER BY "
        "list_cosine_similarity(e.embedding, qe.qe) DESC, e.vec_id ASC) AS rank "
        "FROM embeddings e JOIN mem ON mem.vec_id = e.vec_id CROSS JOIN qe) "
        f"WHERE rank <= {_IVF_K} ORDER BY query_id, rank"
    )


def _lsh_oracle_sql() -> str:
    """Replay of `stages/dedup.HyperplaneBucketer` + `embedding_near_dup`
    over the staged corpus/planes: per-(vector, hyperplane) dot sign ->
    per-table bucket key -> candidate pairs colliding in ANY table (the
    OR-amplification) -> exact-cosine verify at tau. Same inputs, same
    strict `dot > 0` sign rule, same max(norm, 1e-12) guard."""
    cpath, ppath = _stage_lsh_inputs(_ORACLE_SF)
    nb = _LSH_NBITS
    return (
        f"WITH c AS MATERIALIZED (SELECT * FROM '{cpath}'), "
        f"pl AS (SELECT * FROM '{ppath}'), "
        "s AS MATERIALIZED (SELECT c.vec_id, pl.bit, SUM(c.val * pl.w) AS dot "
        "FROM c JOIN pl ON pl.dim = c.dim GROUP BY c.vec_id, pl.bit), "
        f"bk AS (SELECT vec_id, bit // {nb} AS tbl, "
        f"SUM(CASE WHEN dot > 0 THEN 1 << (bit % {nb}) ELSE 0 END) AS bucket "
        f"FROM s GROUP BY vec_id, bit // {nb}), "
        "cand AS (SELECT DISTINCT b1.vec_id AS a, b2.vec_id AS b FROM bk b1 "
        "JOIN bk b2 ON b1.tbl = b2.tbl AND b1.bucket = b2.bucket "
        "AND b1.vec_id < b2.vec_id), "
        "nrm AS MATERIALIZED (SELECT vec_id, "
        "GREATEST(sqrt(SUM(val * val)), 1e-12) AS n FROM c GROUP BY vec_id), "
        "dt AS (SELECT cand.a, cand.b, SUM(ca.val * cb.val) AS dot "
        "FROM cand JOIN c ca ON ca.vec_id = cand.a "
        "JOIN c cb ON cb.vec_id = cand.b AND cb.dim = ca.dim "
        "GROUP BY cand.a, cand.b) "
        "SELECT dt.a, dt.b FROM dt "
        "JOIN nrm na ON na.vec_id = dt.a JOIN nrm nb2 ON nb2.vec_id = dt.b "
        f"WHERE dt.dot / (na.n * nb2.n) >= {_LSH_TAU} ORDER BY a, b"
    )


def _bm25_oracle_sql(query: str, k: int, k1: float, b: float) -> str:
    """Exact replay of stages/textstats.py::bm25_topk: Robertson idf over
    the full corpus, per-term contributions added as an ORDERED scalar
    chain (sorted-term order = the pipeline's fixed loop order, so the
    float sum is bit-identical, never SUM()-order-dependent), ROUND to 6,
    rank on the rounded score with doc_id asc tie-break."""
    from graphlite_ray.functions.tokenize import lower_tokens

    terms = sorted(set(lower_tokens(query)))
    k1s = f"CAST({k1!r} AS DOUBLE)"
    bs = f"CAST({b!r} AS DOUBLE)"
    tf_cols = ", ".join(
        f"len(list_filter(t, x -> x = '{w}')) AS tf{i}" for i, w in enumerate(terms)
    )
    df_cols = ", ".join(
        f"CAST(count(CASE WHEN tf{i} > 0 THEN 1 END) AS BIGINT) AS df{i}"
        for i in range(len(terms))
    )
    idf_cols = ", ".join(
        f"ln(((SELECT nd FROM n) - df{i} + 0.5) / (df{i} + 0.5) + 1.0) AS idf{i}"
        for i in range(len(terms))
    )
    contribs = " + ".join(
        f"(CASE WHEN tf{i} > 0 THEN s.idf{i} * ((tf{i} * ({k1s} + 1.0)) / "
        f"(tf{i} + {k1s} * (1.0 - {bs} + {bs} * dl / s.avgdl))) "
        "ELSE CAST(0.0 AS DOUBLE) END)"
        for i in range(len(terms))
    )
    hit = " OR ".join(f"tf{i} > 0" for i in range(len(terms)))
    return (
        "WITH toks AS (SELECT doc_id, list_filter("
        f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '') AS t "
        "FROM documents), "
        "n AS (SELECT CAST(count(*) AS DOUBLE) AS nd FROM documents), "
        f"per AS (SELECT doc_id, CAST(len(t) AS DOUBLE) AS dl, {tf_cols} "
        "FROM toks), "
        f"dfs AS (SELECT {df_cols}, "
        "CAST(sum(CAST(dl AS BIGINT)) AS DOUBLE) / (SELECT nd FROM n) AS avgdl "
        "FROM per), "
        f"stats AS (SELECT avgdl, {idf_cols} FROM dfs), "
        f"scored AS (SELECT doc_id, ROUND({contribs}, 6) AS score "
        f"FROM per, stats s WHERE dl > 0 AND ({hit})), "
        "ranked AS (SELECT doc_id, score, row_number() OVER "
        "(ORDER BY score DESC, doc_id) AS rn FROM scored) "
        f"SELECT doc_id, score FROM ranked WHERE rn <= {k} "
        "ORDER BY score DESC, doc_id"
    )


def _cms_oracle_sql(width: int, depth: int) -> str:
    """Exact replay of the CMS estimates (functions/sketches.py::
    cms_token_table + cms_estimates over the full vocabulary): per salt r,
    bucket = fnv(tok, prefix 42+r) % width; cell = sum of counts of every
    token in it; estimate = min over rows — an approximate operator with
    an exact SQL oracle because the hash family is deterministic."""
    bucket = "CASE " + " ".join(
        f"WHEN r = {r} THEN CAST({_fnv_tok_sql(42 + r)} % {width} AS BIGINT)"
        for r in range(depth)
    ) + " END"
    rs = ", ".join(f"({r})" for r in range(depth))
    return (
        "WITH toks AS (SELECT unnest(list_filter("
        f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '')) AS tok "
        "FROM documents), "
        "tc AS (SELECT tok, CAST(count(*) AS BIGINT) AS c FROM toks "
        "GROUP BY tok), "
        f"hb AS (SELECT tok, c, r, {bucket} AS bucket "
        f"FROM tc CROSS JOIN (VALUES {rs}) rs(r)), "
        "cms AS (SELECT r, bucket, CAST(sum(c) AS BIGINT) AS cc "
        "FROM hb GROUP BY r, bucket) "
        "SELECT h.tok AS token, CAST(min(cms.cc) AS BIGINT) AS n_est "
        "FROM hb h JOIN cms ON cms.r = h.r AND cms.bucket = h.bucket "
        "GROUP BY h.tok ORDER BY token"
    )


def _simhash_oracle_sql() -> str:
    """Full pure-SQL replication of the SimHash pipeline: FNV-1a-64 token
    hashes (seed prefix 42, UTF-8 bytes derived arithmetically from
    codepoints, HUGEINT mod-2^64 arithmetic, list_reduce), per-document
    64-bit majority votes over token instances, then EXHAUSTIVE
    Hamming<=3 pairs via bit_count(xor). This equals the pipeline's
    banded output EXACTLY by pigeonhole: 3 differing bits touch at most
    3 of the 4 16-bit bands, so every qualifying pair shares a band —
    banding recall is 1, not data-dependent (stages/dedup.py:401-405)."""
    M64 = "18446744073709551616::HUGEINT"
    PRIME = "1099511628211::HUGEINT"
    OFF = "14695981039346656037::HUGEINT"
    HALF = "9223372036854775808::HUGEINT"
    wrap = f"CAST(acc - CASE WHEN acc >= {HALF} THEN {M64} ELSE 0::HUGEINT END AS BIGINT)"
    step = (
        f"((xor({wrap}, CAST(byte AS BIGINT))::HUGEINT + "
        f"CASE WHEN xor({wrap}, CAST(byte AS BIGINT)) < 0 THEN {M64} "
        f"ELSE 0::HUGEINT END) * {PRIME}) % {M64}"
    )
    utf8 = _utf8_bytes_sql("tok")
    fnv = (
        f"list_reduce(list_concat([{OFF}], "
        f"list_transform(list_concat([42,0,0,0,0,0,0,0], {utf8}), x -> x::HUGEINT)), "
        f"(acc, byte) -> {step})"
    )
    mask = "CASE WHEN j = 63 THEN (-9223372036854775808)::BIGINT ELSE (1::BIGINT << j) END"
    bitval = f"CASE WHEN j = 63 THEN {HALF} ELSE (1::BIGINT << j)::HUGEINT END"
    return (
        "WITH toks AS (SELECT doc_id, unnest(list_filter("
        f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '')) AS tok "
        "FROM documents), "
        f"th AS (SELECT doc_id, {fnv} AS hh FROM toks), "
        "thb AS (SELECT doc_id, CAST(hh - CASE WHEN hh >= "
        f"{HALF} THEN {M64} ELSE 0::HUGEINT END AS BIGINT) AS hb FROM th), "
        "votes AS (SELECT doc_id, j, "
        f"sum(CASE WHEN (hb & ({mask})) <> 0 THEN 1 ELSE -1 END) AS v "
        "FROM thb, (SELECT unnest(generate_series(0, 63)) AS j) "
        "GROUP BY doc_id, j), "
        "sims0 AS (SELECT doc_id, "
        f"sum(CASE WHEN v > 0 THEN {bitval} ELSE 0::HUGEINT END) AS simw "
        "FROM votes GROUP BY doc_id), "
        "sims AS (SELECT d.doc_id, coalesce(CAST(s.simw - CASE WHEN "
        f"s.simw >= {HALF} THEN {M64} ELSE 0::HUGEINT END AS BIGINT), 0) AS sim "
        "FROM (SELECT DISTINCT doc_id FROM documents) d "
        "LEFT JOIN sims0 s USING (doc_id)) "
        "SELECT a.doc_id AS a, b.doc_id AS b "
        "FROM sims a JOIN sims b ON a.doc_id < b.doc_id "
        "WHERE bit_count(xor(a.sim, b.sim)) <= 3 ORDER BY a, b"
    )


def _fingerprint_oracle_sql() -> str:
    """Pure-SQL replication of the rolling-window fingerprint
    (stages/textstats.py::fingerprint): the 8-byte window poly hash has NO
    xor inside, so each window hash is LINEAR in its bytes — computed as
    sum(byte[i+k] * B^(7-k)) mod 2^64 with precomputed HUGEINT power
    constants (one list_transform per doc, no per-window reduce). Then the
    4 smallest distinct window hashes xor-fold with B^(i+1), masked to
    63 bits exactly like the pipeline."""
    B = 1099511628211
    M = 1 << 64
    POW = [pow(B, k, M) for k in range(9)]
    FOLD = [pow(B, i + 1, M) for i in range(4)]
    fold_list = ", ".join(str(x) + "::HUGEINT" for x in FOLD)
    M64 = "18446744073709551616::HUGEINT"
    HALF = "9223372036854775808::HUGEINT"
    win = " + ".join(
        "(b[i+%d]::HUGEINT * %d::HUGEINT) %% %s" % (k, POW[7 - k], M64)
        for k in range(8)
    )
    win = ("((" + win + ") %% %s)" % M64).replace("%%", "%")
    utf8 = _utf8_bytes_sql("text")
    term = "(mins[i] * ([" + fold_list + "][i])) % " + M64
    wterm = (
        "CAST(" + term + " - CASE WHEN " + term + " >= " + HALF
        + " THEN " + M64 + " ELSE 0::HUGEINT END AS BIGINT)"
    )
    fold_terms = "list_transform(generate_series(1, len(mins)), i -> " + wterm + ")"
    return (
        """
WITH by AS (
  SELECT doc_id,
    (SELECT CASE WHEN len(u) >= 8 THEN u
            ELSE list_concat(u, list_transform(generate_series(1, 8 - len(u)), x -> 0)) END
     FROM (SELECT UTF8 AS u)) AS b
  FROM documents
),
wins AS (
  SELECT doc_id, list_transform(generate_series(1, len(b) - 7), i -> WIN) AS wh
  FROM by
),
mins_t AS (SELECT doc_id, list_sort(list_distinct(wh))[:4] AS mins FROM wins),
folded AS (
  SELECT doc_id,
    list_reduce(list_prepend(0::BIGINT, FOLDTERMS), (a, b2) -> xor(a, b2)) AS raw
  FROM mins_t
)
SELECT doc_id, raw & 9223372036854775807 AS fp FROM folded ORDER BY doc_id
"""
        .replace("UTF8", utf8)
        .replace("WIN", win)
        .replace("FOLDTERMS", fold_terms)
    )


def oracle_sql() -> dict[str, str]:
    from graphlite_ray.stages.bpe import bpe_doc_counts_sql

    edges_glob = _staged_edges_glob()
    host_glob = os.path.join(_host_edges_dir(_ORACLE_SF), "*.parquet")
    sssp_src = _sssp_source(_ORACLE_SF)
    pages_glob = os.path.join(_graph_work(_ORACLE_SF)[0], "*.parquet")
    return {
        # --- extraction oracle: DuckDB re-implements the frozen anchor
        # extractor (regex + http filter + fragment strip) directly over
        # the raw page html — fully independent of our code path
        "extract_edges": (
            "SELECT src_url, CASE WHEN strpos(href, '#') > 0 "
            "THEN substr(href, 1, strpos(href, '#') - 1) ELSE href END AS dst_url "
            "FROM (SELECT url AS src_url, "
            "unnest(regexp_extract_all(decode(html), "
            "'<a\\b[^>]*?href=\"([^\"]*)\"', 1)) AS href "
            f"FROM read_parquet('{pages_glob}')) "
            "WHERE href LIKE 'http://%' OR href LIKE 'https://%'"
        ),
        # --- anchor-text oracle: RE2 re-extracts full anchor elements from
        # the raw html and replays the v1 anchor-text contract (entity
        # chain with &amp; LAST, ASCII-ws collapse, space-trim) — fully
        # independent of the Python extractor
        "anchor_text_index": (
            "WITH m AS (SELECT url AS src_url, "
            "unnest(regexp_extract_all(decode(html), "
            "'(?is)<a\\b[^>]*?href=\"[^\"]*\"[^>]*>[^<]*</a\\s*>')) AS tag "
            f"FROM read_parquet('{pages_glob}')), "
            "p AS (SELECT src_url, "
            "regexp_extract(tag, '(?is)<a\\b[^>]*?href=\"([^\"]*)\"', 1) AS href, "
            "trim(regexp_replace("
            "replace(replace(replace(replace(replace("
            "regexp_extract(tag, '(?is)>([^<]*)</a\\s*>$', 1), "
            "'&lt;', '<'), '&gt;', '>'), '&quot;', '\"'), '&#39;', ''''), "
            "'&amp;', '&'), "
            f"'{_WS}', ' ', 'g'), ' ') AS anchor_text FROM m), "
            "q AS (SELECT src_url, anchor_text, "
            "CASE WHEN strpos(href, '#') > 0 "
            "THEN substr(href, 1, strpos(href, '#') - 1) ELSE href END AS dst_url "
            "FROM p WHERE href LIKE 'http://%' OR href LIKE 'https://%') "
            "SELECT dst_url, anchor_text, count(*) AS n_refs, "
            "count(DISTINCT src_url) AS n_src_pages "
            "FROM q WHERE dst_url <> '' GROUP BY dst_url, anchor_text"
        ),
        # --- link-graph oracles over the staged edge table ---------------
        "out_degrees": (
            f"SELECT src, count(*) AS out_degree "
            f"FROM read_parquet('{edges_glob}') GROUP BY src ORDER BY src"
        ),
        "triangle_count": (
            # triangles of the simple undirected graph: canonical distinct
            # (a<b) edges, each triangle counted once as a<b<c
            f"WITH e AS (SELECT DISTINCT least(src, dst) AS a, "
            f"greatest(src, dst) AS b FROM read_parquet('{edges_glob}') "
            f"WHERE src <> dst) "
            f"SELECT count(*) AS n_triangles "
            f"FROM e e1 JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b "
            f"JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b"
        ),
        "graph_transitivity": (
            # 3*T/W on the simple undirected graph; W from degrees
            f"WITH e AS (SELECT DISTINCT least(src, dst) AS a, "
            f"greatest(src, dst) AS b FROM read_parquet('{edges_glob}') "
            "WHERE src <> dst), "
            "tri AS (SELECT count(*) AS t FROM e e1 "
            "JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b "
            "JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b), "
            "deg AS (SELECT v, count(*) AS d FROM "
            "(SELECT a AS v FROM e UNION ALL SELECT b FROM e) GROUP BY v), "
            "w AS (SELECT SUM(d * (d - 1) // 2) AS nw FROM deg) "
            "SELECT CAST(tri.t AS BIGINT) AS n_triangles, "
            "CAST(w.nw AS BIGINT) AS n_wedges, "
            "ROUND(CASE WHEN w.nw = 0 THEN 0.0 "
            "ELSE (3.0 * tri.t) / w.nw END, 6) AS transitivity "
            "FROM tri, w"
        ),
        "triangle_count_approx": (
            # DOULION replay: the SAME deterministic pair-hash sample
            # (pipelines/triangles.py::_edge_sample_mask, pct=50), exact
            # count over the sampled graph, one fixed float scale
            f"WITH e AS (SELECT a, b FROM (SELECT DISTINCT "
            f"least(src, dst) AS a, greatest(src, dst) AS b "
            f"FROM read_parquet('{edges_glob}') WHERE src <> dst) "
            "WHERE ((a % 2147483648) * 2654435761 % 4294967296 "
            "+ (b % 2147483648) * 40503) % 4294967296 % 100 < 50) "
            "SELECT CAST(count(*) AS DOUBLE) * 2.0 * 2.0 * 2.0 "
            "AS n_triangles_est "
            "FROM e e1 JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b "
            "JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b"
        ),
        # --- iterative graph algorithms: recursive-CTE replays of the
        # engine's recurrence + halt rule (see the builder docstrings) -----
        "pagerank": _pagerank_oracle_sql(edges_glob, weighted=False),
        "graph_katz": _katz_oracle_sql(edges_glob, alpha=0.05, iters=10),
        "graph_eigenvector": _eigenvector_oracle_sql(edges_glob, iters=8),
        # incremental build (half + delta-merge) is bit-identical to the
        # one-shot build, so the identical fixpoint replay oracles it
        "graph_incremental_pagerank": _pagerank_oracle_sql(edges_glob, weighted=False),
        "weighted_pagerank": _pagerank_oracle_sql(edges_glob, weighted=True),
        "host_pagerank": _pagerank_oracle_sql(
            host_glob, weighted=False, src="src_host", dst="dst_host",
            out_name="host",
        ),
        "graph_cliques4": (
            # id-ordered 6-way self-join: one row per quadruple a<b<c<d
            # with all six edges present; orientation-invariant, so the
            # engine's (degree, id) orientation must produce the same count
            f"WITH e AS (SELECT DISTINCT least(src_host, dst_host) AS a, "
            f"greatest(src_host, dst_host) AS b FROM read_parquet('{host_glob}') "
            "WHERE src_host <> dst_host) "
            "SELECT CAST(count(*) AS BIGINT) AS cliques4 "
            "FROM e ab JOIN e ac ON ac.a = ab.a AND ac.b > ab.b "
            "JOIN e ad ON ad.a = ab.a AND ad.b > ac.b "
            "JOIN e bc ON bc.a = ab.b AND bc.b = ac.b "
            "JOIN e bd ON bd.a = ab.b AND bd.b = ad.b "
            "JOIN e cd ON cd.a = ac.b AND cd.b = ad.b"
        ),
        "host_edge_counts": (
            # INDEPENDENT host extraction: SQL regexp over the page-level
            # urls (not the staged host table) — verifies the Python host
            # collapse itself; host_pagerank then verifies the recurrence
            # over the staged host edges
            f"SELECT src_host, dst_host, count(*) AS n FROM ("
            f"SELECT regexp_extract(src_url, '^[a-z]+://([^/]+)', 1) AS src_host, "
            f"regexp_extract(dst_url, '^[a-z]+://([^/]+)', 1) AS dst_host "
            f"FROM read_parquet('{edges_glob}')) "
            f"WHERE src_host <> '' AND dst_host <> '' "
            f"GROUP BY src_host, dst_host ORDER BY src_host, dst_host"
        ),
        "connected_components": _cc_oracle_sql(edges_glob),
        "label_propagation": _lpa_oracle_sql(edges_glob),
        "kcore": _kcore_oracle_sql(edges_glob, k=4),
        # rich-club curve: cumulative strictly-greater histograms of
        # degree (N_k) and per-edge min-degree (E_k) on the simple graph
        "graph_rich_club": (
            f"WITH e AS (SELECT DISTINCT least(src, dst) AS lo, "
            f"greatest(src, dst) AS hi FROM read_parquet('{edges_glob}') "
            "WHERE src <> dst), "
            "deg AS (SELECT v, CAST(count(*) AS BIGINT) AS d FROM "
            "(SELECT lo AS v FROM e UNION ALL SELECT hi FROM e) GROUP BY v), "
            "m AS (SELECT least(da.d, db.d) AS md FROM e "
            "JOIN deg da ON da.v = e.lo JOIN deg db ON db.v = e.hi), "
            "ks AS (SELECT DISTINCT d AS k FROM deg) "
            "SELECT k, "
            "(SELECT CAST(count(*) AS BIGINT) FROM deg WHERE d > k) AS n_k, "
            "(SELECT CAST(count(*) AS BIGINT) FROM m WHERE md > k) AS e_k, "
            "ROUND(CASE WHEN (SELECT count(*) FROM deg WHERE d > k) >= 2 "
            "THEN 2.0 * (SELECT count(*) FROM m WHERE md > k) / "
            "((SELECT count(*) FROM deg WHERE d > k) * "
            "((SELECT count(*) FROM deg WHERE d > k) - 1.0)) "
            "ELSE 0.0 END, 6) AS phi "
            "FROM ks ORDER BY k"
        ),
        # densest-subgraph peeling: survivors_{r+1} = vertices with
        # deg * V > E2 (exact integer cross-multiplication, never floats);
        # densest round via the pairwise cross-compare NOT EXISTS
        "graph_densest": (
            f"WITH RECURSIVE {_sym_edges_cte(edges_glob)}, "
            "pe(iter, v, deg, n, e2) AS ("
            "SELECT 0, d.v, d.deg, count(*) OVER ()::BIGINT, "
            "sum(d.deg) OVER ()::BIGINT "
            "FROM (SELECT src AS v, count(*)::BIGINT AS deg FROM se "
            "GROUP BY src) d "
            "UNION ALL "
            "SELECT p.iter + 1, p.v, coalesce(m.c, 0)::BIGINT, "
            "count(*) OVER ()::BIGINT, sum(coalesce(m.c, 0)) OVER ()::BIGINT "
            "FROM pe p "
            "LEFT JOIN (SELECT e.src AS v, count(*)::BIGINT AS c FROM se e "
            "JOIN pe a ON a.v = e.src AND a.deg * a.n > a.e2 "
            "JOIN pe b ON b.v = e.dst AND b.deg * b.n > b.e2 "
            "GROUP BY e.src) m ON m.v = p.v "
            "WHERE p.deg * p.n > p.e2 AND p.iter < 300), "
            "pr AS (SELECT v, max(iter) AS peel_round FROM pe GROUP BY v), "
            "dens AS (SELECT DISTINCT iter, n, e2 FROM pe), "
            "best AS (SELECT iter FROM dens r WHERE NOT EXISTS ("
            "SELECT 1 FROM dens s WHERE s.e2 * r.n > r.e2 * s.n "
            "OR (s.e2 * r.n = r.e2 * s.n AND s.iter < r.iter))) "
            "SELECT pr.v AS vertex_id, CAST(pr.peel_round AS BIGINT) "
            "AS peel_round, CAST(CASE WHEN pr.peel_round >= "
            "(SELECT iter FROM best) THEN 1 ELSE 0 END AS BIGINT) "
            "AS in_densest FROM pr ORDER BY vertex_id"
        ),
        "sssp": (
            # unit-weight directed shortest paths from the page-0 vertex;
            # (vertex, dist) pairs dedup via UNION, bounded by dist<150
            f"WITH RECURSIVE walk(vertex_id, value) AS ("
            f"SELECT CAST({sssp_src} AS BIGINT) AS vertex_id, "
            f"CAST(0 AS DOUBLE) AS value "
            f"UNION "
            f"SELECT e.dst AS vertex_id, w.value + 1.0 AS value "
            f"FROM walk w JOIN read_parquet('{edges_glob}') e "
            f"ON e.src = w.vertex_id WHERE w.value < 150) "
            f"SELECT vertex_id, min(value) AS value FROM walk "
            f"GROUP BY vertex_id ORDER BY vertex_id"
        ),
        "sssp_weighted": (
            # weighted walk: xor5 integer edge weights, min distance per
            # vertex; integer sums in doubles are exact on both sides
            f"WITH RECURSIVE walk(vertex_id, value) AS ("
            f"SELECT CAST({sssp_src} AS BIGINT) AS vertex_id, "
            f"CAST(0 AS DOUBLE) AS value "
            f"UNION "
            f"SELECT e.dst AS vertex_id, "
            f"w.value + (xor(e.src, e.dst) % 5 + 1) AS value "
            f"FROM walk w JOIN read_parquet('{edges_glob}') e "
            f"ON e.src = w.vertex_id WHERE w.value < 400) "
            f"SELECT vertex_id, min(value) AS value FROM walk "
            f"GROUP BY vertex_id ORDER BY vertex_id"
        ),
        "reshard_out_degrees": (
            # identical to out_degrees ON PURPOSE: the query recounts from
            # the RESHARDED P=5 layout; equality proves the repartition
            # shuffle moved every edge exactly once
            f"SELECT src, count(*) AS out_degree "
            f"FROM read_parquet('{edges_glob}') GROUP BY src ORDER BY src"
        ),
        "personalized_pagerank": _pagerank_oracle_sql(
            edges_glob, weighted=False, seeds=_ppr_seeds(_ORACLE_SF)
        ),
        "hits_authority": _hits_oracle_sql(edges_glob, iters=_HITS_ITERS),
        "vertex_triangles": (
            # independent 3-way self-join on the id-oriented distinct edge
            # set (a<b<c); each triangle credits all three corners;
            # clustering = 2t / (d(d-1)) over the simple-graph degree
            f"WITH e AS (SELECT DISTINCT least(src, dst) AS lo, "
            f"greatest(src, dst) AS hi FROM read_parquet('{edges_glob}') "
            "WHERE src <> dst), "
            "tri AS (SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c "
            "FROM e e1 JOIN e e2 ON e2.lo = e1.hi "
            "JOIN e e3 ON e3.lo = e1.lo AND e3.hi = e2.hi), "
            "credits AS (SELECT a AS v FROM tri UNION ALL "
            "SELECT b FROM tri UNION ALL SELECT c FROM tri), "
            "verts AS (SELECT lo AS v FROM e UNION SELECT hi FROM e), "
            "deg AS (SELECT v, count(*) AS d FROM "
            "(SELECT lo AS v FROM e UNION ALL SELECT hi FROM e) GROUP BY v) "
            "SELECT vt.v AS vertex_id, "
            "CAST(coalesce(t.n, 0) AS BIGINT) AS triangles, "
            "ROUND(CASE WHEN dg.d >= 2 THEN "
            "2.0 * coalesce(t.n, 0) / (dg.d * (dg.d - 1.0)) "
            "ELSE 0.0 END, 6) AS clustering "
            "FROM verts vt "
            "LEFT JOIN (SELECT v, count(*) AS n FROM credits GROUP BY v) t "
            "ON t.v = vt.v JOIN deg dg ON dg.v = vt.v ORDER BY vertex_id"
        ),
        "graph_reciprocity": (
            f"WITH d AS (SELECT DISTINCT src, dst "
            f"FROM read_parquet('{edges_glob}') WHERE src <> dst) "
            "SELECT CAST(count(*) AS BIGINT) AS total_edges, "
            "CAST(sum(CASE WHEN r.src IS NOT NULL THEN 1 ELSE 0 END) "
            "AS BIGINT) AS reciprocal_edges, "
            "ROUND(sum(CASE WHEN r.src IS NOT NULL THEN 1.0 ELSE 0.0 END) "
            "/ count(*), 6) AS reciprocity "
            "FROM d LEFT JOIN d r ON r.src = d.dst AND r.dst = d.src"
        ),
        "graph_avg_nbr_degree": (
            f"WITH deg AS (SELECT src AS v, CAST(count(*) AS BIGINT) AS d "
            f"FROM read_parquet('{edges_glob}') GROUP BY src) "
            "SELECT e.src AS vertex_id, "
            "ROUND(CAST(sum(COALESCE(deg.d, 0)) AS DOUBLE) / count(*), 6) "
            "AS avg_nbr_deg "
            f"FROM read_parquet('{edges_glob}') e "
            "LEFT JOIN deg ON deg.v = e.dst "
            "GROUP BY e.src ORDER BY vertex_id"
        ),
        "graph_khop_sample": _khop_oracle_sql(edges_glob),
        "graph_biased_walks": _n2v_oracle_sql(
            edges_glob, _walk_seeds(_ORACLE_SF), _N2V_LEN
        ),
        "graph_sage_features": _sage_oracle_sql(
            edges_glob,
            os.path.join(os.path.dirname(os.path.dirname(edges_glob)),
                         "urlmap_p*.parquet"),
        ),
        # skip-gram pairs = the biased-walk trace replay self-joined
        # within the +-2 window
        "walk_skipgram_pairs": (
            "WITH trace AS (SELECT * FROM ("
            + _n2v_oracle_sql(edges_glob, _walk_seeds(_ORACLE_SF), _N2V_LEN)
            + ")) SELECT a.walk_id, a.step AS center_step, "
            "a.vertex_id AS center, b.vertex_id AS context "
            "FROM trace a JOIN trace b ON a.walk_id = b.walk_id "
            "AND abs(b.step - a.step) <= 2 AND b.step <> a.step "
            "ORDER BY a.walk_id, center_step, context"
        ),
        "graph_modularity": _modularity_oracle_sql(edges_glob),
        "graph_coreness": _coreness_oracle_sql(edges_glob),
        "graph_bipartite": _bipartite_oracle_sql(edges_glob),
        "graph_seeded_labels": _seeded_lpa_oracle_sql(
            edges_glob, _seeded_lpa_seeds(_ORACLE_SF)
        ),
        "graph_vertex_cover": (
            "SELECT vertex_id FROM ("
            + _matching_oracle_sql(edges_glob)
            + ") WHERE partner <> -1 ORDER BY vertex_id"
        ),
        "graph_component_sizes": (
            "SELECT size, CAST(count(*) AS BIGINT) AS n_components FROM ("
            "SELECT value, CAST(count(*) AS BIGINT) AS size FROM ("
            + _cc_oracle_sql(edges_glob)
            + ") GROUP BY value) GROUP BY size ORDER BY size"
        ),
        "graph_betweenness": _betweenness_oracle_sql(
            edges_glob, _ppr_seeds(_ORACLE_SF)
        ),
        "graph_truss3": (
            # peeling replay: per round keep edges with >= 1 common
            # neighbor within the CURRENT set (k=3 -> k-2=1; inner join +
            # HAVING is exact because support-0 edges can never survive);
            # a no-removal round re-emits the set once and the n < prevn
            # guard then stops. Final support recomputed over the fixpoint
            # set. Assumes a NON-EMPTY truss (holds at sf0.01; the
            # empty-truss path is covered by pytest brute force).
            f"WITH RECURSIVE se AS (SELECT DISTINCT least(src, dst) AS lo, "
            f"greatest(src, dst) AS hi FROM read_parquet('{edges_glob}') "
            "WHERE src <> dst), "
            "es(r, lo, hi, n, prevn) AS ("
            "SELECT 0, lo, hi, (SELECT count(*) FROM se)::BIGINT, "
            "(SELECT count(*) FROM se)::BIGINT + 1 FROM se "
            "UNION ALL "
            "SELECT r + 1, lo, hi, count(*) OVER ()::BIGINT, n FROM ("
            "SELECT m.r AS r, m.lo AS lo, m.hi AS hi, m.n AS n "
            "FROM es m "
            "JOIN (SELECT lo AS u, hi AS w FROM es "
            "UNION ALL SELECT hi, lo FROM es) a ON a.u = m.lo "
            "JOIN (SELECT lo AS u, hi AS w FROM es "
            "UNION ALL SELECT hi, lo FROM es) b "
            "ON b.u = m.hi AND b.w = a.w "
            "WHERE m.n > 0 AND m.n < m.prevn AND m.r < 60 "
            "GROUP BY m.r, m.lo, m.hi, m.n "
            "HAVING count(*) >= 1)), "
            "fin AS (SELECT lo, hi FROM es "
            "WHERE r = (SELECT max(r) FROM es)), "
            "und AS (SELECT lo AS u, hi AS w FROM fin "
            "UNION ALL SELECT hi, lo FROM fin) "
            "SELECT f.lo, f.hi, CAST(count(*) AS BIGINT) AS sup "
            "FROM fin f JOIN und a ON a.u = f.lo "
            "JOIN und b ON b.u = f.hi AND b.w = a.w "
            "GROUP BY f.lo, f.hi ORDER BY f.lo, f.hi"
        ),
        "graph_assortativity": (
            # identical float64 expression as the pipeline: exact HUGEINT
            # sums, one cast-to-double per factor, correctly-rounded sqrt
            # on both sides -> bit-equal pre-round; ROUND(,6) shared
            f"WITH e AS (SELECT src, dst FROM read_parquet('{edges_glob}') "
            "WHERE src <> dst), "
            "od AS (SELECT src AS v, CAST(count(*) AS BIGINT) AS od "
            "FROM e GROUP BY src), "
            "idg AS (SELECT dst AS v, CAST(count(*) AS BIGINT) AS idg "
            "FROM e GROUP BY dst), "
            "j AS (SELECT o.od AS x, i.idg AS y FROM e "
            "JOIN od o ON o.v = e.src JOIN idg i ON i.v = e.dst), "
            "s AS (SELECT CAST(count(*) AS HUGEINT) AS n, "
            "CAST(sum(x) AS HUGEINT) AS sx, CAST(sum(y) AS HUGEINT) AS sy, "
            "CAST(sum(CAST(x AS HUGEINT) * y) AS HUGEINT) AS sxy, "
            "CAST(sum(CAST(x AS HUGEINT) * x) AS HUGEINT) AS sxx, "
            "CAST(sum(CAST(y AS HUGEINT) * y) AS HUGEINT) AS syy FROM j) "
            "SELECT CAST(n AS BIGINT) AS n_edges, "
            "CASE WHEN n * sxx - sx * sx = 0 OR n * syy - sy * sy = 0 "
            "THEN 0.0 ELSE ROUND(CAST(n * sxy - sx * sy AS DOUBLE) / "
            "(sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) * "
            "sqrt(CAST(n * syy - sy * sy AS DOUBLE))), 6) END "
            "AS assortativity FROM s"
        ),
        "degree_histogram": (
            f"WITH verts AS (SELECT DISTINCT src AS v "
            f"FROM read_parquet('{edges_glob}') "
            f"UNION SELECT DISTINCT dst FROM read_parquet('{edges_glob}')), "
            f"od AS (SELECT src AS v, count(*) AS d "
            f"FROM read_parquet('{edges_glob}') GROUP BY src) "
            "SELECT CAST(coalesce(od.d, 0) AS BIGINT) AS out_degree, "
            "CAST(count(*) AS BIGINT) AS n_vertices "
            "FROM verts LEFT JOIN od ON od.v = verts.v "
            "GROUP BY 1 ORDER BY 1"
        ),
        "graph_mis": _mis_oracle_sql(edges_glob),
        "graph_coloring": _coloring_oracle_sql(edges_glob),
        "graph_matching": _matching_oracle_sql(edges_glob),
        "graph_diameter": (
            # double sweep replayed independently: pivot = max directed
            # out-degree (min-id tie), two BFS walks over the SYMMETRIZED
            # edge set (same recursive-walk pattern as the sssp oracle)
            f"WITH RECURSIVE se AS (SELECT src, dst "
            f"FROM read_parquet('{edges_glob}') "
            f"UNION SELECT dst AS src, src AS dst "
            f"FROM read_parquet('{edges_glob}')), "
            f"pv AS (SELECT src AS v FROM read_parquet('{edges_glob}') "
            "GROUP BY src ORDER BY count(*) DESC, src LIMIT 1), "
            "w1(vertex_id, d) AS (SELECT v, 0 FROM pv UNION "
            "SELECT se.dst, w1.d + 1 FROM w1 JOIN se "
            "ON se.src = w1.vertex_id WHERE w1.d < 150), "
            "d1 AS (SELECT vertex_id, min(d) AS d FROM w1 GROUP BY vertex_id), "
            "far AS (SELECT vertex_id AS v FROM d1 "
            "ORDER BY d DESC, vertex_id LIMIT 1), "
            "w2(vertex_id, d) AS (SELECT v, 0 FROM far UNION "
            "SELECT se.dst, w2.d + 1 FROM w2 JOIN se "
            "ON se.src = w2.vertex_id WHERE w2.d < 150), "
            "d2 AS (SELECT vertex_id, min(d) AS d FROM w2 GROUP BY vertex_id) "
            "SELECT (SELECT v FROM pv) AS pivot, "
            "(SELECT v FROM far) AS endpoint, "
            "CAST(max(d) AS BIGINT) AS diameter_lb FROM d2"
        ),
        "graph_neighborhood": (
            # exact neighborhood function from the vid%8 source set:
            # min-distance per (seed, vertex) pair via the same
            # recursive-walk pattern as the sssp oracle, multi-source
            f"WITH RECURSIVE e AS (SELECT DISTINCT src, dst "
            f"FROM read_parquet('{edges_glob}') WHERE src <> dst), "
            f"verts AS (SELECT DISTINCT v FROM (SELECT src AS v "
            f"FROM read_parquet('{edges_glob}') UNION ALL "
            f"SELECT dst FROM read_parquet('{edges_glob}'))), "
            f"seeds AS (SELECT v FROM verts WHERE v % {_NF_SOURCE_MOD} = 0), "
            "walk(s, v, d) AS ("
            "SELECT v, v, 0 FROM seeds "
            "UNION "
            "SELECT w.s, e.dst, w.d + 1 FROM walk w JOIN e ON e.src = w.v "
            f"WHERE w.d < {_NF_RADIUS}), "
            "md AS (SELECT s, v, min(d) AS d FROM walk GROUP BY s, v) "
            "SELECT d AS t, CAST(count(*) AS BIGINT) AS new_pairs, "
            "CAST(sum(count(*)) OVER (ORDER BY d) AS BIGINT) AS cum_pairs "
            "FROM md GROUP BY d ORDER BY d"
        ),
        "graph_bowtie": (
            # pivot = max out-degree (parallel edges count), min id tie;
            # fwd/bwd reachability via recursive UNION walks, then CASE
            f"WITH RECURSIVE e AS (SELECT DISTINCT src, dst "
            f"FROM read_parquet('{edges_glob}')), "
            f"od AS (SELECT src AS v, count(*) AS d "
            f"FROM read_parquet('{edges_glob}') GROUP BY src), "
            "pv AS (SELECT v FROM od ORDER BY d DESC, v LIMIT 1), "
            "fwd(v) AS (SELECT v FROM pv "
            "UNION SELECT e.dst FROM fwd JOIN e ON e.src = fwd.v), "
            "bwd(v) AS (SELECT v FROM pv "
            "UNION SELECT e.src FROM bwd JOIN e ON e.dst = bwd.v), "
            f"verts AS (SELECT DISTINCT v FROM (SELECT src AS v "
            f"FROM read_parquet('{edges_glob}') UNION ALL "
            f"SELECT dst FROM read_parquet('{edges_glob}'))) "
            "SELECT verts.v AS vertex_id, CASE "
            "WHEN f.v IS NOT NULL AND b.v IS NOT NULL THEN 'core' "
            "WHEN b.v IS NOT NULL THEN 'in' "
            "WHEN f.v IS NOT NULL THEN 'out' "
            "ELSE 'other' END AS bowtie_class "
            "FROM verts LEFT JOIN fwd f ON f.v = verts.v "
            "LEFT JOIN bwd b ON b.v = verts.v ORDER BY vertex_id"
        ),
        "graph_harmonic": (
            # H(v) = sum over sources u != v of 1/min-d(u -> v), d <= 6;
            # per-(v, d) counts then count * (1.0/d), the engine's exact
            # association; self-loops never shorten distances (src <> dst)
            f"WITH RECURSIVE e AS (SELECT DISTINCT src, dst "
            f"FROM read_parquet('{edges_glob}') WHERE src <> dst), "
            f"verts AS (SELECT DISTINCT v FROM (SELECT src AS v "
            f"FROM read_parquet('{edges_glob}') UNION ALL "
            f"SELECT dst FROM read_parquet('{edges_glob}'))), "
            f"seeds AS (SELECT v FROM verts WHERE v % {_HC_SOURCE_MOD} = 0), "
            "walk(s, v, d) AS ("
            "SELECT v, v, 0 FROM seeds "
            "UNION "
            "SELECT w.s, e.dst, w.d + 1 FROM walk w JOIN e ON e.src = w.v "
            f"WHERE w.d < {_HC_RADIUS}), "
            "md AS (SELECT s, v, min(d) AS d FROM walk GROUP BY s, v), "
            "cnts AS (SELECT v, d, CAST(count(*) AS BIGINT) AS c "
            "FROM md WHERE d >= 1 GROUP BY v, d), "
            "h AS (SELECT v, ROUND(SUM(c * (1.0 / d)), 6) AS harmonic "
            "FROM cnts GROUP BY v) "
            "SELECT verts.v AS vertex_id, "
            "COALESCE(h.harmonic, 0.0) AS harmonic "
            "FROM verts LEFT JOIN h ON h.v = verts.v ORDER BY vertex_id"
        ),
        "graph_scc": (
            # scc_id(v) = max u with v ->* u AND u ->* v (v itself counts):
            # transitive closure over the SAME filtered edge subset, then
            # mutual-reachability max. NOTE: under WITH RECURSIVE this
            # DuckDB version does not dedup a plain UNION in a
            # non-recursive CTE — verts uses an explicit DISTINCT wrapper.
            f"WITH RECURSIVE e AS (SELECT src, dst FROM "
            f"read_parquet('{edges_glob}') "
            "WHERE (src % 3 + dst % 3) % 3 <> 0), "
            "verts AS (SELECT DISTINCT v FROM "
            "(SELECT src AS v FROM e UNION ALL SELECT dst FROM e)), "
            "reach(a, b) AS (SELECT DISTINCT src, dst FROM e "
            "UNION "
            "SELECT r.a, e2.dst FROM reach r JOIN e e2 ON e2.src = r.b), "
            "mut AS (SELECT r1.a AS v, max(r1.b) AS mx FROM reach r1 "
            "JOIN reach r2 ON r2.a = r1.b AND r2.b = r1.a GROUP BY r1.a) "
            "SELECT verts.v AS vertex_id, "
            "GREATEST(verts.v, COALESCE(m.mx, verts.v)) AS scc_id "
            "FROM verts LEFT JOIN mut m ON m.v = verts.v ORDER BY vertex_id"
        ),
        "graph_bowtie_scc": (
            # Broder-faithful: core = largest SCC (size desc, scc_id asc
            # tie) of the SAME filtered graph as graph_scc; its max-member
            # representative seeds the fwd/bwd reachability walks, and
            # fwd AND bwd == membership in that SCC
            f"WITH RECURSIVE e AS (SELECT src, dst FROM "
            f"read_parquet('{edges_glob}') "
            "WHERE (src % 3 + dst % 3) % 3 <> 0), "
            "verts AS (SELECT DISTINCT v FROM "
            "(SELECT src AS v FROM e UNION ALL SELECT dst FROM e)), "
            "reach(a, b) AS (SELECT DISTINCT src, dst FROM e "
            "UNION "
            "SELECT r.a, e2.dst FROM reach r JOIN e e2 ON e2.src = r.b), "
            "mut AS (SELECT r1.a AS v, max(r1.b) AS mx FROM reach r1 "
            "JOIN reach r2 ON r2.a = r1.b AND r2.b = r1.a GROUP BY r1.a), "
            "scc AS (SELECT verts.v, "
            "GREATEST(verts.v, COALESCE(m.mx, verts.v)) AS scc_id "
            "FROM verts LEFT JOIN mut m ON m.v = verts.v), "
            "pv AS (SELECT scc_id AS v FROM (SELECT scc_id, count(*) AS c "
            "FROM scc GROUP BY scc_id) ORDER BY c DESC, scc_id LIMIT 1), "
            "fwd(v) AS (SELECT v FROM pv "
            "UNION SELECT e.dst FROM fwd JOIN e ON e.src = fwd.v), "
            "bwd(v) AS (SELECT v FROM pv "
            "UNION SELECT e.src FROM bwd JOIN e ON e.dst = bwd.v) "
            "SELECT verts.v AS vertex_id, CASE "
            "WHEN f.v IS NOT NULL AND b.v IS NOT NULL THEN 'core' "
            "WHEN b.v IS NOT NULL THEN 'in' "
            "WHEN f.v IS NOT NULL THEN 'out' "
            "ELSE 'other' END AS bowtie_class "
            "FROM verts LEFT JOIN fwd f ON f.v = verts.v "
            "LEFT JOIN bwd b ON b.v = verts.v ORDER BY vertex_id"
        ),
        "graph_random_walks": (
            # exact hop replay: neighbors ranked dst-ascending over the raw
            # edge MULTISET (parallel edges share a dst, so row_number tie
            # order cannot change the chosen dst); the hop index replays
            # H = ((w*1000003+s) % 2^32 * 2654435761 + (v % 2^32) * 40503)
            # % 2^32 % deg in HUGEINT
            f"WITH RECURSIVE e AS (SELECT src, dst "
            f"FROM read_parquet('{edges_glob}')), "
            "deg AS (SELECT src, CAST(count(*) AS BIGINT) AS d "
            "FROM e GROUP BY src), "
            "nbrs AS (SELECT src, dst, row_number() OVER ("
            "PARTITION BY src ORDER BY dst) - 1 AS idx FROM e), "
            "seeds(walk_id, vertex) AS (VALUES "
            + ", ".join(
                f"(CAST({w} AS BIGINT), CAST({v} AS BIGINT))"
                for w, v in enumerate(_walk_seeds(_ORACLE_SF))
            )
            + "), "
            "walk(walk_id, step, vertex) AS ("
            "SELECT walk_id, CAST(0 AS BIGINT), vertex FROM seeds "
            "UNION ALL "
            "SELECT w.walk_id, w.step + 1, n.dst FROM walk w "
            "JOIN deg g ON g.src = w.vertex "
            "JOIN nbrs n ON n.src = w.vertex AND n.idx = CAST("
            "((CAST(w.walk_id AS HUGEINT) * 1000003 + w.step) % 4294967296 "
            "* 2654435761 + (CAST(w.vertex AS HUGEINT) % 4294967296) * 40503"
            ") % 4294967296 % g.d AS BIGINT) "
            f"WHERE w.step < {_WALK_LEN}) "
            "SELECT walk_id, step, vertex AS vertex_id FROM walk "
            "ORDER BY walk_id, step"
        ),
        # graph_neighborhood_approx (r5, verdict item 9): the full
        # telescoped neighborhood-function estimate is SQL-replayed —
        # per-radius register states from min-distance ball membership,
        # per-vertex HLL estimates, per-t totals, deltas, and the run's
        # final-superstep rule — so the query is now hash-exact, not
        # rows-only. The per-vertex registers at the final radius are
        # independently oracled by graph_hyperball_balls.
        "graph_neighborhood_approx": _hyperball_nf_oracle_sql(edges_glob),
        "graph_hyperball_balls": _hyperball_oracle_sql(edges_glob),
        "link_prediction": (
            # independent replay: undirected adjacency self-join wedges,
            # per-pair CN/AA sums, degree join for Jaccard, existing-edge
            # anti-join — vs the pipeline's bucketed wedge shuffle
            f"WITH d AS (SELECT DISTINCT least(src, dst) AS lo, "
            f"greatest(src, dst) AS hi FROM read_parquet('{edges_glob}') "
            "WHERE src <> dst), "
            "und AS (SELECT lo AS v, hi AS n FROM d "
            "UNION ALL SELECT hi, lo FROM d), "
            "deg AS (SELECT v, count(*) AS dg FROM und GROUP BY v), "
            "wed AS (SELECT a.n AS u, b.n AS w, a.v AS c "
            "FROM und a JOIN und b ON a.v = b.v AND a.n < b.n), "
            "pairs AS (SELECT u, w, count(*) AS cn, "
            "sum(1.0 / ln(dc.dg)) AS aa "
            "FROM wed JOIN deg dc ON dc.v = wed.c GROUP BY u, w) "
            "SELECT p.u AS u, p.w AS v, "
            "CAST(p.cn AS BIGINT) AS common_neighbors, "
            "ROUND(p.aa, 6) AS adamic_adar, "
            "ROUND(p.cn / (du.dg + dw.dg - p.cn), 6) AS jaccard "
            "FROM pairs p JOIN deg du ON du.v = p.u "
            "JOIN deg dw ON dw.v = p.w "
            "WHERE p.cn >= 2 AND NOT EXISTS "
            "(SELECT 1 FROM d WHERE d.lo = p.u AND d.hi = p.w) "
            "ORDER BY u, v"
        ),
        # --- embedding oracles (independent: list_cosine_similarity) -----
        "emb_knn": (
            "WITH q AS (SELECT vec_id AS query_id, embedding AS qe "
            "FROM embeddings WHERE vec_id < 3) "
            "SELECT query_id, vec_id, rank FROM ("
            "SELECT q.query_id AS query_id, e.vec_id AS vec_id, "
            "row_number() OVER (PARTITION BY q.query_id ORDER BY "
            "list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id ASC"
            ") AS rank FROM embeddings e CROSS JOIN q) "
            "WHERE rank <= 10 ORDER BY query_id, rank"
        ),
        "emb_knn_quantized": (
            # full replay of the int8 quantization + integer-dot cosine:
            # scale/round arithmetic identical, dots/norms exact integers
            "WITH e AS (SELECT vec_id, CAST(unnest(embedding) AS DOUBLE) AS v, "
            "unnest(generate_series(1, len(embedding))) AS i FROM embeddings), "
            "sc AS (SELECT vec_id, GREATEST(MAX(ABS(v)) / 127.0, 1e-12) AS s "
            "FROM e GROUP BY vec_id), "
            "q8 AS (SELECT e.vec_id, e.i, "
            "CAST(ROUND(e.v / sc.s) AS BIGINT) AS q "
            "FROM e JOIN sc USING (vec_id)), "
            "nrm AS (SELECT vec_id, SUM(q * q) AS n2 FROM q8 GROUP BY vec_id), "
            "qv AS (SELECT vec_id AS query_id, i, q FROM q8 WHERE vec_id < 3), "
            "dt AS (SELECT qv.query_id, e2.vec_id, SUM(e2.q * qv.q) AS dot "
            "FROM q8 e2 JOIN qv ON qv.i = e2.i GROUP BY qv.query_id, e2.vec_id), "
            "sim AS (SELECT dt.query_id, dt.vec_id, "
            "CASE WHEN na.n2 = 0 OR nb.n2 = 0 THEN 0.0 ELSE "
            "CAST(dt.dot AS DOUBLE) / (sqrt(CAST(na.n2 AS DOUBLE)) * "
            "sqrt(CAST(nb.n2 AS DOUBLE))) END AS sim "
            "FROM dt JOIN nrm na ON na.vec_id = dt.vec_id "
            "JOIN nrm nb ON nb.vec_id = dt.query_id) "
            "SELECT query_id, vec_id, rank FROM ("
            "SELECT query_id, vec_id, row_number() OVER ("
            "PARTITION BY query_id ORDER BY sim DESC, vec_id ASC) AS rank "
            "FROM sim) WHERE rank <= 10 ORDER BY query_id, rank"
        ),
        "emb_kmeans": (
            # replay of the corpus-wide assignment against the STAGED
            # rounded centroid file (the oracle boundary — see
            # similarity.fit_centroids_file); ties to the lowest cluster
            "WITH e AS (SELECT vec_id, "
            "unnest(embedding) AS v, "
            "unnest(generate_series(1, len(embedding))) AS i "
            "FROM embeddings), "
            f"c AS (SELECT cluster, dim, w FROM "
            f"'{_kmeans_centroids_path(_ORACLE_SF)}'), "
            "s AS (SELECT e.vec_id, c.cluster, "
            "SUM(CAST(e.v AS DOUBLE) * c.w) AS s "
            "FROM e JOIN c ON e.i - 1 = c.dim GROUP BY e.vec_id, c.cluster), "
            "r AS (SELECT vec_id, cluster, row_number() OVER ("
            "PARTITION BY vec_id ORDER BY s DESC, cluster ASC) AS rk FROM s) "
            "SELECT vec_id, cluster FROM r WHERE rk = 1 ORDER BY vec_id"
        ),
        "media_image_dims": (
            f"SELECT media_id, "
            f"CAST(json_extract(meta, '$.h') AS BIGINT) AS height, "
            f"CAST(json_extract(meta, '$.w') AS BIGINT) AS width "
            f"FROM read_parquet('{_media_path(_ORACLE_SF)}') "
            f"WHERE media_type = 'image' ORDER BY media_id"
        ),
        "media_image_stats": (
            f"SELECT media_id, "
            f"CAST(json_extract(meta, '$.h') AS BIGINT) AS height, "
            f"CAST(json_extract(meta, '$.w') AS BIGINT) AS width, "
            f"CAST(3 AS BIGINT) AS channels, "
            f"CAST(json_extract(meta, '$.psum') AS BIGINT) AS pixels_sum "
            f"FROM read_parquet('{_media_path(_ORACLE_SF)}') "
            f"WHERE media_type = 'image' ORDER BY media_id"
        ),
        "media_audio_energy": (
            # encoder-recorded per-1024-sample-frame energies; the query
            # samples every 4th frame
            f"SELECT media_id, idx - 1 AS frame_idx, ROUND(en, 4) AS energy "
            f"FROM (SELECT media_id, "
            f"unnest(CAST(json_extract(meta, '$.e') AS DOUBLE[])) AS en, "
            f"unnest(generate_series(1, "
            f"len(CAST(json_extract(meta, '$.e') AS DOUBLE[])))) AS idx "
            f"FROM read_parquet('{_media_path(_ORACLE_SF)}') "
            f"WHERE media_type = 'audio') "
            f"WHERE (idx - 1) % 4 = 0 ORDER BY media_id, frame_idx"
        ),
        "media_video_frames": (
            # encoder-recorded per-frame means + constant frame dims; the
            # query samples every 2nd frame
            f"SELECT media_id, idx - 1 AS frame_idx, "
            f"CAST(json_extract(meta, '$.fh') AS BIGINT) AS height, "
            f"CAST(json_extract(meta, '$.fw') AS BIGINT) AS width, "
            f"ROUND(fm, 4) AS mean_intensity "
            f"FROM (SELECT media_id, meta, "
            f"unnest(CAST(json_extract(meta, '$.fm') AS DOUBLE[])) AS fm, "
            f"unnest(generate_series(1, "
            f"CAST(json_extract(meta, '$.frames') AS BIGINT))) AS idx "
            f"FROM read_parquet('{_media_path(_ORACLE_SF)}') "
            f"WHERE media_type = 'video') "
            f"WHERE (idx - 1) % 2 = 0 ORDER BY media_id, frame_idx"
        ),
        "emb_near_dup": (
            "SELECT a.vec_id AS a, b.vec_id AS b "
            "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
            "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.4 "
            "ORDER BY a, b"
        ),
        "emb_semdedup": (
            # SemDeDup replay: staged-centroid assignment (the emb_kmeans
            # CTE verbatim) + the pointwise min-id drop rule as NOT EXISTS
            "WITH e AS (SELECT vec_id, "
            "unnest(embedding) AS v, "
            "unnest(generate_series(1, len(embedding))) AS i "
            "FROM embeddings), "
            f"c AS (SELECT cluster, dim, w FROM "
            f"'{_kmeans_centroids_path(_ORACLE_SF)}'), "
            "s AS (SELECT e.vec_id, c.cluster, "
            "SUM(CAST(e.v AS DOUBLE) * c.w) AS s "
            "FROM e JOIN c ON e.i - 1 = c.dim GROUP BY e.vec_id, c.cluster), "
            "r AS (SELECT vec_id, cluster, row_number() OVER ("
            "PARTITION BY vec_id ORDER BY s DESC, cluster ASC) AS rk FROM s), "
            "asn AS (SELECT r.vec_id, r.cluster, emb.embedding "
            "FROM r JOIN embeddings emb ON emb.vec_id = r.vec_id WHERE rk = 1) "
            "SELECT a.vec_id, a.cluster, "
            "CAST(CASE WHEN EXISTS (SELECT 1 FROM asn b "
            "WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id "
            "AND list_cosine_similarity(a.embedding, b.embedding) >= 0.35) "
            "THEN 0 ELSE 1 END AS BIGINT) AS kept "
            "FROM asn a ORDER BY a.vec_id"
        ),
        "filter_project": (
            "SELECT l_orderkey, l_quantity, "
            "l_extendedprice * (1 - l_discount) AS revenue "
            "FROM lineitem "
            "WHERE l_shipdate < TIMESTAMP '1997-01-01' AND l_quantity > 30"
        ),
        "pricing_summary": (
            "SELECT l_returnflag, l_linestatus, "
            "ROUND(sum(l_quantity), 2) AS sum_qty, "
            "ROUND(sum(l_extendedprice), 2) AS sum_base_price, "
            "ROUND(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price, "
            "ROUND(sum(l_quantity) / count(*), 6) AS avg_qty, "
            "count(*) AS count_order "
            "FROM lineitem WHERE l_shipdate < TIMESTAMP '1998-09-02' "
            "GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus"
        ),
        "revenue_by_nation": (
            "SELECT n_name, ROUND(sum(o_totalprice), 2) AS revenue, "
            "count(*) AS n_orders "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "JOIN nation ON c_nationkey = n_nationkey "
            "GROUP BY n_name ORDER BY n_name"
        ),
        "topk_orders": (
            "SELECT o_orderkey, o_totalprice FROM orders "
            "ORDER BY o_totalprice DESC, o_orderkey ASC LIMIT 10"
        ),
        "events_ranked": (
            "SELECT event_id, row_number() OVER "
            "(ORDER BY value, event_id) AS rank "
            "FROM events ORDER BY event_id"
        ),
        "events_latest_per_user": (
            "SELECT event_id, ts, user_id, event_type, value FROM ("
            "SELECT event_id, ts, user_id, event_type, value, "
            "row_number() OVER (PARTITION BY user_id "
            "ORDER BY ts DESC, event_id DESC) AS rk FROM events) "
            "WHERE rk = 1 ORDER BY user_id"
        ),
        "distinct_users": (
            "SELECT event_type, count(DISTINCT user_id) AS n_users "
            "FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "events_pivot": (
            "SELECT user_id, "
            "CAST(count(*) FILTER (event_type = 'click') AS BIGINT) AS n_click, "
            "CAST(count(*) FILTER (event_type = 'error') AS BIGINT) AS n_error, "
            "CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase, "
            "CAST(count(*) FILTER (event_type = 'signup') AS BIGINT) AS n_signup, "
            "CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS n_view "
            "FROM events GROUP BY user_id ORDER BY user_id"
        ),
        "events_ntile": (
            "SELECT event_id, CAST(NTILE(10) OVER (ORDER BY value, event_id) "
            "AS BIGINT) AS tile FROM events ORDER BY event_id"
        ),
        "user_journeys": (
            "WITH k AS (SELECT user_id, event_type, ts, event_id FROM ("
            "SELECT user_id, event_type, ts, event_id, row_number() OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) AS rn FROM events) "
            "WHERE rn <= 20), "
            "n AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n_events "
            "FROM events GROUP BY user_id) "
            "SELECT n.user_id, n.n_events, "
            "string_agg(k.event_type, ',' ORDER BY k.ts, k.event_id) AS journey "
            "FROM n JOIN k ON k.user_id = n.user_id "
            "GROUP BY n.user_id, n.n_events ORDER BY n.user_id"
        ),
        "hourly_windows": (
            "SELECT event_type, "
            "strftime(date_trunc('hour', ts), '%Y-%m-%d %H:%M:%S') AS window_start, "
            "count(*) AS n_events, ROUND(sum(value), 4) AS sum_value "
            "FROM events GROUP BY event_type, date_trunc('hour', ts) "
            "ORDER BY event_type, window_start"
        ),
        "sliding_windows": (
            "SELECT event_type, strftime(window_start, '%Y-%m-%d %H:%M:%S') AS window_start, "
            "count(*) AS n_events, ROUND(sum(value), 4) AS sum_value FROM ("
            "SELECT event_type, date_trunc('hour', ts) AS window_start, value FROM events "
            "UNION ALL "
            "SELECT event_type, date_trunc('hour', ts) - INTERVAL 1 HOUR, value FROM events"
            ") GROUP BY event_type, window_start ORDER BY event_type, 2"
        ),
        "sessions": (
            "WITH gaps AS (SELECT user_id, ts, "
            "CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) "
            "> INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk FROM events) "
            "SELECT user_id, CAST(sum(brk) + 1 AS BIGINT) AS n_sessions, "
            "count(*) AS n_events FROM gaps GROUP BY user_id ORDER BY user_id"
        ),
        "user_set_ops": (
            "SELECT 'intersect' AS op, user_id FROM ("
            "SELECT user_id FROM events WHERE event_type = 'click' "
            "INTERSECT "
            "SELECT user_id FROM events WHERE event_type = 'purchase') "
            "UNION ALL "
            "SELECT 'except' AS op, user_id FROM ("
            "SELECT user_id FROM events WHERE event_type = 'click' "
            "EXCEPT "
            "SELECT user_id FROM events WHERE event_type = 'purchase') "
            "ORDER BY op, user_id"
        ),
        "rollup_acctbal": (
            # sentinels (-1 / 'ALL') instead of ROLLUP's NULL slots, same
            # rows: finest, per-nation subtotal, grand total
            "SELECT COALESCE(c_nationkey, -1) AS c_nationkey, "
            "COALESCE(c_mktsegment, 'ALL') AS c_mktsegment, "
            "count(*) AS n, ROUND(sum(c_acctbal), 2) AS sum_bal "
            "FROM customer GROUP BY ROLLUP(c_nationkey, c_mktsegment) "
            "ORDER BY c_nationkey, c_mktsegment"
        ),
        # per-group mode with the LPA tie-break (count desc, type asc)
        "events_mode_per_user": (
            "WITH c AS (SELECT user_id, event_type, CAST(count(*) AS BIGINT) "
            "AS n FROM events GROUP BY 1, 2) "
            "SELECT user_id, event_type AS mode_type, n FROM "
            "(SELECT *, row_number() OVER (PARTITION BY user_id "
            "ORDER BY n DESC, event_type) AS rn FROM c) "
            "WHERE rn = 1 ORDER BY user_id"
        ),
        # event-level session index: cumulative new-session flags over the
        # same (ts, event_id) ordering every window operator here uses
        "events_sessionized": (
            "WITH g AS (SELECT event_id, user_id, epoch_ms(ts) AS ms, "
            "CASE WHEN epoch_ms(ts) - lag(epoch_ms(ts)) OVER "
            "(PARTITION BY user_id ORDER BY ts, event_id) <= 1800000 "
            "THEN 0 ELSE 1 END AS newf FROM events) "
            "SELECT event_id, user_id, CAST(SUM(newf) OVER "
            "(PARTITION BY user_id ORDER BY ms, event_id "
            "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq "
            "FROM g ORDER BY event_id"
        ),
        # gap-filled daily resample on integer epoch days
        "events_daily_dense": (
            "WITH c AS (SELECT event_type, epoch_ms(ts) // 86400000 AS day, "
            "CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1, 2), "
            "days AS (SELECT unnest(generate_series((SELECT min(day) FROM c), "
            "(SELECT max(day) FROM c))) AS day), "
            "types AS (SELECT DISTINCT event_type FROM events) "
            "SELECT t.event_type, d.day, COALESCE(c.n, 0) AS n "
            "FROM types t CROSS JOIN days d "
            "LEFT JOIN c ON c.event_type = t.event_type AND c.day = d.day "
            "ORDER BY t.event_type, d.day"
        ),
        # FULL OUTER join with out-of-domain sentinels (balances are in
        # [-999.99, 9999.99], so -99999.0 marks account-less activity)
        "full_outer_activity": (
            "WITH ev AS (SELECT user_id AS uid, CAST(count(*) AS BIGINT) "
            "AS n_events FROM events GROUP BY user_id), "
            "c AS (SELECT c_custkey AS uid, ROUND(c_acctbal, 2) AS acctbal "
            "FROM customer) "
            "SELECT COALESCE(ev.uid, c.uid) AS uid, "
            "COALESCE(ev.n_events, 0) AS n_events, "
            "COALESCE(c.acctbal, -99999.0) AS acctbal "
            "FROM ev FULL OUTER JOIN c ON ev.uid = c.uid ORDER BY uid"
        ),
        "cube_acctbal": (
            # CUBE = ROLLUP levels + the per-segment transpose; same
            # sentinel convention as rollup_acctbal
            "SELECT COALESCE(c_nationkey, -1) AS c_nationkey, "
            "COALESCE(c_mktsegment, 'ALL') AS c_mktsegment, "
            "count(*) AS n, ROUND(sum(c_acctbal), 2) AS sum_bal "
            "FROM customer GROUP BY CUBE(c_nationkey, c_mktsegment) "
            "ORDER BY c_nationkey, c_mktsegment"
        ),
        "events_rolling_avg": (
            # left-to-right lag adds mirror the pipeline's shifted-sum
            # EXACTLY (same float op order), so the compare is bit-exact
            "WITH l AS (SELECT event_id, user_id, value, "
            "lag(value, 1) OVER w AS l1, lag(value, 2) OVER w AS l2, "
            "lag(value, 3) OVER w AS l3, "
            "row_number() OVER w AS rn FROM events "
            "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)) "
            "SELECT event_id, user_id, "
            "ROUND((value + coalesce(l1, 0) + coalesce(l2, 0) "
            "+ coalesce(l3, 0)) / LEAST(rn, 4), 6) AS roll_avg "
            "FROM l ORDER BY event_id"
        ),
        "union_counts": (
            "SELECT side, count(*) AS n FROM ("
            "SELECT c_name AS name, 'customer' AS side FROM customer "
            "UNION ALL SELECT s_name AS name, 'supplier' AS side FROM supplier"
            ") GROUP BY side ORDER BY side"
        ),
        "asof_join": (
            "SELECT e.event_id, "
            "strftime(o.o_orderdate, '%Y-%m-%d %H:%M:%S') AS last_order_date "
            "FROM events e ASOF JOIN orders o "
            "ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate "
            "ORDER BY e.event_id"
        ),
        "range_join_pairs": (
            "SELECT a.event_id AS a_id, b.event_id AS b_id FROM events a "
            "JOIN events b ON a.user_id = b.user_id AND b.ts > a.ts "
            "AND b.ts <= a.ts + INTERVAL 5 MINUTE ORDER BY a_id, b_id"
        ),
        "event_value_percentiles": (
            "SELECT event_type, "
            "ROUND(quantile_cont(value, 0.5), 6) AS p50, "
            "ROUND(quantile_cont(value, 0.95), 6) AS p95, "
            "count(*) AS n FROM events GROUP BY event_type ORDER BY event_type"
        ),
        "event_percentiles_hist": (
            # exact replay of the histogram sketch: same IEEE bin widths,
            # same ceil(q*n) cumulative pick, same mid-bin estimate
            "WITH stats AS (SELECT event_type, min(value) AS mn, "
            "max(value) AS mx, count(*) AS n FROM events GROUP BY event_type), "
            "bd AS (SELECT e.event_type, CASE WHEN s.mx > s.mn THEN "
            "LEAST(CAST(floor((e.value - s.mn) / ((s.mx - s.mn) / 256.0)) "
            "AS BIGINT), 255) ELSE 0 END AS bin "
            "FROM events e JOIN stats s USING (event_type)), "
            "c AS (SELECT event_type, bin, count(*) AS c FROM bd GROUP BY 1, 2), "
            "cum AS (SELECT event_type, bin, "
            "sum(c) OVER (PARTITION BY event_type ORDER BY bin) AS cum FROM c), "
            "pick AS (SELECT s.event_type, "
            "coalesce((SELECT min(bin) FROM cum WHERE cum.event_type = "
            "s.event_type AND cum.cum >= ceil(0.5 * s.n)), 255) AS b50, "
            "coalesce((SELECT min(bin) FROM cum WHERE cum.event_type = "
            "s.event_type AND cum.cum >= ceil(0.95 * s.n)), 255) AS b95 "
            "FROM stats s) "
            "SELECT s.event_type, "
            "ROUND(CASE WHEN s.mx > s.mn THEN s.mn + (p.b50 + 0.5) * "
            "((s.mx - s.mn) / 256.0) ELSE s.mn END, 6) AS p50_est, "
            "ROUND(CASE WHEN s.mx > s.mn THEN s.mn + (p.b95 + 0.5) * "
            "((s.mx - s.mn) / 256.0) ELSE s.mn END, 6) AS p95_est, s.n "
            "FROM stats s JOIN pick p USING (event_type) ORDER BY s.event_type"
        ),
        "top_orders_per_priority": (
            "SELECT o_orderpriority, o_orderkey, o_totalprice, rnk FROM ("
            "SELECT o_orderpriority, o_orderkey, o_totalprice, "
            "row_number() OVER (PARTITION BY o_orderpriority "
            "ORDER BY o_totalprice DESC, o_orderkey ASC) AS rnk FROM orders) "
            "WHERE rnk <= 3 ORDER BY o_orderpriority, rnk"
        ),
        "customers_without_orders": (
            "SELECT c_custkey, c_name FROM customer "
            "WHERE c_custkey NOT IN "
            "(SELECT o_custkey FROM orders WHERE o_orderstatus = 'F') "
            "ORDER BY c_custkey"
        ),
        "orders_by_priority": (
            "SELECT o_orderpriority, ROUND(sum(o_totalprice), 2) AS total_price, "
            "ROUND(avg(o_totalprice), 6) AS avg_price, count(*) AS n_orders "
            "FROM orders GROUP BY o_orderpriority ORDER BY o_orderpriority"
        ),
        "join_revenue_by_segment": (
            "SELECT c_mktsegment, ROUND(sum(o_totalprice), 2) AS revenue, "
            "count(*) AS n_orders "
            "FROM orders JOIN customer ON o_custkey = c_custkey "
            "GROUP BY c_mktsegment ORDER BY c_mktsegment"
        ),
        # LAG window: integer epoch-ms arithmetic, -1 sentinel for firsts
        "event_gaps": (
            "SELECT event_id, user_id, COALESCE(CAST(epoch_ms(ts) - "
            "lag(epoch_ms(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) "
            "AS BIGINT), -1) AS gap_ms FROM events ORDER BY event_id"
        ),
        # Weekly retention cohorts on integer epoch-day//7 weeks: distinct
        # users per (first-week cohort, week offset)
        "retention_cohorts": (
            "WITH w AS (SELECT user_id, epoch_ms(ts) // 1000 // 86400 // 7 "
            "AS wk FROM events), "
            "f AS (SELECT user_id, min(wk) AS cw FROM w GROUP BY user_id), "
            "a AS (SELECT DISTINCT w.user_id, f.cw, w.wk - f.cw AS off "
            "FROM w JOIN f ON w.user_id = f.user_id) "
            "SELECT cw AS cohort_week, off AS week_offset, "
            "CAST(count(*) AS BIGINT) AS n_users "
            "FROM a GROUP BY cw, off ORDER BY cohort_week, week_offset"
        ),
        # Ordered funnel: greedy earliest completion of view->click->purchase,
        # strict (ts, event_id) tuple ordering between consecutive stages
        "event_funnel": (
            "WITH v AS (SELECT user_id, ts, event_id FROM events "
            "  WHERE event_type = 'view' QUALIFY row_number() OVER "
            "  (PARTITION BY user_id ORDER BY ts, event_id) = 1), "
            "c AS (SELECT e.user_id, e.ts, e.event_id FROM events e "
            "  JOIN v ON e.user_id = v.user_id WHERE e.event_type = 'click' "
            "  AND (e.ts > v.ts OR (e.ts = v.ts AND e.event_id > v.event_id)) "
            "  QUALIFY row_number() OVER (PARTITION BY e.user_id "
            "  ORDER BY e.ts, e.event_id) = 1), "
            "p AS (SELECT e.user_id, e.ts, e.event_id FROM events e "
            "  JOIN c ON e.user_id = c.user_id WHERE e.event_type = 'purchase' "
            "  AND (e.ts > c.ts OR (e.ts = c.ts AND e.event_id > c.event_id)) "
            "  QUALIFY row_number() OVER (PARTITION BY e.user_id "
            "  ORDER BY e.ts, e.event_id) = 1) "
            "SELECT u.user_id, CAST(CASE WHEN p.user_id IS NOT NULL THEN 3 "
            "  WHEN c.user_id IS NOT NULL THEN 2 "
            "  WHEN v.user_id IS NOT NULL THEN 1 ELSE 0 END AS BIGINT) "
            "  AS funnel_stage, "
            "COALESCE(CAST(epoch_ms(v.ts) AS BIGINT), -1) AS view_ms, "
            "COALESCE(CAST(epoch_ms(c.ts) AS BIGINT), -1) AS click_ms, "
            "COALESCE(CAST(epoch_ms(p.ts) AS BIGINT), -1) AS purchase_ms "
            "FROM (SELECT DISTINCT user_id FROM events) u "
            "LEFT JOIN v ON u.user_id = v.user_id "
            "LEFT JOIN c ON u.user_id = c.user_id "
            "LEFT JOIN p ON u.user_id = p.user_id ORDER BY u.user_id"
        ),
        # TPC-H Q5 shape: the region/nation/date constants mirror
        # q_local_supplier_volume's defaults
        "local_supplier_volume": (
            "SELECT n_name, ROUND(sum(l_extendedprice * (1 - l_discount)), 2) "
            "AS revenue "
            "FROM customer, orders, lineitem, supplier, nation, region "
            "WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey "
            "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
            "AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey "
            "AND r_name = 'ASIA' AND o_orderdate >= DATE '1995-01-01' "
            "AND o_orderdate < DATE '1999-01-01' "
            "GROUP BY n_name ORDER BY revenue DESC, n_name"
        ),
        # TPC-H Q17 shape: correlated per-part avg-quantity subquery; the
        # avg replays as sum/count so both sides share the float formula
        "small_quantity_revenue": (
            "SELECT p_partkey, ROUND(t.avg_qty, 6) AS avg_qty, "
            "ROUND(sum(l_extendedprice), 2) AS small_revenue, "
            "count(*) AS n_small "
            "FROM lineitem l JOIN part ON p_partkey = l_partkey "
            "JOIN (SELECT l_partkey, sum(l_quantity)/count(*) AS avg_qty "
            "FROM lineitem GROUP BY l_partkey) t ON t.l_partkey = p_partkey "
            "WHERE p_brand = 'Brand#13' AND p_type = 'ECONOMY' "
            "AND l_quantity < 0.2 * t.avg_qty "
            "GROUP BY p_partkey, t.avg_qty ORDER BY p_partkey"
        ),
        "doc_exact_dedup": (
            "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"
        ),
        "corpus_clean": (
            # full SQL replay of the composite chain over the SAME planted-
            # duplicate augmentation as the query (every 5th doc re-keyed
            # at id + 1e6): langid == 'en', n_chars >= 120, alpha_ratio >=
            # 0.8, min-id per distinct text, token count
            f"WITH lang AS ({_langid_oracle_sql()}), "
            "aug AS (SELECT doc_id, text FROM documents "
            "UNION ALL SELECT doc_id + 1000000, text FROM documents "
            "WHERE doc_id % 5 = 0), "
            "lang_aug AS (SELECT a.doc_id, a.text, l.lang_pred "
            "FROM aug a JOIN lang l ON l.doc_id = a.doc_id % 1000000), "
            "keep AS (SELECT doc_id, text FROM lang_aug "
            "WHERE lang_pred = 'en' AND length(text) >= 120 AND "
            "CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE) "
            "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END >= 0.8), "
            "ded AS (SELECT min(doc_id) AS doc_id, text FROM keep GROUP BY text) "
            "SELECT doc_id, len(list_filter(regexp_split_to_array(text, "
            f"'{_WS}'), x -> x <> '')) AS n_tokens FROM ded ORDER BY doc_id"
        ),
        "doc_langid": _langid_oracle_sql(),
        # BPE: oracle generated from the SAME merge table as the stage
        # (stages/bpe.py bpe_doc_counts_sql) — one constant, two replays
        "doc_bpe_tokens": bpe_doc_counts_sql("documents"),
        "doc_bpe_train": _bpe_train_oracle(),
        # inference exemplar: embedding = staged-weights join over the FNV
        # token-hash replay; scores rounded by the shared convention
        "doc_embed_text": (
            f"WITH {_embed_sql_cte()} "
            "SELECT doc_id, dim, ROUND(v, 6) AS value FROM e "
            "ORDER BY doc_id, dim"
        ),
        "emb_text_near_dup": (
            f"WITH {_embed_sql_cte()}, "
            "norms AS (SELECT doc_id, GREATEST(sqrt(SUM(v * v)), 1e-12) AS nrm "
            "FROM e GROUP BY doc_id), "
            "dots AS (SELECT e1.doc_id AS a, e2.doc_id AS b, "
            "SUM(e1.v * e2.v) AS dot FROM e e1 JOIN e e2 "
            "ON e1.dim = e2.dim AND e1.doc_id < e2.doc_id GROUP BY 1, 2), "
            "sc AS (SELECT a, b, dot / (na.nrm * nb.nrm) AS s FROM dots "
            "JOIN norms na ON na.doc_id = a JOIN norms nb ON nb.doc_id = b) "
            "SELECT a, b, ROUND(s, 6) AS score FROM sc WHERE s >= 0.9 "
            "ORDER BY a, b"
        ),
        # CDC upsert: latest version per key, delta wins ties
        "doc_upsert": (
            "WITH base AS (SELECT doc_id, 1::BIGINT AS version, n_chars "
            "FROM documents), "
            "delta AS (SELECT doc_id, 2::BIGINT AS version, "
            "n_chars + 1000 AS n_chars FROM documents WHERE doc_id % 7 = 0 "
            "UNION ALL SELECT doc_id + 1000000, 1::BIGINT, n_chars "
            "FROM documents WHERE doc_id % 11 = 0), "
            "u AS (SELECT *, 0 AS src FROM base "
            "UNION ALL SELECT *, 1 FROM delta) "
            "SELECT doc_id, version, n_chars FROM "
            "(SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY version DESC, src DESC) AS rn FROM u) "
            "WHERE rn = 1 ORDER BY doc_id"
        ),
        # SymSpell-blocked edit-distance join; the oracle is the naive
        # all-pairs levenshtein the blocking provably reproduces
        "doc_editdist_pairs": (
            "SELECT a.doc_id AS doc1, b.doc_id AS doc2, "
            "CAST(levenshtein(substr(a.text, 1, 24), substr(b.text, 1, 24)) "
            "AS BIGINT) AS dist "
            "FROM documents a JOIN documents b ON a.doc_id < b.doc_id "
            "WHERE levenshtein(substr(a.text, 1, 24), substr(b.text, 1, 24)) <= 2 "
            "ORDER BY doc1, doc2"
        ),
        "doc_tfidf": (
            # tf per (doc, token); df = docs per token; score = tf*ln(N/df)
            # half-away-rounded to 6; rank on the ROUNDED score, token asc
            "WITH toks AS (SELECT doc_id, unnest(list_filter("
            f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '')) "
            "AS token FROM documents), "
            "tfq AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf "
            "FROM toks GROUP BY doc_id, token), "
            "dfq AS (SELECT token, CAST(count(*) AS BIGINT) AS df "
            "FROM tfq GROUP BY token), "
            "scored AS (SELECT t.doc_id, t.token, t.tf, d.df, "
            "ROUND(t.tf * ln((SELECT CAST(count(*) AS DOUBLE) FROM documents)"
            " / d.df), 6) AS score FROM tfq t JOIN dfq d USING (token)), "
            "ranked AS (SELECT *, row_number() OVER (PARTITION BY doc_id "
            "ORDER BY score DESC, token) AS rn FROM scored) "
            "SELECT doc_id, token, tf, df, score FROM ranked WHERE rn <= 5 "
            "ORDER BY doc_id, score DESC, token"
        ),
        "doc_bm25": _bm25_oracle_sql(_BM25_QUERY, _BM25_K, _BM25_K1, _BM25_B),
        "doc_lm_score": (
            # exact replay of the bigram LM: c(w1,w2) corpus bigram count,
            # c_ctx(w1) = w1's count as a context, V = distinct lowercase
            # tokens; lp = ln((c+0.1)/(cc+0.1*V)) term-by-term (libm ln on
            # both sides), avg rounded half-away to 6 (float-SUM note)
            f"WITH toks AS (SELECT doc_id, list_filter("
            f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '') AS t "
            "FROM documents), "
            "base AS (SELECT doc_id, t, len(t) AS n FROM toks), "
            "vocab AS (SELECT CAST(count(DISTINCT tok) AS DOUBLE) AS V "
            "FROM (SELECT unnest(t) AS tok FROM toks)), "
            "bi AS (SELECT doc_id, "
            "unnest(list_transform(generate_series(1, n - 1), i -> t[i])) AS w1, "
            "unnest(list_transform(generate_series(1, n - 1), i -> t[i+1])) AS w2 "
            "FROM base WHERE n >= 2), "
            "dp AS (SELECT doc_id, w1, w2, CAST(count(*) AS BIGINT) AS c_doc "
            "FROM bi GROUP BY doc_id, w1, w2), "
            "big AS (SELECT w1, w2, CAST(sum(c_doc) AS BIGINT) AS c "
            "FROM dp GROUP BY w1, w2), "
            "ctx AS (SELECT w1, CAST(sum(c) AS BIGINT) AS cc FROM big GROUP BY w1), "
            "sc AS (SELECT d.doc_id, d.c_doc, "
            "ln((b.c + 0.1) / (x.cc + 0.1 * (SELECT V FROM vocab))) AS lp "
            "FROM dp d JOIN big b USING (w1, w2) JOIN ctx x USING (w1)) "
            "SELECT doc_id, CAST(sum(c_doc) AS BIGINT) AS n_bigrams, "
            "ROUND(sum(c_doc * lp) / sum(c_doc), 6) AS avg_logp "
            "FROM sc GROUP BY doc_id ORDER BY doc_id"
        ),
        "url_canonical_dedup": (
            # replay the augmentation (5 variants per url) and the exact
            # canonicalization rule chain (stages/urlnorm.py docstring):
            # frag strip -> prefix lowercase -> default-port strip ->
            # utm param filter -> trailing-slash strip
            "WITH pages AS (SELECT url FROM read_parquet('"
            + os.path.join(_graph_work(_ORACLE_SF)[0], "*.parquet")
            + "')), "
            "pref AS (SELECT url, COALESCE(regexp_extract(url, "
            "'^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*'), '') AS p FROM pages), "
            "aug AS ("
            "SELECT url AS u FROM pages "
            "UNION ALL SELECT url || '?utm_source=feed&utm_campaign=x' FROM pages "
            "UNION ALL SELECT upper(p) || substr(url, length(p) + 1) || '#sec' FROM pref "
            "UNION ALL SELECT url || '/?a=1&utm_medium=m' FROM pages "
            "UNION ALL SELECT regexp_replace(url, '^(http://[^/?#:]*)', '\\1:80') FROM pages), "
            "s1 AS (SELECT regexp_replace(u, '#.*$', '') AS u FROM aug), "
            "s2 AS (SELECT COALESCE(regexp_extract(u, "
            "'^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*'), '') AS p, u FROM s1), "
            "s3 AS (SELECT lower(p) || substr(u, length(p) + 1) AS u FROM s2), "
            "s4 AS (SELECT regexp_replace(regexp_replace(u, "
            "'^(http://[^/?#:]*):80([/?#]|$)', '\\1\\2'), "
            "'^(https://[^/?#:]*):443([/?#]|$)', '\\1\\2') AS u FROM s3), "
            "s5 AS (SELECT CASE WHEN strpos(u, '?') > 0 "
            "THEN substr(u, 1, strpos(u, '?') - 1) ELSE u END AS base, "
            "CASE WHEN strpos(u, '?') > 0 THEN substr(u, strpos(u, '?') + 1) "
            "ELSE NULL END AS q FROM s4), "
            "s6 AS (SELECT regexp_replace(base, '([^/])/$', '\\1') AS base, "
            "CASE WHEN q IS NULL THEN NULL ELSE list_filter(string_split(q, '&'), "
            "x -> x <> '' AND NOT regexp_matches(x, '^utm_')) END AS ps FROM s5), "
            "canon AS (SELECT base || CASE WHEN ps IS NOT NULL AND len(ps) > 0 "
            "THEN '?' || array_to_string(ps, '&') ELSE '' END AS canonical_url "
            "FROM s6) "
            "SELECT canonical_url, CAST(count(*) AS BIGINT) AS n_variants "
            "FROM canon GROUP BY canonical_url ORDER BY canonical_url"
        ),
        "doc_token_df": (
            "SELECT token, count(DISTINCT doc_id) AS df FROM ("
            f"SELECT doc_id, unnest(regexp_split_to_array(trim(lower(text)), '{_WS}')) AS token "
            "FROM documents) WHERE token <> '' GROUP BY token ORDER BY token"
        ),
        "doc_cms_counts": _cms_oracle_sql(_CMS_W, _CMS_D),
        "doc_pmi": (
            "WITH toks AS (SELECT DISTINCT doc_id, token FROM ("
            f"SELECT doc_id, unnest(regexp_split_to_array(trim(lower(text)), '{_WS}')) "
            "AS token FROM documents) WHERE token <> ''), "
            "kept AS (SELECT doc_id, token FROM ("
            "SELECT doc_id, token, row_number() OVER "
            "(PARTITION BY doc_id ORDER BY token) AS rn FROM toks) "
            f"WHERE rn <= {_PMI_MAX_TOKENS}), "
            "df AS (SELECT token, CAST(count(*) AS BIGINT) AS dfc "
            "FROM kept GROUP BY token), "
            "pairs AS (SELECT x.token AS tok_a, y.token AS tok_b, "
            "CAST(count(*) AS BIGINT) AS co_df "
            "FROM kept x JOIN kept y ON x.doc_id = y.doc_id AND x.token < y.token "
            f"GROUP BY 1, 2 HAVING count(*) >= {_PMI_MIN_COUNT}), "
            "n AS (SELECT CAST(count(*) AS DOUBLE) AS nd FROM documents) "
            "SELECT p.tok_a, p.tok_b, p.co_df, "
            "ROUND(ln(p.co_df * n.nd / (a.dfc * b.dfc)), 6) AS pmi "
            "FROM pairs p CROSS JOIN n "
            "JOIN df a ON a.token = p.tok_a JOIN df b ON b.token = p.tok_b "
            "ORDER BY tok_a, tok_b"
        ),
        "doc_inverted_index": (
            "WITH tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf "
            "FROM ("
            f"SELECT doc_id, unnest(regexp_split_to_array(lower(text), '{_WS}')) "
            "AS token FROM documents) "
            "WHERE token <> '' GROUP BY doc_id, token) "
            "SELECT token, CAST(count(*) AS BIGINT) AS df, "
            "CAST(sum(tf) AS BIGINT) AS cf, "
            "string_agg(doc_id || ':' || tf, ',' ORDER BY doc_id) AS postings "
            "FROM tf GROUP BY token ORDER BY token"
        ),
        "doc_minhash_dedup": (
            _jaccard_pairs_sql(0.7).replace("WITH toks", "WITH RECURSIVE toks")
            + ", edges AS (SELECT a, b FROM jpairs UNION SELECT b, a FROM jpairs), "
            "verts AS (SELECT DISTINCT a AS v FROM edges), "
            "reach AS (SELECT v, v AS l FROM verts "
            "UNION "
            "SELECT e.b AS v, r.l FROM reach r JOIN edges e ON e.a = r.v) "
            # min reachable id = the union-find representative
            "SELECT v AS doc_id, min(l) AS cluster_rep FROM reach "
            "GROUP BY v ORDER BY doc_id"
        ),
        # streaming path, same truth: the exhaustive-Jaccard reachability
        # oracle doesn't care which pipeline produced the clusters
        "doc_minhash_stream": (
            _jaccard_pairs_sql(0.7).replace("WITH toks", "WITH RECURSIVE toks")
            + ", edges AS (SELECT a, b FROM jpairs UNION SELECT b, a FROM jpairs), "
            "verts AS (SELECT DISTINCT a AS v FROM edges), "
            "reach AS (SELECT v, v AS l FROM verts "
            "UNION "
            "SELECT e.b AS v, r.l FROM reach r JOIN edges e ON e.a = r.v) "
            "SELECT v AS doc_id, min(l) AS cluster_rep FROM reach "
            "GROUP BY v ORDER BY doc_id"
        ),
        "doc_ngram_jaccard": (
            _jaccard_pairs_sql(0.5) + " SELECT a, b FROM jpairs ORDER BY a, b"
        ),
        "doc_simhash_pairs": _simhash_oracle_sql(),
        "doc_fingerprint": _fingerprint_oracle_sql(),
        "doc_repetition": (
            # dup_token_frac = 1 - distinct/n; top_bigram_frac = max bigram
            # count / (n-1). Single integer-ratio divisions — bit-exact vs
            # the pipeline with no rounding. Same tokenization contract.
            f"WITH toks AS (SELECT doc_id, list_filter("
            f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '') AS t "
            "FROM documents), "
            "base AS (SELECT doc_id, t, len(t) AS n FROM toks), "
            "dup AS (SELECT doc_id, CASE WHEN n = 0 THEN 0.0 ELSE "
            "1.0 - CAST(len(list_distinct(t)) AS DOUBLE) / n END AS dup_token_frac "
            "FROM base), "
            "bi AS (SELECT doc_id, n, unnest(list_transform("
            "generate_series(1, n - 1), i -> t[i] || ' ' || t[i+1])) AS bg "
            "FROM base WHERE n >= 2), "
            "bc AS (SELECT doc_id, max(c) AS mx, any_value(n) AS n FROM ("
            "SELECT doc_id, bg, any_value(n) AS n, count(*) AS c "
            "FROM bi GROUP BY doc_id, bg) GROUP BY doc_id), "
            "top AS (SELECT b.doc_id, COALESCE("
            "CAST(bc.mx AS DOUBLE) / (bc.n - 1), 0.0) AS top_bigram_frac "
            "FROM base b LEFT JOIN bc ON b.doc_id = bc.doc_id) "
            "SELECT d.doc_id, d.dup_token_frac, top.top_bigram_frac "
            "FROM dup d JOIN top ON d.doc_id = top.doc_id ORDER BY d.doc_id"
        ),
        "doc_contamination": (
            # exact string-intersection replay of the 5-gram contamination
            # fraction (pipeline runs on 64-bit shingle hashes; collision
            # bound documented in stages/contamination.py)
            f"WITH toks AS (SELECT doc_id, list_filter("
            f"regexp_split_to_array(lower(text), '{_WS}'), x -> x <> '') AS t "
            "FROM documents), "
            "sh AS (SELECT doc_id, CASE WHEN len(t) < 5 "
            "THEN [array_to_string(t, ' ')] "
            "ELSE list_transform(generate_series(1, len(t) - 4), "
            "i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' || t[i+3] "
            "|| ' ' || t[i+4]) END AS shingles FROM toks WHERE len(t) > 0), "
            "ex AS (SELECT doc_id, unnest(list_distinct(shingles)) AS s FROM sh), "
            "bench AS (SELECT DISTINCT s FROM ex WHERE doc_id % 97 = 0), "
            "train AS (SELECT doc_id, s FROM ex WHERE doc_id % 97 <> 0), "
            "tot AS (SELECT doc_id, count(*) AS n FROM train GROUP BY doc_id), "
            "hit AS (SELECT t.doc_id, count(*) AS h FROM train t "
            "JOIN bench b ON t.s = b.s GROUP BY t.doc_id) "
            "SELECT d.doc_id, COALESCE(CAST(h.h AS DOUBLE) / tot.n, 0.0) "
            "AS contaminated_frac "
            "FROM (SELECT doc_id FROM documents WHERE doc_id % 97 <> 0) d "
            "LEFT JOIN tot ON d.doc_id = tot.doc_id "
            "LEFT JOIN hit h ON d.doc_id = h.doc_id ORDER BY d.doc_id"
        ),
        "doc_bloom_contamination": _bloom_oracle_sql(),
        "doc_pii_scan": _pii_oracle_sql(),
        "doc_heavy_hitters": (
            # list_filter (not trim) so leading tabs/newlines can't yield a
            # phantom '' token Python's split() never produces
            "SELECT token, count(*) AS n FROM ("
            "SELECT unnest(list_filter(regexp_split_to_array(lower(text), "
            f"'{_WS}'), x -> x <> '')) AS token FROM documents) "
            "GROUP BY token ORDER BY n DESC, token ASC LIMIT 20"
        ),
        "doc_sample": (
            "SELECT doc_id FROM documents "
            "WHERE (doc_id * 2654435761) % 4294967296 % 100 < 5"
        ),
        "doc_weighted_mix": (
            "SELECT doc_id, source FROM documents "
            "WHERE (doc_id * 2654435761) % 4294967296 % 100 < CASE source "
            + " ".join(
                f"WHEN '{k}' THEN {v}" for k, v in sorted(_MIX_RATES.items())
            )
            + " ELSE 10 END ORDER BY doc_id"
        ),
        "doc_span_dedup": (
            # unnest 8-token chunks with position; keep-first replay via
            # row_number over (doc_id, pos) per exact chunk text
            "WITH toks AS (SELECT doc_id, list_filter("
            f"regexp_split_to_array(text, '{_WS}'), x -> x <> '') AS ts "
            "FROM documents), "
            "nch AS (SELECT doc_id, ts, "
            "CAST(ceil(len(ts) / 8.0) AS BIGINT) AS nc FROM toks), "
            "pos AS (SELECT doc_id, ts, unnest(range(nc)) AS p FROM nch), "
            "chunks AS (SELECT doc_id, p, array_to_string("
            "list_slice(ts, p * 8 + 1, p * 8 + 8), ' ') AS chunk FROM pos), "
            "ranked AS (SELECT doc_id, p, row_number() OVER ("
            "PARTITION BY chunk ORDER BY doc_id, p) AS rn FROM chunks), "
            "agg AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks, "
            "CAST(sum(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) "
            "AS kept_chunks FROM ranked GROUP BY doc_id) "
            "SELECT d.doc_id, coalesce(a.n_chunks, 0) AS n_chunks, "
            "coalesce(a.kept_chunks, 0) AS kept_chunks "
            "FROM documents d LEFT JOIN agg a USING (doc_id) ORDER BY d.doc_id"
        ),
        "doc_span_clean": (
            # same chunking + keep-first election as doc_span_dedup, then
            # position-ordered string_agg reassembly of the survivors
            "WITH toks AS (SELECT doc_id, list_filter("
            f"regexp_split_to_array(text, '{_WS}'), x -> x <> '') AS ts "
            "FROM documents), "
            "nch AS (SELECT doc_id, ts, "
            "CAST(ceil(len(ts) / 8.0) AS BIGINT) AS nc FROM toks), "
            "pos AS (SELECT doc_id, ts, unnest(range(nc)) AS p FROM nch), "
            "chunks AS (SELECT doc_id, p, array_to_string("
            "list_slice(ts, p * 8 + 1, p * 8 + 8), ' ') AS chunk FROM pos), "
            "ranked AS (SELECT doc_id, p, chunk, row_number() OVER ("
            "PARTITION BY chunk ORDER BY doc_id, p) AS rn FROM chunks), "
            "clean AS (SELECT doc_id, string_agg(chunk, ' ' ORDER BY p) "
            "AS clean_text FROM ranked WHERE rn = 1 GROUP BY doc_id) "
            "SELECT d.doc_id, coalesce(c.clean_text, '') AS clean_text "
            "FROM documents d LEFT JOIN clean c USING (doc_id) "
            "ORDER BY d.doc_id"
        ),
        "doc_shuffle": (
            # seeded knuth31 high bits + id low bits; rank replayed by
            # row_number over the reconstructed key (seed 7, see query)
            "WITH k AS (SELECT doc_id, "
            "(((doc_id + 7) * 2654435761) % 4294967296 // 2) * 4294967296 "
            "+ doc_id AS shuffle_key FROM documents) "
            "SELECT doc_id, shuffle_key, "
            "CAST(row_number() OVER (ORDER BY shuffle_key) - 1 AS BIGINT) "
            "AS position FROM k ORDER BY doc_id"
        ),
        "doc_sequence_pack": (
            # window running-sum replay of the distributed prefix scan;
            # capacity 512 matches the query
            "WITH tc AS (SELECT doc_id, len(list_filter("
            f"regexp_split_to_array(text, '{_WS}'), x -> x <> '')) AS n_tokens "
            "FROM documents), "
            "s AS (SELECT doc_id, n_tokens, sum(n_tokens) OVER ("
            "ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
            ") - n_tokens AS p FROM tc) "
            "SELECT doc_id, n_tokens, CAST(p // 512 AS BIGINT) AS bin_id, "
            "CAST(p % 512 AS BIGINT) AS bin_offset FROM s ORDER BY doc_id"
        ),
        "doc_chunks": (
            # window=32/stride=16 replay: starts from generate-series range,
            # chunk text via 1-based inclusive list_slice + single-space join
            "WITH toks AS (SELECT doc_id, list_filter("
            f"regexp_split_to_array(text, '{_WS}'), x -> x <> '') AS tl "
            "FROM documents), "
            "nz AS (SELECT doc_id, tl, len(tl) AS n FROM toks WHERE len(tl) > 0), "
            "st AS (SELECT doc_id, tl, n, unnest(range(0, n, 16)) AS start FROM nz) "
            "SELECT doc_id, CAST(start // 16 AS BIGINT) AS chunk_id, "
            "CAST(start AS BIGINT) AS start_tok, "
            "CAST(LEAST(32, n - start) AS BIGINT) AS n_tokens, "
            "array_to_string(tl[start + 1 : start + 32], ' ') AS chunk_text "
            "FROM st ORDER BY doc_id, chunk_id"
        ),
        "doc_stratified_sample": (
            # 10 per language by the shared Knuth sampling hash, id tiebreak
            f"WITH lang AS ({_langid_oracle_sql()}), "
            "h AS (SELECT doc_id, lang_pred, "
            "(doc_id * 2654435761) % 4294967296 AS hh FROM lang), "
            "r AS (SELECT doc_id, lang_pred, row_number() OVER ("
            "PARTITION BY lang_pred ORDER BY hh, doc_id) AS rn FROM h) "
            "SELECT doc_id, lang_pred FROM r WHERE rn <= 10 ORDER BY doc_id"
        ),
        "doc_split_counts": (
            "SELECT split, count(*) AS n FROM ("
            "SELECT CASE WHEN (doc_id * 2654435761) % 4294967296 % 100 < 90 "
            "THEN 'train' WHEN (doc_id * 2654435761) % 4294967296 % 100 < 95 "
            "THEN 'val' ELSE 'test' END AS split FROM documents) "
            "GROUP BY split ORDER BY split"
        ),
        "props_rollup": (
            "SELECT CAST(json_extract(props, '$.k') AS BIGINT) AS k, "
            "count(*) AS n, ROUND(sum(value), 4) AS sum_value "
            "FROM events GROUP BY k ORDER BY k"
        ),
        "doc_token_count": (
            # len(list_filter(...)) is whitespace-kind-robust (DuckDB trim
            # strips only spaces, not tabs/newlines)
            "SELECT doc_id, len(list_filter(regexp_split_to_array(text, "
            f"'{_WS}'), x -> x <> '')) AS n_tokens FROM documents"
        ),
        "doc_jsonl_ingest": (
            # reads the STAGED JSONL itself (not the parquet view): the
            # write_json -> read_json round-trip is inside the check
            "SELECT doc_id, len(list_filter(regexp_split_to_array(text, "
            f"'{_WS}'), x -> x <> '')) AS n_tokens "
            f"FROM read_json_auto('{_jsonl_dir(_ORACLE_SF)}/*.json') "
            "ORDER BY doc_id"
        ),
        "doc_csv_ingest": (
            # reads the STAGED CSV itself: the write_csv -> read_csv
            # round-trip (RFC-4180 quoting) is inside the check
            # COALESCE: CSV has no ''-vs-NULL distinction for unquoted
            # empties — both sides count an empty/null text as 0 tokens
            "SELECT doc_id, COALESCE(len(list_filter(regexp_split_to_array("
            f"text, '{_WS}'), x -> x <> '')), 0) AS n_tokens "
            f"FROM read_csv('{_csv_dir(_ORACLE_SF)}/*.csv', header = true, "
            "columns = {'doc_id': 'BIGINT', 'text': 'VARCHAR'}) "
            "ORDER BY doc_id"
        ),
        "doc_quality": (
            "SELECT doc_id, length(text) AS n_chars, "
            "CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE) "
            "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END AS alpha_ratio, "
            "CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS DOUBLE) "
            "/ CASE WHEN length(text) = 0 THEN 1 ELSE length(text) END AS digit_ratio "
            "FROM documents"
        ),
        "emb_label_counts": (
            "SELECT label, count(*) AS n FROM embeddings GROUP BY label ORDER BY label"
        ),
        # r5: the splitmix64 hash IS now SQL-replayed (_splitmix64_sql,
        # HyperBall oracle) and the LSH bucketer is fully oracled below.
        "emb_near_dup_lsh": _lsh_oracle_sql(),
        # r5: staged-index replay — probe selection + union membership +
        # exact cosine ranking (was the last rows-only emb query)
        "emb_knn_ivf": _ivf_oracle_sql(_ORACLE_SF),
        # r5: HLL distinct-count replay — exact-integer register sum
        "distinct_users_approx": _distinct_users_approx_oracle_sql(),
        # Rows-only queries, each with its pytest exactness oracle:
        #   emb_knn_ivf — approximate-by-design scale variant of the
        #     ORACLED exact emb_knn; recall asserted in pytest (and
        #     measured per bench run: ivf_recall); the clustering step
        #     itself is exactly oracled via emb_kmeans (staged centroids)
    }
