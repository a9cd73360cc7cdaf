"""End-to-end link-graph pipelines: pages parquet -> per-vertex results.

Staged, resumable layout under a work dir (every stage writes Parquet and
is skipped when its artifact already exists — the batch-pipeline meaning of
"resumable from checkpoint"):

    work_dir/
      edges/            (src:int64, dst:int64)           stage 1
      urlmap_p{p}.parquet (vertex_id, url) per partition stage 1
      graph/            CSR shards (+ graph_sym/ for CC/LPA)   stage 2
      ckpt_<algo>/      BSP checkpoints + manifests      stage 3

Reference lifecycle analog: SURVEY.md §3.4.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from graphlite_ray.engine import BSPResult, run_bsp
from graphlite_ray.programs import (
    BUILTIN_PROGRAMS,
    VertexProgram,
)
from graphlite_ray.stages.extract import (
    assign_ids_batch,
    extract_links_batch,
)
from graphlite_ray.state import storage
from graphlite_ray.state.csr import build_graph_shards, load_graph_meta


def prepare_edges(pages_dir: str, work_dir: str, P: int) -> str:
    """Stage 1: pages -> edge table parquet + per-partition url dictionary.

    One streaming pass: read only (url, html) (column pruning at the read),
    extract anchors, hash urls to ids. The edge table is persisted before
    the CSR build so downstream stages re-read Parquet instead of
    re-running extraction (lineage + resume)."""
    edges_dir = storage.join(work_dir, "edges")

    def build():
        # ONE extraction pass writes the staging table (src, dst, src_url,
        # dst_url); every consumer re-reads it with column pruning (edges
        # need 2 of 4 columns), so extraction cost is paid exactly once. A
        # crashed pass is cleared first: Ray's UUID-named output files would
        # otherwise accumulate into duplicated edge rows.
        pages = ray.data.read_parquet(pages_dir, columns=["url", "html"])
        edge_urls = pages.map_batches(extract_links_batch, batch_format="pyarrow")
        with_ids = edge_urls.map_batches(assign_ids_batch, batch_format="pyarrow")
        with_ids.write_parquet(edges_dir)

    return storage.staged(edges_dir, build)


def prepare_urlmap(work_dir: str, P: int) -> None:
    """Lazy stage 1b: url dictionary co-partitioned with the graph
    (vertex_id % P), derived from the staged edge table. Only paths that
    join urls back onto results (`result_with_urls`) pay for it —
    extraction-only consumers (triangles, degrees) never do. Resumable via
    its own marker."""
    marker = storage.join(work_dir, f"_URLMAP_P{P}_SUCCESS")
    if storage.exists(marker):
        return
    staged = ray.data.read_parquet(
        storage.join(work_dir, "edges"), columns=["src_url", "dst_url"]
    )

    def _pairs(batch: pa.Table) -> pa.Table:
        from graphlite_ray.functions.hashing import ids_from_urls

        urls = np.unique(
            np.concatenate(
                [
                    batch["src_url"].to_numpy(zero_copy_only=False),
                    batch["dst_url"].to_numpy(zero_copy_only=False),
                ]
            )
        )
        vids = ids_from_urls(urls)
        return pa.table(
            {
                "vertex_id": pa.array(vids),
                "url": pa.array(urls, pa.string()),
                "part": pa.array(vids % np.int64(P)),
            }
        )

    def _write_shard(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        vids = g["vertex_id"].to_numpy(zero_copy_only=False)
        order = np.argsort(vids)
        keep = np.ones(len(vids), bool)
        sv = vids[order]
        keep[1:] = sv[1:] != sv[:-1]
        t = pa.table(
            {
                "vertex_id": pa.array(sv[keep]),
                "url": pa.array(
                    g["url"].to_numpy(zero_copy_only=False)[order][keep], pa.string()
                ),
            }
        )
        storage.write_table_atomic(t, storage.join(work_dir, f"urlmap_p{p}.parquet"))
        return pa.table({"part": [p], "n": [t.num_rows]})

    (
        staged.map_batches(_pairs, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_write_shard, batch_format="pyarrow")
        .count()
    )
    storage.write_text(marker, "ok")


def prepare_graph(pages_dir: str, work_dir: str, P: int, symmetrize: bool = False) -> str:
    """Stage 2: edge table -> CSR shards (hash-partitioned by src % P)."""
    edges_dir = prepare_edges(pages_dir, work_dir, P)
    graph_dir = storage.join(work_dir, "graph_sym" if symmetrize else "graph")
    return storage.staged(graph_dir, lambda: build_graph_shards(
        ray.data.read_parquet(edges_dir, columns=["src", "dst"]), P, graph_dir,
        symmetrize=symmetrize))


# Outcome of the most recent BSP run per program name (halted flag +
# superstep count): queries whose DuckDB oracles carry a recursion cap
# assert against this that the engine run reached FIXPOINT rather than its
# own superstep cap — the guard the r4 ADVICE asked for (diverging caps on
# the two sides would otherwise fail silently on deeper graphs). Same
# registry pattern as relational.LAST_JOIN_STRATEGY.
LAST_BSP_OUTCOME: dict[str, dict] = {}


def _record_outcome(program: VertexProgram, result: BSPResult) -> BSPResult:
    LAST_BSP_OUTCOME[program.name] = {
        "halted": result.halted,
        "supersteps_run": result.supersteps_run,
        "final_superstep": result.final_superstep,
    }
    return result


def assert_halted_by_fixpoint(program_name: str) -> None:
    """Raise unless the last BSP run of `program_name` terminated by its
    own fixpoint rule (engine rule C4), not by hitting max_supersteps —
    the precondition for a capped recursive SQL oracle to be comparable."""
    out = LAST_BSP_OUTCOME.get(program_name)
    if out is None or not out["halted"]:
        raise AssertionError(
            f"BSP run for '{program_name}' was stopped by its superstep cap "
            f"(outcome: {out}); the capped SQL oracle is not comparable — "
            "raise the program bound"
        )


def run_algorithm(
    algo: str | VertexProgram,
    pages_dir: str,
    work_dir: str,
    P: int = 8,
    max_supersteps: int | None = None,
    ckpt_every: int = 0,
    resume: bool = False,
    routing: str = "auto",
    **program_kwargs,
) -> BSPResult:
    """Stages 1-3: pages -> BSP result for a built-in or custom program."""
    program = (
        BUILTIN_PROGRAMS[algo](**program_kwargs) if isinstance(algo, str) else algo
    )
    graph_dir = prepare_graph(pages_dir, work_dir, P, symmetrize=program.symmetrize)
    ckpt_dir = storage.join(work_dir, f"ckpt_{program.name}")
    return _record_outcome(program, run_bsp(
        program,
        graph_dir,
        ckpt_dir,
        max_supersteps=max_supersteps,
        ckpt_every=ckpt_every,
        resume=resume,
        routing=routing,
    ))


def run_on_edges(
    algo: str | VertexProgram,
    src: np.ndarray,
    dst: np.ndarray,
    work_dir: str,
    P: int = 4,
    max_supersteps: int | None = None,
    ckpt_every: int = 0,
    resume: bool = False,
    weights: np.ndarray | None = None,
    routing: str = "auto",
    **program_kwargs,
) -> BSPResult:
    """Run a program directly on an integer edge list (the reference's own
    input boundary — used by fixtures, oracle tests and benchmarks).
    Optional per-edge `weights` carry into the CSR shards (reference edge
    values)."""
    program = (
        BUILTIN_PROGRAMS[algo](**program_kwargs) if isinstance(algo, str) else algo
    )
    # weighted graphs get their own shard dir keyed by a weights fingerprint,
    # so a cached unweighted/differently-weighted build is never silently
    # reused (its _SUCCESS marker would otherwise skip the rebuild)
    suffix = "graph_sym" if program.symmetrize else "graph"
    if weights is not None:
        import hashlib

        w64 = np.asarray(weights, np.float64)
        suffix += "_w" + hashlib.blake2b(w64.tobytes(), digest_size=6).hexdigest()
    graph_dir = storage.join(work_dir, suffix)
    cols = {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
    if weights is not None:
        cols["weight"] = pa.array(np.asarray(weights, np.float64))
    storage.staged(graph_dir, lambda: build_graph_shards(
        ray.data.from_arrow(pa.table(cols)), P, graph_dir, symmetrize=program.symmetrize))
    ckpt_dir = storage.join(work_dir, f"ckpt_{program.name}")
    return _record_outcome(program, run_bsp(
        program,
        graph_dir,
        ckpt_dir,
        max_supersteps=max_supersteps,
        ckpt_every=ckpt_every,
        resume=resume,
        routing=routing,
    ))


def run_on_edge_dataset(
    algo: str | VertexProgram,
    edges: "ray.data.Dataset",
    work_dir: str,
    P: int = 8,
    tag: str = "",
    max_supersteps: int | None = None,
    ckpt_every: int = 0,
    resume: bool = False,
    routing: str = "auto",
    **program_kwargs,
) -> BSPResult:
    """Run a program on a STREAMING edge Dataset (src:int64, dst:int64
    [, weight:float64]) — the edge table never touches the driver; the CSR
    build is the pipeline's first shuffle. `tag` distinguishes graph
    variants (e.g. weighting schemes) sharing one work dir."""
    program = (
        BUILTIN_PROGRAMS[algo](**program_kwargs) if isinstance(algo, str) else algo
    )
    suffix = ("graph_sym" if program.symmetrize else "graph") + (f"_{tag}" if tag else "")
    graph_dir = storage.join(work_dir, suffix)
    storage.staged(graph_dir, lambda: build_graph_shards(
        edges, P, graph_dir, symmetrize=program.symmetrize))
    ckpt_dir = storage.join(work_dir, f"ckpt_{program.name}")
    return _record_outcome(program, run_bsp(
        program,
        graph_dir,
        ckpt_dir,
        max_supersteps=max_supersteps,
        ckpt_every=ckpt_every,
        resume=resume,
        routing=routing,
    ))


def hits_tagged_edges(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(src, dst) edge Dataset -> the direction-tagged multiset HITS runs
    on: each edge contributes (src, dst, w=HITS.FWD) and (dst, src, w=REV).
    A streaming map — doubles edge rows, never touches the driver."""
    from graphlite_ray.programs import HITS

    def _tag(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        n = len(s)
        w = np.empty(2 * n, np.float64)
        w[:n] = HITS.FWD
        w[n:] = HITS.REV
        return pa.table(
            {
                "src": np.concatenate([s, d]),
                "dst": np.concatenate([d, s]),
                "weight": w,
            }
        )

    return edges.map_batches(_tag, batch_format="pyarrow")


def scc_tagged_edges(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """SCC runs on the same direction-tagged multiset as HITS (forward
    tag 1 / reverse tag 2 — `programs.StronglyConnectedComponents.FWD/REV`
    equal `HITS.FWD/REV` by construction)."""
    return hits_tagged_edges(edges)


def scc_labels(
    edges: "ray.data.Dataset",
    work_dir: str,
    P: int = 8,
    resume: bool = False,
    max_supersteps: int = 2000,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (vertex_id, scc_id) where
    scc_id = the MAX member id of the vertex's strongly connected
    component (the coloring algorithm's root — see
    `programs.StronglyConnectedComponents`). One tagged CSR build, one
    multi-phase BSP run; nothing graph-sized on the driver."""
    res = run_on_edge_dataset(
        "scc", scc_tagged_edges(edges), work_dir, P=P, tag="sccdir",
        resume=resume, max_supersteps=max_supersteps,
    )

    def _out(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex_id": t["vertex_id"], "scc_id": t["value"]}
        )

    return res.values().map_batches(_out, batch_format="pyarrow")


def _strip_self_loops(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Drop src==dst rows: the simple-graph prefilter shared by the MIS and
    coloring pipelines (a self-looped vertex can neither be independent nor
    properly colored)."""

    def _noself(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        keep = s != d
        return pa.table({"src": s[keep], "dst": d[keep]})

    return edges.map_batches(_noself, batch_format="pyarrow")


def mis_labels(
    edges: "ray.data.Dataset",
    work_dir: str,
    P: int = 8,
    resume: bool = False,
    max_rounds: int = 64,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (vertex_id, in_mis) for the
    maximal independent set of the SIMPLE undirected graph: self-loops are
    stripped (`_strip_self_loops`; `programs.MaximalIndependentSet`
    docstring), parallel edges are harmless under the max combiner. The
    vertex universe is the de-looped edge table's endpoints."""
    res = run_on_edge_dataset(
        "mis", _strip_self_loops(edges), work_dir,
        P=P, tag="noself", resume=resume, max_rounds=max_rounds,
    )

    def _out(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"vertex_id": t["vertex_id"], "in_mis": (v == 1.0).astype(np.int64)}
        )

    return res.values().map_batches(_out, batch_format="pyarrow")


def coloring_labels(
    edges: "ray.data.Dataset",
    work_dir: str,
    P: int = 8,
    resume: bool = False,
    max_rounds: int = 512,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (vertex_id, color) — proper
    greedy coloring of the SIMPLE undirected graph (`programs.
    GreedyColoring`: largest-first rounds, color = round index). Self-loops
    stripped (`_strip_self_loops`); universe = de-looped endpoints."""
    res = run_on_edge_dataset(
        "coloring", _strip_self_loops(edges), work_dir,
        P=P, tag="noself", resume=resume, max_rounds=max_rounds,
        max_supersteps=max_rounds + 2,  # run_bsp caps at min() with the
    )                                   # program's own bound

    def _out(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"vertex_id": t["vertex_id"], "color": v.astype(np.int64)}
        )

    return res.values().map_batches(_out, batch_format="pyarrow")


def bipartite_components(
    edges: "ray.data.Dataset",
    work_dir: str,
    P: int = 8,
    resume: bool = False,
) -> "ray.data.Dataset":
    """edges -> Dataset (component, n_vertices, is_bipartite): per
    weakly-connected component, whether it is 2-colorable. TWO composed
    BSP runs over ONE shared graph layout: ConnectedComponents produces
    the roots (min-id labels), then `programs.BipartiteCheck` reads the
    CC checkpoint's per-partition value shards directly at init (same
    partition function — no shuffle) and runs the parity BFS. The final
    rollup joins parity/conflict back to the labels with one bucketed
    attach and aggregates per component."""
    from graphlite_ray.functions.grouping import grouped_map_bucketed
    from graphlite_ray.pipelines.joins import attach_from_bucketed, write_bucketed
    from graphlite_ray.programs import BipartiteCheck

    cc = run_on_edge_dataset(
        "connected_components", edges, work_dir, P=P, resume=resume
    )
    labels_dir = storage.join(cc.ckpt_dir, f"ss_{cc.final_superstep}")
    bp = run_on_edge_dataset(
        BipartiteCheck(labels_dir), edges, work_dir, P=P, resume=resume
    )

    B = 16
    lab_dir = write_bucketed(
        cc.values().map_batches(
            lambda t: pa.table({"vertex_id": t["vertex_id"], "comp": t["value"]}),
            batch_format="pyarrow",
        ),
        "vertex_id", B, storage.join(work_dir, "bip_labels"),
    )
    joined = attach_from_bucketed(
        bp.values().map_batches(
            lambda t: pa.table(
                {
                    "vertex_id": t["vertex_id"],
                    "pv": t["value"].to_numpy(zero_copy_only=False).astype(np.int64),
                }
            ),
            batch_format="pyarrow",
        ),
        "vertex_id", lab_dir, B, "vertex_id",
    )

    def _roll(g):
        agg = g.groupby("comp").agg(
            n_vertices=("vertex_id", "size"),
            worst=("pv", "max"),
        )
        agg = agg.reset_index()
        agg["is_bipartite"] = (agg["worst"] < 2).astype(np.int64)
        return agg.drop(columns=["worst"]).rename(columns={"comp": "component"}).astype(
            {"n_vertices": "int64"}
        )

    return grouped_map_bucketed(joined, ["comp"], _roll, B=B)


def coreness_labels(
    edges: "ray.data.Dataset",
    work_dir: str,
    P: int = 8,
    resume: bool = False,
    max_rounds: int = 256,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (vertex_id, coreness):
    full k-core decomposition of the SIMPLE undirected graph
    (`programs.Coreness` H-index iteration). Edges are deduped to
    canonical non-loop pairs here — a duplicated neighbor would
    double-count in the H multiset."""
    from graphlite_ray.pipelines.triangles import _canonical_simple_edges

    simple = _canonical_simple_edges(edges).map_batches(
        lambda t: pa.table({"src": t["lo"], "dst": t["hi"]}),
        batch_format="pyarrow",
    )
    res = run_on_edge_dataset(
        "coreness", simple, work_dir, P=P, tag="simple", resume=resume,
        max_rounds=max_rounds, max_supersteps=max_rounds + 2,
    )

    def _out(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vertex_id": t["vertex_id"],
                "coreness": t["value"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )

    return res.values().map_batches(_out, batch_format="pyarrow")


def betweenness_scores(
    edges: "ray.data.Dataset",
    sources: list[int],
    work_dir: str,
    P: int = 8,
    resume: bool = False,
    max_levels: int = 64,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (vertex_id, betweenness):
    sampled-source Brandes betweenness over the DISTINCT directed simple
    graph (`programs.Betweenness`). Parallel edges are deduped here (a
    parallel edge is not an extra shortest path) and the FWD/REV direction
    tags are attached for the single tagged CSR build."""
    from graphlite_ray.functions.grouping import grouped_map_bucketed
    from graphlite_ray.programs import Betweenness

    def _pre(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        u = np.unique(np.stack([s, d], axis=1), axis=0)
        return pa.table({"src": u[:, 0], "dst": u[:, 1]})

    def _dedup(g):
        return g.drop_duplicates(["src", "dst"])

    distinct = grouped_map_bucketed(
        edges.map_batches(_pre, batch_format="pyarrow"), ["src", "dst"], _dedup
    )

    def _tag(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        n = len(s)
        w = np.empty(2 * n, np.float64)
        w[:n] = Betweenness.FWD
        w[n:] = Betweenness.REV
        return pa.table(
            {
                "src": np.concatenate([s, d]),
                "dst": np.concatenate([d, s]),
                "weight": w,
            }
        )

    res = run_on_edge_dataset(
        Betweenness(sources, max_levels=max_levels),
        distinct.map_batches(_tag, batch_format="pyarrow"),
        work_dir,
        P=P,
        tag="bcdir",
        resume=resume,
        max_supersteps=2 * max_levels + 4,
    )

    def _out(t: pa.Table) -> pa.Table:
        return pa.table(
            {"vertex_id": t["vertex_id"], "betweenness": t["value"]}
        )

    return res.values().map_batches(_out, batch_format="pyarrow")


def matching_labels(
    edges: "ray.data.Dataset",
    work_dir: str,
    P: int = 8,
    resume: bool = False,
    max_rounds: int = 256,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (vertex_id, partner) — a
    maximal matching of the SIMPLE undirected graph (`programs.
    MaximalMatching` pointer handshake; partner = matched vertex's global
    id, -1 unmatched). Self-loops stripped (`_strip_self_loops`);
    universe = de-looped endpoints."""
    res = run_on_edge_dataset(
        "matching", _strip_self_loops(edges), work_dir,
        P=P, tag="noself", resume=resume, max_rounds=max_rounds,
        max_supersteps=2 * max_rounds + 2,
    )

    def _out(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "vertex_id": t["vertex_id"],
                "partner": t["value"].to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )

    return res.values().map_batches(_out, batch_format="pyarrow")


HOST_RE = r"^[a-z]+://([^/]+)"


def host_edges(work_dir: str) -> "ray.data.Dataset":
    """Page-level edge table -> host-level edge rows (one row per
    page-level link, hosts extracted with HOST_RE — the standard
    Common-Crawl host-graph collapse). Streaming map over the staged
    edges; multiplicity preserved so host PageRank weights by link
    count."""
    import pandas as pd

    staged = ray.data.read_parquet(
        storage.join(work_dir, "edges"), columns=["src_url", "dst_url"]
    )

    def _hosts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src_host": df["src_url"].str.extract(HOST_RE, expand=False),
                "dst_host": df["dst_url"].str.extract(HOST_RE, expand=False),
            }
        ).dropna()

    return staged.map_batches(_hosts, batch_format="pandas")


def host_edge_counts(work_dir: str) -> "ray.data.Dataset":
    """Host graph with edge weights = page-level link counts:
    (src_host, dst_host, n). Partial per-batch counts, one bucketed
    shuffle on the host pair."""
    import pandas as pd

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["src_host", "dst_host"], as_index=False).agg(
            n=("src_host", "size")
        )

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["src_host", "dst_host"], as_index=False)["n"].sum()
        out["n"] = out["n"].astype("int64")
        return out

    return grouped_map_bucketed(
        host_edges(work_dir).map_batches(_partial, batch_format="pandas"),
        ["src_host", "dst_host"],
        _final,
        B=16,
    )


class _JoinUrls:
    """Per-partition zero-shuffle join of result values with the url
    dictionary: both sides were laid out by vertex_id % P in stage 1 /
    checkpointing, so each task touches exactly two co-partitioned files."""

    def __init__(self, work_dir: str, ckpt_dir: str, final_ss: int):
        self.work_dir = work_dir
        self.values_dir = storage.join(ckpt_dir, f"ss_{final_ss}")

    def __call__(self, batch: pa.Table) -> pa.Table:
        outs = []
        for p in batch["part"].to_pylist():
            vpath = storage.join(self.values_dir, f"values_p{p}.parquet")
            upath = storage.join(self.work_dir, f"urlmap_p{p}.parquet")
            if not storage.exists(vpath):
                continue
            vt = storage.read_table(vpath)
            vids = vt["vertex_id"].to_numpy(zero_copy_only=False)
            matched = np.full(len(vids), None, object)
            if storage.exists(upath):
                ut = storage.read_table(upath)
                uvids = ut["vertex_id"].to_numpy(zero_copy_only=False)
                if len(uvids):
                    urls_np = ut["url"].to_numpy(zero_copy_only=False)
                    pos = np.clip(np.searchsorted(uvids, vids), 0, len(uvids) - 1)
                    hit = uvids[pos] == vids
                    matched[hit] = urls_np[pos[hit]]
            outs.append(
                pa.table(
                    {
                        "vertex_id": vt["vertex_id"],
                        "url": pa.array(matched.tolist(), pa.string()),
                        "value": vt["value"],
                    }
                )
            )
        if not outs:
            return pa.table(
                {
                    "vertex_id": pa.array([], pa.int64()),
                    "url": pa.array([], pa.string()),
                    "value": pa.array([], pa.float64()),
                }
            )
        return pa.concat_tables(outs)


def result_with_urls(result: BSPResult, work_dir: str) -> "ray.data.Dataset":
    """BSP result -> Dataset (vertex_id, url, value), distributed per-part."""
    meta = None
    for g in ("graph", "graph_sym"):
        p = storage.join(work_dir, g, "meta.json")
        if storage.exists(p):
            meta = load_graph_meta(storage.join(work_dir, g))
            break
    P = meta["P"] if meta else 8
    if storage.complete(storage.join(work_dir, "edges")):
        prepare_urlmap(work_dir, P)  # no-op when already built
    parts = ray.data.from_items([{"part": p} for p in range(P)])
    return parts.map_batches(
        _JoinUrls(work_dir, result.ckpt_dir, result.final_superstep),
        batch_format="pyarrow",
        batch_size=1,
    )


def format_reference_output(scores: "ray.data.Dataset") -> "ray.data.Dataset":
    """Render the reference's output lines `"<vid>: <value>"` (`%f`, 6
    decimals — `example/PageRankVertex.cc:106-119`) for byte-compat export.
    Thin wrapper over the pluggable formatter protocol
    (`sources/formatters.py`) with the reference line format."""
    from graphlite_ray.sources.formatters import format_output

    return format_output(scores)
