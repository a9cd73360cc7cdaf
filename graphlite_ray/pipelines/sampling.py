"""GraphSAGE-style deterministic k-hop neighbor sampling.

A training pipeline over a link graph consumes bounded-fanout neighbor
samples per seed (GraphSAGE-shape minibatch trees), not full adjacency:
hub pages have millions of in-links and an unbounded gather would blow
both the message volume and the trainer's batch shape. The reference
engine has no sampling operator (its vertex programs always see every
edge, GraphLite-0.20/GraphLite/engine/*); this is a training-data
extension in the SURVEY §2.7/§6 "beyond the reference" family.

Design — sampling is a property of the VERTEX, not the seed: each
vertex's fixed `fanout`-sized out-sample is chosen once by ranking its
DISTINCT out-neighbors by the splitmix64 key mix64(mix64(src) ^ dst)
(deterministic, uniform over hashed ids, and bit-replayable in SQL via
the `_splitmix64_sql` oracle helper). That makes the sampled adjacency:

- ONE bucketed shuffle on src (`grouped_map_bucketed`), staged as
  co-partitioned bucket files (`joins.write_bucketed`), built once and
  reused by every hop and every seed batch;
- each hop a co-partitioned attach of the frontier against those files
  (`joins.attach_from_bucketed`) — the adjacency never re-shuffles, and
  the frontier grows as seeds x fanout^hop, which IS the sample the
  trainer consumes (no amplification beyond the output size).

Vertex ids are the engine's non-negative 63-bit url hashes
(`functions.hashing.ids_from_urls`), so all uint64 arithmetic is exact
on both the numpy and the HUGEINT oracle side.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from graphlite_ray.functions.grouping import grouped_map_bucketed
from graphlite_ray.functions.sketches import mix64
from graphlite_ray.pipelines.joins import attach_from_bucketed, write_bucketed
from graphlite_ray.state import storage


def sample_key(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """uint64 ranking key for edge (src, dst): mix64(mix64(src) ^ dst)."""
    return mix64(mix64(src.astype(np.uint64)) ^ dst.astype(np.uint64))


def sampled_adjacency(
    edges: "ray.data.Dataset", fanout: int, out_dir: str, B: int = 16
) -> str:
    """Stage each vertex's fixed out-sample: the `fanout` distinct
    out-neighbors with the smallest (sample_key, dst), bucketed by
    src % B for co-partitioned hop attaches. Returns the staged dir."""

    def _sample(g: pd.DataFrame) -> pd.DataFrame:
        m = g[["src", "dst"]].drop_duplicates()
        s = m["src"].to_numpy(np.int64)
        d = m["dst"].to_numpy(np.int64)
        key = sample_key(s, d)
        order = np.lexsort((d, key, s))
        s, d = s[order], d[order]
        # position within each src run
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        pos = np.arange(len(s)) - np.repeat(starts, np.diff(np.r_[starts, len(s)]))
        keep = pos < fanout
        return pd.DataFrame({"src": s[keep], "dst": d[keep]})

    adj = grouped_map_bucketed(edges, ["src"], _sample, B=B)
    return write_bucketed(adj, "src", B, out_dir)


def khop_sample(
    edges: "ray.data.Dataset",
    work_dir: str,
    hops: int = 2,
    fanout: int = 3,
    seed_mod: int = 8,
    B: int = 16,
) -> pd.DataFrame:
    """Bounded-fanout k-hop sample trees from the deterministic seed set
    (vertices with at least one out-edge and vid % seed_mod == 0; hashed
    ids make the mod a uniform sample). Returns one row per sampled tree
    edge: (seed, hop, parent, vertex_id) — duplicates across parents are
    kept, as a GraphSAGE tree requires."""
    adj_dir = storage.join(work_dir, f"khop_adj_f{fanout}_b{B}")
    storage.staged(adj_dir, lambda: sampled_adjacency(edges, fanout, adj_dir, B=B))

    def _seed_part(t: pa.Table) -> pa.Table:
        s = np.unique(t["src"].to_numpy(zero_copy_only=False))
        s = s[s % seed_mod == 0]
        return pa.table({"seed": pa.array(s, pa.int64())})

    seeds = np.unique(
        np.concatenate(
            [
                b["seed"].to_numpy(zero_copy_only=False)
                for b in edges.map_batches(_seed_part, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow")
            ]
            or [np.empty(0, np.int64)]
        )
    )
    frontier = ray.data.from_pandas(
        pd.DataFrame({"seed": seeds.astype(np.int64), "vertex": seeds.astype(np.int64)})
    ).repartition(max(1, min(B, len(seeds) // 64 + 1)))

    out_hops: list["ray.data.Dataset"] = []
    for h in range(1, hops + 1):
        attached = attach_from_bucketed(frontier, "vertex", adj_dir, B, "src")

        def _emit(b: pd.DataFrame, h=h) -> pd.DataFrame:
            if b.empty or "dst" not in b.columns:
                return pd.DataFrame(
                    {
                        "seed": pd.Series([], dtype="int64"),
                        "hop": pd.Series([], dtype="int64"),
                        "parent": pd.Series([], dtype="int64"),
                        "vertex_id": pd.Series([], dtype="int64"),
                    }
                )
            return pd.DataFrame(
                {
                    "seed": b["seed"],
                    "hop": np.int64(h),
                    "parent": b["vertex"],
                    "vertex_id": b["dst"],
                }
            )

        # materialize: the hop output is the bounded product the trainer
        # consumes (seeds x fanout^h rows); pinning it in the object store
        # keeps hop h+1 from re-running hops 1..h, and nothing reaches the
        # driver until the final collect
        hop_ds = attached.map_batches(_emit, batch_format="pandas").materialize()
        out_hops.append(hop_ds)
        if h < hops:
            frontier = hop_ds.map_batches(
                lambda b: b[["seed", "vertex_id"]].rename(
                    columns={"vertex_id": "vertex"}
                ),
                batch_format="pandas",
            )

    full = out_hops[0]
    for d in out_hops[1:]:
        full = full.union(d)
    out = full.to_pandas()
    return out.sort_values(
        ["seed", "hop", "parent", "vertex_id"], ignore_index=True
    )


SAGE_DIM = 8


def url_feature_rows(dim: int = SAGE_DIM):
    """map_batches fn: (vertex_id, url) -> sparse integer feature rows
    (vertex_id, dim, f) — f = how many of the url's lowercased
    alphanumeric tokens FNV-hash into bucket `dim`. Integer counts make
    every downstream pooling sum order-independent and bit-exact (the
    float-sum-order problem of mean-pooled learned embeddings never
    arises), and the FNV is the library `hash_strings` the SQL oracle
    already replays byte-for-byte (`_fnv_tok_sql(42)`)."""
    import re

    from graphlite_ray.functions.hashing import hash_strings

    split = re.compile(r"[^a-z0-9]+")

    def _feat(t: pa.Table) -> pd.DataFrame:
        urls = t["url"].to_pylist()
        vids = t["vertex_id"].to_numpy(zero_copy_only=False)
        toks_all: list[str] = []
        counts = np.zeros(len(urls), np.int64)
        for i, u in enumerate(urls):
            tk = [x for x in split.split(u.lower()) if x]
            counts[i] = len(tk)
            toks_all.extend(tk)
        if not toks_all:
            return pd.DataFrame(
                {
                    "vertex_id": pd.Series([], dtype="int64"),
                    "dim": pd.Series([], dtype="int64"),
                    "f": pd.Series([], dtype="int64"),
                }
            )
        b = (hash_strings(toks_all) % np.uint64(dim)).astype(np.int64)
        vid_rep = np.repeat(vids, counts)
        pairs, c = np.unique(np.stack([vid_rep, b], axis=1), axis=0, return_counts=True)
        return pd.DataFrame(
            {"vertex_id": pairs[:, 0], "dim": pairs[:, 1], "f": c.astype(np.int64)}
        )

    return _feat


def sage_features(
    edges: "ray.data.Dataset",
    urlmap: "ray.data.Dataset",
    work_dir: str,
    hops: int = 2,
    fanout: int = 3,
    seed_mod: int = 8,
    dim: int = SAGE_DIM,
    B: int = 16,
) -> pd.DataFrame:
    """GraphSAGE-style pooled neighborhood featurization — the composite
    minibatch operator a GNN trainer consumes: for every seed, SUM-pool
    the integer url-token features of its whole sampled k-hop tree (the
    seed itself plus every sampled tree row, duplicates across parents
    kept, exactly as the tree is trained on). Dense (seed, dim, f)
    output, integer-exact.

    Scale shape: vertex features are computed from the staged urlmap and
    staged ONCE as co-partitioned bucket files (reused across seed
    batches — the production layout for repeated minibatch epochs); the
    tree rides `khop_sample`'s bounded seeds x fanout^hop product; the
    pooling is a co-partitioned attach of tree rows on vertex_id plus a
    seeds x dim bounded final sum. Nothing graph-sized reaches the
    driver."""
    feats_dir = storage.join(work_dir, f"sage_feats_d{dim}_b{B}")
    storage.staged(feats_dir, lambda: write_bucketed(
        urlmap.map_batches(url_feature_rows(dim), batch_format="pyarrow"),
        "vertex_id", B, feats_dir))

    tree = khop_sample(edges, work_dir, hops=hops, fanout=fanout,
                       seed_mod=seed_mod, B=B)
    seeds = np.unique(tree["seed"].to_numpy(np.int64)) if len(tree) else np.empty(0, np.int64)
    rows = pd.concat(
        [
            pd.DataFrame({"seed": seeds, "vertex_id": seeds}),  # hop-0 self
            tree[["seed", "vertex_id"]],
        ],
        ignore_index=True,
    )
    tree_ds = ray.data.from_pandas(rows).repartition(max(1, min(B, len(rows) // 256 + 1)))
    attached = attach_from_bucketed(tree_ds, "vertex_id", feats_dir, B, "vertex_id")

    def _partial(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty or "dim" not in b.columns:
            return pd.DataFrame(
                {
                    "seed": pd.Series([], dtype="int64"),
                    "dim": pd.Series([], dtype="int64"),
                    "f": pd.Series([], dtype="int64"),
                }
            )
        out = b.groupby(["seed", "dim"], as_index=False)["f"].sum()
        out["f"] = out["f"].astype("int64")
        return out

    part = attached.map_batches(_partial, batch_format="pandas").to_pandas()
    pooled = (
        part.groupby(["seed", "dim"], as_index=False)["f"].sum()
        if len(part)
        else part
    )
    # dense seeds x dim grid with zero fill (stable output shape)
    grid = pd.MultiIndex.from_product(
        [seeds, np.arange(dim, dtype=np.int64)], names=["seed", "dim"]
    ).to_frame(index=False)
    out = grid.merge(pooled, on=["seed", "dim"], how="left")
    out["f"] = out["f"].fillna(0).astype("int64")
    return out.sort_values(["seed", "dim"], ignore_index=True)
