"""Hash-partitioned CSR shards: the Ray-Data-native analog of the
reference's per-worker Node/Edge contiguous arrays.

Reference parity (see SURVEY.md §1.1): GraphLite holds one malloc'd node
array + one edge array per worker — `(m_edge_index, m_out_degree)` is a CSR
row pointer (`engine/Worker.cc:303-322,335-362` in the reference), vertices
hash-partitioned by `vid % W` (`engine/Node.cc:104`,
`bin/hash-partitioner.pl:23-26`). Here the same partitioning (`id % P`) is
the FIRST SHUFFLE of the pipeline (`groupby("part")`), each group is
written as a sorted Parquet edge shard + vertex list, and partition actors
rebuild zero-copy numpy CSR views in `__init__`. Because our vertex ids are
63-bit hashes (not dense — SURVEY.md §7.1 step 3), the reference's dense
`vid / W` slot arithmetic is replaced by a sorted-vid array +
`np.searchsorted` local index.

Shard layout under `graph_dir` (local path in the sandbox; shared storage
on a real cluster — every shard file is independent, so builds are
resumable per partition):
    meta.json                     {P, n_vertices, n_edges, symmetrized}
    edges_p{p}.parquet            (src:int64, dst:int64) sorted by src
    verts_p{p}.parquet            (vid:int64) sorted unique
Missing shard files mean an empty partition.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from graphlite_ray.state import storage


def part_of(ids: np.ndarray, P: int) -> np.ndarray:
    """Partition function: id % P (ids are non-negative int64)."""
    return ids % np.int64(P)


_atomic_write_table = storage.write_table_atomic


def build_graph_shards(
    edges: "ray.data.Dataset",
    P: int,
    graph_dir: str,
    symmetrize: bool = False,
) -> dict:
    """edges (src:int64, dst:int64) -> P CSR shards on disk + meta.

    Two wide steps, both keyed on the SAME partition function so every later
    stage (message shuffle, checkpoints, output join) reuses the layout
    (SURVEY.md §7.3):
      1. edges grouped by src % P -> sorted edge shard per partition
      2. vertex universe (src ∪ dst) grouped by vid % P -> vid list per
         partition (captures dangling, in-edge-only vertices)

    `symmetrize=True` unions the reversed edges first (weakly-connected
    semantics for CC/LPA — documented deviation; the reference computes
    nothing but PageRank).
    """
    storage.makedirs(graph_dir)

    schema = edges.schema()
    has_weight = schema is not None and "weight" in schema.names

    def _combined_rows(t: pa.Table) -> pa.Table:
        """Tag edge rows (kind=0, keyed src % P) and per-batch-deduped
        vertex rows (kind=1, keyed vid % P) so ONE shuffle co-locates a
        partition's edges and its vertex universe."""
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        w = (
            t["weight"].to_numpy(zero_copy_only=False).astype(np.float64)
            if has_weight
            else None
        )
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if w is not None:
                w = np.concatenate([w, w])
        vids = np.unique(np.concatenate([src, dst]))
        a = np.concatenate([src, vids])
        b = np.concatenate([dst, np.zeros(len(vids), np.int64)])
        kind = np.concatenate(
            [np.zeros(len(src), np.int8), np.ones(len(vids), np.int8)]
        )
        cols = {"part": a % np.int64(P), "kind": kind, "a": a, "b": b}
        if w is not None:
            cols["w"] = np.concatenate([w, np.zeros(len(vids))])
        return pa.table(cols)

    def _write_shard(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        kind = g["kind"].to_numpy(zero_copy_only=False)
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        emask = kind == 0
        src, dst = a[emask], b[emask]
        # canonical (src, dst[, weight]) order: shard bytes are a pure
        # function of the edge multiset, independent of shuffle arrival
        # order — this is what makes an incremental `add_edges` merge
        # bit-identical to a one-shot build (tested)
        if has_weight:
            w = g["w"].to_numpy(zero_copy_only=False)[emask]
            order = np.lexsort((w, dst, src))
            ecols = {"src": src[order], "dst": dst[order], "weight": w[order]}
        else:
            order = np.lexsort((dst, src))
            ecols = {"src": src[order], "dst": dst[order]}
        _atomic_write_table(
            pa.table(ecols), storage.join(graph_dir, f"edges_p{p}.parquet")
        )
        vids = np.unique(a[~emask])
        _atomic_write_table(
            pa.table({"vid": vids}), storage.join(graph_dir, f"verts_p{p}.parquet")
        )
        return pa.table({"part": [p], "n_edges": [len(src)], "n_vertices": [len(vids)]})

    stats = (
        edges.map_batches(_combined_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_write_shard, batch_format="pyarrow")
        .take_all()
    )

    meta = {
        "P": P,
        "symmetrized": symmetrize,
        "n_edges": int(sum(r["n_edges"] for r in stats)),
        "n_vertices": int(sum(r["n_vertices"] for r in stats)),
    }
    storage.write_json_atomic(meta, storage.join(graph_dir, "meta.json"))
    return meta


def load_graph_meta(graph_dir: str) -> dict:
    return storage.read_json(storage.join(graph_dir, "meta.json"))


def reshard_graph(graph_dir: str, out_dir: str, new_P: int) -> dict:
    """Repartition an existing CSR shard layout to a different partition
    count (the resharding/repartition operator): streams the edge shards
    back through the standard build shuffle — never materializes the graph
    on the driver. Symmetrization is preserved (the stored shards are
    already symmetrized when meta says so)."""
    meta = load_graph_meta(graph_dir)
    names = [
        n
        for n in storage.listdir(graph_dir)
        if n.startswith("edges_p") and n.endswith(".parquet")
    ]
    fs, dpath = storage.resolve(graph_dir)
    files = [f"{dpath.rstrip('/')}/{n}" for n in sorted(names)]
    edges = ray.data.read_parquet(files, filesystem=fs)
    new_meta = build_graph_shards(edges, new_P, out_dir, symmetrize=False)
    # the stored edges were already symmetrized if the source was: the
    # flag is a property of the edge set, carried through unchanged
    new_meta["symmetrized"] = meta.get("symmetrized", False)
    storage.write_json_atomic(new_meta, storage.join(out_dir, "meta.json"))
    return new_meta


def add_edges(
    graph_dir: str, delta: "ray.data.Dataset", delta_id: str | None = None
) -> dict:
    """Incremental graph update: merge a delta edge table (a new crawl
    snapshot) into EXISTING CSR shards — per-partition merge, no full
    rebuild (r4 verdict missing-item 4; `reshard_graph` covers layout
    changes, this covers data growth).

    The delta routes through the SAME build shuffle (part = src % P, one
    all-to-all over the DELTA only); each touched partition reads its old
    shard, concatenates, re-sorts to the canonical (src, dst[, weight])
    order and atomically replaces the files. Because shard bytes are a
    pure function of the edge multiset, half-build + delta-merge is
    bit-identical to a one-shot build on the union (tested). Untouched
    partitions are never read or written.

    Crash-safe and idempotent per partition when `delta_id` is given (use
    the snapshot name): each partition writes a `delta_<id>_p{p}.done`
    marker after its atomic replace, so a re-run after a mid-merge crash
    skips already-merged partitions instead of double-applying the delta;
    markers are cleared once the new meta.json lands. Without `delta_id`
    a re-run of the same delta DOUBLE-APPLIES it.

    Symmetrized graphs symmetrize the delta identically; weighted-ness
    must match the existing shards (raises otherwise)."""
    meta = load_graph_meta(graph_dir)
    P = int(meta["P"])
    symmetrize = bool(meta.get("symmetrized", False))

    schema = delta.schema()
    delta_weighted = schema is not None and "weight" in schema.names
    existing_edge_files = [
        n
        for n in storage.listdir(graph_dir)
        if n.startswith("edges_p") and n.endswith(".parquet")
    ]
    if existing_edge_files:
        first = storage.read_table(storage.join(graph_dir, existing_edge_files[0]))
        existing_weighted = "weight" in first.column_names
        if existing_weighted != delta_weighted:
            raise ValueError(
                f"delta weightedness ({delta_weighted}) does not match the "
                f"existing shards ({existing_weighted})"
            )
    has_weight = delta_weighted

    def _marker(p: int) -> str | None:
        if delta_id is None:
            return None
        return storage.join(graph_dir, f"delta_{delta_id}_p{p}.done")

    def _combined_rows(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False)
        dst = t["dst"].to_numpy(zero_copy_only=False)
        w = (
            t["weight"].to_numpy(zero_copy_only=False).astype(np.float64)
            if has_weight
            else None
        )
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            if w is not None:
                w = np.concatenate([w, w])
        vids = np.unique(np.concatenate([src, dst]))
        a = np.concatenate([src, vids])
        b = np.concatenate([dst, np.zeros(len(vids), np.int64)])
        kind = np.concatenate(
            [np.zeros(len(src), np.int8), np.ones(len(vids), np.int8)]
        )
        cols = {"part": a % np.int64(P), "kind": kind, "a": a, "b": b}
        if w is not None:
            cols["w"] = np.concatenate([w, np.zeros(len(vids))])
        return pa.table(cols)

    def _merge_shard(g: pa.Table) -> pa.Table:
        p = int(g["part"][0].as_py())
        mk = _marker(p)
        if mk is not None and storage.exists(mk):
            return pa.table({"part": [p]})  # already merged (resumed run)
        kind = g["kind"].to_numpy(zero_copy_only=False)
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        emask = kind == 0
        d_src, d_dst = a[emask], b[emask]
        d_w = g["w"].to_numpy(zero_copy_only=False)[emask] if has_weight else None
        d_vids = np.unique(a[~emask])

        epath = storage.join(graph_dir, f"edges_p{p}.parquet")
        vpath = storage.join(graph_dir, f"verts_p{p}.parquet")
        if storage.exists(epath):
            old = storage.read_table(epath)
            src = np.concatenate([old["src"].to_numpy(zero_copy_only=False), d_src])
            dst = np.concatenate([old["dst"].to_numpy(zero_copy_only=False), d_dst])
            w = (
                np.concatenate(
                    [old["weight"].to_numpy(zero_copy_only=False), d_w]
                )
                if has_weight
                else None
            )
        else:
            src, dst, w = d_src, d_dst, d_w
        if has_weight:
            order = np.lexsort((w, dst, src))
            ecols = {"src": src[order], "dst": dst[order], "weight": w[order]}
        else:
            order = np.lexsort((dst, src))
            ecols = {"src": src[order], "dst": dst[order]}
        _atomic_write_table(pa.table(ecols), epath)

        if storage.exists(vpath):
            vids = np.union1d(
                storage.read_table(vpath)["vid"].to_numpy(zero_copy_only=False),
                d_vids,
            )
        else:
            vids = d_vids
        _atomic_write_table(pa.table({"vid": vids}), vpath)
        if mk is not None:
            storage.write_json_atomic({"p": p}, mk)
        return pa.table({"part": [p]})

    (
        delta.map_batches(_combined_rows, batch_format="pyarrow")
        .groupby("part")
        .map_groups(_merge_shard, batch_format="pyarrow")
        .take_all()
    )

    # recount totals from parquet footers (P metadata reads, no data scan)
    n_edges = 0
    n_vertices = 0
    fs, dpath = storage.resolve(graph_dir)
    present = set(storage.listdir(graph_dir))
    for p in range(P):
        for prefix, acc in (("edges_p", "e"), ("verts_p", "v")):
            name = f"{prefix}{p}.parquet"
            if name not in present:
                continue
            cnt = pq.ParquetFile(
                f"{dpath.rstrip('/')}/{name}", filesystem=fs
            ).metadata.num_rows
            if acc == "e":
                n_edges += cnt
            else:
                n_vertices += cnt
    meta.update({"n_edges": int(n_edges), "n_vertices": int(n_vertices)})
    storage.write_json_atomic(meta, storage.join(graph_dir, "meta.json"))
    if delta_id is not None:
        for p in range(P):
            mk = _marker(p)
            if mk is not None and storage.exists(mk):
                storage.remove(mk)
    return meta


@dataclass
class CSRShard:
    """One partition's topology, as numpy views over Arrow buffers."""

    part_id: int
    P: int
    vids: np.ndarray       # int64, sorted unique — all vertices with id % P == part_id
    indptr: np.ndarray     # int64, len n+1
    indices: np.ndarray    # int64, global dst ids, grouped by src
    out_deg: np.ndarray    # int64, len n
    edge_src_local: np.ndarray  # int32/int64, len nnz: local row of each edge
    # optional per-edge value, aligned with `indices` — the analog of the
    # reference's `Edge.weight` flexible payload (`include/Node.h:46-54`)
    edge_weights: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.vids)

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def local_index(self, global_ids: np.ndarray) -> np.ndarray:
        """Global vertex ids (owned by this partition) -> local row index.

        Raises on ids this partition does not own (e.g. a compat-shim
        ``sendMessageTo`` to a nonexistent vertex): a bare searchsorted
        would silently deliver to an unrelated vertex instead."""
        pos = np.searchsorted(self.vids, global_ids)
        pos_c = np.clip(pos, 0, max(self.n - 1, 0))
        if len(np.atleast_1d(global_ids)) and (
            self.n == 0 or not np.array_equal(self.vids[pos_c], global_ids)
        ):
            bad = (
                global_ids[self.vids[pos_c] != global_ids][:5]
                if self.n
                else global_ids[:5]
            )
            raise KeyError(
                f"partition {self.part_id} received messages for unknown "
                f"vertex ids (first few: {bad.tolist()})"
            )
        return pos

    @staticmethod
    def load(graph_dir: str, part_id: int, P: int) -> "CSRShard":
        vpath = storage.join(graph_dir, f"verts_p{part_id}.parquet")
        epath = storage.join(graph_dir, f"edges_p{part_id}.parquet")
        if storage.exists(vpath):
            vids = storage.read_table(vpath)["vid"].to_numpy(zero_copy_only=False)
        else:  # empty partition
            vids = np.empty(0, np.int64)
        weights = None
        if storage.exists(epath):
            et = storage.read_table(epath)
            e_src = et["src"].to_numpy(zero_copy_only=False)
            indices = et["dst"].to_numpy(zero_copy_only=False)
            if "weight" in et.column_names:
                weights = et["weight"].to_numpy(zero_copy_only=False)
        else:
            e_src = np.empty(0, np.int64)
            indices = np.empty(0, np.int64)
        counts = np.searchsorted(e_src, vids, side="right") - np.searchsorted(
            e_src, vids, side="left"
        )
        indptr = np.zeros(len(vids) + 1, np.int64)
        np.cumsum(counts, out=indptr[1:])
        edge_src_local = np.repeat(np.arange(len(vids), dtype=np.int64), counts)
        # read-only: programs get `indices` itself as their message
        # destinations, and the worker's routing plan is built from it
        for a in (vids, indices, indptr, edge_src_local):
            a.setflags(write=False)
        return CSRShard(
            part_id=part_id,
            P=P,
            vids=vids,
            indptr=indptr,
            indices=indices,
            out_deg=counts.astype(np.int64),
            edge_src_local=edge_src_local,
            edge_weights=weights,
        )
