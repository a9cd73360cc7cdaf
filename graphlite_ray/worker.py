"""Partition worker: one stateful actor per graph partition.

The Ray-native analog of the reference's worker process
(`engine/Worker.cc:107-119,789-931`): it holds the partition's CSR shard,
value array and active mask across supersteps (reference T1-T3 state,
SURVEY.md §2.3), performs message delivery as a vectorized segmented
reduction (replacing the per-message hash-lookup loop + prefetch variants,
`engine/Worker.cc:416-576`), runs the vertex program's vectorized
`compute`, and returns producer-side-combined, destination-partitioned
message blocks.

Why a raw actor rather than `map_batches`: the BSP loop mutates
partition-resident state across tens of supersteps — exactly the "shared
mutable index" case where the Dataset API cannot express the semantics.
All one-pass, wide stages around the loop (extraction, id assignment, CSR
build, output) remain Ray Data pipelines (SURVEY.md §7.4 point 1).

Message blocks between partitions are numpy-array tuples:
    combiner "sum"/"min":   (dst_global:int64, val)
    combiner "sum_by_key":  (dst_global:int64, key:int64, cnt:int64)
    combiner "none":        (dst_global:int64, src_global:int64, val) — RAW,
                            one row per message, sender id preserved

Routing — two layouts, same block format and combine semantics (selected
by the engine's ``routing`` option, default auto by cluster size):

  "grouped" (single-node optimum): each producer returns ONE grouped
  message object per superstep — a dict {dest_partition: block} — and the
  driver hands every destination the refs of all P producer objects (never
  fetching payloads itself, like the reference master, SURVEY.md §3.1
  step 6). A destination reads its entry from each producer object; on a
  single node these reads are ZERO-COPY plasma views, so the object store
  does P creations per superstep instead of P^2 (P^2 small objects
  measurably serialize on the store lock and destroy scaling here).

  "per_dest" (multi-node optimum): each producer returns P separate
  per-destination objects (``num_returns=1+P``) and the driver routes each
  ref to exactly ONE consumer — the analog of the reference's
  one-peer-per-block sender (`engine/Sender.cc:44-235`,
  `engine/WW.nodemsg_list.proto:10-18`). Across nodes this ships each
  byte to exactly its destination instead of pulling the whole producer
  object P times (O(P) network amplification avoided).

Both layouts are bit-identical in results (tested) and checkpoint the same
way (``last_out`` keeps the dict layout regardless).

Static routing plan. The graph does not change during a run, so when a
program sends on EVERY out-edge in CSR order (PageRank, Katz, eigenvector,
LPA, CC's superstep 0), its destination ids are exactly ``shard.indices``.
`_scatter_to_neighbors` signals that case by returning ``shard.indices``
itself, and ``step`` tests ``out.out_dst is self.shard.indices``: no
`ComputeOut` field or option marks it. On the first such "sum" superstep of
a run the worker builds a `RoutingPlan` from ``np.unique(indices,
return_inverse=True)``: each edge's slot among the unique ids, with the
slots ordered by destination partition, and each partition's ids. The
combine then is one ``np.bincount`` over the slots and the split is P
precomputed slices. It adds in the same order as `combine_sum` followed by
the stable partition split, so blocks are bit-identical to the sort path
(tested). Other combiners keep the sort path: for LPA's "sum_by_key", one
stable sort of an int64 (slot, label rank) composite measured no faster
than `combine_sum_by_key` plus the split. On the consumer side each worker caches ``local_index(dst)`` per
producer and reuses it while ``np.array_equal`` shows the same ids, which
skips the ``searchsorted`` for every combiner.

The ``dst`` id column stays on the wire even though a consumer could map
planned values to its rows by position. A prototype that dropped it made
PageRank blocks on the 20k-page benchmark crawl (P=4) about 88 KiB, under
Ray's 100 KiB inline-object limit, so payloads rode inside the replies
through the driver instead of the object store: driver peak RSS rose from
243 MB to 584-699 MB, breaking the engine's rule that payloads never reach
the driver.
"""

from __future__ import annotations

import fnmatch
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from graphlite_ray.programs import Ctx, Inbox, VertexProgram
from graphlite_ray.state import storage
from graphlite_ray.state.csr import CSRShard


# ---------------------------------------------------------------- combiners


def combine_sum(dst: np.ndarray, val: np.ndarray):
    u, inv = np.unique(dst, return_inverse=True)
    return u, np.bincount(inv, weights=val)


def combine_min(dst: np.ndarray, val: np.ndarray):
    order = np.lexsort((val, dst))
    d, v = dst[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    return d[first], v[first]


def combine_max(dst: np.ndarray, val: np.ndarray):
    order = np.lexsort((-val, dst))
    d, v = dst[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    return d[first], v[first]


def combine_sum_by_key(dst: np.ndarray, key: np.ndarray, cnt: np.ndarray):
    order = np.lexsort((key, dst))
    d, k, c = dst[order], key[order], cnt[order]
    first = np.ones(len(d), bool)
    first[1:] = (d[1:] != d[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(first)
    return d[starts], k[starts], np.add.reduceat(c, starts)


def combine_max_by_key(dst: np.ndarray, key: np.ndarray, val: np.ndarray):
    """max per (dst, key) — the keyed-register combiner (HyperBall counter
    union is an elementwise register max; max is commutative/associative,
    so producer-side combining is exact, §2.12)."""
    order = np.lexsort((key, dst))
    d, k, v = dst[order], key[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = (d[1:] != d[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(first)
    return d[starts], k[starts], np.maximum.reduceat(v, starts)


_BY_KEY = ("sum_by_key", "max_by_key")


def _combine_by_key(combiner: str, dst, key, val):
    if combiner == "max_by_key":
        return combine_max_by_key(dst, key, val)
    return combine_sum_by_key(dst, key, val)


def _combine_block(combiner: str, block: tuple) -> tuple:
    if combiner == "sum":
        return combine_sum(block[0], block[1])
    if combiner == "min":
        return combine_min(block[0], block[1])
    if combiner == "max":
        return combine_max(block[0], block[1])
    return _combine_by_key(combiner, block[0], block[1], block[2])


def _slices(bounds: np.ndarray, cols) -> dict[int, tuple]:
    """{j: rows bounds[j]:bounds[j + 1] of every column}, empty j left out."""
    return {
        j: tuple(c[bounds[j]:bounds[j + 1]] for c in cols)
        for j in range(len(bounds) - 1)
        if bounds[j + 1] > bounds[j]
    }


def _split_by_partition(payload: tuple, P: int) -> dict[int, tuple]:
    """Stable split of combined rows by destination partition (id % P)."""
    part = (payload[0] % np.int64(P)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    return _slices(np.searchsorted(part[order], np.arange(P + 1)), [a[order] for a in payload])


# ------------------------------------------------------------ routing plan


class RoutingPlan:
    """Combine-and-route slots for messages sent on every out-edge in CSR
    order, computed once from the shard's static ``indices``.

    The unique destination ids are laid out grouped by partition (ascending
    id within each); ``slot[e]`` is edge e's position in that layout and
    ``bounds[j]:bounds[j + 1]`` is partition j's range of it."""

    def __init__(self, indices: np.ndarray, P: int):
        u, inv = np.unique(indices, return_inverse=True)
        part = u % np.int64(P)
        order = np.argsort(part, kind="stable")
        rank = np.empty(len(u), np.int64)
        rank[order] = np.arange(len(u))
        self.slot = rank[inv]
        self.n_slots = len(u)
        self.bounds = np.searchsorted(part[order], np.arange(P + 1))
        self.ids = u[order]
        self.ids.setflags(write=False)

    def sum(self, val: np.ndarray) -> dict[int, tuple]:
        """`combine_sum` + split: bincount adds each slot's values in edge
        order, as `combine_sum`'s bincount over ``np.unique``'s inverse does."""
        return _slices(self.bounds, (self.ids, np.bincount(self.slot, weights=val, minlength=self.n_slots)))


# ------------------------------------------------------------------- worker


class PartitionWorker:
    """Instantiated via ``ray.remote(PartitionWorker)`` by the engine, which
    keeps the actor warm across runs and calls ``begin`` to start each one."""

    def __init__(
        self,
        part_id: int,
        P: int,
        graph_dir: str,
        program: VertexProgram,
        n_vertices_global: int,
        routing: str = "grouped",
    ):
        self.part_id = part_id
        self.P = P
        self.begin(graph_dir, program, n_vertices_global, routing)

    def begin(self, graph_dir: str, program: VertexProgram, n_vertices_global: int,
              routing: str = "grouped") -> None:
        """Start a run: load the shard and reset all per-run state. The shard
        is reloaded, not cached: `state/csr.py::add_edges` rewrites a graph
        dir in place."""
        self.program = program
        self.n_vertices_global = n_vertices_global
        self.routing = routing
        self.shard = CSRShard.load(graph_dir, self.part_id, self.P)
        self.values = program.init_values(self.shard)
        self.active = np.ones(self.shard.n, bool)
        self._restored_incoming: list[tuple[int, tuple]] | None = None
        self.last_out: dict[int, tuple] = {}
        self._plan: RoutingPlan | None = None
        self._idx_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def ready(self) -> int:
        return self.shard.n

    # -- the superstep ------------------------------------------------------

    def step(self, superstep: int, aggr_global: dict, *incoming, use_restored: bool = False):
        t0 = time.perf_counter()
        # (producer, block) pairs in producer order
        if use_restored:
            pairs = self._restored_incoming or []
        elif self.routing == "per_dest":
            # incoming = P per-destination blocks, each addressed to THIS
            # partition only (the driver routed producer i's j-th return
            # object to consumer j)
            pairs = [(i, b) for i, b in enumerate(incoming) if b is not None and len(b[0])]
        else:
            # incoming = P grouped producer objects (zero-copy plasma views);
            # pick this partition's entry from each
            pairs = []
            for i, g in enumerate(incoming):
                b = g.get(self.part_id) if g else None
                if b is not None and len(b[0]):
                    pairs.append((i, b))
        self._restored_incoming = None
        blocks = [b for _, b in pairs]
        combiner = self.program.combiner

        # 1. delivery (reference `deliverAllNewNodeMsg`,
        #    `engine/Worker.cc:416-576`) + reactivation (C3, `engine/Node.cc:56-62`)
        recv = 0
        inbox = Inbox(idx=np.empty(0, np.int64), val=np.empty(0, np.float64))
        if blocks:
            idx = np.concatenate([self._local_index(i, b[0]) for i, b in pairs])
            recv = int(len(idx))
            if combiner == "none":
                # raw delivery: one inbox row per message, sender preserved
                src = np.concatenate([b[1] for b in blocks])
                val = np.concatenate([b[2] for b in blocks])
                inbox = Inbox(idx=idx, val=val, src=src)
                self.active[idx] = True  # duplicate indices are fine for a bool set
            elif combiner in _BY_KEY:
                key = np.concatenate([b[1] for b in blocks])
                cnt = np.concatenate([b[2] for b in blocks])
                i2, k2, c2 = _combine_by_key(combiner, idx, key, cnt)
                inbox = Inbox(idx=i2, val=c2, key=k2)
                self.active[i2] = True  # duplicate indices are fine for a bool set
            elif combiner == "sum":
                # local indices are dense [0, n): O(rows) bincount beats the
                # sort-based combine for the delivery-side reduction
                val = np.concatenate([b[1] for b in blocks])
                sums = np.bincount(idx, weights=val, minlength=self.shard.n)
                hit = np.bincount(idx, minlength=self.shard.n) > 0
                i2 = np.flatnonzero(hit)
                inbox = Inbox(idx=i2, val=sums[i2])
                self.active[i2] = True
            elif combiner == "max":
                val = np.concatenate([b[1] for b in blocks])
                i2, v2 = combine_max(idx, val)
                inbox = Inbox(idx=i2, val=v2)
                self.active[i2] = True
            else:
                val = np.concatenate([b[1] for b in blocks])
                i2, v2 = combine_min(idx, val)
                inbox = Inbox(idx=i2, val=v2)
                self.active[i2] = True

        # 2. compute on active vertices (reference loop `engine/Worker.cc:839-859`)
        computed = int(self.active.sum())
        ctx = Ctx(
            superstep=superstep,
            part_id=self.part_id,
            P=self.P,
            aggr_global=dict(aggr_global),
            n_vertices_global=self.n_vertices_global,
        )
        out = self.program.compute(ctx, self.shard, self.values, self.active, inbox)
        if out.halted is not None:
            self.active &= ~out.halted

        # 3. producer-side combine + split by destination partition
        #    (reference routing `engine/Node.cc:103-137`; combining is our
        #    addition, legal per SURVEY.md §2.12, vital for hub skew §4)
        blocks_out: dict[int, tuple] = {}
        if combiner == "sum" and out.out_dst is self.shard.indices and len(out.out_dst):
            if self._plan is None:
                self._plan = RoutingPlan(self.shard.indices, self.P)
            blocks_out = self._plan.sum(out.out_val)
        elif out.out_dst is not None and len(out.out_dst):
            if combiner == "none":
                payload = (out.out_dst, out.out_src, out.out_val)  # uncombined
            elif combiner in _BY_KEY:
                payload = _combine_by_key(combiner, out.out_dst, out.out_key, out.out_val)
            else:
                payload = _combine_block(combiner, (out.out_dst, out.out_val))
            blocks_out = _split_by_partition(payload, self.P)
        self.last_out = blocks_out

        meta = {
            "part": self.part_id,
            "superstep": superstep,
            "computed": computed,
            "recv": recv,
            "sent": int(out.sent),
            "active_end": int(self.active.sum()),
            "aggr": dict(out.aggr),
            "wall_s": time.perf_counter() - t0,
        }
        if self.routing == "per_dest":
            # P separate objects; the driver hands each to ONE consumer
            return tuple([meta] + [blocks_out.get(j) for j in range(self.P)])
        return meta, (blocks_out or None)

    def _local_index(self, producer: int, dst: np.ndarray) -> np.ndarray:
        """``shard.local_index(dst)``, cached per producer: a producer that
        sends on every edge ships the same ids each superstep."""
        hit = self._idx_cache.get(producer)
        if hit is not None and np.array_equal(hit[0], dst):
            return hit[1]
        idx = self.shard.local_index(dst)
        # copy: dst may be a plasma view that would pin the producer's object
        self._idx_cache[producer] = (dst.copy(), idx)
        return idx

    # -- checkpoint / restore (north rule; reference has none — SURVEY.md §4)

    def checkpoint(self, superstep: int, ckpt_dir: str) -> dict:
        d = storage.join(ckpt_dir, f"ss_{superstep}")
        storage.makedirs(d)
        if self.values.ndim == 2:
            # vector-valued vertex state (e.g. HyperBall registers) as a
            # fixed-size-list column — restores and reads back zero-copy
            value_col = pa.FixedSizeListArray.from_arrays(
                pa.array(self.values.reshape(-1)), self.values.shape[1]
            )
        else:
            value_col = pa.array(self.values)
        vt = pa.table(
            {
                "vertex_id": self.shard.vids,
                "value": value_col,
                "active": self.active,
            }
        )
        _atomic(vt, storage.join(d, f"values_p{self.part_id}.parquet"))
        extra = self.program.extra_state()
        if extra is not None:
            _atomic(pa.table(extra), storage.join(d, f"extra_p{self.part_id}.parquet"))
        n_msg_rows = 0
        for j, b in self.last_out.items():
            path = storage.join(d, f"msgs_s{self.part_id}_d{j}.parquet")
            if b is None:
                continue
            cols = {"dst": b[0]}
            if self.program.combiner in _BY_KEY:
                cols["key"], cols["cnt"] = b[1], b[2]
            elif self.program.combiner == "none":
                cols["src"], cols["val"] = b[1], b[2]
            else:
                cols["val"] = b[1]
            _atomic(pa.table(cols), path)
            n_msg_rows += len(b[0])
        return {"part": self.part_id, "n_vertices": self.shard.n, "msg_rows": n_msg_rows}

    def restore(self, superstep: int, ckpt_dir: str) -> int:
        d = storage.join(ckpt_dir, f"ss_{superstep}")
        vt = storage.read_table(storage.join(d, f"values_p{self.part_id}.parquet"))
        vids = vt["vertex_id"].to_numpy(zero_copy_only=False)
        rows = self.shard.local_index(vids)
        if self.values.ndim == 2:
            col = vt["value"].combine_chunks()
            flat = col.values.to_numpy(zero_copy_only=False)
            self.values[rows] = flat.reshape(len(vids), self.values.shape[1])
        else:
            self.values[rows] = vt["value"].to_numpy(zero_copy_only=False)
        self.active[:] = False
        self.active[rows] = vt["active"].to_numpy(zero_copy_only=False)
        extra_path = storage.join(d, f"extra_p{self.part_id}.parquet")
        if storage.exists(extra_path):
            et = storage.read_table(extra_path)
            self.program.load_extra(
                {c: et[c].to_numpy(zero_copy_only=False) for c in et.column_names}
            )
        pairs = []
        names = fnmatch.filter(storage.listdir(d), f"msgs_s*_d{self.part_id}.parquet")
        if self.program.combiner in _BY_KEY:
            cols = ("dst", "key", "cnt")
        elif self.program.combiner == "none":
            cols = ("dst", "src", "val")
        else:
            cols = ("dst", "val")
        # producer order, as live delivery: name order would put s10 before s2
        for producer, name in sorted((int(n[len("msgs_s"):n.index("_d")]), n) for n in names):
            t = storage.read_table(storage.join(d, name))
            pairs.append((producer, tuple(t[c].to_numpy(zero_copy_only=False) for c in cols)))
        self._restored_incoming = pairs
        return sum(len(b[0]) for _, b in pairs)


_atomic = storage.write_table_atomic
