"""Vertex programs: the vectorized, partition-level re-expression of the
reference's per-vertex `Vertex::compute(MessageIterator*)` API
(`include/Vertex.h:122-136` in the reference; invocation loop
`engine/Worker.cc:839-859`).

Instead of a Python call per vertex, a program's `compute()` runs ONCE per
partition per superstep over numpy arrays (SURVEY.md §2.2 M1): message
delivery is a vectorized segmented reduction, sends are a vectorized
scatter over the CSR row structure. The per-vertex API surface
(`getSuperstep`, `getValue/mutableValue`, `getOutEdgeIterator`,
`sendMessageTo(AllNeighbors)`, `voteToHalt`, `getAggrGlobal`,
`accumulateAggr` — `include/Vertex.h:122-255`) maps onto `Ctx`, the value
array, the `CSRShard`, the returned message block, the returned `halted`
mask, and the aggregator dicts respectively.

Message semantics preserved from the reference (SURVEY.md §2.9):
  - messages sent in superstep k are visible only in k+1 (C1)
  - delivery to a halted vertex reactivates it (C3, `engine/Node.cc:56-62`)
  - all vertices start active; superstep 0 computes with an empty inbox (C6)
  - results must not depend on message order (§2.12) — all built-in
    programs use commutative, order-insensitive reductions.

Combiners: the reference has NO combiner (every message is delivered
individually); our engine adds producer-side combining (legal per §2.12,
required for skew at web scale — SURVEY.md §4) declared per program:
  "sum"         messages (dst, float val)        -> sum per dst
  "min"         messages (dst, int val)          -> min per dst
  "sum_by_key"  messages (dst, int key, int cnt) -> sum cnt per (dst, key)
  "none"        messages (dst, src, val) delivered RAW, one row per sent
                message with the sender id — the reference's exact delivery
                model (`include/GenericLinkIterator.h:43-50` exposes the
                sender via the message list; `include/Vertex.h:68-79`).
                Required for non-commutative per-vertex programs and for
                `MessageIterator.getSrc()` in the compat shim.
Reactivation still works because a combined row proves >=1 message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from graphlite_ray.state.csr import CSRShard

PAGERANK_EPS = 1e-6


@dataclass
class AggregatorSpec:
    """Analog of the reference `Aggregator<T>` (`include/Aggregator.h:45-61`,
    opaque user value types with a user `merge` — `include/AggregatorBase.h:
    44-84`): per-superstep partial ("local") values merged to a global that
    becomes visible to compute() in the NEXT superstep (the ss k -> k+1
    off-by-one, `example/PageRankVertex.cc:152-157` — tested explicitly).

    Scalars use `op`; ARBITRARY value types pass a commutative/associative
    `merge_fn` (e.g. dict-of-counts union, (min, argmin) tuples). Globals
    are checkpointed into the JSON manifest: non-JSON types must provide
    `encode`/`decode` (init/merged values -> JSON value and back)."""

    init: object
    op: str = "sum"  # sum | min | max (ignored when merge_fn is set)
    merge_fn: object = None      # Callable[[T, T], T] | None
    encode: object = None        # Callable[[T], json] | None
    decode: object = None        # Callable[[json], T] | None

    def merge(self, a, b):
        if self.merge_fn is not None:
            return self.merge_fn(a, b)
        if self.op == "sum":
            return a + b
        if self.op == "min":
            return min(a, b)
        return max(a, b)

    def to_json(self, v):
        return self.encode(v) if self.encode is not None else v

    def from_json(self, v):
        return self.decode(v) if self.decode is not None else v


@dataclass
class Ctx:
    superstep: int
    part_id: int
    P: int
    aggr_global: dict
    n_vertices_global: int = 0


@dataclass
class Inbox:
    """Post-delivery, partition-locally combined incoming messages.

    Ordering: keyed delivery ("sum_by_key", "max_by_key") hands over one
    row per (idx, key), sorted by idx and then key (the keyed
    `worker.COMBINERS` rows); `mode_by_row` relies on it. "sum"/"min"/"max"
    rows are sorted by idx; "none" rows come in producer order."""

    idx: np.ndarray                      # local vertex rows that received >=1 msg (unique for sum/min; one row PER MESSAGE for "none")
    val: np.ndarray                      # combined payload (sum/min) — or counts for sum_by_key
    key: Optional[np.ndarray] = None     # sum_by_key only: one row per (idx, key)
    src: Optional[np.ndarray] = None     # "none" only: global sender id per message

    @property
    def empty(self) -> bool:
        return len(self.idx) == 0


EMPTY_INBOX = Inbox(idx=np.empty(0, np.int64), val=np.empty(0, np.float64))


def mode_by_row(inbox: Inbox) -> tuple[np.ndarray, np.ndarray]:
    """(rows, winners) of a keyed inbox: per row, the key with the largest
    count, ties to the smallest key. Needs the keyed delivery order (rows
    sorted by idx, then key), so the first hit of a row's max count is its
    smallest such key and no sort is needed."""
    idx, key, cnt = inbox.idx, inbox.key, inbox.val
    new_row = np.ones(len(idx), bool)
    new_row[1:] = idx[1:] != idx[:-1]
    starts = np.flatnonzero(new_row)
    best = np.maximum.reduceat(cnt, starts)
    hit = np.flatnonzero(cnt == best[np.cumsum(new_row) - 1])
    first = np.ones(len(hit), bool)
    first[1:] = idx[hit[1:]] != idx[hit[:-1]]
    return idx[starts], key[hit[first]]


@dataclass
class ComputeOut:
    halted: Optional[np.ndarray] = None        # bool mask: voted to halt this superstep
    out_dst: Optional[np.ndarray] = None       # global dst ids of sent messages
    out_val: Optional[np.ndarray] = None       # payload
    out_key: Optional[np.ndarray] = None       # sum_by_key payload
    out_src: Optional[np.ndarray] = None       # "none" combiner: global sender id per message
    aggr: dict = field(default_factory=dict)   # aggregator partials
    sent: int = 0                              # logical message count (pre-combine)


class VertexProgram:
    """Subclass and override; everything is vectorized per partition."""

    name = "abstract"
    value_dtype: np.dtype = np.dtype(np.float64)
    combiner = "sum"            # "sum" | "min" | "max" | "sum_by_key" | "max_by_key" | "none"
    symmetrize = False          # build CSR over the symmetrized edge set?
    max_supersteps: Optional[int] = None

    def aggregators(self) -> dict[str, AggregatorSpec]:
        return {}

    def init_values(self, shard: CSRShard) -> np.ndarray:
        raise NotImplementedError

    def compute(
        self,
        ctx: Ctx,
        shard: CSRShard,
        values: np.ndarray,
        active: np.ndarray,
        inbox: Inbox,
    ) -> ComputeOut:
        raise NotImplementedError

    def master_halt(self, superstep: int, aggr_global: dict, totals: dict) -> bool:
        """Analog of `Graph::masterComputePerstep` returning 1
        (`engine/Master.cc:429-431`; default 0 = continue,
        `include/Graph.h:147-149`)."""
        return False

    def master_init(self, graph_meta: dict) -> None:
        """Job-start lifecycle hook (analog of `Graph::init`,
        `include/Graph.h:133-143`): runs ONCE on the driver before workers
        are created — state set here ships to every partition actor with
        the program object."""

    def master_term(self, result) -> None:
        """Job-end lifecycle hook (analog of `Graph::term`,
        `include/Graph.h:145-152`): runs ONCE on the driver with the
        `BSPResult` after termination (including a resume that finds the
        run already complete)."""

    def extra_state(self) -> Optional[dict]:
        """Opaque per-partition program state to persist alongside each
        checkpoint (dict of equal-length 1-D numpy columns -> one parquet
        per partition), restored via `load_extra` on resume. Programs
        whose state is not fully captured by (values, active, in-flight
        messages) — e.g. `NeighborhoodExact`'s reached-pair set — MUST
        round-trip it here or mid-run resume silently corrupts them."""
        return None

    def load_extra(self, state: dict) -> None:
        raise NotImplementedError(
            f"{self.name}: checkpoint has extra state but the program "
            "defines no load_extra()"
        )


def _scatter_to_neighbors(shard: CSRShard, per_vertex_val: np.ndarray, sender_mask: np.ndarray):
    """sendMessageToAllNeighbors, vectorized (`engine/Node.cc:139-145`):
    every out-edge of every sender carries that sender's value.

    When every vertex sends, the destinations are ``shard.indices`` itself
    (read-only): the worker recognises that array by identity and routes
    through its precomputed plan (`worker.py` module docstring)."""
    if shard.nnz == 0:
        return np.empty(0, np.int64), np.empty(0, per_vertex_val.dtype)
    if sender_mask.all():
        return shard.indices, per_vertex_val[shard.edge_src_local]
    emask = sender_mask[shard.edge_src_local]
    return shard.indices[emask], per_vertex_val[shard.edge_src_local[emask]]


def scatter_to_neighbors_with_src(
    shard: CSRShard, per_vertex_val: np.ndarray, sender_mask: np.ndarray
):
    """Vectorized sendMessageToAllNeighbors for combiner="none" programs:
    -> (dst_global, src_global, val) one row per edge message."""
    if shard.nnz == 0:
        e = np.empty(0, np.int64)
        return e, e.copy(), np.empty(0, per_vertex_val.dtype)
    emask = sender_mask[shard.edge_src_local]
    src_local = shard.edge_src_local[emask]
    return shard.indices[emask], shard.vids[src_local], per_vertex_val[src_local]


class PageRank(VertexProgram):
    """Exact semantics of the reference's shipped PageRank vertex program
    (`example/PageRankVertex.cc:145-172`):

      ss0:   val = 1.0; send val/outdeg to all out-neighbors
      ss>=1: if ss >= 2 and aggr_global < 1e-6: voteToHalt, send nothing
             else val = 0.15 + 0.85 * sum(msgs); accumulate |old-new|;
                  send val/outdeg
    Dangling vertices (outdeg 0) keep receiving and updating but never send
    (the reference's `val/n` with n=0 is never delivered because the edge
    loop is empty). Golden: tinygraph converges at superstep 19
    (FIXTURES.md F2)."""

    name = "pagerank"
    combiner = "sum"

    def __init__(self, eps: float = PAGERANK_EPS):
        self.eps = eps

    def aggregators(self):
        return {"delta": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def compute(self, ctx, shard, values, active, inbox):
        mask = active
        out = ComputeOut(aggr={"delta": 0.0})
        if ctx.superstep == 0:
            values[mask] = 1.0
        else:
            if ctx.superstep >= 2 and ctx.aggr_global["delta"] < self.eps:
                out.halted = mask.copy()
                return out
            sums = np.zeros(shard.n, np.float64)
            if not inbox.empty:
                sums[inbox.idx] = inbox.val
            new = 0.15 + 0.85 * sums
            out.aggr["delta"] = float(np.abs(values[mask] - new[mask]).sum())
            values[mask] = new[mask]
        self._send(out, shard, values, mask)
        return out

    def _send(self, out, shard, values, mask):
        """Send stage hook: distribute each sender's value over its
        out-edges (overridden by the weighted variant — the rank-update /
        halt / delta logic above stays in one place)."""
        send_val = np.divide(
            values, shard.out_deg, out=np.zeros(shard.n), where=shard.out_deg > 0
        )
        out.out_dst, out.out_val = _scatter_to_neighbors(shard, send_val, mask)
        out.sent = len(out.out_dst)


class WeightedPageRank(PageRank):
    """PageRank over weighted edges — exercises the reference's per-edge
    value payload (`Edge.weight`, `include/Node.h:46-54`; read via
    `OutEdgeIterator.getValue()`, `include/Vertex.h:208-218`). Each sender
    distributes `val * w_e / W_i` along edge e, where W_i is its total
    outgoing weight; unweighted graphs (all w=1) reduce to PageRank."""

    name = "weighted_pagerank"

    def __init__(self, eps: float = PAGERANK_EPS):
        super().__init__(eps)
        self._w_total: np.ndarray | None = None  # per-shard static, cached

    def _send(self, out, shard, values, mask):
        if shard.edge_weights is None:
            return super()._send(out, shard, values, mask)
        if self._w_total is None:
            self._w_total = np.bincount(
                shard.edge_src_local, weights=shard.edge_weights, minlength=shard.n
            )
        per_vertex = np.divide(
            values, self._w_total, out=np.zeros(shard.n), where=self._w_total > 0
        )
        emask = mask[shard.edge_src_local]
        out.out_dst = shard.indices[emask]
        out.out_val = (per_vertex[shard.edge_src_local] * shard.edge_weights)[emask]
        out.sent = len(out.out_dst)


class PersonalizedPageRank(PageRank):
    """Personalized PageRank (random walk with restart to a seed set): the
    restart mass 0.15 lands ONLY on seed vertices (1.0 each — the same
    unnormalized scale as the reference program's uniform 0.15,
    `example/PageRankVertex.cc:163`), so values concentrate around the
    seeds:

      ss0:   val = 1.0 for seeds, 0 elsewhere; senders with mass send
             val/outdeg to out-neighbors
      ss>=1: val = 0.15*[v in seeds] + 0.85 * sum(msgs)
    Halt rule identical to PageRank (summed |delta| < eps from ss>=2).
    Only vertices holding mass send — at web scale a localized seed set
    touches a small neighborhood per superstep instead of every edge."""

    name = "personalized_pagerank"

    def __init__(self, seeds, eps: float = PAGERANK_EPS):
        super().__init__(eps)
        self.seeds = np.asarray(sorted({int(s) for s in seeds}), np.int64)
        if len(self.seeds) == 0:
            raise ValueError("personalized_pagerank needs >=1 seed vertex")
        self._seed_mask: np.ndarray | None = None  # per-shard static, cached

    def _smask(self, shard):
        if self._seed_mask is None:
            self._seed_mask = np.isin(shard.vids, self.seeds)
        return self._seed_mask

    def compute(self, ctx, shard, values, active, inbox):
        mask = active
        out = ComputeOut(aggr={"delta": 0.0})
        sm = self._smask(shard)
        if ctx.superstep == 0:
            values[mask & sm] = 1.0
        else:
            if ctx.superstep >= 2 and ctx.aggr_global["delta"] < self.eps:
                out.halted = mask.copy()
                return out
            sums = np.zeros(shard.n, np.float64)
            if not inbox.empty:
                sums[inbox.idx] = inbox.val
            new = 0.15 * sm.astype(np.float64) + 0.85 * sums
            out.aggr["delta"] = float(np.abs(values[mask] - new[mask]).sum())
            values[mask] = new[mask]
        self._send(out, shard, values, mask)
        return out

    def _send(self, out, shard, values, mask):
        send_val = np.divide(
            values, shard.out_deg, out=np.zeros(shard.n), where=shard.out_deg > 0
        )
        # zero-mass vertices contribute nothing — skip their messages
        out.out_dst, out.out_val = _scatter_to_neighbors(
            shard, send_val, mask & (send_val != 0.0)
        )
        out.sent = len(out.out_dst)


class KatzCentrality(VertexProgram):
    """Katz centrality, truncated-series form: x_0 = 1 everywhere, then

      x_{k+1}(v) = 1 + alpha * sum over in-edges (u -> v) of x_k(u)

    for a FIXED number of iterations (not convergence-gated), so the
    result is deterministic and finite regardless of alpha * lambda_max,
    and exactly SQL-replayable by `iters` joined rounds (the
    `graph_katz` oracle). Parallel edges contribute once per edge — the
    reference keeps its edge multiset as loaded (no dedup anywhere in
    `GraphLite-0.20/engine/`), matching every other program here.
    Messages carry raw x_k; the attenuation factor is applied on the
    RECEIVING side so the commutative `sum` combiner stays exact."""

    name = "katz"
    combiner = "sum"

    def __init__(self, alpha: float = 0.05, iters: int = 10):
        if not 0.0 < alpha < 1.0:
            raise ValueError("katz alpha must be in (0, 1)")
        if iters < 1:
            raise ValueError("katz needs >= 1 iteration")
        self.alpha = float(alpha)
        self.iters = int(iters)

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def compute(self, ctx, shard, values, active, inbox):
        mask = active
        out = ComputeOut()
        if ctx.superstep == 0:
            values[mask] = 1.0
        else:
            sums = np.zeros(shard.n, np.float64)
            if not inbox.empty:
                sums[inbox.idx] = inbox.val
            values[mask] = (1.0 + self.alpha * sums)[mask]
            if ctx.superstep >= self.iters:
                out.halted = mask.copy()
                return out
        out.out_dst, out.out_val = _scatter_to_neighbors(shard, values, mask)
        out.sent = len(out.out_dst)
        return out


class EigenvectorCentrality(VertexProgram):
    """Eigenvector centrality: power iteration on A^T with per-layer L1
    normalization, fixed T iterations (the single-direction sibling of
    HITS, sharing its aggregator-normalization schedule):

      ss0:        x_0 = 1 everywhere; send raw x_0 along out-edges
      ss 0<k<=T:  x_k(v) = inbox_sum / norm_{k-1} (the SENDING layer's L1
                  mass via the aggregator's k->k+1 visibility); send raw
                  x_k forward (skipped at k=T — nothing consumes it)
      ss T+1:     normalize-only: x /= norm_T, so the output sums to
                  exactly 1; halt.
    Dangling-received mass shrinks each raw layer; the normalization
    rescales, so the fixpoint is the dominant left eigenvector restricted
    to the graph's recurrent part. Fixed-K -> deterministic and exactly
    SQL-replayable (`_eigenvector_oracle_sql`)."""

    name = "eigenvector"
    combiner = "sum"

    def __init__(self, iters: int = 8):
        self.iters = int(iters)
        if self.iters < 1:
            raise ValueError("eigenvector needs >=1 iteration")
        self.max_supersteps = self.iters + 2

    def aggregators(self):
        return {"norm": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut(aggr={"norm": 0.0})
        k = ctx.superstep
        final_ss = self.iters + 1
        if k == 0:
            values[:] = 1.0
        else:
            norm = ctx.aggr_global["norm"]
            if k < final_ss:
                sums = np.zeros(shard.n, np.float64)
                if not inbox.empty:
                    sums[inbox.idx] = inbox.val
                values[:] = sums / norm if norm > 0 else 0.0
            else:
                values[:] = values / norm if norm > 0 else 0.0
                out.halted = active.copy()
                return out
        out.aggr["norm"] = float(values.sum())
        if k < final_ss - 1:
            out.out_dst, out.out_val = _scatter_to_neighbors(shard, values, active)
            out.sent = len(out.out_dst)
        return out

    def master_halt(self, superstep, aggr_global, totals):
        return superstep >= self.iters + 1


class HITS(VertexProgram):
    """HITS hubs-and-authorities (Kleinberg), L1-normalized, fixed
    iteration count. The CSR is built over a DIRECTION-TAGGED edge
    multiset — each input edge (u, v) contributes a forward edge
    (u, v, w=1) and a reverse edge (v, u, w=2) — so one CSR serves both
    the A^T (auth) and A (hub) products; the per-edge weight payload is
    the direction tag (the reference's `Edge.weight` slot,
    `include/Node.h:46-54`, used as metadata rather than a scalar factor).

    Layer schedule (`values` alternates meaning by superstep parity):
      ss0:            hub_0 = 1.0 everywhere; send raw values forward
      ss k, 0<k<2T:   values = inbox_sums / norm  where `norm` is the
                      SENDING layer's sum, delivered via the aggregator's
                      k->k+1 visibility (A1 off-by-one); odd k holds
                      auth_t (received forward), even k holds hub_t
                      (received reverse); send raw values along the
                      opposite tag (skipped at k = 2T-1 — nothing
                      consumes a hub computed after the last auth layer)
      ss 2T:          final normalize-only step: values /= norm, so the
                      output is auth_T with sum exactly 1; halt.
    Each layer is therefore normalized by its predecessor's L1 mass —
    algebraically identical to normalizing every layer in place."""

    name = "hits"
    combiner = "sum"

    FWD, REV = 1.0, 2.0

    def __init__(self, iters: int = 4):
        self.iters = int(iters)
        if self.iters < 1:
            raise ValueError("hits needs >=1 iteration")
        self.max_supersteps = 2 * self.iters + 1
        self._fwd: np.ndarray | None = None  # per-shard static, cached

    def aggregators(self):
        return {"norm": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def _fwd_mask(self, shard):
        if self._fwd is None:
            if shard.edge_weights is None:
                raise ValueError(
                    "HITS requires the direction-tagged edge build "
                    "(weight 1=forward, 2=reverse); see hits_tagged_edges()"
                )
            self._fwd = shard.edge_weights == self.FWD
        return self._fwd

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut(aggr={"norm": 0.0})
        k = ctx.superstep
        final_ss = 2 * self.iters
        if k == 0:
            values[:] = 1.0
        else:
            norm = ctx.aggr_global["norm"]
            if k < final_ss:
                sums = np.zeros(shard.n, np.float64)
                if not inbox.empty:
                    sums[inbox.idx] = inbox.val
                values[:] = sums / norm if norm > 0 else 0.0
            else:
                values[:] = values / norm if norm > 0 else 0.0
                out.halted = active.copy()
                return out
        out.aggr["norm"] = float(values.sum())
        if k < final_ss - 1:
            fwd = self._fwd_mask(shard)
            dir_mask = fwd if k % 2 == 0 else ~fwd  # hub layers send forward
            emask = dir_mask & active[shard.edge_src_local]
            out.out_dst = shard.indices[emask]
            out.out_val = values[shard.edge_src_local[emask]]
            out.sent = len(out.out_dst)
        return out

    def master_halt(self, superstep, aggr_global, totals):
        return superstep >= 2 * self.iters


class ConnectedComponents(VertexProgram):
    """Weakly-connected components by min-label flood (our documented spec —
    the reference ships no CC program; SURVEY.md §7.1 step 7). Exact:
    final label = min vertex id in the component. Runs on the symmetrized
    edge set. Exercises vote-to-halt + reactivation (C2/C3): every vertex
    halts every superstep and only message arrival revives it; termination
    is the engine's global rule C4 (no active, no messages)."""

    name = "connected_components"
    value_dtype = np.dtype(np.int64)
    combiner = "min"
    symmetrize = True

    def init_values(self, shard):
        return shard.vids.copy()

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        mask = active
        if ctx.superstep == 0:
            senders = mask
            send_val = values
        else:
            senders = np.zeros(shard.n, bool)
            if not inbox.empty:
                better = inbox.val < values[inbox.idx]
                rows = inbox.idx[better]
                values[rows] = inbox.val[better]
                senders[rows] = True
            send_val = values
        out.out_dst, out.out_val = _scatter_to_neighbors(shard, send_val, senders)
        out.sent = len(out.out_dst)
        out.halted = mask.copy()  # halt everyone; messages reactivate
        return out


class SSSP(VertexProgram):
    """Single-source shortest paths — the canonical Pregel min-combiner
    program (our spec; the reference ships only PageRank). Edge length =
    the per-edge weight when present, else 1. Vertices start at +inf
    (source at 0), halt every superstep, and reactivate on an improving
    message — termination is the global rule C4. Exact on non-negative
    weights (Bellman-Ford-style relaxation; oracle-tested)."""

    name = "sssp"
    combiner = "min"

    def __init__(self, source: int):
        self.source = int(source)

    def init_values(self, shard):
        v = np.full(shard.n, np.inf)
        v[shard.vids == self.source] = 0.0
        return v

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        mask = active
        if ctx.superstep == 0:
            senders = mask & (values == 0.0)  # only the source has a distance
        else:
            senders = np.zeros(shard.n, bool)
            if not inbox.empty:
                better = inbox.val < values[inbox.idx]
                rows = inbox.idx[better]
                values[rows] = inbox.val[better]
                senders[rows] = True
        if shard.nnz:
            emask = senders[shard.edge_src_local]
            lengths = (
                shard.edge_weights
                if shard.edge_weights is not None
                else np.ones(shard.nnz)
            )
            out.out_dst = shard.indices[emask]
            out.out_val = (values[shard.edge_src_local] + lengths)[emask]
            out.sent = len(out.out_dst)
        out.halted = mask.copy()
        return out


class SymSSSP(SSSP):
    """SSSP over the SYMMETRIZED graph — the BFS primitive of the
    double-sweep diameter estimate (`pipelines/graphstats.py::
    double_sweep_diameter`). Identical relaxation semantics to `SSSP`;
    only the CSR is built over the symmetrized edge set. The checkpoint
    name carries the source id so two sweeps sharing one work dir never
    share (and never reject — run-identity config hash) BSP state."""

    symmetrize = True

    def __init__(self, source: int):
        super().__init__(source)
        self.name = f"sssp_sym_s{self.source}"


class MaximalIndependentSet(VertexProgram):
    """Luby-style maximal independent set (parallel greedy peeling with
    STATIC hash priorities) — our documented spec; the classic Pregel MIS.
    Runs on the SYMMETRIZED graph with self-loops removed by the caller
    (a self-loop vertex can never beat itself; MIS is a simple-graph
    notion — `pipelines/linkgraph.py::mis_labels` strips loops).

    Priority of vertex v (static across rounds, SQL-replayable — the
    Knuth-mixer family of `RandomWalks`):
        p20(v) = ((v % 2^31) * 2654435761 + 40503) % 2^32 % 2^20
        enc(v) = p20(v) * 2^32 + (v % 2^32)        (< 2^53: exact float64)
    enc is the strict comparison key (priority, id-fold tie-break); two
    vertices tie only on a 52-bit collision, in which case NEITHER joins
    and — priorities being static — neither ever decides; `max_rounds`
    caps the run and undecided vertices surface as status 0 (documented;
    never observed on hash-id graphs).

    Round r = supersteps (2r, 2r+1):
      phase A (even): undecided vertices whose inbox carries a join
        notification become OUT; remaining undecided scatter enc(v) to
        all neighbors (combiner "max" — one value per dst survives).
      phase B (odd): an undecided vertex with enc(v) > max received enc
        (no message -> max = -1, so isolated vertices join immediately)
        joins the MIS and scatters the EXCL sentinel (2^60 > any enc).
    Status: 0 undecided / 1 in MIS / 2 excluded; termination when the
    post-update undecided count aggregates to 0 (master halt, C4).

    Greedy-equivalence: with static priorities the result is exactly the
    sequential greedy MIS in descending (p20, id-fold) order — the pytest
    replays that; the DuckDB oracle replays the rounds themselves.
    """

    name = "mis"
    combiner = "max"
    symmetrize = True

    UNDECIDED, IN, OUT = 0.0, 1.0, 2.0
    EXCL = float(2**60)

    def __init__(self, max_rounds: int = 64):
        self.max_rounds = int(max_rounds)
        self.max_supersteps = 2 * self.max_rounds + 2

    @staticmethod
    def enc(vids: np.ndarray) -> np.ndarray:
        v = vids.astype(np.uint64)
        p20 = (
            (v % np.uint64(2**31)) * np.uint64(2654435761) + np.uint64(40503)
        ) % np.uint64(2**32) % np.uint64(2**20)
        return (p20 * np.uint64(2**32) + (v % np.uint64(2**32))).astype(np.float64)

    def aggregators(self):
        return {"undecided": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.full(shard.n, self.UNDECIDED)

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        st = values
        if ctx.superstep % 2 == 0:  # phase A
            if ctx.superstep > 0 and not inbox.empty:
                rows = inbox.idx[inbox.val >= self.EXCL / 2]
                rows = rows[st[rows] == self.UNDECIDED]
                st[rows] = self.OUT
            und = st == self.UNDECIDED
            out.out_dst, out.out_val = _scatter_to_neighbors(
                shard, self.enc(shard.vids), und
            )
            out.sent = len(out.out_dst)
        else:  # phase B
            und = st == self.UNDECIDED
            recv_max = np.full(shard.n, -1.0)
            if not inbox.empty:
                recv_max[inbox.idx] = inbox.val
            win = und & (self.enc(shard.vids) > recv_max)
            st[win] = self.IN
            out.out_dst, out.out_val = _scatter_to_neighbors(
                shard, np.full(shard.n, self.EXCL), win
            )
            out.sent = len(out.out_dst)
            und = st == self.UNDECIDED
        out.aggr = {"undecided": float(und.sum())}
        out.halted = st != self.UNDECIDED  # messages reactivate (C3); decided
        return out                         # vertices no-op on wake

    def master_halt(self, superstep, aggr_global, totals):
        if superstep % 2 == 1 and aggr_global.get("undecided", 1.0) == 0.0:
            return True
        return superstep + 1 >= self.max_supersteps


class GreedyColoring(VertexProgram):
    """Largest-first parallel greedy coloring (Jones–Plassmann with
    round-indexed colors) — our documented spec; runs on the SYMMETRIZED
    de-looped graph like `MaximalIndependentSet` (a self-looped vertex can
    never be properly colored; `pipelines/linkgraph.py::coloring_labels`
    strips loops) and reuses MIS's static priority key
    `MaximalIndependentSet.enc` (Knuth mixer, strict, SQL-replayable).

    One superstep per round: an UNCOLORED vertex whose enc beats every
    message received (messages come only from vertices still uncolored at
    the previous round's end; no message -> max = -1) takes
    color = superstep - 1; remaining uncolored vertices scatter enc
    (combiner "max"). Adjacent same-round winners are impossible (both
    would have scattered last round, so each saw the other's enc and enc
    is strict) -> the coloring is proper; each round colors at least the
    globally max-enc uncolored vertex -> termination in <= n rounds, and
    in O(log n) rounds in expectation on hash-id graphs (the
    Jones–Plassmann bound). Color values are round indices — monotone in
    greedy elimination order, NOT minimized per vertex (that variant needs
    per-vertex forbidden sets; documented trade-off).

    Halt: the `uncolored` aggregator reaches 0 (C4 master halt).
    """

    name = "coloring"
    combiner = "max"
    symmetrize = True

    UNCOLORED = -1.0

    def __init__(self, max_rounds: int = 512):
        self.max_supersteps = int(max_rounds) + 2

    def aggregators(self):
        return {"uncolored": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.full(shard.n, self.UNCOLORED)

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        st = values
        unc = st == self.UNCOLORED
        enc = MaximalIndependentSet.enc(shard.vids)
        if ctx.superstep > 0:
            recv_max = np.full(shard.n, -1.0)
            if not inbox.empty:
                recv_max[inbox.idx] = inbox.val
            win = unc & (enc > recv_max)
            st[win] = float(ctx.superstep - 1)
            unc = st == self.UNCOLORED
        out.out_dst, out.out_val = _scatter_to_neighbors(shard, enc, unc)
        out.sent = len(out.out_dst)
        out.aggr = {"uncolored": float(unc.sum())}
        out.halted = ~unc  # uncolored vertices must run even with an
        return out         # empty inbox (they still claim colors)

    def master_halt(self, superstep, aggr_global, totals):
        if aggr_global.get("uncolored", 1.0) == 0.0:
            return True
        return superstep + 1 >= self.max_supersteps


class MaximalMatching(VertexProgram):
    """Deterministic maximal matching by pointer handshake (the classic
    Pregel/Israeli–Itai shape with STATIC hash priorities) — our
    documented spec. Symmetrized de-looped graph (`pipelines/linkgraph.py
    ::matching_labels` strips loops — a vertex cannot match itself);
    priorities are `MaximalIndependentSet.enc` over GLOBAL vertex ids, so
    both sides of every comparison agree and the run is SQL-replayable.

    Round r = supersteps (2r, 2r+1), raw messages (combiner "none" — the
    receiver needs sender identity):
      even: process proposals from the previous odd superstep — an
        UNMATCHED vertex v whose stored pointer target t(v) is among its
        proposal senders matches t(v) (mutuality: v receives w's proposal
        iff t(w) = v, so both endpoints decide identically and
        simultaneously); then every still-unmatched vertex announces
        presence to all neighbors.
      odd: an unmatched vertex v with presence inbox sets
        t(v) = argmax-enc sender (all senders were unmatched at the
        announce superstep) and proposes to t(v); the `eligible`
        aggregator counts these proposers.

    Progress: the globally max-enc unmatched vertex M with any unmatched
    neighbor is every such neighbor's pointer target, and M points at one
    of them -> mutual -> >=1 match per round while an unmatched adjacent
    pair exists; halt when `eligible` hits 0 after an odd superstep
    (no proposals in flight -> the matching is maximal). Ties: enc is
    strict up to a 52-bit collision (documented, as for MIS).

    Value (int64): partner's global vertex id, -1 while unmatched; the
    per-partition pointer array rides `extra_state` so mid-run resume is
    exact."""

    name = "matching"
    value_dtype = np.dtype(np.int64)
    combiner = "none"
    symmetrize = True

    def __init__(self, max_rounds: int = 256):
        self.max_supersteps = 2 * int(max_rounds) + 2
        self._target: Optional[np.ndarray] = None

    def aggregators(self):
        return {"eligible": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.full(shard.n, -1, np.int64)

    def extra_state(self):
        if self._target is None:
            return None
        return {"t": self._target}

    def load_extra(self, state):
        self._target = state["t"].astype(np.int64)

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        if self._target is None:
            self._target = np.full(shard.n, -1, np.int64)
        st = values
        if ctx.superstep % 2 == 0:  # decide, then announce
            if ctx.superstep > 0 and not inbox.empty:
                src = inbox.src.astype(np.int64)
                hit = src == self._target[inbox.idx]
                st[inbox.idx[hit]] = src[hit]
            self._target[:] = -1
            unm = st == -1
            out.out_dst, out.out_src, out.out_val = scatter_to_neighbors_with_src(
                shard, np.zeros(shard.n), unm
            )
            out.sent = len(out.out_dst)
            out.aggr = {"eligible": float(unm.sum())}  # informative; halt
            # checks odd parity only
        else:  # point + propose
            unm = st == -1
            n_prop = 0
            if not inbox.empty:
                keep = unm[inbox.idx]
                idx = inbox.idx[keep]
                src = inbox.src[keep].astype(np.int64)
                if len(idx):
                    e = MaximalIndependentSet.enc(src)
                    order = np.lexsort((-e, idx))
                    idx_o, src_o = idx[order], src[order]
                    first = np.ones(len(idx_o), bool)
                    first[1:] = idx_o[1:] != idx_o[:-1]
                    rows = idx_o[first]
                    self._target[rows] = src_o[first]
                    out.out_dst = self._target[rows]
                    out.out_src = shard.vids[rows]
                    out.out_val = np.zeros(len(rows))
                    out.sent = n_prop = len(rows)
            out.aggr = {"eligible": float(n_prop)}
        out.halted = st != -1  # matched vertices sleep; proposals wake them
        return out             # harmlessly (their unm mask is False)

    def master_halt(self, superstep, aggr_global, totals):
        if superstep % 2 == 1 and aggr_global.get("eligible", 1.0) == 0.0:
            return True
        return superstep + 1 >= self.max_supersteps


class BipartiteCheck(VertexProgram):
    """Per-component bipartiteness by parity BFS, COMPOSED on the
    ConnectedComponents program's checkpointed output — the multi-program
    composition pattern: `labels_dir` points at the CC run's final
    `values_p{part}.parquet` shards; both programs share one graph
    partitioning, so each partition reads exactly its own label file at
    init (no shuffle, no broadcast).

    Roots = each component's min-id vertex (its CC label). Parity BFS:
    a newly visited vertex adopts 1 - min(sender parity) and broadcasts
    its parity once (raw messages — the receiver needs the actual parity
    multiset); since all first-arrival senders sit at BFS depth t-1, the
    adopted parity IS dist % 2, so a same-parity edge exists iff the
    component has an odd cycle (the classic BFS-layer argument — what the
    SQL oracle checks independently). Every same-parity edge is caught:
    its later-visited endpoint always fires a message into the other
    (self-loops conflict with themselves one superstep after the visit).

    value = parity + 2*conflict (0..3); the pipeline wrapper aggregates
    conflict per component. Halt: `newly` hits 0 (no messages in flight —
    only newly visited vertices send)."""

    name = "bipartite"
    value_dtype = np.dtype(np.int64)
    combiner = "none"
    symmetrize = True

    def __init__(self, labels_dir: str, max_levels: int = 300):
        self.labels_dir = labels_dir
        self.max_supersteps = int(max_levels) + 2
        self._comp: Optional[np.ndarray] = None
        self._parity: Optional[np.ndarray] = None
        self._conflict: Optional[np.ndarray] = None

    def aggregators(self):
        return {"newly": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return np.full(shard.n, -1, np.int64)

    def extra_state(self):
        if self._comp is None:
            return None
        return {
            "c": self._comp,
            "p": self._parity,
            "x": self._conflict.astype(np.int64),
        }

    def load_extra(self, state):
        self._comp = state["c"].astype(np.int64)
        self._parity = state["p"].astype(np.int64)
        self._conflict = state["x"].astype(bool)

    def _load_labels(self, shard):
        from graphlite_ray.state import storage

        t = storage.read_table(
            storage.join(self.labels_dir, f"values_p{shard.part_id}.parquet")
        )
        ids = t["vertex_id"].to_numpy()
        vals = t["value"].to_numpy().astype(np.int64)
        pos = np.searchsorted(ids, shard.vids)
        # clip before indexing: same-length-but-different-ids shards would
        # otherwise hit an IndexError before the intended ValueError (r4
        # ADVICE)
        pos_c = np.clip(pos, 0, max(len(ids) - 1, 0))
        if len(ids) != shard.n or not np.array_equal(ids[pos_c], shard.vids):
            raise ValueError(
                "bipartite: labels shard does not cover this partition "
                "(CC must run on the SAME graph layout)"
            )
        return vals[pos]

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        if self._comp is None:
            self._comp = self._load_labels(shard)
            self._parity = np.full(shard.n, -1, np.int64)
            self._conflict = np.zeros(shard.n, bool)
            self._parity[shard.vids == self._comp] = 0
        newly_rows = np.empty(0, np.int64)
        if ctx.superstep == 0:
            newly_rows = np.flatnonzero(self._parity == 0)
        elif not inbox.empty:
            i = inbox.idx
            v = inbox.val.astype(np.int64)
            unv = self._parity[i] == -1
            if unv.any():
                iu, vu = i[unv], v[unv]
                order = np.lexsort((vu, iu))
                iu_o, vu_o = iu[order], vu[order]
                first = np.ones(len(iu_o), bool)
                first[1:] = iu_o[1:] != iu_o[:-1]
                newly_rows = iu_o[first]
                self._parity[newly_rows] = 1 - vu_o[first]
            # post-adoption: any sender parity equal to the receiver's
            # marks the monochromatic edge
            self._conflict[i[v == self._parity[i]]] = True
        if len(newly_rows):
            mask = np.zeros(shard.n, bool)
            mask[newly_rows] = True
            out.out_dst, out.out_src, out.out_val = scatter_to_neighbors_with_src(
                shard, self._parity.astype(np.int64), mask
            )
            out.sent = len(out.out_dst)
        values[:] = self._parity + 2 * self._conflict.astype(np.int64)
        out.aggr = {"newly": float(len(newly_rows))}
        return out

    def master_halt(self, superstep, aggr_global, totals):
        if superstep >= 1 and aggr_global.get("newly", 1.0) == 0.0:
            return True
        return superstep + 1 >= self.max_supersteps


class Coreness(VertexProgram):
    """Full k-core decomposition (coreness number per vertex) by H-index
    iteration (Montresor, De Pellegrini & Miorandi 2013): start at
    core_0(v) = deg(v); each round core(v) := H({core(u) : u in N(v)})
    (the largest h with >= h neighbors at >= h). The sequence is
    componentwise non-increasing and converges to the exact coreness —
    unlike the fixed-k `KCore` program this yields the whole
    decomposition in one run.

    Sparse (default, r5): CHANGED-ONLY rebroadcast with a per-edge
    neighbor-value cache — superstep 0 seeds every vertex's cache with its
    neighbors' degrees (the one full-broadcast round), after which only
    vertices whose value CHANGED send, and receivers patch the cached
    multiset in place (slot found by vectorized per-row binary search over
    the within-row-sorted dst ids). Message volume drops from O(E) per
    round to O(changed-vertex degree sum) — the documented scale upgrade
    the r4 verdict asked for. The cache rides `extra_state`, so mid-run
    resume restores it exactly. `dense=True` keeps the original
    full-rebroadcast behavior (pytest proves the two bit-identical).

    Runs on the SIMPLE undirected graph: the caller dedups to canonical
    pairs (a duplicated neighbor would double-count in the H multiset —
    and the sparse cache maps one slot per (v, u) pair) and strips
    self-loops; the CSR symmetrize then adds each direction exactly once.
    Halt: the `changes` aggregator reaches 0."""

    name = "coreness"
    value_dtype = np.dtype(np.int64)
    combiner = "none"
    symmetrize = True

    def __init__(self, max_rounds: int = 256, dense: bool = False):
        self.max_supersteps = int(max_rounds) + 2
        self.dense = bool(dense)
        self._nb = None        # per-edge cached neighbor value (sorted slots)
        self._order = None     # edge slot -> within-row dst-sorted position
        self._sorted_dst = None

    def aggregators(self):
        return {"changes": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return (shard.indptr[1:] - shard.indptr[:-1]).astype(np.int64)

    def extra_state(self):
        if self.dense or self._nb is None:
            return None
        return {"nb": self._nb}

    def load_extra(self, state):
        self._nb = state["nb"].astype(np.int64)

    def _ensure_cache(self, shard):
        # lexsort only permutes WITHIN rows (edge_src_local is already
        # grouped), so indptr segments stay valid for the sorted view
        if self._order is None:
            self._order = np.lexsort((shard.indices, shard.edge_src_local))
            self._sorted_dst = shard.indices[self._order]
        if self._nb is None:
            self._nb = np.zeros(shard.nnz, np.int64)

    def _slots(self, shard, rows, srcs):
        """Vectorized lower_bound of each message's sender id inside its
        destination row's dst-sorted edge segment -> cache slot."""
        lo = shard.indptr[rows].copy()
        hi = shard.indptr[rows + 1].copy()
        sd = self._sorted_dst
        while True:
            open_m = lo < hi
            if not open_m.any():
                break
            mid = (lo + hi) >> 1
            less = open_m & (sd[np.minimum(mid, len(sd) - 1)] < srcs)
            lo = np.where(less, mid + 1, lo)
            hi = np.where(open_m & ~less, mid, hi)
        return lo

    def _h_index(self, vals, rows_rep, n_groups):
        """Segmented H-index: rows_rep is the dense group id per value."""
        order = np.lexsort((-vals, rows_rep))
        vv = vals[order]
        rr = rows_rep[order]
        first = np.ones(len(rr), bool)
        first[1:] = rr[1:] != rr[:-1]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, len(rr)))
        rank = np.arange(len(rr), dtype=np.int64) - np.repeat(starts, counts) + 1
        return np.maximum.reduceat(np.minimum(rank, vv), starts)

    def compute(self, ctx, shard, values, active, inbox):
        if self.dense:
            return self._compute_dense(ctx, shard, values, active, inbox)
        out = ComputeOut()
        self._ensure_cache(shard)
        changes = 0
        if ctx.superstep == 0:
            # seed round: every vertex broadcasts its degree
            out.out_dst, out.out_src, out.out_val = scatter_to_neighbors_with_src(
                shard, values.astype(np.int64), np.ones(shard.n, bool)
            )
            out.sent = len(out.out_dst)
            out.aggr = {"changes": 1.0}
            out.halted = active.copy()
            return out
        senders = np.zeros(shard.n, bool)
        if not inbox.empty:
            rows = inbox.idx
            slots = self._slots(shard, rows, inbox.src.astype(np.int64))
            self._nb[slots] = inbox.val.astype(np.int64)
            touched = np.unique(rows)
            cnt = (shard.indptr[touched + 1] - shard.indptr[touched]).astype(
                np.int64
            )
            seg = np.repeat(shard.indptr[touched], cnt) + (
                np.arange(int(cnt.sum())) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            )
            h = self._h_index(
                self._nb[seg], np.repeat(np.arange(len(touched)), cnt), len(touched)
            )
            newv = np.minimum(values[touched], h)
            changed = newv != values[touched]
            changes = int(changed.sum())
            values[touched] = newv
            senders[touched[changed]] = True
        out.out_dst, out.out_src, out.out_val = scatter_to_neighbors_with_src(
            shard, values.astype(np.int64), senders
        )
        out.sent = len(out.out_dst)
        out.aggr = {"changes": float(changes)}
        out.halted = active.copy()  # messages reactivate (C3)
        return out

    def _compute_dense(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        changes = 0
        if ctx.superstep > 0 and not inbox.empty:
            iv_rows = inbox.idx
            h_groups, inv = np.unique(iv_rows, return_inverse=True)
            h = self._h_index(
                inbox.val.astype(np.int64), inv.astype(np.int64), len(h_groups)
            )
            rows = h_groups
            newv = np.minimum(values[rows], h)
            changes = int((newv != values[rows]).sum())
            values[rows] = newv
        out.out_dst, out.out_src, out.out_val = scatter_to_neighbors_with_src(
            shard, values.astype(np.int64), np.ones(shard.n, bool)
        )
        out.sent = len(out.out_dst)
        out.aggr = {"changes": float(changes) if ctx.superstep else 1.0}
        return out

    def master_halt(self, superstep, aggr_global, totals):
        if superstep > 0 and aggr_global.get("changes", 1.0) == 0.0:
            return True
        return superstep + 1 >= self.max_supersteps


class Betweenness(VertexProgram):
    """Sampled-source betweenness centrality (Brandes 2001) over the
    DIRECTED simple graph: bc(v) = sum over the sampled sources s of the
    dependency delta_s(v) (endpoints excluded) — the standard pivot
    estimator; pass every vertex as a source for the exact value.

    Runs on the direction-tagged edge multiset (FWD original edges for
    the BFS, REV for dependency back-propagation — the HITS/SCC CSR
    trick; caller dedups to DISTINCT directed pairs so sigma counts
    paths, not parallel edges). Messages are (key=source-index, val)
    under the sum_by_key combiner, so S sources advance in ONE wavefront
    per superstep.

    Phase FORWARD (superstep t): unvisited receivers of sigma mass set
    dist=t, sigma=sum received; vertices at dist t scatter sigma along
    FWD edges. The `newly` aggregator hitting 0 flips every shard to
    BACKWARD deterministically (all shards see the same aggregate; no
    messages are in flight at the flip since the last frontier was
    empty); the `maxl` aggregator (per-source elementwise max, a list
    merge_fn) has the per-source BFS depths ready at that superstep.

    Phase BACKWARD (step bi = 0, 1, ...): per source s, vertices at
    level lmax_s - bi send (1 + delta)/sigma along REV edges; receivers
    one level up (checked: dist == sender level - 1 > 0, which also
    rejects non-DAG in-neighbors and the source itself — Brandes excludes
    endpoints) set delta = sigma * sum received. After max(lmax) steps
    every dependency has telescoped to level 1 and `bdone` halts the run.

    Float note: per-vertex sums associate in combiner order; oracles
    compare after the shared round-6, the PageRank convention.
    vertex value = sum_s delta_s(v); per-source dist/sigma/delta arrays
    ride `extra_state` (scalars broadcast per column), so mid-run resume
    is exact."""

    name = "betweenness"
    combiner = "sum_by_key"
    symmetrize = False

    FWD, REV = 1.0, 2.0

    def __init__(self, sources: list[int], max_levels: int = 64):
        self.sources = [int(s) for s in sources]
        self.S = len(self.sources)
        if not self.S:
            raise ValueError("betweenness needs >= 1 source")
        self.max_supersteps = 2 * int(max_levels) + 4
        self._dist: Optional[np.ndarray] = None   # (S, n) int32, -1 unvisited
        self._sigma: Optional[np.ndarray] = None  # (S, n) path counts
        self._delta: Optional[np.ndarray] = None  # (S, n) dependencies
        self._lmax: Optional[np.ndarray] = None   # (S,) BFS depth per source
        self._phase = 0
        self._bi = 0
        self._fwdm: Optional[np.ndarray] = None

    def aggregators(self):
        return {
            "newly": AggregatorSpec(init=0.0, op="sum"),
            "maxl": AggregatorSpec(
                init=[-1] * self.S,
                merge_fn=lambda a, b: [max(x, y) for x, y in zip(a, b)],
            ),
            "bdone": AggregatorSpec(init=0.0, op="max"),
        }

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def extra_state(self):
        if self._dist is None:
            return None
        n = self._dist.shape[1]
        cols: dict = {}
        for si in range(self.S):
            cols[f"d{si}"] = self._dist[si].astype(np.int64)
            cols[f"g{si}"] = self._sigma[si].copy()
            cols[f"t{si}"] = self._delta[si].copy()
            cols[f"lm{si}"] = np.full(n, int(self._lmax[si]), np.int64)
        cols["ph"] = np.full(n, self._phase, np.int64)
        cols["bi"] = np.full(n, self._bi, np.int64)
        return cols

    def load_extra(self, state):
        S = self.S
        self._dist = np.stack(
            [state[f"d{si}"].astype(np.int32) for si in range(S)]
        )
        self._sigma = np.stack(
            [state[f"g{si}"].astype(np.float64) for si in range(S)]
        )
        self._delta = np.stack(
            [state[f"t{si}"].astype(np.float64) for si in range(S)]
        )
        if len(state["ph"]):
            self._phase = int(state["ph"][0])
            self._bi = int(state["bi"][0])
            self._lmax = np.array(
                [int(state[f"lm{si}"][0]) for si in range(S)], np.int64
            )
        else:  # empty shard: scalars are irrelevant, keep defaults
            self._lmax = np.full(S, -1, np.int64)

    def _fwd_mask(self, shard):
        if self._fwdm is None:
            if shard.edge_weights is None:
                raise ValueError("betweenness needs the direction-tagged CSR")
            self._fwdm = shard.edge_weights == self.FWD
        return self._fwdm

    @staticmethod
    def _dir_edges(shard, rows: np.ndarray, emask_dir: np.ndarray):
        rowmask = np.zeros(shard.n, bool)
        rowmask[rows] = True
        em = rowmask[shard.edge_src_local] & emask_dir
        return shard.indices[em], shard.edge_src_local[em]

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        S, n = self.S, shard.n
        if self._dist is None:
            self._dist = np.full((S, n), -1, np.int32)
            self._sigma = np.zeros((S, n))
            self._delta = np.zeros((S, n))
            self._lmax = np.full(S, -1, np.int64)
            for si, s in enumerate(self.sources):
                rows = np.flatnonzero(shard.vids == np.int64(s))
                self._dist[si, rows] = 0
                self._sigma[si, rows] = 1.0
        if (
            self._phase == 0
            and ctx.superstep > 0
            and ctx.aggr_global.get("newly", 1.0) == 0.0
        ):
            self._phase = 1
            self._bi = 0
            self._lmax = np.array(
                [int(x) for x in ctx.aggr_global.get("maxl", [-1] * S)], np.int64
            )

        fwd = self._fwd_mask(shard)
        dsts: list[np.ndarray] = []
        keys: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        if self._phase == 0:
            t = ctx.superstep
            # seeds count as this superstep's visits at ss0, else the
            # empty ss0 inbox reads as a finished BFS and flips the phase
            # before the wavefront starts
            newly = int((self._dist == 0).sum()) if t == 0 else 0
            if not inbox.empty:
                k = inbox.key.astype(np.int64)
                i = inbox.idx
                unv = self._dist[k, i] == -1
                if unv.any():
                    self._dist[k[unv], i[unv]] = t
                    self._sigma[k[unv], i[unv]] = inbox.val[unv]
                    newly = int(unv.sum())
            for si in range(S):
                rows = np.flatnonzero(self._dist[si] == t)
                if len(rows):
                    d, srl = self._dir_edges(shard, rows, fwd)
                    dsts.append(d)
                    keys.append(np.full(len(d), float(si)))
                    vals.append(self._sigma[si][srl])
            out.aggr = {
                "newly": float(newly),
                "maxl": [int(self._dist[si].max(initial=-1)) for si in range(S)],
                "bdone": 0.0,
            }
        else:
            bi = self._bi
            if not inbox.empty:
                k = inbox.key.astype(np.int64)
                i = inbox.idx
                lvl = self._lmax[k] - bi
                dki = self._dist[k, i].astype(np.int64)
                ok = (dki == lvl) & (dki > 0)
                if ok.any():
                    ko, io = k[ok], i[ok]
                    self._delta[ko, io] = self._sigma[ko, io] * inbox.val[ok]
            for si in range(S):
                lvl = int(self._lmax[si]) - bi
                if lvl < 1:
                    continue
                rows = np.flatnonzero(self._dist[si] == lvl)
                if len(rows):
                    d, srl = self._dir_edges(shard, rows, ~fwd)
                    dsts.append(d)
                    keys.append(np.full(len(d), float(si)))
                    vals.append(
                        (1.0 + self._delta[si][srl]) / self._sigma[si][srl]
                    )
            values[:] = self._delta.sum(axis=0)
            done = 1.0 if bi >= int(self._lmax.max(initial=0)) else 0.0
            self._bi = bi + 1
            out.aggr = {
                "newly": 0.0,
                "maxl": [int(x) for x in self._lmax],
                "bdone": done,
            }
        if dsts:
            out.out_dst = np.concatenate(dsts)
            out.out_key = np.concatenate(keys)
            out.out_val = np.concatenate(vals)
            out.sent = len(out.out_dst)
        return out

    def master_halt(self, superstep, aggr_global, totals):
        if aggr_global.get("bdone", 0.0) >= 1.0:
            return True
        return superstep + 1 >= self.max_supersteps


class LabelPropagation(VertexProgram):
    """Synchronous LPA, our documented spec (no reference program exists):
    init label = own id; each superstep every vertex adopts the most
    frequent label among its neighbors (symmetrized), ties broken by MIN
    label (deterministic — message-order independence per SURVEY.md §2.12);
    halts globally when a round changes no label or after `max_supersteps`.
    Two-level combine: messages are (dst, label, count) rows summed by
    (dst, label) producer-side, so a hub's fan-in is <= P*distinct_labels
    (SURVEY.md §4 skew row)."""

    name = "label_propagation"
    value_dtype = np.dtype(np.int64)
    combiner = "sum_by_key"
    symmetrize = True

    def __init__(self, max_supersteps: int = 20):
        self.max_supersteps = max_supersteps

    def aggregators(self):
        return {"changes": AggregatorSpec(init=0.0, op="sum")}

    def init_values(self, shard):
        return shard.vids.copy()

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut(aggr={"changes": 0.0})
        mask = active
        if ctx.superstep > 0 and not inbox.empty:
            rows, winners = mode_by_row(inbox)
            changed = winners != values[rows]
            out.aggr["changes"] = float(changed.sum())
            values[rows] = winners
        out.out_dst, out.out_key = _scatter_to_neighbors(shard, values, mask)
        out.out_val = np.ones(len(out.out_dst), np.int64)  # counts
        out.sent = len(out.out_dst)
        return out

    def master_halt(self, superstep, aggr_global, totals):
        if superstep >= 1 and aggr_global.get("changes", 1.0) == 0.0:
            return True
        return superstep + 1 >= self.max_supersteps


class SeededLabelPropagation(LabelPropagation):
    """Semi-supervised label SPREADING (the web-spam / topic-seed
    propagation pattern): seed vertices carry fixed class labels (clamped
    every round), everyone else starts UNLABELED (-1) and adopts the most
    frequent class among LABELED neighbors (ties -> MIN class, the LPA
    tie-break); unlabeled vertices send nothing. Non-seed vertices may
    keep flipping with their neighborhood majority until the no-change
    round halts the run (inherited rule). Vertices unreachable from any
    seed stay -1.

    `seeds` is a small {vertex_id: class} dict shipped inside the program
    closure (the broadcast-small-side idiom); seed CLASSES, not vertex
    ids, flow as messages, so the label universe stays tiny and the
    two-level (dst, label) combine stays skew-proof."""

    name = "seeded_lpa"

    def __init__(self, seeds: dict[int, int], max_supersteps: int = 30):
        super().__init__(max_supersteps=max_supersteps)
        if not seeds:
            raise ValueError("seeded_lpa needs >= 1 seed")
        items = sorted((int(v), int(c)) for v, c in seeds.items())
        self._seed_ids = np.array([v for v, _ in items], np.int64)
        self._seed_cls = np.array([c for _, c in items], np.int64)

    def _seed_rows(self, shard):
        present = np.isin(shard.vids, self._seed_ids)
        rows = np.flatnonzero(present)
        cls = self._seed_cls[
            np.searchsorted(self._seed_ids, shard.vids[rows])
        ]
        return rows, cls

    def init_values(self, shard):
        v = np.full(shard.n, -1, np.int64)
        rows, cls = self._seed_rows(shard)
        v[rows] = cls
        return v

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut(aggr={"changes": 0.0})
        if ctx.superstep > 0 and not inbox.empty:
            rows, winners = mode_by_row(inbox)
            winners = winners.astype(np.int64)
            clamp = np.isin(shard.vids[rows], self._seed_ids)
            rows, winners = rows[~clamp], winners[~clamp]
            changed = winners != values[rows]
            out.aggr["changes"] = float(changed.sum())
            values[rows] = winners
        labeled = values != -1
        out.out_dst, out.out_key = _scatter_to_neighbors(shard, values, labeled)
        out.out_val = np.ones(len(out.out_dst), np.int64)
        out.sent = len(out.out_dst)
        return out


class DensestSubgraph(VertexProgram):
    """Densest-subgraph 2-approximation by parallel peeling (Bahmani /
    Kumar / Vassilvitskii's MapReduce algorithm at eps=0): each ROUND
    removes every alive vertex whose degree is <= the alive set's average
    (integer cross-multiplied compare `deg * V <= E2`, where E2 = sum of
    alive degrees = 2|E| — no float thresholds anywhere); the densest
    round's survivor set is a >= 1/2-approximation of the max-density
    subgraph. The min-degree vertex always satisfies deg <= avg, so every
    round removes at least one vertex and the peeling terminates.

    Two supersteps per round on the engine's aggregator off-by-one
    (SURVEY §2.5 A1 — the same decide/announce split `MaximalIndependentSet`
    uses): even supersteps APPLY neighbor decrements and report the alive
    (V, E2) totals through sum aggregators; odd supersteps read those
    totals (visible k -> k+1), peel, and notify neighbors. The per-round
    (V, E2) curve rides the history-bearing aggregator lane
    (`_hist_aggr`), so the density argmax — and therefore the member set
    — survives checkpoint resume. Alive vertices stay ACTIVE between
    rounds (rounds are threshold-driven, not message-driven, so
    quiescence must not end the run early); removed vertices halt and
    ignore stray decrements, and the run terminates by the reference
    rule once everything is removed.

    value = round the vertex was peeled in (rounds count from 0).
    Reference analog: none (the reference ships only PageRank); built on
    the same BSP surface as the k-core peeling above.
    """

    name = "densest_subgraph"
    value_dtype = np.dtype(np.int64)
    combiner = "sum"
    symmetrize = True
    max_supersteps = 602

    def __init__(self):
        self._deg: Optional[np.ndarray] = None

    def aggregators(self):
        return {
            "V": AggregatorSpec(init=0, op="sum"),
            "E2": AggregatorSpec(init=0, op="sum"),
            "histV": _hist_aggr(),
            "histE2": _hist_aggr(),
        }

    def init_values(self, shard):
        return np.full(shard.n, -1, np.int64)  # -1 = not peeled yet

    def extra_state(self):
        return {"deg": None if self._deg is None else self._deg.tolist()}

    def load_extra(self, state):
        d = state.get("deg")
        self._deg = None if d is None else np.asarray(d, np.int64)

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        if self._deg is None:
            self._deg = shard.out_deg.astype(np.int64).copy()
        alive = values < 0
        if ctx.superstep % 2 == 0:  # APPLY + REPORT
            if not inbox.empty:
                rows = inbox.idx
                keep = alive[rows]
                self._deg[rows[keep]] -= inbox.val.astype(np.int64)[keep]
            rnd = ctx.superstep // 2
            v_cnt = int(alive.sum())
            e2 = int(self._deg[alive].sum())
            hv = {rnd: v_cnt}
            he = {rnd: e2}
            if ctx.part_id == 0:  # carry the accumulated history forward
                hv = _dict_sum(dict(ctx.aggr_global.get("histV", {})), hv)
                he = _dict_sum(dict(ctx.aggr_global.get("histE2", {})), he)
            out.aggr = {"V": v_cnt, "E2": e2, "histV": hv, "histE2": he}
            out.halted = ~alive  # removed stay halted; alive stay active
        else:  # PEEL
            v_cnt = int(ctx.aggr_global.get("V", 0))
            e2 = int(ctx.aggr_global.get("E2", 0))
            rnd = ctx.superstep // 2
            if ctx.part_id == 0:
                # aggregators re-init every superstep: the history must be
                # re-emitted in BOTH phases or the PEEL superstep wipes it
                out.aggr = {
                    "histV": dict(ctx.aggr_global.get("histV", {})),
                    "histE2": dict(ctx.aggr_global.get("histE2", {})),
                }
            doomed = alive & (self._deg * v_cnt <= e2)
            if doomed.any():
                out.out_dst, out.out_val = _scatter_to_neighbors(
                    shard, np.ones(shard.n, np.float64), doomed
                )
                out.sent = len(out.out_dst)
                values[doomed] = rnd
            out.halted = values >= 0  # peeled (now or earlier) halt
        return out

    @staticmethod
    def densest_round(hist_v: dict, hist_e2: dict) -> int:
        """argmax_r E2_r / V_r by exact integer cross-multiplication,
        smallest round on ties (the SQL oracle replays this compare)."""
        best = None
        for r in sorted(int(k) for k in hist_v):
            v, e2 = int(hist_v[r]), int(hist_e2[r])
            if v <= 0:
                continue
            if best is None or e2 * best[1] > best[2] * v:
                best = (r, v, e2)
        return -1 if best is None else best[0]


class KCore(VertexProgram):
    """k-core membership by synchronous peeling (our spec; oracle-tested):
    on the symmetrized graph, every vertex starts with its degree; a vertex
    whose remaining degree drops below k removes itself ONCE, sending a
    decrement to each neighbor (sum-combined). Fixpoint = the k-core.
    Final value: remaining degree for members, -1 for peeled vertices.
    Exercises the peeling/decrement family of vertex programs (removal
    cascades), distinct from flood (CC) and iteration (PageRank)."""

    name = "kcore"
    value_dtype = np.dtype(np.int64)
    combiner = "sum"
    symmetrize = True

    def __init__(self, k: int):
        self.k = int(k)

    def init_values(self, shard):
        return shard.out_deg.astype(np.int64).copy()  # symmetrized degree

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        if ctx.superstep == 0:
            doomed = values < self.k
        else:
            # only vertices whose degree changed this superstep can newly fall
            # below k; already-peeled vertices (value -1) ignore messages
            doomed = np.zeros(shard.n, bool)
            if not inbox.empty:
                rows = inbox.idx
                dec = inbox.val.astype(np.int64)
                still = values[rows] >= 0
                r2 = rows[still]
                values[r2] -= dec[still]
                doomed[r2[values[r2] < self.k]] = True
        if doomed.any():
            out.out_dst, out.out_val = _scatter_to_neighbors(
                shard, np.ones(shard.n, np.float64), doomed
            )
            out.sent = len(out.out_dst)
            values[doomed] = -1
        out.halted = active.copy()
        return out


def _gather_out_edges(shard: CSRShard, rows: np.ndarray):
    """All out-edges of the given local rows: (dst_global, row_map) where
    row_map[i] indexes back into `rows` — vectorized variable-run gather
    over the CSR row structure."""
    starts = shard.indptr[rows]
    counts = shard.indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    base = np.repeat(starts, counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    pos = base + (np.arange(total, dtype=np.int64) - offsets)
    return shard.indices[pos], np.repeat(np.arange(len(rows), dtype=np.int64), counts)


_REACH_DTYPE = np.dtype([("v", "<i8"), ("s", "<i8")])


def _dict_sum(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return out


def _hist_aggr() -> AggregatorSpec:
    """{superstep -> value} accumulated ACROSS supersteps: every partition
    emits its own superstep's contribution and partition 0 re-emits the
    accumulated past from `aggr_global` (the k -> k+1 visibility), so the
    FINAL aggregator value is the full per-superstep history. Because it
    lives in `aggr_global`, it rides every checkpoint manifest — resume
    (and the already-complete early return) reconstructs the whole curve,
    which a plain per-superstep scalar cannot (`result.aggr_history` only
    covers the supersteps of the LAST attempt)."""
    return AggregatorSpec(
        init={},
        merge_fn=_dict_sum,
        encode=lambda d: {str(k): v for k, v in d.items()},
        decode=lambda d: {int(k): v for k, v in d.items()},
    )


class NeighborhoodExact(VertexProgram):
    """EXACT neighborhood function: per-superstep counts of ordered pairs
    (u in sources, v) with shortest distance d(u -> v) = t, via multi-source
    BFS wavefronts — source ids propagate along edges; a vertex records a
    source the first superstep it arrives (= the exact distance) and
    forwards only NEW sources. `aggr_history[t]["new_pairs"]` is the t-th
    wavefront size; the per-vertex value is |{u in sources: d(u, v) <=
    radius}| (the in-ball ∩ sources, self included for source vertices).

    This is the exact sibling of `HyperBall` (same pairing as
    distinct_users / distinct_users_approx): message volume is
    O(reached pairs x out-degree), which is the quadratic cost HyperBall's
    fixed-size counters remove at web scale — run it with a restricted
    source set (or small radius) on big graphs.

    Reference analog: none (the reference ships no distance analytics);
    built on the same BSP surface as `example/sssp.cc`-style programs.
    The reached-pair set is per-partition extra state, round-tripped
    through checkpoints via `extra_state`/`load_extra` so mid-run resume
    stays exact (tested)."""

    name = "neighborhood_exact"
    combiner = "max_by_key"

    def __init__(self, radius: int = 4, source_mod: int | None = None):
        self.radius = int(radius)
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        self.max_supersteps = self.radius + 1
        # sources = vertices with vid % source_mod == 0 (None = all):
        # deterministic, uniform over hashed ids, SQL-replicable
        self.source_mod = source_mod
        # aggregator-schema version: folded into config_hash so manifests
        # written before the `hist` aggregator existed are never resumed
        self.aggr_schema = 1
        self._reached: np.ndarray | None = None  # sorted (_REACH_DTYPE)

    def aggregators(self):
        return {"new_pairs": AggregatorSpec(init=0, op="sum"), "hist": _hist_aggr()}

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def extra_state(self):
        if self._reached is None:
            return None
        return {"v": self._reached["v"].copy(), "s": self._reached["s"].copy()}

    def load_extra(self, state):
        r = np.empty(len(state["v"]), _REACH_DTYPE)
        r["v"], r["s"] = state["v"], state["s"]
        r.sort(order=["v", "s"])
        self._reached = r

    def _source_rows(self, shard):
        if self.source_mod is None:
            return np.arange(shard.n, dtype=np.int64)
        return np.flatnonzero(shard.vids % self.source_mod == 0)

    def _emit_hist(self, out, ctx, contribution):
        hist = {ctx.superstep: contribution}
        if ctx.part_id == 0:  # carry the accumulated past forward
            hist = _dict_sum(ctx.aggr_global.get("hist", {}), hist)
        out.aggr["hist"] = hist

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut(aggr={"new_pairs": 0})
        if ctx.superstep == 0:
            srows = self._source_rows(shard)
            reached = np.empty(len(srows), _REACH_DTYPE)
            reached["v"] = shard.vids[srows]
            reached["s"] = shard.vids[srows]
            reached.sort(order=["v", "s"])
            self._reached = reached
            values[srows] += 1.0  # d(u, u) = 0: source in its own ball
            out.aggr["new_pairs"] = len(srows)  # the t=0 self pairs
            dsts, row_map = _gather_out_edges(shard, srows)
            out.out_dst = dsts
            out.out_key = shard.vids[srows][row_map]
            out.out_val = np.ones(len(dsts), np.int64)
            out.sent = len(dsts)
            out.halted = active.copy()  # reactivate-on-message wavefronts
            self._emit_hist(out, ctx, len(srows))
            return out
        if not inbox.empty:
            cand = np.empty(len(inbox.idx), _REACH_DTYPE)
            cand["v"] = shard.vids[inbox.idx]
            cand["s"] = inbox.key
            if len(self._reached):
                pos = np.clip(
                    np.searchsorted(self._reached, cand), 0, len(self._reached) - 1
                )
                new = self._reached[pos] != cand
            else:
                new = np.ones(len(cand), bool)
            n_new = int(new.sum())
            if n_new:
                self._reached = np.sort(
                    np.concatenate([self._reached, cand[new]]), order=["v", "s"]
                )
                np.add.at(values, inbox.idx[new], 1.0)
                out.aggr["new_pairs"] = n_new
                if ctx.superstep < self.radius:  # last wave is never consumed
                    rows = inbox.idx[new]
                    dsts, row_map = _gather_out_edges(shard, rows)
                    out.out_dst = dsts
                    out.out_key = inbox.key[new][row_map]
                    out.out_val = np.ones(len(dsts), np.int64)
                    out.sent = len(dsts)
        out.halted = active.copy()
        self._emit_hist(out, ctx, out.aggr["new_pairs"])
        return out


class HarmonicCentrality(VertexProgram):
    """Truncated harmonic centrality (Boldi & Vigna's centrality of choice
    for web graphs — what HyperBall exists to estimate):

      H(v) = sum over sources u (vid % source_mod == 0, u != v) with
             d(u -> v) <= radius of 1 / d(u -> v)

    Same multi-source BFS wavefront as `NeighborhoodExact` (source ids
    propagate forward; first arrival = exact distance; only NEW sources
    forward), but the per-vertex value accumulates n_new(v, t) * (1/t) —
    computed as ONE count-times-reciprocal per superstep (bincount then
    multiply), the same association the SQL oracle's `count * (1.0/d)`
    uses, so engine and oracle agree to the last ulp before the shared
    round-6. Sampled sources make this the standard sqrt-style estimator
    at scale; radius-truncation is HyperBall's own per-iteration view."""

    name = "harmonic_centrality"
    combiner = "max_by_key"  # dedup (dst, source) — parallel edges collapse

    def __init__(self, radius: int = 6, source_mod: int | None = None):
        self.radius = int(radius)
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        self.max_supersteps = self.radius + 1
        self.source_mod = source_mod
        self.aggr_schema = 1
        self._reached: np.ndarray | None = None

    def init_values(self, shard):
        return np.zeros(shard.n, np.float64)

    def extra_state(self):
        if self._reached is None:
            return None
        return {"v": self._reached["v"].copy(), "s": self._reached["s"].copy()}

    def load_extra(self, state):
        r = np.empty(len(state["v"]), _REACH_DTYPE)
        r["v"], r["s"] = state["v"], state["s"]
        r.sort(order=["v", "s"])
        self._reached = r

    def _source_rows(self, shard):
        if self.source_mod is None:
            return np.arange(shard.n, dtype=np.int64)
        return np.flatnonzero(shard.vids % self.source_mod == 0)

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        if ctx.superstep == 0:
            srows = self._source_rows(shard)
            reached = np.empty(len(srows), _REACH_DTYPE)
            reached["v"] = shard.vids[srows]
            reached["s"] = shard.vids[srows]
            reached.sort(order=["v", "s"])
            self._reached = reached  # d(u, u) = 0 contributes nothing
            dsts, row_map = _gather_out_edges(shard, srows)
            out.out_dst = dsts
            out.out_key = shard.vids[srows][row_map]
            out.out_val = np.ones(len(dsts), np.int64)
            out.sent = len(dsts)
            out.halted = active.copy()
            return out
        if not inbox.empty:
            cand = np.empty(len(inbox.idx), _REACH_DTYPE)
            cand["v"] = shard.vids[inbox.idx]
            cand["s"] = inbox.key
            if len(self._reached):
                pos = np.clip(
                    np.searchsorted(self._reached, cand), 0, len(self._reached) - 1
                )
                new = self._reached[pos] != cand
            else:
                new = np.ones(len(cand), bool)
            if new.any():
                self._reached = np.sort(
                    np.concatenate([self._reached, cand[new]]), order=["v", "s"]
                )
                cnt = np.bincount(inbox.idx[new], minlength=shard.n)
                hit = cnt > 0
                # one multiply per superstep: matches SQL count * (1.0/d)
                values[hit] += cnt[hit] * (1.0 / ctx.superstep)
                if ctx.superstep < self.radius:
                    rows = inbox.idx[new]
                    dsts, row_map = _gather_out_edges(shard, rows)
                    out.out_dst = dsts
                    out.out_key = inbox.key[new][row_map]
                    out.out_val = np.ones(len(dsts), np.int64)
                    out.sent = len(dsts)
        out.halted = active.copy()
        return out


class HyperBall(VertexProgram):
    """HyperBall (Boldi & Vigna, "HyperBall: a system for computing the
    neighborhood function") re-expressed as a vertex program: every vertex
    holds a dense HLL counter of its in-ball-so-far; one superstep unions
    each counter into its out-neighbors' counters (elementwise register
    max = the `max_by_key` combiner, commutative/associative, so producer
    combining and delivery order cannot change the result). Only registers
    that INCREASED are forwarded (the standard changed-counter
    optimization); a vertex with no register growth stays halted until a
    message reactivates it, so the run terminates at the (effective)
    radius cap or when every ball is stable.

    `aggr_history[t]["nf_delta"]` sums per-vertex estimate growth, so the
    cumulative sum is the neighborhood-function estimate N_hat(t) =
    sum_v |ball(v, t)|_est (telescoping; N_hat(0) = superstep 0's delta).
    Per-vertex state is the (n, 2^p) uint8 register matrix — vector-valued
    vertex values, checkpointed as a fixed-size-list column (resume-safe
    with NO extra state, unlike `NeighborhoodExact`).

    At 10^12 vertices this is THE neighborhood-function shape: counters
    are fixed 2^p bytes per vertex, messages are (dst, register, value)
    triples pre-combined per partition pair — volume O(changed registers),
    never O(pairs)."""

    name = "hyperball"
    combiner = "max_by_key"

    def __init__(self, p: int = 6, radius: int = 8, source_mod: int | None = None):
        from graphlite_ray.functions.sketches import (  # noqa: PLC0415
            estimate_registers,
            init_registers,
        )

        self.p = int(p)
        self.m = 1 << self.p
        self.radius = int(radius)
        self.max_supersteps = self.radius + 1
        self.source_mod = source_mod
        self.aggr_schema = 1  # see NeighborhoodExact
        self._init_registers = init_registers
        self._estimate = estimate_registers

    def aggregators(self):
        return {"nf_delta": AggregatorSpec(init=0.0, op="sum"), "hist": _hist_aggr()}

    _emit_hist = NeighborhoodExact._emit_hist

    def init_values(self, shard):
        regs = self._init_registers(shard.vids, self.p)
        if self.source_mod is not None:
            regs[shard.vids % self.source_mod != 0] = 0  # empty counter
        return regs

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut(aggr={"nf_delta": 0.0})
        if ctx.superstep == 0:
            out.aggr["nf_delta"] = float(self._estimate(values).sum())
            rows, keys = np.nonzero(values)  # one register per source vertex
            if len(rows):
                dsts, row_map = _gather_out_edges(shard, rows)
                out.out_dst = dsts
                out.out_key = keys[row_map].astype(np.int64)
                out.out_val = values[rows, keys][row_map].astype(np.int64)
                out.sent = len(dsts)
            out.halted = active.copy()
            self._emit_hist(out, ctx, out.aggr["nf_delta"])
            return out
        if not inbox.empty:
            cur = values[inbox.idx, inbox.key]
            inc = inbox.val > cur
            if inc.any():
                touched = np.unique(inbox.idx[inc])
                before = self._estimate(values[touched]).sum()
                values[inbox.idx[inc], inbox.key[inc]] = inbox.val[inc]
                after = self._estimate(values[touched]).sum()
                out.aggr["nf_delta"] = float(after - before)
                if ctx.superstep < self.radius:
                    rows = inbox.idx[inc]
                    dsts, row_map = _gather_out_edges(shard, rows)
                    out.out_dst = dsts
                    out.out_key = inbox.key[inc][row_map]
                    out.out_val = inbox.val[inc][row_map].astype(np.int64)
                    out.sent = len(dsts)
        out.halted = active.copy()
        self._emit_hist(out, ctx, out.aggr["nf_delta"])
        return out


class RandomWalks(VertexProgram):
    """Deterministic seeded random walks (node2vec/DeepWalk-style corpus
    sampling over the link graph): walk `w` starts at `seeds[w]`; at step
    `s` a walk sitting on vertex `v` moves to the `H(w, s, v) % deg(v)`-th
    out-neighbor in DST-ASCENDING order (parallel edges keep multiset
    multiplicity — duplicates share a dst, so tie order is irrelevant) and
    stops at a dead end or after `length` steps.

    H is an SQL-replicable 32-bit mixer (Knuth multiplicative constants):
      H = ((w*1000003 + s) % 2^32 * 2654435761 + (v % 2^32) * 40503) % 2^32
    so a DuckDB recursive CTE replays every hop choice exactly.

    Walks travel as combiner="none" messages whose payload is the walk id
    (small ints — exact in the float64 message lane). The visit trace
    surfaces through a HISTORY-BEARING `visits` aggregator (same k -> k+1
    carry pattern as `_hist_aggr`): every partition emits its own
    superstep's (walk_id, step, vertex) triples and partition 0 re-emits
    the accumulated past from `aggr_global`, so the FINAL aggregator value
    is the whole trace and it rides every checkpoint manifest — resuming a
    completed run (the engine's early return keeps only the final
    aggregator state) still reconstructs the full trace. Fine while the
    total trace fits a manifest (millions of walks at 100 TB should swap
    the aggregator for a per-partition parquet trace sink — the engine's
    values() output path; documented trade-off, not a scale wall for the
    hop mechanics, which stay O(walks) messages per superstep on the
    resident CSR).

    CSR neighbor blocks are src-grouped but NOT dst-sorted; each partition
    actor lexsorts its own neighbor blocks ONCE (cached on the program
    copy, analog of a per-worker index build in __init__)."""

    name = "random_walks"
    combiner = "none"

    def __init__(self, seeds: "list[int]", length: int = 10):
        self.seeds = [int(s) for s in seeds]
        self.length = int(length)
        self.max_supersteps = self.length + 2
        # aggregator-schema version: folded into config_hash so manifests
        # written with the per-superstep (non-history-bearing) visits
        # aggregator are never resumed from
        self.aggr_schema = 2
        self._sorted_indices: Optional[np.ndarray] = None

    def aggregators(self):
        return {
            "visits": AggregatorSpec(
                init=[],
                op="sum",  # list concat: a + b
                encode=lambda v: [[int(w), int(s), int(x)] for w, s, x in v],
                decode=lambda v: [(int(w), int(s), int(x)) for w, s, x in v],
            )
        }

    def init_values(self, shard):
        return np.zeros(shard.n)

    def _nbrs(self, shard: CSRShard) -> np.ndarray:
        if self._sorted_indices is None:
            if shard.nnz:
                order = np.lexsort((shard.indices, shard.edge_src_local))
                self._sorted_indices = shard.indices[order]
            else:
                self._sorted_indices = shard.indices
        return self._sorted_indices

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        s = ctx.superstep
        if s == 0:
            seeds = np.asarray(self.seeds, np.int64)
            mine = (seeds % np.int64(ctx.P)) == np.int64(shard.part_id)
            w_arr = np.flatnonzero(mine).astype(np.int64)
            rows = (
                shard.local_index(seeds[mine]) if mine.any() else np.empty(0, np.int64)
            )
        elif not inbox.empty:
            w_arr = inbox.val.astype(np.int64)
            rows = inbox.idx
        else:
            w_arr = rows = np.empty(0, np.int64)

        vids = shard.vids[rows] if len(rows) else np.empty(0, np.int64)
        trace = [(int(w), s, int(v)) for w, v in zip(w_arr.tolist(), vids.tolist())]
        if ctx.part_id == 0:  # carry the accumulated past forward (k -> k+1)
            trace = list(ctx.aggr_global.get("visits", [])) + trace
        out.aggr = {"visits": trace}

        if len(rows) and s < self.length and shard.nnz:
            deg = shard.indptr[rows + 1] - shard.indptr[rows]
            m = deg > 0
            if m.any():
                r, w, d = rows[m], w_arr[m].astype(np.uint64), deg[m].astype(np.uint64)
                v32 = shard.vids[r].astype(np.uint64) % np.uint64(2**32)
                h = (
                    (w * np.uint64(1000003) + np.uint64(s)) % np.uint64(2**32)
                    * np.uint64(2654435761)
                    + v32 * np.uint64(40503)
                ) % np.uint64(2**32)
                pos = shard.indptr[r] + (h % d).astype(np.int64)
                out.out_dst = self._nbrs(shard)[pos]
                out.out_val = w_arr[m].astype(np.float64)
                out.out_src = shard.vids[r]
                out.sent = len(pos)
        out.halted = active.copy()
        return out


class StronglyConnectedComponents(VertexProgram):
    """SCC decomposition by the distributed coloring algorithm (Orzan's
    coloring / FW-BW-Trim family — the standard Pregel-style parallel SCC
    for web graphs), phased per round over the unassigned subgraph:

      TRIM    unassigned vertices with live in-degree 0 or out-degree 0
              are singleton SCCs; assignment notifies neighbors to
              decrement their live degrees (cascades).
      COLOR   color := own id, then propagate MAX color along FORWARD
              edges to fixpoint: color(v) = max id that reaches v within
              the unassigned subgraph.
      DETECT  every root (color == own id) starts a BACKWARD wavefront
              that travels only through same-color vertices; every vertex
              reached is in the root's SCC (correctness: any vertex on a
              path u ->* root inside the root's color class has exactly
              that color, else the root's own color would exceed itself).
      repeat TRIM/COLOR/DETECT on the shrinking unassigned set; >= 1 root
      per round guarantees progress. scc_id = the root's vertex id = the
      MAX member id (SQL-replicable).

    All three phases live in ONE vertex program: the CSR is built over the
    direction-tagged edge multiset (`scc_tagged_edges`, same trick as
    HITS: forward tag 1 / reverse tag 2), phase transitions are driven by
    the `act` aggregator's k -> k+1 visibility (a phase advances exactly
    when its previous superstep did no work, so no messages are in flight
    across a transition), and `master_halt` fires when the `left`
    (unassigned) aggregator hits 0. Messages are raw (combiner="none"),
    int64-exact: >= 0 carries a color, -1/-2 carry live-degree decrements
    (valid in any phase). Per-partition color/degree arrays ride
    `extra_state`, so checkpoint/resume restores mid-run exactly."""

    name = "scc"
    value_dtype = np.dtype(np.int64)
    combiner = "none"

    FWD, REV = 1.0, 2.0
    BOOT, TRIM, COLOR_INIT, COLOR, DETECT_INIT, DETECT = 0, 1, 2, 3, 4, 5

    def __init__(self) -> None:
        self._color: Optional[np.ndarray] = None
        self._indeg: Optional[np.ndarray] = None
        self._outdeg: Optional[np.ndarray] = None
        self._fwd: Optional[np.ndarray] = None  # static per-shard edge tag

    def aggregators(self):
        return {
            "phase": AggregatorSpec(init=0, op="max"),
            "act": AggregatorSpec(init=0, op="sum"),
            "left": AggregatorSpec(init=0, op="sum"),
        }

    def init_values(self, shard):
        return np.full(shard.n, -1, np.int64)  # -1 = unassigned

    def extra_state(self):
        if self._color is None:
            return None
        return {"c": self._color, "i": self._indeg, "o": self._outdeg}

    def load_extra(self, state):
        self._color = state["c"].astype(np.int64)
        self._indeg = state["i"].astype(np.int64)
        self._outdeg = state["o"].astype(np.int64)

    def master_halt(self, superstep, aggr_global, totals):
        return aggr_global.get("left", 0) == 0

    @classmethod
    def _transition(cls, p_prev: int, act_prev: int) -> int:
        if p_prev == cls.BOOT:
            return cls.TRIM
        if p_prev == cls.TRIM:
            return cls.TRIM if act_prev else cls.COLOR_INIT
        if p_prev == cls.COLOR_INIT:
            return cls.COLOR
        if p_prev == cls.COLOR:
            return cls.COLOR if act_prev else cls.DETECT_INIT
        if p_prev == cls.DETECT_INIT:
            return cls.DETECT
        return cls.DETECT if act_prev else cls.TRIM

    # -- edge helpers over the tagged CSR --------------------------------

    def _fwd_mask(self, shard) -> np.ndarray:
        if self._fwd is None:
            if shard.edge_weights is None:
                raise ValueError(
                    "scc requires the direction-tagged edge build "
                    "(weight 1=forward, 2=reverse); see scc_tagged_edges()"
                )
            self._fwd = shard.edge_weights == self.FWD
        return self._fwd

    def _edges_of(self, shard, rows: np.ndarray, forward: bool):
        """(dst, per-edge source row) of the tag-matching out-edges of
        `rows`."""
        rowmask = np.zeros(shard.n, bool)
        rowmask[rows] = True
        fwd = self._fwd_mask(shard)
        emask = rowmask[shard.edge_src_local] & (fwd if forward else ~fwd)
        return shard.indices[emask], shard.edge_src_local[emask]

    def compute(self, ctx, shard, values, active, inbox):
        out = ComputeOut()
        if self._color is None:  # superstep 0 (or fresh actor, ss0 only)
            self._color = shard.vids.copy()
            fwd = self._fwd_mask(shard)
            self._outdeg = np.bincount(
                shard.edge_src_local[fwd], minlength=shard.n
            ).astype(np.int64)
            self._indeg = np.bincount(
                shard.edge_src_local[~fwd], minlength=shard.n
            ).astype(np.int64)

        p_prev = int(ctx.aggr_global.get("phase", 0))
        act_prev = int(ctx.aggr_global.get("act", 1))
        cur = self._transition(p_prev, act_prev)
        unassigned = values < 0
        act = 0
        dsts: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        srcs: list[np.ndarray] = []

        def _send(dst, val, src_rows):
            if len(dst):
                dsts.append(dst)
                vals.append(val)
                srcs.append(shard.vids[src_rows])

        def _assign(rows: np.ndarray, scc_ids: np.ndarray, propagate: bool):
            """Assign SCC ids; notify neighbors' live degrees; optionally
            propagate the detection wavefront backward."""
            nonlocal act
            if not len(rows):
                return
            values[rows] = scc_ids
            unassigned[rows] = False
            act += len(rows)
            fdst, frow = self._edges_of(shard, rows, forward=True)
            _send(fdst, np.full(len(fdst), -1, np.int64), frow)  # their indeg--
            bdst, brow = self._edges_of(shard, rows, forward=False)
            _send(bdst, np.full(len(bdst), -2, np.int64), brow)  # their outdeg--
            if propagate:
                per_row = np.zeros(shard.n, np.int64)
                per_row[rows] = scc_ids
                _send(bdst, per_row[brow], brow)

        # 1. inbox (interpret positive payloads by the SENDING phase)
        if not inbox.empty:
            v = inbox.val.astype(np.int64)
            idx = inbox.idx
            neg1, neg2 = v == -1, v == -2
            if neg1.any():
                np.add.at(self._indeg, idx[neg1], -1)
            if neg2.any():
                np.add.at(self._outdeg, idx[neg2], -1)
            pos = v >= 0
            if pos.any() and p_prev in (self.COLOR_INIT, self.COLOR):
                incoming = np.full(shard.n, -1, np.int64)
                np.maximum.at(incoming, idx[pos], v[pos])
                upd = np.flatnonzero(unassigned & (incoming > self._color))
                if len(upd):
                    self._color[upd] = incoming[upd]
                    act += len(upd)
                    fdst, frow = self._edges_of(shard, upd, forward=True)
                    _send(fdst, self._color[frow], frow)
            elif pos.any() and p_prev in (self.DETECT_INIT, self.DETECT):
                match = pos & unassigned[idx] & (self._color[idx] == v)
                rows = np.unique(idx[match])
                _assign(rows, self._color[rows], propagate=True)

        # 2. phase entry / steady actions
        if cur == self.TRIM:
            rows = np.flatnonzero(
                unassigned & ((self._indeg == 0) | (self._outdeg == 0))
            )
            _assign(rows, shard.vids[rows], propagate=False)
        elif cur == self.COLOR_INIT:
            rows = np.flatnonzero(unassigned)
            self._color[rows] = shard.vids[rows]
            act += len(rows)
            fdst, frow = self._edges_of(shard, rows, forward=True)
            _send(fdst, self._color[frow], frow)
        elif cur == self.DETECT_INIT:
            rows = np.flatnonzero(unassigned & (self._color == shard.vids))
            _assign(rows, self._color[rows], propagate=True)

        if dsts:
            out.out_dst = np.concatenate(dsts)
            out.out_val = np.concatenate(vals)
            out.out_src = np.concatenate(srcs)
            out.sent = len(out.out_dst)
        out.aggr = {
            "phase": cur,
            "act": act,
            "left": int(unassigned.sum()),
        }
        return out


BUILTIN_PROGRAMS = {
    "pagerank": PageRank,
    "weighted_pagerank": WeightedPageRank,
    "personalized_pagerank": PersonalizedPageRank,
    "katz": KatzCentrality,
    "eigenvector": EigenvectorCentrality,
    "hits": HITS,
    "connected_components": ConnectedComponents,
    "label_propagation": LabelPropagation,
    "seeded_lpa": SeededLabelPropagation,
    "sssp": SSSP,
    "sssp_sym": SymSSSP,
    "mis": MaximalIndependentSet,
    "coloring": GreedyColoring,
    "matching": MaximalMatching,
    "betweenness": Betweenness,
    "coreness": Coreness,
    "bipartite": BipartiteCheck,
    "kcore": KCore,
    "neighborhood_exact": NeighborhoodExact,
    "harmonic_centrality": HarmonicCentrality,
    "hyperball": HyperBall,
    "random_walks": RandomWalks,
    "scc": StronglyConnectedComponents,
    "densest_subgraph": DensestSubgraph,
}
