"""Triangle operators as Ray Data pipelines (SURVEY.md §7.1 step 7).

The reference ships no triangle program; our documented spec: count
triangles of the SIMPLE UNDIRECTED graph (self-loops dropped, parallel and
reciprocal edges collapsed — a deliberate, documented deviation from the
parallel-edge-preserving message semantics, per SURVEY.md §2.7).

Every operator reads one triangle listing (`_Listing`): degree-ordered
edge orientation + wedge closure, the standard O(m^1.5) method:

  1. canonical undirected distinct edges (lo, hi)
  2. vertex degrees over the simple graph
  3. orient each edge from the (degree, id)-smaller endpoint `a` to the
     larger `b` — bounds every oriented out-degree by O(sqrt(m)), taming
     hub-skew wedge explosion (SURVEY.md §4 skew row)
  4. wedges: per source a, all oriented-neighbor pairs (lo, hi)
  5. a wedge closes a triangle iff (lo, hi) is an edge

Each bucket's closed triangles (a, lo, hi) go to a per-operator reduce: a
row count (`triangle_count`), credits to the three corners
(`vertex_triangle_counts`) or to the three edges (`edge_support`), or the
rows themselves (`clique4_count`).

The listing has two backends, picked from the simple-edge count:

  - up to `SMALL_GRAPH_EDGES`, the broadcast backend pulls the edge set to
    the driver once and `ray.put`s the sorted pair array and the degree
    arrays; degree lookups and closure are `searchsorted` in each task;
  - above it, the bucketed backend keeps edges off the driver: one degree
    shuffle, degree attaches as bucketed hash joins, and closure against
    edge files bucketed by the pair key, written under `work_dir`.

Both stay because the broadcast one is several times faster where it
fits: on a 20k-page crawl (72k simple edges, 4 Ray CPUs) `triangle_count`
took 0.83 s broadcast and 4.47 s bucketed.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from graphlite_ray.functions.grouping import bucket_ids, grouped_map_bucketed
from graphlite_ray.pipelines.joins import attach_from_bucketed, write_bucketed

# simple-edge count up to which the listing broadcasts the edge set
SMALL_GRAPH_EDGES = 2_000_000

PAIR_DTYPE = np.dtype([("lo", "<i8"), ("hi", "<i8")])


def _canonical_simple_edges(edges: "ray.data.Dataset", B: int = 32) -> "ray.data.Dataset":
    def _canon(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        keep = s != d  # drop self-loops
        s, d = s[keep], d[keep]
        lo = np.minimum(s, d)
        hi = np.maximum(s, d)
        # per-batch pre-dedup before the global distinct
        u = np.unique(np.stack([lo, hi], axis=1), axis=0)
        return pa.table({"lo": u[:, 0], "hi": u[:, 1]})

    def _dedup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["lo", "hi"])

    return grouped_map_bucketed(
        edges.map_batches(_canon, batch_format="pyarrow"), ["lo", "hi"], _dedup, B
    )


def _degree_counts(lo: np.ndarray, hi: np.ndarray):
    """Degree table of (lo, hi) edge arrays: (sorted vids, degrees)."""
    return np.unique(np.concatenate([lo, hi]), return_counts=True)


def _orient(lo, hi, dlo, dhi):
    """Order each pair by (degree, id): -> (smaller, larger) endpoints."""
    first = (dlo < dhi) | ((dlo == dhi) & (lo < hi))
    return np.where(first, lo, hi), np.where(first, hi, lo)


def _broadcast_refs(simple: "ray.data.Dataset"):
    """Pull the simple edge set ONCE and put the sorted structured (lo, hi)
    pair array + the degree arrays in the object store; every task reads
    them as a zero-copy plasma view. Exact membership via the sorted pair
    array (no hash-collision risk)."""
    rows = simple.to_pandas()
    lo, hi = rows["lo"].to_numpy(), rows["hi"].to_numpy()
    epairs = np.empty(len(rows), PAIR_DTYPE)
    epairs["lo"], epairs["hi"] = lo, hi
    epairs.sort(order=["lo", "hi"])
    return ray.put(epairs), ray.put(_degree_counts(lo, hi))


def _edge_mask(e: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """True where (lo, hi) is a pair of the sorted PAIR_DTYPE array `e`."""
    w = np.empty(len(lo), PAIR_DTYPE)
    w["lo"], w["hi"] = lo, hi
    pos = np.clip(np.searchsorted(e, w), 0, len(e) - 1)
    return e[pos] == w


def _wedge_spans(g: pd.DataFrame, keys: list[str], val: str):
    """Bucket frame sorted by (keys, val) -> (first key, val, starts, ends)
    of each run of equal `keys`, for vectorized wedge enumeration."""
    cols = [g[c].to_numpy() for c in (*keys, val)]
    order = np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    new = np.zeros(len(order), bool)
    new[0] = True  # bucket frames are never empty
    for c in cols[:-1]:
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    return cols[0], cols[-1], starts, np.append(starts[1:], len(order))


def _emit_all_wedges(a_s, b_s, starts, ends):
    """Fully vectorized wedge emission: for every source run of length k,
    emit all k*(k-1)/2 neighbor pairs (i<j, neighbors already dst-sorted)
    via the closed-form inversion of the flattened triangular index —
    zero per-vertex Python, exact for degrees to 2^26.

    Returns (src, lo, hi) int64 arrays."""
    k = (ends - starts).astype(np.int64)
    m = k * (k - 1) // 2
    tot = int(m.sum())
    if tot == 0:
        e = np.empty(0, np.int64)
        return e, e.copy(), e.copy()
    run_of = np.repeat(np.arange(len(k)), m)
    w = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
    kr = k[run_of]
    # i = smallest row with offset(i+1) > w, offset(i) = i*kr - i*(i+1)/2 - i
    # closed form + one integer fix-up pass for float boundary cases
    tw = 2 * kr - 1
    i = ((tw - np.sqrt(tw.astype(np.float64) ** 2 - 8 * w)) // 2).astype(np.int64)
    np.clip(i, 0, kr - 2, out=i)

    def _off(ii):
        return ii * kr - (ii * (ii + 1)) // 2

    i[w < _off(i)] -= 1
    i[w >= _off(i + 1)] += 1
    j = w - _off(i) + i + 1
    base = np.repeat(starts, m)
    return a_s[base], b_s[base + i], b_s[base + j]


def _wedges(keys: list[str], val: str):
    """Bucket callback: every pair lo < hi of `val` within each run of
    equal `keys`, as rows (a = the run's first key, lo, hi)."""

    def _emit(g: pd.DataFrame) -> pd.DataFrame:
        a, lo, hi = _emit_all_wedges(*_wedge_spans(g, keys, val))
        return pd.DataFrame({"a": a, "lo": lo, "hi": hi})

    return _emit


class _Listing:
    """Triangle listing of one canonical simple edge set. A backend
    supplies the degree table (`degrees`), the degree lookup
    (`with_degrees`) and the closure against the edge set (`closed`)."""

    def __init__(self, simple: "ray.data.Dataset", B: int):
        self.simple, self.B = simple, B

    def triangles(self, reduce) -> "ray.data.Dataset":
        """Every triangle once, as a row (a, lo, hi) with `a` its
        (degree, id)-smallest corner and lo < hi by id; `reduce(frame)`
        turns each bucket's rows into the operator's partial result."""

        def _ab(df: pd.DataFrame) -> pd.DataFrame:
            a, b = _orient(*(df[c].to_numpy() for c in ("lo", "hi", "deg_lo", "deg_hi")))
            return pd.DataFrame({"a": a, "b": b})

        oriented = self.with_degrees(self.simple, ["lo", "hi"]).map_batches(
            _ab, batch_format="pandas"
        )
        return self.closed(oriented, ["a"], _wedges(["a"], "b"), reduce)


class _BroadcastListing(_Listing):
    def __init__(self, simple: "ray.data.Dataset", B: int):
        super().__init__(simple, B)
        self.e_ref, self.d_ref = _broadcast_refs(simple)

    def degrees(self) -> "ray.data.Dataset":
        vids, deg = ray.get(self.d_ref)
        return ray.data.from_arrow(pa.table({"vid": vids, "deg": deg}))

    def with_degrees(self, ds: "ray.data.Dataset", cols: list[str]) -> "ray.data.Dataset":
        d_ref = self.d_ref

        def _attach(df: pd.DataFrame) -> pd.DataFrame:
            vids, deg = ray.get(d_ref)
            for c in cols:
                df[f"deg_{c}"] = deg[np.searchsorted(vids, df[c].to_numpy())]
            return df

        return ds.map_batches(_attach, batch_format="pandas")

    def closed(self, ds: "ray.data.Dataset", keys: list[str], emit, reduce) -> "ray.data.Dataset":
        """Group `ds` by `keys`, emit candidate pairs (lo, hi) per bucket,
        keep the edges and reduce them, all in one bucket callback."""
        e_ref = self.e_ref

        def _close(g: pd.DataFrame) -> pd.DataFrame:
            w = emit(g)
            return reduce(w[_edge_mask(ray.get(e_ref), w["lo"].to_numpy(), w["hi"].to_numpy())])

        return grouped_map_bucketed(ds, keys, _close, self.B)


class _BucketedListing(_Listing):
    def __init__(self, simple: "ray.data.Dataset", B: int, work_dir: str):
        super().__init__(simple, B)
        self.deg_dir = os.path.join(work_dir, "deg")
        self.edge_dir = os.path.join(work_dir, "cedges")
        # bucket files of another graph listed in this work_dir would
        # survive in buckets this graph leaves empty
        for d in (self.deg_dir, self.edge_dir):
            shutil.rmtree(d, ignore_errors=True)

        # arrow blocks: Ray's native sum over pandas blocks is ~20x slower
        def _partial_degrees(t: pa.Table) -> pa.Table:
            vid, deg = _degree_counts(
                t["lo"].to_numpy(zero_copy_only=False), t["hi"].to_numpy(zero_copy_only=False)
            )
            return pa.table({"vid": vid, "deg": deg})

        deg = (
            simple.map_batches(_partial_degrees, batch_format="pyarrow")
            .groupby("vid")
            .sum("deg")
            .map_batches(
                lambda t: pa.table({"vid": t["vid"], "deg": t[t.column_names[1]]}),
                batch_format="pyarrow",
            )
        )
        write_bucketed(deg, "vid", B, self.deg_dir)

        def _pair_key(df: pd.DataFrame) -> pd.DataFrame:
            return df.assign(pb=bucket_ids(df, ["lo", "hi"], B))

        write_bucketed(
            simple.map_batches(_pair_key, batch_format="pandas"),
            "pb", B, self.edge_dir, columns=["lo", "hi"],
        )

    def degrees(self) -> "ray.data.Dataset":
        return ray.data.read_parquet(self.deg_dir)

    def with_degrees(self, ds: "ray.data.Dataset", cols: list[str]) -> "ray.data.Dataset":
        for c in cols:
            ds = attach_from_bucketed(ds, c, self.deg_dir, self.B, "vid").map_batches(
                lambda df, c=c: df.rename(columns={"deg": f"deg_{c}"}).drop(columns=["vid"]),
                batch_format="pandas",
            )
        return ds

    def closed(self, ds: "ray.data.Dataset", keys: list[str], emit, reduce) -> "ray.data.Dataset":
        """Group `ds` by `keys` and emit candidate pairs (lo, hi) per
        bucket; shuffle the pairs by the pair key, merge each bucket with
        its one edge file and reduce the rows that are edges."""
        edge_dir, B = self.edge_dir, self.B

        def _close(g: pd.DataFrame) -> pd.DataFrame:
            pb = int(bucket_ids(g.head(1), ["lo", "hi"], B)[0])
            path = os.path.join(edge_dir, f"bucket_{pb}.parquet")
            if not os.path.exists(path):
                return reduce(g.iloc[0:0])
            return reduce(g.merge(pq.read_table(path).to_pandas(), on=["lo", "hi"]))

        pairs = grouped_map_bucketed(ds, keys, emit, B)
        return grouped_map_bucketed(pairs, ["lo", "hi"], _close, B)


def _listing(simple: "ray.data.Dataset", B: int, work_dir: str | None) -> _Listing:
    """The listing of a canonical simple edge set, its backend picked by
    the edge count; the bucketed backend writes under `work_dir`."""
    simple = simple.materialize()
    if simple.count() <= SMALL_GRAPH_EDGES:
        return _BroadcastListing(simple, B)
    if work_dir is None:
        raise ValueError(f"graphs over {SMALL_GRAPH_EDGES} simple edges need a work_dir")
    return _BucketedListing(simple, B, work_dir)


@contextlib.contextmanager
def _scratch_listing(edges: "ray.data.Dataset", B: int, work_dir: str | None):
    """Listing for operators that return numbers: without a `work_dir`, the
    bucketed backend writes to a temporary directory removed on exit."""
    simple = _canonical_simple_edges(edges, B).materialize()
    with contextlib.ExitStack() as stack:
        if work_dir is None and simple.count() > SMALL_GRAPH_EDGES:
            work_dir = stack.enter_context(tempfile.TemporaryDirectory(prefix="glr_tri_"))
        yield _listing(simple, B, work_dir)


def _count(m: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({"n": [len(m)]})


def _total(counts: "ray.data.Dataset") -> int:
    return int(counts.sum("n") or 0)


def _rows(m: pd.DataFrame) -> pd.DataFrame:
    return m[["a", "lo", "hi"]]


def _corner_credits(m: pd.DataFrame) -> pd.DataFrame:
    v, t = np.unique(np.concatenate([m["a"], m["lo"], m["hi"]]), return_counts=True)
    return pd.DataFrame({"v": v, "t": t, "deg": np.zeros(len(v), np.int64)})


def _edge_credits(m: pd.DataFrame) -> pd.DataFrame:
    a, lo, hi = (m[c].to_numpy() for c in ("a", "lo", "hi"))
    pairs = np.stack(
        [
            np.concatenate([np.minimum(a, lo), np.minimum(a, hi), lo]),
            np.concatenate([np.maximum(a, lo), np.maximum(a, hi), hi]),
        ],
        axis=1,
    )
    u, c = np.unique(pairs, axis=0, return_counts=True)
    return pd.DataFrame({"lo": u[:, 0], "hi": u[:, 1], "sup": c})


def _credit_sums(
    credits: "ray.data.Dataset", zeros: "ray.data.Dataset", keys: list[str], B: int
) -> "ray.data.Dataset":
    """Per-key sums of the per-bucket credit partials; `zeros` has a row
    for every key, so keys without credit appear."""

    def _sum(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False).sum().astype(np.int64)

    return grouped_map_bucketed(credits.union(zeros), keys, _sum, B)


def triangle_count(
    edges: "ray.data.Dataset",
    work_dir: str | None = None,
    B: int = 32,
) -> int:
    """edges (src:int64, dst:int64) -> exact triangle count of the simple
    undirected graph. `B` = shuffle bucket count (choose ~cluster cores)."""
    with _scratch_listing(edges, B, work_dir) as listing:
        return _total(listing.triangles(_count))


def transitivity(
    edges: "ray.data.Dataset",
    work_dir: str | None = None,
    B: int = 32,
) -> tuple[int, int, float]:
    """Global clustering coefficient of the simple undirected graph:
    C = 3 * triangles / wedges, wedges = sum over v of C(deg_v, 2)
    (open + closed), read from the listing's degree table. Returns
    (n_triangles, n_wedges, C); C = 0.0 on a wedge-less graph."""

    def _wedge_total(df: pd.DataFrame) -> pd.DataFrame:
        d = df["deg"].to_numpy(np.int64)
        return pd.DataFrame({"n": [int((d * (d - 1) // 2).sum())]})

    with _scratch_listing(edges, B, work_dir) as listing:
        T = _total(listing.triangles(_count))
        W = _total(listing.degrees().map_batches(_wedge_total, batch_format="pandas"))
    C = (3.0 * T) / W if W else 0.0
    return T, W, C


def vertex_triangle_counts(
    edges: "ray.data.Dataset",
    work_dir: str | None = None,
    B: int = 32,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (vertex_id, triangles:int64,
    clustering:float64): per-vertex triangle counts of the simple undirected
    graph and the local clustering coefficient 2t / (d(d-1)) (0 when the
    simple degree d < 2). Each triangle credits its three corners; credits
    sum per vertex in one bucketed shuffle, next to a zero row per vertex
    that carries its degree. The result reads `work_dir` lazily, so graphs
    over `SMALL_GRAPH_EDGES` simple edges need one (ValueError without)."""
    listing = _listing(_canonical_simple_edges(edges, B), B, work_dir)
    zeros = listing.degrees().map_batches(
        lambda df: pd.DataFrame(
            {
                "v": df["vid"].to_numpy(),
                "t": np.zeros(len(df), np.int64),
                "deg": df["deg"].to_numpy(),
            }
        ),
        batch_format="pandas",
    )

    def _clustering(df: pd.DataFrame) -> pd.DataFrame:
        d = df["deg"].to_numpy(np.float64)
        tri = df["t"].to_numpy(np.int64)
        denom = d * (d - 1.0)
        clust = np.divide(2.0 * tri, denom, out=np.zeros(len(d)), where=denom > 0)
        return pd.DataFrame(
            {"vertex_id": df["v"].to_numpy(), "triangles": tri, "clustering": clust}
        )

    totals = _credit_sums(listing.triangles(_corner_credits), zeros, ["v"], B)
    return totals.map_batches(_clustering, batch_format="pandas")


def edge_support(
    simple: "ray.data.Dataset",
    work_dir: str,
    B: int = 16,
) -> "ray.data.Dataset":
    """Per-edge triangle support over a canonical simple edge set (lo, hi):
    -> (lo, hi, sup), sup = number of triangles containing the edge,
    support-0 edges included. Each listed triangle (a; lo, hi) credits its
    THREE edges as canonical pairs; credits pre-aggregate per closure
    bucket and sum in one bucketed shuffle on the pair key."""
    listing = _listing(simple, B, work_dir)
    zeros = listing.simple.map_batches(
        lambda df: df[["lo", "hi"]].assign(sup=np.zeros(len(df), np.int64)),
        batch_format="pandas",
    )
    return _credit_sums(listing.triangles(_edge_credits), zeros, ["lo", "hi"], B)


def k_truss(
    edges: "ray.data.Dataset",
    k: int,
    work_dir: str,
    B: int = 16,
    max_rounds: int = 100,
) -> "ray.data.Dataset":
    """k-truss of the simple undirected graph: the maximal subgraph whose
    every edge closes >= k-2 triangles WITHIN the subgraph (k >= 3).
    Iterative peeling: per round one distributed `edge_support` pass, drop
    edges below k-2, re-stage survivors as partitioned parquet under
    `work_dir` (the resumable layout — a crashed run restarts from the last
    staged round); the driver sees only per-round counts. Returns
    (lo, hi, sup) with the FINAL within-truss support, read lazily from
    `work_dir`.

    Round count is bounded by the peeling depth (typically tens on web
    graphs); each round's cost shrinks with the surviving edge set."""
    if k < 3:
        raise ValueError("k-truss needs k >= 3")

    cur = _canonical_simple_edges(edges, B=B).materialize()
    n_cur = cur.count()
    for r in range(max_rounds):
        rdir = os.path.join(work_dir, f"round_{r}")
        sup = edge_support(cur, rdir, B=B)

        def _keep(t: pa.Table) -> pa.Table:
            s = t["sup"].to_numpy(zero_copy_only=False)
            m = s >= k - 2
            return pa.table(
                {
                    "lo": t["lo"].to_numpy(zero_copy_only=False)[m],
                    "hi": t["hi"].to_numpy(zero_copy_only=False)[m],
                    "sup": s[m],
                }
            )

        surv_dir = os.path.join(rdir, "surviving")
        # a re-run in the same work dir must not append to last run's
        # shard files (write_parquet names files per run): replace whole
        shutil.rmtree(surv_dir, ignore_errors=True)
        sup.map_batches(_keep, batch_format="pyarrow").write_parquet(surv_dir)
        surv = ray.data.read_parquet(surv_dir)
        if k == 3:
            # one pass IS the fixpoint for k=3: the dropped edges have
            # support 0, i.e. are in no triangle, so removing them cannot
            # change any surviving edge's support
            return surv
        n = surv.count()
        if n == 0:
            return surv  # empty truss, schema preserved
        if n == n_cur:
            return surv  # fixpoint: sup column is the within-truss support
        n_cur = n
        cur = surv.select_columns(["lo", "hi"])
    raise RuntimeError(f"k_truss: no fixpoint within {max_rounds} rounds")


def _edge_sample_mask(lo: np.ndarray, hi: np.ndarray, pct: int) -> np.ndarray:
    """Deterministic DOULION edge sample over the canonical pair: keep
    when ((lo%2^31)*2654435761 % 2^32 + (hi%2^31)*40503) % 2^32 % 100
    < pct — the repo's SQL-replicable Knuth-mixer family (HashSampler /
    MIS enc), intermediates bounded so the SQL side stays in BIGINT."""
    l = lo.astype(np.uint64) % np.uint64(2**31)
    h = hi.astype(np.uint64) % np.uint64(2**31)
    mix = (
        l * np.uint64(2654435761) % np.uint64(2**32) + h * np.uint64(40503)
    ) % np.uint64(2**32) % np.uint64(100)
    return mix < np.uint64(pct)


def approx_triangle_count(
    edges: "ray.data.Dataset",
    pct: int = 50,
    work_dir: str | None = None,
    B: int = 32,
) -> float:
    """DOULION (Tsourakakis 2009) approximate triangle count: sample each
    canonical simple edge independently with probability pct/100 (the
    DETERMINISTIC hash above — resumable, auditable, SQL-replayable),
    count triangles of the sampled graph with the exact machinery, scale
    by (100/pct)^3. Unbiased; variance shrinks as the count grows — the
    sibling accuracy is measured against the exact counter in bench.py.
    Cost: the wedge stage sees ~ (pct/100)^2 of the wedges — the win that
    matters on hub-heavy web graphs."""
    if not 0 < pct <= 100:
        raise ValueError("pct in (0, 100]")

    def _sample(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False)
        d = t["dst"].to_numpy(zero_copy_only=False)
        keep = s != d
        s, d = s[keep], d[keep]
        lo, hi = np.minimum(s, d), np.maximum(s, d)
        m = _edge_sample_mask(lo, hi, pct)
        return pa.table({"src": lo[m], "dst": hi[m]})

    sampled = edges.map_batches(_sample, batch_format="pyarrow")
    n = triangle_count(sampled, work_dir=work_dir, B=B)
    scale = 100.0 / pct
    return float(n) * scale * scale * scale


def clique4_count(
    edges: "ray.data.Dataset",
    work_dir: str | None = None,
    B: int = 32,
) -> int:
    """Exact 4-clique count of the simple undirected graph (kClist-style
    orientation counting; the reference engine has no subgraph operators
    at all — SURVEY.md §2.6-2.7).

    Every 4-clique {w,x,y,z} has a unique (degree, id) total order
    w<x<y<z under the listing's orientation, so it is counted exactly
    once: anchored at its π-smallest edge (w,x), with {y,z} the triangle
    third-vertices of that edge and (y,z) itself an edge. The count is
    orientation-invariant, which is why the DuckDB oracle can replay it
    with plain id-ordering.

    Steps: list every triangle (w; lo, hi) once; recover its anchor edge
    (w, x) by orienting the far pair with the listing's degree lookup;
    emit candidate pairs (y, z) per anchor with the same wedge emission
    and close them against the edge set once more. Each closed row IS one
    4-clique (distinct anchors are distinct cliques)."""

    def _anchor(df: pd.DataFrame) -> pd.DataFrame:
        x, y = _orient(*(df[c].to_numpy() for c in ("lo", "hi", "deg_lo", "deg_hi")))
        return pd.DataFrame({"w": df["a"].to_numpy(), "x": x, "y": y})

    with _scratch_listing(edges, B, work_dir) as listing:
        tris = listing.with_degrees(listing.triangles(_rows), ["lo", "hi"])
        anchored = tris.map_batches(_anchor, batch_format="pandas")
        return _total(listing.closed(anchored, ["w", "x"], _wedges(["w", "x"], "y"), _count))
