"""Reference answers for the link-graph benchmark, from numpy and duckdb only.

Nothing here calls the engine: the crawl edge list comes from the page
generator's own ground truth (`expected_graph`, the list the html anchors
are rendered from), url -> vertex id is a from-scratch FNV-1a-64, and every
algorithm is a dense vectorized simulation of the same semantics as
`tests/conftest.py::{pagerank_oracle,cc_oracle,lpa_oracle}`.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pyarrow as pa

_FNV_OFFSET = 14695981039346656037
_FNV_PRIME = 1099511628211
_MASK = (1 << 64) - 1
_HASH_SEED = 42  # the id hash mixes this seed in as an 8-byte prefix


def _fnv_prefix() -> int:
    h = _FNV_OFFSET
    for shift in range(0, 64, 8):
        h = ((h ^ ((_HASH_SEED >> shift) & 0xFF)) * _FNV_PRIME) & _MASK
    return h


_PREFIX = _fnv_prefix()


def url_id(url: str) -> int:
    """url -> non-negative 63-bit vertex id: FNV-1a-64 over the UTF-8
    bytes after the seed prefix, shifted right by one bit."""
    h = _PREFIX
    for b in url.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK
    return h >> 1


def crawl_edges(url_edges: list[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """(src_url, dst_url) pairs -> (src, dst) int64 id arrays, multiplicity kept."""
    ids: dict[str, int] = {}
    src = np.empty(len(url_edges), np.int64)
    dst = np.empty(len(url_edges), np.int64)
    for i, (s, d) in enumerate(url_edges):
        a = ids.get(s)
        if a is None:
            a = ids[s] = url_id(s)
        b = ids.get(d)
        if b is None:
            b = ids[d] = url_id(d)
        src[i], dst[i] = a, b
    return src, dst


def pagerank(src: np.ndarray, dst: np.ndarray, eps: float = 1e-6, max_ss: int = 200):
    """PageRank with the engine's superstep semantics: ss0 sets 1.0, later
    supersteps set 0.15 + 0.85 * inbox until the previous superstep's total
    |delta| falls below eps (checked from ss2 on), or max_ss supersteps."""
    vids = np.unique(np.concatenate([src, dst]))
    n = len(vids)
    s = np.searchsorted(vids, src)
    d = np.searchsorted(vids, dst)
    outdeg = np.bincount(s, minlength=n)
    values = np.zeros(n)
    inbox = np.zeros(n)
    prev_delta = 0.0
    for ss in range(max_ss):
        if ss == 0:
            values[:] = 1.0
        else:
            if ss >= 2 and prev_delta < eps:
                return vids, values
            new = 0.15 + 0.85 * inbox
            prev_delta = np.abs(values - new).sum()
            values = new
        contrib = np.divide(values, outdeg, out=np.zeros(n), where=outdeg > 0)
        inbox = np.bincount(d, weights=contrib[s], minlength=n)
    return vids, values


def components(src: np.ndarray, dst: np.ndarray):
    """Weakly connected components, label = min vertex id of the component
    (min-label hooking plus pointer jumping until nothing changes)."""
    vids = np.unique(np.concatenate([src, dst]))
    s = np.searchsorted(vids, src)
    d = np.searchsorted(vids, dst)
    label = np.arange(len(vids))
    while True:
        prev = label.copy()
        m = np.minimum(label[s], label[d])
        np.minimum.at(label, s, m)
        np.minimum.at(label, d, m)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, prev):
            return vids, vids[label]


def label_propagation(src: np.ndarray, dst: np.ndarray, max_ss: int = 20):
    """Synchronous LPA on the symmetrized multigraph: each round every vertex
    takes its neighbours' most frequent label, ties to the smallest label;
    stops when a round changes nothing or after max_ss - 1 rounds."""
    vids = np.unique(np.concatenate([src, dst]))
    recv = np.searchsorted(vids, np.concatenate([dst, src]))
    send = np.searchsorted(vids, np.concatenate([src, dst]))
    labels = vids.copy()
    for _ in range(1, max_ss):
        lab = labels[send]
        order = np.lexsort((lab, recv))
        r, l = recv[order], lab[order]
        first = np.ones(len(r), bool)
        first[1:] = (r[1:] != r[:-1]) | (l[1:] != l[:-1])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, len(r)))
        r, l = r[starts], l[starts]
        best = np.lexsort((l, -cnt, r))
        r, l = r[best], l[best]
        win = np.ones(len(r), bool)
        win[1:] = r[1:] != r[:-1]
        new = labels.copy()
        new[r[win]] = l[win]
        if np.array_equal(new, labels):
            break
        labels = new
    return vids, labels


def triangles(src: np.ndarray, dst: np.ndarray) -> int:
    """Exact triangle count of the simple undirected graph (self-loops and
    parallel/reverse duplicates dropped)."""
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    pairs = np.unique(np.stack([lo[keep], hi[keep]], axis=1), axis=0)
    con = duckdb.connect()
    try:
        con.register("e", pa.table({"lo": pairs[:, 0], "hi": pairs[:, 1]}))
        return int(
            con.execute(
                "SELECT count(*) FROM e a JOIN e b ON a.hi = b.lo "
                "JOIN e c ON c.lo = a.lo AND c.hi = b.hi"
            ).fetchone()[0]
        )
    finally:
        con.close()


def pagerank_matches(vids, values, ref_vids, ref_values) -> bool:
    return bool(
        np.array_equal(vids, ref_vids) and np.allclose(values, ref_values, rtol=0.0, atol=1e-6)
    )


def labels_match(vids, values, ref_vids, ref_values) -> bool:
    return bool(np.array_equal(vids, ref_vids) and np.array_equal(values, ref_values))
