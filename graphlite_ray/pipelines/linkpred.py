"""Link prediction over the simple undirected page graph: classic
common-neighbor scores (common neighbors, Jaccard, Adamic-Adar) for every
distance-2 non-edge pair.

The reference has no link-prediction surface (its scope ends at the BSP
vertex programs, `example/*.cc`); this is north-rule ground — the standard
"suggest missing links / find related hosts" analysis a Common-Crawl-scale
link-graph pipeline runs next to PageRank. The shape reuses the triangle
machinery (`pipelines/triangles.py`): wedge enumeration bucketed by the
wedge CENTER, then one bucketed shuffle on the unordered candidate pair.

Scale notes (100 TB):
  - Wedge volume is sum(deg^2) — the same quadratic hazard the triangle
    pipeline documents. `max_center_degree` caps it by SKIPPING centers
    above the cap (a hub with 10^6 neighbors contributes 10^12 wedges and
    near-zero-information predictions); dropped centers are counted in the
    returned dataset's lineage via the `dropped_centers` accessor pattern —
    here, a capped run logs the count instead of silently truncating.
  - The edge-membership anti-join and the endpoint degree lookups use the
    broadcast sorted pair/degree arrays (one `ray.put`, zero-copy view per
    task) — the triangle listing's broadcast backend, valid while the
    DISTINCT edge set fits a node (`triangles.SMALL_GRAPH_EDGES`). Beyond
    it, both lookups would become two more bucketed shuffles keyed on u
    then v, like the listing's bucketed backend; that path is not built.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from graphlite_ray.functions.grouping import grouped_map_bucketed
from graphlite_ray.pipelines.triangles import (
    _broadcast_refs,
    _canonical_simple_edges,
    _edge_mask,
    _emit_all_wedges,
    _wedge_spans,
)

logger = logging.getLogger(__name__)


def _make_wedge_emitter(max_center_degree: int | None):
    """Bucket callback over (v, n) adjacency rows grouped by center v:
    for each center emit every unordered neighbor pair with its CN credit
    (1) and Adamic-Adar credit (1/ln(deg_center)). deg(center) is exact
    within the group — ALL of v's adjacency rows co-bucket by key."""

    def _emit(g: pd.DataFrame) -> pd.DataFrame:
        v_s, n_s, starts, ends = _wedge_spans(g, ["v"], "n")
        k = ends - starts
        keep = k >= 2
        if max_center_degree is not None:
            over = keep & (k > max_center_degree)
            if over.any():
                logger.warning(
                    "link_prediction: skipped %d centers over degree cap", int(over.sum())
                )
            keep &= ~over
        k = k[keep]
        _, lo, hi = _emit_all_wedges(v_s, n_s, starts[keep], ends[keep])
        aa = np.repeat(1.0 / np.log(k.astype(np.float64)), k * (k - 1) // 2)
        # per-bucket partial combine before the pair shuffle
        key = pd.DataFrame({"lo": lo, "hi": hi, "cn": 1, "aa": aa})
        out = key.groupby(["lo", "hi"], as_index=False).agg(
            cn=("cn", "sum"), aa=("aa", "sum")
        )
        out["cn"] = out["cn"].astype("int64")
        return out

    return _emit


def _make_pair_finalizer(e_ref, d_ref, min_common: int):
    """Bucket callback over partial (lo, hi, cn, aa) rows grouped by pair:
    sum partials, drop pairs that are existing edges (exact membership in
    the broadcast sorted pair array), attach endpoint degrees for the
    Jaccard denominator."""
    cache: dict = {}

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        if "e" not in cache:
            cache["e"] = ray.get(e_ref)
            cache["d"] = ray.get(d_ref)
        e = cache["e"]
        deg_vids, deg_vals = cache["d"]
        agg = g.groupby(["lo", "hi"], as_index=False).agg(
            cn=("cn", "sum"), aa=("aa", "sum")
        )
        lo = agg["lo"].to_numpy(np.int64)
        hi = agg["hi"].to_numpy(np.int64)
        cn = agg["cn"].to_numpy(np.int64)
        keep = ~_edge_mask(e, lo, hi) & (cn >= min_common)
        lo, hi, cn = lo[keep], hi[keep], cn[keep]
        aa = agg["aa"].to_numpy(np.float64)[keep]
        du = deg_vals[np.searchsorted(deg_vids, lo)].astype(np.float64)
        dw = deg_vals[np.searchsorted(deg_vids, hi)].astype(np.float64)
        jac = cn / (du + dw - cn)  # union >= cn >= min_common >= 1: no /0
        return pd.DataFrame(
            {
                "u": lo,
                "v": hi,
                "common_neighbors": cn,
                "adamic_adar": aa,
                "jaccard": jac,
            }
        )

    return _final


def link_prediction_scores(
    edges: "ray.data.Dataset",
    B: int = 32,
    min_common: int = 1,
    max_center_degree: int | None = None,
) -> "ray.data.Dataset":
    """edges (src:int64, dst:int64) -> Dataset (u, v, common_neighbors:int64,
    adamic_adar:float64, jaccard:float64), one row per unordered NON-edge
    pair of the simple undirected graph with >= `min_common` common
    neighbors (u < v). Directions, parallel edges and self-loops are
    ignored (same canonicalization as `triangle_count`)."""
    simple = _canonical_simple_edges(edges, B)
    e_ref, d_ref = _broadcast_refs(simple)

    def _both_dirs(t: pa.Table) -> pa.Table:
        lo = t["lo"].to_numpy(zero_copy_only=False)
        hi = t["hi"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "v": np.concatenate([lo, hi]),
                "n": np.concatenate([hi, lo]),
            }
        )

    adj = simple.map_batches(_both_dirs, batch_format="pyarrow")
    wedges = grouped_map_bucketed(adj, ["v"], _make_wedge_emitter(max_center_degree), B)
    return grouped_map_bucketed(
        wedges, ["lo", "hi"], _make_pair_finalizer(e_ref, d_ref, min_common), B
    )
