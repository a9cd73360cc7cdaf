"""Relational operator pipelines over the TPC-H-ish test tables.

The reference engine has none of these (SURVEY.md §2.4-§2.8: no joins, no
sorts, no aggregates beyond the BSP aggregator), but a complete Ray-Data
processing engine does; each function here exercises one operator family
(filter+project, partial+final aggregate, broadcast join, sort/top-k,
distinct, windowed aggregate, sessionization, union) and is paired with an
ANSI-SQL oracle in `__ray_entry__.oracle_sql`.

Conventions: every function takes `sf_dir` and returns a Dataset / pandas
DataFrame whose COLUMN NAMES exactly match the oracle SQL aliases. Reads
prune columns; aggregations pre-combine inside `map_batches` before the
small groupby shuffle where the cardinality reduction pays for it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from graphlite_ray.functions.grouping import grouped_map_bucketed


def _read(sf_dir: str, table: str, columns=None) -> "ray.data.Dataset":
    from graphlite_ray.sources.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def q_filter_project(sf_dir: str) -> "ray.data.Dataset":
    """Vectorized filter + computed projection (revenue)."""
    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_quantity", "l_shipdate"]
    )

    def _f(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1997-01-01"))),
                pc.greater(t["l_quantity"], pa.scalar(30.0)),
            )
        )
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "l_quantity": t["l_quantity"],
                "revenue": rev,
            }
        )

    return ds.map_batches(_f, batch_format="pyarrow")


def q_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1 shape: group-aggregate with producer-side partial combine —
    each batch collapses to <=8 partial rows before the shuffle."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def _partial(t: pa.Table) -> pa.Table:
        # Arrow-native partial: filter + computed column + per-batch group
        # aggregate, all pyarrow.compute — no pandas conversion in the hot path
        t = t.filter(pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-02"))))
        t = t.append_column(
            "disc_price",
            pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"])),
        )
        g = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [
                ("l_quantity", "sum"),
                ("l_extendedprice", "sum"),
                ("disc_price", "sum"),
                ("l_quantity", "count"),
            ]
        )
        return g.rename_columns(
            [
                "l_returnflag",
                "l_linestatus",
                "sum_qty",
                "sum_base_price",
                "sum_disc_price",
                "count_order",
            ]
        )

    partials = ds.map_batches(_partial, batch_format="pyarrow")

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_returnflag": [g["l_returnflag"].iloc[0]],
                "l_linestatus": [g["l_linestatus"].iloc[0]],
                "sum_qty": [g["sum_qty"].sum()],
                "sum_base_price": [g["sum_base_price"].sum()],
                "sum_disc_price": [g["sum_disc_price"].sum()],
                "avg_qty": [g["sum_qty"].sum() / g["count_order"].sum()],
                "count_order": [int(g["count_order"].sum())],
            }
        )

    out = (
        partials.groupby(["l_returnflag", "l_linestatus"])
        .map_groups(_final, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["l_returnflag", "l_linestatus"], ignore_index=True)


def q_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """Two broadcast joins (customer, nation are the small sides: ray.put
    once, merged per batch) + partial aggregate."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).to_pandas()
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    dim = cust.merge(nation, left_on="c_nationkey", right_on="n_nationkey")[
        ["c_custkey", "n_name"]
    ]
    ref = ray.put(dim)
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    class _J:
        def __init__(self):
            self.dim = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            m = batch.merge(self.dim, left_on="o_custkey", right_on="c_custkey")
            return m.groupby("n_name", as_index=False).agg(
                revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
            )

    partials = orders.map_batches(_J, batch_format="pandas", concurrency=(1, 8))

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_name": [g["n_name"].iloc[0]],
                "revenue": [g["revenue"].sum()],
                "n_orders": [int(g["n_orders"].sum())],
            }
        )

    return (
        partials.groupby("n_name")
        .map_groups(_final, batch_format="pandas")
        .to_pandas()
        .sort_values("n_name", ignore_index=True)
    )


def q_topk_orders(sf_dir: str, k: int = 10, use_sort: bool = False) -> pd.DataFrame:
    """Top-k: per-block top-k inside map_batches + one tiny driver merge of
    <= k rows per block — no all-to-all sort to fetch k rows (the
    `_BatchTopK` shape from similarity.py). `use_sort=True` keeps the
    Ray Data distributed global sort as the §2.6 sort-operator exercise
    (same result, exchange-heavy; covered in tests)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    if use_sort:
        out = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(k)
        return out.to_pandas()

    def _block_topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t,
            sort_keys=[("o_totalprice", "descending"), ("o_orderkey", "ascending")],
        )[:k]
        return t.take(idx)

    parts = ds.map_batches(_block_topk, batch_format="pyarrow").to_pandas()
    return (
        parts.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )


def q_distinct_users(sf_dir: str, B: int = 32) -> pd.DataFrame:
    """Distinct + count per group over the events stream — two-level exact
    distinct: per-batch Arrow pre-dedup, then a bucketed shuffle on
    user_id (every user's rows land in ONE bucket, so per-bucket distinct
    counts sum exactly), then a tiny final sum over B x n_types partials.
    A hot event type never concentrates in a single group — the skew-safe
    replacement for groupby(event_type).map_groups."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def _pre(t: pa.Table) -> pa.Table:
        # per-batch pre-dedup, Arrow-native (group-by with no aggregates)
        return pa.TableGroupBy(t, ["user_id", "event_type"]).aggregate([])

    def _bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "nunique")
        )

    partials = grouped_map_bucketed(
        ds.map_batches(_pre, batch_format="pyarrow"), ["user_id"], _bucket_counts, B=B
    ).to_pandas()  # <= B x n_event_types rows
    out = partials.groupby("event_type", as_index=False)["n_users"].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values("event_type", ignore_index=True)


def _window_final_frame(g: pd.DataFrame) -> pd.DataFrame:
    """Vectorized final combine for window partials: ONE pandas groupby
    per bucket handles all its (event_type, window) keys — not a
    map_groups Python call per key (thousands of windows at scale)."""
    return g.groupby(["event_type", "window_start"], as_index=False).agg(
        n_events=("n_events", "sum"), sum_value=("sum_value", "sum")
    )


def q_hourly_windows(sf_dir: str) -> pd.DataFrame:
    """Tumbling event-time window aggregate: (event_type, hour bucket).
    Partial per-batch aggregate, bucketed shuffle on the window key,
    vectorized per-bucket final."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def _partial(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        # window_start as a STRING so the driver's value-hash is unit-proof
        # (pandas ns vs DuckDB us timestamps hash differently as raw ints)
        df["window_start"] = df["ts"].dt.floor("h").dt.strftime("%Y-%m-%d %H:%M:%S")
        return df.groupby(["event_type", "window_start"], as_index=False).agg(
            n_events=("value", "size"), sum_value=("value", "sum")
        )

    return (
        grouped_map_bucketed(
            ds.map_batches(_partial, batch_format="pyarrow"),
            ["event_type", "window_start"],
            _window_final_frame,
            B=16,
        )
        .to_pandas()
        .sort_values(["event_type", "window_start"], ignore_index=True)
        .astype({"n_events": "int64"})
    )


def q_sliding_windows(sf_dir: str) -> pd.DataFrame:
    """Sliding event-time window (2h size, 1h slide): each event belongs to
    two windows — emitted as two rows per event (flat expansion), then the
    usual partial+final aggregate."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def _expand(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        # aggregate per hour bucket FIRST, then emit each partial row under
        # both covering windows — no duplication of raw event rows
        hourly = (
            df.assign(hour=df["ts"].dt.floor("h"))
            .groupby(["event_type", "hour"], as_index=False)
            .agg(n_events=("value", "size"), sum_value=("value", "sum"))
        )
        a = hourly.rename(columns={"hour": "window_start"})
        b = a.copy()
        b["window_start"] = b["window_start"] - pd.Timedelta(hours=1)
        out = pd.concat([a, b], ignore_index=True)
        # string windows: unit-proof for the driver's value-hash
        out["window_start"] = out["window_start"].dt.strftime("%Y-%m-%d %H:%M:%S")
        return out

    return (
        grouped_map_bucketed(
            ds.map_batches(_expand, batch_format="pyarrow"),
            ["event_type", "window_start"],
            _window_final_frame,
            B=16,
        )
        .to_pandas()
        .sort_values(["event_type", "window_start"], ignore_index=True)
        .astype({"n_events": "int64"})
    )


def q_sessions(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Sessionization: per-user event stream split on >gap inactivity.
    Shuffle by user, per-group sort by ts + vectorized gap scan — the
    streaming-window pattern on a batch engine (ordering assumption: within
    a user the group holds all their events)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])
    gap = pd.Timedelta(minutes=gap_minutes)

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _sess_frame(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        brk = g.groupby("user_id")["ts"].diff() > gap
        out = (
            g.assign(brk=brk)
            .groupby("user_id", as_index=False)
            .agg(n_sessions=("brk", "sum"), n_events=("brk", "size"))
        )
        out["n_sessions"] = out["n_sessions"].astype("int64") + 1
        return out

    return (
        grouped_map_bucketed(ds, ["user_id"], _sess_frame, B=16)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )


def q_rolling_avg(sf_dir: str, window: int = 4) -> pd.DataFrame:
    """Per-user rolling average over the last `window` events ordered by
    (ts, event_id) — the per-key moving-window shape (distinct from the
    time-bucketed sliding_windows): ONE bucketed shuffle on user_id, then
    a vectorized group-aware shifted-add inside each bucket.

    The rolling sum is built as explicit left-to-right adds
    ((v + lag1) + lag2) + ... — NOT pandas.rolling (whose sliding
    subtract-add drifts) — so the float expression is bit-identical to
    the SQL replay `value + coalesce(lag(value,1),0) + ...` and the
    oracle compare is exact. Count = min(row position in group, window).
    """
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    from graphlite_ray.functions.grouping import grouped_map_bucketed
    from graphlite_ray.functions.rounding import round_half_away

    def _roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(
            drop=True
        )
        v = g["value"].to_numpy(np.float64)
        gid = g["user_id"].to_numpy()
        s = v.copy()
        cnt = np.ones(len(v), np.int64)
        for k in range(1, window):
            lagv = np.zeros_like(v)
            valid = np.zeros(len(v), bool)
            if len(v) > k:
                lagv[k:] = v[:-k]
                valid[k:] = gid[k:] == gid[:-k]
            s = s + np.where(valid, lagv, 0.0)
            cnt += valid
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "roll_avg": round_half_away(s / cnt, 6),
            }
        )

    return (
        grouped_map_bucketed(ds, ["user_id"], _roll, B=16)
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )


def q_user_set_ops(sf_dir: str, a: str = "click", b: str = "purchase") -> pd.DataFrame:
    """INTERSECT / EXCEPT set operators over per-event-type user sets:
    op='intersect' rows are users seen in BOTH event types, op='except'
    rows are users seen in `a` but never `b`. ONE bucketed shuffle on
    user_id: per-batch partial (user, saw_a, saw_b) flags (pre-combined
    inside the batch, so the shuffle carries <= 1 row per distinct user
    per block, not per event), per-bucket OR-merge, then the set-op
    classification is a vectorized mask — the general pattern for N-way
    set algebra without N shuffles."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _flags(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df = df[df["event_type"].isin([a, b])]
        if df.empty:
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "saw_a": pd.Series([], dtype=bool),
                                 "saw_b": pd.Series([], dtype=bool)})
        df["saw_a"] = df["event_type"] == a
        df["saw_b"] = df["event_type"] == b
        return df.groupby("user_id", as_index=False).agg(
            saw_a=("saw_a", "any"), saw_b=("saw_b", "any")
        )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("user_id", as_index=False).agg(
            saw_a=("saw_a", "any"), saw_b=("saw_b", "any")
        )
        inter = m[m["saw_a"] & m["saw_b"]][["user_id"]].assign(op="intersect")
        exc = m[m["saw_a"] & ~m["saw_b"]][["user_id"]].assign(op="except")
        return pd.concat([inter, exc], ignore_index=True)[["op", "user_id"]]

    return (
        grouped_map_bucketed(
            ds.map_batches(_flags, batch_format="pyarrow"), ["user_id"], _merge, B=8
        )
        .to_pandas()
        .sort_values(["op", "user_id"], ignore_index=True)
    )


def q_rollup_acctbal(sf_dir: str) -> pd.DataFrame:
    """ROLLUP subtotal aggregate (GROUP BY ROLLUP(nation, segment)) over
    customer balances: count + sum at (nation, segment), per-nation, and
    grand-total levels. Rolled-up key slots use sentinels (-1 / 'ALL' —
    TPC-H keys are non-negative and segments never equal 'ALL') instead
    of SQL NULLs so the hash compare is representation-stable.

    Scale shape: the FINEST level is the only distributed aggregation
    (per-block partials -> one bucketed sum); the coarser levels derive
    from the finest AGGREGATE — |nations x segments| rows, bounded by key
    cardinality, not data volume — so the corpus is touched once. Sums
    round to 2dp: inputs are 2-decimal currency, accumulated float error
    is ~1e-7 absolute, so both engines snap to the same cent."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment", "c_acctbal"])

    from graphlite_ray.functions.grouping import grouped_map_bucketed
    from graphlite_ray.functions.rounding import round_half_away

    keys = ["c_nationkey", "c_mktsegment"]

    def _partial(t: pa.Table) -> pd.DataFrame:
        return (
            t.to_pandas()
            .groupby(keys, as_index=False)
            .agg(n=("c_acctbal", "size"), s=("c_acctbal", "sum"))
        )

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False).agg(n=("n", "sum"), s=("s", "sum"))

    finest = grouped_map_bucketed(
        cust.map_batches(_partial, batch_format="pyarrow"), keys, _final, B=8
    ).to_pandas()

    by_nation = finest.groupby("c_nationkey", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum")
    )
    by_nation["c_mktsegment"] = "ALL"
    grand = pd.DataFrame(
        {
            "c_nationkey": [-1],
            "c_mktsegment": ["ALL"],
            "n": [finest["n"].sum()],
            "s": [finest["s"].sum()],
        }
    )
    out = pd.concat([finest, by_nation, grand], ignore_index=True)[
        ["c_nationkey", "c_mktsegment", "n", "s"]
    ]
    out["sum_bal"] = round_half_away(out.pop("s").to_numpy(np.float64), 2)
    return out.astype({"c_nationkey": "int64", "n": "int64"}).sort_values(
        keys, ignore_index=True
    )


def q_mode_per_user(sf_dir: str) -> pd.DataFrame:
    """Per-group MODE (most frequent event_type per user, ties to the
    lexicographically smallest type — the deterministic tie-break rule
    LPA uses for labels, SURVEY §7.4). Scale shape: (user, type) counts
    pre-combine per batch, ONE bucketed shuffle on user co-locates each
    user's bounded type histogram, the winner is a vectorized sort +
    keep-first."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def _partial(t: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "event_type": t["event_type"].to_pylist(),
            }
        )
        return df.groupby(["user_id", "event_type"], as_index=False).size()

    def _mode(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["user_id", "event_type"], as_index=False)["size"].sum()
        agg = agg.sort_values(
            ["user_id", "size", "event_type"],
            ascending=[True, False, True],
            kind="stable",
        )
        win = agg.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": win["user_id"].to_numpy(np.int64),
                "mode_type": win["event_type"].to_numpy(),
                "n": win["size"].to_numpy(np.int64),
            }
        )

    return (
        grouped_map_bucketed(
            ds.map_batches(_partial, batch_format="pyarrow"), ["user_id"], _mode, B=16
        )
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )


def q_sessionized_events(sf_dir: str, gap_min: int = 30) -> pd.DataFrame:
    """EVENT-LEVEL session assignment (vs `q_sessions`' per-session
    aggregates): each event gets its user's 1-based session index —
    a new session starts when the gap since the previous event exceeds
    `gap_min` minutes. One bucketed user shuffle; the index is a
    vectorized group-aware cumulative sum over integer epoch-ms gaps."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    gap_ms = gap_min * 60_000

    def _assign(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(
            drop=True
        )
        ms = g["ts"].astype("datetime64[ns]").astype("int64").to_numpy() // 1_000_000
        uid = g["user_id"].to_numpy()
        new = np.ones(len(g), np.int64)
        if len(g) > 1:
            same = uid[1:] == uid[:-1]
            new[1:] = np.where(same & ((ms[1:] - ms[:-1]) <= gap_ms), 0, 1)
        # per-user cumulative session index: global cumsum minus the
        # cumsum value just before each user's first row
        cs = np.cumsum(new)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        base = np.repeat(cs[starts] - 1, np.diff(np.r_[starts, len(g)]))
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "session_seq": cs - base,
            }
        )

    return (
        grouped_map_bucketed(ds, ["user_id"], _assign, B=16)
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )


def q_daily_dense(sf_dir: str) -> pd.DataFrame:
    """Gap-filled time-series resample: events per (event_type, day),
    DENSIFIED over the full [min_day, max_day] calendar — missing days
    appear with n = 0 (the resample→fill operator a monitoring/crawl
    pipeline needs; plain GROUP BY drops empty days silently). Days are
    integer epoch_ms//86400000 — exact, no timezone/calendar ambiguity.

    Scale shape: per-batch (type, day) partials pre-combine inside
    `map_batches`, ONE small groupby merges them (cardinality = types x
    active days, bounded); the dense grid is types x calendar days —
    output-sized, built driver-side from the bounded aggregate."""
    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def _partial(t: pa.Table) -> pd.DataFrame:
        ms = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[ns]").astype(
            "int64"
        ) // 1_000_000
        day = ms // 86_400_000
        df = pd.DataFrame(
            {"event_type": t["event_type"].to_pylist(), "day": day}
        )
        return df.groupby(["event_type", "day"], as_index=False).size()

    part = ds.map_batches(_partial, batch_format="pyarrow").to_pandas()
    agg = part.groupby(["event_type", "day"], as_index=False)["size"].sum()
    lo, hi = int(agg["day"].min()), int(agg["day"].max())
    types = sorted(agg["event_type"].unique())
    grid = pd.MultiIndex.from_product(
        [types, np.arange(lo, hi + 1, dtype=np.int64)], names=["event_type", "day"]
    ).to_frame(index=False)
    out = grid.merge(agg, on=["event_type", "day"], how="left")
    out["n"] = out.pop("size").fillna(0).astype("int64")
    return out.sort_values(["event_type", "day"], ignore_index=True)


def q_full_outer_activity(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER join family: per-user event counts against the customer
    account table on the shared id space — rows survive from BOTH
    unmatched sides (activity without an account, accounts without
    activity), with sentinel fills (0 events / -99999.0 balance — TPC-H
    balances live in [-999.99, 9999.99], so the sentinel is out of
    domain) instead of NULLs so the hash compare is
    representation-stable.

    Scale shape: the fact side pre-combines to per-key counts inside
    `map_batches`, both sides are role-tagged and co-partitioned by ONE
    bucketed shuffle on the key (the `grouped_map_bucketed` union trick
    `q_avg_nbr_degree` uses), and each bucket emits its outer merge
    locally — no driver-side key set, no second exchange."""
    ev = _read(sf_dir, "events", ["user_id"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])

    def _ev_partial(t: pa.Table) -> pd.DataFrame:
        u, c = np.unique(t["user_id"].to_numpy(zero_copy_only=False), return_counts=True)
        return pd.DataFrame(
            {"uid": u, "n": c.astype(np.int64), "acctbal": np.nan, "side": 0}
        )

    def _cust_rows(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "uid": t["c_custkey"].to_numpy(zero_copy_only=False),
                "n": 0,
                "acctbal": t["c_acctbal"].to_numpy(zero_copy_only=False),
                "side": 1,
            }
        )

    both = ev.map_batches(_ev_partial, batch_format="pyarrow").union(
        cust.map_batches(_cust_rows, batch_format="pyarrow")
    )

    def _outer(g: pd.DataFrame) -> pd.DataFrame:
        evs = (
            g[g["side"] == 0]
            .groupby("uid", as_index=False)["n"]
            .sum()
        )
        cs = g[g["side"] == 1][["uid", "acctbal"]]
        m = evs.merge(cs, on="uid", how="outer")
        m["n_events"] = m["n"].fillna(0).astype("int64")
        m["acctbal"] = m["acctbal"].fillna(-99999.0)
        return m[["uid", "n_events", "acctbal"]]

    out = grouped_map_bucketed(both, ["uid"], _outer, B=16).to_pandas()
    from graphlite_ray.functions.rounding import round_half_away

    out["acctbal"] = round_half_away(out["acctbal"].to_numpy(np.float64), 2)
    out["uid"] = out["uid"].astype("int64")
    return out.sort_values("uid", ignore_index=True)


def q_cube_acctbal(sf_dir: str) -> pd.DataFrame:
    """CUBE grouping-sets aggregate (GROUP BY CUBE(nation, segment)): the
    ROLLUP levels plus the transposed per-segment subtotal. Same sentinel
    convention and same scale shape as `q_rollup_acctbal` — the corpus is
    aggregated ONCE at the finest level (per-block partials -> one
    bucketed sum); all three coarser grouping sets derive from that
    bounded-cardinality aggregate on the driver."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment", "c_acctbal"])

    from graphlite_ray.functions.grouping import grouped_map_bucketed
    from graphlite_ray.functions.rounding import round_half_away

    keys = ["c_nationkey", "c_mktsegment"]

    def _partial(t: pa.Table) -> pd.DataFrame:
        return (
            t.to_pandas()
            .groupby(keys, as_index=False)
            .agg(n=("c_acctbal", "size"), s=("c_acctbal", "sum"))
        )

    def _final(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(keys, as_index=False).agg(n=("n", "sum"), s=("s", "sum"))

    finest = grouped_map_bucketed(
        cust.map_batches(_partial, batch_format="pyarrow"), keys, _final, B=8
    ).to_pandas()

    by_nation = finest.groupby("c_nationkey", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum")
    )
    by_nation["c_mktsegment"] = "ALL"
    by_segment = finest.groupby("c_mktsegment", as_index=False).agg(
        n=("n", "sum"), s=("s", "sum")
    )
    by_segment["c_nationkey"] = -1
    grand = pd.DataFrame(
        {
            "c_nationkey": [-1],
            "c_mktsegment": ["ALL"],
            "n": [finest["n"].sum()],
            "s": [finest["s"].sum()],
        }
    )
    out = pd.concat([finest, by_nation, by_segment, grand], ignore_index=True)[
        ["c_nationkey", "c_mktsegment", "n", "s"]
    ]
    out["sum_bal"] = round_half_away(out.pop("s").to_numpy(np.float64), 2)
    return out.astype({"c_nationkey": "int64", "n": "int64"}).sort_values(
        keys, ignore_index=True
    )


def q_customers_without_orders(
    sf_dir: str,
    max_broadcast_keys: int = 5_000_000,
    right_rows_hint: int | None = None,
) -> pd.DataFrame:
    """Anti-join (semi/anti-join operator family): customers with no
    finalized ('F') order. Strategy is size-gated on the FILTERED right
    side (its row count bounds its distinct keys): small -> distinct keys
    broadcast once, each batch filters locally (no shuffle); fact-sized ->
    the bucketed anti-join (`joins.anti_join_bucketed`) so the driver never
    materializes it. Pass `right_rows_hint` (e.g. from table stats) to
    skip the gate's counting pass."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])
    final = orders.map_batches(
        lambda t: t.filter(pc.equal(t["o_orderstatus"], pa.scalar("F"))).select(
            ["o_custkey"]
        ),
        batch_format="pyarrow",
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    n_right = right_rows_hint if right_rows_hint is not None else final.count()
    if n_right <= max_broadcast_keys:
        keys = set(final.unique("o_custkey"))
        ref = ray.put(keys)

        class _Anti:
            def __init__(self):
                self.keys = ray.get(ref)

            def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
                return batch[~batch["c_custkey"].isin(self.keys)]

        out = cust.map_batches(_Anti, batch_format="pandas", concurrency=(1, 4)).to_pandas()
    else:
        import tempfile

        from graphlite_ray.pipelines.joins import anti_join_bucketed

        # the buckets are read back before the dir goes: to_pandas materializes
        with tempfile.TemporaryDirectory(prefix="glr_anti_") as tmp:
            out = anti_join_bucketed(cust, "c_custkey", final, "o_custkey", tmp, B=32).to_pandas()
    if "c_custkey" not in out.columns:  # empty result loses the schema
        out = pd.DataFrame(
            {"c_custkey": pd.Series([], dtype="int64"), "c_name": pd.Series([], dtype="str")}
        )
    return out.sort_values("c_custkey", ignore_index=True)


def q_orders_by_priority(sf_dir: str) -> pd.DataFrame:
    """Native Ray Data groupby().aggregate() path (Sum/Mean/Count)."""
    from ray.data.aggregate import Count, Mean, Sum

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    out = (
        ds.groupby("o_orderpriority")
        .aggregate(
            Sum("o_totalprice", alias_name="total_price"),
            Mean("o_totalprice", alias_name="avg_price"),
            Count(alias_name="n_orders"),
        )
        .to_pandas()
    )
    return out.sort_values("o_orderpriority", ignore_index=True)


# which path the last q_native_join_revenue call took ("native" |
# "broadcast"), and why a fallback happened — observable from bench/tests
LAST_JOIN_STRATEGY: dict = {"strategy": None, "fallback_reason": None}


def q_native_join_revenue(sf_dir: str, strategy: str = "auto") -> pd.DataFrame:
    """Ray Data's native hash join (Dataset.join), when this version ships
    it — falls back to the broadcast join otherwise. `strategy` forces a
    path: "native" raises instead of silently downgrading, "broadcast"
    skips the native attempt; "auto" records the chosen path + fallback
    reason in `LAST_JOIN_STRATEGY` so a bench run is attributable.
    Both paths aggregate (segment, sum, count) per batch AFTER the join and
    final-combine <= n_segments rows — the joined fact rows never
    materialize on the driver."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    LAST_JOIN_STRATEGY.update({"strategy": None, "fallback_reason": None})

    def _partial_seg(b: pd.DataFrame) -> pd.DataFrame:
        # per-batch partial aggregate AFTER the join: the driver only ever
        # sees <= n_segments rows per batch, never the joined fact rows
        return b.groupby("c_mktsegment", as_index=False).agg(
            revenue=("o_totalprice", "sum"), n_orders=("o_totalprice", "size")
        )

    partials = None
    if strategy in ("auto", "native") and hasattr(orders, "join"):
        try:
            joined = orders.join(
                cust, join_type="inner", num_partitions=8,
                on=("o_custkey",), right_on=("c_custkey",),
            )
            partials = joined.map_batches(_partial_seg, batch_format="pandas").to_pandas()
            LAST_JOIN_STRATEGY["strategy"] = "native"
        except Exception as e:
            if strategy == "native":
                raise
            LAST_JOIN_STRATEGY["fallback_reason"] = f"{type(e).__name__}: {e}"
            import warnings

            warnings.warn(
                f"native Dataset.join failed, falling back to broadcast: {e!r}"
            )
            partials = None
    elif strategy == "native":
        raise RuntimeError("Dataset.join not available in this Ray version")
    if partials is None:
        LAST_JOIN_STRATEGY["strategy"] = "broadcast"
        dim = cust.to_pandas()
        ref = ray.put(dim)

        class _J:
            def __init__(self):
                self.dim = ray.get(ref)

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                return _partial_seg(
                    b.merge(self.dim, left_on="o_custkey", right_on="c_custkey")
                )

        partials = orders.map_batches(
            _J, batch_format="pandas", concurrency=(1, 4)
        ).to_pandas()
    out = partials.groupby("c_mktsegment", as_index=False).agg(
        revenue=("revenue", "sum"), n_orders=("n_orders", "sum")
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("c_mktsegment", ignore_index=True)


def q_asof_join(sf_dir: str) -> pd.DataFrame:
    """AS-OF JOIN (operator Ray Data lacks — brief's canonical example):
    for every event, the user's most recent order date at-or-before the
    event time. Both sides shuffle ONCE by the same `key % B` bucket
    function; each bucket holds every key's complete rows on both sides,
    so one vectorized `pd.merge_asof` per bucket resolves all keys —
    the co-partition + per-key-sorted-merge shape that scales (no
    cross-bucket data motion, no driver state). Output value is the asof
    KEY itself (max matching date), so ties among equal-date orders
    cannot make the result nondeterministic."""
    import pyarrow as pa

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def _tag_left(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t["user_id"],
                "ts": t["ts"],
                "event_id": t["event_id"],
                "side": pa.array(np.zeros(t.num_rows, np.int8)),
            }
        )

    def _tag_right(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t["o_custkey"],
                "ts": t["o_orderdate"],
                "event_id": pa.array(np.full(t.num_rows, -1, np.int64)),
                "side": pa.array(np.ones(t.num_rows, np.int8)),
            }
        )

    both = events.map_batches(_tag_left, batch_format="pyarrow").union(
        orders.map_batches(_tag_right, batch_format="pyarrow")
    )

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _asof_frame(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["side"] == 0].sort_values("ts", kind="mergesort")
        right = g[g["side"] == 1].sort_values("ts", kind="mergesort")
        if not len(left):
            return pd.DataFrame(
                {"event_id": pd.Series([], dtype="int64"),
                 "last_order_date": pd.Series([], dtype="str")}
            )
        m = pd.merge_asof(
            left[["event_id", "ts", "k"]],
            right[["ts", "k"]].rename(columns={"ts": "order_ts"}),
            left_on="ts",
            right_on="order_ts",
            left_by="k",
            right_by="k",
            direction="backward",
        )
        m = m.dropna(subset=["order_ts"])
        return pd.DataFrame(
            {
                "event_id": m["event_id"].astype("int64"),
                "last_order_date": m["order_ts"].dt.strftime("%Y-%m-%d %H:%M:%S"),
            }
        )

    return (
        grouped_map_bucketed(both, ["k"], _asof_frame, B=16)
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )


def q_range_join_pairs(sf_dir: str, window_minutes: int = 5) -> pd.DataFrame:
    """RANGE JOIN (interval predicate, the other canonical missing-operator
    example): pairs of events of the same user where the second falls
    strictly within `window_minutes` after the first. Co-partition by user
    (one shuffle), per-bucket sort + vectorized searchsorted window sweep
    — never an all-pairs product."""
    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    gap_ns = np.int64(window_minutes * 60 * 1_000_000_000)

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _pairs_frame(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        ids = g["event_id"].to_numpy()
        ts = g["ts"].to_numpy().astype("datetime64[ns]").view(np.int64)
        users = g["user_id"].to_numpy()
        bounds = np.flatnonzero(np.concatenate(([True], users[1:] != users[:-1])))
        ends = np.concatenate((bounds[1:], [len(users)]))
        outs_a, outs_b = [], []
        for s, e in zip(bounds, ends):
            seg = ts[s:e]
            lo = np.searchsorted(seg, seg, side="right")          # first ts > ts_i
            hi = np.searchsorted(seg, seg + gap_ns, side="right")  # last ts <= ts_i+gap
            counts = np.maximum(hi - lo, 0)
            if not counts.sum():
                continue
            a_rep = np.repeat(np.arange(len(seg)), counts)
            starts = np.cumsum(counts) - counts
            b_idx = np.arange(counts.sum()) - np.repeat(starts, counts) + np.repeat(lo, counts)
            outs_a.append(ids[s:e][a_rep])
            outs_b.append(ids[s:e][b_idx])
        if not outs_a:
            return pd.DataFrame(
                {"a_id": pd.Series([], dtype="int64"), "b_id": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"a_id": np.concatenate(outs_a), "b_id": np.concatenate(outs_b)}
        )

    out = grouped_map_bucketed(events, ["user_id"], _pairs_frame, B=16).to_pandas()
    if "a_id" not in out.columns:
        out = pd.DataFrame({"a_id": pd.Series([], dtype="int64"), "b_id": pd.Series([], dtype="int64")})
    return out.sort_values(["a_id", "b_id"], ignore_index=True)


def q_event_value_percentiles(sf_dir: str) -> pd.DataFrame:
    """Per-group exact quantiles (median / p95): groups are co-located by
    the grouped shuffle and each group's quantile is one vectorized
    np.quantile. Exactness assumes a group's values fit one worker — at
    100 TB with few huge groups, swap in a mergeable sketch (t-digest)
    partial+final under the same API."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _q_frame(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("event_type")["value"].agg(
            p50=lambda v: np.quantile(v, 0.5),
            p95=lambda v: np.quantile(v, 0.95),
            n="size",
        )
        return out.reset_index().astype({"n": "int64"})

    return (
        grouped_map_bucketed(ds, ["event_type"], _q_frame, B=8)
        .to_pandas()
        .sort_values("event_type", ignore_index=True)
    )


def q_top_orders_per_priority(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Top-k per group (the ROW_NUMBER window shape): co-locate each group
    by the bucketed shuffle, one vectorized sort + head(k) per bucket."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderkey", "o_totalprice"])

    from graphlite_ray.functions.grouping import grouped_map_bucketed

    def _topk_frame(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_orderpriority", "o_totalprice", "o_orderkey"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        out = g.groupby("o_orderpriority", sort=False).head(k).copy()
        out["rnk"] = out.groupby("o_orderpriority", sort=False).cumcount() + 1
        return out

    return (
        grouped_map_bucketed(ds, ["o_orderpriority"], _topk_frame, B=8)
        .to_pandas()
        .sort_values(["o_orderpriority", "rnk"], ignore_index=True)
        .astype({"rnk": "int64"})
    )


def q_union_counts(sf_dir: str) -> pd.DataFrame:
    """Union of two sources + group count."""
    c = _read(sf_dir, "customer", ["c_name"]).map_batches(
        lambda t: pa.table({"name": t["c_name"], "side": pa.array(["customer"] * t.num_rows)}),
        batch_format="pyarrow",
    )
    s = _read(sf_dir, "supplier", ["s_name"]).map_batches(
        lambda t: pa.table({"name": t["s_name"], "side": pa.array(["supplier"] * t.num_rows)}),
        batch_format="pyarrow",
    )
    u = c.union(s)

    def _cnt(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"side": [g["side"].iloc[0]], "n": [len(g)]})

    return (
        u.groupby("side").map_groups(_cnt, batch_format="pandas").to_pandas()
        .sort_values("side", ignore_index=True)
    )


def latest_per_key(
    ds: "ray.data.Dataset",
    key_cols: list,
    order_cols: list,
    B: int = 64,
) -> "ray.data.Dataset":
    """Arg-max per group carrying the WHOLE row: for each key, the row
    with the lexicographically greatest `order_cols` (last order col must
    be unique per key for determinism — e.g. end with the row id). The
    snapshot/"keep latest crawl per url" primitive.

    Scale shape: every block first reduces to <= |keys-in-block| rows
    (vectorized sort + drop_duplicates — the map-side combiner), so the
    one bucketed shuffle moves per-block WINNERS, not the corpus; a key
    appearing in many blocks ships one row per block. No driver
    materialization, no global sort."""

    def _reduce(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            order_cols, ascending=False, kind="mergesort"
        ).drop_duplicates(key_cols, keep="first")

    partial = ds.map_batches(_reduce, batch_format="pandas")
    return grouped_map_bucketed(partial, key_cols, _reduce, B=B)


def q_latest_event_per_user(sf_dir: str) -> pd.DataFrame:
    """Latest event row per user (order: ts, then event_id as the unique
    tie-break) — the distributed argmax-per-group exemplar; oracle is the
    SQL row_number()-per-partition replay."""
    ds = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"]
    )
    return (
        latest_per_key(ds, ["user_id"], ["ts", "event_id"])
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )


def q_events_ranked(sf_dir: str) -> pd.DataFrame:
    """Global dense row numbering over the full event stream ordered by
    (value, event_id) — the distributed ORDER BY + row_number() exemplar:
    one range-partitioned `ds.sort` shuffle, then ranks from the two-pass
    block-metadata scan (`functions.scan.global_rank`); no stage holds
    more than a block. event_id (unique) tie-breaks."""
    from graphlite_ray.functions.scan import global_rank

    ds = _read(sf_dir, "events", ["event_id", "value"])
    out = global_rank(ds, ["value", "event_id"], out_col="rank")
    return (
        out.select_columns(["event_id", "rank"])
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )


def q_user_journeys(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Ordered per-key sequence collection (the distributed
    string_agg / collect_list exemplar): each user's event-type journey
    string over their FIRST `k` events in (ts, event_id) order, plus the
    untruncated event count.

      (user_id:int64, n_events:int64, journey:string)

    ONE bucketed shuffle on user_id: a user's complete history co-locates,
    the bucket sorts (user_id, ts, event_id) once and emits the head-k
    concat + full count vectorized. The deterministic first-k cap bounds
    the journey string regardless of per-user skew (a bot user with 10M
    events costs its bucket 10M fixed-width rows but a 20-element string)
    and is SQL-replayable via row_number. Oracle:
    string_agg(event_type, ',' ORDER BY ts, event_id) over rn <= k."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def _journeys(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        grp = g.groupby("user_id", sort=False)
        n = grp.size().rename("n_events")
        j = grp["event_type"].agg(lambda s: ",".join(s.iloc[:k])).rename("journey")
        out = pd.concat([n, j], axis=1).reset_index()
        return out.astype({"n_events": "int64"})

    return (
        grouped_map_bucketed(ds, ["user_id"], _journeys, B=32)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )


def q_events_pivot(sf_dir: str) -> pd.DataFrame:
    """Pivot / crosstab (the distributed conditional-aggregation
    exemplar): per-user event counts with one column per event type,

      (user_id:int64, n_click, n_error, n_purchase, n_signup, n_view)

    Column set DISCOVERED from the data (a tiny distinct over the
    dimension domain — event types are a dimension, not a scale axis),
    then: per-batch partial combine collapses each batch to its distinct
    (user, type) subtotals BEFORE the one bucketed shuffle on user_id,
    where the pivot reindexes onto the discovered columns. At 100 TB the
    exchange carries at most |users| x |types| pre-combined rows."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    types = sorted(ds.unique("event_type"))
    cols = [f"n_{t}" for t in types]

    def _partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        part = (
            df.groupby(["user_id", "event_type"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return pa.Table.from_pandas(part.astype({"n": "int64"}), preserve_index=False)

    def _pivot(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["user_id", "event_type"], sort=False)["n"].sum()
        wide = agg.unstack("event_type", fill_value=0).reindex(
            columns=types, fill_value=0
        )
        wide.columns = [f"n_{c}" for c in wide.columns]
        out = wide.reset_index()
        return out.astype({c: "int64" for c in cols})

    return (
        grouped_map_bucketed(
            ds.map_batches(_partial, batch_format="pyarrow"), ["user_id"], _pivot, B=32
        )
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )


def q_events_ntile(sf_dir: str, k: int = 10) -> pd.DataFrame:
    """NTILE(k) bucketing over the full event stream ordered by
    (value, event_id) — rides the same range-partitioned sort +
    block-metadata rank scan as `q_events_ranked`; the tile is then a
    pure per-row formula over (rank, n, k), computed vectorized with no
    further exchange. Replays SQL NTILE exactly: the first n%k tiles get
    ceil(n/k) rows, the rest floor(n/k)."""
    from graphlite_ray.functions.scan import global_rank

    ds = _read(sf_dir, "events", ["event_id", "value"])
    n = ds.count()
    ranked = global_rank(ds, ["value", "event_id"], out_col="rank")
    q, r = divmod(n, k)
    big = q + 1
    cut = r * big  # ranks <= cut live in the size-(q+1) tiles

    def _tile(t: pa.Table) -> pa.Table:
        rk = t["rank"].to_numpy(zero_copy_only=False)
        tile = np.where(
            rk <= cut,
            (rk - 1) // big + 1,
            (r + (rk - cut - 1) // max(q, 1) + 1) if q else 0,
        ).astype(np.int64)
        return pa.table(
            {"event_id": t["event_id"], "tile": tile}
        )

    return (
        ranked.map_batches(_tile, batch_format="pyarrow")
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )


def q_local_supplier_volume(
    sf_dir: str,
    region: str = "ASIA",
    date_lo: str = "1995-01-01",
    date_hi: str = "1999-01-01",
    B: int = 16,
) -> pd.DataFrame:
    """TPC-H Q5-style six-table join: revenue from lineitems where the
    supplier and the ordering customer share a nation inside `region`,
    within an order-date window.

    Strategy (the widest join chain in the repo, SURVEY.md §2.4): the two
    fact-to-fact joins — orders x customer on custkey, lineitem x orders
    on orderkey — run through the bucketed-storage hash join
    (`joins.write_bucketed` + `attach_from_bucketed`): each side shuffles
    ONCE by `key % B` and every group merges against exactly one
    co-partitioned bucket file, so neither big side is broadcast and both
    stream. The dimension chain region -> nation -> supplier collapses
    driver-side to a (s_suppkey -> s_nationkey, n_name) map (dimension
    tables; `ray.put` once, read per task). Filters are pushed to the
    reads: orders prunes to the date window before its shuffle, customer
    and supplier prune to region nations before anything moves. Revenue
    partials aggregate per batch; the final groupby sees <= 25 rows per
    block. Revenue is summed as int64 units of 1e-4 (cents times the
    percent kept, ``100 - discount%``), so the result does not depend on
    batch arrival order. The bucketed files live in a temp dir that is
    removed on return.
    """
    import shutil
    import tempfile

    from graphlite_ray.pipelines.joins import attach_from_bucketed, write_bucketed

    # dimension chain, driver-side (region/nation are tens of rows)
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    reg = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    nat = nation.merge(reg, left_on="n_regionkey", right_on="r_regionkey")
    nat = nat[nat["r_name"] == region][["n_nationkey", "n_name"]]
    region_keys = nat["n_nationkey"].to_numpy()

    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).to_pandas()
    supp = supp[supp["s_nationkey"].isin(region_keys)].merge(
        nat, left_on="s_nationkey", right_on="n_nationkey"
    )[["s_suppkey", "s_nationkey", "n_name"]]
    supp_ref = ray.put(supp)

    work = tempfile.mkdtemp(prefix="glr_q5_")
    try:
        keyset = set(int(k) for k in region_keys)

        # customer pruned to region nations, bucketed by custkey
        cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
            lambda t: t.filter(pc.is_in(t["c_nationkey"], value_set=pa.array(sorted(keyset)))),
            batch_format="pyarrow",
        )
        cust_dir = write_bucketed(cust, "c_custkey", B, f"{work}/cust")

        # orders pruned to the date window, joined to customer, re-bucketed
        lo, hi = pd.Timestamp(date_lo), pd.Timestamp(date_hi)
        orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
            lambda t: t.filter(
                pc.and_(
                    pc.greater_equal(t["o_orderdate"], pa.scalar(lo)),
                    pc.less(t["o_orderdate"], pa.scalar(hi)),
                )
            ).select(["o_orderkey", "o_custkey"]),
            batch_format="pyarrow",
        )
        ord_nat = attach_from_bucketed(orders, "o_custkey", cust_dir, B, "c_custkey")
        ord_dir = write_bucketed(
            ord_nat, "o_orderkey", B, f"{work}/orders", columns=["o_orderkey", "c_nationkey"]
        )

        # lineitem joined to (order -> customer nation), scored vs supplier nation
        li = _read(
            sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]
        )
        attached = attach_from_bucketed(li, "l_orderkey", ord_dir, B, "o_orderkey")

        class _Score:
            def __init__(self):
                self.supp = ray.get(supp_ref)

            def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
                # an empty inner-join group carries left-only columns
                empty = pd.DataFrame({"n_name": pd.Series([], dtype="string"),
                                      "units": pd.Series([], dtype="int64")})
                if batch.empty or "c_nationkey" not in batch.columns:
                    return empty
                m = batch.merge(self.supp, left_on="l_suppkey", right_on="s_suppkey")
                m = m[m["c_nationkey"] == m["s_nationkey"]]
                if m.empty:
                    return empty
                cents = np.rint(m["l_extendedprice"].to_numpy() * 100).astype(np.int64)
                pct = 100 - np.rint(m["l_discount"].to_numpy() * 100).astype(np.int64)
                m["units"] = cents * pct
                return m.groupby("n_name", as_index=False).agg(units=("units", "sum"))

        partials = attached.map_batches(_Score, batch_format="pandas", concurrency=(1, 8))

        def _final(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"n_name": [g["n_name"].iloc[0]], "units": [g["units"].sum()]})

        out = partials.groupby("n_name").map_groups(_final, batch_format="pandas").to_pandas()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "n_name" not in out.columns:
        out = pd.DataFrame({"n_name": pd.Series([], dtype="str"),
                            "units": pd.Series([], dtype="int64")})
    out["revenue"] = out.pop("units") / 10_000
    return out.sort_values(
        ["revenue", "n_name"], ascending=[False, True], ignore_index=True
    )


def q_small_quantity_revenue(
    sf_dir: str, brand: str = "Brand#13", ptype: str = "ECONOMY"
) -> pd.DataFrame:
    """TPC-H Q17-style correlated aggregate: for each qualifying part
    (brand + type filter on the `part` dimension), the revenue from
    lineitems whose quantity is below 20% of that part's average quantity.

    The correlated subquery (per-part avg over ALL that part's lineitems)
    never becomes a fact-fact join: pass 1 pre-combines per-partkey
    (sum, count) quantity partials inside `map_batches` — restricted to
    the qualifying partkeys, so partial cardinality is bounded by the
    filtered dimension — and finalizes the tiny avg map on the driver;
    pass 2 broadcasts the (partkey -> threshold) map and filters +
    pre-aggregates locally, leaving a <= |parts|-row final combine. Both
    passes prune lineitem to the three touched columns at the read.
    """
    part = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_type"]).to_pandas()
    keys = part[(part["p_brand"] == brand) & (part["p_type"] == ptype)][
        "p_partkey"
    ].to_numpy(dtype=np.int64)
    empty = pd.DataFrame(
        {
            "p_partkey": pd.Series([], dtype="int64"),
            "avg_qty": pd.Series([], dtype="float64"),
            "small_revenue": pd.Series([], dtype="float64"),
            "n_small": pd.Series([], dtype="int64"),
        }
    )
    if len(keys) == 0:
        return empty
    key_ref = ray.put(set(int(k) for k in keys))
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    class _QtyPartial:
        def __init__(self):
            self.keys = ray.get(key_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            m = batch[batch["l_partkey"].isin(self.keys)]
            return m.groupby("l_partkey", as_index=False).agg(
                s=("l_quantity", "sum"), c=("l_quantity", "size")
            )

    partials = li.map_batches(
        _QtyPartial, batch_format="pandas", concurrency=(1, 8)
    ).to_pandas()
    if partials.empty:
        return empty
    stats = partials.groupby("l_partkey", as_index=False).agg(
        s=("s", "sum"), c=("c", "sum")
    )
    stats["avg_qty"] = stats["s"] / stats["c"]
    thresh = dict(zip(stats["l_partkey"], 0.2 * stats["avg_qty"]))
    thresh_ref = ray.put(thresh)

    class _Small:
        def __init__(self):
            self.thresh = ray.get(thresh_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            t = batch["l_partkey"].map(self.thresh)
            m = batch[batch["l_quantity"] < t.fillna(-np.inf)]
            return m.groupby("l_partkey", as_index=False).agg(
                small_revenue=("l_extendedprice", "sum"),
                n_small=("l_extendedprice", "size"),
            )

    small = li.map_batches(_Small, batch_format="pandas", concurrency=(1, 8)).to_pandas()
    if small.empty:
        return empty
    out = small.groupby("l_partkey", as_index=False).agg(
        small_revenue=("small_revenue", "sum"), n_small=("n_small", "sum")
    )
    out = out.merge(stats[["l_partkey", "avg_qty"]], on="l_partkey")
    out = out.rename(columns={"l_partkey": "p_partkey"})[
        ["p_partkey", "avg_qty", "small_revenue", "n_small"]
    ]
    out["n_small"] = out["n_small"].astype("int64")
    return out.sort_values("p_partkey", ignore_index=True)


def q_event_gaps(sf_dir: str) -> pd.DataFrame:
    """Per-user inter-event gap (LAG window function): milliseconds since
    the user's previous event ordered by (ts, event_id); -1 for each
    user's first event (integer sentinel instead of NULL so the compare
    is exact). Rides the same ONE bucketed shuffle on user_id as
    `q_rolling_avg`; the lag itself is a vectorized group-aware shift —
    integer epoch-ms arithmetic, no floats."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def _gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(
            drop=True
        )
        # normalize to ns first: pandas preserves the parquet us unit, so a
        # bare astype(int64) would be us, not ns
        ms = g["ts"].astype("datetime64[ns]").astype("int64").to_numpy() // 1_000_000
        gid = g["user_id"].to_numpy()
        gap = np.full(len(g), -1, np.int64)
        if len(g) > 1:
            same = gid[1:] == gid[:-1]
            gap[1:][same] = (ms[1:] - ms[:-1])[same]
        return pd.DataFrame(
            {"event_id": g["event_id"], "user_id": g["user_id"], "gap_ms": gap}
        )

    return (
        grouped_map_bucketed(ds, ["user_id"], _gaps, B=16)
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )


FUNNEL_STAGES = ("view", "click", "purchase")


def q_event_funnel(sf_dir: str, stages=FUNNEL_STAGES) -> pd.DataFrame:
    """Ordered funnel matching: for every user, the earliest greedy
    completion of the stage sequence view -> click -> purchase. Stage k+1
    must occur STRICTLY after the matched stage-k event in (ts, event_id)
    order (event_id breaks timestamp ties deterministically — the
    reference engine's message-order-independence rule, SURVEY.md §2.12,
    applied to an event stream). Returns one row per user:
    `funnel_stage` = number of consecutive stages completed (0..3) and
    the epoch-ms of each matched event (-1 sentinel when not reached).

    Scale shape: ONE bucketed shuffle on user_id (the same
    `grouped_map_bucketed` exchange every per-user window operator here
    rides); inside a bucket the match is merge-based and vectorized —
    per stage: filter to that event type, inner-merge the previous
    stage's matched (ts, event_id) per user, tuple-compare, then
    sorted `drop_duplicates` for the per-user first survivor. No
    per-user Python loop; comparisons are integer microseconds."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def _funnel(g: pd.DataFrame) -> pd.DataFrame:
        us = g["ts"].astype("datetime64[ns]").astype("int64").to_numpy() // 1_000
        g = pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(),
                "event_type": g["event_type"].to_numpy(),
                "us": us,
                "event_id": g["event_id"].to_numpy(),
            }
        )
        users = np.unique(g["user_id"].to_numpy())
        prev = None
        matched = {}
        for etype in stages:
            rows = g[g["event_type"] == etype][["user_id", "us", "event_id"]]
            if prev is not None:
                rows = rows.merge(
                    prev.rename(columns={"us": "pus", "event_id": "pid"}),
                    on="user_id",
                )
                keep = (rows["us"] > rows["pus"]) | (
                    (rows["us"] == rows["pus"]) & (rows["event_id"] > rows["pid"])
                )
                rows = rows[keep][["user_id", "us", "event_id"]]
            rows = rows.sort_values(["us", "event_id"], kind="stable")
            rows = rows.drop_duplicates("user_id", keep="first")
            matched[etype] = rows.set_index("user_id")["us"]
            prev = rows
        out = pd.DataFrame({"user_id": users})
        cols = {}
        stage = np.zeros(len(users), np.int64)
        alive = np.ones(len(users), bool)
        for i, etype in enumerate(stages):
            m = out["user_id"].map(matched[etype])
            hit = m.notna().to_numpy() & alive
            ms = np.where(hit, m.fillna(0).to_numpy() // 1_000, -1).astype("int64")
            cols[f"{etype}_ms"] = ms
            stage += hit.astype(np.int64)
            alive = hit
        res = pd.DataFrame({"user_id": out["user_id"], "funnel_stage": stage})
        for etype in stages:
            res[f"{etype}_ms"] = cols[f"{etype}_ms"]
        return res

    return (
        grouped_map_bucketed(ds, ["user_id"], _funnel, B=16)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )


def q_retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Weekly retention-cohort matrix: users grouped by their FIRST event
    week (cohort), counted once per (cohort, week-offset) they were
    active in. Weeks are integer `epoch_ms // 1000 // 86400 // 7` — the
    same exact-integer contract the other window operators use, so the
    SQL replay is bit-exact with no calendar/timezone ambiguity.

    Scale shape: ONE bucketed shuffle on user_id; inside a bucket the
    per-user first week is a vectorized groupby-min, activity weeks
    dedup to (user, offset) rows, and — because each user lives in
    exactly ONE bucket — the per-(cohort, offset) distinct-user counts
    are already exact partials, so the final exchange is a tiny
    fixed-cardinality groupby-sum (cohorts x offsets rows), never a
    user-sized shuffle."""
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def _partial(g: pd.DataFrame) -> pd.DataFrame:
        ms = g["ts"].astype("datetime64[ns]").astype("int64").to_numpy() // 1_000_000
        wk = ms // 1000 // 86400 // 7
        df = pd.DataFrame({"user_id": g["user_id"].to_numpy(), "wk": wk})
        df["cw"] = df.groupby("user_id")["wk"].transform("min")
        df["off"] = df["wk"] - df["cw"]
        act = df[["user_id", "cw", "off"]].drop_duplicates()
        out = act.groupby(["cw", "off"], as_index=False).size()
        return out.rename(
            columns={"cw": "cohort_week", "off": "week_offset", "size": "n_users"}
        )

    part = grouped_map_bucketed(ds, ["user_id"], _partial, B=16).to_pandas()
    out = part.groupby(["cohort_week", "week_offset"], as_index=False)[
        "n_users"
    ].sum()
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_week", "week_offset"], ignore_index=True)
