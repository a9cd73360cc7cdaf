"""Round-3 additions: scale-shaped relational paths, oracle plumbing."""

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def test_topk_per_block_matches_global_sort(ray_session):
    from graphlite_ray.pipelines.relational import q_topk_orders

    fast = q_topk_orders(SF, k=7)
    slow = q_topk_orders(SF, k=7, use_sort=True)
    pd.testing.assert_frame_equal(fast, slow)


def test_distinct_users_matches_pandas(ray_session):
    from graphlite_ray.pipelines.relational import q_distinct_users

    got = q_distinct_users(SF, B=8)
    raw = pd.read_parquet(f"{SF}/events.parquet", columns=["user_id", "event_type"])
    want = (
        raw.groupby("event_type")["user_id"]
        .nunique()
        .rename("n_users")
        .reset_index()
        .sort_values("event_type", ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        got, want.astype({"n_users": "int64"}), check_dtype=False
    )


def test_join_revenue_never_materializes_fact_rows(ray_session):
    """Both join paths must agree AND produce only per-segment rows."""
    from graphlite_ray.pipelines import relational as R

    a = R.q_native_join_revenue(SF, strategy="broadcast")
    b = R.q_native_join_revenue(SF)
    pd.testing.assert_frame_equal(
        a.round({"revenue": 6}), b.round({"revenue": 6})
    )
    assert len(a) <= 10  # segments only, never the joined fact table


def test_minhash_dedup_survives_duplicate_doc_ids(ray_session):
    """A dirty corpus with a repeated doc_id must not crash the
    distributed verify stage (slots dedup on (pair_id, role))."""
    import ray.data

    from graphlite_ray.stages.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog " * 5
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + "extra tail"},
        {"doc_id": 2, "text": base + "extra tail"},  # duplicated id
        {"doc_id": 3, "text": "completely different content entirely " * 6},
    ]
    res = minhash_dedup(ray.data.from_items(rows), threshold=0.5)
    pairs = set(map(tuple, res.pairs[["a", "b"]].to_numpy()))
    assert (1, 2) in pairs


@pytest.mark.parametrize("algo", ["pagerank", "connected_components"])
def test_routing_layouts_bit_identical(ray_session, tmp_path, algo):
    """mailbox (blocks through shared-memory files) vs per_dest (P^2
    objects, one consumer each) message routing must produce BIT-identical
    values."""
    from graphlite_ray.pipelines.linkgraph import run_on_edges

    rng = np.random.RandomState(7)
    src = rng.randint(0, 60, 400).astype(np.int64)
    dst = rng.randint(0, 60, 400).astype(np.int64)

    outs = {}
    for routing in ("mailbox", "per_dest"):
        res = run_on_edges(
            algo, src, dst, str(tmp_path / routing), P=4, routing=routing
        )
        df = (
            res.values()
            .to_pandas()
            .sort_values("vertex_id", ignore_index=True)
        )
        outs[routing] = df
    assert (
        outs["mailbox"]["vertex_id"].to_numpy()
        == outs["per_dest"]["vertex_id"].to_numpy()
    ).all()
    # bit-identical, not allclose: same blocks, same combine order per dest
    assert (
        outs["mailbox"]["value"].to_numpy() == outs["per_dest"]["value"].to_numpy()
    ).all()


def test_resolve_routing_auto(ray_session):
    from graphlite_ray.engine import resolve_routing

    assert resolve_routing("mailbox") == "mailbox"
    assert resolve_routing("per_dest") == "per_dest"
    # a single-node session -> auto picks the mailbox layout
    assert resolve_routing("auto") == "mailbox"
    with pytest.raises(ValueError, match="routing"):
        resolve_routing("grouped")


def test_per_dest_resume_midrun(ray_session, tmp_path):
    """Checkpoint/restore works identically under per_dest routing."""
    from graphlite_ray.pipelines.linkgraph import run_on_edges

    rng = np.random.RandomState(11)
    src = rng.randint(0, 40, 200).astype(np.int64)
    dst = rng.randint(0, 40, 200).astype(np.int64)
    full = run_on_edges(
        "pagerank", src, dst, str(tmp_path / "full"), P=4, routing="per_dest"
    )
    part = run_on_edges(
        "pagerank", src, dst, str(tmp_path / "part"), P=4,
        routing="per_dest", max_supersteps=5, ckpt_every=2,
    )
    assert not part.halted
    resumed = run_on_edges(
        "pagerank", src, dst, str(tmp_path / "part"), P=4,
        routing="per_dest", resume=True,
    )
    a = full.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    b = resumed.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    assert (a["value"].to_numpy() == b["value"].to_numpy()).all()


def test_formatter_roundtrip_reference_shards(ray_session, tmp_path):
    """Read the reference's OWN tinygraph input contract through the
    pluggable InputFormatter (2 hash-partitioned text shards), run
    PageRank, and write byte-compatible '%lld: %f' output lines through
    the OutputFormatter — the full ported-job seam."""
    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset
    from graphlite_ray.sources.edgelist import (
        TINYGRAPH,
        TINYGRAPH_PAGERANK,
        hash_partition_shards,
        read_edgelist,
    )
    from graphlite_ray.sources.formatters import (
        ReferenceEdgeListInput,
        read_edge_shards,
        write_formatted,
    )

    n, src, dst = read_edgelist(TINYGRAPH)
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    for w, (local_v, s, d) in enumerate(hash_partition_shards(src, dst, n, 2)):
        body = f"{local_v}\n{len(s)}\n" + "".join(
            f"{a} {b}\n" for a, b in zip(s, d)
        )
        (shard_dir / f"shard_{w}").write_text(body)

    edges = read_edge_shards(str(shard_dir), ReferenceEdgeListInput())
    assert edges.count() == 12
    res = run_on_edge_dataset("pagerank", edges, str(tmp_path / "work"), P=2)
    out_dir = tmp_path / "out"
    manifest = write_formatted(
        res.values().select_columns(["vertex_id", "value"]), str(out_dir)
    )
    lines = sorted(
        ln
        for p in out_dir.iterdir()
        for ln in p.read_text().splitlines()
    )
    want = sorted(f"{v}: {x:f}" for v, x in TINYGRAPH_PAGERANK.items())
    assert lines == want  # byte-compatible with the reference OutputFormatter
    assert manifest["n_lines"].sum() == 5


def test_input_formatter_header_mismatch_raises(ray_session, tmp_path):
    from graphlite_ray.sources.formatters import read_edge_shards

    p = tmp_path / "bad_shard"
    p.write_text("3\n5\n0 1\n1 2\n")  # declares 5 edges, has 2
    with pytest.raises(Exception, match="declares 5 edges, parsed 2"):
        read_edge_shards(str(p)).count()


def test_weighted_input_formatter(ray_session, tmp_path):
    from graphlite_ray.sources.formatters import (
        ReferenceEdgeListInput,
        read_edge_shards,
    )

    p = tmp_path / "wshard"
    p.write_text("2\n2\n0 1 0.5\n1 0 2.25\n")
    df = (
        read_edge_shards(str(p), ReferenceEdgeListInput(weighted=True))
        .to_pandas()
        .sort_values("src", ignore_index=True)
    )
    assert df["weight"].tolist() == [0.5, 2.25]


def test_exact_dedup_long_documents(ray_session):
    """bucket_ids on whole-document string keys must not degrade to a
    per-byte-position loop (pandas siphash path) — and stays correct."""
    import time

    import ray.data

    from graphlite_ray.stages.dedup import exact_dedup

    long_doc = ("lorem ipsum dolor sit amet " * 2000).strip()  # ~50 KB
    rows = [{"doc_id": i, "text": long_doc + (f" v{i % 3}")} for i in range(60)]
    t0 = time.perf_counter()
    out = exact_dedup(ray.data.from_items(rows)).to_pandas()
    elapsed = time.perf_counter() - t0
    assert sorted(out["doc_id"]) == [0, 1, 2]  # min id per distinct text
    assert elapsed < 30  # generous; the old path was minutes-scale at size


def test_props_extractor_drops_malformed_rows():
    from graphlite_ray.stages.textstats import PropsExtractor

    batch = pd.DataFrame(
        {
            "props": ['{"k": 7}', '{"nope": 1}', '{"k": "xyz"}', '{"k": -3}'],
            "value": [1.0, 2.0, 3.0, 4.0],
        }
    )
    out = PropsExtractor()(batch)
    assert out["k"].tolist() == [7, -3]
    assert out["value"].tolist() == [1.0, 4.0]


def test_hub_skew_combiner_bounds_fanin(ray_session, tmp_path):
    """Star graph (1 hub, 5000 spokes, edges both ways): producer-side
    combining must cap the hub's per-superstep fan-in at <= P combined
    rows, not 5000 raw messages — the skew-mitigation contract."""
    from graphlite_ray.pipelines.linkgraph import run_on_edges

    n = 5000
    spokes = np.arange(1, n + 1, dtype=np.int64)
    src = np.concatenate([np.zeros(n, np.int64), spokes])
    dst = np.concatenate([spokes, np.zeros(n, np.int64)])
    res = run_on_edges("pagerank", src, dst, str(tmp_path / "star"), P=4)
    assert res.halted
    # logical sends count pre-combine; DELIVERED rows are what the recv
    # counter tracks post producer-combine: the hub receives at most P
    # combined rows (+ n spokes each receiving 1), never n hub-bound rows
    steady = [m for m in res.metrics if 2 <= m["superstep"] < res.final_superstep]
    for m in steady:
        assert m["recv"] <= n + 4  # spokes + <=P combined hub rows
        assert m["sent"] == 2 * n  # logical (pre-combine) count preserved
    # sanity: hub value far above spokes
    df = res.values().to_pandas()
    hub = df.loc[df.vertex_id == 0, "value"].iloc[0]
    assert hub > 100 * df.loc[df.vertex_id != 0, "value"].max()


def test_heavy_hitters_matches_pandas(ray_session):
    import ray.data

    from graphlite_ray.stages.textstats import token_heavy_hitters

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(50)]
    rows = [
        {
            "doc_id": i,
            "text": " ".join(rng.choice(vocab, rng.randint(1, 40))),
        }
        for i in range(200)
    ]
    got = token_heavy_hitters(ray.data.from_items(rows), k=10, B=8)
    counts = {}
    for r in rows:
        for t in r["text"].lower().split():
            counts[t] = counts.get(t, 0) + 1
    want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["token"], got["n"])) == want


def test_hash_sampler_consistent_with_split(ray_session):
    """The 5% sample must be a subset of rows the splitter can reproduce —
    same hash, so sample/split decisions are mutually consistent."""
    import ray.data

    from graphlite_ray.stages.textstats import HashSampler, _SPLIT_MULT

    ids = np.arange(1000, dtype=np.int64)
    ds = ray.data.from_arrow(
        __import__("pyarrow").table({"doc_id": ids})
    )
    out = (
        ds.map_batches(
            HashSampler, fn_constructor_kwargs={"pct": 5}, batch_format="pandas",
            concurrency=(1, 2),
        )
        .to_pandas()
    )
    h = (ids.astype(np.uint64) * np.uint64(_SPLIT_MULT)) % np.uint64(1 << 32) % np.uint64(100)
    assert sorted(out["doc_id"]) == sorted(ids[h < 5])


def test_formatter_random_roundtrip(ray_session, tmp_path):
    """Random edge lists survive text-shard encode -> read_edge_shards
    decode with the edge multiset intact (property-style, 3 seeds)."""
    from graphlite_ray.sources.formatters import (
        ReferenceEdgeListInput,
        read_edge_shards,
    )

    for seed in (0, 1, 2):
        rng = np.random.RandomState(seed)
        m = rng.randint(1, 300)
        src = rng.randint(0, 10**12, m)
        dst = rng.randint(0, 10**12, m)
        d = tmp_path / f"s{seed}"
        d.mkdir()
        # split into 3 shards with headers
        for w in range(3):
            mask = np.arange(m) % 3 == w
            body = f"0\n{mask.sum()}\n" + "".join(
                f"{a} {b}\n" for a, b in zip(src[mask], dst[mask])
            )
            (d / f"shard_{w}").write_text(body)
        got = read_edge_shards(str(d), ReferenceEdgeListInput()).to_pandas()
        want = pd.DataFrame({"src": src, "dst": dst})
        got = got.sort_values(["src", "dst"], ignore_index=True)
        want = want.sort_values(["src", "dst"], ignore_index=True)
        pd.testing.assert_frame_equal(got, want)


def test_hll_accuracy_and_merge():
    from graphlite_ray.functions.sketches import HyperLogLog, mix64

    vals = np.arange(100_000, dtype=np.int64) * 7 + 13
    whole = HyperLogLog(12).add_ints(vals)
    est = whole.estimate()
    assert abs(est - 100_000) / 100_000 < 0.03  # ~1.6% std at p=12
    # merge of disjoint halves == whole (order independence)
    a = HyperLogLog(12).add_ints(vals[: 50_000])
    b = HyperLogLog(12).add_ints(vals[50_000:])
    assert a.merge(b).estimate() == est
    # duplicates don't change the estimate
    dup = HyperLogLog(12).add_ints(np.concatenate([vals, vals]))
    assert dup.estimate() == est
    # small-range regime is near-exact (linear counting)
    small = HyperLogLog(12).add_ints(np.arange(150, dtype=np.int64))
    assert abs(small.estimate() - 150) <= 3
    # round-trip through bytes
    assert HyperLogLog.from_bytes(whole.to_bytes(), 12).estimate() == est


def test_histogram_quantiles_error_bound(ray_session):
    import ray.data

    from graphlite_ray.functions.sketches import histogram_quantiles

    rng = np.random.RandomState(5)
    groups = np.repeat(["a", "b"], 20_000)
    vals = np.concatenate(
        [rng.standard_normal(20_000) * 10 + 50, rng.exponential(5, 20_000)]
    )
    import pyarrow as pa

    ds = ray.data.from_arrow(pa.table({"g": groups, "v": vals}))
    out = histogram_quantiles(ds, "g", "v", qs=(0.5, 0.95), bins=256).set_index("g")
    for g in ("a", "b"):
        v = vals[groups == g]
        width = (v.max() - v.min()) / 256
        for q, col in ((0.5, "p50_est"), (0.95, "p95_est")):
            exact = np.quantile(v, q)
            assert abs(out.loc[g, col] - exact) <= width + 1e-9, (g, q)
    assert (out["n"] == 20_000).all()


def test_approx_distinct_matches_exact_small(ray_session):
    from graphlite_ray.functions.sketches import approx_distinct_per_group
    from graphlite_ray.sources.io import read_parquet_clean

    ev = read_parquet_clean(
        "/root/testdata/sf0.01/events.parquet", columns=["event_type", "user_id"]
    )
    got = approx_distinct_per_group(ev, "event_type", "user_id", p=12)
    exact = (
        pd.read_parquet(
            "/root/testdata/sf0.01/events.parquet", columns=["event_type", "user_id"]
        )
        .groupby("event_type")["user_id"]
        .nunique()
    )
    for _, row in got.iterrows():
        assert abs(row["n_approx"] - exact[row["event_type"]]) <= max(
            3, 0.03 * exact[row["event_type"]]
        )


def test_cli_reference_output_writes_text_shards(ray_session, tmp_path):
    from graphlite_ray.cli import main
    from graphlite_ray.sources.pages import pages_path

    pages = pages_path(300, seed=42)
    out = tmp_path / "refout"
    rc = main(
        [
            "pagerank",
            "--pages", pages,
            "--work", str(tmp_path / "work"),
            "--partitions", "4",
            "--reference-output", str(out),
        ]
    )
    assert rc == 0
    lines = [
        ln
        for p in out.iterdir()
        if p.name.startswith("part-")
        for ln in p.read_text().splitlines()
    ]
    assert len(lines) > 100
    import re

    assert all(re.fullmatch(r"\d+: \d+\.\d{6}", ln) for ln in lines[:20])


def test_png_roundtrip_random_images():
    from graphlite_ray.stages.multimodal import decode_png, encode_png

    rng = np.random.RandomState(9)
    for _ in range(5):
        h, w = int(rng.randint(1, 40)), int(rng.randint(1, 40))
        img = rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8)
        assert (decode_png(encode_png(img)) == img).all()


def test_png_decode_all_filter_types():
    """Forward-filter a known image with each PNG filter per row and check
    the decoder unfilters it back exactly (independent of our encoder,
    which only emits filter 0)."""
    import struct
    import zlib

    from graphlite_ray.stages.multimodal import (
        PNG_MAGIC,
        _paeth,
        _png_chunk,
        decode_png,
    )

    rng = np.random.RandomState(4)
    h, w = 6, 7
    img = rng.randint(0, 256, size=(h, w, 3)).astype(np.uint8)
    flat = img.reshape(h, w * 3).astype(np.int16)
    raw = b""
    prior = np.zeros(w * 3, np.int16)
    for y in range(h):
        f = y % 5  # exercise filters 0..4
        row = flat[y]
        left = np.concatenate([np.zeros(3, np.int16), row[:-3]])
        pl = np.concatenate([np.zeros(3, np.int16), prior[:-3]])
        if f == 0:
            filt = row
        elif f == 1:
            filt = row - left
        elif f == 2:
            filt = row - prior
        elif f == 3:
            filt = row - (left + prior) // 2
        else:
            filt = row - _paeth(
                left.astype(np.uint8), prior.astype(np.uint8), pl.astype(np.uint8)
            ).astype(np.int16)
        raw += bytes([f]) + (filt % 256).astype(np.uint8).tobytes()
        prior = row
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    payload = (
        PNG_MAGIC
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw))
        + _png_chunk(b"IEND", b"")
    )
    assert (decode_png(payload) == img).all()


def test_png_in_media_pipeline(ray_session):
    """The synthetic media table mixes BMP, PNG and (since r4) baseline
    JPEG payloads; the decoder stage must reproduce the encode-time
    sidecar stats for ALL of them."""
    import json

    import ray.data

    from graphlite_ray.stages.multimodal import decode_images, synthetic_media_table

    table = synthetic_media_table(36)
    imgs = table[table["media_type"] == "image"]
    codecs = {json.loads(m)["codec"] for m in imgs["meta"]}
    assert codecs == {"bmp", "png", "jpeg"}
    out = (
        decode_images(ray.data.from_pandas(imgs[["media_id", "payload"]]))
        .to_pandas()
        .set_index("media_id")
    )
    for _, row in imgs.iterrows():
        meta = json.loads(row["meta"])
        got = out.loc[row["media_id"]]
        assert (got["height"], got["width"]) == (meta["h"], meta["w"])
        assert got["pixels_sum"] == meta["psum"]


def test_write_formatted_rerun_is_idempotent(ray_session, tmp_path):
    """Re-running write_formatted replaces shards instead of appending
    duplicates (stale-part cleanup + content-hash names)."""
    import ray.data

    from graphlite_ray.sources.formatters import write_formatted

    ds = ray.data.from_items(
        [{"vertex_id": i, "value": float(i)} for i in range(50)]
    )
    out = tmp_path / "o"
    write_formatted(ds, str(out))
    first = sorted(ln for p in out.iterdir() for ln in p.read_text().splitlines())
    write_formatted(ds, str(out))  # second run must not duplicate
    second = sorted(ln for p in out.iterdir() for ln in p.read_text().splitlines())
    assert first == second
    assert len(first) == 50


def test_token_oracles_survive_tab_newline_whitespace(ray_session):
    """Heavy-hitters pipeline vs its SQL oracle on a corpus with leading
    tabs/newlines — DuckDB trim() only strips spaces, so the oracle must
    tokenize via list_filter (regression for the phantom-''-token bug)."""
    import duckdb
    import ray.data

    import __ray_entry__ as entrymod
    from graphlite_ray.stages.textstats import token_heavy_hitters

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["\tfoo bar foo", "\nbar\tbaz", "  foo\n"],
        }
    )
    got = token_heavy_hitters(ray.data.from_pandas(docs), k=5)
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(entrymod.oracle_sql()["doc_heavy_hitters"]).df()
    assert list(zip(got["token"], got["n"])) == list(zip(want["token"], want["n"]))


def test_staged_edges_failure_surfaces_cause(monkeypatch):
    import __ray_entry__ as entrymod
    import graphlite_ray.pipelines.linkgraph as lg

    def _boom(*a, **k):
        raise OSError("disk on fire")

    monkeypatch.setattr(lg, "prepare_edges", _boom)
    with pytest.raises(RuntimeError, match="staging.*failed.*disk on fire"):
        entrymod._staged_edges_glob()
