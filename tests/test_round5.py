"""Round-5 additions: distributed near-dup clustering (the r4 verdict's one
remaining 100-TB blocker), contamination scale path, BPE tokenizer stage,
model-inference exemplar stage, incremental graph update."""

import numpy as np
import pandas as pd
import pytest

import ray
import ray.data


# ------------------------------------------------ distributed clustering


def test_cluster_pairs_distributed_matches_union_find(ray_session, work_dir):
    from graphlite_ray.stages.dedup import _cluster, cluster_pairs

    rng = np.random.RandomState(3)
    a = rng.randint(0, 2000, 3000)
    b = a + rng.randint(1, 40, 3000)
    pairs = pd.DataFrame({"a": a, "b": b}).drop_duplicates(ignore_index=True)
    drv = (
        _cluster(pairs)
        .sort_values("doc_id", ignore_index=True)
        .reset_index(drop=True)
    )
    dist = cluster_pairs(pairs, driver_max=0, work_dir=work_dir).sort_values(
        "doc_id", ignore_index=True
    )
    pd.testing.assert_frame_equal(drv, dist)


def test_over_100k_candidates_cluster_instead_of_raising(ray_session, work_dir):
    """r4's minhash guard hard-raised beyond 100k candidate docs; the BSP
    clustering path must handle >100k docs-in-pairs as a sharded job."""
    from graphlite_ray.stages.dedup import cluster_pairs

    n_stars = 40_000  # 3 docs per star -> 120k candidate docs, 80k pairs
    hub = np.arange(n_stars, dtype=np.int64) * 3
    pairs = pd.DataFrame(
        {
            "a": np.concatenate([hub, hub]),
            "b": np.concatenate([hub + 1, hub + 2]),
        }
    )
    out = cluster_pairs(pairs, driver_max=50_000, work_dir=work_dir)
    assert len(out) == 3 * n_stars
    out = out.sort_values("doc_id", ignore_index=True)
    # every doc's rep is its star hub (= component min)
    expect = (out["doc_id"].to_numpy() // 3) * 3
    assert (out["cluster_rep"].to_numpy() == expect).all()


def test_minhash_dedup_distributed_cluster_path_identical(ray_session):
    from graphlite_ray.stages.dedup import minhash_dedup

    base = (
        "the quick brown fox jumps over the lazy dog and runs far away "
        "while the cat watches from the tall green tree near the river"
    )
    rows = []
    for i in range(30):
        rows.append({"doc_id": 2 * i, "text": f"{base} variant {i}"})
        rows.append({"doc_id": 2 * i + 1, "text": f"{base} variant {i} extra"})
    docs = ray.data.from_items(rows)
    res_drv = minhash_dedup(docs, threshold=0.6)
    res_bsp = minhash_dedup(docs, threshold=0.6, driver_cluster_max=0)
    assert len(res_drv.pairs) > 0
    pd.testing.assert_frame_equal(
        res_drv.clusters.sort_values("doc_id", ignore_index=True),
        res_bsp.clusters.sort_values("doc_id", ignore_index=True),
    )


# --------------------------------------------- contamination scale path


def _contam_corpus():
    bench_text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = [
        {"doc_id": i, "text": f"{bench_text} tail {i}" if i % 3 == 0 else f"clean document number {i} with its own fresh words entirely {i}"}
        for i in range(60)
    ]
    bench = [{"doc_id": 0, "text": bench_text}]
    return docs, bench


def test_decontaminate_bucketed_path_matches_broadcast(ray_session, work_dir):
    from graphlite_ray.stages.contamination import decontaminate

    docs_rows, bench_rows = _contam_corpus()
    docs = ray.data.from_items(docs_rows)
    bench = ray.data.from_items(bench_rows)
    kept_b = (
        decontaminate(docs, bench, threshold=0.3, k=5)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    # broadcast_drop_max=0 forces the streaming anti-join path
    kept_s = (
        decontaminate(
            docs, bench, threshold=0.3, k=5, broadcast_drop_max=0, work_dir=work_dir
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert len(kept_b) < len(docs_rows)  # something was dropped
    pd.testing.assert_frame_equal(kept_b, kept_s)


def test_bloom_scores_dominate_exact_and_bound_memory(ray_session):
    """bloom_frac >= contaminated_frac per doc (FPs only ADD hits), exact
    on the planted overlap docs at a generous m, and the broadcast bitmap
    is exactly m/8 bytes regardless of the benchmark set size."""
    from graphlite_ray.stages.contamination import (
        benchmark_shingle_hashes,
        bloom_build,
        bloom_contamination_scores,
        contamination_scores,
    )

    docs_rows, bench_rows = _contam_corpus()
    docs = ray.data.from_items(docs_rows)
    bench = ray.data.from_items(bench_rows)
    m_bits = 1 << 12
    bm = bloom_build(bench, m_bits=m_bits, n_hashes=4, k=5)
    assert bm.nbytes == m_bits // 8
    bl = (
        bloom_contamination_scores(docs, bm, m_bits, n_hashes=4, k=5)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    ex = (
        contamination_scores(docs, benchmark_shingle_hashes(bench, k=5), k=5)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert (bl["doc_id"] == ex["doc_id"]).all()
    assert (bl["bloom_frac"] >= ex["contaminated_frac"] - 1e-12).all()
    planted = ex["contaminated_frac"] > 0.3
    assert planted.any()
    # at this fill ratio the planted docs' bloom score includes every
    # true hit (supersets only)
    assert (bl.loc[planted, "bloom_frac"] >= ex.loc[planted, "contaminated_frac"]).all()


# --------------------------------------------------- BPE tokenizer stage


def test_bpe_count_matches_duckdb_replay():
    import duckdb

    from graphlite_ray.stages.bpe import BPETokenizer, bpe_count_sql_expr

    words = [
        "the", "their", "thethe", "and", "understanding", "a", "xyz",
        "hello", "world", "information", "88mph", "anan", "ananan",
        "toto", "thth", "ererer", "madder", "of", "often",
    ]
    tok = BPETokenizer()
    con = duckdb.connect()
    expr = bpe_count_sql_expr("w")
    for w in words:
        sql = con.execute(f"SELECT {expr} FROM (SELECT ? AS w)", [w]).fetchone()[0]
        assert tok._count(w) == sql, w


def test_bpe_vocab_file_roundtrip(tmp_path):
    from graphlite_ray.stages.bpe import (
        BPETokenizer,
        DEFAULT_MERGES,
        read_merges_file,
        write_merges_file,
    )

    p = write_merges_file(str(tmp_path / "merges.txt"))
    assert read_merges_file(p) == DEFAULT_MERGES
    a = BPETokenizer()
    b = BPETokenizer(merges_path=p)
    for w in ("understanding", "tokenization", "graphs"):
        assert a._count(w) == b._count(w)


def test_bpe_token_counts_pipeline(ray_session):
    from graphlite_ray.stages.bpe import bpe_token_counts, BPETokenizer

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "The quick brown fox"},
            {"doc_id": 2, "text": ""},
            {"doc_id": 3, "text": "understanding understanding"},
        ]
    )
    out = bpe_token_counts(docs).to_pandas().set_index("doc_id").sort_index()
    tok = BPETokenizer()
    assert out.loc[1, "words"] == 4
    assert out.loc[1, "bpe_tokens"] == sum(
        tok._count(w) for w in ("the", "quick", "brown", "fox")
    )
    assert out.loc[2, "words"] == 0 and out.loc[2, "bpe_tokens"] == 0
    assert out.loc[3, "bpe_tokens"] == 2 * tok._count("understanding")


# ------------------------------------------- model-inference exemplar


def test_text_embedder_deterministic_and_cached_weights(ray_session, tmp_path):
    from graphlite_ray.stages.inference import (
        TextEmbedder,
        embed_corpus,
        load_weights,
        make_weights,
        stage_weights,
    )

    p = stage_weights(str(tmp_path / "w.parquet"), dim=8, n_buckets=64, seed=7)
    W = load_weights(p)
    np.testing.assert_array_equal(W, make_weights(8, 64, 7))

    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": "hello world hello"},
            {"doc_id": 2, "text": ""},
        ]
    )
    out = embed_corpus(docs, p).to_pandas().set_index("vec_id").sort_index()
    # manual forward: sum of hashed-bucket weight rows
    from graphlite_ray.functions.hashing import hash_strings

    b = (hash_strings(["hello", "world", "hello"]) % np.uint64(64)).astype(int)
    expect = W[b].sum(axis=0)
    np.testing.assert_allclose(np.array(out.loc[1, "embedding"]), expect, rtol=0, atol=0)
    np.testing.assert_array_equal(np.array(out.loc[2, "embedding"]), np.zeros(8))


def test_embedded_corpus_feeds_emb_suite(ray_session, tmp_path):
    """Pipeline-produced embeddings run through the existing emb_* ops."""
    from graphlite_ray.stages.dedup import embedding_near_dup_exact
    from graphlite_ray.stages.inference import embed_corpus, stage_weights
    from graphlite_ray.stages.similarity import knn_bruteforce

    p = stage_weights(str(tmp_path / "w.parquet"), dim=16, n_buckets=256, seed=7)
    rows = [{"doc_id": i, "text": f"common words everywhere plus topic {i % 3}"} for i in range(30)]
    emb = embed_corpus(ray.data.from_items(rows), p)
    first = emb.take(2)
    Q = np.stack([np.array(r["embedding"]) for r in first])
    knn = knn_bruteforce(emb, Q, k=5)
    assert set(knn["query_id"]) == {0, 1} and len(knn) == 10
    # identical texts (same i%3 topic) must be exact near-dups at tau~1
    res = embedding_near_dup_exact(emb, tau=0.999999)
    same_topic = {(a, b) for a in range(30) for b in range(a + 1, 30) if a % 3 == b % 3}
    got = set(map(tuple, res.pairs[["a", "b"]].to_numpy()))
    assert same_topic <= got


# ---------------------------------------------- incremental graph update


def _shard_bytes(d):
    import hashlib, os

    out = {}
    for n in sorted(os.listdir(d)):
        if n.endswith(".parquet"):
            out[n] = hashlib.sha256(open(os.path.join(d, n), "rb").read()).hexdigest()
    return out


def _rand_edges(n, seed, weighted=False):
    rng = np.random.RandomState(seed)
    src = rng.randint(0, 400, n).astype(np.int64)
    dst = rng.randint(0, 400, n).astype(np.int64)
    cols = {"src": src, "dst": dst}
    if weighted:
        cols["weight"] = rng.rand(n)
    return pd.DataFrame(cols)


@pytest.mark.parametrize("weighted,sym", [(False, False), (True, False), (False, True), (True, True)])
def test_add_edges_merge_equals_one_shot_build(ray_session, tmp_path, weighted, sym):
    from graphlite_ray.state.csr import add_edges, build_graph_shards, load_graph_meta

    full = _rand_edges(2000, seed=1, weighted=weighted)
    half1, half2 = full.iloc[:1000], full.iloc[1000:]

    one_shot = str(tmp_path / "one")
    build_graph_shards(ray.data.from_pandas(full), 5, one_shot, symmetrize=sym)

    merged = str(tmp_path / "merged")
    build_graph_shards(ray.data.from_pandas(half1), 5, merged, symmetrize=sym)
    meta = add_edges(merged, ray.data.from_pandas(half2))

    assert _shard_bytes(one_shot) == _shard_bytes(merged)
    assert meta == load_graph_meta(one_shot)


def test_add_edges_idempotent_with_delta_id(ray_session, tmp_path):
    from graphlite_ray.state.csr import add_edges, build_graph_shards, load_graph_meta
    from graphlite_ray.state import storage

    base = _rand_edges(500, seed=2)
    delta = _rand_edges(300, seed=3)
    d = str(tmp_path / "g")
    build_graph_shards(ray.data.from_pandas(base), 4, d)
    add_edges(d, ray.data.from_pandas(delta), delta_id="snap1")
    m1 = load_graph_meta(d)
    # simulate a crash AFTER all partitions merged but BEFORE meta landed:
    # markers present -> re-run must skip every partition (no double-apply)
    for p in range(4):
        storage.write_json_atomic({"p": p}, storage.join(d, f"delta_snap1_p{p}.done"))
    add_edges(d, ray.data.from_pandas(delta), delta_id="snap1")
    assert load_graph_meta(d) == m1


def test_pagerank_identical_after_incremental_merge(ray_session, tmp_path):
    from graphlite_ray.engine import run_bsp
    from graphlite_ray.programs import PageRank
    from graphlite_ray.state.csr import add_edges, build_graph_shards

    full = _rand_edges(1500, seed=5)
    one_shot = str(tmp_path / "one")
    merged = str(tmp_path / "m")
    build_graph_shards(ray.data.from_pandas(full), 4, one_shot)
    build_graph_shards(ray.data.from_pandas(full.iloc[:700]), 4, merged)
    add_edges(merged, ray.data.from_pandas(full.iloc[700:]), delta_id="d1")

    r1 = run_bsp(PageRank(), one_shot, str(tmp_path / "c1"), max_supersteps=30)
    r2 = run_bsp(PageRank(), merged, str(tmp_path / "c2"), max_supersteps=30)
    v1 = r1.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    v2 = r2.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    pd.testing.assert_frame_equal(v1, v2)


# ------------------------------------------------ splitmix64 SQL replay


def test_splitmix64_sql_replay_bit_exact():
    import duckdb

    import __ray_entry__ as E
    from graphlite_ray.functions.sketches import mix64

    con = duckdb.connect()
    ids = np.array([0, 1, 42, 7, 123456789, 2**62 + 12345, 2**63 - 1], np.int64)
    expr = E._splitmix64_sql("x")
    for i in ids:
        got = con.execute(
            f"SELECT {expr} FROM (SELECT {int(i)}::HUGEINT AS x)"
        ).fetchone()[0]
        assert int(got) == int(mix64(np.array([i], np.int64))[0]), i


# -------------------------------------- sparse (changed-only) coreness


def _simple_graph(seed=0, n=300, m=1500):
    rng = np.random.RandomState(seed)
    src = rng.randint(0, n, m).astype(np.int64)
    dst = rng.randint(0, n, m).astype(np.int64)
    keep = src != dst
    e = np.unique(
        np.stack(
            [np.minimum(src[keep], dst[keep]), np.maximum(src[keep], dst[keep])], 1
        ),
        axis=0,
    )
    return e[:, 0], e[:, 1]


def test_coreness_sparse_matches_dense_and_cuts_messages(ray_session, work_dir):
    from graphlite_ray.pipelines.linkgraph import run_on_edges
    from graphlite_ray.programs import Coreness

    s, d = _simple_graph()
    r_s = run_on_edges(Coreness(), s, d, f"{work_dir}/s", P=4)
    r_d = run_on_edges(Coreness(dense=True), s, d, f"{work_dir}/d", P=4)
    vs = r_s.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    vd = r_d.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    pd.testing.assert_frame_equal(
        vs[["vertex_id", "value"]], vd[["vertex_id", "value"]]
    )
    # the whole point: changed-only sends move strictly less than O(E)/round
    assert r_s.total_messages < 0.7 * r_d.total_messages
    # ...and the per-round volume DROPS across the peeling rounds (the r4
    # verdict's acceptance evidence): the dense path resends O(E) every
    # round, the sparse path's tail rounds move a small fraction of ss0
    sent = [m["sent"] for m in r_s.metrics]
    assert sent[-2] < 0.3 * sent[0]  # last compute round vs the seed round


def test_coreness_sparse_cache_survives_resume(ray_session, work_dir):
    """The per-edge neighbor cache rides extra_state: stopping mid-run and
    resuming must be bit-identical to an uninterrupted run."""
    from graphlite_ray.pipelines.linkgraph import run_on_edges
    from graphlite_ray.programs import Coreness

    s, d = _simple_graph(seed=3)
    full = run_on_edges(
        Coreness(), s, d, f"{work_dir}/full", P=4, ckpt_every=1
    )
    assert full.supersteps_run > 3
    # run a fresh work dir only up to superstep 2, then resume to the end
    part = run_on_edges(
        Coreness(), s, d, f"{work_dir}/resume", P=4,
        ckpt_every=1, max_supersteps=3,
    )
    assert not part.halted
    res = run_on_edges(
        Coreness(), s, d, f"{work_dir}/resume", P=4,
        ckpt_every=1, resume=True,
    )
    v1 = full.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    v2 = res.values().to_pandas().sort_values("vertex_id", ignore_index=True)
    pd.testing.assert_frame_equal(
        v1[["vertex_id", "value"]], v2[["vertex_id", "value"]]
    )


# ------------------------------------------------ vectorized wedge emit


def test_emit_all_wedges_matches_loop():
    from graphlite_ray.pipelines.triangles import _emit_all_wedges

    rng = np.random.RandomState(1)
    a = np.repeat(np.arange(150, dtype=np.int64), rng.randint(1, 40, 150))
    b = rng.randint(0, 5000, len(a)).astype(np.int64)
    order = np.lexsort((b, a))
    a_s, b_s = a[order], b[order]
    starts = np.flatnonzero(np.concatenate(([True], a_s[1:] != a_s[:-1])))
    ends = np.concatenate((starts[1:], [len(a_s)]))
    src, lo, hi = _emit_all_wedges(a_s, b_s, starts, ends)
    srcs, los, his = [], [], []
    for s, t in zip(starts, ends):
        k = t - s
        if k < 2:
            continue
        nbrs = b_s[s:t]
        i, j = np.triu_indices(k, k=1)
        srcs.append(np.full(len(i), a_s[s]))
        los.append(nbrs[i])
        his.append(nbrs[j])
    assert np.array_equal(src, np.concatenate(srcs))
    assert np.array_equal(lo, np.concatenate(los))
    assert np.array_equal(hi, np.concatenate(his))
    # empty and singleton runs
    e0, e1, e2 = _emit_all_wedges(
        np.array([7]), np.array([9]), np.array([0]), np.array([1])
    )
    assert len(e0) == len(e1) == len(e2) == 0


# --------------------------------------------- fully streaming minhash


def test_minhash_streaming_matches_driver_path(ray_session, work_dir):
    from graphlite_ray.stages.dedup import minhash_dedup, minhash_dedup_streaming

    base = (
        "pack my box with five dozen liquor jugs while the quick onyx "
        "goblin jumps over the lazy dwarf in a bright cold morning"
    )
    rows = []
    for i in range(40):
        rows.append({"doc_id": 2 * i, "text": f"{base} tail {i}"})
        rows.append({"doc_id": 2 * i + 1, "text": f"{base} tail {i} extra"})
    docs = ray.data.from_items(rows)
    drv = minhash_dedup(docs, threshold=0.6)
    pairs_ds, clusters_ds = minhash_dedup_streaming(
        docs, work_dir, threshold=0.6
    )
    sp = pairs_ds.to_pandas().sort_values(["a", "b"], ignore_index=True)
    dp = drv.pairs.sort_values(["a", "b"], ignore_index=True)
    assert len(dp) > 0
    pd.testing.assert_frame_equal(
        sp.astype({"a": "int64", "b": "int64"}), dp, check_like=True
    )
    sc = clusters_ds.to_pandas().sort_values("doc_id", ignore_index=True)
    dc = drv.clusters.sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(sc.astype("int64"), dc)


def test_minhash_streaming_empty_corpus(ray_session, work_dir):
    from graphlite_ray.stages.dedup import minhash_dedup_streaming

    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"totally unique words {i} " + " ".join(str(i + j) for j in range(20))} for i in range(8)]
    )
    pairs_ds, clusters_ds = minhash_dedup_streaming(docs, work_dir)
    assert pairs_ds.count() == 0 and clusters_ds.count() == 0


def test_representatives_bucketed_path_matches_broadcast(ray_session, work_dir):
    from graphlite_ray.stages.dedup import minhash_dedup

    base = "shared sentence body for every duplicate document in this set"
    rows = [{"doc_id": i, "text": f"{base} v{i % 5}"} for i in range(25)]
    docs = ray.data.from_items(rows)
    res = minhash_dedup(docs, threshold=0.5)
    assert len(res.clusters) > 0
    kept_b = (
        res.representatives(docs).to_pandas().sort_values("doc_id", ignore_index=True)
    )
    kept_s = (
        res.representatives(docs, broadcast_max=0, work_dir=work_dir)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(kept_b, kept_s)
    assert len(kept_b) < len(rows)


# ------------------------------------------------- incremental IVF add


def test_ivf_add_vectors_equals_full_build_search(ray_session, tmp_path):
    """Index half the corpus, ivf_add the rest with the SAME frozen
    centroids: searches must return identical top-k to a one-shot index
    built from those centroids (same quantizer => same cluster files up
    to row order; knn dedups and ranks deterministically)."""
    import pyarrow as pa

    from graphlite_ray.stages.similarity import (
        build_ivf_index,
        ivf_add_vectors,
        knn_ivf_indexed,
    )

    rng = np.random.RandomState(0)
    V = rng.standard_normal((400, 16)).astype(np.float32)

    def _ds(lo, hi):
        return ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": np.arange(lo, hi, dtype=np.int64),
                    "embedding": pa.FixedSizeListArray.from_arrays(
                        pa.array(V[lo:hi].reshape(-1), pa.float32()), 16
                    ),
                }
            )
        )

    full_dir = str(tmp_path / "full")
    build_ivf_index(_ds(0, 400), full_dir, n_clusters=8)

    inc_dir = str(tmp_path / "inc")
    build_ivf_index(_ds(0, 200), inc_dir, n_clusters=8)
    # same centroids by construction? No — the sample differs. Freeze the
    # quantizer: overwrite inc centroids with the full index's, re-add all
    # rows missing from inc via the incremental path after clearing files.
    import os, shutil

    for f in os.listdir(inc_dir):
        os.remove(os.path.join(inc_dir, f))
    shutil.copy(
        os.path.join(full_dir, "centroids.npy"),
        os.path.join(inc_dir, "centroids.npy"),
    )
    r1 = ivf_add_vectors(inc_dir, _ds(0, 200), delta_id="d1")
    r2 = ivf_add_vectors(inc_dir, _ds(200, 400), delta_id="d2")
    assert r1["rows_added"] > 0 and r2["rows_added"] > 0

    Q = V[:3].astype(np.float64)
    a = knn_ivf_indexed(full_dir, Q, k=5, nprobe=8)
    b = knn_ivf_indexed(inc_dir, Q, k=5, nprobe=8)
    pd.testing.assert_frame_equal(
        a.sort_values(["query_id", "rank"], ignore_index=True),
        b.sort_values(["query_id", "rank"], ignore_index=True),
    )


def test_ivf_add_vectors_idempotent_with_delta_id(ray_session, tmp_path):
    import os

    import pyarrow as pa

    from graphlite_ray.stages.similarity import build_ivf_index, ivf_add_vectors

    rng = np.random.RandomState(1)
    V = rng.standard_normal((100, 8)).astype(np.float32)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": np.arange(100, dtype=np.int64),
                "embedding": pa.FixedSizeListArray.from_arrays(
                    pa.array(V.reshape(-1), pa.float32()), 8
                ),
            }
        )
    )
    d = str(tmp_path / "idx")
    build_ivf_index(ds, d, n_clusters=4)
    import pyarrow.parquet as pq

    def _total():
        return sum(
            pq.ParquetFile(os.path.join(d, f)).metadata.num_rows
            for f in os.listdir(d)
            if f.startswith("cluster_")
        )

    before = _total()
    ivf_add_vectors(d, ds, delta_id="s1")
    mid = _total()
    assert mid > before
    # crash after merge, before marker cleanup: markers present -> no-op
    for c in range(4):
        with open(os.path.join(d, f"delta_s1_c{c}.done"), "w") as f:
            f.write("ok")
    ivf_add_vectors(d, ds, delta_id="s1")
    assert _total() == mid


# --------------------------------------------------- weighted corpus mix


def test_weighted_mix_deterministic_and_rate_correct(ray_session):
    from graphlite_ray.stages.curation import KNUTH, KNUTH_MOD, weighted_mix

    rows = [
        {"doc_id": i, "source": f"s{i % 3}"} for i in range(3000)
    ]
    docs = ray.data.from_items(rows)
    rates = {"s0": 100, "s1": 50, "s2": 0}
    out = weighted_mix(docs, rates, label_col="source").to_pandas()
    # exact membership replay
    ids = np.arange(3000, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = (ids * np.uint64(KNUTH)) % np.uint64(KNUTH_MOD) % np.uint64(100)
    pct = np.array([rates[f"s{i % 3}"] for i in range(3000)], np.uint64)
    expect = np.flatnonzero(h < pct)
    got = np.sort(out["doc_id"].to_numpy())
    assert np.array_equal(got, expect)
    # all of s0, none of s2
    assert (out["source"] == "s2").sum() == 0
    assert (out["source"] == "s0").sum() == 1000
    # rerun identical (resumable / leakage-free)
    out2 = weighted_mix(docs, rates, label_col="source").to_pandas()
    assert np.array_equal(np.sort(out2["doc_id"].to_numpy()), got)


# ---------------------------------------------------- span-clean corpus


def test_span_dedup_clean_removes_duplicate_spans(ray_session):
    from graphlite_ray.stages.dedup import span_dedup_clean

    boiler = "one two three four"  # 4-token chunk with chunk_tokens=4
    docs = ray.data.from_items(
        [
            {"doc_id": 1, "text": f"{boiler} alpha beta gamma delta"},
            {"doc_id": 2, "text": f"{boiler} epsilon zeta eta theta"},
            {"doc_id": 3, "text": ""},
        ]
    )
    out = (
        span_dedup_clean(docs, chunk_tokens=4)
        .to_pandas()
        .set_index("doc_id")["clean_text"]
        .sort_index()
    )
    # doc 1 owns the boilerplate chunk (smallest (doc_id, pos)); doc 2's
    # copy is removed, its unique chunk survives
    assert out.loc[1] == f"{boiler} alpha beta gamma delta"
    assert out.loc[2] == "epsilon zeta eta theta"
    assert out.loc[3] == ""


def test_simhash_streaming_matches_driver_path(ray_session, work_dir):
    from graphlite_ray.stages.dedup import simhash_dedup, simhash_dedup_streaming

    rng = np.random.RandomState(9)
    words = [f"w{i}" for i in range(300)]
    rows = []
    for i in range(30):
        base = [words[rng.randint(0, 300)] for _ in range(60)]
        rows.append({"doc_id": 2 * i, "text": " ".join(base)})
        edited = list(base)
        edited[0] = "CHANGED"
        rows.append({"doc_id": 2 * i + 1, "text": " ".join(edited)})
    docs = ray.data.from_items(rows)
    drv = simhash_dedup(docs, max_hamming=3)
    pairs_ds, clusters_ds = simhash_dedup_streaming(docs, work_dir, max_hamming=3)
    sp = pairs_ds.to_pandas().sort_values(["a", "b"], ignore_index=True)
    dp = drv.pairs.sort_values(["a", "b"], ignore_index=True)
    assert len(dp) > 0
    pd.testing.assert_frame_equal(
        sp.astype({"a": "int64", "b": "int64"}), dp, check_like=True
    )
    sc = clusters_ds.to_pandas().sort_values("doc_id", ignore_index=True)
    dc = drv.clusters.sort_values("doc_id", ignore_index=True)
    pd.testing.assert_frame_equal(sc.astype("int64"), dc)


# ------------------------------------------------------ global row rank


def test_global_rank_matches_argsort_with_ties(ray_session):
    """Ties in the leading key (broken by the unique trailing key) must
    rank correctly even when they straddle range-partition boundaries."""
    from graphlite_ray.functions.scan import global_rank

    rng = np.random.RandomState(11)
    n = 5000
    v = rng.randint(0, 40, n).astype(np.float64)  # heavy ties
    ids = rng.permutation(n).astype(np.int64)
    ds = ray.data.from_pandas(pd.DataFrame({"event_id": ids, "value": v})).repartition(16)
    out = (
        global_rank(ds, ["value", "event_id"])
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    df = pd.DataFrame({"event_id": ids, "value": v})
    order = np.lexsort((df["event_id"].to_numpy(), df["value"].to_numpy()))
    want = np.empty(n, np.int64)
    want[order] = np.arange(1, n + 1)
    df["rank"] = want
    df = df.sort_values("event_id", ignore_index=True)
    assert (out["rank"].to_numpy() == df["rank"].to_numpy()).all()


def test_global_rank_timestamp_key(ray_session):
    """Timestamp keys survive the worker-side block-key representation."""
    from graphlite_ray.functions.scan import global_rank

    ts = pd.date_range("2024-01-01", periods=400, freq="37s")
    ids = np.arange(400, dtype=np.int64)[::-1].copy()
    ds = ray.data.from_pandas(pd.DataFrame({"ts": ts, "event_id": ids})).repartition(7)
    out = global_rank(ds, ["ts", "event_id"]).to_pandas()
    out = out.sort_values("event_id", ignore_index=True)
    # ts ascending == ids descending by construction
    assert (out["rank"].to_numpy() == 400 - out["event_id"].to_numpy()).all()


# ---------------------------------------------------------- JSONL seam


def test_jsonl_roundtrip_preserves_hostile_text(ray_session, tmp_path):
    """Quotes, newlines, tabs, unicode and empty strings must survive the
    write_json -> read_json round-trip byte-identically."""
    from graphlite_ray.sources.jsonl import read_jsonl, stage_jsonl

    rows = [
        {"doc_id": 1, "text": 'he said "hi"\nsecond line\ttabbed'},
        {"doc_id": 2, "text": "naïve café — em–dash 中文 🙂"},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": "back\\slash and / slash"},
    ]
    out = stage_jsonl(ray.data.from_items(rows), str(tmp_path / "jl"))
    got = (
        read_jsonl(out, columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    want = pd.DataFrame(rows)
    pd.testing.assert_frame_equal(got, want)
    # idempotent: a second stage call must not duplicate shards
    import os

    before = sorted(os.listdir(out))
    stage_jsonl(ray.data.from_items(rows), out)
    assert sorted(os.listdir(out)) == before


def test_global_rank_all_equal_leading_key(ray_session):
    """A single massively-tied leading key (Ray's range partitioner sends
    the whole tie run to one partition — the skew worst case) must still
    rank correctly via the unique trailing key."""
    from graphlite_ray.functions.scan import global_rank

    ids = np.random.RandomState(5).permutation(600).astype(np.int64)
    df = pd.DataFrame({"k": np.zeros(600, np.int64), "event_id": ids})
    ds = ray.data.from_pandas(df).repartition(8)
    out = (
        global_rank(ds, ["k", "event_id"])
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    assert (out["rank"].to_numpy() == out["event_id"].to_numpy() + 1).all()


# ----------------------------------------------------- BPE merge training


def test_bpe_training_matches_sql_replay_and_feeds_tokenizer(ray_session):
    import duckdb

    from graphlite_ray.stages.bpe import (
        BPETokenizer,
        bpe_train_merges,
        bpe_train_sql,
    )

    rows = [
        {"doc_id": 1, "text": "the thin thing then the the then thin"},
        {"doc_id": 2, "text": "running runner runs ran run inner in inn"},
        {"doc_id": 3, "text": "Mixed CASE and 123 numbers skip-me the"},
    ]
    docs = ray.data.from_items(rows)
    merges = bpe_train_merges(docs, n_merges=6)
    con = duckdb.connect()
    con.register("documents", pd.DataFrame(rows))
    o = con.execute(bpe_train_sql(6)).df()
    assert merges == list(zip(o["x"], o["y"]))
    # the learned table plugs straight into the tokenizer: "the" collapses
    # to 1 token after (t,h)+(th,e)
    tok = BPETokenizer(merges=merges)
    assert tok._count("the") == 1
    assert tok._count("thin") == 2  # th + in


def test_bpe_training_empty_and_degenerate_corpus(ray_session):
    from graphlite_ray.stages.bpe import bpe_train_merges

    # no alphabetic words at all -> no vocab -> trainer returns []
    docs = ray.data.from_items([{"doc_id": 1, "text": "123 456 --- 9"}])
    assert bpe_train_merges(docs, n_merges=4) == []
    # single-char words have no pairs -> []
    docs1 = ray.data.from_items([{"doc_id": 1, "text": "a b c a b"}])
    assert bpe_train_merges(docs1, n_merges=4) == []


# --------------------------------------------------------------- SemDeDup


def test_semantic_dedup_matches_bruteforce(ray_session, tmp_path):
    """semantic_dedup (chunked, bucketed-shuffle path) == the naive O(c^2)
    numpy replay of the pointwise rule: drop iff some LOWER-id vector of
    the same cluster has cosine >= tau. row_chunk=7 forces the strip-wise
    similarity computation across uneven chunk boundaries."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphlite_ray.stages.dedup import semantic_dedup
    from graphlite_ray.stages.similarity import fit_centroids_file

    rng = np.random.RandomState(11)
    n, d = 300, 16
    base = rng.randn(5, d)
    X = base[rng.randint(0, 5, n)] + 0.6 * rng.randn(n, d)  # planted dups
    ids = np.arange(100, 100 + n, dtype=np.int64)
    emb_path = str(tmp_path / "emb.parquet")
    pq.write_table(
        pa.table({"vec_id": ids, "embedding": [row.astype("float32") for row in X]}),
        emb_path,
    )
    cpath = fit_centroids_file(
        emb_path, str(tmp_path / "cent.parquet"), n_clusters=4, seed=7
    )
    out = (
        semantic_dedup(
            ray.data.read_parquet(emb_path), cpath, tau=0.9, row_chunk=7
        )
        .to_pandas()
        .sort_values("vec_id", ignore_index=True)
    )

    # brute-force replay (same float64 convention as the stage)
    t = pq.read_table(cpath)
    k = int(t["cluster"].to_numpy().max()) + 1
    C = np.zeros((k, d), np.float64)
    C[t["cluster"].to_numpy(), t["dim"].to_numpy()] = t["w"].to_numpy()
    V = X.astype(np.float32).astype(np.float64)  # parquet stores float32
    clu = np.argmax(V @ C.T, axis=1)
    N = V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-12)
    kept = np.ones(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if clu[j] == clu[i] and ids[j] < ids[i] and N[i] @ N[j] >= 0.9:
                kept[i] = 0
                break
    assert out["vec_id"].to_numpy().tolist() == ids.tolist()
    assert out["cluster"].to_numpy().tolist() == clu.tolist()
    assert out["kept"].to_numpy().tolist() == kept.tolist()
    assert 0 < kept.sum() < n  # the planted corpus exercises both outcomes


def test_semantic_dedup_singleton_clusters_all_kept(ray_session, tmp_path):
    """Orthogonal vectors: nothing crosses tau, every row survives with
    its assignment intact (covers size-1 clusters / the no-drop path)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphlite_ray.stages.dedup import semantic_dedup
    from graphlite_ray.stages.similarity import fit_centroids_file

    X = np.eye(8, dtype="float32")
    emb_path = str(tmp_path / "emb.parquet")
    pq.write_table(
        pa.table(
            {"vec_id": np.arange(8, dtype=np.int64), "embedding": list(X)}
        ),
        emb_path,
    )
    cpath = fit_centroids_file(
        emb_path, str(tmp_path / "cent.parquet"), n_clusters=3, seed=1
    )
    out = semantic_dedup(
        ray.data.read_parquet(emb_path), cpath, tau=0.5
    ).to_pandas()
    assert len(out) == 8
    assert out["kept"].sum() == 8


# ------------------------------------------------------ latest_per_key


def test_latest_per_key_cross_block_and_ties(ray_session):
    """Keys scattered over many small blocks with duplicate timestamps:
    the winner must be the (ts, id)-lexicographic max regardless of block
    layout — the per-block combiner only ships block winners, so a key in
    k blocks contributes k candidate rows to the final reduce."""
    from graphlite_ray.pipelines.relational import latest_per_key

    rng = np.random.RandomState(5)
    n = 5000
    df = pd.DataFrame(
        {
            "user_id": rng.randint(0, 37, n),
            "ts": rng.randint(0, 50, n),  # heavy ties
            "event_id": np.arange(n, dtype=np.int64),
            "value": rng.randn(n),
        }
    )
    ds = ray.data.from_pandas(df).repartition(23)
    out = (
        latest_per_key(ds, ["user_id"], ["ts", "event_id"], B=8)
        .to_pandas()
        .sort_values("user_id", ignore_index=True)
    )
    want = (
        df.sort_values(["ts", "event_id"], ascending=False, kind="mergesort")
        .drop_duplicates("user_id", keep="first")
        .sort_values("user_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(
        out[["user_id", "ts", "event_id", "value"]],
        want[["user_id", "ts", "event_id", "value"]],
    )
    assert len(out) == df["user_id"].nunique()


def test_latest_per_key_composite_key(ray_session):
    from graphlite_ray.pipelines.relational import latest_per_key

    df = pd.DataFrame(
        {
            "a": [1, 1, 1, 2, 2],
            "b": ["x", "x", "y", "x", "x"],
            "ts": [5, 9, 1, 3, 3],
            "rid": [10, 11, 12, 13, 14],
        }
    )
    out = (
        latest_per_key(ray.data.from_pandas(df).repartition(3), ["a", "b"], ["ts", "rid"], B=4)
        .to_pandas()
        .sort_values(["a", "b"], ignore_index=True)
    )
    assert out["rid"].tolist() == [11, 12, 14]  # ts max; (2,x) tie -> rid max


def test_katz_matches_bruteforce_recurrence(work_dir):
    """KatzCentrality == the truncated-series recurrence x_{k+1} = 1 +
    alpha * A^T x_k run in plain numpy, on a graph with a parallel edge
    (must contribute twice), a cycle, and a dangling sink."""
    from graphlite_ray.pipelines.linkgraph import run_on_edges
    from graphlite_ray.programs import KatzCentrality

    src = np.array([0, 0, 0, 1, 2, 3], np.int64)  # 0->1 twice (parallel)
    dst = np.array([1, 1, 2, 2, 3, 0], np.int64)
    # vertex 4: dangling sink reachable only via 2->4
    src = np.append(src, 2)
    dst = np.append(dst, 4)
    alpha, iters, n = 0.1, 6, 5

    res = run_on_edges(KatzCentrality(alpha=alpha, iters=iters), src, dst, work_dir, P=2)
    assert res.halted
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}

    x = np.ones(n)
    for _ in range(iters):
        acc = np.zeros(n)
        np.add.at(acc, dst, x[src])
        x = 1.0 + alpha * acc
    got = np.array([vals[v] for v in range(n)])
    assert np.allclose(got, x, rtol=0, atol=1e-12)
    # the parallel edge matters: single-edge variant must differ at vertex 1
    assert not np.isclose(got[1], 1.0 + alpha * (1.0 + alpha * 1.0))


def test_chunk_documents_windows_and_tails(ray_session):
    """Chunker edge cases: token-less doc emits nothing; doc shorter than
    one window is a single short chunk; every token appears in >= 1
    chunk; overlap region matches between consecutive chunks."""
    from graphlite_ray.stages.curation import chunk_documents

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "",                                  # no chunks
                "a b c",                             # one short chunk
                " ".join(f"t{i}" for i in range(8)),  # exact 2 windows at w=4,s=4
                " ".join(f"u{i}" for i in range(10)),  # overlapping w=4,s=2
            ],
        }
    )
    out = (
        chunk_documents(ray.data.from_pandas(docs).repartition(2), window=4, stride=2)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"], ignore_index=True)
    )
    assert 1 not in set(out["doc_id"])
    d2 = out[out["doc_id"] == 2]
    assert d2["chunk_text"].tolist() == ["a b c", "c"] and d2["n_tokens"].tolist() == [3, 1]
    d4 = out[out["doc_id"] == 4]
    # starts 0,2,4,6,8 — last chunk is the 2-token tail
    assert d4["start_tok"].tolist() == [0, 2, 4, 6, 8]
    assert d4["n_tokens"].tolist() == [4, 4, 4, 4, 2]
    # overlap: second half of chunk k == first half of chunk k+1
    texts = d4["chunk_text"].tolist()
    for a, b in zip(texts, texts[1:]):
        assert a.split()[2:] == b.split()[: len(a.split()[2:])]
    # coverage: union of chunk tokens == the doc's tokens
    assert set(" ".join(texts).split()) == {f"u{i}" for i in range(10)}


def test_rolling_avg_group_boundaries_and_short_heads(ray_session, tmp_path, monkeypatch):
    """Rolling mean: head rows average over fewer rows (min_periods=1
    semantics); user boundaries never leak; window slides correctly."""
    from graphlite_ray.pipelines.relational import q_rolling_avg

    df = pd.DataFrame(
        {
            "event_id": [1, 2, 3, 4, 5, 6, 7],
            "ts": pd.to_datetime(
                ["2024-01-01 00:00:0%d" % i for i in [0, 1, 2, 3, 4, 0, 1]]
            ),
            "user_id": [10, 10, 10, 10, 10, 20, 20],
            "value": [1.0, 2.0, 3.0, 4.0, 5.0, 100.0, 200.0],
        }
    )
    p = tmp_path / "events.parquet"
    df.to_parquet(p, index=False)
    out = q_rolling_avg(str(tmp_path), window=4)
    got = out["roll_avg"].tolist()
    # user 10: 1; (1+2)/2; (1+2+3)/3; (1+2+3+4)/4; (2+3+4+5)/4
    # user 20: 100; (100+200)/2  — no leak of user 10's tail
    assert got == [1.0, 1.5, 2.0, 2.5, 3.5, 100.0, 150.0]
    assert out["event_id"].tolist() == [1, 2, 3, 4, 5, 6, 7]


def test_eigenvector_matches_power_iteration(work_dir):
    """EigenvectorCentrality == numpy power iteration with the same layer
    schedule (normalize by the PREVIOUS layer's L1 mass; final layer
    divided by its own norm) on a strongly-connected digraph."""
    from graphlite_ray.pipelines.linkgraph import run_on_edges
    from graphlite_ray.programs import EigenvectorCentrality

    # 4-cycle with chords: strongly connected, non-uniform stationary layer
    src = np.array([0, 1, 2, 3, 0, 2], np.int64)
    dst = np.array([1, 2, 3, 0, 2, 0], np.int64)
    iters, n = 5, 4

    res = run_on_edges(EigenvectorCentrality(iters=iters), src, dst, work_dir, P=2)
    assert res.halted
    vals = {r["vertex_id"]: r["value"] for r in res.values().take_all()}

    x = np.ones(n)
    for _ in range(iters):
        nrm = x.sum()
        acc = np.zeros(n)
        np.add.at(acc, dst, x[src])
        x = acc / nrm
    x = x / x.sum()  # final normalize-only step
    got = np.array([vals[v] for v in range(n)])
    assert np.allclose(got, x, rtol=0, atol=1e-12)
    assert abs(got.sum() - 1.0) < 1e-12


def test_rollup_levels_consistent(ray_session):
    """ROLLUP invariants on the real sf0.001 table: per-nation subtotals
    equal the sum of their segment rows; the grand total equals the sum
    of the per-nation level; counts match the raw row count."""
    from graphlite_ray.pipelines.relational import q_rollup_acctbal

    out = q_rollup_acctbal("/root/testdata/sf0.001")
    finest = out[(out["c_nationkey"] >= 0) & (out["c_mktsegment"] != "ALL")]
    nation = out[(out["c_nationkey"] >= 0) & (out["c_mktsegment"] == "ALL")]
    grand = out[out["c_nationkey"] == -1]
    assert len(grand) == 1
    assert int(grand["n"].iloc[0]) == int(finest["n"].sum()) == int(nation["n"].sum())
    per_nation = finest.groupby("c_nationkey")["n"].sum()
    for nk, n in nation.set_index("c_nationkey")["n"].items():
        assert per_nation[nk] == n
    assert abs(float(grand["sum_bal"].iloc[0]) - float(finest["sum_bal"].sum())) < 0.05


def test_user_set_ops_classification(ray_session, tmp_path):
    """Set-op classification: intersect = users in both types, except =
    a-only; users appearing only in OTHER event types are excluded."""
    from graphlite_ray.pipelines.relational import q_user_set_ops

    df = pd.DataFrame(
        {
            "user_id":    [1, 1, 2, 3, 3, 4, 5],
            "event_type": ["click", "purchase", "click", "purchase", "click",
                           "view", "purchase"],
        }
    )
    (tmp_path / "events.parquet").write_bytes(b"")
    df.to_parquet(tmp_path / "events.parquet", index=False)
    out = q_user_set_ops(str(tmp_path))
    got = {(r.op, r.user_id) for r in out.itertuples()}
    # 1,3 in both; 2 click-only; 4 view-only (excluded); 5 purchase-only
    assert got == {("intersect", 1), ("intersect", 3), ("except", 2)}


def test_csv_roundtrip_hostile_text(ray_session, tmp_path):
    """CSV seam: commas, RFC-4180 quotes, unicode, and empty text survive
    the stage_csv -> read_csv round trip; empty/null text counts 0."""
    from graphlite_ray.sources.csvio import read_csv, stage_csv

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                'a,b "quoted" c',
                "semi;colon\tand tab",
                "",
                "café — unicode",
            ],
        }
    )
    out = stage_csv(ray.data.from_pandas(df).repartition(2), str(tmp_path / "csv"))
    back = read_csv(out).to_pandas().sort_values("doc_id", ignore_index=True)
    assert back["doc_id"].tolist() == [1, 2, 3, 4]
    got = back["text"].tolist()
    assert got[0] == 'a,b "quoted" c'
    assert got[1] == "semi;colon\tand tab"
    assert got[2] in ("", None) or (got[2] != got[2])  # ''/null collapse ok
    assert got[3] == "café — unicode"
    # idempotent: second stage call is a no-op on the _SUCCESS-marked dir
    n_files = len(list((tmp_path / "csv").iterdir()))
    stage_csv(ray.data.from_pandas(df), str(tmp_path / "csv"))
    assert len(list((tmp_path / "csv").iterdir())) == n_files


def test_quantized_knn_recall_and_bounds(ray_session):
    """int8 quantization invariants: |q| <= 127, reconstruction error
    <= scale/2 per element; quantized top-10 keeps high recall vs exact
    cosine and each query's self-match ranks first."""
    from graphlite_ray.stages.similarity import (
        knn_bruteforce,
        knn_quantized,
        quantize_matrix,
        read_embeddings,
    )

    rng = np.random.RandomState(7)
    M = rng.randn(50, 16)
    q, s = quantize_matrix(M)
    assert np.abs(q).max() <= 127
    assert np.all(np.abs(M - q * s[:, None]) <= s[:, None] / 2 + 1e-12)

    sf = "/root/testdata/sf0.001"
    emb = read_embeddings(f"{sf}/embeddings.parquet")
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", 3)])
    order = np.argsort(t["vec_id"].to_numpy(zero_copy_only=False))
    Q = np.stack([t["embedding"].to_pylist()[i] for i in order]).astype(np.float64)

    exact = knn_bruteforce(emb, Q, k=10)
    quant = knn_quantized(read_embeddings(f"{sf}/embeddings.parquet"), Q, k=10)
    for qid in range(3):
        e = set(exact[exact["query_id"] == qid]["vec_id"])
        g = quant[quant["query_id"] == qid]
        assert len(e & set(g["vec_id"])) >= 8  # recall@10 >= 0.8
        assert g[g["rank"] == 1]["vec_id"].iloc[0] == qid  # self-match first


def test_transitivity_known_graph(ray_session, tmp_path):
    """C = 3T/W on a known graph: triangle 0-1-2 plus pendant 2-3.
    Degrees (2,2,3,1) -> W = 1+1+3+0 = 5, T = 1, C = 0.6. Parallel and
    reversed edges must not change the simple-graph result."""
    from graphlite_ray.pipelines.triangles import transitivity

    df = pd.DataFrame(
        {
            "src": [0, 1, 2, 2, 1, 0],
            "dst": [1, 2, 0, 3, 0, 1],  # 1->0 reverse dup, 0->1 parallel dup
        }
    )
    T, W, C = transitivity(ray.data.from_pandas(df).repartition(2), B=4)
    assert (T, W) == (1, 5)
    assert abs(C - 0.6) < 1e-12


def test_token_pmi_known_values(ray_session):
    """PMI on a hand-checkable corpus: per-doc cap (M=2) actually drops a
    token, min_count filters the singleton pair, token-less doc counts
    toward N only, and the value is the libm ln of the exact ratio."""
    import math

    import pyarrow as pa

    from graphlite_ray.functions.rounding import round_half_away
    from graphlite_ray.stages.textstats import token_pmi

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
                "text": [
                    "a b c",  # cap M=2 keeps [a, b], drops c
                    "a b",
                    "b a",  # order-independent: kept set is sorted
                    "a z",
                    "",  # token-less: counts toward N only
                ],
            }
        )
    ).repartition(3)
    out = (
        token_pmi(docs, min_count=2, max_tokens_per_doc=2, B=4)
        .to_pandas()
        .sort_values(["tok_a", "tok_b"], ignore_index=True)
    )
    # kept dfs: a=4, b=3, z=1; pairs: (a,b) co=3, (a,z) co=1 (filtered)
    assert out["tok_a"].tolist() == ["a"]
    assert out["tok_b"].tolist() == ["b"]
    assert out["co_df"].tolist() == [3]
    assert out["pmi"].tolist() == list(round_half_away([math.log(3 * 5.0 / (4 * 3))], 6))


def test_token_pmi_duckdb_replay(ray_session):
    """token_pmi vs the full DuckDB self-join replay on a corpus where the
    sorted-prefix cap truncates some docs — the same contract the driver
    oracle uses (row_number over token order)."""
    import duckdb
    import pyarrow as pa

    from graphlite_ray.stages.textstats import token_pmi

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick red fox runs",
        "lazy dog sleeps all day the quick",
        "brown bear and red fox share the den",
        "dog and fox and bear",
        "",
    ]
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts}
    )
    M, MC = 4, 2  # cap 4 < max distinct (8) -> truncation exercised
    got = (
        token_pmi(ray.data.from_arrow(tbl).repartition(2), min_count=MC,
                  max_tokens_per_doc=M, B=4)
        .to_pandas()
        .sort_values(["tok_a", "tok_b"], ignore_index=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    ws = r"[ \t\n\r\f\v]+"
    exp = con.execute(
        "WITH toks AS (SELECT DISTINCT doc_id, token FROM ("
        f"SELECT doc_id, unnest(regexp_split_to_array(trim(lower(text)), '{ws}')) "
        "AS token FROM documents) WHERE token <> ''), "
        "kept AS (SELECT doc_id, token FROM ("
        "SELECT doc_id, token, row_number() OVER "
        "(PARTITION BY doc_id ORDER BY token) AS rn FROM toks) "
        f"WHERE rn <= {M}), "
        "df AS (SELECT token, CAST(count(*) AS BIGINT) AS dfc FROM kept GROUP BY token), "
        "pairs AS (SELECT x.token AS tok_a, y.token AS tok_b, "
        "CAST(count(*) AS BIGINT) AS co_df "
        "FROM kept x JOIN kept y ON x.doc_id = y.doc_id AND x.token < y.token "
        f"GROUP BY 1, 2 HAVING count(*) >= {MC}), "
        "n AS (SELECT CAST(count(*) AS DOUBLE) AS nd FROM documents) "
        "SELECT p.tok_a, p.tok_b, p.co_df, "
        "ROUND(ln(p.co_df * n.nd / (a.dfc * b.dfc)), 6) AS pmi "
        "FROM pairs p CROSS JOIN n "
        "JOIN df a ON a.token = p.tok_a JOIN df b ON b.token = p.tok_b "
        "ORDER BY tok_a, tok_b"
    ).df()
    pd.testing.assert_frame_equal(got, exp)


def test_user_journeys_known_values(ray_session, tmp_path, monkeypatch):
    """Ordered journey collection: (ts, event_id) ordering incl. an exact
    ts tie broken by event_id, first-k cap truncates the long user, and
    n_events keeps the untruncated count."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphlite_ray.pipelines.relational import q_user_journeys

    ts = pd.to_datetime(
        [
            "2026-01-01 00:00:02",  # u1 e0
            "2026-01-01 00:00:01",  # u1 e1  (earlier -> first)
            "2026-01-01 00:00:02",  # u1 e2  (ts tie with e0 -> id order)
            "2026-01-01 00:00:05",  # u2 e3
            "2026-01-01 00:00:06",  # u2 e4
            "2026-01-01 00:00:07",  # u2 e5 (cut by k=2)
        ]
    )
    t = pa.table(
        {
            "event_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([1, 1, 1, 2, 2, 2], pa.int64()),
            "event_type": ["a", "b", "c", "x", "y", "z"],
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = q_user_journeys(str(tmp_path), k=2)
    assert out["user_id"].tolist() == [1, 2]
    assert out["n_events"].tolist() == [3, 3]
    # u1: order is e1(b) < e0(a) < e2(c); k=2 keeps "b,a"
    assert out["journey"].tolist() == ["b,a", "x,y"]


def test_events_pivot_known_values(ray_session, tmp_path):
    """Crosstab counts: a user missing a type gets 0, the column set is
    discovered from the data (sorted), counts sum across batches."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphlite_ray.pipelines.relational import q_events_pivot

    ts = pd.to_datetime(["2026-01-01"] * 6)
    t = pa.table(
        {
            "event_id": pa.array(range(6), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
            "event_type": ["click", "click", "view", "view", "view", "click"],
            "value": pa.array([0.0] * 6, pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    out = q_events_pivot(str(tmp_path))
    assert list(out.columns) == ["user_id", "n_click", "n_view"]
    assert out["user_id"].tolist() == [1, 2, 3]
    assert out["n_click"].tolist() == [2, 0, 1]
    assert out["n_view"].tolist() == [1, 2, 0]


def test_events_ntile_matches_sql_ntile(ray_session, tmp_path):
    """NTILE replay formula vs DuckDB NTILE on a size that does NOT divide
    evenly (n=13, k=5 -> tile sizes 3,3,3,2,2)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphlite_ray.pipelines.relational import q_events_ntile

    n = 13
    ts = pd.to_datetime(["2026-01-01"] * n)
    t = pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "user_id": pa.array([0] * n, pa.int64()),
            "event_type": ["x"] * n,
            # duplicate values force the event_id tie-break
            "value": pa.array([float(i % 4) for i in range(n)], pa.float64()),
        }
    )
    pq.write_table(t, tmp_path / "events.parquet")
    got = q_events_ntile(str(tmp_path), k=5)
    exp = duckdb.connect().execute(
        "SELECT event_id, CAST(NTILE(5) OVER (ORDER BY value, event_id) AS BIGINT) "
        f"AS tile FROM '{tmp_path}/events.parquet' ORDER BY event_id"
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert sorted(got["tile"].value_counts().tolist(), reverse=True) == [3, 3, 3, 2, 2]


def test_avg_neighbor_degree_known_graph(ray_session):
    """knn(v) on a hand-checkable multigraph: parallel edges count by
    multiplicity; a dangling neighbor contributes degree 0; vertices with
    no out-edges emit no row."""
    from graphlite_ray.pipelines.graphstats import avg_neighbor_degree

    # outdeg: 0->3 (two parallel to 1), 1->1, 2->1; 9 dangling
    df = pd.DataFrame(
        {"src": [0, 0, 0, 1, 2], "dst": [1, 1, 2, 9, 0]}
    )
    out = avg_neighbor_degree(ray.data.from_pandas(df).repartition(2), B=4)
    assert out["vertex_id"].tolist() == [0, 1, 2]
    # v0: nbrs (1,1,2) degs (1,1,1) -> 1.0; v1: nbr 9 deg 0 -> 0.0; v2: nbr 0 deg 3 -> 3.0
    assert out["avg_nbr_deg"].tolist() == [1.0, 0.0, 3.0]


def test_bm25_topk_known_values(ray_session):
    """BM25 on a hand-checkable corpus: Robertson idf, length
    normalization (the longer doc with equal tf scores lower), no-hit
    docs excluded, empty doc still counts toward N and avgdl, rounded
    score + doc_id tie-break ordering."""
    import math

    import pyarrow as pa

    from graphlite_ray.functions.rounding import round_half_away
    from graphlite_ray.stages.textstats import bm25_topk

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": [
                    "cat dog",  # tf(cat)=1, dl=2
                    "cat mouse bird fish lion",  # tf(cat)=1, dl=5 -> lower
                    "mouse bird",  # no hit -> excluded
                    "",  # counts toward N / avgdl only
                ],
            }
        )
    ).repartition(2)
    out = bm25_topk(docs, "cat", k=3, k1=1.2, b=0.75, B=4)
    N, avgdl = 4, (2 + 5 + 2 + 0) / 4.0
    idf = math.log((N - 2 + 0.5) / (2 + 0.5) + 1.0)

    def s(dl):
        return idf * ((1 * 2.2) / (1 + 1.2 * (1.0 - 0.75 + 0.75 * dl / avgdl)))

    assert out["doc_id"].tolist() == [0, 1]
    assert out["score"].tolist() == list(round_half_away([s(2.0), s(5.0)], 6))
    assert out["score"].iloc[0] > out["score"].iloc[1]


def test_bm25_oracle_builder_replay(ray_session):
    """bm25_topk vs the generated-SQL oracle (__ray_entry__._bm25_oracle_sql)
    on a corpus with multi-term queries, repeated terms in the query
    string (deduped), tf>1 docs, and a tie broken by doc_id."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    import __ray_entry__ as E
    from graphlite_ray.stages.textstats import bm25_topk

    texts = [
        "fox dog fox",  # tf(fox)=2
        "fox dog",
        "dog fox",  # identical multiset as doc 1 -> tie, doc_id break
        "fox bear",
        "bear wolf",
        "dog dog dog wolf",
        "",
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    q = "fox dog fox"  # repeated term dedupes to {dog, fox}
    got = bm25_topk(ray.data.from_arrow(tbl).repartition(3), q, k=4, B=4)
    con = duckdb.connect()
    con.register("documents", tbl)
    exp = con.execute(E._bm25_oracle_sql(q, 4, 1.2, 0.75)).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # docs 1 and 2 tie exactly; doc_id asc must order 1 before 2
    d = got["doc_id"].tolist()
    assert d.index(1) < d.index(2)


def test_local_supplier_volume_matches_duckdb(ray_session):
    """TPC-H Q5 shape over the real sf0.001 tables: the two bucketed
    fact joins + broadcast dimension chain reproduce the six-table SQL
    exactly (values to the cent after the shared rounding convention)."""
    import duckdb

    from graphlite_ray.pipelines.relational import q_local_supplier_volume

    sf = "/root/testdata/sf0.001"
    got = q_local_supplier_volume(sf)
    got["revenue"] = got["revenue"].round(2)
    exp = duckdb.connect().execute(
        f"""
        SELECT n_name, ROUND(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
        FROM '{sf}/customer.parquet' c, '{sf}/orders.parquet' o,
             '{sf}/lineitem.parquet' l, '{sf}/supplier.parquet' s,
             '{sf}/nation.parquet' n, '{sf}/region.parquet' r
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA' AND o_orderdate >= DATE '1995-01-01'
          AND o_orderdate < DATE '1999-01-01'
        GROUP BY n_name ORDER BY revenue DESC, n_name
        """
    ).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert len(got) >= 1


def test_local_supplier_volume_empty_window(ray_session):
    """A date window with no orders yields an empty, correctly-typed frame
    (the empty-group schema path through both bucketed joins)."""
    from graphlite_ray.pipelines.relational import q_local_supplier_volume

    out = q_local_supplier_volume(
        "/root/testdata/sf0.001", date_lo="1990-01-01", date_hi="1990-01-02"
    )
    assert list(out.columns) == ["n_name", "revenue"]
    assert len(out) == 0


def test_local_supplier_volume_integer_units_exact_and_leaves_no_temp(ray_session):
    """Unrounded revenue equals a DuckDB sum of integer 1e-4 units (cents
    times the percent kept) exactly, whatever order the batches arrive
    in, and the call removes its temp dir of bucketed files."""
    import glob
    import tempfile

    import duckdb

    from graphlite_ray.pipelines.relational import q_local_supplier_volume

    sf = "/root/testdata/sf0.001"
    temps = set(glob.glob(f"{tempfile.gettempdir()}/glr_q5_*"))
    got = q_local_supplier_volume(sf)
    assert set(glob.glob(f"{tempfile.gettempdir()}/glr_q5_*")) <= temps
    exp = duckdb.connect().execute(
        f"""
        SELECT n_name, sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                           * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS units
        FROM '{sf}/customer.parquet' c, '{sf}/orders.parquet' o,
             '{sf}/lineitem.parquet' l, '{sf}/supplier.parquet' s,
             '{sf}/nation.parquet' n, '{sf}/region.parquet' r
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA' AND o_orderdate >= DATE '1995-01-01'
          AND o_orderdate < DATE '1999-01-01'
        GROUP BY n_name
        """
    ).df()
    exp["revenue"] = exp.pop("units").astype("int64") / 10_000
    exp = exp.sort_values(["revenue", "n_name"], ascending=[False, True], ignore_index=True)
    assert len(exp) >= 1
    assert got["n_name"].tolist() == exp["n_name"].tolist()
    assert got["revenue"].to_numpy().tobytes() == exp["revenue"].to_numpy().tobytes()


def test_small_quantity_revenue_known_values(ray_session, tmp_path):
    """Q17 correlated-aggregate semantics on a hand-checkable table: the
    per-part threshold is 0.2 * avg over ALL that part's lineitems (not
    just qualifying rows), parts whose every lineitem is >= threshold
    drop out, and non-qualifying brands never appear."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphlite_ray.pipelines.relational import q_small_quantity_revenue

    pq.write_table(
        pa.table(
            {
                "p_partkey": pa.array([1, 2, 3], pa.int64()),
                "p_name": ["a", "b", "c"],
                "p_brand": ["Brand#13", "Brand#13", "Brand#9"],
                "p_type": ["ECONOMY", "ECONOMY", "ECONOMY"],
                "p_size": pa.array([1, 1, 1], pa.int64()),
                "p_retailprice": pa.array([1.0, 1.0, 1.0], pa.float64()),
            }
        ),
        tmp_path / "part.parquet",
    )
    # part 1: avg qty = 10 -> thresh 2; qty 1 qualifies (price 5.0)
    # part 2: qtys 10,10 -> thresh 2; nothing below -> drops out
    # part 3: would qualify but wrong brand
    pq.write_table(
        pa.table(
            {
                "l_partkey": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
                "l_quantity": pa.array([1.0, 14.0, 15.0, 10.0, 10.0, 0.1], pa.float64()),
                "l_extendedprice": pa.array([5.0, 9.0, 9.0, 9.0, 9.0, 9.0], pa.float64()),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    out = q_small_quantity_revenue(str(tmp_path))
    assert out["p_partkey"].tolist() == [1]
    assert out["avg_qty"].tolist() == [10.0]
    assert out["small_revenue"].tolist() == [5.0]
    assert out["n_small"].tolist() == [1]
    # no qualifying brand at all -> empty, correctly typed
    empty = q_small_quantity_revenue(str(tmp_path), brand="Brand#99")
    assert len(empty) == 0
    assert list(empty.columns) == ["p_partkey", "avg_qty", "small_revenue", "n_small"]


def test_event_gaps_lag_semantics(ray_session, tmp_path):
    """LAG boundaries: first event per user gets -1; ties on ts break by
    event_id; gaps are integer epoch-ms even for sub-second spacing."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from graphlite_ray.pipelines.relational import q_event_gaps

    ts = pd.to_datetime(
        [
            "2026-01-01 00:00:00.000",
            "2026-01-01 00:00:00.250",  # same user, +250ms
            "2026-01-01 00:00:00.250",  # tie -> ordered by event_id
            "2026-01-01 02:00:00.000",  # other user's first
        ]
    )
    pq.write_table(
        pa.table(
            {
                "event_id": pa.array([0, 1, 2, 3], pa.int64()),
                "ts": pa.array(ts, pa.timestamp("us")),
                "user_id": pa.array([7, 7, 7, 9], pa.int64()),
                "event_type": ["x"] * 4,
                "value": pa.array([0.0] * 4, pa.float64()),
            }
        ),
        tmp_path / "events.parquet",
    )
    out = q_event_gaps(str(tmp_path))
    assert out["gap_ms"].tolist() == [-1, 250, 0, -1]


def test_khop_sample_known_graph(ray_session, tmp_path):
    """Deterministic GraphSAGE sampling on a hand-built graph: fanout cut
    picks the smallest (mix-key, dst) distinct out-neighbors; hop-2 rows
    expand exactly the hop-1 sample; seeds are vid % seed_mod == 0 with
    out-edges; tree size = seeds * (f + f^2) when every vertex has >=
    fanout out-neighbors."""
    from graphlite_ray.pipelines.sampling import khop_sample, sample_key

    rows = [(i, (i * 7 + j) % 40) for i in range(40) for j in range(1, 8)]
    df = pd.DataFrame(rows, columns=["src", "dst"])
    out = khop_sample(
        ray.data.from_pandas(df).repartition(4),
        str(tmp_path),
        hops=2,
        fanout=3,
        seed_mod=8,
    )
    seeds = [0, 8, 16, 24, 32]
    assert sorted(out["seed"].unique().tolist()) == seeds
    assert len(out) == len(seeds) * (3 + 9)
    # hop-1 for seed 0 matches the key ranking directly
    nb = df[df.src == 0]["dst"].unique().astype(np.int64)
    key = sample_key(np.zeros(len(nb), np.int64), nb)
    exp = sorted(nb[np.lexsort((nb, key))][:3].tolist())
    got = sorted(out[(out.seed == 0) & (out.hop == 1)]["vertex_id"].tolist())
    assert got == exp
    # every hop-2 parent is a hop-1 vertex of the same seed
    h1 = out[out.hop == 1].groupby("seed")["vertex_id"].apply(set)
    for s, grp in out[out.hop == 2].groupby("seed"):
        assert set(grp["parent"]) <= h1[s]
    # duplicate edges in the input don't change the sample
    df2 = pd.concat([df, df.head(50)], ignore_index=True)
    out2 = khop_sample(
        ray.data.from_pandas(df2).repartition(4),
        str(tmp_path / "w2"),
        hops=2,
        fanout=3,
        seed_mod=8,
    )
    pd.testing.assert_frame_equal(out, out2)


def test_event_funnel_hand_graph(ray_session):
    """Funnel semantics on a hand-built event log: strict (ts, event_id)
    ordering between consecutive stages, tie broken by event_id, greedy
    earliest view is the anchor (a later view that would enable a click
    is NOT used), -1 sentinels for unreached stages."""
    from graphlite_ray.pipelines.relational import q_event_funnel

    def ts(ms):
        return pd.Timestamp(ms, unit="ms")

    rows = [
        # user 1: full funnel, strictly increasing
        (1, 1, ts(1000), "view"), (2, 1, ts(2000), "click"), (3, 1, ts(3000), "purchase"),
        # user 2: click BEFORE the first view -> stage stops at 1
        (4, 2, ts(2000), "click"), (5, 2, ts(3000), "view"),
        # user 3: tie on ts — click same ms as view but larger event_id counts
        (6, 3, ts(1000), "view"), (7, 3, ts(1000), "click"),
        # user 4: tie with SMALLER event_id does not count
        (9, 4, ts(1000), "view"), (8, 4, ts(1000), "click"),
        # user 5: greedy anchor — earliest view at 5000, click at 4000 misses,
        # the later view at 6000 is not re-anchored
        (10, 5, ts(5000), "view"), (11, 5, ts(4000), "click"), (12, 5, ts(6000), "view"),
        # user 6: no funnel events at all
        (13, 6, ts(1000), "error"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts", "event_type"])
    import tempfile, os
    d = tempfile.mkdtemp(dir="/tmp")
    df.to_parquet(os.path.join(d, "events.parquet"))
    out = q_event_funnel(d).set_index("user_id")
    assert out.loc[1, "funnel_stage"] == 3
    assert out.loc[1, "purchase_ms"] == 3000
    assert out.loc[2, "funnel_stage"] == 1 and out.loc[2, "view_ms"] == 3000
    assert out.loc[3, "funnel_stage"] == 2 and out.loc[3, "click_ms"] == 1000
    assert out.loc[4, "funnel_stage"] == 1 and out.loc[4, "click_ms"] == -1
    assert out.loc[5, "funnel_stage"] == 1 and out.loc[5, "view_ms"] == 5000
    assert out.loc[6, "funnel_stage"] == 0
    assert (out.loc[6, ["view_ms", "click_ms", "purchase_ms"]] == -1).all()


def test_editdist_pairs_planted_and_random(ray_session):
    """Edit-distance join: planted pairs at distance 0/1/2 are found with
    exact distances, a distance-3 pair is excluded, and on a random
    corpus the blocked join equals the brute-force DP (completeness of
    the deletion-neighborhood blocking)."""
    import random

    from graphlite_ray.stages.editdist import editdist_pairs, levenshtein_batch

    base = "the quick brown fox jump"  # 24 chars
    rows = [
        (0, base),
        (1, base),                      # dist 0
        (2, "the quick brown fox jumq"),  # 1 sub
        (3, "the quick brown fox jum"),   # 1 del (23 chars)
        (4, "xhe quick brown fox jumq"),  # 2 subs
        (5, "aaa quick brown fox jump"),  # 3 subs -> excluded vs 0/1
    ]
    rng = random.Random(11)
    for i in range(6, 40):
        rows.append((i, "".join(rng.choice("abcdefgh") for _ in range(24))))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    out = editdist_pairs(ray.data.from_pandas(df).repartition(3), prefix_len=24, k=2)
    got = {(a, b): d for a, b, d in out.itertuples(index=False)}
    assert got[(0, 1)] == 0 and got[(0, 2)] == 1 and got[(0, 3)] == 1
    assert got[(0, 4)] == 2
    assert (0, 5) not in got and (1, 5) not in got

    # brute-force parity on the whole corpus
    def ref(a, b):
        dp = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, dp = dp, [i] + [0] * len(b)
            for j, cb in enumerate(b, 1):
                dp[j] = min(prev[j] + 1, dp[j - 1] + 1, prev[j - 1] + (ca != cb))
        return dp[len(b)]

    exp = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = ref(rows[i][1][:24], rows[j][1][:24])
            if d <= 2:
                exp[(rows[i][0], rows[j][0])] = d
    assert got == exp


def test_clique4_count_brute_force(ray_session):
    """clique4_count vs itertools brute force: K5 (five 4-cliques), a
    random 30-vertex graph, and a disconnected union with self-loops and
    parallel edges (both must be ignored by the simple-graph canon)."""
    import itertools

    from graphlite_ray.pipelines.triangles import clique4_count

    def brute4(pairs):
        es = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
        verts = sorted({v for e in es for v in e})
        return sum(
            1
            for quad in itertools.combinations(verts, 4)
            if all(
                (min(u, v), max(u, v)) in es
                for u, v in itertools.combinations(quad, 2)
            )
        )

    rng = np.random.default_rng(3)
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    e_rand = [
        (int(rng.integers(0, 30)), int(rng.integers(0, 30))) for _ in range(160)
    ]
    cases = [
        k5,
        e_rand,
        k5 + [(a + 100, b + 100) for a, b in e_rand] + [(1, 1), (2, 3), (2, 3)],
    ]
    for pairs in cases:
        df = pd.DataFrame(pairs, columns=["src", "dst"])
        got = clique4_count(ray.data.from_pandas(df).repartition(3), B=8)
        assert got == brute4(pairs)


def test_retention_cohorts_hand_events(ray_session):
    """Cohort semantics on a hand log: cohort = first-event week, a user
    active in weeks {w, w+2} contributes to offsets 0 and 2 only, and a
    user with many events in one week counts once per (cohort, offset)."""
    from graphlite_ray.pipelines.relational import q_retention_cohorts

    wk = 7 * 86400 * 1000  # one week of epoch-ms

    def ts(week, extra_ms=0):
        return pd.Timestamp(week * wk + extra_ms, unit="ms")

    rows = [
        # user 1: cohort week 100, active weeks 100, 102 (two events in 102)
        (1, ts(100)), (1, ts(102)), (1, ts(102, 5000)),
        # user 2: cohort week 100, active week 100 only
        (2, ts(100, 99)),
        # user 3: cohort week 101, active 101 and 103
        (3, ts(101)), (3, ts(103)),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts"])
    df["event_id"] = range(len(df))
    import os, tempfile
    d = tempfile.mkdtemp(dir="/tmp")
    df.to_parquet(os.path.join(d, "events.parquet"))
    out = q_retention_cohorts(d)
    got = {
        (c, o): n
        for c, o, n in out[["cohort_week", "week_offset", "n_users"]].itertuples(
            index=False
        )
    }
    assert got == {(100, 0): 2, (100, 2): 1, (101, 0): 1, (101, 2): 1}


def test_cube_acctbal_levels(ray_session):
    """CUBE output contains all four grouping sets and the transposed
    per-segment level sums match the finest level."""
    from graphlite_ray.pipelines.relational import q_cube_acctbal

    out = q_cube_acctbal("/root/testdata/sf0.001")
    finest = out[(out.c_nationkey >= 0) & (out.c_mktsegment != "ALL")]
    by_seg = out[(out.c_nationkey == -1) & (out.c_mktsegment != "ALL")]
    by_nat = out[(out.c_nationkey >= 0) & (out.c_mktsegment == "ALL")]
    grand = out[(out.c_nationkey == -1) & (out.c_mktsegment == "ALL")]
    assert len(grand) == 1
    assert int(grand["n"].iloc[0]) == int(finest["n"].sum())
    assert int(by_seg["n"].sum()) == int(finest["n"].sum())
    assert int(by_nat["n"].sum()) == int(finest["n"].sum())
    for seg, n in by_seg[["c_mktsegment", "n"]].itertuples(index=False):
        assert n == finest[finest.c_mktsegment == seg]["n"].sum()


def test_full_outer_activity_both_directions(ray_session, tmp_path):
    """FULL OUTER semantics with BOTH unmatched directions planted:
    a user with events but no customer row survives with the out-of-domain
    balance sentinel; a customer (incl. negative balance) with no events
    survives with n_events=0; matched rows carry both values."""
    import os

    from graphlite_ray.pipelines.relational import q_full_outer_activity

    d = str(tmp_path)
    ev = pd.DataFrame(
        {
            "user_id": [1, 1, 2, 7, 7, 7],
            "ts": pd.to_datetime([1000, 2000, 3000, 4000, 5000, 6000], unit="ms"),
        }
    )
    ev["event_id"] = range(len(ev))
    cust = pd.DataFrame(
        {"c_custkey": [1, 2, 3], "c_acctbal": [10.505, -999.99, 0.0]}
    )
    ev.to_parquet(os.path.join(d, "events.parquet"))
    cust.to_parquet(os.path.join(d, "customer.parquet"))
    out = q_full_outer_activity(d).set_index("uid")
    assert out.loc[7, "acctbal"] == -99999.0 and out.loc[7, "n_events"] == 3
    assert out.loc[3, "n_events"] == 0 and out.loc[3, "acctbal"] == 0.0
    assert out.loc[2, "acctbal"] == -999.99 and out.loc[2, "n_events"] == 1
    assert out.loc[1, "n_events"] == 2 and abs(out.loc[1, "acctbal"] - 10.51) < 1e-9
    assert len(out) == 4


def test_biased_walks_reference_parity(ray_session):
    """Second-order biased walks vs a pure-Python reference walker: same
    weighted (key, cand, copy)-argmin at every hop, self-loops/parallel
    edges canonicalized away, dead ends stop the walk early, and the
    NEAR class (prev->cand edge) actually gets W_NEAR copies."""
    from graphlite_ray.pipelines.walks import (
        W_FAR,
        W_NEAR,
        W_RET,
        biased_walks,
        walk_key,
    )

    def ref_walks(pairs, seeds, length):
        es = {(a, b) for a, b in pairs if a != b}
        adj = {}
        for a, b in es:
            adj.setdefault(a, set()).add(b)
        rows = []
        for w, seed in enumerate(sorted(seeds)):
            prev, cur = -1, seed
            rows.append((w, 0, seed))
            for s in range(1, length + 1):
                cands = sorted(adj.get(cur, ()))
                if not cands:
                    break
                best = None
                for c in cands:
                    if prev < 0:
                        wt = 1
                    elif c == prev:
                        wt = W_RET
                    elif (prev, c) in es:
                        wt = W_NEAR
                    else:
                        wt = W_FAR
                    for cp in range(wt):
                        k = walk_key(
                            np.array([c], np.int64),
                            np.array([w], np.int64),
                            s,
                            np.array([cp], np.int64),
                        )[0]
                        t = (int(k), c, cp)
                        if best is None or t < best:
                            best = t
                prev, cur = cur, best[1]
                rows.append((w, s, cur))
        return pd.DataFrame(
            rows, columns=["walk_id", "step", "vertex_id"]
        ).sort_values(["walk_id", "step"], ignore_index=True)

    rng = np.random.default_rng(5)
    pairs = [(int(rng.integers(0, 25)), int(rng.integers(0, 25))) for _ in range(120)]
    pairs += [(1, 1), (3, 4), (3, 4)]
    seeds = [0, 3, 7, 12]
    df = pd.DataFrame(pairs, columns=["src", "dst"])
    got = biased_walks(ray.data.from_pandas(df).repartition(3), seeds, length=6, B=8)
    pd.testing.assert_frame_equal(got, ref_walks(pairs, seeds, 6))
    # the walks really are second-order: on the triangle-with-tail graph
    # 0->1, 1->{0,2}, 0->2 the NEAR weight (edge 0->2 exists) gives cand 2
    # W_NEAR copies vs W_RET for returning to 0 — both appear in the key
    # competition, so just assert the deterministic outcome is stable
    tri = pd.DataFrame([(0, 1), (1, 0), (1, 2), (0, 2)], columns=["src", "dst"])
    t1 = biased_walks(ray.data.from_pandas(tri), [0], length=2, B=4)
    t2 = biased_walks(ray.data.from_pandas(tri), [0], length=2, B=8)
    pd.testing.assert_frame_equal(t1, t2)  # bucket-count invariant


def test_sage_features_hand_graph(ray_session, tmp_path):
    """Pooled SAGE featurization on a hand graph: pooled vector = sum of
    integer url-token features over {seed} + every tree row (duplicates
    kept), dense zero-filled seeds x dim grid."""
    import re

    from graphlite_ray.functions.hashing import hash_strings
    from graphlite_ray.pipelines.sampling import khop_sample, sage_features

    rows = [(i, (i * 7 + j) % 40) for i in range(40) for j in range(1, 8)]
    edf = pd.DataFrame(rows, columns=["src", "dst"])
    urls = {i: f"https://x{i}.test/a{i}-{i % 3}" for i in range(40)}
    umap = pd.DataFrame(
        {"vertex_id": list(urls), "url": [urls[i] for i in urls]}
    )
    dim = 8
    out = sage_features(
        ray.data.from_pandas(edf).repartition(4),
        ray.data.from_pandas(umap).repartition(2),
        str(tmp_path),
        hops=2,
        fanout=3,
        seed_mod=8,
        dim=dim,
        B=8,
    )
    tree = khop_sample(
        ray.data.from_pandas(edf).repartition(4),
        str(tmp_path / "t2"),
        hops=2,
        fanout=3,
        seed_mod=8,
        B=8,
    )

    def feat(u):
        tk = [x for x in re.split(r"[^a-z0-9]+", u.lower()) if x]
        v = np.zeros(dim, np.int64)
        if tk:
            b = (hash_strings(tk) % np.uint64(dim)).astype(np.int64)
            np.add.at(v, b, 1)
        return v

    exp = {}
    for s in sorted(tree["seed"].unique()):
        v = feat(urls[s]).copy()
        for vid in tree[tree.seed == s]["vertex_id"]:
            v += feat(urls[int(vid)])
        exp[s] = v
    assert len(out) == len(exp) * dim
    for (s, d, f) in out.itertuples(index=False):
        assert f == exp[s][d], (s, d)


def test_skipgram_pairs_window_semantics(ray_session):
    """Skip-gram pairs: both directions within the window, never across
    walks, never past a dead-end truncation, center_step preserved."""
    from graphlite_ray.pipelines.walks import skipgram_pairs

    trace = pd.DataFrame(
        {
            "walk_id": [0, 0, 0, 0, 1, 1],
            "step": [0, 1, 2, 3, 0, 1],
            "vertex_id": [10, 11, 12, 13, 20, 21],
        }
    )
    out = skipgram_pairs(trace, window=2)
    got = set(
        (w, cs, c, x)
        for w, cs, c, x in out.itertuples(index=False)
    )
    # walk 0 step 1 sees steps 0, 2, 3 (within +-2) but not beyond
    assert (0, 1, 11, 10) in got and (0, 1, 11, 12) in got and (0, 1, 11, 13) in got
    # walk boundaries respected
    assert not any(c == 20 or x == 20 for w, cs, c, x in got if w == 0)
    # short walk 1: exactly two pairs
    assert {(1, 0, 20, 21), (1, 1, 21, 20)} == {t for t in got if t[0] == 1}
    # counts: walk 0 len 4, window 2 -> sum over steps of reachable = 3+3+3+3=... 
    assert len([t for t in got if t[0] == 0]) == 10


def test_upsert_corpus_semantics(ray_session, tmp_path):
    """Upsert invariants: higher version replaces, delta wins a version
    tie, untouched keys survive, new keys insert, untouched bucket files
    keep their bytes (only delta-hit buckets rewrite), and re-applying
    the same delta is idempotent."""
    import os

    from graphlite_ray.pipelines.joins import write_bucketed
    from graphlite_ray.stages.curation import upsert_corpus

    B = 4
    base = pd.DataFrame(
        {"doc_id": [0, 1, 2, 3, 4, 5], "version": 1, "n_chars": [10, 11, 12, 13, 14, 15]}
    )
    store = str(tmp_path / "store")
    write_bucketed(ray.data.from_pandas(base), "doc_id", B, store)
    mtimes = {
        f: os.path.getmtime(os.path.join(store, f)) for f in os.listdir(store)
    }
    delta = pd.DataFrame(
        {
            # key 0: higher version; key 1: SAME version (delta wins);
            # key 100: brand new (bucket 0)
            "doc_id": [0, 1, 100],
            "version": [2, 1, 1],
            "n_chars": [99, 88, 77],
        }
    )
    upsert_corpus(store, ray.data.from_pandas(delta), B=B)
    got = (
        ray.data.read_parquet(store)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    idx = got.set_index("doc_id")
    assert idx.loc[0, "n_chars"] == 99 and idx.loc[0, "version"] == 2
    assert idx.loc[1, "n_chars"] == 88  # tie -> delta
    assert idx.loc[100, "n_chars"] == 77
    assert idx.loc[2, "n_chars"] == 12 and len(got) == 7
    # delta touched keys 0,1,100 -> buckets 0 and 1; buckets 2,3 untouched
    for f, m in mtimes.items():
        b = int(f.split("_")[1].split(".")[0])
        if b in (2, 3):
            assert os.path.getmtime(os.path.join(store, f)) == m, f
    # idempotent re-apply
    upsert_corpus(store, ray.data.from_pandas(delta), B=B)
    got2 = (
        ray.data.read_parquet(store)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(got, got2)


def test_daily_dense_gap_fill(ray_session, tmp_path):
    """Resample densification: a 3-day gap appears as zero rows for every
    type, counts land on the right integer epoch day."""
    import os

    from graphlite_ray.pipelines.relational import q_daily_dense

    day = 86_400_000

    def ts(d, off_ms=0):
        return pd.Timestamp(d * day + off_ms, unit="ms")

    ev = pd.DataFrame(
        {
            "event_id": range(5),
            "user_id": 1,
            "ts": [ts(100), ts(100, 5), ts(104), ts(100), ts(104, 9)],
            "event_type": ["a", "a", "a", "b", "b"],
        }
    )
    d = str(tmp_path)
    ev.to_parquet(os.path.join(d, "events.parquet"))
    out = q_daily_dense(d)
    assert len(out) == 2 * 5  # 2 types x days 100..104
    g = out.set_index(["event_type", "day"])["n"]
    assert g[("a", 100)] == 2 and g[("a", 104)] == 1
    assert g[("b", 100)] == 1 and g[("b", 104)] == 1
    for dd in (101, 102, 103):
        assert g[("a", dd)] == 0 and g[("b", dd)] == 0


def test_mode_and_sessionized_hand_events(ray_session, tmp_path):
    """Mode tie-break (count desc, type asc) and session index boundaries
    (gap strictly greater than 30min starts a new session)."""
    import os

    from graphlite_ray.pipelines.relational import (
        q_mode_per_user,
        q_sessionized_events,
    )

    m = 60_000

    def ts(mins):
        return pd.Timestamp(mins * m, unit="ms")

    ev = pd.DataFrame(
        {
            "event_id": range(7),
            "user_id": [1, 1, 1, 1, 2, 2, 2],
            "ts": [ts(0), ts(10), ts(41), ts(70), ts(0), ts(30), ts(61)],
            "event_type": ["b", "a", "a", "b", "x", "x", "y"],
        }
    )
    d = str(tmp_path)
    ev.to_parquet(os.path.join(d, "events.parquet"))
    mode = q_mode_per_user(d).set_index("user_id")
    # user 1: a=2, b=2 -> tie -> 'a'; user 2: x=2
    assert mode.loc[1, "mode_type"] == "a" and mode.loc[1, "n"] == 2
    assert mode.loc[2, "mode_type"] == "x" and mode.loc[2, "n"] == 2
    sess = q_sessionized_events(d).set_index("event_id")["session_seq"]
    # user 1: 0,10 together; 41 (gap 31>30) new; 70 (gap 29) same
    assert sess[0] == 1 and sess[1] == 1 and sess[2] == 2 and sess[3] == 2
    # user 2: 0,30 together (gap exactly 30 min = not greater); 61 new
    assert sess[4] == 1 and sess[5] == 1 and sess[6] == 2


def test_densest_subgraph_k5_plus_path(ray_session, tmp_path):
    """Bahmani peeling on K5 + a 10-vertex path: round 0 removes the path
    (deg <= avg of the union), round 1 removes K5; densest round is K5
    (density 2.0 > round 0's 38/30) by exact integer cross-compare."""
    import ray.data as rd

    from graphlite_ray.pipelines.linkgraph import run_on_edge_dataset
    from graphlite_ray.programs import DensestSubgraph

    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    path = [(10 + i, 11 + i) for i in range(9)]
    df = pd.DataFrame(k5 + path, columns=["src", "dst"])
    res = run_on_edge_dataset(
        "densest_subgraph", rd.from_pandas(df).repartition(3), str(tmp_path), P=4
    )
    assert res.halted
    hv = res.aggr_history[-1]["histV"]
    he = res.aggr_history[-1]["histE2"]
    assert hv[0] == 15 and he[0] == 38  # path degs 2*(9 edges)*2... 20+18
    assert hv[1] == 5 and he[1] == 20
    best = DensestSubgraph.densest_round(hv, he)
    assert best == 1
    vals = res.values().to_pandas()
    members = set(vals[vals["value"] >= best]["vertex_id"])
    assert members == {0, 1, 2, 3, 4}
    assert set(vals[vals["value"] == 0]["vertex_id"]) == set(range(10, 20))


def test_rich_club_hand_graph(ray_session, tmp_path):
    """Rich-club on K4 + two pendant vertices: pendant degs 1, K4 members
    attached to pendants have deg 4; phi(1) counts only the K4-internal
    edges over the deg>1 club."""
    from graphlite_ray.pipelines.graphstats import rich_club

    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    pend = [(0, 10), (1, 11)]
    df = pd.DataFrame(k4 + pend + [(2, 2), (0, 1)], columns=["src", "dst"])
    out = rich_club(
        ray.data.from_pandas(df).repartition(3), str(tmp_path), B=4
    ).set_index("k")
    # degrees: 0->4, 1->4, 2->3, 3->3, 10->1, 11->1 (self-loop + dup dropped)
    # k=1: club = {0,1,2,3} (deg>1), E_1 = 6 K4 edges -> phi = 12/12 = 1.0
    assert out.loc[1, "n_k"] == 4 and out.loc[1, "e_k"] == 6
    assert abs(out.loc[1, "phi"] - 1.0) < 1e-12
    # k=3: club = {0,1} -> one edge -> phi = 1.0
    assert out.loc[3, "n_k"] == 2 and out.loc[3, "e_k"] == 1
    # k=4: empty club
    assert out.loc[4, "n_k"] == 0 and out.loc[4, "phi"] == 0.0
