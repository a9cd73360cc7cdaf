"""Property-based tests (hypothesis) for the message combiners — the
correctness kernel of producer-side combining (SURVEY.md §2.12: results
must be invariant to message order and grouping). The combines are the
`worker.COMBINERS` rows."""

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from graphlite_ray.worker import COMBINERS

combine_sum = COMBINERS["sum"].reduce
combine_min = COMBINERS["min"].reduce
combine_max = COMBINERS["max"].reduce
combine_sum_by_key = COMBINERS["sum_by_key"].reduce

ids = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200)


@settings(max_examples=50, deadline=None)
@given(ids, st.randoms())
def test_combine_sum_matches_pandas_and_is_order_invariant(dst_list, rnd):
    dst = np.array(dst_list, np.int64)
    val = np.arange(len(dst), dtype=np.float64) * 0.5 + 1
    d1, v1 = combine_sum(dst, val)
    want = pd.Series(val).groupby(dst).sum()
    assert np.array_equal(d1, want.index.to_numpy())
    assert np.allclose(v1, want.to_numpy())
    # order invariance (commutative reduction)
    perm = np.array(rnd.sample(range(len(dst)), len(dst)))
    d2, v2 = combine_sum(dst[perm], val[perm])
    assert np.array_equal(d1, d2)
    assert np.allclose(v1, v2)


@settings(max_examples=50, deadline=None)
@given(ids)
def test_combine_min_matches_pandas(dst_list):
    dst = np.array(dst_list, np.int64)
    val = (np.arange(len(dst), dtype=np.int64) * 37) % 11
    d, v = combine_min(dst, val)
    want = pd.Series(val).groupby(dst).min()
    assert np.array_equal(d, want.index.to_numpy())
    assert np.array_equal(v, want.to_numpy())


@settings(max_examples=50, deadline=None)
@given(ids, ids)
def test_combine_sum_by_key_matches_pandas(dst_list, key_list):
    n = min(len(dst_list), len(key_list))
    dst = np.array(dst_list[:n], np.int64)
    key = np.array(key_list[:n], np.int64)
    cnt = np.ones(n, np.int64)
    d, k, c = combine_sum_by_key(dst, key, cnt)
    want = (
        pd.DataFrame({"d": dst, "k": key, "c": cnt})
        .groupby(["d", "k"], as_index=False)["c"]
        .sum()
        .sort_values(["d", "k"], ignore_index=True)
    )
    assert np.array_equal(d, want["d"].to_numpy())
    assert np.array_equal(k, want["k"].to_numpy())
    assert np.array_equal(c, want["c"].to_numpy())
    # two-level combine: combining combined output is a no-op
    d2, k2, c2 = combine_sum_by_key(d, k, c)
    assert np.array_equal(c, c2) and np.array_equal(d, d2) and np.array_equal(k, k2)


# ------------------------------------ shared segment reduce vs the sort path


def _lexsort_min(dst, val):
    """The sort-path min the "min" row replaced: first row per dst of a
    lexsort by (dst, val)."""
    order = np.lexsort((val, dst))
    d, v = dst[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    return d[first], v[first]


def _lexsort_max(dst, val):
    """The sort-path max the "max" row replaced (lexsort by (dst, -val))."""
    order = np.lexsort((-val, dst))
    d, v = dst[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    return d[first], v[first]


@st.composite
def messages(draw, dtype):
    """(dst, val) with repeats, and for float64 NaN, +-inf and signed zeros."""
    n = draw(st.integers(1, 200))
    dst = np.array(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)), np.int64)
    if dtype == np.int64:
        # no INT64_MIN: the sort-path max negates the values
        elems = st.integers(-(2**63) + 1, 2**63 - 1)
    else:
        elems = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])
    pool = draw(st.lists(elems, min_size=1, max_size=6))
    val = draw(st.lists(st.sampled_from(pool) | elems, min_size=n, max_size=n))
    return dst, np.array(val, dtype)


def _bits(a: np.ndarray) -> bytes:
    """Bytes with every zero as +0.0: a segment holding both -0.0 and 0.0
    may return either (`worker._reduce_segments`)."""
    return np.where(a == 0, np.zeros_like(a), a).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.int64, np.float64]).flatmap(messages))
def test_min_max_rows_bitwise_match_sort_path(msgs):
    dst, val = msgs
    for combine, reference in ((combine_min, _lexsort_min), (combine_max, _lexsort_max)):
        d, v = combine(dst, val)
        want_d, want_v = reference(dst, val)
        assert np.array_equal(d, want_d)
        assert v.dtype == want_v.dtype
        assert _bits(v) == _bits(want_v)


@settings(max_examples=50, deadline=None)
@given(ids, st.integers(0, 2**32 - 1))
def test_sum_row_dense_delivery_is_bitwise_combine_sum(dst_list, seed):
    idx = np.array(dst_list, np.int64)
    rng = np.random.default_rng(seed)
    val = rng.standard_normal(len(idx)) * 10.0 ** rng.integers(-3, 6, len(idx))
    got = COMBINERS["sum"].deliver(51, idx, val)
    want = combine_sum(idx, val)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
