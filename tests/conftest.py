import os

import numpy as np
import pytest
import ray


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    # Ray workers import graphlite_ray (and tests.*) from this checkout,
    # whatever directory pytest runs in
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture()
def work_dir(tmp_path):
    return str(tmp_path)


def pagerank_oracle(src: np.ndarray, dst: np.ndarray, eps: float = 1e-6, max_ss: int = 200):
    """Dense numpy simulation of the EXACT reference PageRank semantics
    (`example/PageRankVertex.cc:145-172`): same recurrence, same aggregator
    off-by-one, same halting rule. Independent of the engine code path."""
    vids = np.unique(np.concatenate([src, dst]))
    n = len(vids)
    s = np.searchsorted(vids, src)
    d = np.searchsorted(vids, dst)
    outdeg = np.bincount(s, minlength=n)
    values = np.zeros(n)
    inbox = np.zeros(n)  # message sums for the next superstep
    prev_delta = 0.0
    for ss in range(max_ss):
        if ss == 0:
            values[:] = 1.0
        else:
            if ss >= 2 and prev_delta < eps:
                return vids, values, ss  # everyone halts, nothing sent
            new = 0.15 + 0.85 * inbox
            prev_delta = np.abs(values - new).sum()
            values = new
        contrib = np.divide(values, outdeg, out=np.zeros(n), where=outdeg > 0)
        inbox = np.bincount(d, weights=contrib[s], minlength=n)
    return vids, values, max_ss


def cc_oracle(src: np.ndarray, dst: np.ndarray):
    """Union-find weakly-connected components; label = min vid."""
    vids = np.unique(np.concatenate([src, dst]))
    parent = {int(v): int(v) for v in vids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src.tolist(), dst.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {int(v): find(int(v)) for v in vids}


def lpa_oracle(src: np.ndarray, dst: np.ndarray, max_ss: int = 20):
    """Dense simulation of our documented synchronous LPA spec: symmetrized
    multigraph, mode of neighbor labels with min-label tie-break."""
    vids = np.unique(np.concatenate([src, dst]))
    n = len(vids)
    s = np.searchsorted(vids, np.concatenate([src, dst]))
    d = np.searchsorted(vids, np.concatenate([dst, src]))
    labels = vids.copy()
    for _ in range(1, max_ss):
        counts = {}
        for a, b in zip(d.tolist(), s.tolist()):
            key = (a, int(labels[b]))
            counts[key] = counts.get(key, 0) + 1
        new = labels.copy()
        best: dict[int, tuple[int, int]] = {}
        for (a, lab), c in counts.items():
            cur = best.get(a)
            if cur is None or (c, -lab) > (cur[0], -cur[1]):
                best[a] = (c, lab)
        for a, (_, lab) in best.items():
            new[a] = lab
        if np.array_equal(new, labels):
            return vids, labels
        labels = new
    return vids, labels


def random_digraph(n: int, m: int, seed: int, with_dangling: bool = True):
    rng = np.random.RandomState(seed)
    src = rng.randint(0, n, size=m).astype(np.int64)
    dst = rng.randint(0, n, size=m).astype(np.int64)
    if with_dangling:
        # make some vertices dst-only (dangling): remove them from src
        dang = rng.choice(n, size=max(1, n // 10), replace=False)
        mask = ~np.isin(src, dang)
        src, dst = src[mask], dst[mask]
    return src, dst
