"""The link-graph workloads: inputs, set-up, one timed job, oracle checks
and, for the traced run, a pass that times the single layers.

Each workload is a closed loop: one driver submits one job at a time and
waits for it. Why each exists is in README.md.
"""

from __future__ import annotations

import os
import shutil
import statistics
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

import graphlite_ray.sources.pages as pages_src
from graphlite_ray.engine import BSPResult, run_bsp
from graphlite_ray.pipelines.linkgraph import prepare_edges, prepare_graph, result_with_urls
from graphlite_ray.pipelines.triangles import triangle_count
from graphlite_ray.programs import ConnectedComponents, LabelPropagation, PageRank
from graphlite_ray.state.csr import load_graph_meta

from perfbench import oracles
from perfbench.tracing import Tracer, replay, total

# Input sizes per scale. "full" is what the benchmark measures; "tiny" is
# the same code path at a size the self-check tests can afford.
SIZES = {
    "full": {"graph_pages": 20_000, "ckpt_stop": 10},
    "tiny": {"graph_pages": 500, "ckpt_stop": 3},
}
CACHE_ENTRIES = 8  # input cache entries kept on disk, newest first


class InputCache:
    """Inputs and their oracle answers, one directory per (workload, size,
    seed) key, published by rename with a `_COMPLETE` marker written last.
    Only the newest CACHE_ENTRIES entries are kept."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def entry(self, key: str, build) -> str:
        path = os.path.join(self.root, key)
        if os.path.exists(os.path.join(path, "_COMPLETE")):
            os.utime(path)
            return path
        shutil.rmtree(path, ignore_errors=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        build(tmp)
        with open(os.path.join(tmp, "_COMPLETE"), "w") as f:
            f.write("ok")
        os.rename(tmp, path)
        self._evict(keep=path)
        return path

    def _evict(self, keep: str) -> None:
        entries = [os.path.join(self.root, e) for e in os.listdir(self.root)]
        entries = sorted((e for e in entries if e != keep), key=os.path.getmtime, reverse=True)
        for stale in entries[CACHE_ENTRIES - 1:]:
            shutil.rmtree(stale, ignore_errors=True)


def _build_pages(dest: str, n_pages: int, seed: int) -> str:
    pages_src.CACHE_ROOT = dest
    os.rename(pages_src.pages_path(n_pages, seed), os.path.join(dest, "pages"))
    return os.path.join(dest, "pages")


def _build_crawl(dest: str, n_pages: int, seed: int) -> None:
    """Pages plus every crawl oracle, from the generator's own edge list."""
    _build_pages(dest, n_pages, seed)
    src, dst = oracles.crawl_edges(pages_src.expected_graph(n_pages, seed)[1])
    vids, pr = oracles.pagerank(src, dst)
    cc_vids, cc = oracles.components(src, dst)
    lpa_vids, lpa = oracles.label_propagation(src, dst)
    if not (np.array_equal(vids, cc_vids) and np.array_equal(vids, lpa_vids)):
        raise RuntimeError("oracle vertex sets disagree")
    np.savez(os.path.join(dest, "oracle.npz"), vids=vids, pagerank=pr,
             connected_components=cc, label_propagation=lpa,
             triangles=oracles.triangles(src, dst))


def read_values(result: BSPResult) -> tuple[np.ndarray, np.ndarray]:
    """Final per-vertex values from the final checkpoint, sorted by vertex id."""
    d = os.path.join(result.ckpt_dir, f"ss_{result.final_superstep}")
    files = sorted(f for f in os.listdir(d) if f.startswith("values_p") and f.endswith(".parquet"))
    t = pa.concat_tables([pq.read_table(os.path.join(d, f), columns=["vertex_id", "value"])
                          for f in files])
    vids = t["vertex_id"].to_numpy()
    order = np.argsort(vids)
    return vids[order], t["value"].to_numpy()[order]


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def _shard_edge_skew(graph_dir: str) -> float:
    """max / median edges per shard, from the shard files' row counts."""
    P = int(load_graph_meta(graph_dir)["P"])
    rows = []
    for p in range(P):
        path = os.path.join(graph_dir, f"edges_p{p}.parquet")
        rows.append(pq.ParquetFile(path).metadata.num_rows if os.path.exists(path) else 0)
    return max(rows) / max(statistics.median(rows), 1)


class Job:
    """What one job left behind: its BSP runs, its oracle checks (run after
    the job's clock stops, one operation each), and what the traced run's
    layer pass needs to replay it."""

    def __init__(self):
        self.bsp: list[BSPResult] = []
        self.checks: list[Callable[[], bool]] = []
        self.replays: list[tuple] = []  # (program factory, graph dir, run kwargs, oracle key)


class Workload:
    name = ""
    P = 4
    ops_per_job = 1
    pages_key = ""  # SIZES entry of the crawl pages table the workload runs on

    def __init__(self, seed: int, scale: str, cache: InputCache, tr: Tracer):
        self.seed = seed
        self.sizes = SIZES[scale]
        self.cache = cache
        self.tr = tr
        self.oracle: dict = {}

    # -- inputs (cached; benchmark-owned, not timed as set-up) ---------------

    def inputs(self) -> dict:
        """Materialise the inputs; returns their sizes for the run metadata."""
        n = self.n_pages = self.sizes[self.pages_key]
        entry = self.cache.entry(f"crawl-n{n}-s{self.seed}",
                                 lambda d: _build_crawl(d, n, self.seed))
        with np.load(os.path.join(entry, "oracle.npz")) as z:
            self.oracle = {k: z[k] for k in z.files}
        self.pages = os.path.join(entry, "pages")
        return {"pages": n, "vertices": len(self.oracle["vids"]), "P": self.P}

    def prebuild(self, work_dir: str) -> None:
        """System set-up done once per run before any job (timed in setup_s)."""

    def job(self, work_dir: str) -> Job:
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------------

    def _bsp(self, job: Job, program, graph_dir: str, ckpt_dir: str, **kw) -> BSPResult:
        with self.tr.span("engine.run_bsp", resume=bool(kw.get("resume"))) as sp:
            r = run_bsp(program, graph_dir, ckpt_dir, **kw)
        if self.tr.enabled:
            sp["supersteps"] = r.supersteps_run
            sp["superstep_s"] = sum(m["wall_s"] for m in r.metrics)
            sp["slowest_part_s"] = sum(m["max_part_wall_s"] for m in r.metrics)
        job.bsp.append(r)
        return r

    def _matches(self, key: str, vids: np.ndarray, vals: np.ndarray) -> bool:
        match = oracles.pagerank_matches if key == "pagerank" else oracles.labels_match
        return match(vids, vals, self.oracle["vids"], self.oracle[key])

    def _check(self, job: Job, key: str, result: BSPResult) -> None:
        job.checks.append(lambda: self._matches(key, *read_values(result)))

    def _extract(self, pages: str, work_dir: str) -> str:
        with self.tr.span("stages.extract.prepare_edges", pages=self.n_pages) as sp:
            edges_dir = prepare_edges(pages, work_dir, self.P)
        if self.tr.enabled:
            sp["edges"] = sum(pq.ParquetFile(os.path.join(edges_dir, f)).metadata.num_rows
                              for f in os.listdir(edges_dir) if f.endswith(".parquet"))
        return edges_dir

    def _csr(self, pages: str, work_dir: str, symmetrize: bool) -> str:
        with self.tr.span("state.csr.prepare_graph") as sp:
            g = prepare_graph(pages, work_dir, self.P, symmetrize=symmetrize)
        sp["edges"] = load_graph_meta(g)["n_edges"]
        return g

    # -- traced run only -----------------------------------------------------

    def layer_pass(self, job: Job, work_dir: str) -> list[Callable[[], bool]]:
        """Time the layers the job itself does not separate: the worker and
        checkpoint layers by in-process replay of the job's BSP runs, shard
        load and skew, a resume, and the crawl layers the job does not call
        (extraction, directed CSR, triangles, url join) on the workload's pages
        in a fresh work dir. Returns the oracle checks of what it ran."""
        checks = []
        for i, (make, graph_dir, kw, key) in enumerate(job.replays):
            ckpt = os.path.join(work_dir, f"replay_{i}")
            parts = replay(self.tr, make(), graph_dir, ckpt, **kw)
            vids = np.concatenate([v for v, _ in parts.values()])
            vals = np.concatenate([x for _, x in parts.values()])
            order = np.argsort(vids)
            checks.append(lambda k=key, v=vids[order], x=vals[order]: self._matches(k, v, x))
        make, graph_dir, kw, _ = job.replays[0]
        with self.tr.span("state.csr.shards", skew=_shard_edge_skew(graph_dir)):
            pass
        with self.tr.span("engine.run_bsp.resume_probe"):
            run_bsp(make(), graph_dir, job.bsp[0].ckpt_dir, resume=True,
                    max_supersteps=kw.get("max_supersteps", 200))

        layer_dir = os.path.join(work_dir, "layers")
        self._extract(self.pages, layer_dir)
        self._csr(self.pages, layer_dir, symmetrize=False)
        edges = ray.data.read_parquet(os.path.join(layer_dir, "edges"), columns=["src", "dst"])
        with self.tr.span("pipelines.triangles.triangle_count") as sp:
            n = sp["count"] = triangle_count(edges, work_dir=os.path.join(layer_dir, "triangles"))
        with self.tr.span("pipelines.linkgraph.result_with_urls") as sp:
            rows = sp["rows"] = result_with_urls(job.bsp[-1], layer_dir).count()
        checks.append(lambda: n == int(self.oracle["triangles"]))
        checks.append(lambda: rows == len(self.oracle["vids"]))
        return checks


class BSPBarrier(Workload):
    """PageRank, CC and LPA back to back on prebuilt P=4 crawl shards."""

    name = "bsp_barrier"
    ops_per_job = 3
    pages_key = "graph_pages"

    def prebuild(self, work_dir: str) -> None:
        self._extract(self.pages, work_dir)
        self.graph = self._csr(self.pages, work_dir, symmetrize=False)
        self.graph_sym = self._csr(self.pages, work_dir, symmetrize=True)

    def job(self, work_dir: str) -> Job:
        job = Job()
        for make, gd, key in ((PageRank, self.graph, "pagerank"),
                              (ConnectedComponents, self.graph_sym, "connected_components"),
                              (LabelPropagation, self.graph_sym, "label_propagation")):
            r = self._bsp(job, make(), gd, os.path.join(work_dir, f"ckpt_{key}"))
            self._check(job, key, r)
            job.replays.append((make, gd, {}, key))
        return job


class CheckpointResume(Workload):
    """LPA checkpointing every superstep, stopped after `ckpt_stop`
    supersteps, then resumed from the last checkpoint to its end."""

    name = "ckpt_resume"
    ops_per_job = 1
    pages_key = "graph_pages"

    def prebuild(self, work_dir: str) -> None:
        self._extract(self.pages, work_dir)
        self.graph_sym = self._csr(self.pages, work_dir, symmetrize=True)

    def job(self, work_dir: str) -> Job:
        job = Job()
        ckpt = os.path.join(work_dir, "ckpt_label_propagation")
        stop = self.sizes["ckpt_stop"]
        first = self._bsp(job, LabelPropagation(), self.graph_sym, ckpt,
                          max_supersteps=stop, ckpt_every=1)
        resumed = self._bsp(job, LabelPropagation(), self.graph_sym, ckpt,
                            ckpt_every=1, resume=True)
        stopped = not first.halted and first.final_superstep == stop - 1
        job.checks.append(lambda: stopped and resumed.halted
                          and self._matches("label_propagation", *read_values(resumed)))
        job.replays.append((LabelPropagation, self.graph_sym,
                            {"ckpt_every": 1, "split_at": stop - 1},
                            "label_propagation"))
        return job


WORKLOADS = {w.name: w for w in (BSPBarrier, CheckpointResume)}


def layer_metrics(job_spans: list[list[dict]], pass_spans: list[dict], job_walls: list[float],
                  job_disk: list[tuple[int, int]]) -> dict[str, float]:
    """Per-layer metrics. Each is the median over traced jobs of its per-job
    total where the job itself calls the layer, otherwise the layer pass's
    value."""
    def derive(spans: list[dict]) -> dict[str, float]:
        out: dict[str, float] = {}
        ext = total(spans, "stages.extract.prepare_edges")
        if ext:
            out["extract.s"] = ext
            out["extract.edges"] = total(spans, "stages.extract.prepare_edges", "edges")
            out["extract.pages_per_s"] = total(spans, "stages.extract.prepare_edges", "pages") / ext
        build = total(spans, "state.csr.prepare_graph")
        if build:
            out["csr.build_s"] = build
            out["csr.edges_per_s"] = total(spans, "state.csr.prepare_graph", "edges") / build
        if any(s["name"] == "state.csr.CSRShard.load" for s in spans):
            out["csr.load_s"] = total(spans, "state.csr.CSRShard.load")
        if any(s["name"] == "state.csr.shards" for s in spans):
            out["csr.shard_edge_skew"] = total(spans, "state.csr.shards", "skew")
        steps = [s for s in spans if s["name"] == "worker.PartitionWorker.step"]
        if steps:
            sent = total(steps, "worker.PartitionWorker.step", "sent")
            rows = total(steps, "worker.PartitionWorker.step", "block_rows_out")
            out["worker.step_s"] = total(steps, "worker.PartitionWorker.step")
            out["worker.step_max_part_s"] = total(steps, "worker.PartitionWorker.step", "max_part_s")
            out["worker.msgs_recv"] = total(steps, "worker.PartitionWorker.step", "recv")
            out["worker.msgs_sent"] = sent
            out["worker.block_rows_out"] = rows
            out["worker.combine_ratio"] = rows / sent if sent else 1.0
            out["worker.bytes_out"] = total(steps, "worker.PartitionWorker.step", "bytes_out")
            out["ckpt.write_s"] = total(spans, "worker.PartitionWorker.checkpoint")
            out["ckpt.restore_s"] = total(spans, "worker.PartitionWorker.restore")
        runs = [s for s in spans if s["name"] == "engine.run_bsp"]
        if runs:
            loop = total(runs, "engine.run_bsp", "superstep_s")
            slowest = total(runs, "engine.run_bsp", "slowest_part_s")
            out["engine.supersteps"] = total(runs, "engine.run_bsp", "supersteps")
            out["engine.superstep_s"] = loop
            out["engine.slowest_part_s"] = slowest
            out["engine.barrier_s"] = loop - slowest
            out["engine.barrier_share"] = (loop - slowest) / loop
            out["engine.outside_loop_s"] = total(runs, "engine.run_bsp") - loop
        resumed = [s for s in runs if s.get("resume")]
        if resumed:
            out["ckpt.resume_s"] = total(resumed, "engine.run_bsp")
        elif any(s["name"] == "engine.run_bsp.resume_probe" for s in spans):
            out["ckpt.resume_s"] = total(spans, "engine.run_bsp.resume_probe")
        if any(s["name"] == "pipelines.triangles.triangle_count" for s in spans):
            out["triangles.s"] = total(spans, "pipelines.triangles.triangle_count")
            out["triangles.count"] = total(spans, "pipelines.triangles.triangle_count", "count")
        if any(s["name"] == "pipelines.linkgraph.result_with_urls" for s in spans):
            out["urljoin.s"] = total(spans, "pipelines.linkgraph.result_with_urls")
            out["urljoin.rows"] = total(spans, "pipelines.linkgraph.result_with_urls", "rows")
        return out

    per_job = [derive(s) for s in job_spans]
    for d, (count, nbytes) in zip(per_job, job_disk):
        d["ckpt.count"], d["ckpt.bytes"] = count, nbytes
    fallback = derive(pass_spans)
    names = set(fallback).union(*per_job)
    out = {}
    for name in names:
        vals = [d[name] for d in per_job if name in d]
        out[name] = statistics.median(vals) if vals else fallback[name]
    out["trace.job_s"] = statistics.median(job_walls)
    return out


def checkpoint_footprint(results: list[BSPResult]) -> tuple[int, int]:
    """(superstep checkpoints written, bytes on disk) over a job's BSP runs."""
    dirs = {r.ckpt_dir for r in results}
    count = sum(1 for d in dirs for f in os.listdir(d) if f.startswith("manifest_ss"))
    return count, sum(_dir_bytes(d) for d in dirs)
