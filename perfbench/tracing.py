"""Spans around the benchmark's calls into graphlite_ray, and an in-process
replay of BSP supersteps that times the worker and checkpoint layers with
no Ray in between.

Spans live in memory as dicts (id, name, parent, start, end, plus counts
set inside the span) and are written out once, when the run ends. A
disabled tracer records nothing, so the untraced run executes the same
job code with no span bookkeeping.
"""

from __future__ import annotations

import copy
import time
from contextlib import contextmanager

from graphlite_ray.state.csr import CSRShard, load_graph_meta
from graphlite_ray.worker import PartitionWorker


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            **counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def within(self, root: dict) -> list[dict]:
        """Spans recorded inside `root` (itself excluded)."""
        inside, out = {root["id"]}, []
        for s in self.spans[root["id"] + 1:]:
            if s["parent"] in inside:
                inside.add(s["id"])
                out.append(s)
        return out


def total(spans: list[dict], name: str, key: str | None = None) -> float:
    """Sum of a count (or, with no key, of the durations) over spans named `name`."""
    if key is None:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)
    return sum(s.get(key, 0) for s in spans if s["name"] == name)


def _block_rows_and_bytes(blocks: dict | None) -> tuple[int, int]:
    rows = nbytes = 0
    for b in (blocks or {}).values():
        rows += len(b[0])
        nbytes += sum(a.nbytes for a in b)
    return rows, nbytes


def replay(tr: Tracer, program, graph_dir: str, ckpt_dir: str, max_supersteps: int = 200,
           ckpt_every: int = 0, split_at: int | None = None) -> dict[int, tuple]:
    """Run `program` over the shards with PartitionWorker objects called
    directly, following the engine's superstep loop: grouped routing,
    aggregator merge, halting rule and checkpoint schedule.

    At superstep `split_at` (default: the final one) every partition is
    checkpointed, fresh workers restore from that checkpoint and, unless the
    run had halted, continue from it, as `run_bsp(resume=True)` would.
    Returns {partition: (vids, values)} of the restored workers.
    """
    meta = load_graph_meta(graph_dir)
    P = int(meta["P"])
    if program.max_supersteps is not None:
        max_supersteps = min(max_supersteps, program.max_supersteps)
    program.master_init(meta)
    specs = program.aggregators()
    with tr.span("state.csr.CSRShard.load"):
        for p in range(P):
            CSRShard.load(graph_dir, p, P)

    def spawn():
        return [PartitionWorker(p, P, graph_dir, copy.deepcopy(program), meta["n_vertices"])
                for p in range(P)]

    workers = spawn()
    aggr = {k: s.init for k, s in specs.items()}
    msgs: list = [None] * P
    use_restored = False
    for ss in range(max_supersteps):
        metas, step_s, sent_blocks = [], [], [None] * P
        with tr.span("worker.PartitionWorker.step") as sp:
            for w in workers:
                t0 = time.perf_counter()
                m, blocks = w.step(ss, aggr, *msgs, use_restored=use_restored)
                step_s.append(time.perf_counter() - t0)
                metas.append(m)
                sent_blocks[w.part_id] = blocks
                rows, nbytes = _block_rows_and_bytes(blocks)
                sp["block_rows_out"] = sp.get("block_rows_out", 0) + rows
                sp["bytes_out"] = sp.get("bytes_out", 0) + nbytes
            sp["max_part_s"] = max(step_s)
            sp["sent"] = sum(m["sent"] for m in metas)
            sp["recv"] = sum(m["recv"] for m in metas)
        msgs, use_restored = sent_blocks, False
        totals = {k: sum(m[k] for m in metas) for k in ("computed", "sent", "recv", "active_end")}
        for k, spec in specs.items():
            v = spec.init
            for m in metas:
                v = spec.merge(v, m["aggr"].get(k, spec.init))
            aggr[k] = v
        halted = program.master_halt(ss, dict(aggr), totals) or (
            totals["active_end"] == 0 and totals["sent"] == 0
        )
        last = halted or ss + 1 == max_supersteps
        if last or ss == split_at or (ckpt_every and (ss + 1) % ckpt_every == 0):
            with tr.span("worker.PartitionWorker.checkpoint"):
                for w in workers:
                    w.checkpoint(ss, ckpt_dir)
        if ss == split_at or (split_at is None and last):
            workers = spawn()
            with tr.span("worker.PartitionWorker.restore"):
                for w in workers:
                    w.restore(ss, ckpt_dir)
            use_restored = True
        if last:
            break
    return {w.part_id: (w.shard.vids, w.values) for w in workers}
