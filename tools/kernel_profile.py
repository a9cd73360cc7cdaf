#!/usr/bin/env python
"""Time the BSP kernel in process, with no Ray: `PartitionWorker.step`
driven over a built graph dir the way the engine's superstep loop drives
it (every producer's blocks to every consumer, aggregator merge, halting
rule), without checkpoints.

    python tools/kernel_profile.py <graph_dir> <program> [--runs 5]

``<program>`` is a `BUILTIN_PROGRAMS` name with its default arguments. It
prints, per superstep, the slowest partition's step and the sum over the
partitions (ms, median over the runs), their totals, and one sha256 over
every block every worker posted and the final values, which must be the
same in every run and across any change that claims bit-identical output.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from graphlite_ray.programs import BUILTIN_PROGRAMS  # noqa: E402
from graphlite_ray.state.csr import load_graph_meta  # noqa: E402
from graphlite_ray.worker import PartitionWorker  # noqa: E402


def _hash_blocks(h, blocks: dict | None) -> None:
    for j in sorted(blocks or {}):
        h.update(str(j).encode())
        for a in blocks[j]:
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())


def replay(graph_dir: str, name: str, max_supersteps: int = 200):
    """One run; returns ([(max_part_s, sum_s) per superstep], sha256 hex)."""
    meta = load_graph_meta(graph_dir)
    P = int(meta["P"])
    program = BUILTIN_PROGRAMS[name]()
    if program.max_supersteps is not None:
        max_supersteps = min(max_supersteps, program.max_supersteps)
    program.master_init(meta)
    specs = program.aggregators()
    workers = [PartitionWorker(p, P, graph_dir, copy.deepcopy(program), meta["n_vertices"])
               for p in range(P)]
    h = hashlib.sha256()
    aggr = {k: s.init for k, s in specs.items()}
    posts: list = [None] * P
    times = []
    for ss in range(max_supersteps):
        metas, step_s, sent = [], [], [None] * P
        for w in workers:
            t0 = time.perf_counter()
            m, post = w.step(ss, aggr, *posts)
            step_s.append(time.perf_counter() - t0)
            metas.append(m)
            sent[w.part_id] = post
            _hash_blocks(h, post)
        times.append((max(step_s), sum(step_s)))
        posts = sent
        totals = {k: sum(m[k] for m in metas) for k in ("computed", "sent", "recv", "active_end")}
        for k, spec in specs.items():
            v = spec.init
            for m in metas:
                v = spec.merge(v, m["aggr"].get(k, spec.init))
            aggr[k] = v
        if program.master_halt(ss, dict(aggr), totals) or (
            totals["active_end"] == 0 and totals["sent"] == 0
        ):
            break
    for w in workers:
        h.update(w.shard.vids.tobytes())
        h.update(w.values.tobytes())
    return times, h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("graph_dir")
    p.add_argument("program", choices=sorted(BUILTIN_PROGRAMS))
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args(argv)
    runs = [replay(args.graph_dir, args.program) for _ in range(args.runs)]
    digests = {d for _, d in runs}
    if len(digests) != 1 or len({len(t) for t, _ in runs}) != 1:
        print("runs disagree: " + ", ".join(sorted(digests)), file=sys.stderr)
        return 1
    print(f"{'ss':>4} {'max_part_ms':>12} {'sum_ms':>9}")
    per_ss = [[statistics.median(r[0][ss][i] * 1e3 for r in runs) for i in (0, 1)]
              for ss in range(len(runs[0][0]))]
    for ss, (mx, sm) in enumerate(per_ss):
        print(f"{ss:>4} {mx:>12.2f} {sm:>9.2f}")
    tot = [[sum(t[i] for t in r[0]) * 1e3 for r in runs] for i in (0, 1)]
    for label, xs in zip(("max_part", "sum"), tot):
        print(f"total {label}_ms median {statistics.median(xs):.1f} "
              f"[{min(xs):.1f}-{max(xs):.1f}] over {len(xs)} runs")
    print(f"sha256 {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
