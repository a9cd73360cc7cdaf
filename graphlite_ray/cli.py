"""Job entry point — the `ray job submit` surface of the engine.

On a real cluster (north rule):
    ray job submit --working-dir . -- \
        python -m graphlite_ray.cli pagerank \
            --pages s3://bucket/pages/ --work s3://bucket/work/run1 \
            --partitions 4096 --ckpt-every 5 [--resume]

In this sandbox the same command runs against local paths with the
auto-initialised local Ray. The script owns its Ray session (guarded init,
per the driver contract: library code never calls ray.init, entry points
may)."""

from __future__ import annotations

import argparse
import json
import sys

import ray
import ray.data


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="graphlite_ray", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--pages", required=True, help="page-table parquet dir")
        sp.add_argument("--work", required=True, help="work dir (stages + checkpoints)")
        sp.add_argument("--partitions", "-P", type=int, default=8)
        sp.add_argument("--ckpt-every", type=int, default=0)
        sp.add_argument(
            "--max-supersteps", type=int, default=None,
            help="superstep cap (default: the program's own bound, else 200)",
        )
        sp.add_argument("--resume", action="store_true")
        sp.add_argument("--out", help="write (vertex_id, url, value) parquet here")
        sp.add_argument(
            "--routing",
            choices=["auto", "mailbox", "per_dest"],
            default="auto",
            help="message-exchange layout (auto = by cluster size)",
        )

    for algo in (
        "pagerank",
        "weighted_pagerank",
        "connected_components",
        "label_propagation",
        "sssp",
        "kcore",
    ):
        sp = sub.add_parser(algo)
        add_common(sp)
        if algo == "sssp":
            sp.add_argument("--source-url", help="source page url (hashed to the vertex id)")
            sp.add_argument("--source-id", type=int, help="source vertex id directly")
        if algo == "kcore":
            sp.add_argument("-k", type=int, default=3, help="core order")
        if algo in ("pagerank", "weighted_pagerank"):
            sp.add_argument(
                "--reference-output",
                help="also write the reference's '<vid>: <value>' output as "
                "TEXT shards here (OutputFormatter protocol)",
            )
    tri = sub.add_parser("triangles")
    tri.add_argument("--pages", required=True)
    tri.add_argument("--work", required=True)
    tri.add_argument("--partitions", "-P", type=int, default=8)
    gen = sub.add_parser("genpages", help="generate the synthetic page table")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=42)

    args = p.parse_args(argv)

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if args.cmd == "genpages":
        from graphlite_ray.sources.pages import pages_path

        print(json.dumps({"pages": pages_path(args.n, args.seed)}))
        return 0

    if args.cmd == "triangles":
        from graphlite_ray.pipelines.linkgraph import prepare_edges
        from graphlite_ray.pipelines.triangles import triangle_count

        edges_dir = prepare_edges(args.pages, args.work, args.partitions)
        n = triangle_count(
            ray.data.read_parquet(edges_dir, columns=["src", "dst"]),
            work_dir=f"{args.work}/tri",
            B=max(16, args.partitions),
        )
        print(json.dumps({"n_triangles": n}))
        return 0

    from graphlite_ray.pipelines.linkgraph import (
        result_with_urls,
        run_algorithm,
    )

    kwargs = {}
    if args.cmd == "sssp":
        if args.source_id is not None:
            kwargs["source"] = args.source_id
        elif args.source_url:
            from graphlite_ray.functions.hashing import ids_from_urls

            kwargs["source"] = int(ids_from_urls([args.source_url])[0])
        else:
            p.error("sssp needs --source-url or --source-id")
    if args.cmd == "kcore":
        kwargs["k"] = args.k

    res = run_algorithm(
        args.cmd,
        args.pages,
        args.work,
        P=args.partitions,
        max_supersteps=args.max_supersteps,
        ckpt_every=args.ckpt_every,
        resume=args.resume,
        routing=args.routing,
        **kwargs,
    )
    if args.out:
        result_with_urls(res, args.work).write_parquet(args.out)
    if getattr(args, "reference_output", None):
        from graphlite_ray.sources.formatters import write_formatted

        write_formatted(
            res.values().select_columns(["vertex_id", "value"]),
            args.reference_output,
        )
    print(
        json.dumps(
            {
                "algo": args.cmd,
                "halted": res.halted,
                "final_superstep": res.final_superstep,
                "supersteps_run": res.supersteps_run,
                "messages": res.total_messages,
                "ckpt_dir": res.ckpt_dir,
                "out": args.out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
