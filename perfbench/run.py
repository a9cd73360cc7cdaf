#!/usr/bin/env python3
"""Link-graph benchmark for graphlite_ray.

    python3 perfbench/run.py --workload bsp_barrier --seed 1 --seconds 20 --trace 0

Runs one workload (see README.md) in this driver process on a local Ray
instance with a fixed CPU count: builds or reuses the seeded inputs, sets
up three times (Ray start, shard prebuild, one untimed warm-up job), then
runs jobs back to back on the last set-up for `--seconds`, checking every
result against an independent oracle. Every
line on stdout is JSON: first the run's metadata, last the result with the
end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
Ray and Ray Data log to stderr. All state lives under `.perfbench/` at the
checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATE = ROOT / ".perfbench"
NUM_CPUS = 4  # Ray CPUs for every workload; recorded in the output
OBJECT_STORE_BYTES = 512 * 1024**2
SETUPS = 3  # set-ups per run; setup_s is their median
RAY_START_ATTEMPTS = 2  # Ray gives up on a raylet that is not up after 30 s
RUN_LIMIT_S = 150  # no job starts after this much wall time in one run
TRACE_FILES_KEPT = 8
# Ray puts unix sockets under its temp dir; their paths must stay under
# the kernel's 107-byte limit, which leaves about this much for the dir.
RAY_TEMP_MAX_LEN = 44


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """Digest of the graphlite_ray sources, which identifies the code when
    the checkout is not a git repository."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "graphlite_ray").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _nproc() -> int | None:
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS counter (VmHWM) for this process, so
    the reported peak covers the measured jobs rather than set-up."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _keep_newest(directory: Path, n: int) -> None:
    files = sorted(directory.iterdir(), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in files[n:]:
        stale.unlink()


def _ray_temp_dir(ray_tmp: Path, dir_fd: int) -> str:
    """Ray's temp dir: `ray_tmp` itself, or, when that path is too long for
    Ray's unix sockets, the same directory reached through this process's
    open descriptor on its parent, so that Ray's files stay in the checkout."""
    if len(str(ray_tmp)) <= RAY_TEMP_MAX_LEN:
        return str(ray_tmp)
    return f"/proc/{os.getpid()}/fd/{dir_fd}/{ray_tmp.name}"


def _start_ray(temp_dir: str) -> None:
    import ray

    for attempt in range(1, RAY_START_ATTEMPTS + 1):
        try:
            ray.init(address="local", num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
                     include_dashboard=False, logging_level="ERROR", log_to_driver=False,
                     _temp_dir=temp_dir)
            break
        except Exception:
            ray.shutdown()  # stops whatever part of the node did start
            if attempt == RAY_START_ATTEMPTS:
                raise
            traceback.print_exc()
            print("perfbench: Ray did not start; starting it again", file=sys.stderr)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    # groupby emits empty-schema bundles for empty partitions; Ray Data
    # warns about each one
    logging.getLogger("ray.data._internal.execution.streaming_executor_state").setLevel(
        logging.ERROR)


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns (metadata, result)."""
    # this process and its Ray workers import graphlite_ray from this checkout and
    # put temp files (tempfile.mkdtemp) inside it
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # re-read TMPDIR
    import numpy as np
    import pyarrow
    import ray

    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, InputCache, checkpoint_footprint, layer_metrics

    started = time.perf_counter()
    tr = Tracer(enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, args.scale, InputCache(str(STATE / "cache")), tr)
    t0 = time.perf_counter()
    sizes = wl.inputs()
    input_s = time.perf_counter() - t0

    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    ray_tmp = STATE / "ray"
    ray_tmp.mkdir(parents=True, exist_ok=True)
    state_fd = os.open(STATE, os.O_RDONLY)
    phases = []

    def set_up(k: int) -> float:
        """Start Ray, prebuild the workload's shards, run one warm-up job."""
        t0 = time.perf_counter()
        _start_ray(_ray_temp_dir(ray_tmp, state_fd))
        t1 = time.perf_counter()
        wl.prebuild(str(work / f"setup{k}"))
        t2 = time.perf_counter()
        wl.job(str(work / "warmup"))
        shutil.rmtree(work / "warmup")
        t3 = time.perf_counter()
        phases.append({"ray_init_s": t1 - t0, "prebuild_s": t2 - t1, "warmup_s": t3 - t2})
        return t3 - t0

    try:
        setups = []
        for k in range(SETUPS):
            if k:  # the jobs run on the last set-up; earlier ones are torn down
                ray.shutdown()
                shutil.rmtree(work / f"setup{k - 1}")
            setups.append(set_up(k))
        setup_s = statistics.median(setups)
        tr.spans.clear()
        _reset_peak_rss()

        walls, job_results = [], []
        job_spans, job_disk, pass_spans = [], [], []
        attempted = failed = 0
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i == 0 or (time.perf_counter() < deadline
                         and time.perf_counter() - started < RUN_LIMIT_S):
            wd = work / f"job{i}"
            checks = []
            try:
                with tr.span("job") as root:
                    t1 = time.perf_counter()
                    job = wl.job(str(wd))
                    walls.append(time.perf_counter() - t1)
                job_results.append(job.bsp)
                checks = job.checks
                if tr.enabled:
                    job_spans.append(tr.within(root))
                    job_disk.append(checkpoint_footprint(job.bsp))
                    if i == 0:
                        with tr.span("layer_pass") as lp:
                            checks = checks + wl.layer_pass(job, str(wd / "layer_pass"))
                        pass_spans = tr.within(lp)
            except Exception:
                traceback.print_exc()
                checks = []
                attempted += wl.ops_per_job
                failed += wl.ops_per_job
            for check in checks:
                attempted += 1
                try:
                    ok = check()
                except Exception:
                    traceback.print_exc()
                    ok = False
                failed += not ok
            shutil.rmtree(wd, ignore_errors=True)
            i += 1
        peak_rss_mb = _peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        ray.shutdown()
        os.close(state_fd)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)

    job_steps = [[m for r in rs for m in r.metrics] for rs in job_results]
    steps = [m for ms in job_steps for m in ms]
    walls_ss = [m["wall_s"] for m in steps]
    meta = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "inputs": sizes,
        "ray_num_cpus": NUM_CPUS, "nproc": _nproc(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "versions": {"python": sys.version.split()[0], "ray": ray.__version__,
                     "numpy": np.__version__, "pyarrow": pyarrow.__version__},
        "git_commit": _git_commit(), "source_digest": _source_digest(),
        "input_s": input_s, "setups": phases, "jobs": len(walls), "job_walls_s": walls,
        "supersteps": len(steps), "error_rate": failed / max(attempted, 1),
    }
    if len(walls_ss) >= 100:  # p90 only with at least ten samples beyond it
        meta["superstep_ms_p90"] = float(np.percentile(walls_ss, 90)) * 1000
    if tr.enabled:
        traces = STATE / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        with open(traces / f"{args.workload}-s{args.seed}.json", "w") as f:
            json.dump(tr.spans, f)
        _keep_newest(traces, TRACE_FILES_KEPT)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in sorted(layer_metrics(job_spans, pass_spans, walls,
                                                    job_disk).items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": statistics.median(walls), "unit": "s"},
            # per job: BSP messages / summed superstep wall time; median over jobs
            "edges_per_s": {"value": statistics.median(
                sum(m["sent"] for m in ms) / sum(m["wall_s"] for m in ms) for ms in job_steps),
                "unit": "1/s"},
            "superstep_ms_p50": {"value": statistics.median(walls_ss) * 1000, "unit": "ms"},
            "driver_peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return meta, result


PER_LAYER_UNITS = {
    "extract.s": "s", "extract.pages_per_s": "1/s", "extract.edges": "count",
    "csr.build_s": "s", "csr.edges_per_s": "1/s", "csr.load_s": "s",
    "csr.shard_edge_skew": "ratio",
    "worker.step_s": "s", "worker.step_max_part_s": "s", "worker.msgs_recv": "count",
    "worker.msgs_sent": "count", "worker.block_rows_out": "count",
    "worker.combine_ratio": "ratio", "worker.bytes_out": "B",
    "engine.supersteps": "count", "engine.superstep_s": "s", "engine.slowest_part_s": "s",
    "engine.barrier_s": "s", "engine.barrier_share": "ratio", "engine.outside_loop_s": "s",
    "ckpt.write_s": "s", "ckpt.restore_s": "s", "ckpt.count": "count", "ckpt.bytes": "B",
    "ckpt.resume_s": "s",
    "triangles.s": "s", "triangles.count": "count",
    "urljoin.s": "s", "urljoin.rows": "count",
    "trace.job_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["bsp_barrier", "ckpt_resume"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="input size; tiny is for the self-check tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "graphlite_ray" / "__init__.py").is_file():
        print(f"perfbench: no graphlite_ray package under {ROOT}", file=sys.stderr)
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    # a terminated run still shuts Ray down and removes its files (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # stdout carries only this benchmark's JSON lines: anything else written
    # to fd 1 during the run (Ray, Ray Data, libraries) goes to stderr
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        meta, result = run(args)
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
