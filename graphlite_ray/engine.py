"""BSP superstep driver: the Ray-native analog of the reference master
(`engine/Master.cc:390-455`), minus all hand-rolled transport.

The driver loop IS the superstep barrier (C1): every round sends one
``step(ss, aggr, *posts, use_restored=...)`` to each partition actor and
collects each one's ``(meta, post)`` (worker.py docstring); collecting them
is the synchronization point. A post holds one handle per destination:
shared-memory offsets through the mailbox, Ray object refs for
``per_dest``; each consumer is sent only its own entry of every post. The
loop has one round shape for both routings (``send_step`` then ``recv``);
only the transport of these control messages differs, like the
reference's `MW_NEXTSSSTART` out and `WM_CURSSFINISH` back over its own
sockets:

  - on one node (``mailbox``) each attempt opens a unix-socket listener at
    a Linux abstract-namespace address named after its mailbox, with a
    fresh authkey, and gives every pool actor ONE Ray call,
    ``PartitionWorker.serve``, which connects back and runs the commands
    it receives (``step``, ``checkpoint``, ``restore``) until the driver
    closes the connection at the end of the attempt. A round is P sends,
    then P receives: no Ray task per partition per superstep (4 stub
    actors on 4 CPUs: a bare round took 0.15 ms over sockets against
    3.5 ms over Ray calls, median of 550). An exception in an actor comes
    back and is raised in the driver with its message. A dead actor shows
    as EOF on its connection, and the driver then raises what its
    ``serve`` call raised (``RayActorError``), so retries work as on Ray
    calls;
  - across nodes (``per_dest``) every command is one Ray actor call per
    partition, collected by ``ray.get``; a step round calls
    ``step_split`` with ``num_returns=1+P``, so each block is its own
    object, passed to its one consumer as a top-level argument.

Per-superstep it:

  - merges aggregator partials into globals that become visible to
    `compute()` in the NEXT superstep (reference `engine/Master.cc:354-366`
    merge + `MW.nextss_start` broadcast; the ss k -> k+1 visibility
    off-by-one of `example/PageRankVertex.cc:152-157`),
  - sums the built-in counters (computed / sent / recv / active — the
    analog of `WM.curss_finish.proto:8-20`) and keeps the slowest
    partition's step and exchange times (``max_part_wall_s``,
    ``max_part_exchange_s``) in every superstep's totals and manifest,
    next to the driver's own phases: ``dispatch_s`` (issuing the P step
    commands), ``wait_s`` (collecting the P replies) and, on checkpoint
    rounds, ``ckpt_s`` (the checkpoint round plus the manifest write; the
    manifest's own copy stops before its write). ``wall_s`` runs from the
    dispatch to the last reply,
  - evaluates termination rule C4: user master hook OR
    (active == 0 AND sent == 0) (`engine/Master.cc:429-431`),
  - optionally checkpoints every partition + writes an atomic JSON lineage
    manifest (superstep, per-partition metrics, aggregators, config hash) —
    the north rule's resumability, absent in the reference (SURVEY.md §4).

Scale notes: per superstep the driver handles O(P) small metas and
O(P^2) post entries, and sends each consumer its O(P) own entries, so a
round moves O(P^2) entries in all. On one node the payloads move through
per-run shared-memory mailbox files and never reach the driver, and the
commands and replies go over the P control connections, so a superstep
costs no Ray scheduling at all. Across nodes the P^2 per-destination
blocks are Ray objects, each routed to one consumer; Ray inlines a
block under 100 KiB into its producer's reply, so small blocks pass
through the driver. P is chosen independently of node count.

Warm actors: the P partition actors live in one module-level pool keyed on
(Ray node id, P), so a job that runs several programs over the same shards
pays actor start-up once, not once per ``run_bsp`` call. Each run starts
with ``PartitionWorker.begin``, which reloads the shard and resets all
per-run state, so runs in one process must not overlap (no caller
threads them). A successful attempt waits for every ``serve`` call to
return before it returns, so an idle pool holds no call and takes plain
Ray calls again. The pool is killed and respawned when P changes or after any
failed run, and dropped without calling its handles when the Ray session
changes (a new session has a new node id; Ray aborts the process on a
``ray.kill`` of an earlier session's handle). Pool actors reserve 0 CPUs and
are placed by SPREAD: an idle pool holding CPU reservations between runs
would keep later Ray tasks and Ray Data stages from being scheduled
(measured on 4 CPUs: 4 idle 1-CPU actors held a trivial task back >15 s).
"""

from __future__ import annotations

import json
import os
import pickle
import secrets
import select
import socket
import time
from dataclasses import dataclass, field
from multiprocessing.connection import (
    AuthenticationError,
    Connection,
    answer_challenge,
    deliver_challenge,
)

import numpy as np
import ray
import ray.data

from graphlite_ray.programs import VertexProgram
from graphlite_ray.state import storage
from graphlite_ray.state.csr import load_graph_meta
from graphlite_ray.worker import (
    COMBINERS,
    MAILBOX_DIR,
    PartitionWorker,
    create_mailbox,
    mailbox_prefix,
    remove_mailbox,
)

ENGINE_VERSION = "1"


@dataclass
class BSPResult:
    final_superstep: int
    supersteps_run: int
    halted: bool
    ckpt_dir: str
    metrics: list[dict] = field(default_factory=list)   # per-superstep totals
    aggr_history: list[dict] = field(default_factory=list)

    def values(self) -> "ray.data.Dataset":
        """Final per-vertex values as a Ray Data dataset
        (vertex_id:int64, value, active:bool) read from the final
        checkpoint — the analog of the reference OutputFormatter walk
        (`engine/OutputFormatter.cc:34-61`), but a streaming source."""
        d = storage.join(self.ckpt_dir, f"ss_{self.final_superstep}")
        # endswith filter: a worker killed mid-checkpoint leaves atomic-write
        # temps ('values_pN.parquet.tmp.<pid>') that must never be read back
        names = [
            f
            for f in storage.listdir(d)
            if f.startswith("values_p") and f.endswith(".parquet")
        ]
        fs, dpath = storage.resolve(d)
        files = sorted(f"{dpath.rstrip('/')}/{n}" for n in names)
        return ray.data.read_parquet(files, filesystem=fs)

    @property
    def total_messages(self) -> int:
        return sum(m["sent"] for m in self.metrics)


def _manifest_path(ckpt_dir: str, ss: int) -> str:
    return storage.join(ckpt_dir, f"manifest_ss{ss}.json")


def config_hash(program: VertexProgram, graph_dir: str, graph_meta: dict) -> str:
    """Identity of a run: program name + params + graph. A manifest whose
    hash mismatches the current run (e.g. same ckpt_dir, different SSSP
    source or edge weights) is never resumed from — it would silently
    return the previous run's results."""
    import hashlib

    params = {
        k: v
        for k, v in sorted(vars(program).items())
        if isinstance(v, (int, float, str, bool, type(None)))
    }
    blob = json.dumps(
        {
            "engine_version": ENGINE_VERSION,
            "program": program.name,
            "combiner": program.combiner,
            "symmetrize": bool(program.symmetrize),
            "params": params,
            "graph_dir": graph_dir,
            "graph_meta": graph_meta,
        },
        sort_keys=True,
    )
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def latest_checkpoint(ckpt_dir: str, expect_hash: str | None = None) -> dict | None:
    """Newest COMPLETE superstep manifest, or None (FIXTURES.md F6).
    With `expect_hash`, manifests from a different run configuration are
    ignored (pre-hash manifests never match and are likewise skipped)."""
    if not storage.isdir(ckpt_dir):
        return None
    best = None
    for f in storage.listdir(ckpt_dir):
        if f.startswith("manifest_ss") and f.endswith(".json"):
            m = storage.read_json(storage.join(ckpt_dir, f))
            if not m.get("complete"):
                continue
            if expect_hash is not None and m.get("config_hash") != expect_hash:
                continue
            if best is None or m["superstep"] > best["superstep"]:
                best = m
    return best


def resolve_routing(routing: str) -> str:
    """"auto" -> "mailbox" on a single alive node with /dev/shm (payloads
    through shared-memory files, control over unix sockets) / "per_dest"
    otherwise (P^2 Ray objects, each shipped to exactly one consumer node).
    See worker.py's routing docstring."""
    if routing == "auto":
        try:
            alive = sum(1 for n in ray.nodes() if n.get("Alive"))
        except Exception:
            alive = 1
        single = alive <= 1 and os.path.isdir(MAILBOX_DIR)
        return "mailbox" if single else "per_dest"
    if routing not in ("mailbox", "per_dest"):
        raise ValueError(f"routing must be auto, mailbox or per_dest, not {routing!r}")
    return routing


def run_bsp(
    program: VertexProgram,
    graph_dir: str,
    ckpt_dir: str,
    max_supersteps: int | None = None,
    ckpt_every: int = 0,
    resume: bool = False,
    routing: str = "auto",
) -> BSPResult:
    """Run a vertex program over pre-built CSR shards to termination.

    The superstep cap is the smaller of ``max_supersteps`` and the
    program's own ``max_supersteps``; it is 200 only when neither is given.

    ``ckpt_every=0`` checkpoints only at termination (the final values are
    always persisted — they are the result). ``resume=True`` restarts from
    the latest complete manifest: values + active mask + in-flight messages
    are reloaded per partition and the loop continues at the next superstep,
    bit-identical to an uninterrupted run (tested).

    ``routing`` ("auto" | "mailbox" | "per_dest") selects what a post's
    handles are: offsets into shared-memory files or Ray task-return objects
    (worker.py docstring). Every superstep is the same round either way,
    and results and checkpoints are bit-identical (tested). "mailbox"
    needs every partition actor on the driver's node; each attempt makes
    its own mailbox files under /dev/shm and its own control listener
    (module docstring), and removes both when it ends, on success or
    failure. It also unlinks mailbox files left by drivers that are gone.

    Partition actors come from the warm pool (module docstring): spawned
    by the first run with a given P in a Ray session, then reused until P
    changes, the session ends or a run fails.

    Fault tolerance: an actor death mid-superstep (node loss analog) is
    caught, the whole pool is killed and respawned, and the run continues
    from the latest complete checkpoint (or superstep 0 if none — set
    ``ckpt_every`` to bound re-work), up to ``actor_restarts`` times. The
    reference hangs or dies in this case (SURVEY.md §4 retries row).
    """
    if program.combiner not in COMBINERS:
        raise ValueError(f"unknown combiner {program.combiner!r}; choose one of {', '.join(COMBINERS)}")
    program.master_init(load_graph_meta(graph_dir))  # Graph::init analog
    caps = [c for c in (max_supersteps, program.max_supersteps) if c is not None]
    max_supersteps = min(caps, default=200)
    actor_restarts = 2
    attempt = 0
    while True:
        try:
            result = _run_bsp_attempt(
                program,
                graph_dir,
                ckpt_dir,
                max_supersteps=max_supersteps,
                ckpt_every=ckpt_every,
                resume=resume or attempt > 0,
                routing=resolve_routing(routing),
            )
            program.master_term(result)  # Graph::term analog
            return result
        except ray.exceptions.RayActorError:
            attempt += 1
            if attempt > actor_restarts:
                raise


_pool: tuple[tuple[str, int], list] | None = None  # ((node id, P), workers)


class _RayCalls:
    """Rounds of one Ray actor call per partition, collected by ``ray.get``:
    the control transport of the ``per_dest`` routing. A step round calls
    ``PartitionWorker.step_split`` and hands consumer j the ref of every
    producer's block j as a top-level argument (worker.py docstring)."""

    def __init__(self, workers: list):
        self.workers = workers

    def send(self, method: str, *args, **kw) -> None:
        self._refs = [getattr(w, method).remote(*args, **kw) for w in self.workers]
        self._posts = None

    def send_step(self, ss: int, aggr: dict, msgs: list, use_restored: bool) -> None:
        P = len(self.workers)
        refs = [w.step_split.options(num_returns=1 + P).remote(
                    ss, aggr, *[g and g[j] for g in msgs], use_restored=use_restored)
                for j, w in enumerate(self.workers)]
        self._refs = [r[0] for r in refs]
        self._posts = [dict(enumerate(r[1:])) for r in refs]

    def recv(self) -> list:
        out = ray.get(self._refs)
        return out if self._posts is None else list(zip(out, self._posts))

    def round(self, method: str, *args) -> list:
        self.send(method, *args)
        return self.recv()


class _ControlChannel(_RayCalls):
    """One attempt's control connections on one node (module docstring).

    The listener sits at a Linux abstract-namespace address named after the
    attempt's mailbox, so it leaves nothing on disk, and takes only clients
    that hold the attempt's fresh authkey. ``connect`` starts one
    ``PartitionWorker.serve`` call per actor; a round then writes one pickled
    ``(method, args, kw)`` to every connection and reads the P replies in
    partition order."""

    def __init__(self, prefix: str):
        self.address = "\0" + os.path.basename(prefix)
        self.authkey = secrets.token_bytes(32)
        self.conns: list[Connection] = []
        self.serves: list = []
        self.sock = socket.socket(socket.AF_UNIX)
        self.sock.bind(self.address)
        self.sock.listen()

    def connect(self, workers: list) -> "_ControlChannel":
        self.workers = workers
        self.serves = [w.serve.remote(self.address, self.authkey) for w in workers]
        conns: list = [None] * len(workers)
        while any(c is None for c in conns):
            if not select.select([self.sock], [], [], 0.5)[0]:
                # an actor that died before connecting never will
                done, _ = ray.wait(self.serves, timeout=0)
                for ref in done:
                    self._lost(self.serves.index(ref))
                continue
            c = Connection(self.sock.accept()[0].detach())
            try:
                deliver_challenge(c, self.authkey)
                answer_challenge(c, self.authkey)
                conns[c.recv()] = c
            except (EOFError, OSError, AuthenticationError):
                c.close()  # died mid-handshake (seen above next time) or no key
        self.conns = conns
        return self

    def send(self, method: str, *args, **kw) -> None:
        self._write([pickle.dumps((method, args, kw), pickle.HIGHEST_PROTOCOL)] * len(self.conns))

    def send_step(self, ss: int, aggr: dict, msgs: list, use_restored: bool) -> None:
        """Partition j gets only its own entry of every post."""
        self._write([
            pickle.dumps(("step", (ss, aggr, *[{j: g[j]} if g and j in g else None for g in msgs]),
                          {"use_restored": use_restored}), pickle.HIGHEST_PROTOCOL)
            for j in range(len(self.conns))
        ])

    def _write(self, bufs: list) -> None:
        for j, (c, buf) in enumerate(zip(self.conns, bufs)):
            try:
                c.send_bytes(buf)
            except OSError:
                self._lost(j)

    def recv(self) -> list:
        out = []
        for j, c in enumerate(self.conns):
            try:
                ok, value = c.recv()
            except (EOFError, OSError):
                self._lost(j)
            if not ok:
                raise value
            out.append(value)
        return out

    def _lost(self, j: int) -> None:
        """Partition j's connection ended mid-attempt. Its ``serve`` call
        says why: ``RayActorError`` for a dead actor, which ``run_bsp``
        retries on fresh actors."""
        ray.get(self.serves[j])
        raise RuntimeError(f"partition {j} closed its control connection")

    def close(self) -> None:
        """Close every connection, which ends each ``serve`` loop, and the
        listener. Idempotent."""
        for c in self.conns:
            c.close()
        self.sock.close()


def _drop_pool(kill: bool = True) -> None:
    global _pool
    for w in _pool[1] if _pool is not None and kill else ():
        ray.kill(w, no_restart=True)
    _pool = None


def _run_bsp_attempt(
    program: VertexProgram,
    graph_dir: str,
    ckpt_dir: str,
    max_supersteps: int,
    ckpt_every: int,
    resume: bool,
    routing: str,
) -> BSPResult:
    global _pool
    meta = load_graph_meta(graph_dir)
    P = int(meta["P"])
    storage.makedirs(ckpt_dir)

    specs = program.aggregators()
    cfg_hash = config_hash(program, graph_dir, meta)
    restore_from = None
    if resume:
        m = latest_checkpoint(ckpt_dir, expect_hash=cfg_hash)
        if m is not None:
            if m.get("halted"):  # already complete: no actors needed
                # final aggregator state (decoded) so history-bearing
                # aggregators (e.g. the neighborhood `hist`) survive the
                # early return exactly like a fresh run's last superstep
                return BSPResult(final_superstep=m["superstep"], supersteps_run=0, halted=True,
                                 ckpt_dir=ckpt_dir, aggr_history=[_decode_aggr(specs, m)])
            restore_from = m

    key = (ray.get_runtime_context().get_node_id(), P)
    prefix = mailbox_prefix() if routing == "mailbox" else None
    args = (graph_dir, program, meta["n_vertices"], routing, prefix)
    ctl = None
    try:
        if prefix:
            create_mailbox(prefix, P)
            ctl = _ControlChannel(prefix)
        if _pool is None or _pool[0] != key:
            # handles from an earlier Ray session are dropped uncalled
            _drop_pool(kill=_pool is not None and _pool[0][0] == key[0])
            Actor = ray.remote(num_cpus=0, scheduling_strategy="SPREAD")(PartitionWorker)
            _pool = (key, [Actor.remote(p, P, *args) for p in range(P)])
            loaded = [w.ready.remote() for w in _pool[1]]
        else:
            loaded = [w.begin.remote(*args) for w in _pool[1]]
        ray.get(loaded)  # surface load errors early
        calls = ctl.connect(_pool[1]) if ctl else _RayCalls(_pool[1])
        result = _superstep_loop(
            program, calls, meta, specs, restore_from, max_supersteps,
            ckpt_every, ckpt_dir, graph_dir, cfg_hash,
        )
        if ctl:
            # every serve returns on EOF, so the idle pool holds no call
            ctl.close()
            ray.get(ctl.serves, timeout=30)
        return result
    except BaseException:
        # whatever failed, the next attempt or run starts on fresh actors
        _drop_pool()
        raise
    finally:
        if ctl:
            ctl.close()
        if prefix:
            remove_mailbox(prefix)


def _decode_aggr(specs: dict, manifest: dict) -> dict:
    return {k: (specs[k].from_json(v) if k in specs else v)
            for k, v in manifest.get("aggr_global", {}).items()}


def _superstep_loop(
    program, calls, meta, specs, restore_from, max_supersteps, ckpt_every,
    ckpt_dir, graph_dir, cfg_hash,
) -> BSPResult:
    result = BSPResult(final_superstep=-1, supersteps_run=0, halted=False, ckpt_dir=ckpt_dir)
    aggr_global = {k: s.init for k, s in specs.items()}
    start_ss, use_restored = 0, False
    if restore_from is not None:
        calls.round("restore", restore_from["superstep"], ckpt_dir)
        aggr_global = _decode_aggr(specs, restore_from)
        start_ss, use_restored = restore_from["superstep"] + 1, True

    msgs = [None] * len(calls.workers)  # msgs[i] = producer i's post {dest: handle}
    halted = False
    ss = start_ss - 1
    for ss in range(start_ss, max_supersteps):
        t0 = time.perf_counter()
        calls.send_step(ss, aggr_global, msgs, use_restored)
        t1 = time.perf_counter()
        metas, msgs = zip(*calls.recv())
        t2 = time.perf_counter()
        use_restored = False

        totals = {
            k: int(sum(m[k] for m in metas))
            for k in ("computed", "sent", "recv", "active_end")
        }
        totals["superstep"] = ss
        totals["wall_s"] = time.perf_counter() - t0
        totals["dispatch_s"] = t1 - t0
        totals["wait_s"] = t2 - t1
        totals["max_part_wall_s"] = max(m["wall_s"] for m in metas)
        totals["max_part_exchange_s"] = max(m["exchange_s"] for m in metas)
        aggr_next = {}
        for k, spec in specs.items():
            v = spec.init
            for m in metas:
                v = spec.merge(v, m["aggr"].get(k, spec.init))
            aggr_next[k] = v
        result.metrics.append(totals)
        result.aggr_history.append(aggr_next)

        halted = program.master_halt(ss, aggr_next, totals) or (
            totals["active_end"] == 0 and totals["sent"] == 0
        )
        aggr_global = aggr_next
        result.supersteps_run += 1

        if halted or (ckpt_every and (ss + 1) % ckpt_every == 0) or ss + 1 == max_supersteps:
            t3 = time.perf_counter()
            part_stats = calls.round("checkpoint", ss, ckpt_dir)
            # a manifest cannot time its own write: its ckpt_s stops before it
            totals["ckpt_s"] = time.perf_counter() - t3
            manifest = {
                "engine_version": ENGINE_VERSION,
                "config_hash": cfg_hash,
                "program": program.name,
                "graph_dir": graph_dir,
                "graph_meta": meta,
                "superstep": ss,
                "halted": halted,
                "aggr_global": {
                    k: (specs[k].to_json(v) if k in specs else v)
                    for k, v in aggr_global.items()
                },
                "totals": totals,
                "per_partition": part_stats,
                "parent_superstep": start_ss - 1 if ss == start_ss else ss - 1,
                "complete": True,
            }
            storage.write_json_atomic(manifest, _manifest_path(ckpt_dir, ss))
            totals["ckpt_s"] = time.perf_counter() - t3

        if halted:
            break

    result.final_superstep = ss
    result.halted = halted
    return result
