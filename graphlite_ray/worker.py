"""Partition worker: one stateful actor per graph partition.

The Ray-native analog of the reference's worker process
(`engine/Worker.cc:107-119,789-931`): it holds the partition's CSR shard,
value array and active mask across supersteps (reference T1-T3 state,
SURVEY.md §2.3), performs message delivery as a vectorized segmented
reduction (replacing the per-message hash-lookup loop + prefetch variants,
`engine/Worker.cc:416-576`), runs the vertex program's vectorized
`compute`, and returns producer-side-combined, destination-partitioned
message blocks.

Why a raw actor rather than `map_batches`: the BSP loop mutates
partition-resident state across tens of supersteps — exactly the "shared
mutable index" case where the Dataset API cannot express the semantics.
All one-pass, wide stages around the loop (extraction, id assignment, CSR
build, output) remain Ray Data pipelines (SURVEY.md §7.4 point 1).

Message blocks between partitions are numpy-array tuples:
    combiner "sum"/"min":   (dst_global:int64, val)
    combiner "sum_by_key":  (dst_global:int64, key:int64, cnt:int64)
    combiner "none":        (dst_global:int64, src_global:int64, val) — RAW,
                            one row per message, sender id preserved

Routing — two layouts, same block format and combine semantics (selected
by the engine's ``routing`` option, default auto by cluster size):

  "mailbox" (single node): payloads go through shared-memory files and
  control goes over a unix-socket connection per actor. Producer i owns
  two files per run,
  ``/dev/shm/graphlite-<driver pid>-<run token>-p{i}-b{parity}``, one per
  superstep parity; the driver creates them empty for each attempt (a
  fresh token per attempt) and unlinks them in a ``finally``. At
  superstep ss the producer writes its per-destination blocks, column
  after column at 64-byte aligned offsets, into its file for ``ss % 2``,
  growing it with ``ftruncate`` only when this superstep needs more room,
  so no combiner needs a region size up front. ``step`` returns only its
  meta, which carries the post ``{dest: (rows, [(offset, dtype.str),
  ...])}``. The driver pops the posts and hands the list of all P to
  every consumer at ss+1 as one argument; a consumer maps each
  producer's file for that parity (read-only, remapping when a block
  ends past its current map) and reads its blocks as views. The meta's
  ``exchange_s`` is the time spent mapping and viewing the inbound blocks
  and writing the outbound ones. Parity makes the reuse safe without a
  lock: superstep ss+2 overwrites parity ``ss % 2`` only after the driver
  has collected every meta of ss+1, i.e. after every consumer is done
  reading ss's blocks.
  Delivery concatenates into fresh arrays, so no view into a mailbox
  lives past the ``step`` that read it. Each ``checkpoint`` closes the
  worker's maps and file descriptors (the next ``step`` reopens them), and
  the last superstep of every successful run checkpoints, so an idle warm
  pool maps no mailbox; after a failure the pool is killed anyway.

  Control: for each attempt the driver makes one Ray call per actor,
  ``serve(address, authkey)``. It connects to the attempt's listener (a
  Linux abstract-namespace unix socket, so nothing on disk), sends its
  partition id, then runs each ``(method, args)`` it receives on itself
  (``step``, ``checkpoint``, ``restore``) and sends back ``(True,
  result)``, or ``(False, exception)`` with the actor's traceback as a
  note. It returns when the driver closes the connection at the end of
  the attempt, or on the actor's death, with the process. While ``serve``
  runs, any other Ray call to the actor queues behind it, so a run that
  ends waits for every ``serve`` to return: an idle pool holds no call,
  and ``begin``, ``ready`` or ``__ray_call__`` run at once.

  "per_dest" (multi-node): each producer returns P separate
  per-destination objects (``num_returns=1+P``) and the driver routes each
  ref to exactly ONE consumer — the analog of the reference's
  one-peer-per-block sender (`engine/Sender.cc:44-235`,
  `engine/WW.nodemsg_list.proto:10-18`). Across nodes this ships each
  byte to exactly its destination.

Driven in process (no ``routing``, as the benchmark's replay and the kernel
tests do), ``step(ss, aggr, *blocks)`` takes each producer's
``{dest: block}`` dict and returns ``(meta, {dest: block})``.

All layouts are bit-identical in results and checkpoints (tested);
``last_out`` keeps the dict layout regardless.

Static routing plan. The graph does not change during a run, so when a
program sends on EVERY out-edge in CSR order (PageRank, Katz, eigenvector,
LPA, CC's superstep 0), its destination ids are exactly ``shard.indices``.
`_scatter_to_neighbors` signals that case by returning ``shard.indices``
itself, and ``step`` tests ``out.out_dst is self.shard.indices``: no
`ComputeOut` field or option marks it. On the first such "sum" superstep of
a run the worker builds a `RoutingPlan` from ``np.unique(indices,
return_inverse=True)``: each edge's slot among the unique ids, with the
slots ordered by destination partition, and each partition's ids. The
combine then is one ``np.bincount`` over the slots and the split is P
precomputed slices. It adds in the same order as `combine_sum` followed by
the stable partition split, so blocks are bit-identical to the sort path
(tested). Other combiners keep the sort path: for LPA's "sum_by_key", one
stable sort of an int64 (slot, label rank) composite measured no faster
than `combine_sum_by_key` plus the split. On the consumer side each worker caches ``local_index(dst)`` per
producer and reuses it while ``np.array_equal`` shows the same ids, which
skips the ``searchsorted`` for every combiner.

The ``dst`` id column stays in every block even though a consumer could
map planned values to its rows by position. Blocks keep one format for
every layout, the checkpoint and the restore path, and the per-producer
``local_index`` cache needs the ids to tell a planned send from a
frontier one. (Under Ray's object store an ids-free prototype also made
PageRank blocks on the 20k-page benchmark crawl, P=4, about 88 KiB,
under Ray's 100 KiB inline-object limit, so payloads rode inside the
replies through the driver: driver peak RSS rose from 243 MB to
584-699 MB.)
"""

from __future__ import annotations

import contextlib
import fnmatch
import glob
import mmap
import os
import re
import secrets
import time
import traceback
from multiprocessing.connection import Client

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from graphlite_ray.programs import Ctx, Inbox, VertexProgram
from graphlite_ray.state import storage
from graphlite_ray.state.csr import CSRShard


# ---------------------------------------------------------------- combiners


def combine_sum(dst: np.ndarray, val: np.ndarray):
    u, inv = np.unique(dst, return_inverse=True)
    return u, np.bincount(inv, weights=val)


def combine_min(dst: np.ndarray, val: np.ndarray):
    order = np.lexsort((val, dst))
    d, v = dst[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    return d[first], v[first]


def combine_max(dst: np.ndarray, val: np.ndarray):
    order = np.lexsort((-val, dst))
    d, v = dst[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    return d[first], v[first]


def combine_sum_by_key(dst: np.ndarray, key: np.ndarray, cnt: np.ndarray):
    order = np.lexsort((key, dst))
    d, k, c = dst[order], key[order], cnt[order]
    first = np.ones(len(d), bool)
    first[1:] = (d[1:] != d[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(first)
    return d[starts], k[starts], np.add.reduceat(c, starts)


def combine_max_by_key(dst: np.ndarray, key: np.ndarray, val: np.ndarray):
    """max per (dst, key) — the keyed-register combiner (HyperBall counter
    union is an elementwise register max; max is commutative/associative,
    so producer-side combining is exact, §2.12)."""
    order = np.lexsort((key, dst))
    d, k, v = dst[order], key[order], val[order]
    first = np.ones(len(d), bool)
    first[1:] = (d[1:] != d[:-1]) | (k[1:] != k[:-1])
    starts = np.flatnonzero(first)
    return d[starts], k[starts], np.maximum.reduceat(v, starts)


_BY_KEY = ("sum_by_key", "max_by_key")


def _combine_by_key(combiner: str, dst, key, val):
    if combiner == "max_by_key":
        return combine_max_by_key(dst, key, val)
    return combine_sum_by_key(dst, key, val)


def _combine_block(combiner: str, block: tuple) -> tuple:
    if combiner == "sum":
        return combine_sum(block[0], block[1])
    if combiner == "min":
        return combine_min(block[0], block[1])
    if combiner == "max":
        return combine_max(block[0], block[1])
    return _combine_by_key(combiner, block[0], block[1], block[2])


def _slices(bounds: np.ndarray, cols) -> dict[int, tuple]:
    """{j: rows bounds[j]:bounds[j + 1] of every column}, empty j left out."""
    return {
        j: tuple(c[bounds[j]:bounds[j + 1]] for c in cols)
        for j in range(len(bounds) - 1)
        if bounds[j + 1] > bounds[j]
    }


def _split_by_partition(payload: tuple, P: int) -> dict[int, tuple]:
    """Stable split of combined rows by destination partition (id % P)."""
    part = (payload[0] % np.int64(P)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    return _slices(np.searchsorted(part[order], np.arange(P + 1)), [a[order] for a in payload])


# ------------------------------------------------------------ routing plan


class RoutingPlan:
    """Combine-and-route slots for messages sent on every out-edge in CSR
    order, computed once from the shard's static ``indices``.

    The unique destination ids are laid out grouped by partition (ascending
    id within each); ``slot[e]`` is edge e's position in that layout and
    ``bounds[j]:bounds[j + 1]`` is partition j's range of it."""

    def __init__(self, indices: np.ndarray, P: int):
        u, inv = np.unique(indices, return_inverse=True)
        part = u % np.int64(P)
        order = np.argsort(part, kind="stable")
        rank = np.empty(len(u), np.int64)
        rank[order] = np.arange(len(u))
        self.slot = rank[inv]
        self.n_slots = len(u)
        self.bounds = np.searchsorted(part[order], np.arange(P + 1))
        self.ids = u[order]
        self.ids.setflags(write=False)

    def sum(self, val: np.ndarray) -> dict[int, tuple]:
        """`combine_sum` + split: bincount adds each slot's values in edge
        order, as `combine_sum`'s bincount over ``np.unique``'s inverse does."""
        return _slices(self.bounds, (self.ids, np.bincount(self.slot, weights=val, minlength=self.n_slots)))


# ------------------------------------------------------------------ mailbox

MAILBOX_DIR = "/dev/shm"
_ALIGN = 64  # byte alignment of every column in a mailbox file


def mailbox_path(prefix: str, producer: int, parity: int) -> str:
    return f"{prefix}-p{producer}-b{parity}"


def mailbox_prefix() -> str:
    """A fresh file prefix for one run attempt, called in the driver."""
    return f"{MAILBOX_DIR}/graphlite-{os.getpid()}-{secrets.token_hex(4)}"


_MAILBOX_NAME = re.compile(r"graphlite-(\d+)-[0-9a-f]+-p\d+-b[01]")


def create_mailbox(prefix: str, P: int) -> None:
    """Make the attempt's 2P empty files. The driver makes them, and workers
    open them without O_CREAT, so a worker still running when an attempt
    fails cannot create a file after `remove_mailbox`.

    First it unlinks the files of drivers that are gone: a driver killed
    outright (SIGKILL, the OOM killer) never runs the ``finally`` that
    removes its own. A live pid's files are never touched."""
    for name in os.listdir(MAILBOX_DIR):
        m = _MAILBOX_NAME.fullmatch(name)
        if m is None:
            continue
        try:
            os.kill(int(m[1]), 0)
        except ProcessLookupError:
            with contextlib.suppress(FileNotFoundError):  # another driver's sweep
                os.unlink(os.path.join(MAILBOX_DIR, name))
        except PermissionError:
            pass  # alive, another user's
    for p in range(P):
        for parity in (0, 1):
            open(mailbox_path(prefix, p, parity), "xb").close()


def remove_mailbox(prefix: str) -> None:
    for path in glob.glob(f"{prefix}-*"):
        os.unlink(path)


class Mailbox:
    """One worker's side of a run's mailbox (module docstring): it writes
    its own parity files and maps its producers' files to read them."""

    def __init__(self, prefix: str, part_id: int):
        self.prefix = prefix
        self.part_id = part_id
        self._fds: dict[int, int] = {}                      # parity -> own file
        self._maps: dict[tuple[int, int], mmap.mmap] = {}   # (producer, parity)

    def post(self, superstep: int, blocks: dict[int, tuple]) -> dict:
        """Write ``blocks`` into this producer's file for the superstep's
        parity; returns the post {dest: (rows, [(offset, dtype.str), ...])}."""
        post, cols, end = {}, [], 0
        for j, b in blocks.items():
            layout = []
            for a in b:
                if a.ndim != 1:
                    raise ValueError("mailbox block columns must be 1-D")
                a = np.ascontiguousarray(a)
                layout.append((end, a.dtype.str))
                cols.append((end, a))
                end = -(-(end + a.nbytes) // _ALIGN) * _ALIGN
            post[j] = (len(b[0]), layout)
        if not post:
            return post
        parity = superstep % 2
        fd = self._fds.get(parity)
        if fd is None:
            fd = self._fds[parity] = os.open(mailbox_path(self.prefix, self.part_id, parity), os.O_RDWR)
        if os.fstat(fd).st_size < end:
            os.ftruncate(fd, end)
        for off, a in cols:
            buf = memoryview(a.view(np.uint8))
            while buf:
                n = os.pwrite(fd, buf, off)
                buf, off = buf[n:], off + n
        return post

    def read(self, producer: int, superstep: int, entry: tuple) -> tuple:
        """Views of the block ``producer`` posted at ``superstep`` for this
        worker. They must not outlive the ``step`` that reads them."""
        rows, layout = entry
        key = (producer, superstep % 2)
        off, dt = layout[-1]
        end = off + rows * np.dtype(dt).itemsize
        mm = self._maps.get(key)
        if mm is None or len(mm) < end:
            if mm is not None:
                mm.close()
            with open(mailbox_path(self.prefix, *key), "rb") as f:
                mm = self._maps[key] = mmap.mmap(f.fileno(), 0, prot=mmap.PROT_READ)
        return tuple(np.frombuffer(mm, dt, rows, off) for off, dt in layout)

    def close(self) -> None:
        for mm in self._maps.values():
            mm.close()
        for fd in self._fds.values():
            os.close(fd)
        self._maps, self._fds = {}, {}


# ------------------------------------------------------------------- worker


class PartitionWorker:
    """Instantiated via ``ray.remote(PartitionWorker)`` by the engine, which
    keeps the actor warm across runs and calls ``begin`` to start each one."""

    def __init__(
        self,
        part_id: int,
        P: int,
        graph_dir: str,
        program: VertexProgram,
        n_vertices_global: int,
        routing: str | None = None,
        mailbox: str | None = None,
    ):
        self.part_id = part_id
        self.P = P
        self.mailbox: Mailbox | None = None
        self.begin(graph_dir, program, n_vertices_global, routing, mailbox)

    def begin(self, graph_dir: str, program: VertexProgram, n_vertices_global: int,
              routing: str | None = None, mailbox: str | None = None) -> None:
        """Start a run: load the shard and reset all per-run state. The shard
        is reloaded, not cached: `state/csr.py::add_edges` rewrites a graph
        dir in place. ``routing`` is "mailbox" (with the run's file prefix
        as ``mailbox``), "per_dest", or None when driven in process."""
        if self.mailbox is not None:
            self.mailbox.close()
        self.mailbox = Mailbox(mailbox, self.part_id) if routing == "mailbox" else None
        self.program = program
        self.n_vertices_global = n_vertices_global
        self.routing = routing
        self.shard = CSRShard.load(graph_dir, self.part_id, self.P)
        self.values = program.init_values(self.shard)
        self.active = np.ones(self.shard.n, bool)
        self._restored_incoming: list[tuple[int, tuple]] | None = None
        self.last_out: dict[int, tuple] = {}
        self._plan: RoutingPlan | None = None
        self._idx_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def ready(self) -> int:
        return self.shard.n

    def serve(self, address: str, authkey: bytes) -> None:
        """One attempt's control loop (module docstring): connect to the
        driver's listener, then run each ``(method, args)`` received and
        send back ``(True, result)`` or ``(False, exception)``, until the
        driver closes the connection."""
        with Client(address, family="AF_UNIX", authkey=authkey) as conn:
            conn.send(self.part_id)
            while True:
                try:
                    method, args = conn.recv()
                except EOFError:
                    return
                try:
                    reply = (True, getattr(self, method)(*args))
                except Exception as e:
                    tb = "".join(traceback.format_tb(e.__traceback__))
                    e.add_note(f"in partition {self.part_id}:\n{tb}")
                    reply = (False, e)
                conn.send(reply)

    # -- the superstep ------------------------------------------------------

    def step(self, superstep: int, aggr_global: dict, *incoming, use_restored: bool = False):
        """One superstep. ``incoming`` holds one entry per producer, except
        through the mailbox: there it is ONE list of the P producers' posts,
        or None for the inbox restored from a checkpoint."""
        t0 = time.perf_counter()
        if self.mailbox is not None:
            (incoming,) = incoming
            use_restored = incoming is None
        # (producer, block) pairs in producer order
        if use_restored:
            pairs = self._restored_incoming or []
        elif self.routing == "per_dest":
            # incoming = P per-destination blocks, each addressed to THIS
            # partition only (the driver routed producer i's j-th return
            # object to consumer j)
            pairs = [(i, b) for i, b in enumerate(incoming) if b is not None and len(b[0])]
        else:
            # incoming = one dict per producer, {dest: post entry} through
            # the mailbox or {dest: block} in process; take this partition's
            pairs = []
            for i, g in enumerate(incoming):
                b = g.get(self.part_id) if g else None
                if b is not None and self.mailbox is not None:
                    b = self.mailbox.read(i, superstep - 1, b)
                if b is not None and len(b[0]):
                    pairs.append((i, b))
        self._restored_incoming = None
        exchange_s = time.perf_counter() - t0
        blocks = [b for _, b in pairs]
        combiner = self.program.combiner

        # 1. delivery (reference `deliverAllNewNodeMsg`,
        #    `engine/Worker.cc:416-576`) + reactivation (C3, `engine/Node.cc:56-62`)
        recv = 0
        inbox = Inbox(idx=np.empty(0, np.int64), val=np.empty(0, np.float64))
        if blocks:
            idx = np.concatenate([self._local_index(i, b[0]) for i, b in pairs])
            recv = int(len(idx))
            if combiner == "none":
                # raw delivery: one inbox row per message, sender preserved
                src = np.concatenate([b[1] for b in blocks])
                val = np.concatenate([b[2] for b in blocks])
                inbox = Inbox(idx=idx, val=val, src=src)
                self.active[idx] = True  # duplicate indices are fine for a bool set
            elif combiner in _BY_KEY:
                key = np.concatenate([b[1] for b in blocks])
                cnt = np.concatenate([b[2] for b in blocks])
                i2, k2, c2 = _combine_by_key(combiner, idx, key, cnt)
                inbox = Inbox(idx=i2, val=c2, key=k2)
                self.active[i2] = True  # duplicate indices are fine for a bool set
            elif combiner == "sum":
                # local indices are dense [0, n): O(rows) bincount beats the
                # sort-based combine for the delivery-side reduction
                val = np.concatenate([b[1] for b in blocks])
                sums = np.bincount(idx, weights=val, minlength=self.shard.n)
                hit = np.bincount(idx, minlength=self.shard.n) > 0
                i2 = np.flatnonzero(hit)
                inbox = Inbox(idx=i2, val=sums[i2])
                self.active[i2] = True
            elif combiner == "max":
                val = np.concatenate([b[1] for b in blocks])
                i2, v2 = combine_max(idx, val)
                inbox = Inbox(idx=i2, val=v2)
                self.active[i2] = True
            else:
                val = np.concatenate([b[1] for b in blocks])
                i2, v2 = combine_min(idx, val)
                inbox = Inbox(idx=i2, val=v2)
                self.active[i2] = True

        # 2. compute on active vertices (reference loop `engine/Worker.cc:839-859`)
        computed = int(self.active.sum())
        ctx = Ctx(
            superstep=superstep,
            part_id=self.part_id,
            P=self.P,
            aggr_global=dict(aggr_global),
            n_vertices_global=self.n_vertices_global,
        )
        out = self.program.compute(ctx, self.shard, self.values, self.active, inbox)
        if out.halted is not None:
            self.active &= ~out.halted

        # 3. producer-side combine + split by destination partition
        #    (reference routing `engine/Node.cc:103-137`; combining is our
        #    addition, legal per SURVEY.md §2.12, vital for hub skew §4)
        blocks_out: dict[int, tuple] = {}
        if combiner == "sum" and out.out_dst is self.shard.indices and len(out.out_dst):
            if self._plan is None:
                self._plan = RoutingPlan(self.shard.indices, self.P)
            blocks_out = self._plan.sum(out.out_val)
        elif out.out_dst is not None and len(out.out_dst):
            if combiner == "none":
                payload = (out.out_dst, out.out_src, out.out_val)  # uncombined
            elif combiner in _BY_KEY:
                payload = _combine_by_key(combiner, out.out_dst, out.out_key, out.out_val)
            else:
                payload = _combine_block(combiner, (out.out_dst, out.out_val))
            blocks_out = _split_by_partition(payload, self.P)
        self.last_out = blocks_out
        t_post = time.perf_counter()
        post = self.mailbox.post(superstep, blocks_out) if self.mailbox is not None else None
        exchange_s += time.perf_counter() - t_post

        meta = {
            "part": self.part_id,
            "superstep": superstep,
            "computed": computed,
            "recv": recv,
            "sent": int(out.sent),
            "active_end": int(self.active.sum()),
            "aggr": dict(out.aggr),
            "exchange_s": exchange_s,
            "wall_s": time.perf_counter() - t0,
        }
        if self.routing == "per_dest":
            # P separate objects; the driver hands each to ONE consumer
            return tuple([meta] + [blocks_out.get(j) for j in range(self.P)])
        if self.mailbox is not None:
            meta["post"] = post
            return meta
        return meta, (blocks_out or None)

    def _local_index(self, producer: int, dst: np.ndarray) -> np.ndarray:
        """``shard.local_index(dst)``, cached per producer: a producer that
        sends on every edge ships the same ids each superstep."""
        hit = self._idx_cache.get(producer)
        if hit is not None and np.array_equal(hit[0], dst):
            return hit[1]
        idx = self.shard.local_index(dst)
        # copy: dst may be a mailbox view or a plasma view
        self._idx_cache[producer] = (dst.copy(), idx)
        return idx

    # -- checkpoint / restore (north rule; reference has none — SURVEY.md §4)

    def checkpoint(self, superstep: int, ckpt_dir: str) -> dict:
        if self.mailbox is not None:
            self.mailbox.close()  # the next step reopens; an idle pool maps nothing
        d = storage.join(ckpt_dir, f"ss_{superstep}")
        storage.makedirs(d)
        if self.values.ndim == 2:
            # vector-valued vertex state (e.g. HyperBall registers) as a
            # fixed-size-list column — restores and reads back zero-copy
            value_col = pa.FixedSizeListArray.from_arrays(
                pa.array(self.values.reshape(-1)), self.values.shape[1]
            )
        else:
            value_col = pa.array(self.values)
        vt = pa.table(
            {
                "vertex_id": self.shard.vids,
                "value": value_col,
                "active": self.active,
            }
        )
        _atomic(vt, storage.join(d, f"values_p{self.part_id}.parquet"))
        extra = self.program.extra_state()
        if extra is not None:
            _atomic(pa.table(extra), storage.join(d, f"extra_p{self.part_id}.parquet"))
        n_msg_rows = 0
        for j, b in self.last_out.items():
            path = storage.join(d, f"msgs_s{self.part_id}_d{j}.parquet")
            if b is None:
                continue
            cols = {"dst": b[0]}
            if self.program.combiner in _BY_KEY:
                cols["key"], cols["cnt"] = b[1], b[2]
            elif self.program.combiner == "none":
                cols["src"], cols["val"] = b[1], b[2]
            else:
                cols["val"] = b[1]
            _atomic(pa.table(cols), path)
            n_msg_rows += len(b[0])
        return {"part": self.part_id, "n_vertices": self.shard.n, "msg_rows": n_msg_rows}

    def restore(self, superstep: int, ckpt_dir: str) -> int:
        d = storage.join(ckpt_dir, f"ss_{superstep}")
        vt = storage.read_table(storage.join(d, f"values_p{self.part_id}.parquet"))
        vids = vt["vertex_id"].to_numpy(zero_copy_only=False)
        rows = self.shard.local_index(vids)
        if self.values.ndim == 2:
            col = vt["value"].combine_chunks()
            flat = col.values.to_numpy(zero_copy_only=False)
            self.values[rows] = flat.reshape(len(vids), self.values.shape[1])
        else:
            self.values[rows] = vt["value"].to_numpy(zero_copy_only=False)
        self.active[:] = False
        self.active[rows] = vt["active"].to_numpy(zero_copy_only=False)
        extra_path = storage.join(d, f"extra_p{self.part_id}.parquet")
        if storage.exists(extra_path):
            et = storage.read_table(extra_path)
            self.program.load_extra(
                {c: et[c].to_numpy(zero_copy_only=False) for c in et.column_names}
            )
        pairs = []
        names = fnmatch.filter(storage.listdir(d), f"msgs_s*_d{self.part_id}.parquet")
        if self.program.combiner in _BY_KEY:
            cols = ("dst", "key", "cnt")
        elif self.program.combiner == "none":
            cols = ("dst", "src", "val")
        else:
            cols = ("dst", "val")
        # producer order, as live delivery: name order would put s10 before s2
        for producer, name in sorted((int(n[len("msgs_s"):n.index("_d")]), n) for n in names):
            t = storage.read_table(storage.join(d, name))
            pairs.append((producer, tuple(t[c].to_numpy(zero_copy_only=False) for c in cols)))
        self._restored_incoming = pairs
        return sum(len(b[0]) for _, b in pairs)


_atomic = storage.write_table_atomic
