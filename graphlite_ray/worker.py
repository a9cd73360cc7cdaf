"""Partition worker: one stateful actor per graph partition.

The Ray-native analog of the reference's worker process
(`engine/Worker.cc:107-119,789-931`): it holds the partition's CSR shard,
value array and active mask across supersteps (reference T1-T3 state,
SURVEY.md §2.3), performs message delivery as a vectorized segmented
reduction (replacing the per-message hash-lookup loop + prefetch variants,
`engine/Worker.cc:416-576`), runs the vertex program's vectorized
`compute`, and posts producer-side-combined, destination-partitioned
message blocks.

Why a raw actor rather than `map_batches`: the BSP loop mutates
partition-resident state across tens of supersteps — exactly the "shared
mutable index" case where the Dataset API cannot express the semantics.
All one-pass, wide stages around the loop (extraction, id assignment, CSR
build, output) remain Ray Data pipelines (SURVEY.md §7.4 point 1).

Message blocks between partitions are numpy-array tuples
``(dst_global:int64, *cols)``, where ``cols`` comes from the program
combiner's `COMBINERS` row: ``val`` for "sum", "min" and "max"; ``key,
cnt`` for "sum_by_key" and "max_by_key"; ``src, val`` for "none" (RAW, one
row per message, sender id kept). The row also gives the combine that
delivery and the producer apply and the checkpoint's ``msgs_*`` columns.

One step contract for every routing. ``step(ss, aggr, *posts,
use_restored=False)`` returns ``(meta, post)``: ``posts`` holds each
producer's post of superstep ss-1 (None when it sent nothing), and a post
is always ``{dest: handle}``. The routing (the engine's ``routing``
option, default auto by cluster size) decides only what a handle is and
how its one consumer opens it; the engine sends each consumer only its
own entry of every post. Blocks, combine and checkpoints are the same
everywhere, and so are the results (tested):

  in process (no ``routing``; the benchmark's replay and the kernel tests)
  the handle is the block itself.

  "mailbox" (single node) the handle is ``(rows, [(offset, dtype.str),
  ...])`` in a shared-memory file. Producer i owns two files per run,
  ``/dev/shm/graphlite-<driver pid>-<run token>-p{i}-b{parity}``, one per
  superstep parity; the driver creates them empty for each attempt (a
  fresh token per attempt) and unlinks them in a ``finally``. At
  superstep ss the producer writes its blocks, column after column at
  64-byte aligned offsets, into its file for ``ss % 2``, growing it with
  ``ftruncate`` only when this superstep needs more room. A consumer maps
  each producer's file for that parity read-only (remapping when a block
  ends past its map) and reads its blocks as views. Parity makes the
  reuse safe without a lock: superstep ss+2 overwrites parity ``ss % 2``
  only after the driver has collected every reply of ss+1, i.e. after
  every consumer is done reading ss's blocks. Delivery concatenates into
  fresh arrays, so no view lives past the ``step`` that read it. Each
  ``checkpoint`` closes the worker's maps and file descriptors (the next
  ``step`` reopens them), and the last superstep of every successful run
  checkpoints, so an idle warm pool maps no mailbox.

  "per_dest" (multi-node) the handle is a Ray object ref. The engine calls
  ``step_split``, which runs ``step`` and returns the meta and the P
  blocks as ``num_returns=1+P`` separate objects; the driver passes ref j
  of every producer to consumer j only, as top-level arguments that Ray
  resolves to blocks before the call, the analog of the reference's
  one-peer-per-block sender (`engine/Sender.cc:44-235`). Ray inlines a
  return under 100 KiB into the reply, so small blocks do pass through
  the driver this way.

The meta's ``exchange_s`` is the time spent opening the inbound blocks and
posting the outbound ones; ``last_out`` keeps the blocks themselves.

Control on one node: for each attempt the driver makes one Ray call per
actor, ``serve(address, authkey)``. It connects to the attempt's listener
(a Linux abstract-namespace unix socket, so nothing on disk), sends its
partition id, then runs each ``(method, args, kw)`` it receives on itself
(``step``, ``checkpoint``, ``restore``) and sends back ``(True, result)``,
or ``(False, exception)`` with the actor's traceback as a note. It returns
when the driver closes the connection at the end of the attempt, or on
the actor's death, with the process. While ``serve`` runs, any other Ray
call to the actor queues behind it, so a run that ends waits for every
``serve`` to return: an idle pool holds no call, and ``begin``, ``ready``
or ``__ray_call__`` run at once.

Static routing plan. The graph does not change during a run, so when a
program sends on EVERY out-edge in CSR order (PageRank, Katz, eigenvector,
LPA, CC's superstep 0), its destination ids are exactly ``shard.indices``.
`_scatter_to_neighbors` signals that case by returning ``shard.indices``
itself, and ``step`` tests ``out.out_dst is self.shard.indices``: no
`ComputeOut` field or option marks it. On the first such superstep of a
run under a reducing combiner the worker builds a `RoutingPlan` from
``np.unique(indices, return_inverse=True)``: each edge's slot among the
unique ids, with the slots ordered by destination partition, and each
partition's ids. For "sum" the combine then is one ``np.bincount`` over
the slots and the split is P precomputed slices; it adds in the same order
as `combine_sum` followed by the stable partition split. Every other
combiner orders the edges by (slot, key) and reduces each segment with
its ``ufunc``; the slots are grouped by partition, so the rows come out
split. Either way blocks are bit-identical to the sort path (tested).

The sort path, `_reduce_segments`, serves frontier sends and delivery: it
orders rows by (dst, key) and runs one ``ufunc.reduceat`` per segment,
``np.fmin``/``np.fmax`` for "min"/"max". Those skip NaN, so a segment's
result is NaN only when all its values are (its first NaN, bit for bit);
a segment holding both -0.0 and 0.0 may return either zero, which compare
equal. Every order in the worker comes from `_stable_order`, a
least-significant-digit radix sort with 16-bit digits that returns the
permutation numpy's lexsort would, in time linear in the rows and the
bits of each column's span. (In process on the 20k-page benchmark crawl,
P=4, one core: LPA's steps summed ≈0.45 s, against ≈0.65 s under numpy's
comparison sorts.) On the consumer side each worker caches
``local_index(dst)`` per producer and reuses it while ``np.array_equal``
shows the same ids, which skips the ``searchsorted`` for every combiner.

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
from typing import Callable, NamedTuple

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


def _dense_sum(n: int, idx: np.ndarray, val: np.ndarray):
    """`combine_sum` over local ids in [0, n): O(rows) bincounts, no sort.
    Bit-identical, as both add each id's values in row order."""
    sums = np.bincount(idx, weights=val, minlength=n)
    hit = np.flatnonzero(np.bincount(idx, minlength=n))
    return hit, sums[hit]


def _ranks(c: np.ndarray) -> np.ndarray:
    """``c`` as uint64 ranks that sort as lexsort sorts ``c``: an integer
    column minus its min (wrapping, so the int64 extremes fit), any other
    dtype its ``np.unique`` inverse, in which NaNs share one rank above
    every number and -0.0 shares 0.0's."""
    if c.dtype.kind == "i":
        return (c.astype(np.int64, copy=False) - c.min()).view(np.uint64)
    if c.dtype.kind == "u":
        c = c.astype(np.uint64, copy=False)
        return c - c.min()
    return np.unique(c, return_inverse=True)[1].astype(np.uint64)


def _stable_order(*cols: np.ndarray) -> np.ndarray:
    """numpy's ``lexsort(cols)`` (the last column is the primary key) in
    linear time: least-significant-digit radix passes, one stable argsort
    of a uint16 digit per 16 bits of each column's span, which numpy sorts
    by counting. Ties keep their input order, as in lexsort."""
    order = None
    for c in cols:
        if not len(c):
            break
        ranks = _ranks(c)
        for shift in range(0, int(ranks.max()).bit_length(), 16):
            r = ranks if order is None else ranks[order]
            o = np.argsort((r >> np.uint64(shift)).astype(np.uint16), kind="stable")
            order = o if order is None else order[o]
    return np.arange(len(cols[0])) if order is None else order


def _reduce_segments(ufunc: np.ufunc, dst: np.ndarray, *cols: np.ndarray):
    """``ufunc.reduceat`` of the last column per dst, or per (dst, key) when
    ``cols`` is (key, val); rows come out sorted by dst, then key. The
    order is `_stable_order` by (dst, key), so each segment reduces its
    rows in input order, the producer combine and delivery alike.

    With `np.fmin`/`np.fmax` this is bit-equal to the first row per dst of
    a lexsort by (dst, val), resp. (dst, -val) (tested): NaN is skipped, and
    an all-NaN segment keeps its first NaN. The one exception: a segment
    holding both -0.0 and 0.0 may return the other zero, which compares
    equal."""
    *keys, val = cols
    order = _stable_order(*keys, dst)
    d, keys, val = dst[order], [k[order] for k in keys], val[order]
    first = np.ones(len(d), bool)
    first[1:] = d[1:] != d[:-1]
    for k in keys:
        first[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(first)
    return (d[starts], *(k[starts] for k in keys), ufunc.reduceat(val, starts))


# block column -> Inbox field; the ComputeOut field is "out_" + it
_FIELD = {"val": "val", "cnt": "val", "key": "key", "src": "src"}


class Combiner(NamedTuple):
    """A `COMBINERS` row. ``cols`` names a block's columns after ``dst``,
    which are also its checkpoint ``msgs_*`` columns. ``ufunc`` reduces the
    last column per dst, per (dst, key) when keyed, or is None for raw
    delivery. "sum" alone has ``dense(n, idx, val)``: its combine is the
    bincount `combine_sum`, and ``dense`` replaces it on delivery, where the
    ids are local rows in [0, n)."""

    cols: tuple[str, ...]
    ufunc: np.ufunc | None = None
    dense: Callable | None = None

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(_FIELD[c] for c in self.cols)

    def reduce(self, dst: np.ndarray, *cols: np.ndarray) -> tuple:
        if self.dense is not None:
            return combine_sum(dst, *cols)
        return _reduce_segments(self.ufunc, dst, *cols)

    def combine(self, dst: np.ndarray, *cols: np.ndarray) -> tuple:
        return (dst, *cols) if self.ufunc is None else self.reduce(dst, *cols)

    def deliver(self, n: int, idx: np.ndarray, *cols: np.ndarray) -> tuple:
        return self.combine(idx, *cols) if self.dense is None else self.dense(n, idx, *cols)


COMBINERS = {
    "sum": Combiner(("val",), np.add, _dense_sum),
    "min": Combiner(("val",), np.fmin),
    "max": Combiner(("val",), np.fmax),
    "sum_by_key": Combiner(("key", "cnt"), np.add),
    # HyperBall's counter union is an elementwise register max
    "max_by_key": Combiner(("key", "cnt"), np.maximum),
    "none": Combiner(("src", "val")),  # RAW: one row per message, sender kept
}


def _slices(bounds: np.ndarray, cols) -> dict[int, tuple]:
    """{j: rows bounds[j]:bounds[j + 1] of every column}, empty j left out."""
    return {
        j: tuple(c[bounds[j]:bounds[j + 1]] for c in cols)
        for j in range(len(bounds) - 1)
        if bounds[j + 1] > bounds[j]
    }


def _split_by_partition(payload: tuple, P: int) -> dict[int, tuple]:
    """Stable split of combined rows by destination partition (id % P)."""
    part = payload[0] % np.int64(P)
    order = _stable_order(part)
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
        order = _stable_order(part)
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

    def reduce(self, ufunc: np.ufunc, *cols: np.ndarray) -> dict[int, tuple]:
        """`_reduce_segments` + split: segments by (slot, *keys) hold the
        edges that segments by (dst, *keys) hold, in the same order, and
        the slots group the rows by partition, ascending id within each."""
        slot, *rest = _reduce_segments(ufunc, self.slot, *cols)
        return _slices(np.searchsorted(slot, self.bounds), (self.ids[slot], *rest))


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
        self.combiner = COMBINERS[program.combiner]
        self.n_vertices_global = n_vertices_global
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
        driver's listener, then run each ``(method, args, kw)`` received and
        send back ``(True, result)`` or ``(False, exception)``, until the
        driver closes the connection."""
        with Client(address, family="AF_UNIX", authkey=authkey) as conn:
            conn.send(self.part_id)
            while True:
                try:
                    method, args, kw = conn.recv()
                except EOFError:
                    return
                try:
                    reply = (True, getattr(self, method)(*args, **kw))
                except Exception as e:
                    tb = "".join(traceback.format_tb(e.__traceback__))
                    e.add_note(f"in partition {self.part_id}:\n{tb}")
                    reply = (False, e)
                conn.send(reply)

    # -- the superstep ------------------------------------------------------

    def step(self, superstep: int, aggr_global: dict, *posts, use_restored: bool = False):
        """One superstep (module docstring): ``posts`` holds each producer's
        post of superstep-1, or is ignored for the inbox restored from a
        checkpoint; returns ``(meta, post)``."""
        t0 = time.perf_counter()
        # (producer, block) pairs in producer order
        if use_restored:
            pairs = self._restored_incoming or []
        else:
            pairs = []
            for i, g in enumerate(posts):
                b = g.get(self.part_id) if g else None
                if b is not None and self.mailbox is not None:
                    b = self.mailbox.read(i, superstep - 1, b)
                if b is not None and len(b[0]):
                    pairs.append((i, b))
        self._restored_incoming = None
        exchange_s = time.perf_counter() - t0
        row = self.combiner

        # 1. delivery (reference `deliverAllNewNodeMsg`,
        #    `engine/Worker.cc:416-576`) + reactivation (C3, `engine/Node.cc:56-62`)
        recv = 0
        inbox = Inbox(idx=np.empty(0, np.int64), val=np.empty(0, np.float64))
        if pairs:
            idx = np.concatenate([self._local_index(i, b[0]) for i, b in pairs])
            recv = int(len(idx))
            cols = [np.concatenate([b[c] for _, b in pairs]) for c in range(1, 1 + len(row.cols))]
            idx, *cols = row.deliver(self.shard.n, idx, *cols)
            inbox = Inbox(idx=idx, **dict(zip(row.fields, cols)))
            self.active[idx] = True  # duplicate indices ("none") are fine for a bool set

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
        if out.out_dst is not None and len(out.out_dst):
            sent = [getattr(out, "out_" + f) for f in row.fields]
            # the plan is a precomputed combine + split; "sum", the one row
            # with a dense delivery, adds by bincount
            if row.ufunc is not None and out.out_dst is self.shard.indices:
                if self._plan is None:
                    self._plan = RoutingPlan(self.shard.indices, self.P)
                blocks_out = (self._plan.sum(*sent) if row.dense is not None
                              else self._plan.reduce(row.ufunc, *sent))
            else:
                blocks_out = _split_by_partition(row.combine(out.out_dst, *sent), self.P)
        self.last_out = blocks_out
        t_post = time.perf_counter()
        post = self.mailbox.post(superstep, blocks_out) if self.mailbox is not None else blocks_out
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
        return meta, (post or None)

    def step_split(self, superstep: int, aggr_global: dict, *blocks, use_restored: bool = False):
        """``step`` as a ``per_dest`` Ray call (module docstring): ``blocks``
        holds this partition's block from each producer, resolved by Ray
        before the call; returns the meta and the P outbound blocks as
        ``1+P`` values, one object each."""
        meta, post = self.step(superstep, aggr_global,
                               *(None if b is None else {self.part_id: b} for b in blocks),
                               use_restored=use_restored)
        return (meta, *[(post or {}).get(j) for j in range(self.P)])

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
        cols = ("dst", *self.combiner.cols)
        for j, b in self.last_out.items():
            _atomic(pa.table(dict(zip(cols, b))), storage.join(d, f"msgs_s{self.part_id}_d{j}.parquet"))
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
        cols = ("dst", *self.combiner.cols)
        # producer order, as live delivery: name order would put s10 before s2
        for producer, name in sorted((int(n[len("msgs_s"):n.index("_d")]), n) for n in names):
            t = storage.read_table(storage.join(d, name))
            pairs.append((producer, tuple(t[c].to_numpy(zero_copy_only=False) for c in cols)))
        self._restored_incoming = pairs
        return sum(len(b[0]) for _, b in pairs)


_atomic = storage.write_table_atomic
