"""Substrate shared by every module: dense float64 vectors, the row layout
of node states, seeded, splittable random streams, and the atomic write of
every output file.

Vectors are plain ``numpy.ndarray`` objects with dtype float64.  Randomness
is derived from a counter-based generator (Philox) keyed by
``(master seed, node, round)``, so the draw sequence of any node/round pair
is independent of evaluation order and two streams with the same key are
bit-identical.

Node vectors are the rows of (n, d) arrays, walked in ``blocks`` of rows
and summed over nodes by ``add_rows``, one ``np.add.reduce`` that adds the
rows in ascending node order, so no sum depends on the blocking and traces
match a loop over single nodes bitwise.

A block of nodes' draws comes from one ``StreamFactory.block`` call.  Its
raw samples (``Sample``: standard normals or bounded integers) come from
one call of a C kernel that computes each node's Philox4x64-10 words
itself, with numpy's stream semantics, and so depends on no private numpy
layout.  Bounded integers come from numpy's C sampler in
``libnpyrandom.a``, handed a public ``bitgen_t`` over that stream.  A
normal takes numpy's ziggurat fast path inline, from tables probed from
numpy's sampler when the kernel loads, and hands every word the fast path
refuses to numpy's sampler, which reads it again and runs its own wedge
and tail.  So every value is the per-node stream's.  The kernel is built
with gcc on first use, cached beside the package's bytecode and checked
against the per-node path once per process; RandK picks, and every block
the kernel cannot draw, ``block`` draws node by node.

A block of normals also starts the draw of the block the engine asks for
next, on one helper thread that the kernel's library owns, into a second
buffer, while the engine works on the current block; the next request
takes it if it asks for that block, and draws itself otherwise.  Blocks
are not drawn ahead where the process may run on one CPU only, in a pool
worker (its helper would take a core from the other workers), or for
bounded integers, whose block costs less than the hand-over.

The same library sends TopK messages: ``TopKSend`` makes one
``send_rows`` call per block of node rows, which selects each row's kept
coordinates, writes g_i (and e_i) and adds the row to the node sum, with
the IEEE operations of ``send_messages``, the numpy path, in the same
order.  So every bit agrees, but for the NaN that NaN + NaN gives, which
numpy's own loops choose by position and no trace shows.  One guard,
``_kernel_matches``, decides draws and sends together; without the kernel
both take their numpy paths.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import functools
import glob
import hashlib
import itertools
import multiprocessing
import os
import subprocess
import sys
import sysconfig
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericFailure",
    "SEED_MAX",
    "BLOCK_BYTES",
    "blocks",
    "add_rows",
    "atomic_write",
    "norm_sq",
    "ensure_finite",
    "derive_stream",
    "Sample",
    "StreamFactory",
    "send_messages",
    "TopKSend",
    "topk_send",
]

_MASK32 = (1 << 32) - 1
SEED_MAX = (1 << 64) - 1  # seeds are the first 64-bit word of the Philox key
# upper bound on the bytes of a block's (rows, d) temporaries and (rows, batch * d) raw samples
BLOCK_BYTES = 64 * 1024


class NumericFailure(RuntimeError):
    """A public operation produced a non-finite value."""

    def __init__(self, message: str, round_index: int | None = None):
        super().__init__(message)
        self.round_index = round_index


def norm_sq(a: np.ndarray) -> float:
    return float(a @ a)


def _block_rows(width: int) -> int:
    """Rows of (rows, width) float64 values under ``BLOCK_BYTES``, at least one."""
    return max(1, BLOCK_BYTES // (8 * width))


def blocks(n: int, width: int) -> list[slice]:
    """Consecutive slices of n rows, ``_block_rows(width)`` rows each but the last."""
    step = _block_rows(width)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def add_rows(acc: np.ndarray, rows: np.ndarray, mask: np.ndarray | None = None) -> None:
    """acc += each row in turn (only its kept coordinates if masked), bit for
    bit, provided no entry of ``acc`` is -0.0.

    One ``np.add.reduce`` over axis 0 of a fresh stack: ``acc``, then the
    rows with every masked-out entry set to -0.0, since x + (-0.0) is x for
    every x, NaN and +-inf included.  numpy reduces axis 0 of a C-contiguous
    array one row at a time, so the sum runs in ascending row order.  The
    reduce starts from +0.0, which turns an ``acc`` entry of -0.0 into +0.0;
    a sum started from ``np.zeros`` never holds -0.0.  numpy sums a single
    column pairwise, so at d = 1 the rows are added by a loop.
    """
    if len(acc) == 1:
        for r in range(len(rows)):
            np.add(acc, rows[r], out=acc, where=True if mask is None else mask[r])
        return
    stack = np.empty((len(rows) + 1, len(acc)))
    stack[0] = acc
    if mask is None:
        stack[1:] = rows
    else:
        stack[1:] = -0.0
        np.copyto(stack[1:], rows, where=mask)
    np.add.reduce(stack, axis=0, out=acc)


def ensure_finite(a: np.ndarray, context: str = "", round_index: int | None = None) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericFailure(f"non-finite value in {context or 'vector'}", round_index)
    return a


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None):
    """A text file handle on ``path + ".tmp"``, moved onto ``path`` when the
    block exits cleanly and removed when it raises, so ``path`` never holds
    a partly written file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _check_ids(seed: int, node: int, round_index: int) -> None:
    """Raise ``ValueError`` unless (seed, node, round) keys a stream."""
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must lie in [0, 2^64 - 1], got {seed}")
    if node < 0 or round_index < 0:
        raise ValueError("node and round must be nonnegative")
    if node > _MASK32 or round_index > _MASK32:
        raise ValueError("node/round exceed 32-bit stream id space")


def _philox_key(seed: int, node: int, round_index: int, out: np.ndarray | None = None) -> np.ndarray:
    _check_ids(seed, node, round_index)
    key = np.empty(2, dtype=np.uint64) if out is None else out
    key[0] = seed
    key[1] = (node << 32) | round_index
    return key


def derive_stream(seed: int, node: int, round_index: int) -> np.random.Generator:
    """Independent random stream for one (node, round) pair.

    Deterministic: equal arguments give an identical draw sequence.
    Distinct (node, round) pairs are independent Philox keys.
    """
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, node, round_index)))


@dataclass(slots=True)
class Sample:
    """One node's raw sample for a stochastic gradient: ``count`` standard
    normals, or, when ``bounds`` (int64, one per node, each at least 1) is
    set, ``count`` integers, node i's drawn as ``integers(0, bounds[i])``."""

    count: int
    bounds: np.ndarray | None = None

    def draw(self, rng: np.random.Generator, i: int) -> np.ndarray:
        """Node i's raw sample, drawn from ``rng``: the per-node path."""
        if self.bounds is None:
            return rng.standard_normal(self.count)
        return rng.integers(0, self.bounds[i], size=self.count)


class _BlockArgs(ctypes.Structure):
    """The kernel's ``args_t``: rows ``node`` .. ``node + rows - 1`` of round
    ``round``, ``count`` draws each, bounded by ``bounds`` (NULL: normals)."""

    _fields_ = [(name, ctypes.c_uint64) for name in ("seed", "node", "rows", "round")] + [
        ("count", ctypes.c_ssize_t), ("bounds", ctypes.c_void_p), ("out", ctypes.c_void_p)]


class StreamFactory:
    """The draws of every (node, round) stream of one seed.

    ``block`` is the engine's one draw call.  ``stream(node, round)`` gives
    exactly the draws of :func:`derive_stream`, but resets one reused Philox
    instead of constructing a new one (about 7x faster: 1.4 against 9.6 us
    with timeit on a 2-vCPU Xeon).  The generator is only valid until the
    next ``stream`` call, so callers finish their draws before the next.
    """

    _ticket = 0  # the draw ahead's (0: none taken); a class default, so ``__del__`` runs if ``__init__`` raised

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._key = np.zeros(2, dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        # ``_fill``'s output buffer, the last sample's bounds as int64 (None if one is < 1),
        # and the kernel's arguments, updated in place before each call
        self._out = np.empty(0)
        self._bounds = self._int64_bounds = self._bounds_address = None
        self._args = _BlockArgs(seed=self.seed)
        self._args_ref = ctypes.byref(self._args)
        # the draw ahead: its buffer and arguments, the (start, stop, round, count)
        # it draws (None: none), the most nodes asked for so far, and the kernel's library
        self._draws_ahead = _draws_ahead()
        self._spare = np.empty(0)
        self._ahead = _BlockArgs(seed=self.seed)
        self._ahead_ref = ctypes.byref(self._ahead)
        self._ahead_key = None
        self._nodes = 0
        self._lib = None

    def __del__(self):
        self._settle()

    def _settle(self) -> None:
        """Wait until no draw ahead writes into ``_spare``."""
        if self._ticket:
            self._lib.ahead_wait(self._ticket)

    def stream(self, node: int, round_index: int) -> np.random.Generator:
        _philox_key(self.seed, node, round_index, out=self._key)
        self._bitgen.state = self._state
        return self._gen

    def block(self, rows: slice, round_index: int, sample: Sample | None, picks: tuple[int, int] | None = None):
        """``(raw, chosen)`` from each node i's ``stream(i, round_index)``, one
        row per node of ``rows``: ``sample.draw(stream, i)`` (None without a
        sample), then, given ``picks = (d, k)``, ``choice(d, k, replace=False)``
        (else None).  Without picks one kernel call draws ``raw`` (``_fill``,
        valid until the next call) and a block of normals starts the next one
        ahead (``_draw_ahead``).  With picks, or where the kernel is missing or
        refuses the bounds, each node resets its stream and draws here, so bad
        bounds raise the per-node error; with neither, no stream is reset."""
        if picks is None:
            lib = None if sample is None else _kernel()
            raw = None if lib is None else self._fill(lib, rows, round_index, sample)
            if raw is not None or sample is None:
                return raw, None
        raws, chosen = [], []
        for i in range(rows.start, rows.stop):
            rng = self.stream(i, round_index)
            raws.append(None if sample is None else sample.draw(rng, i))
            chosen.append(None if picks is None else rng.choice(*picks, replace=False))
        return (None if sample is None else np.array(raws)), (None if picks is None else np.array(chosen))

    def _fill(self, lib, rows: slice, round_index: int, sample: Sample) -> np.ndarray | None:
        """``block``'s kernel draw (None where the kernel refuses the bounds);
        a block drawn ahead is waited for, so a wrong guess costs no bits."""
        _check_ids(self.seed, rows.stop - 1, round_index)  # raises as ``stream`` does
        if sample.bounds is not self._bounds:
            self._bounds = sample.bounds
            bounds = None if sample.bounds is None else np.ascontiguousarray(sample.bounds, dtype=np.int64)
            self._int64_bounds = None if bounds is None or bounds.min() < 1 else bounds
            self._bounds_address = None if self._int64_bounds is None else bounds.ctypes.data
        if sample.bounds is not None and (self._int64_bounds is None or rows.stop > len(self._int64_bounds)):
            return None
        args, size = self._args, (rows.stop - rows.start) * sample.count
        if (
            sample.bounds is None
            and self._ahead_key == (rows.start, rows.stop, round_index, sample.count)
            and lib.ahead_wait(self._ticket)
        ):
            self._ahead_key = None
            self._out, self._spare = self._spare, self._out
            args.out, self._ahead.out = self._ahead.out, args.out
        else:
            dtype = np.float64 if sample.bounds is None else np.int64
            if self._out.dtype != dtype or len(self._out) < size:
                self._out = np.empty(size, dtype=dtype)
                args.out = self._out.ctypes.data
            args.node, args.rows, args.round, args.count = rows.start, rows.stop - rows.start, round_index, sample.count
            args.bounds = None if sample.bounds is None else self._bounds_address + 8 * rows.start
            lib.draw_block(self._args_ref)
        if sample.bounds is None and self._draws_ahead:
            self._draw_ahead(lib, rows, round_index, sample.count)
        return self._out[:size].reshape(-1, sample.count)

    def _draw_ahead(self, lib, rows: slice, round_index: int, count: int) -> None:
        """Start drawing, into ``_spare``, the block after ``rows`` in the walk
        ``blocks(n, count)`` of this round, or the first block of the next round
        after the last, with n the most nodes asked for so far.  Only normals
        are drawn ahead: a block of bounded integers takes about 2 us, less
        than the hand-over costs."""
        self._nodes = max(self._nodes, rows.stop)
        start = rows.stop if rows.stop < self._nodes else 0
        if start == 0:
            if round_index == _MASK32:
                return
            round_index += 1
        stop = min(start + _block_rows(count), self._nodes)
        ahead = self._ahead
        if self._spare.dtype != np.float64 or len(self._spare) < (stop - start) * count:
            self._settle()  # no draw may write into a buffer that is dropped
            self._spare = np.empty((stop - start) * count)
            ahead.out = self._spare.ctypes.data
        ahead.node, ahead.rows, ahead.round, ahead.count = start, stop - start, round_index, count
        self._lib = lib
        self._ticket = lib.ahead_start(self._ahead_ref)
        self._ahead_key = (start, stop, round_index, count) if self._ticket else None


class _SendArgs(ctypes.Structure):
    """The kernel's ``send_t``: ``rows`` rows of width ``d`` from ``target``,
    ``g`` and (ef14) ``e``, k kept of each, summed into ``acc``."""

    _fields_ = [(name, ctypes.c_ssize_t) for name in ("rows", "d", "k")] + [("ef14", ctypes.c_int)] + [
        (name, ctypes.c_void_p) for name in ("target", "g", "e", "acc")]


def send_messages(keep, target: np.ndarray, g: np.ndarray, e: np.ndarray | None, acc: np.ndarray) -> int:
    """The message step of rows ``g`` from their targets, in numpy, with
    ``keep(x)`` the mask of the coordinates each row of x sends; returns the
    coordinates sent.  Without ``e`` it writes: resid = target - g,
    g[kept] = target, acc[kept] += resid; with ``e`` (ef14; the target may be
    ``e`` itself): g = kept ? target : 0, e = target - g, acc += g."""
    if e is None:
        resid = target - g
        mask = keep(resid)
        np.copyto(g, target, where=mask)
        add_rows(acc, resid, mask)
    else:
        mask = keep(target)
        g[...] = np.where(mask, target, 0.0)
        np.subtract(target, g, out=e)  # the error keeps what was not sent
        add_rows(acc, g)
    return int(np.count_nonzero(mask))


class TopKSend:
    """The TopK messages of blocks of node rows, one ``send_rows`` call per
    block; build it with :func:`topk_send`.

    ``send(rows, target)`` sends the rows ``rows`` of the (n, d) node arrays,
    with ``target`` those rows' targets (``source[rows]`` where a ``source``
    array was given), and returns the coordinates sent.  Each value is bit
    for bit that of ``send_messages`` with TopK's ``compress.keep_mask``, as
    for ``add_rows`` provided no entry of ``acc`` is -0.0.  Addresses are
    offsets from the arrays' starts, kept in one ``_SendArgs`` updated in
    place; the library keeps each thread's work buffer.
    """

    def __init__(self, lib, k: int, g: np.ndarray, e: np.ndarray | None, acc: np.ndarray, source: np.ndarray | None):
        self._arrays = (g, e, acc, source)  # kept alive while their addresses are used
        self._g, self._e, acc, self._source = (None if a is None else _address(a) for a in self._arrays)
        self._row_bytes = 8 * g.shape[1]
        self._args = _SendArgs(0, g.shape[1], k, e is not None, None, self._g, self._e, acc)
        self._ref = ctypes.byref(self._args)
        self._send_rows = lib.send_rows

    def __call__(self, rows: slice, target: np.ndarray) -> int:
        args, offset = self._args, rows.start * self._row_bytes
        args.rows = rows.stop - rows.start
        if self._source is None:  # a target no node array holds: a kind without estimators
            target = np.ascontiguousarray(target, dtype=np.float64)
            args.target = target.ctypes.data
        else:
            args.target = self._source + offset
        args.g = self._g + offset
        if self._e is not None:
            args.e = self._e + offset
        sent = self._send_rows(self._ref)
        if sent < 0:
            raise MemoryError("no work buffer for the TopK send")
        return sent


def _address(a: np.ndarray) -> int:
    """The address of a writable C-contiguous array (TypeError for any other);
    faster than ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def topk_send(k: int, g: np.ndarray, e: np.ndarray | None, acc: np.ndarray, source: np.ndarray | None = None) -> TopKSend | None:
    """The kernel's TopK send over the (n, d) node arrays ``g``, ``e`` (None:
    the write rule) and ``source`` (the targets' array, if the targets are
    its rows), summing into ``acc`` (d,); None where the kernel did not load
    or an array is not a writable C-contiguous float64 array."""
    lib = _kernel()
    if lib is None or any(a is not None and a.dtype != np.float64 for a in (g, e, acc, source)):
        return None
    try:
        return TopKSend(lib, k, g, e, acc, source)
    except TypeError:  # from ``_address``
        return None


def _draws_ahead() -> bool:
    """Whether a new factory draws blocks of normals ahead: where this process
    may run on more than one CPU, so that the helper has a core of its own,
    and is not a pool worker, whose helper would compete with the other
    workers for the cores (three times slower on two)."""
    return len(os.sched_getaffinity(0)) > 1 and multiprocessing.parent_process() is None


# Philox4x64-10 (Salmon et al., SC'11) with numpy's stream semantics, and
# numpy's ziggurat fast path inline; its tables are probed from numpy's own
# sampler when the library loads, and ``_kernel_matches`` checks the result
_KERNEL_SOURCE = r"""
#include <pthread.h>
#include <stdatomic.h>
#include <stdlib.h>
#include <time.h>
#include "numpy/random/distributions.h"

/* one node's stream: numpy's Philox raises the counter before each block of
   four words, which are read in order (a row reads far fewer than 2^64 blocks
   from counter 0, so the counter's upper three words stay 0); a 32-bit draw
   is a word's low half, then its high half */
typedef struct { uint64_t key[2], ctr, buffer[4]; int pos, has_uint32; uint32_t uinteger; } stream_t;

static void philox_block(stream_t *s)
{
    uint64_t c0 = ++s->ctr, c1 = 0, c2 = 0, c3 = 0, k0 = s->key[0], k1 = s->key[1];
#pragma GCC unroll 10
    for (int i = 0; i < 10; i++) {
        __uint128_t p0 = (__uint128_t)0xD2E7470EE14C6C93u * c0, p1 = (__uint128_t)0xCA5A826395121157u * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0, c1 = (uint64_t)p1, c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1, c3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u, k1 += 0xBB67AE8584CAA73Bu;
    }
    s->buffer[0] = c0, s->buffer[1] = c1, s->buffer[2] = c2, s->buffer[3] = c3, s->pos = 0;
}

static inline uint64_t next64(stream_t *s)
{
    if (s->pos == 4)
        philox_block(s);
    return s->buffer[s->pos++];
}

static uint64_t stream_uint64(void *s) { return next64(s); }
static double stream_double(void *s) { return (next64(s) >> 11) * (1.0 / 9007199254740992.0); }

static uint32_t stream_uint32(void *st)
{
    stream_t *s = st;
    if (s->has_uint32) {
        s->has_uint32 = 0;
        return s->uinteger;
    }
    uint64_t w = next64(s);
    s->has_uint32 = 1, s->uinteger = (uint32_t)(w >> 32);
    return (uint32_t)w;
}

/* numpy's ziggurat takes a word r as idx = r & 0xff, a sign (bit 8) and
   rabs = r >> 9 (52 bits), and returns +-rabs * wi[idx] at once when
   rabs < ki[idx]; both tables are probed below (ki is read by the guard) */
static double wi[256];
uint64_t ki[256];

static void normals(stream_t *s, bitgen_t *bitgen, npy_intp count, double *out)
{
    for (npy_intp i = 0; i < count; i++) {
        uint64_t r = next64(s), rabs = r >> 9 & 0xFFFFFFFFFFFFFu;
        if (rabs < ki[r & 0xff]) {
            union { double x; uint64_t bits; } v = {rabs * wi[r & 0xff]};
            v.bits ^= (r & 0x100) << 55;  /* the sign bit */
            out[i] = v.x;
        } else {
            s->pos--;  /* numpy's sampler reads this word again, then its wedge or tail */
            out[i] = random_standard_normal(bitgen);
        }
    }
}

typedef struct { uint64_t seed, node, rows, round; npy_intp count; const int64_t *bounds; void *out; } args_t;

void draw_block(const args_t *a)
{
    stream_t s = {{a->seed}};
    bitgen_t bitgen = {&s, stream_uint64, stream_uint32, stream_double, stream_uint64};
    for (uint64_t j = 0, node = a->node, round = a->round; j < a->rows; j++, node++) {
        s.key[1] = node << 32 | round;
        s.ctr = 0, s.pos = 4, s.has_uint32 = 0, s.uinteger = 0;
        if (a->bounds == NULL)
            normals(&s, &bitgen, a->count, (double *)a->out + j * a->count);
        else
            random_bounded_uint64_fill(&bitgen, 0, (uint64_t)a->bounds[j] - 1, a->count, false, (uint64_t *)a->out + j * a->count);
    }
}

/* Drawing ahead: one helper thread per process runs draw_block on one job at
   a time, a copy of its args_t.  Jobs are numbered by tickets; ``posted`` is
   the last ticket handed out and ``done`` the last one drawn.  Both sides spin
   (pause) up to SPIN_NS for the other before sleeping on a condition variable,
   since waking a halted core costs more than a block's draw saves.  A forked
   child has no helper: it starts its own, and a ticket taken before the fork
   reads as lost there.  200 us covers the engine's work between two blocks
   at n = 100, d = 1000 (120 us median, 160 us at the 90th percentile); with
   40 or 60 us of work per block of 8 x 1000 normals, a block then cost 29 or
   13 us beyond the work, against 49 or 31 us without spinning and about 70
   us drawn in the caller (2-vCPU Xeon, median of 6 interleaved sets). */
#define SPIN_NS 200000

static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t posted_cv = PTHREAD_COND_INITIALIZER, done_cv = PTHREAD_COND_INITIALIZER;
static args_t job;
static _Atomic uint64_t posted, done;
static uint64_t first_valid = 1;  /* the first ticket taken in this process */
static int helper_running;

static uint64_t now_ns(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (uint64_t)t.tv_sec * 1000000000u + (uint64_t)t.tv_nsec;
}

/* waits until *counter >= target: spins up to SPIN_NS, then sleeps on cv */
static void wait_for(_Atomic uint64_t *counter, uint64_t target, pthread_cond_t *cv)
{
    uint64_t end = now_ns() + SPIN_NS;
    for (unsigned i = 1; atomic_load_explicit(counter, memory_order_acquire) < target; i++) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  /* _mm_pause without immintrin.h, whose parse raised gcc's peak RSS by 46 MB */
#endif
        if (i % 16 == 0 && now_ns() > end) {
            pthread_mutex_lock(&lock);
            while (atomic_load(counter) < target)
                pthread_cond_wait(cv, &lock);
            pthread_mutex_unlock(&lock);
            return;
        }
    }
}

static void *helper(void *unused)
{
    for (uint64_t ticket = atomic_load(&done) + 1;; ticket++) {
        wait_for(&posted, ticket, &posted_cv);
        draw_block(&job);  /* no job is posted until this one is done */
        pthread_mutex_lock(&lock);
        atomic_store_explicit(&done, ticket, memory_order_release);
        pthread_cond_broadcast(&done_cv);
        pthread_mutex_unlock(&lock);
    }
    return unused;
}

/* posts a copy of *a once the job in flight, if any, is done; returns its
   ticket, or 0 where no helper can be started */
uint64_t ahead_start(const args_t *a)
{
    pthread_mutex_lock(&lock);
    while (atomic_load(&done) < atomic_load(&posted))
        pthread_cond_wait(&done_cv, &lock);
    uint64_t ticket = 0;
    pthread_t thread;
    if (!helper_running && pthread_create(&thread, NULL, helper, NULL) == 0)
        helper_running = 1, pthread_detach(thread);
    if (helper_running) {
        job = *a;
        ticket = atomic_load(&posted) + 1;
        atomic_store_explicit(&posted, ticket, memory_order_release);
        pthread_cond_signal(&posted_cv);
    }
    pthread_mutex_unlock(&lock);
    return ticket;
}

/* 1 once ticket's job is done, 0 (at once) if the ticket was taken before a fork */
int ahead_wait(uint64_t ticket)
{
    if (ticket < first_valid)
        return 0;
    wait_for(&done, ticket, &done_cv);
    return 1;
}

/* waits until no job is in flight */
void ahead_drain(void) { ahead_wait(atomic_load(&posted)); }

static void before_fork(void) { pthread_mutex_lock(&lock); }
static void after_fork_in_parent(void) { pthread_mutex_unlock(&lock); }
static void after_fork_in_child(void)
{
    pthread_mutex_init(&lock, NULL);
    pthread_cond_init(&posted_cv, NULL);
    pthread_cond_init(&done_cv, NULL);
    helper_running = 0;
    atomic_store(&done, atomic_load(&posted));  /* the job in flight, if any, went with the helper */
    first_valid = atomic_load(&posted) + 1;
}

__attribute__((constructor)) static void handle_forks(void)
{
    pthread_atfork(before_fork, after_fork_in_parent, after_fork_in_child);
}

/* the guard's entry: count normals from each stream keyed (seed, j << 32),
   j < rows, whose next words are words[4j .. 4j + 3], then its blocks from counter 1 */
void draw_after(uint64_t seed, uint64_t rows, const uint64_t *words, npy_intp count, double *out)
{
    for (uint64_t j = 0; j < rows; j++, words += 4) {
        stream_t s = {{seed, j << 32}, 0, {words[0], words[1], words[2], words[3]}, 0};
        bitgen_t bitgen = {&s, stream_uint64, stream_uint32, stream_double, stream_uint64};
        normals(&s, &bitgen, count, (double *)out + j * count);
    }
}

/* the probe hands numpy's sampler one word, then 2^63 (0.5 as a double, and
   a word the fast path takes), so a word is accepted iff it is the only read */
typedef struct { uint64_t word; int reads; } probe_t;
static uint64_t probe_next(void *st) { probe_t *p = st; return p->reads++ ? (uint64_t)1 << 63 : p->word; }
static double probe_double(void *st) { return (probe_next(st) >> 11) * (1.0 / 9007199254740992.0); }

static int accepted(uint64_t word, double *x)
{
    probe_t p = {word, 0};
    bitgen_t bitgen = {&p, probe_next, NULL, probe_double, probe_next};
    *x = random_standard_normal(&bitgen);
    return p.reads == 1;
}

__attribute__((constructor)) static void probe_tables(void)
{
    double x;
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = (uint64_t)1 << 52;  /* ki[idx] is the smallest rabs numpy rejects */
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            if (accepted(idx | mid << 9, &x))
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
        accepted(idx | 1 << 9, &wi[idx]);
    }
}

/* TopK messages, each operation the one numpy makes in ``send_messages``
   (keep_mask, then add_rows), in the same order, so every bit agrees but the
   NaN that NaN + NaN gives (see the module docstring) */
typedef struct {
    npy_intp rows, d, k;
    int ef14;
    const double *target;
    double *g, *e, *acc;
} send_t;

/* a thread's work buffer for send_rows (d magnitudes, then k heap keys and k
   indices), grown as needed and kept */
static __thread double *buf;
static __thread npy_intp buf_len;

/* in the heap, entry a ranks below entry b: a smaller |x|, or an equal one further right */
static inline int below(double ka, npy_intp ia, double kb, npy_intp ib) { return ka < kb || (ka == kb && ia > ib); }

static void sift_down(double *keys, npy_intp *idx, npy_intp k, npy_intp i)
{
    for (npy_intp low = 2 * i + 1; low < k; i = low, low = 2 * i + 1) {
        if (low + 1 < k && below(keys[low + 1], idx[low + 1], keys[low], idx[low]))
            low++;
        if (!below(keys[low], idx[low], keys[i], idx[i]))
            return;
        double key = keys[i];
        npy_intp at = idx[i];
        keys[i] = keys[low], idx[i] = idx[low], keys[low] = key, idx[low] = at;
    }
}

/* the coordinates TopK keeps of a row whose magnitudes are size[0 .. d-1],
   into idx[0 .. k-1]: for k = 1 numpy's argmax (the first maximum, or the
   first NaN), else the k largest with NaN ranked after every number and ties
   to the lowest index, kept in a heap whose root ranks lowest */
static void top_k(const double *size, npy_intp d, npy_intp k, double *keys, npy_intp *idx)
{
    if (k == 1) {
        npy_intp best = 0;
        double top = size[0];
        for (npy_intp c = 1; c < d && top == top; c++)
            if (size[c] > top || size[c] != size[c])
                top = size[c], best = c;
        idx[0] = best;
        return;
    }
    for (npy_intp c = 0; c < k; c++)
        keys[c] = size[c] == size[c] ? size[c] : -1.0, idx[c] = c;  /* keep_mask's fmax(|x|, -1) */
    for (npy_intp i = k / 2; i-- > 0;)
        sift_down(keys, idx, k, i);
    /* only an |x| above the root's enters (an equal one further right ranks
       lower, and a NaN ranks lowest); most blocks of 4 hold none */
    double low = keys[0];
    for (npy_intp c = k; c < d; c += 4) {
        if (c + 4 <= d && !((size[c] > low) | (size[c + 1] > low) | (size[c + 2] > low) | (size[c + 3] > low)))
            continue;
        for (npy_intp j = c; j < c + 4 && j < d; j++)
            if (size[j] > low) {
                keys[0] = size[j], idx[0] = j;
                sift_down(keys, idx, k, 0);
                low = keys[0];
            }
    }
}

/* two doubles at any 8-byte boundary, and a mask of two lanes */
typedef double pair __attribute__((vector_size(16), aligned(8)));
typedef long long lanes __attribute__((vector_size(16), aligned(8)));
#define PAIR(p) (*(pair *)(p))
#define FABS(x) ((pair)((lanes)(x) & 0x7FFFFFFFFFFFFFFF))

/* write: resid = target - g; g[kept] = target and acc[kept] += resid.
   ef14: g = kept ? target : 0.0, e = target - g and acc += g (target may be e).
   Rows are added in ascending order; returns the coordinates sent, or -1
   where no work buffer could be allocated */
npy_intp send_rows(const send_t *s)
{
    npy_intp d = s->d, k = s->k, c;
    if (d + 2 * k > buf_len) {
        double *grown = realloc(buf, (d + 2 * k) * sizeof *grown);
        if (grown == NULL)
            return -1;
        buf = grown, buf_len = d + 2 * k;
    }
    double *acc = s->acc, *size = buf, *keys = buf + d;
    npy_intp *idx = (npy_intp *)(keys + k);
    for (npy_intp j = 0; j < s->rows; j++) {
        const double *t = s->target + j * d;
        double *g = s->g + j * d;
        if (!s->ef14) {
            for (c = 0; c + 2 <= d; c += 2)
                PAIR(size + c) = FABS(PAIR(t + c) - PAIR(g + c));
            if (c < d)
                size[c] = __builtin_fabs(t[c] - g[c]);
            top_k(size, d, k, keys, idx);
            for (npy_intp i = 0; i < k; i++) {
                c = idx[i];
                double resid = t[c] - g[c];
                g[c] = t[c];
                acc[c] = acc[c] + resid;
            }
            continue;
        }
        double *e = s->e + j * d;
        for (c = 0; c + 2 <= d; c += 2)
            PAIR(size + c) = FABS(PAIR(t + c));
        if (c < d)
            size[c] = __builtin_fabs(t[c]);
        top_k(size, d, k, keys, idx);
        for (npy_intp i = 0; i < k; i++)
            size[idx[i]] = -2.0;  /* below every magnitude: marks the kept */
        for (c = 0; c + 2 <= d; c += 2) {
            pair x = PAIR(t + c), sent = (pair)((lanes)x & (PAIR(size + c) == -2.0));
            PAIR(g + c) = sent;
            PAIR(e + c) = x - sent;
            PAIR(acc + c) = PAIR(acc + c) + sent;
        }
        if (c < d) {
            double x = t[c], sent = size[c] == -2.0 ? x : 0.0;
            g[c] = sent;
            e[c] = x - sent;
            acc[c] = acc[c] + sent;
        }
    }
    return s->rows * k;
}
"""
# the compiled kernel is cached beside the package's bytecode, under a hash of
# its source and gcc command; no multiply may be fused into an add, as numpy's are not
_CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")


@functools.cache
def _kernel():
    """The compiled library, which draws (``draw_block`` and the draw ahead)
    and sends (``send_rows``), or None where it cannot be built or loaded or
    does not reproduce the per-node draws and the numpy send (one guard,
    decided once per process, on first use).  It uses only numpy's public
    ``bitgen_t`` and samplers, and its library probes numpy's ziggurat tables
    when it loads.  A build is cached under a hash of the source and the gcc
    command; it writes its own temporary file, moves it onto the cached name
    and removes the other builds for this Python and numpy."""
    npyrandom = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    includes = ["-I", np.get_include(), "-I", sysconfig.get_paths()["include"]]
    command = ["gcc", *_CFLAGS, *includes, "-x", "c", "-", "-x", "none", npyrandom, "-lm"]
    key = hashlib.sha256("\0".join([_KERNEL_SOURCE, *command]).encode()).hexdigest()[:16]
    prefix = os.path.join(_CACHE_DIR, f"draw_block.{sys.implementation.cache_tag}-numpy{np.__version__}-")
    path = f"{prefix}{key}.so"
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        if not os.path.exists(path):
            os.makedirs(_CACHE_DIR, exist_ok=True)
            subprocess.run(
                [*command, "-o", tmp], input=_KERNEL_SOURCE, text=True, capture_output=True, check=True, timeout=120
            )
            os.replace(tmp, path)
            for stale in set(glob.glob(f"{glob.escape(prefix)}*.so")) - {path}:
                with contextlib.suppress(OSError):
                    os.remove(stale)
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        with contextlib.suppress(OSError):  # there is no file, or no directory
            os.remove(tmp)
    lib.draw_block.argtypes, lib.draw_block.restype = [ctypes.POINTER(_BlockArgs)], None
    lib.draw_after.argtypes = [ctypes.c_uint64, ctypes.c_uint64, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p]
    lib.draw_after.restype = None
    lib.ahead_start.argtypes, lib.ahead_start.restype = [ctypes.POINTER(_BlockArgs)], ctypes.c_uint64
    lib.ahead_wait.argtypes, lib.ahead_wait.restype = [ctypes.c_uint64], ctypes.c_int
    lib.ahead_drain.argtypes, lib.ahead_drain.restype = [], None
    lib.send_rows.argtypes, lib.send_rows.restype = [ctypes.POINTER(_SendArgs)], ctypes.c_ssize_t
    atexit.register(lib.ahead_drain)  # no draw ahead may outlive its buffer
    return lib if _kernel_matches(lib) else None


def _kernel_matches(lib) -> bool:
    """Whether the kernel gives numpy's draws, from fresh streams (not
    counted as ``StreamFactory.stream`` calls), on normals and bounded
    integers, one and several per node, the largest seed, node and round, a
    bound that enters numpy's rejection loop (2^31 + 1) and bounds >= 2^32;
    and, at each ziggurat layer's edge, the normals numpy's own Philox gives
    after the word the fast path takes last (sign bit set) and the word it
    sends to numpy's wedge or tail first; that a block the helper thread
    draws ahead equals the same block drawn in the calling thread; and that
    its TopK sends match ``_sends_match``'s reference."""
    if not _sends_match(lib):
        return False
    factory = StreamFactory(SEED_MAX)
    bounds = np.array([1, 3, 1000, (1 << 31) + 1, _MASK32, 1 << 32, (1 << 33) + 7, (1 << 63) - 1])
    first, top = slice(0, len(bounds)), slice(_MASK32 + 1 - len(bounds), _MASK32 + 1)
    for count in (1, 4):
        for rows, sample in ((first, Sample(count, bounds)), (first, Sample(3 * count)), (top, Sample(3 * count))):
            got = factory._fill(lib, rows, rows.stop - 1, sample)  # round 2^32 - 1 in the top block
            want = [sample.draw(derive_stream(SEED_MAX, i, rows.stop - 1), i) for i in range(rows.start, rows.stop)]
            if not np.array_equal(got, want):
                return False
    ki = np.ctypeslib.as_array((ctypes.c_uint64 * 256).in_dll(lib, "ki"))
    words, idx = np.empty((256, 4), dtype=np.uint64), np.arange(256, dtype=np.uint64)
    words[:, 0], words[:, 1] = idx | (np.maximum(ki, 1) - 1) << 9 | 0x100, idx | ki << 9
    words[:, 2:] = derive_stream(SEED_MAX, 0, 0).bit_generator.random_raw(2)
    got, want, state = np.empty((256, 3)), np.empty((256, 3)), factory._state
    lib.draw_after(SEED_MAX, 256, words.ctypes.data, 3, got.ctypes.data)
    state["buffer_pos"] = 0
    for i in range(256):
        state["buffer"] = words[i]
        _philox_key(SEED_MAX, i, 0, out=factory._key)
        factory._bitgen.state = state
        want[i] = factory._gen.standard_normal(3)
    if not np.array_equal(got, want):
        return False
    out = np.empty((2, 5, 1000))
    ahead, here = (_BlockArgs(SEED_MAX, 3, 5, 7, 1000, None, out[j].ctypes.data) for j in (0, 1))
    ticket = lib.ahead_start(ctypes.byref(ahead))
    lib.draw_block(ctypes.byref(here))
    return ticket == 0 or (lib.ahead_wait(ticket) == 1 and np.array_equal(out[0], out[1]))


def _sends_match(lib) -> bool:
    """Whether ``TopKSend`` gives ``send_messages``' g, e, sum and count with
    ``compress.keep_mask`` bit for bit, for k = 1, 2 and d, in both modes, on
    rows with ties, NaNs, infinities, signed zeros and a subnormal."""
    from .compress import keep_mask, top_k  # a leaf module, imported when the guard runs

    nan, inf = np.nan, np.inf
    target = np.array(
        [[1.0, -3.0, 3.0, nan, -0.0, 2.0], [nan, 0.5, -inf, 0.5, nan, 0.0], [nan, -0.0, 0.0, 0.0, 0.0, -0.0], [2.0, 2.0, 1.0, -2.0, 5e-324, 1e308]]
    )
    g = np.array([[0.0, -1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.5, 0.0, 0.0], [0.0] * 6, [0.0, 0.0, 1.0, 0.0, -0.0, -1e308]])
    for k, ef14 in itertools.product((1, 2, g.shape[1]), (False, True)):
        got, want = ([g.copy(), target.copy(), np.zeros(g.shape[1])] for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            sent = TopKSend(lib, k, got[0], got[1] if ef14 else None, got[2], got[1])(slice(0, len(g)), got[1])
            # ef14 computes its target in place, in e
            count = send_messages(lambda x: keep_mask(top_k(k, g.shape[1]), x), want[1], want[0], want[1] if ef14 else None, want[2])
        if sent != count or any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
            return False
    return True
