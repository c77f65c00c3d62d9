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
takes it if it asks for that block, and draws itself otherwise.  A request
that finds the block unfinished draws the rows the helper has not claimed
yet itself, so both cores share the block.  Blocks are not drawn ahead
where the process may run on one CPU only, in a pool worker (its helper
would take a core from the other workers), or for bounded integers, whose
block costs less than the hand-over.

The same library steps the TopK blocks of the write and ef14 rules:
``TopKStep`` makes one ``step_rows`` call per block of node rows, which per
row forms the sample gradient (the quadratic's in the kernel, else from
the rows the problem's oracle returns), advances the estimators, selects
the kept coordinates, writes g_i (and e_i) and adds the row to the node
sum, with the IEEE operations of the numpy path (``advance_estimators``,
then ``send_messages``) in the same order.  So every bit agrees, but for
the NaN that NaN + NaN gives, which numpy's own loops choose by position
and no trace shows.

It also takes the quadratic's gradients elsewhere: ``QuadraticGrads``
makes one ``quad_grads`` call per block of node rows, which forms T x once
per iterate and then each row's gradient at one or two iterates, its batch
mean of the noise taken once, in one pass per row, with the IEEE
operations of ``quadratic_grads`` and ``add_batch_noise``, the numpy path,
in the same order.  One guard, ``_kernel_matches``, decides draws, steps
and gradients together; without the kernel all take their numpy paths.
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
    "advance_estimators",
    "send_messages",
    "TopKStep",
    "topk_step",
    "tridiag_matvec",
    "quadratic_grads",
    "add_batch_noise",
    "QuadraticGrads",
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


def advance_estimators(states, grads: list[np.ndarray], eta: float, gamma: float) -> np.ndarray:
    """Advance a block's estimators in place, in numpy, and return the
    message target: the last of them, else the sample gradient ``grads[0]``.
    ``states`` are ``(name, rows)`` pairs in the rule's order: v and u average
    the target so far, (1 - eta) s + eta target; w takes STORM's correction
    with the previous iterate's gradient ``grads[1]``, sg + (1 - eta)(w -
    that); e adds gamma sg.  Each operation is in the order of these
    formulas."""
    sg = target = grads[0]
    for name, state in states:
        if name in ("v", "u"):
            np.multiply(1.0 - eta, state, out=state)
            state += eta * target
        elif name == "w":
            np.subtract(state, grads[1], out=state)
            np.multiply(1.0 - eta, state, out=state)
            np.add(sg, state, out=state)
        else:  # "e": the error plus this round's scaled sample gradient
            state += gamma * sg
        target = state
    return target


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


def tridiag_matvec(x: np.ndarray) -> np.ndarray:
    """T x for T = tridiag(-1, 2, -1)."""
    out = 2.0 * x
    out[:-1] -= x[1:]
    out[1:] -= x[:-1]
    return out


def quadratic_grads(scale: np.ndarray, b: np.ndarray, shift: float, x: np.ndarray) -> np.ndarray:
    """scale[i] T x + shift x - b[i], one row per row of ``b``: the gradients
    of the quadratic of ``QuadraticGrads`` without noise, in numpy."""
    g = scale[:, None] * tridiag_matvec(x)
    g += shift * x
    g -= b
    return g


def add_batch_noise(grads: list[np.ndarray], raw: np.ndarray, noise_scale: float) -> None:
    """Add ``noise_scale`` times each row's batch mean of its raw normals
    ``raw[i]`` (batch times the width of ``grads``' rows) to each array of
    ``grads``, in place: the noise of ``QuadraticGrads``, in numpy."""
    raw = np.asarray(raw).reshape(len(raw), -1, grads[0].shape[-1])
    noise = noise_scale * (raw[:, 0] if raw.shape[1] == 1 else raw.mean(axis=1))
    for g in grads:
        g += noise


class _GradArgs(ctypes.Structure):
    """The kernel's ``grads_t``: ``rows`` rows of width ``d`` at ``iterates``
    iterates ``x0`` (and ``x1``) into ``out``, (iterates, rows, d), with
    ``batch`` raw normals per coordinate from ``raw`` (NULL: no noise)."""

    _fields_ = [(name, ctypes.c_ssize_t) for name in ("rows", "d", "batch", "iterates")] + [
        ("shift", ctypes.c_double), ("noise_scale", ctypes.c_double)] + [
        (name, ctypes.c_void_p) for name in ("scale", "b", "raw", "x0", "x1", "out")]


_FLOAT64 = np.dtype(np.float64)


class QuadraticGrads:
    """The gradients of the quadratic f_i(x) = 0.5 x^T Q_i x - b_i^T x + noise,
    Q_i = scale[i] T + shift I with T = tridiag(-1, 2, -1), one ``quad_grads``
    call per block of node rows.

    ``grads(rows, xs, raw)`` returns one (rows, d) array per iterate of
    ``xs`` (one or two): Q_i x - b_i, plus ``noise_scale`` times each row's
    batch mean of its raw normals ``raw[i - rows.start]`` unless ``raw`` is
    None; bit for bit the values of the numpy path, ``quadratic_grads`` and
    ``add_batch_noise``, but a NaN's.  It returns None for what the kernel
    does not take: rows outside the problem, an iterate or sample that is
    not a writable C-contiguous float64 array of the problem's width, or a
    batch mean at d = 1, which numpy sums pairwise.  The addresses of
    ``scale`` and ``b`` are kept in one ``_GradArgs`` updated in place,
    under a lock, since a problem's oracle may be called from several
    threads.
    """

    def __init__(self, lib, scale: np.ndarray, b: np.ndarray, shift: float, noise_scale: float):
        self._arrays = scale, b = np.ascontiguousarray(scale, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
        self._n, self._d = b.shape
        self._scale, self._b = scale.ctypes.data, b.ctypes.data
        self._args = _GradArgs(d=self._d, shift=shift, noise_scale=noise_scale)
        self._ref = ctypes.byref(self._args)
        self._quad_grads = lib.quad_grads
        self._lock = threading.Lock()

    def __call__(self, rows: slice, xs, raw: np.ndarray | None) -> list[np.ndarray] | None:
        args, d, n = self._args, self._d, rows.stop - rows.start
        if not (0 <= rows.start < rows.stop <= self._n and rows.step is None and 1 <= len(xs) <= 2):
            return None
        x0 = _float64_address(xs[0], (d,))
        x1 = x0 if len(xs) == 1 else _float64_address(xs[1], (d,))  # the kernel reads x1 only for two
        samples = _samples(raw, n, d)
        if x0 is None or x1 is None or samples is None:
            return None
        out = np.empty((len(xs), n, d))
        with self._lock:
            (args.raw, args.batch), args.rows, args.iterates = samples, n, len(xs)
            args.scale, args.b, args.x0, args.x1 = self._scale + 8 * rows.start, self._b + 8 * d * rows.start, x0, x1
            args.out = _address(out)
            failed = self._quad_grads(self._ref) < 0
        if failed:
            raise MemoryError("no work buffer for the quadratic's gradients")
        return [out[0]] if len(xs) == 1 else [out[0], out[1]]


def _samples(raw, n: int, d: int) -> tuple[int | None, int] | None:
    """``(address, batch)`` of a block's raw normals, n rows of batch times d
    (``(None, 1)`` for None), or None where the kernel does not take them:
    anything but a writable C-contiguous float64 array of that shape, or a
    batch mean at d = 1, which numpy sums pairwise."""
    if raw is None:
        return None, 1
    batch = raw.shape[-1] // d if isinstance(raw, np.ndarray) and raw.ndim == 2 else 0
    address = _float64_address(raw, (n, batch * d)) if batch == 1 or (batch > 1 and d > 1) else None
    return None if address is None else (address, batch)


def _float64_address(a, shape: tuple) -> int | None:
    """``_address(a)`` where ``a`` is a writable C-contiguous float64 array of
    ``shape``, else None."""
    if not isinstance(a, np.ndarray) or a.dtype is not _FLOAT64 or a.shape != shape:
        return None
    try:
        return _address(a)
    except TypeError:
        return None


def _address(a: np.ndarray) -> int:
    """The address of a writable C-contiguous array (TypeError for any other);
    faster than ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


class _StepArgs(ctypes.Structure):
    """The kernel's ``step_t``: rows ``start`` .. ``start + rows - 1`` of the
    node arrays, k kept of each, their sample gradients the rows of ``sg0``
    (and ``sg1``) or, where ``sg0`` is NULL, the quadratic's of ``quad``."""

    _fields_ = [(name, ctypes.c_ssize_t) for name in ("start", "rows", "k")] + [
        (name, ctypes.c_double) for name in ("eta", "gamma")] + [
        (name, ctypes.c_void_p) for name in ("sg0", "sg1", "g", "v", "u", "w", "e", "acc")] + [("quad", _GradArgs)]


class TopKStep:
    """A run's TopK blocks in the write and ef14 rules, one ``step_rows`` call
    per block of node rows: each row's sample gradient, its estimators and
    its message in one pass; build it with :func:`topk_step`.

    ``round(xs, eta, gamma)`` starts a round at the iterates ``xs`` (the new
    one, and STORM's previous one).  ``step(rows, raw)`` then advances the
    rows ``rows`` from their raw samples ``raw`` (the draws of the problem's
    ``sample``, None where it is None), adds their messages to ``acc`` and
    returns the coordinates sent.  The sample gradients are the quadratic's,
    formed in the kernel, where ``quad`` (its ``QuadraticGrads``) is given
    and the kernel takes the iterates and samples; otherwise the rows that
    ``oracle(rows, xs, raw)`` returns.  Each value is bit for bit that of
    the numpy path, ``advance_estimators`` then ``send_messages`` with
    TopK's ``compress.keep_mask``, as for ``add_rows`` provided no entry of
    ``acc`` is -0.0.  The node arrays' addresses are set once and the
    iterates' once per round, in one ``_StepArgs`` updated in place; the
    library keeps each thread's work buffer.
    """

    def __init__(self, lib, k: int, g: np.ndarray, states: dict, acc: np.ndarray, oracle, quad: QuadraticGrads | None):
        self._n, self._d = n, d = g.shape
        if any(a.shape != (n, d) for a in states.values()) or acc.shape != (d,) or not 1 <= k <= d:
            raise ValueError("the node arrays, their sum and k do not fit one another")
        if quad is not None and (quad._n, quad._d) != (n, d):
            raise ValueError("the quadratic's oracle is for other node arrays")
        self._arrays = (g, acc, *states.values(), quad)  # kept alive while their addresses are used
        self._args = _StepArgs(k=k, g=_address(g), acc=_address(acc), **{name: _address(a) for name, a in states.items()})
        if quad is None:
            self._args.quad.d = d
        else:
            self._args.quad = _GradArgs(d=d, shift=quad._args.shift, noise_scale=quad._args.noise_scale, scale=quad._scale, b=quad._b)
        self._quad = self._args.quad  # a view into ``_args``
        self._has_quad, self._iterates = quad is not None, 2 if "w" in states else 1
        self._oracle, self._xs, self._in_kernel = oracle, (), False
        self._ref = ctypes.byref(self._args)
        self._step_rows = lib.step_rows

    def round(self, xs, eta: float, gamma: float) -> None:
        if len(xs) != self._iterates:
            raise ValueError(f"the rule takes its sample gradients at {self._iterates} iterates, got {len(xs)}")
        self._xs, self._args.eta, self._args.gamma = xs, eta, gamma
        addresses = [_float64_address(x, (self._d,)) for x in xs] if self._has_quad else [None]
        self._in_kernel = None not in addresses
        if self._in_kernel:
            self._quad.iterates, self._quad.x0, self._quad.x1 = len(xs), addresses[0], addresses[-1]

    def __call__(self, rows: slice, raw) -> int:
        args, n = self._args, rows.stop - rows.start
        if not (0 <= rows.start < rows.stop <= self._n and rows.step is None):
            raise ValueError(f"rows {rows} lie outside the node arrays")
        samples = _samples(raw, n, self._d) if self._in_kernel else None
        if samples is None:  # the oracle's rows; held until the call returns
            sg = [np.ascontiguousarray(x, dtype=np.float64) for x in self._oracle(rows, self._xs, raw)]
            if len(sg) != self._iterates or any(x.shape != (n, self._d) for x in sg):
                raise ValueError("the oracle's sample gradients do not fit the block")
            addresses = [_address(x) if x.flags.writeable else x.ctypes.data for x in sg]
            args.sg0, args.sg1 = addresses[0], addresses[-1]
        else:
            args.sg0, (self._quad.raw, self._quad.batch) = None, samples
        args.start, args.rows = rows.start, n
        sent = self._step_rows(self._ref)
        if sent < 0:
            raise MemoryError("no work buffer for the TopK step")
        return sent


def topk_step(k: int, g: np.ndarray, states: dict, acc: np.ndarray, oracle, quad: QuadraticGrads | None = None) -> TopKStep | None:
    """The kernel's TopK step (see ``TopKStep``) over the (n, d) node arrays
    ``g`` and ``states``, the estimators the rule keeps by name (v, u, w, e)
    in its order, summing into ``acc`` (d,); None where the kernel did not
    load or an array is not a writable C-contiguous float64 array."""
    lib = _kernel()
    if lib is None or any(a.dtype != np.float64 for a in (g, acc, *states.values())):
        return None
    try:
        return TopKStep(lib, k, g, states, acc, oracle, quad)
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

/* row j of a's block: node a->node + j's draws, into row j of a->out */
static void draw_row(const args_t *a, uint64_t j)
{
    uint64_t node = a->node + j, round = a->round;
    stream_t s = {{a->seed, node << 32 | round}, 0, {0}, 4};
    bitgen_t bitgen = {&s, stream_uint64, stream_uint32, stream_double, stream_uint64};
    if (a->bounds == NULL)
        normals(&s, &bitgen, a->count, (double *)a->out + j * a->count);
    else
        random_bounded_uint64_fill(&bitgen, 0, (uint64_t)a->bounds[j] - 1, a->count, false, (uint64_t *)a->out + j * a->count);
}

void draw_block(const args_t *a)
{
    for (uint64_t j = 0; j < a->rows; j++)
        draw_row(a, j);
}

/* Drawing ahead: one job at a time, a copy of its args_t, whose rows one
   helper thread per process draws, and so does the thread that waits for
   the job (ahead_wait), each row once: rows are independent streams written
   to disjoint memory, so which thread draws a row changes no bit.  Jobs are
   numbered by tickets; ``posted`` is the last ticket handed out and ``done``
   the last one drawn, published by whoever draws the job's last row.
   Waiting sides spin (pause) up to SPIN_NS before they sleep on a condition
   variable, since waking a halted core costs more than it saves: the helper
   for the next job, the caller for the rows the helper is drawing.  A
   forked child has no helper: it starts its own, and a ticket taken before
   the fork reads as lost there.  SPIN_NS covers the engine's work between
   two blocks at n = 100, d = 1000 (about 40 us since a TopK block is one
   step, 120 us before), so the helper is awake for the next job; a caller
   that shares a block waits at most for the row the helper is drawing
   (about 6 us for 1000 normals; 2-vCPU Xeon). */
#define SPIN_NS 200000

static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static pthread_cond_t posted_cv = PTHREAD_COND_INITIALIZER, done_cv = PTHREAD_COND_INITIALIZER;
static args_t job;
static _Atomic uint64_t posted, done, finished;  /* finished: the job's rows drawn */
/* the job's ticket (its low 32 bits) over the rows no thread has claimed */
static _Atomic uint64_t claim;
static uint64_t first_valid = 1;  /* the first ticket taken in this process */
static int helper_running;
_Atomic uint64_t caller_rows;  /* rows the waiting threads drew (read by the tests) */

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

static void publish(uint64_t ticket)
{
    pthread_mutex_lock(&lock);
    atomic_store_explicit(&done, ticket, memory_order_release);
    pthread_cond_broadcast(&done_cv);
    pthread_mutex_unlock(&lock);
}

/* draws ticket's rows that no thread has claimed yet, one claim at a time:
   a compare-and-swap on ``claim`` takes the next row only while the word
   still holds this ticket, so no thread draws another job's rows, and the
   job cannot change before the claimed row is drawn.  Returns the rows drawn */
static uint64_t claim_rows(uint64_t ticket)
{
    uint64_t drawn = 0, mine = ticket << 32, c = atomic_load_explicit(&claim, memory_order_acquire);
    while ((c >> 32) == (mine >> 32) && (c & 0xFFFFFFFFu) > 0) {
        if (!atomic_compare_exchange_weak_explicit(&claim, &c, c - 1, memory_order_acquire, memory_order_acquire))
            continue;
        args_t a = job;
        draw_row(&a, a.rows - (c & 0xFFFFFFFFu));
        drawn++;
        if (atomic_fetch_add_explicit(&finished, 1, memory_order_acq_rel) + 1 == a.rows)
            publish(ticket);
        c = atomic_load_explicit(&claim, memory_order_acquire);
    }
    return drawn;
}

static void *helper(void *unused)
{
    for (uint64_t ticket = atomic_load(&done) + 1;; ticket++) {
        wait_for(&posted, ticket, &posted_cv);
        claim_rows(ticket);  /* no job is posted until this one is done */
    }
    return unused;
}

/* posts a copy of *a once the job in flight, if any, is done; returns its
   ticket, or 0 where no helper can be started or a has no rows or 2^32 or more */
uint64_t ahead_start(const args_t *a)
{
    if (a->rows == 0 || a->rows >> 32)
        return 0;
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
        atomic_store(&finished, 0);
        atomic_store_explicit(&claim, ticket << 32 | a->rows, memory_order_release);
        atomic_store_explicit(&posted, ticket, memory_order_release);
        pthread_cond_signal(&posted_cv);
    }
    pthread_mutex_unlock(&lock);
    return ticket;
}

/* 1 once ticket's job is done, drawing its unclaimed rows here first; 0 (at
   once) if the ticket was taken before a fork */
int ahead_wait(uint64_t ticket)
{
    if (ticket < first_valid)
        return 0;
    if (atomic_load_explicit(&done, memory_order_acquire) < ticket)
        atomic_fetch_add_explicit(&caller_rows, claim_rows(ticket), memory_order_relaxed);
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

/* a thread's work buffer, grown as needed and kept: ``len`` doubles, or NULL
   where it cannot grow */
static __thread double *buf;
static __thread npy_intp buf_len;

static double *work(npy_intp len)
{
    if (len > buf_len) {
        double *grown = realloc(buf, len * sizeof *grown);
        if (grown == NULL)
            return NULL;
        buf = grown, buf_len = len;
    }
    return buf;
}

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

/* the largest of size[lo .. hi-1] and -1, NaN left out; four chains, since
   each max waits for the one before */
static double chunk_max(const double *size, npy_intp lo, npy_intp hi)
{
    double top[4] = {-1.0, -1.0, -1.0, -1.0};
    npy_intp c = lo;
    for (; c + 4 <= hi; c += 4)
        for (int l = 0; l < 4; l++)
            top[l] = size[c + l] > top[l] ? size[c + l] : top[l];
    for (; c < hi; c++)
        top[0] = size[c] > top[0] ? size[c] : top[0];
    top[0] = top[1] > top[0] ? top[1] : top[0];
    top[2] = top[3] > top[2] ? top[3] : top[2];
    return top[2] > top[0] ? top[2] : top[0];
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
    /* tau, the least of the maxima of k equal chunks, bounds the k-th largest
       key from below (a key is keep_mask's fmax(|x|, -1): NaN is -1), so the
       heap starts from the first k keys at or above it, in index order, and
       a high root turns most of the rest away at once */
    double tau = __builtin_inf();
    for (npy_intp j = 0; j < k; j++) {
        double top = chunk_max(size, j * d / k, (j + 1) * d / k);
        tau = top < tau ? top : tau;
    }
    npy_intp c = 0;
    for (npy_intp filled = 0; filled < k; c++) {
        double key = size[c] == size[c] ? size[c] : -1.0;
        if (key >= tau)
            keys[filled] = key, idx[filled++] = c;
    }
    for (npy_intp i = k / 2; i-- > 0;)
        sift_down(keys, idx, k, i);
    /* only an |x| above the root's enters (an equal one further right ranks
       lower, and a NaN ranks lowest); most blocks of 4 hold none */
    double low = keys[0];
    for (; c < d; c += 4) {
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

/* the TopK message of one row from its target t, each operation the one
   numpy makes in ``send_messages`` (keep_mask, then add_rows), in the same
   order, so every bit agrees but the NaN that NaN + NaN gives (see the module
   docstring).  Write (e NULL): resid = t - g; g[kept] = t and acc[kept] +=
   resid.  ef14: g = kept ? t : 0.0, e = t - g and acc += g (t may be e).
   size holds d magnitudes, keys k heap keys and idx k indices */
static void send_row(const double *t, double *g, double *e, double *acc, npy_intp d, npy_intp k, double *size, double *keys, npy_intp *idx)
{
    npy_intp c;
    if (e == NULL) {
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
        return;
    }
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

/* A quadratic's gradients, each operation the one numpy makes in
   ``quadratic_grads`` and ``add_batch_noise``, in the same order, so every
   bit agrees but a NaN's */
typedef struct {
    npy_intp rows, d, batch, iterates;
    double shift, noise_scale;
    const double *scale, *b, *raw, *x[2];
    double *out;
} grads_t;

/* t = T x: (2 x_c - x_{c+1}) - x_{c-1}, without x_{c+1} at the last
   coordinate and x_{c-1} at the first */
static void tridiag(const double *x, npy_intp d, double *t)
{
    npy_intp c = 1;
    if (d == 1) {
        t[0] = 2.0 * x[0];
        return;
    }
    t[0] = 2.0 * x[0] - x[1];
    for (; c + 2 < d; c += 2)
        PAIR(t + c) = (2.0 * PAIR(x + c) - PAIR(x + c + 1)) - PAIR(x + c - 1);
    if (c < d - 1)
        t[c] = (2.0 * x[c] - x[c + 1]) - x[c - 1];
    t[d - 1] = 2.0 * x[d - 1] - x[d - 2];
}

/* row j's gradient at each iterate k into out + k stride: ((scale_j (T
   x_k)_c + shift x_kc) - b_jc) + noise_scale z_jc, with z row j's mean over
   its batch of raw normals (the first when batch = 1, else their sum in
   order, then / batch, as numpy takes it for d >= 2, in z), and no noise
   term where raw is NULL; tx holds T x_k per iterate */
static void quad_row(const grads_t *q, npy_intp j, const double *tx, double *z, double *out, npy_intp stride)
{
    npy_intp d = q->d, c;
    const double *b = q->b + j * d, *mean = q->raw == NULL ? NULL : q->raw + j * q->batch * d;
    if (mean != NULL && q->batch > 1) {
        for (c = 0; c < d; c++)
            z[c] = (0.0 + mean[c]) + mean[d + c];  /* numpy's sum starts from +0.0 */
        for (npy_intp s = 2; s < q->batch; s++)
            for (c = 0; c < d; c++)
                z[c] = z[c] + mean[s * d + c];
        for (c = 0; c < d; c++)
            z[c] = z[c] / (double)q->batch;
        mean = z;
    }
    for (npy_intp k = 0; k < q->iterates; k++) {
        const double *x = q->x[k], *t = tx + k * d;
        double *g = out + k * stride, s = q->scale[j], shift = q->shift, ns = q->noise_scale;
        if (mean == NULL) {
            for (c = 0; c + 2 <= d; c += 2)
                PAIR(g + c) = (s * PAIR(t + c) + shift * PAIR(x + c)) - PAIR(b + c);
            if (c < d)
                g[c] = (s * t[c] + shift * x[c]) - b[c];
            continue;
        }
        for (c = 0; c + 2 <= d; c += 2)
            PAIR(g + c) = ((s * PAIR(t + c) + shift * PAIR(x + c)) - PAIR(b + c)) + ns * PAIR(mean + c);
        if (c < d)
            g[c] = ((s * t[c] + shift * x[c]) - b[c]) + ns * mean[c];
    }
}

/* row j of iterate k into out row k rows + j.  Returns 0, or -1 where no
   work buffer could be allocated */
int quad_grads(const grads_t *q)
{
    npy_intp d = q->d, m = q->iterates;
    double *tx = work((m + 1) * d);  /* T x per iterate, then a batch mean */
    if (tx == NULL)
        return -1;
    for (npy_intp k = 0; k < m; k++)
        tridiag(q->x[k], d, tx + k * d);
    for (npy_intp j = 0; j < q->rows; j++)
        quad_row(q, j, tx, tx + m * d, q->out + j * d, q->rows * d);
    return 0;
}

/* A TopK block of the write and ef14 rules, each operation the one numpy
   makes in ``advance_estimators`` and ``send_messages``, in the same order:
   rows start .. start + rows - 1 of the node arrays g, v, u, w and e (each
   NULL where the rule keeps none), summed into acc.  Per row: its sample
   gradient at each iterate (the quadratic's, by quad_row, where sg0 is NULL;
   else row j of sg0 and sg1), then v = (1 - eta) v + eta sg, u = (1 - eta) u
   + eta v, w = sg + (1 - eta) (w - sg at the previous iterate) and e = e +
   gamma sg, in that order, then the message from the last of them (else
   from sg) by send_row, an ef14 message where e is kept */
typedef struct {
    npy_intp start, rows, k;
    double eta, gamma;
    const double *sg0, *sg1;
    double *g, *v, *u, *w, *e, *acc;
    grads_t quad;  /* d always; the rest where sg0 is NULL: scale and b from node 0, raw this block's */
} step_t;

/* s = (1 - eta) s + eta t, as numpy's two in-place lines make it */
static void average(double *s, const double *t, npy_intp d, double eta)
{
    double keep = 1.0 - eta;
    npy_intp c;
    for (c = 0; c + 2 <= d; c += 2)
        PAIR(s + c) = keep * PAIR(s + c) + eta * PAIR(t + c);
    if (c < d)
        s[c] = keep * s[c] + eta * t[c];
}

/* Returns the coordinates sent, or -1 where no work buffer could be allocated */
npy_intp step_rows(const step_t *s)
{
    npy_intp d = s->quad.d, k = s->k, m = s->sg0 == NULL ? s->quad.iterates : 0, c;
    /* T x per iterate, a batch mean, the sample gradients, d magnitudes, k heap keys, k indices */
    double *tx = work((2 * m + 2) * d + 2 * k), *z = tx + m * d, *grads = z + d, *size = grads + m * d, *keys = size + d;
    if (tx == NULL)
        return -1;
    npy_intp *idx = (npy_intp *)(keys + k);
    grads_t q = s->quad;
    if (m > 0) {
        q.scale += s->start, q.b += s->start * d;
        for (npy_intp i = 0; i < m; i++)
            tridiag(q.x[i], d, tx + i * d);
    }
    double eta = s->eta, keep = 1.0 - eta, gamma = s->gamma;
    for (npy_intp j = 0; j < s->rows; j++) {
        npy_intp row = (s->start + j) * d;
        const double *sg = grads, *prev = grads + d, *t;
        if (m > 0)
            quad_row(&q, j, tx, z, grads, d);
        else
            sg = s->sg0 + j * d, prev = s->sg1 == NULL ? NULL : s->sg1 + j * d;
        t = sg;
        if (s->v != NULL) {
            average(s->v + row, t, d, eta);
            t = s->v + row;
        }
        if (s->u != NULL) {
            average(s->u + row, t, d, eta);
            t = s->u + row;
        }
        if (s->w != NULL) {
            double *w = s->w + row;
            for (c = 0; c + 2 <= d; c += 2)
                PAIR(w + c) = PAIR(sg + c) + keep * (PAIR(w + c) - PAIR(prev + c));
            if (c < d)
                w[c] = sg[c] + keep * (w[c] - prev[c]);
            t = w;
        }
        if (s->e != NULL) {
            double *e = s->e + row;
            for (c = 0; c + 2 <= d; c += 2)
                PAIR(e + c) = PAIR(e + c) + gamma * PAIR(sg + c);
            if (c < d)
                e[c] = e[c] + gamma * sg[c];
            t = e;
        }
        send_row(t, s->g + row, s->e == NULL ? NULL : s->e + row, s->acc, d, k, size, keys, idx);
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
    """The compiled library, which draws (``draw_block`` and the draw ahead),
    steps TopK blocks (``step_rows``) and takes the quadratic's gradients
    (``quad_grads``), or None where it cannot be built or loaded or does not
    reproduce the per-node draws, the numpy step and the numpy gradients (one
    guard, decided once per process, on first use).  It uses only numpy's public
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
    lib.step_rows.argtypes, lib.step_rows.restype = [ctypes.POINTER(_StepArgs)], ctypes.c_ssize_t
    lib.quad_grads.argtypes, lib.quad_grads.restype = [ctypes.POINTER(_GradArgs)], ctypes.c_int
    atexit.register(lib.ahead_drain)  # no draw ahead may outlive its buffer
    return lib if _kernel_matches(lib) else None


def _kernel_matches(lib) -> bool:
    """Whether the kernel gives numpy's draws, from fresh streams (not
    counted as ``StreamFactory.stream`` calls), on normals and bounded
    integers, one and several per node, the largest seed, node and round, a
    bound that enters numpy's rejection loop (2^31 + 1) and bounds >= 2^32;
    and, at each ziggurat layer's edge, the normals numpy's own Philox gives
    after the word the fast path takes last (sign bit set) and the word it
    sends to numpy's wedge or tail first; that a block drawn ahead, which
    the calling thread waits for at once and so helps draw, equals the same
    block drawn in the calling thread; and that its TopK steps and quadratic
    gradients match their numpy references (``_steps_match``,
    ``_grads_match``)."""
    if not (_steps_match(lib) and _grads_match(lib)):
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
    out = np.full((2, 40, 500), np.nan)  # no row of an earlier block may pass for one not drawn
    ahead, here = (_BlockArgs(SEED_MAX, 3, 40, 7, 500, None, out[j].ctypes.data) for j in (0, 1))
    ticket = lib.ahead_start(ctypes.byref(ahead))
    shared = ticket == 0 or lib.ahead_wait(ticket) == 1  # at once: this thread draws rows too
    lib.draw_block(ctypes.byref(here))
    return shared and (ticket == 0 or np.array_equal(out[0], out[1]))


def _steps_match(lib) -> bool:
    """Whether ``TopKStep`` gives the numpy path's estimators, g, e, sum and
    count bit for bit but a NaN's (``advance_estimators``, then
    ``send_messages`` with ``compress.keep_mask``): for every set of
    estimators the write and ef14 rules keep at k = 2, and for both sends at
    k = 1 and d too, on rows past the first, with the quadratic's gradients
    formed in the kernel (a batch of 2) and with given rows holding ties,
    NaNs, infinities, signed zeros and a subnormal."""
    from .compress import keep_mask, top_k  # a leaf module, imported when the guard runs

    nan, inf, rng, rows = np.nan, np.inf, derive_stream(SEED_MAX, 2, 0), slice(1, 5)
    given = np.array(
        [[1.0, -3.0, 3.0, nan, -0.0, 2.0], [nan, 0.5, -inf, 0.5, nan, 0.0], [nan, -0.0, 0.0, 0.0, 0.0, -0.0], [2.0, 2.0, 1.0, -2.0, 5e-324, 1e308]]
    )
    start = np.zeros((5, 6))
    start[1:] = [[0.0, -1.0, 1.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.5, 0.0, 0.0], [0.0] * 6, [0.0, 0.0, 1.0, 0.0, -0.0, -1e308]]
    scale, b, xs, raw = rng.standard_normal(5), rng.standard_normal((5, 6)), list(rng.standard_normal((2, 6))), rng.standard_normal((4, 12))
    quad = QuadraticGrads(lib, scale, b, -0.25, 0.5)
    for names, in_kernel, k in itertools.product(((), ("v",), ("v", "u"), ("w",), ("e",)), (True, False), (1, 2, 6)):
        if k != 2 and names not in ((), ("e",)):  # the write and ef14 sends at every k, the estimators at one
            continue
        iterates = xs[: 2 if "w" in names else 1]
        got, want = ([start.copy(), np.zeros(6), *(np.roll(start, i + 1, axis=1) for i in range(len(names)))] for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            if in_kernel:
                grads = [quadratic_grads(scale[rows], b[rows], -0.25, x) for x in iterates]
                add_batch_noise(grads, raw, 0.5)
            else:
                grads = [given, given[::-1].copy()][: len(iterates)]
            step = TopKStep(lib, k, got[0], dict(zip(names, got[2:])), got[1], lambda *_: grads, quad if in_kernel else None)
            step.round(iterates, 0.25, 0.5)
            sent = step(rows, raw)
            target = advance_estimators([(name, a[rows]) for name, a in zip(names, want[2:])], grads, 0.25, 0.5)
            e = want[2][rows] if names == ("e",) else None
            count = send_messages(lambda x: keep_mask(top_k(k, 6), x), target, want[0][rows], e, want[1])
        if sent != count or any(_nan_as_nan(x) != _nan_as_nan(y) for x, y in zip(got, want)):
            return False
    return True


def _nan_as_nan(a: np.ndarray) -> bytes:
    """The bytes of ``a`` with every NaN's as ``np.nan``'s: numpy's own loops
    pick the NaN that NaN + NaN gives by position, and no trace shows it."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _grads_match(lib) -> bool:
    """Whether ``QuadraticGrads`` gives the gradients of ``quadratic_grads``
    and ``add_batch_noise`` bit for bit, at d = 1, 2 and 7, on rows past the
    first, at one and two iterates, without noise and with batches of 1 to 3
    (1 at d = 1), at iterates holding signed zeros, infinities, a NaN and a
    subnormal, and where T x overflows unless its two subtractions are made
    in order."""
    rng, big = derive_stream(SEED_MAX, 1, 0), 1e308
    for d in (1, 2, 7):
        xs = np.array([[0.5, big, 0.75 * big, -big, big, 0.75 * big, -big], [-0.0, np.inf, np.nan, 5e-324, -1.5, 0.0, 2.0]])[:, :d]
        scale, b, rows = rng.standard_normal(4), rng.standard_normal((4, d)), slice(1, 4)
        grads = QuadraticGrads(lib, scale, b, -0.25, 0.5)
        for batch, iterates in itertools.product((0, 1, 2, 3) if d > 1 else (0, 1), (1, 2)):
            raw = None if batch == 0 else rng.standard_normal((3, batch * d))
            got = grads(rows, list(xs[:iterates]), raw)
            with np.errstate(over="ignore", invalid="ignore"):
                want = [quadratic_grads(scale[rows], b[rows], -0.25, x) for x in xs[:iterates]]
                if raw is not None:
                    add_batch_noise(want, raw, 0.5)
            if got is None or any(g.tobytes() != w.tobytes() for g, w in zip(got, want)):
                return False
    return True
