"""Substrate shared by every module: dense float64 vectors, the row layout
of node states, seeded, splittable random streams, and the atomic write of
every output file.

Vectors are plain ``numpy.ndarray`` objects with dtype float64.  Randomness
is derived from a counter-based generator (Philox) keyed by
``(master seed, node, round)``, so the draw sequence of any node/round pair
is independent of evaluation order and two streams with the same key are
bit-identical.

Node vectors are the rows of (n, d) arrays, walked in ``blocks`` of rows
and summed over nodes by ``add_rows`` in ascending node order, so no sum
depends on the blocking and traces match a loop over single nodes bitwise.

A block of nodes' raw samples (``Sample``: standard normals or bounded
integers) comes from one call of a C kernel (``StreamFactory.block``) that
resets the factory's own Philox to each node's key and calls numpy's own C
samplers in ``libnpyrandom.a``, so every value is the per-node stream's.
It is compiled with gcc on first use, cached beside the package's bytecode
and checked against the per-node path once per process; where it cannot
be built or does not match, the caller draws node by node.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
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


def blocks(n: int, width: int) -> list[slice]:
    """Consecutive slices of n rows, each block of (rows, width) float64
    values under ``BLOCK_BYTES`` (at least one row)."""
    step = max(1, BLOCK_BYTES // (8 * width))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def add_rows(acc: np.ndarray, rows: np.ndarray, mask: np.ndarray | None = None) -> None:
    """acc += each row in turn (only its kept coordinates if masked)."""
    for r in range(len(rows)):
        np.add(acc, rows[r], out=acc, where=True if mask is None else mask[r])


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


def _philox_key(seed: int, node: int, round_index: int, out: np.ndarray | None = None) -> np.ndarray:
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must lie in [0, 2^64 - 1], got {seed}")
    if node < 0 or round_index < 0:
        raise ValueError("node and round must be nonnegative")
    if node > _MASK32 or round_index > _MASK32:
        raise ValueError("node/round exceed 32-bit stream id space")
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


class StreamFactory:
    """Cheap repeated stream derivation for hot loops.

    ``stream(node, round)`` returns a generator producing exactly the same
    draws as :func:`derive_stream`, but resets a single reused Philox
    instead of constructing a new one (roughly 4x faster).  The returned
    generator is only valid until the next ``stream`` call, so callers must
    finish their draws before deriving another stream.
    """

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
        # ``block``'s output buffer, and the last sample's bounds as int64 (None if one is < 1)
        self._out, self._out_address = np.empty(0), 0
        self._bounds = self._int64_bounds = self._bounds_address = None

    def stream(self, node: int, round_index: int) -> np.random.Generator:
        _philox_key(self.seed, node, round_index, out=self._key)
        self._bitgen.state = self._state
        return self._gen

    def block(self, rows: slice, round_index: int, sample: Sample) -> np.ndarray | None:
        """One row per node i of ``rows``: ``sample.draw(stream(i, round_index), i)``
        bit for bit, from one kernel call, valid until the next ``block`` call.
        None where the kernel is not available or the bounds are invalid (fewer
        than the rows, or one below 1): the caller then draws node by node."""
        kernel = _kernel()
        return None if kernel is None else self._fill(kernel, rows, round_index, sample)

    def _fill(self, kernel, rows: slice, round_index: int, sample: Sample) -> np.ndarray | None:
        _philox_key(self.seed, rows.stop - 1, round_index, out=self._key)  # raises as ``stream`` does
        if sample.bounds is not self._bounds:
            self._bounds = sample.bounds
            bounds = None if sample.bounds is None else np.ascontiguousarray(sample.bounds, dtype=np.int64)
            self._int64_bounds = None if bounds is None or bounds.min() < 1 else bounds
            self._bounds_address = None if self._int64_bounds is None else bounds.ctypes.data
        if sample.bounds is not None and (self._int64_bounds is None or rows.stop > len(self._int64_bounds)):
            return None
        size, dtype = (rows.stop - rows.start) * sample.count, np.float64 if sample.bounds is None else np.int64
        if self._out.dtype != dtype or len(self._out) < size:
            self._out = np.empty(size, dtype=dtype)
            self._out_address = self._out.ctypes.data
        address = None if sample.bounds is None else self._bounds_address + 8 * rows.start
        kernel(self._bitgen.ctypes.bit_generator, self.seed, rows.start, rows.stop - rows.start, round_index,
               sample.count, address, self._out_address)
        return self._out[:size].reshape(-1, sample.count)


# numpy's philox_state is private (numpy/random/src/philox/philox.h); its
# layout is declared here and checked at first use by ``_kernel_matches``
_KERNEL_SOURCE = r"""
#include "numpy/random/distributions.h"

typedef struct { uint64_t *ctr, *key; int buffer_pos; uint64_t buffer[4]; int has_uint32; uint32_t uinteger; } philox_state;

void draw_block(bitgen_t *bitgen, uint64_t seed, uint64_t node, uint64_t rows, uint64_t round,
                npy_intp count, const int64_t *bounds, void *out)
{
    philox_state *st = bitgen->state;
    for (uint64_t j = 0; j < rows; j++, node++) {
        st->key[0] = seed;
        st->key[1] = node << 32 | round;
        st->ctr[0] = st->ctr[1] = st->ctr[2] = st->ctr[3] = 0;
        st->buffer_pos = 4;  /* the buffer is empty, as after a state assignment */
        st->has_uint32 = st->uinteger = 0;
        if (bounds == NULL)
            random_standard_normal_fill(bitgen, count, (double *)out + j * count);
        else
            random_bounded_uint64_fill(bitgen, 0, (uint64_t)bounds[j] - 1, count, false, (uint64_t *)out + j * count);
    }
}
"""
# the compiled kernel is cached beside the package's bytecode
_CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")


@functools.cache
def _kernel():
    """The compiled block draw, or None where it cannot be built or loaded or
    does not reproduce the per-node path (decided once per process).  A build
    writes its own temporary file, then moves it onto the cached name."""
    tag = hashlib.sha256(_KERNEL_SOURCE.encode()).hexdigest()[:16]
    path = os.path.join(_CACHE_DIR, f"draw_block.{sys.implementation.cache_tag}-numpy{np.__version__}-{tag}.so")
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    lib = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
    includes = ["-I", np.get_include(), "-I", sysconfig.get_paths()["include"]]
    try:
        if not os.path.exists(path):
            os.makedirs(_CACHE_DIR, exist_ok=True)
            subprocess.run(
                ["gcc", "-O2", "-shared", "-fPIC", *includes, "-x", "c", "-", "-x", "none", lib, "-lm", "-o", tmp],
                input=_KERNEL_SOURCE, text=True, capture_output=True, check=True, timeout=120,
            )
            os.replace(tmp, path)
        kernel = ctypes.CDLL(path).draw_block
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        with contextlib.suppress(OSError):  # there is no file, or no directory
            os.remove(tmp)
    kernel.argtypes = [ctypes.c_void_p, *[ctypes.c_uint64] * 4, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_void_p]
    kernel.restype = None
    return kernel if _kernel_matches(kernel) else None


def _kernel_matches(kernel) -> bool:
    """Whether the kernel gives numpy's draws, from fresh streams (not
    counted as ``StreamFactory.stream`` calls), on normals and bounded
    integers, one and several per node, the largest seed, node and round, a
    bound that enters numpy's rejection loop (2^31 + 1) and bounds >= 2^32."""
    factory = StreamFactory(SEED_MAX)
    bounds = np.array([1, 3, 1000, (1 << 31) + 1, _MASK32, 1 << 32, (1 << 33) + 7, (1 << 63) - 1])
    first, top = slice(0, len(bounds)), slice(_MASK32 + 1 - len(bounds), _MASK32 + 1)
    for count in (1, 4):
        for rows, sample in ((first, Sample(count, bounds)), (first, Sample(3 * count)), (top, Sample(3 * count))):
            got = factory._fill(kernel, rows, rows.stop - 1, sample)  # round 2^32 - 1 in the top block
            want = [sample.draw(derive_stream(SEED_MAX, i, rows.stop - 1), i) for i in range(rows.start, rows.stop)]
            if not np.array_equal(got, want):
                return False
    return True
