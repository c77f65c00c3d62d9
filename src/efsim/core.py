"""Substrate shared by every module: dense float64 vectors, seeded,
splittable random streams, and the atomic write of every output file.

Vectors are plain ``numpy.ndarray`` objects with dtype float64.  Randomness
is derived from a counter-based generator (Philox) keyed by
``(master seed, node, round)``, so the draw sequence of any node/round pair
is independent of evaluation order and two streams with the same key are
bit-identical.

A stream's first draw of a bounded integer can also be computed for a whole
array of keys at once (``philox_first_words`` and ``bounded_integers``), by
the same Philox4x64-10 and the same bounded method numpy applies; the
engine uses this for batch-1 samples (``StreamFactory.integers``).
"""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

__all__ = [
    "NumericFailure",
    "SEED_MAX",
    "atomic_write",
    "norm_sq",
    "ensure_finite",
    "derive_stream",
    "StreamFactory",
    "philox_first_words",
    "bounded_integers",
]

_MASK32 = (1 << 32) - 1
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)
# Philox4x64 multipliers and Weyl key increments (Salmon et al. 2011)
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
SEED_MAX = (1 << 64) - 1  # seeds are the first 64-bit word of the Philox key


class NumericFailure(RuntimeError):
    """A public operation produced a non-finite value."""

    def __init__(self, message: str, round_index: int | None = None):
        super().__init__(message)
        self.round_index = round_index


def norm_sq(a: np.ndarray) -> float:
    return float(a @ a)


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


class StreamFactory:
    """Cheap repeated stream derivation for hot loops.

    ``stream(node, round)`` returns a generator producing exactly the same
    draws as :func:`derive_stream`, but resets a single reused Philox
    instead of constructing a new one (roughly 4x faster).  The returned
    generator is only valid until the next ``stream`` call, so callers must
    finish their draws before deriving another stream.  ``integers`` gives
    the first bounded-integer draw of many streams at once, without
    resetting any.
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
        self._bounds = None  # the chunk of bounded draws cached by ``integers``
        self._first = 0
        self._values, self._ok = np.empty((0, 0)), None

    def stream(self, node: int, round_index: int) -> np.random.Generator:
        _philox_key(self.seed, node, round_index, out=self._key)
        self._bitgen.state = self._state
        return self._gen

    def integers(
        self, bounds: np.ndarray, rows: slice, round_index: int, last_round: int, max_keys: int
    ) -> np.ndarray | None:
        """For each node i of ``rows``, the value of the first draw
        ``stream(i, round_index).integers(0, bounds[i])``, or None when this
        path does not apply: a key would enter numpy's rejection loop, a bound
        lies outside [1, 2^32 - 1], or the vectorized Philox does not match
        numpy's on this platform.

        The draws of every node for a chunk of rounds, from ``round_index``
        up to at most ``last_round``, are computed at once and cached (keyed
        by the ``bounds`` object).  A chunk holds about ``max_keys`` keys,
        and each temporary of its computation at most ``max_keys`` words.
        """
        if not (bounds is self._bounds and self._first <= round_index < self._first + len(self._values)):
            n = len(bounds)
            if n - 1 > _MASK32 or round_index > _MASK32 or bounds.min() < 1 or bounds.max() > _MASK32:
                return None  # the per-node path raises or draws these
            if not _philox_matches_numpy():
                return None
            stop = min(round_index + max(1, max_keys // n), last_round + 1, _MASK32 + 1)
            self._fill(bounds, round_index, max(round_index + 1, stop), max_keys)
        row = round_index - self._first
        if self._ok is not None and not self._ok[row, rows].all():
            return None
        return self._values[row, rows]

    def _fill(self, bounds: np.ndarray, first: int, stop: int, max_keys: int) -> None:
        """Cache the draws of rounds ``first`` to ``stop - 1`` for every node."""
        n = len(bounds)
        ids = (np.arange(n, dtype=np.uint64) << _SHIFT32) | np.arange(first, stop, dtype=np.uint64)[:, None]
        ids, wide = ids.ravel(), np.tile(bounds, stop - first)
        values, ok = np.empty(len(ids), dtype=np.int64), np.empty(len(ids), dtype=bool)
        step = max(1, max_keys)
        for lo in range(0, len(ids), step):
            part = slice(lo, lo + step)
            values[part], ok[part] = bounded_integers(philox_first_words(self.seed, ids[part]), wide[part])
        self._bounds, self._first = bounds, first
        self._values = values.reshape(-1, n)
        self._ok = None if ok.all() else ok.reshape(-1, n)  # None: no key rejects


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * b, built from
    32-bit halves so no uint64 operation overflows."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + a_lo * b_hi  # at most 2^64 - 1
    hi = a_hi * b_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, (cross << _SHIFT32) | (lo_lo & _LOW32)


def philox_first_words(seed: int, ids: np.ndarray) -> np.ndarray:
    """The first 64-bit output word of Philox4x64-10 keyed ``[seed, ids[j]]``
    for each j: what ``np.random.Philox(key=[seed, ids[j]]).random_raw()``
    returns, numpy counting its first block at counter (1, 0, 0, 0)."""
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must lie in [0, 2^64 - 1], got {seed}")
    ids = np.asarray(ids, dtype=np.uint64)
    c0, c1 = np.ones_like(ids), np.zeros_like(ids)
    c2, c3 = np.zeros_like(ids), np.zeros_like(ids)
    k0, k1 = seed, ids
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_WEYL[0]) & SEED_MAX
            k1 = k1 + np.uint64(_PHILOX_WEYL[1])
        hi0, lo0 = _mulhilo(_PHILOX_MUL[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_MUL[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    return c0


def bounded_integers(words: np.ndarray, bounds) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's 32-bit bounded method on the low halves of ``words``, as
    numpy's ``integers(0, b)`` applies it to its first 32-bit draw for
    1 <= b <= 2^32 - 1.

    Returns the values (int64) and ``ok``: False exactly where numpy would
    enter its rejection loop (leftover < (2^32 - b) % b) and draw again, so
    the value there is not numpy's.
    """
    b = np.asarray(bounds, dtype=np.uint64)
    m = (words & _LOW32) * b  # < 2^64
    ok = (m & _LOW32) >= (np.uint64(1 << 32) - b) % b
    return (m >> _SHIFT32).astype(np.int64), ok


@functools.cache
def _philox_matches_numpy() -> bool:
    """Whether ``philox_first_words`` and ``bounded_integers`` reproduce
    numpy's generator on a few keys (checked once per process)."""
    ids = np.array([0, (5 << 32) | 7, (_MASK32 << 32) | _MASK32], dtype=np.uint64)
    bounds = np.array([3, 1000, (1 << 31) + 1])
    for seed in (0, 0x0123456789ABCDEF, SEED_MAX):
        words = philox_first_words(seed, ids)
        values, ok = bounded_integers(words, bounds)
        for j, key in enumerate(ids):
            key = np.array([seed, key], dtype=np.uint64)
            if np.random.Philox(key=key).random_raw() != words[j]:
                return False
            if ok[j] and np.random.Generator(np.random.Philox(key=key)).integers(0, bounds[j]) != values[j]:
                return False
    return True
