"""Numeric substrate shared by every module: dense float64 vectors and
seeded, splittable random streams.

Vectors are plain ``numpy.ndarray`` objects with dtype float64.  Randomness
is derived from a counter-based generator (Philox) keyed by
``(master seed, node, round)``, so the draw sequence of any node/round pair
is independent of evaluation order and two streams with the same key are
bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NumericFailure",
    "SEED_MAX",
    "norm_sq",
    "ensure_finite",
    "derive_stream",
    "StreamFactory",
]

_MASK32 = (1 << 32) - 1
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

    def stream(self, node: int, round_index: int) -> np.random.Generator:
        _philox_key(self.seed, node, round_index, out=self._key)
        self._bitgen.state = self._state
        return self._gen
