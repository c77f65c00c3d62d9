import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efsim.core import (
    SEED_MAX,
    NumericFailure,
    StreamFactory,
    bounded_integers,
    derive_stream,
    ensure_finite,
    norm_sq,
    philox_first_words,
)

U32 = (1 << 32) - 1


def test_norm_sq_hand_values():
    assert norm_sq(np.array([3.0, 4.0])) == 25.0
    assert norm_sq(np.zeros(7)) == 0.0
    assert norm_sq(np.array([0.0, -0.01])) == pytest.approx(1e-4, rel=1e-15)


def test_linear_algebra_matches_naive_loops():
    # 1000 seeded trials against plain python accumulation
    rng = np.random.Generator(np.random.Philox(key=123))
    for _ in range(1000):
        d = int(rng.integers(1, 101))
        a = rng.standard_normal(d)
        naive_sq = 0.0
        for j in range(d):
            naive_sq += a[j] * a[j]
        assert norm_sq(a) == pytest.approx(naive_sq, rel=1e-12)


def test_stream_determinism_and_distinctness():
    a = derive_stream(99, 0, 0).standard_normal(100)
    b = derive_stream(99, 0, 0).standard_normal(100)
    assert np.array_equal(a, b)
    c = derive_stream(99, 1, 0).standard_normal(100)
    d = derive_stream(99, 0, 1).standard_normal(100)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(c, d)


def test_stream_gaussian_mean():
    draws = derive_stream(7, 0, 0).standard_normal(100_000)
    assert abs(draws.mean()) < 0.02  # 4 / sqrt(N) would already be 0.0126


def test_stream_factory_matches_derive_stream():
    factory = StreamFactory(42)
    for node, rnd in [(0, 0), (3, 17), (2, 1_000_000)]:
        fresh = derive_stream(42, node, rnd).standard_normal(8)
        pooled = factory.stream(node, rnd).standard_normal(8)
        assert np.array_equal(fresh, pooled)


def test_stream_rejects_bad_ids():
    with pytest.raises(ValueError):
        derive_stream(0, -1, 0)
    with pytest.raises(ValueError):
        derive_stream(0, 0, 2**40)


@pytest.mark.parametrize("seed", [-1, SEED_MAX + 1])
def test_stream_rejects_seeds_outside_64_bits(seed):
    # these used to be masked to 64 bits, aliasing SEED_MAX and 0
    with pytest.raises(ValueError, match="seed"):
        derive_stream(seed, 0, 0)
    with pytest.raises(ValueError, match="seed"):
        StreamFactory(seed).stream(0, 0)
    derive_stream(SEED_MAX, 0, 0)


def test_ensure_finite():
    ensure_finite(np.ones(3), "x")
    with pytest.raises(NumericFailure) as exc:
        ensure_finite(np.array([1.0, np.inf]), "iterate", round_index=12)
    assert exc.value.round_index == 12


def _uint32_drawn(state: dict) -> int:
    """How many 32-bit values a fresh Philox has handed out: numpy counts
    its first block at counter 1 and halves a 64-bit word per two draws."""
    blocks = int(state["state"]["counter"][0])
    words = 0 if blocks == 0 else 4 * (blocks - 1) + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


def _check_against_numpy(seed: int, ids: list[int], bounds: list[int]) -> np.ndarray:
    """The vectorized draw gives numpy's first ``integers(0, b)`` wherever
    ``ok``, and ``ok`` is False exactly where numpy drew more than one 32-bit
    value, i.e. entered its rejection loop.  Returns ``ok``."""
    words = philox_first_words(seed, np.array(ids, dtype=np.uint64))
    values, ok = bounded_integers(words, np.array(bounds))
    for j, (key, b) in enumerate(zip(ids, bounds)):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))
        value = gen.integers(0, b)
        assert ok[j] == (_uint32_drawn(gen.bit_generator.state) <= 1)
        if ok[j]:
            assert values[j] == value
    return ok


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, SEED_MAX]), st.integers(0, SEED_MAX)),
    keys=st.lists(
        st.tuples(
            st.integers(0, U32),
            st.integers(0, U32),
            st.one_of(st.sampled_from([1, 2, 3, (1 << 31) + 1, U32]), st.integers(1, U32)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_vectorized_bounded_draw_matches_numpy(seed, keys):
    ids = [(node << 32) | rnd for node, rnd, _ in keys]
    _check_against_numpy(seed, ids, [b for *_, b in keys])


def test_vectorized_bounded_draw_flags_numpys_rejection_loop():
    # about half of all keys reject at b = 2^31 + 1
    ids = [(node << 32) | 17 for node in range(200)]
    ok = _check_against_numpy(SEED_MAX, ids, [(1 << 31) + 1] * len(ids))
    assert 50 < np.count_nonzero(~ok) < 150


def test_stream_factory_integers_are_first_draws():
    factory = StreamFactory(5)
    bounds = np.array([3, 1, 1000, (1 << 31) + 1])  # node 3 rejects about half its keys
    rejected = 0
    for rnd in range(11):  # chunks of 2 rounds; the one at round 10 stops at the last round
        want = [derive_stream(5, i, rnd).integers(0, bounds[i]) for i in range(4)]
        assert factory.integers(bounds, slice(0, 3), rnd, 10, 8).tolist() == want[:3]
        got = factory.integers(bounds, slice(3, 4), rnd, 10, 8)
        if got is None:
            rejected += 1
        else:
            assert got.tolist() == want[3:]
    assert factory._first == 10 and len(factory._values) == 1
    assert 0 < rejected < 11
    assert factory.integers(np.array([0, 3]), slice(0, 2), 0, 10, 8) is None  # numpy raises for b = 0
