import numpy as np
import pytest

from efsim.core import SEED_MAX, NumericFailure, StreamFactory, derive_stream, ensure_finite, norm_sq


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
