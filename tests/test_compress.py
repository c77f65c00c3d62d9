import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from efsim.checks import contraction_ratios, dropped
from efsim.compress import (
    absolute_delta,
    compress,
    contraction_alpha,
    hard_threshold,
    identity,
    keep_mask,
    rand_k,
    top_k,
)
from efsim.core import StreamFactory, derive_stream


def test_top1_picks_largest_magnitude():
    c = compress(top_k(1, 3), np.array([3.0, -5.0, 2.0]))
    assert list(c.indices) == [1]
    assert list(c.values) == [-5.0]


def test_top1_tie_breaks_to_lowest_index():
    a = 0.7
    c = compress(top_k(1, 2), np.array([2 * a, a]))
    assert list(c.indices) == [0]
    # the adversarial noise atom (-2, -1)-shaped: first coordinate dominates
    z3 = np.array([-2.0, -1.0]) * math.sqrt(3 / 10)
    c = compress(top_k(1, 2), z3)
    assert list(c.indices) == [0]
    # exact tie: lowest index wins
    c = compress(top_k(1, 2), np.array([1.5, -1.5]))
    assert list(c.indices) == [0]


def test_identity_round_trip_bitwise():
    rng = derive_stream(1, 0, 0)
    x = rng.standard_normal(23)
    mask = keep_mask(identity(23), x[None])[0]
    assert np.count_nonzero(mask) == 23
    assert np.array_equal(np.where(mask, x, 0.0), x)


def test_hard_threshold_keeps_large_entries():
    c = compress(hard_threshold(1.0, 3), np.array([0.5, 1.5, -2.0]))
    assert list(c.indices) == [1, 2]
    assert list(c.values) == [1.5, -2.0]
    empty = compress(hard_threshold(1.0, 4), np.zeros(4))
    assert len(empty.indices) == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        compress(top_k(1, 3), np.ones(4))


def test_spec_validation():
    with pytest.raises(ValueError):
        top_k(0, 5)
    with pytest.raises(ValueError):
        top_k(6, 5)
    with pytest.raises(ValueError):
        hard_threshold(0.0, 5)


def test_contraction_alpha_values():
    assert contraction_alpha(top_k(10, 7850)) == pytest.approx(10 / 7850)
    assert contraction_alpha(identity(9)) == 1.0
    assert contraction_alpha(top_k(100, 41918)) == pytest.approx(100 / 41918)
    assert contraction_alpha(top_k(100, 41918)) == pytest.approx(2.4e-3, rel=0.05)
    assert contraction_alpha(hard_threshold(0.5, 10)) is None


def test_absolute_delta_values():
    assert absolute_delta(hard_threshold(0.1, 100)) == pytest.approx(1.0)
    assert absolute_delta(top_k(3, 10)) is None
    # inputs whose entries all clear the threshold compress without error
    x = np.array([0.2, -0.3, 5.0])
    mask = keep_mask(hard_threshold(0.1, 3), x[None])[0]
    assert np.array_equal(np.where(mask, x, 0.0), x)


def test_topk_sends_k_coordinates():
    rng = derive_stream(2, 0, 0)
    c = compress(top_k(10, 60), rng.standard_normal(60))
    assert len(c.indices) == 10


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.integers(1, d - 1),
            st.lists(st.floats(-100, 100), min_size=d, max_size=d),
        )
    )
)
def test_topk_beats_every_other_selection(args):
    d, k, vals = args
    x = np.asarray(vals)
    kept = set(compress(top_k(k, d), x).indices.tolist())
    err_topk = sum(x[j] ** 2 for j in range(d) if j not in kept)
    for subset in itertools.combinations(range(d), k):
        err_other = sum(x[j] ** 2 for j in range(d) if j not in subset)
        assert err_topk <= err_other + 1e-9


def test_randk_requires_stream_and_is_deterministic_per_state():
    spec = rand_k(3, 12)
    with pytest.raises(ValueError):
        compress(spec, np.ones(12))
    x = derive_stream(3, 0, 0).standard_normal(12)
    c1 = compress(spec, x, derive_stream(3, 0, 1))
    c2 = compress(spec, x, derive_stream(3, 0, 1))
    assert np.array_equal(c1.indices, c2.indices)
    assert np.array_equal(c1.values, c2.values)
    assert len(set(c1.indices.tolist())) == 3
    assert np.all(np.diff(c1.indices) > 0)


def test_randk_unscaled_values_match_input():
    x = derive_stream(9, 0, 0).standard_normal(20)
    c = compress(rand_k(5, 20), x, derive_stream(9, 0, 1))
    assert np.array_equal(c.values, x[c.indices])


def test_randk_mean_contraction():
    ratios = contraction_ratios(rand_k(10, 100), trials=400, rng=derive_stream(21, 0, 0))
    # E||C(x)-x||^2 = (1-k/d)||x||^2 exactly for uniform subsets
    assert ratios.mean() == pytest.approx(0.9, abs=0.01)


def test_verify_contractive_topk_and_identity():
    ratios = contraction_ratios(top_k(10, 100), trials=3000, rng=derive_stream(22, 0, 0))
    assert ratios.max() <= 0.9
    ratios = contraction_ratios(identity(40), trials=100, rng=derive_stream(23, 0, 0))
    assert ratios.max() == 0.0


def test_dropped_is_input_minus_kept_bitwise():
    # x - x is +0.0 and x - 0.0 is x, signed zeros included
    rows = derive_stream(5, 0, 0).standard_normal((6, 12))
    rows[:, :3] = [0.0, -0.0, 0.05]
    picks = [derive_stream(5, i, 1).choice(12, size=4, replace=False) for i in range(6)]
    for spec in (top_k(1, 12), top_k(5, 12), rand_k(4, 12), identity(12), hard_threshold(0.1, 12)):
        p = picks if spec.is_random else None
        kept = np.where(keep_mask(spec, rows, p), rows, 0.0)
        assert np.array_equal(dropped(spec, rows, p).view(np.uint64), (rows - kept).view(np.uint64))


# -- row-wise selection against the per-vector reference ---------------------------


def _reference_topk(x, k):
    """The per-vector TopK selection: the first k of a stable argsort of
    -|x| (+-inf first, NaN last, ties to the lowest index), and numpy's
    argmax of |x| for k = 1 (the first maximum, or the first NaN)."""
    if k == 1:
        return np.array([np.argmax(np.abs(x))])
    return np.sort(np.argsort(-np.abs(x), kind="stable")[:k])


# few distinct values, so rows are full of ties, signed zeros and non-finites
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan]) | st.floats()


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda d: st.tuples(
            st.integers(1, d),
            arrays(np.float64, st.tuples(st.integers(1, 5), st.just(d)), elements=_ENTRIES),
        )
    )
)
def test_rowwise_topk_equals_per_vector_reference(args):
    k, rows = args
    spec = top_k(k, rows.shape[1])
    mask = keep_mask(spec, rows)
    for row, kept in zip(rows, mask):
        want = _reference_topk(row, k)
        assert np.array_equal(np.flatnonzero(kept), want)
        c = compress(spec, row)
        assert np.array_equal(c.indices, want)
        assert np.array_equal(c.values, row[want], equal_nan=True)


def test_rowwise_topk_ties_across_rows():
    rows = np.array([[1.0, -1.0, 1.0, 1.0], [0.0, -0.0, 0.0, 0.0], [np.nan, 2.0, np.nan, -np.inf], [3.0, 1.0, 1.0, 1.0]])
    mask = keep_mask(top_k(2, 4), rows)
    assert [np.flatnonzero(m).tolist() for m in mask] == [[0, 1], [0, 1], [1, 3], [0, 1]]


def test_randk_block_draws_match_per_node_compress():
    # the round engine resets each node's stream, draws the oracle sample,
    # then the RandK picks; per-node compress at the same stream position
    # must keep the same coordinates
    spec = rand_k(4, 30)
    rows = derive_stream(3, 0, 0).standard_normal((6, 30))
    picks, expected = [], []
    for i in range(6):
        rng = derive_stream(4, i, 1)
        rng.standard_normal(30)  # the oracle sample
        picks.append(rng.choice(30, size=4, replace=False))
        rng = derive_stream(4, i, 1)
        rng.standard_normal(30)
        expected.append(np.sort(rng.choice(30, size=4, replace=False)))
    mask = keep_mask(spec, rows, picks)
    for i in range(6):
        rng = derive_stream(4, i, 1)
        rng.standard_normal(30)
        c = compress(spec, rows[i], rng)
        assert np.array_equal(np.flatnonzero(mask[i]), expected[i])
        assert np.array_equal(c.indices, expected[i])
        assert np.array_equal(c.values, rows[i][expected[i]])


def test_randk_mask_from_a_picks_array_equals_the_per_row_loop():
    """``keep_mask`` on the (rows, k) picks array ``StreamFactory.block``
    draws keeps what a loop setting each row's picks keeps."""
    for d, k, rows in ((30, 4, 6), (5, 5, 3), (9, 1, 1)):
        spec, x = rand_k(k, d), derive_stream(6, 0, 0).standard_normal((rows, d))
        picks = StreamFactory(7).block(slice(0, rows), 1, None, (d, k))[1]
        want = np.zeros((rows, d), dtype=bool)
        for r, idx in enumerate(picks):
            want[r, idx] = True
        assert isinstance(picks, np.ndarray) and np.array_equal(keep_mask(spec, x, picks), want)
        assert np.array_equal(keep_mask(spec, x, list(picks)), want)


# the compressors suite's details by seed, recorded from its former per-vector compress()/densify() code
PINNED_DETAILS = {
    0: ["max=0.708004 mean=0.567115", "max=0.0", "mean=0.899863", "worst=0.322398 Delta^2=1.000000"],
    1: ["max=0.708585 mean=0.567888", "max=0.0", "mean=0.900209", "worst=0.295216 Delta^2=1.000000"],
}


@pytest.mark.parametrize("seed, details", list(PINNED_DETAILS.items()))
def test_compressors_suite_details_are_pinned(seed, details, compressors_suite):
    results = compressors_suite(seed)
    assert [r.detail for r in results] == details
    assert all(r.passed for r in results)
