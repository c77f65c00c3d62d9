import ctypes
import json
import multiprocessing
import os
import re
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efsim import core
from efsim.cli import main
from efsim.core import SEED_MAX, NumericFailure, Sample, StreamFactory, derive_stream, ensure_finite, norm_sq

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


def _add_rows_loop(acc, rows, mask=None):
    """The reference sum: one ``np.add`` per row, in ascending row order,
    skipping each row's masked-out coordinates."""
    for r in range(len(rows)):
        np.add(acc, rows[r], out=acc, where=True if mask is None else mask[r])


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 100])
def test_add_rows_equals_the_row_loop_bitwise(d, masked):
    """Random blocks with NaN, +-inf and -0.0 entries and whole rows, summed
    over several calls from zero as every caller starts, and one block of as
    many rows as fit ``BLOCK_BYTES``.  At d = 1 numpy would sum the column
    pairwise, which misses the loop's bits on most such blocks."""
    rng = np.random.Generator(np.random.Philox(key=31 * d + masked))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
    sizes = [int(rng.integers(1, 40)) for _ in range(60)] + [core.BLOCK_BYTES // (8 * d) - 1]
    for n in sizes:
        rows = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 9, size=(n, d))
        special = rng.random((n, d)) < 0.05
        rows[special] = rng.choice(specials, size=int(special.sum()))
        rows[rng.random(n) < 0.05] = rng.choice(specials)
        mask = rng.random((n, d)) < 0.3 if masked else None
        cuts = np.unique(np.concatenate(([0, n], rng.integers(0, n + 1, size=int(rng.integers(0, 4))))))
        got, want = np.zeros(d), np.zeros(d)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part_mask = None if mask is None else mask[lo:hi]
            with np.errstate(invalid="ignore"):  # inf + -inf
                core.add_rows(got, rows[lo:hi], part_mask)
                _add_rows_loop(want, rows[lo:hi], part_mask)
        assert got.tobytes() == want.tobytes()


def test_add_rows_needs_an_acc_without_negative_zero():
    """numpy's reduce starts from +0.0, so an ``acc`` entry of -0.0 that the
    loop would keep comes out +0.0; from ``np.zeros`` both stay +0.0, since
    x + y is -0.0 only when x and y both are."""
    rows = np.array([[-0.0, -0.0, 0.0], [-0.0, 1.0, -0.0]])
    mask = np.array([[True, False, True], [True, False, False]])
    for m in (None, mask):
        got, want = np.full(3, -0.0), np.full(3, -0.0)
        core.add_rows(got, rows, m)
        _add_rows_loop(want, rows, m)
        assert np.signbit(want[0]) and not np.signbit(got[0])
        got, want = np.zeros(3), np.zeros(3)
        core.add_rows(got, rows, m)
        _add_rows_loop(want, rows, m)
        assert got.tobytes() == want.tobytes() and not np.signbit(got).any()


def _uint32_drawn(state: dict) -> int:
    """How many 32-bit values a fresh Philox has handed out: numpy counts
    its first block at counter 1 and halves a 64-bit word per two draws."""
    blocks = int(state["state"]["counter"][0])
    words = 0 if blocks == 0 else 4 * (blocks - 1) + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


def _kernel():
    """The compiled block draw; with a C compiler present it must build and
    pass its guard, and without one the kernel tests are skipped."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler to build the draw kernel")
    kernel = core._kernel()
    assert kernel is not None
    return kernel


def _check_against_numpy(seed: int, ids: list[int], bounds: list[int]) -> int:
    """The kernel gives numpy's first ``integers(0, b)`` at each key, one
    one-row block per key.  Returns how many keys entered numpy's rejection
    loop, i.e. drew more than one 32-bit value."""
    kernel, factory = _kernel(), StreamFactory(seed)
    rejected = 0
    for key, b in zip(ids, bounds):
        node = key >> 32
        sample = Sample(1, np.full(node + 1, b))
        got = factory._fill(kernel, slice(node, node + 1), key & U32, sample)
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, key], dtype=np.uint64)))
        assert got[0, 0] == gen.integers(0, b)
        rejected += _uint32_drawn(gen.bit_generator.state) > 1
    return rejected


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, SEED_MAX]), st.integers(0, SEED_MAX)),
    keys=st.lists(
        st.tuples(
            st.integers(0, 63),  # the node; nodes up to 2^32 - 1 are drawn with normals below
            st.integers(0, U32),
            st.one_of(st.sampled_from([1, 2, 3, (1 << 31) + 1, U32, 1 << 32, (1 << 63) - 1]), st.integers(1, U32)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_vectorized_bounded_draw_matches_numpy(seed, keys):
    ids = [(node << 32) | rnd for node, rnd, _ in keys]
    _check_against_numpy(seed, ids, [b for *_, b in keys])


def test_vectorized_bounded_draw_flags_numpys_rejection_loop():
    # about half of all keys reject at b = 2^31 + 1, and the kernel follows
    # numpy's loop through every one of them
    ids = [(node << 32) | 17 for node in range(200)]
    assert 50 < _check_against_numpy(SEED_MAX, ids, [(1 << 31) + 1] * len(ids)) < 150


def test_stream_factory_integers_are_first_draws():
    _kernel()
    factory = StreamFactory(5)
    bounds = np.array([3, 1, 1000, (1 << 31) + 1])  # node 3 rejects about half its keys
    for rnd in range(11):
        want = [derive_stream(5, i, rnd).integers(0, bounds[i]) for i in range(4)]
        assert factory.block(slice(0, 3), rnd, Sample(1, bounds))[0].ravel().tolist() == want[:3]
        assert factory.block(slice(3, 4), rnd, Sample(1, bounds))[0].ravel().tolist() == want[3:]
    # bounds the kernel must not read are left to the per-node path, which raises numpy's error
    for rows, bounds, error in ((slice(0, 2), [0, 3], ValueError), (slice(0, 3), [2, 3], IndexError)):
        sample = Sample(1, np.array(bounds))
        with pytest.raises(error) as per_node:
            for i in range(rows.start, rows.stop):
                sample.draw(derive_stream(5, i, 0), i)
        with pytest.raises(error, match=f"^{re.escape(str(per_node.value))}$"):
            factory.block(rows, 0, sample)
    assert factory.block(slice(0, 2), 0, Sample(1, np.array([2, 3])))[0] is not None


@pytest.mark.parametrize("count", [1, 3, 1000])
@pytest.mark.parametrize("bounded", [False, True], ids=["normal", "bounded"])
def test_stream_factory_block_equals_per_node_draws(bounded, count):
    _kernel()
    bounds = np.array([1, 2, 3, 1000, (1 << 31) + 1, U32, 1 << 32, (1 << 33) + 7, (1 << 63) - 1])
    n = len(bounds)
    starts = ((0, 0, 0), (SEED_MAX, 7, 123)) + (() if bounded else ((11, U32 + 1 - n, U32),))
    for seed, first, rnd in starts:
        sample = Sample(count, np.concatenate([np.ones(first, dtype=np.int64), bounds]) if bounded else None)
        got = StreamFactory(seed).block(slice(first, first + n), rnd, sample)[0]
        want = [sample.draw(derive_stream(seed, i, rnd), i) for i in range(first, first + n)]
        assert got.dtype == (np.int64 if bounded else np.float64)
        assert np.array_equal(got, want)


def test_long_normal_row_takes_numpys_wedge_and_tail_paths():
    # 10^6 normals at one key: the kernel hands numpy's sampler every word its
    # fast path refuses, among them every idx-1 word (numpy's ki[1] is 0, so
    # its wedge decides them all) and the tail's values beyond the ziggurat's r
    _kernel()
    seed, node, rnd, count = SEED_MAX, 5, 11, 1_000_000
    got = StreamFactory(seed).block(slice(node, node + 1), rnd, Sample(count))[0][0]
    want = derive_stream(seed, node, rnd).standard_normal(count)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert (np.abs(got) > 3.6541528853610088).sum() > 100
    words = derive_stream(seed, node, rnd).bit_generator.random_raw(count)
    assert ((words & 0xFF) == 1).sum() > 1000


def test_block_rejects_the_ids_a_stream_rejects():
    _kernel()
    factory = StreamFactory(0)
    for node, rnd, rows in ((U32 + 1, 0, slice(U32 - 1, U32 + 2)), (0, U32 + 1, slice(0, 2))):
        with pytest.raises(ValueError) as per_node:
            factory.stream(node, rnd)
        with pytest.raises(ValueError) as block:
            factory.block(rows, rnd, Sample(3))
        assert str(block.value) == str(per_node.value) == "node/round exceed 32-bit stream id space"
    with pytest.raises(ValueError, match="seed"):
        StreamFactory(SEED_MAX + 1).block(slice(0, 1), 0, Sample(3))


# -- RandK picks, drawn by ``block`` after each node's sample ---------------------


_PICK_SAMPLES = {
    "normal": lambda n: Sample(5),
    "bounded": lambda n: Sample(3, np.array([1, 3, 1000, (1 << 31) + 1, U32, 1 << 32, 7])[np.arange(n) % 7]),
    "noiseless": lambda n: None,
}


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "no_kernel"])
@pytest.mark.parametrize("block_bytes", [1, None], ids=["one_row", "default"])
@pytest.mark.parametrize("kind", list(_PICK_SAMPLES))
def test_block_with_picks_equals_per_node_draws_then_choice(kind, block_bytes, kernel, monkeypatch):
    """With picks, every block of a walk is each node's sample, then its
    ``choice(d, k, replace=False)`` on that same stream; k = 1, k = d and
    one in between."""
    if kernel:
        _kernel()
    else:
        monkeypatch.setattr(core, "_kernel", lambda: None)
    if block_bytes is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    seed, n = 9, 11
    sample = _PICK_SAMPLES[kind](n)
    factory = StreamFactory(seed)
    for d, k in ((7, 1), (7, 7), (50, 4)):
        for r in (1, U32):
            for rows in core.blocks(n, 7 * 5):
                raw, chosen = factory.block(rows, r, sample, (d, k))
                want_raw, want_chosen = [], []
                for i in range(rows.start, rows.stop):
                    rng = derive_stream(seed, i, r)
                    want_raw.append(None if sample is None else sample.draw(rng, i))
                    want_chosen.append(rng.choice(d, k, replace=False))
                assert raw is None if sample is None else np.array_equal(raw, want_raw)
                assert chosen.shape == (rows.stop - rows.start, k) and np.array_equal(chosen, want_chosen)


def test_noiseless_block_resets_each_stream_once_for_picks(monkeypatch):
    resets, stream = [], StreamFactory.stream
    monkeypatch.setattr(StreamFactory, "stream", lambda self, i, r: resets.append((i, r)) or stream(self, i, r))
    factory = StreamFactory(2)
    assert factory.block(slice(3, 7), 5, None) == (None, None)
    assert resets == []
    raw, chosen = factory.block(slice(3, 7), 5, None, (10, 2))
    assert raw is None and chosen.shape == (4, 2)
    assert resets == [(i, 5) for i in range(3, 7)]


def test_stale_kernel_builds_are_removed_after_a_build(tmp_path, monkeypatch):
    """A build removes the cached builds of other sources for the same
    Python and numpy, and keeps every other file."""
    _kernel()
    prefix = f"draw_block.{sys.implementation.cache_tag}-numpy{np.__version__}-"
    stale = [f"{prefix}0123456789abcdef.so", f"{prefix}fedcba9876543210.so"]
    kept = [f"draw_block.cpython-00-numpy{np.__version__}-0123456789abcdef.so", f"{prefix}0123456789abcdef.so.1.tmp", "other.so"]
    for name in stale + kept:
        (tmp_path / name).write_bytes(b"old")
    monkeypatch.setattr(core, "_CACHE_DIR", str(tmp_path))
    core._kernel.cache_clear()
    try:
        assert core._kernel() is not None
        built = [name for name in os.listdir(tmp_path) if name.startswith(prefix) and name.endswith(".so")]
        assert len(built) == 1 and built[0] not in stale
        assert sorted(os.listdir(tmp_path)) == sorted(built + kept)
        core._kernel.cache_clear()
        (tmp_path / stale[0]).write_bytes(b"old")
        assert core._kernel() is not None  # loaded, not built: nothing is removed
        assert sorted(os.listdir(tmp_path)) == sorted(built + kept + stale[:1])
    finally:
        core._kernel.cache_clear()


def test_kernel_cache_key_covers_the_compiler_flags(tmp_path, monkeypatch):
    """The same source built with other gcc flags is cached under another
    name, so a flag change never loads a library built without it."""
    _kernel()
    monkeypatch.setattr(core, "_CACHE_DIR", str(tmp_path))
    core._kernel.cache_clear()
    try:
        assert core._kernel() is not None
        first = os.listdir(tmp_path)
        monkeypatch.setattr(core, "_CFLAGS", (*core._CFLAGS, "-O1"))
        core._kernel.cache_clear()
        assert core._kernel() is not None
        second = os.listdir(tmp_path)
        assert len(first) == len(second) == 1 and first != second  # built anew; the other build is stale
    finally:
        core._kernel.cache_clear()


# -- drawing ahead on the kernel's helper thread ----------------------------------


def _normals(seed: int, rows: slice, round_index: int, count: int) -> bytes:
    """The per-node draws of a block of normals, as bytes."""
    return np.array([derive_stream(seed, i, round_index).standard_normal(count) for i in range(rows.start, rows.stop)]).tobytes()


def _ahead_factory(seed: int) -> StreamFactory:
    """A factory that draws ahead whatever this host's CPUs."""
    _kernel()
    factory = StreamFactory(seed)
    factory._draws_ahead = True
    return factory


def _engine_walk(n: int, rounds) -> list[tuple[slice, int, int]]:
    """(rows, round, count) of every block an engine with n nodes and d = 300
    asks for, in its order, over (round, batch) pairs."""
    return [(rows, r, 300 * batch) for r, batch in rounds for rows in core.blocks(n, 300 * batch)]


@pytest.mark.parametrize("block_bytes", [1, None], ids=["one_row", "default"])
@pytest.mark.parametrize("order", ["engine", "shuffled"])
def test_draw_ahead_equals_per_node_draws_bitwise(order, block_bytes, monkeypatch):
    """Blocks of normals in the engine's order, with rounds skipped, the batch
    changing, a last block shorter than the others and the last round a
    stream can have, asked for twice; then the same requests shuffled, so
    most guesses miss.
    Every block is the per-node draws.  In the engine's order, after the
    first round, each block that follows its predecessor in the walk
    ``blocks(n, count)`` (or is the next round's first block) was drawn
    ahead."""
    if block_bytes is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    seed, n = SEED_MAX - 1, 11
    walk = _engine_walk(n, [(0, 1), (1, 3), (2, 3), (3, 3), (5, 3), (9, 1), (U32 - 1, 1), (U32, 1), (U32, 1)])
    if order == "shuffled":
        np.random.default_rng(3).shuffle(walk)
    factory = _ahead_factory(seed)
    ahead = []
    for rows, r, count in walk:
        ahead.append(factory._ahead_key == (rows.start, rows.stop, r, count))
        assert factory.block(rows, r, Sample(count))[0].tobytes() == _normals(seed, rows, r, count)
    # the block drawn ahead, asked for as bounded integers, is drawn as those
    first, last = core.blocks(n, 300)[0], core.blocks(n, 300)[-1]
    factory.block(last, 7, Sample(300))
    assert factory._ahead_key == (first.start, first.stop, 8, 300)
    integers = [derive_stream(seed, i, 8).integers(0, 1000, size=300) for i in range(first.start, first.stop)]
    assert np.array_equal(factory.block(first, 8, Sample(300, np.full(n, 1000)))[0], integers)
    if order == "engine":
        first_round = len(core.blocks(n, 300))
        successors = []
        for (rows, r, count), (after, r_after, count_after) in zip(walk, walk[1:]):
            blocks = core.blocks(n, count)
            i = blocks.index(rows) + 1
            successors.append(count_after == count and (after, r_after) == ((blocks[i], r) if i < len(blocks) else (blocks[0], r + 1)))
        assert ahead[first_round:] == successors[first_round - 1 :]
        assert sum(ahead) >= 5


def test_interleaved_factories_draw_as_each_alone():
    """Two factories taking turns, each with its draw ahead in flight while
    the other starts its own, and then four threads (more than this host's
    cores) each walking its own factory, with the interpreter switching
    threads every 10 us."""
    n, count, rounds = 10, 2000, range(1, 6)  # blocks of 4, 4 and 2 rows
    walk = [(rows, r) for r in rounds for rows in core.blocks(n, count)]
    want = {seed: [_normals(seed, rows, r, count) for rows, r in walk] for seed in range(4)}
    alone = {}
    for seed in (0, 1):
        factory = _ahead_factory(seed)
        alone[seed] = [factory.block(rows, r, Sample(count))[0].tobytes() for rows, r in walk]
        assert alone[seed] == want[seed]
    pair = _ahead_factory(0), _ahead_factory(1)
    for k, (rows, r) in enumerate(walk):
        for seed, factory in enumerate(pair):
            assert factory.block(rows, r, Sample(count))[0].tobytes() == alone[seed][k]

    got = {}

    def walk_with(seed):
        factory = _ahead_factory(seed)
        got[seed] = [factory.block(rows, r, Sample(count))[0].tobytes() for rows, r in walk]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=walk_with, args=(seed,)) for seed in want]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_waiting_thread_draws_rows_of_the_block_drawn_ahead(monkeypatch):
    """Blocks of 64 rows asked for one after another, so each request finds
    most of its block drawn ahead still unclaimed: the calling thread draws
    those rows itself (the library's count of rows drawn by waiting threads
    grows), and every block is the per-node draws bitwise."""
    monkeypatch.setattr(core, "BLOCK_BYTES", 64 * 8 * 500)
    seed, n, count = 6, 128, 500
    walk = [(rows, r) for r in range(1, 4) for rows in core.blocks(n, count)]
    want = [_normals(seed, rows, r, count) for rows, r in walk]
    factory = _ahead_factory(seed)
    shared = ctypes.c_uint64.in_dll(core._kernel(), "caller_rows")
    before = shared.value
    got = [factory.block(rows, r, Sample(count))[0].tobytes() for rows, r in walk]
    assert shared.value > before
    assert got == want


def test_forked_child_draws_the_same_values():
    """A fork while the helper draws the parent's next block (a row of 3e5
    normals, about 2 ms): the child has no helper, and its copy of the
    factory draws that block itself, then draws ahead on a helper of its
    own; the parent goes on as before."""
    n, count, seed = 3, 300_000, 4
    walk = [(rows, r) for r in range(4) for rows in core.blocks(n, count)]
    want = [_normals(seed, rows, r, count) for rows, r in walk]
    factory = _ahead_factory(seed)
    for k in range(n + 1):  # a round, so that the factory knows n, then round 1's first block
        assert factory.block(*walk[k], Sample(count))[0].tobytes() == want[k]
    walk, want = walk[n:], want[n:]
    assert factory._ahead_key == (1, 2, 1, count)

    def child():
        got = [factory.block(rows, r, Sample(count))[0].tobytes() for rows, r in walk[1:]]
        sys.exit(0 if got == want[1:] and factory._ticket else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    if proc.is_alive():
        proc.kill()
    assert proc.exitcode == 0
    assert [factory.block(rows, r, Sample(count))[0].tobytes() for rows, r in walk[1:]] == want[1:]


# -- the fallback: the kernel cannot be built, or does not match -----------------


@pytest.fixture
def fresh_kernel():
    """``core._kernel`` is decided anew in the test, and again after it."""
    core._kernel.cache_clear()
    yield
    core._kernel.cache_clear()


def _run_outputs(tmp_path, capfd) -> tuple[dict[str, bytes], str]:
    """Every file one small quadratic experiment (Gaussian samples, batch 2)
    writes, always to the same directory, and what it printed."""
    exp = {
        "name": "q",
        "problem": {"kind": "quadratic", "n": 5, "d": 30, "lam": 0.1, "s": 1.0, "seed": 2, "sigma": 0.1},
        "algorithms": ["ef21_sgdm", "ef14_sgd"],
        "compressor": {"kind": "topk", "k": 3},
        "hyper": {"gamma": 0.05, "eta": 0.3, "rounds": 30, "batch": 2},
        "seeds": [0, 1],
        "metric_every": 5,
    }
    path, out = tmp_path / "exp.json", tmp_path / "out"
    path.write_text(json.dumps(exp))
    shutil.rmtree(out, ignore_errors=True)
    capfd.readouterr()
    assert main(["run", str(path), "--out", str(out), "--workers", "1"]) == 0
    printed = capfd.readouterr()
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}, printed.out + printed.err


# faults planted in the kernel's source, which builds but must fail its guard
_PLANTS = {
    # keys each stream as (seed, round << 32 | node)
    "guard_mismatch": ("node << 32 | round", "round << 32 | node"),
    # the fast path reads its sign from bit 9 instead of bit 8
    "sign_skips_bit_8": ("(r & 0x100) << 55", "(r & 0x200) << 54"),
    # the fast path also takes layer 77's smallest rejected rabs, which numpy
    # sends to its wedge: the value may agree, the next draws do not
    "ki_one_off": ("ki[idx] = lo;", "ki[idx] = lo + (idx == 77);"),
    # TopK sends break ties toward the highest index
    "send_ties_to_the_right": ("ka == kb && ia > ib", "ka == kb && ia < ib"),
    # a row of a block drawn ahead is written one row off: the row a thread
    # claims but the last is drawn into the next, so row 0 is never drawn
    "shared_row_one_off": ("draw_row(&a, a.rows - (c & 0xFFFFFFFFu));", "draw_row(&a, a.rows - (c & 0xFFFFFFFFu) + ((c & 0xFFFFFFFFu) > 1));"),
    # the quadratic's T x subtracts x_{c-1} before x_{c+1}
    "tridiag_order": (
        "(2.0 * PAIR(x + c) - PAIR(x + c + 1)) - PAIR(x + c - 1)",
        "(2.0 * PAIR(x + c) - PAIR(x + c - 1)) - PAIR(x + c + 1)",
    ),
}


@pytest.mark.parametrize("failure", ["no_compiler", "unwritable_cache", *_PLANTS])
def test_kernel_failures_fall_back_silently(failure, fresh_kernel, tmp_path, capfd, monkeypatch):
    _kernel()
    with_kernel = _run_outputs(tmp_path, capfd)
    cache = tmp_path / "cache"
    if failure == "no_compiler":
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    elif failure == "unwritable_cache":
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "cache"  # below a file: no directory can be made
    else:
        text, fault = _PLANTS[failure]
        assert core._KERNEL_SOURCE.count(text) == 1
        monkeypatch.setattr(core, "_KERNEL_SOURCE", core._KERNEL_SOURCE.replace(text, fault))
    monkeypatch.setattr(core, "_CACHE_DIR", str(cache))
    core._kernel.cache_clear()
    assert core._kernel() is None
    if failure in _PLANTS:
        assert len(os.listdir(cache)) == 1  # it was built and loaded, then refused
    assert _run_outputs(tmp_path, capfd) == with_kernel
