import itertools
import math
import pickle
import shutil
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from dense_quadratic import DenseQuadratic
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh_tridiagonal

from efsim import core, harness
from efsim.problems import logreg as logreg_module
from efsim.core import add_batch_noise, derive_stream, norm_sq, quadratic_grads, weight_penalty
from efsim.problems import (
    CounterexampleProblem,
    LogRegProblem,
    Problem,
    QuadraticProblem,
    generate_quadratic,
    load_quadratic_task,
    make_blobs,
    parse_libsvm,
    save_quadratic_task,
    split_examples,
    write_libsvm,
)


def node_grad(prob, i, x):
    """grad f_i(x): the block oracle on the one-row block of node i."""
    return prob.full_grads(slice(i, i + 1), x)[0]


def node_draw(prob, i, rng, batch=1):
    """Node i's raw sample for one size-``batch`` stochastic gradient, from
    ``rng``: the engine's per-node path (None when the oracle draws nothing)."""
    sample = prob.sample(batch)
    return None if sample is None else sample.draw(rng, i)


def node_stoch_grad(prob, i, x, rng, batch=1):
    """One size-``batch`` stochastic gradient at node i, drawn from ``rng``."""
    return prob.stoch_grads_at(slice(i, i + 1), (x,), [node_draw(prob, i, rng, batch)])[0][0]


def node_matrix(prob, i):
    """Node i's matrix Q_i of a generated quadratic, built explicitly:
    ``tri_scale[i]`` times tridiag(-1, 2, -1), plus ``shift`` times I."""
    d = prob.dim
    tri = 2.0 * np.eye(d) - np.eye(d, k=1) - np.eye(d, k=-1)
    return prob.tri_scale[i] * tri + prob.shift * np.eye(d)


def node_data(prob, i):
    """Node i's bias-augmented examples and zero-based labels of a logistic
    regression: views into its stacked data."""
    rows = slice(prob._start[i], prob._start[i] + prob.m_i[i])
    return prob._a_all[rows], prob._y_all[rows]


def central_diff_grad(f, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# -- quadratic ----------------------------------------------------------------


def test_generator_zero_scale_degenerate_case():
    prob = generate_quadratic(4, 6, 0.05, 0.0, seed=0)
    # s = 0: every node identical, tridiagonal T/4 plus the common shift
    assert np.allclose(prob.tri_scale, 0.25)
    for i in range(4):
        assert prob.b[i, 0] == pytest.approx(-0.25)
        assert np.all(prob.b[i, 1:] == 0.0)
    x = derive_stream(1, 0, 0).standard_normal(6)
    assert np.allclose(node_matrix(prob, 0) @ x, node_matrix(prob, 3) @ x)
    assert prob.x0[0] == pytest.approx(math.sqrt(6))
    assert np.all(prob.x0[1:] == 0.0)


@pytest.mark.parametrize("n,d,lam,s", [(5, 10, 0.05, 1.0), (20, 100, 0.01, 1.0), (3, 200, 0.0, 0.5)])
def test_generator_mean_matrix_min_eigenvalue(n, d, lam, s):
    prob = generate_quadratic(n, d, lam, s, seed=7)
    qbar = sum(node_matrix(prob, i) for i in range(n)) / n
    assert np.linalg.eigvalsh(qbar).min() == pytest.approx(lam, abs=1e-8)


def test_generator_large_dimension_eigenvalue_oracle():
    # d = 1000 node count 100: the published generation scale
    prob = generate_quadratic(100, 1000, 0.01, 1.0, seed=0)
    scale = float(np.mean(prob.tri_scale))
    diag = np.full(1000, 2.0 * scale + prob.shift)
    off = np.full(999, -scale)
    evs = eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))
    assert evs[0] == pytest.approx(0.01, abs=1e-8)


def test_quadratic_full_grad_hand_case():
    q = np.array([[[2.0, -1.0], [-1.0, 2.0]]]) / 4.0
    prob = DenseQuadratic(q, np.zeros((1, 2)), x0=np.zeros(2))
    g = node_grad(prob, 0, np.array([1.0, 1.0]))
    assert np.allclose(g, [0.25, 0.25])
    assert np.allclose(node_grad(prob, 0, np.zeros(2)), -prob.b[0])


def test_quadratic_grad_matches_finite_differences():
    prob = generate_quadratic(3, 8, 0.1, 1.0, seed=2)
    rng = derive_stream(3, 0, 0)
    for i in range(3):
        x = rng.standard_normal(8)
        fd = central_diff_grad(lambda y, i=i: 0.5 * y @ node_matrix(prob, i) @ y - prob.b[i] @ y, x)
        g = node_grad(prob, i, x)
        assert np.allclose(g, fd, rtol=1e-4, atol=1e-6)


def test_quadratic_stochastic_gradient_noise_model():
    prob = generate_quadratic(2, 10, 0.1, 1.0, seed=4, sigma=0.5)
    point_rng = derive_stream(5, 0, 0)
    # sigma=0 path is bitwise the full gradient
    quiet = generate_quadratic(2, 10, 0.1, 1.0, seed=4, sigma=0.0)
    x = point_rng.standard_normal(10)
    assert np.array_equal(node_stoch_grad(quiet, 0, x, derive_stream(5, 0, 1)), node_grad(quiet, 0, x))

    # unbiased at 5 random points, and second moment of the noise is sigma^2
    n_draws = 4000
    for p in range(5):
        x = point_rng.standard_normal(10)
        draws = np.stack([node_stoch_grad(prob, 0, x, derive_stream(6, p, t)) for t in range(n_draws)])
        full = node_grad(prob, 0, x)
        noise = draws - full
        se = noise.std(axis=0, ddof=1) / math.sqrt(n_draws)
        assert np.all(np.abs(draws.mean(axis=0) - full) <= 4 * se)
        sq = (noise**2).sum(axis=1)
        assert sq.mean() == pytest.approx(0.25, abs=3 * sq.std(ddof=1) / math.sqrt(n_draws))


def test_quadratic_batch_reduces_variance():
    prob = generate_quadratic(1, 6, 0.1, 0.0, seed=1, sigma=1.0)
    x = prob.x0
    draws = np.stack([node_stoch_grad(prob, 0, x, derive_stream(7, 0, t), batch=16) for t in range(4000)])
    sq = ((draws - node_grad(prob, 0, x)) ** 2).sum(axis=1)
    assert sq.mean() == pytest.approx(1.0 / 16, rel=0.15)


def test_generated_smoothness_matches_dense_eigensolver():
    prob = generate_quadratic(5, 40, 0.02, 1.0, seed=9)
    sm = prob.smoothness()
    for i in range(5):
        assert sm.L_i[i] == pytest.approx(np.abs(np.linalg.eigvalsh(node_matrix(prob, i))).max(), rel=1e-10)


def test_quadratic_f_star_is_minimum():
    prob = generate_quadratic(6, 30, 0.05, 1.0, seed=11)
    f_star = prob.f_star
    rng = derive_stream(12, 0, 0)
    assert f_star is not None
    for _ in range(20):
        assert prob.value(rng.standard_normal(30)) >= f_star - 1e-10


def test_quadratic_task_round_trip(tmp_path):
    prob = generate_quadratic(5, 16, 0.05, 1.0, seed=13, sigma=0.01)
    path = str(tmp_path / "task.json")
    save_quadratic_task(prob, path)
    back = load_quadratic_task(path)
    assert np.array_equal(back.tri_scale, prob.tri_scale)
    assert np.array_equal(back.b, prob.b)
    assert back.shift == prob.shift
    assert back.sigma == prob.sigma
    assert back.mean_lambda_min() == pytest.approx(0.05, abs=1e-8)


# -- the quadratic's gradients from the compiled kernel --------------------------

_X_ENTRIES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308]) | st.floats()


def _bits(a):
    """The bits of ``a``, each NaN's as NaN's: numpy's own loops differ in
    the NaN they return for NaN + NaN, and no trace shows a NaN's bits."""
    return np.where(np.isnan(a), np.uint64(0x7FF8000000000000), a.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.sampled_from([*range(1, 13), 1000]), st.integers(0, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 2)),
    sigma=st.sampled_from([0.0, 0.7]),
    shift=st.floats(-2.0, 2.0),
    data=st.data(),
)
def test_kernel_quadratic_grads_equal_numpy_path_bitwise(shape, sigma, shift, data):
    """``full_grads`` and ``stoch_grads_at`` from the kernel give numpy's
    ``quadratic_grads`` and ``add_batch_noise`` bit for bit, a NaN's bits
    aside: on rows past the first, at one and two iterates holding signed
    zeros, infinities, NaN and subnormals, at batches of 1 to 4 with raw
    samples holding -0.0, and without noise.  The kernel takes every input
    but a batch mean at d = 1, which numpy sums pairwise."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler to build the kernel")
    assert core._kernel() is not None
    d, start, n, batch, iterates = shape
    rng = derive_stream(data.draw(st.integers(0, 2**32 - 1)), 0, 0)
    if d <= 12:
        xs = data.draw(arrays(np.float64, (iterates, d), elements=_X_ENTRIES))
    else:
        xs = rng.standard_normal((iterates, d))
        xs[:, rng.choice(d, 12, replace=False)] = data.draw(arrays(np.float64, (iterates, 12), elements=_X_ENTRIES))
    b, scale = rng.standard_normal((start + n + 1, d)), rng.standard_normal(start + n + 1)
    b[:, ::3] = 0.0
    raw = rng.standard_normal((n, batch * d))
    raw[:, ::5] = -0.0
    problem, rows = QuadraticProblem(b, np.zeros(d), sigma, scale, shift), slice(start, start + n)
    with np.errstate(all="ignore"):
        got = problem.stoch_grads_at(rows, list(xs), raw)
        full = [problem.full_grads(rows, x) for x in xs]
        want = [quadratic_grads(scale[rows], b[rows], shift, x) for x in xs]
        assert all(np.array_equal(_bits(f), _bits(w)) for f, w in zip(full, want))
        if sigma:
            add_batch_noise(want, raw, problem._noise_scale)
        assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got, want))
        taken = problem._kernel_grads(rows, list(xs), raw if sigma else None)
    assert (taken is None) == (sigma != 0.0 and batch > 1 and d == 1)


def test_kernel_batch_mean_of_negative_zeros_is_numpys():
    """numpy sums a batch from +0.0, so a mean of -0.0s is +0.0, and a
    gradient of -0.0 plus that noise is +0.0."""
    problem = QuadraticProblem(np.zeros((2, 3)), np.zeros(3), 1.0, -np.ones(2), -1.0)
    x, raw = np.zeros(3), np.full((2, 6), -0.0)
    got = problem.stoch_grads_at(slice(0, 2), (x,), raw)[0]
    assert problem._kernel_grads is None or problem._kernel_grads(slice(0, 2), (x,), raw) is not None
    want = [quadratic_grads(problem.tri_scale, problem.b, problem.shift, x)]
    assert np.signbit(want[0]).all()
    add_batch_noise(want, raw, problem._noise_scale)
    assert not np.signbit(want[0]).any() and got.tobytes() == want[0].tobytes()


def test_kernel_quadratic_grads_from_several_threads():
    """Threads that share a problem's oracle each get their own block's
    gradients."""
    problem = generate_quadratic(24, 1000, 0.01, 1.0, seed=3, sigma=0.5)
    rng = derive_stream(23, 0, 0)
    xs, raw = rng.standard_normal((4, 1000)), rng.standard_normal((4, 8, 1000))
    want = [[quadratic_grads(problem.tri_scale[r], problem.b[r], problem.shift, x) for r in core.blocks(24, 1000)] for x in xs]
    for grads in want:
        for r, g in zip(core.blocks(24, 1000), grads):
            add_batch_noise([g], raw[r.start // 8], problem._noise_scale)
    got = [None] * 4

    def work(k):
        got[k] = [[problem.stoch_grads_at(r, (xs[k],), raw[r.start // 8])[0] for r in core.blocks(24, 1000)] for _ in range(40)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert all(g.tobytes() == w.tobytes() for k in range(4) for rep in got[k] for g, w in zip(rep, want[k]))


def test_dense_quadratic_gradients_are_its_own(monkeypatch):
    """A subclass with its own ``full_grads`` never takes the kernel's
    tridiagonal gradients, stochastic ones included."""
    monkeypatch.setattr(core.QuadraticGrads, "__call__", lambda *args: pytest.fail("the kernel computed a gradient"))
    rng = derive_stream(19, 0, 0)
    a = rng.standard_normal((3, 4, 4))
    prob = DenseQuadratic(a @ a.transpose(0, 2, 1), rng.standard_normal((3, 4)), np.ones(4), sigma=0.5)
    x, raw = rng.standard_normal(4), rng.standard_normal((2, 8))
    want = [q @ x for q in prob.dense[1:]] - prob.b[1:]
    assert np.array_equal(prob.full_grads(slice(1, 3), x), want)
    add_batch_noise([want], raw, prob._noise_scale)
    assert np.array_equal(prob.stoch_grads_at(slice(1, 3), (x,), raw)[0], want)


# -- adversarial two-dimensional instance -------------------------------------


def test_counterexample_atoms():
    prob = CounterexampleProblem(l_smooth=1.0, sigma=1.0, variance_batch=1)
    assert np.allclose(prob.atoms.sum(axis=0), 0.0)
    second_moment = (prob.atoms**2).sum(axis=1).mean()
    assert second_moment == pytest.approx(1.0, rel=1e-12)
    probB = CounterexampleProblem(sigma=1.0, variance_batch=8)
    assert (probB.atoms**2).sum(axis=1).mean() == pytest.approx(1.0 / 8, rel=1e-12)


def test_counterexample_compressed_noise_bias():
    from efsim.compress import keep_mask, top_k

    prob = CounterexampleProblem(sigma=1.0, variance_batch=1)
    kept = np.mean(np.where(keep_mask(top_k(1, 2), prob.atoms), prob.atoms, 0.0), axis=0)
    expected = math.sqrt(3 / 10) * np.array([0.0, 1.0 / 3.0])
    assert np.allclose(kept, expected, rtol=1e-12)


def test_counterexample_oracles():
    prob = CounterexampleProblem(l_smooth=1.0, sigma=1.0, n_nodes=3, x0=(0.0, -0.01))
    assert np.array_equal(node_grad(prob, 1, prob.x0), prob.x0)
    assert prob.value(np.zeros(2)) == 0.0
    sm = prob.smoothness()
    assert sm.L == 1.0 and prob.f_star == 0.0 and np.all(sm.L_i == 1.0)
    g = node_stoch_grad(prob, 0, prob.x0, derive_stream(1, 0, 1))
    diff = g - node_grad(prob, 0, prob.x0)
    norms = np.round((prob.atoms**2).sum(axis=1), 12)
    assert round(norm_sq(diff), 12) in set(norms.tolist())


def test_counterexample_validation():
    with pytest.raises(ValueError):
        CounterexampleProblem(variance_batch=0)
    with pytest.raises(ValueError):
        CounterexampleProblem(x0=(1.0, 2.0, 3.0))
    for l_smooth in (0.0, -1.0):  # f = (L/2)||x||^2 needs L > 0 for f* = 0
        with pytest.raises(ValueError, match="l_smooth"):
            CounterexampleProblem(l_smooth=l_smooth)


# -- logistic regression ------------------------------------------------------


def _tiny_logreg(classes=3, features=5, per_node=10, nodes=2, seed=17, reg=1e-3):
    rng = derive_stream(seed, 0, 0)
    feats = [rng.standard_normal((per_node, features)) for _ in range(nodes)]
    labs = [rng.integers(1, classes + 1, size=per_node) for _ in range(nodes)]
    return LogRegProblem(feats, labs, classes, reg=reg)


def _uneven_logreg(classes=4, features=6, examples=47, nodes=5):
    """Logistic-regression blobs dealt to nodes of uneven sizes (9 or 10 by
    default), with the raw node features and labels."""
    x, y = make_blobs(classes=classes, n_features=features, examples=examples, seed=2)
    feats, labs = split_examples(x, y, nodes, "uniform", 3)
    return LogRegProblem(feats, labs, classes, reg=1e-3), feats, labs


def _logreg_reference(feat, lab, classes, reg, x, batch_idx=None):
    """Loss and gradient of one node, written out: logits, max-stabilized
    softmax, residual, ``resid.T @ a / m`` plus the regularizer's gradient."""
    a = np.hstack([feat, np.ones((feat.shape[0], 1))])
    y = lab - 1
    if batch_idx is not None:
        a, y = a[batch_idx], y[batch_idx]
    m, l = a.shape[0], feat.shape[1]
    wmat = x.reshape(classes, l + 1)
    logits = a @ wmat.T
    logits -= logits.max(axis=1, keepdims=True)
    expz = np.exp(logits)
    probs = expz / expz.sum(axis=1, keepdims=True)
    w = wmat[:, :l]
    loss = -float(np.mean(np.log(probs[np.arange(m), y] + 1e-300))) + reg * float(np.sum(w**2 / (1.0 + w**2)))
    probs[np.arange(m), y] -= 1.0
    reg_grad = np.zeros_like(wmat)
    reg_grad[:, :l] = reg * 2.0 * w / (1.0 + w**2) ** 2
    return loss, ((probs.T @ a) / m).ravel() + reg_grad.ravel()


@pytest.mark.parametrize("block_bytes", [1, 3 * 8 * 28, None], ids=["one_row", "three_rows", "default"])
@pytest.mark.parametrize("batch", [1, 3, 32])
def test_logreg_oracles_equal_explicit_reference_bitwise(batch, block_bytes, monkeypatch):
    from efsim import core

    if block_bytes is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    prob, feats, labs = _uneven_logreg()  # d = 28
    assert len(set(prob.m_i.tolist())) > 1
    x = 0.5 * derive_stream(13, 0, 0).standard_normal(prob.dim)

    def ref(i, batch_idx=None):
        return _logreg_reference(feats[i], labs[i], prob.classes, prob.reg, x, batch_idx)

    draws = [node_draw(prob, i, derive_stream(14, i, 0), batch) for i in range(prob.n_nodes)]
    blocks = list(core.blocks(prob.n_nodes, prob.dim))
    assert len(blocks) == {1: 5, 3 * 8 * 28: 2, None: 1}[block_bytes]
    for rows in blocks:
        sg, full = prob.stoch_grads_at(rows, (x,), draws[rows])[0], prob.full_grads(rows, x)
        for r, i in enumerate(range(rows.start, rows.stop)):
            assert np.array_equal(sg[r], ref(i, draws[i])[1])
            assert np.array_equal(full[r], ref(i)[1])
    values, grads = zip(*(ref(i) for i in range(prob.n_nodes)))
    g = grads[0].copy()
    for gi in grads[1:]:
        g += gi
    value, mean_grad = prob.value_and_mean_grad(x)
    assert value == float(np.mean(values))
    assert np.array_equal(mean_grad, g / prob.n_nodes)


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread, as every run has it, then its count as
    it was."""
    threads = harness._blas_threads()
    if threads is None:
        yield
        return
    previous, threads.value = threads.value, 1
    yield
    threads.value = previous


@pytest.mark.parametrize("examples", [50, 47, 2001], ids=["equal", "uneven", "2001"])
def test_logreg_stacked_full_pass_equals_per_node_calls_bitwise(examples, one_blas_thread, monkeypatch):
    """A uniform split of 50 examples over 5 nodes gives every node 10, and
    the full-data pass is one ``_softmax_grads`` call over all of them; 47
    give 9, 9, 10, 9, 10 and 2,001 give 400 to four nodes and 401 to the
    last, and it is one call per run of consecutive nodes of one size.
    Either way the value, the mean gradient and every ``full_grads`` row are
    the per-node calls'."""
    prob = _uneven_logreg(examples=examples)[0]
    n = prob.n_nodes
    x = 0.5 * derive_stream(16, 0, 0).standard_normal(prob.dim)
    reg_value, reg = weight_penalty(prob.reg, prob._weights(x))
    losses, grads = [], []
    for i in range(n):
        a, y = node_data(prob, i)
        p_true, grad = prob._softmax_grads(x, a[None], y[None])
        losses.append(-float(np.mean(np.log(p_true[0] + 1e-300))) + reg_value)  # one node's mean loss, alone
        grads.append(grad[0] + reg)
    calls = []
    softmax = prob._softmax_grads
    monkeypatch.setattr(prob, "_softmax_grads", lambda x, a, y: calls.append(len(a)) or softmax(x, a, y))
    for rows in (slice(0, n), slice(1, n - 1)):
        calls.clear()
        full = prob.full_grads(rows, x)
        assert calls == [len(list(run)) for _, run in itertools.groupby(prob.m_i[rows])]
        for r, i in enumerate(range(rows.start, rows.stop)):
            assert full[r].tobytes() == grads[i].tobytes()
    g = grads[0].copy()
    for grad in grads[1:]:
        g += grad
    value, mean_grad = prob.value_and_mean_grad(x)
    assert value == float(np.mean(losses))
    assert mean_grad.tobytes() == (g / n).tobytes()


@pytest.mark.parametrize(
    "sizes",
    [[1] * 3, [7] * 3, [8] * 3, [9] * 3, [200] * 2, [1, 7, 8, 9, 200], [8, 8, 9, 9, 9, 1, 1]],
    ids=["m1", "m7", "m8", "m9", "m200", "uneven", "runs"],
)
def test_logreg_value_takes_each_nodes_loss_bitwise(sizes, one_blas_thread):
    """``value_and_mean_grad`` takes the losses of a run of nodes of m
    examples each at once, and each is the node's own mean loss, bit for bit."""
    x, y = make_blobs(classes=3, n_features=5, examples=sum(sizes), seed=4)
    cuts = np.cumsum(sizes)[:-1]
    prob = LogRegProblem(np.split(x, cuts), np.split(y, cuts), classes=3)
    w = 0.5 * derive_stream(17, 0, 0).standard_normal(prob.dim)
    losses = []
    for i in range(prob.n_nodes):
        a, lab = node_data(prob, i)
        p_true = prob._softmax_grads(w, a[None], lab[None])[0][0]
        losses.append(-float(np.mean(np.log(p_true + 1e-300))) + weight_penalty(prob.reg, prob._weights(w))[0])
    assert prob.value_and_mean_grad(w)[0].hex() == float(np.mean(losses)).hex()


_LOGIT_ENTRIES = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5]) | st.floats(-30.0, 30.0)


@settings(max_examples=200, deadline=None)
@given(
    classes=st.sampled_from([*range(1, 13), 127, 128, 129, 130, 300]),
    batch=st.sampled_from([1, 2, 32, 200]),
    rows=st.tuples(st.integers(1, 3), st.integers(1, 11)),
    width=st.integers(1, 5),
    reg=st.sampled_from([None, 0.0, 1e-3]),
    taken=st.sampled_from(["all", "all", "all", "not_the_rows", "int32_labels"]),
    data=st.data(),
)
def test_kernel_softmax_equals_numpy_path_bitwise(classes, batch, rows, width, reg, taken, data):
    """``core.SoftmaxGrads`` gives the residuals, true-label probabilities
    and gradient rows of numpy's ``core.softmax_grads`` bit for bit, a NaN's
    bits aside: at 1 to 12, 127 to 130 and 300 classes (every branch of
    numpy's pairwise sum), batches of 1, 2, 32 and 200, on 1 to 11 rows past
    the first, whose neighbours it leaves alone, with logits and weights
    holding infinities, NaN, ties at the maximum, signed zeros and
    subnormals, labels on the first and last class, and reg 0, 1e-3 and none.
    It takes every input but int64 labels, and writes the rows itself just
    where the regularizer is given at a batch of one and the examples and
    weights are C-contiguous."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler to build the kernel")
    lib = core._kernel()
    assert lib is not None
    start, n = rows
    rows, rng = slice(start, start + n), derive_stream(data.draw(st.integers(0, 2**32 - 1)), 0, 0)
    logits = 4.0 * rng.standard_normal((start + n + 1, batch, classes))
    flat = logits.reshape(-1, classes)
    specials = data.draw(arrays(np.float64, 12, elements=_LOGIT_ENTRIES))
    # every other example row: a NaN or +inf turns its whole row NaN, which hides the rest
    flat[2 * rng.integers(0, len(flat) // 2 + 1, 12) % len(flat), rng.integers(0, classes, 12)] = specials
    ties = rng.integers(0, len(flat), 4)
    flat[ties, : (classes + 1) // 2] = flat[ties].max(axis=1, keepdims=True)  # ties at the maximum
    a = rng.standard_normal((start + n + 1, batch, width))
    a[rng.random(a.shape) < 0.3] = rng.choice([0.0, -0.0])  # residual times a zero: the product's signed zeros
    wmat = rng.standard_normal((classes, 2 * width))
    wmat.flat[rng.integers(0, wmat.size, 6)] = data.draw(arrays(np.float64, 6, elements=_LOGIT_ENTRIES))
    wmat = wmat[:, ::2] if taken == "not_the_rows" else wmat[:, :width].copy()  # a strided view is not taken for the rows
    y = rng.integers(0, classes, size=(start + n + 1, batch))
    y[start, 0], y[start + n - 1, -1] = 0, classes - 1
    y = y.astype(np.int32) if taken == "int32_labels" else y
    got, want = logits.copy(), logits.copy()
    with np.errstate(all="ignore"), mock.patch.object(core, "_residual_rows", wraps=core._residual_rows) as product:
        out = core.SoftmaxGrads(lib, classes, width)(got[rows], a[rows], y[rows], reg, wmat)
        ref = core.softmax_grads(want[rows], a[rows], y[rows], reg, wmat)
    if taken == "int32_labels":
        assert out is None and got.tobytes() == logits.tobytes()
        return
    assert out is not None
    assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip((got, *out), (want, *ref)))
    direct = reg is not None and batch == 1 and wmat.flags.c_contiguous
    assert product.call_count == (2 if not direct else 1)  # the kernel's rows skip numpy's product


def test_kernel_softmax_from_several_threads():
    """Threads that share a problem's softmax, more of them than cores and
    switched as often as the interpreter can, each get their own iterate's
    gradients: the kernel's arguments are set under a lock."""
    prob = _uneven_logreg(classes=10, features=20, examples=400, nodes=8)[0]
    rows, rng = slice(0, prob.n_nodes), derive_stream(24, 0, 0)
    xs, raw = 0.1 * rng.standard_normal((4, prob.dim)), core.StreamFactory(5).block(rows, 1, prob.sample(1))[0].copy()
    want = [(prob.stoch_grads_at(rows, (x,), raw)[0].tobytes(), prob.full_grads(rows, x).tobytes()) for x in xs]
    same = [None] * 4

    def work(k):
        got = [(prob.stoch_grads_at(rows, (xs[k],), raw)[0].tobytes(), prob.full_grads(rows, xs[k]).tobytes()) for _ in range(40)]
        same[k] = all(g == want[k] for g in got)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and same == [True] * 4


def test_logreg_pickles_its_data_once():
    prob = _uneven_logreg(classes=10, features=20, examples=2000, nodes=10)[0]
    data = prob._a_all.nbytes + prob._y_all.nbytes
    assert len(pickle.dumps(prob)) <= 1.1 * data
    copy = pickle.loads(pickle.dumps(prob))
    x = 0.1 * derive_stream(15, 0, 0).standard_normal(prob.dim)
    assert np.array_equal(copy.full_grads(slice(0, prob.n_nodes), x), prob.full_grads(slice(0, prob.n_nodes), x))


def test_unpickled_problems_take_the_kernel(monkeypatch):
    """A pool worker unpickles its problem, whose arrays then hold a copy of
    their dtype, as does every iterate computed from them; the kernel takes
    them all the same: no logistic-regression gradient comes from numpy's
    softmax, and the quadratic's come from ``QuadraticGrads``."""
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler to build the kernel")
    assert core._kernel() is not None
    logreg = pickle.loads(pickle.dumps(_uneven_logreg()[0]))
    quad = pickle.loads(pickle.dumps(generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=0.5)))
    monkeypatch.setattr(logreg_module, "softmax_grads", lambda *args: pytest.fail("numpy took the softmax"))
    rows, x = slice(0, logreg.n_nodes), logreg.x0 + 0.25
    raw = core.StreamFactory(2).block(rows, 1, logreg.sample(1))[0].copy()
    logreg.stoch_grads_at(rows, (x,), raw), logreg.full_grads(rows, x), logreg.value_and_mean_grad(x)
    raw = core.StreamFactory(2).block(slice(0, 4), 1, quad.sample(2))[0]
    assert quad.kernel_grads()(slice(0, 4), [quad.x0 - 0.5], raw) is not None


def test_logreg_zero_weights_symmetric():
    prob = LogRegProblem([np.array([[0.5, -0.2]])], [np.array([1])], classes=2, reg=0.0)
    loss, grad = prob.value(np.zeros(prob.dim)), node_grad(prob, 0, np.zeros(prob.dim))
    assert loss == pytest.approx(math.log(2.0), rel=1e-12)
    # softmax probabilities (1/2, 1/2): residual is +-1/2 times the example
    a_aug = np.array([0.5, -0.2, 1.0])
    expected = np.concatenate([-0.5 * a_aug, 0.5 * a_aug])
    assert np.allclose(grad, expected, rtol=1e-12)


def test_logreg_dimension():
    prob = _tiny_logreg(classes=3, features=5)
    assert prob.dim == (5 + 1) * 3


def test_logreg_gradient_matches_finite_differences():
    prob = _tiny_logreg(classes=3, features=5, per_node=10, nodes=1)
    x = 0.5 * derive_stream(18, 0, 0).standard_normal(prob.dim)
    grad = node_grad(prob, 0, x)
    fd = central_diff_grad(prob.value, x)
    assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


def test_regularizer_gradient_hand_value():
    reg = 1e-3
    prob = LogRegProblem([np.zeros((1, 2))], [np.array([1])], classes=2, reg=reg)
    x = np.zeros(prob.dim)
    x[0] = 1.0  # a weight coordinate: d/dz [z^2/(1+z^2)] = 2z/(1+z^2)^2 = 1/2 at z=1
    grad_with = node_grad(prob, 0, x)
    probs_part = node_grad(LogRegProblem([np.zeros((1, 2))], [np.array([1])], classes=2, reg=0.0), 0, x)
    assert grad_with[0] - probs_part[0] == pytest.approx(reg / 2.0, rel=1e-12)
    # bias coordinates are not regularized
    x2 = np.zeros(prob.dim)
    x2[2] = 1.0
    g_reg = weight_penalty(prob.reg, prob._weights(x2))[1]
    assert np.all(g_reg == 0.0)


def test_logreg_minibatch_unbiased():
    prob = _tiny_logreg(classes=2, features=3, per_node=6, nodes=1, seed=21)
    x = 0.3 * derive_stream(22, 0, 0).standard_normal(prob.dim)
    full = node_grad(prob, 0, x)
    draws = np.stack([node_stoch_grad(prob, 0, x, derive_stream(23, 0, t), batch=2) for t in range(8000)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - full) <= 4 * se + 1e-12)


def test_empty_batch_rejected():
    prob = _tiny_logreg()
    with pytest.raises(ValueError):
        prob.stoch_grads_at(slice(0, 1), (np.zeros(prob.dim),), [np.array([], dtype=int)])


# -- LIBSVM ingestion ----------------------------------------------------------


def test_parse_two_line_file_and_by_label_split(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("1 1:0.5\n2 2:1.0\n")
    x, y = parse_libsvm(str(path), classes=2, n_features=2)
    assert x.shape == (2, 2)
    feats, labs = split_examples(x, y, 2, policy="by_label")
    assert labs[0].tolist() == [1]
    assert labs[1].tolist() == [2]
    assert feats[0][0].tolist() == [0.5, 0.0]
    assert feats[1][0].tolist() == [0.0, 1.0]


def test_parse_errors_name_line_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1:0.5\nnope 1:1\n")
    with pytest.raises(ValueError, match=":2:"):
        parse_libsvm(str(bad), 2, 2)
    bad.write_text("5 1:0.5\n")
    with pytest.raises(ValueError, match="label 5"):
        parse_libsvm(str(bad), 2, 2)
    bad.write_text("1 3:0.5\n")
    with pytest.raises(ValueError, match="feature index 3"):
        parse_libsvm(str(bad), 2, 2)
    bad.write_text("1 xx\n")
    with pytest.raises(ValueError, match=":1:"):
        parse_libsvm(str(bad), 2, 2)


def test_libsvm_round_trip(tmp_path):
    rng = derive_stream(31, 0, 0)
    x = rng.standard_normal((100, 7))
    x[rng.random((100, 7)) < 0.3] = 0.0
    y = rng.integers(1, 4, size=100)
    path = str(tmp_path / "rt.txt")
    write_libsvm(path, x, y)
    x2, y2 = parse_libsvm(path, classes=3, n_features=7)
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)


def test_libsvm_write_failing_midway_leaves_no_partial_file(tmp_path):
    path = tmp_path / "blobs.txt"
    path.write_text("1 1:0.5\n")
    with pytest.raises(TypeError):  # int(None) fails on the third line
        write_libsvm(str(path), np.ones((3, 2)), np.array([1, 2, None], dtype=object))
    assert path.read_text() == "1 1:0.5\n" and [p.name for p in tmp_path.iterdir()] == ["blobs.txt"]


def test_mnist_shaped_dimension(tmp_path):
    rng = derive_stream(32, 0, 0)
    x = np.zeros((20, 784))
    x[:, :3] = rng.standard_normal((20, 3))
    y = (np.arange(20) % 10) + 1
    path = str(tmp_path / "mnist_shape.txt")
    write_libsvm(path, x, y)
    feats, labs = split_examples(*parse_libsvm(path, classes=10, n_features=784), 2)
    prob = LogRegProblem(feats, labs, classes=10)
    assert prob.dim == 7850


def test_uniform_split_seeded_and_sized():
    x = np.arange(30, dtype=float).reshape(10, 3)
    y = np.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 3])
    f1, l1 = split_examples(x, y, 3, policy="uniform", seed=5)
    f2, l2 = split_examples(x, y, 3, policy="uniform", seed=5)
    for a, b in zip(f1, f2):
        assert np.array_equal(a, b)
    assert sorted(len(l) for l in l1) == [3, 3, 4]
    with pytest.raises(ValueError):
        split_examples(x, y, 11)
    with pytest.raises(ValueError):
        split_examples(x, y, 2, policy="weird")


def test_blobs_generator_balanced_and_loadable(tmp_path):
    x, y = make_blobs(classes=2, n_features=10, examples=200, seed=0)
    assert x.shape == (200, 10)
    assert sorted(np.unique(y)) == [1, 2]
    assert np.bincount(y)[1:].tolist() == [100, 100]
    path = str(tmp_path / "blobs.txt")
    write_libsvm(path, x, y)
    assert len(open(path).readlines()) == 200
    feats, labs = split_examples(*parse_libsvm(path, classes=2, n_features=10), 4)
    prob = LogRegProblem(feats, labs, classes=2)
    assert prob.n_nodes == 4 and prob.dim == 22


# -- block oracles ------------------------------------------------------------------


def _block_oracle_problems():
    mats = np.array([np.eye(4) * (1.0 + i) + 0.1 for i in range(3)])
    return [
        CounterexampleProblem(sigma=1.0, n_nodes=3),
        generate_quadratic(5, 12, 0.1, 1.0, seed=2, sigma=0.3),
        generate_quadratic(5, 12, 0.1, 1.0, seed=2, sigma=0.0),
        DenseQuadratic(mats, np.ones((3, 4)), x0=np.zeros(4), sigma=0.2),
        _tiny_logreg(nodes=3),
    ]


@pytest.mark.parametrize(
    "prob",
    _block_oracle_problems(),
    ids=["CounterexampleProblem", "QuadraticProblem0", "QuadraticProblem1", "QuadraticProblem2", "LogRegProblem"],
)
@pytest.mark.parametrize("batch", [1, 3])
def test_block_oracles_equal_per_node_oracles_bitwise(prob, batch):
    x = derive_stream(9, 0, 0).standard_normal(prob.dim)
    x_old = derive_stream(9, 0, 1).standard_normal(prob.dim)
    rows = slice(1, prob.n_nodes)
    draws = [node_draw(prob, i, derive_stream(10, i, 1), batch) for i in range(1, prob.n_nodes)]
    full = prob.full_grads(rows, x)
    sg = prob.stoch_grads_at(rows, (x,), draws)[0]
    sg_old = prob.stoch_grads_at(rows, (x_old,), draws)[0]
    assert full.shape == sg.shape == (prob.n_nodes - 1, prob.dim)
    for r, i in enumerate(range(1, prob.n_nodes)):
        # the one-row block of node i, with its own fresh draw from the same stream
        row, draw = slice(i, i + 1), [node_draw(prob, i, derive_stream(10, i, 1), batch)]
        assert np.array_equal(full[r], prob.full_grads(row, x)[0])
        assert np.array_equal(sg[r], prob.stoch_grads_at(row, (x,), draw)[0][0])
        assert np.array_equal(sg_old[r], prob.stoch_grads_at(row, (x_old,), draw)[0][0])


@pytest.mark.parametrize(
    "prob",
    [
        generate_quadratic(20, 1000, 0.01, 1.0, seed=4, sigma=0.01),
        DenseQuadratic(np.array([np.eye(4) * (1.0 + i) + 0.1 for i in range(5)]), np.ones((5, 4)), x0=np.zeros(4)),
        CounterexampleProblem(sigma=1.0, n_nodes=7),
        _uneven_logreg(classes=3, features=2, examples=37)[0],
    ],
    ids=["structured", "from_matrices", "counterexample", "logreg"],
)
@pytest.mark.parametrize("block_bytes", [1, 200, None], ids=["one_row", "small", "default"])
def test_mean_full_grad_equals_per_node_sum_bitwise(prob, block_bytes, monkeypatch):
    from efsim import core

    if block_bytes is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    x = derive_stream(12, 0, 0).standard_normal(prob.dim)
    g = node_grad(prob, 0, x).copy()
    for i in range(1, prob.n_nodes):
        g += node_grad(prob, i, x)
    assert np.array_equal(prob.value_and_mean_grad(x)[1], g / prob.n_nodes)


def test_logreg_gradient_alone_equals_value_and_grad():
    prob = _tiny_logreg()
    x = derive_stream(11, 0, 0).standard_normal(prob.dim)
    idx = np.array([0, 3, 3, 7])

    def one_node(i, rows=slice(None)):
        """Node i's examples ``rows`` as a one-node problem, whose gradient
        comes from the value pass ``value_and_mean_grad``."""
        a, y = node_data(prob, i)
        return LogRegProblem([a[rows, :-1]], [y[rows] + 1], prob.classes, reg=prob.reg)

    assert np.array_equal(prob.stoch_grads_at(slice(1, 2), (x,), [idx])[0][0], one_node(1, idx).value_and_mean_grad(x)[1])
    assert np.array_equal(node_grad(prob, 0, x), one_node(0).value_and_mean_grad(x)[1])
    value, mean_grad = prob.value_and_mean_grad(x)
    assert value == prob.value(x)
    assert np.array_equal(mean_grad, Problem.value_and_mean_grad(prob, x)[1])
