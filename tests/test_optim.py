import math
import shutil
from dataclasses import fields

import numpy as np
import pytest
from dense_quadratic import DenseQuadratic
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from efsim import core, optim
from efsim.compress import hard_threshold, identity, keep_mask, rand_k, top_k
from efsim.core import NumericFailure, Sample, StreamFactory, derive_stream
from efsim.harness import RunConfig, run, write_trace_csv
from efsim.optim import HyperParams, schedule_at, theoretical_params, validate_pairing
from efsim.problems import CounterexampleProblem, LogRegProblem, QuadraticProblem, SmoothnessInfo, generate_quadratic, make_blobs, split_examples


def make_problem(sigma=0.1, n=4, d=20, seed=3):
    return generate_quadratic(n, d, 0.1, 1.0, seed=seed, sigma=sigma)


def roll(kind, problem, comp, hp, seed, rounds, collect=None):
    streams = StreamFactory(seed)
    server, nodes, _ = optim.init(kind, problem, hp, comp, streams)
    xs = [server.x.copy()]
    for _ in range(rounds):
        log = optim.run_round(kind, server, nodes, problem, hp, comp, streams)
        xs.append(server.x.copy())
        if collect is not None:
            collect(server, nodes, log)
    return np.array(xs), server, nodes


# -- hyperparameters -----------------------------------------------------------


def test_hyper_validation():
    with pytest.raises(ValueError):
        HyperParams(gamma=0.0, rounds=1)
    with pytest.raises(ValueError):
        HyperParams(gamma=0.1, rounds=1, eta=0.0)
    with pytest.raises(ValueError):
        HyperParams(gamma=0.1, rounds=1, eta=1.5)
    with pytest.raises(ValueError):
        HyperParams(gamma=0.1, rounds=1, schedule="bogus")


def test_schedules():
    hp = HyperParams(gamma=2.0, rounds=99, eta=0.5, schedule="constant")
    assert schedule_at(hp, 7) == (2.0, 0.5)
    hp = HyperParams(gamma=2.0, rounds=99, eta=0.5, schedule="inv_sqrt_t")
    g, e = schedule_at(hp, 3)
    assert e == pytest.approx(0.25) and g == pytest.approx(0.5)
    hp = HyperParams(gamma=2.0, rounds=99, eta=0.5, schedule="inv_sqrt_T")
    g0 = schedule_at(hp, 0)
    assert schedule_at(hp, 98) == g0
    assert g0[1] == pytest.approx(0.5 / 10.0)


def test_pairing_rules():
    validate_pairing("ef21_sgdm", top_k(1, 4))
    validate_pairing("sgd", identity(4))
    validate_pairing("ef21_sgdm_abs", hard_threshold(0.1, 4))
    with pytest.raises(ValueError):
        validate_pairing("sgd", top_k(1, 4))
    with pytest.raises(ValueError):
        validate_pairing("ef21_sgdm", hard_threshold(0.1, 4))
    with pytest.raises(ValueError):
        validate_pairing("ef21_sgdm_abs", top_k(1, 4))
    with pytest.raises(ValueError):
        validate_pairing("nonsense", top_k(1, 4))


# -- initialization ------------------------------------------------------------


def test_init_noiseless_equals_full_gradient():
    prob = make_problem(sigma=0.0)
    streams = StreamFactory(0)
    server, nodes, log = optim.init("ef21_sgdm", prob, HyperParams(gamma=0.1, rounds=1, b_init=1), top_k(2, 20), streams)
    assert len(nodes) == prob.n_nodes
    for i in range(prob.n_nodes):
        full = prob.full_grads(slice(i, i + 1), prob.x0)[0]
        assert np.array_equal(nodes.g[i], full)
        assert np.array_equal(nodes.v[i], full)
    mean = np.mean(prob.full_grads(slice(0, prob.n_nodes), prob.x0), axis=0)
    assert np.allclose(server.g, mean, rtol=1e-12)
    assert log.grad_evals == 1


def test_init_state_fields_per_kind():
    # node state is g_i and the estimators of RULES, nothing else
    names = {f.name for f in fields(optim.NodeArrays)}
    assert names == {"g"}.union(*(rule.estimators for rule in optim.RULES.values()))
    prob = make_problem()
    hp = HyperParams(gamma=0.1, rounds=1)
    want = {
        "sgd": {"g"},
        "sgdm": {"g", "v"},
        "ef14_sgd": {"g", "e"},
        "ef21_sgd": {"g"},
        "ef21_sgdm": {"g", "v"},
        "ef21_sgd2m": {"g", "v", "u"},
        "ef21_sgdm_abs": {"g", "v"},
        "ef21_storm": {"g", "w"},
        "ef21_sgd_ideal": {"g"},
        "ef21_sgdm_ideal": {"g"},
    }
    assert set(want) == set(optim.ALGORITHMS)
    for kind in optim.ALGORITHMS:
        comp = hard_threshold(0.1, 20) if kind == "ef21_sgdm_abs" else (
            identity(20) if kind in ("sgd", "sgdm") else top_k(2, 20)
        )
        _, nodes, _ = optim.init(kind, prob, hp, comp, StreamFactory(0))
        have = {f for f in names if getattr(nodes, f) is not None}
        assert have == want[kind], kind
        for f in have:
            assert getattr(nodes, f).shape == (prob.n_nodes, prob.dim), (kind, f)


def test_init_error_feedback_starts_from_zero():
    # nothing is sent yet: g = 0, and the error holds the first step gamma_0 * g0,
    # g0 a batch-size sample gradient at x0 from each node's round-0 stream
    prob = make_problem()
    hp = HyperParams(gamma=0.1, eta=0.5, rounds=8, batch=3, schedule="inv_sqrt_T")
    _, nodes, log = optim.init("ef14_sgd", prob, hp, top_k(2, 20), StreamFactory(0))
    assert np.all(nodes.g == 0.0)
    gamma_0 = schedule_at(hp, 0)[0]
    for i in range(prob.n_nodes):
        raw = prob.sample(3).draw(derive_stream(0, i, 0), i)
        g0 = prob.stoch_grads_at(slice(i, i + 1), (prob.x0,), raw[None])[0][0]
        assert np.array_equal(nodes.e[i], gamma_0 * g0)
    assert log.grad_evals == 3


def test_init_rejects_mismatched_compressor():
    prob = make_problem()
    with pytest.raises(ValueError):
        optim.init("ef21_sgd", prob, HyperParams(gamma=0.1, rounds=1), top_k(2, 19), StreamFactory(0))


# -- structural invariants (the reduction identities: checks.check_reductions) ---


def test_storm_noiseless_state_is_exact_gradient():
    prob = make_problem(sigma=0.0)
    comp = identity(20)
    hp = HyperParams(gamma=0.05, eta=0.4, rounds=10)

    def check(server, nodes, log):
        for i in range(prob.n_nodes):
            assert np.array_equal(nodes.w[i], prob.full_grads(slice(i, i + 1), server.x)[0])

    roll("ef21_storm", prob, comp, hp, seed=6, rounds=10, collect=check)


@pytest.mark.parametrize("pname", ["quadratic", "counterexample", "blobs"])
def test_storm_batch_mean_taken_once_gives_the_same_bits(pname, monkeypatch):
    """B = 8 STORM rounds evaluate each block's raw samples at both iterates
    in one oracle call, which averages the batch once; the states are those
    of one call per iterate, each taking the batch mean itself."""
    problem, gamma = {"quadratic": (make_problem(), 0.05), **_chunk_problems()}[pname]
    hp = HyperParams(gamma=gamma, eta=0.3, rounds=3, batch=8, b_init=8)
    comp = top_k(1, problem.dim)
    once = roll("ef21_storm", problem, comp, hp, seed=5, rounds=3)
    stoch_grads_at = problem.stoch_grads_at
    monkeypatch.setattr(problem, "stoch_grads_at", lambda rows, xs, raw: [stoch_grads_at(rows, (x,), raw)[0] for x in xs])
    per_iterate = roll("ef21_storm", problem, comp, hp, seed=5, rounds=3)
    assert once[0].tobytes() == per_iterate[0].tobytes()
    for field in ("g", "w"):
        assert getattr(once[2], field).tobytes() == getattr(per_iterate[2], field).tobytes()


def test_server_state_tracks_node_average():
    prob = make_problem(sigma=0.2)
    comp = top_k(2, 20)
    hp = HyperParams(gamma=0.05, eta=0.5, rounds=200)

    def check(server, nodes, log):
        mean_g = nodes.g.mean(axis=0)
        drift = np.linalg.norm(server.g - mean_g)
        assert drift <= 1e-12 * (1.0 + np.linalg.norm(server.g))

    roll("ef21_sgdm", prob, comp, hp, seed=7, rounds=200, collect=check)


def test_error_feedback_server_step_has_no_stepsize():
    # the step size lives inside the node states: x' = x - mean(g_i)
    prob = make_problem(sigma=0.0, n=2)
    comp = identity(20)
    hp = HyperParams(gamma=0.05, rounds=1)
    streams = StreamFactory(9)
    server, nodes, _ = optim.init("ef14_sgd", prob, hp, comp, streams)
    x0 = server.x.copy()
    optim.run_round("ef14_sgd", server, nodes, prob, hp, comp, streams)
    assert np.array_equal(server.x, x0)  # g_i^0 = 0 so the first step is zero
    optim.run_round("ef14_sgd", server, nodes, prob, hp, comp, streams)
    # second round: g_i^1 = e_i^1 + gamma * grad = gamma * 2 * grad(x0)... nonzero
    assert not np.array_equal(server.x, x0)


@pytest.mark.parametrize("schedule", ["constant", "inv_sqrt_t"])
def test_error_feedback_error_is_what_was_not_sent(schedule):
    # every scaled sample gradient is either sent or held in the error:
    # sum_t sum_i g_i + sum_i e_i = sum_i gamma_0 g0_i + sum_t gamma_t sum_i grad f_i(x_t+1, xi),
    # also when gamma_t changes from round to round
    prob = make_problem()
    hp = HyperParams(gamma=0.05, rounds=50, schedule=schedule)
    seed = 4

    def sample_grads(x, round_index):
        raw = np.array([prob.sample(1).draw(derive_stream(seed, i, round_index), i) for i in range(prob.n_nodes)])
        return prob.stoch_grads_at(slice(0, prob.n_nodes), (x,), raw)[0].sum(axis=0)

    owed = [schedule_at(hp, 0)[0] * sample_grads(prob.x0, 0)]
    sent = []

    def collect(server, nodes, log):
        owed.append(schedule_at(hp, server.t - 1)[0] * sample_grads(server.x, server.t))
        sent.append(nodes.g.sum(axis=0))

    _, _, nodes = roll("ef14_sgd", prob, top_k(3, 20), hp, seed, hp.rounds, collect)
    owed = np.sum(owed, axis=0)
    assert np.linalg.norm(np.sum(sent, axis=0) + nodes.e.sum(axis=0) - owed) <= 1e-12 * np.linalg.norm(owed)


def test_sample_accounting():
    prob = make_problem(sigma=0.1)
    hp = HyperParams(gamma=0.01, eta=0.5, batch=3, b_init=5, rounds=4)
    for kind, comp, expect in [
        ("ef21_sgdm", top_k(2, 20), 3),
        ("ef21_storm", top_k(2, 20), 6),
        ("ef14_sgd", top_k(2, 20), 3),
        ("sgd", identity(20), 3),
        ("ef21_sgd_ideal", top_k(2, 20), 3),
    ]:
        logs = []
        roll(kind, prob, comp, hp, seed=10, rounds=4, collect=lambda s, n, log: logs.append(log))
        assert all(log.grad_evals == expect for log in logs), kind


def test_coordinate_accounting():
    prob = make_problem(sigma=0.1, n=4, d=20)
    hp = HyperParams(gamma=0.01, eta=0.5, rounds=6)
    k = 2
    for kind, comp, per_round in [
        ("ef21_sgdm", top_k(k, 20), 4 * k),
        ("ef21_sgd", top_k(k, 20), 4 * k),
        ("ef14_sgd", top_k(k, 20), 4 * k),
        ("sgd", identity(20), 4 * 20),
        ("ef21_sgd_ideal", top_k(k, 20), 4 * 20),  # dense diagnostic states
        ("ef21_sgdm_ideal", top_k(k, 20), 4 * 20),
    ]:
        logs = []
        roll(kind, prob, comp, hp, seed=11, rounds=6, collect=lambda s, n, log: logs.append(log))
        assert all(log.coords_sent == per_round for log in logs), kind


def test_absolute_variant_state_error_bound():
    # with an absolute compressor the node state stays within gamma*Delta of v
    prob = make_problem(sigma=0.1)
    comp = hard_threshold(0.5, 20)
    hp = HyperParams(gamma=0.05, eta=0.5, rounds=50)
    delta = math.sqrt(20) * 0.5

    def check(server, nodes, log):
        err = np.mean([np.linalg.norm(g - v) ** 2 for g, v in zip(nodes.g, nodes.v)])
        assert err <= (hp.gamma * delta) ** 2 + 1e-12

    roll("ef21_sgdm_abs", prob, comp, hp, seed=12, rounds=50, collect=check)


def test_numeric_failure_reports_round():
    prob = make_problem(sigma=0.0)
    comp = identity(20)
    hp = HyperParams(gamma=1e12, rounds=400)
    streams = StreamFactory(13)
    server, nodes, _ = optim.init("sgd", prob, hp, comp, streams)
    with pytest.raises(NumericFailure) as exc:
        for _ in range(400):
            optim.run_round("sgd", server, nodes, prob, hp, comp, streams)
    assert exc.value.round_index is not None


# -- prescribed parameters --------------------------------------------------------


def test_theoretical_params_single_node_uncompressed():
    prob = CounterexampleProblem(l_smooth=2.0, sigma=1.0)
    sm = prob.smoothness()
    delta0 = 0.5
    t = 1000
    hp = theoretical_params("ef21_sgdm", sm, alpha=1.0, sigma=1.0, n=1, rounds=t, delta0=delta0)
    ld = sm.L * delta0
    eta_expected = min(1.0, math.sqrt(ld / (1.0 * t)))
    assert hp.eta == pytest.approx(eta_expected, rel=1e-12)
    assert hp.gamma == pytest.approx(min(1.0 / (20 * sm.L), hp.eta / (7 * sm.L)), rel=1e-12)


def test_theoretical_params_noiseless():
    prob = generate_quadratic(4, 10, 0.1, 1.0, seed=1)
    sm = prob.smoothness()
    hp = theoretical_params("ef21_sgdm", sm, alpha=0.2, sigma=0.0, n=4, rounds=500, delta0=3.0)
    assert hp.eta == 1.0
    assert hp.b_init == 1
    assert hp.gamma == pytest.approx(0.2 / (20 * sm.L_tilde), rel=1e-12)


def test_theoretical_params_absolute_variant():
    prob = generate_quadratic(2, 10, 0.1, 0.5, seed=2)
    sm = prob.smoothness()
    hp = theoretical_params("ef21_sgdm_abs", sm, alpha=None, sigma=0.1, n=2, rounds=200, delta0=1.0, delta_abs=0.7)
    assert hp.gamma == pytest.approx(hp.eta / (4 * sm.L), rel=1e-12)
    with pytest.raises(ValueError):
        theoretical_params("ef21_sgdm_abs", sm, None, 0.1, 2, 200, 1.0)


def test_theoretical_params_double_momentum_constants():
    prob = generate_quadratic(2, 10, 0.1, 0.5, seed=2)
    sm = prob.smoothness()
    hp = theoretical_params("ef21_sgd2m", sm, alpha=0.3, sigma=0.0, n=2, rounds=100, delta0=1.0)
    assert hp.gamma == pytest.approx(min(0.3 / (60 * sm.L_tilde), 1.0 / (16 * sm.L)), rel=1e-12)


def test_theoretical_params_variance_reduced_needs_sample_smoothness():
    prob = generate_quadratic(2, 10, 0.1, 0.5, seed=2)
    sm = prob.smoothness()
    hp = theoretical_params("ef21_storm", sm, alpha=0.3, sigma=0.2, n=2, rounds=100, delta0=1.0)
    assert 0 < hp.eta <= 0.3
    assert hp.gamma <= 0.3 / (8 * sm.L_tilde) + 1e-15
    with pytest.raises(TypeError):  # ell_tilde is a required field
        SmoothnessInfo(L=sm.L, L_i=sm.L_i, L_tilde=sm.L_tilde)


def test_theoretical_params_time_varying_momentum():
    prob = generate_quadratic(1, 10, 0.1, 0.0, seed=2)
    sm = prob.smoothness()
    hp = theoretical_params("sgdm", sm, alpha=1.0, sigma=0.1, n=1, rounds=100, delta0=1.0)
    assert hp.gamma == pytest.approx(1.0 / (3 * sm.L), rel=1e-12)
    assert hp.schedule == "inv_sqrt_t"


def test_theoretical_params_unsupported_kind():
    prob = generate_quadratic(1, 10, 0.1, 0.0, seed=2)
    with pytest.raises(ValueError):
        theoretical_params("ef21_sgd", prob.smoothness(), 0.5, 0.1, 1, 100, 1.0)


# -- block draws by the compiled kernel -----------------------------------------


def _chunk_problems():
    x, y = make_blobs(classes=3, n_features=4, examples=60, seed=5)
    feats, labs = split_examples(x, y, 3, "by_label", 0)
    return {
        "counterexample": (CounterexampleProblem(sigma=1.0, n_nodes=3, x0=(0.0, -0.5)), 0.1),
        "blobs": (LogRegProblem(feats, labs, classes=3, reg=1e-3), 0.5),
    }


def _trace_bytes(cfg, seed, path):
    write_trace_csv(str(path), run(cfg, seed))
    with open(path, "rb") as fh:
        return fh.read()


def _require_kernel():
    if shutil.which("gcc") is None:
        pytest.skip("no C compiler to build the draw kernel")
    assert core._kernel() is not None


@pytest.mark.parametrize("kind", ["ef21_sgdm", "ef21_storm", "ef14_sgd"])
def test_topk_runs_send_through_the_kernel(kind, monkeypatch):
    """Every block of a TopK round is stepped, and so sent, by one kernel
    call, so a silent fall back to numpy cannot pass for the kernel."""
    _require_kernel()
    calls, call = [], core.TopKStep.__call__
    monkeypatch.setattr(core.TopKStep, "__call__", lambda self, rows, raw: calls.append(rows) or call(self, rows, raw))
    problem = generate_quadratic(20, 1000, 0.01, 1.0, seed=4, sigma=0.01)
    hp = HyperParams(gamma=2.0**-4, eta=0.3, rounds=5)
    run(RunConfig(kind, problem, top_k(10, 1000), hp, metric_every=5), 0)
    assert calls == [rows for _ in range(5) for rows in core.blocks(20, 1000)]


@pytest.mark.parametrize(
    "kind, comp",
    [("ef21_sgdm", rand_k(10, 1000)), ("ef14_sgd", rand_k(10, 1000)), ("ef21_sgdm", identity(1000)),
     ("sgd", identity(1000)), ("ef21_sgdm_abs", hard_threshold(0.01, 1000))],
    ids=["ef21_sgdm-randk", "ef14_sgd-randk", "ef21_sgdm-identity", "sgd-identity", "ef21_sgdm_abs-threshold"],
)
def test_other_operators_send_without_the_kernel(kind, comp, monkeypatch):
    _require_kernel()
    monkeypatch.setattr(core.TopKStep, "__call__", lambda *args: pytest.fail("the kernel sent a message"))
    problem = generate_quadratic(20, 1000, 0.01, 1.0, seed=4, sigma=0.01)
    run(RunConfig(kind, problem, comp, HyperParams(gamma=2.0**-4, eta=0.3, rounds=3), metric_every=3), 0)


def test_one_run_builds_one_topk_sender(monkeypatch):
    _require_kernel()
    built, init = [], core.TopKStep.__init__
    monkeypatch.setattr(core.TopKStep, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    problem = generate_quadratic(20, 100, 0.01, 1.0, seed=4, sigma=0.01)
    run(RunConfig("ef21_sgdm", problem, top_k(10, 100), HyperParams(gamma=2.0**-4, eta=0.3, rounds=6), metric_every=3), 0)
    assert len(built) == 1


def _spy_steps(monkeypatch) -> list[tuple[slice, int, bool]]:
    """(rows, iterates, whether the kernel formed the sample gradients) of
    every ``TopKStep`` call from here on."""
    steps, call = [], core.TopKStep.__call__

    def spy(self, rows, raw):
        sent = call(self, rows, raw)
        steps.append((rows, len(self._xs), self._args.sg0 is None))
        return sent

    monkeypatch.setattr(core.TopKStep, "__call__", spy)
    return steps


@pytest.mark.parametrize("kind", ["ef21_sgdm", "ef21_storm", "ef14_sgd"])
def test_quadratic_rounds_take_gradients_from_the_kernel(kind, monkeypatch):
    """Every block's stochastic gradients, at both of STORM's iterates, are
    formed inside the kernel's step, and the start's and the metric rows'
    from one ``QuadraticGrads`` call each."""
    _require_kernel()
    calls, call = [], core.QuadraticGrads.__call__

    def spy(self, rows, xs, raw):
        grads = call(self, rows, xs, raw)
        calls.append((rows, len(xs), raw is not None, grads is not None))
        return grads

    monkeypatch.setattr(core.QuadraticGrads, "__call__", spy)
    steps = _spy_steps(monkeypatch)
    problem = generate_quadratic(20, 1000, 0.01, 1.0, seed=4, sigma=0.01)
    run(RunConfig(kind, problem, top_k(10, 1000), HyperParams(gamma=2.0**-4, eta=0.3, rounds=5), metric_every=5), 0)
    blocks, iterates = core.blocks(20, 1000), 2 if kind == "ef21_storm" else 1
    assert steps == [(rows, iterates, True) for _ in range(5) for rows in blocks]
    assert [c for c in calls if c[2]] == [(rows, 1, True, True) for rows in blocks]
    assert [c for c in calls if not c[2]] == [(rows, 1, False, True) for _ in range(2) for rows in blocks]


def _blobs_problem(cls=LogRegProblem) -> LogRegProblem:
    x, y = make_blobs(classes=4, n_features=5, examples=120, seed=6)
    feats, labs = split_examples(x, y, 6, "by_label")
    return cls(feats, labs, classes=4)


@pytest.mark.parametrize("kind", ["ef21_sgdm", "ef21_storm", "ef14_sgd"])
def test_blobs_rounds_and_metric_rows_take_the_kernels_softmax(kind, monkeypatch):
    """Every block of a logistic-regression round at a batch of one takes its
    softmax, and its gradient rows with the regularizer, from ``SoftmaxGrads``
    at each iterate, the start's batch too, and every metric row's full-data
    pass as well, so a silent fall back to numpy cannot pass for the kernel."""
    _require_kernel()
    calls, call = [], core.SoftmaxGrads.__call__

    def spy(self, logits, a, y, reg=None, wmat=None):
        got = call(self, logits, a, y, reg, wmat)
        calls.append((y.shape, reg is not None, got is not None))
        return got

    monkeypatch.setattr(core.SoftmaxGrads, "__call__", spy)
    problem, hp = _blobs_problem(), HyperParams(gamma=0.05, eta=0.3, batch=1, b_init=8, rounds=6)
    run(RunConfig(kind, problem, top_k(3, problem.dim), hp, metric_every=3), 0)
    batch, iterates = (1 if kind == "ef14_sgd" else 8), (2 if kind == "ef21_storm" else 1)
    start = [((6, batch), True, True)]
    rounds = [((6, 1), True, True)] * (6 * iterates)
    metric_rows = [((6, 20), False, True)] * 3  # rounds 0, 3 and 6, each node holding 20 examples
    assert sorted(calls) == sorted(start + rounds + metric_rows)


class _OwnStochGrads(LogRegProblem):
    def stoch_grads_at(self, rows, xs, raw):
        return [2.0 * g for g in super().stoch_grads_at(rows, xs, raw)]


class _OwnFullGrads(LogRegProblem):
    def full_grads(self, rows, x):
        return super().full_grads(rows, x) + 1.0


@pytest.mark.parametrize("cls", [_OwnStochGrads, _OwnFullGrads])
def test_logreg_subclass_oracles_take_no_softmax_from_the_kernel(cls, monkeypatch):
    """A subclass with its own ``stoch_grads_at`` or ``full_grads`` is never
    bypassed: no value of it comes from the kernel's softmax, and a run steps
    its own stochastic gradients."""
    _require_kernel()
    monkeypatch.setattr(core.SoftmaxGrads, "__call__", lambda *args: pytest.fail("the kernel took a softmax"))
    steps = _spy_steps(monkeypatch)
    problem, hp = _blobs_problem(cls), HyperParams(gamma=0.05, eta=0.3, rounds=4)
    assert problem.kernel_softmax() is None
    for kind in ("ef21_sgdm", "ef21_sgd_ideal"):
        run(RunConfig(kind, problem, top_k(3, problem.dim), hp, metric_every=2), 0)
    assert len(steps) == 4 and not any(in_kernel for _, _, in_kernel in steps)  # the subclass's rows
    x = 0.1 * np.ones(problem.dim)
    scale = 2.0 if cls is _OwnStochGrads else 1.0
    plain = _blobs_problem()
    raw = StreamFactory(1).block(slice(0, 6), 1, problem.sample(1))[0]
    with monkeypatch.context() as patch:
        patch.setattr(core, "_kernel", lambda: None)
        want = scale * plain.stoch_grads_at(slice(0, 6), (x,), raw)[0]
    assert problem.stoch_grads_at(slice(0, 6), (x,), raw)[0].tobytes() == want.tobytes()


def test_dense_quadratic_rounds_take_no_gradients_from_the_kernel(monkeypatch):
    _require_kernel()
    monkeypatch.setattr(core.QuadraticGrads, "__call__", lambda *args: pytest.fail("the kernel computed a gradient"))
    steps = _spy_steps(monkeypatch)
    rng = derive_stream(21, 0, 0)
    a = rng.standard_normal((4, 6, 6))
    problem = DenseQuadratic(a @ a.transpose(0, 2, 1) + np.eye(6), rng.standard_normal((4, 6)), np.ones(6), sigma=0.1)
    for kind in ("ef21_sgdm", "ef21_storm", "ef21_sgd_ideal"):
        run(RunConfig(kind, problem, top_k(2, 6), HyperParams(gamma=0.05, eta=0.3, rounds=4), metric_every=2), 0)
    assert len(steps) == 8 and not any(in_kernel for _, _, in_kernel in steps)  # the dense oracle's rows


# every kind of the write and ef14 rules, whatever operator a run pairs it with
_STEP_KINDS = ["sgd", "sgdm", "ef21_sgd", "ef21_sgdm", "ef21_sgd2m", "ef21_storm", "ef14_sgd"]
_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308])
_VALUES = _SPECIAL | st.floats(-1e3, 1e3) | st.floats()


def _nan_as_nan(a):
    """The bits of ``a`` with every NaN's as ``np.nan``'s: numpy's own loops
    pick the NaN that NaN + NaN gives by position, and no trace shows it."""
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


@settings(max_examples=250, deadline=None)
@given(kind=st.sampled_from(_STEP_KINDS), source=st.sampled_from(["quadratic", "rows"]), data=st.data())
def test_kernel_step_equals_numpy_path_bitwise(kind, source, data):
    """A TopK block through ``TopKStep`` gives the numpy path's node arrays,
    sum and count bit for bit but a NaN's: ``advance_estimators``, then
    ``send_messages`` with ``keep_mask``.  For every kind of the write and
    ef14 rules, with the quadratic's gradients formed in the kernel (from a
    ``QuadraticProblem``'s oracle, noiseless or with a batch of 1 to 3) and
    with given rows, at d from 1 to 9, k = 1, 2 and d, on rows past the
    first, and node states, iterates and samples holding signed zeros,
    infinities, NaN and subnormals."""
    _require_kernel()
    rule = optim.RULES[kind]
    n, d = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9))
    lo = data.draw(st.integers(0, n - 1))
    rows = slice(lo, data.draw(st.integers(lo + 1, n)))
    m = rows.stop - rows.start
    k = data.draw(st.sampled_from(sorted({1, min(2, d), d})))
    eta, gamma = data.draw(st.sampled_from([1.0, 0.5, 0.1])), data.draw(st.sampled_from([1.0, 0.0625, 3.0]))
    iterates = 2 if "w" in rule.estimators else 1
    draw = lambda shape: data.draw(arrays(np.float64, shape, elements=_VALUES))
    g, states = draw((n, d)), {name: draw((n, d)) for name in rule.estimators}
    sigma, batch = data.draw(st.sampled_from([0.0, 0.7])), data.draw(st.integers(1, 3))
    raw = None if source == "quadratic" and sigma == 0.0 else draw((m, batch * d))
    if source == "quadratic":
        scale, b, shift = data.draw(arrays(np.float64, n, elements=st.floats(-2, 2))), draw((n, d)), data.draw(_SPECIAL)
        problem = QuadraticProblem(b, np.zeros(d), sigma, scale, shift)
        xs = tuple(draw(d) for _ in range(iterates))
        with np.errstate(all="ignore"):
            grads = [core.quadratic_grads(scale[rows], b[rows], shift, x) for x in xs]
            if raw is not None:
                core.add_batch_noise(grads, raw, sigma / math.sqrt(d))
        oracle, quad = problem.stoch_grads_at, problem.kernel_grads()
    else:
        xs, grads = tuple(np.zeros(d) for _ in range(iterates)), [draw((m, d)) for _ in range(iterates)]
        oracle, quad = (lambda r, x, z: [a.copy() for a in grads]), None
    got = [g.copy(), np.zeros(d), *(a.copy() for a in states.values())]
    want = [g.copy(), np.zeros(d), *(a.copy() for a in states.values())]
    with np.errstate(all="ignore"):
        step = core.topk_step(k, got[0], dict(zip(states, got[2:])), got[1], oracle, quad)
        step.round(xs, eta, gamma)
        sent = step(rows, raw)
        target = core.advance_estimators([(name, a[rows]) for name, a in zip(states, want[2:])], grads, eta, gamma)
        e = want[2][rows] if rule.message == "ef14" else None
        count = core.send_messages(lambda x: keep_mask(top_k(k, d), x), target, want[0][rows], e, want[1])
    assert sent == count == k * m
    for a, b in zip(got, want):
        assert np.array_equal(_nan_as_nan(a), _nan_as_nan(b))
    # the kernel formed the quadratic's gradients itself, but for a batch mean at d = 1
    assert (step._args.sg0 is None) == (source == "quadratic" and (raw is None or batch == 1 or d > 1))


def _rejecting(problem, monkeypatch, nodes):
    """``problem`` with the given nodes drawing their index as
    ``integers(0, 2^31 + 1) % 3``: about half of those keys enter numpy's
    rejection loop."""
    sample, stoch_grads_at = problem.sample, problem.stoch_grads_at

    def rejecting_sample(batch):
        bounds = sample(batch).bounds.copy()
        bounds[nodes] = (1 << 31) + 1
        return Sample(batch, bounds)

    monkeypatch.setattr(problem, "sample", rejecting_sample)
    monkeypatch.setattr(problem, "stoch_grads_at", lambda rows, xs, raw: stoch_grads_at(rows, xs, raw % 3))


def _kernel_against_fallback(cfg, tmp_path, monkeypatch):
    """The trace bytes with the kernel, those with the per-node fallback,
    and each run's (stream resets, rounds of the kernel's blocks), counting
    the kernel's calls (``_fill``), so that list is empty where no kernel runs."""
    resets, blocks = [], []
    stream, fill = StreamFactory.stream, StreamFactory._fill
    monkeypatch.setattr(StreamFactory, "stream", lambda self, i, r: resets.append(i) or stream(self, i, r))
    monkeypatch.setattr(
        StreamFactory, "_fill", lambda self, lib, rows, r, sample: blocks.append(r) or fill(self, lib, rows, r, sample)
    )
    kernel = _trace_bytes(cfg, 3, tmp_path / "kernel.csv")
    counts = [(len(resets), list(blocks))]
    resets.clear()
    blocks.clear()
    with monkeypatch.context() as patch:
        patch.setattr(core, "_kernel", lambda: None)
        fallback = _trace_bytes(cfg, 3, tmp_path / "fallback.csv")
    return kernel, fallback, counts + [(len(resets), list(blocks))]


@pytest.mark.parametrize("pname", ["counterexample", "blobs"])
@pytest.mark.parametrize("kind", ["ef21_sgdm", "ef21_storm", "ef14_sgd"])
@pytest.mark.parametrize("block_bytes", [1, None], ids=["one_row", "default"])
@pytest.mark.parametrize("case", ["chunk_of_3", "guard_fails", "node_1_rejects"])
def test_chunked_draws_equal_per_node_draws_bitwise(case, block_bytes, kind, pname, tmp_path, monkeypatch):
    """A block's draws from one kernel call (a chunk of 3 samples per node
    in ``chunk_of_3``) give the traces of per-node draws, and a kernel that
    fails its guard leaves every node to draw from its own stream."""
    _require_kernel()
    if block_bytes is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    problem, gamma = _chunk_problems()[pname]
    batch = 3 if case == "chunk_of_3" else 1
    hp = HyperParams(gamma=gamma, eta=0.3, rounds=10, batch=batch, b_init=batch)
    cfg = RunConfig(kind, problem, top_k(1, problem.dim), hp, metric_every=2)
    if case == "node_1_rejects":
        _rejecting(problem, monkeypatch, [1])
    if case == "guard_fails":
        monkeypatch.setattr(core, "_kernel_matches", lambda kernel: False)
        core._kernel.cache_clear()
    try:
        kernel, fallback, counts = _kernel_against_fallback(cfg, tmp_path, monkeypatch)
    finally:
        core._kernel.cache_clear()
    assert kernel == fallback
    n, blocks = problem.n_nodes, len(core.blocks(problem.n_nodes, problem.dim * batch))
    per_node = (11 * n, [])  # every node draws from its own stream, no kernel call
    if case == "guard_fails":
        assert counts == [per_node, per_node]
    else:
        assert counts == [(0, [r for r in range(11) for _ in range(blocks)]), per_node]


@pytest.mark.parametrize("comp", ["topk", "randk"])
@pytest.mark.parametrize("pname", ["quadratic_d1000", "counterexample", "blobs", "rejecting"])
@pytest.mark.parametrize("block_bytes", [1, None], ids=["one_row", "default"])
@pytest.mark.parametrize("batch", [1, 3, 8, 32])
def test_kernel_draws_equal_per_node_draws_bitwise(batch, block_bytes, pname, comp, tmp_path, monkeypatch):
    """Batch-size draws of a block from the kernel, averaged over the
    block's batch axis, give the traces of the per-node fallback, which
    averages each node's own batch; with RandK the kernel draws only the
    round-0 samples, which take no picks."""
    _require_kernel()
    if block_bytes is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    if pname == "quadratic_d1000":
        problem, gamma = generate_quadratic(10, 1000, 0.01, 1.0, seed=4, sigma=0.01), 2.0**-4
    else:
        problem, gamma = _chunk_problems()["blobs" if pname == "blobs" else "counterexample"]
    if pname == "rejecting":
        _rejecting(problem, monkeypatch, slice(None))
    compressor = top_k(1, problem.dim) if comp == "topk" else rand_k(1, problem.dim)
    hp = HyperParams(gamma=gamma, eta=0.3, rounds=10, batch=batch, b_init=batch)
    kernel, fallback, counts = _kernel_against_fallback(
        RunConfig("ef21_sgdm", problem, compressor, hp, metric_every=2), tmp_path, monkeypatch
    )
    assert kernel == fallback
    n, blocks = problem.n_nodes, len(core.blocks(problem.n_nodes, problem.dim * batch))
    rounds = range(1) if comp == "randk" else range(11)
    assert counts == [((11 - len(rounds)) * n, [r for r in rounds for _ in range(blocks)]), (11 * n, [])]


# -- noiseless problems ----------------------------------------------------------


@pytest.mark.parametrize("pname", ["quadratic", "counterexample"])
@pytest.mark.parametrize("compressor", [top_k, rand_k])
def test_noiseless_run_resets_streams_only_for_randk_picks(compressor, pname, monkeypatch):
    problem = make_problem(sigma=0.0) if pname == "quadratic" else CounterexampleProblem(sigma=0.0, n_nodes=4)
    resets, stream = [], StreamFactory.stream
    monkeypatch.setattr(StreamFactory, "stream", lambda self, i, r: resets.append((i, r)) or stream(self, i, r))
    hp = HyperParams(gamma=0.05, eta=0.5, rounds=100)
    run(RunConfig("ef21_sgdm", problem, compressor(1, problem.dim), hp, metric_every=100), 0)
    # no sample to draw: only RandK takes its picks, from stream (i, t) of every round t >= 1
    expect = [(i, t) for t in range(1, 101) for i in range(4)] if compressor is rand_k else []
    assert resets == expect
