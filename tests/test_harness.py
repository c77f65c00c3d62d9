import math
from dataclasses import replace

import numpy as np
import pytest

from efsim.checks import _seed_stat, momentum_floor, theorem1_bound
from efsim.compress import identity, top_k
from efsim.core import derive_stream, norm_sq
from efsim.harness import (
    RunConfig,
    lyapunov,
    power_grid,
    read_trace_csv,
    run,
    run_quantiles,
    sweep,
    trace_diverged,
    write_quantiles_csv,
    write_trace_csv,
)
from efsim.optim import HyperParams, NodeArrays, ServerState
from efsim.problems import CounterexampleProblem, QuadraticProblem, generate_quadratic
from test_problems import _uneven_logreg


def quad_config(sigma=0.1, rounds=50, **kw):
    prob = generate_quadratic(4, 20, 0.1, 1.0, seed=3, sigma=sigma)
    hp = HyperParams(gamma=0.05, eta=0.5, rounds=rounds)
    defaults = dict(algorithm="ef21_sgdm", problem=prob, compressor=top_k(3, 20), hyper=hp, seeds=(0,))
    defaults.update(kw)
    return RunConfig(**defaults)


def test_zero_rounds_gives_single_row():
    cfg = quad_config(rounds=0)
    tr = run(cfg, 0)
    assert len(tr.records) == 1
    assert tr.records[0].t == 0
    assert tr.records[0].samples_cum == cfg.hyper.b_init


def test_rerun_is_bitwise_identical():
    cfg = quad_config(rounds=60, metric_every=7)
    a = run(cfg, 5)
    b = run(cfg, 5)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert (ra.t, ra.coords_cum, ra.samples_cum) == (rb.t, rb.coords_cum, rb.samples_cum)
        assert ra.grad_norm == rb.grad_norm and ra.obj_gap == rb.obj_gap


def test_metric_cadence_does_not_perturb_trajectory():
    dense = run(quad_config(rounds=40, metric_every=1), 2)
    sparse = run(quad_config(rounds=40, metric_every=10), 2)
    sparse_rows = {r.t: r for r in sparse.records}
    for t, row in sparse_rows.items():
        match = [r for r in dense.records if r.t == t][0]
        assert match.grad_norm == row.grad_norm
        assert match.obj_gap == row.obj_gap
        assert match.coords_cum == row.coords_cum


def test_final_round_always_logged():
    tr = run(quad_config(rounds=47, metric_every=10), 0)
    assert tr.records[-1].t == 47


def test_cumulative_columns_nondecreasing():
    tr = run(quad_config(rounds=30, metric_every=3), 1)
    coords = tr.column("coords_cum")
    samples = tr.column("samples_cum")
    assert np.all(np.diff(coords) >= 0)
    assert np.all(np.diff(samples) >= 0)
    # EF21 family with TopK: n*k per round exactly
    assert coords[-1] == 4 * 3 * 30


def test_divergent_run_truncates_with_round():
    cfg = quad_config(rounds=200)
    cfg = replace(cfg, hyper=replace(cfg.hyper, gamma=1e9))
    tr = run(cfg, 0)
    assert tr.failure_round is not None
    assert trace_diverged(tr)


def test_quantiles_single_seed_equal_bands():
    cfg = quad_config(rounds=20, metric_every=5)
    qt = run_quantiles([run(cfg, s) for s in cfg.seeds])
    for name in ("grad_norm", "obj_gap"):
        assert np.array_equal(qt.q25[name], qt.median[name])
        assert np.array_equal(qt.median[name], qt.q75[name])


def test_quantiles_identical_seeds_zero_iqr():
    cfg = quad_config(rounds=20, metric_every=5, seeds=(3,) * 10)
    qt = run_quantiles([run(cfg, s) for s in cfg.seeds])
    assert np.all(qt.q75["grad_norm"] - qt.q25["grad_norm"] == 0.0)


def test_quantiles_median_is_pointwise():
    cfg = quad_config(rounds=10, metric_every=10, seeds=(0, 1, 2, 3, 4))
    qt = run_quantiles([run(cfg, s) for s in cfg.seeds])
    finals = sorted(tr.final.grad_norm for tr in qt.traces)
    assert qt.median["grad_norm"][-1] == pytest.approx(np.median(finals), rel=1e-15)


# -- descent diagnostic ---------------------------------------------------------


def test_lyapunov_hand_computed_value():
    # one node, one dimension, f(x) = x^2/2, x=1, g=v=0.5, gamma=eta=alpha=1:
    # 0.5 + 0 + 0.25 + 0.25 = 1.0
    prob = QuadraticProblem.from_matrices(np.ones((1, 1, 1)), np.zeros((1, 1)), x0=np.zeros(1))
    server = ServerState(x=np.array([1.0]), g=np.array([0.5]), t=0)
    nodes = NodeArrays(g=np.array([[0.5]]), v=np.array([[0.5]]))
    val = lyapunov(prob, server, nodes, gamma=1.0, eta=1.0, alpha=1.0, gap=prob.value(server.x) - prob.f_star)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_lyapunov_noiseless_exact_init_equals_gap():
    prob = generate_quadratic(3, 10, 0.1, 1.0, seed=4, sigma=0.0)
    from efsim import optim
    from efsim.core import StreamFactory

    hp = HyperParams(gamma=0.01, eta=0.5, rounds=1, b_init=1)
    server, nodes, _ = optim.init("ef21_sgdm", prob, hp, top_k(2, 10), StreamFactory(0))
    delta0 = prob.value(prob.x0) - prob.f_star
    val = lyapunov(prob, server, nodes, gamma=0.01, eta=0.5, alpha=0.2, gap=prob.value(server.x) - prob.f_star)
    assert val == pytest.approx(delta0, rel=1e-12)


def test_lyapunov_requires_momentum_state():
    prob = generate_quadratic(2, 10, 0.1, 1.0, seed=4)
    with pytest.raises(ValueError):
        RunConfig(
            algorithm="ef21_sgd",
            problem=prob,
            compressor=top_k(2, 10),
            hyper=HyperParams(gamma=0.01, rounds=2),
            lyapunov=True,
        )
    from efsim.compress import hard_threshold

    with pytest.raises(ValueError, match="contractive"):
        RunConfig(
            algorithm="ef21_sgdm_abs",
            problem=prob,
            compressor=hard_threshold(0.1, 10),
            hyper=HyperParams(gamma=0.01, rounds=2),
            lyapunov=True,
        )
    server = ServerState(x=prob.x0.copy(), g=np.zeros(10), t=0)
    nodes = NodeArrays(g=np.zeros((2, 10)))
    with pytest.raises(ValueError):
        lyapunov(prob, server, nodes, 0.01, 0.5, 0.2, 0.0)


def test_lyapunov_logged_at_own_cadence():
    cfg = quad_config(rounds=40, metric_every=5, lyapunov=True, lyapunov_every=10)
    tr = run(cfg, 0)
    for rec in tr.records:
        if rec.t % 10 == 0 or rec.t == 40:
            assert rec.lyapunov is not None
        else:
            assert rec.lyapunov is None


def _lyapunov_per_node(prob, x, nodes, gamma, eta, alpha):
    """The objective gap at x, and the descent diagnostic with each node's
    gradient taken from its own one-row block, summed in ascending node
    order."""
    n = prob.n_nodes
    comp_err = mom_err = 0.0
    mean_dev = np.zeros(prob.dim)
    for i in range(n):
        dev = nodes.v[i] - prob.full_grads(slice(i, i + 1), x)[0]
        comp_err += norm_sq(nodes.g[i] - nodes.v[i])
        mom_err += norm_sq(dev)
        mean_dev += dev
    mean_dev /= n
    gap = prob.value(x) - (prob.f_star if prob.f_star is not None else 0.0)
    return gap, (
        gap
        + gamma / (alpha * n) * comp_err
        + gamma * eta / (alpha**2 * n) * mom_err
        + gamma / eta * norm_sq(mean_dev)
    )


@pytest.mark.parametrize(
    "prob",
    [
        generate_quadratic(20, 1000, 0.01, 1.0, seed=4, sigma=0.01),
        QuadraticProblem.from_matrices(
            np.array([np.eye(4) * (1.0 + i) + 0.1 for i in range(5)]), np.ones((5, 4)), x0=np.zeros(4)
        ),
        CounterexampleProblem(sigma=1.0, n_nodes=7),
        _uneven_logreg()[0],
    ],
    ids=["structured", "from_matrices", "counterexample", "logreg"],
)
@pytest.mark.parametrize("block_bytes", [1, 200, None], ids=["one_row", "small", "default"])
def test_lyapunov_blocks_equal_per_node_reference_bitwise(prob, block_bytes, monkeypatch):
    from efsim import core

    if block_bytes is not None:
        monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    rng = derive_stream(13, 0, 0)
    shape = (prob.n_nodes, prob.dim)
    server = ServerState(x=rng.standard_normal(prob.dim), g=np.zeros(prob.dim), t=0)
    nodes = NodeArrays(g=rng.standard_normal(shape), v=rng.standard_normal(shape))
    # weights that let the error sums, not the gap, set the last bits
    gap, want = _lyapunov_per_node(prob, server.x, nodes, 1.0, 0.5, 0.01)
    assert lyapunov(prob, server, nodes, 1.0, 0.5, 0.01, gap) == want


def test_lyapunov_rows_reuse_the_metric_rows_objective(monkeypatch):
    cfg = quad_config(rounds=40, metric_every=5, lyapunov=True, lyapunov_every=10)
    calls = []
    value = cfg.problem.value
    monkeypatch.setattr(cfg.problem, "value", lambda x: calls.append(1) or value(x))
    tr = run(cfg, 0)
    assert sum(rec.lyapunov is not None for rec in tr.records) == 5
    assert len(calls) == len(tr.records) == 9


# -- lower-bound check ------------------------------------------------------------


def test_theorem1_report_values():
    assert theorem1_bound(CounterexampleProblem()) == pytest.approx(1e-4 / 60.0, rel=1e-12)
    bound = theorem1_bound(CounterexampleProblem(variance_batch=30, n_nodes=2))
    assert bound == pytest.approx(min(1.0 / 30, 1e-4) / 60.0, rel=1e-12)


def test_theorem1_noiseless_trivially_passes():
    # any seed mean of squared norms, being >= 0, clears a zero bound
    assert theorem1_bound(CounterexampleProblem(sigma=0.0)) == 0.0


def test_theorem1_batch_boundary():
    # with B >= sigma^2/(60 eps^2), the bound stops forbidding eps-accuracy
    sigma, eps = 1.0, 0.05
    b_crit = math.ceil(sigma**2 / (60 * eps**2))
    assert theorem1_bound(CounterexampleProblem(sigma=sigma, variance_batch=b_crit, x0=(0.0, -1.0))) <= eps**2 + 1e-12


def test_seed_stat():
    se = math.sqrt(14.0 / 3.0) / 2.0  # ddof = 1 over four samples of mean 3
    assert _seed_stat([1.0, 2.0, 3.0, 6.0], 1.0) == (3.0, se, 2.0 / se)
    assert _seed_stat([2.5], 1.0) == (2.5, 0.0, math.inf)  # one seed: no standard error


# -- closed-form floor of uncompressed momentum ----------------------------------


@pytest.mark.parametrize("gamma,lam,s2", [(1e-3, 1.0, 1.0), (0.3, 0.7, 1.3), (0.0625, 1.01, 1e-6), (1.9, 1.0, 2.0)])
def test_momentum_floor_sgd_closed_form(gamma, lam, s2):
    got = momentum_floor([[lam]], [[s2]], gamma, eta=1.0)
    expect = gamma * s2 / (lam * (2.0 - gamma * lam))
    assert got.grad_sq == pytest.approx(lam**2 * expect, rel=1e-12)
    assert got.obj_gap == pytest.approx(0.5 * lam * expect, rel=1e-12)


def test_momentum_floor_small_momentum_value():
    # gamma = eta = 1e-3 on lam = 1: E||grad||^2 = 5.0e-4 per unit noise variance
    assert momentum_floor([[1.0]], [[1.0]], 1e-3, 1e-3).grad_sq == pytest.approx(5.0e-4, rel=1e-6)


def _dense_floor(h, cov, gamma, eta, rounds, offset):
    from scipy.linalg import solve_discrete_lyapunov

    d = len(h)
    eye = np.eye(d)
    m = np.block([[eye, -gamma * eye], [eta * h, (1.0 - eta) * eye - eta * gamma * h]])
    b = np.vstack([np.zeros((d, d)), eta * eye])
    p = solve_discrete_lyapunov(m, b @ cov @ b.T)
    if rounds is not None:
        mt = np.linalg.matrix_power(m, rounds)
        p0 = np.zeros((2 * d, 2 * d))
        p0[d:, d:] = cov
        mean = mt @ np.concatenate([offset, h @ offset])
        p = p + mt @ (p0 - p) @ mt.T + np.outer(mean, mean)
    pxx = p[:d, :d]
    return np.trace(h @ h @ pxx), 0.5 * np.trace(h @ pxx)


@pytest.mark.parametrize("eta,rounds", [(0.1, None), (0.1, 40), (1.0, 25)])
def test_momentum_floor_matches_dense_lyapunov(eta, rounds):
    # correlated noise across modes and a full (non-diagonal) Hessian: the
    # per-mode sum must equal the joint 2d-dimensional solve
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    h = a @ a.T / 4.0 + 0.1 * np.eye(4)
    c = rng.standard_normal((4, 4))
    cov = c @ c.T / 4.0
    offset = rng.standard_normal(4)
    gamma = 0.5 / np.linalg.eigvalsh(h).max()
    got = momentum_floor(h, cov, gamma, eta, rounds=rounds, x0_offset=offset)
    grad_sq, obj_gap = _dense_floor(h, cov, gamma, eta, rounds, offset)
    assert got.grad_sq == pytest.approx(grad_sq, rel=1e-10)
    assert got.obj_gap == pytest.approx(obj_gap, rel=1e-10)


def test_momentum_floor_rejects_unstable_step():
    with pytest.raises(ValueError, match="unstable"):
        momentum_floor([[1.0]], [[1.0]], 2.5, 1.0)


# -- sweep ------------------------------------------------------------------------


def test_power_grid():
    grid = power_grid(-2, 1)
    assert grid == [0.25, 0.5, 1.0, 2.0]


def test_sweep_single_point():
    cfg = quad_config(rounds=30, metric_every=30)
    res = sweep(cfg, [0.01])
    assert res.best_gamma == 0.01
    assert len(res.table) == 1


def test_sweep_noiseless_prefers_largest_stable_step():
    prob = generate_quadratic(2, 12, 0.2, 0.0, seed=6, sigma=0.0)
    hp = HyperParams(gamma=1.0, eta=1.0, rounds=60)
    cfg = RunConfig("ef21_sgd", prob, top_k(3, 12), hp, seeds=(0,), metric_every=60)
    grid = power_grid(-20, 0)
    res = sweep(cfg, grid, "final_loss")
    scores = {row["gamma"]: row["score"] for row in res.table if not row["diverged"]}
    assert all(res.best_score <= s for s in scores.values())
    # every smaller step converges slower on a noiseless strongly convex quadratic
    assert all(res.best_gamma >= g for g, s in scores.items() if s > res.best_score)


def test_sweep_all_diverged_raises():
    cfg = quad_config(rounds=50, metric_every=50)
    with pytest.raises(RuntimeError):
        sweep(cfg, [1e9, 1e12])


class _ReversePool:
    """A pool whose ``map`` runs the items last first, then hands the
    results back in order."""

    def map(self, fn, *iterables):
        items = list(zip(*iterables))
        done = [fn(*item) for item in reversed(items)]
        return reversed(done)


@pytest.mark.parametrize(
    "cfg, grid",
    [
        (quad_config(rounds=40, metric_every=40, seeds=(0, 1)), [1e-3, 0.05, 0.05, 0.3, 1e9]),
        (quad_config(rounds=0, seeds=(0, 1)), [0.5, 0.25, 1.0]),  # every score ties
    ],
    ids=["mixed", "all_tied"],
)
def test_sweep_runner_out_of_order_matches_serial(cfg, grid):
    serial = sweep(cfg, grid)
    pooled = sweep(cfg, grid, pool=_ReversePool())
    assert pooled.best_gamma == serial.best_gamma and pooled.best_score == serial.best_score
    assert pooled.table == serial.table
    assert pooled.best_config.hyper == serial.best_config.hyper
    scores = [row["score"] for row in serial.table]
    assert serial.best_gamma == grid[scores.index(min(scores))]  # the first of tied minima


def test_sweep_rejects_bad_inputs():
    cfg = quad_config(rounds=10)
    with pytest.raises(ValueError):
        sweep(cfg, [])
    with pytest.raises(ValueError):
        sweep(cfg, [0.1], criterion="vibes")


# -- CSV round trips ----------------------------------------------------------------


def test_trace_csv_round_trip(tmp_path):
    cfg = quad_config(rounds=25, metric_every=5, lyapunov=True, lyapunov_every=5)
    tr = run(cfg, 4)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, tr)
    back = read_trace_csv(path)
    assert len(back.records) == len(tr.records)
    for ra, rb in zip(tr.records, back.records):
        assert ra == rb  # repr round-trip keeps floats bitwise


def test_trace_csv_records_failure(tmp_path):
    cfg = quad_config(rounds=100)
    cfg = replace(cfg, hyper=replace(cfg.hyper, gamma=1e9))
    tr = run(cfg, 0)
    path = str(tmp_path / "diverged.csv")
    write_trace_csv(path, tr)
    back = read_trace_csv(path)
    assert back.failure_round == tr.failure_round


def test_quantile_csv_schema(tmp_path):
    cfg = quad_config(rounds=20, metric_every=5, seeds=(0, 1, 2))
    qt = run_quantiles([run(cfg, s) for s in cfg.seeds])
    path = str(tmp_path / "q.csv")
    write_quantiles_csv(path, qt)
    header = open(path).readline().strip().split(",")
    assert header[0] == "t"
    assert "grad_norm_med" in header and "obj_gap_q25" in header and "lyapunov_q75" in header


def test_counterexample_run_matches_expected_shape():
    prob = CounterexampleProblem(sigma=1.0, n_nodes=1, x0=(0.0, -0.01))
    hp = HyperParams(gamma=1e-3, eta=1e-3, rounds=100)
    cfg = RunConfig("ef21_sgdm", prob, top_k(1, 2), hp, seeds=(0,), metric_every=50)
    tr = run(cfg, 0)
    assert tr.records[0].grad_norm == pytest.approx(0.01, rel=1e-12)
    assert tr.records[0].obj_gap == pytest.approx(5e-5, rel=1e-12)
    assert tr.records[-1].coords_cum == 100
