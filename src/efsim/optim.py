"""The algorithm family as explicit synchronous state machines.

One round is: the server moves the iterate against the aggregated state
``x <- x - gamma * g`` (the plain error-feedback method EF14-SGD keeps its
step size inside the node states and uses ``x <- x - g``), every node
refreshes its estimator at the new iterate and sends a compressed message,
and the server folds the messages back into ``g`` in fixed ascending node
order so parallel and serial execution are bit-identical.

Node update rules (per node i, fresh sample at the new iterate x'):

* sgd:             g_i <- grad f_i(x', xi)                       (identity only)
* sgdm:            v_i <- (1-eta) v_i + eta grad f_i(x', xi);  g_i <- v_i
* ef21_sgd:        g_i <- g_i + C(grad f_i(x', xi) - g_i)
* ef21_sgdm:       v_i as in sgdm;  g_i <- g_i + C(v_i - g_i)
* ef21_sgd2m:      v_i as above;  u_i <- (1-eta) u_i + eta v_i;
                   g_i <- g_i + C(u_i - g_i)
* ef21_sgdm_abs:   v_i as above;  g_i <- g_i + gamma * C((v_i - g_i)/gamma)
* ef21_storm:      one sample evaluated at both x' and the server's previous
                   iterate x, w_i <- grad f_i(x', xi) + (1-eta)(w_i - grad f_i(x, xi));
                   g_i <- g_i + C(w_i - g_i)
* ef14_sgd:        g_i <- C(e_i + gamma grad f_i(x', xi));
                   e_i <- e_i + gamma grad f_i(x', xi) - g_i  (what was not sent)
* ef21_sgd_ideal / ef21_sgdm_ideal: diagnostic variants that replace the
  stored states by exact gradients, g_i <- grad f_i(x') + C(eta * noise);
  they transmit a dense vector every round.

``RULES`` holds these rules as data and one engine runs them all.  Node
states are (n, d) arrays (``NodeArrays``) walked in ``core.blocks`` of
rows.  Per block, the nodes' raw oracle samples and RandK picks, each
node's from its own (seed, node, round) stream, come from one
``StreamFactory.block`` call (see ``core``); the rest is array operations
in the operand order of the formulas above, and a block's messages are
summed by one ``core.add_rows`` call, which adds them in ascending node
order, so traces match a loop over single nodes bit for bit.
Compressed-state updates write the kept coordinates of the target
directly into g_i (mathematically identical to adding the transmitted
residual, and it makes the eta = 1 and identity-compressor reductions
exact bitwise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compress import Compressor, keep_mask
from .core import StreamFactory, add_rows, blocks, ensure_finite
from .problems.base import Problem, SmoothnessInfo

__all__ = [
    "ALGORITHMS",
    "RULES",
    "HyperParams",
    "NodeArrays",
    "ServerState",
    "RoundLog",
    "schedule_at",
    "validate_pairing",
    "init",
    "run_round",
    "theoretical_params",
]

SGD = "sgd"
SGDM = "sgdm"
EF14_SGD = "ef14_sgd"
EF21_SGD = "ef21_sgd"
EF21_SGDM = "ef21_sgdm"
EF21_SGD2M = "ef21_sgd2m"
EF21_SGDM_ABS = "ef21_sgdm_abs"
EF21_STORM = "ef21_storm"
EF21_SGD_IDEAL = "ef21_sgd_ideal"
EF21_SGDM_IDEAL = "ef21_sgdm_ideal"


@dataclass(frozen=True)
class Rule:
    """How one kind updates a node: the (n, d) estimators it keeps besides
    g_i, advanced in this order (v, u: momentum, u averaging v; w: STORM; e:
    error feedback), and the message rule that turns the target (the last
    of v, u, w, else the fresh sample gradient; for e, e_i + gamma * sample
    gradient) into g_i:

    * write:    g_i takes the kept coordinates of the target, C(target - g_i)
    * absolute: g_i += gamma * C((target - g_i) / gamma)
    * ef14:     g_i = C(target), and e_i becomes target - g_i
    * ideal:    g_i = exact gradient + C(noise), the noise times eta if
                ``scale_noise``
    """

    estimators: tuple[str, ...]
    message: str
    scale_noise: bool = False


RULES = {
    SGD: Rule((), "write"),
    SGDM: Rule(("v",), "write"),
    EF14_SGD: Rule(("e",), "ef14"),
    EF21_SGD: Rule((), "write"),
    EF21_SGDM: Rule(("v",), "write"),
    EF21_SGD2M: Rule(("v", "u"), "write"),
    EF21_SGDM_ABS: Rule(("v",), "absolute"),
    EF21_STORM: Rule(("w",), "write"),
    EF21_SGD_IDEAL: Rule((), "ideal"),
    EF21_SGDM_IDEAL: Rule((), "ideal", scale_noise=True),
}
ALGORITHMS = tuple(RULES)
# kinds that keep the momentum estimator v_i (needed by the Lyapunov diagnostic)
MOMENTUM_KINDS = tuple(kind for kind, rule in RULES.items() if "v" in rule.estimators)


@dataclass
class HyperParams:
    """Run hyperparameters; schedules follow eta_t with gamma_t = gamma * eta_t.

    * constant:   gamma_t = gamma, eta_t = eta
    * inv_sqrt_t: eta_t = eta / sqrt(t+1), gamma_t = gamma * eta_t
    * inv_sqrt_T: eta_t = eta / sqrt(rounds+1) for all t, gamma_t = gamma * eta_t
    """

    gamma: float
    rounds: int
    eta: float = 1.0
    batch: int = 1
    b_init: int = 1
    schedule: str = "constant"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.batch < 1 or self.b_init < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.schedule not in ("constant", "inv_sqrt_t", "inv_sqrt_T"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


def schedule_at(hp: HyperParams, t: int) -> tuple[float, float]:
    """(gamma_t, eta_t) used by round t."""
    if hp.schedule == "constant":
        return hp.gamma, hp.eta
    if hp.schedule == "inv_sqrt_t":
        eta_t = hp.eta / math.sqrt(t + 1)
    else:  # inv_sqrt_T
        eta_t = hp.eta / math.sqrt(hp.rounds + 1)
    return hp.gamma * eta_t, eta_t


@dataclass
class NodeArrays:
    """The states of all n nodes: row i of each (n, d) array is node i's
    message state g_i or one of the estimators of ``RULES``.  Fields a kind
    does not keep are None.
    """

    g: np.ndarray
    v: np.ndarray | None = None
    u: np.ndarray | None = None
    w: np.ndarray | None = None
    e: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.g)


@dataclass
class ServerState:
    x: np.ndarray
    g: np.ndarray
    t: int = 0


@dataclass
class RoundLog:
    coords_sent: int = 0  # total over nodes this round
    grad_evals: int = 0  # stochastic gradient evaluations per node


def validate_pairing(kind: str, comp: Compressor) -> None:
    if kind not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {kind!r}")
    if kind == EF21_SGDM_ABS:
        if not comp.is_absolute:
            raise ValueError("ef21_sgdm_abs requires an absolute compressor")
    elif kind in (SGD, SGDM):
        if comp.kind != "identity":
            raise ValueError(f"{kind} is an uncompressed baseline; use the identity compressor")
    elif not comp.is_contractive:
        raise ValueError(f"{kind} requires a contractive compressor")


def init(
    kind: str, problem: Problem, hp: HyperParams, comp: Compressor, streams: StreamFactory
) -> tuple[ServerState, NodeArrays, RoundLog]:
    """Build round-0 states.

    All kinds except plain error feedback start their estimators from a
    size-``b_init`` mini-batch gradient at x0 (v = u = w = g there);
    ef14_sgd starts from g = 0, its error holding the first step not yet
    sent, e = gamma_0 g0 with g0 a size-``batch`` sample gradient at x0.
    Stream (i, 0) is reserved for initialization.
    """
    validate_pairing(kind, comp)
    if comp.dim != problem.dim:
        raise ValueError("compressor dimension does not match the problem")
    rule = RULES[kind]
    n, d = problem.n_nodes, problem.dim
    x0 = problem.x0.copy()
    batch = hp.batch if rule.message == "ef14" else hp.b_init
    g0, sample = np.empty((n, d)), problem.sample(batch)
    for rows in blocks(n, d * batch):
        g0[rows] = problem.stoch_grads_at(rows, (x0,), streams.block(rows, 0, sample)[0])[0]
    if rule.message == "ef14":
        nodes = NodeArrays(g=np.zeros((n, d)), e=np.zeros((n, d)))
        nodes.e += schedule_at(hp, 0)[0] * g0
    else:
        nodes = NodeArrays(g=g0, **{f: g0.copy() for f in rule.estimators})
    gsum = np.zeros(d)
    for rows in blocks(n, d):  # ``add_rows`` copies its rows, so keep that copy block-sized
        add_rows(gsum, nodes.g[rows])
    return ServerState(x=x0, g=gsum / n, t=0), nodes, RoundLog(coords_sent=0, grad_evals=batch)


def run_round(
    kind: str, server: ServerState, nodes: NodeArrays,
    problem: Problem, hp: HyperParams, comp: Compressor, streams: StreamFactory,
) -> RoundLog:
    """Execute one synchronous round in place; returns the round's costs.

    Raises NumericFailure (carrying the round index) if the iterate or the
    aggregated state leaves the finite range.  Overflow is an expected
    outcome for unstable step sizes (tuning grids include them), so numpy's
    warnings are silenced in favor of the explicit finiteness checks.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rule = RULES[kind]
        t = server.t
        gamma_t, eta_t = schedule_at(hp, t)
        n = problem.n_nodes
        x_new = server.x - (server.g if rule.message == "ef14" else gamma_t * server.g)
        ensure_finite(x_new, "iterate", t)

        acc = np.zeros(problem.dim)  # sum of the messages, or of the new g_i
        coords = 0
        # STORM's w also takes each sample gradient at the previous iterate, server.x
        iterates = (x_new, server.x) if "w" in rule.estimators else (x_new,)
        sample, randk = problem.sample(hp.batch), ((comp.dim, comp.k) if comp.is_random else None)
        for rows in blocks(n, problem.dim * hp.batch):
            raw, picks = streams.block(rows, t + 1, sample, randk)
            grads = problem.stoch_grads_at(rows, iterates, raw)
            sg = grads[0]
            g = nodes.g[rows]
            target = sg
            # in-place updates, each operation in the order of the formulas above
            for name in rule.estimators:
                state = getattr(nodes, name)[rows]
                if name in ("v", "u"):  # v averages the sample gradient, u averages v
                    np.multiply(1.0 - eta_t, state, out=state)
                    state += eta_t * target
                    target = state
                elif name == "w":
                    np.subtract(state, grads[1], out=state)
                    np.multiply(1.0 - eta_t, state, out=state)
                    np.add(sg, state, out=state)
                    target = state
                else:  # "e": the error plus this round's scaled sample gradient
                    target = state + gamma_t * sg

            if rule.message == "write":
                resid = target - g
                mask = keep_mask(comp, resid, picks)
                np.copyto(g, target, where=mask)
                add_rows(acc, resid, mask)
            elif rule.message == "absolute":
                unscaled = (target - g) / gamma_t
                mask = keep_mask(comp, unscaled, picks)
                scaled = gamma_t * unscaled
                np.add(g, scaled, out=g, where=mask)
                add_rows(acc, scaled, mask)
            elif rule.message == "ef14":
                mask = keep_mask(comp, target, picks)
                g[...] = np.where(mask, target, 0.0)
                np.subtract(target, g, out=nodes.e[rows])  # the error keeps what was not sent
                add_rows(acc, g)
            else:  # ideal: exact gradient plus the compressed noise, sent dense
                full = problem.full_grads(rows, x_new)
                noise = sg - full
                if rule.scale_noise:
                    noise = eta_t * noise
                mask = keep_mask(comp, noise, picks)
                add_rows(acc, full + np.where(mask, noise, 0.0))
            coords += problem.dim * len(g) if rule.message == "ideal" else int(np.count_nonzero(mask))

        server.g = server.g + acc / n if rule.message in ("write", "absolute") else acc / n
        ensure_finite(server.g, "aggregated state", t)
        server.x = x_new
        server.t = t + 1
        evals = 2 * hp.batch if "w" in rule.estimators else hp.batch
        return RoundLog(coords_sent=coords, grad_evals=evals)


def _inf_if_zero_div(num: float, den: float) -> float:
    return math.inf if den == 0 else num / den


def theoretical_params(
    kind: str,
    smooth: SmoothnessInfo,
    alpha: float | None,
    sigma: float,
    n: int,
    rounds: int,
    delta0: float,
    delta_abs: float | None = None,
    batch: int = 1,
) -> HyperParams:
    """Step size, momentum, and initial batch size prescribed by the
    convergence analysis of each method.

    ``delta0`` is the initial optimality gap f(x0) - f*; ``delta_abs`` is
    the absolute compressor's error bound (required by ef21_sgdm_abs);
    the variance-reduced variant needs ``smooth.ell_tilde``.
    """
    big_l, l_tilde = smooth.L, smooth.L_tilde
    ld = big_l * delta0
    t_eff = max(rounds, 1)
    if kind in (EF21_SGDM, EF21_SGD2M):
        if alpha is None:
            raise ValueError("contractive constant alpha required")
        b_init = 1 if sigma == 0 or ld == 0 else max(1, math.ceil(sigma**2 / ld))
        terms = [
            1.0,
            _inf_if_zero_div(ld * alpha**2, sigma**2 * t_eff) ** 0.25,
            _inf_if_zero_div(ld * n, sigma**2 * t_eff) ** 0.5,
            _inf_if_zero_div(alpha * math.sqrt(max(ld * b_init, 0.0)), sigma),
        ]
        if kind == EF21_SGDM:
            terms.append(_inf_if_zero_div(ld * alpha, sigma**2 * t_eff) ** (1.0 / 3.0))
            gamma_div, eta_div = 20.0, 7.0
        else:
            gamma_div, eta_div = 60.0, 16.0
        eta = min(terms)
        gamma = min(alpha / (gamma_div * l_tilde), eta / (eta_div * big_l))
        return HyperParams(gamma=gamma, eta=eta, batch=batch, b_init=b_init, rounds=rounds)
    if kind == EF21_SGDM_ABS:
        if delta_abs is None:
            raise ValueError("absolute error bound required for ef21_sgdm_abs")
        eta = min(
            1.0,
            _inf_if_zero_div(big_l**3 * delta0, delta_abs**2 * t_eff) ** (1.0 / 3.0),
            _inf_if_zero_div(ld * n, sigma**2 * t_eff) ** 0.5,
        )
        gamma = eta / (4.0 * big_l)
        b_init = 1 if sigma == 0 or ld == 0 else max(1, math.ceil(sigma**2 / (ld * n)))
        return HyperParams(gamma=gamma, eta=eta, batch=batch, b_init=b_init, rounds=rounds)
    if kind == EF21_STORM:
        if alpha is None:
            raise ValueError("contractive constant alpha required")
        if smooth.ell_tilde is None:
            raise ValueError("per-sample smoothness ell_tilde required for ef21_storm")
        ell = smooth.ell_tilde
        eld = ell * delta0
        eta = min(
            alpha,
            _inf_if_zero_div(eld * alpha**2, sigma**2 * math.sqrt(n) * t_eff) ** (2.0 / 7.0),
            _inf_if_zero_div(eld * alpha, sigma**2 * math.sqrt(n) * t_eff) ** (2.0 / 5.0),
            _inf_if_zero_div(eld * math.sqrt(n), sigma**2 * t_eff) ** (2.0 / 3.0),
        )
        gamma = min(alpha / (8.0 * l_tilde), math.sqrt(alpha) / (6.0 * ell), math.sqrt(n * eta) / (8.0 * ell))
        b_init = max(1, math.ceil(alpha * n / t_eff))
        if sigma > 0 and ld > 0:
            b_init = max(b_init, math.ceil(sigma**2 / (ld * n)))
        return HyperParams(gamma=gamma, eta=eta, batch=batch, b_init=b_init, rounds=rounds)
    if kind == SGDM:
        # parameter-agnostic time-varying momentum: eta_t = 1/sqrt(t+1)
        return HyperParams(gamma=1.0 / (3.0 * big_l), eta=1.0, batch=batch, b_init=1, rounds=rounds, schedule="inv_sqrt_t")
    raise ValueError(f"no prescribed parameter formula for {kind!r}")
