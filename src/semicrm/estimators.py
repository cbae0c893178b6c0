"""Empirical risk and divergence estimators over logged bandit data.

Every objective is alpha * IPS + (1 - alpha) * a regularizer, each term a sum
over rows that depends on the policy only through log pi(a_i|x_i).
:data:`ROW_TERMS` maps log pi on the rows a term covers to per-row values and
factors d value / d log pi, :func:`objective_parts` says which rows each term
covers, and :func:`term_values` evaluates the parts for the estimators below
and for the training loop in :mod:`semicrm.trainers`.

All estimators are pure functions of (policy, log) and reduce in fixed
left-to-right order, so repeated evaluation is bit-identical.
"""

from __future__ import annotations

import numpy as np

from .data import BanditLog
from .policy import PolicyGradient, SoftmaxPolicy, softmax_and_log_softmax


def check_floor(name: str, floor: float) -> None:
    """Reject a propensity floor (zeta for IPS, tau for a regularizer) outside [0, 1]."""
    if not 0.0 <= floor <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {floor}")


def check_nonempty(alpha: float, S: BanditLog, S_u: BanditLog, pooled: bool = False) -> None:
    """Reject a term with positive weight and no rows to cover: IPS on the
    rewarded rows S, or the regularizer on the reward-free rows S_u (or,
    pooled, on S and S_u together)."""
    if alpha > 0.0 and not len(S):
        raise ValueError("alpha > 0 requires a nonempty known-reward dataset")
    if alpha < 1.0 and not (len(S_u) or (pooled and len(S))):
        raise ValueError("alpha < 1 requires a nonempty unknown-reward dataset")


def check_rewarded(rewards: np.ndarray) -> None:
    """Reject an unknown (NaN) reward on a row that the IPS term covers; run once
    per estimate or training run, as the row term itself does not check."""
    if np.any(np.isnan(rewards)):
        raise ValueError("IPS needs a reward on every row it covers")


def _group_weights(actions: np.ndarray) -> np.ndarray:
    """Per-row weight 1/m_[a], counting m_[a] over the given rows only."""
    return 1.0 / np.bincount(actions)[actions]


# ---- row terms --------------------------------------------------------------
#
# term(log_pi, actions, propensities, rewards, floor) -> (values, factors)
# Each array holds one entry per row the term covers; the estimate is
# sum(values) and factors[i] = d sum(values) / d log pi(a_i|x_i).


def _ips_rows(log_pi, actions, propensities, rewards, zeta):
    """Truncated IPS r pi / (n max(zeta, p)); as d pi / d log pi = pi, the
    factors equal the values."""
    values = rewards * np.exp(log_pi) / (len(log_pi) * np.maximum(propensities, zeta))
    return values, values


def _wce_rows(log_pi, actions, propensities, rewards, tau):
    """Truncated weighted cross-entropy -w max(tau, p) log pi, w = 1/m_[a]."""
    factors = -_group_weights(actions) * np.maximum(propensities, tau)
    return factors * log_pi, factors


def _kl_rows(log_pi, actions, propensities, rewards, tau):
    """Truncated forward KL w pi log(pi / max(tau, p)).

    The policy enters both factors, so the factor is w pi (log(pi / max(tau, p)) + 1).
    """
    floored = np.maximum(propensities, tau)
    weighted_pi = _group_weights(actions) * np.exp(log_pi)
    log_ratio = log_pi - np.log(floored)
    return weighted_pi * log_ratio, weighted_pi * (log_ratio + 1.0)


def _rkl_rows(log_pi, actions, propensities, rewards, _floor):
    """Reverse KL w (p log p - p log pi): WCE at tau = 0 plus the policy-free
    constant w p log p (the WCE factors are -w p)."""
    values, factors = _wce_rows(log_pi, actions, propensities, rewards, 0.0)
    return values - factors * np.log(propensities), factors


def _ce_rows(log_pi, actions, propensities, rewards, _floor):
    """Cross-entropy -log pi / n, the actions being labels: the logging policy's fit."""
    factors = np.full(len(log_pi), -1.0) / len(log_pi)
    return factors * log_pi, factors


ROW_TERMS = {"IPS": _ips_rows, "WCE": _wce_rows, "KL": _kl_rows, "RKL": _rkl_rows,
             "CE": _ce_rows}
REGULARIZERS = ("KL", "RKL", "WCE")  # the paper's; "CE" serves only the training loop
VALUE_BLOCK = 16_384  # most rows per forward pass of a value-only evaluation


def objective_parts(regularizer: str, alpha: float, n_known: int, zeta: float = 0.0,
                    tau: float = 0.0, pooled: bool = False) -> list[tuple]:
    """(term, rows, scale, floor) for alpha * IPS + (1 - alpha) * regularizer over
    rows whose first ``n_known`` are rewarded: IPS covers those and the
    regularizer the rest, or, pooled (PR-CRM), both terms cover every row.
    IPS floors propensities at ``zeta`` and the regularizer at ``tau``."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if regularizer not in (*REGULARIZERS, "CE"):
        raise ValueError(f"regularizer must be one of {REGULARIZERS} or 'CE', got {regularizer!r}")
    known = slice(None) if pooled else slice(0, n_known)
    unknown = slice(None) if pooled else slice(n_known, None)
    return [("IPS", known, alpha, zeta), (regularizer, unknown, 1.0 - alpha, tau)]


def term_values(policy: SoftmaxPolicy, rows: BanditLog, parts,
                gradient: bool = False) -> tuple[list[float], PolicyGradient | None]:
    """The unscaled value of each part over ``rows`` from one forward pass and,
    with ``gradient``, the gradient of sum_j scale_j * value_j (else None): a
    factor f moves the scores of its row by f (e_a - pi(.|x)), so only the
    gradient needs the full softmax and the backward pass.

    Without a gradient, log pi(a_i|x_i) comes from the log's memo, so scoring
    one policy with several estimators on one log takes one forward pass.  Its
    key holds everything log pi depends on besides the rows: the layer shapes,
    the parameter bytes and the block size."""
    log_pi = None
    if not gradient and len(rows):  # an empty log is rejected below
        key = (tuple(w.shape for w in policy.weights), policy.flat.tobytes(), VALUE_BLOCK)
        log_pi = rows.memo(key, lambda: _value_log_pi(policy, rows.contexts, rows.actions))
    return _term_values(policy, rows.contexts, rows.actions, rows.propensities,
                        rows.rewards, parts, gradient, log_pi)


def column_term_values(policy, contexts, actions, propensities, rewards, parts, gradient=False):
    """:func:`term_values` over the four columns of a log, gathered by the caller;
    nothing is kept between calls."""
    return _term_values(policy, contexts, actions, propensities, rewards, parts, gradient)


def _value_log_pi(policy, contexts, actions) -> np.ndarray:
    """log pi(a_i|x_i), read-only, from forward passes over views of row blocks,
    so that the memory it takes does not grow with the log."""
    count = -(-len(actions) // VALUE_BLOCK)
    blocks = zip(np.array_split(contexts, count), np.array_split(actions, count))
    log_pi = np.concatenate([softmax_and_log_softmax(policy.forward(x)[0], a)[1]
                             for x, a in blocks])
    log_pi.flags.writeable = False
    return log_pi


def _term_values(policy, contexts, actions, propensities, rewards, parts, gradient,
                 log_pi=None):
    """The body of both; ``log_pi``, if given, serves a call without a gradient."""
    if not len(actions):
        raise ValueError("empty log")
    if gradient:
        scores, cache = policy.forward(contexts)
        pi, log_pi = softmax_and_log_softmax(scores, actions)
    elif log_pi is None:
        log_pi = _value_log_pi(policy, contexts, actions)
    factors = np.zeros(len(actions))
    values = []
    for term, part, scale, floor in parts:
        value, factor = ROW_TERMS[term](log_pi[part], actions[part],
                                        propensities[part], rewards[part], floor)
        factors[part] += scale * factor
        values.append(float(np.sum(value)))
    if not gradient:
        return values, None
    dscores = -factors[:, None] * pi
    dscores[np.arange(len(actions)), actions] += factors
    return values, policy.backward(cache, dscores)


def _estimate(policy: SoftmaxPolicy, rows: BanditLog, parts) -> float:
    for term, part, _, floor in parts:
        check_floor("zeta" if term == "IPS" else "tau", floor)
        if term == "IPS":
            check_rewarded(rows.rewards[part])
    values, _ = term_values(policy, rows, parts)
    return sum(scale * value for (_, _, scale, _), value in zip(parts, values))


# ---- risk estimators -------------------------------------------------------


def ips_risk(policy: SoftmaxPolicy, S: BanditLog) -> float:
    """Importance-weighted empirical risk (1/n) sum r_i pi(a_i|x_i)/p_i."""
    return truncated_ips_risk(policy, S, zeta=0.0)


def truncated_ips_risk(policy: SoftmaxPolicy, S: BanditLog, zeta: float) -> float:
    """IPS risk with the propensity denominator floored at zeta."""
    return _estimate(policy, S, [("IPS", slice(None), 1.0, zeta)])


# ---- reward-free regularizers ----------------------------------------------


def kl_regularizer(policy: SoftmaxPolicy, S_u: BanditLog, tau: float = 0.0) -> float:
    """Truncated forward-KL estimate: per action group, mean of pi log(pi / max(tau, p))."""
    return _estimate(policy, S_u, [("KL", slice(None), 1.0, tau)])


def rkl_regularizer(policy: SoftmaxPolicy, S_u: BanditLog) -> float:
    """Reverse-KL estimate: per action group, mean of -p log pi + p log p."""
    return _estimate(policy, S_u, [("RKL", slice(None), 1.0, 0.0)])


def wce_regularizer(policy: SoftmaxPolicy, S_u: BanditLog, tau: float = 0.0) -> float:
    """Truncated weighted cross-entropy: per action group, mean of -max(tau, p) log pi."""
    return _estimate(policy, S_u, [("WCE", slice(None), 1.0, tau)])


def combined_objective(
    policy: SoftmaxPolicy,
    S: BanditLog,
    S_u: BanditLog,
    alpha: float,
    zeta: float = 0.0,
    tau: float = 0.0,
    variant: str = "WCE",
) -> float:
    """alpha * truncated IPS risk on S + (1 - alpha) * regularizer on S_u."""
    if variant not in REGULARIZERS:
        raise ValueError(f"variant must be one of {REGULARIZERS}, got {variant!r}")
    parts = objective_parts(variant, alpha, len(S), zeta, tau)
    check_nonempty(alpha, S, S_u)
    return _estimate(policy, S.concat(S_u), parts)


def pseudo_reward_objective(
    policy: SoftmaxPolicy,
    S: BanditLog,
    S_u_aug: BanditLog,
    alpha: float,
    zeta: float = 0.0,
    tau: float = 0.0,
) -> float:
    """Pseudo-reward risk: truncated IPS over S plus pseudo-reward IPS over the
    augmented set (pseudo-rewards in its reward column), scaled by
    alpha/(n+m), plus (1 - alpha) times the WCE regularizer over the union
    (action groups computed on the union).
    """
    parts = objective_parts("WCE", alpha, len(S), zeta, tau, pooled=True)
    return _estimate(policy, S.concat(S_u_aug), parts)
