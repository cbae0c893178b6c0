"""Empirical risk and divergence estimators over logged bandit data.

Every objective is alpha * IPS + (1 - alpha) * a regularizer, each term a sum
over rows that depends on the policy only through log pi(a_i|x_i).
:data:`ROW_TERMS` gives each term as two halves over the rows it covers: the
per-row constants that do not depend on the policy, and the map from log pi
and those constants to per-row values and factors d value / d log pi.
:func:`objective_parts` says which rows each term covers.  :func:`term_values`
evaluates the parts for the estimators below, and :func:`value_and_grad`
evaluates them with their gradient for the training loop in
:mod:`semicrm.trainers`.

All estimators are pure functions of (policy, log) and reduce in fixed
left-to-right order, so repeated evaluation is bit-identical.
"""

from __future__ import annotations

import numpy as np

from . import data
from .data import BanditLog
from .policy import PolicyGradient, SoftmaxPolicy, log_softmax, softmax_and_log_softmax


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


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _group_weights(actions: np.ndarray) -> np.ndarray:
    """Per-row weight 1/m_[a], counting m_[a] over the given rows only."""
    return 1.0 / np.bincount(actions)[actions]


# ---- row terms --------------------------------------------------------------
#
# Each term is a pair of halves over the rows it covers:
#   constants(actions, propensities, rewards, floor) -> a tuple of per-row arrays
#   that do not depend on the policy, and
#   rows(log_pi, *constants) -> (values, factors).
# The estimate is sum(values) and factors[i] = d sum(values) / d log pi(a_i|x_i).


def _ips_constants(actions, propensities, rewards, zeta):
    """The rewards and the floored denominators n max(zeta, p)."""
    return rewards, len(actions) * np.maximum(propensities, zeta)


def _ips_rows(log_pi, rewards, denominators):
    """Truncated IPS r pi / (n max(zeta, p)); as d pi / d log pi = pi, the
    factors equal the values."""
    values = rewards * np.exp(log_pi) / denominators
    return values, values


def _wce_constants(actions, propensities, rewards, tau):
    """The WCE factors -w max(tau, p), w = 1/m_[a]."""
    return (-_group_weights(actions) * np.maximum(propensities, tau),)


def _linear_rows(log_pi, factors):
    """A term linear in log pi, its factors being its constants: truncated
    weighted cross-entropy -w max(tau, p) log pi, or cross-entropy -log pi / n."""
    return factors * log_pi, factors


def _kl_constants(actions, propensities, rewards, tau):
    """The group weights w = 1/m_[a] and the floored log propensities log max(tau, p)."""
    return _group_weights(actions), np.log(np.maximum(propensities, tau))


def _kl_rows(log_pi, weights, log_floored):
    """Truncated forward KL w pi log(pi / max(tau, p)).

    The policy enters both factors, so the factor is w pi (log(pi / max(tau, p)) + 1).
    """
    weighted_pi = weights * np.exp(log_pi)
    log_ratio = log_pi - log_floored
    return weighted_pi * log_ratio, weighted_pi * (log_ratio + 1.0)


def _rkl_constants(actions, propensities, rewards, _floor):
    """The WCE factors at tau = 0, -w p, and the policy-free constant -w p log p."""
    (factors,) = _wce_constants(actions, propensities, rewards, 0.0)
    return factors, factors * np.log(propensities)


def _rkl_rows(log_pi, factors, p_log_p):
    """Reverse KL w (p log p - p log pi): WCE at tau = 0 plus the policy-free
    constant w p log p."""
    return factors * log_pi - p_log_p, factors


def _ce_constants(actions, propensities, rewards, _floor):
    """The cross-entropy factors -1 / n, the actions being labels: the logging
    policy's fit."""
    return (np.full(len(actions), -1.0) / len(actions),)


ROW_TERMS = {"IPS": (_ips_constants, _ips_rows), "WCE": (_wce_constants, _linear_rows),
             "KL": (_kl_constants, _kl_rows), "RKL": (_rkl_constants, _rkl_rows),
             "CE": (_ce_constants, _linear_rows)}
REGULARIZERS = ("KL", "RKL", "WCE")  # the paper's; "CE" serves only the training loop


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


def term_values(policy: SoftmaxPolicy, rows: BanditLog, parts) -> list[float]:
    """The unscaled value of each part over ``rows``.

    log pi(a_i|x_i) and each term's constants come from the log's memo, so
    scoring one policy with several estimators on one log takes one forward
    pass, and scoring another policy computes no constants again.  The log pi
    key holds everything log pi depends on besides the rows: the layer shapes,
    the parameter bytes and ``data.ROW_BLOCK``; a term's key holds its rows and
    its floor."""
    if not len(rows):
        raise ValueError("empty log")
    key = (tuple(w.shape for w in policy.weights), policy.flat.tobytes(), data.ROW_BLOCK)
    log_pi = rows.memo("log_pi", key, lambda: _value_log_pi(policy, rows.contexts, rows.actions))
    values = []
    for term, part, _, floor in parts:
        constants_of, rows_of = ROW_TERMS[term]
        constants = rows.memo(term, (part, floor), lambda: _read_only(constants_of(
            rows.actions[part], rows.propensities[part], rows.rewards[part], floor)))
        values.append(float(np.sum(rows_of(log_pi[part], *constants)[0])))
    return values


def _value_log_pi(policy, contexts, actions) -> np.ndarray:
    """log pi(a_i|x_i), read-only, from forward passes over views of row blocks,
    so that the memory it takes does not grow with the log (see data.run_blocks)."""
    log_pi = np.empty(len(actions))

    def block(rows):
        log_pi[rows] = log_softmax(policy.forward(contexts[rows])[0], actions[rows])

    data.run_blocks(block, len(actions))
    log_pi.flags.writeable = False
    return log_pi


def value_and_grad(policy: SoftmaxPolicy, contexts, actions, propensities, rewards,
                   parts) -> tuple[list[float], PolicyGradient]:
    """:func:`term_values` over the four columns of a log, gathered by the caller,
    and the gradient of sum_j scale_j * value_j, from one forward and one
    backward pass: a factor f moves the scores of its row by f (e_a - pi(.|x)).
    A part that covers no rows reads 0.0 without running its term.  Nothing
    is kept between calls."""
    if not len(actions):
        raise ValueError("empty log")
    scores, cache = policy.forward(contexts)
    pi, log_pi = softmax_and_log_softmax(scores, actions)
    factors = np.zeros(len(actions))
    values = []
    for term, part, scale, floor in parts:
        if not len(log_pi[part]):  # as float(np.sum([])) reads, with no term to run
            values.append(0.0)
            continue
        constants_of, rows_of = ROW_TERMS[term]
        value, factor = rows_of(log_pi[part], *constants_of(
            actions[part], propensities[part], rewards[part], floor))
        factors[part] += scale * factor
        values.append(float(np.sum(value)))
    dscores = pi.T  # (k, N), pi's own array: pi is not read again
    dscores *= -factors
    dscores[actions, np.arange(len(actions))] += factors
    # backward's matmuls take C-order operands: an F-order view can change their bits
    return values, policy.backward(cache, np.ascontiguousarray(dscores.T))


def _estimate(policy: SoftmaxPolicy, rows: BanditLog, parts) -> float:
    for term, part, _, floor in parts:
        check_floor("zeta" if term == "IPS" else "tau", floor)
        if term == "IPS":
            check_rewarded(rows.rewards[part])
    values = term_values(policy, rows, parts)
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
    """alpha * truncated IPS risk on S + (1 - alpha) * regularizer on S_u.

    Each term is scored on its own log, so it shares that log's memo with the
    standalone estimators; a part with no rows reads 0.0 (its weight is 0)."""
    if variant not in REGULARIZERS:
        raise ValueError(f"variant must be one of {REGULARIZERS}, got {variant!r}")
    objective_parts(variant, alpha, len(S), zeta, tau)  # rejects alpha outside [0, 1]
    check_nonempty(alpha, S, S_u)
    check_floor("zeta", zeta)
    check_floor("tau", tau)
    ips = _estimate(policy, S, [("IPS", slice(None), 1.0, zeta)]) if len(S) else 0.0
    reg = _estimate(policy, S_u, [(variant, slice(None), 1.0, tau)]) if len(S_u) else 0.0
    return alpha * ips + (1.0 - alpha) * reg


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
