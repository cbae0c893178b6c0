"""Empirical risk and divergence estimators over logged bandit data.

Every objective here is a sum over rows that depends on the policy only
through log pi(a_i|x_i).  :data:`ROW_TERMS` holds one function per term --
truncated IPS, WCE, forward KL and reverse KL -- that maps log pi on the rows
it covers to per-row values and per-row factors d value / d log pi.  The
estimators below sum the values after one forward pass; the trainers turn the
factors into a gradient (see :mod:`semicrm.trainers`).

All estimators are pure functions of (policy, log) and reduce in fixed
left-to-right order, so repeated evaluation is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BanditLog
from .policy import SoftmaxPolicy, log_softmax


@dataclass(frozen=True)
class TruncationParams:
    """Propensity floors: zeta for the IPS risk, tau for the regularizers."""

    zeta: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError(f"zeta must be in [0, 1], got {self.zeta}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")


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
    if np.any(propensities <= 0.0):
        raise ValueError("all propensities must be positive")
    if np.any(np.isnan(rewards)):
        raise ValueError("IPS needs a reward on every row it covers")
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
    if np.any(floored <= 0.0):
        raise ValueError("tau = 0 requires strictly positive propensities")
    weighted_pi = _group_weights(actions) * np.exp(log_pi)
    log_ratio = log_pi - np.log(floored)
    return weighted_pi * log_ratio, weighted_pi * (log_ratio + 1.0)


def _rkl_rows(log_pi, actions, propensities, rewards, _floor):
    """Reverse KL w (p log p - p log pi): WCE at tau = 0 plus the policy-free
    constant w p log p (the WCE factors are -w p)."""
    if np.any(propensities <= 0.0):
        raise ValueError("all propensities must be positive")
    values, factors = _wce_rows(log_pi, actions, propensities, rewards, 0.0)
    return values - factors * np.log(propensities), factors


ROW_TERMS = {"IPS": _ips_rows, "WCE": _wce_rows, "KL": _kl_rows, "RKL": _rkl_rows}
REGULARIZERS = ("KL", "RKL", "WCE")


def _log_pi(policy: SoftmaxPolicy, rows: BanditLog) -> np.ndarray:
    """log pi(a_i|x_i) for every row, from one forward pass."""
    scores, _ = policy.forward(rows.contexts)
    return log_softmax(scores, rows.actions)


def _estimate(term: str, policy: SoftmaxPolicy, rows: BanditLog, floor: float) -> float:
    """Sum of one row term's values over ``rows``; no gradient is formed."""
    if not len(rows):
        raise ValueError("empty log")
    values, _ = ROW_TERMS[term](
        _log_pi(policy, rows), rows.actions, rows.propensities, rows.rewards, floor
    )
    return float(np.sum(values))


# ---- risk estimators -------------------------------------------------------


def ips_risk(policy: SoftmaxPolicy, S: BanditLog) -> float:
    """Importance-weighted empirical risk (1/n) sum r_i pi(a_i|x_i)/p_i."""
    return truncated_ips_risk(policy, S, zeta=0.0)


def truncated_ips_risk(policy: SoftmaxPolicy, S: BanditLog, zeta: float) -> float:
    """IPS risk with the propensity denominator floored at zeta."""
    return _estimate("IPS", policy, S, zeta)


# ---- reward-free regularizers ----------------------------------------------


def kl_regularizer(policy: SoftmaxPolicy, S_u: BanditLog, tau: float = 0.0) -> float:
    """Truncated forward-KL estimate: per action group, mean of pi log(pi / max(tau, p))."""
    return _estimate("KL", policy, S_u, tau)


def rkl_regularizer(policy: SoftmaxPolicy, S_u: BanditLog) -> float:
    """Reverse-KL estimate: per action group, mean of -p log pi + p log p."""
    return _estimate("RKL", policy, S_u, 0.0)


def wce_regularizer(policy: SoftmaxPolicy, S_u: BanditLog, tau: float = 0.0) -> float:
    """Truncated weighted cross-entropy: per action group, mean of -max(tau, p) log pi."""
    return _estimate("WCE", policy, S_u, tau)


def combined_objective(
    policy: SoftmaxPolicy,
    S: BanditLog,
    S_u: BanditLog,
    alpha: float,
    trunc: TruncationParams = TruncationParams(),
    variant: str = "WCE",
) -> float:
    """Convex combination alpha * truncated IPS risk + (1 - alpha) * regularizer."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if variant not in REGULARIZERS:
        raise ValueError(f"variant must be one of {REGULARIZERS}, got {variant!r}")
    risk = truncated_ips_risk(policy, S, trunc.zeta) if alpha > 0.0 else 0.0
    reg = _estimate(variant, policy, S_u, trunc.tau) if alpha < 1.0 else 0.0
    return alpha * risk + (1.0 - alpha) * reg


def pseudo_reward_objective(
    policy: SoftmaxPolicy,
    S: BanditLog,
    S_u_aug: BanditLog,
    alpha: float,
    trunc: TruncationParams = TruncationParams(),
) -> float:
    """Pseudo-reward risk: truncated IPS over S plus pseudo-reward IPS over the
    augmented set (pseudo-rewards in its reward column), scaled by
    alpha/(n+m), plus (1 - alpha) times the WCE regularizer over the union
    (action groups computed on the union).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    rows = S.concat(S_u_aug)
    args = (_log_pi(policy, rows), rows.actions, rows.propensities, rows.rewards)
    ips, _ = _ips_rows(*args, trunc.zeta)
    wce, _ = _wce_rows(*args, trunc.tau)
    return alpha * float(np.sum(ips)) + (1.0 - alpha) * float(np.sum(wce))
