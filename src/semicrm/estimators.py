"""Empirical risk and divergence estimators over logged bandit data.

Every objective here is a sum over rows that depends on the policy only
through log pi(a_i|x_i).  :data:`ROW_TERMS` holds one function per term --
truncated IPS, WCE, forward KL and reverse KL -- that maps log pi on the rows
it covers to per-row values and per-row factors d value / d log pi.  The
estimators below sum the values after one forward pass; the trainers turn the
factors into a gradient (see :mod:`semicrm.trainers`).

All estimators are pure functions of (policy, samples) and reduce in fixed
left-to-right order, so repeated evaluation is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AugmentedSample, LoggedKnownSample, LoggedUnknownSample
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


@dataclass(frozen=True)
class KnownBatch:
    """Array view of a list of known-reward samples."""

    contexts: np.ndarray     # (n, d)
    actions: np.ndarray      # (n,)
    propensities: np.ndarray  # (n,)
    rewards: np.ndarray      # (n,)

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class UnknownBatch:
    """Array view of a list of unknown-reward samples, optionally with pseudo-rewards."""

    contexts: np.ndarray
    actions: np.ndarray
    propensities: np.ndarray
    pseudo_rewards: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.actions)


def stack_known(S: list[LoggedKnownSample]) -> KnownBatch:
    if not S:
        raise ValueError("empty known-reward sample list")
    return KnownBatch(
        np.stack([s.context for s in S]),
        np.array([s.action for s in S], dtype=int),
        np.array([s.propensity for s in S]),
        np.array([s.reward for s in S]),
    )


def stack_unknown(S_u: list[LoggedUnknownSample | AugmentedSample]) -> UnknownBatch:
    if not S_u:
        raise ValueError("empty unknown-reward sample list")
    pseudo = None
    if isinstance(S_u[0], AugmentedSample):
        pseudo = np.array([s.pseudo_reward for s in S_u])
    return UnknownBatch(
        np.stack([s.context for s in S_u]),
        np.array([s.action for s in S_u], dtype=int),
        np.array([s.propensity for s in S_u]),
        pseudo,
    )


def concat_rows(known: KnownBatch | None, unknown: UnknownBatch | None) -> KnownBatch:
    """Known rows followed by unknown rows, as one batch.

    Unknown rows carry their pseudo-rewards, or NaN when they have none, so a
    term that read a reward on them would show it in its value.
    """
    batches = [b for b in (known, unknown) if b is not None]
    rewards = [] if known is None else [known.rewards]
    if unknown is not None:
        pseudo = unknown.pseudo_rewards
        rewards.append(np.full(len(unknown), np.nan) if pseudo is None else pseudo)
    return KnownBatch(
        np.concatenate([b.contexts for b in batches]),
        np.concatenate([b.actions for b in batches]),
        np.concatenate([b.propensities for b in batches]),
        np.concatenate(rewards),
    )


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


def _log_pi(policy: SoftmaxPolicy, rows) -> np.ndarray:
    """log pi(a_i|x_i) for every row, from one forward pass."""
    scores, _ = policy.forward(rows.contexts)
    return log_softmax(scores, rows.actions)


def _estimate(term: str, policy: SoftmaxPolicy, rows, floor: float, rewards=None) -> float:
    """Sum of one row term's values over ``rows``; no gradient is formed."""
    values, _ = ROW_TERMS[term](
        _log_pi(policy, rows), rows.actions, rows.propensities, rewards, floor
    )
    return float(np.sum(values))


def _unknown_batch(S_u) -> UnknownBatch:
    return S_u if isinstance(S_u, UnknownBatch) else stack_unknown(S_u)


# ---- risk estimators -------------------------------------------------------


def ips_risk(policy: SoftmaxPolicy, S: list[LoggedKnownSample]) -> float:
    """Importance-weighted empirical risk (1/n) sum r_i pi(a_i|x_i)/p_i."""
    return truncated_ips_risk(policy, S, zeta=0.0)


def truncated_ips_risk(
    policy: SoftmaxPolicy, S: list[LoggedKnownSample], zeta: float
) -> float:
    """IPS risk with the propensity denominator floored at zeta."""
    batch = S if isinstance(S, KnownBatch) else stack_known(S)
    return _estimate("IPS", policy, batch, zeta, batch.rewards)


# ---- reward-free regularizers ----------------------------------------------


def kl_regularizer(
    policy: SoftmaxPolicy, S_u: list[LoggedUnknownSample], tau: float = 0.0
) -> float:
    """Truncated forward-KL estimate: per action group, mean of pi log(pi / max(tau, p))."""
    return _estimate("KL", policy, _unknown_batch(S_u), tau)


def rkl_regularizer(policy: SoftmaxPolicy, S_u: list[LoggedUnknownSample]) -> float:
    """Reverse-KL estimate: per action group, mean of -p log pi + p log p."""
    return _estimate("RKL", policy, _unknown_batch(S_u), 0.0)


def wce_regularizer(
    policy: SoftmaxPolicy, S_u: list[LoggedUnknownSample], tau: float = 0.0
) -> float:
    """Truncated weighted cross-entropy: per action group, mean of -max(tau, p) log pi."""
    return _estimate("WCE", policy, _unknown_batch(S_u), tau)


def combined_objective(
    policy: SoftmaxPolicy,
    S: list[LoggedKnownSample],
    S_u: list[LoggedUnknownSample],
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
    reg = _estimate(variant, policy, _unknown_batch(S_u), trunc.tau) if alpha < 1.0 else 0.0
    return alpha * risk + (1.0 - alpha) * reg


def pseudo_reward_objective(
    policy: SoftmaxPolicy,
    S: list[LoggedKnownSample],
    S_u_aug: list[AugmentedSample],
    alpha: float,
    trunc: TruncationParams = TruncationParams(),
) -> float:
    """Pseudo-reward risk: truncated IPS over S plus pseudo-reward IPS over the
    augmented set, scaled by alpha/(n+m), plus (1 - alpha) times the WCE
    regularizer over the union (action groups computed on the union).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    rows = concat_rows(stack_known(S), stack_unknown(S_u_aug) if S_u_aug else None)
    args = (_log_pi(policy, rows), rows.actions, rows.propensities, rows.rewards)
    ips, _ = _ips_rows(*args, trunc.zeta)
    wce, _ = _wce_rows(*args, trunc.tau)
    return alpha * float(np.sum(ips)) + (1.0 - alpha) * float(np.sum(wce))
