"""Training for WCE-CRM, KL-CRM and PR-CRM, plus the reward regressor.

Every objective is alpha times the truncated IPS term plus (1 - alpha) times a
regularizer term, laid out over a minibatch of known rows followed by unknown
rows by :func:`semicrm.estimators.objective_parts`; one call to
:func:`semicrm.estimators.value_and_grad` on the gathered minibatch gives its
value and gradient.  WCE-CRM and KL-CRM put the IPS term on the known rows
and the regularizer on the unknown rows; PR-CRM puts the IPS and WCE terms on
all rows, the unknown ones carrying pseudo-rewards.  :data:`TRAINERS` maps
each algorithm name to its trainer.  The logging policy's cross-entropy fit
(:func:`semicrm.harness.train_logging_policy`) runs the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import BanditLog, write_lines
from .estimators import (check_floor, check_nonempty, check_rewarded, objective_parts,
                         value_and_grad)
from .policy import DimensionMismatchError, SoftmaxPolicy
from .rng import make_rng


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  Each field is a ``semicrm train`` flag and, but for
    alpha, tau and seed, a sweep ``train.*`` key; both parse a value with its
    default's type, so a field must be an int or a float (``bool("false")`` is True)."""

    alpha: float = 0.9
    zeta: float = field(default=0.0, metadata={"help": "propensity floor of the IPS term"})
    tau: float = field(default=0.0, metadata={"help": "propensity floor of the regularizer"})
    epochs: int = field(default=1000,
                        metadata={"help": "number of minibatch steps (not passes over the data)"})
    batch_known: int = 64
    batch_unknown: int = 256
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        check_floor("zeta", self.zeta)
        check_floor("tau", self.tau)
        if self.epochs <= 0 or self.batch_known <= 0 or self.batch_unknown <= 0:
            raise ValueError("epochs and batch sizes must be positive")
        if self.learning_rate <= 0 or not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


class TrainingDiverged(ValueError):
    """The objective, its gradient or the parameters stopped being finite."""

    def __init__(self, step: int, what: str):
        self.step = step
        super().__init__(f"training diverged at step {step}: {what}")


@dataclass
class TrainTrace:
    """Per-step objective pieces; written as CSV epoch,ips_term,reg_term,grad_norm."""

    ips_terms: list[float] = field(default_factory=list)
    reg_terms: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)

    def write_csv(self, path) -> None:
        lines = ["epoch,ips_term,reg_term,grad_norm"]
        for epoch, (ips, reg, norm) in enumerate(zip(self.ips_terms, self.reg_terms,
                                                     self.grad_norms)):
            lines.append(f"{epoch},{ips:.17g},{reg:.17g},{norm:.17g}")
        write_lines(path, lines)


# ---- the training loop -----------------------------------------------------


def _sample_indices(rng: np.random.Generator, size: int, batch: int) -> np.ndarray:
    """Without-replacement draw in O(batch), sorted so reduction order is canonical."""
    if batch > size:
        raise ValueError(f"batch size {batch} exceeds dataset size {size}")
    if batch == size:
        return np.arange(size)
    return np.sort(rng.choice(size, batch, replace=False, shuffle=False))


def _descend(
    S: BanditLog,
    S_u: BanditLog,
    cfg: TrainConfig,
    init: SoftmaxPolicy,
    regularizer: str,
    pooled: bool,
) -> tuple[SoftmaxPolicy, TrainTrace]:
    """Minibatch descent on alpha * truncated IPS + (1 - alpha) * regularizer.

    Each step draws known rows, then unknown rows, and takes one gradient
    step on the two together, with the terms laid out by
    :func:`objective_parts`.  Raises :class:`TrainingDiverged` at the first
    step whose term values or gradient norm are not finite.
    """
    check_nonempty(cfg.alpha, S, S_u, pooled)
    if init.action_count < S.action_count:
        raise DimensionMismatchError("initial policy action count",
                                     S.action_count, init.action_count)
    rows = S.concat(S_u)
    check_rewarded((rows if pooled else S).rewards)
    columns = (rows.contexts, rows.actions, rows.propensities, rows.rewards)
    n_known, n_unknown = len(S), len(S_u)
    batch_known = min(cfg.batch_known, n_known)
    batch_unknown = min(cfg.batch_unknown, n_unknown)
    parts = objective_parts(regularizer, cfg.alpha, batch_known, cfg.zeta, cfg.tau, pooled)
    policy = init.copy()
    trace = TrainTrace()
    rng = make_rng(cfg.seed)
    for step in range(cfg.epochs):
        idx_known = _sample_indices(rng, n_known, batch_known)
        idx_unknown = _sample_indices(rng, n_unknown, batch_unknown)
        idx = np.concatenate([idx_known, n_known + idx_unknown])
        (ips_value, reg_value), grad = value_and_grad(
            policy, *(column.take(idx, axis=0) for column in columns), parts)
        grad_norm = grad.norm()
        if not all(map(math.isfinite, (ips_value, reg_value, grad_norm))):
            raise TrainingDiverged(step, f"ips_term={ips_value}, reg_term={reg_value}, "
                                         f"grad_norm={grad_norm}")
        policy.apply_update(grad, cfg.learning_rate)
        trace.ips_terms.append(ips_value)
        trace.reg_terms.append(reg_value)
        trace.grad_norms.append(grad_norm)
    if not np.all(np.isfinite(policy.flat)):
        raise TrainingDiverged(cfg.epochs - 1, "the update left non-finite parameters")
    return policy, trace


def train_wce_crm(
    S: BanditLog,
    S_u: BanditLog,
    cfg: TrainConfig,
    init: SoftmaxPolicy,
) -> tuple[SoftmaxPolicy, TrainTrace]:
    """Minibatch descent on alpha * truncated IPS + (1 - alpha) * truncated WCE."""
    return _descend(S, S_u, cfg, init, "WCE", pooled=False)


def train_kl_crm(
    S: BanditLog,
    S_u: BanditLog,
    cfg: TrainConfig,
    init: SoftmaxPolicy,
) -> tuple[SoftmaxPolicy, TrainTrace]:
    """As WCE-CRM with the forward-KL regularizer in place of WCE."""
    return _descend(S, S_u, cfg, init, "KL", pooled=False)


# ---- pseudo-reward pipeline ------------------------------------------------


@dataclass
class RewardRegressor:
    """Linear reward model over phi(x, a) = context (+) one-hot action (+) bias."""

    weights: np.ndarray
    action_count: int

    def features(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        n = len(contexts)
        onehot = np.zeros((n, self.action_count))
        onehot[np.arange(n), actions] = 1.0
        return np.hstack([contexts, onehot, np.ones((n, 1))])

    def predict_batch(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return self.features(contexts, actions) @ self.weights


RIDGE = 1e-8


def fit_reward_regressor(S: BanditLog) -> RewardRegressor:
    """Propensity-weighted least squares in closed form (normal equations).

    Minimizes (1/P) sum p_i (r_i - phi_i . beta)^2 + RIDGE * |beta|^2 with
    P = sum p_i over the rewarded rows S.  The one-hot block has a column for
    each of ``S.action_count`` actions; the tiny ridge keeps rank-deficient
    designs solvable, including the column of an action that no row of S took.
    """
    if not len(S):
        raise ValueError("the reward regressor needs a nonempty known-reward dataset")
    total_p = float(np.sum(S.propensities))  # > 0: every propensity lies in (0, 1]
    reg = RewardRegressor(np.zeros(S.dim + S.action_count + 1), S.action_count)
    phi = reg.features(S.contexts, S.actions)
    w = S.propensities / total_p
    gram = phi.T @ (w[:, None] * phi) + RIDGE * np.eye(phi.shape[1])
    rhs = phi.T @ (w * S.rewards)
    reg.weights = np.linalg.solve(gram, rhs)
    return reg


def predict_pseudo_rewards(reg: RewardRegressor, S_u: BanditLog) -> BanditLog:
    """S_u with its rewards set to predictions clamped into the range [-1, 0]."""
    return S_u.with_rewards(np.clip(reg.predict_batch(S_u.contexts, S_u.actions), -1.0, 0.0))


def train_pr_crm(
    S: BanditLog,
    S_u: BanditLog,
    cfg: TrainConfig,
    init: SoftmaxPolicy,
) -> tuple[SoftmaxPolicy, TrainTrace]:
    """Fit the reward regressor on S, give S_u pseudo-rewards, then run
    minibatch descent on the pseudo-reward objective.
    """
    check_nonempty(cfg.alpha, S, S_u, pooled=True)
    aug = S_u
    if len(S_u):
        aug = predict_pseudo_rewards(fit_reward_regressor(S), S_u)
    return _descend(S, aug, cfg, init, "WCE", pooled=True)


TRAINERS = {"WCE": train_wce_crm, "KL": train_kl_crm, "PR": train_pr_crm}
