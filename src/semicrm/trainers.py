"""Training for WCE-CRM, KL-CRM and PR-CRM, plus the reward regressor.

Every objective is alpha times the truncated IPS term plus (1 - alpha) times a
regularizer term, both taken from :data:`semicrm.estimators.ROW_TERMS`.  A row
term gives per-row values and factors d value / d log pi(a_i|x_i), and a factor
f_i moves the scores of row i by f_i (e_a - pi(.|x_i)).  So one forward and one
backward over a minibatch of known rows followed by unknown rows yield the
value and gradient of the whole objective.  WCE-CRM and KL-CRM put the IPS term
on the known rows and the regularizer on the unknown rows; PR-CRM puts the IPS
and WCE terms on all rows, the unknown ones carrying pseudo-rewards.
:data:`TRAINERS` maps each algorithm name to its trainer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import BanditLog
from .estimators import ROW_TERMS, TruncationParams
from .policy import (
    DimensionMismatchError,
    PolicyGradient,
    SoftmaxPolicy,
    log_softmax,
    softmax,
)
from .rng import make_rng


@dataclass
class TrainConfig:
    alpha: float = 0.9
    trunc: TruncationParams = field(default_factory=TruncationParams)
    epochs: int = 1000  # minibatch steps, not passes over the data
    batch_known: int = 64
    batch_unknown: int = 256
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
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
    """Per-step objective pieces; written as CSV epoch,ips_term,reg_term,grad_norm,seconds."""

    epochs: list[int] = field(default_factory=list)
    ips_terms: list[float] = field(default_factory=list)
    reg_terms: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def append(self, epoch, ips_term, reg_term, grad_norm, secs) -> None:
        self.epochs.append(epoch)
        self.ips_terms.append(ips_term)
        self.reg_terms.append(reg_term)
        self.grad_norms.append(grad_norm)
        self.seconds.append(secs)

    def write_csv(self, path) -> None:
        lines = ["epoch,ips_term,reg_term,grad_norm,seconds"]
        for row in zip(self.epochs, self.ips_terms, self.reg_terms,
                       self.grad_norms, self.seconds):
            lines.append(f"{row[0]},{row[1]:.17g},{row[2]:.17g},{row[3]:.17g},{row[4]:.6f}")
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def _dscores(probs: np.ndarray, actions: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Assemble dL/dscores when dL/dscores_row = factor * (e_a - probs_row)."""
    ds = -factors[:, None] * probs
    ds[np.arange(len(actions)), actions] += factors
    return ds


_ALL_ROWS = slice(None)


def _value_and_grad(
    policy: SoftmaxPolicy, rows: BanditLog, parts
) -> tuple[list[float], PolicyGradient]:
    """Values and gradient of sum_j scale_j * term_j over one batch of rows.

    ``parts`` lists (term name, row slice, scale, floor); each term covers its
    slice of ``rows``.  The values come back unscaled.  One forward and one
    backward serve every term.
    """
    scores, cache = policy.forward(rows.contexts)
    probs = softmax(scores)
    log_pi = log_softmax(scores, rows.actions)
    factors = np.zeros(len(rows))
    values = []
    for term, part, scale, floor in parts:
        value, factor = ROW_TERMS[term](
            log_pi[part], rows.actions[part], rows.propensities[part],
            rows.rewards[part], floor,
        )
        factors[part] += scale * factor
        values.append(float(np.sum(value)))
    return values, policy.backward(cache, _dscores(probs, rows.actions, factors))


def grad_truncated_ips(
    policy: SoftmaxPolicy, batch: BanditLog, zeta: float
) -> tuple[float, PolicyGradient]:
    """Value and gradient of (1/n) sum r_i pi(a_i|x_i) / max(zeta, p_i)."""
    (value,), grad = _value_and_grad(policy, batch, [("IPS", _ALL_ROWS, 1.0, zeta)])
    return value, grad


def grad_wce(
    policy: SoftmaxPolicy, batch: BanditLog, tau: float
) -> tuple[float, PolicyGradient]:
    """Value and gradient of the truncated weighted cross-entropy regularizer."""
    (value,), grad = _value_and_grad(policy, batch, [("WCE", _ALL_ROWS, 1.0, tau)])
    return value, grad


def grad_kl(
    policy: SoftmaxPolicy, batch: BanditLog, tau: float
) -> tuple[float, PolicyGradient]:
    """Value and gradient of the truncated forward-KL regularizer."""
    (value,), grad = _value_and_grad(policy, batch, [("KL", _ALL_ROWS, 1.0, tau)])
    return value, grad


def grad_pseudo_reward(
    policy: SoftmaxPolicy,
    known: BanditLog,
    aug: BanditLog,
    alpha: float,
    trunc: TruncationParams,
) -> tuple[float, float, PolicyGradient]:
    """(ips_term, wce_term, gradient) of the pseudo-reward objective on one batch pair.

    Both terms cover the union of the two batches, so the regularizer groups
    actions over it.
    """
    parts = [("IPS", _ALL_ROWS, alpha, trunc.zeta), ("WCE", _ALL_ROWS, 1.0 - alpha, trunc.tau)]
    (ips_term, wce_term), grad = _value_and_grad(policy, known.concat(aug), parts)
    return ips_term, wce_term, grad


# ---- the training loop -----------------------------------------------------


def _sample_indices(rng: np.random.Generator, size: int, batch: int) -> np.ndarray:
    """Without-replacement draw, returned sorted so reduction order is canonical."""
    if batch > size:
        raise ValueError(f"batch size {batch} exceeds dataset size {size}")
    if batch == size:
        return np.arange(size)
    return np.sort(rng.permutation(size)[:batch])


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
    step on the two together.  Pooled, both terms cover every row of the
    minibatch; otherwise IPS covers the known rows and the regularizer the
    unknown rows.  Raises :class:`TrainingDiverged` at the first step whose
    term values or gradient norm are not finite.
    """
    if cfg.alpha > 0.0 and not len(S):
        raise ValueError("alpha > 0 requires a nonempty known-reward dataset")
    if cfg.alpha < 1.0 and not (len(S_u) or (pooled and len(S))):
        raise ValueError("alpha < 1 requires a nonempty unknown-reward dataset")
    if init.action_count < S.action_count:
        raise DimensionMismatchError("initial policy action count",
                                     S.action_count, init.action_count)
    rows = S.concat(S_u)
    n_known, n_unknown = len(S), len(S_u)
    batch_known = min(cfg.batch_known, n_known)
    batch_unknown = min(cfg.batch_unknown, n_unknown)
    known = _ALL_ROWS if pooled else slice(0, batch_known)
    unknown = _ALL_ROWS if pooled else slice(batch_known, None)
    parts = [("IPS", known, cfg.alpha, cfg.trunc.zeta),
             (regularizer, unknown, 1.0 - cfg.alpha, cfg.trunc.tau)]
    policy = init.copy()
    trace = TrainTrace()
    rng = make_rng(cfg.seed)
    for step in range(cfg.epochs):
        start = time.perf_counter()
        idx_known = _sample_indices(rng, n_known, batch_known)
        idx_unknown = _sample_indices(rng, n_unknown, batch_unknown)
        idx = np.concatenate([idx_known, n_known + idx_unknown])
        (ips_value, reg_value), grad = _value_and_grad(policy, rows.take(idx), parts)
        grad_norm = grad.norm()
        if not all(map(math.isfinite, (ips_value, reg_value, grad_norm))):
            raise TrainingDiverged(step, f"ips_term={ips_value}, reg_term={reg_value}, "
                                         f"grad_norm={grad_norm}")
        policy.apply_update(grad, cfg.learning_rate)
        trace.append(step, ips_value, reg_value, grad_norm, time.perf_counter() - start)
    if not all(np.all(np.isfinite(a)) for a in policy.weights + policy.biases):
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
    input_dim: int
    action_count: int

    def features(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        contexts = np.atleast_2d(contexts)
        n = len(contexts)
        onehot = np.zeros((n, self.action_count))
        onehot[np.arange(n), actions] = 1.0
        return np.hstack([contexts, onehot, np.ones((n, 1))])

    def predict(self, context: np.ndarray, action: int) -> float:
        phi = self.features(np.asarray(context)[None, :], np.array([action]))
        return float((phi @ self.weights)[0])

    def predict_batch(self, contexts: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return self.features(contexts, actions) @ self.weights


def fit_reward_regressor(S: BanditLog, ridge: float = 1e-8) -> RewardRegressor:
    """Propensity-weighted least squares in closed form (normal equations).

    Minimizes (1/P) sum p_i (r_i - phi_i . beta)^2 + ridge * |beta|^2 with
    P = sum p_i over the rewarded rows S.  The one-hot block has a column for
    each of ``S.action_count`` actions; the tiny ridge keeps rank-deficient
    designs solvable, including the column of an action that no row of S took.
    """
    total_p = float(np.sum(S.propensities))
    if total_p <= 0.0:
        raise ValueError("propensity weights sum to zero")
    reg = RewardRegressor(np.zeros(S.dim + S.action_count + 1), S.dim, S.action_count)
    phi = reg.features(S.contexts, S.actions)
    w = S.propensities / total_p
    gram = phi.T @ (w[:, None] * phi) + ridge * np.eye(phi.shape[1])
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
    aug = S_u
    if len(S_u):
        aug = predict_pseudo_rewards(fit_reward_regressor(S), S_u)
    return _descend(S, aug, cfg, init, "WCE", pooled=True)


TRAINERS = {"WCE": train_wce_crm, "KL": train_kl_crm, "PR": train_pr_crm}
