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

import time
from dataclasses import dataclass, field

import numpy as np

from .data import AugmentedSample, LoggedKnownSample, LoggedUnknownSample
from .estimators import (
    ROW_TERMS,
    KnownBatch,
    TruncationParams,
    UnknownBatch,
    concat_rows,
    stack_known,
    stack_unknown,
)
from .policy import PolicyGradient, SoftmaxPolicy, log_softmax, softmax
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
    policy: SoftmaxPolicy, rows: KnownBatch, parts
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
    policy: SoftmaxPolicy, batch: KnownBatch, zeta: float
) -> tuple[float, PolicyGradient]:
    """Value and gradient of (1/n) sum r_i pi(a_i|x_i) / max(zeta, p_i)."""
    (value,), grad = _value_and_grad(policy, batch, [("IPS", _ALL_ROWS, 1.0, zeta)])
    return value, grad


def grad_wce(
    policy: SoftmaxPolicy, batch: UnknownBatch, tau: float
) -> tuple[float, PolicyGradient]:
    """Value and gradient of the truncated weighted cross-entropy regularizer."""
    rows = concat_rows(None, batch)
    (value,), grad = _value_and_grad(policy, rows, [("WCE", _ALL_ROWS, 1.0, tau)])
    return value, grad


def grad_kl(
    policy: SoftmaxPolicy, batch: UnknownBatch, tau: float
) -> tuple[float, PolicyGradient]:
    """Value and gradient of the truncated forward-KL regularizer."""
    rows = concat_rows(None, batch)
    (value,), grad = _value_and_grad(policy, rows, [("KL", _ALL_ROWS, 1.0, tau)])
    return value, grad


def grad_pseudo_reward(
    policy: SoftmaxPolicy,
    known: KnownBatch,
    aug: UnknownBatch | None,
    alpha: float,
    trunc: TruncationParams,
) -> tuple[float, float, PolicyGradient]:
    """(ips_term, wce_term, gradient) of the pseudo-reward objective on one batch pair.

    Both terms cover the union of the two batches, so the regularizer groups
    actions over it.
    """
    parts = [("IPS", _ALL_ROWS, alpha, trunc.zeta), ("WCE", _ALL_ROWS, 1.0 - alpha, trunc.tau)]
    (ips_term, wce_term), grad = _value_and_grad(policy, concat_rows(known, aug), parts)
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
    S: list[LoggedKnownSample],
    S_u: list[LoggedUnknownSample | AugmentedSample],
    cfg: TrainConfig,
    init: SoftmaxPolicy,
    regularizer: str,
    pooled: bool,
) -> tuple[SoftmaxPolicy, TrainTrace]:
    """Minibatch descent on alpha * truncated IPS + (1 - alpha) * regularizer.

    Each step draws known rows, then unknown rows, and takes one gradient
    step on the two together.  Pooled, both terms cover every row of the
    minibatch; otherwise IPS covers the known rows and the regularizer the
    unknown rows.
    """
    if cfg.alpha > 0.0 and not S:
        raise ValueError("alpha > 0 requires a nonempty known-reward dataset")
    if cfg.alpha < 1.0 and not (S_u or (pooled and S)):
        raise ValueError("alpha < 1 requires a nonempty unknown-reward dataset")
    rows = concat_rows(stack_known(S) if S else None, stack_unknown(S_u) if S_u else None)
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
        batch = KnownBatch(rows.contexts[idx], rows.actions[idx],
                           rows.propensities[idx], rows.rewards[idx])
        (ips_value, reg_value), grad = _value_and_grad(policy, batch, parts)
        policy.apply_update(grad, cfg.learning_rate)
        trace.append(step, ips_value, reg_value, grad.norm(),
                     time.perf_counter() - start)
    return policy, trace


def train_wce_crm(
    S: list[LoggedKnownSample],
    S_u: list[LoggedUnknownSample],
    cfg: TrainConfig,
    init: SoftmaxPolicy,
) -> tuple[SoftmaxPolicy, TrainTrace]:
    """Minibatch descent on alpha * truncated IPS + (1 - alpha) * truncated WCE."""
    return _descend(S, S_u, cfg, init, "WCE", pooled=False)


def train_kl_crm(
    S: list[LoggedKnownSample],
    S_u: list[LoggedUnknownSample],
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


def fit_reward_regressor(
    S: list[LoggedKnownSample], action_count: int, ridge: float = 1e-8
) -> RewardRegressor:
    """Propensity-weighted least squares in closed form (normal equations).

    Minimizes (1/P) sum p_i (r_i - phi_i . beta)^2 + ridge * |beta|^2 with
    P = sum p_i; the tiny ridge keeps rank-deficient designs solvable, including
    the one-hot column of an action that no row of S took.
    """
    batch = stack_known(S)
    total_p = float(np.sum(batch.propensities))
    if total_p <= 0.0:
        raise ValueError("propensity weights sum to zero")
    d = batch.contexts.shape[1]
    reg = RewardRegressor(np.zeros(d + action_count + 1), d, action_count)
    phi = reg.features(batch.contexts, batch.actions)
    w = batch.propensities / total_p
    gram = phi.T @ (w[:, None] * phi) + ridge * np.eye(phi.shape[1])
    rhs = phi.T @ (w * batch.rewards)
    reg.weights = np.linalg.solve(gram, rhs)
    return reg


def predict_pseudo_rewards(
    reg: RewardRegressor, S_u: list[LoggedUnknownSample]
) -> list[AugmentedSample]:
    """Pseudo-rewards clamped into the valid reward range [-1, 0]."""
    batch = stack_unknown(S_u)
    preds = np.clip(reg.predict_batch(batch.contexts, batch.actions), -1.0, 0.0)
    return [
        AugmentedSample(s.context, s.action, s.propensity, float(r))
        for s, r in zip(S_u, preds)
    ]


def train_pr_crm(
    S: list[LoggedKnownSample],
    S_u: list[LoggedUnknownSample],
    cfg: TrainConfig,
    init: SoftmaxPolicy,
) -> tuple[SoftmaxPolicy, TrainTrace]:
    """Fit the reward regressor on S, augment S_u with pseudo-rewards, then run
    minibatch descent on the pseudo-reward objective.
    """
    aug = []
    if S_u:
        aug = predict_pseudo_rewards(fit_reward_regressor(S, init.action_count), S_u)
    return _descend(S, aug, cfg, init, "WCE", pooled=True)


TRAINERS = {"WCE": train_wce_crm, "KL": train_kl_crm, "PR": train_pr_crm}
