"""Logged bandit data model, CSV format, and the supervised-to-bandit pipeline."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .policy import SoftmaxPolicy


@dataclass(frozen=True, eq=False)
class BanditLog:
    """Logged bandit rows (x_i, a_i, p_i, r_i) as columns.

    A reward-free row has reward NaN; a pseudo-reward is written into the same
    column.  ``action_count`` is the size of the action space the log was
    drawn over, whether or not every action occurs in it.
    """

    contexts: np.ndarray      # (n, d)
    actions: np.ndarray       # (n,)
    propensities: np.ndarray  # (n,)
    rewards: np.ndarray       # (n,), NaN where the reward is unknown
    action_count: int

    def __post_init__(self):
        object.__setattr__(self, "contexts", np.asarray(self.contexts, dtype=float))
        object.__setattr__(self, "actions", np.asarray(self.actions, dtype=int))
        object.__setattr__(self, "propensities", np.asarray(self.propensities, dtype=float))
        object.__setattr__(self, "rewards", np.asarray(self.rewards, dtype=float))
        n = len(self.actions)
        if self.contexts.ndim != 2 or len(self.contexts) != n or any(
            column.shape != (n,) for column in (self.actions, self.propensities, self.rewards)
        ):
            raise ValueError("contexts must be (n, d) with one action, propensity "
                             "and reward per row")
        if n and not 0 <= self.actions.min() <= self.actions.max() < self.action_count:
            raise ValueError(f"actions must lie in [0, {self.action_count})")

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def dim(self) -> int:
        return self.contexts.shape[1]

    @property
    def propensitys(self) -> np.ndarray:
        """Alias of ``propensities``: ``bench/workloads.py`` looks a column up
        as its field name plus "s".  Remove it once the benchmark does not."""
        return self.propensities

    def take(self, idx) -> "BanditLog":
        """The rows at ``idx`` (indices or a boolean mask), in that order."""
        return BanditLog(self.contexts[idx], self.actions[idx], self.propensities[idx],
                         self.rewards[idx], self.action_count)

    def concat(self, other: "BanditLog") -> "BanditLog":
        """These rows followed by the rows of ``other``."""
        if other.action_count != self.action_count:
            raise ValueError(f"action counts differ: {self.action_count} "
                             f"and {other.action_count}")
        return BanditLog(
            np.concatenate([self.contexts, other.contexts]),
            np.concatenate([self.actions, other.actions]),
            np.concatenate([self.propensities, other.propensities]),
            np.concatenate([self.rewards, other.rewards]),
            self.action_count,
        )

    def with_rewards(self, rewards) -> "BanditLog":
        """The same rows with ``rewards`` (a column, or one value for every row)."""
        return replace(self, rewards=np.broadcast_to(rewards, len(self)).astype(float))


@dataclass
class SupervisedDataset:
    """Classification data (features, integer labels) used to synthesize logs."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2 or len(self.labels) != len(self.features):
            raise ValueError("features must be (N, d) with one label per row")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def subset(self, idx: np.ndarray) -> "SupervisedDataset":
        return SupervisedDataset(self.features[idx], self.labels[idx])


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the 1-based offending line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


def supervised_to_bandit(
    ds: SupervisedDataset,
    logging_policy: SoftmaxPolicy,
    rng: np.random.Generator,
) -> BanditLog:
    """Turn classification rows into logged bandit feedback.

    For each row an action is sampled from the logging policy, the propensity
    is that action's probability, and the reward is -1 when the action matches
    the label and 0 otherwise.  The log has the logging policy's action count.
    """
    if logging_policy.input_dim != ds.dim:
        raise ValueError(
            f"logging policy expects d={logging_policy.input_dim}, data has d={ds.dim}"
        )
    if logging_policy.action_count < ds.num_classes:
        raise ValueError(
            f"logging policy has {logging_policy.action_count} actions, "
            f"data has {ds.num_classes} classes"
        )
    actions = np.zeros(len(ds), dtype=int)
    propensities = np.zeros(len(ds))
    for i in range(len(ds)):
        # per-row evaluation so the stored propensity matches probs(x)[a] exactly
        p = logging_policy.probs(ds.features[i].copy())
        u = rng.random()
        a = int(np.searchsorted(np.cumsum(p), u, side="right").clip(0, len(p) - 1))
        actions[i], propensities[i] = a, p[a]
    rewards = np.where(actions == ds.labels, -1.0, 0.0)
    return BanditLog(ds.features.copy(), actions, propensities, rewards,
                     logging_policy.action_count)


def mask_rewards(
    S: BanditLog,
    keep_fraction: float,
    rng: np.random.Generator,
    stratify_by_action: bool = False,
) -> tuple[BanditLog, BanditLog]:
    """Partition the log into rewarded rows S and reward-free rows S_u.

    A uniformly random subset of round(keep_fraction * |S|) rows keeps its
    reward; the rest drop it (reward NaN).  With ``stratify_by_action`` the
    split is done per action group instead (same keep rate within each
    action).  Both parts keep the row order and the action count of ``S``.
    """
    if not 0.0 <= keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in [0, 1], got {keep_fraction}")
    n = len(S)
    keep_mask = np.zeros(n, dtype=bool)
    if stratify_by_action:
        for a in np.unique(S.actions):
            idx = np.flatnonzero(S.actions == a)
            n_keep = int(round(keep_fraction * len(idx)))
            chosen = rng.permutation(len(idx))[:n_keep]
            keep_mask[idx[chosen]] = True
    else:
        n_keep = int(round(keep_fraction * n))
        keep_mask[rng.permutation(n)[:n_keep]] = True
    return S.take(keep_mask), S.take(~keep_mask).with_rewards(np.nan)


def drop_action(
    S_known: BanditLog,
    S_unknown: BanditLog,
    action: int,
) -> tuple[BanditLog, BanditLog]:
    """Remove every rewarded row with the given action; reward-free rows untouched.

    The action count is kept, so the dropped action stays in the action space.
    """
    return S_known.take(S_known.actions != action), S_unknown


# ---- CSV format ------------------------------------------------------------
#
# Header: x0,...,x{d-1},action,propensity,reward
# Reward-free rows leave the reward field empty.  Values are printed with
# 17 significant digits so a write/read round trip is lossless.  Features and
# rewards must be finite: NaN is how a reward-free row is held in memory.


def write_bandit_csv(path, log: BanditLog) -> None:
    header = ",".join([f"x{i}" for i in range(log.dim)] + ["action", "propensity", "reward"])
    lines = [header]
    for x, a, p, r in zip(log.contexts.tolist(), log.actions.tolist(),
                          log.propensities.tolist(), log.rewards.tolist()):
        feats = ",".join(f"{v:.17g}" for v in x)
        reward = "" if math.isnan(r) else f"{r:.17g}"
        lines.append(f"{feats},{a},{p:.17g},{reward}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path) -> list[str]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines:
        raise DatasetFormatError(1, "empty file")
    return lines


def _finite_features(feats: array, n: int, d: int) -> np.ndarray:
    """The (n, d) array of the features parsed into ``feats``, row after row.

    A non-finite feature is reported on its row's line; row i is line i + 2.
    """
    features = np.array(feats, dtype=float).reshape(n, d)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        raise DatasetFormatError(int(bad[0]) + 2, "features must be finite")
    return features


def read_bandit_csv(path, validate_reward_range: bool = True) -> tuple[BanditLog, BanditLog]:
    """Parse a logged dataset into its rewarded rows S and reward-free rows S_u.

    A row with an empty reward field is reward-free.  The format does not
    record the action count, so both parts take 1 + the largest action in the
    file.  Set ``validate_reward_range=False`` to accept finite rewards outside
    [-1, 0] (general [c, b] data for the bounds module).
    """
    lines = _read_lines(path)
    header = lines[0].split(",")
    if header[-3:] != ["action", "propensity", "reward"]:
        raise DatasetFormatError(1, "header must end with action,propensity,reward")
    d = len(header) - 3
    # flat float arrays rather than one list per row: 8 bytes a value
    feats, actions, propensities, rewards = array("d"), [], array("d"), array("d")
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != d + 3:
            raise DatasetFormatError(lineno, f"expected {d + 3} fields, got {len(fields)}")
        try:
            feats.extend([float(v) for v in fields[:d]])
            action = int(fields[d])
            propensity = float(fields[d + 1])
        except ValueError as exc:
            raise DatasetFormatError(lineno, str(exc)) from exc
        if action < 0:
            raise DatasetFormatError(lineno, f"negative action index {action}")
        if not 0.0 < propensity <= 1.0:
            raise DatasetFormatError(lineno, f"propensity must be in (0, 1], got {propensity}")
        reward = math.nan
        if fields[d + 2] != "":
            try:
                reward = float(fields[d + 2])
            except ValueError as exc:
                raise DatasetFormatError(lineno, str(exc)) from exc
            if not math.isfinite(reward):
                raise DatasetFormatError(lineno, f"reward must be finite, got {reward}")
            if validate_reward_range and not -1.0 <= reward <= 0.0:
                raise DatasetFormatError(lineno, f"reward must be in [-1, 0], got {reward}")
        actions.append(action)
        propensities.append(propensity)
        rewards.append(reward)
    log = BanditLog(_finite_features(feats, len(actions), d), actions, propensities,
                    rewards, max(actions, default=-1) + 1)
    rewarded = ~np.isnan(log.rewards)
    return log.take(rewarded), log.take(~rewarded)


def write_supervised_csv(path, ds: SupervisedDataset) -> None:
    header = ",".join([f"x{i}" for i in range(ds.dim)] + ["label"])
    lines = [header]
    for x, y in zip(ds.features, ds.labels):
        lines.append(",".join(f"{v:.17g}" for v in x) + f",{y}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_supervised_csv(path) -> SupervisedDataset:
    lines = _read_lines(path)
    header = lines[0].split(",")
    if header[-1] != "label":
        raise DatasetFormatError(1, "header must end with label")
    d = len(header) - 1
    feats, labels = array("d"), []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != d + 1:
            raise DatasetFormatError(lineno, f"expected {d + 1} fields, got {len(fields)}")
        try:
            feats.extend([float(v) for v in fields[:d]])
            labels.append(int(fields[d]))
        except ValueError as exc:
            raise DatasetFormatError(lineno, str(exc)) from exc
    return SupervisedDataset(_finite_features(feats, len(labels), d), np.array(labels))
