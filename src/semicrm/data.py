"""Logged bandit data model, CSV format, and the supervised-to-bandit pipeline."""

from __future__ import annotations

import math
import warnings
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


# rows per stacked forward in supervised_to_bandit: bounds its activations
# (about 0.4 MB a block at the default widths); its speed is flat from 512
# to 8192 rows
TO_BANDIT_BLOCK = 1024


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
    n, k = len(ds), logging_policy.action_count
    u = rng.random(n)  # the same stream as n calls to rng.random()
    actions = np.zeros(n, dtype=int)
    propensities = np.zeros(n)
    for start in range(0, n, TO_BANDIT_BLOCK):
        block = slice(start, start + TO_BANDIT_BLOCK)
        # probs, not probs_batch: each propensity is then probs(x)[a] exactly
        P = logging_policy.probs(ds.features[block])
        # inverse CDF: searchsorted(cumsum(p), u, side="right") for every row
        a = (np.cumsum(P, axis=1) <= u[block, None]).sum(axis=1).clip(0, k - 1)
        actions[block], propensities[block] = a, P[np.arange(len(a)), a]
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


def drop_action(S: BanditLog, action: int) -> BanditLog:
    """The rows of ``S`` without the given action.

    The action count is kept, so the dropped action stays in the action space.
    """
    return S.take(S.actions != action)


# ---- CSV format ------------------------------------------------------------
#
# Header: x0,...,x{d-1},action,propensity,reward
# Reward-free rows leave the reward field empty.  Values are printed with
# 17 significant digits so a write/read round trip is lossless.  Features and
# rewards must be finite: NaN is how a reward-free row is held in memory.


def _write_csv(path, header: list[str], lines) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def write_bandit_csv(path, log: BanditLog) -> None:
    # one %-template per row; .tolist() first: Python floats format faster
    # than numpy scalars
    rewarded = ",".join(["%.17g"] * log.dim + ["%d", "%.17g", "%.17g"])
    reward_free = rewarded[:-len("%.17g")]
    _write_csv(
        path, [f"x{i}" for i in range(log.dim)] + ["action", "propensity", "reward"],
        (reward_free % (*x, a, p) if math.isnan(r) else rewarded % (*x, a, p, r)
         for x, a, p, r in zip(log.contexts.tolist(), log.actions.tolist(),
                               log.propensities.tolist(), log.rewards.tolist())),
    )


def _read_lines(path):
    """(line number, line) for each non-blank line; blank lines are counted."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def _header(lines, tail: list[str]) -> int:
    """Read the header, which must end with the ``tail`` fields; returns the
    number of feature columns before them."""
    lineno, line = next(lines, (1, None))
    if line is None:
        raise DatasetFormatError(1, "empty file")
    fields = line.split(",")
    if fields[-len(tail):] != tail:
        raise DatasetFormatError(lineno, f"header must end with {','.join(tail)}")
    return len(fields) - len(tail)


def _finite_features(feats: array, linenos: array, d: int) -> np.ndarray:
    """The (n, d) array of the features parsed into ``feats``, row after row;
    a non-finite feature is reported on its row's line, ``linenos[row]``."""
    features = np.array(feats, dtype=float).reshape(len(linenos), d)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):
        raise DatasetFormatError(linenos[bad[0]], "features must be finite")
    return features


def _numpy_columns(path, d: int, tail: list, converters=None) -> list | None:
    """The features, then the ``tail`` fields, of every row after the header
    as contiguous arrays from one ``np.loadtxt`` parse.  None sends the file to
    the line parser: when numpy refuses it or warns (numpy's grammar is
    stricter than ``float()``/``int()``; a file with no rows warns, and numpy
    1.x only warns on an int written as a float), or when a feature is not
    finite or an action or label negative, so the error gets its line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=[("x", float, (d,)), *tail], delimiter=",",
                              comments=None, skiprows=1, ndmin=1, encoding=None,
                              converters=converters)
    except (ValueError, Warning):
        return None
    columns = [np.array(rows[name]) for name in rows.dtype.names]
    return columns if np.isfinite(columns[0]).all() and (columns[1] >= 0).all() else None


def _reward(field: str) -> float:
    """A reward field: empty for a reward-free row (NaN), else in [-1, 0]."""
    reward = float(field) if field != "" else math.nan
    if field != "" and not -1.0 <= reward <= 0.0:  # also rejects nan and inf
        raise ValueError(f"reward must be in [-1, 0], got {reward}")
    return reward


def _bandit_lines(lines, d: int) -> tuple:
    """The bandit format's line parser: its definition, and the source of
    every line-numbered error."""
    # flat float arrays rather than one list per row: 8 bytes a value
    feats, actions, propensities, rewards = array("d"), [], array("d"), array("d")
    linenos, int64_max = array("l"), np.iinfo(np.int64).max
    for lineno, line in lines:
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
        if action > int64_max:
            raise DatasetFormatError(lineno, f"action index {action} does not fit in int64")
        if not 0.0 < propensity <= 1.0:
            raise DatasetFormatError(lineno, f"propensity must be in (0, 1], got {propensity}")
        try:
            reward = _reward(fields[d + 2])
        except ValueError as exc:
            raise DatasetFormatError(lineno, str(exc)) from exc
        actions.append(action)
        propensities.append(propensity)
        rewards.append(reward)
        linenos.append(lineno)
    return _finite_features(feats, linenos, d), actions, propensities, rewards


def read_bandit_csv(path) -> tuple[BanditLog, BanditLog]:
    """Parse a logged dataset into its rewarded rows S and reward-free rows S_u.

    A row with an empty reward field is reward-free; a reward must lie in
    [-1, 0].  The format does not record the action count, so both parts take
    1 + the largest action in the file.
    """
    lines = _read_lines(path)
    d = _header(lines, ["action", "propensity", "reward"])
    columns = _numpy_columns(path, d, [("action", np.int64), ("propensity", float),
                                       ("reward", float)], {d + 2: _reward})
    if columns is None or not ((0.0 < columns[2]) & (columns[2] <= 1.0)).all():
        columns = _bandit_lines(lines, d)
    log = BanditLog(*columns, int(np.max(columns[1], initial=-1)) + 1)
    rewarded = ~np.isnan(log.rewards)
    return log.take(rewarded), log.take(~rewarded)


def write_supervised_csv(path, ds: SupervisedDataset) -> None:
    row = ",".join(["%.17g"] * ds.dim + ["%d"])
    _write_csv(path, [f"x{i}" for i in range(ds.dim)] + ["label"],
               (row % (*x, y) for x, y in zip(ds.features.tolist(), ds.labels.tolist())))


def _supervised_lines(lines, d: int) -> tuple:
    """The supervised format's line parser (see ``_bandit_lines``)."""
    feats, labels, linenos, int64_max = array("d"), [], array("l"), np.iinfo(np.int64).max
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != d + 1:
            raise DatasetFormatError(lineno, f"expected {d + 1} fields, got {len(fields)}")
        try:
            feats.extend([float(v) for v in fields[:d]])
            labels.append(int(fields[d]))
        except ValueError as exc:
            raise DatasetFormatError(lineno, str(exc)) from exc
        if labels[-1] < 0:
            raise DatasetFormatError(lineno, f"negative label {labels[-1]}")
        if labels[-1] > int64_max:
            raise DatasetFormatError(lineno, f"label {labels[-1]} does not fit in int64")
        linenos.append(lineno)
    return _finite_features(feats, linenos, d), np.array(labels)


def read_supervised_csv(path) -> SupervisedDataset:
    lines = _read_lines(path)
    d = _header(lines, ["label"])
    columns = _numpy_columns(path, d, [("label", np.int64)])
    if columns is None:
        columns = _supervised_lines(lines, d)
    return SupervisedDataset(*columns)
