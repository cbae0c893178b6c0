"""Logged bandit data model, CSV format, and the supervised-to-bandit pipeline."""

from __future__ import annotations

import math
import os
import warnings
from array import array
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .policy import SoftmaxPolicy


@dataclass(frozen=True, eq=False)
class BanditLog:
    """Logged bandit rows (x_i, a_i, p_i, r_i) as columns.

    Contexts are finite, propensities (the logging policy's probabilities) lie
    in (0, 1] and rewards in [-1, 0]; a reward-free row has reward NaN, and a
    pseudo-reward is written into the same column.  ``action_count`` is the
    size of the action space the log was drawn over, whether or not every
    action occurs in it.  Each column is a read-only view, so a log's rows
    cannot change through it; the arrays it was built from must not change
    afterwards either, as :meth:`memo` relies on the rows staying put.
    """

    contexts: np.ndarray      # (n, d)
    actions: np.ndarray       # (n,)
    propensities: np.ndarray  # (n,)
    rewards: np.ndarray       # (n,), NaN where the reward is unknown
    action_count: int

    def __post_init__(self):
        for name, dtype in (("contexts", float), ("actions", int),
                            ("propensities", float), ("rewards", float)):
            object.__setattr__(self, name, _read_only(getattr(self, name), dtype))
        object.__setattr__(self, "_memo", None)
        n = len(self.actions)
        if self.contexts.ndim != 2 or len(self.contexts) != n or any(
            column.shape != (n,) for column in (self.actions, self.propensities, self.rewards)
        ):
            raise ValueError("contexts must be (n, d) with one action, propensity "
                             "and reward per row")
        if n and not 0 <= self.actions.min() <= self.actions.max() < self.action_count:
            raise ValueError(f"actions must lie in [0, {self.action_count})")
        if not np.isfinite(self.contexts).all():
            raise ValueError("contexts must be finite")
        if not ((0.0 < self.propensities) & (self.propensities <= 1.0)).all():
            raise ValueError("propensities must lie in (0, 1]")
        if ((self.rewards < -1.0) | (self.rewards > 0.0)).any():  # NaN passes: reward-free
            raise ValueError("rewards must lie in [-1, 0], or be NaN where unknown")

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

    def memo(self, key, compute):
        """``compute()``, kept for the next call with an equal ``key``.  The log
        keeps one (key, value) pair and replaces it on a miss, so the key must
        hold everything the value depends on besides the log's rows."""
        if self._memo is None or self._memo[0] != key:
            object.__setattr__(self, "_memo", (key, compute()))
        return self._memo[1]

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


@dataclass(frozen=True, eq=False)
class SupervisedDataset:
    """Classification data (finite features, nonnegative integer labels) used to
    synthesize logs.  As a :class:`BanditLog`'s, its columns are read-only views
    and the arrays it was built from must not change afterwards: the log that
    :func:`supervised_to_bandit` makes shares its features."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray    # (N,)

    def __post_init__(self):
        object.__setattr__(self, "features", _read_only(self.features, float))
        object.__setattr__(self, "labels", _read_only(self.labels, int))
        if self.features.ndim != 2 or len(self.labels) != len(self.features):
            raise ValueError("features must be (N, d) with one label per row")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if len(self.labels) and self.labels.min() < 0:
            raise ValueError("labels must be nonnegative")

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


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of ``values`` as an array of ``dtype``; the array it views,
    if it is the caller's, stays writable."""
    column = np.asarray(values, dtype=dtype).view()
    column.flags.writeable = False
    return column


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the 1-based offending line number."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


# rows per stacked forward in supervised_to_bandit: bounds its activations
# (about 0.4 MB a block at the default widths); its speed is flat from 512
# to 8192 rows
TO_BANDIT_BLOCK = 1024
# rows per formatted block of a CSV write: on 2 cores a 100k-row write is
# within 15% of its best time for any block from 2048 to 16384 rows
CSV_BLOCK = 4096
# fewest rows a CSV write forks for: on 2 cores a fresh process's first
# write broke even with the serial one at 12k-14k rows and won from 16k
CSV_FORK_ROWS = 16384


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
        # inverse CDF: searchsorted(cumsum(p), u, side="right") for every row; a u
        # at or above the row's float total takes its last positive-probability action
        last_positive = k - 1 - (P[:, ::-1] > 0.0).argmax(axis=1)
        a = np.minimum((np.cumsum(P, axis=1) <= u[block, None]).sum(axis=1), last_positive)
        actions[block], propensities[block] = a, P[np.arange(len(a)), a]
    rewards = np.where(actions == ds.labels, -1.0, 0.0)
    return BanditLog(ds.features, actions, propensities, rewards, logging_policy.action_count)


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
# Writes of CSV_FORK_ROWS rows or more format blocks of CSV_BLOCK rows in
# forked workers, to the same bytes on any CPU count; the rest is serial.

_INHERITED = None  # fn bound to its args by the fork_map that started this worker


def fork_map(fn, items, *args) -> list:
    """``[fn(*args, item) for item in items]``, for several items in forked
    workers, one per CPU in the affinity mask (``taskset``) and at most one per
    item.  ``fn`` and ``args`` reach them through the fork; only items and
    results are pickled.  Where ``os.sched_getaffinity`` is missing (macOS,
    Windows), every item runs in the caller."""
    if len(items) <= 1 or not hasattr(os, "sched_getaffinity"):
        return [fn(*args, item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(len(os.sched_getaffinity(0)), len(items)),
                             multiprocessing.get_context("fork"),
                             initializer=partial(_inherit, fn), initargs=args) as pool:
        return list(pool.map(_call_inherited, items))


def _inherit(fn, *args):
    global _INHERITED
    _INHERITED = partial(fn, *args)


def _call_inherited(item):
    return _INHERITED(item)


def write_lines(path, lines) -> None:
    """Write ``lines`` to ``path``, each ended by "\\n" on every platform."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_blocks(path, header: str, format_rows, data) -> None:
    """``header`` and ``format_rows(data, rows)`` for each block of rows, all
    formatted before the file is opened, so a failure leaves no file."""
    n = len(data)
    blocks = ([slice(0, n)] if n < CSV_FORK_ROWS else
              [slice(start, start + CSV_BLOCK) for start in range(0, n, CSV_BLOCK)])
    formatted = fork_map(format_rows, blocks, data)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(formatted)


def _bandit_rows(log: BanditLog, rows: slice) -> str:
    # one %-template per row; .tolist() first: Python floats format faster
    # than numpy scalars
    fields = ["%.17g"] * log.dim + ["%d", "%.17g"]
    reward_free, rewarded = ",".join(fields) + ",\n", ",".join(fields + ["%.17g"]) + "\n"
    return "".join(
        reward_free % (*x, a, p) if math.isnan(r) else rewarded % (*x, a, p, r)
        for x, a, p, r in zip(log.contexts[rows].tolist(), log.actions[rows].tolist(),
                              log.propensities[rows].tolist(), log.rewards[rows].tolist()))


def write_bandit_csv(path, log: BanditLog) -> None:
    header = ",".join([f"x{i}" for i in range(log.dim)] + ["action", "propensity", "reward"])
    _write_blocks(path, header, _bandit_rows, log)


def _read_lines(path):
    """(line number, line) for each non-blank line; blank lines are counted."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def _read_columns(path, tail: list, converters: dict, build):
    """``build``, a data type's constructor, on the features and then the
    ``tail`` fields (name, dtype, line parser) of every row, as numpy parses
    them (``converters`` keyed by field name) or, when numpy refuses or warns (a
    file with no rows warns; numpy 1.x only warns on an int written as a float)
    or ``build`` rejects its columns, as :func:`_parse_lines` does."""
    lines = _read_lines(path)
    names = [name for name, _, _ in tail]
    lineno, header = next(lines, (1, None))
    if header is None:
        raise DatasetFormatError(1, "empty file")
    if header.split(",")[-len(names):] != names:
        raise DatasetFormatError(lineno, f"header must end with {','.join(names)}")
    d = header.count(",") + 1 - len(names)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, dtype=[("x", float, (d,))] + [(n, t) for n, t, _ in tail],
                              delimiter=",", comments=None, skiprows=1, ndmin=1, encoding=None,
                              converters={d + names.index(k): f for k, f in converters.items()})
        return build(*[np.array(rows[name]) for name in rows.dtype.names])
    except (ValueError, Warning):
        rows = None  # free it; below the handler, the line parser's error is not chained
    return build(*_parse_lines(lines, d, [parse for _, _, parse in tail]))


def _parse_lines(lines, d: int, parsers) -> tuple:
    """The line parser of both formats, with one parser per field after the d
    features: their definition, and the source of every line-numbered error.
    A line's first faulty field in column order is the one reported."""
    # features in a flat float array rather than one list per row: 8 bytes a value
    feats, tails, linenos = array("d"), [[] for _ in parsers], array("l")
    width = d + len(parsers)
    for lineno, line in lines:
        fields = line.split(",")
        if len(fields) != width:
            raise DatasetFormatError(lineno, f"expected {width} fields, got {len(fields)}")
        try:
            feats.extend([float(v) for v in fields[:d]])
            for column, parse, field in zip(tails, parsers, fields[d:]):
                column.append(parse(field))
        except ValueError as exc:
            raise DatasetFormatError(lineno, str(exc)) from exc
        linenos.append(lineno)
    features = np.array(feats, dtype=float).reshape(len(linenos), d)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if len(bad):  # reported on the line of the first row that holds one
        raise DatasetFormatError(linenos[bad[0]], "features must be finite")
    return features, *map(np.array, tails)


def _index(name: str):
    """The parser of a field holding a nonnegative int64, ``name`` in its errors."""
    int64_max = np.iinfo(np.int64).max

    def parse(field: str) -> int:
        value = int(field)
        if value < 0:
            raise ValueError(f"negative {name} {value}")
        if value > int64_max:
            raise ValueError(f"{name} {value} does not fit in int64")
        return value
    return parse


def _propensity(field: str) -> float:
    propensity = float(field)
    if not 0.0 < propensity <= 1.0:
        raise ValueError(f"propensity must be in (0, 1], got {propensity}")
    return propensity


def _reward(field: str) -> float:
    """A reward field: empty for a reward-free row (NaN), else in [-1, 0]."""
    reward = float(field) if field != "" else math.nan
    if field != "" and not -1.0 <= reward <= 0.0:  # also rejects nan and inf
        raise ValueError(f"reward must be in [-1, 0], got {reward}")
    return reward


def read_bandit_csv(path) -> tuple[BanditLog, BanditLog]:
    """Parse a logged dataset into its rewarded rows S and reward-free rows S_u.

    A row with an empty reward field is reward-free; a reward must lie in
    [-1, 0].  The format does not record the action count, so both parts take
    1 + the largest action in the file.
    """
    log = _read_columns(path, [("action", np.int64, _index("action index")),
                               ("propensity", float, _propensity), ("reward", float, _reward)],
                        {"reward": _reward},
                        lambda *cols: BanditLog(*cols, int(np.max(cols[1], initial=-1)) + 1))
    rewarded = ~np.isnan(log.rewards)
    return log.take(rewarded), log.take(~rewarded)


def _supervised_rows(ds: SupervisedDataset, rows: slice) -> str:
    row = ",".join(["%.17g"] * ds.dim + ["%d"]) + "\n"
    return "".join(row % (*x, y) for x, y in zip(ds.features[rows].tolist(),
                                                 ds.labels[rows].tolist()))


def write_supervised_csv(path, ds: SupervisedDataset) -> None:
    header = ",".join([f"x{i}" for i in range(ds.dim)] + ["label"])
    _write_blocks(path, header, _supervised_rows, ds)


def read_supervised_csv(path) -> SupervisedDataset:
    return _read_columns(path, [("label", np.int64, _index("label"))], {}, SupervisedDataset)
