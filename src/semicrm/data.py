"""Logged bandit data model, CSV format, and the supervised-to-bandit pipeline."""

from __future__ import annotations

import io
import math
import operator
import os
import pickle
import select
import signal
import struct
import sys
import tempfile
import threading
import warnings
from array import array
from dataclasses import dataclass, replace
from functools import cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
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
        object.__setattr__(self, "_memo", {})
        if operator.index(self.action_count) < 0:  # 0 for an empty log; a float raises
            raise ValueError(f"action_count must be >= 0, got {self.action_count}")
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

    def memo(self, slot, key, compute):
        """``compute()``, kept in ``slot`` for the next call with an equal ``key``.
        Each slot keeps one (key, value) pair and replaces it on a miss, so the
        key must hold everything the value depends on besides the log's rows,
        and the memory a log keeps is bounded by its number of slots."""
        kept = self._memo.get(slot)
        if kept is None or kept[0] != key:
            kept = self._memo[slot] = (key, compute())
        return kept[1]

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


# most rows per block cut by even_blocks: of a forward pass of the value path,
# evaluate_policy or supervised_to_bandit, whose GEMM bits depend on the cuts
# (run_blocks has up to one block per CPU in flight: 16384-row blocks raised
# ope_select's peak RSS by 5-7 MB on 2 cores, 8192-row blocks by 3.3 MB, and a
# split at 8192 leaves every block over 4096 rows, beyond OpenBLAS's
# small-matrix regime); of a CSV write, whose output does not depend on the
# cuts but whose memory does (on 2 cores a 100k-row write is within 15% of its
# best time for blocks of 2048 to 16384 rows, and 16384-row write blocks raised
# pipeline_large's peak RSS by 6 MB)
ROW_BLOCK = 8192
STREAM_BLOCK = 4096
# fewest rows a CSV write forks for: on 2 cores a fresh process's first
# write broke even with the serial one at 12k-14k rows and won from 16k
CSV_FORK_ROWS = 16384
# most bytes in a parsed block of a CSV read, whose body is parsed in the
# calling process when it fits in one: on 2 cores a fresh process's first
# read in two blocks broke even with the serial one at 5-8 MB (25k-36k rows
# at d=10) and won from 10 MB, and 6 MiB splits a 100k-row file in four
CSV_READ_BLOCK = 6 << 20


def even_blocks(n: int, most: int) -> list[slice]:
    """The slices of range(n) that numpy's ``array_split`` cuts into as few
    blocks as keep each within ``most`` items: the first n % count one longer."""
    count = -(-n // most)
    size, extra = divmod(n, max(count, 1))
    bounds = [i * size + min(i, extra) for i in range(count + 1)]
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def run_blocks(fn, n: int) -> None:
    """Call ``fn(rows)`` for each slice of ``even_blocks(n, ROW_BLOCK)``; ``fn``
    writes its block's results into an output the caller allocated up front.

    When BLAS runs one thread, the blocks are shared out over one thread per
    CPU in the affinity mask (``taskset``), the caller's among them.  numpy
    releases the GIL in matmul and the ufuncs and each block keeps its cut, so
    every value has the same bits on any thread count.  Otherwise, or where the
    BLAS count cannot be read, every block runs in the caller: on 2 cores at 2
    BLAS threads, threaded blocks scored an ope_select candidate in 39 ms against
    20 ms serial (medians of 12 rounds).  Every thread is joined before the call returns or raises, so a
    fork that follows finds none running; an error in a block is raised with
    its own type, the first thread's first."""
    blocks = even_blocks(n, ROW_BLOCK)
    count = min(len(blocks), _mask_cpus()) if len(blocks) > 1 and blas_threads() == 1 else 1
    errors = [None] * count

    def share(i):
        try:
            for rows in blocks[i::count]:
                fn(rows)
        except BaseException as error:  # raised below, once every thread is joined
            errors[i] = error

    threads = []
    try:
        for i in range(1, count):
            thread = threading.Thread(target=share, args=(i,))
            thread.start()
            threads.append(thread)
        share(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


def _mask_cpus() -> int:
    """The CPUs in the affinity mask (``taskset``); 1 where it cannot be read."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# the thread-count getters of the OpenBLAS builds that numpy wheels bundle
_BLAS_THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


@cache
def _blas_thread_getter():
    """The thread-count getter of the OpenBLAS that numpy's core module loaded,
    found through that module's handle, or None for another BLAS or platform."""
    import ctypes

    core = (sys.modules.get("numpy._core._multiarray_umath")
            or sys.modules.get("numpy.core._multiarray_umath"))
    try:
        library = ctypes.CDLL(core.__file__)
    except (AttributeError, OSError):
        return None
    for name in _BLAS_THREAD_GETTERS:
        getter = getattr(library, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


def blas_threads() -> int | None:
    """The number of threads numpy's OpenBLAS runs, or None where it cannot be read."""
    getter = _blas_thread_getter()
    return None if getter is None else getter()


def draw_actions(P: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One action per row of the row-stochastic ``P`` by inverse CDF at the
    uniforms ``u``: searchsorted(cumsum(p), u, side="right") for every row.  A u
    at or above the row's float total takes its last positive-probability action,
    so a row summing to a hair under 1 never yields action k."""
    last_positive = P.shape[1] - 1 - (P[:, ::-1] > 0.0).argmax(axis=1)
    return np.minimum((np.cumsum(P, axis=1) <= u[:, None]).sum(axis=1), last_positive)


def supervised_to_bandit(
    ds: SupervisedDataset,
    logging_policy: SoftmaxPolicy,
    rng: np.random.Generator,
) -> BanditLog:
    """Turn classification rows into logged bandit feedback.

    For each row an action is sampled from the logging policy, the propensity
    is that action's probability, and the reward is -1 when the action matches
    the label and 0 otherwise.  The log has the logging policy's action count.
    Probabilities come from ``probs_batch`` over ``even_blocks(n, ROW_BLOCK)``,
    so a propensity's last bits depend on that cut.
    """
    if logging_policy.input_dim != ds.dim:
        raise ValueError(f"logging policy expects d={logging_policy.input_dim}, "
                         f"data has d={ds.dim}")
    if logging_policy.action_count < ds.num_classes:
        raise ValueError(f"logging policy has {logging_policy.action_count} actions, "
                         f"data has {ds.num_classes} classes")
    n = len(ds)
    u = rng.random(n)  # the same stream as n calls to rng.random()
    actions, propensities = np.zeros(n, dtype=int), np.zeros(n)
    for block in even_blocks(n, ROW_BLOCK):
        P = logging_policy.probs_batch(ds.features[block])
        a = draw_actions(P, u[block])
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
# Writes of CSV_FORK_ROWS rows or more format blocks of STREAM_BLOCK rows, and
# reads of a body over CSV_READ_BLOCK bytes parse blocks of it, in forked
# workers, to the same bytes on any CPU count; the rest is serial.

# a worker's record of a finished item in the result pipe: the item, the
# worker, and the offset and size of its pickled result in that worker's spool
_RECORD = struct.Struct("4q")
# most items handed out whose records the caller has not read: their indices
# and records fit in 4096 bytes (Linux's PIPE_BUF), the least a pipe holds,
# so neither the caller's writes nor a worker's block
_AHEAD = 4096 // _RECORD.size


def fork_map(fn, items, *args):
    """An iterator of ``fn(*args, item)`` for each item, in item order: from
    forked workers, one per CPU in the affinity mask (``taskset``) and at most
    one per item, or, with one CPU or one item, or where
    ``os.sched_getaffinity`` is missing (macOS, Windows), from the caller, each
    item run as it is reached."""
    workers = min(_mask_cpus(), len(items))
    if workers <= 1:
        return (fn(*args, item) for item in items)
    return _forked(workers, fn, items, args)


def _forked(workers: int, fn, items, args):
    """``fork_map`` over ``workers`` forked workers, which inherit ``fn``,
    ``items`` and ``args``.  An idle worker reads the next item's index from a
    shared pipe, appends the pickled result, or the exception the item raised,
    to its own unlinked spool file (``tempfile.TemporaryFile``) and writes a
    record of where to a shared result pipe.  The caller unpickles one result
    at a time, in item order, in its own thread; the spools hold the others.
    Closing the iterator early, an error in an item or a worker that ends
    kills and reaps every worker."""
    tasks, results = os.pipe(), os.pipe()
    fds, pids, spools = [*tasks, *results], {}, []  # pids: exit pipe -> worker
    try:
        for worker in range(workers):
            spools.append(tempfile.TemporaryFile())
            exit_r, exit_w = os.pipe()  # reads as ended once the worker exits
            fds.append(exit_r)
            try:
                pid = os.fork()
                if pid == 0:
                    _work(fn, items, args, tasks[0], results[1], spools[-1], worker)
            finally:
                os.close(exit_w)
            pids[exit_r] = pid
        poller = select.poll()
        for fd in (results[0], *pids):
            poller.register(fd, select.POLLIN)
        handed, read, records = 0, 0, {}
        for item in range(len(items)):
            while item not in records:
                more = range(handed, min(len(items), read + _AHEAD))
                if more:
                    os.write(tasks[1], struct.pack(f"{len(more)}q", *more))
                    handed += len(more)
                for fd, _ in poller.poll():
                    if fd in pids:
                        _, status = os.waitpid(pids.pop(fd), 0)
                        raise RuntimeError(f"a fork_map worker exited with code "
                                           f"{os.waitstatus_to_exitcode(status)} "
                                           f"before its items were done")
                done = os.read(results[0], _AHEAD * _RECORD.size)
                records.update((i, where) for i, *where in _RECORD.iter_unpack(done))
                read += len(done) // _RECORD.size
            worker, offset, size = records.pop(item)
            ok, result = pickle.loads(os.pread(spools[worker].fileno(), size, offset))
            if not ok:
                raise result
            yield result
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        for pid in pids.values():
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)
        for spool in spools:
            spool.close()


def _work(fn, items, args, tasks: int, results: int, spool, worker: int):
    """A forked worker: it runs the items whose indices it reads until it is
    killed, and exits with code 1 on an error outside an item."""
    try:
        offset = 0
        while True:
            (item,) = struct.unpack("q", os.read(tasks, 8))  # the caller writes whole indices
            size = spool.write(_pickled(fn, args, items[item]))
            spool.flush()
            os.write(results, _RECORD.pack(item, worker, offset, size))
            offset += size
    finally:
        os._exit(1)


def _pickled(fn, args, item) -> bytes:
    """``(True, fn(*args, item))`` pickled, or ``(False, the exception it
    raised)``, or a ``RuntimeError`` naming an exception that does not pickle."""
    try:
        return pickle.dumps((True, fn(*args, item)), -1)
    except BaseException as error:  # raised in the caller
        try:
            return pickle.dumps((False, error), -1)
        except Exception:
            return pickle.dumps((False, RuntimeError(
                f"{type(error).__name__}, not picklable: {error}")), -1)


def write_lines(path, lines) -> None:
    """Write ``lines`` to ``path``, each ended by "\\n" on every platform."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_blocks(path, header: str, format_rows, data) -> None:
    """``header`` and ``format_rows(data, rows)`` for each block of rows, each
    block written as it arrives to a temporary file beside ``path`` that then
    replaces it, so a failure leaves ``path`` as it was and no temporary file."""
    n = len(data)
    blocks = even_blocks(n, STREAM_BLOCK) if n >= CSV_FORK_ROWS else [slice(0, n)]
    formatted = fork_map(format_rows, blocks, data)
    partial_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(partial_path, "w", newline="") as fh:
            fh.write(header + "\n")
            fh.writelines(formatted)
        os.replace(partial_path, path)
    except BaseException:
        formatted.close()  # drops the blocks not yet formatted and joins the workers
        if os.path.exists(partial_path):
            os.remove(partial_path)
        raise


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
    """``build``, a data type's constructor, on the columns of the rows whose
    last field is filled and then on those of the rows where it is empty (NaN:
    a reward-free bandit row), each a list of the features and then the
    ``tail`` fields (name, dtype, line parser).  numpy parses the body's blocks
    (``converters`` keyed by field name) and :func:`_fill` copies them into
    columns of the sizes :func:`_row_counts` counts; when numpy refuses or
    warns on a block (a file with no rows warns; numpy 1.x only warns on an
    int written as a float), the parsed rows disagree with the counts, or
    ``build`` fails, :func:`_parse_lines` parses the file, in one block."""
    lines = _read_lines(path)
    names = [name for name, _, _ in tail]
    lineno, header = next(lines, (1, None))
    if header is None:
        raise DatasetFormatError(1, "empty file")
    if header.split(",")[-len(names):] != names:
        raise DatasetFormatError(lineno, f"header must end with {','.join(names)}")
    d = header.count(",") + 1 - len(names)
    dtype = np.dtype([("x", float, (d,))] + [(n, t) for n, t, _ in tail])
    blocks = fork_map(_parse_block, _body_blocks(path), path, dtype,
                      {d + names.index(k): f for k, f in converters.items()})
    try:
        parts = _fill(blocks, dtype, path)
        if parts is not None:
            return build(*parts)
    except ValueError:
        pass  # below the handler, the line parser's error is not chained
    finally:
        blocks.close()  # kills the workers, if a disagreement stopped the copy
    parts = None  # free the columns before the line parser runs
    columns = _parse_lines(lines, d, [parse for _, _, parse in tail])
    empty = np.isnan(columns[-1])
    return build(*([column[rows] for column in columns] for rows in (~empty, empty)))


def _row_counts(path) -> tuple[int, int]:
    """The rows after the first line of ``path`` whose last field is filled and
    those where it is empty, as one pass over its bytes counts them: the lines
    that are not empty, and those that end in a comma, with a CR read as a line
    end, as Python and numpy read one (CRLF is then a line and an empty one)."""
    rows = ends_empty = 0
    buf, last = bytearray(1 << 16), np.uint8(ord("\n"))  # as if after a line end
    with open(path, "rb") as fh:
        fh.readline()  # the header
        while size := fh.readinto(buf):
            chunk = np.frombuffer(buf, np.uint8, size)
            if buf.find(b"\r", 0, size) >= 0:
                chunk[chunk == ord("\r")] = ord("\n")
            before = np.concatenate([[last], chunk[:-1]])
            ends = chunk == ord("\n")  # each ends the line that precedes it
            rows += int(np.count_nonzero(ends & (before != ord("\n"))))
            ends_empty += int(np.count_nonzero(ends & (before == ord(","))))
            last = chunk[-1]
    if last != ord("\n"):  # an unended last line
        rows, ends_empty = rows + 1, ends_empty + int(last == ord(","))
    return rows - ends_empty, ends_empty


def _fill(blocks, dtype: np.dtype, path) -> list | None:
    """The columns of the fields of ``dtype`` over ``blocks`` (lists of
    per-field columns, or None where numpy refused a block) for the rows whose
    last field is filled and for those where it is empty, in columns of the
    sizes :func:`_row_counts` counts in ``path``; None if a block is None or
    the rows disagree with the counts.  The rows are counted and the columns
    allocated once the first block has arrived, while workers parse the next
    blocks, and each block is copied and dropped before the next is drawn, so
    a read holds the columns and about one block."""
    parts, filled = None, [0, 0]
    for block in blocks:
        if block is None:
            return None
        parts = parts or [[np.empty((size, *dtype[f].shape), dtype[f].base)
                           for f in range(len(dtype))] for size in _row_counts(path)]
        if not _copy_block(block, parts, filled):
            return None
        del block  # before the next block is parsed or unpickled
    return parts if filled == [len(part[0]) for part in parts] else None


def _copy_block(block: list, parts: list, filled: list) -> bool:
    """Copy ``block``'s rows into ``parts`` from the ``filled`` rows on, and
    advance them; False if a part has no room for them."""
    empty = np.isnan(block[-1])
    for i, (part, rows) in enumerate(zip(parts, (~empty, empty))):
        rows = np.flatnonzero(rows)
        start, stop = filled[i], filled[i] + len(rows)
        if stop > len(part[0]):
            return False
        for column, values in zip(part, block):
            # every row is in range; "clip" takes straight into the slice,
            # where "raise" would take into a copy of it first
            np.take(values, rows, axis=0, out=column[start:stop], mode="clip")
        filled[i] = stop
    return True


def _body_blocks(path) -> list:
    """The byte spans of the blocks after the first line of ``path``: the
    even_blocks of at most CSV_READ_BLOCK bytes, each cut moved on to the next
    line start; [None] for one."""
    with open(path, "rb") as fh:
        fh.readline()  # the header
        starts, end = [fh.tell()], os.fstat(fh.fileno()).st_size
        for block in even_blocks(end - starts[0], CSV_READ_BLOCK)[1:]:
            fh.seek(starts[0] + block.start - 1)
            fh.readline()  # to the next line start
            if starts[-1] < fh.tell() < end:
                starts.append(fh.tell())
    return list(zip(starts, starts[1:] + [end])) if len(starts) > 1 else [None]


def _parse_block(path, dtype, converters: dict, span) -> list | None:
    """One column per field of ``dtype`` over the rows in the byte ``span`` of
    ``path`` (None: after the first line) as ``np.loadtxt`` parses them, or
    None if it refuses them or warns."""
    text = path
    if span is not None:  # decoded, and newlines read, as open() reads a file
        with open(path, "rb") as fh:
            fh.seek(span[0])
            text = io.TextIOWrapper(io.BytesIO(fh.read(span[1] - span[0])))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, ndmin=1,
                              skiprows=int(span is None), encoding=None,
                              converters=converters)
    except (ValueError, Warning):
        return None
    return [np.array(rows[name]) for name in rows.dtype.names]


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
    return _read_columns(path, [("action", np.int64, _index("action index")),
                                ("propensity", float, _propensity), ("reward", float, _reward)],
                         {"reward": _reward}, _bandit_logs)


def _bandit_logs(S: list, S_u: list) -> tuple[BanditLog, BanditLog]:
    """The logs of the rewarded rows' and of the reward-free rows' columns,
    with 1 + the largest action in either as their action count."""
    k = 1 + max(int(np.max(actions, initial=-1)) for _, actions, _, _ in (S, S_u))
    return BanditLog(*S, k), BanditLog(*S_u, k)


def _supervised_rows(ds: SupervisedDataset, rows: slice) -> str:
    row = ",".join(["%.17g"] * ds.dim + ["%d"]) + "\n"
    return "".join(row % (*x, y) for x, y in zip(ds.features[rows].tolist(),
                                                 ds.labels[rows].tolist()))


def write_supervised_csv(path, ds: SupervisedDataset) -> None:
    header = ",".join([f"x{i}" for i in range(ds.dim)] + ["label"])
    _write_blocks(path, header, _supervised_rows, ds)


def read_supervised_csv(path) -> SupervisedDataset:
    return _read_columns(path, [("label", np.int64, _index("label"))], {},
                         lambda rows, _: SupervisedDataset(*rows))
