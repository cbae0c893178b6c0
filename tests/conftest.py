import concurrent.futures
import os
import tracemalloc

import numpy as np
import pytest

import semicrm.data
from semicrm.bounds import DiscreteEnvironment
from semicrm.data import BanditLog
from semicrm import estimators
from semicrm.estimators import value_and_grad
from semicrm.policy import SoftmaxPolicy
from semicrm.rng import make_rng


def uniform_policy(d: int, k: int) -> SoftmaxPolicy:
    """All-zero parameters: exactly uniform over k actions."""
    p = SoftmaxPolicy.create(d, k, (4,), make_rng(0))
    for w in p.weights:
        w[:] = 0.0
    for b in p.biases:
        b[:] = 0.0
    return p


def table_policy(env: DiscreteEnvironment) -> SoftmaxPolicy:
    """Linear policy over one-hot contexts reproducing env.target_table exactly."""
    return SoftmaxPolicy(
        weights=[np.log(env.target_table)],
        biases=[np.zeros(env.action_count)],
    )


def logging_table_policy(env: DiscreteEnvironment) -> SoftmaxPolicy:
    return SoftmaxPolicy(
        weights=[np.log(env.logging_table)],
        biases=[np.zeros(env.action_count)],
    )


def sample_unknown(env: DiscreteEnvironment, m: int, rng) -> BanditLog:
    return env.sample_logged(m, rng).with_rewards(np.nan)


def value_and_grad_of(policy: SoftmaxPolicy, rows: BanditLog, parts):
    """``estimators.value_and_grad`` on the four columns of ``rows``."""
    return value_and_grad(policy, rows.contexts, rows.actions, rows.propensities,
                          rows.rewards, parts)


def run_row_term(term: str, log_pi, actions, propensities, rewards, floor):
    """(values, factors) of ``estimators.ROW_TERMS[term]`` over the given rows:
    its policy-free half on the columns, then its half that takes log pi."""
    constants_of, rows_of = estimators.ROW_TERMS[term]
    return rows_of(log_pi, *constants_of(actions, propensities, rewards, floor))


def make_log(rows, action_count: int) -> BanditLog:
    """A log from (context, action, propensity[, reward]) tuples; a row
    without a reward is reward-free."""
    rows = list(rows)
    return BanditLog(
        np.array([r[0] for r in rows], dtype=float),
        [r[1] for r in rows],
        [r[2] for r in rows],
        [r[3] if len(r) > 3 else np.nan for r in rows],
        action_count,
    )


def assert_same_rows(a: BanditLog, b: BanditLog) -> None:
    """Bit-identical columns (NaN rewards match NaN) and action counts."""
    assert a.action_count == b.action_count
    for name in ("contexts", "actions", "propensities", "rewards"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.dtype == y.dtype
        assert np.array_equal(x.view(np.uint8), y.view(np.uint8)), name


@pytest.fixture
def pools(monkeypatch):
    """(workers, initargs) of every process pool that ``fork_map`` makes."""
    made = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context, **kwargs):
            made.append((max_workers, kwargs["initargs"]))
            super().__init__(max_workers, mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return made


@pytest.fixture
def block_threads(monkeypatch):
    """Sets what ``data.run_blocks`` reads, as ``set_to(blas, cpus)``: the BLAS
    thread count (None where it cannot be read) and the CPUs in the affinity
    mask.  On a multi-core host BLAS runs several threads by default, which
    runs every block in the caller, so there only a test that sets 1 here
    reaches the threaded path."""
    def set_to(blas, cpus):
        monkeypatch.setattr(semicrm.data, "blas_threads", lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    return set_to


def view_rows(views, base) -> list[tuple[int, int]]:
    """(first row, row count) in ``base`` of each of the row-block ``views``,
    sorted: the multiset of blocks whatever order threads ran them in."""
    start = base.__array_interface__["data"][0]
    return sorted(((view.__array_interface__["data"][0] - start) // base.strides[0], len(view))
                  for view in views)


def traced_peak(fn, *args) -> int:
    """The most bytes that ``fn(*args)`` held at once, as ``tracemalloc`` counts
    them: numpy reports its buffers to it, and Python objects are counted too."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
