import numpy as np

from semicrm.bounds import DiscreteEnvironment
from semicrm.data import BanditLog
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
