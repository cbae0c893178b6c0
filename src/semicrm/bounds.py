"""Closed-form variance/risk bounds and exact brute-force oracles.

A DiscreteEnvironment is a fully enumerable (context distribution, logging
policy, target policy, reward table) tuple.  Everything here is exact
arithmetic over those tables, which makes the environments usable as
independent oracles for the sample-based estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import BanditLog, draw_actions, write_lines


@dataclass
class DiscreteEnvironment:
    """Finite (P_X, logging policy, target policy, reward table) tuple.

    ``logging_table`` and ``target_table`` are row-stochastic (one row per
    context); rewards live in [c, b].  The logging policy must be positive
    wherever the target policy is (absolute continuity).
    """

    context_probs: np.ndarray   # (nx,)
    logging_table: np.ndarray   # (nx, k)
    target_table: np.ndarray    # (nx, k)
    reward_table: np.ndarray    # (nx, k)

    def __post_init__(self):
        self.context_probs = np.asarray(self.context_probs, dtype=float)
        self.logging_table = np.asarray(self.logging_table, dtype=float)
        self.target_table = np.asarray(self.target_table, dtype=float)
        self.reward_table = np.asarray(self.reward_table, dtype=float)
        nx = len(self.context_probs)
        if self.logging_table.shape[0] != nx or self.target_table.shape != self.logging_table.shape:
            raise ValueError("table shapes disagree")
        if self.reward_table.shape != self.logging_table.shape:
            raise ValueError("reward table shape disagrees")
        if abs(self.context_probs.sum() - 1.0) > 1e-12 or np.any(self.context_probs < 0):
            raise ValueError("context_probs must be a distribution")
        for name, table in (("logging", self.logging_table), ("target", self.target_table)):
            if np.any(table < 0) or np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-12):
                raise ValueError(f"{name} table rows must sum to 1")
        if np.any((self.target_table > 0) & (self.logging_table == 0)):
            raise ValueError("target policy not absolutely continuous w.r.t. logging policy")

    @property
    def num_contexts(self) -> int:
        return len(self.context_probs)

    @property
    def action_count(self) -> int:
        return self.logging_table.shape[1]

    def max_importance_weight(self) -> float:
        """sup over (x, a) of target/logging probability ratio."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(self.target_table > 0,
                             self.target_table / self.logging_table, 0.0)
        return float(np.max(ratio))

    def sample_logged(self, n: int, rng: np.random.Generator) -> BanditLog:
        """Draw n logged rows (x ~ P_X, a ~ logging policy); contexts are one-hot."""
        xs = rng.choice(self.num_contexts, size=n, p=self.context_probs)
        acts = draw_actions(self.logging_table[xs], rng.random(n))
        return BanditLog(np.eye(self.num_contexts)[xs], acts, self.logging_table[xs, acts],
                         self.reward_table[xs, acts], self.action_count)


def random_environment(
    rng: np.random.Generator,
    num_contexts: int = 3,
    action_count: int = 3,
    reward_range: tuple[float, float] = (-1.0, 0.0),
    min_logging_prob: float = 0.05,
    context_free_logging: bool = False,
) -> DiscreteEnvironment:
    """Random environment with logging probabilities bounded away from zero.

    ``context_free_logging`` makes the logging policy identical across
    contexts (the regime where the per-action divergence estimators are
    exactly consistent).
    """
    def stochastic(rows: int) -> np.ndarray:
        raw = rng.uniform(min_logging_prob, 1.0, size=(rows, action_count))
        return raw / raw.sum(axis=1, keepdims=True)

    px = rng.uniform(0.1, 1.0, size=num_contexts)
    px /= px.sum()
    logging = stochastic(1 if context_free_logging else num_contexts)
    if context_free_logging:
        logging = np.repeat(logging, num_contexts, axis=0)
    target = stochastic(num_contexts)
    lo, hi = reward_range
    rewards = rng.uniform(lo, hi, size=(num_contexts, action_count))
    return DiscreteEnvironment(px, logging, target, rewards)


# ---- exact oracles ---------------------------------------------------------


def exact_true_risk(env: DiscreteEnvironment, table: str = "target") -> float:
    """True risk sum_x P_X(x) sum_a pi(a|x) f_r(x, a), by full enumeration."""
    pi = env.target_table if table == "target" else env.logging_table
    return float(np.sum(env.context_probs[:, None] * pi * env.reward_table))


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * log(y) with the 0 log 0 := 0 convention."""
    out = np.zeros_like(x, dtype=float)
    mask = x > 0
    with np.errstate(divide="ignore"):
        out[mask] = x[mask] * np.log(y[mask])
    return out


def exact_divergences(env: DiscreteEnvironment) -> tuple[float, float, float]:
    """(forward KL, reverse KL, chi-square) of target vs logging, averaged over P_X."""
    pt, p0 = env.target_table, env.logging_table
    kl_rows = np.sum(_xlogy(pt, pt) - _xlogy(pt, p0), axis=1)
    rkl_rows = np.sum(_xlogy(p0, p0) - _xlogy(p0, pt), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio2 = np.where(pt > 0, pt**2 / p0, 0.0)
    chi2_rows = np.sum(ratio2, axis=1) - 1.0
    w = env.context_probs
    return (
        float(np.sum(w * kl_rows)),
        float(np.sum(w * rkl_rows)),
        float(np.sum(w * chi2_rows)),
    )


def exact_weighted_variance(env: DiscreteEnvironment) -> float:
    """Variance of the importance-weighted reward under P_X x logging policy."""
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(env.target_table > 0, env.target_table / env.logging_table, 0.0)
    second = np.sum(env.context_probs[:, None] * env.logging_table * (w * env.reward_table) ** 2)
    mean = exact_true_risk(env, "target")
    return float(second - mean**2)


# ---- bound inputs and formulas ---------------------------------------------


@dataclass(frozen=True)
class BoundInputs:
    """Constants entering the analytic bounds.

    When ``sigma`` is left unset and ``w_m`` is given, the sub-Gaussian
    parameter defaults to w_m * b_u^2 / 2 (valid for bounded importance
    weights).
    """

    w_m: float = 1.0
    b: float = 0.0
    c: float = -1.0
    sigma: float | None = None
    q: float = 0.0
    n: int = 1
    delta: float = 0.05

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("reward upper end b must be >= 0")
        if self.c > self.b:
            raise ValueError("need c <= b")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    @property
    def b_u(self) -> float:
        return max(abs(self.c), self.b)

    @property
    def c_l(self) -> float:
        return max(self.c, 0.0)

    @property
    def effective_sigma(self) -> float:
        if self.sigma is not None:
            return self.sigma
        return self.w_m * self.b_u**2 / 2.0


def _check_divergences(D: float, D_r: float) -> None:
    if D < 0 or D_r < 0:
        raise ValueError("divergences must be nonnegative")


def var_upper_kl(inputs: BoundInputs, D: float, D_r: float) -> float:
    """KL/reverse-KL variance upper bound sqrt(2 sigma^2 min(D, D_r)) + b_u^2 - c_l^2."""
    _check_divergences(D, D_r)
    sigma = inputs.effective_sigma
    return float(np.sqrt(2.0 * sigma**2 * min(D, D_r)) + inputs.b_u**2 - inputs.c_l**2)


def var_upper_chi2(inputs: BoundInputs, chi2: float) -> float:
    """Chi-square variance upper bound b_u^2 chi^2 + b_u^2 - c_l^2."""
    if chi2 < 0:
        raise ValueError("chi-square divergence must be nonnegative")
    return float(inputs.b_u**2 * chi2 + inputs.b_u**2 - inputs.c_l**2)


def var_lower_kl(inputs: BoundInputs, D: float) -> float:
    """Variance lower bound q^2 e^D - b_u^2 (caller certifies q)."""
    return float(inputs.q**2 * np.exp(D) - inputs.b_u**2)


def true_risk_bound(R_hat: float, inputs: BoundInputs, D: float, D_r: float) -> float:
    """High-probability true-risk upper bound for rewards in [-1, 0].

    R_hat + w_m log(1/delta)/(3n) + sqrt((w_m sqrt(2 min(D, D_r)) + 2) log(1/delta)/n)
    """
    _check_divergences(D, D_r)
    log_term = np.log(1.0 / inputs.delta)
    n = inputs.n
    return float(
        R_hat
        + inputs.w_m * log_term / (3.0 * n)
        + np.sqrt((inputs.w_m * np.sqrt(2.0 * min(D, D_r)) + 2.0) * log_term / n)
    )


def risk_diff_bound(D: float, D_r: float) -> float:
    """Bound on |R(target) - R(logging)|: min(sqrt(D/2), sqrt(D_r/2))."""
    _check_divergences(D, D_r)
    return float(min(np.sqrt(D / 2.0), np.sqrt(D_r / 2.0)))


def expectation_gap_bound(sigma: float, D: float) -> float:
    """sqrt(2 sigma^2 D) bound on |E_P f - E_Q f| for sigma-sub-Gaussian f."""
    return float(np.sqrt(2.0 * sigma**2 * D))


def chi2_kl_crossover(w_m: float, tol: float = 1e-12) -> float:
    """Positive root C of log(1 + x) - 2 x^2 / w_m^2 = 0, by bisection on (0, w_m].

    For chi-square divergence >= C the KL-based variance bound is at least as
    tight as the chi-square one.  Requires 1 < w_m < e^2 - 1 so the root exists.
    """
    if not 1.0 < w_m < np.exp(2.0) - 1.0:
        raise ValueError(f"w_m must be in (1, e^2 - 1), got {w_m}")

    def f(x: float) -> float:
        return np.log1p(x) - 2.0 * x * x / (w_m * w_m)

    lo, hi = 1e-12, w_m
    if f(hi) > 0:
        raise ValueError(f"no crossover below w_m = {w_m}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gibbs_optimal_policy(env: DiscreteEnvironment, alpha: float) -> np.ndarray:
    """Row-stochastic minimizer of alpha * R(pi) + (1 - alpha) * KL(pi || logging).

    pi*(a|x) proportional to logging(a|x) exp(-alpha/(1-alpha) f_r(x, a)).
    The alpha = 1 endpoint is the deterministic argmin-reward limit, uniform
    over ties.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if alpha == 1.0:
        out = np.zeros_like(env.reward_table)
        for i, row in enumerate(env.reward_table):
            winners = np.flatnonzero(row == row.min())
            out[i, winners] = 1.0 / len(winners)
        return out
    # exponent shifted per row for overflow safety; shift cancels on normalization
    expo = -(alpha / (1.0 - alpha)) * env.reward_table
    expo -= expo.max(axis=1, keepdims=True)
    unnorm = env.logging_table * np.exp(expo)
    return unnorm / unnorm.sum(axis=1, keepdims=True)


def regularized_objective(env: DiscreteEnvironment, table: np.ndarray, alpha: float) -> float:
    """alpha * R(pi) + (1 - alpha) * KL(pi || logging) for an arbitrary policy table."""
    probe = DiscreteEnvironment(
        env.context_probs, env.logging_table, table, env.reward_table
    )
    risk = exact_true_risk(probe, "target")
    kl, _, _ = exact_divergences(probe)
    return alpha * risk + (1.0 - alpha) * kl


# ---- environment file format -----------------------------------------------
#
# Four CSV sections, each introduced by a bare section name:
#   context_probs (one row), logging, target, rewards (one row per context).

_SECTIONS = ("context_probs", "logging", "target", "rewards")


def write_environment(path, env: DiscreteEnvironment) -> None:
    lines = ["context_probs", ",".join(f"{v:.17g}" for v in env.context_probs)]
    for name, table in (
        ("logging", env.logging_table),
        ("target", env.target_table),
        ("rewards", env.reward_table),
    ):
        lines.append(name)
        for row in table:
            lines.append(",".join(f"{v:.17g}" for v in row))
    write_lines(path, lines)


def read_environment(path) -> DiscreteEnvironment:
    """Read an environment file; a malformed line is rejected with its number."""
    sections: dict[str, list[list[float]]] = {}
    current: str | None = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line in sections:
                raise ValueError(f"{path}: line {lineno}: repeated section {line!r}")
            if line in _SECTIONS:
                current = line
                sections[current] = []
            elif line:
                where = f"{path}: line {lineno}"
                if current is None:
                    raise ValueError(f"{where}: expected a section name, got {line!r}")
                try:
                    values = [float(v) for v in line.split(",")]
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from exc
                rows = sections[current]
                if current == "context_probs" and rows:
                    raise ValueError(f"{where}: context_probs takes one row")
                width = len(rows[0]) if rows else len(values)
                if len(values) != width or not all(map(math.isfinite, values)):
                    raise ValueError(f"{where}: expected {width} finite values")
                rows.append(values)
    missing = [s for s in _SECTIONS if not sections.get(s)]
    if missing:
        raise ValueError(f"{path}: missing or empty sections {missing}")
    return DiscreteEnvironment(
        np.array(sections["context_probs"][0]),
        np.array(sections["logging"]),
        np.array(sections["target"]),
        np.array(sections["rewards"]),
    )


# ---- bound report ----------------------------------------------------------


def bound_report(env: DiscreteEnvironment, delta: float = 0.05, n: int | None = None) -> dict:
    """Evaluate every bound on an environment alongside the exact quantities."""
    D, D_r, chi2 = exact_divergences(env)
    w_m = env.max_importance_weight()
    c = float(env.reward_table.min())
    b = float(max(env.reward_table.max(), 0.0))
    inputs = BoundInputs(w_m=w_m, b=b, c=c, n=1 if n is None else n, delta=delta)
    report = {
        "exact_risk_target": exact_true_risk(env, "target"),
        "exact_risk_logging": exact_true_risk(env, "logging"),
        "exact_kl": D,
        "exact_rkl": D_r,
        "exact_chi2": chi2,
        "exact_variance": exact_weighted_variance(env),
        "w_m": w_m,
        "b_u": inputs.b_u,
        "c_l": inputs.c_l,
        "sigma": inputs.effective_sigma,
        "q": inputs.q,
        "delta": delta,
        "var_upper_kl": var_upper_kl(inputs, D, D_r),
        "var_upper_chi2": var_upper_chi2(inputs, chi2),
        "var_lower_kl": var_lower_kl(inputs, D),
        "risk_diff_bound": risk_diff_bound(D, D_r),
    }
    if n is not None:
        report["n"] = float(n)
        report["true_risk_bound_at_exact_risk"] = true_risk_bound(
            exact_true_risk(env, "target"), inputs, D, D_r
        )
    return report
