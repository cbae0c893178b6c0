"""End-to-end acceptance suite.

One test per criterion, each printing a single PASS/FAIL line (run with
``pytest -s`` to see the lines as they complete).
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_log, table_policy, value_and_grad_of

from semicrm.bounds import (
    BoundInputs,
    chi2_kl_crossover,
    exact_divergences,
    exact_true_risk,
    exact_weighted_variance,
    gibbs_optimal_policy,
    random_environment,
    regularized_objective,
    true_risk_bound,
    var_lower_kl,
    var_upper_chi2,
    var_upper_kl,
)
from semicrm.cli import main as cli_main
from semicrm.data import BanditLog
from semicrm.estimators import (
    ips_risk,
    kl_regularizer,
    objective_parts,
    rkl_regularizer,
    term_values,
)
from semicrm.harness import ExperimentConfig, SyntheticSpec, run_experiment
from semicrm.policy import SoftmaxPolicy
from semicrm.rng import make_rng


def check(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


# Shared benchmark for criteria 8 and 9: d=10, k=5, 6000 train rows, 10% of
# rewards kept, 10 seeds.  The logging policy is fit on 1% of the rows and
# training runs 2000 epochs at learning rate 0.02 so the reward signal in the
# known set is fully exploited.
def benchmark_config(**kw):
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(dim=10, num_classes=5, separation=1.0, noise=1.0),
        train_rows=6000,
        test_rows=2000,
        logging_fraction=0.01,
        keep_fraction=0.1,
        algorithms=("WCE", "logging"),
        repetitions=10,
        seed=0,
    )
    return replace(cfg, train=replace(cfg.train, epochs=2000, learning_rate=0.02), **kw)


def medians_by_cell(rows):
    cells = {}
    for r in rows:
        cells.setdefault((r.algorithm, r.alpha), []).append(r.expected_risk)
    return {key: float(np.median(v)) for key, v in cells.items()}


def test_criterion_01_ips_unbiasedness():
    worst = 0.0
    for seed in range(25):
        rng = make_rng(100 + seed)
        n_ctx = 2 + seed % 3
        n_act = 2 + (seed // 3) % 3
        env = random_environment(rng, n_ctx, n_act)
        policy = table_policy(env)
        expectation = 0.0
        eye = np.eye(n_ctx)
        for x, a in itertools.product(range(n_ctx), range(n_act)):
            sample = make_log([(eye[x], a, env.logging_table[x, a],
                                env.reward_table[x, a])], n_act)
            weight = env.context_probs[x] * env.logging_table[x, a]
            expectation += weight * ips_risk(policy, sample)
        worst = max(worst, abs(expectation - exact_true_risk(env)))
    check(1, "ips-unbiasedness", worst < 1e-12, f"worst |E - R| = {worst:.2e}")


def test_criterion_02_divergence_consistency():
    sizes = (1_000, 10_000, 100_000)
    kl_errs = {m: [] for m in sizes}
    rkl_errs = {m: [] for m in sizes}
    ok = True
    for seed in range(10):
        rng = make_rng(200 + seed)
        env = random_environment(rng, 3, 3, context_free_logging=True)
        policy = table_policy(env)
        D, D_r, _ = exact_divergences(env)
        eye = np.eye(env.num_contexts)
        cdf = np.cumsum(env.logging_table, axis=1)
        for m in sizes:
            xs = rng.choice(env.num_contexts, size=m, p=env.context_probs)
            acts = (rng.random(m)[:, None] > cdf[xs]).sum(axis=1)
            batch = BanditLog(eye[xs], acts, env.logging_table[xs, acts],
                              np.full(m, np.nan), env.action_count)
            kl_est = kl_regularizer(policy, batch, 0.0)
            rkl_est = rkl_regularizer(policy, batch)
            pi = policy.probs_batch(batch.contexts)[np.arange(m), acts]
            p = batch.propensities
            kl_terms = pi * (np.log(pi) - np.log(p))
            rkl_terms = -p * np.log(pi) + p * np.log(p)
            kl_errs[m].append(abs(kl_est - D))
            rkl_errs[m].append(abs(rkl_est - D_r))
            if m == sizes[-1]:
                for est, exact, terms in ((kl_est, D, kl_terms),
                                          (rkl_est, D_r, rkl_terms)):
                    var = 0.0
                    for a in range(env.action_count):
                        grp = terms[acts == a]
                        if len(grp) > 1:
                            var += grp.var(ddof=1) / len(grp)
                    ok = ok and abs(est - exact) < 3.0 * math.sqrt(var)
    for errs in (kl_errs, rkl_errs):
        ok = ok and np.mean(errs[sizes[-1]]) < np.mean(errs[sizes[0]])
    detail = (f"mean |err| KL: {np.mean(kl_errs[1000]):.4f} -> "
              f"{np.mean(kl_errs[100_000]):.4f}, RKL: "
              f"{np.mean(rkl_errs[1000]):.4f} -> {np.mean(rkl_errs[100_000]):.4f}")
    check(2, "divergence-consistency", ok, detail)


def test_criterion_03_variance_bound_dominance():
    violations = 0
    for seed in range(120):
        rng = make_rng(300 + seed)
        env = random_environment(rng, 3, 3, reward_range=(-1.0, -1.0))
        D, D_r, chi2 = exact_divergences(env)
        inputs = BoundInputs(w_m=env.max_importance_weight(), b=0.0, c=-1.0, q=1.0)
        exact = exact_weighted_variance(env)
        if var_upper_kl(inputs, D, D_r) < exact - 1e-12:
            violations += 1
        if var_upper_chi2(inputs, chi2) < exact - 1e-12:
            violations += 1
        if var_lower_kl(inputs, D) > exact + 1e-12:
            violations += 1
    check(3, "variance-bound-dominance", violations == 0,
          f"{violations} violations over 120 environments")


def test_criterion_04_risk_bound_coverage():
    rng = make_rng(42)
    env = random_environment(rng, 3, 3)
    n, trials, delta = 200, 2000, 0.05
    D, D_r, _ = exact_divergences(env)
    inputs = BoundInputs(w_m=env.max_importance_weight(), n=n, delta=delta)
    true_risk = exact_true_risk(env)
    # per-(context, action) cell value of the one-sample IPS estimator
    p_cell = (env.context_probs[:, None] * env.logging_table).ravel()
    v_cell = (env.reward_table * env.target_table / env.logging_table).ravel()
    counts = rng.multinomial(n, p_cell, size=trials)
    r_hats = counts @ v_cell / n
    bounds = np.array([true_risk_bound(r, inputs, D, D_r) for r in r_hats])
    rate = float(np.mean(true_risk > bounds))
    ci_upper = rate + 2.576 * math.sqrt(max(rate * (1 - rate), 1e-12) / trials)
    check(4, "risk-bound-coverage", rate <= delta and ci_upper < 0.07,
          f"violation rate {rate:.4f}, 99% CI upper {ci_upper:.4f}")


def test_criterion_05_chi2_kl_crossover():
    c = chi2_kl_crossover(2.0)
    residual = abs(math.log1p(c) - 2.0 * c * c / 4.0)
    ok = 1.27 <= c <= 1.29 and residual < 1e-9
    # beyond the crossover the KL-based bound is at least as tight: compare
    # both bounds on the tightest coupling D = log(1 + chi2), sigma = w_m / 2
    inputs = BoundInputs(w_m=2.0, b=0.0, c=-1.0, sigma=1.0)
    for chi2 in np.linspace(c, 50.0, 200):
        D = math.log1p(chi2)
        ok = ok and var_upper_kl(inputs, D, math.inf) <= var_upper_chi2(inputs, chi2) + 1e-12
    check(5, "chi2-kl-crossover", ok, f"C = {c:.6f}, residual = {residual:.1e}")


def test_criterion_06_gibbs_optimality():
    ok = True
    for seed in range(10):
        rng = make_rng(600 + seed)
        env = random_environment(rng, 3, 3)
        for alpha in (0.3, 0.5, 0.9):
            star = gibbs_optimal_policy(env, alpha)
            best = regularized_objective(env, star, alpha)
            for _ in range(1000):
                scale = 10.0 ** rng.uniform(-2.0, 0.5)
                logits = np.log(star) + scale * rng.standard_normal(star.shape)
                logits -= logits.max(axis=1, keepdims=True)
                perturbed = np.exp(logits)
                perturbed /= perturbed.sum(axis=1, keepdims=True)
                ok = ok and best <= regularized_objective(env, perturbed, alpha)
        shifted = type(env)(env.context_probs, env.logging_table,
                            env.target_table, env.reward_table + 0.37)
        diff = np.max(np.abs(gibbs_optimal_policy(env, 0.5)
                             - gibbs_optimal_policy(shifted, 0.5)))
        ok = ok and diff < 1e-12
    check(6, "gibbs-optimality", ok)


def test_criterion_07_gradient_correctness():
    def flat(grad_or_policy, attr=("weights", "biases")):
        return np.concatenate([
            a.ravel() for name in attr for a in getattr(grad_or_policy, name)
        ])

    def nudge(policy, delta):
        out = policy.copy()
        pos = 0
        for arr in out.weights + out.biases:
            arr += delta[pos: pos + arr.size].reshape(arr.shape)
            pos += arr.size
        return out

    worst = 0.0
    for seed in range(3):
        rng = make_rng(700 + seed)
        d, k = 3, 3
        S = make_log([(rng.standard_normal(d), int(rng.choice(k)),
                       float(rng.uniform(0.05, 1.0)), float(rng.uniform(-1, 0)))
                      for _ in range(15)], k)
        S_u = make_log([(rng.standard_normal(d), int(rng.choice(k)),
                         float(rng.uniform(0.05, 1.0))) for _ in range(20)], k)
        known, unknown = S, S_u
        aug = S_u.with_rewards([float(rng.uniform(-1, 0)) for _ in range(len(S_u))])
        policy = SoftmaxPolicy.create(d, k, (6,), rng)
        ips_parts = objective_parts("WCE", 1.0, len(known), 0.05, 0.05)
        wce_parts = objective_parts("WCE", 0.0, 0, 0.05, 0.05)
        kl_parts = objective_parts("KL", 0.0, 0, 0.05, 0.05)
        pooled = known.concat(aug)
        pr_parts = objective_parts("WCE", 0.6, len(known), 0.05, 0.05, pooled=True)

        def pr_value(p):
            ips, wce = term_values(p, pooled, pr_parts)
            return 0.6 * ips + 0.4 * wce

        objectives = [
            (lambda p: term_values(p, known, ips_parts)[0],
             value_and_grad_of(policy, known, ips_parts)[1]),
            (lambda p: term_values(p, unknown, wce_parts)[1],
             value_and_grad_of(policy, unknown, wce_parts)[1]),
            (lambda p: term_values(p, unknown, kl_parts)[1],
             value_and_grad_of(policy, unknown, kl_parts)[1]),
            (pr_value, value_and_grad_of(policy, pooled, pr_parts)[1]),
        ]
        h = 1e-6
        for value_fn, grad in objectives:
            analytic = flat(grad)
            num = np.zeros_like(analytic)
            for i in range(len(analytic)):
                e = np.zeros_like(analytic)
                e[i] = h
                num[i] = (value_fn(nudge(policy, e))
                          - value_fn(nudge(policy, -e))) / (2 * h)
            rel = np.max(np.abs(analytic - num)) / max(np.abs(analytic).max(), 1e-8)
            worst = max(worst, rel)
    check(7, "gradient-correctness", worst < 1e-4, f"worst rel err = {worst:.2e}")


@pytest.fixture(scope="module")
def benchmark_medians():
    rows, errors = run_experiment(benchmark_config())
    assert errors == []
    return medians_by_cell(rows)


def test_criterion_08_desk_scale_trend(benchmark_medians):
    med = benchmark_medians
    interior = {a: med[("WCE", a)] for a in (0.25, 0.5, 0.75, 0.9)}
    best_alpha = min(interior, key=interior.get)
    best = interior[best_alpha]
    margin_ips = med[("WCE", 1.0)] - best
    margin_log = med[("logging", 0.0)] - best
    ok = margin_ips >= 0.01 and margin_log >= 0.01
    check(8, "desk-scale-trend", ok,
          f"best alpha {best_alpha}: risk {best:.4f}, "
          f"margin vs alpha=1: {margin_ips:.4f}, vs logging: {margin_log:.4f}")


def test_criterion_09_dropped_action(benchmark_medians):
    cfg = benchmark_config(alphas=(0.9,), algorithms=("WCE",), dropped_action=2)
    rows, errors = run_experiment(cfg)
    assert errors == []
    med = medians_by_cell(rows)
    wce = med[("WCE", 0.9)]
    logging_risk = benchmark_medians[("logging", 0.0)]
    check(9, "dropped-action-robustness", wce < logging_risk,
          f"WCE alpha=0.9: {wce:.4f} vs logging: {logging_risk:.4f}")


def test_criterion_10_sweep_determinism(tmp_path):
    config = """
    synthetic.dim = 4
    synthetic.classes = 3
    synthetic.separation = 2.0
    data.train_rows = 300
    data.test_rows = 150
    data.keep_fraction = 0.1
    data.seed = 5
    experiment.logging_fraction = 0.05
    experiment.algorithms = WCE, KL, PR, logging
    experiment.alphas = 0.5, 0.9
    experiment.repetitions = 2
    train.epochs = 50
    """
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        cli_main(["sweep", "-c", str(cfg_path), "-o", str(out)])
        outputs.append((out / "metrics.csv").read_bytes())
    check(10, "sweep-determinism", outputs[0] == outputs[1],
          f"{len(outputs[0])} bytes each")
