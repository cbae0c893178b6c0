import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    make_log,
    run_row_term,
    sample_unknown,
    table_policy,
    uniform_policy,
    value_and_grad_of,
    view_rows,
)

import semicrm.data
from semicrm import estimators
from semicrm.data import BanditLog
from semicrm.bounds import (
    exact_divergences,
    exact_true_risk,
    random_environment,
)
from semicrm.estimators import (
    ROW_TERMS,
    combined_objective,
    ips_risk,
    kl_regularizer,
    objective_parts,
    pseudo_reward_objective,
    rkl_regularizer,
    term_values,
    truncated_ips_risk,
    wce_regularizer,
)
from semicrm.policy import (
    PolicyGradient,
    SoftmaxPolicy,
    load_policy,
    save_policy,
    softmax_and_log_softmax,
)
from semicrm.rng import make_rng


def random_unknowns(n=30, d=2, k=3, seed=0):
    rng = make_rng(seed)
    return make_log([
        (rng.standard_normal(d), int(rng.choice(k)), float(rng.uniform(0.05, 1.0)))
        for _ in range(n)
    ], k)


class TestIpsRisk:
    def test_single_sample_unit_weight(self):
        S = make_log([([0.0, 0.0], 0, 0.5, -1.0)], 2)
        assert ips_risk(uniform_policy(2, 2), S) == pytest.approx(-1.0, abs=1e-15)

    def test_policy_equal_logging_gives_mean_reward(self):
        rng = make_rng(3)
        env = random_environment(rng, 3, 3)
        S = env.sample_logged(500, rng)
        policy = table_policy(
            type(env)(env.context_probs, env.logging_table,
                      env.logging_table, env.reward_table)
        )
        mean_reward = np.mean(S.rewards)
        assert ips_risk(policy, S) == pytest.approx(mean_reward, abs=1e-10)

    def test_one_sample_expectation_equals_true_risk(self):
        # exact expectation over P_X x logging of the one-sample estimator
        rng = make_rng(4)
        env = random_environment(rng, 2, 2)
        policy = table_policy(env)
        expectation = 0.0
        for x in range(env.num_contexts):
            ctx = np.zeros(env.num_contexts)
            ctx[x] = 1.0
            for a in range(env.action_count):
                sample = make_log([(ctx, a, env.logging_table[x, a],
                                    env.reward_table[x, a])], env.action_count)
                weight = env.context_probs[x] * env.logging_table[x, a]
                expectation += weight * ips_risk(policy, sample)
        assert expectation == pytest.approx(exact_true_risk(env), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ips_risk(uniform_policy(2, 2), make_log([([0.0, 0.0], 0, 0.5, -1.0)], 2).take([]))

    def test_reward_free_row_rejected(self):
        S = make_log([([0.0, 0.0], 0, 0.5, -1.0), ([1.0, 0.0], 1, 0.5)], 2)
        with pytest.raises(ValueError, match="IPS needs a reward on every row it covers"):
            ips_risk(uniform_policy(2, 2), S)


class TestTruncatedIps:
    def test_zeta_zero_equals_plain(self):
        rng = make_rng(5)
        env = random_environment(rng)
        S = env.sample_logged(100, rng)
        policy = table_policy(env)
        assert truncated_ips_risk(policy, S, 0.0) == ips_risk(policy, S)

    def test_zeta_one_drops_propensities(self):
        rng = make_rng(6)
        env = random_environment(rng)
        S = env.sample_logged(100, rng)
        policy = table_policy(env)
        expected = np.mean([
            r * policy.probs_batch(x[None])[0][a]
            for x, a, r in zip(S.contexts, S.actions, S.rewards)
        ])
        assert truncated_ips_risk(policy, S, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_hand_value(self):
        S = make_log([([0.0, 0.0], 0, 0.1, -1.0)], 2)
        got = truncated_ips_risk(uniform_policy(2, 2), S, 0.2)
        assert got == pytest.approx(-1.0 * 0.5 / 0.2, abs=1e-12)  # -2.5


class TestKlRegularizer:
    def test_matching_propensities_give_zero(self):
        # pi = 0.25 everywhere (uniform k=4) and p = 0.25 on every sample
        S_u = make_log([([float(i), 0.0], i % 4, 0.25) for i in range(8)], 4)
        assert kl_regularizer(uniform_policy(2, 4), S_u, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        S_u = make_log([([0.0, 0.0], 1, 0.5)], 4)
        got = kl_regularizer(uniform_policy(2, 4), S_u, 0.0)
        assert got == pytest.approx(0.25 * math.log(0.5), abs=1e-9)  # ~ -0.173287

    def test_consistency_against_enumeration(self):
        # context-free logging: the group-conditional context law equals P_X,
        # so the grouped estimator converges to the exact divergence
        rng = make_rng(7)
        env = random_environment(rng, 3, 3, context_free_logging=True)
        policy = table_policy(env)
        D, _, _ = exact_divergences(env)
        S_u = sample_unknown(env, 100_000, rng)
        est = kl_regularizer(policy, S_u, 0.0)
        # crude standard-error scale: spread of per-sample terms over sqrt(m)
        assert abs(est - D) < 0.02

    def test_truncation_identity_at_tau_zero(self):
        S_u = random_unknowns()
        policy = uniform_policy(2, 3)
        assert kl_regularizer(policy, S_u, 0.0) == kl_regularizer(policy, S_u)


class TestRklAndWce:
    def test_matching_propensities_give_zero_rkl(self):
        S_u = make_log([([1.0, -1.0], i % 4, 0.25) for i in range(8)], 4)
        assert rkl_regularizer(uniform_policy(2, 4), S_u) == pytest.approx(0.0, abs=1e-12)

    def test_rkl_wce_decomposition(self):
        S_u = random_unknowns(n=50, seed=8)
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(9))
        actions = S_u.actions
        counts = np.bincount(actions, minlength=3)
        entropy_term = sum(
            (1.0 / counts[a]) * p * math.log(p)
            for a, p in zip(S_u.actions, S_u.propensities)
        )
        lhs = rkl_regularizer(policy, S_u)
        rhs = wce_regularizer(policy, S_u, 0.0) + entropy_term
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_rkl_consistency_against_enumeration(self):
        rng = make_rng(10)
        env = random_environment(rng, 3, 3, context_free_logging=True)
        policy = table_policy(env)
        _, D_r, _ = exact_divergences(env)
        S_u = sample_unknown(env, 100_000, rng)
        assert abs(rkl_regularizer(policy, S_u) - D_r) < 0.02

    def test_wce_hand_value(self):
        S_u = make_log([([0.0, 0.0], 0, 0.5)], 2)
        got = wce_regularizer(uniform_policy(2, 2), S_u, 0.0)
        assert got == pytest.approx(0.5 * math.log(2.0), abs=1e-12)  # ~ 0.346574

    def test_wce_truncation_monotone(self):
        S_u = random_unknowns(n=40, seed=11)
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(12))
        base = wce_regularizer(policy, S_u, 0.0)
        for tau in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert wce_regularizer(policy, S_u, tau) >= base - 1e-12

    def test_wce_tau_one_is_propensity_free(self):
        S_u = random_unknowns(n=25, seed=13)
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(14))
        actions = S_u.actions
        counts = np.bincount(actions, minlength=3)
        expected = sum(
            -(1.0 / counts[a]) * math.log(policy.probs_batch(x[None])[0][a])
            for x, a in zip(S_u.contexts, S_u.actions)
        )
        assert wce_regularizer(policy, S_u, 1.0) == pytest.approx(expected, abs=1e-12)


class TestCombinedObjective:
    @pytest.fixture
    def setup(self):
        rng = make_rng(15)
        env = random_environment(rng)
        S = env.sample_logged(60, rng)
        S_u = sample_unknown(env, 80, rng)
        policy = table_policy(env)
        return policy, S, S_u

    def test_alpha_one_is_pure_ips(self, setup):
        policy, S, S_u = setup
        got = combined_objective(policy, S, S_u, 1.0, 0.01, 0.01, "WCE")
        assert got == truncated_ips_risk(policy, S, 0.01)

    def test_alpha_zero_is_pure_regularizer(self, setup):
        policy, S, S_u = setup
        got = combined_objective(policy, S, S_u, 0.0, tau=0.01, variant="KL")
        assert got == kl_regularizer(policy, S_u, 0.01)

    def test_alpha_half_is_mean(self, setup):
        # at every alpha, not only 0.5: the terms are the standalone estimates, bit for bit
        policy, S, S_u = setup
        risk = truncated_ips_risk(policy, S, 0.001)
        regs = {"WCE": wce_regularizer(policy, S_u, 0.002),
                "KL": kl_regularizer(policy, S_u, 0.002), "RKL": rkl_regularizer(policy, S_u)}
        for variant, reg in regs.items():
            for alpha in (0.0, 0.1, 0.5, 0.9, 1.0):
                got = combined_objective(policy, S, S_u, alpha, 0.001, 0.002, variant)
                want = alpha * risk + (1 - alpha) * reg
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_terms_share_the_logs_memos_with_the_standalone_estimators(self, setup,
                                                                       monkeypatch):
        policy, S, S_u = setup
        truncated_ips_risk(policy, S, 0.001)
        wce_regularizer(policy, S_u, 0.002)
        forward, rows = SoftmaxPolicy.forward, []
        monkeypatch.setattr(SoftmaxPolicy, "forward",
                            lambda self, X: rows.append(len(X)) or forward(self, X))
        combined_objective(policy, S, S_u, 0.5, 0.001, 0.002, "WCE")
        assert rows == []

    def test_alpha_out_of_range(self, setup):
        policy, S, S_u = setup
        with pytest.raises(ValueError):
            combined_objective(policy, S, S_u, 1.2)

    @pytest.mark.parametrize("variant", ["CE", "IPS", "CHI2"])
    def test_only_the_papers_regularizers_are_variants(self, setup, variant):
        # "CE" is a row term of the logging policy's fit, not a regularizer
        policy, S, S_u = setup
        with pytest.raises(ValueError, match="variant must be one of"):
            combined_objective(policy, S, S_u, 0.5, variant=variant)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_empty_rewarded_rows_rejected_when_ips_counts(self, setup, alpha):
        # an empty IPS part summed to 0.0 instead of failing as truncated_ips_risk does
        policy, S, S_u = setup
        with pytest.raises(ValueError, match="alpha > 0 requires a nonempty known-reward"):
            combined_objective(policy, S.take([]), S_u, alpha)

    def test_empty_reward_free_rows_rejected_when_the_regularizer_counts(self, setup):
        policy, S, S_u = setup
        with pytest.raises(ValueError, match="alpha < 1 requires a nonempty unknown-reward"):
            combined_objective(policy, S, S_u.take([]), 0.0)

    def test_an_empty_part_with_zero_weight_is_allowed(self, setup):
        policy, S, S_u = setup
        assert combined_objective(policy, S, S_u.take([]), 1.0) == truncated_ips_risk(
            policy, S, 0.0)
        assert combined_objective(policy, S.take([]), S_u, 0.0) == wce_regularizer(policy, S_u)


class TestPseudoRewardObjective:
    def test_defined_without_rewarded_rows(self):
        # the pooled IPS term covers S and the augmented rows, so S may be empty
        aug = make_log([(np.zeros(2), 1, 0.5, -0.5)], 2)
        got = pseudo_reward_objective(uniform_policy(2, 2), aug.take([]), aug, 1.0)
        assert got == pytest.approx(-0.5, abs=1e-12)

    def test_zero_pseudo_rewards_alpha_one(self):
        S = make_log([([0.0, 0.0], 0, 0.5, -1.0)], 2)
        aug = make_log([(np.zeros(2), 1, 0.5, 0.0)], 2)
        got = pseudo_reward_objective(uniform_policy(2, 2), S, aug, 1.0)
        # alpha/(n+m) * sum over S only: 1/2 * (-1 * 0.5/0.5)
        assert got == pytest.approx(-0.5, abs=1e-12)

    def test_empty_augmentation_reduces_to_combined(self):
        rng = make_rng(16)
        env = random_environment(rng)
        S = env.sample_logged(30, rng)
        policy = table_policy(env)
        alpha, zeta, tau = 0.7, 0.01, 0.01
        got = pseudo_reward_objective(policy, S, S.take([]), alpha, zeta, tau)
        S_u_from_S = S.with_rewards(np.nan)
        expected = (alpha * truncated_ips_risk(policy, S, zeta)
                    + (1 - alpha) * wce_regularizer(policy, S_u_from_S, tau))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_two_sample_hand_computation(self):
        policy = uniform_policy(2, 3)  # pi = 1/3 everywhere
        S = make_log([([0.0, 0.0], 0, 0.4, -1.0)], 3)
        aug = make_log([(np.zeros(2), 2, 0.8, -0.25)], 3)
        alpha = 0.6
        pi = 1.0 / 3.0
        ips = (-1.0 * pi / 0.4) + (-0.25 * pi / 0.8)
        # distinct actions: each union group has one sample
        wce = -0.4 * math.log(pi) - 0.8 * math.log(pi)
        expected = alpha / 2.0 * ips + (1 - alpha) * wce
        got = pseudo_reward_objective(policy, S, aug, alpha)
        assert got == pytest.approx(expected, abs=1e-12)


class TestFloorRange:
    @pytest.mark.parametrize("estimate, floor", [
        pytest.param(lambda p, S, S_u, v: truncated_ips_risk(p, S, v), "zeta", id="ips"),
        pytest.param(lambda p, S, S_u, v: kl_regularizer(p, S_u, v), "tau", id="kl"),
        pytest.param(lambda p, S, S_u, v: wce_regularizer(p, S_u, v), "tau", id="wce"),
        pytest.param(lambda p, S, S_u, v: combined_objective(p, S, S_u, 0.5, zeta=v),
                     "zeta", id="combined-zeta"),
        pytest.param(lambda p, S, S_u, v: combined_objective(p, S, S_u, 0.5, tau=v, variant="KL"),
                     "tau", id="combined-tau"),
        pytest.param(lambda p, S, S_u, v: pseudo_reward_objective(p, S, S.take([]), 0.5, tau=v),
                     "tau", id="pseudo-reward-tau"),
    ])
    @pytest.mark.parametrize("bad", [2.0, -0.5])
    def test_floor_outside_unit_interval_rejected(self, estimate, floor, bad):
        rng = make_rng(17)
        env = random_environment(rng)
        S, S_u = env.sample_logged(30, rng), sample_unknown(env, 40, rng)
        with pytest.raises(ValueError, match=rf"{floor} must be in \[0, 1\], got {bad}"):
            estimate(table_policy(env), S, S_u, bad)


class TestPermutationInvariance:
    def test_estimators_are_order_free(self):
        rng = make_rng(17)
        env = random_environment(rng)
        S = env.sample_logged(50, rng)
        S_u = sample_unknown(env, 70, rng)
        policy = table_policy(env)
        perm = make_rng(18).permutation(len(S))
        S_p = S.take(perm)
        perm_u = make_rng(19).permutation(len(S_u))
        S_u_p = S_u.take(perm_u)
        assert truncated_ips_risk(policy, S, 0.01) == pytest.approx(
            truncated_ips_risk(policy, S_p, 0.01), abs=1e-12)
        assert kl_regularizer(policy, S_u, 0.01) == pytest.approx(
            kl_regularizer(policy, S_u_p, 0.01), abs=1e-12)
        assert wce_regularizer(policy, S_u, 0.01) == pytest.approx(
            wce_regularizer(policy, S_u_p, 0.01), abs=1e-12)
        assert rkl_regularizer(policy, S_u) == pytest.approx(
            rkl_regularizer(policy, S_u_p), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.data())
    def test_row_order_property(self, seed, data):
        rng = make_rng(seed)
        n = data.draw(st.integers(1, 40))
        perm = data.draw(st.permutations(range(n)))
        S = make_log([(rng.standard_normal(2), int(rng.choice(3)),
                       float(rng.uniform(0.05, 1.0)), float(rng.uniform(-1.0, 0.0)))
                      for _ in range(n)], 3)
        S_u = S.with_rewards(np.nan)
        policy = SoftmaxPolicy.create(2, 3, (5,), rng)
        estimates = [
            lambda rows: truncated_ips_risk(policy, rows, 0.1),
            lambda rows: kl_regularizer(policy, rows, 0.1),
            lambda rows: rkl_regularizer(policy, rows),
            lambda rows: wce_regularizer(policy, rows, 0.1),
        ]
        for estimate, rows in zip(estimates, (S, S_u, S_u, S_u)):
            # relative 1e-12; the absolute floor covers sums that cancel to ~0
            assert estimate(rows.take(list(perm))) == pytest.approx(
                estimate(rows), rel=1e-12, abs=1e-12)


class TestUnderflow:
    def test_finite_when_the_logged_action_underflows(self):
        # the logged action scores 1000 below the other, so softmax gives it
        # exactly 0 and log(softmax) would be -inf
        policy = SoftmaxPolicy(weights=[np.zeros((2, 2))], biases=[np.array([0.0, -1000.0])])
        assert policy.probs_batch(np.zeros((1, 2)))[0, 1] == 0.0
        S_u = make_log([([0.3, -0.2], 1, 0.4), ([0.1, 0.5], 0, 0.6)], 2)
        batch = S_u
        assert wce_regularizer(policy, S_u, 0.01) == pytest.approx(
            0.4 * 1000.0 + 0.6 * math.log1p(math.exp(-1000.0)))
        assert math.isfinite(kl_regularizer(policy, S_u, 0.01))
        for regularizer in ("WCE", "KL"):
            parts = objective_parts(regularizer, 0.0, 0, tau=0.01)
            (_, value), grad = value_and_grad_of(policy, batch, parts)
            assert math.isfinite(value)
            assert all(np.all(np.isfinite(g)) for g in grad.weights + grad.biases)


class TestTermValues:
    def test_value_path_matches_gradient_path(self):
        rng = make_rng(31)
        S = make_log([(rng.standard_normal(2), int(rng.choice(3)),
                       float(rng.uniform(0.05, 1.0)), float(rng.uniform(-1.0, 0.0)))
                      for _ in range(20)], 3)
        S_u = random_unknowns(n=30, seed=32)
        aug = S_u.with_rewards(rng.uniform(-1.0, 0.0, len(S_u)))
        policy = SoftmaxPolicy.create(2, 3, (5,), rng)
        cases = {
            "WCE": (S.concat(S_u), objective_parts("WCE", 0.6, len(S), 0.05, 0.05)),
            "KL": (S.concat(S_u), objective_parts("KL", 0.6, len(S), 0.05, 0.05)),
            "PR": (S.concat(aug), objective_parts("WCE", 0.6, len(S), 0.05, 0.05, pooled=True)),
        }
        for rows, parts in cases.values():
            values = term_values(policy, rows, parts)
            values_too, _ = value_and_grad_of(policy, rows, parts)
            assert np.array(values).tobytes() == np.array(values_too).tobytes()
        for alpha in (-0.1, 1.1):
            with pytest.raises(ValueError, match="alpha"):
                objective_parts("WCE", alpha, len(S), 0.05, 0.05)
        with pytest.raises(ValueError, match="regularizer"):
            objective_parts("CHI2", 0.5, len(S), 0.05, 0.05)

    def test_both_paths_reject_an_empty_log(self):
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(37))
        empty = random_unknowns(n=30, seed=38).take(slice(0, 0))
        parts = objective_parts("WCE", 0.0, 0)
        with pytest.raises(ValueError, match="empty log"):
            term_values(policy, empty, parts)
        with pytest.raises(ValueError, match="empty log"):
            value_and_grad_of(policy, empty, parts)

    def test_cross_entropy_is_the_mean_negative_log_probability_of_the_labels(self):
        rng = make_rng(35)
        rows = random_unknowns(n=30, seed=36)
        policy = SoftmaxPolicy.create(2, 3, (5,), rng)
        _, value = term_values(policy, rows, objective_parts("CE", 0.0, 0))
        log_pi = np.log(policy.probs_batch(rows.contexts)[np.arange(len(rows)), rows.actions])
        assert value == pytest.approx(-np.mean(log_pi), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.sampled_from([7, 512, semicrm.data.ROW_BLOCK]),
           st.sampled_from(["WCE", "KL", "RKL"]), st.integers(0, 2**32 - 1))
    def test_value_blocks_are_views_with_the_bits_of_gathered_blocks(self, n, block,
                                                                     regularizer, seed):
        rng = make_rng(seed)
        contexts, actions = rng.standard_normal((n, 4)), rng.integers(0, 5, n)
        propensities, rewards = rng.uniform(0.05, 1.0, n), rng.uniform(-1.0, 0.0, n)
        policy = SoftmaxPolicy.create(4, 5, (20, 20), rng)
        parts = objective_parts(regularizer, 0.6, n // 3, 0.05, 0.05)
        # the gathered form: one index array per block of np.array_split
        blocks = np.array_split(np.arange(n), -(-n // block))
        log_pi = np.concatenate([softmax_and_log_softmax(policy.forward(contexts[b])[0],
                                                         actions[b])[1] for b in blocks])
        want = [float(np.sum(run_row_term(term, log_pi[part], actions[part],
                                          propensities[part], rewards[part], floor)[0]))
                for term, part, _, floor in parts]
        forward, seen = policy.forward, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policy, "forward", lambda X: seen.append(X) or forward(X))
            mp.setattr(semicrm.data, "ROW_BLOCK", block)
            values = term_values(policy, BanditLog(contexts, actions, propensities, rewards, 5),
                                 parts)
        assert view_rows(seen, contexts) == [(b[0], len(b)) for b in blocks]
        assert all(X.base is contexts for X in seen)  # views, not gathered copies
        assert np.array(values).tobytes() == np.array(want).tobytes()

    def test_value_path_runs_in_row_blocks(self, monkeypatch):
        # 70 rows in blocks of at most 7, one straddling the known/unknown boundary
        rng = make_rng(33)
        S = make_log([(rng.standard_normal(2), int(rng.choice(3)),
                       float(rng.uniform(0.05, 1.0)), float(rng.uniform(-1.0, 0.0)))
                      for _ in range(40)], 3)
        rows = S.concat(random_unknowns(n=30, seed=34))
        policy = SoftmaxPolicy.create(2, 3, (5,), rng)
        parts = objective_parts("WCE", 0.6, len(S), 0.05, 0.05)
        whole, _ = value_and_grad_of(policy, rows, parts)
        forward, seen = policy.forward, []
        monkeypatch.setattr(policy, "forward", lambda X: seen.append(len(X)) or forward(X))
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", 7)
        values = term_values(policy, rows, parts)
        assert max(seen) <= 7 and sum(seen) == len(rows)
        assert values == pytest.approx(whole, rel=1e-12)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("block", [7, 512, 8192])
    def test_threaded_value_blocks_keep_the_serial_bits(self, block, cpus, block_threads,
                                                        monkeypatch):
        rng = make_rng(39)
        n = 20_000  # three blocks at 8192
        contexts, actions = rng.standard_normal((n, 4)), rng.integers(0, 5, n)
        policy = SoftmaxPolicy.create(4, 5, (20, 20), rng)
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", block)
        block_threads(None, cpus)
        serial = estimators._value_log_pi(policy, contexts, actions)
        block_threads(1, cpus)
        running = threading.active_count()
        threaded = estimators._value_log_pi(policy, contexts, actions)
        assert threading.active_count() == running
        assert threaded.tobytes() == serial.tobytes()


def estimates(policy, S, S_u, floor):
    """The four public estimates, bytes that a bit change anywhere would move."""
    return np.array([truncated_ips_risk(policy, S, floor), kl_regularizer(policy, S_u, floor),
                     rkl_regularizer(policy, S_u), wce_regularizer(policy, S_u, floor)]).tobytes()


def fresh(log):
    """A copy of ``log`` with the same rows and an empty memo."""
    return log.take(np.arange(len(log)))


class TestLogPiMemo:
    @pytest.fixture
    def forwarded(self, monkeypatch):
        """The row count of every SoftmaxPolicy.forward call, in order."""
        forward, rows = SoftmaxPolicy.forward, []
        monkeypatch.setattr(SoftmaxPolicy, "forward",
                            lambda self, X: rows.append(len(X)) or forward(self, X))
        return rows

    @pytest.fixture
    def logs(self):
        rng = make_rng(40)
        S = make_log([(rng.standard_normal(2), int(rng.choice(3)),
                       float(rng.uniform(0.05, 1.0)), float(rng.uniform(-1.0, 0.0)))
                      for _ in range(25)], 3)
        return S, random_unknowns(n=60, seed=41)

    def test_regularizers_forward_the_log_once(self, logs, forwarded):
        _, S_u = logs
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(42))
        kl_regularizer(policy, S_u, 0.1)
        rkl_regularizer(policy, S_u)
        wce_regularizer(policy, S_u, 0.1)
        wce_regularizer(policy, S_u, 0.3)
        assert sum(forwarded) == len(S_u)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.data())
    def test_estimates_have_the_bytes_of_a_memo_free_log(self, n, seed, data):
        rng = make_rng(seed)
        S = BanditLog(rng.standard_normal((n, 3)), rng.integers(0, 4, n),
                      rng.uniform(0.05, 1.0, n), rng.uniform(-1.0, 0.0, n), 4)
        S_u = S.with_rewards(np.nan)
        policy = SoftmaxPolicy.create(3, 4, (6,), rng)
        floors = data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.5]), min_size=1, max_size=3))
        for floor in floors:  # repeated calls on S and S_u hit their memos
            assert estimates(policy, S, S_u, floor) == estimates(policy, fresh(S), fresh(S_u),
                                                                 floor)

    def test_a_changed_policy_is_scored_anew(self, logs, forwarded):
        S, S_u = logs
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(43))
        grad = PolicyGradient(policy.weights, policy.biases)
        before = estimates(policy, S, S_u, 0.05)
        policy.apply_update(grad, 0.5)
        del forwarded[:]
        after = estimates(policy, S, S_u, 0.05)
        assert sum(forwarded) == len(S) + len(S_u)
        assert after != before and after == estimates(policy, fresh(S), fresh(S_u), 0.05)
        policy.weights[0][1, 2] += 0.25  # in place, through a view of flat
        del forwarded[:]
        written = estimates(policy, S, S_u, 0.05)
        assert sum(forwarded) == len(S) + len(S_u)
        assert written != after and written == estimates(policy, fresh(S), fresh(S_u), 0.05)

    def test_policies_from_one_checkpoint_share_the_entry(self, logs, forwarded, tmp_path):
        _, S_u = logs
        save_policy(SoftmaxPolicy.create(2, 3, (3,), make_rng(44)), tmp_path / "p.policy")
        first, second = load_policy(tmp_path / "p.policy"), load_policy(tmp_path / "p.policy")
        value = wce_regularizer(first, S_u, 0.1)
        assert wce_regularizer(second, S_u, 0.1) == value
        assert sum(forwarded) == len(S_u)

    def test_other_layer_shapes_with_the_same_bytes_miss(self, logs, forwarded):
        _, S_u = logs
        one = SoftmaxPolicy.create(2, 3, (3,), make_rng(45))
        two = SoftmaxPolicy.create(2, 3, (2, 2), make_rng(46))
        two.flat[:] = one.flat  # 21 parameters each
        first = wce_regularizer(one, S_u, 0.1)
        second = wce_regularizer(two, S_u, 0.1)
        assert sum(forwarded) == 2 * len(S_u)
        assert second != first and second == wce_regularizer(two, fresh(S_u), 0.1)

    def test_another_block_size_misses(self, logs, forwarded, monkeypatch):
        _, S_u = logs
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(47))
        kl_regularizer(policy, S_u, 0.1)
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", 7)
        del forwarded[:]
        kl_regularizer(policy, S_u, 0.1)
        assert max(forwarded) <= 7 and sum(forwarded) == len(S_u)

    def test_columns_are_read_only(self, logs):
        S, _ = logs
        for name in ("contexts", "actions", "propensities", "rewards"):
            column = getattr(S, name)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]

    def test_the_arrays_a_log_is_built_from_stay_writable(self):
        contexts = np.zeros((2, 2))
        BanditLog(contexts, [0, 1], [0.5, 0.5], [np.nan, np.nan], 2)
        contexts[0, 0] = 1.0

    def test_derived_logs_start_with_an_empty_memo(self, logs, forwarded):
        S, S_u = logs
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(48))
        wce_regularizer(policy, S_u, 0.1)
        wce_regularizer(policy, S, 0.1)
        for derived in (S_u.take(slice(None)), S_u.concat(S_u.take([])),
                        S_u.with_rewards(-0.5), S.with_rewards(np.nan)):
            assert derived._memo == {}  # no log pi and no term's constants
            del forwarded[:]
            wce_regularizer(policy, derived, 0.1)
            assert sum(forwarded) == len(derived)


class TestConstantsMemo:
    @pytest.fixture
    def computed(self, monkeypatch):
        """The term of every call to a term's policy-free half, in order."""
        calls = []
        for term, (constants_of, rows_of) in list(ROW_TERMS.items()):
            monkeypatch.setitem(ROW_TERMS, term, (
                lambda *columns, term=term, constants_of=constants_of:
                calls.append(term) or constants_of(*columns), rows_of))
        return calls

    @pytest.fixture
    def logs(self):
        rng = make_rng(50)
        S = BanditLog(rng.standard_normal((40, 2)), rng.integers(0, 3, 40),
                      rng.uniform(0.05, 1.0, 40), rng.uniform(-1.0, 0.0, 40), 3)
        return S, random_unknowns(n=70, seed=51)

    def test_eight_policies_compute_each_terms_constants_once_per_log(self, logs, computed):
        S, S_u = logs
        policies = [SoftmaxPolicy.create(2, 3, (5,), make_rng([52, j])) for j in range(8)]
        scored = [estimates(policy, S, S_u, 0.05) for policy in policies]
        assert sorted(computed) == ["IPS", "KL", "RKL", "WCE"]
        assert scored == [estimates(policy, fresh(S), fresh(S_u), 0.05) for policy in policies]

    def test_a_new_floor_recomputes_them(self, logs, computed):
        _, S_u = logs
        policy = SoftmaxPolicy.create(2, 3, (5,), make_rng(53))
        for tau in (0.1, 0.1, 0.3, 0.3, 0.1):
            assert wce_regularizer(policy, S_u, tau) == wce_regularizer(policy, fresh(S_u), tau)
        assert computed.count("WCE") == 3 + 5  # the fresh logs compute them every time

    def test_a_log_holds_at_most_one_entry_per_term_slot(self, logs):
        S, S_u = logs
        for j in range(4):
            policy = SoftmaxPolicy.create(2, 3, (5,), make_rng([54, j]))
            for floor in (0.0, 0.05, 0.5):
                estimates(policy, S, S_u, floor)
        assert set(S._memo) == {"log_pi", "IPS"}
        assert set(S_u._memo) == {"log_pi", "KL", "RKL", "WCE"}
        assert S_u._memo["WCE"][0] == (slice(None), 0.5)
        held = sum(a.nbytes for _, value in S_u._memo.values()
                   for a in (value if isinstance(value, tuple) else (value,)))
        assert held <= 6 * len(S_u) * 8  # log pi, 2 for KL, 2 for RKL, 1 for WCE

    def test_constants_are_read_only(self, logs):
        _, S_u = logs
        kl_regularizer(SoftmaxPolicy.create(2, 3, (5,), make_rng(55)), S_u, 0.1)
        for constant in S_u._memo["KL"][1]:
            with pytest.raises(ValueError, match="read-only"):
                constant[0] = 1.0
