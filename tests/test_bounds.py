import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from semicrm.bounds import (
    BoundInputs,
    DiscreteEnvironment,
    bound_report,
    chi2_kl_crossover,
    exact_divergences,
    exact_true_risk,
    exact_weighted_variance,
    expectation_gap_bound,
    gibbs_optimal_policy,
    random_environment,
    read_environment,
    regularized_objective,
    risk_diff_bound,
    true_risk_bound,
    var_lower_kl,
    var_upper_chi2,
    var_upper_kl,
    write_environment,
)
from semicrm.rng import make_rng


def env_with(context_probs, logging, target, rewards):
    return DiscreteEnvironment(
        np.array(context_probs), np.array(logging), np.array(target), np.array(rewards)
    )


class TestEnvironmentValidation:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            env_with([1.0], [[0.6, 0.3]], [[0.5, 0.5]], [[0.0, 0.0]])

    def test_rejects_absolute_continuity_violation(self):
        with pytest.raises(ValueError):
            env_with([1.0], [[1.0, 0.0]], [[0.5, 0.5]], [[0.0, 0.0]])


class TestSampleLogged:
    def test_u_past_a_row_total_under_one_logs_the_last_action(self):
        # the row sums to 1 - 5e-13, within the tolerance; a u above that total
        # once counted every CDF entry and indexed action 3 of 3
        class LastDraw:
            def choice(self, n, size, p):
                return np.zeros(size, dtype=int)

            def random(self, n):
                return np.full(n, 0.9999999999999)

        row = [0.5, 0.25, 0.25 - 5e-13]
        env = env_with([1.0], [row], [row], [[-1.0, -0.5, 0.0]])
        assert np.cumsum(row)[-1] < 0.9999999999999
        S = env.sample_logged(2, LastDraw())
        assert S.actions.tolist() == [2, 2]
        assert S.propensities.tolist() == [row[2]] * 2

    def test_actions_follow_the_inverse_cdf_of_the_logging_table(self):
        env = random_environment(make_rng(5), num_contexts=4, action_count=5)
        S = env.sample_logged(2000, make_rng(6))
        rng = make_rng(6)
        xs = rng.choice(4, size=2000, p=env.context_probs)
        cdf = np.cumsum(env.logging_table, axis=1)[xs]
        assert np.array_equal(S.actions, (rng.random(2000)[:, None] > cdf).sum(axis=1))


class TestExactTrueRisk:
    def test_zero_rewards(self):
        rng = make_rng(0)
        env = random_environment(rng, 3, 3, reward_range=(0.0, 0.0))
        assert exact_true_risk(env) == 0.0

    def test_constant_minus_one(self):
        rng = make_rng(1)
        env = random_environment(rng, 3, 4, reward_range=(-1.0, -1.0))
        assert exact_true_risk(env) == pytest.approx(-1.0, abs=1e-12)
        assert exact_true_risk(env, "logging") == pytest.approx(-1.0, abs=1e-12)

    def test_hand_enumeration(self):
        env = env_with(
            [0.5, 0.5],
            [[0.5, 0.5], [0.5, 0.5]],
            [[1.0, 0.0], [0.0, 1.0]],
            [[-1.0, 0.0], [0.0, -1.0]],
        )
        assert exact_true_risk(env) == pytest.approx(-1.0, abs=1e-12)


class TestExactDivergences:
    def test_identical_policies(self):
        rng = make_rng(2)
        env = random_environment(rng, 3, 3)
        same = env_with(env.context_probs, env.logging_table,
                        env.logging_table, env.reward_table)
        D, D_r, chi2 = exact_divergences(same)
        assert D == pytest.approx(0.0, abs=1e-12)
        assert D_r == pytest.approx(0.0, abs=1e-12)
        assert chi2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_values_deterministic_target(self):
        env = env_with([1.0], [[0.5, 0.5]], [[1.0, 0.0]], [[-1.0, 0.0]])
        D, D_r, chi2 = exact_divergences(env)
        assert D == pytest.approx(math.log(2.0), abs=1e-12)
        assert chi2 == pytest.approx(1.0, abs=1e-12)
        assert D_r == math.inf  # logging puts mass where the target has none


class TestExactWeightedVariance:
    def test_constant_importance_weighted_reward(self):
        rng = make_rng(3)
        env = random_environment(rng, 2, 3, reward_range=(-1.0, -1.0))
        same = env_with(env.context_probs, env.logging_table,
                        env.logging_table, env.reward_table)
        assert exact_weighted_variance(same) == pytest.approx(0.0, abs=1e-12)

    def test_zero_rewards(self):
        rng = make_rng(4)
        env = random_environment(rng, 2, 3, reward_range=(0.0, 0.0))
        assert exact_weighted_variance(env) == 0.0

    def test_against_monte_carlo(self):
        rng = make_rng(5)
        env = random_environment(rng, 3, 3)
        n = 1_000_000
        xs = rng.choice(env.num_contexts, size=n, p=env.context_probs)
        u = rng.random(n)
        cdf = np.cumsum(env.logging_table, axis=1)
        acts = (u[:, None] > cdf[xs]).sum(axis=1)
        w = env.target_table[xs, acts] / env.logging_table[xs, acts]
        vals = w * env.reward_table[xs, acts]
        mc_var = vals.var()
        exact = exact_weighted_variance(env)
        se = vals.var() * math.sqrt(2.0 / n)  # rough se of a variance estimate
        assert abs(mc_var - exact) < max(3 * se, 5e-3)


class TestVarianceBounds:
    def test_upper_kl_zero_divergence(self):
        inputs = BoundInputs(w_m=1.0, b=0.0, c=-1.0)
        assert var_upper_kl(inputs, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_upper_kl_hand_value(self):
        inputs = BoundInputs(w_m=5.0, b=0.0, c=-1.0, sigma=1.0)
        assert var_upper_kl(inputs, 2.0, 7.0) == pytest.approx(3.0, abs=1e-12)

    def test_upper_chi2_values(self):
        inputs = BoundInputs(w_m=1.0, b=0.0, c=-1.0)
        assert var_upper_chi2(inputs, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert var_upper_chi2(inputs, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_lower_kl_values(self):
        assert var_lower_kl(BoundInputs(w_m=1.0, q=0.0), 1.0) == pytest.approx(-1.0)
        got = var_lower_kl(BoundInputs(w_m=1.0, q=1.0), math.log(4.0))
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_dominance_on_random_environments(self):
        for seed in range(30):
            rng = make_rng(1000 + seed)
            env = random_environment(rng, 3, 3)
            D, D_r, chi2 = exact_divergences(env)
            inputs = BoundInputs(w_m=env.max_importance_weight(), b=0.0, c=-1.0)
            exact = exact_weighted_variance(env)
            assert var_upper_kl(inputs, D, D_r) >= exact - 1e-12
            assert var_upper_chi2(inputs, chi2) >= exact - 1e-12

    def test_lower_bound_with_constant_rewards(self):
        for seed in range(30):
            rng = make_rng(2000 + seed)
            env = random_environment(rng, 3, 3, reward_range=(-1.0, -1.0))
            D, _, _ = exact_divergences(env)
            inputs = BoundInputs(w_m=env.max_importance_weight(), q=1.0, b=0.0, c=-1.0)
            assert var_lower_kl(inputs, D) <= exact_weighted_variance(env) + 1e-12


NEGATIVE_DIVERGENCES = [(-1.12, 3.0), (3.0, -1.12), (-0.5, -0.5)]


class TestTrueRiskBound:
    def test_hand_value(self):
        inputs = BoundInputs(w_m=1.0, n=100, delta=0.05)
        got = true_risk_bound(-0.5, inputs, 0.0, 0.0)
        assert got == pytest.approx(-0.5 + 0.0099857 + 0.2447756, abs=1e-6)

    def test_monotone_in_n(self):
        prev = math.inf
        for n in (10, 100, 1000, 10_000):
            inputs = BoundInputs(w_m=3.0, n=n, delta=0.05)
            val = true_risk_bound(-0.5, inputs, 0.2, 0.4)
            assert val < prev
            prev = val

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            true_risk_bound(0.0, BoundInputs(delta=1.5), 0.0, 0.0)

    @pytest.mark.parametrize("D, D_r", NEGATIVE_DIVERGENCES)
    def test_negative_divergence_rejected(self, D, D_r):
        with pytest.raises(ValueError, match="divergences must be nonnegative"):
            true_risk_bound(-0.5, BoundInputs(w_m=10, n=100), D, D_r)


class TestBoundInputs:
    @pytest.mark.parametrize("kw, message", [
        (dict(n=0), "n must be >= 1, got 0"),
        (dict(n=-5), "n must be >= 1, got -5"),
        (dict(delta=0.0), r"delta must be in \(0, 1\), got 0.0"),
        (dict(delta=1.5), r"delta must be in \(0, 1\), got 1.5"),
    ], ids=["n=0", "n=-5", "delta=0", "delta=1.5"])
    def test_out_of_range_rejected_when_built(self, kw, message):
        with pytest.raises(ValueError, match=message):
            BoundInputs(**kw)

    def test_built_inputs_cannot_be_changed(self):
        inputs = BoundInputs(n=100)
        with pytest.raises(FrozenInstanceError):
            inputs.n = 0


class TestRiskDiffBound:
    def test_values(self):
        assert risk_diff_bound(0.0, 0.0) == 0.0
        assert risk_diff_bound(2.0, 8.0) == pytest.approx(1.0, abs=1e-12)

    def test_dominates_actual_difference(self):
        for seed in range(30):
            rng = make_rng(3000 + seed)
            env = random_environment(rng, 3, 3)
            D, D_r, _ = exact_divergences(env)
            gap = abs(exact_true_risk(env, "target") - exact_true_risk(env, "logging"))
            assert gap <= risk_diff_bound(D, D_r) + 1e-12

    @pytest.mark.parametrize("D, D_r", NEGATIVE_DIVERGENCES)
    def test_negative_divergence_rejected(self, D, D_r):
        with pytest.raises(ValueError, match="divergences must be nonnegative"):
            risk_diff_bound(D, D_r)


class TestExpectationGapBound:
    def test_values(self):
        assert expectation_gap_bound(1.0, 0.0) == 0.0
        assert expectation_gap_bound(1.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_bounded_function_on_discrete_space(self):
        rng = make_rng(6)
        for _ in range(20):
            f = rng.uniform(-2.0, 2.0, size=5)
            p = rng.uniform(0.1, 1.0, size=5)
            p /= p.sum()
            q = rng.uniform(0.1, 1.0, size=5)
            q /= q.sum()
            D = float(np.sum(p * np.log(p / q)))
            sigma = (f.max() - f.min()) / 2.0
            gap = abs(float(p @ f - q @ f))
            assert gap <= expectation_gap_bound(sigma, D) + 1e-12


class TestCrossover:
    def test_reference_value(self):
        C = chi2_kl_crossover(2.0)
        assert 1.27 <= C <= 1.29

    def test_residual(self):
        C = chi2_kl_crossover(2.0)
        assert abs(math.log(1.0 + C) - 2.0 * C * C / 4.0) < 1e-9

    def test_kl_bound_tighter_beyond_crossover(self):
        w_m = 2.0
        C = chi2_kl_crossover(w_m)
        inputs = BoundInputs(w_m=w_m, b=0.0, c=-1.0, sigma=w_m / 2.0)
        for chi2 in np.linspace(C, w_m, 25):
            D = math.log(1.0 + chi2)
            assert var_upper_kl(inputs, D, math.inf) <= var_upper_chi2(inputs, chi2) + 1e-12

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            chi2_kl_crossover(0.5)
        with pytest.raises(ValueError):
            chi2_kl_crossover(math.exp(2.0))


class TestGibbsPolicy:
    def test_two_action_hand_value(self):
        env = env_with([1.0], [[0.5, 0.5]], [[0.5, 0.5]], [[-1.0, 0.0]])
        table = gibbs_optimal_policy(env, 0.5)
        e = math.e
        assert table[0] == pytest.approx([e / (e + 1.0), 1.0 / (e + 1.0)], abs=1e-9)

    def test_constant_rewards_recover_logging(self):
        rng = make_rng(7)
        env = random_environment(rng, 3, 3, reward_range=(-0.4, -0.4))
        table = gibbs_optimal_policy(env, 0.7)
        assert np.allclose(table, env.logging_table, atol=1e-12)

    def test_constant_shift_invariance(self):
        rng = make_rng(8)
        env = random_environment(rng, 3, 3)
        shifted = env_with(env.context_probs, env.logging_table, env.target_table,
                           env.reward_table + 0.37)
        t1 = gibbs_optimal_policy(env, 0.6)
        t2 = gibbs_optimal_policy(shifted, 0.6)
        assert np.max(np.abs(t1 - t2)) < 1e-12

    def test_alpha_one_is_argmin_reward(self):
        env = env_with([1.0], [[0.25, 0.25, 0.5]], [[1 / 3] * 3], [[-1.0, -1.0, 0.0]])
        table = gibbs_optimal_policy(env, 1.0)
        assert np.allclose(table[0], [0.5, 0.5, 0.0])

    def test_beats_random_perturbations(self):
        rng = make_rng(9)
        env = random_environment(rng, 3, 3)
        for alpha in (0.3, 0.5, 0.9):
            star = gibbs_optimal_policy(env, alpha)
            best = regularized_objective(env, star, alpha)
            for _ in range(200):
                raw = rng.uniform(0.01, 1.0, size=star.shape)
                probe = raw / raw.sum(axis=1, keepdims=True)
                assert best <= regularized_objective(env, probe, alpha) + 1e-12

    def test_alpha_validated(self):
        env = random_environment(make_rng(10))
        with pytest.raises(ValueError):
            gibbs_optimal_policy(env, 0.0)


class TestEnvironmentFileAndReport:
    def test_round_trip(self, tmp_path):
        env = random_environment(make_rng(11), 3, 4)
        path = tmp_path / "env.csv"
        write_environment(path, env)
        loaded = read_environment(path)
        assert np.array_equal(loaded.context_probs, env.context_probs)
        assert np.array_equal(loaded.logging_table, env.logging_table)
        assert np.array_equal(loaded.target_table, env.target_table)
        assert np.array_equal(loaded.reward_table, env.reward_table)

    # random_environment(rng, 3, 4): line 1 context_probs, line 3 logging,
    # lines 4-6 its rows of 4, line 11 rewards, lines 12-14 its rows
    @staticmethod
    def edited_environment(tmp_path, edit):
        path = tmp_path / "env.csv"
        write_environment(path, random_environment(make_rng(11), 3, 4))
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_non_numeric_value_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            lines[4] = "abc," + lines[4].split(",", 1)[1]
        with pytest.raises(ValueError, match="line 5"):
            read_environment(self.edited_environment(tmp_path, edit))

    def test_short_row_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            lines[4] = lines[4].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="line 5: expected 4 finite values"):
            read_environment(self.edited_environment(tmp_path, edit))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_rejected_with_line_number(self, tmp_path, bad):
        def edit(lines):
            lines[12] = f"{bad}," + lines[12].split(",", 1)[1]
        with pytest.raises(ValueError, match="line 13: expected 4 finite values"):
            read_environment(self.edited_environment(tmp_path, edit))

    def test_blank_line_counts_toward_line_numbers(self, tmp_path):
        def edit(lines):
            lines[4] = "abc," + lines[4].split(",", 1)[1]
            lines.insert(2, "")
        with pytest.raises(ValueError, match="line 6"):
            read_environment(self.edited_environment(tmp_path, edit))

    def test_second_context_probs_row_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            lines.insert(2, lines[1])
        with pytest.raises(ValueError, match="line 3: context_probs takes one row"):
            read_environment(self.edited_environment(tmp_path, edit))

    def test_repeated_section_rejected_with_line_number(self, tmp_path):
        # a second logging section used to replace the first one's rows
        def edit(lines):
            lines.extend(lines[2:6])
        with pytest.raises(ValueError, match="line 15: repeated section 'logging'"):
            read_environment(self.edited_environment(tmp_path, edit))

    def test_row_before_any_section_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            lines.insert(0, "0.5,0.5")
        with pytest.raises(ValueError, match="line 1: expected a section name, got '0.5,0.5'"):
            read_environment(self.edited_environment(tmp_path, edit))

    @pytest.mark.parametrize("cut, missing", [
        (slice(10, None), "rewards"),  # the header and its rows
        (slice(7, 10), "target"),  # the rows, so the header is followed by rewards
    ], ids=["missing-rewards", "empty-target"])
    def test_missing_or_empty_section_rejected(self, tmp_path, cut, missing):
        def edit(lines):
            del lines[cut]
        with pytest.raises(ValueError, match=rf"missing or empty sections \['{missing}'\]"):
            read_environment(self.edited_environment(tmp_path, edit))

    @pytest.mark.parametrize("kw, message", [
        # n=0 used to report the bound at n=1, n=-5 a NaN bound, and delta=1.5
        # without n went through
        (dict(n=0), "n must be >= 1"),
        (dict(n=-5), "n must be >= 1"),
        (dict(delta=1.5), r"delta must be in \(0, 1\)"),
    ], ids=["n=0", "n=-5", "delta=1.5"])
    def test_report_rejects_bad_n_or_delta(self, kw, message):
        env = random_environment(make_rng(12), 3, 3)
        with pytest.raises(ValueError, match=message):
            bound_report(env, **kw)

    def test_report_brackets_exact_variance(self):
        env = random_environment(make_rng(12), 3, 3)
        report = bound_report(env, delta=0.05, n=100)
        assert report["var_upper_kl"] >= report["exact_variance"]
        assert report["var_upper_chi2"] >= report["exact_variance"]
        assert report["var_lower_kl"] <= report["exact_variance"]
