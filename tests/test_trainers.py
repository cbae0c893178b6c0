import math

import numpy as np
import pytest
from conftest import make_log, sample_unknown
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrm.bounds import random_environment
from semicrm.data import supervised_to_bandit
from semicrm.estimators import (
    combined_objective,
    objective_parts,
    pseudo_reward_objective,
    term_values,
)
from semicrm.harness import SyntheticSpec, generate_synthetic
from semicrm.policy import DimensionMismatchError, PolicyGradient, SoftmaxPolicy
from semicrm.rng import make_rng
from semicrm.trainers import (
    TrainConfig,
    TrainingDiverged,
    _sample_indices,
    fit_reward_regressor,
    predict_pseudo_rewards,
    train_kl_crm,
    train_pr_crm,
    train_wce_crm,
)


def flat_params(policy):
    return np.concatenate([a.ravel() for a in policy.weights + policy.biases])


def flat_grad(grad):
    return np.concatenate([a.ravel() for a in grad.weights + grad.biases])


def nudged(policy, flat_delta):
    out = policy.copy()
    pos = 0
    for arr in out.weights + out.biases:
        arr += flat_delta[pos: pos + arr.size].reshape(arr.shape)
        pos += arr.size
    return out


def random_batches(seed=0, n=12, m=16, d=3, k=3):
    rng = make_rng(seed)
    S = make_log([
        (rng.standard_normal(d), int(rng.choice(k)),
         float(rng.uniform(0.05, 1.0)), float(rng.uniform(-1.0, 0.0)))
        for _ in range(n)
    ], k)
    S_u = make_log([
        (rng.standard_normal(d), int(rng.choice(k)), float(rng.uniform(0.05, 1.0)))
        for _ in range(m)
    ], k)
    return S, S_u


def check_gradient(policy, value_fn, grad, rel_tol=1e-4, h=1e-6):
    analytic = flat_grad(grad)
    num = np.zeros_like(analytic)
    for i in range(len(analytic)):
        e = np.zeros_like(analytic)
        e[i] = h
        num[i] = (value_fn(nudged(policy, e)) - value_fn(nudged(policy, -e))) / (2 * h)
    scale = max(np.abs(analytic).max(), 1e-8)
    assert np.max(np.abs(analytic - num)) / scale < rel_tol


class TestObjectiveGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_truncated_ips(self, seed):
        S, _ = random_batches(seed)
        policy = SoftmaxPolicy.create(3, 3, (5,), make_rng(seed + 50))
        batch = S
        parts = objective_parts("WCE", 1.0, len(batch), zeta=0.1)
        _, grad = term_values(policy, batch, parts, gradient=True)
        check_gradient(policy, lambda p: term_values(p, batch, parts)[0][0], grad)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("term", ["WCE", "KL", "CE"])
    def test_regularizer(self, term, seed):
        _, S_u = random_batches(seed)
        policy = SoftmaxPolicy.create(3, 3, (5,), make_rng(seed + 60))
        batch = S_u
        parts = objective_parts(term, 0.0, 0, tau=0.05)
        _, grad = term_values(policy, batch, parts, gradient=True)
        check_gradient(policy, lambda p: term_values(p, batch, parts)[0][1], grad)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pseudo_reward(self, seed):
        S, S_u = random_batches(seed)
        rng = make_rng(seed + 80)
        aug = S_u.with_rewards([float(rng.uniform(-1.0, 0.0)) for _ in range(len(S_u))])
        policy = SoftmaxPolicy.create(3, 3, (5,), make_rng(seed + 90))
        known, aug_batch = S, aug
        rows = known.concat(aug_batch)
        parts = objective_parts("WCE", 0.6, len(known), 0.05, 0.05, pooled=True)

        def value(p):
            (ips, wce), _ = term_values(p, rows, parts)
            return 0.6 * ips + 0.4 * wce

        _, grad = term_values(policy, rows, parts, gradient=True)
        check_gradient(policy, value, grad)


    @pytest.mark.parametrize("missing", [1, 3])
    @pytest.mark.parametrize("regularizer", ["WCE", "KL"])
    def test_action_with_no_row_in_the_batch(self, regularizer, missing):
        # action `missing` of four has no row, so its group count m_[a] is 0
        rng = make_rng(110 + missing)
        taken = [a for a in range(4) if a != missing]
        rows = make_log([
            (rng.standard_normal(3), int(rng.choice(taken)), float(rng.uniform(0.05, 1.0)),
             float(rng.uniform(-1.0, 0.0)) if i < 8 else np.nan)
            for i in range(20)
        ], 4)
        policy = SoftmaxPolicy.create(3, 4, (5,), make_rng(120))
        parts = objective_parts(regularizer, 0.6, 8, 0.05, 0.05)
        values, grad = term_values(policy, rows, parts, gradient=True)
        assert all(map(math.isfinite, values)) and np.all(np.isfinite(grad.flat))

        def value(p):
            ips, reg = term_values(p, rows, parts)[0]
            return 0.6 * ips + 0.4 * reg

        check_gradient(policy, value, grad)


class TestSampleIndices:
    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(0, 100_000), data=st.data())
    def test_distinct_sorted_rows(self, size, data):
        batch = data.draw(st.integers(0, size), label="batch")
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = rng.bit_generator.state
        idx = _sample_indices(rng, size, batch)
        assert idx.shape == (batch,) and idx.dtype.kind == "i"
        assert np.all(np.diff(idx) > 0)
        assert batch == 0 or (idx[0] >= 0 and idx[-1] < size)
        if batch == size:
            assert np.array_equal(idx, np.arange(size))
            assert rng.bit_generator.state == state

    @given(size=st.integers(0, 1000), excess=st.integers(1, 1000))
    def test_batch_larger_than_the_rows_rejected(self, size, excess):
        with pytest.raises(ValueError,
                           match=f"^batch size {size + excess} exceeds dataset size {size}$"):
            _sample_indices(make_rng(0), size, size + excess)


class TestValuesAndGradientsShareOneDefinition:
    """One full-batch step at learning rate 1 moves the parameters by minus the
    gradient, which must match finite differences of the public value function."""

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("algorithm", ["WCE", "KL", "PR"])
    def test_step_is_gradient_of_public_objective(self, algorithm, alpha):
        S, S_u = random_batches(3, n=12, m=16)
        init = SoftmaxPolicy.create(3, 3, (5,), make_rng(40))
        cfg = TrainConfig(alpha=alpha, zeta=0.05, tau=0.05, epochs=1, batch_known=len(S),
                          batch_unknown=len(S_u), learning_rate=1.0)
        trainer = {"WCE": train_wce_crm, "KL": train_kl_crm, "PR": train_pr_crm}[algorithm]
        stepped, _ = trainer(S, S_u, cfg, init)
        if algorithm == "PR":
            aug = predict_pseudo_rewards(fit_reward_regressor(S), S_u)
            value_fn = lambda p: pseudo_reward_objective(p, S, aug, alpha, 0.05, 0.05)
        else:
            value_fn = lambda p: combined_objective(p, S, S_u, alpha, 0.05, 0.05, algorithm)
        step = PolicyGradient([a - b for a, b in zip(init.weights, stepped.weights)],
                              [a - b for a, b in zip(init.biases, stepped.biases)])
        check_gradient(init, value_fn, step)


class TestHandWorkedStep:
    def test_single_step_matches_manual_arithmetic(self):
        # one-hidden-unit scorer: h = relu(w x + b), scores = (u0 h + c0, u1 h + c1)
        w, b, u0, u1, c0, c1 = 0.5, 0.1, 0.8, -0.3, 0.05, -0.2
        policy = SoftmaxPolicy(
            weights=[np.array([[w]]), np.array([[u0, u1]])],
            biases=[np.array([b]), np.array([c0, c1])],
        )
        x_k, a_k, p_k, r_k = 1.2, 0, 0.4, -1.0
        x_u, a_u, p_u = -0.7, 1, 0.6
        alpha, lr = 0.6, 1.0

        S = make_log([([x_k], a_k, p_k, r_k)], 2)
        S_u = make_log([([x_u], a_u, p_u)], 2)
        cfg = TrainConfig(alpha=alpha,
                          epochs=1, batch_known=1, batch_unknown=1,
                          learning_rate=lr, seed=0)
        trained, _ = train_wce_crm(S, S_u, cfg, policy)

        def forward(x):
            h = max(w * x + b, 0.0)
            s0, s1 = u0 * h + c0, u1 * h + c1
            mx = max(s0, s1)
            e0, e1 = math.exp(s0 - mx), math.exp(s1 - mx)
            z = e0 + e1
            return h, (e0 / z, e1 / z)

        # gradient of r * pi_0(x_k) / p_k through softmax and scorer
        h_k, pi_k = forward(x_k)
        coeff = r_k / p_k * pi_k[0]          # dL/ds = coeff * (e_0 - pi)
        ds_k = (coeff * (1.0 - pi_k[0]), coeff * (0.0 - pi_k[1]))
        relu_on_k = 1.0 if w * x_k + b > 0 else 0.0
        dh_k = (ds_k[0] * u0 + ds_k[1] * u1) * relu_on_k
        g1 = {
            "w": dh_k * x_k, "b": dh_k,
            "u0": ds_k[0] * h_k, "u1": ds_k[1] * h_k,
            "c0": ds_k[0], "c1": ds_k[1],
        }
        # gradient of -p_u * log pi_1(x_u)   (m_[1] = 1)
        h_u, pi_u = forward(x_u)
        ds_u = (-p_u * (0.0 - pi_u[0]), -p_u * (1.0 - pi_u[1]))
        relu_on_u = 1.0 if w * x_u + b > 0 else 0.0
        dh_u = (ds_u[0] * u0 + ds_u[1] * u1) * relu_on_u
        g2 = {
            "w": dh_u * x_u, "b": dh_u,
            "u0": ds_u[0] * h_u, "u1": ds_u[1] * h_u,
            "c0": ds_u[0], "c1": ds_u[1],
        }
        step = {key: lr * (alpha * g1[key] + (1 - alpha) * g2[key]) for key in g1}
        assert trained.weights[0][0, 0] == pytest.approx(w - step["w"], abs=1e-10)
        assert trained.biases[0][0] == pytest.approx(b - step["b"], abs=1e-10)
        assert trained.weights[1][0, 0] == pytest.approx(u0 - step["u0"], abs=1e-10)
        assert trained.weights[1][0, 1] == pytest.approx(u1 - step["u1"], abs=1e-10)
        assert trained.biases[1][0] == pytest.approx(c0 - step["c0"], abs=1e-10)
        assert trained.biases[1][1] == pytest.approx(c1 - step["c1"], abs=1e-10)


class TestTrainerContracts:
    def make_setup(self, seed=0):
        S, S_u = random_batches(seed, n=20, m=30)
        init = SoftmaxPolicy.create(3, 3, (6,), make_rng(seed + 100))
        return S, S_u, init

    def cfg(self, **kw):
        defaults = dict(alpha=0.5, zeta=0.01, tau=0.01,
                        epochs=5, batch_known=20, batch_unknown=30,
                        learning_rate=0.05, seed=7)
        defaults.update(kw)
        return TrainConfig(**defaults)

    @pytest.mark.parametrize("floor, bad", [("zeta", 1.5), ("tau", -0.1)])
    def test_floor_outside_unit_interval_rejected(self, floor, bad):
        with pytest.raises(ValueError, match=rf"{floor} must be in \[0, 1\], got {bad}"):
            TrainConfig(**{floor: bad})

    @pytest.mark.parametrize("bad", [1.5, -0.1])
    def test_alpha_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"alpha must be in \[0, 1\], got {bad}"):
            TrainConfig(alpha=bad)

    def test_seed_determinism(self):
        S, S_u, init = self.make_setup()
        p1, _ = train_wce_crm(S, S_u, self.cfg(), init)
        p2, _ = train_wce_crm(S, S_u, self.cfg(), init)
        for a, b in zip(flat_params(p1), flat_params(p2)):
            assert a == b

    def test_alpha_one_wce_and_kl_agree(self):
        S, S_u, init = self.make_setup(1)
        p_wce, _ = train_wce_crm(S, S_u, self.cfg(alpha=1.0), init)
        p_kl, _ = train_kl_crm(S, S_u, self.cfg(alpha=1.0), init)
        assert np.array_equal(flat_params(p_wce), flat_params(p_kl))

    def test_alpha_linearity_of_update(self):
        S, S_u, init = self.make_setup(2)
        theta0 = flat_params(init)
        deltas = {}
        for alpha in (0.0, 1.0, 0.3):
            cfg = self.cfg(alpha=alpha, epochs=1)
            p, _ = train_wce_crm(S, S_u, cfg, init)
            deltas[alpha] = flat_params(p) - theta0
        combo = 0.3 * deltas[1.0] + 0.7 * deltas[0.0]
        assert np.max(np.abs(deltas[0.3] - combo)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["WCE", "KL", "PR"]), st.floats(0.0, 1.0), st.integers(1, 20),
           st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_one_step_update_is_linear_in_alpha(self, algorithm, alpha, batch_known,
                                                batch_unknown, seed):
        # one step on one minibatch (the draw depends on the seed, not on alpha)
        S, S_u = random_batches(seed, n=20, m=30)
        init = SoftmaxPolicy.create(3, 3, (6,), make_rng(seed + 1))
        train = {"WCE": train_wce_crm, "KL": train_kl_crm, "PR": train_pr_crm}[algorithm]
        theta0, deltas = flat_params(init), {}
        for a in (0.0, 1.0, alpha):
            cfg = self.cfg(alpha=a, epochs=1, batch_known=batch_known,
                           batch_unknown=batch_unknown, seed=seed)
            deltas[a] = flat_params(train(S, S_u, cfg, init)[0]) - theta0
        combo = alpha * deltas[1.0] + (1.0 - alpha) * deltas[0.0]
        assert np.max(np.abs(deltas[alpha] - combo)) < 1e-12

    def test_empty_dataset_errors(self):
        S, S_u, init = self.make_setup(3)
        with pytest.raises(ValueError):
            train_wce_crm(S.take([]), S_u, self.cfg(alpha=0.5), init)
        with pytest.raises(ValueError):
            train_wce_crm(S, S_u.take([]), self.cfg(alpha=0.5), init)

    @pytest.mark.parametrize("train", [train_wce_crm, train_kl_crm])
    def test_reward_free_row_in_S_rejected_before_any_step(self, train):
        # at seed 7 one step of one known row does not draw the last row of S, so
        # only a check made before the first step sees its missing reward
        S, S_u, init = self.make_setup(3)
        S = S.take(np.arange(len(S) - 1)).concat(S_u.take([0]))
        with pytest.raises(ValueError, match="IPS needs a reward on every row it covers"):
            train(S, S_u, self.cfg(epochs=1, batch_known=1), init)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_its_step(self):
        S, S_u, init = self.make_setup(5)
        with pytest.raises(TrainingDiverged) as err:
            train_kl_crm(S, S_u, self.cfg(learning_rate=1e200), init)
        assert err.value.step == 1 and isinstance(err.value, ValueError)
        # a last update that overflows the parameters is caught after the loop
        S = make_log([([1000.0, -1000.0], 0, 0.5, -1.0)], 2)
        S_u = make_log([([-1000.0, 1000.0], 1, 0.5)], 2)
        init = SoftmaxPolicy.create(2, 2, (3,), make_rng(0))
        with pytest.raises(TrainingDiverged, match="non-finite parameters") as err:
            train_wce_crm(S, S_u, TrainConfig(epochs=1, learning_rate=1e308), init)
        assert err.value.step == 0

    def test_initial_policy_needs_every_logged_action(self):
        S, S_u, _ = self.make_setup(6)
        too_small = SoftmaxPolicy.create(3, 2, (6,), make_rng(7))
        for trainer in (train_wce_crm, train_kl_crm, train_pr_crm):
            with pytest.raises(DimensionMismatchError):
                trainer(S, S_u, self.cfg(), too_small)

    def test_alpha_zero_wce_moves_toward_logging_policy(self):
        # synthetic env with a known logging policy; full-batch descent on the
        # WCE regularizer alone shrinks the TV distance to it
        spec = SyntheticSpec(dim=3, num_classes=3, separation=1.0, noise=1.0)
        ds = generate_synthetic(spec, 400, 11)
        logging = SoftmaxPolicy.create(3, 3, (8,), make_rng(12))
        S_all = supervised_to_bandit(ds, logging, make_rng(13))
        S_u = S_all.with_rewards(np.nan)
        init = SoftmaxPolicy.create(3, 3, (20, 20), make_rng(14))
        held_out = generate_synthetic(spec, 200, 15).features

        def mean_tv(policy):
            a = policy.probs_batch(held_out)
            b = logging.probs_batch(held_out)
            return float(np.mean(0.5 * np.sum(np.abs(a - b), axis=1)))

        tvs = [mean_tv(init)]
        for epochs in (50, 100, 200):
            cfg = self.cfg(alpha=0.0, epochs=epochs, batch_known=1,
                           batch_unknown=len(S_u), learning_rate=0.05, seed=16)
            policy, _ = train_wce_crm(S_u.take([]), S_u, cfg, init)
            tvs.append(mean_tv(policy))
        assert all(b < a for a, b in zip(tvs, tvs[1:]))

    def test_alpha_zero_kl_descends(self):
        from semicrm.estimators import kl_regularizer

        S, S_u, init = self.make_setup(4)
        cfg = self.cfg(alpha=0.0, epochs=300, learning_rate=0.05)
        policy, _ = train_kl_crm(S, S_u, cfg, init)
        assert (kl_regularizer(policy, S_u, 0.01)
                <= kl_regularizer(init, S_u, 0.01))


class TestRewardRegressor:
    def test_constant_rewards(self):
        rng = make_rng(20)
        S = make_log([(rng.standard_normal(3), int(rng.choice(2)),
                       float(rng.uniform(0.1, 1.0)), -1.0) for _ in range(40)], 2)
        reg = fit_reward_regressor(S)
        for prediction in reg.predict_batch(S.contexts, S.actions):
            assert prediction == pytest.approx(-1.0, abs=1e-6)

    def test_first_order_optimality(self):
        rng = make_rng(21)
        S = make_log([(rng.standard_normal(3), int(rng.choice(3)),
                       float(rng.uniform(0.1, 1.0)), float(rng.uniform(-1, 0)))
                      for _ in range(60)], 3)
        reg = fit_reward_regressor(S)
        batch = S
        phi = reg.features(batch.contexts, batch.actions)
        total_p = batch.propensities.sum()
        resid = phi @ reg.weights - batch.rewards
        grad = 2.0 * phi.T @ (batch.propensities / total_p * resid)
        assert np.linalg.norm(grad) < 1e-6

    def test_matches_gradient_descent_oracle(self):
        rng = make_rng(22)
        S = make_log([(rng.standard_normal(2), int(rng.choice(2)),
                       float(rng.uniform(0.1, 1.0)), float(rng.uniform(-1, 0)))
                      for _ in range(50)], 2)
        reg = fit_reward_regressor(S)
        batch = S
        phi = reg.features(batch.contexts, batch.actions)
        wts = batch.propensities / batch.propensities.sum()
        beta = np.zeros(phi.shape[1])
        for _ in range(60_000):
            grad = 2.0 * phi.T @ (wts * (phi @ beta - batch.rewards))
            beta -= 0.1 * grad
        assert np.max(np.abs(beta - reg.weights)) < 1e-6

    def test_empty_known_set_names_its_cause(self):
        S, _ = random_batches(7)
        with pytest.raises(ValueError, match="needs a nonempty known-reward dataset"):
            fit_reward_regressor(S.take([]))

    def test_pseudo_reward_clamping(self):
        reg = fit_reward_regressor(make_log([([0.0], 0, 0.5, -1.0),
                                             ([1.0], 0, 0.5, -1.0)], 1))
        reg.weights[:] = 0.0
        reg.weights[-1] = 0.3   # constant raw prediction 0.3
        aug = predict_pseudo_rewards(reg, make_log([([2.0], 0, 0.5)], 1))
        assert aug.rewards[0] == 0.0
        reg.weights[-1] = -0.4
        aug = predict_pseudo_rewards(reg, make_log([([2.0], 0, 0.5)], 1))
        assert aug.rewards[0] == pytest.approx(-0.4, abs=1e-12)


class TestPrCrm:
    def test_empty_unknown_set_matches_wce_crm_full_batch(self):
        S, _ = random_batches(5, n=25, m=1)
        init = SoftmaxPolicy.create(3, 3, (6,), make_rng(105))
        alpha = 0.4
        cfg_pr = TrainConfig(alpha=alpha, zeta=0.01, tau=0.01,
                             epochs=20, batch_known=25, batch_unknown=5,
                             learning_rate=0.05, seed=9)
        p_pr, _ = train_pr_crm(S, S.take([]), cfg_pr, init)
        S_u_from_S = S.with_rewards(np.nan)
        cfg_wce = TrainConfig(alpha=alpha, zeta=0.01, tau=0.01,
                              epochs=20, batch_known=25, batch_unknown=25,
                              learning_rate=0.05, seed=9)
        p_wce, _ = train_wce_crm(S, S_u_from_S, cfg_wce, init)
        assert np.max(np.abs(flat_params(p_pr) - flat_params(p_wce))) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_empty_known_set_with_positive_alpha_rejected(self, alpha):
        # as WCE-CRM and KL-CRM report it, not as the regressor's failure
        S, S_u = random_batches(8)
        init = SoftmaxPolicy.create(3, 3, (6,), make_rng(108))
        with pytest.raises(ValueError, match="alpha > 0 requires a nonempty known-reward"):
            train_pr_crm(S.take([]), S_u, TrainConfig(alpha=alpha, epochs=1), init)

    def test_objective_decreases_on_synthetic_run(self):
        rng = make_rng(30)
        env = random_environment(rng, 4, 3)
        S = env.sample_logged(200, rng)
        S_u = sample_unknown(env, 400, rng)
        init = SoftmaxPolicy.create(4, 3, (10,), make_rng(31))
        cfg = TrainConfig(alpha=0.8, zeta=0.01, tau=0.01,
                          epochs=200, batch_known=64, batch_unknown=128,
                          learning_rate=0.05, seed=32)
        _, trace = train_pr_crm(S, S_u, cfg, init)
        first = 0.8 * trace.ips_terms[0] + 0.2 * trace.reg_terms[0]
        last = 0.8 * trace.ips_terms[-1] + 0.2 * trace.reg_terms[-1]
        assert last < first

    def test_determinism(self):
        S, S_u = random_batches(6, n=20, m=30)
        init = SoftmaxPolicy.create(3, 3, (6,), make_rng(106))
        cfg = TrainConfig(alpha=0.7, epochs=10, batch_known=10, batch_unknown=15,
                          learning_rate=0.02, seed=3)
        p1, _ = train_pr_crm(S, S_u, cfg, init)
        p2, _ = train_pr_crm(S, S_u, cfg, init)
        assert np.array_equal(flat_params(p1), flat_params(p2))
