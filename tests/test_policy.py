import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrm.policy import (
    DimensionMismatchError,
    PolicyGradient,
    SoftmaxPolicy,
    load_policy,
    log_softmax,
    save_policy,
    softmax,
)
from semicrm.rng import make_rng


def zero_policy(d=3, k=4, hidden=(5,)):
    p = SoftmaxPolicy.create(d, k, hidden, make_rng(0))
    for w in p.weights:
        w[:] = 0.0
    for b in p.biases:
        b[:] = 0.0
    return p


def random_policy(d=3, k=4, hidden=(6, 5), seed=1):
    return SoftmaxPolicy.create(d, k, hidden, make_rng(seed))


def flatten(grad: PolicyGradient) -> np.ndarray:
    return np.concatenate([a.ravel() for a in grad.weights + grad.biases])


def scalar_grad(policy, x, a, mode):
    """Gradient of log pi(a|x) ("log_prob") or pi(a|x) ("prob"): backward fed
    the score gradient e_a - pi, or pi_a (e_a - pi)."""
    scores, cache = policy.forward(x)
    pi = softmax(scores)
    dlog = np.eye(policy.action_count)[[a]] - pi
    dscores = dlog if mode == "log_prob" else pi[0, a] * dlog
    return flatten(policy.backward(cache, dscores))


def perturbed(policy: SoftmaxPolicy, flat_delta: np.ndarray) -> SoftmaxPolicy:
    out = policy.copy()
    pos = 0
    for arr in out.weights + out.biases:
        arr += flat_delta[pos: pos + arr.size].reshape(arr.shape)
        pos += arr.size
    return out


class TestProbs:
    def test_zero_parameters_give_uniform(self):
        p = zero_policy(k=4)
        assert np.allclose(p.probs(np.array([1.0, -2.0, 0.3])), 0.25)

    def test_identity_scorer_hand_value(self):
        # linear scorer with scores [0, ln 2] -> softmax (1/3, 2/3)
        p = SoftmaxPolicy(
            weights=[np.array([[1.0, 0.0], [0.0, 1.0]])],
            biases=[np.zeros(2)],
        )
        got = p.probs(np.array([0.0, np.log(2.0)]))
        assert np.allclose(got, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_score_shift_invariance(self):
        p = random_policy()
        x = make_rng(7).standard_normal(3)
        shifted = p.copy()
        shifted.biases[-1] += 11.5
        assert np.allclose(p.probs(x), shifted.probs(x), atol=1e-12)

    def test_dimension_mismatch(self):
        for contexts in (np.zeros(5), np.zeros((4, 5))):
            with pytest.raises(DimensionMismatchError):
                random_policy(d=3).probs(contexts)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_normalization_property(self, seed):
        rng = make_rng(seed)
        p = SoftmaxPolicy.create(4, 5, (6,), rng)
        x = 3.0 * rng.standard_normal(4)
        probs = p.probs(x)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0.0)

    def test_log_probs_match_log_of_probs(self):
        p = random_policy()
        scores, _ = p.forward(make_rng(3).standard_normal((6, 3)))
        for a in range(p.action_count):
            got = log_softmax(scores, np.full(len(scores), a))
            assert np.allclose(got, np.log(softmax(scores))[:, a], atol=1e-12)


class TestGradScalar:
    def test_prob_gradients_sum_to_zero(self):
        p = random_policy()
        x = make_rng(5).standard_normal(3)
        total = sum(scalar_grad(p, x, a, "prob") for a in range(p.action_count))
        assert np.linalg.norm(total) < 1e-12

    @pytest.mark.parametrize("hidden", [(5,), (6, 5), (20, 20)])
    @pytest.mark.parametrize("mode", ["log_prob", "prob"])
    def test_finite_difference_agreement(self, hidden, mode):
        p = random_policy(hidden=hidden, seed=11)
        rng = make_rng(12)
        x = rng.standard_normal(3)
        a = 1
        analytic = scalar_grad(p, x, a, mode)
        h = 1e-5
        num = np.zeros_like(analytic)
        for i in range(len(analytic)):
            e = np.zeros_like(analytic)
            e[i] = h

            def val(policy):
                if mode == "prob":
                    return policy.probs(x)[a]
                return np.log(policy.probs(x)[a])

            num[i] = (val(perturbed(p, e)) - val(perturbed(p, -e))) / (2 * h)
        scale = max(np.abs(analytic).max(), 1.0)
        assert np.max(np.abs(analytic - num)) / scale < 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = random_policy(hidden=(7, 5), seed=21)
        path = tmp_path / "policy.txt"
        save_policy(p, path)
        q = load_policy(path)
        for w1, w2 in zip(p.weights, q.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(p.biases, q.biases):
            assert np.array_equal(b1, b2)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_policy(path)

    # random_policy() checkpoint: line 2 dims, line 3 W0, lines 4-6 its rows of 6
    @staticmethod
    def edited_checkpoint(tmp_path, edit):
        path = tmp_path / "policy.txt"
        save_policy(random_policy(), path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_checkpoint_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            del lines[5:]
        with pytest.raises(ValueError, match="line 6: unexpected end of file"):
            load_policy(self.edited_checkpoint(tmp_path, edit))

    def test_non_numeric_weight_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            lines[4] = "abc " + lines[4].split(" ", 1)[1]
        with pytest.raises(ValueError, match="line 5"):
            load_policy(self.edited_checkpoint(tmp_path, edit))

    def test_short_row_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            lines[4] = lines[4].rsplit(" ", 1)[0]
        with pytest.raises(ValueError, match="line 5: expected 6 finite values"):
            load_policy(self.edited_checkpoint(tmp_path, edit))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected_with_line_number(self, tmp_path, bad):
        def edit(lines):
            lines[4] = f"{bad} " + lines[4].split(" ", 1)[1]
        with pytest.raises(ValueError, match="line 5: expected 6 finite values"):
            load_policy(self.edited_checkpoint(tmp_path, edit))
