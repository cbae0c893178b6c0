import _pyio
import os

import numpy as np
import pytest
from conftest import run_row_term
from hypothesis import given, settings
from hypothesis import strategies as st

import semicrm.policy
from semicrm import data, estimators
from semicrm.estimators import objective_parts, value_and_grad
from semicrm.policy import (
    DimensionMismatchError,
    PolicyGradient,
    SoftmaxPolicy,
    _add_bias,
    _softmax_body,
    load_policy,
    log_softmax,
    save_policy,
    softmax,
    softmax_and_log_softmax,
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


def reference_softmax(scores):
    """Row-wise softmax by numpy's row max: the plain formula the policy's one
    softmax body must reproduce bit for bit."""
    scores = np.atleast_2d(scores)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def reference_log_softmax(scores, actions):
    """log pi(a_i|x_i) by log-sum-exp over numpy's row max: the plain formula
    the policy's one softmax body must reproduce bit for bit."""
    scores = np.atleast_2d(scores)
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    return shifted[np.arange(len(actions)), actions] - log_norm


def reference_forward(policy, X):
    """``forward`` written out of place, a fresh array for every bias add and
    ReLU: the bits its in-place kernels must reproduce."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    h, cache = X, [X]
    for w, b in zip(policy.weights[:-1], policy.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        cache.append(h)
    return h @ policy.weights[-1] + policy.biases[-1], cache


def reference_backward(policy, cache, dscores):
    """``backward`` with the ReLU mask applied out of place."""
    grad = PolicyGradient([np.empty_like(w) for w in policy.weights],
                          [np.empty_like(b) for b in policy.biases])
    delta = dscores
    for layer in range(len(policy.weights) - 1, -1, -1):
        np.matmul(cache[layer].T, delta, out=grad.weights[layer])
        delta.sum(axis=0, out=grad.biases[layer])
        if layer > 0:
            delta = (delta @ policy.weights[layer].T) * (cache[layer] > 0.0)
    return grad


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and bytes: unlike ``np.array_equal``, tells -0.0 from 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        assert np.allclose(p.probs_batch(np.array([1.0, -2.0, 0.3])[None])[0], 0.25)

    def test_identity_scorer_hand_value(self):
        # linear scorer with scores [0, ln 2] -> softmax (1/3, 2/3)
        p = SoftmaxPolicy(
            weights=[np.array([[1.0, 0.0], [0.0, 1.0]])],
            biases=[np.zeros(2)],
        )
        got = p.probs_batch(np.array([0.0, np.log(2.0)])[None])[0]
        assert np.allclose(got, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_score_shift_invariance(self):
        p = random_policy()
        x = make_rng(7).standard_normal(3)
        shifted = p.copy()
        shifted.biases[-1] += 11.5
        assert np.allclose(p.probs_batch(x[None])[0], shifted.probs_batch(x[None])[0], atol=1e-12)

    def test_dimension_mismatch(self):
        for contexts in (np.zeros((1, 5)), np.zeros((4, 5))):
            with pytest.raises(DimensionMismatchError):
                random_policy(d=3).probs_batch(contexts)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_normalization_property(self, seed):
        rng = make_rng(seed)
        p = SoftmaxPolicy.create(4, 5, (6,), rng)
        x = 3.0 * rng.standard_normal(4)
        probs = p.probs_batch(x[None])[0]
        assert abs(probs.sum() - 1.0) < 1e-9
        assert np.all(probs > 0.0)

    def test_log_probs_match_log_of_probs(self):
        p = random_policy()
        scores, _ = p.forward(make_rng(3).standard_normal((6, 3)))
        for a in range(p.action_count):
            _, got = softmax_and_log_softmax(scores, np.full(len(scores), a))
            assert np.allclose(got, np.log(softmax(scores))[:, a], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -800.0]) | st.floats(-40.0, 40.0),
                          min_size=k, max_size=k), min_size=1, max_size=8),
        st.lists(st.integers(0, k - 1), min_size=8, max_size=8))))
    def test_one_exp_path_matches_softmax_and_log_softmax_bit_for_bit(self, case):
        rows, actions = case
        scores, actions = np.array(rows), np.array(actions[:len(rows)])
        pi, log_pi = softmax_and_log_softmax(scores, actions)
        assert pi.tobytes() == reference_softmax(scores).tobytes()
        assert softmax(scores).tobytes() == reference_softmax(scores).tobytes()
        assert log_pi.tobytes() == reference_log_softmax(scores, actions).tobytes()


KERNEL_CASES = st.tuples(
    st.sampled_from([(), (1,), (20, 20)]),  # hidden widths
    st.integers(1, 16),                     # k
    st.integers(1, 3000),                   # n
    st.integers(1, 12),                     # d
    st.integers(0, 2**32 - 1),              # seed
)


def kernel_case(hidden, k, n, d, seed):
    """A policy with nonzero biases, contexts and score gradients for one case."""
    rng = make_rng(seed)
    policy = SoftmaxPolicy.create(d, k, hidden, rng)
    policy.flat[:] = rng.standard_normal(policy.flat.size)
    return policy, 2.0 * rng.standard_normal((n, d)), rng.standard_normal((n, k))


class TestKernelBits:
    """The in-place forward and backward and the folded row sum give the bits
    of the out-of-place expressions they replace."""

    @settings(max_examples=60, deadline=None)
    @given(KERNEL_CASES)
    def test_forward_matches_the_out_of_place_form(self, case):
        policy, X, _ = kernel_case(*case)
        X_before = X.copy()
        scores, cache = policy.forward(read_only(X))
        want_scores, want_cache = reference_forward(policy, X_before)
        assert same_bits(X, X_before)
        assert same_bits(scores, want_scores) and len(cache) == len(want_cache)
        assert all(same_bits(a, b) for a, b in zip(cache, want_cache))

    @settings(max_examples=60, deadline=None)
    @given(KERNEL_CASES)
    def test_backward_matches_the_out_of_place_form(self, case):
        policy, X, dscores = kernel_case(*case)
        _, cache = policy.forward(X)
        saved = [a.copy() for a in cache], dscores.copy()
        grad = policy.backward([read_only(a) for a in cache], read_only(dscores))
        assert same_bits(dscores, saved[1])
        assert all(same_bits(a, b) for a, b in zip(cache, saved[0]))
        assert same_bits(grad.flat, reference_backward(policy, saved[0], saved[1]).flat)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 3000), st.sampled_from([0.1, 3.0, 40.0]),
           st.integers(0, 2**32 - 1))
    def test_row_sum_matches_numpy_for_every_k(self, k, n, scale, seed):
        rng = make_rng(seed)
        scores, actions = scale * rng.standard_normal((n, k)), rng.integers(0, k, n)
        exp, norm, chosen = _softmax_body(scores, actions)
        shifted = scores - scores.max(axis=1, keepdims=True)
        assert exp.shape == (k, n) and exp.flags.c_contiguous
        assert same_bits(exp, np.exp(shifted).T)
        assert same_bits(norm, np.exp(shifted).sum(axis=1))
        assert same_bits(chosen, shifted[np.arange(n), actions])


class TestLongRowBias:
    """The bias added over long rows gives the bits of a plain ``h += b``."""

    @pytest.mark.parametrize("shape", [
        (64, 20), (320, 5), (2000, 20), (15000, 20), (15000, 5),
        (3 * (semicrm.policy.BIAS_ROW // 20), 20),  # whole long rows, no partial one
        (1237, 7),  # a partial last long row
    ])
    def test_matches_the_plain_add(self, shape):
        rng = make_rng(sum(shape))
        h, b = 3.0 * rng.standard_normal(shape), rng.standard_normal(shape[-1])
        h.flat[::11], b[::3] = -0.0, -0.0
        want = h.copy()
        want += b  # the reference: numpy's per-row broadcast
        _add_bias(h, b)
        assert same_bits(h, want)

    def test_a_strided_array_takes_the_plain_add_in_place(self):
        rng = make_rng(5)
        base, b = rng.standard_normal((4000, 40)), rng.standard_normal(20)
        h = base[:, ::2]
        want = h + b
        _add_bias(h, b)
        assert same_bits(base[:, ::2], want)

    def test_the_value_path_matches_a_reference_forward(self):
        rng = make_rng(23)
        policy = random_policy(d=10, k=5, hidden=(20, 20), seed=23)
        policy.flat[:] = rng.standard_normal(policy.flat.size)
        X, actions = rng.standard_normal((40_000, 10)), rng.integers(0, 5, 40_000)
        want = np.concatenate([
            reference_log_softmax(reference_forward(policy, X[rows])[0], actions[rows])
            for rows in data.even_blocks(len(actions), data.ROW_BLOCK)])
        assert same_bits(estimators._value_log_pi(policy, X, actions), want)


def feature_major_case(k, n, scale, zeros, seed):
    """A linear policy, contexts, actions, propensities and rewards for one case:
    the identity layer makes the scores the contexts (up to the sign of a zero),
    of magnitude up to about ``scale``, a ``zeros`` share of them 0.0 or -0.0
    and so tied."""
    rng = make_rng(seed)
    policy = SoftmaxPolicy([np.eye(k)], [np.zeros(k)])
    X = scale * rng.standard_normal((n, k))
    tied = rng.random((n, k)) < zeros
    X[tied] = rng.choice([0.0, -0.0], tied.sum())
    return (policy, X, rng.integers(0, k, n), rng.uniform(0.05, 1.0, n),
            rng.uniform(-1.0, 0.0, n))


FEATURE_MAJOR_CASES = st.tuples(
    st.integers(1, 16),                                   # k, both sides of the k < 8 fold
    st.integers(1, 3000),                                 # n
    st.sampled_from([1e-3, 1.0, 40.0, 1e10, 1e300]),      # score scale
    st.sampled_from([0.0, 0.5]),                          # share of zero scores
    st.integers(0, 2**32 - 1),                            # seed
)


class TestFeatureMajorKernels:
    """The feature-major softmax body, the value path's log pi and the training
    path's score gradients give the bits of the out-of-place row-major forms."""

    @settings(max_examples=60, deadline=None)
    @given(FEATURE_MAJOR_CASES)
    def test_body_matches_the_row_major_form(self, case):
        policy, X, actions, _, _ = feature_major_case(*case)
        scores = policy.forward(X)[0]
        pi, log_pi = softmax_and_log_softmax(scores, actions)
        assert same_bits(pi, reference_softmax(scores))
        assert same_bits(softmax(scores), reference_softmax(scores))
        assert same_bits(policy.probs_batch(X), reference_softmax(scores))
        assert same_bits(log_pi, reference_log_softmax(scores, actions))
        assert same_bits(log_softmax(scores, actions), log_pi)

    @settings(max_examples=60, deadline=None)
    @given(FEATURE_MAJOR_CASES)
    def test_value_path_log_pi_matches_the_row_major_form(self, case):
        policy, X, actions, _, _ = feature_major_case(*case)
        log_pi = estimators._value_log_pi(policy, X, actions)
        assert same_bits(log_pi, reference_log_softmax(policy.forward(X)[0], actions))

    @settings(max_examples=60, deadline=None)
    @given(FEATURE_MAJOR_CASES, st.sampled_from(["WCE", "KL", "RKL"]))
    def test_training_score_gradients_match_the_row_major_form(self, case, regularizer):
        policy, X, actions, propensities, rewards = feature_major_case(*case)
        n = len(actions)
        parts = objective_parts(regularizer, 0.6, n // 3, 0.05, 0.05)
        scores = policy.forward(X)[0]
        seen = []
        policy.backward = lambda cache, dscores: seen.append(dscores)
        values, _ = value_and_grad(policy, X, actions, propensities, rewards, parts)
        log_pi = reference_log_softmax(scores, actions)
        factors, want_values = np.zeros(n), []
        for term, part, scale, floor in parts:
            if len(actions[part]):
                value, factor = run_row_term(term, log_pi[part], actions[part],
                                             propensities[part], rewards[part], floor)
                factors[part] += scale * factor
                want_values.append(float(np.sum(value)))
            else:
                want_values.append(0.0)
        want = -factors[:, None] * reference_softmax(scores)
        want[np.arange(n), actions] += factors
        (dscores,) = seen
        assert dscores.flags.c_contiguous  # backward's products take C-order operands
        assert same_bits(dscores, want)
        assert np.array(values).tobytes() == np.array(want_values).tobytes()


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
                    return policy.probs_batch(x[None])[0][a]
                return np.log(policy.probs_batch(x[None])[0][a])

            num[i] = (val(perturbed(p, e)) - val(perturbed(p, -e))) / (2 * h)
        scale = max(np.abs(analytic).max(), 1.0)
        assert np.max(np.abs(analytic - num)) / scale < 1e-4


class TestFlatParameters:
    def test_weights_and_biases_are_views_of_one_vector(self):
        p = random_policy(hidden=(6, 5))
        arrays = p.weights + p.biases
        assert p.flat.dtype == np.float64 and p.flat.shape == (sum(a.size for a in arrays),)
        assert all(np.shares_memory(a, p.flat) for a in arrays)
        assert np.array_equal(p.flat, np.concatenate([a.ravel() for a in arrays]))
        p.biases[-1][-1] = 7.0
        assert p.flat[-1] == 7.0

    def test_constructor_copies_its_arrays(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        p = SoftmaxPolicy([w], [b])
        p.flat[:] = 5.0
        assert np.all(w == 1.0) and np.all(b == 0.0)

    def test_copy_does_not_alias(self):
        p = random_policy()
        q = p.copy()
        assert not np.shares_memory(p.flat, q.flat)
        assert all(np.shares_memory(a, q.flat) for a in q.weights + q.biases)
        assert np.array_equal(p.flat, q.flat)
        for a in q.weights + q.biases:
            a += 1.0
        assert np.array_equal(p.flat + 1.0, q.flat)

    def test_apply_update_moves_every_layer(self):
        p = random_policy(hidden=(6, 5))
        before = [a.copy() for a in p.weights + p.biases]
        grad = PolicyGradient([np.full(w.shape, i + 1.0) for i, w in enumerate(p.weights)],
                              [np.full(b.shape, -(i + 1.0)) for i, b in enumerate(p.biases)])
        p.apply_update(grad, 0.5)
        for after, old, g in zip(p.weights + p.biases, before, grad.weights + grad.biases):
            assert np.array_equal(after, old - 0.5 * g)
        assert all(np.shares_memory(a, p.flat) for a in p.weights + p.biases)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_norm_is_the_root_sum_of_squares(self, seed):
        rng = make_rng(seed)
        weights = [rng.standard_normal((4, 6)) * 1e3, rng.standard_normal((6, 3))]
        biases = [rng.standard_normal(6) * 1e-3, rng.standard_normal(3)]
        expected = np.sqrt(sum(float(np.sum(a * a)) for a in weights + biases))
        assert PolicyGradient(weights, biases).norm() == pytest.approx(expected, rel=1e-15)

    def test_backward_fills_a_gradient_of_the_same_layout(self):
        p = random_policy(hidden=(6, 5))
        scores, cache = p.forward(make_rng(4).standard_normal((7, 3)))
        grad = p.backward(cache, scores)
        assert grad.flat.shape == p.flat.shape
        for g, a in zip(grad.weights + grad.biases, p.weights + p.biases):
            assert g.shape == a.shape and np.shares_memory(g, grad.flat)
        assert np.array_equal(grad.weights[-1], cache[-1].T @ scores)
        assert np.array_equal(grad.biases[-1], scores.sum(axis=0))


# save_policy output for GOLDEN_POLICY, captured when each parameter array was
# stored on its own: the checkpoint format must not depend on the layout.
GOLDEN_POLICY = dict(
    weights=[np.array([[0.1, -2.5], [1 / 3, 1e-300]]),
             np.array([[7.0, -0.0, 2 ** 0.5], [-1e20, 0.25, 123456789.123]])],
    biases=[np.array([0.0, -1.5]), np.array([1e-7, 3.0, -2 / 3])],
)
GOLDEN_CHECKPOINT = (
    b"semicrm-policy v1\ndims 2 2 3\nW0\n0.10000000000000001 -2.5\n"
    b"0.33333333333333331 1e-300\nb0\n0 -1.5\nW1\n7 -0 1.4142135623730951\n"
    b"-1e+20 0.25 123456789.123\nb1\n9.9999999999999995e-08 3 -0.66666666666666663\n"
)


def reference_parse(path) -> np.ndarray:
    """Every value of a checkpoint, in file order, each by Python's own
    ``float()``: the bits the loader's one numpy conversion per layer must give."""
    lines = path.read_text().splitlines()[2:]
    return np.array([float(tok) for ln in lines if ln[:1] not in ("W", "b")
                     for tok in ln.split()])


def file_order(policy: SoftmaxPolicy) -> np.ndarray:
    """A policy's values in checkpoint order: each W<i>'s rows, then b<i>."""
    return np.concatenate([a.ravel() for w, b in zip(policy.weights, policy.biases)
                           for a in (w, b)])


class TestCheckpoint:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.policy"
        save_policy(SoftmaxPolicy(**GOLDEN_POLICY), path)
        assert path.read_bytes() == GOLDEN_CHECKPOINT
        assert np.array_equal(load_policy(path).flat, SoftmaxPolicy(**GOLDEN_POLICY).flat)

    def test_round_trip(self, tmp_path):
        p = random_policy(hidden=(7, 5), seed=21)
        path = tmp_path / "policy.txt"
        save_policy(p, path)
        q = load_policy(path)
        for w1, w2 in zip(p.weights, q.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(p.biases, q.biases):
            assert np.array_equal(b1, b2)

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.225073858507201e-308],
        [1e300, -1e300, 1.7976931348623157e308, -9.999999999999999e299, 1e-300, -0.0],
    ], ids=["zeros-and-subnormals", "near-1e300"])
    def test_numpy_parse_gives_the_bits_of_float(self, tmp_path, values):
        p = random_policy(d=2, k=3, hidden=(6,), seed=3)
        p.flat[:len(values)] = values
        p.flat[-len(values):] = values  # the last bias row too
        path = tmp_path / "policy.txt"
        save_policy(p, path)
        got = load_policy(path)
        assert same_bits(file_order(got), reference_parse(path))
        assert same_bits(got.flat, p.flat)

    def test_hand_written_spellings_parse_as_float_does(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("semicrm-policy v1\ndims 2 3\nW0\n-0 +1e300 4.9406564584124654e-324\n"
                        "-1E+300 .5 -2.2250738585072011e-308\nb0\n-0.0 1. 1e-400\n")
        assert same_bits(file_order(load_policy(path)), reference_parse(path))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=33,
                    max_size=33))
    def test_any_finite_value_parses_as_float_does(self, tmp_path_factory, values):
        p = random_policy(d=2, k=3, hidden=(5,))
        p.flat[:] = values
        path = tmp_path_factory.mktemp("ckpt") / "policy.txt"
        save_policy(p, path)
        assert same_bits(file_order(load_policy(path)), reference_parse(path))

    def test_lines_end_in_a_newline_alone_on_every_platform(self, tmp_path, monkeypatch):
        # _pyio's text layer turns "\n" into os.linesep as the C layer does on
        # Windows, and reads os.linesep when a file is opened, unlike the C layer
        monkeypatch.setattr(semicrm.policy, "open", _pyio.open, raising=False)
        monkeypatch.setattr(os, "linesep", "\r\n")
        path = tmp_path / "golden.policy"
        save_policy(SoftmaxPolicy(**GOLDEN_POLICY), path)
        assert b"\r" not in path.read_bytes()
        assert path.read_bytes() == GOLDEN_CHECKPOINT

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

    def test_wrong_section_label_rejected_with_line_number(self, tmp_path):
        def edit(lines):
            lines[2] = "W1"
        with pytest.raises(ValueError, match="line 3: expected W0"):
            load_policy(self.edited_checkpoint(tmp_path, edit))

    # the checkpoint has 25 lines, so anything after it starts on line 26;
    # both used to load the first checkpoint without complaint
    @pytest.mark.parametrize("edit", [
        lambda lines: lines.extend(list(lines)),
        lambda lines: lines.append("garbage"),
    ], ids=["two-checkpoints", "trailing-garbage"])
    def test_line_after_the_last_bias_row_rejected_with_line_number(self, tmp_path, edit):
        with pytest.raises(ValueError, match="line 26: expected end of file after b2"):
            load_policy(self.edited_checkpoint(tmp_path, edit))

    def test_trailing_blank_lines_accepted(self, tmp_path):
        path = self.edited_checkpoint(tmp_path, lambda lines: lines.extend(["", "  "]))
        assert np.array_equal(load_policy(path).flat, random_policy().flat)

    def test_layer_size_int_refuses_rejected_with_line_number(self, tmp_path):
        # "²" passes str.isdigit but not int(), which raised a bare ValueError
        def edit(lines):
            lines[1] = "dims 3 \u00b2"
        with pytest.raises(ValueError, match="line 2: expected dims and two or more layer sizes"):
            load_policy(self.edited_checkpoint(tmp_path, edit))
