import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_rows, make_log
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semicrm.data import (
    BanditLog,
    DatasetFormatError,
    SupervisedDataset,
    drop_action,
    mask_rewards,
    read_bandit_csv,
    read_supervised_csv,
    supervised_to_bandit,
    write_bandit_csv,
    write_supervised_csv,
)
from semicrm.policy import SoftmaxPolicy
from semicrm.rng import make_rng
from semicrm.trainers import fit_reward_regressor


def uniform_policy(d, k):
    p = SoftmaxPolicy.create(d, k, (4,), make_rng(0))
    for w in p.weights:
        w[:] = 0.0
    for b in p.biases:
        b[:] = 0.0
    return p


def label_concentrated_dataset(n=50, d=2, k=3, seed=0):
    rng = make_rng(seed)
    feats = rng.standard_normal((n, d))
    labels = rng.choice(k, size=n)
    return SupervisedDataset(feats, labels)


def random_log(n=40, d=2, k=3, seed=5):
    rng = make_rng(seed)
    rows = []
    for _ in range(n):
        rows.append((
            rng.standard_normal(d), int(rng.choice(k)),
            float(rng.uniform(0.05, 1.0)), float(rng.uniform(-1.0, 0.0)),
        ))
    return make_log(rows, k)


class TestSupervisedToBandit:
    def test_concentrated_logging_gives_all_minus_one(self):
        # a scorer that strongly prefers the true label for every row:
        # contexts are one-hot labels, identity scorer
        k = 3
        feats = np.eye(k)[np.array([0, 1, 2, 1, 0])] * 50.0
        ds = SupervisedDataset(feats, np.array([0, 1, 2, 1, 0]))
        p = SoftmaxPolicy(weights=[np.eye(k)], biases=[np.zeros(k)])
        S = supervised_to_bandit(ds, p, make_rng(1))
        assert np.all(S.rewards == -1.0)

    def test_uniform_logging_match_rate(self):
        k = 10
        rng = make_rng(2)
        ds = SupervisedDataset(rng.standard_normal((100_000, 2)), rng.choice(k, 100_000))
        S = supervised_to_bandit(ds, uniform_policy(2, k), make_rng(3))
        frac = np.mean(S.rewards == -1.0)
        assert abs(frac - 0.10) < 0.01

    def test_propensity_equals_policy_probability(self):
        ds = label_concentrated_dataset()
        p = SoftmaxPolicy.create(2, 3, (4,), make_rng(9))
        S = supervised_to_bandit(ds, p, make_rng(4))
        for x, a, propensity in zip(S.contexts, S.actions, S.propensities):
            assert propensity == p.probs(x)[a]

    def test_action_count_comes_from_the_logging_policy(self):
        ds = SupervisedDataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        S = supervised_to_bandit(ds, uniform_policy(2, 5), make_rng(0))
        assert S.action_count == 5

    def test_dimension_mismatch_rejected(self):
        ds = label_concentrated_dataset(d=2)
        with pytest.raises(ValueError):
            supervised_to_bandit(ds, uniform_policy(5, 3), make_rng(0))


class TestMaskRewards:
    def test_keep_all(self):
        S = random_log()
        known, unknown = mask_rewards(S, 1.0, make_rng(0))
        assert len(unknown) == 0 and len(known) == len(S)

    def test_ten_percent_split_of_57000_rows(self):
        S = random_log(n=57_000, seed=1)
        known, unknown = mask_rewards(S, 0.1, make_rng(0))
        assert len(known) == 5700 and len(unknown) == 51_300

    def test_partition_preserves_multiset(self):
        S = random_log(n=100)
        known, unknown = mask_rewards(S, 0.3, make_rng(7))

        def keys(log):
            return [(tuple(x), a, p) for x, a, p in zip(
                log.contexts.tolist(), log.actions.tolist(), log.propensities.tolist())]

        assert sorted(keys(known)) + sorted(keys(unknown)) != []
        combined = sorted(keys(known) + keys(unknown))
        assert combined == sorted(keys(S))

    def test_partition_rewards_and_action_count(self):
        S = replace(random_log(n=50), action_count=7)
        known, unknown = mask_rewards(S, 0.4, make_rng(3))
        assert len(known) == 20 and len(unknown) == 30
        assert known.action_count == unknown.action_count == 7
        assert np.all(np.isfinite(known.rewards)) and np.all(np.isnan(unknown.rewards))
        # each part keeps the log's row order, the rewarded part its rewards;
        # the propensities are distinct draws, so they identify the kept rows
        kept = np.isin(S.propensities, known.propensities)
        assert_same_rows(known, S.take(kept))
        assert_same_rows(unknown, S.take(~kept).with_rewards(np.nan))

    def test_stratified_mode_keeps_per_action_rate(self):
        S = random_log(n=3000, seed=11)
        known, _ = mask_rewards(S, 0.2, make_rng(1), stratify_by_action=True)
        actions = S.actions
        kept = known.actions
        for a in np.unique(actions):
            total = np.sum(actions == a)
            assert np.sum(kept == a) == int(round(0.2 * total))

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            mask_rewards(random_log(), 1.5, make_rng(0))


class TestDropAction:
    def test_absent_action_is_identity(self):
        log = random_log()
        S = log.take(log.actions != 2)
        known, unknown = drop_action(S, S.take([]), 2)
        assert_same_rows(known, S)

    def test_removes_all_of_action(self):
        S = random_log(n=60)
        known, _ = drop_action(S, S.take([]), 1)
        assert np.all(known.actions != 1)
        assert len(known) == len(S) - np.sum(S.actions == 1)

    def test_keeps_action_count_for_the_regressor(self):
        # PR with the top action dropped still fits a k-column regressor
        S = random_log(n=60, d=2, k=3)
        known, _ = drop_action(S, S.take([]), 2)
        assert 2 not in known.actions and known.action_count == 3
        assert len(fit_reward_regressor(known).weights) == 2 + 3 + 1


class TestBanditCsv:
    def test_round_trip(self, tmp_path):
        S = random_log(n=30, seed=13)
        known_in, unknown_in = mask_rewards(S, 0.5, make_rng(2))
        path = tmp_path / "log.csv"
        write_bandit_csv(path, known_in.concat(unknown_in))
        known_out, unknown_out = read_bandit_csv(path)
        assert len(known_out) == len(known_in)
        assert len(unknown_out) == len(unknown_in)
        assert_same_rows(known_out, known_in)
        assert_same_rows(unknown_out, unknown_in)

    def test_golden_bytes(self, tmp_path):
        known = make_log([([0.5, -1.25], 1, 0.25, -1.0)], 2)
        unknown = make_log([([1.0 / 3.0, 2.0], 0, 0.125)], 2)
        path = tmp_path / "golden.csv"
        write_bandit_csv(path, known.concat(unknown))
        expected = (
            "x0,x1,action,propensity,reward\n"
            "0.5,-1.25,1,0.25,-1\n"
            "0.33333333333333331,2,0,0.125,\n"
        )
        assert path.read_text() == expected

    def test_empty_reward_field_parses_unknown(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.5,0,0.5,\n")
        known, unknown = read_bandit_csv(path)
        assert len(known) == 0 and len(unknown) == 1

    def test_zero_propensity_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.0,0,0.5,-1\n2.0,1,0,-1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_bandit_csv(path)
        assert err.value.line_number == 3

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\noops,0,0.5,-1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_bandit_csv(path)
        assert err.value.line_number == 2

    def test_reward_range_validated_with_override(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.0,0,0.5,-2.5\n")
        with pytest.raises(DatasetFormatError):
            read_bandit_csv(path)
        known, _ = read_bandit_csv(path, validate_reward_range=False)
        assert known.rewards[0] == -2.5


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_rejected_with_line_number(self, tmp_path, bad):
        path = tmp_path / "log.csv"
        path.write_text(f"x0,x1,action,propensity,reward\n1,2,0,0.5,-1\n1,{bad},0,0.5,\n")
        with pytest.raises(DatasetFormatError) as err:
            read_bandit_csv(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("validate", [True, False])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_reward_rejected(self, tmp_path, validate, bad):
        # NaN marks a reward-free row, so a written "nan" must not become one
        path = tmp_path / "log.csv"
        path.write_text(f"x0,action,propensity,reward\n1.0,0,0.5,-1\n2.0,0,0.5,{bad}\n")
        with pytest.raises(DatasetFormatError) as err:
            read_bandit_csv(path, validate_reward_range=validate)
        assert err.value.line_number == 3

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        k = data.draw(st.integers(1, 4))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        log = BanditLog(
            data.draw(arrays(float, (n, d), elements=finite)),
            data.draw(arrays(int, n, elements=st.integers(0, k - 1))),
            data.draw(arrays(float, n, elements=st.floats(0.0, 1.0, exclude_min=True))),
            data.draw(arrays(float, n, elements=st.floats(-1.0, 0.0))),
            k,
        )
        keep = data.draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        S, S_u = mask_rewards(log, keep, make_rng(data.draw(st.integers(0, 2**32 - 1))))
        # interleave rewarded and reward-free rows in the file
        mixed = S.concat(S_u).take(data.draw(st.permutations(range(n))))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.csv"
            write_bandit_csv(path, mixed)
            S_out, S_u_out = read_bandit_csv(path)
        rewarded = ~np.isnan(mixed.rewards)
        file_count = int(log.actions.max()) + 1  # the CSV does not record k
        assert_same_rows(S_out, replace(mixed.take(rewarded), action_count=file_count))
        assert_same_rows(S_u_out, replace(mixed.take(~rewarded), action_count=file_count))


class TestSupervisedCsv:
    def test_round_trip(self, tmp_path):
        ds = label_concentrated_dataset(n=20, seed=3)
        path = tmp_path / "sup.csv"
        write_supervised_csv(path, ds)
        out = read_supervised_csv(path)
        assert np.array_equal(out.features, ds.features)
        assert np.array_equal(out.labels, ds.labels)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_rejected_with_line_number(self, tmp_path, bad):
        path = tmp_path / "sup.csv"
        path.write_text(f"x0,x1,label\n1,2,0\n3,4,1\n{bad},0.5,1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_supervised_csv(path)
        assert err.value.line_number == 4
