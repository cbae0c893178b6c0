import operator
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_same_rows, make_log, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import semicrm.data
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


def per_row_to_bandit(ds, policy, rng):
    """The row-at-a-time transform, kept as the reference: per row one (1, d)
    forward, one ``rng.random()`` and one ``searchsorted`` on the CDF."""
    actions, propensities = np.zeros(len(ds), dtype=int), np.zeros(len(ds))
    for i, x in enumerate(ds.features):
        p = policy.probs_batch(x[None, :])[0]
        a = int(np.searchsorted(np.cumsum(p), rng.random(), side="right").clip(0, len(p) - 1))
        actions[i], propensities[i] = a, p[a]
    return actions, propensities


class TestSupervisedDataset:
    def test_fields_cannot_be_reassigned(self):
        ds = label_concentrated_dataset()
        with pytest.raises(FrozenInstanceError):
            ds.features = np.zeros((3, 2))

    def test_columns_are_read_only(self):
        ds = label_concentrated_dataset()
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1.0

    def test_the_arrays_it_is_built_from_stay_writable(self):
        features, labels = np.zeros((2, 2)), np.array([0, 1])
        SupervisedDataset(features, labels)
        features[0, 0], labels[0] = 1.0, 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_feature_rejected(self, bad):
        with pytest.raises(ValueError, match="features must be finite"):
            SupervisedDataset(np.array([[0.0, 1.0], [bad, 2.0]]), np.array([0, 1]))

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="labels must be nonnegative"):
            SupervisedDataset(np.zeros((3, 3)), np.array([0, -1, 1]))


class TestBanditLog:
    ROW = ([0.5, -1.0], 1, 0.25, -1.0)  # context, action, propensity, reward

    def log_with(self, **changes):
        """A two-row log whose second row has the given context, propensity or reward."""
        row = dict(zip(("context", "action", "propensity", "reward"), self.ROW), **changes)
        return make_log([self.ROW, tuple(row.values())], 2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_context_rejected(self, bad):
        with pytest.raises(ValueError, match="contexts must be finite"):
            self.log_with(context=[0.0, bad])

    @pytest.mark.parametrize("bad", [0.0, -0.25, np.nan, 1.0 + 1e-12, 2.0, np.inf])
    def test_propensity_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"propensities must lie in \(0, 1\]"):
            self.log_with(propensity=bad)

    @pytest.mark.parametrize("bad", [2.0, 1e-300, -1.0 - 1e-12, np.inf, -np.inf])
    def test_reward_outside_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"rewards must lie in \[-1, 0\]"):
            self.log_with(reward=bad)

    @pytest.mark.parametrize("name, value", [
        ("propensity", 1.0), ("propensity", 5e-324), ("reward", -1.0), ("reward", 0.0),
        ("reward", -0.0), ("reward", np.nan),
    ])
    def test_values_on_the_edges_are_kept(self, name, value):
        log = self.log_with(**{name: value})
        column = log.propensities if name == "propensity" else log.rewards
        assert np.array_equal(column[1:], [value], equal_nan=True)

    def test_derived_logs_obey_the_rules(self):
        log = self.log_with()
        with pytest.raises(ValueError, match=r"rewards must lie in \[-1, 0\]"):
            log.with_rewards(2.0)
        with pytest.raises(ValueError, match="contexts must be finite"):
            log.concat(make_log([([np.nan, 0.0], 0, 0.5)], 2))
        assert len(log.take([0]).with_rewards(np.nan)) == 1

    @pytest.mark.parametrize("rows", [0, 2])
    def test_negative_action_count_rejected(self, rows):
        # unchecked, an empty log took -3 and a nonempty one blamed its actions
        with pytest.raises(ValueError, match="action_count must be >= 0, got -3"):
            replace(self.log_with().take(slice(0, rows)), action_count=-3)

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), "2"])
    def test_non_integer_action_count_rejected(self, bad):
        with pytest.raises(TypeError):
            replace(self.log_with(), action_count=bad)
        with pytest.raises(TypeError):
            replace(self.log_with().take(slice(0, 0)), action_count=bad)

    @pytest.mark.parametrize("k", [0, np.int64(0), np.int32(4)])
    def test_zero_and_numpy_integer_action_counts_are_kept(self, k):
        assert replace(self.log_with().take(slice(0, 0)), action_count=k).action_count == k


class TestEvenBlocks:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_the_slices_of_array_split(self, data):
        most = data.draw(st.integers(1, 50), label="most")
        n = data.draw(st.integers(0, 5 * most + 3), label="n")
        blocks = semicrm.data.even_blocks(n, most)
        assert len(blocks) == -(-n // most)
        # in order, each from where the last stopped, covering range(n) exactly
        stops = [0] + [b.stop for b in blocks]
        assert [b.start for b in blocks] == stops[:-1] and stops[-1] == n
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(b.step is None and 0 < b.stop - b.start <= most for b in blocks)
        if n:
            assert [b.stop - b.start for b in blocks] == [
                len(part) for part in np.array_split(np.arange(n), len(blocks))]


class BlockError(Exception):
    pass


class TestRunBlocks:
    """``data.run_blocks`` with ROW_BLOCK 7: 70 rows are 10 blocks."""

    @pytest.fixture(autouse=True)
    def seven_row_blocks(self, monkeypatch):
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", 7)

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 5, 70])
    def test_each_block_once_on_one_thread_per_cpu(self, n, cpus, block_threads):
        block_threads(1, cpus)
        seen, written = [], np.zeros(n, dtype=int)

        def fn(rows):
            seen.append((rows.start, rows.stop, threading.current_thread().name))
            written[rows] += 1

        running, switch = threading.active_count(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so a lost write would show
        try:
            semicrm.data.run_blocks(fn, n)
        finally:
            sys.setswitchinterval(switch)
        assert threading.active_count() == running
        blocks = semicrm.data.even_blocks(n, 7)
        assert [(start, stop) for start, stop, _ in sorted(seen)] == [
            (b.start, b.stop) for b in blocks]
        assert np.all(written == 1)
        names = {name for _, _, name in seen}
        assert len(names) == min(cpus, len(blocks))
        assert not blocks or threading.current_thread().name in names

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("failing", [0, 1, 9])
    def test_an_error_in_any_block_reaches_the_caller_with_its_type(self, failing, cpus,
                                                                    block_threads):
        block_threads(1, cpus)
        blocks = semicrm.data.even_blocks(70, 7)

        def fn(rows):
            if rows == blocks[failing]:
                raise BlockError(rows.start)
            time.sleep(0.01)  # still running when the failing block raises

        running = threading.active_count()
        with pytest.raises(BlockError, match=f"^{blocks[failing].start}$"):
            semicrm.data.run_blocks(fn, 70)
        assert threading.active_count() == running

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("blas", [2, None])
    def test_any_other_blas_count_runs_every_block_in_the_caller(self, blas, cpus,
                                                                 block_threads):
        block_threads(blas, cpus)
        seen = []
        semicrm.data.run_blocks(lambda rows: seen.append((rows, threading.current_thread())), 70)
        assert seen == [(rows, threading.current_thread())
                        for rows in semicrm.data.even_blocks(70, 7)]

    def test_blas_threads_reads_the_count_numpy_runs(self):
        if semicrm.data.blas_threads() is None:
            pytest.skip("numpy's BLAS has no thread count that can be read here")
        src = str(Path(semicrm.data.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        printed = subprocess.run(
            [sys.executable, "-c", "import semicrm.data; print(semicrm.data.blas_threads())"],
            env=env, capture_output=True, text=True, check=True, timeout=60).stdout
        assert printed == "1\n"


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

    def test_propensity_equals_policy_probability(self, monkeypatch):
        # 50 rows are 8 blocks: each propensity has the bits of its block's product
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", 7)
        ds = label_concentrated_dataset()
        p = SoftmaxPolicy.create(2, 3, (4,), make_rng(9))
        S = supervised_to_bandit(ds, p, make_rng(4))
        blocks = semicrm.data.even_blocks(len(S), 7)
        assert len(blocks) == 8
        for block in blocks:
            P = p.probs_batch(ds.features[block])
            chosen = P[np.arange(len(P)), S.actions[block]]
            assert S.propensities[block].tobytes() == chosen.tobytes()

    @pytest.mark.parametrize("hidden", [(), (4,), (20, 20)])
    def test_blocked_transform_equals_the_per_row_loop(self, hidden, monkeypatch):
        # more rows than one block, and not a multiple of it
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", 100)
        n = 2 * 100 + 23
        ds = label_concentrated_dataset(n=n, d=10, k=5, seed=11)
        policy = SoftmaxPolicy.create(10, 5, hidden, make_rng(12))
        rng, reference_rng = make_rng(13), make_rng(13)
        forward, seen = policy.forward, []
        with monkeypatch.context() as mp:
            mp.setattr(policy, "forward", lambda X: seen.append(len(X)) or forward(X))
            S = supervised_to_bandit(ds, policy, rng)
        assert seen == [b.stop - b.start for b in semicrm.data.even_blocks(n, 100)]
        assert seen == [75, 74, 74]
        actions, propensities = per_row_to_bandit(ds, policy, reference_rng)
        assert np.array_equal(S.actions, actions)
        # a block's product and a row's own differ at most in the last bits
        assert np.max(np.abs(S.propensities - propensities)) <= 1e-14
        # the transform consumed exactly n rng.random() draws
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_u_past_the_float_total_never_logs_a_zero_probability_action(self):
        # the row's CDF total is nextafter(1, 0) and action 2's probability
        # underflows to 0: a u at the total falls through to action 1
        class LastDraw:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        policy = SoftmaxPolicy.create(2, 3, (), make_rng(0))
        policy.weights[0][:] = 0.0
        policy.biases[0][:] = [0.0, -2.997, -1000.0]
        ds = SupervisedDataset(np.zeros((1, 2)), np.array([1]))
        P = policy.probs_batch(ds.features)[0]
        assert P[2] == 0.0 and np.cumsum(P)[-1] <= np.nextafter(1.0, 0.0)
        S = supervised_to_bandit(ds, policy, LastDraw())
        assert S.actions.tolist() == [1]
        assert S.propensities[0] == P[1] > 0.0

    def test_log_shares_the_features(self):
        ds = label_concentrated_dataset()
        S = supervised_to_bandit(ds, uniform_policy(2, 3), make_rng(0))
        assert np.shares_memory(S.contexts, ds.features)

    def test_empty_dataset_gives_empty_log(self):
        ds = SupervisedDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        S = supervised_to_bandit(ds, uniform_policy(2, 3), make_rng(0))
        assert len(S) == 0 and S.action_count == 3

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
        assert_same_rows(drop_action(S, 2), S)

    def test_removes_all_of_action(self):
        S = random_log(n=60)
        known = drop_action(S, 1)
        assert np.all(known.actions != 1)
        assert len(known) == len(S) - np.sum(S.actions == 1)

    def test_keeps_action_count_for_the_regressor(self):
        # PR with the top action dropped still fits a k-column regressor
        S = random_log(n=60, d=2, k=3)
        known = drop_action(S, 2)
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

    def test_zero_rows_give_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_bandit_csv(path, BanditLog(np.zeros((0, 2)), [], [], [], 3))
        assert path.read_bytes() == b"x0,x1,action,propensity,reward\n"

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

    def test_negative_action_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.0,0,0.5,-1\n2.0,-1,0.5,-1\n")
        with pytest.raises(DatasetFormatError, match="line 3: negative action index -1") as err:
            read_bandit_csv(path)
        assert err.value.line_number == 3

    def test_nan_propensity_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.0,0,0.5,-1\n2.0,1,0.5,\n3.0,1,nan,\n")
        with pytest.raises(DatasetFormatError,
                           match=r"line 4: propensity must be in \(0, 1\], got nan") as err:
            read_bandit_csv(path)
        assert err.value.line_number == 4

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\noops,0,0.5,-1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_bandit_csv(path)
        assert err.value.line_number == 2

    def test_first_faulty_field_in_column_order_is_reported(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.0,0,0.5,-1\n2.0,-1,oops,2\n")
        with pytest.raises(DatasetFormatError, match="line 3: negative action index -1"):
            read_bandit_csv(path)
        path.write_text("x0,action,propensity,reward\n2.0,1,1.5,2\n")
        with pytest.raises(DatasetFormatError, match=r"line 2: propensity must be in \(0, 1\]"):
            read_bandit_csv(path)

    def test_blank_line_counts_toward_line_numbers(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.0,0,0.5,-1\n\n2.0,0,1.5,-1\n")
        with pytest.raises(DatasetFormatError, match="line 4") as err:
            read_bandit_csv(path)
        assert err.value.line_number == 4

    def test_reward_outside_range_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("x0,action,propensity,reward\n1.0,0,0.5,-2.5\n")
        with pytest.raises(DatasetFormatError):
            read_bandit_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("x0,action,propensity\n1.0,0,0.5\n",
         "line 1: header must end with action,propensity,reward"),
        ("x0,action,propensity,reward\n1.0,0,0.5,-1\n\n2.0,0,0.5\n",
         "line 4: expected 4 fields, got 3"),
    ], ids=["empty", "header", "short-row"])
    def test_malformed_file_rejected_with_line_number(self, tmp_path, text, message):
        path = tmp_path / "log.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=message):
            read_bandit_csv(path)


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_rejected_with_line_number(self, tmp_path, bad):
        path = tmp_path / "log.csv"
        path.write_text(f"x0,x1,action,propensity,reward\n1,2,0,0.5,-1\n1,{bad},0,0.5,\n")
        with pytest.raises(DatasetFormatError) as err:
            read_bandit_csv(path)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_reward_rejected(self, tmp_path, bad):
        # NaN marks a reward-free row, so a written "nan" must not become one
        path = tmp_path / "log.csv"
        path.write_text(f"x0,action,propensity,reward\n1.0,0,0.5,-1\n2.0,0,0.5,{bad}\n")
        with pytest.raises(DatasetFormatError) as err:
            read_bandit_csv(path)
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

    def test_golden_bytes(self, tmp_path):
        ds = SupervisedDataset(np.array([[0.5, -1.25, 1e-300], [1.0 / 3.0, -0.0, 2.0]]),
                               np.array([4, 0]))
        path = tmp_path / "golden.csv"
        write_supervised_csv(path, ds)
        assert path.read_bytes() == (
            b"x0,x1,x2,label\n"
            b"0.5,-1.25,1e-300,4\n"
            b"0.33333333333333331,-0,2,0\n"
        )

    def test_zero_rows_give_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_supervised_csv(path, SupervisedDataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))
        assert path.read_bytes() == b"x0,x1,label\n"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_rejected_with_line_number(self, tmp_path, bad):
        path = tmp_path / "sup.csv"
        path.write_text(f"x0,x1,label\n1,2,0\n3,4,1\n{bad},0.5,1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_supervised_csv(path)
        assert err.value.line_number == 4

    def test_negative_label_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text("x0,label\n1.0,0\n\n2.0,-1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_supervised_csv(path)
        assert err.value.line_number == 4

    def test_blank_lines_count_toward_feature_line_numbers(self, tmp_path):
        path = tmp_path / "sup.csv"
        path.write_text("x0,label\n\n1,0\n\nnan,1\n")
        with pytest.raises(DatasetFormatError) as err:
            read_supervised_csv(path)
        assert err.value.line_number == 5

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("x0,x1,y\n1,2,0\n", "line 1: header must end with label"),
        ("x0,x1,label\n1,2,0\n3,4,1,5\n", "line 3: expected 3 fields, got 4"),
    ], ids=["empty", "header", "long-row"])
    def test_malformed_file_rejected_with_line_number(self, tmp_path, text, message):
        path = tmp_path / "sup.csv"
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match=message):
            read_supervised_csv(path)


# Writes of CSV_FORK_ROWS rows or more format blocks of STREAM_BLOCK rows, in
# forked workers when there are several.  These pin that the bytes do not
# depend on the threshold, the block size or the worker count, and that the
# workers neither outlive a write nor hide a failure.


def pids_written(path) -> list[int]:
    return [int(line) for line in path.read_text().splitlines()[1:]]


class TestBlockedCsvWrites:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_bytes_do_not_depend_on_blocks_or_cpus(self, data):
        block = data.draw(st.integers(1, 7), label="block")
        fork_rows = data.draw(st.integers(0, 4 * block), label="fork rows")
        n = data.draw(st.sampled_from([0, block, 2 * block, 3 * block])
                      | st.integers(0, 4 * block), label="rows")
        d = data.draw(st.integers(1, 3), label="d")
        k = data.draw(st.integers(1, 4), label="k")
        finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0])
        contexts = data.draw(arrays(float, (n, d), elements=finite))
        rewards = data.draw(arrays(float, n, elements=st.floats(-1.0, 0.0)
                                   | st.sampled_from([np.nan, -0.0, -1.0])))
        if data.draw(st.booleans(), label="reward-free block edges"):
            rewards[::block] = rewards[block - 1::block] = np.nan
        log = BanditLog(contexts, data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1))),
                        data.draw(arrays(float, n, elements=st.floats(5e-324, 1.0))), rewards, k)
        ds = SupervisedDataset(contexts, log.actions)
        cpus = data.draw(st.sampled_from([{0}, set(range(os.cpu_count()))]), label="CPUs")
        with tempfile.TemporaryDirectory() as tmp:
            written = {}
            for blocked in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if blocked:
                        mp.setattr(semicrm.data, "STREAM_BLOCK", block)
                        mp.setattr(semicrm.data, "CSV_FORK_ROWS", fork_rows)
                        mp.setattr(os, "sched_getaffinity", lambda pid: cpus)
                    for name, write, rows in (("log.csv", write_bandit_csv, log),
                                              ("sup.csv", write_supervised_csv, ds)):
                        write(Path(tmp) / name, rows)
                        written[blocked, name] = (Path(tmp) / name).read_bytes()
        for name in ("log.csv", "sup.csv"):
            assert written[True, name] == written[False, name]

    def test_blocks_run_in_worker_processes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", 2)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 7)
        monkeypatch.setattr(semicrm.data, "_supervised_rows",
                            lambda ds, rows: f"{os.getpid()}\n")
        path = tmp_path / "sup.csv"
        write_supervised_csv(path, label_concentrated_dataset(n=7))
        pids = pids_written(path)
        assert len(pids) == 4  # blocks of 2, 2, 2 and 1 rows
        assert os.getpid() not in pids and len(set(pids)) <= len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        write_supervised_csv(path, label_concentrated_dataset(n=7))
        assert pids_written(path) == [os.getpid()] * 4  # one CPU: no worker

    def test_without_an_affinity_mask_blocks_are_formatted_in_this_process(
            self, tmp_path, monkeypatch):
        # as on macOS and Windows, where os.sched_getaffinity does not exist
        ds = label_concentrated_dataset(n=semicrm.data.CSV_FORK_ROWS + 3616)
        write_supervised_csv(tmp_path / "forked.csv", ds)
        monkeypatch.delattr(os, "sched_getaffinity")
        write_supervised_csv(tmp_path / "here.csv", ds)
        assert (tmp_path / "here.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()
        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", 2)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 7)
        monkeypatch.setattr(semicrm.data, "_supervised_rows",
                            lambda ds, rows: f"{os.getpid()}\n")
        write_supervised_csv(tmp_path / "here.csv", label_concentrated_dataset(n=7))
        assert pids_written(tmp_path / "here.csv") == [os.getpid()] * 4

    def test_one_block_is_formatted_in_this_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", 2)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 1)
        monkeypatch.setattr(semicrm.data, "_bandit_rows",
                            lambda log, rows: f"{os.getpid()}\n")
        path = tmp_path / "log.csv"
        for rows in (1, 2):
            write_bandit_csv(path, random_log(n=2).take(np.arange(rows)))
            assert pids_written(path) == [os.getpid()]

    def test_files_below_the_fork_threshold_are_one_block_in_this_process(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", 2)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 8)
        monkeypatch.setattr(semicrm.data, "_bandit_rows",
                            lambda log, rows: f"{os.getpid()},{rows.start},{rows.stop}\n")
        path = tmp_path / "log.csv"
        for rows in (0, 1, 7):
            write_bandit_csv(path, random_log(n=7).take(np.arange(rows)))
            assert path.read_text().splitlines()[1:] == [f"{os.getpid()},0,{rows}"]

    def test_blocks_from_the_fork_threshold_are_even_blocks(self, tmp_path, monkeypatch):
        # 10 rows in blocks of at most 4: 4, 3 and 3 rows, not 4, 4 and 2
        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", 4)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 10)
        monkeypatch.setattr(semicrm.data, "_bandit_rows",
                            lambda log, rows: f"{rows.start},{rows.stop}\n")
        path = tmp_path / "log.csv"
        write_bandit_csv(path, random_log(n=10))
        assert path.read_text().splitlines()[1:] == ["0,4", "4,7", "7,10"]

    def test_no_worker_outlives_a_write(self, tmp_path, monkeypatch, no_worker_left):
        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", 3)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 0)
        write_bandit_csv(tmp_path / "log.csv", random_log(n=20))
        no_worker_left()
        write_supervised_csv(tmp_path / "sup.csv", label_concentrated_dataset(n=20))
        no_worker_left()

    def test_failed_block_raises_its_own_type_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                                 no_worker_left):
        format_rows, formatted = semicrm.data._bandit_rows, []

        def fails_on_the_third_block(log, rows):
            formatted.append(rows.start)
            if rows.start == 6:
                raise OverflowError(f"block at row {rows.start}")
            return format_rows(log, rows)

        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", 3)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 0)
        monkeypatch.setattr(semicrm.data, "_bandit_rows", fails_on_the_third_block)
        path = tmp_path / "log.csv"
        with pytest.raises(OverflowError, match="block at row 6"):
            write_bandit_csv(path, random_log(n=20))
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temporary one
        no_worker_left()
        path.write_bytes(b"the file before\n")
        with pytest.raises(OverflowError, match="block at row 6"):
            write_bandit_csv(path, random_log(n=20))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"the file before\n"
        no_worker_left()
        monkeypatch.delattr(os, "sched_getaffinity")  # every block in this process
        with pytest.raises(OverflowError, match="block at row 6"):
            write_bandit_csv(path, random_log(n=20))
        assert formatted[-3:] == [0, 3, 6]  # no block after the failed one
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == b"the file before\n"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        target = tmp_path / "a directory"
        target.mkdir()
        with pytest.raises(OSError):  # the rename onto a directory fails
            write_bandit_csv(target, random_log(n=20))
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []
        with pytest.raises(FileNotFoundError):
            write_bandit_csv(tmp_path / "missing" / "log.csv", random_log(n=20))
        assert list(tmp_path.iterdir()) == [target]

    def test_memory_does_not_grow_with_the_file(self, tmp_path, monkeypatch):
        # blocks are formatted in this process, where tracemalloc sees them
        block = 512
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(semicrm.data, "STREAM_BLOCK", block)
        monkeypatch.setattr(semicrm.data, "CSV_FORK_ROWS", 0)
        log = random_log(n=8 * block, d=10)
        one_block = len(semicrm.data._bandit_rows(log, slice(0, block)))
        two, eight = (traced_peak(write_bandit_csv, tmp_path / "log.csv",
                                  log.take(np.arange(blocks * block)))
                      for blocks in (2, 8))
        assert abs(eight - two) < one_block


def _line_parser_ran(*args):
    raise AssertionError("the line parser ran on a file numpy parses")


def read_both(folder):
    return read_bandit_csv(folder / "log.csv"), read_supervised_csv(folder / "sup.csv")


def assert_same_reads(got, expected):
    (S, S_u), ds = got
    (S_x, S_u_x), ds_x = expected
    assert_same_rows(S, S_x)
    assert_same_rows(S_u, S_u_x)
    for a, b in ((ds.features, ds_x.features), (ds.labels, ds_x.labels)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def block_starts(path) -> list[int]:
    return [span[0] for span in semicrm.data._body_blocks(path) if span is not None]


class TestBlockedCsvReads:
    """Files whose body is larger than CSV_READ_BLOCK bytes are parsed in
    blocks, one per forked worker; every column keeps the bytes of a serial
    read."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_columns_do_not_depend_on_blocks_or_cpus(self, data):
        n = data.draw(st.integers(1, 12), label="rows")
        d = data.draw(st.integers(1, 3), label="d")
        k = data.draw(st.integers(1, 4), label="k")
        finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 0.0, 5e-324])
        contexts = data.draw(arrays(float, (n, d), elements=finite))
        rewards = data.draw(arrays(float, n, elements=st.floats(-1.0, 0.0) | st.just(np.nan)))
        log = BanditLog(contexts, data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1))),
                        data.draw(arrays(float, n, elements=st.floats(5e-324, 1.0))), rewards, k)
        ds = SupervisedDataset(contexts, log.actions)
        k_read = int(log.actions.max()) + 1  # what the file records of k
        expected = tuple(replace(log.take(rows), action_count=k_read)
                         for rows in (~np.isnan(rewards), np.isnan(rewards))), ds
        block = data.draw(st.integers(1, 160), label="block bytes")
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp)
            write_bandit_csv(folder / "log.csv", log)
            write_supervised_csv(folder / "sup.csv", ds)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(semicrm.data, "_parse_lines", _line_parser_ran)
                assert_same_reads(read_both(folder), expected)  # one block, in this process
                mp.setattr(semicrm.data, "CSV_READ_BLOCK", block)
                for cpus in ("one", "all", "none"):
                    with pytest.MonkeyPatch.context() as cpu_mp:
                        if cpus == "one":
                            cpu_mp.setattr(os, "sched_getaffinity", lambda pid: {0})
                        elif cpus == "none":  # as on macOS and Windows
                            cpu_mp.delattr(os, "sched_getaffinity")
                        assert_same_reads(read_both(folder), expected)

    def test_blocks_start_on_line_starts_and_split_the_body_evenly(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "log.csv"
        write_bandit_csv(path, random_log(n=30))
        text = path.read_bytes()
        line_starts = [i + 1 for i in range(len(text)) if text[i:i + 1] == b"\n"]
        body, longest = len(text) - line_starts[0], max(np.diff(line_starts))
        for block in (1, 7, 50, 400, body - 1):
            monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", block)
            spans = semicrm.data._body_blocks(path)
            assert spans[0][0] == line_starts[0] and spans[-1][1] == len(text)
            assert [stop for _, stop in spans[:-1]] == [start for start, _ in spans[1:]]
            assert {start for start, _ in spans} <= set(line_starts)
            # as few blocks as keep each within a block and one line
            assert len(spans) <= -(-body // block)
            assert all(stop - start <= block + longest for start, stop in spans)
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", body)
        assert semicrm.data._body_blocks(path) == [None]

    def test_blocks_run_in_worker_processes(self, tmp_path, monkeypatch):
        parse_block = semicrm.data._parse_block

        def labelled_with_its_pid(*args):
            columns = parse_block(*args)
            columns[-1][:] = os.getpid()
            return columns

        monkeypatch.setattr(semicrm.data, "_parse_block", labelled_with_its_pid)
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", 64)
        path = tmp_path / "sup.csv"
        write_supervised_csv(path, label_concentrated_dataset(n=30))
        pids = set(read_supervised_csv(path).labels.tolist())
        assert os.getpid() not in pids and len(pids) <= len(os.sched_getaffinity(0))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one CPU: no worker
        assert set(read_supervised_csv(path).labels.tolist()) == {os.getpid()}
        monkeypatch.delattr(os, "sched_getaffinity")
        assert set(read_supervised_csv(path).labels.tolist()) == {os.getpid()}

    def test_a_body_that_fits_in_one_block_is_parsed_in_this_process(
            self, tmp_path, monkeypatch, pools):
        path = tmp_path / "log.csv"
        write_bandit_csv(path, random_log(n=20))
        read_bandit_csv(path)
        assert pools == []  # the default block holds it
        text = path.read_bytes()
        body = len(text) - text.index(b"\n") - 1
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", body)
        read_bandit_csv(path)
        assert pools == []
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", body - 1)
        read_bandit_csv(path)
        assert [workers for workers, _ in pools] == [2] * (len(os.sched_getaffinity(0)) > 1)

    def test_crlf_and_no_final_newline_read_as_the_lf_file(self, tmp_path, monkeypatch):
        S, S_u = mask_rewards(random_log(n=40), 0.5, make_rng(1))
        lf = tmp_path / "lf.csv"
        write_bandit_csv(lf, S.concat(S_u))
        monkeypatch.setattr(semicrm.data, "_parse_lines", _line_parser_ran)
        expected = read_bandit_csv(lf)  # one block
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", 100)
        text = lf.read_bytes()
        for name, variant in (("lf", text), ("crlf", text.replace(b"\n", b"\r\n")),
                              ("no final newline", text[:-1]),
                              ("crlf, no final newline", text.replace(b"\n", b"\r\n")[:-2])):
            path = tmp_path / "variant.csv"
            path.write_bytes(variant)
            assert len(block_starts(path)) > 5, name
            for got, want in zip(read_bandit_csv(path), expected):
                assert_same_rows(got, want)

    ROWS = [f"{i}.5,{i % 3},0.25,-1" for i in range(10, 30)]  # 15 bytes a line
    HEADER = "x0,action,propensity,reward"

    def test_blank_line_on_a_block_boundary_is_skipped_but_counted(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", 4 * 15)
        expected = read_bandit_csv(_write(tmp_path / "plain.csv", self.HEADER, self.ROWS))
        rows = self.ROWS[:4] + [""] + self.ROWS[4:]
        path = _write(tmp_path / "blank.csv", self.HEADER, rows)
        blank_at = len(self.HEADER) + 1 + 4 * 15
        assert path.read_bytes()[blank_at:blank_at + 1] == b"\n"
        assert blank_at in block_starts(path)
        with monkeypatch.context() as mp:
            mp.setattr(semicrm.data, "_parse_lines", _line_parser_ran)
            for got, want in zip(read_bandit_csv(path), expected):
                assert_same_rows(got, want)
        # line 1 is the header and line 6 the blank one, so the 7th row is on line 9
        rows[7] = rows[7].replace("0.25", "0")
        with pytest.raises(DatasetFormatError, match="propensity") as err:
            read_bandit_csv(_write(path, self.HEADER, rows))
        assert err.value.line_number == 9

    def test_faults_in_blocks_give_the_line_parsers_columns_or_error(self, tmp_path,
                                                                     monkeypatch):
        rows = [f"{i},{i % 3},0.5,{-(i % 2)}" for i in range(999)]
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", 1000)
        expected = read_bandit_csv(_write(tmp_path / "plain.csv", self.HEADER, rows))
        spelled = _respell(rows, 500, "500,", "5_00,")  # refused by numpy only
        path = _write(tmp_path / "spelled.csv", self.HEADER, spelled)
        at = path.read_bytes().index(b"5_00,")
        starts = block_starts(path)
        assert starts[0] < at and any(start > at for start in starts)  # a middle block
        for got, want in zip(read_bandit_csv(path), expected):
            assert_same_rows(got, want)
        for bad_rows in (rows, spelled):
            path = _write(tmp_path / "bad.csv", self.HEADER, bad_rows[:-1] + ["1,0,1.5,-1"])
            assert path.read_bytes().index(b"1,0,1.5") > block_starts(path)[-1]
            with pytest.raises(DatasetFormatError, match=r"propensity must be in \(0, 1\]"
                               ) as err:
                read_bandit_csv(path)
            assert err.value.line_number == 1000

    def test_no_worker_outlives_a_read(self, tmp_path, monkeypatch, no_worker_left):
        monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", 50)
        path = tmp_path / "log.csv"
        write_bandit_csv(path, random_log(n=20))
        read_bandit_csv(path)
        no_worker_left()
        text = path.read_text().splitlines()
        path.write_text("\n".join(text[:-1] + ["1,2,0,1.5,-1"]) + "\n")
        with pytest.raises(DatasetFormatError):
            read_bandit_csv(path)
        no_worker_left()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpus"])
    def test_a_read_holds_its_columns_and_about_one_block(self, tmp_path, monkeypatch, cpus):
        # every block is copied into columns of their final size and dropped
        # before the next, so the peak is not all the blocks plus the columns
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        S, S_u = mask_rewards(random_log(n=20000, d=10, k=5), 0.3, make_rng(2))
        write_bandit_csv(tmp_path / "log.csv", S.concat(S_u))
        write_supervised_csv(tmp_path / "sup.csv", SupervisedDataset(S.contexts, S.actions))
        for name, read in (("log.csv", read_bandit_csv), ("sup.csv", read_supervised_csv)):
            path = tmp_path / name
            monkeypatch.setattr(semicrm.data, "CSV_READ_BLOCK", path.stat().st_size // 17)
            assert len(block_starts(path)) >= 16
            got = read(path)
            parts = got if isinstance(got, tuple) else (got,)
            columns = sum(column.nbytes for part in parts for column in vars(part).values()
                          if isinstance(column, np.ndarray))
            assert traced_peak(read, path) < 1.5 * columns, name


# fork_map deals items round-robin to its workers, and each worker returns its
# results through a pipe of its own that the caller reads in item order; these
# pin what a simpler deal or return would break.

class TestForkMap:
    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    def test_results_larger_than_a_pipe_come_back_in_item_order(self):
        def late_first(size, item):  # the first items take the longest
            time.sleep(0.02 * (8 - item))
            return str(item) * size

        assert list(semicrm.data.fork_map(late_first, range(8), 1 << 20)) == [
            str(item) * (1 << 20) for item in range(8)]

    def test_more_results_than_a_pipe_holds(self):
        # each worker's 5000 pickled results do not fit in a 64 KiB pipe at once
        assert list(semicrm.data.fork_map(operator.add, range(20000), 1)) == list(
            range(1, 20001))

    def test_a_worker_that_dies_without_a_result_raises(self, no_worker_left):
        def dies_on_two(item):
            if item == 2:
                os._exit(3)
            return item

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3"):
            list(semicrm.data.fork_map(dies_on_two, range(6)))
        assert time.monotonic() - start < 10
        no_worker_left()

    def test_an_exception_that_cannot_be_pickled_still_raises(self, no_worker_left):
        class Local(Exception):  # a class in a function does not pickle
            pass

        def raises_on_one(item):
            if item == 1:
                raise Local("not from here")
            return item

        with pytest.raises(RuntimeError, match="Local, not picklable: not from here"):
            list(semicrm.data.fork_map(raises_on_one, range(4)))
        no_worker_left()

    def test_closing_early_reaps_every_worker_and_leaves_nothing(self, no_worker_left):
        results = semicrm.data.fork_map(lambda item: time.sleep(item / 10) or item, range(40))
        assert next(results) == 0
        start = time.monotonic()
        results.close()  # does not wait for the 78 s of sleeps left
        assert time.monotonic() - start < 5
        no_worker_left()

    def test_workers_run_at_most_one_result_ahead_of_the_caller(self, tmp_path, monkeypatch,
                                                                no_worker_left):
        workers = 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                            raising=False)
        started = tmp_path / "started"

        def logged(item):
            with open(started, "a") as fh:
                fh.write(f"{item}\n")
            return bytes(1 << 20)

        results = semicrm.data.fork_map(logged, range(40))
        assert next(results) == bytes(1 << 20)
        time.sleep(1)
        # each worker has at most one result waiting and one being made
        assert len(started.read_text().split()) <= 2 * workers
        results.close()
        no_worker_left()

    def test_a_worker_killed_while_writing_a_result_raises(self, monkeypatch, no_worker_left):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def killed_mid_write(item):
            if item == 0:
                time.sleep(2)  # the caller reads nothing of item 1 until then
                return item
            threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGKILL)).start()
            return bytes(4 << 20)  # blocks on the full pipe until the timer kills it

        with pytest.raises(RuntimeError, match="exited with code -9"):
            list(semicrm.data.fork_map(killed_mid_write, range(2)))
        no_worker_left()


# Both readers parse with numpy first and hand a file to the line parser when
# numpy refuses it, warns about it or a column check fails.  These pin that
# every file goes on to give the line parser's columns or its line-numbered
# error.

BANDIT_ROWS = ["10,0.5,3,0.25,-1", "-2.5,3,1,0.5,"]
SUPERVISED_ROWS = ["10,0.5,3", "-2.5,3,1"]
# spellings float()/int() accept and numpy refuses: an underscore, Unicode
# digits (U+0663 is 3) and a whitespace-only line
NUMPY_REFUSES = [
    ("feature 1_0", 0, "10,", "1_0,"),
    ("Unicode digit feature", 1, ",3,", ",٣,"),
    ("Unicode digit action or label", 0, ",3", ",٣"),
]


def _respell(rows, row, plain, spelling):
    assert plain in rows[row]
    return [r.replace(plain, spelling, 1) if i == row else r for i, r in enumerate(rows)]


def _whitespace_line(rows):
    return [rows[0], " \t ", *rows[1:]]


def _write(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


class TestBanditCsvSpellings:
    HEADER = "x0,x1,action,propensity,reward"

    def read(self, tmp_path, rows):
        return read_bandit_csv(_write(tmp_path / "log.csv", self.HEADER, rows))

    REFUSED = NUMPY_REFUSES + [("propensity 0.2_5", 0, ",0.25,", ",0.2_5,")]

    @pytest.mark.parametrize("what, row, plain, spelling", REFUSED,
                             ids=[case[0] for case in REFUSED])
    def test_spellings_numpy_refuses_give_the_plain_columns(self, tmp_path, what, row,
                                                            plain, spelling):
        expected = self.read(tmp_path, BANDIT_ROWS)
        got = self.read(tmp_path, _respell(BANDIT_ROWS, row, plain, spelling))
        for a, b in zip(got, expected):
            assert_same_rows(a, b)

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        expected = self.read(tmp_path, BANDIT_ROWS)
        for a, b in zip(self.read(tmp_path, _whitespace_line(BANDIT_ROWS)), expected):
            assert_same_rows(a, b)

    def test_float_spelled_action_rejected_with_line_number(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 3: .*'3.0'") as err:
            self.read(tmp_path, ["1,2,0,0.5,-1", "1,2,3.0,0.5,-1", "1,2,0,0.5,"])
        assert err.value.line_number == 3

    def test_action_beyond_int64_rejected_with_line_number(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 3: .*99999999999999999999") as err:
            self.read(tmp_path, ["1,2,0,0.5,-1", "1,2,99999999999999999999,0.5,-1"])
        assert err.value.line_number == 3

    def test_header_only_file_gives_empty_logs(self, tmp_path):
        S, S_u = self.read(tmp_path, [])
        for log in (S, S_u):
            assert len(log) == 0 and log.action_count == 0
            assert log.contexts.shape == (0, 2)

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_row_file_gives_one_row_arrays(self, tmp_path, d):
        header = ",".join([f"x{i}" for i in range(d)] + ["action", "propensity", "reward"])
        path = _write(tmp_path / "log.csv", header, [",".join(["0.5"] * d + ["2", "0.25", ""])])
        S, S_u = read_bandit_csv(path)
        assert len(S) == 0 and S_u.contexts.shape == (1, d) and S_u.action_count == 3
        assert S_u.actions.tolist() == [2] and S_u.propensities.tolist() == [0.25]

    def test_bad_propensity_on_the_last_of_1000_rows_reports_its_line(self, tmp_path):
        rows = [f"{i},{i % 3},0.5,{-(i % 2)}" for i in range(999)] + ["1,0,1.5,-1"]
        path = _write(tmp_path / "log.csv", "x0,action,propensity,reward", rows)
        with pytest.raises(DatasetFormatError, match=r"propensity must be in \(0, 1\], got 1.5"
                           ) as err:
            read_bandit_csv(path)
        assert err.value.line_number == 1001


class TestSupervisedCsvSpellings:
    HEADER = "x0,x1,label"

    def read(self, tmp_path, rows):
        return read_supervised_csv(_write(tmp_path / "sup.csv", self.HEADER, rows))

    @staticmethod
    def assert_same(a, b):
        for x, y in ((a.features, b.features), (a.labels, b.labels)):
            assert x.shape == y.shape and x.dtype == y.dtype
            assert np.array_equal(x.view(np.uint8), y.view(np.uint8))

    @pytest.mark.parametrize("what, row, plain, spelling", NUMPY_REFUSES,
                             ids=[case[0] for case in NUMPY_REFUSES])
    def test_spellings_numpy_refuses_give_the_plain_columns(self, tmp_path, what, row,
                                                            plain, spelling):
        expected = self.read(tmp_path, SUPERVISED_ROWS)
        self.assert_same(self.read(tmp_path, _respell(SUPERVISED_ROWS, row, plain, spelling)),
                         expected)

    def test_whitespace_only_line_is_skipped(self, tmp_path):
        expected = self.read(tmp_path, SUPERVISED_ROWS)
        self.assert_same(self.read(tmp_path, _whitespace_line(SUPERVISED_ROWS)), expected)

    def test_float_spelled_label_rejected_with_line_number(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 3: .*'3.0'") as err:
            self.read(tmp_path, ["1,2,0", "1,2,3.0", "1,2,1"])
        assert err.value.line_number == 3

    def test_label_beyond_int64_rejected_with_line_number(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 4: .*99999999999999999999") as err:
            self.read(tmp_path, ["1,2,0", "", "1,2,99999999999999999999"])
        assert err.value.line_number == 4

    def test_header_only_file_gives_empty_dataset(self, tmp_path):
        ds = self.read(tmp_path, [])
        assert len(ds) == 0 and ds.features.shape == (0, 2) and ds.num_classes == 0

    @pytest.mark.parametrize("d", [1, 3])
    def test_one_row_file_gives_one_row_arrays(self, tmp_path, d):
        header = ",".join([f"x{i}" for i in range(d)] + ["label"])
        path = _write(tmp_path / "sup.csv", header, [",".join(["0.5"] * d + ["4"])])
        ds = read_supervised_csv(path)
        assert ds.features.shape == (1, d) and ds.labels.tolist() == [4]

    def test_columns_are_contiguous_and_not_views_of_the_parsed_rows(self, tmp_path):
        ds = self.read(tmp_path, SUPERVISED_ROWS)
        for column in (ds.features, ds.labels):
            assert column.flags.c_contiguous
            assert column.base is None or column.base.dtype.names is None

    def test_negative_label_on_the_last_of_1000_rows_reports_its_line(self, tmp_path):
        rows = [f"{i},{i / 7},{i % 4}" for i in range(999)] + ["1,2,-1"]
        with pytest.raises(DatasetFormatError, match="negative label -1") as err:
            self.read(tmp_path, rows)
        assert err.value.line_number == 1001

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        # finite doubles, subnormals and both zeros included
        finite = st.floats(allow_nan=False, allow_infinity=False)
        ds = SupervisedDataset(
            data.draw(arrays(float, (n, d),
                             elements=finite | st.sampled_from([0.0, -0.0, 5e-324]))),
            data.draw(arrays(np.int64, n, elements=st.integers(0, 2**63 - 1))),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sup.csv"
            write_supervised_csv(path, ds)
            out = read_supervised_csv(path)
        self.assert_same(out, ds)
