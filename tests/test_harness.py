import multiprocessing
import os
import threading
from dataclasses import FrozenInstanceError, astuple, replace

import numpy as np
import pytest
from conftest import run_row_term, traced_peak, uniform_policy, view_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from semicrm.config import (
    CONFIG_KEYS,
    experiment_config_from_keys,
    parse_config_text,
)
import semicrm.data
from semicrm import estimators, harness, trainers
from semicrm.data import SupervisedDataset, write_supervised_csv
from semicrm.harness import (
    METRICS_HEADER,
    ExperimentConfig,
    MetricsRow,
    SyntheticSpec,
    evaluate_policy,
    generate_synthetic,
    run_experiment,
    summarize,
    train_logging_policy,
    write_metrics_csv,
)
from semicrm.policy import SoftmaxPolicy, save_policy, softmax_and_log_softmax
from semicrm.rng import make_rng
from semicrm.trainers import TrainConfig, TrainingDiverged


class TestSynthetic:
    def test_shapes_and_determinism(self):
        spec = SyntheticSpec(dim=4, num_classes=3)
        a = generate_synthetic(spec, 50, 7)
        b = generate_synthetic(spec, 50, 7)
        assert a.features.shape == (50, 4)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = generate_synthetic(spec, 50, 8)
        assert not np.array_equal(a.features, c.features)

    def test_large_separation_is_linearly_separable(self):
        spec = SyntheticSpec(dim=5, num_classes=3, separation=20.0, noise=1.0)
        ds = generate_synthetic(spec, 600, 2)
        # nearest class-mean classification recovers the labels
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(3)])
        d2 = ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2)
        assert np.mean(np.argmin(d2, axis=1) == ds.labels) > 0.999

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(dim=0)

    @pytest.mark.parametrize("field", ["noise", "separation"])
    def test_nan_noise_or_separation_rejected(self, field):
        # unchecked, a sweep fails every trained cell as diverged at step 0
        with pytest.raises(ValueError, match="separation and noise must be nonnegative"):
            SyntheticSpec(**{field: float("nan")})


class TestEvaluatePolicy:
    def test_uniform_policy_hand_value(self):
        rng = make_rng(3)
        labels = rng.choice(10, size=200)
        test = SupervisedDataset(rng.standard_normal((200, 3)), labels)
        risk, acc = evaluate_policy(uniform_policy(3, 10), test)
        assert risk == pytest.approx(-0.1, abs=1e-12)
        # uniform scores: argmax resolves to action 0 on every row
        assert acc == pytest.approx(float(np.mean(labels == 0)), abs=1e-15)

    def test_dimension_mismatch(self):
        test = SupervisedDataset(np.zeros((5, 4)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            evaluate_policy(uniform_policy(3, 2), test)

    def test_accuracy_counts_the_most_probable_action(self):
        policy = uniform_policy(3, 3)
        policy.biases[-1][:] = np.log([0.1, 0.6, 0.3])
        labels = np.array([1, 0, 1, 2])
        risk, acc = evaluate_policy(policy, SupervisedDataset(np.zeros((4, 3)), labels))
        assert acc == 0.5
        assert risk == pytest.approx(-(0.6 + 0.1 + 0.6 + 0.3) / 4, abs=1e-12)

    def test_empty_test_set_rejected(self):
        test = SupervisedDataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="no test rows"):
            evaluate_policy(uniform_policy(3, 2), test)

    # a negative label is rejected when the dataset is built (tests/test_data.py)
    @pytest.mark.parametrize("label", [2, 4])
    def test_label_outside_action_range_rejected(self, label):
        test = SupervisedDataset(np.zeros((3, 3)), np.array([0, label, 1]))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            evaluate_policy(uniform_policy(3, 2), test)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000), st.sampled_from([7, 512, semicrm.data.ROW_BLOCK]),
           st.integers(0, 2**32 - 1))
    def test_blocks_are_views_with_the_bits_of_gathered_blocks(self, n, block, seed):
        rng = make_rng(seed)
        features = rng.standard_normal((n, 4))
        test = SupervisedDataset(features, rng.integers(0, 5, n))
        policy = SoftmaxPolicy.create(4, 5, (20, 20), rng)
        # the gathered form: one index array per block of np.array_split
        blocks = np.array_split(np.arange(n), -(-n // block))
        probs = np.concatenate([policy.probs_batch(features[b]) for b in blocks])
        want = (-float(np.mean(probs[np.arange(n), test.labels])),
                float(np.mean(np.argmax(probs, axis=1) == test.labels)))
        forward, seen = policy.forward, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(policy, "forward", lambda X: seen.append(X) or forward(X))
            mp.setattr(semicrm.data, "ROW_BLOCK", block)
            got = evaluate_policy(policy, test)
        assert view_rows(seen, features) == [(b[0], len(b)) for b in blocks]
        assert all(X.base is features for X in seen)  # views, not gathered copies
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("block", [7, 512, 8192])
    def test_threaded_blocks_keep_the_serial_bits(self, block, cpus, block_threads,
                                                  monkeypatch):
        rng = make_rng(9)
        n = 20_000  # three blocks at 8192
        test = SupervisedDataset(rng.standard_normal((n, 4)), rng.integers(0, 5, n))
        policy = SoftmaxPolicy.create(4, 5, (20, 20), rng)
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", block)
        block_threads(None, cpus)
        serial = evaluate_policy(policy, test)
        block_threads(1, cpus)
        running = threading.active_count()
        threaded = evaluate_policy(policy, test)
        assert threading.active_count() == running
        assert np.array(threaded).tobytes() == np.array(serial).tobytes()

    def test_memory_does_not_grow_with_the_test_set(self, monkeypatch):
        block = 512
        monkeypatch.setattr(semicrm.data, "ROW_BLOCK", block)
        rng = make_rng(8)
        policy = SoftmaxPolicy.create(10, 5, (20, 20), rng)
        test = SupervisedDataset(rng.standard_normal((8 * block, 10)),
                                 rng.integers(0, 5, 8 * block))
        one, two, eight = (traced_peak(evaluate_policy, policy,
                                       test.subset(slice(0, blocks * block)))
                           for blocks in (1, 2, 8))
        # the per-row results take 9 bytes a row; a block's forward pass takes
        # far more, so an evaluation that held more blocks than it runs at once
        # would fail this
        assert abs(eight - two) < one


class TestLoggingPolicy:
    def test_accuracy_on_separable_data(self):
        spec = SyntheticSpec(dim=5, num_classes=3, separation=8.0, noise=1.0)
        ds = generate_synthetic(spec, 2000, 4)
        policy = train_logging_policy(ds, 0.1, 4)
        _, acc = evaluate_policy(policy, ds)
        assert acc > 0.95

    def test_checkpoint_determinism(self, tmp_path):
        spec = SyntheticSpec(dim=3, num_classes=2)
        ds = generate_synthetic(spec, 300, 5)
        for name in ("a", "b"):
            save_policy(train_logging_policy(ds, 0.2, 9), tmp_path / name)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_larger_fraction_improves_downstream_risk(self):
        # a better logging policy (more supervised rows) carries through the
        # whole pipeline: median expected risk improves with the fraction
        medians = []
        for frac in (0.01, 0.05, 0.2):
            cfg = ExperimentConfig(algorithms=("WCE",), alphas=(0.9,),
                                   repetitions=10, seed=0, logging_fraction=frac)
            rows, errors = run_experiment(cfg)
            assert errors == []
            medians.append(float(np.median([r.expected_risk for r in rows])))
        assert medians[0] > medians[1] > medians[2]

    def test_fraction_too_small(self):
        spec = SyntheticSpec(dim=2, num_classes=4)
        ds = generate_synthetic(spec, 100, 6)
        with pytest.raises(ValueError):
            train_logging_policy(ds, 0.01, 0)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_fraction_outside_the_unit_interval_rejected(self, fraction):
        # 1.5 once asked for 300 of 200 rows and failed with an IndexError
        ds = generate_synthetic(SyntheticSpec(dim=2, num_classes=2), 200, 6)
        with pytest.raises(ValueError, match=rf"fraction must be in \(0, 1\], got {fraction}"):
            train_logging_policy(ds, fraction, 0)

    def test_full_fraction_is_accepted(self):
        ds = generate_synthetic(SyntheticSpec(dim=2, num_classes=2), 50, 6)
        assert train_logging_policy(ds, 1.0, 0).action_count == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_fit_raises(self):
        # features of order 1e200 overflow the gradient at the first step
        ds = generate_synthetic(SyntheticSpec(dim=3, num_classes=2), 200, 6)
        huge = SupervisedDataset(ds.features * 1e200, ds.labels)
        with pytest.raises(TrainingDiverged) as err:
            train_logging_policy(huge, 0.5, 0)
        assert err.value.step == 0

    def test_fit_runs_no_row_term_on_zero_rows_and_keeps_its_bits(self, monkeypatch):
        # the fit's rewarded log is empty, so its IPS part covers no rows
        ds = generate_synthetic(SyntheticSpec(dim=3, num_classes=3), 400, 7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainers, "value_and_grad", every_term_value_and_grad)
            reference = train_logging_policy(ds, 0.5, 7)
        calls = []
        for term, (constants_of, rows_of) in list(estimators.ROW_TERMS.items()):
            monkeypatch.setitem(estimators.ROW_TERMS, term, (
                constants_of, lambda log_pi, *rest, term=term, rows_of=rows_of:
                calls.append((term, len(log_pi))) or rows_of(log_pi, *rest)))
        policy = train_logging_policy(ds, 0.5, 7)
        assert calls == [("CE", 64)] * 500
        assert policy.flat.tobytes() == reference.flat.tobytes()

    def test_fit_is_the_training_loop_on_the_cross_entropy_term(self, monkeypatch):
        seen = []

        def descend(S, S_u, cfg, init, regularizer, pooled):
            seen.append((len(S), len(S_u), S_u.propensities.tolist(), cfg, regularizer, pooled))
            return init, None

        monkeypatch.setattr(harness, "_descend", descend)
        ds = generate_synthetic(SyntheticSpec(dim=2, num_classes=2), 40, 6)
        train_logging_policy(ds, 0.25, 0)
        ((known, labelled, propensities, cfg, regularizer, pooled),) = seen
        assert (known, labelled, propensities) == (0, 10, [1.0] * 10)
        assert (cfg.alpha, cfg.epochs, cfg.batch_unknown, cfg.learning_rate) == (0.0, 500, 64, 0.05)
        assert (regularizer, pooled) == ("CE", False)


def every_term_value_and_grad(policy, contexts, actions, propensities, rewards, parts):
    """``estimators.value_and_grad`` with every part's row term run, also on a
    part that covers no rows: the reference for the bits of a fit."""
    scores, cache = policy.forward(contexts)
    pi, log_pi = softmax_and_log_softmax(scores, actions)
    factors, values = np.zeros(len(actions)), []
    for term, part, scale, floor in parts:
        value, factor = run_row_term(term, log_pi[part], actions[part],
                                     propensities[part], rewards[part], floor)
        factors[part] += scale * factor
        values.append(float(np.sum(value)))
    dscores = -factors[:, None] * pi
    dscores[np.arange(len(actions)), actions] += factors
    # backward's products take C-order operands, as value_and_grad hands them
    return values, policy.backward(cache, np.ascontiguousarray(dscores))


def tiny_config(**kw):
    defaults = dict(
        synthetic=SyntheticSpec(dim=2, num_classes=2, separation=3.0),
        train_rows=80,
        test_rows=40,
        logging_fraction=0.1,
        keep_fraction=0.2,
        train=TrainConfig(zeta=0.001, tau=0.001,
                          epochs=5, batch_known=8, batch_unknown=16),
        algorithms=("WCE", "logging"),
        alphas=(0.5, 1.0),
        taus=(0.001,),
        repetitions=2,
        seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_row_count_order_and_no_errors(self):
        rows, errors = run_experiment(tiny_config())
        assert errors == []
        # WCE: 2 alphas x 1 tau x 2 reps; logging: 2 reps
        assert len(rows) == 6
        keys = [(r.algorithm, r.alpha, r.tau, r.seed) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert -1.0 <= r.expected_risk <= 0.0
            assert 0.0 <= r.accuracy <= 1.0
            assert r.runtime_seconds == 0.0

    def test_metrics_csv_byte_identical(self, tmp_path):
        for name in ("x", "y"):
            rows, _ = run_experiment(tiny_config())
            write_metrics_csv(tmp_path / name, rows)
        assert (tmp_path / "x").read_bytes() == (tmp_path / "y").read_bytes()

    def test_no_test_rows_is_an_error(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="test_rows must be positive, got 0"):
            run_experiment(tiny_config(test_rows=0, output_dir=str(out)))
        assert not out.exists()

    def test_output_dir_files(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_config(output_dir=str(out)))
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == METRICS_HEADER
        assert len(metrics) == 7
        assert (out / "summary.csv").exists()
        assert not (out / "errors.txt").exists()

    def test_dropped_action_removes_known_rewards(self):
        rows, errors = run_experiment(tiny_config(dropped_action=0))
        assert errors == []
        assert len(rows) == 6

    def test_dropped_action_outside_the_action_space_rejected(self, tmp_path):
        # 2 classes: action 2 does not exist, so no row could be dropped
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=r"dropped_action 2 .*\[0, 2\)"):
            run_experiment(tiny_config(dropped_action=2, output_dir=str(out)))
        assert not out.exists()

    def test_pr_with_highest_action_dropped(self):
        # the reward regressor must size its one-hot block by the policy's
        # action count, not by the largest action seen among rewarded rows
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(dim=4, num_classes=3), train_rows=600,
            test_rows=200, algorithms=("PR",), alphas=(0.9,), repetitions=1,
            dropped_action=2,
        )
        rows, errors = run_experiment(cfg)
        assert errors == []
        assert len(rows) == 1 and np.isfinite(rows[0].expected_risk)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("algorithms, learning_rate, batch", [
        # batches of all 600 rows draw no minibatch, so whether the cell
        # diverges does not depend on the sampler's random stream
        pytest.param(("WCE",), 1e8, 600, id="WCE-1e8-full-batch"),
        pytest.param(("WCE", "KL", "PR"), 1e200, None, id="all-1e200"),
    ])
    def test_divergence_is_a_cell_error(self, tmp_path, algorithms, learning_rate, batch):
        # a diverged cell goes to errors.txt, not into metrics.csv as NaN
        batches = {} if batch is None else dict(batch_known=batch, batch_unknown=batch)
        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(dim=4, num_classes=3), train_rows=600,
            test_rows=200, algorithms=algorithms, alphas=(0.5,), repetitions=1,
            train=TrainConfig(zeta=0.001, tau=0.001, epochs=50,
                              learning_rate=learning_rate, **batches),
            output_dir=str(tmp_path),
        )
        rows, errors = run_experiment(cfg)
        assert rows == [] and len(errors) == len(algorithms)
        assert all("training diverged at step" in e for e in errors)
        assert (tmp_path / "errors.txt").read_text().splitlines() == errors
        assert (tmp_path / "metrics.csv").read_text() == METRICS_HEADER + "\n"

    def test_only_value_errors_become_cell_errors(self, monkeypatch):
        monkeypatch.setitem(harness._TRAINERS, "WCE", fails_with(ValueError("bad data")))
        rows, errors = run_experiment(tiny_config())
        assert len(errors) == 4 and all(e.endswith(": bad data") for e in errors)
        assert [r.algorithm for r in rows] == ["logging", "logging"]
        monkeypatch.setitem(harness._TRAINERS, "WCE", fails_with(TypeError("a bug")))
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(tiny_config())

    def test_timing_enabled_records_positive_time(self):
        rows, _ = run_experiment(tiny_config(timing=True, algorithms=("WCE",)))
        assert all(r.runtime_seconds > 0.0 for r in rows)

    @staticmethod
    def synthetic_csv(tmp_path, cfg):
        path = tmp_path / "data.csv"
        write_supervised_csv(path, generate_synthetic(cfg.synthetic, 800, cfg.seed))
        return str(path)

    def test_dataset_file_gives_the_synthetic_sweeps_bytes(self, tmp_path):
        # the file holds the rows the synthetic sweep generates, so every
        # output must match
        cfg = ExperimentConfig(train_rows=600, test_rows=200, alphas=(0.0, 0.5, 1.0),
                               repetitions=2, train=replace(ExperimentConfig().train, epochs=50))
        path = self.synthetic_csv(tmp_path, cfg)
        for name, dataset_path in [("synthetic", None), ("file", path)]:
            run_experiment(replace(cfg, dataset_path=dataset_path,
                                   output_dir=str(tmp_path / name)))
        # 2 repetitions of 3 trained algorithms x 3 alphas and a logging row
        assert len((tmp_path / "file" / "metrics.csv").read_bytes().splitlines()) == 1 + 2 * 10
        for name in ("metrics.csv", "summary.csv"):
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "synthetic" / name).read_bytes())

    def test_dataset_file_too_small_rejected(self, tmp_path):
        cfg = ExperimentConfig(train_rows=700, test_rows=200)
        with pytest.raises(ValueError, match="dataset smaller than train_rows \\+ test_rows"):
            run_experiment(replace(cfg, dataset_path=self.synthetic_csv(tmp_path, cfg)))


def fails_with(exc):
    def trainer(S, S_u, cfg, init):
        raise exc
    return trainer


def row_bits(row: MetricsRow) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(row))


class TestParallelSweep:
    def test_rows_equal_cells_run_in_this_process(self, pools):
        rows, _ = run_experiment(tiny_config())
        ((_, (cfg, reps, test_ds)),) = pools
        trained = [r for r in rows if r.algorithm != "logging"]
        assert len(trained) == 4
        for r in trained:
            here = harness._run_cell(cfg, r.algorithm, r.alpha, r.tau, r.seed,
                                     *reps[r.seed], test_ds)
            assert row_bits(here) == row_bits(r)

    def test_cells_run_in_worker_processes(self, monkeypatch):
        def fails_with_pid(S, S_u, cfg, init):
            raise ValueError(os.getpid())  # the pid of the process that runs the cell

        monkeypatch.setitem(harness._TRAINERS, "WCE", fails_with_pid)
        _, errors = run_experiment(tiny_config())
        # in loop order: repetition, then alpha
        assert [e.rsplit(": ", 1)[0] for e in errors] == [
            f"WCE,alpha={alpha},tau=0.001,seed={rep}" for rep in (0, 1) for alpha in (0.5, 1.0)]
        pids = {int(e.rsplit(": ", 1)[1]) for e in errors}
        assert os.getpid() not in pids
        assert len(pids) <= len(os.sched_getaffinity(0))

    def test_outputs_do_not_depend_on_the_cpu_count(self, tmp_path, monkeypatch, pools):
        cpus = len(os.sched_getaffinity(0))
        run_experiment(tiny_config(output_dir=str(tmp_path / "all")))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        run_experiment(tiny_config(output_dir=str(tmp_path / "one")))
        assert [workers for workers, _ in pools] == [min(cpus, 4), 1]
        for name in ("metrics.csv", "summary.csv"):
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()

    def test_no_worker_outlives_a_sweep(self, monkeypatch, pools):
        run_experiment(tiny_config())
        assert multiprocessing.active_children() == []
        monkeypatch.setitem(harness._TRAINERS, "WCE", fails_with(TypeError("a bug")))
        with pytest.raises(TypeError, match="a bug"):
            run_experiment(tiny_config())
        assert multiprocessing.active_children() == []
        rows, _ = run_experiment(tiny_config(algorithms=("logging",)))
        assert len(rows) == 2 and len(pools) == 2  # no cell to train, no pool
        assert multiprocessing.active_children() == []

    def test_one_cell_runs_in_this_process(self, monkeypatch, pools):
        def fails_with_pid(S, S_u, cfg, init):
            raise ValueError(os.getpid())

        monkeypatch.setitem(harness._TRAINERS, "WCE", fails_with_pid)
        _, errors = run_experiment(tiny_config(alphas=(0.5,), repetitions=1))
        assert [e.rsplit(": ", 1)[1] for e in errors] == [str(os.getpid())]
        assert pools == []

    def test_without_an_affinity_mask_cells_run_in_this_process(self, tmp_path, monkeypatch,
                                                                 pools):
        # as on macOS and Windows, where os.sched_getaffinity does not exist
        run_experiment(tiny_config(output_dir=str(tmp_path / "forked")))
        monkeypatch.delattr(os, "sched_getaffinity")
        run_experiment(tiny_config(output_dir=str(tmp_path / "here")))
        assert len(pools) == 1
        for name in ("metrics.csv", "summary.csv"):
            assert (tmp_path / "here" / name).read_bytes() == (tmp_path / "forked" / name).read_bytes()

        def fails_with_pid(S, S_u, cfg, init):
            raise ValueError(os.getpid())

        monkeypatch.setitem(harness._TRAINERS, "WCE", fails_with_pid)
        _, errors = run_experiment(tiny_config())
        assert [e.rsplit(": ", 1)[1] for e in errors] == [str(os.getpid())] * 4
        assert len(pools) == 1


class TestSummaries:
    def test_summary_matches_manual_recomputation(self):
        rows = [
            MetricsRow("WCE", 0.5, 0.001, s, risk, acc, 0.0)
            for s, (risk, acc) in enumerate([(-0.7, 0.8), (-0.75, 0.82), (-0.72, 0.79)])
        ]
        (cell,) = summarize(rows)
        risks = np.array([-0.7, -0.75, -0.72])
        assert cell["runs"] == 3
        assert abs(cell["expected_risk_mean"] - risks.mean()) < 1e-10
        assert abs(cell["expected_risk_std"] - risks.std(ddof=1)) < 1e-10

    def test_metrics_header_golden(self, tmp_path):
        write_metrics_csv(tmp_path / "m.csv", [])
        assert (tmp_path / "m.csv").read_text() == (
            "algorithm,alpha,tau,seed,expected_risk,accuracy,runtime_seconds\n"
        )


class TestConfig:
    def test_parse_text(self):
        text = """
        # a comment
        data.train_rows = 100   # trailing comment
        experiment.alphas = 0.1, 0.5, 1.0

        train.variant = KL
        """
        keys = parse_config_text(text)
        assert keys == {
            "data.train_rows": "100",
            "experiment.alphas": "0.1, 0.5, 1.0",
            "train.variant": "KL",
        }

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_config_text("no_equals_sign_here")
        with pytest.raises(ValueError):
            parse_config_text("nodot = 3")

    def test_hash_inside_a_value_is_not_a_comment(self):
        # a '#' starts a comment only at the start of a line or after whitespace
        keys = parse_config_text("data.path = /data/run#1/sup.csv\n"
                                 "experiment.output_dir = out#2 # trailing comment\n"
                                 "#data.seed = 3\n")
        assert keys == {"data.path": "/data/run#1/sup.csv", "experiment.output_dir": "out#2"}

    def test_repeated_key_rejected_with_both_line_numbers(self):
        with pytest.raises(ValueError, match="config line 4: train.epochs repeats line 2"):
            parse_config_text("# steps\ntrain.epochs = 5\ndata.seed = 1\n"
                              "  train.epochs=50\n")

    def test_build_experiment_config(self):
        cfg = experiment_config_from_keys({
            "data.train_rows": "123",
            "data.keep_fraction": "0.25",
            "synthetic.dim": "7",
            "synthetic.classes": "4",
            "experiment.algorithms": "WCE, PR",
            "experiment.alphas": "0.2, 0.8",
            "experiment.timing": "true",
            "train.epochs": "12",
        })
        assert cfg.train_rows == 123
        assert cfg.keep_fraction == 0.25
        assert cfg.synthetic.dim == 7
        assert cfg.synthetic.num_classes == 4
        assert cfg.algorithms == ("WCE", "PR")
        assert cfg.alphas == (0.2, 0.8)
        assert cfg.timing is True
        assert cfg.train.epochs == 12

    @pytest.mark.parametrize("text, value", [
        ("true", True), ("YES", True), ("1", True),
        ("false", False), ("No", False), ("0", False),
    ])
    def test_boolean_spellings(self, text, value):
        assert experiment_config_from_keys({"experiment.timing": text}).timing is value

    def test_bad_boolean_rejected(self):
        with pytest.raises(ValueError, match="expected a boolean, got 'maybe'"):
            experiment_config_from_keys({"experiment.timing": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            experiment_config_from_keys({"data.bogus": "1"})

    def test_unknown_algorithm_rejected_when_built(self):
        with pytest.raises(ValueError, match=r"unknown algorithms: \['FOO'\]"):
            experiment_config_from_keys({"experiment.algorithms": "WCE,FOO"})
        with pytest.raises(ValueError, match="unknown algorithms"):
            ExperimentConfig(algorithms=("wce",))

    def test_negative_dropped_action_rejected_when_built(self):
        with pytest.raises(ValueError, match="dropped_action must be >= 0, got -1"):
            experiment_config_from_keys({"experiment.dropped_action": "-1"})

    @pytest.mark.parametrize("train_rows", [0, -5, -50])
    def test_nonpositive_train_rows_rejected_when_built(self, train_rows):
        # unchecked, -5 trains on 1990 rows and scores on 5, and -50 dies inside numpy
        with pytest.raises(ValueError, match=f"train_rows must be positive, got {train_rows}"):
            ExperimentConfig(train_rows=train_rows, test_rows=2000)

    @pytest.mark.parametrize("test_rows", [0, -5, -50])
    def test_nonpositive_test_rows_rejected_when_built(self, test_rows):
        # unchecked, the error came from evaluate_policy, after the split and
        # the logging policy's fit
        with pytest.raises(ValueError, match=f"test_rows must be positive, got {test_rows}"):
            ExperimentConfig(train_rows=6000, test_rows=test_rows)
        with pytest.raises(ValueError, match=f"test_rows must be positive, got {test_rows}"):
            experiment_config_from_keys({"data.test_rows": str(test_rows)})

    @pytest.mark.parametrize("axis", ["algorithms", "alphas", "taus"])
    def test_empty_sweep_axis_rejected_when_built(self, axis):
        # unchecked, an empty axis gives a sweep with no trained cell and no error
        with pytest.raises(ValueError, match=f"{axis} must not be empty"):
            experiment_config_from_keys({f"experiment.{axis}": ""})
        with pytest.raises(ValueError, match=f"{axis} must not be empty"):
            ExperimentConfig(**{axis: ()})

    @pytest.mark.parametrize("axis, text, repeated", [
        ("algorithms", "WCE,WCE", "'WCE'"),
        ("algorithms", "logging,KL,logging", "'logging'"),
        ("alphas", "0.5,0.50", "0.5"),
        ("alphas", "0,0.25,-0", "0.0"),
        ("taus", "0.001,0.01,1e-3", "0.001"),
    ])
    def test_repeated_sweep_value_rejected_when_built(self, axis, text, repeated):
        # unchecked, each repeat trains its cells again and summary.csv counts
        # and averages the duplicated rows
        with pytest.raises(ValueError, match=f"{axis} repeats {repeated}"):
            experiment_config_from_keys({f"experiment.{axis}": text})

    @pytest.mark.parametrize("bad", [0.0, 1.5, float("nan")])
    def test_logging_fraction_outside_its_interval_rejected_when_built(self, bad):
        # unchecked, 0.0 passed and run_experiment failed once the data was built
        with pytest.raises(ValueError, match=rf"fraction must be in \(0, 1\], got {bad}"):
            ExperimentConfig(logging_fraction=bad)

    @pytest.mark.parametrize("axis", ["alphas", "taus"])
    @pytest.mark.parametrize("bad", [-0.25, 1.5])
    def test_alpha_or_tau_outside_unit_interval_rejected_when_built(self, axis, bad):
        # unchecked, it fails every cell, and only after the data and logging policy are built
        with pytest.raises(ValueError, match=rf"{axis} must be in \[0, 1\], got \(0.5, {bad}\)"):
            ExperimentConfig(**{axis: (0.5, bad)})

    @pytest.mark.parametrize("built, name, value", [
        (ExperimentConfig(), "alphas", (1.5,)),
        (ExperimentConfig(), "alphas", ()),
        (TrainConfig(), "epochs", -3),
        (SyntheticSpec(), "dim", 0),
    ], ids=["ExperimentConfig.alphas=(1.5,)", "ExperimentConfig.alphas=()",
            "TrainConfig.epochs", "SyntheticSpec.dim"])
    def test_built_config_cannot_be_changed(self, built, name, value):
        # assignment would skip the checks the constructor runs: alphas=() gave
        # a sweep with no trained cell and epochs=-3 an untrained policy
        with pytest.raises(FrozenInstanceError):
            setattr(built, name, value)

    def test_defaults_round_trip(self):
        cfg = experiment_config_from_keys({})
        ref = ExperimentConfig()
        assert cfg.train_rows == ref.train_rows
        assert cfg.alphas == ref.alphas
        assert cfg.train.learning_rate == ref.train.learning_rate

    def test_key_list_is_flat(self):
        assert all(k.count(".") == 1 for k in CONFIG_KEYS)
