import numpy as np
import pytest
from conftest import uniform_policy

from semicrm.config import (
    CONFIG_KEYS,
    experiment_config_from_keys,
    parse_config_text,
)
from semicrm import harness
from semicrm.data import SupervisedDataset
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
from semicrm.policy import save_policy
from semicrm.rng import make_rng


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

    def test_class_proportions(self):
        spec = SyntheticSpec(dim=2, num_classes=2, class_props=(0.8, 0.2))
        ds = generate_synthetic(spec, 20_000, 1)
        frac = float(np.mean(ds.labels == 0))
        assert abs(frac - 0.8) < 0.02

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
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=2, class_props=(0.9, 0.2))


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


def tiny_config(**kw):
    from semicrm.estimators import TruncationParams
    from semicrm.trainers import TrainConfig

    defaults = dict(
        synthetic=SyntheticSpec(dim=2, num_classes=2, separation=3.0),
        train_rows=80,
        test_rows=40,
        logging_fraction=0.1,
        keep_fraction=0.2,
        train=TrainConfig(trunc=TruncationParams(zeta=0.001, tau=0.001),
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
    @pytest.mark.parametrize("algorithms, learning_rate", [
        (("PR",), 1e8), (("WCE", "KL", "PR"), 1e200),
    ])
    def test_divergence_is_a_cell_error(self, tmp_path, algorithms, learning_rate):
        # a diverged cell goes to errors.txt, not into metrics.csv as NaN
        from semicrm.estimators import TruncationParams
        from semicrm.trainers import TrainConfig

        cfg = ExperimentConfig(
            synthetic=SyntheticSpec(dim=4, num_classes=3), train_rows=600,
            test_rows=200, algorithms=algorithms, alphas=(0.5,), repetitions=1,
            train=TrainConfig(trunc=TruncationParams(0.001, 0.001), epochs=50,
                              learning_rate=learning_rate),
            output_dir=str(tmp_path),
        )
        rows, errors = run_experiment(cfg)
        assert rows == [] and len(errors) == len(algorithms)
        assert all("training diverged at step" in e for e in errors)
        assert (tmp_path / "errors.txt").read_text().splitlines() == errors
        assert (tmp_path / "metrics.csv").read_text() == METRICS_HEADER + "\n"

    def test_only_value_errors_become_cell_errors(self, monkeypatch):
        def fails_with(exc):
            def trainer(S, S_u, cfg, init):
                raise exc
            return trainer

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

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            experiment_config_from_keys({"data.bogus": "1"})

    def test_defaults_round_trip(self):
        cfg = experiment_config_from_keys({})
        ref = ExperimentConfig()
        assert cfg.train_rows == ref.train_rows
        assert cfg.alphas == ref.alphas
        assert cfg.train.learning_rate == ref.train.learning_rate

    def test_key_list_is_flat(self):
        assert all(k.count(".") == 1 for k in CONFIG_KEYS)
