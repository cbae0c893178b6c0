import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from semicrm.bounds import bound_report, random_environment, write_environment
from semicrm.cli import build_parser, main
from semicrm.config import CONFIG_KEYS
from semicrm.data import read_bandit_csv, read_supervised_csv
from semicrm.harness import ExperimentConfig
from semicrm.policy import DimensionMismatchError, SoftmaxPolicy, load_policy, save_policy
from semicrm.rng import make_rng
from semicrm.trainers import TrainConfig


def run(*argv):
    return main([str(a) for a in argv])


class TestPipeline:
    def test_generate_to_evaluate_round_trip(self, tmp_path, capsys):
        sup = tmp_path / "sup.csv"
        run("generate", "--out", sup, "--rows", 400, "--dim", 3,
            "--classes", 2, "--separation", 4.0, "--seed", 1)
        ds = read_supervised_csv(sup)
        assert len(ds) == 400 and ds.dim == 3

        pol = tmp_path / "logging.policy"
        run("train-logging", "--data", sup, "--out", pol, "--fraction", 0.2,
            "--seed", 1)
        load_policy(pol)  # parses as a valid checkpoint

        bandit = tmp_path / "bandit.csv"
        run("to-bandit", "--data", sup, "--policy", pol, "--out", bandit,
            "--seed", 1)
        known, unknown = read_bandit_csv(bandit)
        assert len(known) == 400 and len(unknown) == 0

        masked = tmp_path / "masked.csv"
        run("mask", "--data", bandit, "--out", masked, "--keep-fraction", 0.25,
            "--seed", 1)
        S, S_u = read_bandit_csv(masked)
        assert len(S) == 100 and len(S_u) == 300

        out_policy = tmp_path / "trained.policy"
        trace = tmp_path / "trace.csv"
        run("train", "--data", masked, "--out", out_policy, "--algorithm", "WCE",
            "--alpha", "0.5", "--epochs", 20, "--trace", trace, "--seed", 2)
        assert load_policy(out_policy).input_dim == 3
        trace_lines = trace.read_text().splitlines()
        assert trace_lines[0] == "epoch,ips_term,reg_term,grad_norm"
        assert len(trace_lines) == 21

        capsys.readouterr()
        run("evaluate", "--policy", out_policy, "--data", sup)
        out = capsys.readouterr().out.splitlines()
        metrics = dict(line.split(",") for line in out)
        assert -1.0 <= float(metrics["expected_risk"]) <= 0.0
        assert 0.0 <= float(metrics["accuracy"]) <= 1.0

    @pytest.mark.parametrize("algorithm", ["KL", "PR"])
    def test_other_trainers_run(self, tmp_path, algorithm):
        sup, pol = tmp_path / "s.csv", tmp_path / "p.pol"
        bandit, masked = tmp_path / "b.csv", tmp_path / "m.csv"
        run("generate", "--out", sup, "--rows", 120, "--dim", 2, "--classes", 2)
        run("train-logging", "--data", sup, "--out", pol, "--fraction", 0.3)
        run("to-bandit", "--data", sup, "--policy", pol, "--out", bandit)
        run("mask", "--data", bandit, "--out", masked, "--keep-fraction", 0.3)
        out = tmp_path / "out.pol"
        run("train", "--data", masked, "--out", out, "--algorithm", algorithm,
            "--alpha", "0.7", "--epochs", 5)
        assert load_policy(out).action_count == 2

    def test_init_policy_with_too_few_actions_rejected(self, tmp_path):
        # a 2-action checkpoint cannot train on a log that holds action 2
        log = tmp_path / "log.csv"
        log.write_text("x0,action,propensity,reward\n"
                       "0.5,0,0.5,-1\n1.5,2,0.25,\n-0.5,1,0.5,0\n")
        init = tmp_path / "init.policy"
        save_policy(SoftmaxPolicy.create(1, 2, (3,), make_rng(0)), init)
        with pytest.raises(DimensionMismatchError):
            run("train", "--data", log, "--out", tmp_path / "out.policy",
                "--init", init, "--alpha", 0.5, "--epochs", 2)

    def test_out_of_range_alpha_fails_before_the_log_is_read(self, tmp_path):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got 1.5"):
            run("train", "--data", tmp_path / "missing.csv", "--out", tmp_path / "out.policy",
                "--alpha", 1.5)

    def test_logging_fraction_above_one_rejected(self, tmp_path):
        # it once asked for 90 of 60 rows and failed with an IndexError
        sup = tmp_path / "s.csv"
        run("generate", "--out", sup, "--rows", 60, "--dim", 2, "--classes", 2)
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\], got 1.5"):
            run("train-logging", "--data", sup, "--out", tmp_path / "p.pol", "--fraction", 1.5)
        assert not (tmp_path / "p.pol").exists()

    def test_logging_fraction_is_checked_before_the_data_is_read(self, tmp_path):
        # it was checked after the read, so a missing file raised FileNotFoundError
        with pytest.raises(ValueError, match=r"fraction must be in \(0, 1\], got 1.5"):
            run("train-logging", "--data", tmp_path / "missing.csv", "--out",
                tmp_path / "p.pol", "--fraction", 1.5)

    def test_seeded_training_runs_write_the_same_trace_bytes(self, tmp_path):
        # the trace once carried each step's wall-clock seconds
        sup, pol = tmp_path / "s.csv", tmp_path / "p.pol"
        bandit, masked = tmp_path / "b.csv", tmp_path / "m.csv"
        run("generate", "--out", sup, "--rows", 120, "--dim", 2, "--classes", 2)
        run("train-logging", "--data", sup, "--out", pol, "--fraction", 0.3)
        run("to-bandit", "--data", sup, "--policy", pol, "--out", bandit)
        run("mask", "--data", bandit, "--out", masked, "--keep-fraction", 0.3)
        for name in ("a", "b"):
            run("train", "--data", masked, "--out", tmp_path / f"{name}.pol", "--alpha", 0.5,
                "--epochs", 30, "--trace", tmp_path / f"{name}.csv", "--seed", 3)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.pol").read_bytes() == (tmp_path / "b.pol").read_bytes()

    def test_label_outside_policy_actions_rejected(self, tmp_path):
        sup, pol = tmp_path / "s.csv", tmp_path / "p.pol"
        sup.write_text("x0,label\n0.5,0\n1.5,4\n")
        save_policy(SoftmaxPolicy.create(1, 2, (3,), make_rng(0)), pol)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            run("evaluate", "--policy", pol, "--data", sup)

    def test_mask_rejects_already_masked_input(self, tmp_path):
        sup, pol = tmp_path / "s.csv", tmp_path / "p.pol"
        bandit, masked = tmp_path / "b.csv", tmp_path / "m.csv"
        run("generate", "--out", sup, "--rows", 60, "--dim", 2, "--classes", 2)
        run("train-logging", "--data", sup, "--out", pol, "--fraction", 0.3)
        run("to-bandit", "--data", sup, "--policy", pol, "--out", bandit)
        run("mask", "--data", bandit, "--out", masked, "--keep-fraction", 0.5)
        with pytest.raises(SystemExit):
            run("mask", "--data", masked, "--out", tmp_path / "z.csv")


class TestBoundsCommand:
    def test_report_matches_library(self, tmp_path, capsys):
        env = random_environment(make_rng(5), 3, 3)
        env_path = tmp_path / "env.txt"
        write_environment(env_path, env)
        out_path = tmp_path / "report.csv"
        run("bounds", "--env", env_path, "--out", out_path,
            "--delta", 0.1, "--n", 500)
        capsys.readouterr()
        expected = bound_report(env, delta=0.1, n=500)
        got = {}
        for line in out_path.read_text().splitlines():
            key, value = line.split(",")
            got[key] = float(value)
        assert set(got) == set(expected)
        for key in expected:
            assert got[key] == pytest.approx(expected[key], rel=1e-12)


    @pytest.mark.parametrize("flags, message", [
        (("--n", 0), "n must be >= 1, got 0"),
        (("--n", -5), "n must be >= 1, got -5"),
        (("--delta", 1.5), r"delta must be in \(0, 1\), got 1.5"),
    ], ids=["n=0", "n=-5", "delta=1.5"])
    def test_bad_n_or_delta_rejected(self, tmp_path, flags, message):
        env_path = tmp_path / "env.txt"
        write_environment(env_path, random_environment(make_rng(5), 3, 3))
        with pytest.raises(ValueError, match=message):
            run("bounds", "--env", env_path, "--out", tmp_path / "report.csv", *flags)
        assert not (tmp_path / "report.csv").exists()


class TestSweepCommand:
    CONFIG = """
    synthetic.dim = 2
    synthetic.classes = 2
    synthetic.separation = 3.0
    data.train_rows = 80
    data.test_rows = 40
    data.keep_fraction = 0.2
    data.seed = 3
    experiment.logging_fraction = 0.1
    experiment.algorithms = WCE, logging
    experiment.alphas = 0.5, 1.0
    experiment.repetitions = 2
    train.epochs = 5
    train.batch_known = 8
    train.batch_unknown = 16
    """

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(self.CONFIG)
        out = tmp_path / "results"
        run("sweep", "-c", cfg_path, "-o", out, "--experiment.repetitions", "1")
        capsys.readouterr()
        lines = (out / "metrics.csv").read_text().splitlines()
        # 1 repetition: 2 WCE cells + 1 logging row, plus the header
        assert len(lines) == 4

    def test_sweep_deterministic_output(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(self.CONFIG)
        outs = []
        for name in ("r1", "r2"):
            run("sweep", "-c", cfg_path, "-o", tmp_path / name)
            outs.append((tmp_path / name / "metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_out_of_range_zeta_fails_before_any_work(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(self.CONFIG)
        with pytest.raises(ValueError, match=r"zeta must be in \[0, 1\], got 2.0"):
            run("sweep", "-c", cfg_path, "-o", tmp_path / "out", "--train.zeta=2")
        assert not (tmp_path / "out" / "metrics.csv").exists()

    def test_repeated_grid_value_fails_before_any_work(self, tmp_path):
        with pytest.raises(ValueError, match="alphas repeats 0.5"):
            run("sweep", "-o", tmp_path / "out", "--data.train_rows", "600",
                "--data.test_rows", "200", "--experiment.alphas=0.5,0.50",
                "--experiment.algorithms=WCE", "--train.epochs", "20")
        assert not (tmp_path / "out").exists()

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run("sweep", "--bogus.key", "1")

    def test_equals_form_override(self, tmp_path, capsys):
        out = tmp_path / "res"
        run("sweep", "-o", out,
            "--synthetic.dim=2", "--synthetic.classes=2",
            "--data.train_rows=60", "--data.test_rows=30",
            "--experiment.logging_fraction=0.2",
            "--experiment.algorithms=logging",
            "--experiment.repetitions=1",
            "--train.epochs=2")
        capsys.readouterr()
        assert (out / "metrics.csv").exists()

    def test_help_names_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as done:
            run("sweep", "--help")
        assert done.value.code == 0
        shown = capsys.readouterr().out
        assert [key for key in CONFIG_KEYS if f"--{key} " not in shown] == []

    def test_output_flag_is_the_output_dir_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(self.CONFIG + f"experiment.output_dir = {tmp_path / 'file'}\n")
        run("sweep", "-c", cfg_path, "-o", tmp_path / "flag",
            "--experiment.algorithms", "logging")
        assert (tmp_path / "flag" / "metrics.csv").exists()
        assert not (tmp_path / "file").exists()
        run("sweep", "-c", cfg_path, "--experiment.output_dir", tmp_path / "key",
            "--experiment.algorithms", "logging")
        assert (tmp_path / "key" / "metrics.csv").exists()
        assert not (tmp_path / "file").exists()

    def test_abbreviated_key_rejected(self, capsys):
        with pytest.raises(SystemExit) as failed:
            run("sweep", "--data.keep", "0.2")
        assert failed.value.code != 0
        assert "--data.keep" in capsys.readouterr().err

    def test_readme_config_table_lists_exactly_the_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
        first_cells = [line.split("|")[1] for line in table.splitlines()
                       if line.startswith("| `")]
        listed = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
        assert sorted(listed) == sorted(CONFIG_KEYS)


class TestTrainSettings:
    """``semicrm train``'s settings flags and the sweep's ``train.*`` keys are
    TrainConfig's fields; neither list may change when that is derived."""

    # a flag's value is parsed by the constructor of its type, which for a
    # bool would read "false" as True
    TYPES = {"int": int, "float": float}

    def test_every_field_is_an_int_or_a_float(self):
        defaults = ExperimentConfig().train
        for f in fields(TrainConfig):
            assert f.type in self.TYPES, f.name
            assert type(getattr(defaults, f.name)) is self.TYPES[f.type], f.name

    def test_train_flags_are_the_fields(self):
        parser = build_parser()
        required = ["train", "--data", "d.csv", "--out", "p.policy"]
        given = vars(parser.parse_args(required))
        defaults = ExperimentConfig().train
        names = [f.name for f in fields(TrainConfig)]
        assert set(given) == {"command", "func", "data", "out", "algorithm", "init",
                              "trace", *names}
        for f in fields(TrainConfig):
            assert given[f.name] == getattr(defaults, f.name), f.name
            flag = "--" + f.name.replace("_", "-")
            parsed = getattr(parser.parse_args([*required, flag, "3"]), f.name)
            assert type(parsed) is self.TYPES[f.type] and parsed == 3, flag

    def test_sweep_keys_unchanged(self):
        train_keys = [f"train.{f.name}" for f in fields(TrainConfig)
                      if f.name not in ("alpha", "tau", "seed")]
        assert list(CONFIG_KEYS[-len(train_keys):]) == train_keys
        assert CONFIG_KEYS == (
            "data.path", "data.train_rows", "data.test_rows", "data.keep_fraction",
            "data.seed", "synthetic.dim", "synthetic.classes", "synthetic.separation",
            "synthetic.noise", "experiment.logging_fraction", "experiment.algorithms",
            "experiment.alphas", "experiment.taus", "experiment.repetitions",
            "experiment.dropped_action", "experiment.timing", "experiment.output_dir",
            "train.zeta", "train.epochs", "train.batch_known", "train.batch_unknown",
            "train.learning_rate",
        )
