"""End-to-end experiment harness: data generation, logging policy, sweeps.

A single master seed drives the whole pipeline; per-stage seeds are derived
with :func:`semicrm.rng.derive_seed` so any stage can be reproduced alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import data
from .data import (
    BanditLog,
    SupervisedDataset,
    drop_action,
    fork_map,
    mask_rewards,
    read_supervised_csv,
    supervised_to_bandit,
    write_lines,
)
from .policy import SoftmaxPolicy
from .rng import derive_seed, stage_rng
from .trainers import TRAINERS as _TRAINERS, TrainConfig, _descend


@dataclass(frozen=True)
class SyntheticSpec:
    """Mixture-of-Gaussians classification data: one component per class.

    Component means are drawn once from the generation seed (scaled by
    ``separation``); features are mean + ``noise`` * standard normal.
    """

    dim: int = 10
    num_classes: int = 5
    separation: float = 1.5
    noise: float = 1.0

    def __post_init__(self):
        if self.dim <= 0 or self.num_classes <= 0:
            raise ValueError("dim and num_classes must be positive")
        if not (self.noise >= 0) or not (self.separation >= 0):  # also rejects nan
            raise ValueError("separation and noise must be nonnegative")


def generate_synthetic(spec: SyntheticSpec, n: int, seed: int) -> SupervisedDataset:
    """Sample n labeled rows; identical (spec, n, seed) gives identical data."""
    rng = stage_rng(seed, "synthetic")
    means = spec.separation * rng.standard_normal((spec.num_classes, spec.dim))
    uniform = np.full(spec.num_classes, 1.0 / spec.num_classes)  # p=None draws another stream
    labels = rng.choice(spec.num_classes, size=n, p=uniform)
    features = means[labels] + spec.noise * rng.standard_normal((n, spec.dim))
    return SupervisedDataset(features, labels)


# the logging policy's minibatch cross-entropy fit: at alpha 0 the "CE" term
# on the labelled rows is the whole objective
LOGGING_TRAIN = TrainConfig(alpha=0.0, epochs=500, batch_unknown=64, learning_rate=0.05)


def check_logging_fraction(fraction: float) -> None:
    """Reject a share of labelled rows for the logging policy's fit outside (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"logging fraction must be in (0, 1], got {fraction}")


def train_logging_policy(ds: SupervisedDataset, fraction: float, seed: int) -> SoftmaxPolicy:
    """Fit a softmax policy by cross-entropy on a random ``fraction`` subsample,
    with the CRM trainers' loop; raises :class:`TrainingDiverged` as they do."""
    check_logging_fraction(fraction)
    rng = stage_rng(seed, "logging-policy")
    n_sub = int(round(fraction * len(ds)))
    if n_sub < ds.num_classes:
        raise ValueError(
            f"fraction {fraction} leaves {n_sub} rows, fewer than {ds.num_classes} classes"
        )
    sub = ds.subset(np.sort(rng.permutation(len(ds))[:n_sub]))
    init = SoftmaxPolicy.create(ds.dim, ds.num_classes, rng=rng)
    # the labels as logged actions, on reward-free rows beside an empty rewarded log
    labelled = BanditLog(sub.features, sub.labels, np.ones(n_sub), np.full(n_sub, np.nan),
                         ds.num_classes)
    cfg = replace(LOGGING_TRAIN, seed=derive_seed(seed, "logging-policy.train"))
    policy, _ = _descend(labelled.take(slice(0, 0)), labelled, cfg, init, "CE", pooled=False)
    return policy


def evaluate_policy(
    policy: SoftmaxPolicy, test: SupervisedDataset
) -> tuple[float, float]:
    """(expected_risk, accuracy) against true labels.

    Expected risk is computed exactly from the policy probabilities:
    -(1/N) sum_i pi(label_i | x_i); accuracy uses the argmax action.  The
    forward passes run over views of blocks of at most ``data.ROW_BLOCK``
    rows (see :func:`data.run_blocks`), so the memory they take does not grow
    with the test set.
    """
    if policy.input_dim != test.dim:
        raise ValueError(f"policy expects d={policy.input_dim}, test data has d={test.dim}")
    if len(test) == 0:
        raise ValueError("no test rows to evaluate on")
    if test.labels.max() >= policy.action_count:
        raise ValueError(f"test labels must lie in [0, {policy.action_count})")
    chosen, hits = np.empty(len(test)), np.empty(len(test), dtype=bool)

    def block(rows):
        probs, y = policy.probs_batch(test.features[rows]), test.labels[rows]
        chosen[rows] = probs[np.arange(len(y)), y]
        hits[rows] = np.argmax(probs, axis=1) == y

    data.run_blocks(block, len(test))
    return -float(np.mean(chosen)), float(np.mean(hits))


# ---- experiment sweep ------------------------------------------------------


@dataclass
class MetricsRow:
    algorithm: str
    alpha: float
    tau: float
    seed: int
    expected_risk: float
    accuracy: float
    runtime_seconds: float


@dataclass(frozen=True)
class ExperimentConfig:
    synthetic: SyntheticSpec = SyntheticSpec()
    dataset_path: str | None = None     # supervised CSV; overrides synthetic
    train_rows: int = 6000
    test_rows: int = 2000
    logging_fraction: float = 0.05
    keep_fraction: float = 0.1
    train: TrainConfig = TrainConfig(zeta=0.001, tau=0.001)
    algorithms: tuple[str, ...] = ("WCE", "KL", "PR", "logging")
    alphas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
    taus: tuple[float, ...] = (0.001,)
    repetitions: int = 10
    seed: int = 0
    dropped_action: int | None = None   # remove this action from the known set
    timing: bool = False                # False keeps metrics output deterministic
    output_dir: str | None = None

    def __post_init__(self):
        check_logging_fraction(self.logging_fraction)
        for name in ("keep_fraction", "alphas", "taus"):
            value = getattr(self, name)
            if not all(0.0 <= v <= 1.0 for v in np.atleast_1d(value)):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("algorithms", "alphas", "taus"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} must not be empty")
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:  # named as first given: 0.5,0.50 repeats 0.5
                raise ValueError(f"{name} repeats {values[values.index(repeats[0])]!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for name in ("train_rows", "test_rows"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        unknown = sorted(set(self.algorithms) - set(_TRAINERS) - {"logging"})
        if unknown:
            raise ValueError(f"unknown algorithms: {unknown}; expected names from "
                             f"{sorted(_TRAINERS) + ['logging']}")
        # the upper end is the logging policy's action count, checked by run_experiment
        if self.dropped_action is not None and self.dropped_action < 0:
            raise ValueError(f"dropped_action must be >= 0, got {self.dropped_action}")


METRICS_HEADER = "algorithm,alpha,tau,seed,expected_risk,accuracy,runtime_seconds"


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[list[MetricsRow], list[str]]:
    """Run the full sweep; returns (metric rows in canonical order, cell errors).

    Pipeline per repetition seed: supervised data -> logging policy ->
    bandit transform -> reward masking -> train each (algorithm, alpha, tau)
    cell in a forked worker, one per CPU in the affinity mask -> exact
    evaluation on the held-out test set.
    """
    if cfg.dataset_path is not None:
        full = read_supervised_csv(cfg.dataset_path)
        if len(full) < cfg.train_rows + cfg.test_rows:
            raise ValueError("dataset smaller than train_rows + test_rows")
    else:
        full = generate_synthetic(
            cfg.synthetic, cfg.train_rows + cfg.test_rows, cfg.seed
        )
    perm = stage_rng(cfg.seed, "split").permutation(len(full))
    train_ds = full.subset(np.sort(perm[: cfg.train_rows]))
    test_ds = full.subset(np.sort(perm[cfg.train_rows: cfg.train_rows + cfg.test_rows]))

    logging_policy = train_logging_policy(train_ds, cfg.logging_fraction, cfg.seed)
    if cfg.dropped_action is not None and cfg.dropped_action >= logging_policy.action_count:
        raise ValueError(f"dropped_action {cfg.dropped_action} is not an action: "
                         f"actions lie in [0, {logging_policy.action_count})")
    logging_risk, logging_acc = evaluate_policy(logging_policy, test_ds)

    rows: list[MetricsRow] = []
    reps, cells = [], []
    for rep in range(cfg.repetitions):
        rep_seed = derive_seed(cfg.seed, f"rep{rep}")
        S_all = supervised_to_bandit(train_ds, logging_policy, stage_rng(rep_seed, "bandit"))
        S, S_u = mask_rewards(S_all, cfg.keep_fraction, stage_rng(rep_seed, "mask"))
        if cfg.dropped_action is not None:
            S = drop_action(S, cfg.dropped_action)
        init = SoftmaxPolicy.create(train_ds.dim, train_ds.num_classes,
                                    rng=stage_rng(rep_seed, "init"))
        reps.append((rep_seed, S, S_u, init))
        for algorithm in cfg.algorithms:
            if algorithm == "logging":
                rows.append(MetricsRow("logging", 0.0, 0.0, rep,
                                       logging_risk, logging_acc, 0.0))
                continue
            cells += [(algorithm, alpha, tau, rep) for alpha in cfg.alphas for tau in cfg.taus]
    outcomes = list(fork_map(_cell_outcome, cells, cfg, reps, test_ds))
    rows += [o for o in outcomes if isinstance(o, MetricsRow)]
    errors = [o for o in outcomes if isinstance(o, str)]
    rows.sort(key=lambda r: (r.algorithm, r.alpha, r.tau, r.seed))
    if cfg.output_dir is not None:
        _write_outputs(cfg.output_dir, rows, errors)
    return rows, errors


def _cell_outcome(cfg, reps, test_ds, cell):
    """One cell's row, or its error line when it raises a domain error."""
    algorithm, alpha, tau, rep = cell
    try:
        return _run_cell(cfg, algorithm, alpha, tau, rep, *reps[rep], test_ds)
    except ValueError as exc:  # a domain error: record, move on
        return f"{algorithm},alpha={alpha},tau={tau},seed={rep}: {exc}"


def _run_cell(cfg, algorithm, alpha, tau, rep, rep_seed, S, S_u, init, test_ds):
    trainer = _TRAINERS[algorithm]
    cell_cfg = replace(cfg.train, alpha=alpha, tau=tau,
                       seed=derive_seed(rep_seed, f"train.{algorithm}.{alpha}.{tau}"))
    start = time.perf_counter()
    policy, _ = trainer(S, S_u, cell_cfg, init)
    elapsed = time.perf_counter() - start if cfg.timing else 0.0
    risk, acc = evaluate_policy(policy, test_ds)
    return MetricsRow(algorithm, alpha, tau, rep, risk, acc, elapsed)


def write_metrics_csv(path, rows: list[MetricsRow]) -> None:
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(
            f"{r.algorithm},{r.alpha:.17g},{r.tau:.17g},{r.seed},"
            f"{r.expected_risk:.17g},{r.accuracy:.17g},{r.runtime_seconds:.6f}"
        )
    write_lines(path, lines)


def summarize(rows: list[MetricsRow]) -> list[dict]:
    """Mean and standard deviation per (algorithm, alpha, tau) cell."""
    cells: dict[tuple, list[MetricsRow]] = {}
    for r in rows:
        cells.setdefault((r.algorithm, r.alpha, r.tau), []).append(r)
    out = []
    for (algorithm, alpha, tau), group in sorted(cells.items()):
        risks = np.array([g.expected_risk for g in group])
        accs = np.array([g.accuracy for g in group])
        out.append({
            "algorithm": algorithm,
            "alpha": alpha,
            "tau": tau,
            "runs": len(group),
            "expected_risk_mean": float(risks.mean()),
            "expected_risk_std": float(risks.std(ddof=1)) if len(group) > 1 else 0.0,
            "accuracy_mean": float(accs.mean()),
            "accuracy_std": float(accs.std(ddof=1)) if len(group) > 1 else 0.0,
        })
    return out


def write_summary_csv(path, rows: list[MetricsRow]) -> None:
    cols = ["algorithm", "alpha", "tau", "runs", "expected_risk_mean",
            "expected_risk_std", "accuracy_mean", "accuracy_std"]
    lines = [",".join(cols)]
    for cell in summarize(rows):
        vals = []
        for col in cols:
            v = cell[col]
            vals.append(f"{v:.17g}" if isinstance(v, float) else str(v))
        lines.append(",".join(vals))
    write_lines(path, lines)


def _write_outputs(output_dir, rows, errors) -> None:
    os.makedirs(output_dir, exist_ok=True)
    write_metrics_csv(os.path.join(output_dir, "metrics.csv"), rows)
    write_summary_csv(os.path.join(output_dir, "summary.csv"), rows)
    if errors:
        write_lines(os.path.join(output_dir, "errors.txt"), errors)
