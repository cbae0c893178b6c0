"""One workload of the benchmark, run in its own process by ``bench/run.py``.

    python3 bench/workloads.py --workload sweep_desk --seed 0 --seconds 20 \
        --trace 0 --work-dir .bench_work/x

The parent sets PYTHONPATH to the checkout's ``src`` and fixes the BLAS
thread count before this process imports numpy.  The process sets up the
inputs several times (``setup_s`` is the median), runs timed iterations for
about ``--seconds``, checks every output, and prints one JSON object as its
last line.  See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import host_clock
import trace_layers

SETUPS = 3
KEEP_FRACTION = 0.1
LOGGING_FRACTION = 0.01
DIM, CLASSES, SEPARATION = 10, 5, 1.0


def fresh_import() -> None:
    """Import semicrm from scratch (numpy stays loaded), so set-up pays it."""
    for name in [m for m in sys.modules if m == "semicrm" or m.startswith("semicrm.")]:
        del sys.modules[name]
    import semicrm.cli  # noqa: F401


def cli(*argv) -> str:
    """``semicrm.cli.main(argv)`` in-process; returns what it printed.

    Each command starts from a collected heap, as it would in a process of
    its own, so the peak RSS does not depend on when the collector last ran.
    """
    gc.collect()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["semicrm.cli"].main([str(a) for a in argv])
    if code:
        raise RuntimeError(f"semicrm {argv[0]} exited with {code}")
    return buf.getvalue()


class SweepDesk:
    """``semicrm sweep`` on the criterion 8/9 shape: d=10, k=5, 6000/2000 rows."""

    name = "sweep_desk"
    unit = "train_steps_per_s"
    min_iterations = 2  # the metrics.csv digest is compared across sweeps
    REPETITIONS, STEPS = 1, 250
    ALGORITHMS, ALPHAS = ("WCE", "KL", "PR"), (0, 0.25, 0.5, 0.75, 0.9, 1)

    def __init__(self, seed, work_dir):
        self.seed, self.work_dir = seed, work_dir
        self.config = os.path.join(work_dir, "sweep.cfg")
        self.outputs: list[str] = []
        self.trained_cells = len(self.ALGORITHMS) * len(self.ALPHAS) * self.REPETITIONS
        self.work_per_iteration = self.trained_cells * self.STEPS
        self.ops_per_iteration = self.trained_cells

    def setup(self):
        keys = {
            "synthetic.dim": DIM, "synthetic.classes": CLASSES,
            "synthetic.separation": SEPARATION,
            "data.train_rows": 6000, "data.test_rows": 2000,
            "data.keep_fraction": KEEP_FRACTION, "data.seed": self.seed,
            "experiment.logging_fraction": LOGGING_FRACTION,
            "experiment.algorithms": ",".join(self.ALGORITHMS + ("logging",)),
            "experiment.alphas": ",".join(str(a) for a in self.ALPHAS),
            "experiment.repetitions": self.REPETITIONS,
            "experiment.timing": "false",
            "train.epochs": self.STEPS, "train.learning_rate": 0.02,
        }
        with open(self.config, "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in keys.items()))

    def iteration(self, i):
        out = os.path.join(self.work_dir, f"sweep{i}")
        self.outputs.append(out)
        cli("sweep", "-c", self.config, "-o", out)

    def failed_ops(self, i) -> int:
        errors = os.path.join(self.outputs[i], "errors.txt")
        if not os.path.exists(errors):
            return 0
        with open(errors) as fh:
            return sum(1 for line in fh if line.strip())

    def final_failures(self) -> list[str]:
        return checks.sweep_failures(self.outputs)

    def expected_risk(self) -> float:
        """Median over repetitions of the best interior-alpha WCE cell."""
        best: dict[str, float] = {}
        with open(os.path.join(self.outputs[0], "metrics.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                if row["algorithm"] == "WCE" and 0.0 < float(row["alpha"]) < 1.0:
                    risk = float(row["expected_risk"])
                    best[row["seed"]] = min(best.get(row["seed"], risk), risk)
        return statistics.median(best.values())


class PipelineLarge:
    """The CLI chain train-logging -> to-bandit -> mask -> train -> evaluate."""

    name = "pipeline_large"
    unit = "log_rows_per_s"
    min_iterations = 1
    ROWS, TEST_ROWS, STEPS = 100_000, 20_000, 1000

    def __init__(self, seed, work_dir):
        self.seed, self.work_dir = seed, work_dir
        self.path = lambda name: os.path.join(work_dir, name)
        self.work_per_iteration = self.ROWS
        self.ops_per_iteration = 5
        self.risks: list[float] = []

    def setup(self):
        everything = self.path("all.csv")
        cli("generate", "--out", everything, "--rows", self.ROWS + self.TEST_ROWS,
            "--dim", DIM, "--classes", CLASSES, "--separation", SEPARATION,
            "--seed", self.seed)
        with open(everything) as fh:
            lines = fh.readlines()
        with open(self.path("train.csv"), "w") as fh:
            fh.writelines(lines[: self.ROWS + 1])
        with open(self.path("test.csv"), "w") as fh:
            fh.writelines(lines[:1] + lines[self.ROWS + 1:])
        os.remove(everything)

    def iteration(self, i):
        p, seed = self.path, self.seed
        for stage in (
            ("train-logging", "--data", p("train.csv"), "--out", p("logging.policy"),
             "--fraction", LOGGING_FRACTION, "--seed", seed),
            ("to-bandit", "--data", p("train.csv"), "--policy", p("logging.policy"),
             "--out", p("log.csv"), "--seed", seed),
            ("mask", "--data", p("log.csv"), "--out", p("masked.csv"),
             "--keep-fraction", KEEP_FRACTION, "--seed", seed),
            ("train", "--data", p("masked.csv"), "--out", p("trained.policy"),
             "--algorithm", "WCE", "--alpha", 0.9, "--epochs", self.STEPS,
             "--learning-rate", 0.02, "--seed", seed),
            ("evaluate", "--policy", p("trained.policy"), "--data", p("test.csv")),
        ):
            printed = cli(*stage)
        risk = dict(line.split(",", 1) for line in printed.split())["expected_risk"]
        self.risks.append(float(risk))

    def failed_ops(self, i) -> int:
        return len(checks.pipeline_failures(
            self.path("masked.csv"), self.ROWS, KEEP_FRACTION, self.risks[-1]))

    def final_failures(self) -> list[str]:
        if len(set(self.risks)) > 1:  # only when a fast host fits two chains
            return [f"expected risk differs between chains of one seed: {self.risks}"]
        return []

    def expected_risk(self) -> float:
        return self.risks[0]


class OpeSelect:
    """Score K saved candidates against one masked log of ROWS rows."""

    name = "ope_select"
    unit = "scored_rows_per_s"
    min_iterations = 1
    ROWS, CANDIDATES = 100_000, 8

    def __init__(self, seed, work_dir):
        self.seed, self.work_dir = seed, work_dir
        self.ops_per_iteration = 5
        self.estimates: list[tuple[str, dict]] = []

    def setup(self):
        semicrm = sys.modules["semicrm"]
        seed = self.seed
        spec = semicrm.SyntheticSpec(dim=DIM, num_classes=CLASSES, separation=SEPARATION)
        ds = semicrm.generate_synthetic(spec, self.ROWS, seed)
        logging_policy = semicrm.train_logging_policy(ds, LOGGING_FRACTION, seed)
        log = semicrm.supervised_to_bandit(ds, logging_policy, np.random.default_rng([seed, 1]))
        self.known, self.unknown = semicrm.mask_rewards(
            log, KEEP_FRACTION, np.random.default_rng([seed, 2]))
        self.work_per_iteration = len(self.known) + len(self.unknown)
        propensities = np.concatenate([_column(self.known, "propensity"),
                                       _column(self.unknown, "propensity")])
        # below every propensity, so truncation leaves the estimates exact
        self.floor = float(propensities.min()) / 2
        self.mean_reward = float(np.mean(_column(self.known, "reward")))
        self.candidates = []
        for j in range(self.CANDIDATES):
            policy = logging_policy if j == 0 else semicrm.SoftmaxPolicy.create(
                DIM, CLASSES, rng=np.random.default_rng([seed, 3, j]))
            path = os.path.join(self.work_dir, f"candidate{j}.policy")
            semicrm.save_policy(policy, path)
            self.candidates.append(path)

    def iteration(self, i):
        estimators = sys.modules["semicrm.estimators"]
        j = i % self.CANDIDATES
        policy = sys.modules["semicrm.policy"].load_policy(self.candidates[j])
        values = {
            "ips": estimators.truncated_ips_risk(policy, self.known, self.floor),
            "kl": estimators.kl_regularizer(policy, self.unknown, self.floor),
            "rkl": estimators.rkl_regularizer(policy, self.unknown),
            "wce": estimators.wce_regularizer(policy, self.unknown, self.floor),
        }
        self.estimates.append((f"candidate{j}", values))

    def failed_ops(self, i) -> int:
        return len(checks.ope_failures(self.estimates[-1:], "candidate0", self.mean_reward))

    def final_failures(self) -> list[str]:
        first = dict(self.estimates[: self.CANDIDATES])
        if any(first[name] != values for name, values in self.estimates):
            return ["estimates of one candidate differ between rounds"]
        return []

    def expected_risk(self):
        return None


def _column(samples, field: str) -> np.ndarray:
    """A field of a log, whether it is a list of records or holds arrays."""
    plural = getattr(samples, field + "s", None)
    if plural is not None:
        return np.asarray(plural, dtype=float)
    return np.array([getattr(s, field) for s in samples], dtype=float)


def blas_name() -> str:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


WORKLOADS = {w.name: w for w in (SweepDesk, PipelineLarge, OpeSelect)}


def run(workload: str, seed: int, seconds: float, traced: bool, work_dir: str) -> dict:
    failures: list[str] = []
    setups: list = []
    walls: list = []
    attempted = failed = 0
    wl = tracer = None

    def set_up():
        nonlocal wl
        wl = None  # drop the previous set-up's inputs before building new ones
        fresh_import()
        wl = WORKLOADS[workload](seed, work_dir)
        wl.setup()

    with host_clock.HostClock() as clock:
        for _ in range(SETUPS):
            setups.append(clock.time(set_up))
        if traced:
            tracer = trace_layers.Tracer(clock=clock.elapsed)
            tracer.install()
        while len(walls) < wl.min_iterations or (
            sum(iv.raw_s for iv in walls) * (1 + 1 / len(walls)) <= seconds
        ):
            i = len(walls)
            if tracer is not None:
                tracer.run_id = i
            attempted += wl.ops_per_iteration
            try:
                clock.time(lambda: wl.iteration(i))
            except Exception:  # a failed operation is counted, not fatal
                failures.append(traceback.format_exc(limit=3))
                failed += wl.ops_per_iteration
            else:
                failed += wl.failed_ops(i)
            walls.append(clock.last)
            if i == 0:  # later iterations only add heap fragmentation
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cpu_s = sum(iv.cpu_s for iv in walls)
    setups = [(iv.raw_s, clock.corrected(iv)) for iv in setups]
    walls = [(iv.raw_s, clock.corrected(iv)) for iv in walls]
    if tracer is not None:
        tracer.uninstall()
    final = wl.final_failures()
    attempted += 1
    failed += bool(final)
    failures += final

    raw_walls = [w for w, _ in walls]
    result = {
        "workload": workload,
        "unit": wl.unit,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setup_s": statistics.median(c for _, c in setups),
        "setup_runs_s": setups,
        "iteration_s": walls,
        "throughput": wl.work_per_iteration / statistics.median(c for _, c in walls),
        "raw_throughput": wl.work_per_iteration / statistics.median(raw_walls),
        "host_speed": statistics.median(c / w for w, c in walls),
        "peak_rss_mb": peak_rss_mb,
        "expected_risk": None if failed else wl.expected_risk(),
        "semicrm_file": sys.modules["semicrm"].__file__,
        "numpy": np.__version__,
        "blas": blas_name(),
    }
    if tracer is not None:
        layers = trace_layers.layer_metrics(tracer, sum(raw_walls))
        layers["run.cpu_s"] = cpu_s
        layers["run.wall_s"] = sum(raw_walls)
        result["layers"] = layers
        result["absent_targets"] = tracer.absent
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
