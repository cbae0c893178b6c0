"""Tests of the benchmark's own logic: spans, output checks, metric names.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import host_clock
import trace_layers

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# ---- spans and self time ----------------------------------------------------


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 3] and b [4, 9]; b holds c [5, 6]
    tracer = trace_layers.Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 9, 10))
    outer = tracer.open("harness.run_experiment")
    a = tracer.open("trainers.train")
    tracer.close(a)
    b = tracer.open("data.to_bandit")
    c = tracer.open("policy.forward")
    tracer.close(c)
    tracer.close(b)
    tracer.close(outer)
    assert list(tracer.parent) == [-1, 0, 0, 2]
    assert trace_layers.self_times(tracer.start, tracer.end, tracer.parent) == [3, 2, 4, 1]
    m = trace_layers.layer_metrics(tracer, wall_s=12.0)
    assert m["harness.self_s"] == 3 and m["data.self_s"] == 4 and m["policy.self_s"] == 1
    assert m["bench.self_s"] == 2  # the wall not covered by any top-level span
    assert m["harness.self_frac"] == pytest.approx(3 / 12)


def test_self_time_counts_overlapping_children_once():
    start, end, parent = [0.0, 1.0, 2.0, 8.0], [10.0, 5.0, 6.0, 12.0], [-1, 0, 0, 0]
    # children cover [1, 6] and [8, 10] of the parent (the last one clipped)
    assert trace_layers.self_times(start, end, parent)[0] == pytest.approx(3.0)


def test_shims_attribute_forward_to_the_calling_layer():
    import semicrm
    from semicrm import estimators

    ds = semicrm.generate_synthetic(semicrm.SyntheticSpec(dim=3, num_classes=2), 40, 0)
    policy = semicrm.SoftmaxPolicy.create(3, 2, rng=np.random.default_rng(0))
    tracer = trace_layers.Tracer()
    tracer.install(trace_layers.TARGETS + [("semicrm.nowhere:gone", "data.gone", None, None)])
    try:
        log = semicrm.cli.supervised_to_bandit(ds, policy, np.random.default_rng(1))
        estimators.kl_regularizer(policy, log)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["semicrm.nowhere:gone"]
    assert semicrm.cli.supervised_to_bandit is semicrm.data.supervised_to_bandit
    m = trace_layers.layer_metrics(tracer, wall_s=1.0)
    assert m["data.to_bandit.rows"] == 40
    assert m["policy.forward.data.calls"] == 40
    assert m["policy.forward.data.rows_per_call"] == 1
    assert m["policy.forward.estimators.calls"] == 1
    assert m["policy.forward.estimators.rows"] == 40
    assert m["estimators.stack.rows"] == 40
    assert m["trace.absent_targets"] == 1


def test_host_clock_scales_by_nearby_reference_samples():
    clock = host_clock.HostClock()  # not entered: no periodic samples
    interval = clock.time(lambda: None)
    assert len(clock.samples) == 2 and interval.raw_s < clock.samples[1][0] - clock.samples[0][0]
    ref = host_clock.REFERENCE_S
    clock.samples = [(interval.start - 0.5, 2 * ref), (interval.end + 0.5, 2 * ref),
                     (interval.end + 5.0, 100 * ref)]  # outside the window: ignored
    assert clock.corrected(interval) == pytest.approx(interval.raw_s / 2)


# ---- output checks ----------------------------------------------------------


def _write_sweep(out: Path, risk="-0.5"):
    out.mkdir(parents=True)
    (out / "metrics.csv").write_text(
        "algorithm,alpha,tau,seed,expected_risk,accuracy,runtime_seconds\n"
        f"WCE,0.5,0.001,0,{risk},0.75,0.000000\n"
        "KL,0.5,0.001,0,-0.25,0.5,0.000000\n"
    )
    return out


def test_sweep_check_passes_on_identical_outputs(tmp_path):
    dirs = [_write_sweep(tmp_path / "a"), _write_sweep(tmp_path / "b")]
    assert checks.sweep_failures(dirs) == []


def test_sweep_check_fails_on_flipped_byte(tmp_path):
    a, b = _write_sweep(tmp_path / "a"), _write_sweep(tmp_path / "b")
    data = bytearray((b / "metrics.csv").read_bytes())
    data[-3] ^= 0x01
    (b / "metrics.csv").write_bytes(bytes(data))
    assert len(checks.sweep_failures([a, b])) == 1


@pytest.mark.parametrize("risk", ["nan", "inf", ""])
def test_sweep_check_fails_on_non_finite_risk(tmp_path, risk):
    assert checks.sweep_failures([_write_sweep(tmp_path / "a", risk)])


def test_sweep_check_fails_on_errors_file(tmp_path):
    out = _write_sweep(tmp_path / "a")
    (out / "errors.txt").write_text("PR,alpha=0.5,tau=0.001,seed=0: boom\n")
    assert checks.sweep_failures([out])


def _write_masked(path: Path, propensities, rewards):
    lines = ["x0,action,propensity,reward"]
    lines += [f"0.5,1,{p},{r}" for p, r in zip(propensities, rewards)]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_pipeline_check_passes_on_a_valid_log(tmp_path):
    log = _write_masked(tmp_path / "m.csv", [0.5] * 10, ["-1"] + [""] * 9)
    assert checks.pipeline_failures(log, 10, 0.1, -0.8) == []


@pytest.mark.parametrize("propensities,rewards,rows,risk", [
    ([0.5] * 10, ["-1", "0"] + [""] * 8, 10, -0.8),     # too many known rows
    ([0.5] * 9, ["-1"] + [""] * 8, 10, -0.8),           # a row went missing
    ([0.5] * 9 + [0.0], ["-1"] + [""] * 9, 10, -0.8),   # propensity outside (0, 1]
    ([0.5] * 9 + [1.5], ["-1"] + [""] * 9, 10, -0.8),
    ([0.5] * 10, ["-1"] + [""] * 9, 10, math.nan),      # risk not finite
])
def test_pipeline_check_fails_on_corrupted_log(tmp_path, propensities, rewards, rows, risk):
    log = _write_masked(tmp_path / "m.csv", propensities, rewards)
    assert checks.pipeline_failures(log, rows, 0.1, risk)


def _estimates(**logging):
    own = {"ips": -0.7, "kl": 0.0, "rkl": 1e-12, "wce": 0.3}
    own.update(logging)
    return [("candidate0", own), ("candidate1", {"ips": -0.2, "kl": 0.4, "rkl": 0.5, "wce": 0.9})]


def test_ope_check_passes_on_exact_self_estimates():
    assert checks.ope_failures(_estimates(), "candidate0", -0.7 + 1e-12) == []


@pytest.mark.parametrize("corruption", [
    {"ips": -0.7 + 1e-6}, {"kl": 1e-6}, {"rkl": -1e-6}, {"wce": math.nan}, {"ips": math.inf},
])
def test_ope_check_fails_on_corrupted_estimates(corruption):
    assert checks.ope_failures(_estimates(**corruption), "candidate0", -0.7)


# ---- metric names -------------------------------------------------------------


def test_metric_names_are_well_formed_and_match_the_trace():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    produced = list(trace_layers.layer_metrics(trace_layers.Tracer(), 1.0))
    produced += ["run.cpu_s", "run.wall_s", "run.trace_overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == produced
    assert all(NAME.fullmatch(n) for n in produced)
