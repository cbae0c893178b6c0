"""In-memory span tracer and the per-layer metrics of the traced run.

The tracer wraps public functions of ``semicrm`` from outside the package.
Each shim is installed on the name the *caller* resolves: modules bind names
at import (``from .data import supervised_to_bandit``), so a shim on
``semicrm.data.supervised_to_bandit`` would never see the call that
``semicrm.cli`` makes.  Methods are wrapped on the class, and the trainer
tables that captured function objects at import are patched item by item.

Spans hold (name, start, end, parent span, run id) plus two numbers a hook
may fill (rows, bytes, batch size ...).  They stay in flat arrays until the
run ends; all metrics are computed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from array import array

LAYERS = ("bench", "cli", "harness", "data", "policy", "estimators", "trainers")
# Layers that call policy.forward / softmax; those calls are attributed to
# the nearest enclosing span of one of these layers.
FORWARD_PARENTS = ("data", "trainers", "estimators", "harness")


def _rows(_args, _kwargs, result):
    return len(result[0])


def _len_first(args, _kwargs, _result):
    return len(args[0])


def _len_result(_args, _kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, _result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0.0


def _alpha(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return float(getattr(cfg, "alpha", math.nan))


def _cell_errors(_args, _kwargs, result):
    return len(result[1])


# (target, span name, enter hook -> span.extra, exit hook -> span.work)
# A target is "module:attr", "module:Class.method" or "module:table[key]".
TARGETS = [
    ("semicrm.cli:main", "cli.main", None, None),
    ("semicrm.cli:load_config_file", "cli.config", None, None),
    ("semicrm.cli:experiment_config_from_keys", "cli.config", None, None),
    ("semicrm.cli:run_experiment", "harness.run_experiment", None, _cell_errors),
    ("semicrm.cli:train_logging_policy", "harness.logging_policy", None, None),
    ("semicrm.harness:train_logging_policy", "harness.logging_policy", None, None),
    ("semicrm.cli:evaluate_policy", "harness.evaluate", None, None),
    ("semicrm.harness:evaluate_policy", "harness.evaluate", None, None),
    ("semicrm.cli:generate_synthetic", "harness.generate", None, None),
    ("semicrm.harness:generate_synthetic", "harness.generate", None, None),
    ("semicrm.harness:_run_cell", "harness.cell", None, None),
    ("semicrm.cli:supervised_to_bandit", "data.to_bandit", None, _len_first),
    ("semicrm.harness:supervised_to_bandit", "data.to_bandit", None, _len_first),
    ("semicrm.cli:mask_rewards", "data.mask", None, None),
    ("semicrm.harness:mask_rewards", "data.mask", None, None),
    ("semicrm.cli:write_bandit_csv", "data.csv_write", None, _file_bytes),
    ("semicrm.cli:write_supervised_csv", "data.csv_write", None, _file_bytes),
    ("semicrm.cli:read_bandit_csv", "data.csv_read", None, _file_bytes),
    ("semicrm.cli:read_supervised_csv", "data.csv_read", None, _file_bytes),
    ("semicrm.data:read_supervised_csv", "data.csv_read", None, _file_bytes),
    ("semicrm.policy:SoftmaxPolicy.forward", "policy.forward", None, _rows),
    ("semicrm.policy:SoftmaxPolicy.backward", "policy.backward", None, None),
    ("semicrm.policy:SoftmaxPolicy.apply_update", "policy.update", None, None),
    ("semicrm.policy:PolicyGradient.norm", "policy.grad_norm", None, None),
    ("semicrm.policy:softmax", "policy.softmax", None, None),
    ("semicrm.trainers:softmax", "policy.softmax", None, None),
    ("semicrm.harness:softmax", "policy.softmax", None, None),
    ("semicrm.cli:save_policy", "policy.checkpoint", None, None),
    ("semicrm.cli:load_policy", "policy.checkpoint", None, None),
    ("semicrm.policy:load_policy", "policy.checkpoint", None, None),
    ("semicrm.estimators:stack_known", "estimators.stack", None, _len_result),
    ("semicrm.estimators:stack_unknown", "estimators.stack", None, _len_result),
    ("semicrm.trainers:stack_known", "estimators.stack", None, _len_result),
    ("semicrm.trainers:stack_unknown", "estimators.stack", None, _len_result),
    ("semicrm.estimators:truncated_ips_risk", "estimators.value", None, None),
    ("semicrm.estimators:kl_regularizer", "estimators.value", None, None),
    ("semicrm.estimators:rkl_regularizer", "estimators.value", None, None),
    ("semicrm.estimators:wce_regularizer", "estimators.value", None, None),
    ("semicrm.trainers:_sample_indices", "trainers.sampler",
     lambda args, kwargs: float(args[1]), lambda args, kwargs, result: len(result)),
    ("semicrm.trainers:grad_truncated_ips", "trainers.grad.ips", None, None),
    ("semicrm.trainers:grad_wce", "trainers.grad.reg", None, None),
    ("semicrm.trainers:grad_kl", "trainers.grad.reg", None, None),
    ("semicrm.trainers:grad_pseudo_reward", "trainers.grad.pr", None, None),
    ("semicrm.trainers:fit_reward_regressor", "trainers.regressor", None, None),
    ("semicrm.trainers:predict_pseudo_rewards", "trainers.regressor", None, None),
]
for _module in ("semicrm.cli", "semicrm.harness"):
    for _algo in ("WCE", "KL", "PR"):
        TARGETS.append((f"{_module}:_TRAINERS[{_algo}]", "trainers.train", _alpha, None))


class Tracer:
    """Records nested spans in flat arrays; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.extra = array("d")
        self.work = array("d")
        self.run_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.absent: list[str] = []

    # ---- recording -------------------------------------------------------

    def open(self, name: str, extra: float = 0.0) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.extra.append(extra)
        self.work.append(0.0)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, enter=None, leave=None):
        """``fn`` recorded as span ``name``; ``enter(args, kwargs)`` fills the
        span's extra number, ``leave(args, kwargs, result)`` its work number."""
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = tracer.open(name, enter(args, kwargs) if enter else 0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if leave is not None:
                tracer.work[idx] = leave(args, kwargs, result)
            return result

        return shim

    # ---- shims -----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the rest as absent."""
        for target, name, enter, leave in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, key, original = found
            shim = self.wrap(name, original, enter, leave)
            _assign(owner, key, shim)
            self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            _assign(owner, key, original)
        self._installed.clear()


def _resolve(target: str):
    """(owner, key, current value) for a target string, or None if absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if path.endswith("]"):
        attr, _, key = path[:-1].partition("[")
        table = getattr(owner, attr, None)
        if not isinstance(table, dict) or key not in table:
            return None
        return table, key, table[key]
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    if not callable(value):
        return None
    return owner, last, value


def _assign(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# ---- analysis ---------------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals
    (clipped to the span), so overlapping or stray children never count twice."""
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered, cur_lo, cur_hi = 0.0, None, None
        for i in sorted(kids, key=lambda j: start[j]):
            lo, hi = max(start[i], lo_p), min(end[i], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def _up(idx, parent, names_of, match) -> int:
    """Index of the nearest ancestor span whose name satisfies ``match``, or -1."""
    p = parent[idx]
    while p >= 0 and not match(names_of[p]):
        p = parent[p]
    return p


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (all zero when none exist).

    ``wall_s`` is the timed wall the spans were recorded over; time inside it
    that no span covers is the benchmark's own ("bench").  ``X.s`` metrics
    are inclusive span time; ``<layer>.self_s`` is exclusive.
    """
    names_of = [tracer.names[i] for i in tracer.name]
    n = len(names_of)
    start, end, parent, extra = tracer.start, tracer.end, tracer.parent, tracer.extra
    m: dict[str, float] = {}

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, own in zip(names_of, self_times(start, end, parent)):
        layer_self[name.split(".", 1)[0]] += own
    covered = sum(end[i] - start[i] for i in range(n) if parent[i] < 0)
    layer_self["bench"] += max(wall_s - covered, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.self_frac"] = _ratio(layer_self[layer], wall_s)

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    work: dict[str, float] = {}
    for i, name in enumerate(names_of):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end[i] - start[i])
        work[name] = work.get(name, 0.0) + tracer.work[i]

    def s(*names):
        return sum(incl.get(x, 0.0) for x in names)

    def c(*names):
        return sum(calls.get(x, 0) for x in names)

    def w(*names):
        return sum(work.get(x, 0.0) for x in names)

    # trainers: steps are policy updates inside a training loop; a backward
    # pass is discarded when its gradient is weighted by alpha = 0 (IPS part)
    # or 1 - alpha = 0 (regularizer part).
    is_train = "trainers.train".__eq__
    sampled = steps = train_forwards = train_backwards = discarded = 0.0
    for i, name in enumerate(names_of):
        if name == "trainers.sampler":
            sampled += extra[i]
        elif name in ("policy.update", "policy.forward", "policy.backward"):
            train = _up(i, parent, names_of, is_train)
            if train < 0:
                continue
            if name == "policy.update":
                steps += 1
            elif name == "policy.forward":
                train_forwards += 1
            else:
                train_backwards += 1
                grad = _up(i, parent, names_of, lambda x: x.startswith("trainers.grad."))
                kind = names_of[grad] if grad >= 0 else None
                alpha = extra[train]
                if (kind == "trainers.grad.ips" and alpha == 0.0) or (
                    kind == "trainers.grad.reg" and alpha == 1.0
                ):
                    discarded += 1
    m["trainers.steps"] = steps
    m["trainers.sampler.calls"] = c("trainers.sampler")
    m["trainers.sampler.s"] = s("trainers.sampler")
    m["trainers.sampler.drawn_frac"] = _ratio(w("trainers.sampler"), sampled)
    m["trainers.forward_per_step"] = _ratio(train_forwards, steps)
    m["trainers.grad_discarded_frac"] = _ratio(discarded, train_backwards)
    m["trainers.grad.s"] = s("trainers.grad.ips", "trainers.grad.reg", "trainers.grad.pr")
    m["trainers.regressor.s"] = s("trainers.regressor")
    m["trainers.train.s"] = s("trainers.train")

    # policy; forward and softmax are also split by the calling layer
    for op in ("backward", "update"):
        m[f"policy.{op}.calls"] = c(f"policy.{op}")
        m[f"policy.{op}.s"] = s(f"policy.{op}")
    m["policy.grad_norm.s"] = s("policy.grad_norm")
    m["policy.checkpoint.s"] = s("policy.checkpoint")
    in_caller = lambda x: x.split(".", 1)[0] in FORWARD_PARENTS
    slots = {p: [0, 0.0, 0.0, 0.0] for p in ("",) + FORWARD_PARENTS}  # calls, rows, s, softmax s
    for i, name in enumerate(names_of):
        if name not in ("policy.forward", "policy.softmax"):
            continue
        owner = _up(i, parent, names_of, in_caller)
        targets = [slots[""]]
        if owner >= 0:
            targets.append(slots[names_of[owner].split(".", 1)[0]])
        for slot in targets:
            if name == "policy.forward":
                slot[0] += 1
                slot[1] += tracer.work[i]
                slot[2] += end[i] - start[i]
            else:
                slot[3] += end[i] - start[i]
    for caller, (n_calls, rows, secs, soft) in slots.items():
        label = f".{caller}" if caller else ""
        m[f"policy.forward{label}.calls"] = n_calls
        m[f"policy.forward{label}.rows"] = rows
        m[f"policy.forward{label}.rows_per_call"] = _ratio(rows, n_calls)
        m[f"policy.forward{label}.s"] = secs
        m[f"policy.softmax{label}.s"] = soft

    # data
    m["data.to_bandit.s"] = s("data.to_bandit")
    m["data.to_bandit.rows"] = w("data.to_bandit")
    m["data.mask.s"] = s("data.mask")
    for op in ("csv_write", "csv_read"):
        m[f"data.{op}.s"] = s(f"data.{op}")
        m[f"data.{op}.bytes"] = w(f"data.{op}")

    # estimators
    m["estimators.stack.calls"] = c("estimators.stack")
    m["estimators.stack.rows"] = w("estimators.stack")
    m["estimators.stack.s"] = s("estimators.stack")
    m["estimators.value.calls"] = c("estimators.value")
    m["estimators.value.s"] = s("estimators.value")

    # harness and cli
    m["harness.run_experiment.s"] = s("harness.run_experiment")
    m["harness.logging_policy.s"] = s("harness.logging_policy")
    m["harness.evaluate.s"] = s("harness.evaluate")
    m["harness.cells"] = c("harness.cell")
    m["harness.cell_errors"] = w("harness.run_experiment")
    m["cli.calls"] = c("cli.main")

    m["trace.spans"] = n
    m["trace.absent_targets"] = len(tracer.absent)
    return {k: float(v) for k, v in m.items()}
