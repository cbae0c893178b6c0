"""Flat ``section.key = value`` configuration files for the experiment harness.

Every key can be overridden on the command line with a same-named flag,
e.g. ``--data.keep_fraction 0.2``.  The full key list is in the README.
"""

from __future__ import annotations

from dataclasses import fields, replace

from .harness import ExperimentConfig


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``section.key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if "." not in key:
            raise ValueError(f"config line {lineno}: key must be section.key, got {key!r}")
        out[key] = value.strip()
    return out


def load_config_file(path) -> dict[str, str]:
    with open(path) as fh:
        return parse_config_text(fh.read())


def _floats(value: str) -> tuple[float, ...]:
    return tuple(float(v) for v in value.split(",") if v.strip() != "")


def _strings(value: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in value.split(",") if v.strip() != "")


def _bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def experiment_config_from_keys(keys: dict[str, str]) -> ExperimentConfig:
    """Build an ExperimentConfig from flat keys, defaulting everything unset.

    The sweep sets each cell's alpha, tau and seed itself, from
    ``experiment.alphas``, ``experiment.taus`` and the master seed.
    """
    unknown = sorted(set(keys) - set(_HANDLERS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    cfg = ExperimentConfig()
    parsed: dict[str, dict] = {"top": {}, "synthetic": {}, "train": {}}
    for key, value in keys.items():
        target, attr, conv = _HANDLERS[key]
        parsed[target][attr] = conv(value)
    return ExperimentConfig(
        **parsed["top"],
        synthetic=replace(cfg.synthetic, **parsed["synthetic"]),
        train=replace(cfg.train, **parsed["train"]),
    )


_TRAIN = ExperimentConfig().train

# key -> (target object, attribute, converter)
_HANDLERS: dict[str, tuple[str, str, callable]] = {
    "data.path": ("top", "dataset_path", str),
    "data.train_rows": ("top", "train_rows", int),
    "data.test_rows": ("top", "test_rows", int),
    "data.keep_fraction": ("top", "keep_fraction", float),
    "data.seed": ("top", "seed", int),
    "synthetic.dim": ("synthetic", "dim", int),
    "synthetic.classes": ("synthetic", "num_classes", int),
    "synthetic.separation": ("synthetic", "separation", float),
    "synthetic.noise": ("synthetic", "noise", float),
    "experiment.logging_fraction": ("top", "logging_fraction", float),
    "experiment.algorithms": ("top", "algorithms", _strings),
    "experiment.alphas": ("top", "alphas", _floats),
    "experiment.taus": ("top", "taus", _floats),
    "experiment.repetitions": ("top", "repetitions", int),
    "experiment.dropped_action": ("top", "dropped_action", int),
    "experiment.timing": ("top", "timing", _bool),
    "experiment.output_dir": ("top", "output_dir", str),
    **{f"train.{f.name}": ("train", f.name, type(getattr(_TRAIN, f.name)))
       for f in fields(_TRAIN) if f.name not in ("alpha", "tau", "seed")},
}

CONFIG_KEYS = tuple(_HANDLERS)
