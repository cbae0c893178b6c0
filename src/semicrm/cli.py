"""Command-line interface.

Subcommands: generate, train-logging, to-bandit, mask, train, evaluate,
sweep, bounds.  ``sweep`` reads a flat ``section.key = value`` config file;
any key can be overridden with a same-named flag, e.g.
``semicrm sweep -c run.cfg --data.keep_fraction 0.2``.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from .config import CONFIG_KEYS, experiment_config_from_keys, load_config_file
from .data import (
    mask_rewards,
    read_bandit_csv,
    read_supervised_csv,
    supervised_to_bandit,
    write_bandit_csv,
    write_supervised_csv,
)
from .estimators import TruncationParams
from .harness import (
    SyntheticSpec,
    evaluate_policy,
    generate_synthetic,
    run_experiment,
    train_logging_policy,
)
from .policy import SoftmaxPolicy, load_policy, save_policy
from .rng import derive_seed, make_rng
from .trainers import TRAINERS as _TRAINERS, TrainConfig


def _collect_overrides(unknown: list[str]) -> dict[str, str]:
    """Turn ['--a.b', '1', '--c.d=x'] into {'a.b': '1', 'c.d': 'x'}."""
    out: dict[str, str] = {}
    i = 0
    while i < len(unknown):
        tok = unknown[i]
        if not tok.startswith("--"):
            raise SystemExit(f"unexpected argument {tok!r}")
        body = tok[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(unknown):
                raise SystemExit(f"flag --{key} needs a value")
            value = unknown[i + 1]
            i += 2
        if key not in CONFIG_KEYS:
            raise SystemExit(f"unknown config key {key!r}")
        out[key] = value
    return out


def cmd_generate(args):
    spec = SyntheticSpec(dim=args.dim, num_classes=args.classes,
                         separation=args.separation, noise=args.noise)
    ds = generate_synthetic(spec, args.rows, args.seed)
    write_supervised_csv(args.out, ds)
    print(f"wrote {args.rows} rows ({args.dim} features, {args.classes} classes) to {args.out}")


def cmd_train_logging(args):
    ds = read_supervised_csv(args.data)
    policy = train_logging_policy(ds, args.fraction, args.seed)
    save_policy(policy, args.out)
    risk, acc = evaluate_policy(policy, ds)
    print(f"logging policy saved to {args.out} (train risk {risk:.4f}, accuracy {acc:.4f})")


def cmd_to_bandit(args):
    ds = read_supervised_csv(args.data)
    policy = load_policy(args.policy)
    rng = make_rng(derive_seed(args.seed, "bandit"))
    S = supervised_to_bandit(ds, policy, rng)
    write_bandit_csv(args.out, S)
    print(f"wrote {len(S)} logged samples to {args.out}")


def cmd_mask(args):
    known, unknown = read_bandit_csv(args.data)
    if len(unknown):
        raise SystemExit("input already contains unknown-reward rows")
    rng = make_rng(derive_seed(args.seed, "mask"))
    S, S_u = mask_rewards(known, args.keep_fraction, rng,
                          stratify_by_action=args.stratify)
    write_bandit_csv(args.out, S.concat(S_u))
    print(f"kept {len(S)} known / masked {len(S_u)} unknown rows into {args.out}")


def cmd_train(args):
    S, S_u = read_bandit_csv(args.data)
    if args.init is not None:
        init = load_policy(args.init)
    else:
        init = SoftmaxPolicy.create(S.dim, S.action_count,
                                    rng=make_rng(derive_seed(args.seed, "init")))
    cfg = TrainConfig(
        alpha=args.alpha,
        trunc=TruncationParams(zeta=args.zeta, tau=args.tau),
        epochs=args.epochs,
        batch_known=args.batch_known,
        batch_unknown=args.batch_unknown,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    policy, trace = _TRAINERS[args.algorithm](S, S_u, cfg, init)
    save_policy(policy, args.out)
    if args.trace is not None:
        trace.write_csv(args.trace)
    print(f"trained {args.algorithm}-CRM for {args.epochs} epochs, saved to {args.out}")


def cmd_evaluate(args):
    policy = load_policy(args.policy)
    ds = read_supervised_csv(args.data)
    risk, acc = evaluate_policy(policy, ds)
    print(f"expected_risk,{risk:.17g}")
    print(f"accuracy,{acc:.17g}")


def cmd_sweep(args, overrides):
    keys = load_config_file(args.config) if args.config else {}
    keys.update(overrides)
    cfg = experiment_config_from_keys(keys)
    if args.output is not None:
        cfg.output_dir = args.output
    rows, errors = run_experiment(cfg)
    print(f"{len(rows)} cells completed, {len(errors)} failed")
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    if cfg.output_dir:
        print(f"metrics written to {cfg.output_dir}/metrics.csv")


def cmd_bounds(args):
    env = bounds_mod.read_environment(args.env)
    report = bounds_mod.bound_report(env, delta=args.delta, n=args.n)
    lines = [f"{key},{value:.17g}" for key, value in report.items()]
    text = "\n".join(lines)
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            fh.write(text + "\n")
    print(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="semicrm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic supervised dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=8000)
    g.add_argument("--dim", type=int, default=10)
    g.add_argument("--classes", type=int, default=5)
    g.add_argument("--separation", type=float, default=1.5)
    g.add_argument("--noise", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train-logging", help="fit the logging policy by cross-entropy")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--fraction", type=float, default=0.05)
    t.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("to-bandit", help="supervised-to-bandit transformation")
    b.add_argument("--data", required=True)
    b.add_argument("--policy", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--seed", type=int, default=0)

    m = sub.add_parser("mask", help="hide rewards for a fraction of the log")
    m.add_argument("--data", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--keep-fraction", type=float, default=0.1)
    m.add_argument("--stratify", action="store_true")
    m.add_argument("--seed", type=int, default=0)

    tr = sub.add_parser("train", help="train a policy on a logged dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--algorithm", choices=sorted(_TRAINERS), default="WCE")
    tr.add_argument("--init", default=None, help="initial policy checkpoint")
    tr.add_argument("--alpha", type=float, default=0.9)
    tr.add_argument("--zeta", type=float, default=0.001)
    tr.add_argument("--tau", type=float, default=0.001)
    tr.add_argument("--epochs", type=int, default=1000,
                    help="number of minibatch steps (not passes over the data)")
    tr.add_argument("--batch-known", type=int, default=64)
    tr.add_argument("--batch-unknown", type=int, default=256)
    tr.add_argument("--learning-rate", type=float, default=0.01)
    tr.add_argument("--trace", default=None, help="write per-epoch trace CSV here")
    tr.add_argument("--seed", type=int, default=0)

    e = sub.add_parser("evaluate", help="expected risk and accuracy on labeled data")
    e.add_argument("--policy", required=True)
    e.add_argument("--data", required=True)

    s = sub.add_parser("sweep", help="full experiment sweep from a config file")
    s.add_argument("-c", "--config", default=None)
    s.add_argument("-o", "--output", default=None)

    bo = sub.add_parser("bounds", help="evaluate analytic bounds on an environment file")
    bo.add_argument("--env", required=True)
    bo.add_argument("--out", default=None)
    bo.add_argument("--delta", type=float, default=0.05)
    bo.add_argument("--n", type=int, default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if args.command == "sweep":
        overrides = _collect_overrides(unknown)
        cmd_sweep(args, overrides)
        return 0
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    dispatch = {
        "generate": cmd_generate,
        "train-logging": cmd_train_logging,
        "to-bandit": cmd_to_bandit,
        "mask": cmd_mask,
        "train": cmd_train,
        "evaluate": cmd_evaluate,
        "bounds": cmd_bounds,
    }
    dispatch[args.command](args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
