"""Command-line interface.

Subcommands: generate, train-logging, to-bandit, mask, train, evaluate,
sweep, bounds.  ``sweep`` reads a flat ``section.key = value`` config file;
any key can be overridden with a same-named flag, e.g.
``semicrm sweep -c run.cfg --data.keep_fraction 0.2``; ``-o`` is
``--experiment.output_dir``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import bounds as bounds_mod
from .config import CONFIG_KEYS, experiment_config_from_keys, load_config_file
from .data import (
    mask_rewards,
    read_bandit_csv,
    read_supervised_csv,
    supervised_to_bandit,
    write_bandit_csv,
    write_lines,
    write_supervised_csv,
)
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    check_logging_fraction,
    evaluate_policy,
    generate_synthetic,
    run_experiment,
    train_logging_policy,
)
from .policy import SoftmaxPolicy, load_policy, save_policy
from .rng import stage_rng
from .trainers import TRAINERS as _TRAINERS, TrainConfig


def cmd_generate(args):
    spec = SyntheticSpec(dim=args.dim, num_classes=args.classes,
                         separation=args.separation, noise=args.noise)
    ds = generate_synthetic(spec, args.rows, args.seed)
    write_supervised_csv(args.out, ds)
    print(f"wrote {args.rows} rows ({args.dim} features, {args.classes} classes) to {args.out}")


def cmd_train_logging(args):
    check_logging_fraction(args.fraction)  # before the read, which may take seconds
    ds = read_supervised_csv(args.data)
    policy = train_logging_policy(ds, args.fraction, args.seed)
    save_policy(policy, args.out)
    risk, acc = evaluate_policy(policy, ds)
    print(f"logging policy saved to {args.out} (train risk {risk:.4f}, accuracy {acc:.4f})")


def cmd_to_bandit(args):
    ds = read_supervised_csv(args.data)
    policy = load_policy(args.policy)
    S = supervised_to_bandit(ds, policy, stage_rng(args.seed, "bandit"))
    write_bandit_csv(args.out, S)
    print(f"wrote {len(S)} logged samples to {args.out}")


def cmd_mask(args):
    known, unknown = read_bandit_csv(args.data)
    if len(unknown):
        raise SystemExit("input already contains unknown-reward rows")
    S, S_u = mask_rewards(known, args.keep_fraction, stage_rng(args.seed, "mask"),
                          stratify_by_action=args.stratify)
    del known  # the parsed log, freed before the masked copy is built
    write_bandit_csv(args.out, S.concat(S_u))
    print(f"kept {len(S)} known / masked {len(S_u)} unknown rows into {args.out}")


def cmd_train(args):
    # built first, so a bad setting fails before the log is parsed
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    S, S_u = read_bandit_csv(args.data)
    if args.init is not None:
        init = load_policy(args.init)
    else:
        init = SoftmaxPolicy.create(S.dim, S.action_count,
                                    rng=stage_rng(args.seed, "init"))
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


def cmd_sweep(args):
    keys = load_config_file(args.config) if args.config else {}
    given = vars(args)
    keys.update({key: given[key] for key in CONFIG_KEYS if given[key] is not None})
    cfg = experiment_config_from_keys(keys)
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
    if args.out is not None:
        write_lines(args.out, lines)
    print("\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()
    spec, train = defaults.synthetic, defaults.train
    p = argparse.ArgumentParser(prog="semicrm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic supervised dataset")
    g.set_defaults(func=cmd_generate)
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=8000)
    g.add_argument("--dim", type=int, default=spec.dim)
    g.add_argument("--classes", type=int, default=spec.num_classes)
    g.add_argument("--separation", type=float, default=spec.separation)
    g.add_argument("--noise", type=float, default=spec.noise)
    g.add_argument("--seed", type=int, default=0)

    t = sub.add_parser("train-logging", help="fit the logging policy by cross-entropy")
    t.set_defaults(func=cmd_train_logging)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--fraction", type=float, default=defaults.logging_fraction)
    t.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("to-bandit", help="supervised-to-bandit transformation")
    b.set_defaults(func=cmd_to_bandit)
    b.add_argument("--data", required=True)
    b.add_argument("--policy", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--seed", type=int, default=0)

    m = sub.add_parser("mask", help="hide rewards for a fraction of the log")
    m.set_defaults(func=cmd_mask)
    m.add_argument("--data", required=True)
    m.add_argument("--out", required=True)
    m.add_argument("--keep-fraction", type=float, default=defaults.keep_fraction)
    m.add_argument("--stratify", action="store_true")
    m.add_argument("--seed", type=int, default=0)

    tr = sub.add_parser("train", help="train a policy on a logged dataset")
    tr.set_defaults(func=cmd_train)
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--algorithm", choices=sorted(_TRAINERS), default="WCE")
    tr.add_argument("--init", default=None, help="initial policy checkpoint")
    tr.add_argument("--trace", default=None, help="write per-epoch trace CSV here")
    for f in fields(TrainConfig):
        default = getattr(train, f.name)
        tr.add_argument(f"--{f.name.replace('_', '-')}", type=type(default), default=default,
                        help=f.metadata.get("help"))

    e = sub.add_parser("evaluate", help="expected risk and accuracy on labeled data")
    e.set_defaults(func=cmd_evaluate)
    e.add_argument("--policy", required=True)
    e.add_argument("--data", required=True)

    # every config key is a flag; unset flags leave the config file's value
    s = sub.add_parser("sweep", help="full experiment sweep from a config file",
                       allow_abbrev=False)
    s.set_defaults(func=cmd_sweep)
    s.add_argument("-c", "--config", default=None)
    for key in CONFIG_KEYS:
        spellings = ("-o", "--output") if key == "experiment.output_dir" else ()
        s.add_argument(*spellings, f"--{key}", dest=key, metavar="VALUE")

    bo = sub.add_parser("bounds", help="evaluate analytic bounds on an environment file")
    bo.set_defaults(func=cmd_bounds)
    bo.add_argument("--env", required=True)
    bo.add_argument("--out", default=None)
    bo.add_argument("--delta", type=float, default=0.05)
    bo.add_argument("--n", type=int, default=None)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
