"""From labeled data to partially-labeled bandit feedback.

Builds a synthetic classification dataset, fits a logging policy on a small
labeled slice, converts the rest to logged bandit records (action, propensity,
reward), and hides the reward on 90% of the rows — the data regime the rest
of the toolkit is built for.
"""

import numpy as np

from semicrm import (
    SyntheticSpec,
    evaluate_policy,
    generate_synthetic,
    make_rng,
    mask_rewards,
    supervised_to_bandit,
    train_logging_policy,
)

spec = SyntheticSpec(dim=10, num_classes=5, separation=1.5, noise=1.0)
ds = generate_synthetic(spec, n=6000, seed=0)
print(f"supervised dataset: {len(ds)} rows, {ds.dim} features, "
      f"{ds.num_classes} classes")

logging_policy = train_logging_policy(ds, fraction=0.05, seed=0)
risk, acc = evaluate_policy(logging_policy, ds)
print(f"logging policy (fit on 5% of rows): expected risk {risk:.4f}, "
      f"accuracy {acc:.4f}")

S_all = supervised_to_bandit(ds, logging_policy, make_rng(1))
rewarded = int(np.sum(S_all.rewards == -1.0))
print(f"\nbandit log: {len(S_all)} rows; action drawn from the logging policy,")
print(f"reward -1 iff the action matches the label ({rewarded} rows, "
      f"{rewarded / len(S_all):.1%})")

print(f"example row: action={S_all.actions[0]}, "
      f"propensity={S_all.propensities[0]:.4f}, reward={S_all.rewards[0]:+.0f}")

S, S_u = mask_rewards(S_all, keep_fraction=0.1, rng=make_rng(2))
print(f"\nafter masking: {len(S)} rows keep their reward, "
      f"{len(S_u)} rows have action and propensity only (reward NaN)")
props = S_u.propensities
print(f"propensities on the unknown-reward set: "
      f"min {props.min():.4f}, median {np.median(props):.4f}, max {props.max():.4f}")
