"""Risk and divergence estimation from logged data, checked against an oracle.

On a small discrete environment every expectation can be enumerated exactly,
so we can watch the sample-based estimators converge:

  * truncated IPS estimates the risk of a *different* policy than the one
    that logged the data, using only (action, propensity, reward) triples;
  * the KL / reverse-KL / cross-entropy regularizers estimate how far the
    evaluated policy is from the logging policy using rows with NO reward.
"""

import numpy as np

from semicrm import (
    SoftmaxPolicy,
    exact_divergences,
    exact_true_risk,
    kl_regularizer,
    make_rng,
    random_environment,
    rkl_regularizer,
    truncated_ips_risk,
    wce_regularizer,
)

rng = make_rng(7)
# context-independent logging policy: the regime where the per-action grouped
# divergence estimators are exactly consistent
env = random_environment(rng, num_contexts=3, action_count=3,
                         context_free_logging=True)

# a policy that reproduces the environment's target table exactly
policy = SoftmaxPolicy(weights=[np.log(env.target_table)],
                       biases=[np.zeros(env.action_count)])

true_risk = exact_true_risk(env)
D, D_r, chi2 = exact_divergences(env)
print(f"oracle: true risk {true_risk:.4f}, KL {D:.4f}, "
      f"reverse KL {D_r:.4f}, chi-square {chi2:.4f}\n")

print(f"{'m':>8} {'IPS risk':>10} {'KL est':>10} {'RKL est':>10}")
for m in (100, 1_000, 10_000, 100_000):
    S = env.sample_logged(m, make_rng(m))
    S_u = S.with_rewards(np.nan)  # the same rows with their rewards hidden
    ips = truncated_ips_risk(policy, S, zeta=0.001)
    kl = kl_regularizer(policy, S_u, tau=0.001)
    rkl = rkl_regularizer(policy, S_u)
    print(f"{m:>8} {ips:>10.4f} {kl:>10.4f} {rkl:>10.4f}")

print(f"{'exact':>8} {true_risk:>10.4f} {D:>10.4f} {D_r:>10.4f}")

S_u = env.sample_logged(10_000, make_rng(3)).with_rewards(np.nan)
wce = wce_regularizer(policy, S_u, tau=0.001)
print(f"\nweighted cross-entropy (RKL minus the policy-free entropy term): {wce:.4f}")
print("minimizing WCE over policies is equivalent to minimizing RKL.")
