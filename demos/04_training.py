"""Policy training from partially-rewarded logs: WCE-, KL-, and PR-CRM.

Trains each variant on the same masked bandit log (10% rewards kept) and
evaluates against the true labels.  The interesting comparison is with the
two things each variant interpolates between: the reward-only objective
(alpha = 1) and the logging policy itself.
"""

from dataclasses import replace

from semicrm import (
    SoftmaxPolicy,
    SyntheticSpec,
    TrainConfig,
    evaluate_policy,
    generate_synthetic,
    make_rng,
    mask_rewards,
    stage_rng,
    supervised_to_bandit,
    train_kl_crm,
    train_logging_policy,
    train_pr_crm,
    train_wce_crm,
)

spec = SyntheticSpec(dim=10, num_classes=5, separation=1.0, noise=1.0)
# one pool, split into train and test (the generation seed also fixes the
# class means, so train and test must come from the same draw)
pool = generate_synthetic(spec, 8000, seed=0)
train_ds = pool.subset(range(6000))
test_ds = pool.subset(range(6000, 8000))

logging_policy = train_logging_policy(train_ds, fraction=0.01, seed=0)
log_risk, log_acc = evaluate_policy(logging_policy, test_ds)
print(f"logging policy: risk {log_risk:.4f}, accuracy {log_acc:.4f}\n")

S_all = supervised_to_bandit(train_ds, logging_policy, make_rng(1))
S, S_u = mask_rewards(S_all, keep_fraction=0.1, rng=make_rng(2))
print(f"training data: {len(S)} rewarded rows, {len(S_u)} reward-free rows\n")

base = TrainConfig(alpha=0.9, zeta=0.001, tau=0.001,
                   epochs=2000, learning_rate=0.02, seed=3)
init = SoftmaxPolicy.create(train_ds.dim, train_ds.num_classes, rng=stage_rng(3, "init"))

print(f"{'variant':>8} {'alpha':>6} {'risk':>8} {'accuracy':>9}")
for name, trainer in (("WCE", train_wce_crm), ("KL", train_kl_crm),
                      ("PR", train_pr_crm)):
    for alpha in (0.9, 1.0):
        cfg = replace(base, alpha=alpha)
        policy, _ = trainer(S, S_u, cfg, init)
        risk, acc = evaluate_policy(policy, test_ds)
        print(f"{name:>8} {alpha:>6} {risk:>8.4f} {acc:>9.4f}")

print("\nalpha = 1 ignores the reward-free rows entirely and is high-variance")
print("across seeds; alpha = 0.9 uses them as a regularizer toward the logging")
print("policy. A single run can go either way -- demos/05_sweep.py repeats the")
print("comparison over seeds, where alpha = 0.9 wins on average.")
