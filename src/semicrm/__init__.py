"""Offline policy optimization from logged bandit feedback with partially
missing rewards: truncated IPS risk, reward-free divergence regularizers,
pseudo-reward training, and analytic variance/risk bounds."""

from .bounds import (
    BoundInputs,
    DiscreteEnvironment,
    bound_report,
    chi2_kl_crossover,
    exact_divergences,
    exact_true_risk,
    exact_weighted_variance,
    expectation_gap_bound,
    gibbs_optimal_policy,
    random_environment,
    read_environment,
    regularized_objective,
    risk_diff_bound,
    true_risk_bound,
    var_lower_kl,
    var_upper_chi2,
    var_upper_kl,
    write_environment,
)
from .data import (
    BanditLog,
    SupervisedDataset,
    drop_action,
    mask_rewards,
    read_bandit_csv,
    read_supervised_csv,
    supervised_to_bandit,
    write_bandit_csv,
    write_supervised_csv,
)
from .estimators import (
    combined_objective,
    ips_risk,
    kl_regularizer,
    pseudo_reward_objective,
    rkl_regularizer,
    truncated_ips_risk,
    wce_regularizer,
)
from .harness import (
    ExperimentConfig,
    MetricsRow,
    SyntheticSpec,
    evaluate_policy,
    generate_synthetic,
    run_experiment,
    summarize,
    train_logging_policy,
    write_metrics_csv,
    write_summary_csv,
)
from .policy import PolicyGradient, SoftmaxPolicy, load_policy, save_policy
from .rng import derive_seed, make_rng, stage_rng
from .trainers import (
    RewardRegressor,
    TrainConfig,
    TrainingDiverged,
    TrainTrace,
    fit_reward_regressor,
    predict_pseudo_rewards,
    train_kl_crm,
    train_pr_crm,
    train_wce_crm,
)

__version__ = "0.1.0"
