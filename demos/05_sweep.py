"""The experiment harness: an alpha sweep in a few lines.

Runs the full pipeline (synthetic data -> logging policy -> bandit log ->
reward masking -> training -> exact evaluation) over a grid of alpha values
and repetition seeds, then prints a per-cell summary.  The same sweep is
available from the command line:

    semicrm sweep -c run.cfg --experiment.alphas 0.5,0.9,1.0
"""

from semicrm import ExperimentConfig, SyntheticSpec, TrainConfig, run_experiment, summarize

cfg = ExperimentConfig(
    synthetic=SyntheticSpec(dim=10, num_classes=5, separation=1.0),
    train_rows=6000,
    test_rows=2000,
    logging_fraction=0.01,
    keep_fraction=0.1,
    train=TrainConfig(zeta=0.001, tau=0.001, epochs=2000, learning_rate=0.02),
    algorithms=("WCE", "logging"),
    alphas=(0.5, 0.9, 1.0),
    repetitions=5,
    seed=0,
)

rows, errors = run_experiment(cfg)
print(f"{len(rows)} cells, {len(errors)} errors\n")

print(f"{'algorithm':>10} {'alpha':>6} {'risk mean':>10} {'risk std':>9} "
      f"{'acc mean':>9}")
for cell in summarize(rows):
    print(f"{cell['algorithm']:>10} {cell['alpha']:>6} "
          f"{cell['expected_risk_mean']:>10.4f} "
          f"{cell['expected_risk_std']:>9.4f} "
          f"{cell['accuracy_mean']:>9.4f}")

print("\nwrite metrics.csv / summary.csv by passing output_dir= (or -o on")
print("the command line); with the same master seed the files are")
print("byte-identical across runs.")
