"""Output checks of the three workloads.

Each function returns a list of failure messages; an empty list means the
outputs are correct.  Every message counts as one failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

TOLERANCE = 1e-9


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sweep_failures(output_dirs) -> list[str]:
    """Every sweep of one seed wrote the same metrics.csv, with finite risks
    and accuracies, and no errors.txt."""
    failures = []
    digests = set()
    for out in output_dirs:
        metrics = os.path.join(out, "metrics.csv")
        if os.path.exists(os.path.join(out, "errors.txt")):
            failures.append(f"{out}: errors.txt present")
        if not os.path.exists(metrics):
            failures.append(f"{out}: metrics.csv missing")
            continue
        digests.add(sha256_file(metrics))
        with open(metrics, newline="") as fh:
            for row in csv.DictReader(fh):
                for key in ("expected_risk", "accuracy"):
                    if not _is_finite(row.get(key)):
                        failures.append(f"{metrics}: {key}={row.get(key)!r} "
                                        f"for {row.get('algorithm')} alpha={row.get('alpha')}")
    if len(digests) > 1:
        failures.append(f"metrics.csv differs between sweeps of one seed ({len(digests)} digests)")
    return failures


def pipeline_failures(masked_csv, input_rows: int, keep_fraction: float,
                      risk: float) -> list[str]:
    """The masked log holds every input row, round(keep_fraction * N) of them
    with a reward, every propensity is in (0, 1], and the risk is finite."""
    failures = []
    known = unknown = 0
    with open(masked_csv) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[-2:] != ["propensity", "reward"]:
            return [f"{masked_csv}: unexpected header {header[-3:]}"]
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            try:
                propensity = float(fields[-2])
            except (ValueError, IndexError):
                failures.append(f"{masked_csv}:{lineno}: unreadable propensity")
                continue
            if not 0.0 < propensity <= 1.0:
                failures.append(f"{masked_csv}:{lineno}: propensity {propensity} outside (0, 1]")
            if fields[-1] == "":
                unknown += 1
            else:
                known += 1
    if known + unknown != input_rows:
        failures.append(f"{known} known + {unknown} reward-free rows != {input_rows} input rows")
    if known != round(keep_fraction * input_rows):
        failures.append(f"{known} known rows != round({keep_fraction} * {input_rows})")
    if not _is_finite(risk):
        failures.append(f"evaluated risk {risk!r} is not finite")
    return failures


def ope_failures(estimates, logging_name: str, mean_logged_reward: float) -> list[str]:
    """Every estimate is finite; on the logging policy itself, IPS (with zeta
    below the smallest propensity) equals the mean logged reward and the KL
    and reverse KL against its own log are zero."""
    failures = []
    for name, values in estimates:
        for key, value in values.items():
            if not _is_finite(value):
                failures.append(f"{name}: {key}={value!r} is not finite")
        if name != logging_name:
            continue
        if not abs(values["ips"] - mean_logged_reward) <= TOLERANCE:
            failures.append(f"{name}: IPS {values['ips']!r} != mean logged reward "
                            f"{mean_logged_reward!r}")
        for key in ("kl", "rkl"):
            if not abs(values[key]) <= TOLERANCE:
                failures.append(f"{name}: {key} against its own log is {values[key]!r}, not 0")
    return failures


def _is_finite(value) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False
