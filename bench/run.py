"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep_desk --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout.  It imports nothing from ``semicrm``
itself: each workload runs in a fresh child process (``bench/workloads.py``)
with the checkout's ``src`` first on PYTHONPATH and the BLAS thread count
fixed, so the numbers belong to the source tree beside it.  ``--trace 1``
runs the workload twice, untraced and traced, and reports the per-layer
metrics with the tracing overhead.  The last line of standard output is the
JSON result; lines before it record the environment and print every metric
by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1  # the workloads are small-matrix or Python-bound; 1 keeps runs steady
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def git_state() -> dict:
    """HEAD and a dirty-tree flag; null outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return {"git_sha": None, "git_dirty": None}
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def run_child(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    work_dir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}-{int(traced)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    if not (ROOT / "src" / "semicrm" / "__init__.py").is_file():
        print(f"no semicrm source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    untraced = run_child(args.workload, args.seed, args.seconds, traced=False)
    expected_src = str((ROOT / "src").resolve())
    if not str(Path(untraced["semicrm_file"]).resolve()).startswith(expected_src):
        print(f"semicrm was imported from {untraced['semicrm_file']}, not {expected_src}",
              file=sys.stderr)
        return 2
    runs = [untraced]
    if args.trace:
        runs.append(run_child(args.workload, args.seed, args.seconds, traced=True))

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": untraced["numpy"], "blas": untraced["blas"],
        "blas_threads": BLAS_THREADS, **git_state(),
    }
    print("# env " + json.dumps(env))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for failure in r["failures"]:
            print("# failure: " + failure.strip().replace("\n", "\n#   "))

    if args.trace:
        traced = runs[1]
        layers = dict(traced["layers"])
        layers["run.trace_overhead_frac"] = untraced["throughput"] / traced["throughput"] - 1.0
        for target in traced["absent_targets"]:
            print(f"# absent trace target: {target}")
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        values = {"setup_s": untraced["setup_s"], "throughput": untraced["throughput"],
                  "peak_rss_mb": untraced["peak_rss_mb"]}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"# {untraced['unit']} {untraced['throughput']:.6g} (throughput)")
        if untraced["expected_risk"] is not None:
            print(f"# expected_risk {untraced['expected_risk']:.17g} (negative; lower is better)")
        print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
        print(f"# raw {untraced['unit']} {untraced['raw_throughput']:.6g} "
              f"(host speed {untraced['host_speed']:.3f} of nominal)")
        for key in ("setup_runs_s", "iteration_s"):
            print(f"# {key} raw/corrected: " + " ".join(
                f"{raw:.4f}/{corrected:.4f}" for raw, corrected in untraced[key]))
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
