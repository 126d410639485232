"""docgrain benchmark: one workload per invocation, result as the last line.

    python3 perfbench/run.py --workload train-forms --seed 0 --seconds 25 --trace 0

Workloads (see NOTES.md): train-forms times ``train()`` at the reference
configuration; eval-forms and eval-dense time ``evaluate_checkpoint()`` on
plain and on long pages. Every workload runs in its own process with BLAS
pinned to one thread. Set-up runs SETUP_REPEATS times in fresh processes,
once before and the rest after the measurement so that the samples
straddle the host's slow and fast phases, and reports the median. One process
measures for --seconds and checks the outputs. Timed figures are scaled to
a reference host speed by a calibration loop run beside them. ``--trace 1`` reports
per-layer spans instead of the end-to-end metrics. Working files go to
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-forms", "eval-forms", "eval-dense")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
DEADLINE_S = 170.0  # the whole invocation, set-up included


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run one workloads.py process to completion; returns its last stdout line."""
    # A fixed hash seed gives every process the same set and dict layouts.
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: "1" for var in BLAS_THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before " + " ".join(args[:1]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{args[0]} exceeded the {DEADLINE_S:.0f} s deadline") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="docgrain benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long miniature workloads for selftest.py")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "docgrain" / "__init__.py").is_file():
        print(f"docgrain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work), "--size", args.size]
    # Tracing reports no set-up time, so one set-up is enough there.
    before = 1 if args.trace else SETUP_REPEATS // 2
    after = 0 if args.trace else SETUP_REPEATS - before
    try:
        setups = [run_child(["setup", *common], deadline) for _ in range(before)]
        out = run_child(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups += [run_child(["setup", *common], deadline) for _ in range(after)]
    except (ChildFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
    rate_name = "train_docs_per_s" if args.workload.startswith("train") else "eval_docs_per_s"
    print("env " + json.dumps(out["env"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {out['calls']} timed calls, "
          f"call seconds {out['call_s']}, set-up wall seconds {[round(s['setup_wall_s'], 4) for s in setups]}")
    for name, metric in sorted(metrics.items()):
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"host speed scale = {out['host_scale']:.4g} (timed figures are scaled by it)")
        print(f"{rate_name} = {out['wall_docs_per_s']:.6g} docs/s of wall time, unscaled")
    print(f"error_rate = {out['failed'] / out['attempted']:.6g} ({out['failed']}/{out['attempted']} documents)")
    if args.trace:
        print(f"spans written to {work / 'spans.jsonl'}")
    else:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
