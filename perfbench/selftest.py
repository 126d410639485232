"""Self test of the benchmark: every workload at a seconds-long size.

    python3 perfbench/selftest.py

For each workload, an untraced and a traced tiny run must report exactly
the metrics BENCHMARK.json names, with their units, fail no document, and
(traced) attribute no more self time than the timed calls took. A copy of
the benchmark without the docgrain sources must exit non-zero without a
result line. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-forms", "eval-forms", "eval-dense")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny")
    label = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: {result}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, f"{label}: metric names/units differ: {set(got) ^ set(expected)}")
    if trace:
        shares = sum(m["value"] for name, m in result["metrics"].items() if name.endswith(".share"))
        check(shares <= 1.0, f"{label}: self times sum to {shares:.3f} of the wall time")
        check(result["metrics"]["trace.absent_hooks"]["value"] == 0, f"{label}: hooks absent")
    else:
        check(all(m["value"] > 0 for m in result["metrics"].values()), f"{label}: a zero metric")
    print(f"ok {label}", flush=True)


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "train-forms", "--seed", "0", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check('"correct"' not in proc.stdout, "bare directory: printed a result")
    print("ok bare directory fails", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for workload in WORKLOADS:
            for trace in (0, 1):
                check_workload(spec, workload, trace)
        check_bare_directory()
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
