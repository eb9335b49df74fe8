"""cyclos audit benchmark: one command, every metric with its unit.

    python3 benchmarks/run.py --workload spike-closure --seed 1 --seconds 35 --trace 0

Run it from the repository root; cyclos is used from ``src`` as checked out.
Workloads: spike-closure, spike-persistence, sensorimotor-replay (see
benchmarks/README.md). ``--trace 0`` prints the end-to-end metrics, ``--trace
1`` the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` stores the reports of ``--seed`` as that seed's expected
reports instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # confirm claims on this seed only; never tune against it
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0
UNITS = {
    "audits_per_s": "1/s",
    "audit_s.p50": "s",
    "audit_s.tail": "s",
    "top_rung_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def git_state() -> tuple[str, str]:
    """(commit, dirty) of the checkout, or "unknown" outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"
    if head.returncode or status.returncode:
        return "unknown", "unknown"
    return head.stdout.strip(), str(bool(status.stdout.strip())).lower()


def setup_seconds(modules: list[str], env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing the workload's modules."""
    cmd = [sys.executable, "-c", "import " + ", ".join(modules)]
    subprocess.run(cmd, env=env, check=True, timeout=60)  # leaves bytecode caches warm
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cyclos" / "__init__.py").is_file():
        print(f"error: no cyclos sources under {ROOT / 'src'}; run from a cyclos checkout",
              file=sys.stderr)
        return 2
    start = time.perf_counter()
    env = child_env()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload ran past {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode
    if args.record:
        return 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    units = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(result["modules"], env)
        metrics["ok_ratio"] = (result["attempted"] - result["failed"]) / result["attempted"]
        units = UNITS
    commit, dirty = git_state()
    env_info = dict(result["env"], commit=commit, dirty=dirty, workload=args.workload,
                    seconds=args.seconds, trace=args.trace, wall_s=time.perf_counter() - start)
    print("# env " + json.dumps(env_info, sort_keys=True))
    print("# detail " + json.dumps(result["detail"], sort_keys=True))
    for problem in result["problems"]:
        print(f"# FAILED {problem}")
    print(f"# fail_ratio = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} audits failed)")
    out = {}
    for name, value in metrics.items():
        unit = units.get(name) or _layer_unit(name)
        out[name] = {"value": value, "unit": unit}
        print(f"# {name} = {value:.6g} {unit}")
    if not args.trace:
        detail = result["detail"]
        print(f"# audit_s.tail is p{detail['tail_percentile']:.2f} of {detail['tail_samples']} "
              "audits")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
