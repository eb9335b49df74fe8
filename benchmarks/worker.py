"""Child process of the cyclos benchmark: run one workload, print one JSON line.

run.py starts this with ``src`` on PYTHONPATH. The loop is closed with one
client: the next audit starts when the previous report is written. The first
pass checks every report (semantic checks of the workload, plus the stored
expected report when the seed has one) and keeps its text; later passes must
reproduce that text. With ``--trace 1`` untraced and traced passes
alternate, and the traced ones give the per-layer metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BUDGET_S = 10.0  # per audit; over 10x the slowest audit on these ladders
RUN_LIMIT_S = 120.0  # no audit starts later, so a run ends within run.py's time limit
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


class OverBudget(Exception):
    pass


def _on_alarm(signum, frame):
    raise OverBudget


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(workload: str, seed: int) -> dict | None:
    path = expected_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(str(seed))


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with too few samples the
    maximum stands in, at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, expected: dict | None,
                 hard_stop: float):
        self.workload = workload
        self.cases = workload.generate(seed)
        self.expected = expected
        self.hard_stop = hard_stop
        self.reference: dict[str, str] = {}
        self.skipped_rungs: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked = False
        self.tracer: tracing.Tracer | None = None

    def _fail(self, case: workloads.Case, error: str) -> None:
        self.failed += 1
        self.problems.append(f"{case.case_id}: {error}")
        if error == "over_budget":
            self.skipped_rungs.add(case.rung)  # a cliff ends the rung, not the run

    def _audit(self, case: workloads.Case) -> tuple[float, str | None, str | None]:
        """One audit from JSON text to report text: (seconds, text, error)."""
        family = workloads.FAMILIES[case.family]
        trace = self.tracer
        self.attempted += 1
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            try:
                if trace is None:
                    args = family.load(json.loads(case.text))
                    text = workloads.canonical(family.report(family.run(*args)))
                else:
                    with trace.span("io.from_json"):
                        args = family.load(json.loads(case.text))
                    results = family.run(*args)
                    with trace.span("io.report"):
                        text = workloads.canonical(family.report(results))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OverBudget:
            return time.perf_counter() - start, None, "over_budget"
        except Exception as err:  # any exception fails the audit, and the run goes on
            return time.perf_counter() - start, None, f"{type(err).__name__}: {err}"
        return time.perf_counter() - start, text, None

    def _verify(self, case: workloads.Case, text: str) -> str | None:
        """Problems with a first report: semantic checks, then the stored report."""
        problems = workloads.FAMILIES[case.family].check(json.loads(text), case.expect)
        if self.expected is not None:
            want = self.expected.get(case.case_id)
            if want is None or workloads.canonical(want) != text:
                problems.append("report differs from the stored expected report")
        return "; ".join(problems) or None

    def run_pass(self) -> tuple[float, list[tuple[int, float]]]:
        """Wall seconds of one pass over the ladder, and (rung, seconds) per audit.

        The first pass checks each report and keeps its text; later passes
        must reproduce that text.
        """
        checking = not self.checked
        self.checked = True
        samples = []
        start = time.perf_counter()
        for case in self.cases:
            if case.rung in self.skipped_rungs or time.perf_counter() > self.hard_stop:
                continue
            seconds, text, error = self._audit(case)
            if error is None and checking:
                error = self._verify(case, text)
                if error is None:
                    self.reference[case.case_id] = text
            elif error is None and text != self.reference.get(case.case_id):
                error = "report differs from the checked report"
            if error is None:
                samples.append((case.rung, seconds))
            else:
                self._fail(case, error)
        return time.perf_counter() - start, samples

    def done(self) -> bool:
        return len(self.skipped_rungs) == self.workload.rungs


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    walls, samples = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not runner.done():
        wall, pass_samples = runner.run_pass()
        walls.append(wall)
        samples += pass_samples
    latencies = [s for _, s in samples]
    top = [s for rung, s in samples if rung == runner.workload.rungs - 1]
    tail_s, percentile, count = tail(latencies or [BUDGET_S])
    metrics = {
        "audits_per_s": len(latencies) / sum(walls) if walls else 0.0,
        "audit_s.p50": statistics.median(latencies or [BUDGET_S]),
        "audit_s.tail": tail_s,
        "top_rung_s": statistics.median(top or [BUDGET_S]),
    }
    detail = {"passes": len(walls), "tail_percentile": percentile, "tail_samples": count,
              "top_rung_samples": len(top)}
    return metrics, detail


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    untraced, traced, rows = [], [], []
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer()
    while not runner.done() and (time.perf_counter() < deadline or not traced):
        untraced.append(runner.run_pass()[0])
        tracer.reset()
        runner.tracer = tracer
        with tracer:
            wall, _ = runner.run_pass()
        runner.tracer = None
        traced.append(wall)
        rows.append(tracer.snapshot(wall))
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in tracing.metric_names() if not name.startswith("trace.overhead")}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    missed = [name for name in runner.workload.required if metrics[f"{name}.calls"] == 0]
    if missed:
        raise SystemExit(f"traced functions never called on {runner.workload.name}: "
                         f"{', '.join(missed)}; a binding was missed")
    return metrics, {"passes": len(traced)}


def record(runner: Runner, seed: int) -> None:
    """Store the checked reports of this seed as the expected reports."""
    if runner.failed:
        raise SystemExit("not recording: " + "; ".join(runner.problems[:5]))
    path = expected_path(runner.workload.name)
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored[str(seed)] = {k: json.loads(v) for k, v in runner.reference.items()}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    hard_stop = time.perf_counter() + RUN_LIMIT_S
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = workloads.WORKLOADS[args.workload]
    expected = None if args.record else load_expected(workload.name, args.seed)
    runner = Runner(workload, args.seed, expected, hard_stop)
    if args.record:
        runner.run_pass()
        record(runner, args.seed)
        return 0
    if args.trace:
        metrics, detail = per_layer(runner, args.seconds)
    else:
        metrics, detail = end_to_end(runner, args.seconds)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "metrics": metrics,
        "detail": detail,
        "modules": list(workload.modules),
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "nproc": os.cpu_count(), "seed": args.seed,
                "expected_reports": expected is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
