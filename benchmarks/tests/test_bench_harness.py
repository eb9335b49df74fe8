"""The benchmark's own checks: wrong reports are caught, tracing patches and restores.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

import json
from pathlib import Path

import pytest

import run
import tracer as tracing
import worker
import workloads
from cyclos import cech, coincide, gridplace, pngsim

BENCH = Path(__file__).resolve().parent.parent


def small_runner(name="spike-closure", seed=1, expected=None, rungs=(0,)):
    runner = worker.Runner(workloads.WORKLOADS[name], seed, expected, hard_stop=float("inf"))
    runner.cases = [c for c in runner.cases if c.rung in rungs]
    return runner


@pytest.fixture(autouse=True)
def alarm_handler():
    previous = worker.signal.signal(worker.signal.SIGALRM, worker._on_alarm)
    yield
    worker.signal.signal(worker.signal.SIGALRM, previous)


def test_generators_are_seeded():
    for workload in workloads.WORKLOADS.values():
        first = [c.text for c in workload.generate(3)]
        assert first == [c.text for c in workload.generate(3)]
        assert first != [c.text for c in workload.generate(4)]


def test_stored_reports_pass_unchanged():
    runner = small_runner(expected=worker.load_expected("spike-closure", 1))
    runner.run_pass()
    assert runner.failed == 0, runner.problems
    assert runner.attempted == len(runner.cases) == 3


def test_perturbed_stored_report_is_caught():
    expected = worker.load_expected("spike-closure", 1)
    expected["r0-a"]["per_trial_class"][0][0] = "1/3"
    runner = small_runner(expected=expected)
    runner.run_pass()
    assert runner.failed == 1
    assert "r0-a: report differs from the stored expected report" in runner.problems


def test_semantic_checks_catch_wrong_verdicts():
    for case in workloads.WORKLOADS["sensorimotor-replay"].generate(1)[:5]:
        family = workloads.FAMILIES[case.family]
        report = family.report(family.run(*family.load(json.loads(case.text))))
        assert family.check(json.loads(workloads.canonical(report)), case.expect) == []
    flipped = {"invariant": True, "per_trial_class": [["1"], ["1"], ["1"]],
               "ambiguous_parallel_pairs": [], "multiplicity_overflow": [{}, {}, {}]}
    problems = workloads.FAMILIES["trial_invariance"].check(
        flipped, {"invariant": False, "trials": 3})
    assert problems and "invariant" in problems[0]


def test_timed_pass_catches_a_changed_report():
    runner = small_runner()
    runner.run_pass()
    runner.reference["r0-b"] = runner.reference["r0-b"].replace("true", "false", 1)
    _, samples = runner.run_pass()
    assert runner.failed == 1 and len(samples) == 2
    assert runner.problems == ["r0-b: report differs from the checked report"]


def test_over_budget_skips_the_rest_of_the_rung(monkeypatch):
    monkeypatch.setattr(worker, "BUDGET_S", 1e-4)
    runner = small_runner(name="spike-persistence", rungs=(0, 1))
    runner.run_pass()
    assert runner.problems == ["r0: over_budget", "r1: over_budget"]
    assert runner.skipped_rungs == {0, 1}
    assert runner.run_pass()[1] == [] and runner.attempted == 2


def test_tail_keeps_ten_samples_beyond():
    value, percentile, count = worker.tail([float(i) for i in range(100)])
    assert (value, percentile, count) == (89.0, 90.0, 100)
    assert worker.tail([3.0, 1.0]) == (3.0, 100.0, 2)


def _bindings():
    return {
        "coincide.compute_barcode": coincide.compute_barcode,
        "coincide.window_filtration": coincide.window_filtration,
        "cech.homology_basis_cycles": cech.homology_basis_cycles,
        "gridplace.winding_number": gridplace.winding_number,
        "pngsim.simulate": pngsim.simulate,
        "ChainComplex.__init__": coincide.ChainComplex.__init__,
    }


def test_tracer_rebinds_imported_names_and_restores_them():
    before = _bindings()
    tracer = tracing.Tracer()
    runner = small_runner(name="spike-persistence")
    runner.run_pass()
    runner.tracer = tracer
    with tracer:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        wall, _ = runner.run_pass()
    assert _bindings() == before
    row = tracer.snapshot(wall)
    assert row["persist.compute_barcode.calls"] == 1
    assert row["persist.window_filtration.calls"] == 1
    assert row["chaincore.ChainComplex.calls"] == len(workloads.SP_DELTAS)
    assert row["ratlin.rref.calls"] == 0
    assert row["io.from_json.calls"] == row["io.report.calls"] == 1
    assert 0 <= row["trace.unattributed_s"] < wall
    assert set(row) | {"trace.overhead_ratio"} == set(tracing.metric_names())


def test_missing_required_call_fails_loudly(monkeypatch):
    workload = workloads.WORKLOADS["spike-persistence"]
    monkeypatch.setitem(workloads.WORKLOADS, "spike-persistence",
                        workloads.Workload(workload.name, workload.rungs, workload.generate,
                                           workload.modules, ("pngsim.simulate",)))
    runner = small_runner(name="spike-persistence")
    runner.run_pass()
    with pytest.raises(SystemExit, match="pngsim.simulate"):
        worker.per_layer(runner, seconds=0.0)


def test_run_refuses_a_tree_without_cyclos(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", BENCH)  # the benchmark directory holds no src/cyclos
    assert run.main(["--workload", "spike-closure", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
