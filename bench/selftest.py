"""Self-tests of the benchmark harness: python3 -m pytest bench/selftest.py"""

import json
import os
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import dimercorr  # noqa: E402
from dimerbench import harness, oracle, tracing, workloads  # noqa: E402

FORM = dimercorr.default_form_factor()
COEFFICIENTS = oracle.shipped_form_factor(ROOT)


def verdict(op, outcome):
    return workloads.check(op, outcome, FORM, COEFFICIENTS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operation_sequence(workload):
    first = workloads.build(workload, 7, 1)
    assert first == workloads.build(workload, 7, 1)
    assert first != workloads.build(workload, 8, 1)
    assert first != workloads.build(workload, 7, 2)  # every cycle draws afresh
    kinds = workloads.KINDS[workload]
    assert [op.kind for op in first] == list(kinds) * (len(first) // len(kinds))


def test_ins_cycle_has_a_quarter_of_draws_with_dm_coupling():
    ops = [op for op in workloads.build("ins-roundtrip", 3, 1) if op.kind == "powder"]
    assert sum(op.D != 0.0 for op in ops) == len(ops) // 4


def test_p90_needs_ten_samples_beyond_it():
    few = harness.latency_summary(list(range(1, 100)))  # 9 samples beyond the p90
    assert few["p90_ms"] is None and few["beyond_p90"] == 9
    assert few["p50_ms"] == pytest.approx(50e-6)
    enough = harness.latency_summary(list(range(1, 101)))  # 10 beyond
    assert enough["beyond_p90"] == 10
    assert enough["p90_ms"] == pytest.approx(90e-6)


def test_self_times_subtract_direct_children():
    # id, parent, op, name, start, end, count, flag
    spans = [
        (0, None, 0, 0, 0, 100, None, None),  # root: 100 ns, children 30 + 50
        (1, 0, 0, 1, 10, 40, None, None),     # 30 ns, child 5
        (2, 1, 0, 2, 20, 25, 7, None),        # leaf 5 ns
        (3, 0, 0, 1, 40, 90, None, 1),        # leaf 50 ns
    ]
    assert tracing.self_times(spans) == {0: 20, 1: 25, 2: 5, 3: 50}
    totals = tracing.aggregate(spans, ["op.x", "layer.f", "layer.g"])
    assert totals["layer.f"] == {"calls": 2, "self_ns": 75, "count": 0, "flag": 1}
    assert totals["layer.g"]["count"] == 7
    assert sum(t["self_ns"] for t in totals.values()) == 100


class _WrongCritical:
    """Runner stand-in whose critical output is off by 1 K."""

    def prepare(self, op):
        pass

    def execute(self, op):
        tc = oracle.entanglement_tc(op.J, op.D) + 1.0
        text = json.dumps({"tc_entanglement_K": tc, "tc_chsh_K": 1.0, "t_cross_K": 1.0})
        return workloads.Outcome(0, stdout=text)

    def collect(self, op, outcome):
        pass


def test_wrong_output_counts_as_failed():
    op = workloads.Op(0, "critical", 7.81, 0.0, (("critical", "--J", "7.81"),))
    phase = harness.measure([[op]], _WrongCritical(), verdict, 0.0)
    assert phase.status == {"ok": 0, "known": 0, "failed": 1}
    report = harness._phase_report("heisenberg-panel", phase)
    assert report["failed_frac"] == 1.0 and report["unexpected_failures"] == 1


def test_real_critical_outputs_pass_and_known_defect_is_classified(tmp_path):
    runner = workloads.Runner(str(tmp_path), FORM)
    ok = workloads.Op(0, "critical", 7.81, 0.0, (("critical", "--J", "7.81", "--D", "0.0"),))
    low = workloads.Op(1, "critical", 0.06, 0.0, (("critical", "--J", "0.06", "--D", "0.0"),))
    low_dm = workloads.Op(2, "critical", 0.1, 0.05, (("critical", "--J", "0.1", "--D", "0.05"),))
    assert verdict(ok, harness.run_op(ok, runner)[0]) == ("ok", "")
    assert verdict(low, harness.run_op(low, runner)[0]) == ("known", "critical-scan-grid")
    assert verdict(low_dm, harness.run_op(low_dm, runner)[0]) == ("known", "critical-lower-bracket")


@pytest.mark.parametrize("message", [
    "error: concurrence never exceeds discord on the scan grid",
    "error: predicate is false at the lower bracket 1.0",
])
def test_known_error_message_away_from_its_defect_counts_as_failed(message):
    # at J = 5 meV every root lies far above 1 K: the defect cannot apply
    for D in (0.0, 2.0):
        op = workloads.Op(0, "critical", 5.0, D)
        assert verdict(op, workloads.Outcome(1, stderr=message))[0] == "failed"


def test_oracle_matches_the_program_where_it_is_right():
    for J, D in ((7.81, 0.0), (7.81, 2.0), (0.3, 0.36)):
        temperatures = np.linspace(1.0, 4.0 * J / oracle.KB, 7)
        expected = oracle.panel(J, D, temperatures)
        for i, T in enumerate(temperatures):
            point = dimercorr.correlation_point(dimercorr.DimerModel(J=J, D=D), float(T))
            for name, values in expected.items():
                assert getattr(point, name) == pytest.approx(values[i], abs=1e-12)
        q = 1.3 * workloads.stratified_directions(5, 40)
        program = dimercorr.cross_section(dimercorr.DimerModel(J=J, D=D), q, J, 10.0, FORM,
                                          dimercorr.LineShape(fwhm=1.0))
        reference = oracle.cross_section(J, D, q, [J], 10.0, 1.0, COEFFICIENTS)[:, 0]
        np.testing.assert_allclose(program, reference, rtol=1e-12)


def _powder_op(D):
    return workloads.Op(0, "powder", 7.81, D, (), (("T", 10.0), ("fwhm", 1.0), ("directions_seed", 11)))


def _run_powder(op):
    runner = workloads.Runner(None, FORM)
    runner.prepare(op)
    return runner.execute(op)


def test_powder_defect_is_known_only_with_a_correct_cross_section():
    assert verdict(_powder_op(0.0), _run_powder(_powder_op(0.0))) == ("ok", "")
    op = _powder_op(4.0)
    outcome = _run_powder(op)
    assert verdict(op, outcome) == ("known", "powder-ignores-D")
    skewed = workloads.Outcome(0, values=tuple(v * (1.0 + 0.01 * i) for i, v in enumerate(outcome.values)))
    assert verdict(op, skewed)[0] == "failed"
    assert verdict(op, workloads.Outcome(0, values=(float("nan"),) * 5))[0] == "failed"


def test_sweep_with_a_wrong_discord_counts_as_failed(tmp_path):
    runner = workloads.Runner(str(tmp_path), FORM)
    op = workloads.build("soc-panel", 1, 1)[0]
    outcome, _ = harness.run_op(op, runner)
    assert verdict(op, outcome) == ("ok", "")
    lines = outcome.files["sweep.csv"].decode().splitlines()
    cells = lines[3].split(",")
    cells[4] = repr(-float(cells[4]))  # discord with its sign flipped
    lines[3] = ",".join(cells)
    outcome.files["sweep.csv"] = ("\n".join(lines) + "\n").encode()
    assert verdict(op, outcome)[0] == "failed"


def test_tracer_wraps_the_callers_binding_and_restores_it(tmp_path):
    original = dimercorr.correlations.correlation_point
    op = workloads.Op(0, "sweep", 7.81, 0.0, (
        ("sweep", "--J", "7.81", "--tmin", "1", "--tmax", "300", "--steps", "4",
         "--out", "{tmp}/sweep.csv"),))
    runner = workloads.Runner(str(tmp_path), None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dimercorr.cli.correlation_point is dimercorr.correlations.correlation_point
        assert dimercorr.cli.correlation_point is not original
        outcome, _ = harness.run_op(op, runner, tracer)
    finally:
        tracer.uninstall()
    assert dimercorr.cli.correlation_point is original
    totals = tracing.aggregate(tracer.spans, tracer.names)
    assert totals["correlations.correlation_point"]["calls"] == 5
    assert totals["cli.main"]["calls"] == 1
    assert totals["op.sweep"]["count"] == outcome.bytes_out() > 0
    assert "quantum_core.gibbs_state" not in totals


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        harness.per_layer_definitions())


class _Sleeper(_WrongCritical):
    """Sleeps 0.35 s and records the wall time of its own execute()."""

    def execute(self, op):
        start = time.perf_counter_ns()
        time.sleep(0.35)
        self.span_ns = time.perf_counter_ns() - start
        return workloads.Outcome(0)


def test_speed_samples_are_taken_inside_operations_and_not_timed():
    op = workloads.Op(0, "critical", 7.81, 0.0)
    sleeper = _Sleeper()
    with harness.SpeedSampler() as sampler:
        _, latency = harness.run_op(op, sleeper, sampler=sampler)
    assert len(sampler.scales) >= 2 and sampler.busy_ns > 0
    # the samples' own time is taken out of the latency, and only that
    assert abs(latency + sampler.busy_ns - sleeper.span_ns) < 2e6
