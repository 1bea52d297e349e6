"""Closed-loop measurement of one workload: set-up time, the untraced run
that gives the end-to-end metrics, and the traced cycle that gives the
per-layer metrics."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import dimercorr

from . import oracle, reference, tracing, workloads

# (name, unit, better) of the metrics the final result line carries.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

# Per-layer metrics: (span name, statistics of it).  Each statistic becomes
# the metric "<span name>.<statistic>", per traced cycle.
FUNCTION_METRICS = (
    ("correlations.classical_correlation_optimized", ("calls", "self_ms")),
    ("correlations.find_crossing_temperature", ("self_ms",)),
    ("numerics.bisect_boundary", ("calls", "evals")),
    ("numerics.golden_section_max", ("evals",)),
    ("quantum_core.gibbs_state", ("calls", "self_ms")),
    ("correlations.concurrence_wootters", ("self_ms",)),
    ("correlations.chsh_max", ("self_ms",)),
    ("correlations.mutual_information_from_state", ("self_ms",)),
    ("correlations.correlation_point", ("calls", "self_ms")),
    ("quantum_core.g_parameter", ("calls",)),
    ("fitting.fit_gaussian_linear", ("calls", "self_ms", "iterations", "converged_ratio")),
    ("fitting.initial_guess", ("self_ms",)),
    ("spectra.Spectrum", ("constructions", "self_ms")),
    ("ins_model.synth_spectrum", ("self_ms",)),
    ("cli.read_spectrum_csv", ("self_ms",)),
    ("ins_model.cross_section", ("calls", "self_ms", "directions")),
    ("ins_model.form_factor", ("self_ms",)),
    ("ins_model.interference_factor", ("self_ms",)),
    ("ins_model.default_form_factor", ("self_ms",)),
)
STAT_UNITS = {
    "calls": ("count", "lower"), "constructions": ("count", "lower"),
    "evals": ("count", "lower"), "iterations": ("count", "lower"),
    "directions": ("count", "lower"), "self_ms": ("ms", "lower"),
    "converged_ratio": ("ratio", "higher"),
}


def per_layer_definitions():
    """(name, unit, better) of every per-layer metric, in report order."""
    defs = []
    for span, stats in FUNCTION_METRICS:
        defs += [(f"{span}.{stat}", *STAT_UNITS[stat]) for stat in stats]
    for layer in tracing.LAYERS:
        defs += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_ms", "ms", "lower")]
    defs += [("cli.bytes_written", "bytes", "lower"), ("cli.bytes_read", "bytes", "lower"),
             ("trace.overhead_frac", "ratio", "lower")]
    return tuple(defs)


SETUP_EDGE_RUNS = 5  # fresh processes before and again after the measurement
SETUP_CODE = (
    "import time; t0 = time.perf_counter()\n"
    "import sys; sys.path[:0] = sys.argv[1:3]\n"
    "import dimercorr; dimercorr.default_form_factor()\n"
    "elapsed = time.perf_counter() - t0\n"
    "from dimerbench import reference\n"
    "print(repr(elapsed), repr(reference.speed_scale(5)))\n"
)


def measure_setup(root, runs):
    """(seconds, speed scale) per fresh process: the time it spends importing
    dimercorr and loading the shipped form factor, and the reference-speed
    scale the same process measures right after."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, os.path.join(root, "src"),
             os.path.join(root, "bench")],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, scale = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(scale)))
    return samples


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git(root, *args):
    try:
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True,
                              timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout


def environment(root):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    rev = status = None
    if os.path.exists(os.path.join(root, ".git")):
        rev = _git(root, "rev-parse", "HEAD")
        status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_rev": rev.strip() if rev else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "dimercorr": dimercorr.__file__,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Phase:
    """Everything recorded over the whole cycles of one measurement phase."""

    def __init__(self):
        self.cycles = 0
        self.scaled_seconds = 0.0  # op time at reference speed
        self.latency_ns = {}
        self.status = {"ok": 0, "known": 0, "failed": 0}
        self.known = {}
        self.failures = []
        self.bytes_out = 0

    @property
    def attempted(self):
        return sum(self.status.values())

    @property
    def op_seconds(self):
        return sum(sum(v) for v in self.latency_ns.values()) / 1e9

    @property
    def completed(self):
        return self.status["ok"]

    def add(self, op, latency_ns, verdict):
        status, detail = verdict
        self.latency_ns.setdefault(op.kind, []).append(latency_ns)
        self.status[status] += 1
        if status == "known":
            self.known[detail] = self.known.get(detail, 0) + 1
        elif status == "failed" and len(self.failures) < 20:
            self.failures.append({"op_id": op.op_id, "kind": op.kind, "J": op.J, "D": op.D,
                                  "reason": detail})

    def raw_ops_per_s(self):
        """Operations completed (output checked correct) per second of
        operation time; a failed operation adds its time but no completion."""
        return self.completed / self.op_seconds

    def ops_per_s(self):
        """As raw_ops_per_s, with each operation's time at reference speed."""
        return self.completed / self.scaled_seconds


class SpeedSampler:
    """Runs the reference kernel every PERIOD_S of wall time from a SIGALRM
    handler, so the machine's speed is sampled evenly through each cycle,
    inside long operations too.  Each sample is the median of RUNS kernel
    runs, so the first run after the program's own work, which meets caches
    the program left behind, is not the one that counts.  busy_ns is the
    handler's own time, which run_op takes out of the operation's latency."""

    PERIOD_S = 0.1
    RUNS = 3

    def __init__(self):
        self.scales = []
        self.busy_ns = 0
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter_ns()
        self.scales.append(reference.speed_scale(self.RUNS))
        self.busy_ns += time.perf_counter_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run_op(op, runner, tracer=None, sampler=None):
    """Run one operation; returns (outcome, latency in ns).  The program's
    unexpected exceptions become a failed outcome, not a crash."""
    runner.prepare(op)
    scope = tracer.operation(op.op_id, op.kind) if tracer else contextlib.nullcontext()
    busy = sampler.busy_ns if sampler else 0
    with scope:
        start = time.perf_counter_ns()
        try:
            outcome = runner.execute(op)
        except Exception:  # noqa: BLE001 - the loop must go on and count it
            outcome = workloads.Outcome(-1, stderr=traceback.format_exc())
        latency = time.perf_counter_ns() - start
    if sampler:
        latency -= sampler.busy_ns - busy
    runner.collect(op, outcome)
    if tracer:
        tracer.set_root_count(outcome.bytes_out())
    return outcome, latency


def measure(cycles, runner, check, budget_s, tracer=None):
    """Run whole cycles from the iterable `cycles` closed-loop, one operation
    at a time.  Another cycle starts only while the phase is expected to end
    within budget_s; at least one cycle runs, and a traced phase runs exactly
    one.

    A cycle's operation time at reference speed is its operation time times
    the mean speed scale sampled while the cycle ran.
    """
    phase = Phase()
    start = time.perf_counter()
    for cycle in cycles:
        with SpeedSampler() as sampler:
            op_ns = 0
            for op in cycle:
                outcome, latency = run_op(op, runner, tracer, sampler)
                op_ns += latency
                phase.add(op, latency, check(op, outcome))
                phase.bytes_out += outcome.bytes_out()
            sampler.scales.append(reference.speed_scale())
        phase.scaled_seconds += op_ns / 1e9 * statistics.fmean(sampler.scales)
        phase.cycles += 1
        elapsed = time.perf_counter() - start
        if tracer or elapsed * (phase.cycles + 1) / phase.cycles > budget_s:
            break
    return phase


def warm_up(cycle, runner):
    """Run the first operation of each kind once, untimed and unchecked, so
    lazy imports and first-call costs stay out of the measurement.  A D != 0
    critical (seconds long) is left out; the sweep warms the same code."""
    seen = set()
    for op in cycle:
        if op.kind in seen or (op.kind == "critical" and op.D != 0.0):
            continue
        seen.add(op.kind)
        run_op(op, runner)


def latency_summary(samples_ns):
    """Median and p90 in ms.  The p90 is None unless at least 10 samples lie
    beyond it; `beyond` is that count."""
    n = len(samples_ns)
    if n == 0:
        return {"n": 0, "p50_ms": None, "p90_ms": None, "beyond_p90": 0}
    ordered = sorted(samples_ns)
    p90 = ordered[math.ceil(0.9 * n) - 1]
    beyond = sum(1 for x in ordered if x > p90)
    return {
        "n": n,
        "p50_ms": statistics.median(ordered) / 1e6,
        "p90_ms": p90 / 1e6 if beyond >= 10 else None,
        "beyond_p90": beyond,
    }


def per_layer_metrics(tracer, traced, plain):
    totals = tracing.aggregate(tracer.spans, tracer.names)
    empty = {"calls": 0, "self_ns": 0, "count": 0, "flag": 0}
    cycles = traced.cycles
    values = {}
    for span, stats in FUNCTION_METRICS:
        entry = totals.get(span, empty)
        for stat in stats:
            if stat in ("calls", "constructions"):
                value = entry["calls"]
            elif stat == "self_ms":
                value = entry["self_ns"] / 1e6
            elif stat == "converged_ratio":
                value = entry["flag"] / entry["calls"] if entry["calls"] else 0.0
            else:
                value = entry["count"]
            values[f"{span}.{stat}"] = value / cycles if stat != "converged_ratio" else value
    for layer in tracing.LAYERS:
        entries = [v for name, v in totals.items() if name.split(".")[0] == layer]
        values[f"{layer}.calls"] = sum(v["calls"] for v in entries) / cycles
        values[f"{layer}.self_ms"] = sum(v["self_ns"] for v in entries) / 1e6 / cycles
    values["cli.bytes_written"] = traced.bytes_out / cycles
    values["cli.bytes_read"] = totals.get("cli.read_spectrum_csv", empty)["count"] / cycles
    values["trace.overhead_frac"] = plain.ops_per_s() / traced.ops_per_s() - 1.0
    return values


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _phase_report(workload, phase):
    kinds = {kind: latency_summary(phase.latency_ns.get(kind, []))
             for kind in workloads.KINDS[workload]}
    failed = phase.status["known"] + phase.status["failed"]
    return {
        "cycles": phase.cycles,
        "attempted": phase.attempted,
        "ok": phase.status["ok"],
        "known_failures": phase.status["known"],
        "unexpected_failures": phase.status["failed"],
        "failed_frac": failed / phase.attempted,
        "ops_per_s": phase.ops_per_s(),
        "raw_ops_per_s": phase.raw_ops_per_s(),
        "op_seconds": phase.op_seconds,
        "latency": kinds,
        "known": {key: {"count": count, "fixed_by": workloads.KNOWN_FAILURES[key][0],
                        "what": workloads.KNOWN_FAILURES[key][1]}
                  for key, count in sorted(phase.known.items())},
        "failures": phase.failures,
    }


def _print_table(lines):
    width = max(len(name) for name, _ in lines)
    for name, text in lines:
        print(f"  {name:<{width}}  {text}")


def scaled_setup(samples):
    """Median over fresh processes of the set-up time at reference speed."""
    return statistics.median(seconds * scale for seconds, scale in samples)


def _print_end_to_end(report, setup_samples, rss):
    lines = [
        ("setup_s", f"{scaled_setup(setup_samples):.4f} s   (median of {len(setup_samples)} fresh processes, "
                    f"at reference speed; as measured {statistics.median(s for s, _ in setup_samples):.4f} s)"),
        ("ops_per_s", f"{report['ops_per_s']:.4f} 1/s (at reference speed; as measured "
                      f"{report['raw_ops_per_s']:.4f} 1/s: {report['ok']} completed of {report['attempted']} "
                      f"ops in {report['op_seconds']:.2f} s of op time, {report['cycles']} whole cycles)"),
        ("failed_frac", f"{report['failed_frac']:.4f}     ({report['known_failures'] + report['unexpected_failures']} of "
                        f"{report['attempted']} ops; {report['known_failures']} known, "
                        f"{report['unexpected_failures']} unexpected)"),
        ("peak_rss_mib", f"{rss:.2f} MiB"),
    ]
    for kind, s in report["latency"].items():
        lines.append((f"{kind}_p50_ms", f"{s['p50_ms']:.4f} ms  (n={s['n']})"))
        if s["p90_ms"] is None:
            lines.append((f"{kind}_p90_ms", f"omitted: {s['beyond_p90']} of n={s['n']} samples "
                                            "beyond it, 10 needed"))
        else:
            lines.append((f"{kind}_p90_ms", f"{s['p90_ms']:.4f} ms  (n={s['n']}, {s['beyond_p90']} beyond)"))
    print("end-to-end metrics:")
    _print_table(lines)
    for key, known in report["known"].items():
        print(f"  known failure {key} ({known['fixed_by']}): {known['count']} ops")
    for failure in report["failures"]:
        print(f"  UNEXPECTED FAILURE: {failure}")


def run(root, workload, seed, seconds, trace):
    env = environment(root)
    first = workloads.build(workload, seed, 1)
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print(f"cycle: {len(first)} ops over {len(first) // len(workloads.KINDS[workload])} drawn models, "
          "fresh draws every cycle; closed loop, 1 client, 1 thread")
    print("env: " + json.dumps(env))
    setup_samples = [] if trace else measure_setup(root, SETUP_EDGE_RUNS)
    form_factor = dimercorr.default_form_factor()
    coefficients = oracle.shipped_form_factor(root)
    out_dir = os.path.join(root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)

    def check(op, outcome):
        return workloads.check(op, outcome, form_factor, coefficients)

    def cycles():
        yield first
        for k in itertools.count(2):
            yield workloads.build(workload, seed, k)

    tracer = None
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        runner = workloads.Runner(tmp, form_factor)
        warm_up(workloads.build(workload, seed, 0), runner)
        plain = measure(cycles(), runner, check, seconds / 2 if trace else seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            # cycle 1 again, so the per-layer counts depend on the seed alone
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure([first], runner, check, 0.0, tracer)
            finally:
                tracer.uninstall()
        else:
            setup_samples += measure_setup(root, SETUP_EDGE_RUNS)

    plain_report = _phase_report(workload, plain)
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "untraced": plain_report}
    phases = [plain]
    if trace:
        phases.append(traced)
        metrics = per_layer_metrics(tracer, traced, plain)
        units = {name: unit for name, unit, _ in per_layer_definitions()}
        result["traced"] = _phase_report(workload, traced)
        print("per-layer metrics (one traced cycle):")
        _print_table([(name, f"{value:.6g} {units[name]}") for name, value in metrics.items()])
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.csv.gz")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, root)}")
    else:
        metrics = {
            "setup_s": scaled_setup(setup_samples),
            "ops_per_s": plain_report["ops_per_s"],
            "peak_rss_mib": rss_mib,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        result["setup_s_samples"] = setup_samples
        result["peak_rss_mib"] = rss_mib
        _print_end_to_end(plain_report, setup_samples, rss_mib)
    result["metrics"] = metrics
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)

    unexpected = sum(p.status["failed"] for p in phases)
    final = {
        "correct": unexpected == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(final))
    return 0
