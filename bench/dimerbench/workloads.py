"""Seeded workloads: the operation cycle of each workload, how an operation
runs, and the independent check of its output.

A *cycle* is a workload's fixed operation sequence: the same operation
kinds over a fixed number of drawn models.  Cycle k of seed s draws its
models from (s, k), so every cycle runs on inputs the process has not seen
(no cache can serve a repeat) and the same seed gives the same inputs.
Draws are stratified (one draw per equal-width stratum of each drawn
coordinate, strata paired at random), so every cycle holds the same mix of
cheap and expensive inputs, and of inputs that hit the known defects.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np

import dimercorr
from dimercorr import DimerModel, LineShape, cli, powder_intensity

from . import oracle

J_REF = 7.81  # meV; the ins-roundtrip grid, width and tolerance scale from it

# heisenberg-panel / soc-panel draws
PANEL_J = (0.05, 50.0)
PANEL_DRAWS = {"heisenberg-panel": 64, "soc-panel": 6}
SOC_D_OVER_J = (0.1, 1.2)
SWEEP_STEPS = {"heisenberg-panel": 300, "soc-panel": 10}
SWEEP_TMAX_OVER_J = 4.0  # tmax = 4 J/kB; tmin = 1 K

# ins-roundtrip draws
INS_J = (1.0, 20.0)
INS_DRAWS = 32
INS_DM_DRAWS = 8  # a quarter of the draws carry D != 0
POWDER_Q = (0.3, 0.8, 1.3, 1.9, 2.5)  # 1/angstrom, as in acceptance criterion 11
POWDER_DIRECTIONS = 2000
PEAK_Q = 1.0  # 1/angstrom; |Q| of the direction-averaged oracle spectrum
PEAK_DIRECTIONS = 16

WORKLOADS = ("heisenberg-panel", "soc-panel", "ins-roundtrip")
KINDS = {
    "heisenberg-panel": ("sweep", "critical"),
    "soc-panel": ("sweep", "critical"),
    "ins-roundtrip": ("roundtrip", "iq", "powder"),
}

# Defects the ROADMAP already names.  An operation whose output fails its
# check in exactly the way one of these predicts, on inputs where the oracle
# says the defect applies, is a known failure: it counts in failed_frac but
# not as an unexpected failure.
KNOWN_FAILURES = {
    "critical-scan-grid": (
        "ROADMAP item 3",
        "critical exits 1 with 'concurrence never exceeds discord on the scan grid' "
        "where the oracle's concurrence - discord is nowhere positive on the fixed "
        "1 K to 10 J/kB scan (J below about 0.145 meV at D = 0)",
    ),
    "critical-lower-bracket": (
        "ROADMAP item 3",
        "critical at D != 0 exits 1 with 'predicate is false at the lower bracket 1.0' "
        "where the oracle's Tc or Tc' lies below that fixed 1 K bracket",
    ),
    "synth-ignores-D": (
        "ROADMAP item 4",
        "synth draws its peak at J whatever D, so at D != 0 the fitted centre sits at J "
        "and misses the oracle cross-section peak of the full Hamiltonian",
    ),
    "powder-ignores-D": (
        "ROADMAP item 4",
        "at D != 0 powder_intensity gives the D = 0 shape, so the cross_section powder "
        "average (equal to the oracle's) departs from it by more than 1 %",
    ),
}


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation of a cycle: a kind and the inputs the program receives."""

    op_id: int  # position in its cycle
    kind: str
    J: float
    D: float
    calls: tuple = ()  # argv of each CLI call, run in order until one exits nonzero
    extra: tuple = ()  # (key, value) pairs: settings the check needs

    def get(self, key):
        return dict(self.extra)[key]


@dataclasses.dataclass
class Outcome:
    """What an operation returned: exit code, captured streams, output files."""

    code: int
    stdout: str = ""
    stderr: str = ""
    files: dict = dataclasses.field(default_factory=dict)
    values: tuple = ()

    def bytes_out(self):
        return len(self.stdout.encode()) + sum(len(data) for data in self.files.values())


def stratified(rng, n):
    """n uniform draws on [0, 1), one in each of n equal strata, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def log_uniform(u, lo, hi):
    return lo * (hi / lo) ** u


def _num(value):
    return repr(float(value))


def build(workload, seed, cycle):
    """Cycle number `cycle` (a list of Op) of a workload and seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), cycle])
    if workload in PANEL_DRAWS:
        return _panel_cycle(workload, rng)
    if workload == "ins-roundtrip":
        return _ins_cycle(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _panel_cycle(workload, rng):
    n = PANEL_DRAWS[workload]
    js = log_uniform(stratified(rng, n), *PANEL_J)
    if workload == "soc-panel":
        lo, hi = SOC_D_OVER_J
        ds = js * (lo + (hi - lo) * stratified(rng, n))
    else:
        ds = np.zeros(n)
    steps = SWEEP_STEPS[workload]
    ops = []
    for J, D in zip(js.tolist(), ds.tolist()):
        model = ["--J", _num(J), "--D", _num(D)]
        tmax = SWEEP_TMAX_OVER_J * J / oracle.KB
        sweep = ["sweep", *model, "--tmin", "1", "--tmax", _num(tmax),
                 "--steps", str(steps), "--out", "{tmp}/sweep.csv"]
        extra = (("steps", steps), ("tmax", tmax), ("tmin", 1.0))
        ops.append(Op(len(ops), "sweep", J, D, (tuple(sweep),), extra))
        ops.append(Op(len(ops), "critical", J, D, (("critical", *model),)))
    return ops


def _ins_cycle(rng):
    n = INS_DRAWS
    js = log_uniform(stratified(rng, n), *INS_J)
    ds = np.zeros(n)
    lo, hi = SOC_D_OVER_J
    dm = rng.permutation(n)[:INS_DM_DRAWS]
    ds[dm] = js[dm] * (lo + (hi - lo) * stratified(rng, INS_DM_DRAWS))
    seeds = rng.integers(0, 2**31, size=n)
    ops = []
    for J, D, synth_seed in zip(js.tolist(), ds.tolist(), seeds.tolist()):
        scale = J / J_REF
        T = 10.0 * scale
        fwhm = scale
        synth = ["synth", "--J", _num(J), "--D", _num(D), "--T", _num(T),
                 "--fwhm", _num(fwhm), "--noise", "0.05", "--seed", str(synth_seed),
                 "--emin", _num(2.0 * scale), "--emax", _num(14.0 * scale),
                 "--slope", _num(0.2 / scale), "--intercept", "3",
                 "--out", "{tmp}/spectrum.csv"]
        fit = ("fit", "{tmp}/spectrum.csv")
        extra = (("T", T), ("fwhm", fwhm))
        ops.append(Op(len(ops), "roundtrip", J, D, (tuple(synth), fit), extra))
        ops.append(Op(len(ops), "iq", J, D, (("iq", "--out", "{tmp}/iq.csv"),)))
        direction_seed = int(rng.integers(0, 2**31))
        ops.append(Op(len(ops), "powder", J, D, (), extra + (("directions_seed", direction_seed),)))
    return ops


def stratified_directions(seed, count):
    """Unit vectors, marginally uniform on the sphere: jittered cosine along the
    dimer axis, uniform azimuth (the construction of acceptance criterion 11)."""
    rng = np.random.default_rng(seed)
    cosines = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count * 2.0 - 1.0
    azimuths = rng.uniform(0.0, 2.0 * np.pi, count)
    sines = np.sqrt(1.0 - cosines**2)
    return np.stack([cosines, sines * np.cos(azimuths), sines * np.sin(azimuths)], axis=1)


# ---------------------------------------------------------------------------
# Running an operation
# ---------------------------------------------------------------------------

class Runner:
    """Executes operations with files in one scratch directory.

    prepare() builds everything an operation needs before it is timed (the
    powder op's model and direction set); execute() is the timed part;
    collect() reads the output files afterwards.
    """

    def __init__(self, tmp, form_factor):
        self.tmp = tmp
        self.form_factor = form_factor
        self._powder_inputs = None

    def prepare(self, op):
        if op.kind == "powder":
            model = DimerModel(J=op.J, D=op.D)
            line = LineShape(fwhm=op.get("fwhm"))
            dirs = stratified_directions(op.get("directions_seed"), POWDER_DIRECTIONS)
            self._powder_inputs = (model, line, dirs)
        for name in self._outputs(op):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(self.tmp, name))

    def execute(self, op):
        if op.kind == "powder":
            model, line, dirs = self._powder_inputs
            # looked up at call time, where a tracer can wrap it
            section = dimercorr.cross_section
            values = tuple(
                float(section(model, q * dirs, op.J, op.get("T"), self.form_factor, line).mean())
                for q in POWDER_Q
            )
            return Outcome(0, values=values)
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in op.calls:
                code = cli.main([arg.replace("{tmp}", self.tmp) for arg in argv])
                if code != 0:
                    break
        return Outcome(code, out.getvalue(), err.getvalue())

    def collect(self, op, outcome):
        for name in self._outputs(op):
            path = os.path.join(self.tmp, name)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    outcome.files[name] = handle.read()

    @staticmethod
    def _outputs(op):
        return {"sweep": ("sweep.csv",), "roundtrip": ("spectrum.csv",),
                "iq": ("iq.csv",)}.get(op.kind, ())


# ---------------------------------------------------------------------------
# Checks.  Each returns ("ok", ""), ("known", <KNOWN_FAILURES key>) or
# ("failed", <reason>).  They run outside the timed and traced intervals.
# A failure is known only where the oracle places its defect: the error or
# the output must be the one the defect predicts, and the drawn inputs must
# lie where the defect applies.
# ---------------------------------------------------------------------------

# sweep CSV columns compared with the oracle, and the tolerance (bits)
SWEEP_MEASURES = {3: "concurrence", 4: "discord", 5: "mutual_info", 6: "classical_corr", 7: "chsh_max"}
SWEEP_ATOL = 1e-8
# the program's crossing scan: SCAN_POINTS temperatures from 1 K to 10 J/kB
SCAN_POINTS = 96
SCAN_TOP_OVER_J = 10.0
LOWER_BRACKET_K = 1.0


def _csv_rows(data, header):
    lines = data.decode().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def check_sweep(op, outcome):
    if outcome.code != 0:
        return "failed", f"exit {outcome.code}: {outcome.stderr.strip()}"
    try:
        rows = _csv_rows(outcome.files["sweep.csv"], cli.SWEEP_HEADER)
    except (KeyError, ValueError) as exc:
        return "failed", f"unreadable sweep CSV: {exc}"
    steps = op.get("steps")
    if len(rows) != steps + 1:
        return "failed", f"{len(rows)} rows, expected {steps + 1}"
    for row in rows:
        if len(row) != 10 or row[8] not in ("true", "false") or row[9] not in ("true", "false"):
            return "failed", f"malformed row {row!r}"
    try:
        table = np.array([[float(v) for v in row[:8]] for row in rows])
    except ValueError as exc:
        return "failed", f"unreadable number: {exc}"
    if not np.all(np.isfinite(table)):
        return "failed", "non-finite value in the sweep"
    T = table[:, 0]
    grid = np.linspace(op.get("tmin"), op.get("tmax"), steps + 1)
    if np.any(np.abs(T - grid) > 1e-9 * grid):
        return "failed", "temperatures off the requested grid"
    expected = oracle.panel(op.J, op.D, T)
    for column, name in SWEEP_MEASURES.items():
        error = np.abs(table[:, column] - expected[name])
        if not error.max() <= SWEEP_ATOL:
            i = int(np.argmax(error))
            return "failed", f"{name} {table[i, column]} at T={T[i]} K, oracle {expected[name][i]}"
    tc = oracle.entanglement_tc(op.J, op.D)
    entangled = np.array([row[8] == "true" for row in rows])
    wrong = (np.abs(T - tc) > 1e-9 * tc) & (entangled != (T < tc))
    if wrong.any():
        return "failed", f"entangled flag wrong at T={T[wrong][0]} K with Tc={tc:.6f} K"
    chsh = expected["chsh_max"]
    nonlocal_flag = np.array([row[9] == "true" for row in rows])
    wrong = (np.abs(chsh - 2.0) > SWEEP_ATOL) & (nonlocal_flag != (chsh > 2.0))
    if wrong.any():
        return "failed", f"nonlocal flag wrong at T={T[wrong][0]} K"
    return "ok", ""


def scan_misses_crossing(J, D):
    """True if concurrence - discord is nowhere positive on the program's
    crossing scan grid, so the scan cannot find the crossing."""
    grid = np.linspace(LOWER_BRACKET_K, SCAN_TOP_OVER_J * J / oracle.KB, SCAN_POINTS)
    return float(np.max(oracle.concurrence_minus_discord(J, D, grid))) <= 1e-12


def root_below_lower_bracket(J, D):
    """True if the entanglement or CHSH predicate is already false at the
    fixed lower bracket, so its bisection cannot start."""
    at = oracle.panel(J, D, LOWER_BRACKET_K)
    return bool(at["concurrence"] <= 0.0 or at["chsh_max"] <= 2.0)


def _straddles(function, T, threshold, step=2e-3):
    return bool(function(T - step) > threshold > function(T + step))


def check_critical(op, outcome):
    if outcome.code != 0:
        message = outcome.stderr
        if (outcome.code == 1 and "concurrence never exceeds discord on the scan grid" in message
                and scan_misses_crossing(op.J, op.D)):
            return "known", "critical-scan-grid"
        if (outcome.code == 1 and op.D != 0.0 and "predicate is false at the lower bracket 1.0" in message
                and root_below_lower_bracket(op.J, op.D)):
            return "known", "critical-lower-bracket"
        return "failed", f"exit {outcome.code}: {message.strip()}"
    try:
        result = json.loads(outcome.stdout)
        tc, tc_chsh, t_cross = (float(result[k]) for k in ("tc_entanglement_K", "tc_chsh_K", "t_cross_K"))
    except (ValueError, KeyError, TypeError) as exc:
        return "failed", f"unreadable critical JSON: {exc}"
    if not all(math.isfinite(v) and v > 0.0 for v in (tc, tc_chsh, t_cross)):
        return "failed", f"non-positive or non-finite temperature in {result}"
    # printed with 3 decimals; bisection (D != 0) resolves to 1e-3 K, so a
    # printed root lies within 1e-3 K of the true one
    slack = 5e-4 if op.D == 0.0 else 2e-3
    expected = oracle.entanglement_tc(op.J, op.D)
    if abs(tc - expected) > slack + 1e-12 * expected:
        return "failed", f"Tc {tc} K, oracle {expected:.6f} K"
    if op.D == 0.0:
        closed = op.J / (oracle.KB * math.log(3.0))
        if abs(tc - closed) > slack + 1e-12 * closed:
            return "failed", f"Tc {tc} K, closed form {closed:.6f} K"
        chsh = oracle.chsh_tc_closed(op.J)
        if abs(tc_chsh - chsh) > slack + 1e-12 * chsh:
            return "failed", f"Tc' {tc_chsh} K, closed form {chsh:.6f} K"
    elif not _straddles(lambda T: float(oracle.panel(op.J, op.D, T)["chsh_max"]), tc_chsh, 2.0):
        return "failed", f"CHSH maximum does not cross 2 at Tc' {tc_chsh} K"
    if not _straddles(lambda T: float(oracle.concurrence_minus_discord(op.J, op.D, T)), t_cross, 0.0):
        return "failed", f"concurrence - discord does not change sign at T_cross {t_cross} K"
    return "ok", ""


def _direction_averaged_peak(op, coefficients):
    """Energy of the maximum of the oracle cross section of the full
    Hamiltonian, averaged over a stratified direction set at |Q| = PEAK_Q:
    a scan over [0.8 J, 2.4 J] in steps of 0.01 J, a scan 20 times finer
    around its maximum, and a parabola through the best three points."""
    directions = PEAK_Q * stratified_directions(0, PEAK_DIRECTIONS)

    def best(omega):
        total = oracle.cross_section(op.J, op.D, directions, omega, op.get("T"), op.get("fwhm"),
                                     coefficients).sum(axis=0)
        return min(max(int(np.argmax(total)), 1), len(omega) - 2), total

    coarse = np.linspace(0.8 * op.J, 2.4 * op.J, 161)
    i, _ = best(coarse)
    fine = np.linspace(coarse[i - 1], coarse[i + 1], 41)
    i, total = best(fine)
    y0, y1, y2 = total[i - 1:i + 2]
    return float(fine[i] + 0.5 * (fine[1] - fine[0]) * (y0 - y2) / (y0 - 2.0 * y1 + y2))


def check_roundtrip(op, outcome, coefficients):
    if outcome.code != 0:
        return "failed", f"exit {outcome.code}: {outcome.stderr.strip()}"
    if "spectrum.csv" not in outcome.files:
        return "failed", "synth wrote no spectrum"
    try:
        fit = json.loads(outcome.stdout)
        centre, converged, tc = float(fit["center_meV"]), fit["converged"], fit["tc_K"]
    except (ValueError, KeyError, TypeError) as exc:
        return "failed", f"unreadable fit JSON: {exc}"
    if converged is not True or tc is None:
        return "failed", f"fit did not converge: {fit}"
    expected_tc = centre / (oracle.KB * math.log(3.0))
    if abs(float(tc) - expected_tc) > 1e-9 * expected_tc:
        return "failed", f"tc_K {tc} is not centre/(kB ln 3) = {expected_tc}"
    tolerance = 0.04 * op.J / J_REF
    peak = _direction_averaged_peak(op, coefficients)
    if abs(centre - peak) <= tolerance:
        return "ok", ""
    if op.D != 0.0 and abs(centre - op.J) <= tolerance:
        return "known", "synth-ignores-D"
    return "failed", f"fitted centre {centre} meV, cross_section peak {peak} meV"


def check_iq(op, outcome, coefficients):
    if outcome.code != 0:
        return "failed", f"exit {outcome.code}: {outcome.stderr.strip()}"
    try:
        rows = _csv_rows(outcome.files["iq.csv"], "Q_invA,interference,form_factor,intensity")
        table = np.array([[float(v) for v in row] for row in rows])
    except (KeyError, ValueError) as exc:
        return "failed", f"unreadable iq CSV: {exc}"
    if table.shape != (301, 4):  # CLI defaults: qmax 3, 300 steps, R 4.43
        return "failed", f"iq table shape {table.shape}"
    q = np.linspace(0.0, 3.0, 301)
    form = oracle.form_factor(q, coefficients)
    intensity = form**2 * oracle.interference(q)
    expected = np.stack([q, oracle.interference(q), form, intensity / intensity.max()], axis=1)
    if not np.allclose(table, expected, rtol=1e-9, atol=1e-12):
        worst = float(np.max(np.abs(table - expected)))
        return "failed", f"iq table differs from the closed form by up to {worst:.3e}"
    return "ok", ""


def check_powder(op, outcome, form_factor, coefficients):
    """The op's averages must equal the oracle cross section averaged over
    the same directions; then criterion 11: their shape in |Q| against
    powder_intensity.  A shape miss is the known defect only at D != 0 and
    only if powder_intensity gives exactly the D = 0 shape."""
    values = np.array(outcome.values, dtype=float)
    if values.shape != (len(POWDER_Q),) or not np.all(np.isfinite(values)):
        return "failed", f"powder averages {outcome.values}"
    directions = stratified_directions(op.get("directions_seed"), POWDER_DIRECTIONS)
    expected = np.array([
        oracle.cross_section(op.J, op.D, q * directions, [op.J], op.get("T"), op.get("fwhm"),
                             coefficients).mean()
        for q in POWDER_Q])
    if not np.allclose(values, expected, rtol=1e-9, atol=0.0):
        return "failed", f"cross_section powder averages {values.tolist()}, oracle {expected.tolist()}"
    model = DimerModel(J=op.J, D=op.D)
    shape = np.array([powder_intensity(q, model, form_factor) for q in POWDER_Q])
    ratios = values / shape
    spread = float(np.max(np.abs(ratios / ratios.mean() - 1.0)))
    if spread < 0.01:
        return "ok", ""
    q = np.array(POWDER_Q)
    d0_shape = shape / (oracle.form_factor(q, coefficients) ** 2 * oracle.interference(q))
    if op.D != 0.0 and np.all(np.abs(d0_shape / d0_shape.mean() - 1.0) < 1e-9):
        return "known", "powder-ignores-D"
    return "failed", f"powder shape off by {spread:.3%}"


def check(op, outcome, form_factor, coefficients):
    """Check one operation's output against its independent oracle.
    form_factor: the program's parameters, for powder_intensity;
    coefficients: the shipped file as oracle.shipped_form_factor reads it."""
    if op.kind == "sweep":
        return check_sweep(op, outcome)
    if op.kind == "critical":
        return check_critical(op, outcome)
    if op.kind == "roundtrip":
        return check_roundtrip(op, outcome, coefficients)
    if op.kind == "iq":
        return check_iq(op, outcome, coefficients)
    return check_powder(op, outcome, form_factor, coefficients)
