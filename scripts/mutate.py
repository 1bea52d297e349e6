#!/usr/bin/env python3
"""Mutation probe: which lines of a module of src/dimercorr no test depends on.

For one module it makes each mutant in turn:
- each comparison flipped (< and <=, > and >=, == and !=, in and not in,
  is and is not);
- + and - swapped, and * and /, in expressions and augmented assignments;
- each numeric literal plus 1, unless that is the same number.

Each mutant is written into a temporary copy of the tree (without .git,
caches and bench/out), and the test files that import the module, or a
name it defines, run there under `pytest -x`, the module's own test file
first.  A failing run kills the mutant, and so does a run that outlasts
the per-mutant timeout.  The unmutated module must pass first.  Mutants
run in parallel, one worker and one tree copy per CPU the process may use
(os.sched_getaffinity); the results are printed in mutant order.  SIGTERM
and SIGINT stop the probe as a normal exit does: the test runs under way
are killed, the mutants not yet started are dropped, and the tree copies
are removed.

Acceptance criterion 04 fails by design (README), so `-x` would stop on it
for every mutant and kill them all: this script deselects it inside its own
runs, and nowhere else.  Its runs also take the `mutate` hypothesis profile
of tests/conftest.py, which skips the shrink phase: a mutant is killed by
any failing example, and shrinking one can outlast the timeout.  Mutants
that move no output of the package, move one only at a tie or at the edge
of the float range, or only take the discord oracle's search to the same
maximum by another path, are listed with the reason in ALLOWED; they are
reported but not counted as survivors, and a tier-1 test checks that each
entry still names a mutant of the current source.

This is not a tier-1 test: each mutant costs a test run.  Usage:

    python scripts/mutate.py src/dimercorr/numerics.py

It prints one line per mutant, a summary that counts the kills by
timeout and gives the probe's wall time, the survivors by line, the
ALLOWED entries of the module that match no mutant, and the spent ones,
whose mutant the tests now kill.  It exits 1 if any mutant outside
ALLOWED survives or any such stale entry is left; a spent entry is only
listed, since a kill by a hypothesis test may turn on that run's draws.
"""

import argparse
import ast
import concurrent.futures
import copy
import os
import pathlib
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
DESELECTED = "tests/test_acceptance.py::test_criterion_04_low_temperature_saturation"
# Seconds a mutant's test run may take; a longer run counts as a kill.
TIMEOUT_S = 120

_SAFEGUARD = ("if not (b <= x <= mid or mid <= x <= b) or not abs(x - b) < 0.5 * "
              "abs(step_before):")
# (module file name, stripped source line, mutation) -> why no output tells
# the mutant from the original.
ALLOWED = {
    ("numerics.py", _SAFEGUARD, "`x <= mid`: <= -> <"):
        "x == mid is then rejected for the midpoint, the same point",
    ("numerics.py", _SAFEGUARD, "`mid <= x`: <= -> <"):
        "x == mid is then rejected for the midpoint, the same point",
}

# csvtext.py: its two paths write the same bytes, so a mutant that moves a
# cell from the bulk digits to the `%` fallback is seen only through the
# fallback's share (a test holds it below 1 % on the CLI's tables); these
# move no cell of those tables, or none at all.
_SIZE_TEST = "if not floats or floats[0].size * len(floats) < BULK_MIN_CELLS:"
_FAST = "fast = (magnitude >= 1e-4) & (magnitude < 1e16)"
_CLIP = "np.minimum(np.maximum(p, 1, out=p), 20, out=p)  # clip, without np.clip's overhead"
_DIGITS_RANGE = "slow = ~(zero | (fast & (digits >= 10**16) & (digits < 10**17)))"
_GROUPS = "groups = sum(top >= 10 ** (4 * n) for n in range(4))"
_PATHS = "both paths write the same bytes; the threshold sets only the speed"
_LOG10_LOW = ("N >= 10^17 needs np.log10(x) < k for an x >= 10^k; it is exact at every "
              "power of ten, and the edge-value test's powers and neighbours get none")
ALLOWED.update({
    ("csvtext.py", "BULK_MIN_CELLS = 240", "`BULK_MIN_CELLS = 240`: 240 -> 241"): _PATHS,
    ("csvtext.py", _SIZE_TEST, "`floats[0].size * len(floats) < BULK_MIN_CELLS`: < -> <="):
        _PATHS,
    ("csvtext.py", _SIZE_TEST, "`floats[0].size * len(floats)`: * -> /"): _PATHS,
    ("csvtext.py", "_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into "
     "two 26-bit halves", "`_SPLITTER = 134217729.0`: 134217729.0 -> 134217730.0"):
        "2^27 + 2 splits as 2^27 + 1 does but at a tie (the 27 low mantissa bits exactly "
        "2^26), where it rounds the high half the other way; both halves keep at most 26 "
        "bits, so Dekker's product stays exact (no N differs over 200000 such ties)",
    ("csvtext.py", "_P = range(21)", "`range(21)`: 21 -> 22"):
        "p is clipped to [1, 20], so a 22nd table entry is never read",
    ("csvtext.py", _FAST, "`magnitude >= 0.0001`: >= -> >"):
        "moves only |x| = 1e-4 to `%`, which writes the text the bulk digits write",
    ("csvtext.py", _FAST, "`magnitude < 1e+16`: < -> <="):
        "|x| = 1e16 enters the fast range at the clipped p = 1, where N = 10^17 sends it "
        "back to `%`",
    ("csvtext.py", "magnitude = np.where(fast, magnitude, 0.5)  # integer part 0 in any layout",
     "`np.where(fast, magnitude, 0.5)`: 0.5 -> 1.5"):
        "a slow cell's integer part 1 may add a group, which writes NULs in every fast cell "
        "below 1 (their 0 is the point chunk's), and `%` overwrites every slow cell",
    ("csvtext.py", _CLIP, "`np.minimum(np.maximum(p, 1, out=p), 20, out=p)`: 20 -> 21"):
        "p > 20 needs np.log10(x) < -4 for an x >= 1e-4, and np.log10(1e-4) is -4.0; the "
        "clip guards the table index",
    ("csvtext.py", _CLIP, "`np.maximum(p, 1, out=p)`: 1 -> 2"):
        "p = 1 only for 1e15 <= |x| < 1e16; at p = 2 their N is at least 10^17 and `%` "
        "writes them, the same text",
    ("csvtext.py", _DIGITS_RANGE, "`digits >= 10 ** 16`: >= -> >"):
        "moves only N = 10^16 (x a power of ten at 17 digits) to `%`, the same text",
    ("csvtext.py", _DIGITS_RANGE, "`digits < 10 ** 17`: < -> <="):
        "N = 10^17 needs x 10^p within 1/2 of 10^17, closer to a power of ten than any "
        "double but the power itself, whose log10 is exact",
    ("csvtext.py", _DIGITS_RANGE, "`10 ** 17`: 10 -> 11"): _LOG10_LOW,
    ("csvtext.py", _DIGITS_RANGE, "`10 ** 17`: 17 -> 18"): _LOG10_LOW,
    ("csvtext.py", "_TAIL_MUL = np.array([10 ** (20 - max(p, 8)) for p in _P], dtype=np.int64)",
     "`max(p, 8)`: 8 -> 9"):
        "changes only p = 8, whose fraction of 8 digits is all head: tail is 0 times it",
    ("csvtext.py", _GROUPS, "`range(4)`: 4 -> 5"):
        "every integer part is below 10^16, so a fifth group is never counted",
})

# fitting.py: ties of the damped Gauss-Newton loop, and scale factors that
# cancel exactly.
_CEILING_TIE = ("the damping walk (x10, /10, floor 1e-15) reaches 1e12 itself on some paths "
                "and 1e12 + 1e-4 or 7e-4 on others, so whether a lambda of about 1e12 is "
                "tried already turns on rounding; a step first accepted there is about 1e-12 "
                "of a Gauss-Newton step, and the fit ends 'stalled' without it or 'chi2' "
                "after it")
ALLOWED.update({
    ("fitting.py", "_LAMBDA_CEILING = 1e12",
     "`_LAMBDA_CEILING = 1000000000000.0`: 1000000000000.0 -> 1000000000001.0"): _CEILING_TIE,
    ("fitting.py", "if lam > _LAMBDA_CEILING:", "`lam > _LAMBDA_CEILING`: > -> >="):
        _CEILING_TIE,
    ("fitting.py", "if decrease <= _CHI2_RTOL * max(chi2, sys.float_info.min):",
     "`decrease <= _CHI2_RTOL * max(chi2, sys.float_info.min)`: <= -> <"):
        "a tie: differs only at a decrease of exactly 1e-10 times chi-square",
    ("fitting.py", "if math.sqrt(step.dot(step)) < _STEP_TOL:",
     "`math.sqrt(step.dot(step)) < _STEP_TOL`: < -> <="):
        "a tie: differs only at a step norm of exactly 1e-12",
    ("fitting.py", "if amplitude < 0.0:", "`amplitude < 0.0`: < -> <="):
        "differs only at an amplitude of exactly -0.0, written +0.0; a fit ends there only "
        "if every accepted step's amplitude is -0.0 as well (a -0.0 start on flat counts "
        "ends at +0.0)",
    ("fitting.py", "scale[scale <= 0.0] = 1.0", "`scale[scale <= 0.0] = 1.0`: 1.0 -> 2.0"):
        "a column whose diagonal is 0 is all 0 (at amplitude 0), or its entries are below "
        "1.5e-162 and their squares underflow: its step, its gradient entry over lambda * "
        "scale, is then 0, or too small to move a parameter of ordinary size, at any scale",
    ("fitting.py", "s = 1.0 / np.sqrt(diagonal[determined])",
     "`1.0 / np.sqrt(diagonal[determined])`: 1.0 -> 2.0"):
        "doubling s is exact and cancels: the scaled matrix is 4 times as large, its "
        "inverse factor half, outer(s, s) 4 times, so every bit of the covariance is the "
        "same unless an entry of outer(s, s) lies within a factor 4 of the float maximum",
})

# cli.py: the temporary file's name is renamed onto the output or removed,
# so no output shows it.
ALLOWED.update({
    ("cli.py", 'tmp = os.path.join(os.path.dirname(os.path.abspath(path)), ".dimercorr-" + '
     "os.urandom(8).hex())", "`os.urandom(8)`: 8 -> 9"):
        "the length of the temporary file's random suffix: any length gives a fresh name, "
        "and the file is renamed onto the output or removed before the call returns",
})

# ins_model.py: a memo's size, a tie at the fwhm refusal, the J = 0 choice
# between two equal values, and the `initial` of a max over nonnegative
# magnitudes, which matters only for an empty array.
_BELOW_ONE = ("the magnitudes are nonnegative, so an initial of 1 changes the largest only when "
              "every one is below 1")
_J_ZERO = "at J = 0 the two branches are equal"
ALLOWED.update({
    ("ins_model.py", "_STRENGTH_MEMO_SIZE = 32", "`_STRENGTH_MEMO_SIZE = 32`: 32 -> 33"):
        "the memo's size sets how many keys it keeps, never a value (a warm memo gives the "
        "cold bits, a test checks)",
    ("ins_model.py", "if not norm > 2.0 / np.finfo(float).max:",
     "`norm > 2.0 / np.finfo(float).max`: > -> >="):
        "a tie: differs only at sigma sqrt(2 pi) of exactly 2 over the float maximum, where "
        "the peak bound 2/norm is the float maximum, finite either way",
    ("ins_model.py",
     "lo, hi = (0.5 * small, 0.5 * large) if J >= 0.0 else (0.5 * large, 0.5 * small)",
     "`J >= 0.0`: >= -> >"):
        f"{_J_ZERO}: large = 1 + 0/g and small = (D/g)^2 with g = |D| are both exactly 1 "
        "(and both 1 at g = 0)",
    ("ins_model.py",
     "return float(levels.p_minus if model.J >= 0.0 else levels.p_plus), float(levels.p_t)",
     "`model.J >= 0.0`: >= -> >"):
        f"{_J_ZERO}: at J = D = 0 the four levels are degenerate and p_minus = p_plus = 1/4",
    ("ins_model.py", "return q, float(q.max(initial=0.0))", "`initial=0.0`: 0.0 -> 1.0"):
        f"{_BELOW_ONE}; then neither check can fire: (R/pi) pi stays finite for every finite R "
        "(checked over the top 2^20 floats; below them rounding cannot reach the maximum), and "
        "so does (1/(4 pi))^2 times any coefficient",
    ("ins_model.py", "top = float(magnitudes.max(initial=0.0))", "`initial=0.0`: 0.0 -> 1.0"):
        f"{_BELOW_ONE}; 1 is far below 2^511, and R/2 times 1 stays finite",
    ("ins_model.py", "_check_exponent(math.sqrt(q2.max(initial=0.0)), ff_params)",
     "`initial=0.0`: 0.0 -> 1.0"):
        f"{_BELOW_ONE}; (1/(4 pi))^2 times any coefficient stays finite",
})

# correlations.py: the Henderson-Vedral oracle's search, which no CLI output
# calls, ends on the same maximum of J(n) by another path; ties; a memo's
# size; and r where it multiplies c_perp = 0.
_OTHER_PATH = ("the search ends on the same maximum by another path: over the tests' random, "
               "Gibbs, singlet and mixed states the value moves by at most 1e-15 bits, and the "
               "axis by at most 6e-8 rad where the maximum is unique (the flat top of J(n) fixes "
               "it no closer in double precision) or to another maximizing axis where it is not")
_ZOOM_LINE = "thetas, phis = _angle_grid(theta + spacing * _ZOOM, phi + spacing * _ZOOM)"
_ZOOM_GRID = ("_ZOOM, _ZOOM_SPACING = np.linspace(-1.0, 1.0, _ZOOM_POINTS, retstep=True)  "
              "# in half-widths")
_REVERSED = ("the zoom offsets are exactly symmetric, so the grid holds the same points in the "
             "reverse order, and argmax differs only between two equal values; " + _OTHER_PATH)
ALLOWED.update({
    ("correlations.py", "_SEED_STEPS = 360  # the seed grid's steps per turn of theta and of phi",
     "`_SEED_STEPS = 360`: 360 -> 361"): f"a finer seed grid; {_OTHER_PATH}",
    ("correlations.py", "_ZOOM_POINTS = 9  # per angle of each re-centred grid",
     "`_ZOOM_POINTS = 9`: 9 -> 10"): f"a finer zoom grid; {_OTHER_PATH}",
    ("correlations.py", _ZOOM_GRID, "`np.linspace(-1.0, 1.0, _ZOOM_POINTS, retstep=True)`: "
     "1.0 -> 2.0"): f"a zoom grid reaching 2 half-widths on one side; {_OTHER_PATH}",
    ("correlations.py", _ZOOM_GRID, "`-1.0`: 1.0 -> 2.0"):
        f"a zoom grid reaching 2 half-widths on one side; {_OTHER_PATH}",
    ("correlations.py", "_SEED_THETA = _SEED_PHI[_SEED_PHI <= math.pi]  # both poles",
     "`_SEED_PHI <= math.pi`: <= -> <"):
        "drops only the pole theta = pi, whose axis is minus that of theta = 0: the same "
        "measurement (the oracle's bits did not move on any of the tests' states)",
    ("correlations.py", _ZOOM_LINE, "`theta + spacing * _ZOOM`: + -> -"): _REVERSED,
    ("correlations.py", _ZOOM_LINE, "`phi + spacing * _ZOOM`: + -> -"): _REVERSED,
    ("correlations.py", 'plus = 0.5 * (rho1[None, :, :] + np.einsum("na,aij->nij", axes, kvec))',
     "`rho1[None, :, :] + np.einsum('na,aij->nij', axes, kvec)`: + -> -"):
        "evaluates J(-n) at n, bit for bit: the measurement along -n is the one along n with "
        f"its two branches swapped; {_OTHER_PATH}",
    ("correlations.py", "if spacing < _ZOOM_STOP:", "`spacing < _ZOOM_STOP`: < -> <="):
        "a tie: the spacing is 2 pi/360 over a power of 4, never exactly 1e-9",
    ("correlations.py", "_ROOT_MEMO_SIZE = 32", "`_ROOT_MEMO_SIZE = 32`: 32 -> 33"):
        "the memo's size sets how many r it keeps, never a value (a warm memo gives the cold "
        "bits, a test checks, and the test of its bound reads the size)",
    ("correlations.py", "if not KB_MEV_PER_K * lowest >= sys.float_info.min:",
     "`KB_MEV_PER_K * lowest >= sys.float_info.min`: >= -> >"):
        "a tie: differs only where kB times the lowest temperature is exactly 2^-1022",
    ("correlations.py",
     "expm1=math.expm1, maximum=lambda a, b: a if a > b else b, xlog1p=_xlog1p_floats",
     "`a > b`: > -> >="):
        "a tie: at a == b both are the same float, since no argument is -0.0 (each is an abs, "
        "0.0, or |c_perp| minus a number >= 0), and a NaN fails both comparisons",
    ("correlations.py",
     "return ThermalPanel(T, *bell_panel(c_perp, c_z, model.J / gap if gap > 0.0 else 0.0))",
     "`model.J / gap if gap > 0.0 else 0.0`: 0.0 -> 1.0"):
        "g = 0 only at J = D = 0, where the four levels are degenerate and c_perp is exactly "
        "+0.0, so r multiplies 0 and every column keeps its bits",
})

_FLIPPED = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}


def mutation_sites(tree):
    """(node index in ast.walk order, slot, description, line number) for
    every mutant.  A literal's description names the expression around it,
    so that two literals of one line are told apart; a literal that adding
    1 does not change (1e16, inf) makes no mutant."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    sites = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for slot, op in enumerate(node.ops):
                if type(op) in _FLIPPED:
                    new = _FLIPPED[type(op)]
                    pair = f"{ast.unparse(operands[slot])} {_SYMBOL[type(op)]} {ast.unparse(operands[slot + 1])}"
                    sites.append((index, slot, f"`{pair}`: {_SYMBOL[type(op)]} -> {_SYMBOL[new]}",
                                  node.lineno))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPPED:
            new = _SWAPPED[type(node.op)]
            sites.append((index, None, f"`{ast.unparse(node)}`: {_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}",
                          node.lineno))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and not isinstance(node.value, bool) and node.value + 1 != node.value):
            sites.append((index, None, f"`{ast.unparse(parents[node])}`: {node.value!r} -> "
                          f"{node.value + 1!r}", node.lineno))
    return sites


def mutants(path):
    """The module's syntax tree, its mutation sites, and each site's key as
    ALLOWED spells it: (file name, stripped source line, description)."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    sites = mutation_sites(tree)
    keys = [(path.name, lines[lineno - 1].strip(), description)
            for _, _, description, lineno in sites]
    return tree, sites, keys


def mutant_source(tree, index, slot):
    """The module's source with the mutation at (index, slot) applied."""
    mutated = copy.deepcopy(tree)
    node = list(ast.walk(mutated))[index]
    if isinstance(node, ast.Compare):
        node.ops[slot] = _FLIPPED[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _SWAPPED[type(node.op)]()
    return ast.unparse(mutated)


def defined_names(tree):
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def imports_module(path, module, names):
    """True if the file imports dimercorr.<module>, or the module or one of
    its names from the package."""
    dotted = f"dimercorr.{module}"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name == dotted for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
            node.module == dotted
            or node.module == "dimercorr"
            and any(a.name == module or a.name in names for a in node.names)
        ):
            return True
    return False


class Runs:
    """The test runs under way, so that a stop can kill them: a signal
    reaches only the main thread, which waits on the workers' results."""

    def __init__(self):
        self._lock = threading.Lock()
        self._running = set()
        self._stopped = False

    def run(self, tree_copy, tests):
        """"passed", "failed" or "timeout": the tests in tree_copy, run for
        at most TIMEOUT_S; "stopped" once stop() has been called."""
        env = dict(os.environ, PYTHONPATH=str(tree_copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--hypothesis-profile=mutate", "--deselect", DESELECTED, *tests]
        with self._lock:
            if self._stopped:
                return "stopped"
            process = subprocess.Popen(command, cwd=tree_copy, env=env,
                                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            self._running.add(process)
        try:
            return "passed" if process.wait(timeout=TIMEOUT_S) == 0 else "failed"
        except subprocess.TimeoutExpired:
            return "timeout"
        finally:  # a timeout, or a signal in the main thread's own run, leaves it running
            process.kill()  # a no-op on a finished process
            process.wait()
            with self._lock:
                self._running.discard(process)

    def stop(self):
        """Kill the runs under way and start no more."""
        with self._lock:
            self._stopped = True
            for process in self._running:
                process.kill()


def _exit_on_signal(signum, frame):
    """A signal as an exit of the main thread, which unwinds its `with`
    blocks as a normal exit does."""
    sys.exit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/dimercorr, e.g. src/dimercorr/numerics.py")
    args = parser.parse_args()
    probe_start = time.monotonic()
    path = pathlib.Path(args.module).resolve()
    tree, sites, keys = mutants(path)
    names = defined_names(tree)
    # The module's own test file first: most mutants fail there, and -x
    # then stops before the other files run.
    tests = [test.relative_to(ROOT).as_posix()
             for test in sorted((ROOT / "tests").glob("test_*.py"),
                                key=lambda test: (test.name != f"test_{path.stem}.py", test.name))
             if imports_module(test, path.stem, names)]
    stale = [key for key in ALLOWED if key[0] == path.name and key not in keys]
    workers = len(os.sched_getaffinity(0))
    print(f"{path.name}: tests {' '.join(tests)}; {workers} workers", flush=True)
    for signum in (signal.SIGTERM, signal.SIGINT):  # SIGINT too where a shell ignores it
        signal.signal(signum, _exit_on_signal)
    runs = Runs()
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
        copies = queue.Queue()
        for worker in range(workers):
            tree_copy = pathlib.Path(scratch) / str(worker)
            shutil.copytree(ROOT, tree_copy, ignore=ignore)
            copies.put(tree_copy)
        if runs.run(tree_copy, tests) != "passed":
            sys.exit(f"the tests fail on the unmutated {path.name}")

        def run_mutant(site):
            index, slot = site[:2]
            tree_copy = copies.get()
            try:
                (tree_copy / path.relative_to(ROOT)).write_text(mutant_source(tree, index, slot))
                start = time.monotonic()
                return runs.run(tree_copy, tests), time.monotonic() - start
            finally:
                copies.put(tree_copy)

        survivors, allowed, spent, timeouts = [], [], [], 0
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            outcomes = pool.map(run_mutant, sites)
            try:
                for number, ((_, _, description, lineno), key, (outcome, seconds)) in enumerate(
                        zip(sites, keys, outcomes), 1):
                    verdict = "killed"
                    if outcome == "timeout":
                        verdict = "killed by timeout"
                        timeouts += 1
                    elif outcome == "passed" and key in ALLOWED:
                        verdict = "allowed"
                        allowed.append((lineno, key))
                    elif outcome == "passed":
                        verdict = "SURVIVED"
                        survivors.append((lineno, key))
                    if key in ALLOWED and verdict != "allowed":
                        spent.append((lineno, key))
                    print(f"[{number}/{len(sites)}] line {lineno}: {description}: {verdict} "
                          f"({seconds:.0f} s)", flush=True)
            except BaseException:  # a signal: stop, then leave through the `with` exits
                pool.shutdown(wait=False, cancel_futures=True)
                runs.stop()
                raise
    print(f"{path.name}: {len(sites)} mutants, {len(sites) - len(survivors) - len(allowed)} "
          f"killed ({timeouts} by timeout), {len(survivors)} survivors, "
          f"{len(allowed)} allow-listed, {len(stale)} stale and {len(spent)} spent allow-list "
          f"entries, in {time.monotonic() - probe_start:.0f} s")
    for lineno, (_, line, description) in survivors:
        print(f"  survivor line {lineno}: {description}: {line}")
    for lineno, key in allowed:
        print(f"  allowed line {lineno}: {key[2]}: {key[1]} ({ALLOWED[key]})")
    for _, line, description in stale:
        print(f"  stale allow-list entry, no such mutant: {description}: {line}")
    for lineno, (_, line, description) in spent:
        print(f"  spent allow-list entry, its mutant killed, line {lineno}: {description}: {line}")
    sys.exit(1 if survivors or stale else 0)


if __name__ == "__main__":
    main()
