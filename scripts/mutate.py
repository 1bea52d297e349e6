#!/usr/bin/env python3
"""Mutation probe: which lines of a module of src/dimercorr no test depends on.

For one module it makes each mutant in turn:
- each comparison flipped (< and <=, > and >=, == and !=, in and not in,
  is and is not);
- + and - swapped, and * and /, in expressions and augmented assignments;
- each numeric literal plus 1.

Each mutant is written, one at a time, into a temporary copy of the tree
(without .git, caches and bench/out), and the test files that import
the module, or a name it defines, run there under `pytest -x`.  A failing
run kills the mutant, and so does a run that outlasts the per-mutant
timeout.  The unmutated module must pass first.

Acceptance criterion 04 fails by design (README), so `-x` would stop on it
for every mutant and kill them all: this script deselects it inside its own
runs, and nowhere else.  Mutants that move no root of any function and no
output of the package are listed with the reason in ALLOWED; they are
reported but not counted as survivors.

This is not a tier-1 test: each mutant costs a test run.  Usage:

    python scripts/mutate.py src/dimercorr/numerics.py

It prints one line per mutant and the survivors by line, and exits 1 if
any mutant outside ALLOWED survives.
"""

import argparse
import ast
import copy
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
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
    """(node index in ast.walk order, slot, description) for every mutant."""
    sites = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for slot, op in enumerate(node.ops):
                if type(op) in _FLIPPED:
                    new = _FLIPPED[type(op)]
                    pair = f"{ast.unparse(operands[slot])} {_SYMBOL[type(op)]} {ast.unparse(operands[slot + 1])}"
                    sites.append((index, slot, f"`{pair}`: {_SYMBOL[type(op)]} -> {_SYMBOL[new]}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPPED:
            new = _SWAPPED[type(node.op)]
            sites.append((index, None, f"`{ast.unparse(node)}`: {_SYMBOL[type(node.op)]} -> {_SYMBOL[new]}"))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
              and not isinstance(node.value, bool)):
            sites.append((index, None, f"{node.value!r} -> {node.value + 1!r}"))
    return sites


def mutant_source(tree, index, slot):
    """The module's source with the mutation at (index, slot) applied, and
    the line it is on."""
    mutated = copy.deepcopy(tree)
    node = list(ast.walk(mutated))[index]
    if isinstance(node, ast.Compare):
        node.ops[slot] = _FLIPPED[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _SWAPPED[type(node.op)]()
    return ast.unparse(mutated), node.lineno


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


def run_tests(tree_copy, tests):
    """True if the tests pass in tree_copy within TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(tree_copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--deselect", DESELECTED, *tests]
    try:
        result = subprocess.run(command, cwd=tree_copy, env=env, capture_output=True,
                                timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/dimercorr, e.g. src/dimercorr/numerics.py")
    args = parser.parse_args()
    path = pathlib.Path(args.module).resolve()
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    names = defined_names(tree)
    tests = [test.relative_to(ROOT).as_posix()
             for test in sorted((ROOT / "tests").glob("test_*.py"))
             if imports_module(test, path.stem, names)]
    print(f"{path.name}: tests {' '.join(tests)}", flush=True)
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        tree_copy = pathlib.Path(scratch)
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")
        shutil.copytree(ROOT, tree_copy, ignore=ignore, dirs_exist_ok=True)
        target = tree_copy / path.relative_to(ROOT)
        if not run_tests(tree_copy, tests):
            sys.exit(f"the tests fail on the unmutated {path.name}")
        sites = mutation_sites(tree)
        survivors, allowed = [], []
        for number, (index, slot, description) in enumerate(sites, 1):
            mutated, lineno = mutant_source(tree, index, slot)
            target.write_text(mutated)
            start = time.monotonic()
            killed = not run_tests(tree_copy, tests)
            line = lines[lineno - 1].strip()
            verdict = "killed" if killed else "SURVIVED"
            if not killed and (path.name, line, description) in ALLOWED:
                verdict = "allowed"
                allowed.append((lineno, description, line))
            elif not killed:
                survivors.append((lineno, description, line))
            print(f"[{number}/{len(sites)}] line {lineno}: {description}: {verdict} "
                  f"({time.monotonic() - start:.0f} s)", flush=True)
        target.write_text(source)
    print(f"{path.name}: {len(sites)} mutants, {len(survivors)} survivors, "
          f"{len(allowed)} allow-listed")
    for lineno, description, line in survivors:
        print(f"  survivor line {lineno}: {description}: {line}")
    for lineno, description, line in allowed:
        reason = ALLOWED[(path.name, line, description)]
        print(f"  allowed line {lineno}: {description}: {line} ({reason})")
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()
