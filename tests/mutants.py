"""Mutation runner: which one-token changes to a module do its tests not notice?

Usage, from the repository root::

    python tests/mutants.py src/pneuctrl/mpc.py
    python tests/mutants.py --changed-since origin/main src/pneuctrl/mpc.py tests/test_mpc.py

A mutant changes one site inside a function body of MODULE: it flips a
comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), swaps
``+`` with ``-`` or ``*`` with ``/`` (also in ``+=`` and the like), or adds 1
to an integer constant 0, 1 or 2.  The token is replaced in the source text,
so every other line and its number stay as they are.  For each mutant the
runner runs ``pytest -x`` on the TESTs, by default the module's entry in
``TESTS``, and a mutant whose run fails (or
exceeds ten times the unmutated run's time plus 10 s) is killed.  It prints
each survivor's function, line and change, and its run's time as a multiple
of the unmutated run's, marked slow past ``SLOW``: a mutant that makes a
small function far slower can survive the time limit with its tests still
passing.  Then it prints the kill ratio (Jia & Harman,
"An analysis and survey of the development of mutation testing", IEEE TSE
37(5), 2011).

Everything runs in a temporary copy of the repository, under which the
tests import the mutated ``src``; the checkout is never written, so there
is nothing to restore after an error or an interrupt.  ``--changed-since
REV`` keeps only the sites on lines that ``git diff REV`` adds or changes.
It exits 0 whatever survives: it reports, it does not gate.  pytest does
not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

COMPARISONS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
               ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
SLOW = 3.0   # a survivor whose run takes more than this multiple of the unmutated run's is marked slow
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench-work")
# The test files that cover each module: those named after it, and those that check its exactness claims.
TESTS = {
    "src/pneuctrl/cli.py": ["tests/test_cli_contracts.py", "tests/test_config_cli.py"],
    "src/pneuctrl/config.py": ["tests/test_config_cli.py", "tests/test_config_defaults.py"],
    "src/pneuctrl/control.py": ["tests/test_control.py", "tests/test_tick_exactness.py"],
    "src/pneuctrl/experiment.py": ["tests/test_experiment.py", "tests/test_experiment_edges.py",
                                   "tests/test_loop_exactness.py", "tests/test_golden_exactness.py"],
    "src/pneuctrl/mpc.py": ["tests/test_mpc_bands.py", "tests/test_mpc.py", "tests/test_exactness.py"],
    "src/pneuctrl/optim.py": ["tests/test_exactness.py", "tests/test_sysid_exactness.py"],
    "src/pneuctrl/plant.py": ["tests/test_plant.py", "tests/test_held_step.py", "tests/test_exactness.py"],
    "src/pneuctrl/sysid.py": ["tests/test_sysid.py", "tests/test_sysid_exactness.py", "tests/test_trace_csv.py"],
    "src/pneuctrl/valvemap.py": ["tests/test_valvemap.py"],
}


@dataclass(frozen=True)
class Mutant:
    function: str
    line: int
    start: int   # offset of the replaced token in the module's text
    old: str
    new: str

    def apply(self, text: str) -> str:
        assert text[self.start:self.start + len(self.old)] == self.old
        return text[:self.start] + self.new + text[self.start + len(self.old):]


def _offsets(text: str) -> list[int]:
    """The text offset of each line's start, by 1-based line number."""
    starts = [0, 0]
    for line in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator(text: str, starts: list[int], left: ast.AST, right: ast.AST, token: str) -> int | None:
    """The offset of ``token`` between the end of ``left`` and the start of ``right``, if that is all there is."""
    a = starts[left.end_lineno] + left.end_col_offset
    b = starts[right.lineno] + right.col_offset
    gap = text[a:b]
    if re.fullmatch(r"[\s()\\]*" + re.escape(token) + r"[\s()\\]*", gap):
        return a + gap.index(token)
    return None


def mutants(text: str) -> list[Mutant]:
    """Every mutant of ``text``'s function bodies, in source order."""
    starts, found = _offsets(text), []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, ast.JoinedStr):
            return   # positions inside f-strings are not reliable across versions
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                visit(stmt, node.name)
            return
        if function:
            found.extend(_sites(node, function, text, starts))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(text), "")
    return sorted(set(found), key=lambda m: m.start)


def _sites(node: ast.AST, function: str, text: str, starts: list[int]) -> list[Mutant]:
    pairs = []   # (left, right, token, replacement)
    if isinstance(node, ast.Compare):
        for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) in COMPARISONS:
                pairs.append((left, right, *COMPARISONS[type(op)]))
    elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
        pairs.append((node.left, node.right, *ARITHMETIC[type(node.op)]))
    elif isinstance(node, ast.AugAssign) and type(node.op) in ARITHMETIC:
        old, new = ARITHMETIC[type(node.op)]
        pairs.append((node.target, node.value, old + "=", new + "="))
    elif (isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 2
          and node.lineno == node.end_lineno):
        start = starts[node.lineno] + node.col_offset
        old = text[start:starts[node.lineno] + node.end_col_offset]
        if old == str(node.value):
            return [Mutant(function, node.lineno, start, old, str(node.value + 1))]
    sites = []
    for left, right, old, new in pairs:
        start = _operator(text, starts, left, right, old)
        if start is not None:
            sites.append(Mutant(function, text.count("\n", 0, start) + 1, start, old, new))
    return sites


def changed_lines(rev: str, path: Path) -> set[int]:
    """The lines of ``path`` that ``git diff rev`` adds or changes."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", path.name], cwd=path.parent, capture_output=True, text=True,
                          check=True)
    lines = set()
    for start, count in re.findall(r"^@@ -\S+ \+(\d+)(?:,(\d+))? @@", diff.stdout, flags=re.M):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def _run_tests(copy: Path, tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """Whether ``pytest -x`` passes ``tests`` in ``copy``, and how long it took; a timeout is a failure."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy / "src"), os.environ.get("PYTHONPATH", "")]))
    # -B: a mutant of the same size written within a second of the last could
    # otherwise be imported from the last one's cached bytecode.
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    began = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - began
    return done.returncode == 0, time.perf_counter() - began


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, a path under the repository root")
    parser.add_argument("tests", nargs="*", help="the test files or ids to run, as paths under the root; "
                        "by default the module's entry in TESTS")
    parser.add_argument("--changed-since", metavar="REV", help="mutate only lines that git diff REV adds or changes")
    args = parser.parse_args(argv)

    root = Path.cwd()
    module = Path(args.module).resolve().relative_to(root)
    tests = args.tests or TESTS.get(module.as_posix())
    if not tests:
        parser.error(f"{module} has no entry in TESTS: name its test files")
    text = (root / module).read_text()
    sites = mutants(text)
    if args.changed_since:
        lines = changed_lines(args.changed_since, root / module)
        sites = [m for m in sites if m.line in lines]
    print(f"{module}: {len(sites)} mutants")
    if not sites:
        return 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        copy = Path(work) / "repo"
        shutil.copytree(root, copy, ignore=IGNORED)
        passed, seconds = _run_tests(copy, tests, None)
        if not passed:
            print("the tests fail on the unmutated module; no mutant was run")
            return 1
        source, survivors = text.splitlines(), []
        for mutant in sites:
            (copy / module).write_text(mutant.apply(text))
            passed, took = _run_tests(copy, tests, 10.0 * seconds + 10.0)
            if passed:
                survivors.append(mutant)
                column = mutant.start - text.rfind("\n", 0, mutant.start)
                ratio = took / seconds
                print(f"survived{' (slow)' if ratio > SLOW else ''}: {mutant.function}, line {mutant.line} column "
                      f"{column}, {mutant.old} -> {mutant.new}, {ratio:.1f}x the time:  "
                      f"{source[mutant.line - 1].strip()}", flush=True)
    killed = len(sites) - len(survivors)
    print(f"killed {killed} of {len(sites)} mutants ({100.0 * killed / len(sites):.1f} %), {len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
