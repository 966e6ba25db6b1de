"""Mutation runner: which one-token changes to a module do its tests not notice?

Usage, from the repository root::

    python tests/mutants.py src/pneuctrl/mpc.py
    python tests/mutants.py --changed-since origin/main src/pneuctrl/mpc.py tests/test_mpc.py
    python tests/mutants.py --templates src/pneuctrl/plant.py

A mutant changes one site inside a function body of MODULE: it flips a
comparison (``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``), swaps
``+`` with ``-`` or ``*`` with ``/`` (also in ``+=`` and the like), or adds 1
to an integer constant 0, 1 or 2.  The token is replaced in the source text,
so every other line and its number stay as they are.  ``--templates``
makes the same changes inside the string literals that hold the source of
code the module generates and runs (its entry in ``TEMPLATES``) in place of
its function bodies: between two operands, a comparison or ``+ - * /``; any
augmented assignment; a whole-number token 0, 1 or 2.  A literal's
``$name`` and f-string fields are left as they are.  For each mutant the
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
import io
import keyword
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
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

# The literals holding each module's generated code, by the name of the module-level assignment or function that
# holds them; docstrings and whatever an f-string field holds are not template text.
TEMPLATES = {
    "src/pneuctrl/plant.py": ("_SHAPE", "_FLOWS", "_BRANCH_FLOWS", "_STEP", "_WALK", "_ADVANCE", "_RATE", "_BELLOW",
                              "_LEAK", "_MAIN", "_variant"),
}
# In template text: an operator flipped between two operands, and one flipped anywhere.
BINARY = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "+": "-", "-": "+", "*": "/", "/": "*"}
AUGMENTED = {"+=": "-=", "-=": "+=", "*=": "/=", "/=": "*="}


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


def template_mutants(text: str, names) -> list[Mutant]:
    """Every mutant inside the string literals of the module-level assignments to, or functions named, ``names``."""
    starts, found = _offsets(text), []
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef):
            held = [node.name]
        elif isinstance(node, ast.Assign):
            held = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        name = next((h for h in held if h in names), None)
        if name is None:
            continue
        skip = set()   # docstrings, and every node inside an f-string, whose whole literal is scanned
        for inner in ast.walk(node):
            if isinstance(inner, ast.JoinedStr):
                skip.update(id(n) for n in ast.walk(inner) if n is not inner)
            elif isinstance(inner, ast.FunctionDef) and ast.get_docstring(inner, clean=False) is not None:
                skip.add(id(inner.body[0].value))
        for literal in ast.walk(node):
            if id(literal) not in skip and (isinstance(literal, ast.JoinedStr) or (
                    isinstance(literal, ast.Constant) and isinstance(literal.value, str))):
                start = starts[literal.lineno] + literal.col_offset
                found.extend(_literal_sites(text, start, starts[literal.end_lineno] + literal.end_col_offset, name))
    return sorted(set(found), key=lambda m: m.start)


def _literal_sites(text: str, start: int, end: int, name: str) -> list[Mutant]:
    """The mutants of one string literal, ``text[start:end]``, its prefix and quotes included."""
    prefix, quote = re.match(r"([a-zA-Z]*)(\"\"\"|'''|\"|')", text[start:end]).groups()
    first = start + len(prefix) + len(quote)
    body = _mask(text[first:end - len(quote)], "f" in prefix.lower())
    sites, line_start = [], first
    for line in body.split("\n"):
        tokens = _tokens(line)
        for i, (kind, token, column) in enumerate(tokens):
            at = line_start + column
            before = tokens[i - 1] if i else None
            after = tokens[i + 1] if i + 1 < len(tokens) else None
            if token in AUGMENTED:
                new = AUGMENTED[token]
            elif token in BINARY and _operand(before, ")", "]", "}") and _operand(after, "(", "[", "{", "-", "+", "~"):
                new = BINARY[token]
            elif kind == tokenize.NUMBER and token in ("0", "1", "2"):
                new = str(int(token) + 1)
            else:
                continue
            sites.append(Mutant(name, text.count("\n", 0, at) + 1, at, token, new))
        line_start += len(line) + 1
    return sites


def _mask(body: str, fstring: bool) -> str:
    """``body`` at the same length with what is not template code blanked: each escape (``\\n`` as ``;``, a line
    break between two statements), each ``$`` as ``_``, each f-string field as a name and ``{{``, ``}}`` as blanks."""
    out, i = list(body), 0
    while i < len(body):
        if body[i] == "\\":
            after = body[i + 1:i + 2]
            out[i:i + 2] = (";", " ") if after == "n" else (" ", after) if after == "\n" else (" ", " ")
            i += 2
        elif body[i] == "$":
            out[i] = "_"
            i += 1
        elif fstring and body.startswith(("{{", "}}"), i):
            out[i:i + 2] = (" ", " ")
            i += 2
        elif fstring and body[i] == "{":
            depth, j, quote = 1, i + 1, None
            while depth:
                c = body[j]
                if quote:
                    quote = None if c == quote else quote
                elif c in "\"'":
                    quote = c
                else:
                    depth += (c == "{") - (c == "}")
                j += 1
            out[i:j] = "_" * (j - i)
            i = j
        else:
            i += 1
    return "".join(out)


def _tokens(line: str) -> list[tuple[int, str, int]]:
    """The significant tokens of one line of template code, each (type, text, column); up to an error, if any."""
    tokens = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(line).readline):
            if tok.type in (tokenize.NAME, tokenize.NUMBER, tokenize.STRING, tokenize.OP):
                tokens.append((tok.type, tok.string, tok.start[1]))
    except (tokenize.TokenError, SyntaxError):
        pass
    return tokens


def _operand(token, *brackets: str) -> bool:
    """Whether ``token`` is one of ``brackets``, a number, a string, or a name that is not a keyword."""
    return token is not None and (token[1] in brackets or token[0] in (tokenize.NUMBER, tokenize.STRING)
                                  or (token[0] == tokenize.NAME and not keyword.iskeyword(token[1])))


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
    parser.add_argument("--templates", action="store_true",
                        help="mutate the module's generated-code literals (its TEMPLATES entry), not its functions")
    args = parser.parse_args(argv)

    root = Path.cwd()
    module = Path(args.module).resolve().relative_to(root)
    tests = args.tests or TESTS.get(module.as_posix())
    if not tests:
        parser.error(f"{module} has no entry in TESTS: name its test files")
    text = (root / module).read_text()
    sites = template_mutants(text, TEMPLATES.get(module.as_posix(), ())) if args.templates else mutants(text)
    if args.changed_since:
        lines = changed_lines(args.changed_since, root / module)
        sites = [m for m in sites if m.line in lines]
    print(f"{module}: {len(sites)} mutants{' in its templates' if args.templates else ''}")
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
