"""The mutation runner, ``tests/mutants.py``, on a two-function fixture repository.

``add``'s ``+`` is a mutant its test kills; ``clamp``'s ``<`` to ``<=`` is
equivalent (at ``x == hi`` both branches give ``hi``), so it survives.  A
mutant that only slows its test survives too, marked slow.  The
runner works in a copy: the fixture's files are the same after a run, and
after one that an interrupt stops.  Its table gives each module of the
package the test files that cover it.  With ``--templates`` it mutates the
code a module generates from string literals, in a fixture that builds
``add`` and ``clamp`` so.
"""

import re
import subprocess
import textwrap
from pathlib import Path

import pytest

import mutants

MODULE = textwrap.dedent("""\
    def add(a, b):
        return a + b


    def clamp(x, hi):
        return x if x < hi else hi
    """)
TESTS = textwrap.dedent("""\
    from fixmod import add, clamp


    def test_add():
        assert add(2, 3) == 5


    def test_clamp():
        assert clamp(1, 2) == 1 and clamp(3, 2) == 2
    """)


# The same two functions generated from templates: a Template's $name and an f-string's field are not code.
TEMPLATE_MODULE = "\n".join([
    "from string import Template",
    "",
    '_ADD = Template("""\\',
    "def $name(a, b):",
    "    return a + b",
    '""")',
    "_CLAMP = f\"x if x < hi else {'hi'}\"",
    "",
    "",
    "def clamp(x, hi):",
    '    """x if x < hi, else hi."""',
    "    return eval(_CLAMP)",
    "",
    "",
    'exec(_ADD.substitute(name="add"))',
    "",
])


@pytest.fixture
def repo(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "fixmod.py").write_text(MODULE)
    (tmp_path / "tests" / "test_fixmod.py").write_text(TESTS)
    return tmp_path


def _run(*options):
    return mutants.main([*options, "src/fixmod.py", "tests/test_fixmod.py"])


def test_the_sites_are_the_operators_and_small_constants_of_function_bodies():
    text = "LIMIT = 1\n\n\ndef f(x, y=2):\n    if x <= 0:\n        x -= 1\n    return x * y + 3\n"
    found = [(m.function, m.line, m.old, m.new) for m in mutants.mutants(text)]
    assert found == [("f", 5, "<=", "<"), ("f", 5, "0", "1"), ("f", 6, "-=", "+="), ("f", 6, "1", "2"),
                     ("f", 7, "*", "/"), ("f", 7, "+", "-")]
    # Each mutant changes its one token in place.
    assert mutants.mutants(text)[4].apply(text).splitlines()[6] == "    return x / y + 3"


def test_it_reports_the_survivor_and_kills_the_other_mutant(repo, capsys):
    assert _run() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/fixmod.py: 2 mutants"
    assert re.fullmatch(r"survived: clamp, line 6 column 19, < -> <=, \d+\.\dx the time:  return x if x < hi else hi",
                        out[1]), out[1]
    assert out[2] == "killed 1 of 2 mutants (50.0 %), 1 survived"
    assert (repo / "src" / "fixmod.py").read_text() == MODULE


def test_a_survivor_that_only_slows_its_test_is_marked_slow(repo, capsys):
    # 0 -> 1 sleeps 5 s, a run several times the unmutated one's but inside the kill limit; 0 / 5 sleeps 0 s.
    (repo / "src" / "fixmod.py").write_text("import time\n\n\ndef pause():\n    time.sleep(0 * 5)\n")
    (repo / "tests" / "test_fixmod.py").write_text("from fixmod import pause\n\n\ndef test_pause():\n    pause()\n")
    assert _run() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/fixmod.py: 2 mutants"
    line = r", (\d+\.\d)x the time:  time\.sleep\(0 \* 5\)"
    slow = re.fullmatch(r"survived \(slow\): pause, line 5 column 16, 0 -> 1" + line, out[1])
    assert slow and float(slow[1]) > mutants.SLOW, out
    assert re.fullmatch(r"survived: pause, line 5 column 18, \* -> /" + line, out[2]), out
    assert out[3] == "killed 0 of 2 mutants (0.0 %), 2 survived"


def test_templates_mutates_the_generated_code_not_the_functions(repo, monkeypatch, capsys):
    (repo / "src" / "fixmod.py").write_text(TEMPLATE_MODULE)
    monkeypatch.setattr(mutants, "TEMPLATES", {"src/fixmod.py": ("_ADD", "_CLAMP")})
    found = [(m.function, m.line, m.old, m.new) for m in mutants.template_mutants(TEMPLATE_MODULE, ("_ADD", "_CLAMP"))]
    # Not the $name, the docstring, the f-string's field, nor the function body's eval.
    assert found == [("_ADD", 5, "+", "-"), ("_CLAMP", 7, "<", "<=")]
    assert _run("--templates") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/fixmod.py: 2 mutants in its templates"
    assert re.fullmatch(r'survived: _CLAMP, line 7 column 19, < -> <=, \d+\.\dx the time:  _CLAMP = f"x if x < hi .*',
                        out[1]), out[1]
    assert out[2] == "killed 1 of 2 mutants (50.0 %), 1 survived"
    assert (repo / "src" / "fixmod.py").read_text() == TEMPLATE_MODULE
    assert mutants.mutants(TEMPLATE_MODULE) == []   # without --templates, nothing to mutate


def test_the_template_table_names_literals_that_hold_sites():
    root = Path(__file__).resolve().parents[1]
    for module, names in mutants.TEMPLATES.items():
        found = {m.function for m in mutants.template_mutants((root / module).read_text(), names)}
        assert found == set(names), module


def test_changed_since_keeps_only_the_changed_lines(repo, capsys):
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "fixture"], check=True)
    (repo / "src" / "fixmod.py").write_text(MODULE.replace("a + b", "b + a"))
    assert _run("--changed-since", "HEAD") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/fixmod.py: 1 mutants"
    assert out[-1] == "killed 1 of 1 mutants (100.0 %), 0 survived"


def test_an_interrupt_leaves_the_checkout_as_it_was(repo, monkeypatch):
    runs, run_tests = [], mutants._run_tests

    def interrupted(copy, tests, timeout):
        runs.append(copy)
        if len(runs) == 2:   # the first mutant, after the unmutated run
            raise KeyboardInterrupt
        return run_tests(copy, tests, timeout)

    monkeypatch.setattr(mutants, "_run_tests", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _run()
    assert (repo / "src" / "fixmod.py").read_text() == MODULE
    assert runs[0] != repo and not runs[0].exists()   # the copy it mutated is gone


def test_the_table_gives_each_module_its_named_and_exactness_tests(repo, monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    modules = sorted(f"src/pneuctrl/{p.name}" for p in (root / "src" / "pneuctrl").glob("*.py")
                     if mutants.mutants(p.read_text()))
    assert sorted(mutants.TESTS) == modules
    for module, tests in mutants.TESTS.items():
        named = sorted(f"tests/{p.name}" for p in (root / "tests").glob(f"test_{Path(module).stem}*.py"))
        assert set(named) <= set(tests) and all((root / test).is_file() for test in tests), module
    for module, test in [("plant", "held_step"), ("plant", "exactness"), ("mpc", "exactness"),
                         ("experiment", "loop_exactness"), ("experiment", "golden_exactness")]:
        assert f"tests/test_{test}.py" in mutants.TESTS[f"src/pneuctrl/{module}.py"]
    # A run that names no tests takes the module's entry.
    monkeypatch.setattr(mutants, "TESTS", {"src/fixmod.py": ["tests/test_fixmod.py"]})
    assert mutants.main(["src/fixmod.py"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "killed 1 of 2 mutants (50.0 %), 1 survived"
