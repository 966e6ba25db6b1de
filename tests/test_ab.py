"""The A/B harness, ``tests/ab.py``, on a fixture repository of two commits.

The fixture holds this repository's package, ``tests/mpc_reference.py`` and
``perfbench/inputs.py``.  Against its own commit every check reports equal;
a changed MPC constant shows under ``solutions``, a changed PID gain under
``trajectories``.  Each check runs at a reduced size: one seed, short runs and
a short identification protocol, one timing round of the solves and two of
the 0.5 s runs.  The fixture's checkout is the same after every run.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

import ab

ROOT = Path(__file__).resolve().parents[1]
# Segments of 0.2 s: a protocol that identifies in a fraction of a second.
SHORT_PROTOCOL = {"rise_s": 0.2, "decay_s": 0.2, "full_open_s": 0.2, "full_decay_s": 0.2}


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo), *args],
                          check=True, capture_output=True, text=True).stdout


@pytest.fixture
def repo(tmp_path):
    shutil.copytree(ROOT / "src" / "pneuctrl", tmp_path / "src" / "pneuctrl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for part in ("tests/mpc_reference.py", "perfbench/inputs.py"):
        (tmp_path / part).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / part, tmp_path / part)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    return tmp_path


def _commit_change(repo, path, old, new):
    """The second commit: ``old`` replaced by ``new`` once in ``path``."""
    text = (repo / path).read_text()
    assert text.count(old) == 1
    (repo / path).write_text(text.replace(old, new))
    _git(repo, "commit", "-q", "-am", "change")


def _reports(out):
    """Each report's heading, up to " against base", and its lines and table rows as cells, header rows dropped."""
    reports = {}
    for part in out.split("#### ")[1:]:
        heading, *lines = part.splitlines()
        rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines if line.startswith("|")]
        reports[heading.split(" against base")[0]] = (lines, rows[2:])
    return reports


def test_against_its_own_commit_every_check_reports_equal(repo, capsys):
    with ab.extract("HEAD", repo) as sides:
        ab.solutions(sides, seeds=[1])
        ab.trajectories(sides, seeds=[0], duration=0.5)
        ab.work(sides)
        ab.memory(sides, duration=0.5, synthesis=SHORT_PROTOCOL)
        ab.solve_time(sides, rounds=1)
        ab.run_time(sides, duration=0.5, rounds=2)
    out = capsys.readouterr().out
    rev = _git(repo, "rev-parse", "--short=7", "HEAD").strip()
    assert out.startswith(f"#### MPC solutions against base {rev}\n")
    reports = _reports(out)
    assert "138 solves, (u_seq, m_seq, cost.hex(), iterations): all equal." in reports["MPC solutions"][0]
    assert "8 trajectory CSVs, every column but ct_us: all equal." in reports["Closed-loop trajectories"][0]
    # The work counters do not depend on the machine: each head row equals the base row below it.
    work = reports["MPC held steps per solve (23 mpc-solve problems)"][1]
    assert [row[:2] for row in work] == [[f"{name}, {load}", side] for load in ("fixed", "affine-bellow")
                                         for name in ("mi-nmpc", "nmpc") for side in ("head", "base")]
    assert all(head[2:] == base[2:] for head, base in zip(work[::2], work[1::2]))
    memory = reports["Run memory"][1]
    assert [row[:3] for row in memory[:4]] == [[name, side, "50"] for name in ("dm-smc", "pid")
                                               for side in ("head", "base")]   # 0.5 s at 100 Hz
    assert [row[:3] for row in memory[4:]] == [["sysid --mode deflation, exit 0", side, "-"]
                                               for side in ("head", "base")]
    assert all(float(row[3]) > 0.0 for row in memory)
    assert [row[:2] for row in reports["MPC solve time"][1]] == [["mi-nmpc", "23"], ["nmpc", "23"]]
    assert [row[:2] for row in reports["Closed-loop run time"][1]] == [
        [f"{name}, {scenario}", "2"] for scenario in ("multi-step", "bellow sinusoid") for name in ("pid", "dm-smc")]
    assert all(float(row[2]) > 0.0 for row in reports["Closed-loop run time"][1])
    assert _git(repo, "status", "--porcelain", "--ignored") == ""


def test_a_changed_mpc_constant_is_reported_under_solutions(repo, capsys):
    _commit_change(repo, "src/pneuctrl/mpc.py", "GRID_FRACTIONS = 21", "GRID_FRACTIONS = 22")
    with ab.extract("HEAD~1", repo) as sides:
        ab.solutions(sides, seeds=[1])
    lines = capsys.readouterr().out.splitlines()
    verdict = next(line for line in lines if line.startswith("138 solves, "))
    assert " differ; the first: fixed load, seed 1 problem " in verdict and ": 0 differ" not in verdict


def test_a_changed_closed_loop_output_is_reported_under_trajectories(repo, capsys):
    _commit_change(repo, "src/pneuctrl/config.py", '"k_p": 0.32', '"k_p": 0.33')
    with ab.extract("HEAD~1", repo) as sides:
        ab.trajectories(sides, seeds=[0], duration=0.5)
        ab.solutions(sides, seeds=[1])
    out = capsys.readouterr().out
    assert "8 trajectory CSVs, every column but ct_us: 2 differ; the first: multi-step seed 0, pid." in out
    assert "138 solves, (u_seq, m_seq, cost.hex(), iterations): all equal." in out


def test_a_base_that_cannot_be_extracted_exits_1(repo, monkeypatch):
    monkeypatch.chdir(repo)
    with pytest.raises(SystemExit) as exit:
        ab.main(["--base", "no-such-rev", "memory"])
    assert str(exit.value.code).startswith("ab: git archive --prefix=base/ -o ")   # exit status 1, with the message
