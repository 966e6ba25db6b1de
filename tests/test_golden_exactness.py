"""Closed-loop runs, protocol synthesis and identification repeat a golden copy bit for bit.

``tests/golden/exactness_sha256.json`` holds the sha256 of each output below,
taken before the held RK4 step (``plant.rk4_hold``) replaced the per-call
kernel and before the CSV writers took their columns from ``.tolist()``.
The two identification digests were re-captured when the spool fit began
to censor deadband segments at the lower spool bound: their ``x_hat`` is
now exactly ``SPOOL_BRACKET[0]``; every other value they cover is unchanged.
The two MPC digests cover the first second of the default sinusoid, which
leaves atmosphere at once, so both solvers move the duty and MI-NMPC
switches modes.  They once covered the multi-step's first second, which
holds 0 kPa from atmosphere: both MPCs held the lowest duty throughout, and
their digests were equal and pinned almost nothing of either solver.
Every run is noiseless and uses only IEEE arithmetic and ``sqrt``, so the
digests are the same on every platform.  Left out: the identified spool
cubics, which come from LAPACK ``lstsq``, and the fit residuals, the square
roots of ``np.dot`` sums whose summation order is the BLAS library's.

To regenerate after a deliberate change of behaviour::

    PYTHONPATH=src python tests/test_golden_exactness.py > tests/golden/exactness_sha256.json
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pneuctrl import config as config_mod
from pneuctrl.experiment import run_scenario, write_trajectory_csv
from pneuctrl.plant import Mode
from pneuctrl.sysid import identify_channel, synthesize_protocol, write_trace_csv

GOLDEN = Path(__file__).parent / "golden" / "exactness_sha256.json"
# The default reference of each controller's run and its simulated seconds: the
# whole multi-step, or the sinusoid's first second for the MPC loops.
RUNS = {"dm-smc": ("multi-step", None), "pid": ("multi-step", None),
        "nmpc": ("sinusoid", 1.0), "mi-nmpc": ("sinusoid", 1.0)}


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _floats(values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


def trajectory_digests(name: str, out_dir: Path) -> dict:
    """The physical columns of a noiseless default run, as arrays and as CSV."""
    raw = config_mod.default_scenario_dict()
    raw["timing"]["noise_sigma_pa"] = 0.0
    raw["reference"]["kind"], raw["timing"]["duration_s"] = RUNS[name]
    scenario = config_mod.scenario_from_dict(dict(raw, controller=name))
    traj = run_scenario(
        scenario.reference, config_mod.CONTROLLERS[name](scenario), scenario.timing,
        scenario.plant, scenario.maps, scenario.load,
    )
    path = out_dir / f"{name}.csv"
    write_trajectory_csv(traj, path, scenario.plant.p_atm)
    # Every column but the last, ct_us, which is a wall-clock time.
    csv = "".join(line.rsplit(",", 1)[0] + "\n" for line in path.read_text(encoding="utf-8").splitlines())
    columns = [_floats(c) for c in (traj.t, traj.p_ref, traj.p_true, traj.p_meas, traj.u)]
    return {
        "columns": _sha(*columns, np.asarray(traj.mode, dtype="<i8").tobytes()),
        "csv": _sha(csv.encode()),
    }


def protocol_digests(out_dir: Path) -> dict:
    """The 260 noiseless synthesized traces, their CSV files, and what identification makes of them."""
    params, maps = config_mod.default_plant(), config_mod.default_maps()
    traces = synthesize_protocol(params, maps, out_dir=out_dir)
    files = sorted(out_dir.iterdir())
    out = {
        "traces": _sha(*(
            _floats(tr.t) + _floats(tr.p) + f"{tr.u1!r},{tr.u2!r},{tr.kind}".encode() for tr in traces
        )),
        "trace_csv": _sha(*(f.name.encode() + f.read_bytes() for f in files)),
        "n_traces": len(traces),
    }
    for mode in Mode:
        result = identify_channel(traces, mode, params)
        fits = [
            (name, fit.value.hex(), fit.iterations)
            for name, fit in ((result.leak_name, result.leak), (result.source_name, result.source))
        ]
        points = [(p.u.hex(), p.x_hat.hex(), p.at_bound) for p in result.points]
        out[f"identify_{mode.name.lower()}"] = _sha(repr((fits, points)).encode())
    return out


def digests(out_dir: Path) -> dict:
    out = {name: trajectory_digests(name, out_dir) for name in RUNS}
    trace_dir = out_dir / "protocol"
    trace_dir.mkdir()
    out["protocol"] = protocol_digests(trace_dir)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_noiseless_run_matches_the_golden_digests(golden, tmp_path, name):
    assert trajectory_digests(name, tmp_path) == golden[name]


def test_protocol_and_identification_match_the_golden_digests(golden, tmp_path):
    assert protocol_digests(tmp_path) == golden["protocol"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(digests(Path(tmp)), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
