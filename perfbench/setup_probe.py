"""Set-up probe: a fresh interpreter imports pneuctrl and generates one run's inputs.

``run.py`` runs this script to report ``setup_s``.  It prints one JSON object:
``cpu_s``, the process CPU time of the work, and ``refs``, the times of
reference loops run after it, which give the host's speed at the time (see
``hostspeed.py``).  Run from the root of a checkout::

    python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS OUT_DIR
"""

import json
import sys
import time
from pathlib import Path

REFS = 5

if __name__ == "__main__":
    sys.path.insert(0, str(Path.cwd() / "src"))
    import pneuctrl  # noqa: F401  (the import is part of what is timed)

    import inputs

    workload, seed, seconds, out_dir = sys.argv[1:5]
    inputs.make_plan(workload, int(seed), int(seconds), Path(out_dir))
    cpu_s = time.process_time()

    import hostspeed

    print(json.dumps({"cpu_s": cpu_s, "refs": [hostspeed.reference_s() for _ in range(REFS)]}))
