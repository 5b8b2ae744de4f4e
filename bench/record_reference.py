"""Re-record the stored reference reports of the default seed.

    python3 bench/record_reference.py [workload ...]

Runs each workload once through run.py with no reference in place (so only
exit statuses are checked) and copies every command's `.txt`/`.csv` reports
into `reference/seed<DEFAULT_SEED>/<workload>/<step>/`.  Do this only when a
change to homspace is meant to change its reports, and say why.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from check import report_files
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent


def record(name):
    ref = BENCH / "reference" / f"seed{DEFAULT_SEED}" / name
    shutil.rmtree(ref, ignore_errors=True)
    subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                    "--seed", str(DEFAULT_SEED), "--seconds", "1",
                    "--trace", "0"], check=True, stdout=subprocess.DEVNULL)
    out = BENCH / "out" / f"{name}-seed{DEFAULT_SEED}"
    for step in WORKLOADS[name].steps:
        (ref / step.name).mkdir(parents=True)
        for fname in report_files(out / step.name):
            shutil.copy(out / step.name / fname, ref / step.name / fname)
    print(f"recorded {ref.relative_to(BENCH)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        record(name)
