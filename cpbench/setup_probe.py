"""Child process timed by ``run.py`` to measure a workload's set-up.

    python3 cpbench/setup_probe.py WORKLOAD SEED OUT_DIR SIZE

Imports cpsim (with NumPy and SciPy), builds the round's configs and
validates each, which also builds the operator families, then prints
``ready``.  The parent times the interval from starting this process
to reading that line.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cpsim.cli import validate_config  # noqa: E402

import workloads  # noqa: E402


def main(argv):
    workload, seed, out_dir, size = argv
    for case in workloads.build(workload, int(seed), Path(out_dir), size):
        validate_config(case.cfg)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
