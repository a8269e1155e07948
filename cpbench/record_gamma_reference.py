"""Record the Gamma(d) reference values the gamma_curve checks compare against.

Run once, from the repository root, on the commit the reference should
pin:

    python3 cpbench/record_gamma_reference.py

It runs the gamma_curve config through ``cpsim.cli.run_config`` and
writes ``cpbench/gamma_reference.json``.  Re-recording on a later commit
would make the check compare that commit against itself.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cpsim.cli import read_results, run_config  # noqa: E402
from workloads import GAMMA_REFERENCE, gamma_config  # noqa: E402

#: log-spaced from below a tenth of the asymptotic scale (0.023) up to 3
D_VALUES = [float(f"{d:.6g}") for d in np.geomspace(0.01, 3.0, 4)]


def main():
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(gamma_config(D_VALUES), output_path=str(Path(tmp) / "gamma.csv"))
        rows = read_results(run_config(cfg))["rows"]
    doc = {"commit": sha, "config": {k: v for k, v in cfg.items() if k != "output_path"},
           "points": [{"d": d, "gamma": g, "err_estimate": e} for d, g, e in rows]}
    GAMMA_REFERENCE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {GAMMA_REFERENCE}")


if __name__ == "__main__":
    main()
