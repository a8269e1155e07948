"""Full-size golden manifest: the sha256 of the results files of the
full-size ``born_unravel`` and ``chains_master`` benchmark configs at
seeds 1, 7 and 23.

The tier-1 golden manifest (``tests/golden_manifest.json``) covers the
tiny configs; this one covers the configs the benchmark runs.  A change
that keeps results byte-identical leaves ``tools/golden_full.json``
alone.  NumPy's vector math may round differently on another NumPy
version or machine, so entries are keyed by both, and the check skips,
naming the key, where no entry was recorded.

From the repository root, check the tree against the manifest (exit 1
and the moved files on a difference):

    PYTHONPATH=src python tools/golden_full.py

and record the entry of this NumPy version and machine:

    PYTHONPATH=src python tools/golden_full.py --record
"""

import argparse
import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from cpsim.cli import run_config

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_full.json")
WORKLOADS = ("born_unravel", "chains_master")
SEEDS = (1, 7, 23)


def manifest_key() -> str:
    return f"numpy-{np.__version__}/{platform.machine()}"


def _workloads():
    spec = importlib.util.spec_from_file_location("cpbench_workloads",
                                                  ROOT / "cpbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def results_digests() -> dict:
    """{name: sha256} of the results file (not the sidecar) of every config."""
    workloads = _workloads()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name in WORKLOADS:
                for case in workloads.build(name, seed, Path(tmp), size="full"):
                    out = run_config(case.cfg)
                    digests[f"{name}/seed{seed}/{case.path.name}"] = \
                        hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write this NumPy version and machine's entry")
    args = parser.parse_args(argv)
    doc = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    key = manifest_key()
    if args.record:
        doc[key] = results_digests()
        MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {MANIFEST.relative_to(ROOT)} entry {key}")
        return 0
    recorded = doc.get(key)
    if recorded is None:
        print(f"skipped: no full-size golden manifest entry for {key}")
        return 0
    digests = results_digests()
    moved = sorted(name for name in recorded.keys() | digests.keys()
                   if recorded.get(name) != digests.get(name))
    for name in moved:
        print(f"moved: {name}")
    print(f"{len(digests) - len(moved)} of {len(recorded)} full-size results files match {key}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
