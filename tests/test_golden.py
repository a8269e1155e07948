"""Golden manifest: the sha256 of every results file of the example configs
and of the tiny benchmark configs at two seeds.

A change that keeps results byte-identical leaves the manifest alone; one
that moves results regenerates it, and the manifest diff then lists the
files that moved.  NumPy's vector math may round differently on another
NumPy version or machine, so the manifest is keyed by both and the test
skips, naming the key, where no entry was recorded.

Regenerate the entry of this NumPy version and machine, from the
repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cpsim.cli import run_config
from helpers import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEEDS = (1, 7)


def manifest_key() -> str:
    return f"numpy-{np.__version__}/{platform.machine()}"


def results_digests() -> dict:
    """{name: sha256} of the results file (not the sidecar) of every config."""
    configs = {f"configs/{path.name}": json.loads(path.read_text())
               for path in sorted((ROOT / "configs").glob("*.json"))}
    workloads = bench_workloads()
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name in workloads.NAMES:
                for case in workloads.build(name, seed, Path(tmp), size="tiny"):
                    configs[f"cpbench/{name}/seed{seed}/{case.path.name}"] = case.cfg
        for k, (name, cfg) in enumerate(configs.items()):
            out = run_config(cfg, out_override=Path(tmp) / f"{k}.out")
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return digests


def test_results_files_match_golden_manifest():
    key = manifest_key()
    recorded = json.loads(MANIFEST.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"no golden manifest entry for {key}")
    digests = results_digests()
    moved = sorted(name for name in recorded.keys() | digests.keys()
                   if recorded.get(name) != digests.get(name))
    assert not moved, f"results files differ from the golden manifest: {moved}"


if __name__ == "__main__":
    doc = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    doc[manifest_key()] = results_digests()
    MANIFEST.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.relative_to(ROOT)} entry {manifest_key()}", file=sys.stderr)
