"""Smoke check of the benchmark: every workload at its tiny size.

    python3 cpbench/smoke.py

For each workload and both trace modes it runs ``run.py --size tiny``
and checks that every metric BENCHMARK.json names for that mode is
emitted, with its unit and nothing else, and that every output check
the workload declares was executed.  The tiny sizes must keep every
kind of check the full sizes have.  Exits 1 if anything is missing.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _kind(check: str) -> str:
    """Check name without its per-point index: ``gamma.nonpositive.3`` -> ``gamma.nonpositive``."""
    head, _, tail = check.rpartition(".")
    return head if tail.isdigit() else check


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        declared = {c for case in workloads.build(name, 1, HERE, "tiny") for c, _ in case.checks}
        full = {c for case in workloads.build(name, 1, HERE, "full") for c, _ in case.checks}
        if {_kind(c) for c in declared} != {_kind(c) for c in full}:
            problems.append(f"{name}: tiny size leaves out checks "
                            f"{sorted({_kind(c) for c in full} - {_kind(c) for c in declared})}")
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            where = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != wanted[trace]:
                missing = set(wanted[trace]) - set(emitted)
                extra = set(emitted) - set(wanted[trace])
                units = {k for k in set(emitted) & set(wanted[trace])
                         if emitted[k] != wanted[trace][k]}
                problems.append(f"{where}: missing {sorted(missing)}, extra {sorted(extra)}, "
                                f"wrong unit {sorted(units)}")
            record = json.loads((ROOT / ".cpbench_out" /
                                 f"{name}-seed1-trace{trace}.json").read_text())
            executed = {c for c, (attempted, _) in record["checks"].items() if attempted > 0}
            if executed != declared:
                problems.append(f"{where}: checks not executed {sorted(declared - executed)}")
            if result["attempted"] < 1:
                problems.append(f"{where}: no checks attempted")
            print(f"{where}: {len(emitted)} metrics, {len(executed)} checks, "
                  f"{result['failed']} failed", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
