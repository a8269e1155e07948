"""Bench recorder: the unchanged benchmark (``cpbench/run.py``) run on two
commits in alternating pairs, written to ``BENCH_<short head sha>.json`` at
the repository root.

The head is ``HEAD``.  Both sides are ``git archive`` copies of their
commit in a temporary directory, run with ``PYTHONDONTWRITEBYTECODE=1``,
so neither has a bytecode cache, for the run length ``BENCHMARK.json``
sets.  Pair i of a workload runs the base first when i is even and the
head first when it is odd, both at the same seed, seeds 3 and 7 in turn.
Per workload the file records each run (its four end-to-end metrics, its
output checks and the bench's host probe before and after it), each
side's median and quartiles of every metric, and how many pairs read
lower on the head; at the top it records both shas, the NumPy and BLAS
versions and thread count, the core count and the bytecode
state.  From the repository root:

    python tools/bench_record.py --base <commit> chains_master=10 born_unravel=3

runs 10 pairs of ``chains_master`` and 3 of ``born_unravel``.  It refuses
to run while ``src`` or ``cpbench`` has uncommitted changes, since the
archive of ``HEAD`` would not hold them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mib")
SEEDS = (3, 7)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(sha: str, into: Path) -> Path:
    """A fresh ``git archive`` copy of commit sha."""
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its end-to-end metrics, checks and environment."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    out = subprocess.run([sys.executable, "cpbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=tree, env=env, capture_output=True, text=True,
                         timeout=20 * seconds + 300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {out.returncode}: "
                           f"{out.stderr.strip()[-2000:]}")
    record, result = json.loads(lines[-2])["env"], json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
            "host_probe_s": record["host_probe_s"], "env": record}


def summary(runs) -> dict:
    """Median and quartiles of each metric over a side's runs."""
    out = {}
    for m in METRICS:
        values = [r["metrics"][m] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                          else values * 3)
        out[m] = {"median": median, "q1": q1, "q3": q3}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the commit compared against")
    parser.add_argument("pairs", nargs="+", help="workload=pairs, e.g. chains_master=10")
    args = parser.parse_args(argv)
    plan = [(name, int(n)) for name, n in (item.split("=") for item in args.pairs)]
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if git("status", "--porcelain", "--", "src", "cpbench"):
        print("src or cpbench has uncommitted changes; commit them first", file=sys.stderr)
        return 2
    shas = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
    doc = {"base_sha": shas["base"], "head_sha": shas["head"], "seconds": seconds,
           "seeds": SEEDS, "bytecode": "none: git archive copies, PYTHONDONTWRITEBYTECODE=1",
           "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: unpack(sha, Path(tmp) / side) for side, sha in shas.items()}
        for workload, n_pairs in plan:
            runs = {"base": [], "head": []}
            for i in range(n_pairs):
                seed = SEEDS[i % len(SEEDS)]
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[side].append(bench(trees[side], workload, seed, seconds))
                    print(f"{workload} pair {i} {side}: "
                          f"wall_s {runs[side][-1]['metrics']['wall_s']:.4f}", flush=True)
            doc["workloads"][workload] = {
                "pairs": n_pairs,
                "base": summary(runs["base"]), "head": summary(runs["head"]),
                "head_lower_in": {m: sum(h["metrics"][m] < b["metrics"][m]
                                         for b, h in zip(runs["base"], runs["head"]))
                                  for m in METRICS},
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
                "runs": runs}
    env = doc["workloads"][plan[0][0]]["runs"]["head"][0]["env"]
    doc.update(finished=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
               nproc=env["nproc"], python=env["python"], numpy=env["numpy"], blas=env["blas"])
    for entry in doc["workloads"].values():
        for side_runs in entry["runs"].values():
            for run in side_runs:
                del run["env"]   # kept once, above; the host probes stay per run
    path = ROOT / f"BENCH_{shas['head'][:7]}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
