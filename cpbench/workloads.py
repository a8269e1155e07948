"""Experiment configs and output checks for the three benchmark workloads.

A workload is one *round*: a fixed list of ``cpsim run`` configs that a
single caller runs back to back.  The benchmark seed feeds only the
experiment seeds; every size is fixed, because the checks depend on the
sizes.  ``size="tiny"`` shrinks each workload for the smoke check and
keeps the same checks.

Every config carries named checks on the results file it writes.  A
check that raises counts as failed, and a config whose ``run_config``
raises fails all of its checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cpsim.cli import read_results
from cpsim.dynamics import ModelParams, expected_noflash_probability
from cpsim.gravity import GravityParams, gamma_asymptotic
from cpsim.hilbert import SpatialGrid
from cpsim.operators import build_grw_family, grw_gaussian

NAMES = ("born_unravel", "gamma_curve", "chains_master")

#: Gamma(d) values recorded from the seed commit of this benchmark
GAMMA_REFERENCE = Path(__file__).with_name("gamma_reference.json")

# 99% two-sided normal quantile, as in the acceptance Born check
_Z99 = 2.5758293035489004
_R_M = math.sqrt(3.0 / 8.0)   # quadratic Gamma term vanishes, as in test_08


@dataclass
class Case:
    """One config of a round and the checks on its results file."""

    cfg: dict
    checks: list = field(default_factory=list)   # (name, fn(results) -> bool)

    @property
    def path(self) -> Path:
        return Path(self.cfg["output_path"])


def build(workload: str, seed: int, out_dir: Path, size: str = "full") -> list:
    """The configs of one round of ``workload``, seeded from ``seed``."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    rng = np.random.default_rng([int(seed), NAMES.index(workload)])

    def next_seed() -> int:
        return int(rng.integers(0, 2 ** 63))

    tiny = size == "tiny"
    builder = {"born_unravel": _born_unravel, "gamma_curve": _gamma_curve,
               "chains_master": _chains_master}[workload]
    cases = builder(next_seed, tiny)
    for k, case in enumerate(cases):
        ext = "json" if case.cfg.get("output_format") == "json" else "csv"
        case.cfg["output_path"] = str(Path(out_dir) / f"{workload}-{k}.{ext}")
    return cases


def run_checks(case: Case, failed_all: bool = False) -> list:
    """[(name, passed)] for every check of ``case``."""
    if failed_all:
        return [(name, False) for name, _ in case.checks]
    try:
        results = read_results(case.path)
    except (OSError, ValueError):
        return [(name, False) for name, _ in case.checks]
    out = []
    for name, fn in case.checks:
        try:
            ok = bool(fn(results))
        except (KeyError, IndexError, TypeError, ValueError, ArithmeticError):
            ok = False
        out.append((name, ok))
    return out


def _params(nodes: int, spacing: float, lam: float = 1.0, dt: float = 0.02,
            hopping: float = None) -> dict:
    p = {"lambda_grw": lam, "dt": dt, "grid": {"nodes": nodes, "spacing": spacing},
         "family": {"kind": "grw_position", "r_c": 1.0}}
    if hopping is not None:
        p["hamiltonian"] = {"kind": "hopping", "strength": hopping}
    return p


def _psi0(cfg: dict) -> np.ndarray:
    """The gaussian start state the CLI builds from ``options.psi0``."""
    g = cfg["params"]["grid"]
    grid = SpatialGrid.line(g["nodes"], g["spacing"])
    p = cfg["options"]["psi0"]
    v = np.exp(-((grid.x - p["center"]) ** 2) / (4.0 * p["width"] ** 2)).astype(complex)
    return v / np.linalg.norm(v)


def wilson(successes: int, trials: int, z: float = _Z99):
    """Wilson score interval, computed here independently of cpsim."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


# ---------------------------------------------------------------------------
# born_unravel: the jump-trajectory layer on both of its paths.  The born
# config runs long trajectories without a Hamiltonian; the compare config
# runs many short ones with a Hamiltonian against the master equation.
# ---------------------------------------------------------------------------

def _born_unravel(next_seed, tiny):
    return _born(next_seed, tiny) + _unravel(next_seed, tiny)


def _born(next_seed, tiny):
    n_runs = 10 if tiny else 50
    weights = (0.25, 0.75)
    cfg = {"experiment": "born", "seed": next_seed(), "output_format": "json",
           "params": _params(36, 0.5, dt=8e-4),
           "options": {"amplitudes": [math.sqrt(w) for w in weights], "t_obs": 0.5,
                       "n_runs": n_runs,
                       "pointer": {"centers": [-4.5, 4.5], "amplification": 50}}}

    def res(r):
        return r["results"]

    def classified(r):
        return sum(res(r)["region_counts"])

    def in_wilson(i):
        def check(r):
            lo, hi = wilson(res(r)["region_counts"][i], classified(r))
            return lo <= weights[i] <= hi
        return check

    checks = [
        ("born.runs_accounted",
         lambda r: res(r)["n_runs"] == n_runs
         and classified(r) + res(r)["zero_flash_runs"] == n_runs),
        ("born.region0_in_wilson99", in_wilson(0)),
        ("born.region1_in_wilson99", in_wilson(1)),
        ("born.no_zero_flash_runs", lambda r: res(r)["zero_flash_runs"] == 0),
        ("born.cross_region_le_1pct", lambda r: res(r)["cross_region_runs"] <= 0.01 * n_runs),
    ]
    return [Case(cfg, checks)]


def _unravel(next_seed, tiny):
    n_traj = 40 if tiny else 500
    n_checkpoints = 10
    bound = 5.0 / math.sqrt(n_traj)
    cfg = {"experiment": "compare", "seed": next_seed(),
           "params": _params(16, 0.5, dt=0.02, hopping=0.5),
           "options": {"t_end": 1.0, "n_traj": n_traj, "n_checkpoints": n_checkpoints,
                       "psi0": {"kind": "gaussian", "width": 1.0, "center": 0.0}}}

    def row(i):
        return lambda r: r["rows"][i][1] <= bound

    checks = [("unravel.checkpoints_and_bound",
               lambda r: len(r["rows"]) == n_checkpoints
               and all(abs(row_[2] - bound) <= 1e-12 * bound for row_ in r["rows"]))]
    checks += [(f"unravel.frobenius_within_bound.{i}", row(i)) for i in range(n_checkpoints)]
    return [Case(cfg, checks)]


# ---------------------------------------------------------------------------
# gamma_curve: the nested oscillatory quadrature, no dynamics and no RNG
# ---------------------------------------------------------------------------

def gamma_config(d_values) -> dict:
    # deterministic: the experiment seed is recorded but never drawn from
    return {"experiment": "gamma", "seed": 0,
            "gravity": {"g_newton": 1.0, "r_g": 1.0, "r_m": _R_M, "f_kind": "point_source"},
            "options": {"d_values": list(d_values), "r_c": 1.0, "quad_tol": 1e-9}}


def _gamma_curve(next_seed, tiny):
    ref = json.loads(GAMMA_REFERENCE.read_text())
    points = [ref["points"][0], ref["points"][-1]] if tiny else ref["points"]
    ds = [p["d"] for p in points]
    cfg = gamma_config(ds)
    gp = GravityParams(G=1.0, r_g=1.0, r_m=_R_M, F_kind="point_source")
    asym_limit = min(_R_M ** 3, 1.0 / _R_M) / 10.0

    def gam(r, i):
        return r["rows"][i][1]

    def err(r, i):
        return r["rows"][i][2]

    checks = [("gamma.d_grid", lambda r: [row[0] for row in r["rows"]] == ds)]
    for i, p in enumerate(points):
        checks += [
            (f"gamma.nonpositive.{i}", lambda r, i=i: gam(r, i) <= 0.0),
            (f"gamma.at_least_minus_one.{i}", lambda r, i=i: gam(r, i) >= -1.0),
            (f"gamma.matches_reference.{i}",
             lambda r, i=i, p=p: abs(gam(r, i) - p["gamma"]) <= err(r, i) + p["err_estimate"]),
        ]
        if i:
            checks.append((f"gamma.nonincreasing.{i}", lambda r, i=i: gam(r, i) <= gam(r, i - 1)))
        if p["d"] <= asym_limit:
            checks.append((f"gamma.asymptotic_2pct.{i}",
                           lambda r, i=i, d=p["d"]:
                           abs(gam(r, i) / gamma_asymptotic(d, gp, 1.0) - 1.0) < 0.02))
    return [Case(cfg, checks)]


# ---------------------------------------------------------------------------
# chains_master: exact collapse-point windows, RK4 master run, energy, potential
# ---------------------------------------------------------------------------

_EXACT_GAMMA = 0.05
_EXACT_MU = 40.0


def _exact_case(seed, n_samples):
    # lambda = mu c gamma / hbar^2 makes the coarse-grained rate match the points
    cfg = {"experiment": "exact", "seed": seed,
           "params": _params(17, 0.5, lam=_EXACT_MU * _EXACT_GAMMA),
           "options": {"mu": _EXACT_MU, "gamma": _EXACT_GAMMA, "t_end": 0.2,
                       "n_samples": n_samples,
                       "psi0": {"kind": "gaussian", "width": 1.0, "center": 0.0}}}

    def noflash_within_5sigma(r):
        # the reference is computed at check time, so it adds nothing to set-up
        grid = SpatialGrid.line(17, 0.5)
        params = ModelParams.natural(lambda_grw=cfg["params"]["lambda_grw"],
                                     family=build_grw_family(grid, grw_gaussian(1.0)),
                                     dt=cfg["params"]["dt"])
        p0 = expected_noflash_probability(params, _psi0(cfg), _EXACT_GAMMA, 0.2)
        freq = sum(1 for row in r["rows"] if row[2] == 0) / len(r["rows"])
        return abs(freq - p0) <= 5.0 * math.sqrt(p0 * (1.0 - p0) / n_samples)

    checks = [
        ("exact.windows", lambda r: len(r["rows"]) == n_samples),
        ("exact.flashes_le_points", lambda r: all(row[2] <= row[1] for row in r["rows"])),
        ("exact.noflash_within_5sigma", noflash_within_5sigma),
    ]
    return Case(cfg, checks)


def _master_case(seed, steps):
    n_checkpoints = 11
    cfg = {"experiment": "master", "seed": seed,
           "params": _params(64, 0.5, dt=0.01, hopping=0.5),
           "options": {"t_end": steps * 0.01, "n_checkpoints": n_checkpoints,
                       "psi0": {"kind": "gaussian", "width": 1.0, "center": 0.0}}}
    checks = [
        ("master.checkpoints", lambda r: len(r["rows"]) == n_checkpoints),
        ("master.trace_is_one", lambda r: all(abs(row[1] - 1.0) <= 1e-9 for row in r["rows"])),
        ("master.purity_nonincreasing",
         lambda r: all(b[2] <= a[2] for a, b in zip(r["rows"], r["rows"][1:]))),
    ]
    return Case(cfg, checks)


def _finite_rows(r) -> bool:
    return bool(r["rows"]) and all(math.isfinite(x) for row in r["rows"] for x in row)


def _chains_master(next_seed, tiny):
    n_exact, windows, steps = (1, 20, 20) if tiny else (4, 75, 300)
    cases = [_exact_case(next_seed(), windows) for _ in range(n_exact)]
    cases.append(_master_case(next_seed(), steps))
    energy = {"experiment": "energy", "seed": next_seed(),
              "gravity": {"g_newton": 1.0, "r_g": 1.0, "r_m": 2.0,
                          "f_kind": "gaussian_smeared"},
              "options": {"r_g_values": [1.0, 0.5, 0.25, 0.125], "psi_width": 2.0,
                          "n_r": 3000}}
    potential = {"experiment": "potential", "seed": next_seed(),
                 "gravity": {"g_newton": 1.0, "r_g": 0.05, "r_m": 0.0,
                             "f_kind": "gaussian_smeared"},
                 "options": {"source_nodes": 21, "source_spacing": 0.1,
                             "probe_distances": [2.0, 5.0, 10.0, 20.0, 42.0]}}
    cases.append(Case(energy, [("energy.finite", _finite_rows)]))
    cases.append(Case(potential, [("potential.finite", _finite_rows)]))
    return cases
