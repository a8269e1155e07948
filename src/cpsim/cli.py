"""Reproducible experiment runner.

``cpsim run config.json`` parses a strict JSON configuration, seeds the
named generator streams, dispatches to the library and writes a results
file (CSV with a ``#``-prefixed JSON metadata header, or a JSON
document) plus a ``.meta.json`` sidecar carrying the config echo, seed,
wall time and package version.  Identical config and seed reproduce the
results file byte for byte; only the sidecar may differ (wall time).

Exit codes: 0 success, 2 configuration error, 3 physics-contract
failure, 4 quadrature convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import ModelParams, ensemble_vs_master, integrate_master, run_trajectories
from .errors import (ConfigError, ContractViolationError, ConvergenceError,
                     CpsimError, DomainError, StepSizeError)
from .exact import sample_chain, sample_poisson_collapse_points
from .gravity import (GravityParams, compute_dephasing_curve, energy_after_flash,
                      macro_potential)
from .hilbert import SpatialGrid
from .measurement import PointerModel, born_experiment, pointer_family
from .operators import build_grw_family, grw_gaussian
from .rng import GENERATOR_NAME, stream

EXPERIMENTS = ("exact", "trajectories", "master", "compare", "born",
               "gamma", "energy", "potential")


# ---------------------------------------------------------------------------
# strict config validation
# ---------------------------------------------------------------------------

def _finite(val):
    """float(val) for a finite JSON number, else None (NaN, Infinity, huge ints, non-numbers)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        num = float(val)
    except OverflowError:
        return None
    return num if math.isfinite(num) else None


def _numbers(obj: dict, key: str, path: str, need: str, ok=lambda v: True) -> list:
    """A required non-empty list of finite numbers that all pass ``ok``."""
    vals = [_finite(v) for v in _require(obj, key, list, path)]
    if not vals or None in vals or not all(ok(v) for v in vals):
        raise ConfigError(f"{path}.{key}: need {need}")
    return vals


def _require(obj: dict, key: str, types, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required field")
    val = obj[key]
    if types is float:
        num = _finite(val)
        if num is None:
            raise ConfigError(f"{path}.{key}: expected a finite number, got {val!r:.40}")
        return num
    if types is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{path}.{key}: expected an integer, got {type(val).__name__}")
        return int(val)
    if not isinstance(val, types):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(val).__name__}")
    return val


def _optional(obj: dict, key: str, types, path: str, default):
    if key not in obj:
        return default
    return _require(obj, key, types, path)


def _reject_unknown(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field (strict schema)")


def _positive(value, name):
    if value <= 0:
        raise ConfigError(f"{name}: must be positive, got {value!r}")
    return value


def _parse_grid(obj: dict, path: str) -> SpatialGrid:
    _reject_unknown(obj, {"nodes", "spacing", "center"}, path)
    n = _require(obj, "nodes", int, path)
    spacing = _positive(_require(obj, "spacing", float, path), f"{path}.spacing")
    center = _optional(obj, "center", float, path, 0.0)
    if n < 2:
        raise ConfigError(f"{path}.nodes: need at least two nodes")
    return SpatialGrid.line(n, spacing, center)


def _parse_params(obj: dict, path: str = "params") -> ModelParams:
    _reject_unknown(obj, {"lambda_grw", "hbar", "c_light", "mass", "m_r", "dt",
                          "grid", "family", "hamiltonian"}, path)
    lam = _require(obj, "lambda_grw", float, path)
    if lam < 0:
        raise ConfigError(f"{path}.lambda_grw: must be non-negative")
    dt = _positive(_require(obj, "dt", float, path), f"{path}.dt")
    grid = _parse_grid(_require(obj, "grid", dict, path), f"{path}.grid")
    fam_obj = _require(obj, "family", dict, path)
    _reject_unknown(fam_obj, {"kind", "r_c"}, f"{path}.family")
    kind = _require(fam_obj, "kind", str, f"{path}.family")
    if kind != "grw_position":
        raise ConfigError(f"{path}.family.kind: only 'grw_position' is configurable here")
    r_c = _positive(_require(fam_obj, "r_c", float, f"{path}.family"), f"{path}.family.r_c")
    family = build_grw_family(grid, grw_gaussian(r_c))
    hbar = _positive(_optional(obj, "hbar", float, path, 1.0), f"{path}.hbar")
    mass = _positive(_optional(obj, "mass", float, path, 1.0), f"{path}.mass")
    m_r = _positive(_optional(obj, "m_r", float, path, 1.0), f"{path}.m_r")
    c_light = _positive(_optional(obj, "c_light", float, path, 1.0), f"{path}.c_light")
    h = None
    if "hamiltonian" in obj:
        h_obj = obj["hamiltonian"]
        _reject_unknown(h_obj, {"kind", "strength"}, f"{path}.hamiltonian")
        h_kind = _require(h_obj, "kind", str, f"{path}.hamiltonian")
        if h_kind == "hopping":
            j = _require(h_obj, "strength", float, f"{path}.hamiltonian")
            h = np.zeros((grid.n, grid.n), dtype=complex)
            for i in range(grid.n - 1):
                h[i, i + 1] = h[i + 1, i] = -j
        elif h_kind != "none":
            raise ConfigError(f"{path}.hamiltonian.kind: expected 'none' or 'hopping'")
    return ModelParams(lambda_grw=lam, family=family, dt=dt, hbar=hbar,
                       c_light=c_light, mass=mass, m_r=m_r, hamiltonian=h)


def _parse_gravity(obj: dict, path: str = "gravity") -> GravityParams:
    _reject_unknown(obj, {"g_newton", "r_g", "r_m", "f_kind"}, path)
    g = _positive(_require(obj, "g_newton", float, path), f"{path}.g_newton")
    r_g = _positive(_require(obj, "r_g", float, path), f"{path}.r_g")
    r_m = _require(obj, "r_m", float, path)
    if r_m < 0:
        raise ConfigError(f"{path}.r_m: must be non-negative")
    f_kind = _optional(obj, "f_kind", str, path, "point_source")
    if f_kind not in ("point_source", "gaussian_smeared"):
        raise ConfigError(f"{path}.f_kind: expected 'point_source' or 'gaussian_smeared'")
    return GravityParams(G=g, r_g=r_g, r_m=r_m, F_kind=f_kind)


def _parse_psi0(obj: dict, grid: SpatialGrid, path: str) -> np.ndarray:
    _reject_unknown(obj, {"kind", "width", "center"}, path)
    kind = _optional(obj, "kind", str, path, "gaussian")
    if kind == "gaussian":
        width = _positive(_optional(obj, "width", float, path, 2.0 * grid.spacing), f"{path}.width")
        center = _optional(obj, "center", float, path, 0.0)
        v = np.exp(-((grid.x - center) ** 2) / (4.0 * width ** 2)).astype(complex)
    elif kind == "uniform":
        v = np.ones(grid.n, dtype=complex)
    else:
        raise ConfigError(f"{path}.kind: expected 'gaussian' or 'uniform'")
    return v / np.linalg.norm(v)


def validate_config(cfg: dict) -> dict:
    """Check the whole document against the strict schema; returns it."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    _reject_unknown(cfg, {"experiment", "seed", "output_path", "output_format",
                          "params", "gravity", "options"}, "config")
    exp = _require(cfg, "experiment", str, "config")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"config.experiment: unknown experiment {exp!r}")
    seed = _require(cfg, "seed", int, "config")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("config.seed: must fit an unsigned 64-bit integer")
    _require(cfg, "output_path", str, "config")
    fmt = _optional(cfg, "output_format", str, "config", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError("config.output_format: expected 'csv' or 'json'")
    options = _optional(cfg, "options", dict, "config", {})
    needs_params = exp in ("exact", "trajectories", "master", "compare", "born")
    if needs_params:
        _parse_params(_require(cfg, "params", dict, "config"))
    if exp in ("gamma", "energy", "potential"):
        _parse_gravity(_require(cfg, "gravity", dict, "config"))
    _OPTION_VALIDATORS[exp](options, "options")
    return cfg


def _validate_exact_options(obj, path):
    _reject_unknown(obj, {"mu", "gamma", "t_end", "n_samples", "psi0"}, path)
    _positive(_require(obj, "mu", float, path), f"{path}.mu")
    g = _require(obj, "gamma", float, path)
    if g < 0:
        raise ConfigError(f"{path}.gamma: must be non-negative")
    _positive(_require(obj, "t_end", float, path), f"{path}.t_end")
    _positive(_require(obj, "n_samples", int, path), f"{path}.n_samples")


def _validate_traj_options(obj, path):
    _reject_unknown(obj, {"t_end", "n_traj", "n_checkpoints", "psi0"}, path)
    _positive(_require(obj, "t_end", float, path), f"{path}.t_end")
    _positive(_require(obj, "n_traj", int, path), f"{path}.n_traj")
    _positive(_optional(obj, "n_checkpoints", int, path, 11), f"{path}.n_checkpoints")


def _validate_master_options(obj, path):
    _reject_unknown(obj, {"t_end", "n_checkpoints", "psi0"}, path)
    _positive(_require(obj, "t_end", float, path), f"{path}.t_end")
    _positive(_optional(obj, "n_checkpoints", int, path, 11), f"{path}.n_checkpoints")


def _validate_born_options(obj, path):
    _reject_unknown(obj, {"amplitudes", "t_obs", "n_runs", "pointer"}, path)
    amps = _numbers(obj, "amplitudes", path, "at least two real amplitudes")
    if len(amps) < 2:
        raise ConfigError(f"{path}.amplitudes: need at least two real amplitudes")
    if abs(sum(a ** 2 for a in amps) - 1.0) > 1e-9:
        raise ConfigError(f"{path}.amplitudes: squared amplitudes must sum to 1")
    _positive(_require(obj, "t_obs", float, path), f"{path}.t_obs")
    _positive(_require(obj, "n_runs", int, path), f"{path}.n_runs")
    p = _require(obj, "pointer", dict, path)
    _reject_unknown(p, {"centers", "amplification", "region_halfwidth"}, f"{path}.pointer")
    centers = _numbers(p, "centers", f"{path}.pointer", "a list of region centres")
    if len(centers) != len(amps):
        raise ConfigError(f"{path}.pointer.centers: need one centre per amplitude")
    _positive(_require(p, "amplification", int, f"{path}.pointer"), f"{path}.pointer.amplification")
    if "region_halfwidth" in p:
        _positive(_require(p, "region_halfwidth", float, f"{path}.pointer"),
                  f"{path}.pointer.region_halfwidth")


def _validate_gamma_options(obj, path):
    _reject_unknown(obj, {"d_values", "r_c", "quad_tol"}, path)
    _numbers(obj, "d_values", path, "a list of non-negative separations", lambda d: d >= 0)
    _positive(_require(obj, "r_c", float, path), f"{path}.r_c")
    _positive(_optional(obj, "quad_tol", float, path, 1e-9), f"{path}.quad_tol")


def _validate_energy_options(obj, path):
    _reject_unknown(obj, {"r_g_values", "psi_width", "r_max", "n_r", "mass", "hbar"}, path)
    _numbers(obj, "r_g_values", path, "a list of positive radii", lambda v: v > 0)
    _positive(_require(obj, "psi_width", float, path), f"{path}.psi_width")
    if "r_max" in obj:
        _positive(_require(obj, "r_max", float, path), f"{path}.r_max")
    _positive(_optional(obj, "n_r", int, path, 2000), f"{path}.n_r")
    _positive(_optional(obj, "mass", float, path, 1.0), f"{path}.mass")
    _positive(_optional(obj, "hbar", float, path, 1.0), f"{path}.hbar")


def _validate_potential_options(obj, path):
    _reject_unknown(obj, {"source_nodes", "source_spacing", "probe_distances", "m_r"}, path)
    _positive(_require(obj, "source_nodes", int, path), f"{path}.source_nodes")
    _positive(_require(obj, "source_spacing", float, path), f"{path}.source_spacing")
    _numbers(obj, "probe_distances", path, "a list of positive distances", lambda d: d > 0)
    _positive(_optional(obj, "m_r", float, path, 1.0), f"{path}.m_r")


_OPTION_VALIDATORS = {
    "exact": _validate_exact_options,
    "trajectories": _validate_traj_options,
    "master": _validate_master_options,
    "compare": _validate_traj_options,
    "born": _validate_born_options,
    "gamma": _validate_gamma_options,
    "energy": _validate_energy_options,
    "potential": _validate_potential_options,
}


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: Path, metadata: dict, columns, rows):
    lines = ["# " + json.dumps(metadata, sort_keys=True, separators=(",", ":"))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, metadata: dict, payload: dict):
    doc = {"metadata": metadata, "results": payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def read_results(path: Path):
    """Round-trip reader for both output formats."""
    text = Path(path).read_text()
    if text.startswith("# "):
        lines = text.strip().split("\n")
        metadata = json.loads(lines[0][2:])
        columns = lines[1].split(",")
        rows = [[_parse_cell(c) for c in line.split(",")] for line in lines[2:]]
        return {"metadata": metadata, "columns": columns, "rows": rows}
    return json.loads(text)


def _parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


# ---------------------------------------------------------------------------
# experiment dispatch
# ---------------------------------------------------------------------------

def _run_exact(cfg, seed):
    params = _parse_params(cfg["params"])
    opts = cfg.get("options", {})
    psi0 = _parse_psi0(opts.get("psi0", {}), params.grid, "options.psi0")
    prefactor = params.mass / params.m_r
    rows = []
    for i in range(opts["n_samples"]):
        rng = stream(seed, i)
        points = sample_poisson_collapse_points(
            params.grid, params.family, opts["mu"], params.c_light, opts["gamma"],
            (0.0, opts["t_end"]), rng, mass_prefactor=prefactor)
        rec = sample_chain(psi0, points, H=params.hamiltonian, rng=rng, hbar=params.hbar)
        flashes = [m for m, bit in enumerate(rec.outcomes) if bit]
        first_node = points[flashes[0]].node_index if flashes else -1
        first_time = points[flashes[0]].time if flashes else -1.0
        rows.append((i, len(points), len(flashes), first_node, first_time))
    return ("csv", ["sample", "n_points", "n_flashes", "first_flash_node", "first_flash_time"], rows)


def _run_trajectories(cfg, seed):
    params = _parse_params(cfg["params"])
    opts = cfg.get("options", {})
    psi0 = _parse_psi0(opts.get("psi0", {}), params.grid, "options.psi0")
    trajs = run_trajectories(psi0, params, opts["t_end"], opts["n_traj"], seed,
                             opts.get("n_checkpoints", 11))
    rows = []
    for i, tr in enumerate(trajs):
        mean_x = float(np.sum(params.grid.x * np.abs(tr.states[-1]) ** 2))
        first = tr.flashes[0].time if tr.flashes else -1.0
        rows.append((i, len(tr.flashes), first, mean_x))
    return ("csv", ["trajectory", "n_flashes", "first_flash_time", "final_mean_position"], rows)


def _run_master(cfg, seed):
    params = _parse_params(cfg["params"])
    opts = cfg.get("options", {})
    psi0 = _parse_psi0(opts.get("psi0", {}), params.grid, "options.psi0")
    rho0 = np.outer(psi0, psi0.conj())
    times, rhos = integrate_master(rho0, params, opts["t_end"], opts.get("n_checkpoints", 11))
    rows = []
    for t, r in zip(times, rhos):
        off = r - np.diag(np.diag(r))
        rows.append((t, float(r.trace().real), float(np.trace(r @ r).real),
                     float(np.linalg.norm(off))))
    return ("csv", ["time", "trace", "purity", "offdiagonal_frobenius"], rows)


def _run_compare(cfg, seed):
    params = _parse_params(cfg["params"])
    opts = cfg.get("options", {})
    psi0 = _parse_psi0(opts.get("psi0", {}), params.grid, "options.psi0")
    rep = ensemble_vs_master(psi0, params, opts["t_end"], opts["n_traj"], seed,
                             opts.get("n_checkpoints", 11))
    rows = [(t, d, b) for t, d, b in zip(rep.times, rep.frobenius_distance, rep.bound)]
    return ("csv", ["time", "frobenius_distance", "bound"], rows)


def _run_born(cfg, seed):
    params = _parse_params(cfg["params"])
    opts = cfg["options"]
    ptr = opts["pointer"]
    r_c = params.family.smearing.radius
    pointer = PointerModel(tuple(float(c) for c in ptr["centers"]), r_c,
                           int(ptr["amplification"]),
                           region_halfwidth=ptr.get("region_halfwidth"))
    params = replace(params, mass=pointer.amplification * params.m_r,
                     family=pointer_family(params.grid, params.family.smearing,
                                           pointer.outcome_count))
    rep = born_experiment([float(a) for a in opts["amplitudes"]], pointer, params,
                          opts["t_obs"], opts["n_runs"], seed)
    payload = {
        "n_runs": rep.n_runs,
        "region_counts": [int(k) for k in rep.region_counts],
        "region_frequencies": [float(f) for f in rep.region_frequencies],
        "wilson_99": [[float(a), float(b)] for a, b in rep.wilson_99],
        "cross_region_runs": rep.cross_region_runs,
        "zero_flash_runs": rep.zero_flash_runs,
        "mean_branch_fidelity": rep.mean_branch_fidelity,
        "median_first_flash_time": rep.median_first_flash_time,
    }
    return ("json", None, payload)


def _run_gamma(cfg, seed):
    gp = _parse_gravity(cfg["gravity"])
    opts = cfg["options"]
    curve = compute_dephasing_curve([float(d) for d in opts["d_values"]], gp,
                                    opts["r_c"], opts.get("quad_tol", 1e-9))
    rows = list(zip(curve.d_values, curve.gamma_values, curve.quadrature_error_estimates))
    return ("csv", ["d_m", "gamma", "err_estimate"], rows)


def _run_energy(cfg, seed):
    gp = _parse_gravity(cfg["gravity"])
    opts = cfg["options"]
    width = opts["psi_width"]
    r_max = opts.get("r_max", 12.0 * width)
    r = np.linspace(r_max / opts.get("n_r", 2000), r_max, opts.get("n_r", 2000))
    psi = np.exp(-r ** 2 / (2.0 * width ** 2))
    rows = []
    for r_g in opts["r_g_values"]:
        gpi = GravityParams(G=gp.G, r_g=float(r_g), r_m=gp.r_m, F_kind="gaussian_smeared")
        e = energy_after_flash(r, psi, gpi, opts.get("mass", 1.0), opts.get("hbar", 1.0))
        rows.append((r_g, e))
    return ("csv", ["r_g_m", "kinetic_energy_j"], rows)


def _run_potential(cfg, seed):
    gp = _parse_gravity(cfg["gravity"])
    opts = cfg["options"]
    grid = SpatialGrid.line(opts["source_nodes"], opts["source_spacing"])
    dens = np.exp(-(grid.x ** 2) / (2.0 * (3 * grid.spacing) ** 2))
    dens /= float(np.sum(grid.weights * dens))
    m_r = opts.get("m_r", 1.0)
    rows = []
    for dprobe in opts["probe_distances"]:
        val = macro_potential(dens, grid, gp, m_r, [float(dprobe)])
        rows.append((dprobe, val, -gp.G * m_r / float(dprobe)))
    return ("csv", ["probe_m", "potential_j_per_kg", "newtonian_reference"], rows)


_RUNNERS = {
    "exact": _run_exact,
    "trajectories": _run_trajectories,
    "master": _run_master,
    "compare": _run_compare,
    "born": _run_born,
    "gamma": _run_gamma,
    "energy": _run_energy,
    "potential": _run_potential,
}


def run_config(cfg: dict, seed_override=None, out_override=None) -> Path:
    """Validate, dispatch and write; returns the results path."""
    cfg = validate_config(cfg)
    seed = int(seed_override) if seed_override is not None else int(cfg["seed"])
    out = Path(out_override) if out_override is not None else Path(cfg["output_path"])
    fmt = cfg.get("output_format", "csv")
    t0 = time.monotonic()
    kind, columns, payload = _RUNNERS[cfg["experiment"]](cfg, seed)
    wall = time.monotonic() - t0
    metadata = {
        "artifact_version": __version__,
        "config": {k: v for k, v in sorted(cfg.items()) if k != "output_path"},
        "generator": GENERATOR_NAME,
        "seed": seed,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    if kind == "csv" and fmt == "csv":
        write_csv(out, metadata, columns, payload)
    elif kind == "csv":
        write_json(out, metadata, {"columns": columns,
                                   "rows": [[float(x) for x in row] for row in payload]})
    else:
        write_json(out, metadata, payload)
    sidecar = {"metadata": metadata, "wall_time_s": wall, "results_file": out.name}
    Path(str(out) + ".meta.json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cpsim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("config", type=Path)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", type=Path, default=None)
    val_p = sub.add_parser("validate", help="check a config against the schema")
    val_p.add_argument("config", type=Path)
    args = parser.parse_args(argv)

    try:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file {args.config} not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        if args.command == "validate":
            validate_config(cfg)
            print(f"{args.config}: ok")
            return 0
        out = run_config(cfg, seed_override=args.seed, out_override=args.out)
        print(f"wrote {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except (ContractViolationError, DomainError, StepSizeError) as exc:
        print(f"physics contract failure: {exc}", file=sys.stderr)
        return 3
    except CpsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
