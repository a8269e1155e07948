import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsim import cli
from cpsim.cli import main, read_results, run_config, validate_config
from cpsim.dynamics import propagate_batch
from cpsim.errors import ConfigError
from cpsim.hilbert import MAX_DIM

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def base_params(n=17, dt=0.02, lam=1.0):
    return {
        "lambda_grw": lam,
        "dt": dt,
        "grid": {"nodes": n, "spacing": 0.5},
        "family": {"kind": "grw_position", "r_c": 1.0},
    }


def exact_config(path, gamma=0.05):
    return {
        "experiment": "exact",
        "seed": 17,
        "output_path": str(path),
        "output_format": "csv",
        "params": base_params(),
        "options": {"mu": 40.0, "gamma": gamma, "t_end": 0.2, "n_samples": 25},
    }


def gamma_config(path, r_m=0.0):
    return {
        "experiment": "gamma",
        "seed": 1,
        "output_path": str(path),
        "output_format": "csv",
        "gravity": {"g_newton": 1.0, "r_g": 1.0, "r_m": r_m, "f_kind": "point_source"},
        "options": {"d_values": [0.0, 0.25, 0.5, 1.0], "r_c": 1.0, "quad_tol": 1e-9},
    }


def energy_config(path):
    return {
        "experiment": "energy",
        "seed": 1,
        "output_path": str(path),
        "gravity": {"g_newton": 1.0, "r_g": 1.0, "r_m": 2.0, "f_kind": "gaussian_smeared"},
        "options": {"r_g_values": [1.0, 0.5, 0.25], "psi_width": 2.0},
    }


def ensemble_config(path, experiment="trajectories"):
    cfg = {
        "experiment": experiment,
        "seed": 3,
        "output_path": str(path),
        "params": dict(base_params(n=12), hamiltonian={"kind": "hopping", "strength": 0.5}),
        "options": {"t_end": 0.1, "n_traj": 4, "n_checkpoints": 3,
                    "psi0": {"kind": "gaussian", "width": 1.0, "center": 0.0}},
    }
    if experiment == "master":
        del cfg["options"]["n_traj"]
    if experiment == "trajectories":   # only the final state is read
        del cfg["options"]["n_checkpoints"]
    return cfg


def long_compare_config(path):
    cfg = ensemble_config(path, "compare")
    cfg["options"]["t_end"] = 1e4
    return cfg


def smeared_gamma_config(path, r_g=1.0):
    """A ``gamma`` config on the gaussian profile with r_m = r_c = 1."""
    cfg = gamma_config(path, r_m=1.0)
    cfg["gravity"].update(r_g=r_g, f_kind="gaussian_smeared")
    return cfg


def tiny_dt(make):
    """``make`` with ``params.dt`` 1e-10: a t_end of 1e300 then asks for
    infinitely many steps, and one of 1e3 for 1e13."""
    def build(path):
        cfg = make(path)
        cfg["params"]["dt"] = 1e-10
        return cfg
    return build


def potential_config(path):
    return {
        "experiment": "potential",
        "seed": 1,
        "output_path": str(path),
        "gravity": {"g_newton": 1.0, "r_g": 0.05, "r_m": 0.0, "f_kind": "gaussian_smeared"},
        "options": {"source_nodes": 21, "source_spacing": 0.1, "probe_distances": [42.0, 84.0]},
    }


def born_config(path):
    return {
        "experiment": "born",
        "seed": 2,
        "output_path": str(path),
        "output_format": "json",
        "params": base_params(n=36, dt=8e-4),
        "options": {
            "amplitudes": [0.5, 0.8660254037844386],
            "t_obs": 0.5,
            "n_runs": 60,
            "pointer": {"centers": [-4.5, 4.5], "amplification": 50},
        },
    }


class TestValidation:
    def test_valid_config_accepted(self, tmp_path):
        validate_config(exact_config(tmp_path / "out.csv"))

    def test_missing_field_names_it(self, tmp_path):
        cfg = exact_config(tmp_path / "out.csv")
        del cfg["params"]["lambda_grw"]
        with pytest.raises(ConfigError, match="lambda_grw"):
            validate_config(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = exact_config(tmp_path / "out.csv")
        cfg["params"]["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            validate_config(cfg)

    def test_unknown_experiment_rejected(self, tmp_path):
        cfg = exact_config(tmp_path / "out.csv")
        cfg["experiment"] = "frobnicate"
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_wrong_type_rejected(self, tmp_path):
        cfg = exact_config(tmp_path / "out.csv")
        cfg["params"]["dt"] = "fast"
        with pytest.raises(ConfigError, match="dt"):
            validate_config(cfg)


class TestExitCodes:
    def test_validate_ok(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(exact_config(tmp_path / "out.csv")))
        assert main(["validate", str(p)]) == 0

    def test_missing_field_exits_two(self, tmp_path, capsys):
        cfg = exact_config(tmp_path / "out.csv")
        del cfg["params"]["lambda_grw"]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 2
        assert "lambda_grw" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert main(["run", str(p)]) == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    def test_physics_contract_failure_exits_three(self, tmp_path, capsys):
        cfg = {
            "experiment": "trajectories",
            "seed": 3,
            "output_path": str(tmp_path / "t.csv"),
            # per-step flash probability 0.1 violates the step-size contract
            "params": base_params(dt=0.1, lam=1.0),
            "options": {"t_end": 1.0, "n_traj": 2},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 3
        assert "probability" in capsys.readouterr().err

    def test_master_holds_one_density_matrix_at_a_time(self, tmp_path, capsys):
        cfg = ensemble_config(tmp_path / "m.csv", "master")
        cfg["params"] = base_params(n=64, dt=0.01)
        cfg["options"].update(t_end=2.0, n_checkpoints=201)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            assert main(["run", str(p)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_results(tmp_path / "m.csv")["rows"]) == 201
        # 201 kept 64 x 64 complex matrices would take 201 * 64 KiB
        assert peak < 32 * 64 * 64 * 16

    def test_trajectories_keep_no_states(self, tmp_path, capsys):
        n_traj, nodes = 1024, 64
        cfg = ensemble_config(tmp_path / "t.csv")
        cfg["params"] = dict(base_params(n=nodes), hamiltonian={"kind": "hopping", "strength": 0.5})
        cfg["options"].update(t_end=0.5, n_traj=n_traj)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        tracemalloc.start()
        try:
            assert main(["run", str(p)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(read_results(tmp_path / "t.csv")["rows"]) == n_traj
        # every state of every trajectory at 11 checkpoints would take this much
        assert peak < n_traj * 11 * nodes * 16

    @pytest.mark.parametrize("make, section, key, value", [
        (exact_config, "params", "lambda_grw", float("nan")),
        (exact_config, "params", "dt", float("inf")),
        (exact_config, "options", "t_end", float("-inf")),
        (exact_config, "options", "mu", 10 ** 400),
        (gamma_config, "gravity", "r_m", float("inf")),
    ], ids=["lambda_grw-nan", "dt-inf", "t_end-minus-inf", "mu-huge-int", "r_m-inf"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, make, section, key, value):
        cfg = make(tmp_path / "out.csv")
        cfg[section][key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("key, values", [
        ("d_values", [0.1, float("inf")]),
        ("d_values", [float("nan")]),
    ], ids=["inf", "nan"])
    def test_non_finite_list_entry_exits_two(self, tmp_path, capsys, key, values):
        cfg = gamma_config(tmp_path / "out.csv")
        cfg["options"][key] = values
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 2
        assert f"options.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("amplitudes", [float("nan"), 1.0]),
        ("centers", [-4.5, "right"]),
        # the hopping matrix acts on the 36 grid nodes, the pointer family on
        # 36 nodes x 2 outcomes
        ("hamiltonian", {"kind": "hopping", "strength": 0.5}),
        # the pointer mass is options.pointer.amplification * params.m_r
        ("mass", 50.0),
    ])
    def test_bad_born_numbers_exit_two(self, tmp_path, capsys, key, value):
        cfg = born_config(tmp_path / "born.json")
        section = {"amplitudes": "options", "centers": "options.pointer"}.get(key, "params")
        parent = cfg
        for name in section.split("."):
            parent = parent[name]
        parent[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        for command in ("validate", "run"):
            assert main([command, str(p)]) == 2
            assert f"{section}.{key}:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_energy_overflow_exits_three(self, tmp_path, capsys):
        # every field lies in its range, but (hbar^2 / 2 mass) r_m^2 F'^2 overflows
        cfg = energy_config(tmp_path / "en.csv")
        cfg["gravity"]["r_m"] = 1e50
        cfg["options"].update(r_g_values=[1e-50], psi_width=1e-50, hbar=1e50, mass=1e-50)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == 0
        assert main(["run", str(p)]) == 3
        assert "overflows double precision" in capsys.readouterr().err
        assert not (tmp_path / "en.csv").exists()

    def test_zero_energy_r_max_exits_two(self, tmp_path, capsys):
        cfg = energy_config(tmp_path / "en.csv")
        cfg["options"]["r_max"] = 0.0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 2
        assert "options.r_max" in capsys.readouterr().err

    @pytest.mark.parametrize("make, where, key, value, field", [
        (exact_config, ("params",), "hamiltonian", 5, "params.hamiltonian:"),
        (exact_config, ("options",), "psi0", 5, "options.psi0:"),
        (exact_config, ("options",), "psi0", "wide", "options.psi0:"),
        (exact_config, ("options",), "psi0", {"width": 0.5, "center": 1000.0}, "options.psi0:"),
        (born_config, ("options", "pointer"), "amplification", 10 ** 400,
         "options.pointer.amplification"),
        (lambda path: ensemble_config(path, "compare"), ("options",), "n_checkpoints", 10 ** 400,
         "options.n_checkpoints"),
        (exact_config, ("params", "grid"), "nodes", MAX_DIM + 1, "params.grid.nodes"),
        (born_config, ("params", "grid"), "nodes", MAX_DIM // 2 + 1, "options.amplitudes"),
        (energy_config, ("options",), "n_r", 2 ** 62, "options.n_r"),
        (potential_config, ("options",), "source_nodes", 2 ** 62, "options.source_nodes"),
        (born_config, ("options",), "n_runs", 2 ** 62, "options.n_runs"),
        (exact_config, ("options",), "n_samples", 2 ** 62, "options.n_samples"),
        (ensemble_config, ("options",), "n_traj", 2 ** 62, "options.n_traj"),
        (lambda path: ensemble_config(path, "compare"), ("options",), "n_traj", 2 ** 62,
         "options.n_traj"),
        # a trajectories run keeps no checkpoints, so it has no checkpoint count
        (ensemble_config, ("options",), "n_checkpoints", 3, "options.n_checkpoints"),
        # 144 averaged density-matrix entries at each of 2^20 checkpoints exceed the same cap
        (long_compare_config, ("options",), "n_checkpoints", 2 ** 20, "options.n_checkpoints"),
        (tiny_dt(ensemble_config), ("options",), "t_end", 1e300, "options.t_end"),
        (tiny_dt(lambda path: ensemble_config(path, "compare")), ("options",), "t_end", 1e3,
         "options.t_end"),
        (tiny_dt(lambda path: ensemble_config(path, "master")), ("options",), "t_end", 1e300,
         "options.t_end"),
        (tiny_dt(born_config), ("options",), "t_obs", 1e3, "options.t_obs"),
        # a born report is a JSON document, so it cannot be written as CSV
        (born_config, (), "output_format", "csv", "config.output_format"),
        # gaussian smearing radii outside 1e-50 to 1e50 overflow the profile's terms
        (smeared_gamma_config, ("gravity",), "r_g", 1e-320, "gravity.r_g"),
        (energy_config, ("options",), "r_g_values", [1e300], "options.r_g_values"),
        (energy_config, ("options",), "r_g_values", [1e-320], "options.r_g_values"),
        (lambda path: smeared_gamma_config(path, r_g=1e-40), ("options",), "r_c", 1e70,
         "options.r_c"),
        # 1.7e12 expected collapse points in each window
        (exact_config, ("options",), "mu", 1e12, "options.mu"),
        # every energy row is computed on the gaussian profile
        (energy_config, ("gravity",), "f_kind", "point_source", "gravity.f_kind"),
        # Gamma(d) rounds to about 1e-16, so a tolerance below 1e-15 cannot be met
        (gamma_config, ("options",), "quad_tol", 5e-324, "options.quad_tol"),
        (gamma_config, ("options",), "quad_tol", 1e-16, "options.quad_tol"),
        # squared amplitudes above 1 cannot sum to 1, and 1e300 squared overflows
        (born_config, ("options",), "amplitudes", [1e300, 0.5], "options.amplitudes"),
        # lengths whose squares, or squares over a squared radius, overflow
        (born_config, ("params", "family"), "r_c", 1e300, "params.family.r_c"),
        (lambda path: ensemble_config(path, "compare"), ("params", "family"), "r_c", 1e300,
         "params.family.r_c"),
        (lambda path: ensemble_config(path, "compare"), ("options", "psi0"), "width", 1e300,
         "options.psi0.width"),
        (ensemble_config, ("options", "psi0"), "width", 1e-300, "options.psi0.width"),
        (ensemble_config, ("options", "psi0"), "center", 1e300, "options.psi0.center"),
        (born_config, ("params", "grid"), "spacing", 1e300, "params.grid.spacing"),
        (born_config, ("options", "pointer"), "centers", [-4.5, 1e300],
         "options.pointer.centers"),
        # a jump run of 0 steps
        (born_config, ("params",), "dt", 1e300, "params.dt"),
        (lambda path: ensemble_config(path, "compare"), ("params",), "dt", 1e300, "params.dt"),
        (ensemble_config, ("options",), "t_end", 1e-300, "params.dt"),
        # a Hamiltonian phase per step of 2e298
        (ensemble_config, ("params", "hamiltonian"), "strength", 1e300,
         "params.hamiltonian.strength"),
        # a master run of at least 1e299 Taylor substeps, whose norm bound overflows
        (lambda path: ensemble_config(path, "master"), ("params", "hamiltonian"), "strength",
         1e300, "params.hamiltonian.strength"),
        # 2.5e301 expected flashes in each born run
        (born_config, ("params",), "lambda_grw", 1e300, "options.t_obs"),
        # squares of energy lengths that overflow or underflow
        (energy_config, ("gravity",), "r_m", 1e300, "gravity.r_m"),
        (energy_config, ("options",), "psi_width", 1e300, "options.psi_width"),
        (energy_config, ("options",), "psi_width", 1e-300, "options.psi_width"),
        (energy_config, ("options",), "r_max", 1e300, "options.r_max"),
        (energy_config, ("options",), "mass", 5e-324, "options.mass"),
        (energy_config, ("options",), "hbar", 1e300, "options.hbar"),
        (potential_config, ("options",), "source_spacing", 1e300, "options.source_spacing"),
        (potential_config, ("options",), "source_spacing", 1e-300, "options.source_spacing"),
        (potential_config, ("options",), "probe_distances", [42.0, 1e300],
         "options.probe_distances"),
        # -G m_r / d is -inf
        (potential_config, ("options",), "probe_distances", [5e-324],
         "options.probe_distances"),
    ], ids=["hamiltonian-int", "psi0-int", "psi0-str", "psi0-off-grid",
            "amplification-huge", "n_checkpoints-huge", "nodes-over-cap",
            "born-dimension-over-cap", "n_r-huge", "source_nodes-huge", "n_runs-huge",
            "n_samples-huge", "n_traj-huge", "compare-n_traj-huge",
            "trajectories-n_checkpoints", "compare-checkpoints-kept",
            "trajectories-steps-infinite", "compare-steps-huge", "master-steps-infinite",
            "born-steps-huge", "born-csv", "gamma-r_g-subnormal", "energy-r_g-huge",
            "energy-r_g-subnormal", "gamma-r_g-over-r_c-tiny", "exact-points-over-cap",
            "energy-point-source", "gamma-quad_tol-subnormal", "gamma-quad_tol-below-floor",
            "born-amplitude-huge", "born-r_c-huge", "compare-r_c-huge", "compare-width-huge",
            "trajectories-width-tiny", "trajectories-psi0-center-huge", "born-spacing-huge",
            "born-centre-huge", "born-zero-steps", "compare-zero-steps",
            "trajectories-zero-steps", "trajectories-phase-huge", "master-phase-huge",
            "born-flashes-huge", "energy-r_m-huge", "energy-width-huge", "energy-width-tiny",
            "energy-r_max-huge", "energy-mass-subnormal", "energy-hbar-huge",
            "potential-spacing-huge", "potential-spacing-tiny", "potential-probe-huge",
            "potential-probe-subnormal"])
    def test_bad_input_exits_two_on_validate_and_run(self, tmp_path, capsys, make, where,
                                                     key, value, field):
        cfg = make(tmp_path / "out.csv")
        section = cfg
        for name in where:
            section = section[name]
        section[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        for command in ("validate", "run"):
            assert main([command, str(p)]) == 2
            assert field in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("make, mutate, code", [
        (exact_config, lambda cfg: cfg["options"].update(psi0={"spread": 1.0}), 2),
        (born_config, lambda cfg: cfg["options"]["pointer"].update(centers=[-1.0, 1.0]), 3),
    ], ids=["unknown-psi0-key", "pointer-centres-too-close"])
    def test_validate_exits_like_run(self, tmp_path, capsys, make, mutate, code):
        cfg = make(tmp_path / "out.csv")
        mutate(cfg)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["validate", str(p)]) == code
        assert main(["run", str(p)]) == code

    def test_convergence_failure_exits_four(self, tmp_path, capsys, monkeypatch):
        cfg = gamma_config(tmp_path / "out.csv", r_m=1.0)
        cfg["options"]["quad_tol"] = 1e-14
        cfg["options"]["d_values"] = [0.3]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        import cpsim.cli as cli
        from cpsim.gravity import gamma_of_d

        def tiny_budget(d_values, gp, r_c, quad_tol):
            for d in d_values:
                gamma_of_d(float(d), gp, r_c, quad_tol, max_panels=8)

        monkeypatch.setattr(cli, "compute_dephasing_curve", tiny_budget)
        assert main(["run", str(p)]) == 4


class TestRunners:
    def test_exact_zero_coupling_reports_no_flashes(self, tmp_path):
        cfg = exact_config(tmp_path / "out.csv", gamma=0.0)
        out = run_config(cfg)
        doc = read_results(out)
        col = doc["columns"].index("n_flashes")
        assert all(row[col] == 0 for row in doc["rows"])

    def test_gamma_no_gravity_matches_analytic(self, tmp_path):
        out = run_config(gamma_config(tmp_path / "curve.csv"))
        doc = read_results(out)
        for d, g, err in doc["rows"]:
            assert abs(g - np.expm1(-d * d)) <= 10 * max(err, 1e-15)

    def test_gamma_beyond_double_range_exits_zero(self, tmp_path, capsys):
        # d / r_c = 2.5e199, where Gamma is -1 to double precision
        cfg = gamma_config(tmp_path / "curve.csv", r_m=1e-200)
        cfg["options"].update(r_c=1e-200, d_values=[0.25])
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 0
        assert read_results(tmp_path / "curve.csv")["rows"] == [[0.25, -1.0, 1e-15]]

    def test_gamma_huge_collapse_radius_exits_zero(self, tmp_path):
        # rho_m = r_m / r_c = 5e-301 and delta = d / r_c down to 2.5e-301
        cfg = gamma_config(tmp_path / "curve.csv", r_m=0.5)
        cfg["options"]["r_c"] = 1e300
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 0
        rows = read_results(tmp_path / "curve.csv")["rows"]
        assert len(rows) == 4 and all(math.isfinite(x) for row in rows for x in row)

    @pytest.mark.parametrize("quad_tol", [1e-9, 1e-12])
    def test_gamma_rows_within_tolerance(self, tmp_path, quad_tol):
        cfg = gamma_config(tmp_path / "curve.csv", r_m=0.5)
        cfg["options"]["quad_tol"] = quad_tol
        rows = read_results(run_config(cfg))["rows"]
        assert all(0.0 <= err <= quad_tol for d, _, err in rows)

    def test_byte_identical_reruns(self, tmp_path):
        out1 = run_config(exact_config(tmp_path / "a.csv"))
        out2 = run_config(exact_config(tmp_path / "b.csv"))
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out1 = run_config(exact_config(tmp_path / "a.csv"))
        out2 = run_config(exact_config(tmp_path / "b.csv"), seed_override=99)
        assert out1.read_bytes() != out2.read_bytes()

    def test_round_trip_identity(self, tmp_path):
        from cpsim.cli import write_csv
        out = run_config(gamma_config(tmp_path / "curve.csv"))
        doc = read_results(out)
        rewritten = tmp_path / "again.csv"
        write_csv(rewritten, doc["metadata"], doc["columns"], doc["rows"])
        assert rewritten.read_bytes() == out.read_bytes()

    def test_json_round_trip_identity(self, tmp_path):
        from cpsim.cli import write_json
        cfg = gamma_config(tmp_path / "curve.json")
        cfg["output_format"] = "json"
        out = run_config(cfg)
        doc = read_results(out)
        rewritten = tmp_path / "again.json"
        write_json(rewritten, doc["metadata"], doc["results"])
        assert rewritten.read_bytes() == out.read_bytes()

    def test_sidecar_written(self, tmp_path):
        out = run_config(exact_config(tmp_path / "a.csv"))
        sidecar = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert sidecar["metadata"]["seed"] == 17
        assert "wall_time_s" in sidecar

    def test_trajectories_rows_reduce_the_engine_run(self, tmp_path):
        n_traj, n_steps = 40, 100
        cfg = ensemble_config(tmp_path / "t.csv")
        cfg["options"].update(t_end=n_steps * cfg["params"]["dt"], n_traj=n_traj)
        doc = read_results(run_config(cfg))
        params = cli._parse_params(cfg)
        psi0 = cli._parse_psi0(cfg["options"], params.grid)
        flashes = [[] for _ in range(n_traj)]
        for first, i, v, flashed, _ in propagate_batch(psi0, params, n_steps, n_traj, cfg["seed"]):
            for r in flashed.tolist():
                flashes[first + r].append(i * params.dt)
            final = v
        assert any(not f for f in flashes) and any(len(f) > 1 for f in flashes)
        for (_, count, first_time, mean_x), f, state in zip(doc["rows"], flashes, final):
            assert count == len(f)
            assert first_time == (f[0] if f else -1.0)
            assert mean_x == float(np.sum(params.grid.x * np.abs(state) ** 2))

    def test_compare_experiment(self, tmp_path):
        cfg = {
            "experiment": "compare",
            "seed": 5,
            "output_path": str(tmp_path / "cmp.csv"),
            "params": base_params(),
            "options": {"t_end": 0.3, "n_traj": 60, "n_checkpoints": 4},
        }
        doc = read_results(run_config(cfg))
        cols = doc["columns"]
        for row in doc["rows"]:
            assert row[cols.index("frobenius_distance")] <= row[cols.index("bound")]

    def test_born_json_output(self, tmp_path):
        doc = read_results(run_config(born_config(tmp_path / "born.json")))
        res = doc["results"]
        assert res["zero_flash_runs"] == 0
        assert sum(res["region_counts"]) == 60
        assert res["mean_branch_fidelity"] > 0.999

    def test_potential_experiment(self, tmp_path):
        doc = read_results(run_config(potential_config(tmp_path / "pot.csv")))
        for probe, val, ref in doc["rows"]:
            assert abs(val - ref) < 0.01 * abs(ref)

    def test_energy_experiment(self, tmp_path):
        doc = read_results(run_config(energy_config(tmp_path / "en.csv")))
        energies = [row[1] for row in doc["rows"]]
        assert energies == sorted(energies)


def test_example_configs_validate(capsys):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs
    for path in configs:
        assert main(["validate", str(path)]) == 0, path.name


def test_cli_import_loads_no_scipy():
    """SciPy serves the tests and the benchmark only.  This process has
    loaded it through the test oracles, so a fresh interpreter checks."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, cpsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# fuzz: one field of a valid config at a time
# ---------------------------------------------------------------------------

def small_born_config(path):
    cfg = born_config(path)
    cfg["options"]["n_runs"] = 8
    return cfg


FUZZ_BASES = {
    "exact": exact_config,
    "trajectories": ensemble_config,
    "compare": lambda path: ensemble_config(path, "compare"),
    "master": lambda path: ensemble_config(path, "master"),
    "born": small_born_config,
    "gamma": lambda path: dict(gamma_config(path), options={"d_values": [0.0, 0.5], "r_c": 1.0}),
    "energy": energy_config,
    "potential": potential_config,
}
BAD_VALUES = ["text", [1.0], {"x": 1.0}, None, True, float("nan"), float("inf"),
              float("-inf"), 0, 0.0, -1, -0.5, 10 ** 400]


#: finite magnitudes at the ends of the double range (1.8e308 itself rounds to
#: infinity, so the largest finite double stands in for it)
EXTREMES = [5e-324, 1e-300, 1e300, sys.float_info.max]


@pytest.mark.parametrize("f_kind", ["point_source", "gaussian_smeared"])
@pytest.mark.parametrize("section, key", [("gravity", "g_newton"), ("gravity", "r_g"),
                                          ("gravity", "r_m"), ("options", "r_c"),
                                          ("options", "quad_tol")])
def test_gamma_float_fields_at_extreme_magnitudes_keep_the_exit_contract(tmp_path, f_kind,
                                                                          section, key):
    for value in EXTREMES:
        cfg = gamma_config(tmp_path / "out.csv", r_m=1.0)
        cfg["gravity"]["f_kind"] = f_kind
        cfg[section][key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["run", str(p)])
        assert code in (0, 2, 3, 4), (key, value)
        out = tmp_path / "out.csv"
        if code == 0:
            assert all(math.isfinite(x) for x in all_numbers(read_results(out))), (key, value)
        out.unlink(missing_ok=True)


def sweep_extremes(tmp_path, make, paths):
    """Set each field in ``paths`` of ``make``'s config to each of EXTREMES in
    turn: validate exits 0, 2, 3 or 4; after exit 0, run exits 0, 3 or 4, and
    an exit-0 results file holds only finite numbers."""
    out = tmp_path / "out.res"
    for path in paths:
        for value in EXTREMES:
            cfg = make(str(out))
            lookup(cfg, path[:-1])[path[-1]] = value
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(cfg))
            code = main(["validate", str(p)])
            assert code in (0, 2, 3, 4), (path, value)
            if code:
                continue
            assert main(["run", str(p)]) in (0, 3, 4), (path, value)
            if out.exists():
                assert all(math.isfinite(x) for x in all_numbers(read_results(out))), (path, value)
                out.unlink()


@pytest.mark.parametrize("experiment", ["born", "trajectories", "compare"])
def test_jump_float_fields_at_extreme_magnitudes_keep_the_exit_contract(tmp_path, experiment):
    make = FUZZ_BASES[experiment]
    base = make(str(tmp_path / "out.res"))
    paths = [path for path in field_paths(base) if isinstance(lookup(base, path), float)]
    assert len(paths) >= 8
    sweep_extremes(tmp_path, make, paths)


def with_defaults(make, section, **defaults):
    """``make`` with the optional fields ``defaults`` written out in ``section``."""
    def build(path):
        cfg = make(path)
        cfg[section].update(defaults)
        return cfg
    return build


#: the base configs of the other experiments, their optional float fields written
#: out at their defaults so that the sweep reaches them too
FLOAT_SWEEP_BASES = {
    "energy": with_defaults(energy_config, "options", r_max=24.0, mass=1.0, hbar=1.0),
    "potential": with_defaults(potential_config, "options", m_r=1.0),
    "master": with_defaults(lambda path: ensemble_config(path, "master"), "params",
                            hbar=1.0, c_light=1.0, mass=1.0, m_r=1.0),
}


@pytest.mark.parametrize("experiment", sorted(FLOAT_SWEEP_BASES))
def test_float_fields_and_entries_at_extreme_magnitudes_keep_the_exit_contract(tmp_path,
                                                                              experiment):
    # every float field and every float entry of a list of numbers
    make = FLOAT_SWEEP_BASES[experiment]
    base = make(str(tmp_path / "out.res"))
    paths = [path for path in field_paths(base) if isinstance(lookup(base, path), float)]
    assert len(paths) >= 5
    sweep_extremes(tmp_path, make, paths)


def lookup(node, path):
    for name in path:
        node = node[name]
    return node


def field_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        yield prefix + (key,)
        if isinstance(val, (dict, list)):
            yield from field_paths(val, prefix + (key,))


def all_numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from all_numbers(item)
    elif isinstance(node, (int, float)):
        yield node


@pytest.mark.parametrize("experiment", sorted(FUZZ_BASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzzed_config_keeps_the_exit_contract(experiment, data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = FUZZ_BASES[experiment](str(Path(tmp) / "out.res"))
        # a string output_path is valid and would write outside the temporary directory
        paths = [p for p in field_paths(cfg) if p != ("output_path",)]
        path = data.draw(st.sampled_from(paths))
        parent = cfg
        for name in path[:-1]:
            parent = parent[name]
        action = data.draw(st.sampled_from(["set", "delete", "unknown"]))
        if action == "set":
            parent[path[-1]] = data.draw(st.sampled_from(BAD_VALUES))
        elif action == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["surprise"] = 1.0
        p = Path(tmp) / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["validate", str(p)])
        assert code in (0, 2, 3, 4)
        if code:
            return
        # every size in a base config is small and no bad value enlarges one
        assert main(["run", str(p)]) in (0, 3, 4)
        out = Path(cfg["output_path"])
        if out.exists():
            assert all(math.isfinite(x) for x in all_numbers(read_results(out)))
