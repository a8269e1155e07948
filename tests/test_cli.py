import json

import numpy as np
import pytest

from cpsim.cli import main, read_results, run_config, validate_config
from cpsim.errors import ConfigError


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
        ("region_halfwidth", "wide"),
    ])
    def test_bad_born_numbers_exit_two(self, tmp_path, capsys, key, value):
        cfg = born_config(tmp_path / "born.json")
        opts = cfg["options"] if key == "amplitudes" else cfg["options"]["pointer"]
        opts[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 2
        assert key in capsys.readouterr().err

    def test_zero_energy_r_max_exits_two(self, tmp_path, capsys):
        cfg = energy_config(tmp_path / "en.csv")
        cfg["options"]["r_max"] = 0.0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", str(p)]) == 2
        assert "options.r_max" in capsys.readouterr().err

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
        cfg = {
            "experiment": "potential",
            "seed": 1,
            "output_path": str(tmp_path / "pot.csv"),
            "gravity": {"g_newton": 1.0, "r_g": 0.05, "r_m": 0.0,
                        "f_kind": "gaussian_smeared"},
            "options": {"source_nodes": 21, "source_spacing": 0.1,
                        "probe_distances": [42.0, 84.0]},
        }
        doc = read_results(run_config(cfg))
        for probe, val, ref in doc["rows"]:
            assert abs(val - ref) < 0.01 * abs(ref)

    def test_energy_experiment(self, tmp_path):
        doc = read_results(run_config(energy_config(tmp_path / "en.csv")))
        energies = [row[1] for row in doc["rows"]]
        assert energies == sorted(energies)
