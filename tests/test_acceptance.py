"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they appear; every criterion pins its tolerance inline.
"""

import time

import numpy as np

from cpsim.cli import run_config
from cpsim.dynamics import ModelParams, ensemble_vs_master, integrate_master
from cpsim.exact import CollapsePoint, enumerate_chain, interact_once, markov_check
from cpsim.gravity import (GravityParams, energy_after_flash, gamma_of_d,
                           grav_master_dephasing_check, grav_unitary,
                           macro_potential, probe_line_family)
from cpsim.hilbert import SpatialGrid
from cpsim.measurement import born_experiment, pointer_family
from cpsim.operators import (FockBasis, SmearingFunction, build_grw_family,
                             first_quantized_equiv_check, grw_gaussian)
from cpsim.rng import stream
from helpers import random_hermitian, random_state


def verdict(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def hopping(n, j=0.5):
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -j
    return h


def test_01_exact_chain_completeness():
    rng = stream(101)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(200):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(1, 9))
        psi = random_state(dim, rng)
        chain = [CollapsePoint(time=0.05 * (m + 1), gamma=float(rng.uniform(0, 1.5)),
                               operator=random_hermitian(dim, rng))
                 for m in range(n)]
        recs = enumerate_chain(psi, chain, H=random_hermitian(dim, rng))
        worst = max(worst, abs(sum(r.probability for r in recs) - 1.0))
    elapsed = time.monotonic() - t0
    verdict(1, "exact-chain-completeness", worst < 1e-10 and elapsed < 30.0,
            f"max |sum P - 1| = {worst:.2e}, {elapsed:.1f} s for 200 chains")


def test_02_markovianity():
    rng = stream(202)
    worst = 0.0
    for trial in range(50):
        dim = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        psi = random_state(dim, rng)
        chain = [CollapsePoint(time=0.1 * (m + 1), gamma=float(rng.uniform(0, 1.0)),
                               operator=random_hermitian(dim, rng))
                 for m in range(n)]
        worst = max(worst, markov_check(psi, chain, H=random_hermitian(dim, rng)))
    verdict(2, "markov-property", worst < 1e-10,
            f"max single-point probability deviation = {worst:.2e}")


def test_03_first_order_limit():
    rng = stream(303)
    op = random_hermitian(5, rng)
    psi = random_state(5, rng)
    l2 = op @ op
    mean_l2 = float(np.vdot(psi, l2 @ psi).real)
    gammas = [1e-4, 1e-5, 1e-6]
    rel_devs = []
    for g in gammas:
        p, _, _ = interact_once(psi, CollapsePoint(0.0, g, op))
        rel_devs.append(abs(p - g * mean_l2) / p)
    slope = np.polyfit(np.log(gammas), np.log(rel_devs), 1)[0]
    verdict(3, "first-order-limit", abs(slope - 1.0) <= 0.1,
            f"log-log slope of the relative deviation = {slope:.3f}")


def test_04_unraveling_equivalence():
    grid = SpatialGrid.line(16, 0.5)
    family = build_grw_family(grid, grw_gaussian(1.0))
    params = ModelParams.natural(lambda_grw=1.0, family=family, dt=0.02,
                                 hamiltonian=hopping(16))
    psi0 = np.exp(-grid.x ** 2 / 4.0).astype(complex)
    psi0 /= np.linalg.norm(psi0)
    t0 = time.monotonic()
    rep = ensemble_vs_master(psi0, params, t_end=1.0, n_traj=4000, seed=404,
                             n_checkpoints=10)
    elapsed = time.monotonic() - t0
    ok = rep.within_bound and elapsed < 300.0
    verdict(4, "unraveling-equivalence", ok,
            f"max Frobenius distance {rep.frobenius_distance.max():.4f} vs bound "
            f"{rep.bound[0]:.4f} over 10 checkpoints, {elapsed:.0f} s")


def test_05_indistinguishable_operators():
    worst = 0.0
    for sites in (4, 6):
        grid = SpatialGrid.line(sites, 1.0)
        g = SmearingFunction("gaussian", 1.8, "density")
        for statistics in ("boson", "fermion"):
            for n in (1, 2, 3):
                basis = FockBasis(sites, statistics, n)
                worst = max(worst, first_quantized_equiv_check(basis, grid, g, n))
    verdict(5, "indistinguishable-particle-operators", worst < 1e-12,
            f"max second- vs first-quantized deviation = {worst:.2e}")


def test_06_born_rule():
    grid = SpatialGrid.line(36, 0.5)
    family = pointer_family(grid, grw_gaussian(1.0), 2)
    # a pointer of 50 reference masses: amplification 50
    params = ModelParams.natural(lambda_grw=1.0, family=family, dt=8e-4, mass=50.0)
    rep = born_experiment(np.sqrt([0.25, 0.75]), (-4.5, 4.5), params,
                          t_obs=0.5, n_runs=4000, seed=606)
    inside = all(lo <= p <= hi for (lo, hi), p in zip(rep.wilson_99, (0.25, 0.75)))
    cross_ok = rep.cross_region_runs <= 0.01 * rep.n_runs
    verdict(6, "born-rule", inside and cross_ok and rep.zero_flash_runs == 0,
            f"frequencies {np.round(rep.region_frequencies, 4)} vs (0.25, 0.75); "
            f"cross-region runs {rep.cross_region_runs}/{rep.n_runs}")


def test_07_grw_dephasing_closed_form():
    lam = 1.0
    grid = SpatialGrid.line(33, 0.5)
    family = build_grw_family(grid, grw_gaussian(1.0))
    params = ModelParams.natural(lambda_grw=lam, family=family, dt=0.01)
    u = np.zeros(grid.n, dtype=complex)
    u[10:23] = 1.0
    u /= np.linalg.norm(u)
    rho0 = np.outer(u, u.conj())
    times, rhos, _ = zip(*integrate_master(rho0, params, 3.0 / lam, n_checkpoints=7))
    worst = 0.0
    for i in range(10, 23):
        for j in range(10, 23):
            if i == j:
                continue
            d = abs(grid.x[i] - grid.x[j]) / 2.0
            rate = lam * (1.0 - np.exp(-d * d))
            for t, r in zip(times, rhos):
                ref = rho0[i, j] * np.exp(-rate * t)
                worst = max(worst, abs(r[i, j] - ref) / abs(ref))
    verdict(7, "grw-dephasing-closed-form", worst < 1e-3,
            f"max relative off-diagonal deviation = {worst:.2e} over t in [0, 3]")


def test_08_gravitational_asymptotic():
    r_c = 1.0
    r_m = float(np.sqrt(3.0 / 8.0))   # quadratic correction vanishes here
    gp = GravityParams(G=1.0, r_g=1.0, r_m=r_m, F_kind="point_source")
    limit = -(32.0 / 15.0) * r_m ** 1.5 / r_c ** 3
    scale = min(r_m ** 3 / r_c ** 2, r_c ** 2 / r_m) / 10.0
    devs = []
    for k in range(8):   # halving spans a factor 128, beyond two decades
        d = scale * 2.0 ** -k
        g, _ = gamma_of_d(d, gp, r_c, quad_tol=1e-9)
        devs.append(abs(g / d ** 1.5 / limit - 1.0))
    seq_ok = all(dev < 0.02 for dev in devs) and devs == sorted(devs, reverse=True)

    gp0 = GravityParams(G=1.0, r_g=1.0, r_m=0.0, F_kind="point_source")
    analytic_ok = True
    for d in (0.2, 0.7, 1.4):
        g, err = gamma_of_d(d, gp0, r_c)
        analytic_ok &= abs(g - np.expm1(-d * d)) <= 10 * max(err, 1e-15)
    zero_ok = gamma_of_d(0.0, gp, r_c) == (0.0, 0.0)
    verdict(8, "gravitational-asymptotic", seq_ok and analytic_ok and zero_ok,
            f"ratio deviations {max(devs):.4f} -> {min(devs):.6f} over the halving "
            f"sequence; no-gravity and zero-separation checks "
            f"{'pass' if analytic_ok and zero_ok else 'fail'}")


def test_09_gravity_dressed_consistency():
    flash = SpatialGrid.box3d(30, 11.0 / 30)
    probes = np.array([[0.0, 0.0, z] for z in np.linspace(-1.2, 1.2, 5)])
    base = probe_line_family(flash, probes, grw_gaussian(1.0))
    gp = GravityParams(G=1.0, r_g=0.7, r_m=0.5, F_kind="gaussian_smeared")
    dressed = grav_unitary(base, gp)
    bb_dev = float(np.max(np.abs(np.abs(dressed.diagonals) ** 2 - base.diagonals ** 2)))

    params = ModelParams.natural(lambda_grw=1.0, family=dressed, dt=0.02)
    u = np.ones(5, dtype=complex) / np.sqrt(5)
    rho0 = np.outer(u, u.conj())
    dev = grav_master_dephasing_check(rho0, params, gp, t_end=1.0, n_checkpoints=4)

    # guard: without the gravitational enhancement the closed form must miss
    times, rhos, _ = zip(*integrate_master(rho0, params, 1.0, n_checkpoints=4))
    miss = 0.0
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            d = abs(probes[i, 2] - probes[j, 2]) / 2.0
            ref = rho0[i, j] * np.exp(np.expm1(-d * d) * times[-1])
            miss = max(miss, abs(rhos[-1][i, j] - ref) / abs(ref))
    verdict(9, "gravity-dressed-consistency",
            bb_dev < 1e-12 and dev < 1e-3 and miss > 1e-3,
            f"B†B deviation {bb_dev:.1e}; master-vs-closed-form deviation {dev:.1e}; "
            f"gravity-free reference misses by {miss:.1e}")


def test_10_energy_divergence_trend():
    r_c = 1.0
    r = np.linspace(24.0 / 3000, 24.0, 3000)
    psi = np.exp(-r ** 2 / (2 * (2.0 * r_c) ** 2)).astype(complex)
    energies = []
    for r_g in (r_c, r_c / 2, r_c / 4, r_c / 8):
        gp = GravityParams(G=1.0, r_g=r_g, r_m=2.0 * r_c, F_kind="gaussian_smeared")
        energies.append(energy_after_flash(r, psi, gp, mass=1.0, hbar=1.0))
    ratios = [b / a for a, b in zip(energies, energies[1:])]
    verdict(10, "energy-divergence-trend",
            all(x > 0 for x in energies) and all(rr > 1.2 for rr in ratios),
            f"energies {np.round(energies, 4)}, successive ratios {np.round(ratios, 3)}")


def test_11_newtonian_limit():
    grid = SpatialGrid.line(21, 0.1)
    dens = np.exp(-grid.x ** 2 / (2 * 0.09))
    dens /= float(np.sum(grid.weights * dens))     # unit total source mass
    gp = GravityParams(G=1.0, r_g=0.05, r_m=0.0, F_kind="gaussian_smeared")
    extent = grid.volume
    probe = 20.0 * extent
    val = macro_potential(dens, grid, gp, m_r=1.0, x_probe=[probe])
    ref = -1.0 / probe
    rel = abs(val - ref) / abs(ref)
    verdict(11, "newtonian-limit", rel < 0.01,
            f"potential at 20x source extent off by {rel:.2e} relative")


def test_12_determinism(tmp_path):
    configs = [
        {
            "experiment": "exact", "seed": 77, "output_path": "",
            "output_format": "csv",
            "params": {"lambda_grw": 1.0, "dt": 0.02,
                       "grid": {"nodes": 17, "spacing": 0.5},
                       "family": {"kind": "grw_position", "r_c": 1.0}},
            "options": {"mu": 40.0, "gamma": 0.05, "t_end": 0.2, "n_samples": 20},
        },
        {
            "experiment": "compare", "seed": 78, "output_path": "",
            "output_format": "csv",
            "params": {"lambda_grw": 1.0, "dt": 0.02,
                       "grid": {"nodes": 12, "spacing": 0.5},
                       "family": {"kind": "grw_position", "r_c": 1.0}},
            "options": {"t_end": 0.2, "n_traj": 25, "n_checkpoints": 3},
        },
        {
            "experiment": "gamma", "seed": 79, "output_path": "",
            "output_format": "json",
            "gravity": {"g_newton": 1.0, "r_g": 1.0, "r_m": 0.4,
                        "f_kind": "point_source"},
            "options": {"d_values": [0.1, 0.4], "r_c": 1.0, "quad_tol": 1e-8},
        },
    ]
    identical = True
    for i, cfg in enumerate(configs):
        a = dict(cfg, output_path=str(tmp_path / f"a{i}.out"))
        b = dict(cfg, output_path=str(tmp_path / f"b{i}.out"))
        identical &= run_config(a).read_bytes() == run_config(b).read_bytes()
    verdict(12, "determinism", identical,
            "re-runs with identical config and seed are byte-identical")
