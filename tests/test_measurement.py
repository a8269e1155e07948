from dataclasses import replace

import numpy as np
import pytest

from cpsim.dynamics import ModelParams, integrate_master
from cpsim.errors import ContractViolationError
from cpsim.hilbert import SpatialGrid
from cpsim.measurement import (PointerModel, born_experiment,
                               decoherence_vs_reduction, pointer_family,
                               premeasure, wilson_interval)
from cpsim.operators import grw_gaussian

R_C = 1.0


def demo_setup(amplification=50, n_nodes=36, spacing=0.5, dt=8e-4, lam=1.0):
    grid = SpatialGrid.line(n_nodes, spacing)
    pointer = PointerModel(region_centers=(-4.5, 4.5), r_c=R_C,
                           amplification=amplification)
    family = pointer_family(grid, grw_gaussian(R_C), pointer.outcome_count)
    params = ModelParams.natural(lambda_grw=lam, family=family, dt=dt,
                                 mass=float(amplification))
    return grid, pointer, params


class TestPointerModel:
    def test_minimum_separation_enforced(self):
        with pytest.raises(ContractViolationError):
            PointerModel(region_centers=(-1.5, 1.5), r_c=R_C, amplification=10)

    def test_amplification_positive(self):
        with pytest.raises(ContractViolationError):
            PointerModel(region_centers=(-4.0, 4.0), r_c=R_C, amplification=0)

    def test_classification(self):
        p = PointerModel(region_centers=(-4.0, 4.0), r_c=R_C, amplification=5)
        assert p.classify(-3.1) == 0
        assert p.classify(5.2) == 1


class TestPremeasure:
    def test_single_branch_is_product_state(self):
        grid, pointer, _ = demo_setup()
        psi = premeasure([1.0, 0.0], pointer, grid)
        block = psi.reshape(2, grid.n)
        assert np.linalg.norm(block[1]) == 0.0
        mean_x = float(np.sum(grid.x * np.abs(block[0]) ** 2))
        assert abs(mean_x - pointer.region_centers[0]) < 0.05

    def test_equal_branches_have_schmidt_rank_two(self):
        grid, pointer, _ = demo_setup()
        psi = premeasure(np.sqrt([0.5, 0.5]), pointer, grid)
        sv = np.linalg.svd(psi.reshape(2, grid.n), compute_uv=False)
        assert abs(sv[0] - np.sqrt(0.5)) < 1e-10
        assert abs(sv[1] - np.sqrt(0.5)) < 1e-10

    def test_branch_weights_exact(self):
        grid, pointer, _ = demo_setup()
        psi = premeasure(np.sqrt([0.25, 0.75]), pointer, grid)
        block = psi.reshape(2, grid.n)
        assert abs(np.linalg.norm(block[0]) ** 2 - 0.25) < 1e-12
        assert abs(np.linalg.norm(block[1]) ** 2 - 0.75) < 1e-12

    def test_unnormalized_amplitudes_rejected(self):
        grid, pointer, _ = demo_setup()
        with pytest.raises(ContractViolationError):
            premeasure([1.0, 1.0], pointer, grid)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(250, 1000)
        assert lo < 0.25 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestBornExperiment:
    def test_deterministic_branch(self):
        _, pointer, params = demo_setup()
        rep = born_experiment([1.0, 0.0], pointer, params, t_obs=0.5,
                              n_runs=40, seed=4)
        assert rep.region_frequencies[0] == 1.0
        assert rep.cross_region_runs == 0

    def test_born_frequencies_small_sample(self):
        _, pointer, params = demo_setup()
        rep = born_experiment(np.sqrt([0.25, 0.75]), pointer, params,
                              t_obs=0.5, n_runs=250, seed=9)
        assert rep.zero_flash_runs == 0
        lo, hi = rep.wilson_99[0]
        assert lo <= 0.25 <= hi
        assert rep.mean_branch_fidelity >= 0.999
        assert rep.cross_region_runs <= 0.01 * rep.n_runs
        sigma = np.sqrt(0.25 * 0.75 / rep.n_runs)
        assert abs(rep.region_frequencies[0] - 0.25) <= 3 * sigma + 0.01

    def test_insufficient_amplification_rejected(self):
        _, pointer, params = demo_setup()
        with pytest.raises(ContractViolationError):
            born_experiment(np.sqrt([0.25, 0.75]), pointer, params,
                            t_obs=1e-3, n_runs=10, seed=1)


class TestDecoherenceTiming:
    def test_dephasing_rate_locks_to_flash_rate(self):
        _, pointer, params = demo_setup()
        rep = decoherence_vs_reduction(np.sqrt([0.25, 0.75]), pointer, params)
        assert rep.total_flash_rate == pytest.approx(rep.dephasing_rate, rel=1e-5)
        assert rep.coherence_ratio_at_median == pytest.approx(rep.predicted_ratio, abs=1e-6)
        assert rep.coherence_ratio_at_median == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.xfail(strict=True, reason=(
        "the interband dephasing rate equals the total flash rate for "
        "non-overlapping branches, so the coherence ratio at the median "
        "first-flash time is 2^-(1-overlap) ~ 0.5 for every parameter "
        "choice; it can never reach 0.01"))
    def test_interband_coherence_below_one_percent_before_median_flash(self):
        grid, pointer, params = demo_setup(amplification=50, dt=8e-4)
        psi0 = premeasure(np.sqrt([0.25, 0.75]), pointer, grid)
        rho0 = np.outer(psi0, psi0.conj())
        t_med = np.log(2.0) / params.rate_scale
        params = replace(params, dt=t_med / 40.0)
        _, rhos = integrate_master(rho0, params, t_med, n_checkpoints=2)
        n = grid.n
        left = np.abs(grid.x - pointer.region_centers[0]) < 2 * R_C
        right = np.abs(grid.x - pointer.region_centers[1]) < 2 * R_C

        def interregion_norm(rho):
            blocks = rho.reshape(2, n, 2, n)
            return np.linalg.norm(blocks[:, left][:, :, :, right])

        assert interregion_norm(rhos[-1]) < 0.01 * interregion_norm(rhos[0])
