import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from cpsim import measurement
from cpsim.dynamics import ModelParams, flash_rate_density, integrate_master
from cpsim.errors import ContractViolationError
from cpsim.hilbert import SpatialGrid
from cpsim.measurement import born_experiment, pointer_family, premeasure, wilson_interval
from cpsim.operators import grw_gaussian

R_C = 1.0
CENTERS = (-4.5, 4.5)


def demo_setup(amplification=50, n_nodes=36, spacing=0.5, dt=8e-4, lam=1.0):
    grid = SpatialGrid.line(n_nodes, spacing)
    family = pointer_family(grid, grw_gaussian(R_C), len(CENTERS))
    params = ModelParams.natural(lambda_grw=lam, family=family, dt=dt,
                                 mass=float(amplification))
    return grid, params


class TestPremeasure:
    def test_single_branch_is_product_state(self):
        grid, params = demo_setup()
        psi = premeasure([1.0, 0.0], CENTERS, params.family)
        block = psi.reshape(2, grid.n)
        assert np.linalg.norm(block[1]) == 0.0
        mean_x = float(np.sum(grid.x * np.abs(block[0]) ** 2))
        assert abs(mean_x - CENTERS[0]) < 0.05

    def test_equal_branches_have_schmidt_rank_two(self):
        grid, params = demo_setup()
        psi = premeasure(np.sqrt([0.5, 0.5]), CENTERS, params.family)
        sv = np.linalg.svd(psi.reshape(2, grid.n), compute_uv=False)
        assert abs(sv[0] - np.sqrt(0.5)) < 1e-10
        assert abs(sv[1] - np.sqrt(0.5)) < 1e-10

    def test_branch_weights_exact(self):
        grid, params = demo_setup()
        psi = premeasure(np.sqrt([0.25, 0.75]), CENTERS, params.family)
        block = psi.reshape(2, grid.n)
        assert abs(np.linalg.norm(block[0]) ** 2 - 0.25) < 1e-12
        assert abs(np.linalg.norm(block[1]) ** 2 - 0.75) < 1e-12

    def test_unnormalized_amplitudes_rejected(self):
        _, params = demo_setup()
        with pytest.raises(ContractViolationError):
            premeasure([1.0, 1.0], CENTERS, params.family)

    def test_close_centres_rejected(self):
        # packets of width r_C / 2 reach a centre 3 r_C away; the overlap
        # check refuses every pair closer than about 7.4 r_C
        _, params = demo_setup()
        with pytest.raises(ContractViolationError, match="overlap"):
            premeasure(np.sqrt([0.5, 0.5]), (-1.5, 1.5), params.family)
        premeasure(np.sqrt([0.5, 0.5]), (-3.75, 3.75), params.family)

    def test_single_region_rejected(self):
        _, params = demo_setup()
        with pytest.raises(ContractViolationError, match="two outcome regions"):
            premeasure([1.0], (0.0,), params.family)


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(250, 1000)
        assert lo < 0.25 < hi
        assert 0.0 <= lo <= hi <= 1.0

    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestBornExperiment:
    def test_deterministic_branch(self):
        _, params = demo_setup()
        rep = born_experiment([1.0, 0.0], CENTERS, params, t_obs=0.5,
                              n_runs=40, seed=4)
        assert rep.region_frequencies[0] == 1.0
        assert rep.cross_region_runs == 0

    def test_born_frequencies_small_sample(self):
        _, params = demo_setup()
        rep = born_experiment(np.sqrt([0.25, 0.75]), CENTERS, params,
                              t_obs=0.5, n_runs=250, seed=9)
        assert rep.zero_flash_runs == 0
        lo, hi = rep.wilson_99[0]
        assert lo <= 0.25 <= hi
        assert rep.mean_branch_fidelity >= 0.999
        assert rep.cross_region_runs <= 0.01 * rep.n_runs
        sigma = np.sqrt(0.25 * 0.75 / rep.n_runs)
        assert abs(rep.region_frequencies[0] - 0.25) <= 3 * sigma + 0.01

    def test_imaginary_amplitudes_give_the_same_report(self):
        # the engine carries the weights |psi_j|^2, which are the same bits for
        # real and for imaginary amplitudes, so the reports must match bit for bit
        _, params = demo_setup()
        amps = np.sqrt([0.25, 0.75])
        real = born_experiment(amps, CENTERS, params, t_obs=0.5, n_runs=10, seed=8)
        imag = born_experiment(1j * amps, CENTERS, params, t_obs=0.5, n_runs=10, seed=8)
        for f in fields(real):
            assert np.array_equal(getattr(real, f.name), getattr(imag, f.name)), f.name

    def test_flash_log_bookkeeping(self, monkeypatch):
        # a scripted jump driver on weights: two chunks of two runs, one event
        # per live run per round, between report rounds (nodes None, NaN
        # weights) at 0 and t_obs; a flashed row's weights put `left` on the
        # left block and the rest on the right block
        grid, params = demo_setup()
        left, right = np.flatnonzero(grid.x < 0), np.flatnonzero(grid.x > 0)
        # chunk start: rounds of (rows, times, nodes, left weights)
        script = {0: [([0, 1], [0.3, 0.1], [left[3], right[2]], [0.9, 0.2]),
                      ([0, 1], [0.35, 0.2], [right[5], left[5]], [0.0, 1.0]),
                      ([0], [0.4], [right[4]], [0.5]),
                      ([0], [0.45], [left[2]], [0.7])],
                  2: [([1], [0.05], [left[1]], [0.6])]}

        def engine(psi0, params, times, n_traj, seed, weights):
            assert n_traj == 4 and times == [0.0, 0.5] and weights
            assert abs(np.sum(np.abs(psi0) ** 2) - 1.0) < 1e-12
            report = np.full((2, 2 * grid.n), np.nan)
            for first, rounds in script.items():
                yield first, np.arange(2), np.zeros(2), None, report
                for rows, times, nodes, on_left in rounds:
                    states = np.zeros((len(rows), 2 * grid.n))
                    states[:, :grid.n] = np.array(on_left)[:, None] / grid.n
                    states[:, grid.n:] = (1.0 - np.array(on_left))[:, None] / grid.n
                    yield (first, np.array(rows), np.array(times), np.array(nodes), states)
                yield first, np.arange(2), np.full(2, 0.5), None, report

        monkeypatch.setattr(measurement, "_jumps", engine)
        rep = born_experiment(np.sqrt([0.5, 0.5]), CENTERS, params, t_obs=0.5, n_runs=4, seed=1)
        # run 0: left at 0.3, then right twice and left again; run 1: right at
        # 0.1, then left; run 2 never flashes; run 3: left at 0.05
        assert list(rep.region_counts) == [2, 1]
        assert rep.cross_region_runs == 2
        assert rep.zero_flash_runs == 1
        assert rep.median_first_flash_time == 0.1
        assert abs(rep.mean_branch_fidelity - (0.9 + 0.8 + 0.6) / 3) < 1e-12

    def test_cross_region_record_does_not_grow_with_the_flashes(self, monkeypatch):
        # a scripted jump driver on weights: 5 runs flash once per round, in
        # alternating regions, for 2,000 or 20,000 rounds (1e5 flash rows),
        # between report rounds at 0 and t_obs
        grid, params = demo_setup()
        nodes = np.flatnonzero(grid.x < 0)[:5], np.flatnonzero(grid.x > 0)[:5]
        rows, states = np.arange(5), np.full((5, 2 * grid.n), 0.5 / grid.n)

        def peak(n_rounds):
            def engine(psi0, params, times, n_traj, seed, weights):
                yield 0, rows, np.zeros(5), None, states
                for k in range(n_rounds):
                    yield 0, rows, np.full(5, 1e-6 * k), nodes[k % 2], states
                yield 0, rows, np.full(5, 0.5), None, states
            monkeypatch.setattr(measurement, "_jumps", engine)
            tracemalloc.start()
            try:
                rep = born_experiment(np.sqrt([0.5, 0.5]), CENTERS, params, t_obs=0.5,
                                      n_runs=5, seed=1)
                used = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rep.cross_region_runs == 5 and list(rep.region_counts) == [5, 0]
            return used
        peak(10)   # fills the caches of params first
        short, long = peak(2_000), peak(20_000)
        assert long < short + 64 * 1024, (short, long)

    def test_insufficient_amplification_rejected(self):
        _, params = demo_setup()
        with pytest.raises(ContractViolationError):
            born_experiment(np.sqrt([0.25, 0.75]), CENTERS, params,
                            t_obs=1e-3, n_runs=10, seed=1)


class TestDecoherenceTiming:
    def test_dephasing_rate_locks_to_flash_rate(self):
        # for non-overlapping branches the interband dephasing rate equals the
        # total flash rate, so at the median first-flash time ln 2 / rate the
        # master equation leaves half the interregion coherence
        grid, params = demo_setup()
        psi0 = premeasure(np.sqrt([0.25, 0.75]), CENTERS, params.family)
        t_med = np.log(2.0) / float(flash_rate_density(psi0, params).sum())
        params = replace(params, dt=t_med / 40.0)
        _, rhos, _ = zip(*integrate_master(np.outer(psi0, psi0.conj()), params, t_med,
                                           n_checkpoints=2))
        left = np.abs(grid.x - CENTERS[0]) < 2 * R_C
        right = np.abs(grid.x - CENTERS[1]) < 2 * R_C

        def interregion_norm(rho):
            return np.linalg.norm(rho.reshape(2, grid.n, 2, grid.n)[:, left][:, :, :, right])

        ratio = interregion_norm(rhos[-1]) / interregion_norm(rhos[0])
        assert ratio == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "the interband dephasing rate equals the total flash rate for "
        "non-overlapping branches, so the coherence ratio at the median "
        "first-flash time is 2^-(1-overlap) ~ 0.5 for every parameter "
        "choice; it can never reach 0.01"))
    def test_interband_coherence_below_one_percent_before_median_flash(self):
        grid, params = demo_setup(amplification=50, dt=8e-4)
        psi0 = premeasure(np.sqrt([0.25, 0.75]), CENTERS, params.family)
        rho0 = np.outer(psi0, psi0.conj())
        t_med = np.log(2.0) / params.rate_scale
        params = replace(params, dt=t_med / 40.0)
        _, rhos, _ = zip(*integrate_master(rho0, params, t_med, n_checkpoints=2))
        n = grid.n
        left = np.abs(grid.x - CENTERS[0]) < 2 * R_C
        right = np.abs(grid.x - CENTERS[1]) < 2 * R_C

        def interregion_norm(rho):
            blocks = rho.reshape(2, n, 2, n)
            return np.linalg.norm(blocks[:, left][:, :, :, right])

        assert interregion_norm(rhos[-1]) < 0.01 * interregion_norm(rhos[0])
