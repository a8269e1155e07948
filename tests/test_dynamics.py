import os
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from cpsim import dynamics
from cpsim.dynamics import (ModelParams, coarse_grain_consistency, ensemble_vs_master,
                            expected_noflash_probability, flash_rate_density,
                            integrate_master, noflash_bias_vs_gamma, propagate_batch)
from cpsim.errors import ContractViolationError, ConvergenceError, StepSizeError
from cpsim.gravity import GravityParams, grav_unitary
from cpsim.hilbert import SpatialGrid, unitary_from_generator
from cpsim.measurement import born_initial_state, pointer_family
from cpsim.operators import (FockBasis, OperatorFamily, SmearingFunction, build_grw_family,
                             build_smeared_mass, grw_gaussian)
from cpsim.rng import stream
from helpers import random_hermitian


def never_jump(rows):
    """Stand-in uniforms that always refuse the jump branch."""
    return np.ones(len(rows))


def always_jump(rows):
    """Stand-in uniforms that always take the jump branch, at the first node
    with a nonzero rate."""
    return np.zeros(len(rows))


def step(psi, params, uniform):
    """One state through ``dynamics._step``: (state, flashed node or None)."""
    out, _, nodes = dynamics._step(np.asarray(psi).astype(complex)[None], params, uniform)
    return out[0], (int(nodes[0]) if nodes.size else None)


def run_engine(psi0, params, n_steps, n_traj, seed):
    """Flashes (step, node) of each trajectory, and every trajectory's state
    after every step, read from ``propagate_batch``."""
    events = [[] for _ in range(n_traj)]
    states = np.empty((n_steps + 1, n_traj, params.family.dim), dtype=complex)
    for first, i, v, flashed, nodes in propagate_batch(psi0, params, n_steps, n_traj, seed):
        for r, k in zip(flashed.tolist(), nodes.tolist()):
            events[first + r].append((i, k))
        states[i, first:first + len(v)] = v
    return events, states


def natural_params(grid=None, lam=1.0, dt=0.01, hamiltonian=None, r_c=1.0):
    grid = grid or SpatialGrid.line(33, 0.5)
    fam = build_grw_family(grid, grw_gaussian(r_c))
    return ModelParams.natural(lambda_grw=lam, family=fam, dt=dt, hamiltonian=hamiltonian)


def packet(grid, width=1.0, center=0.0):
    v = np.exp(-((grid.x - center) ** 2) / (4.0 * width ** 2)).astype(complex)
    return v / np.linalg.norm(v)


def hopping(n, j=0.5):
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -j
    return h


def fock_mass_case():
    """Mass-proportional rates on a 6-site boson Fock space (at most 2 particles).

    W is the smeared total mass, 0.976 on |site 2> and 1.951 on |sites 2,3>,
    so the drift (<W> - W) does not vanish as it nearly does on a
    localization family that obeys the completeness sum rule.  Returns the
    params, the diagonal of W built from the occupations alone, and the start
    state (|site 2> + |sites 2,3>) / sqrt(2).
    """
    grid = SpatialGrid.line(6, 1.0)
    g = SmearingFunction("gaussian", 1.8, "density")
    basis = FockBasis(6, "boson", 2)
    params = ModelParams.natural(lambda_grw=1.0, family=build_smeared_mass(basis, grid, g, 1.0),
                                 dt=0.005)
    # W_j = sum_s n_s(j) sum_k w_k g(y_s - x_k)
    per_site = [grid.weights @ g.lattice_values(grid, y) for y in grid.positions]
    w_diag = np.array(basis.states) @ per_site
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[[basis.index[(0, 0, 1, 0, 0, 0)], basis.index[(0, 0, 1, 1, 0, 0)]]] = np.sqrt(0.5)
    return params, w_diag, psi0


def noflash_path(psi0, params, t_end):
    """The state after t_end / dt steps of ``dynamics._step`` that all refuse the jump."""
    v = psi0
    for _ in range(int(round(t_end / params.dt))):
        v, node = step(v, params, never_jump)
        assert node is None
    return v


def drift_bound(rate, t_end, w_diag, dt):
    """Bound on the no-flash state's distance from the closed no-jump state.

    Per step the factor 1 + c (<W> - W_j), c = rate dt / 2, misses
    exp(-c W_j) by at most c^2 spread^2 / 2 in each log-ratio of
    amplitudes, and an amplitude moves by at most half that log-ratio.
    """
    return rate ** 2 * t_end * np.ptp(w_diag) ** 2 / 8 * dt


class TestFlashRateDensity:
    def test_total_rate_is_lambda(self):
        params = natural_params(lam=2.5)
        psi = packet(params.grid)
        rates = flash_rate_density(psi, params)
        assert np.all(rates >= 0)
        assert abs(rates.sum() - 2.5) < 2.5 * 1e-6

    def test_zero_rate_constant(self):
        params = natural_params(lam=0.0)
        assert np.all(flash_rate_density(packet(params.grid), params) == 0.0)

    def test_localized_state_peaks_at_its_node(self):
        params = natural_params()
        psi = np.zeros(params.grid.n, dtype=complex)
        psi[21] = 1.0
        rates = flash_rate_density(psi, params)
        assert int(np.argmax(rates)) == 21

    def test_mass_prefactor(self):
        params = replace(natural_params(lam=1.0), mass=7.0)
        rates = flash_rate_density(packet(params.grid), params)
        assert abs(rates.sum() - 7.0) < 7.0 * 1e-6


class TestSseStep:
    def test_position_eigenstate_invariant_without_hamiltonian(self):
        params = natural_params(lam=1e-6)
        psi = np.zeros(params.grid.n, dtype=complex)
        psi[16] = 1.0
        out, node = step(psi, params, never_jump)
        assert node is None
        assert np.max(np.abs(out - psi)) < 1e-12

    def test_jump_applies_projector(self):
        grid = SpatialGrid.line(4, 1.0)
        diag = np.zeros((4, 4))
        diag[2, 2] = 1.0   # member 2 projects onto node 2
        fam = OperatorFamily(grid, diagonals=diag)
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        psi = np.full(4, 0.5, dtype=complex)
        out, node = step(psi, params, always_jump)
        assert node == 2
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1.0
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_per_step_flash_probability(self):
        params = natural_params(lam=1.0, dt=0.02)
        rates = flash_rate_density(packet(params.grid), params)
        assert abs(params.dt * rates.sum() - 1.0 * 0.02) < 0.02 * 1e-6

    def test_step_validity_enforced(self):
        params = natural_params(lam=10.0, dt=0.01)
        with pytest.raises(StepSizeError):
            step(packet(params.grid), params, never_jump)

    def test_drift_dt_halving_convergence(self):
        # conditioned on no flash the step is deterministic; global error O(dt)
        grid = SpatialGrid.line(17, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        psi0 = packet(grid, width=0.8, center=0.7)
        t_end = 0.5

        def evolve(dt):
            params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=dt,
                                         hamiltonian=hopping(17))
            v = psi0.copy()
            for _ in range(int(round(t_end / dt))):
                v, _ = step(v, params, never_jump)
            return v

        ref = evolve(1e-4)
        errs = [np.linalg.norm(evolve(dt) - ref) for dt in (0.02, 0.01, 0.005)]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(1.5 < r < 3.0 for r in ratios)

    def test_noflash_branch_matches_closed_no_jump_state(self):
        params, w_diag, psi0 = fock_mass_case()
        t_end, rate = 1.5, params.rate_scale
        v = noflash_path(psi0, params, t_end)
        closed = psi0 * np.exp(-0.5 * rate * w_diag * t_end)
        closed /= np.linalg.norm(closed)
        assert np.max(np.abs(v - closed)) <= drift_bound(rate, t_end, w_diag[psi0 != 0],
                                                         params.dt)

    @pytest.mark.parametrize("dt", [0.01, 0.005])
    def test_noflash_branch_with_hamiltonian_matches_closed_no_jump_state(self, dt, rng):
        from scipy.linalg import expm

        params, w_diag, psi0 = fock_mass_case()
        h = 0.5 * random_hermitian(len(psi0), rng)
        params = replace(params, dt=dt, hamiltonian=h)
        t_end, rate = 1.5, params.rate_scale
        v = noflash_path(psi0, params, t_end)
        closed = expm(-(1j * h / params.hbar + 0.5 * rate * np.diag(w_diag)) * t_end) @ psi0
        closed /= np.linalg.norm(closed)
        # H mixes every sector, so the drift error takes the spread of all of
        # W; the symmetric splitting around H adds only O(dt^2)
        assert np.max(np.abs(v - closed)) <= drift_bound(rate, t_end, w_diag, dt)

    @pytest.mark.parametrize("dt", [0.02, 0.01, 0.005])
    def test_noflash_branch_at_the_grid_edge(self, dt):
        # on the 16-node localization grid W is 1.000 in the bulk but 0.641
        # at the edge, so a state on nodes 0 and 8 feels the drift there
        grid = SpatialGrid.line(16, 0.5)
        params = natural_params(grid=grid, lam=1.0, dt=dt)
        # W_j = sum_k w_k |L_k(x_j)|^2 with |L_k(x)|^2 = exp(-(x - x_k)^2) / sqrt(pi)
        w_diag = np.exp(-np.subtract.outer(grid.x, grid.x) ** 2) @ grid.weights / np.sqrt(np.pi)
        psi0 = np.zeros(grid.n, dtype=complex)
        psi0[[0, 8]] = np.sqrt(0.5)
        t_end, rate = 2.0, params.rate_scale
        v = noflash_path(psi0, params, t_end)
        closed = psi0 * np.exp(-0.5 * rate * w_diag * t_end)
        closed /= np.linalg.norm(closed)
        assert np.max(np.abs(v - closed)) <= drift_bound(rate, t_end, w_diag[[0, 8]], dt)

    def test_noflash_fraction_matches_closed_survival(self):
        # the jump process itself on the Fock family: survival without a flash
        # up to t is sum_j |psi_j|^2 exp(-rate W_j t)
        params, w_diag, psi0 = fock_mass_case()
        t_end, n_traj = 1.5, 4000
        survived = np.ones(n_traj, dtype=bool)
        n_steps = int(round(t_end / params.dt))
        for first, _, v, flashed, _ in propagate_batch(psi0, params, n_steps, n_traj, seed=11):
            survived[first + flashed] = False
        p = float(np.sum(np.abs(psi0) ** 2 * np.exp(-params.rate_scale * w_diag * t_end)))
        sigma = np.sqrt(p * (1 - p) / n_traj)
        assert abs(survived.mean() - p) < 4 * sigma


class TestTrajectories:
    def test_free_evolution_matches_unitary(self):
        h = hopping(33)
        params = natural_params(lam=0.0, dt=0.01, hamiltonian=h)
        psi0 = packet(params.grid)
        events, states = run_engine(psi0, params, 100, 1, seed=3)
        exact = unitary_from_generator(h, 1.0) @ psi0
        assert events == [[]]
        assert np.max(np.abs(states[-1, 0] - exact)) < 1e-8

    def test_seed_reproducibility(self):
        params = natural_params(lam=1.0, dt=0.01)
        psi0 = packet(params.grid)
        events_a, states_a = run_engine(psi0, params, 50, 3, seed=11)
        events_b, states_b = run_engine(psi0, params, 50, 3, seed=11)
        assert events_a == events_b
        assert np.array_equal(states_a, states_b)

    def test_mean_flash_count(self):
        params = natural_params(lam=1.0, dt=0.01)
        psi0 = packet(params.grid)
        events, _ = run_engine(psi0, params, 100, 300, seed=8)
        counts = [len(e) for e in events]
        mean = np.mean(counts)
        # Poisson with rate lambda t_end = 1
        assert abs(mean - 1.0) < 3 * np.sqrt(1.0 / 300)


def dressed_params(n, lam, j):
    """Gravity-dressed members, whose complex phases vary over the grid, with hopping."""
    grid = SpatialGrid.line(n, 0.5)
    gp = GravityParams(G=1.0, r_g=0.5, r_m=0.7, F_kind="gaussian_smeared")
    fam = grav_unitary(build_grw_family(grid, grw_gaussian(1.0)), gp)
    return ModelParams.natural(lambda_grw=lam, family=fam, dt=0.01, hamiltonian=hopping(n, j))


ENGINE_CASES = {
    "diagonal": lambda: natural_params(grid=SpatialGrid.line(16, 0.5), lam=4.0),
    "diagonal+hopping": lambda: natural_params(grid=SpatialGrid.line(16, 0.5), lam=4.0,
                                               hamiltonian=hopping(16)),
    "gravity_dressed+hopping": lambda: dressed_params(16, 4.0, 0.5),
}


class TestBatchEngine:
    N_TRAJ = 9

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_chunk_size_does_not_change_trajectories(self, case, monkeypatch):
        params = ENGINE_CASES[case]()
        psi0 = packet(params.grid)
        runs = {}
        for chunk in (1, 3, 7, self.N_TRAJ + 1):
            monkeypatch.setattr(dynamics, "_CHUNK", chunk)
            runs[chunk] = run_engine(psi0, params, 200, self.N_TRAJ, seed=31)
        ref_events, ref_states = runs[self.N_TRAJ + 1]
        assert sum(len(e) for e in ref_events) >= 5
        for events, states in runs.values():
            assert events == ref_events
            assert np.array_equal(states, ref_states)

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_matches_sse_step_loop(self, case, monkeypatch):
        # the step helper runs the complex arithmetic on one row; without a
        # Hamiltonian the engine runs the real one, and every state must match
        monkeypatch.setattr(dynamics, "_CHUNK", 4)
        params = ENGINE_CASES[case]()
        psi0 = packet(params.grid)
        n_steps = 50
        events, states = run_engine(psi0, params, n_steps, self.N_TRAJ, seed=32)
        for k in range(self.N_TRAJ):
            # reference: one row stepped alone, drawing rng.random() once per
            # step and once more per flash
            rng = stream(32, k)
            v, loop = psi0, []
            for i in range(1, n_steps + 1):
                v, node = step(v, params, lambda rows: np.array([rng.random() for _ in rows]))
                if node is not None:
                    loop.append((i, node))
                assert np.array_equal(states[i, k], v)
            assert events[k] == loop

    @pytest.mark.parametrize("case, real", [("diagonal", True), ("diagonal+hopping", False),
                                            ("gravity_dressed+hopping", False)])
    def test_real_rows_without_a_hamiltonian(self, case, real):
        params = ENGINE_CASES[case]()
        psi0 = packet(params.grid)
        for start, dtype in ((psi0, float if real else complex), (1j * psi0, complex)):
            _, _, states, _, _ = next(propagate_batch(start, params, 1, 2, seed=1))
            assert states.dtype == dtype

    def test_any_row_over_the_step_limit_raises(self):
        grid = SpatialGrid.line(2, 1.0)
        fam = OperatorFamily(grid, diagonals=np.diag([1.0, 0.1]))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.08)
        low = np.array([0.0, 1.0], dtype=complex)    # p = 0.0008
        high = np.array([1.0, 0.0], dtype=complex)   # p = 0.08

        dynamics._step(np.array([low, low]), params, never_jump)
        for batch in ([low, high], [high, low], [low, low, high]):
            with pytest.raises(StepSizeError):
                dynamics._step(np.array(batch), params, never_jump)


def edge_case():
    """Rate-1 params on the 16-node localization grid, where W is 1.000 in the
    bulk but 0.641 at the edge, and equal weights on nodes 0 and 8."""
    params = natural_params(grid=SpatialGrid.line(16, 0.5), lam=1.0)
    p0 = np.zeros(16)
    p0[[0, 8]] = 0.5
    return params, p0


def first_flashes(p0, params, t_end, n_traj, seed):
    """Time and node of each trajectory's first flash (nan and -1 without one)."""
    times, nodes = np.full(n_traj, np.nan), np.full(n_traj, -1)
    for first, rows, t, k, _ in dynamics._flash_to_flash(p0, params, t_end, n_traj, seed):
        runs = first + rows
        new = nodes[runs] < 0
        times[runs[new]], nodes[runs[new]] = t[new], k[new]
    return times, nodes


def flash_log(p0, params, t_end, n_traj, seed):
    """Every flash (time, node, post-flash weights) of each trajectory."""
    events = [[] for _ in range(n_traj)]
    for first, rows, times, nodes, states in dynamics._flash_to_flash(p0, params, t_end,
                                                                       n_traj, seed):
        for r, t, k, p in zip(rows.tolist(), times.tolist(), nodes.tolist(), states):
            events[first + r].append((t, k, p.tolist()))
    return events


class TestWaitingTimeEngine:
    """Oracles of the waiting-time engine on the grid-edge state, where the
    survival S(t) = sum_j p_j exp(-r W_j t) is far from one exponential."""

    T_END, N_TRAJ = 3.0, 20000

    @pytest.fixture(scope="class")
    def sample(self):
        params, p0 = edge_case()
        times, nodes = first_flashes(p0, params, self.T_END, self.N_TRAJ, seed=41)
        return params, p0, times, nodes

    @staticmethod
    def survival(params, p0, t):
        return np.exp(-np.multiply.outer(t, params.rate_scale * params.weighted_l2)) @ p0

    def test_first_waits_follow_the_closed_survival(self, sample):
        from scipy import stats

        params, p0, times, nodes = sample
        # the first waits of the runs that flash, against 1 - S(t) given t <= t_end;
        # one exponential at <W> is off by up to 0.013 in this cdf
        reach = 1.0 - self.survival(params, p0, self.T_END)

        def cdf(t):
            return (1.0 - self.survival(params, p0, t)) / reach
        assert stats.kstest(times[nodes >= 0], cdf).pvalue > 0.01

    def test_noflash_fraction_is_the_survival_at_t_end(self, sample):
        params, p0, _, nodes = sample
        p = self.survival(params, p0, self.T_END)
        sigma = np.sqrt(p * (1 - p) / self.N_TRAJ)
        assert abs(np.mean(nodes < 0) - p) < 4 * sigma

    def test_first_flash_nodes_follow_the_rates_at_the_flash_state(self, sample):
        from scipy import stats

        params, p0, _, nodes = sample
        # a flash at t picks node k with rate r w_k sum_j l2_kj p_j e^{-r W_j t} / S(t);
        # integrated over t <= t_end that is w_k sum_j l2_kj p_j (1 - e^{-r W_j t_end}) / W_j
        w, l2, big_w = params.grid.weights, params.family.l2_diagonals(), params.weighted_l2
        reach = p0 * -np.expm1(-params.rate_scale * big_w * self.T_END) / big_w
        expected = w * (l2 @ reach)
        observed = np.bincount(nodes[nodes >= 0], minlength=len(w))
        keep = expected * observed.sum() / expected.sum() >= 5
        assert keep.sum() >= 8
        tail = np.array([observed[~keep].sum()])
        f_obs = np.concatenate([observed[keep], tail])
        f_exp = np.concatenate([expected[keep], [expected[~keep].sum()]])
        assert stats.chisquare(f_obs, f_exp * f_obs.sum() / f_exp.sum()).pvalue > 0.01

    @pytest.mark.parametrize("u", [1 - 1e-12, 0.5, 1e-3, 2.0 ** -53])
    def test_wait_is_the_closed_root(self, u):
        import mpmath

        params, p0 = edge_case()
        rw = params.rate_scale * params.weighted_l2
        tau = dynamics._waits(p0[None], rw, np.log(np.array([u])))[0]
        with mpmath.workdps(40):
            a, b = mpmath.mpf(rw[0]), mpmath.mpf(rw[8])
            root = mpmath.findroot(lambda t: (mpmath.exp(-a * t) + mpmath.exp(-b * t)) / 2
                                   - mpmath.mpf(u), mpmath.mpf(tau))
            assert float(abs(tau - root) / root) <= 1e-12

    def test_log_survival_keeps_its_relative_precision(self):
        import mpmath

        # short waits need 1 - S from expm1 and log S from log1p; long ones the
        # log of the sum.  The slope is r <W> at the decayed weights
        params, p0 = edge_case()
        rw = params.rate_scale * params.weighted_l2
        taus = np.array([1e-14, 1e-12, 1e-8, 1e-3, 0.5, 5.0, 30.0])
        log_s, slope = dynamics._survival(np.tile(p0, (len(taus), 1)), rw, taus)
        with mpmath.workdps(40):
            a, b = mpmath.mpf(rw[0]), mpmath.mpf(rw[8])
            for tau, got_log, got_slope in zip(taus, log_s, slope):
                ea, eb = mpmath.exp(-a * mpmath.mpf(tau)), mpmath.exp(-b * mpmath.mpf(tau))
                want_log = mpmath.log((ea + eb) / 2)
                want_slope = (a * ea + b * eb) / (ea + eb)
                assert float(abs(got_log - want_log) / abs(want_log)) <= 1e-13, tau
                assert float(abs(got_slope - want_slope) / want_slope) <= 1e-13, tau

    def test_newton_cap_raises(self, monkeypatch):
        params, p0 = edge_case()
        rw = params.rate_scale * params.weighted_l2
        monkeypatch.setattr(dynamics, "_MAX_NEWTON", 1)
        with pytest.raises(ConvergenceError, match="Newton"):
            dynamics._waits(p0[None], rw, np.log(np.array([0.5])))

    def test_runs_do_not_depend_on_the_run_count(self):
        # 600 runs fill two chunks; runs 0-9 must flash exactly as in a 10-run batch
        grid = SpatialGrid.line(36, 0.5)
        params = ModelParams.natural(lambda_grw=1.0, dt=8e-4, mass=50.0,
                                     family=pointer_family(grid, grw_gaussian(1.0), 2))
        psi0 = born_initial_state(np.sqrt([0.25, 0.75]), (-4.5, 4.5), params, 0.5)
        p0 = np.abs(psi0) ** 2
        many = flash_log(p0, params, 0.5, 600, seed=12)
        few = flash_log(p0, params, 0.5, 10, seed=12)
        assert sum(len(e) for e in few) >= 100
        assert many[:10] == few

    def test_refuses_a_hamiltonian(self):
        params = natural_params(grid=SpatialGrid.line(16, 0.5), hamiltonian=hopping(16))
        with pytest.raises(ContractViolationError, match="Hamiltonian"):
            next(dynamics._flash_to_flash(np.ones(16), params, 1.0, 2, seed=1))


def cpu_beyond_wall_at_64_nodes(work, prepare="pass"):
    """Process CPU time minus wall time of the statement ``work`` on a 64-node
    hopping system (``params``, start state ``psi``), counting a 0.3 s sleep
    after it, in a fresh interpreter.  A threaded BLAS call at 64 nodes wakes
    a second thread that spins for about 0.13 s of CPU after the call; work on
    one thread spends no more CPU than wall time.  ``prepare`` runs first,
    untimed."""
    code = textwrap.dedent(f"""
        import time
        import numpy as np
        from cpsim.dynamics import ModelParams, integrate_master, propagate_batch
        from cpsim.hilbert import SpatialGrid
        from cpsim.operators import build_grw_family, grw_gaussian
        n = 64
        grid = SpatialGrid.line(n, 0.5)
        h = np.diag(np.full(n - 1, -0.5 + 0j), 1)
        h = h + h.T
        params = ModelParams.natural(lambda_grw=1.0, family=build_grw_family(
            grid, grw_gaussian(1.0)), dt=0.01, hamiltonian=h)
        psi = np.exp(-grid.x ** 2 / 4.0).astype(complex)
        psi /= np.linalg.norm(psi)
        {prepare}
        cpu, wall = time.process_time(), time.perf_counter()
        {work}
        wall = time.perf_counter() - wall
        time.sleep(0.3)
        print(time.process_time() - cpu - wall)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(dynamics.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


class TestLindblad:
    def test_free_case_matches_von_neumann(self):
        h = hopping(9, j=0.8)
        grid = SpatialGrid.line(9, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        params = ModelParams.natural(lambda_grw=0.0, family=fam, dt=0.01, hamiltonian=h)
        psi = packet(grid, width=0.7)
        _, rhos, _ = zip(*integrate_master(np.outer(psi, psi.conj()), params, 1.0,
                                           n_checkpoints=2))
        rho = rhos[-1]
        u = unitary_from_generator(h, 1.0)
        ref = u @ np.outer(psi, psi.conj()) @ u.conj().T
        assert np.max(np.abs(rho - ref)) < 1e-9

    def test_grw_dephasing_closed_form(self):
        params = natural_params(lam=1.0, dt=0.01)
        grid = params.grid
        u = np.zeros(grid.n, dtype=complex)
        u[10:23] = 1.0
        u /= np.linalg.norm(u)
        rho0 = np.outer(u, u.conj())
        times, rhos, _ = zip(*integrate_master(rho0, params, 2.0, n_checkpoints=3))
        worst = 0.0
        for i in range(10, 23):
            for j in range(10, 23):
                if i == j:
                    continue
                d = abs(grid.x[i] - grid.x[j]) / 2.0
                rate = 1.0 * (1.0 - np.exp(-(d ** 2)))
                for t, r in zip(times, rhos):
                    ref = rho0[i, j] * np.exp(-rate * t)
                    worst = max(worst, abs(r[i, j] - ref) / abs(ref))
        assert worst < 1e-3

    def test_diagonal_entries_constant_under_dephasing(self):
        params = natural_params(lam=1.0, dt=0.01)
        psi = packet(params.grid)
        rho0 = np.outer(psi, psi.conj())
        _, rhos, _ = zip(*integrate_master(rho0, params, 1.0, n_checkpoints=2))
        assert np.max(np.abs(np.diag(rhos[-1]) - np.diag(rho0))) < 1e-9

    def test_maximally_mixed_is_stationary(self):
        params = natural_params(lam=1.0, dt=0.01)
        n = params.grid.n
        rho = np.eye(n, dtype=complex) / n
        _, rhos, _ = zip(*integrate_master(rho, params, 1.0, n_checkpoints=2))
        assert np.max(np.abs(rhos[-1] - rho)) < 1e-10

    def test_trace_over_thousand_steps(self):
        params = natural_params(lam=1.0, dt=0.005)
        psi = packet(params.grid)
        _, rhos, _ = zip(*integrate_master(np.outer(psi, psi.conj()), params, 5.0,
                                           n_checkpoints=1001))
        assert len(rhos) == 1001
        rho = rhos[-1]
        assert abs(rho.trace().real - 1.0) < 1e-8
        assert float(np.linalg.eigvalsh(rho).min()) > -1e-8

    def test_negative_checkpoint_eigenvalue_raises(self):
        params = natural_params(lam=1.0)
        n = params.grid.n
        rho = np.diag(np.r_[1.1, -0.1, np.zeros(n - 2)]).astype(complex)
        with pytest.raises(StepSizeError, match="eigenvalue"):
            list(integrate_master(rho, params, 0.1, n_checkpoints=2))

    def test_negative_part_over_the_limit_raises(self):
        # the smallest eigenvalue, -0.6e-8, is above -1e-8, but the negative
        # eigenvalues sum to -1.2e-8
        params = natural_params(lam=0.0)
        n = params.grid.n
        rho = np.diag(np.r_[1 + 1.2e-8, -0.6e-8, -0.6e-8, np.zeros(n - 3)]).astype(complex)
        with pytest.raises(StepSizeError, match="eigenvalue"):
            list(integrate_master(rho, params, 0.1, n_checkpoints=2))

    def test_non_hermitian_start_state_raises(self):
        # lindblad_rhs forms [H, rho] as A - A^dag with A = H rho, which needs rho = rho^dag
        params = natural_params(grid=SpatialGrid.line(5, 0.5), hamiltonian=hopping(5))
        rho = np.eye(5, dtype=complex) / 5
        rho[0, 1] = 1e-3
        with pytest.raises(ContractViolationError, match="Hermiticity"):
            list(integrate_master(rho, params, 0.1, n_checkpoints=2))

    def test_master_run_leaves_no_busy_blas_thread(self):
        work = "list(integrate_master(np.outer(psi, psi.conj()), params, 3.0))"
        assert cpu_beyond_wall_at_64_nodes(work) <= 0.05

    def test_jump_engine_leaves_no_busy_blas_thread(self):
        # the Hamiltonian half steps are einsum products, which stay on one
        # thread at any row count; a BLAS product at 64 nodes would not.  The
        # half-step unitary is built first and given time to settle: its
        # eigendecomposition and product do wake the second thread
        work = "for _ in propagate_batch(psi, params, 50, 100, seed=1): pass"
        prepare = "params.half_step_unitary; time.sleep(0.3)"
        assert cpu_beyond_wall_at_64_nodes(work, prepare) <= 0.05

    def test_waiting_time_engine_leaves_no_busy_blas_thread(self):
        # the node rates of a 512-run chunk are one product with the 64 x 64
        # rate matrix, taken in row blocks that stay on one thread
        work = "for _ in _flash_to_flash(np.abs(psi) ** 2, params, 20.0, 512, seed=1): pass"
        prepare = ("from dataclasses import replace; from cpsim.dynamics import _flash_to_flash; "
                   "params = replace(params, hamiltonian=None)")
        assert cpu_beyond_wall_at_64_nodes(work, prepare) <= 0.05

    def test_unbounded_propagation_work_raises(self):
        params = natural_params(lam=1.0, hamiltonian=hopping(33))
        params = replace(params, hbar=1e-300)
        psi = packet(params.grid)
        with pytest.raises(StepSizeError, match="substeps"):
            list(integrate_master(np.outer(psi, psi.conj()), params, 1.0))

    def test_jump_phase_is_unobservable(self):
        params = natural_params()
        psi = packet(params.grid)
        out, _ = step(psi, params, always_jump)
        alt = -1j * out
        assert np.max(np.abs(np.outer(out, out.conj()) - np.outer(alt, alt.conj()))) < 1e-14


def liouvillian(params):
    """Dense Liouvillian of the collapse master equation on row-major vec(rho).

    Built term by term from Kronecker products, vec(A X B) = (A kron B^T) vec(X),
    with every member in the generic dissipator form (no Hadamard shortcut).
    """
    fam = params.family
    members = [np.diag(b.astype(complex)) for b in fam.diagonals]
    eye = np.eye(fam.dim)
    out = np.zeros((fam.dim ** 2, fam.dim ** 2), dtype=complex)
    if params.hamiltonian is not None:
        h = params.hamiltonian
        out += (-1j / params.hbar) * (np.kron(h, eye) - np.kron(eye, h.T))
    for w, a in zip(fam.grid.weights, members):
        aa = a.conj().T @ a
        out += params.rate_scale * w * (np.kron(a, a.conj())
                                        - 0.5 * (np.kron(aa, eye) + np.kron(eye, aa.T)))
    return out


ORACLE_CASES = {
    "diagonal": lambda: natural_params(grid=SpatialGrid.line(5, 0.5), lam=1.7),
    "diagonal+hopping": lambda: natural_params(grid=SpatialGrid.line(5, 0.5), lam=1.7,
                                               hamiltonian=hopping(5, 0.9)),
    "gravity_dressed+hopping": lambda: dressed_params(5, 1.7, 0.9),
    # Im H != 0 takes the second real product of lindblad_rhs
    "diagonal+complex_hermitian": lambda: natural_params(
        grid=SpatialGrid.line(5, 0.5), lam=1.7,
        hamiltonian=random_hermitian(5, np.random.default_rng(5))),
}


class TestPropagatorOracle:
    """The propagator against scipy.linalg.expm of the dense Liouvillian."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_within_reported_truncation_bound(self, case, rng):
        from scipy.linalg import expm

        params = ORACLE_CASES[case]()
        n = params.family.dim
        rho0 = random_hermitian(n, rng)
        rho0 = rho0 @ rho0
        rho0 /= rho0.trace()
        times, rhos, errs = zip(*integrate_master(rho0, params, 3.0, n_checkpoints=7))
        lv = liouvillian(params)
        assert len(times) == len(errs) == 7
        for t, rho, err in zip(times, rhos, errs):
            ref = (expm(lv * t) @ rho0.ravel()).reshape(n, n)
            assert np.max(np.abs(rho - ref)) <= err + 1e-14
        assert 0.0 < errs[-1] < 1e-13


class TestEnsembleVsMaster:
    def test_free_case_agrees_tightly(self):
        params = natural_params(lam=0.0, dt=0.01, hamiltonian=hopping(33))
        rep = ensemble_vs_master(packet(params.grid), params, 0.5, 5, seed=2,
                                 n_checkpoints=4)
        assert np.max(rep.frobenius_distance) < 1e-8

    def test_two_node_toy_within_bound(self):
        grid = SpatialGrid.line(2, 1.0)
        diag = np.array([[1.0, -1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        fam = OperatorFamily(grid, diagonals=diag)
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01,
                                     hamiltonian=np.array([[0, 1], [1, 0]], dtype=complex))
        psi0 = np.array([1.0, 0.0], dtype=complex)
        rep = ensemble_vs_master(psi0, params, 1.0, 4000, seed=21, n_checkpoints=6)
        assert rep.within_bound
        assert rep.bound[0] == pytest.approx(5.0 / np.sqrt(4000))


class TestCoarseGrain:
    def test_noflash_and_two_flash_statistics(self):
        grid = SpatialGrid.line(21, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        psi0 = packet(grid)
        rep = coarse_grain_consistency(params, psi0, gamma=0.01, delta_t=0.02,
                                       n_windows=3000, seed=13)
        # binomial agreement with the first-order law
        assert abs(rep.noflash_freq - rep.expected_noflash) < 4 * rep.noflash_sigma + 5e-4
        assert rep.two_or_more_freq <= 10 * rep.two_flash_expected + 2e-3

    def test_flash_position_histogram(self):
        grid = SpatialGrid.line(21, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        psi0 = packet(grid)
        rep = coarse_grain_consistency(params, psi0, gamma=0.01, delta_t=0.1,
                                       n_windows=4000, seed=29)
        total = rep.node_histogram.sum()
        assert total > 200
        for k in range(grid.n):
            p = rep.expected_node_probs[k]
            sigma = np.sqrt(max(p * (1 - p), 1e-9) / total)
            assert abs(rep.node_histogram[k] / total - p) < 5 * sigma + 0.01

    def test_noflash_bias_linear_in_gamma(self):
        grid = SpatialGrid.line(21, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        psi0 = packet(grid)
        gammas = [0.04, 0.02, 0.01, 0.005]
        pairs = noflash_bias_vs_gamma(params, psi0, gammas, delta_t=0.1)
        slope = np.polyfit(np.log([g for g, _ in pairs]),
                           np.log([b for _, b in pairs]), 1)[0]
        assert abs(slope - 1.0) < 0.1

    def test_monte_carlo_matches_closed_placement_average(self):
        grid = SpatialGrid.line(21, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        psi0 = packet(grid)
        rep = coarse_grain_consistency(params, psi0, gamma=0.02, delta_t=0.1,
                                       n_windows=2000, seed=11)
        closed = expected_noflash_probability(params, psi0, 0.02, 0.1)
        assert abs(rep.noflash_freq - closed) < 4 * rep.noflash_sigma

    def test_closed_placement_average_refuses_dressed_family(self):
        # cos(s b) needs a Hermitian coupling b; cos(s Re b) of a dressed member
        # would give 0.97595 here, a bias that does not shrink with gamma
        grid = SpatialGrid.line(21, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        psi0 = packet(grid)
        undressed = expected_noflash_probability(params, psi0, 0.02, 0.1)
        assert undressed == pytest.approx(0.90508, abs=1e-5)
        dressed = grav_unitary(fam, GravityParams(G=1.0, r_g=0.5, r_m=0.7,
                                                  F_kind="gaussian_smeared"))
        with pytest.raises(ContractViolationError, match="Hermiticity"):
            expected_noflash_probability(replace(params, family=dressed), psi0, 0.02, 0.1)


class TestModelParams:
    def test_invalid_values_rejected(self, grw_family):
        with pytest.raises(ContractViolationError):
            ModelParams.natural(lambda_grw=-1.0, family=grw_family, dt=0.01)
        with pytest.raises(ContractViolationError):
            ModelParams.natural(lambda_grw=1.0, family=grw_family, dt=0.0)
        for mass in (0.0, -1.0):
            with pytest.raises(ContractViolationError, match="masses"):
                ModelParams.natural(lambda_grw=1.0, family=grw_family, dt=0.01, mass=mass)
            with pytest.raises(ContractViolationError, match="masses"):
                ModelParams.natural(lambda_grw=1.0, family=grw_family, dt=0.01, m_r=mass)

    def test_hamiltonian_must_act_on_the_family_dimension(self, grw_family):
        n = grw_family.dim
        ModelParams.natural(lambda_grw=1.0, family=grw_family, dt=0.01, hamiltonian=hopping(n))
        for h in (hopping(n - 1), hopping(n + 1), np.ones(n), np.ones((n, n + 1))):
            with pytest.raises(ContractViolationError, match="hamiltonian"):
                ModelParams.natural(lambda_grw=1.0, family=grw_family, dt=0.01, hamiltonian=h)

    def test_fields_are_frozen(self, grw_family):
        params = ModelParams.natural(lambda_grw=1.0, family=grw_family, dt=0.01)
        with pytest.raises(FrozenInstanceError):
            params.dt = 0.2
        with pytest.raises(FrozenInstanceError):
            params.mass = 7.0
        assert params.grid is grw_family.grid

    def test_replace_rebuilds_the_half_step_unitary(self):
        h = hopping(16)
        params = natural_params(grid=SpatialGrid.line(16, 0.5), lam=0.0, dt=0.01, hamiltonian=h)
        psi = packet(params.grid)
        step(psi, params, never_jump)   # caches the dt = 0.01 half step
        wide = replace(params, dt=0.2)
        out, node = step(psi, wide, never_jump)
        assert node is None
        assert np.max(np.abs(out - unitary_from_generator(h, 0.2) @ psi)) < 1e-12


def test_checkpoints_beyond_the_step_count_give_every_step():
    n_steps, every = dynamics._checkpoints(1.0, 0.1, 11)
    assert every == list(range(n_steps + 1))
    for n_checkpoints in (12, 13, 40, 10 ** 12):
        assert dynamics._checkpoints(1.0, 0.1, n_checkpoints) == (n_steps, every)
