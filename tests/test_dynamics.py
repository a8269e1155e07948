import itertools
import os
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError, dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from cpsim import dynamics
from cpsim.cli import validate_config
from cpsim.dynamics import (ModelParams, ensemble_vs_master, expected_noflash_probability,
                            flash_rate_density, integrate_master)
from cpsim.errors import ContractViolationError, ConvergenceError, StepSizeError
from cpsim.exact import _sample_windows
from cpsim.gravity import GravityParams, grav_unitary
from cpsim.hilbert import SpatialGrid
from cpsim.measurement import born_initial_state, pointer_family
from cpsim.operators import (FockBasis, OperatorFamily, SmearingFunction, build_grw_family,
                             build_smeared_mass, grw_gaussian)
from helpers import bench_workloads, random_hermitian, stream


def constant_uniforms(monkeypatch, value):
    """Make every uniform of every stream ``value``: 0 never flashes."""
    monkeypatch.setattr(dynamics, "_uniforms", lambda key: lambda rows: np.full(len(rows), value))


def run_engine(psi0, params, times, n_traj, seed, weights=False):
    """Flashes (time, node) of each trajectory, and every trajectory's
    normalised state (its weights if ``weights``) at each report time, read
    from ``_jumps``."""
    times = np.asarray(times, dtype=float)
    events = [[] for _ in range(n_traj)]
    states = np.empty((len(times), n_traj, params.family.dim), dtype=complex)
    for first, rows, t, nodes, v in dynamics._jumps(psi0, params, times, n_traj, seed, weights):
        if nodes is None:
            states[np.searchsorted(times, t[0]), first + rows] = v
            continue
        for r, tr, k in zip(rows.tolist(), t.tolist(), nodes.tolist()):
            events[first + r].append((tr, k))
    return events, states


def grid_times(t_end, dt):
    """Report times 0, dt, .., t_end."""
    return np.arange(int(round(t_end / dt)) + 1) * dt


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
    so the no-jump state reweights its two sectors, as it nearly does not on
    a localization family that obeys the completeness sum rule.  Returns the
    params, the diagonal of W built from the occupations alone, and the start
    state (|site 2> + |sites 2,3>) / sqrt(2).
    """
    grid = SpatialGrid.line(6, 1.0)
    g = SmearingFunction(1.8, "density")
    basis = FockBasis(6, "boson", 2)
    params = ModelParams.natural(lambda_grw=1.0, family=build_smeared_mass(basis, grid, g, 1.0),
                                 dt=0.005)
    # W_j = sum_s n_s(j) sum_k w_k g(y_s - x_k)
    per_site = [grid.weights @ g.lattice_values(grid, y) for y in grid.positions]
    w_diag = np.array(basis.states) @ per_site
    psi0 = np.zeros(basis.dim, dtype=complex)
    psi0[[basis.index[(0, 0, 1, 0, 0, 0)], basis.index[(0, 0, 1, 1, 0, 0)]]] = np.sqrt(0.5)
    return params, w_diag, psi0


def noflash_path(psi0, params, times, monkeypatch):
    """The normalised state at times[-1] of a run whose uniforms are all 0,
    so that it never flashes."""
    constant_uniforms(monkeypatch, 0.0)
    events, states = run_engine(psi0, params, times, 1, seed=0)
    assert events == [[]]
    return states[-1, 0]


def no_jump_matrix(params):
    """G = -i H / hbar - (r / 2) W, built here from the params' fields."""
    h = 0 if params.hamiltonian is None else params.hamiltonian / params.hbar
    return -1j * h - 0.5 * params.rate_scale * np.diag(params.weighted_l2)


def closed_no_jump_state(psi0, params, t):
    """exp(G t) psi0 normalised, from scipy's expm."""
    v = expm(no_jump_matrix(params) * t) @ psi0
    return v / np.linalg.norm(v)


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
    """The no-jump evolution and the flash of the driver on amplitudes."""

    def test_position_eigenstate_invariant_without_hamiltonian(self, monkeypatch):
        params = natural_params(lam=1e-6)
        psi = np.zeros(params.grid.n, dtype=complex)
        psi[16] = 1.0
        out = noflash_path(psi, params, grid_times(0.1, 0.01), monkeypatch)
        assert np.max(np.abs(out - psi)) < 1e-12

    def test_jump_applies_projector(self, monkeypatch):
        grid = SpatialGrid.line(4, 1.0)
        diag = np.zeros((4, 4))
        diag[2, 2] = 1.0   # member 2 projects onto node 2
        fam = OperatorFamily(grid, diagonals=diag)
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        psi = np.full(4, 0.5, dtype=complex)
        # a uniform of 0.999 flashes within about 0.004 of each flash before
        constant_uniforms(monkeypatch, 0.999)
        events, states = run_engine(psi, params, [0.0, 0.01], 1, seed=0)
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1.0
        assert events[0] and all(k == 2 for _, k in events[0])
        assert np.max(np.abs(states[-1, 0] - expected)) < 1e-14

    def test_per_step_flash_probability(self):
        params = natural_params(lam=1.0, dt=0.02)
        rates = flash_rate_density(packet(params.grid), params)
        assert abs(params.dt * rates.sum() - 1.0 * 0.02) < 0.02 * 1e-6

    def test_drift_dt_halving_convergence(self, monkeypatch):
        # the no-flash state is exp(G t) psi0 normalised on any report grid
        grid = SpatialGrid.line(17, 0.5)
        fam = build_grw_family(grid, grw_gaussian(1.0))
        psi0 = packet(grid, width=0.8, center=0.7)
        t_end = 0.5
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01, hamiltonian=hopping(17))
        ref = closed_no_jump_state(psi0, params, t_end)
        for dt in (0.02, 0.01, 0.005):
            out = noflash_path(psi0, params, grid_times(t_end, dt), monkeypatch)
            assert np.linalg.norm(out - ref) < 1e-12, dt

    def test_noflash_branch_matches_closed_no_jump_state(self, monkeypatch):
        params, w_diag, psi0 = fock_mass_case()
        t_end, rate = 1.5, params.rate_scale
        v = noflash_path(psi0, params, grid_times(t_end, params.dt), monkeypatch)
        closed = psi0 * np.exp(-0.5 * rate * w_diag * t_end)
        closed /= np.linalg.norm(closed)
        assert np.max(np.abs(v - closed)) <= 1e-12

    @pytest.mark.parametrize("dt", [0.01, 0.005])
    def test_noflash_branch_with_hamiltonian_matches_closed_no_jump_state(self, dt, rng,
                                                                          monkeypatch):
        params, w_diag, psi0 = fock_mass_case()
        h = 0.5 * random_hermitian(len(psi0), rng)
        params = replace(params, dt=dt, hamiltonian=h)
        t_end, rate = 1.5, params.rate_scale
        v = noflash_path(psi0, params, grid_times(t_end, dt), monkeypatch)
        closed = expm(-(1j * h / params.hbar + 0.5 * rate * np.diag(w_diag)) * t_end) @ psi0
        closed /= np.linalg.norm(closed)
        assert np.max(np.abs(v - closed)) <= 1e-12

    @pytest.mark.parametrize("dt", [0.02, 0.01, 0.005])
    def test_noflash_branch_at_the_grid_edge(self, dt, monkeypatch):
        # on the 16-node localization grid W is 1.000 in the bulk but 0.641
        # at the edge, so a state on nodes 0 and 8 reweights its two nodes
        grid = SpatialGrid.line(16, 0.5)
        params = natural_params(grid=grid, lam=1.0, dt=dt)
        # W_j = sum_k w_k |L_k(x_j)|^2 with |L_k(x)|^2 = exp(-(x - x_k)^2) / sqrt(pi)
        w_diag = np.exp(-np.subtract.outer(grid.x, grid.x) ** 2) @ grid.weights / np.sqrt(np.pi)
        psi0 = np.zeros(grid.n, dtype=complex)
        psi0[[0, 8]] = np.sqrt(0.5)
        t_end, rate = 2.0, params.rate_scale
        v = noflash_path(psi0, params, grid_times(t_end, dt), monkeypatch)
        closed = psi0 * np.exp(-0.5 * rate * w_diag * t_end)
        closed /= np.linalg.norm(closed)
        assert np.max(np.abs(v - closed)) <= 1e-12

    def test_noflash_fraction_matches_closed_survival(self):
        # the jump process itself on the Fock family: survival without a flash
        # up to t is sum_j |psi_j|^2 exp(-rate W_j t)
        params, w_diag, psi0 = fock_mass_case()
        t_end, n_traj = 1.5, 4000
        events, _ = run_engine(psi0, params, [0.0, t_end], n_traj, seed=11)
        survived = np.array([not e for e in events])
        p = float(np.sum(np.abs(psi0) ** 2 * np.exp(-params.rate_scale * w_diag * t_end)))
        sigma = np.sqrt(p * (1 - p) / n_traj)
        assert abs(survived.mean() - p) < 4 * sigma


class TestTrajectories:
    def test_free_evolution_matches_unitary(self):
        h = hopping(33)
        params = natural_params(lam=0.0, dt=0.01, hamiltonian=h)
        psi0 = packet(params.grid)
        events, states = run_engine(psi0, params, grid_times(1.0, 0.01), 1, seed=3)
        exact = expm(-1j * h) @ psi0
        assert events == [[]]
        assert np.max(np.abs(states[-1, 0] - exact)) < 1e-8

    def test_seed_reproducibility(self):
        params = natural_params(lam=1.0, dt=0.01)
        psi0 = packet(params.grid)
        events_a, states_a = run_engine(psi0, params, grid_times(0.5, 0.01), 3, seed=11)
        events_b, states_b = run_engine(psi0, params, grid_times(0.5, 0.01), 3, seed=11)
        assert events_a == events_b
        assert np.array_equal(states_a, states_b)

    def test_mean_flash_count(self):
        params = natural_params(lam=1.0, dt=0.01)
        psi0 = packet(params.grid)
        events, _ = run_engine(psi0, params, [0.0, 1.0], 300, seed=8)
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
#: from 64 nodes on, the complex row products leave BLAS for einsum
CHUNK_CASES = dict(ENGINE_CASES, **{"diagonal+hopping-64": lambda: natural_params(
    grid=SpatialGrid.line(64, 0.5), lam=4.0, hamiltonian=hopping(64))})


def reference_run(psi0, params, t_end, rng):
    """One trajectory by the stream protocol alone: exp(G t) from scipy's expm,
    each flash time by brentq on ||exp(G s) psi||^2 = u, the node by
    Generator.choice at the flash state, one uniform drawn at a time.
    Returns the flashes (time, node) and the normalised state at t_end."""
    from scipy.optimize import brentq

    g = no_jump_matrix(params)
    psi, t, events = psi0, 0.0, []
    while True:
        u = rng.random()

        def excess(s):
            return np.linalg.norm(expm(g * s) @ psi) ** 2 - u
        if excess(t_end - t) >= 0:
            out = expm(g * (t_end - t)) @ psi
            return events, out / np.linalg.norm(out)
        s = brentq(excess, 0.0, t_end - t, xtol=1e-15, rtol=1e-15)
        at = expm(g * s) @ psi
        rates = flash_rate_density(at, params)
        k = int(rng.choice(len(rates), p=rates / rates.sum()))
        psi = params.family.diagonals[k] * at
        psi = psi / np.linalg.norm(psi)
        t += s
        events.append((t, k))


class TestBatchEngine:
    N_TRAJ = 9

    @staticmethod
    def propagators(params):
        """Amplitudes, and without a Hamiltonian weights too."""
        return (False,) if params.hamiltonian is not None else (False, True)

    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_chunk_size_does_not_change_trajectories(self, case, monkeypatch):
        params = CHUNK_CASES[case]()
        psi0 = packet(params.grid)
        for weights in self.propagators(params):
            # the weight propagator serves a single report gap
            times = [0.0, 2.0] if weights else grid_times(2.0, 0.01)
            runs = {}
            for chunk in (1, 3, 7, self.N_TRAJ + 1):
                monkeypatch.setattr(dynamics, "_CHUNK", chunk)
                runs[chunk] = run_engine(psi0, params, times, self.N_TRAJ, 31, weights)
            ref_events, ref_states = runs[self.N_TRAJ + 1]
            assert sum(len(e) for e in ref_events) >= 5
            for events, states in runs.values():
                assert events == ref_events
                assert np.array_equal(states, ref_states)

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_matches_sse_step_loop(self, case, monkeypatch):
        # each trajectory of the batched engine against one row run alone by
        # the protocol with scipy's expm and brentq, from the same stream
        monkeypatch.setattr(dynamics, "_CHUNK", 4)
        params = ENGINE_CASES[case]()
        psi0 = packet(params.grid)
        t_end = 0.5
        for weights in self.propagators(params):
            events, states = run_engine(psi0, params, [0.0, t_end], self.N_TRAJ, 32, weights)
            assert sum(len(e) for e in events) >= 5
            for k in range(self.N_TRAJ):
                loop, final = reference_run(psi0, params, t_end, stream(32, k))
                assert [node for _, node in events[k]] == [node for _, node in loop]
                assert np.allclose([t for t, _ in events[k]], [t for t, _ in loop],
                                   rtol=1e-10, atol=1e-12)
                # the weight propagator's state is |final|^2
                want = np.abs(final) ** 2 if weights else final
                assert np.max(np.abs(states[-1, k] - want)) < 1e-9


class TestNormDecayEngine:
    """The flash statistics and the stream protocol of the driver on
    amplitudes with a Hamiltonian, on the system of acceptance test 04: 16
    nodes, hopping 0.5, rate 1 and the width-1 gaussian."""

    @staticmethod
    def system():
        params = natural_params(grid=SpatialGrid.line(16, 0.5), lam=1.0, dt=0.02,
                                hamiltonian=hopping(16))
        return params, packet(params.grid)

    def test_first_flash_times_follow_the_no_jump_survival(self):
        from scipy import stats

        params, psi0 = self.system()
        t_end, n_traj = 1.0, 4000
        events, _ = run_engine(psi0, params, [0.0, t_end], n_traj, seed=61)
        first = np.array([e[0][0] for e in events if e])
        g = no_jump_matrix(params)

        def reach(t):   # 1 - ||exp(G t) psi0||^2
            return 1.0 - np.linalg.norm(expm(g * t) @ psi0) ** 2

        def cdf(ts):
            return np.array([reach(t) for t in np.atleast_1d(ts)]) / reach(t_end)
        assert stats.kstest(first, cdf).pvalue > 0.01
        p = 1.0 - reach(t_end)
        assert abs((n_traj - first.size) / n_traj - p) < 4 * np.sqrt(p * (1 - p) / n_traj)

    def test_flash_counts_do_not_depend_on_dt(self):
        params, psi0 = self.system()
        counts = {}
        for dt in (0.02, 0.01, 0.005):
            events, _ = run_engine(psi0, params, grid_times(1.0, dt), 200, seed=62)
            counts[dt] = [len(e) for e in events]
        assert sum(counts[0.02]) >= 100
        assert counts[0.02] == counts[0.01] == counts[0.005]

    def test_a_run_reads_two_uniforms_per_flash_and_one_more(self, monkeypatch):
        params, psi0 = self.system()
        reads, wrapped = {}, dynamics._uniforms

        def counting(key):
            draw = wrapped(key)

            def counted(rows):
                for r in rows.tolist():
                    reads[id(key), r] = reads.get((id(key), r), 0) + 1
                return draw(rows)
            return counted
        monkeypatch.setattr(dynamics, "_uniforms", counting)
        monkeypatch.setattr(dynamics, "_CHUNK", 64)
        events, _ = run_engine(psi0, params, grid_times(3.0, 0.02), 64, seed=63)
        assert sum(len(e) for e in events) >= 100
        assert sorted(reads.values()) == sorted(2 * len(e) + 1 for e in events)

    def test_survival_equal_to_its_uniform_does_not_flash(self, monkeypatch):
        # node 1 has rate 0, so a run there keeps ||psi||^2 = 1 exactly; with
        # every uniform 1 the survival never falls below it
        fam = OperatorFamily(SpatialGrid.line(2, 1.0), diagonals=np.diag([1.0, 0.0]))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)
        constant_uniforms(monkeypatch, 1.0)
        events, states = run_engine(np.array([0.0, 1.0]), params, [0.0, 1.0], 2, seed=0)
        assert events == [[], []]
        assert np.array_equal(states[-1], [[0, 1], [0, 1]])

    def test_newton_steps_out_of_the_bracket_fall_back_to_regula_falsi(self, monkeypatch):
        # a row on the zero-rate node 0, with its end state handed in as one on
        # node 0 too: f is flat at both ends, so both Newton steps leave the
        # bracket, and the first point tried is the chord's zero
        fam = OperatorFamily(SpatialGrid.line(2, 1.0), diagonals=np.diag([0.0, 1.0]))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01,
                                     hamiltonian=np.array([[0, 1], [1, 0]], dtype=complex))

        class Tried(Exception):
            pass

        def first_point(apply, x, h, m):
            raise Tried(np.ravel(h)[0])
        monkeypatch.setattr(dynamics, "_taylor", first_point)
        log_u, f_end = np.log(0.5), np.log(0.3) - np.log(0.5)
        with pytest.raises(Tried) as tried:
            dynamics._crossing(np.array([[1.0, 0j]]), np.array([[np.sqrt(0.3), 0j]]),
                               np.array([0.4]), np.array([log_u]), params, 12)
        chord = 0.4 * -log_u / (-log_u - f_end)
        assert tried.value.args[0] == pytest.approx(chord, rel=1e-15)


def edge_case():
    """Rate-1 params on the 16-node localization grid, where W is 1.000 in the
    bulk but 0.641 at the edge, and equal weights on nodes 0 and 8."""
    params = natural_params(grid=SpatialGrid.line(16, 0.5), lam=1.0)
    p0 = np.zeros(16)
    p0[[0, 8]] = 0.5
    return params, p0


def weight_rounds(psi0, params, t_end, n_traj, seed):
    """The flash rounds of the driver on weights over [0, t_end]."""
    return (r for r in dynamics._jumps(psi0, params, [0.0, t_end], n_traj, seed, True)
            if r[3] is not None)


def first_flashes(psi0, params, t_end, n_traj, seed):
    """Time and node of each trajectory's first flash (nan and -1 without one)."""
    times, nodes = np.full(n_traj, np.nan), np.full(n_traj, -1)
    for first, rows, t, k, _ in weight_rounds(psi0, params, t_end, n_traj, seed):
        runs = first + rows
        new = nodes[runs] < 0
        times[runs[new]], nodes[runs[new]] = t[new], k[new]
    return times, nodes


def flash_log(psi0, params, t_end, n_traj, seed):
    """Every flash (time, node, post-flash weights) of each trajectory."""
    events = [[] for _ in range(n_traj)]
    for first, rows, times, nodes, states in weight_rounds(psi0, params, t_end, n_traj, seed):
        for r, t, k, p in zip(rows.tolist(), times.tolist(), nodes.tolist(), states):
            events[first + r].append((t, k, p.tolist()))
    return events


class TestWaitingTimeEngine:
    """Oracles of the driver on weights on the grid-edge state, where the
    survival S(t) = sum_j p_j exp(-r W_j t) is far from one exponential."""

    T_END, N_TRAJ = 3.0, 20000

    @pytest.fixture(scope="class")
    def sample(self):
        params, p0 = edge_case()
        times, nodes = first_flashes(np.sqrt(p0), params, self.T_END, self.N_TRAJ, seed=41)
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
        many = flash_log(psi0, params, 0.5, 600, seed=12)
        few = flash_log(psi0, params, 0.5, 10, seed=12)
        assert sum(len(e) for e in few) >= 100
        assert many[:10] == few

    def test_node_uniform_on_a_zero_rate_plateau_picks_the_next_node(self, monkeypatch):
        # nodes 0 and 1 have rate 0, so a node uniform of 0 lies on the cdf's
        # leading plateau; the side="right" rule passes over it to node 2
        fam = OperatorFamily(SpatialGrid.line(4, 1.0), diagonals=np.eye(4))
        params = ModelParams.natural(lambda_grw=1.0, family=fam, dt=0.01)

        def uniforms(key):   # 0.5 for every wait, 0 for every node
            values = itertools.cycle((0.5, 0.0))
            return lambda rows: np.full(len(rows), next(values))
        monkeypatch.setattr(dynamics, "_uniforms", uniforms)
        _, rows, _, nodes, _ = next(weight_rounds(np.array([0, 0, 1, 1.0]), params, 10.0, 3, 1))
        assert rows.tolist() == [0, 1, 2] and nodes.tolist() == [2, 2, 2]

    def test_refuses_a_hamiltonian(self):
        params = natural_params(grid=SpatialGrid.line(16, 0.5), hamiltonian=hopping(16))
        with pytest.raises(ContractViolationError, match="Hamiltonian"):
            next(weight_rounds(np.ones(16), params, 1.0, 2, seed=1))

    def test_refuses_all_but_one_ascending_report_gap(self, monkeypatch):
        # the waits need weights summing to 1 at the start of each piece, and a
        # second gap would start from decayed ones; an empty or descending gap
        # would never flash.  No trajectory's stream is keyed
        params = natural_params(grid=SpatialGrid.line(16, 0.5))
        monkeypatch.setattr(dynamics, "keys", None)
        for times in ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 1.5], [0.5, 0.5], [1.0, 0.5]):
            with pytest.raises(ContractViolationError, match="one ascending report gap"):
                next(dynamics._jumps(np.ones(16), params, times, 2, 1, True))

    def test_refuses_runs_of_too_many_expected_flashes(self):
        # about 1e300 expected flashes per run: without the cap the run never ends
        params = natural_params(grid=SpatialGrid.line(16, 0.5), lam=1e300)
        with pytest.raises(ContractViolationError, match="expected flashes"):
            next(weight_rounds(np.ones(16), params, 1.0, 2, seed=1))


def cpu_beyond_wall_at_64_nodes(work, prepare="pass"):
    """Process CPU time minus wall time of the statement ``work`` on a 64-node
    hopping system (``params``, start state ``psi``), counting a 0.3 s sleep
    after it, in a fresh interpreter.  A threaded BLAS call at 64 nodes wakes
    a second thread that spins for about 0.13 s of CPU after the call; work on
    one thread spends no more CPU than wall time.  ``prepare`` runs first,
    untimed, and then a 0.3 s sleep, since the BLAS worker also spins for
    10-40 ms after ``import numpy``."""
    code = textwrap.dedent(f"""
        import time
        import numpy as np
        from cpsim.dynamics import ModelParams, _jumps, integrate_master
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
        time.sleep(0.3)
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


class TestCheckpoints:
    @pytest.mark.parametrize("n_checkpoints", [1, 0, -3])
    def test_refuses_fewer_than_two_checkpoints(self, n_checkpoints):
        # one checkpoint would report the start alone, never t_end
        with pytest.raises(ContractViolationError, match="at least 2 checkpoints"):
            dynamics._checkpoints(1.0, 0.1, n_checkpoints)

    def test_refuses_2_to_the_53_report_steps_and_accepts_one_fewer(self):
        with pytest.raises(ContractViolationError, match="not below 2\\^53"):
            dynamics._checkpoints(2.0 ** 53, 1.0, 11)
        n_steps, marks = dynamics._checkpoints(2.0 ** 53 - 1, 1.0, 11)
        assert n_steps == 2 ** 53 - 1
        assert len(marks) == 11 and marks[0] == 0 and marks[-1] == n_steps
        assert all(type(m) is int for m in marks)

    @pytest.mark.parametrize("t_end, dt, n_checkpoints", [
        (0.1, 0.02, 3), (5.0, 1.0, 3), (7.0, 1.0, 5), (2.0, 0.01, 1001), (1.0, 0.3, 11),
        (0.1, 1e300, 4), (100.0, 1e-10, 7), (2.0 ** 53 - 1, 1.0, 2 ** 12)])
    def test_marks_are_the_rounded_even_spread(self, t_end, dt, n_checkpoints):
        # Python's round, ties to even, of each point of the spread, sorted and distinct
        n_steps = int(round(t_end / dt))
        spread = np.linspace(0, n_steps, min(n_checkpoints, n_steps + 1))
        assert dynamics._checkpoints(t_end, dt, n_checkpoints) == \
            (n_steps, sorted({int(round(c)) for c in spread}))

    def test_marks_strictly_ascend_on_extreme_grids(self):
        # every checkpoint a distinct step from 0 to n, at the largest step
        # counts and on the spreads whose spacing n / (k - 1) is 1 or just above
        grids = [(2 ** 53 - 1, 2 ** 20), (2 ** 53 - 1, 2), (2 ** 53 - 2 ** 20, 2 ** 20),
                 (2 ** 20 - 1, 2 ** 20), (2 ** 20, 2 ** 20), (2 ** 20 + 1, 2 ** 20),
                 (3 * 2 ** 19 + 1, 2 ** 20), (2 ** 21 - 1, 2 ** 20)]
        grids += [(n, k) for n in range(400) for k in (n - 1, n, n + 1) if k >= 2]
        for n, k in grids:
            n_steps, marks = dynamics._checkpoints(float(n), 1.0, k)
            marks = np.array(marks)
            assert n_steps == n and len(marks) == min(k, n + 1)
            assert marks[0] == 0 and marks[-1] == n and np.all(np.diff(marks) > 0)


def spy_negative_part_checks(monkeypatch):
    """A list that records, in order, each Cholesky factorisation ("cholesky",
    or "cholesky failed" where it raised) and each SVD."""
    log, cholesky, svd = [], np.linalg.cholesky, np.linalg.svd

    def cholesky_spy(*args, **kwargs):
        try:
            out = cholesky(*args, **kwargs)
        except np.linalg.LinAlgError:
            log.append("cholesky failed")
            raise
        log.append("cholesky")
        return out

    def svd_spy(*args, **kwargs):
        log.append("svd")
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky_spy)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    return log


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
        u = expm(-1j * h)
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

    def test_eigenvalue_below_the_shift_fails_the_certificate_and_passes_the_svd(
            self, monkeypatch):
        # -0.4e-8 is below -eps = -1e-8 / 66, so r + eps I has no Cholesky
        # factor, but the negative part, 0.4e-8, is within the limit
        params = natural_params(lam=0.0)
        n = params.grid.n
        rho = np.diag(np.r_[1 + 0.4e-8, -0.4e-8, np.zeros(n - 2)]).astype(complex)
        log = spy_negative_part_checks(monkeypatch)
        assert len(list(integrate_master(rho, params, 0.1, n_checkpoints=2))) == 2
        assert log == ["cholesky failed", "svd"]

    def test_certificate_alone_accepts_a_run_at_64_nodes(self, monkeypatch):
        params = natural_params(grid=SpatialGrid.line(64, 0.5), hamiltonian=hopping(64))
        psi = packet(params.grid)
        log = spy_negative_part_checks(monkeypatch)
        assert len(list(integrate_master(np.outer(psi, psi.conj()), params, 1.0))) == 11
        assert log == ["cholesky"] * 10

    @pytest.mark.parametrize("n, checks", [(64, ["cholesky"]), (400, ["svd"])])
    def test_sizes_beyond_the_certificate_go_straight_to_the_svd(self, n, checks, monkeypatch):
        # n (eps + delta) is 5.0e-9 at 64 nodes and 1.9e-8, above 1e-8, at 400
        rho = np.zeros((n, n), dtype=complex)
        rho[0, 0] = 1.0
        log = spy_negative_part_checks(monkeypatch)
        dynamics._check_negative_part(rho)
        assert log == checks

    @pytest.mark.parametrize("workload, experiment, calls", [
        ("chains_master", "master", 85), ("born_unravel", "compare", 40)])
    def test_bench_master_runs_apply_l(self, workload, experiment, calls, monkeypatch, tmp_path):
        # master: 10 gaps of 0.9 units as substeps of 4, 4 and 2 gaps, of
        # degrees 31, 31 and 23; one application of L per degree
        case = next(c for c in bench_workloads().build(workload, 1, tmp_path)
                    if c.cfg["experiment"] == experiment)
        run = validate_config(case.cfg).run
        count, rhs = [0], dynamics.lindblad_rhs

        def spy(*args, **kwargs):
            count[0] += 1
            return rhs(*args, **kwargs)
        monkeypatch.setattr(dynamics, "lindblad_rhs", spy)
        run(case.cfg["seed"])
        assert count[0] == calls

    def test_master_run_leaves_no_busy_blas_thread(self):
        work = "list(integrate_master(np.outer(psi, psi.conj()), params, 3.0))"
        assert cpu_beyond_wall_at_64_nodes(work) <= 0.05

    def test_jump_engine_leaves_no_busy_blas_thread(self):
        # the pieces B(h), their build from the identity and the Taylor
        # polynomials are vector-matrix products row by row, which stay on one
        # thread at any row count; a (rows, 64) BLAS product would not
        work = "for _ in _jumps(psi, params, np.linspace(0, 2, 21), 100, seed=1): pass"
        assert cpu_beyond_wall_at_64_nodes(work) <= 0.05

    def test_waiting_time_engine_leaves_no_busy_blas_thread(self):
        # the node rates of a 512-run chunk are one product with the 64 x 64
        # rate matrix, taken in row blocks that stay on one thread
        work = "for _ in _jumps(psi, params, [0.0, 20.0], 512, 1, weights=True): pass"
        prepare = "from dataclasses import replace; params = replace(params, hamiltonian=None)"
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
        _, _, _, _, states = next(r for r in dynamics._jumps(psi, params, [0, 2], 4, 5)
                                  if r[3] is not None)
        out = states[0]
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

    @staticmethod
    def check(case, rng, n_checkpoints):
        params = ORACLE_CASES[case]()
        n = params.family.dim
        rho0 = random_hermitian(n, rng)
        rho0 = rho0 @ rho0
        rho0 /= rho0.trace()
        times, rhos, errs = zip(*integrate_master(rho0, params, 3.0, n_checkpoints))
        lv = liouvillian(params)
        assert len(times) == len(errs) == n_checkpoints
        for t, rho, err in zip(times, rhos, errs):
            ref = (expm(lv * t) @ rho0.ravel()).reshape(n, n)
            assert np.max(np.abs(rho - ref)) <= err + 1e-14
        assert 0.0 < errs[-1] < 1e-13

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_within_reported_truncation_bound(self, case, rng):
        self.check(case, rng, 7)

    @pytest.mark.parametrize("cap", [8, 2, 1])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_dense_checkpoints_within_reported_truncation_bound(self, case, cap, rng,
                                                                monkeypatch):
        # a substep reaches up to cap of the 30 checkpoint gaps
        monkeypatch.setattr(dynamics, "_MAX_STATES", cap)
        self.check(case, rng, 31)


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
        assert np.all(rep.frobenius_distance <= rep.bound)
        assert rep.bound[0] == pytest.approx(5.0 / np.sqrt(4000))

    def test_over_cap_trajectories_raise_before_any_draw(self, monkeypatch):
        # a phase of about 1e299 rad: the run on amplitudes needs as many pieces,
        # and the cap on them refuses it before any trajectory's stream is keyed
        params = natural_params(grid=SpatialGrid.line(12, 0.5), hamiltonian=hopping(12, 1e300))

        def no_keys(seed, first, n):
            raise AssertionError("a trajectory's stream was keyed")
        monkeypatch.setattr(dynamics, "keys", no_keys)
        with pytest.raises(StepSizeError, match="substeps"):
            ensemble_vs_master(packet(params.grid), params, 0.1, 4, seed=1)


@dataclass
class CoarseGrainReport:
    expected_noflash: float
    noflash_freq: float
    noflash_sigma: float
    node_histogram: np.ndarray
    expected_node_probs: np.ndarray
    two_or_more_freq: float
    two_flash_expected: float


def coarse_grain_consistency(params: ModelParams, psi0, gamma: float,
                             delta_t: float, n_windows: int,
                             seed: int) -> CoarseGrainReport:
    """Sample exact collapse-point windows (``exact._sample_windows``) and
    compare with the rate law.

    The spacetime point density is fixed by mu = lambda hbar^2 /
    (c gamma) so the coarse-grained rate matches params.  For each
    window a fresh Poisson placement is drawn, the chain is sampled
    exactly, and flash counts and positions are accumulated.  Bare
    Hamiltonian evolution over the short window is neglected, as the
    first-order rate law itself does.
    """
    v = np.asarray(psi0).astype(complex)
    mu = params.lambda_grw * params.hbar ** 2 / (params.c_light * gamma)
    rates = flash_rate_density(v, params)
    total_rate = float(rates.sum())
    expected_noflash = 1.0 - total_rate * delta_t

    histogram = np.zeros(params.family.grid.n)
    noflash = 0
    multi = 0
    for _, nodes, bits in _sample_windows(v, replace(params, hamiltonian=None), mu, gamma,
                                          delta_t, n_windows, seed):
        n_flash = int(bits.sum())
        if n_flash == 0:
            noflash += 1
        elif n_flash == 1:
            histogram[nodes[bits][0]] += 1
        else:
            multi += 1
    p0 = noflash / n_windows
    return CoarseGrainReport(
        expected_noflash=expected_noflash,
        noflash_freq=p0,
        noflash_sigma=float(np.sqrt(max(p0 * (1 - p0), 1e-12) / n_windows)),
        node_histogram=histogram,
        expected_node_probs=rates / total_rate if total_rate > 0 else rates,
        two_or_more_freq=multi / n_windows,
        two_flash_expected=(total_rate * delta_t) ** 2)


def noflash_bias_vs_gamma(params: ModelParams, psi0, gammas, delta_t: float):
    """Coupling-strength bias of the no-flash probability, per gamma.

    The reference is the gamma -> 0 limit of the placement-averaged
    exact probability at fixed rate constant; the remaining deviation
    is the second-order weak-measurement bias, which must shrink
    linearly in gamma.  Returns a list of (gamma, |bias|) pairs.
    """
    reference = expected_noflash_probability(params, psi0, 0.0, delta_t)
    return [(float(g), abs(expected_noflash_probability(params, psi0, float(g), delta_t)
                           - reference))
            for g in gammas]


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

    def test_replace_rebuilds_the_no_jump_generator(self):
        h = hopping(16)
        params = natural_params(grid=SpatialGrid.line(16, 0.5), lam=0.0, dt=0.01, hamiltonian=h)
        assert np.array_equal(params.no_jump_generator, -1j * h.T)   # cached at hbar 1
        slow = replace(params, hbar=2.0)
        assert np.array_equal(slow.scaled_hamiltonian, h / 2.0)
        assert np.array_equal(slow.no_jump_generator, -1j * (h / 2.0).T)


def test_checkpoints_beyond_the_step_count_give_every_step():
    n_steps, every = dynamics._checkpoints(1.0, 0.1, 11)
    assert every == list(range(n_steps + 1))
    for n_checkpoints in (12, 13, 40, 10 ** 12):
        assert dynamics._checkpoints(1.0, 0.1, n_checkpoints) == (n_steps, every)
