from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from cpsim import exact
from cpsim.dynamics import ModelParams
from cpsim.errors import ContractViolationError, DomainError
from cpsim.exact import (CollapsePoint, _placement, _sample_windows, enumerate_chain,
                         interact_once, markov_check)
from cpsim.gravity import GravityParams, grav_unitary
from cpsim.hilbert import SpatialGrid
from cpsim.operators import OperatorFamily, build_grw_family, grw_gaussian
from helpers import random_hermitian, random_state, stream

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_chain(rng, n, dim, gamma=0.3, dt=0.1):
    return [CollapsePoint(time=(m + 1) * dt, gamma=gamma,
                          operator=random_hermitian(dim, rng))
            for m in range(n)]


class TestInteractOnce:
    @pytest.mark.parametrize("operator", [np.ones(3), np.ones((3, 2)), np.ones((2, 2, 2))],
                             ids=["diagonal", "rectangular", "stack"])
    def test_non_square_operator_rejected(self, operator):
        with pytest.raises(ContractViolationError, match="square"):
            CollapsePoint(0.0, 0.1, operator)

    def test_identity_coupling(self, rng):
        psi = random_state(3, rng)
        gamma = 0.4
        p, sf, sn = interact_once(psi, CollapsePoint(0.0, gamma, np.eye(3)))
        assert abs(p - np.sin(np.sqrt(gamma)) ** 2) < 1e-14

    def test_zero_coupling(self, rng):
        psi = random_state(3, rng)
        p, sf, sn = interact_once(psi, CollapsePoint(0.0, 0.7, np.zeros((3, 3))))
        assert p == 0.0
        assert sf is None
        assert np.max(np.abs(sn - psi)) < 1e-15

    def test_projector_against_full_unitary_oracle(self, rng):
        # explicit 4x4 exp(-i sqrt(g) L (x) sx) then ancilla projection
        gamma = 0.5
        proj = np.diag([0.0, 1.0]).astype(complex)
        alpha, beta = 0.6, 0.8
        psi = np.array([alpha, beta], dtype=complex)
        u = expm(-1j * np.sqrt(gamma) * np.kron(proj, SX))
        joint = u @ np.kron(psi, [1.0, 0.0])
        flash_amp = joint.reshape(2, 2)[:, 1]
        p_oracle = float(np.vdot(flash_amp, flash_amp).real)
        p, sf, sn = interact_once(psi, CollapsePoint(0.0, gamma, proj))
        assert abs(p - p_oracle) < 1e-14
        assert abs(p - beta ** 2 * np.sin(np.sqrt(gamma)) ** 2) < 1e-14
        assert np.max(np.abs(sf - flash_amp / np.sqrt(p_oracle))) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=2, max_value=5),
           st.floats(min_value=0.0, max_value=2.0),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_branch_probabilities_sum_to_one(self, dim, gamma, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(dim, rng)
        pair = interact_once(psi, CollapsePoint(0.0, gamma, random_hermitian(dim, rng)))
        p = pair[0]
        sn = pair[2]
        pn = 1.0 - p
        assert 0.0 <= p <= 1.0 + 1e-12
        if sn is not None:
            assert abs(np.linalg.norm(sn) - 1.0) < 1e-12

    def test_first_order_flash_probability(self, rng):
        # weak coupling: p = gamma <L^2> to relative 1e-4
        op = random_hermitian(4, rng)
        psi = random_state(4, rng)
        for gamma in (1e-6, 1e-7):
            p, _, _ = interact_once(psi, CollapsePoint(0.0, gamma, op))
            first_order = gamma * float(np.vdot(psi, op @ op @ psi).real)
            assert abs(p - first_order) / p < 1e-4

    def test_noflash_state_matches_variance_drift(self, rng):
        op = random_hermitian(4, rng)
        psi = random_state(4, rng)
        gamma = 1e-5
        _, _, sn = interact_once(psi, CollapsePoint(0.0, gamma, op))
        l2 = op @ op
        mean = float(np.vdot(psi, l2 @ psi).real)
        drift = psi + (gamma / 2.0) * (mean * psi - l2 @ psi)
        drift /= np.linalg.norm(drift)
        assert np.max(np.abs(sn - drift)) < 50 * gamma ** 2


class TestEnumerateChain:
    def test_single_point_matches_interact_once(self, rng):
        psi = random_state(3, rng)
        cp = CollapsePoint(0.1, 0.6, random_hermitian(3, rng))
        p, sf, sn = interact_once(psi, cp)
        recs = enumerate_chain(psi, [cp])
        assert recs[0].outcomes == (0,)
        assert abs(recs[0].probability - (1 - p)) < 1e-14
        assert abs(recs[1].probability - p) < 1e-14
        assert np.max(np.abs(recs[1].conditional_state - sf)) < 1e-13

    def test_probabilities_sum_to_one(self, rng):
        psi = random_state(4, rng)
        chain = random_chain(rng, 3, 4, gamma=0.8)
        recs = enumerate_chain(psi, chain, H=random_hermitian(4, rng))
        assert abs(sum(r.probability for r in recs) - 1.0) < 1e-10
        assert all(r.probability >= 0 for r in recs)

    def test_zero_coupling_never_flashes(self, rng):
        psi = random_state(3, rng)
        chain = [CollapsePoint(0.1 * m, 0.0, random_hermitian(3, rng)) for m in range(4)]
        recs = enumerate_chain(psi, chain)
        probs = {r.outcomes: r.probability for r in recs}
        assert abs(probs[(0, 0, 0, 0)] - 1.0) < 1e-14

    def test_against_literal_joint_construction(self, rng):
        # build |psi, 0, 0>, apply every full-space unitary, project outcomes
        dim, n = 3, 2
        psi = random_state(dim, rng)
        h = random_hermitian(dim, rng)
        chain = random_chain(rng, n, dim, gamma=0.7, dt=0.2)
        joint = np.kron(psi, [1, 0, 0, 0])  # two ancilla qubits
        t_prev = 0.0
        for m, cp in enumerate(chain):
            gap = np.kron(expm(-1j * h * (cp.time - t_prev)), np.eye(4))
            t_prev = cp.time
            # couple the system to ancilla m inside the (sys, anc0, anc1) ordering
            anc = (SX, np.eye(2)) if m == 0 else (np.eye(2), SX)
            generator = np.einsum("ab,cd,ef->acebdf", cp.operator, *anc).reshape(dim * 4, dim * 4)
            joint = expm(-1j * np.sqrt(cp.gamma) * generator) @ (gap @ joint)
        amp = joint.reshape(dim, 2, 2)
        recs = enumerate_chain(psi, chain, H=h)
        for rec in recs:
            branch = amp[:, rec.outcomes[0], rec.outcomes[1]]
            p = float(np.vdot(branch, branch).real)
            assert abs(rec.probability - p) < 1e-12
            if p > 1e-12:
                phase = np.vdot(rec.conditional_state, branch / np.sqrt(p))
                assert abs(abs(phase) - 1.0) < 1e-10
                # conditional states agree including phase
                assert np.max(np.abs(rec.conditional_state * phase - branch / np.sqrt(p))) < 1e-10

    def test_nonmonotone_times_rejected(self, rng):
        psi = random_state(2, rng)
        chain = [CollapsePoint(0.2, 0.1, SX), CollapsePoint(0.1, 0.1, SX)]
        with pytest.raises(ContractViolationError):
            enumerate_chain(psi, chain)

    def test_enumeration_cap(self, rng):
        psi = random_state(2, rng)
        chain = [CollapsePoint(0.1 * m, 0.1, SX) for m in range(13)]
        with pytest.raises(ContractViolationError):
            enumerate_chain(psi, chain)


def chain_outcomes(psi, chain, uniforms):
    """Outcomes of one window over the whole chain per row of uniforms,
    all stepped together by the window engine."""
    times, nodes = [cp.time for cp in chain], np.arange(len(chain))
    windows = [(times, nodes, u) for u in uniforms]
    table = exact._chain_table(chain, 1.0)
    return [tuple(bits.astype(int).tolist())
            for _, _, bits in exact._run_windows(windows, psi, table, None)]


class TestSampleChain:
    def test_zero_coupling_all_zero(self, rng):
        psi = random_state(3, rng)
        chain = [CollapsePoint(0.1 * m, 0.0, random_hermitian(3, rng)) for m in range(30)]
        assert chain_outcomes(psi, chain, stream(1).random((1, 30))) == [(0,) * 30]

    def test_frequencies_match_enumeration(self, rng):
        psi = random_state(2, rng)
        chain = random_chain(rng, 2, 2, gamma=0.9)
        recs = enumerate_chain(psi, chain)
        probs = {r.outcomes: r.probability for r in recs}
        n_samples = 100_000
        counts = {k: 0 for k in probs}
        for outcomes in chain_outcomes(psi, chain, stream(99).random((n_samples, 2))):
            counts[outcomes] += 1
        for outcome, p in probs.items():
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n_samples)
            assert abs(counts[outcome] / n_samples - p) <= 4 * sigma + 1e-9

    def test_seed_determinism(self, rng):
        psi = random_state(3, rng)
        chain = random_chain(rng, 20, 3, gamma=0.5)
        a = chain_outcomes(psi, chain, stream(5).random((1, 20)))
        b = chain_outcomes(psi, chain, stream(5).random((1, 20)))
        assert a == b


class TestMarkovCheck:
    def test_single_point(self, rng):
        psi = random_state(3, rng)
        assert markov_check(psi, random_chain(rng, 1, 3)) < 1e-14

    def test_random_chain(self, rng):
        psi = random_state(3, rng)
        chain = random_chain(rng, 4, 3, gamma=0.6)
        assert markov_check(psi, chain, H=random_hermitian(3, rng)) < 1e-10

    def test_commuting_diagonal_couplings(self, rng):
        psi = random_state(4, rng)
        chain = [CollapsePoint(0.1 * (m + 1), 0.4, np.diag(rng.standard_normal(4)))
                 for m in range(4)]
        assert markov_check(psi, chain) < 1e-12


class TestPoissonPlacement:
    def test_counts_and_ordering(self):
        grid = SpatialGrid.line(9, 1.0)
        mu, c, t = 4.0, 1.0, 3.0
        counts = []
        for k in range(400):
            times, nodes = _placement(stream(k), mu * c * grid.volume, exact._cell_cdf(grid), t)
            counts.append(len(times))
            assert len(nodes) == len(times)
            assert np.all(np.diff(times) >= 0)
            assert np.all((0.0 <= times) & (times < t))
        mean = np.mean(counts)
        expected = mu * c * grid.volume * t
        assert abs(mean - expected) < 4 * np.sqrt(expected / 400)

    def test_determinism(self):
        grid = SpatialGrid.line(9, 1.0)
        rate, cdf = 2.0 * grid.volume, exact._cell_cdf(grid)
        a_times, a_nodes = _placement(stream(7), rate, cdf, 1.0)
        b_times, b_nodes = _placement(stream(7), rate, cdf, 1.0)
        assert a_times.tolist() == b_times.tolist()
        assert a_nodes.tolist() == b_nodes.tolist()

    def test_counts_per_window_are_poisson(self):
        # chi-square of the window counts against the Poisson(rate t_end) pmf,
        # bins 0 .. 8 and a tail bin, each expecting at least 5 of 2000 windows
        grid = SpatialGrid.line(6, 0.5)
        rate, t_end, n_windows = 2.0 * grid.volume, 0.5, 2000
        cdf = exact._cell_cdf(grid)
        counts = np.array([len(_placement(stream(41, w), rate, cdf, t_end)[0])
                           for w in range(n_windows)])
        lam = rate * t_end
        observed = np.bincount(np.minimum(counts, 9), minlength=10)
        pmf = stats.poisson.pmf(np.arange(9), lam)
        expected = n_windows * np.append(pmf, 1.0 - pmf.sum())
        assert expected.min() >= 5
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, len(expected) - 1) > 1e-3
        assert abs(counts.mean() - lam) < 4 * np.sqrt(lam / n_windows)

    def test_scaled_times_are_uniform(self):
        grid = SpatialGrid.line(6, 0.5)
        rate, t_end = 2.0 * grid.volume, 0.5
        cdf = exact._cell_cdf(grid)
        scaled = np.concatenate([_placement(stream(43, w), rate, cdf, t_end)[0] / t_end
                                 for w in range(500)])
        assert len(scaled) > 1000
        assert stats.kstest(scaled, "uniform").pvalue > 1e-3


# ---------------------------------------------------------------------------
# the window engine against a plain interact_once loop
# ---------------------------------------------------------------------------

MU, C, GAMMA, T_END, HBAR, PREFACTOR = 5.0, 1.0, 0.3, 0.5, 0.9, 1.5


def line_hopping(n, j=3.0):
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = -j
    return h


WINDOW_CASES = {
    "diagonal": lambda: (build_grw_family(SpatialGrid.line(8, 0.5), grw_gaussian(1.0)), None),
    "diagonal+hopping": lambda: (build_grw_family(SpatialGrid.line(8, 0.5), grw_gaussian(1.0)),
                                 line_hopping(8)),
}


def start_state(grid):
    v = np.exp(-((grid.x - 0.3) ** 2) / 2.0).astype(complex)
    return v / np.linalg.norm(v)


def reference_window(psi0, family, H, seed, w):
    """Window w drawn point by point: the Poisson count, one uniform per
    time, Generator.choice for each node, then one interact_once per point
    with scipy's expm for the gaps."""
    grid = family.grid
    rng = stream(seed, w)
    n = rng.poisson(MU * C * grid.volume * T_END)
    times = sorted(T_END * rng.random() for _ in range(n))
    nodes = [int(rng.choice(grid.n, p=grid.weights / grid.volume)) for _ in range(n)]
    state, prev, bits = psi0, 0.0, []
    for t, k in zip(times, nodes):
        if H is not None:
            state = expm(-1j * H * (t - prev) / HBAR) @ state
        prev = t
        p1, flash, noflash = interact_once(
            state, CollapsePoint(t, GAMMA, np.sqrt(PREFACTOR) * np.diag(family.diagonals[k])),
            HBAR)
        bit = int(rng.random() < p1)
        bits.append(bit)
        state = flash if bit else noflash
    return times, nodes, bits


def window_params(family, H=None):
    """Parameters whose c, hbar and m / m_R are C, HBAR and PREFACTOR;
    the rate constant and step are not read by the window engine."""
    return ModelParams(lambda_grw=1.0, family=family, dt=1.0, hbar=HBAR, c_light=C,
                       mass=PREFACTOR, m_r=1.0, hamiltonian=H)


def engine_windows(psi0, family, H, seed, n_windows):
    return [(times.tolist(), nodes.tolist(), bits.astype(int).tolist())
            for times, nodes, bits in _sample_windows(
                psi0, window_params(family, H), MU, GAMMA, T_END, n_windows, seed)]


class TestWindowEngine:
    N_WINDOWS = 7

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_windows_match_point_by_point_reference(self, case):
        family, H = WINDOW_CASES[case]()
        psi0 = start_state(family.grid)
        got = engine_windows(psi0, family, H, 31, self.N_WINDOWS)
        flashes = 0
        for w, window in enumerate(got):
            assert window == reference_window(psi0, family, H, 31, w)
            flashes += sum(window[2])
        assert 0 < flashes < sum(len(window[0]) for window in got)

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_chunk_size_does_not_change_windows(self, case, monkeypatch):
        family, H = WINDOW_CASES[case]()
        psi0 = start_state(family.grid)
        runs = []
        # the last budget of padded points closes chunks of one to a few windows
        for chunk, points in ((1, 2 ** 16), (3, 2 ** 16), (self.N_WINDOWS, 2 ** 16),
                              (64, 2 ** 16), (64, 30)):
            monkeypatch.setattr(exact, "_CHUNK", chunk)
            monkeypatch.setattr(exact, "_CHUNK_POINTS", points)
            runs.append(engine_windows(psi0, family, H, 5, self.N_WINDOWS))
        assert all(run == runs[0] for run in runs[1:])
        assert len({len(times) for times, _, _ in runs[0]}) > 1   # windows of unequal length

    def test_chunks_stay_within_the_point_budget(self, monkeypatch):
        family, _ = WINDOW_CASES["diagonal"]()
        chunks, run = [], exact._run_weights

        def spy(windows, *args):
            chunks.append([len(times) for times, _, _ in windows])
            return run(windows, *args)
        monkeypatch.setattr(exact, "_run_weights", spy)
        # the windows of seed 5 hold 12, 15, 10, 12, 11, 14 and 11 points
        monkeypatch.setattr(exact, "_CHUNK_POINTS", 30)
        engine_windows(start_state(family.grid), family, None, 5, self.N_WINDOWS)
        assert sum(len(c) for c in chunks) == self.N_WINDOWS
        assert all(len(c) == 1 or len(c) * max(c) <= 30 for c in chunks)
        # one chunk holds several windows, and the budget closed at least one
        assert max(len(c) for c in chunks) > 1 and len(chunks) > 1

    def test_mass_weighted_family_takes_no_mass_factor(self):
        family, _ = WINDOW_CASES["diagonal"]()
        weighted = OperatorFamily(family.grid, diagonals=family.diagonals,
                                  mass_weighted=True)
        psi0 = start_state(family.grid)

        def bits(params):
            return [b.tolist() for _, _, b in _sample_windows(psi0, params, MU, GAMMA, T_END,
                                                              self.N_WINDOWS, 5)]
        unit_mass = bits(replace(window_params(family), mass=1.0))
        assert bits(window_params(weighted)) == unit_mass != bits(window_params(family))

    def test_gravity_dressed_family_rejected(self):
        # exp(-i sqrt(gamma) L sigma_x) needs a Hermitian coupling L; a dressed
        # member exp(i r_m F) L is not one
        family, _ = WINDOW_CASES["diagonal"]()
        dressed = grav_unitary(family, GravityParams(G=1.0, r_g=0.5, r_m=0.7,
                                                     F_kind="gaussian_smeared"))
        with pytest.raises(ContractViolationError, match="Hermiticity"):
            next(_sample_windows(start_state(family.grid), window_params(dressed), MU, GAMMA,
                                 T_END, 1, 3))

    @pytest.mark.parametrize("change", [{"hbar": 5e-324}, {"m_r": 5e-324},
                                        {"hamiltonian": line_hopping(8, 1e308)}],
                             ids=["coupling-hbar", "coupling-m_r", "evolution"])
    def test_overflowing_phases_raise_before_any_draw(self, change, monkeypatch):
        # an infinite coupling or phase would make the cos / sin blocks or the
        # evolution between points NaN
        family, _ = WINDOW_CASES["diagonal"]()

        def no_keys(seed, first, n):
            raise AssertionError("a window's stream was keyed")
        monkeypatch.setattr(exact, "keys", no_keys)
        params = replace(window_params(family), **change)
        with pytest.raises(DomainError, match="overflows double precision"):
            next(_sample_windows(start_state(family.grid), params, MU, GAMMA, T_END, 1, 3))

    def test_zero_rate_window_has_no_points(self):
        family, _ = WINDOW_CASES["diagonal"]()
        psi0 = start_state(family.grid)
        windows = list(_sample_windows(psi0, window_params(family), 0.0, GAMMA, T_END, 3, 8))
        assert [(len(t), len(n), len(b)) for t, n, b in windows] == [(0, 0, 0)] * 3
        rng = stream(8, 0)
        times, nodes = _placement(rng, 0.0, exact._cell_cdf(family.grid), T_END)
        assert len(times) == 0 and len(nodes) == 0
        assert rng.random() == stream(8, 0).random()   # nothing was drawn


# ---------------------------------------------------------------------------
# the weight propagator of windows without a Hamiltonian against the stepped
# engine, on the 17-node exact config of the benchmark
# ---------------------------------------------------------------------------

BENCH_MU, BENCH_T_END, BENCH_WINDOWS = 40.0, 0.2, 75


def bench_family(mass_weighted=False):
    family = build_grw_family(SpatialGrid.line(17, 0.5), grw_gaussian(1.0))
    if mass_weighted:   # species masses carried in the members
        return OperatorFamily(family.grid, diagonals=1.7 * family.diagonals,
                              mass_weighted=True)
    return family


def bench_start(grid):
    v = np.exp(-grid.x ** 2 / 4.0).astype(complex)
    return v / np.linalg.norm(v)


def one_node_start(grid):
    # all weight on the middle node, whose own member couples it most, so
    # that a point there flashes with probability max_j sin^2(a_kj) itself
    v = np.zeros(grid.n, dtype=complex)
    v[grid.n // 2] = 1.0
    return v


WEIGHT_CASES = {
    "gamma-0.05": lambda: (bench_family(), bench_start, 0.05, {}),
    "gamma-2": lambda: (bench_family(), bench_start, 2.0, {}),
    "gamma-20": lambda: (bench_family(), bench_start, 20.0, {}),
    "gamma-0": lambda: (bench_family(), bench_start, 0.0, {}),
    "one-node-start": lambda: (bench_family(), one_node_start, 2.0, {}),
    "mass-weighted": lambda: (bench_family(True), bench_start, 2.0, {"mass": 3.0, "hbar": 0.9}),
}


def weight_case(case):
    family, start, gamma, change = WEIGHT_CASES[case]()
    params = replace(ModelParams.natural(lambda_grw=1.0, family=family, dt=1.0), **change)
    return start(family.grid), params, gamma


def stepped_windows(psi0, params, gamma, seed):
    """The windows of seed, drawn from the reference streams and stepped
    together by ``_run_windows``, with the coupling sqrt(gamma m / m_R) L / hbar,
    or sqrt(gamma) L / hbar for a mass-weighted family."""
    grid, family = params.grid, params.family
    members = family.diagonals * (1.0 if family.mass_weighted else
                                  np.sqrt(params.mass / params.m_r))
    table = exact._JumpTable(members, np.full(grid.n, np.sqrt(gamma) / params.hbar))
    rate, cdf = BENCH_MU * params.c_light * grid.volume, exact._cell_cdf(grid)
    windows = []
    for w in range(BENCH_WINDOWS):
        rng = stream(seed, w)
        times, nodes = _placement(rng, rate, cdf, BENCH_T_END)
        windows.append((times, nodes, rng.random(len(times))))
    return windows, [(t.tolist(), k.tolist(), b.tolist())
                     for t, k, b in exact._run_windows(windows, psi0, table, None)]


def weight_windows(psi0, params, gamma, seed):
    return [(t.tolist(), k.tolist(), b.tolist()) for t, k, b in _sample_windows(
        psi0, params, BENCH_MU, gamma, BENCH_T_END, BENCH_WINDOWS, seed)]


class TestWeightPropagator:
    @pytest.mark.parametrize("case", sorted(WEIGHT_CASES))
    def test_matches_the_stepped_engine_bit_for_bit(self, case):
        psi0, params, gamma = weight_case(case)
        _, stepped = stepped_windows(psi0, params, gamma, 1)
        assert weight_windows(psi0, params, gamma, 1) == stepped
        flashes = sum(sum(bits) for _, _, bits in stepped)
        assert (flashes > 0) == (gamma > 0)

    def test_steps_under_5_percent_of_the_points_at_weak_coupling(self):
        psi0, params, gamma = weight_case("gamma-0.05")
        windows, _ = stepped_windows(psi0, params, gamma, 1)
        _, _, bound = exact._weight_table(params.family.diagonals, np.sqrt(gamma))
        points = sum(len(u) for _, _, u in windows)
        candidates = sum(int(np.count_nonzero(u < bound[nodes])) for _, nodes, u in windows)
        assert 0 < candidates < 0.05 * points

    @pytest.mark.parametrize("chunk,points,rows", [(1, 2 ** 18, 2 ** 22), (4, 2 ** 18, 2 ** 22),
                                                   (512, 150, 2 ** 22), (512, 2 ** 18, 17 * 3),
                                                   (7, 2 ** 18, 1)])
    def test_chunks_and_the_log_budget_do_not_change_windows(self, chunk, points, rows,
                                                             monkeypatch):
        psi0, params, gamma = weight_case("gamma-2")
        _, stepped = stepped_windows(psi0, params, gamma, 3)
        monkeypatch.setattr(exact, "_CHUNK", chunk)
        monkeypatch.setattr(exact, "_CHUNK_POINTS", points)
        monkeypatch.setattr(exact, "_LOG_ROWS", rows)
        assert weight_windows(psi0, params, gamma, 3) == stepped

    @pytest.mark.parametrize("rows", [17 * 5, 17 * 64, 2 ** 22])
    def test_log_cos_sums_depend_on_their_own_points_alone(self, rows, monkeypatch):
        # every run's sum, bit for bit, whichever runs share the call, and no
        # gather of more than _LOG_ROWS log-cosines
        monkeypatch.setattr(exact, "_LOG_ROWS", rows)
        rng = stream(11)
        log_cos2 = -rng.random((17, 17))
        nodes = rng.integers(0, 17, 3000)
        starts = np.array([0, 5, 5, 40, 700, 2999])
        lengths = np.array([5, 0, 30, 600, 2299, 1])
        gathered = []

        class Counting(np.ndarray):
            def __getitem__(self, key):
                out = super().__getitem__(key)
                gathered.append(np.size(out))
                return out
        sums = exact._log_cos_sums(log_cos2.view(Counting), nodes, starts, lengths)
        assert max(gathered) <= max(rows, 17)
        for i, (s, n) in enumerate(zip(starts, lengths)):
            alone = exact._log_cos_sums(log_cos2, nodes, starts[i:i + 1], lengths[i:i + 1])
            assert np.array_equal(sums[i], alone[0])
            np.testing.assert_allclose(sums[i], log_cos2[nodes[s:s + n]].sum(axis=0),
                                       rtol=1e-12, atol=0)
