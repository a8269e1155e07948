import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpsim import dynamics
from cpsim.dynamics import ModelParams
from cpsim.errors import ContractViolationError
from cpsim.hilbert import SpatialGrid
from cpsim.operators import OperatorFamily
from helpers import random_hermitian, random_state

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def dims_strategy():
    return st.integers(min_value=2, max_value=6)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class TestSpatialGrid:
    def test_line_weights_fill_box(self):
        g = SpatialGrid.line(17, 0.25)
        assert g.dim == 1
        assert abs(g.weights.sum() - g.volume) <= 1e-12 * g.volume
        assert np.all(np.diff(g.x) > 0)

    def test_box3d_ordering_and_volume(self):
        g = SpatialGrid.box3d(4, 0.5)
        assert g.n == 64
        assert abs(g.weights.sum() - 8.0) < 1e-12 * 8.0
        # lexicographic: last axis varies fastest
        assert g.positions[0, 2] < g.positions[1, 2]
        assert np.allclose(g.positions[0, :2], g.positions[1, :2])

    def test_decreasing_axis_rejected(self):
        with pytest.raises(ContractViolationError):
            SpatialGrid(1, np.array([[0.0], [1.0]]), np.array([1.0, 1.0]),
                        [[0, 2]], axes=(np.array([1.0, 0.0]),))

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ContractViolationError):
            SpatialGrid(1, np.array([[0.0], [1.0]]), np.array([1.0, -1.0]),
                        [[-0.5, 1.5]], axes=(np.array([0.0, 1.0]),))

    def test_wrong_volume_rejected(self):
        with pytest.raises(ContractViolationError):
            SpatialGrid(1, np.array([[0.0], [1.0]]), np.array([1.0, 1.0]),
                        [[0, 3]], axes=(np.array([0.0, 1.0]),))


# ---------------------------------------------------------------------------
# unitary evolution
# ---------------------------------------------------------------------------

def zero_rate_params(h):
    """Natural-units params of Hamiltonian h and flash rate zero."""
    fam = OperatorFamily(SpatialGrid.line(len(h), 1.0), diagonals=np.eye(len(h)))
    return ModelParams.natural(lambda_grw=0.0, family=fam, dt=1.0, hamiltonian=h)


def unitary(h, t):
    """exp(-i H t): the no-jump propagator at flash rate zero, its pieces
    exp(G dt) from ``dynamics._pieces`` composed."""
    count, _, _, bt = dynamics._pieces(zero_rate_params(h), t)
    return np.linalg.matrix_power(bt.T, count)


class TestEvolveUnitary:
    def test_zero_hamiltonian(self, rng):
        psi = random_state(4, rng)
        out = unitary(np.zeros((4, 4)), 0.7) @ psi
        assert np.max(np.abs(out - psi)) == 0.0

    def test_analytic_phase(self):
        omega = 2.0
        h = np.diag([0.0, omega])  # hbar = 1
        out = unitary(h, np.pi / omega) @ np.array([0, 1])
        assert abs(out[1] + 1.0) < 1e-12

    def test_taylor_series_oracle(self, rng):
        h = random_hermitian(4, rng)
        dt = 1e-3
        u = unitary(h, dt)
        a = -1j * h * dt
        taylor = np.eye(4) + a + a @ a / 2 + a @ a @ a / 6 + a @ a @ a @ a / 24
        assert np.max(np.abs(u - taylor)) < 1e-10

    def test_negative_dt_rejected(self):
        with pytest.raises(ContractViolationError):
            dynamics._pieces(zero_rate_params(SX), -0.1)

    @settings(deadline=None, max_examples=40)
    @given(dims_strategy(), st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_norm_preserved(self, dim, dt, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(dim, rng)
        out = unitary(random_hermitian(dim, rng), dt) @ psi
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
