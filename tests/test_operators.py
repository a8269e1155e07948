import numpy as np
import pytest

from cpsim.errors import ContractViolationError, DomainError
from cpsim.hilbert import SpatialGrid
from cpsim.operators import (FockBasis, OperatorFamily, SmearingFunction,
                             build_grw_family, build_smeared_mass,
                             build_smeared_number, first_quantized_equiv_check,
                             grw_gaussian)


class TestSmearingFunction:
    def test_amplitude_square_integrates_to_one_1d(self):
        f = grw_gaussian(1.0)
        x = np.linspace(-12, 12, 20001)
        val = np.trapezoid(f.profile(np.abs(x), 1) ** 2, x)
        assert abs(val - 1.0) < 1e-8

    def test_density_integrates_to_one_1d(self):
        f = SmearingFunction("gaussian", 0.7, "density")
        x = np.linspace(-10, 10, 20001)
        assert abs(np.trapezoid(f.profile(np.abs(x), 1), x) - 1.0) < 1e-8

    def test_amplitude_square_integrates_to_one_3d(self):
        f = grw_gaussian(0.5)
        r = np.linspace(0, 8, 40001)
        val = np.trapezoid(4 * np.pi * r ** 2 * f.profile(r, 3) ** 2, r)
        assert abs(val - 1.0) < 1e-8

    def test_density_integrates_to_one_3d(self):
        f = SmearingFunction("gaussian", 0.5, "density")
        r = np.linspace(0, 8, 40001)
        assert abs(np.trapezoid(4 * np.pi * r ** 2 * f.profile(r, 3), r) - 1.0) < 1e-8

    def test_delta_lattice_profile(self):
        g = SpatialGrid.line(9, 1.0)
        f = SmearingFunction("delta", 0.0, "density")
        vals = f.lattice_values(g, [0.2])
        assert vals.sum() == 1.0
        assert vals[4] == 1.0   # nearest node is the centre

    def test_invalid_parameters(self):
        with pytest.raises(ContractViolationError):
            SmearingFunction("box", 1.0, "density")
        with pytest.raises(ContractViolationError):
            SmearingFunction("gaussian", -1.0, "density")


class TestGrwFamily:
    def test_sum_rule_for_centered_eigenstate(self, line_grid, grw_family):
        psi = np.zeros(line_grid.n, dtype=complex)
        psi[line_grid.n // 2] = 1.0
        total = float(line_grid.weights @ (grw_family.l2_diagonals() @ np.abs(psi) ** 2))
        assert abs(total - 1.0) < 1e-6

    def test_sum_rule_for_interior_states(self, line_grid, grw_family, rng):
        # any state supported away from the boundary
        psi = np.zeros(line_grid.n, dtype=complex)
        inner = slice(8, 25)
        psi[inner] = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        psi /= np.linalg.norm(psi)
        total = float(line_grid.weights @ (grw_family.l2_diagonals() @ np.abs(psi) ** 2))
        assert abs(total - 1.0) < 1e-6

    def test_diagonal_action_on_position_eigenstate(self, line_grid, grw_family):
        f = grw_family.smearing
        k, y = 10, 20
        psi = np.zeros(line_grid.n, dtype=complex)
        psi[y] = 1.0
        out = np.diag(grw_family.diagonals[k]) @ psi
        expected = f.profile(abs(line_grid.x[y] - line_grid.x[k]), 1)
        assert abs(out[y] - expected) < 1e-15
        assert np.all(out[np.arange(line_grid.n) != y] == 0)

    def test_undersampled_radius_refused(self):
        g = SpatialGrid.line(9, 1.0)
        with pytest.raises(DomainError):
            build_grw_family(g, grw_gaussian(1.5))

    def test_si_scale_radius(self):
        # the conventional collapse radius, in SI metres
        r_c = 1e-7
        g = SpatialGrid.line(33, r_c / 2)
        fam = build_grw_family(g, grw_gaussian(r_c))
        psi = np.zeros(33, dtype=complex)
        psi[16] = 1.0
        total = float(g.weights @ (fam.l2_diagonals() @ np.abs(psi) ** 2))
        assert abs(total - 1.0) < 1e-6

    def test_family_requires_one_member_per_node(self, line_grid):
        with pytest.raises(ContractViolationError):
            OperatorFamily(line_grid, diagonals=np.ones((3, line_grid.n)))


class TestFockBasis:
    def test_blocked_lexicographic_enumeration(self):
        b = FockBasis(2, "boson", 2)
        assert b.states == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))

    def test_fermion_occupations(self):
        b = FockBasis(3, "fermion", 2)
        assert all(max(occ) <= 1 for occ in b.states)
        assert len(b.total_number_block(2)) == 3

    def test_boson_commutator(self):
        b = FockBasis(2, "boson", 3)
        a0 = b.annihilation("a", 0)
        comm = a0 @ a0.T - a0.T @ a0
        # canonical on every state that cannot overflow the particle cap
        keep = [i for i, occ in enumerate(b.states) if sum(occ) < b.max_total]
        assert np.max(np.abs(comm[np.ix_(keep, keep)] - np.eye(len(b.states))[np.ix_(keep, keep)])) < 1e-14

    def test_fermion_anticommutators(self):
        b = FockBasis(3, "fermion", 3)
        a0, a1 = b.annihilation("a", 0), b.annihilation("a", 1)
        assert np.max(np.abs(a0 @ a0.T + a0.T @ a0 - np.eye(b.dim))) < 1e-14
        assert np.max(np.abs(a0 @ a1 + a1 @ a0)) == 0.0
        assert np.max(np.abs(a0 @ a1.T + a1.T @ a0)) == 0.0

    def test_number_operator_diagonal(self):
        b = FockBasis(3, "boson", 2)
        n1 = b.number_operator("a", 1)
        assert np.max(np.abs(n1 - np.diag(np.diag(n1)))) == 0.0
        assert np.allclose(np.diag(n1), [occ[1] for occ in b.states])

    def test_unknown_species(self):
        b = FockBasis(2, "boson", 1)
        with pytest.raises(ContractViolationError):
            b.annihilation("b", 0)


class TestSmearedOperators:
    def setup_method(self):
        self.grid = SpatialGrid.line(6, 1.0)
        self.g = SmearingFunction("gaussian", 2.5, "density")

    def test_single_particle_eigenvalue_is_profile(self):
        basis = FockBasis(6, "boson", 2)
        fam = build_smeared_number(basis, self.grid, self.g, "a")
        z = 2
        occ = tuple(1 if s == z else 0 for s in range(6))
        idx = basis.index[occ]
        for k in range(self.grid.n):
            expected = self.g.profile(abs(self.grid.x[z] - self.grid.x[k]), 1)
            assert abs(fam.diagonals[k, idx] - expected) < 1e-14

    def test_two_bosons_double_eigenvalue(self):
        basis = FockBasis(6, "boson", 2)
        fam = build_smeared_number(basis, self.grid, self.g, "a")
        z = 3
        occ = tuple(2 if s == z else 0 for s in range(6))
        idx = basis.index[occ]
        one = tuple(1 if s == z else 0 for s in range(6))
        assert abs(fam.diagonals[0, idx] - 2 * fam.diagonals[0, basis.index[one]]) < 1e-14

    def test_delta_kind_reduces_to_onsite_number(self):
        basis = FockBasis(6, "boson", 2)
        delta = SmearingFunction("delta", 0.0, "density")
        fam = build_smeared_number(basis, self.grid, delta, "a")
        for k in range(self.grid.n):
            onsite = np.diag(basis.number_operator("a", k))
            assert np.max(np.abs(fam.diagonals[k] - onsite)) == 0.0

    def test_mass_family_unit_weight_equals_number(self):
        basis = FockBasis(4, "boson", 2, species=(("n", 1.0),))
        grid = SpatialGrid.line(4, 1.0)
        num = build_smeared_number(basis, grid, self.g, "n")
        mass = build_smeared_mass(basis, grid, self.g, m_r=1.0)
        assert np.max(np.abs(mass.diagonals ** 2 - num.diagonals)) < 1e-14

    def test_sqrt_members_square_back_exactly(self):
        basis = FockBasis(4, "boson", 3)
        grid = SpatialGrid.line(4, 1.0)
        mass = build_smeared_mass(basis, grid, self.g, m_r=1.0)
        species_sum = build_smeared_number(basis, grid, self.g, "a").diagonals
        assert np.all(mass.diagonals >= 0)
        assert np.max(np.abs(mass.diagonals ** 2 - species_sum)) < 1e-15

    def test_single_nucleon_l2_eigenvalue_is_profile(self):
        basis = FockBasis(4, "boson", 1, species=(("n", 3.2e-27),))
        grid = SpatialGrid.line(4, 1.0)
        mass = build_smeared_mass(basis, grid, self.g, m_r=3.2e-27)
        z = 1
        idx = basis.index[tuple(1 if s == z else 0 for s in range(4))]
        for k in range(grid.n):
            expected = self.g.profile(abs(grid.x[z] - grid.x[k]), 1)
            assert abs(mass.diagonals[k, idx] ** 2 - expected) < 1e-14

    def test_two_species_mass_weights(self):
        basis = FockBasis(4, "boson", 2, species=(("light", 1.0), ("heavy", 2.0)))
        grid = SpatialGrid.line(4, 1.0)
        mass = build_smeared_mass(basis, grid, self.g, m_r=1.0)
        z = 2
        # one particle of each species at site z: direct diagonal construction
        occ = [0] * 8
        occ[z] = 1          # light at z
        occ[4 + z] = 1      # heavy at z
        idx = basis.index[tuple(occ)]
        for k in range(grid.n):
            profile = self.g.profile(abs(grid.x[z] - grid.x[k]), 1)
            assert abs(mass.diagonals[k, idx] ** 2 - 3.0 * profile) < 1e-13

    def test_nonpositive_reference_mass(self):
        basis = FockBasis(4, "boson", 1)
        with pytest.raises(ContractViolationError):
            build_smeared_mass(basis, SpatialGrid.line(4, 1.0), self.g, m_r=0.0)

    def test_grid_site_mismatch(self):
        basis = FockBasis(5, "boson", 1)
        with pytest.raises(ContractViolationError):
            build_smeared_number(basis, self.grid, self.g, "a")


class TestFirstQuantizedEquivalence:
    def test_single_particle_exact(self):
        grid = SpatialGrid.line(4, 1.0)
        g = SmearingFunction("gaussian", 1.5, "density")
        basis = FockBasis(4, "boson", 1)
        assert first_quantized_equiv_check(basis, grid, g, 1) < 1e-14

    @pytest.mark.parametrize("statistics", ["boson", "fermion"])
    def test_two_particles(self, statistics):
        grid = SpatialGrid.line(4, 1.0)
        g = SmearingFunction("gaussian", 1.5, "density")
        basis = FockBasis(4, statistics, 2)
        assert first_quantized_equiv_check(basis, grid, g, 2) < 1e-12

    def test_restrictions(self):
        grid = SpatialGrid.line(4, 1.0)
        g = SmearingFunction("gaussian", 1.5, "density")
        with pytest.raises(ContractViolationError):
            first_quantized_equiv_check(FockBasis(4, "boson", 4), grid, g, 4)
        with pytest.raises(ContractViolationError):
            first_quantized_equiv_check(FockBasis(4, "boson", 1), grid, g, 2)
