"""Collapse-operator families.

Two constructions live here.  The single-particle family is a Gaussian
profile centred on each grid node, diagonal in the position basis.  The
indistinguishable-particle family starts from lattice ladder operators:
a smeared number operator per species, the mass-weighted sum over
species, and its elementwise square root as the jump operator.  A dense
(anti)symmetrizer maps the n-particle Fock sector onto the n-fold
tensor-product space so the ladder construction can be compared, matrix
element by matrix element, against the first-quantized multiplication
operator it must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product as _iproduct

import numpy as np

from .errors import ContractViolationError, DomainError
from .hilbert import MAX_DIM, SpatialGrid


# ---------------------------------------------------------------------------
# smearing profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmearingFunction:
    """Gaussian radial profile used to smear collapse and gravity kernels.

    ``amplitude`` normalization fixes the integral of the square to one
    (the collapse choice); ``density`` fixes the integral itself (the
    number/mass smearing and the gravitational form factor).
    """

    radius: float = 1.0
    normalization: str = "amplitude"

    def __post_init__(self):
        if self.normalization not in ("amplitude", "density"):
            raise ContractViolationError(f"unknown normalization {self.normalization!r}")
        if self.radius <= 0:
            raise ContractViolationError("gaussian smearing needs a positive radius")

    def profile(self, dist, dim: int):
        """Evaluate the continuum profile at the given distances."""
        d2 = np.square(np.asarray(dist, dtype=float))
        r2 = self.radius ** 2
        if self.normalization == "amplitude":
            return (math.pi * r2) ** (-dim / 4.0) * np.exp(-d2 / (2.0 * r2))
        return (math.pi * r2) ** (-dim / 2.0) * np.exp(-d2 / r2)

    def lattice_values(self, grid: SpatialGrid, center) -> np.ndarray:
        """Profile sampled on grid nodes."""
        return self.profile(grid.distances_from(center), grid.dim)


def grw_gaussian(r_c: float) -> SmearingFunction:
    """The standard localization profile: amplitude-normalized gaussian."""
    return SmearingFunction(r_c, "amplitude")


# ---------------------------------------------------------------------------
# operator families
# ---------------------------------------------------------------------------

class OperatorFamily:
    """Indexed family {L(x_k)}, one operator per node of a flash grid.

    Every member is diagonal in the system basis: a smeared mass density
    is a multiplication operator, diagonal in the position basis and in
    the Fock occupation basis.  ``diagonals`` holds member k in row k,
    shape (nodes, dim); rows are real except for the phase-dressed
    family of ``gravity.grav_unitary``, and the engines that need
    Hermitian members refuse complex ones.  ``mass_weighted`` records whether species
    masses are already folded into the members, so the dynamics layer
    knows whether to apply an m/m_R rate factor.
    ``system_positions`` places the system basis states in space when
    they are not the flash-grid nodes (None: they are the nodes, or
    they are not points at all).
    """

    def __init__(self, grid: SpatialGrid, *, diagonals,
                 mass_weighted=False, smearing=None, system_positions=None):
        self.grid = grid
        self.mass_weighted = bool(mass_weighted)
        self.smearing = smearing
        self.system_positions = (None if system_positions is None
                                 else np.asarray(system_positions, dtype=float))
        self.diagonals = np.asarray(diagonals)
        if self.diagonals.shape[0] != grid.n:
            raise ContractViolationError("need one member per flash-grid node")

    @property
    def dim(self) -> int:
        return self.diagonals.shape[1]

    def l2_diagonals(self) -> np.ndarray:
        """|L(x_k)|^2 eigenvalues, shape (nodes, dim)."""
        return np.abs(self.diagonals) ** 2


def build_grw_family(grid: SpatialGrid, f_c: SmearingFunction) -> OperatorFamily:
    """Position-basis family: member k multiplies by the profile centred at node k.

    The system basis coincides with the flash grid, so member k is the
    diagonal matrix f_c(|x - x_k|).  Any mass prefactor is applied by
    the dynamics layer.  Refuses profiles narrower than two grid
    spacings: the completeness sum rule would be undersampled.
    """
    if f_c.normalization != "amplitude":
        raise ContractViolationError("the localization family needs an amplitude-normalized gaussian")
    if f_c.radius < 2.0 * grid.spacing:
        raise DomainError(
            f"smearing radius {f_c.radius!r} below two grid spacings ({2 * grid.spacing!r}); "
            "the profile is undersampled")
    diff = grid.positions[:, None, :] - grid.positions[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    diagonals = f_c.profile(dist, grid.dim)
    return OperatorFamily(grid, diagonals=diagonals, smearing=f_c)


# ---------------------------------------------------------------------------
# Fock space on a lattice
# ---------------------------------------------------------------------------

class FockBasis:
    """Occupation-number basis for particles on a lattice of sites.

    States are blocked by total particle number (ascending) and ordered
    lexicographically inside each block over the flattened occupation
    tuple aligned with (species, site) mode order, so indexing is
    deterministic.  Fermion occupations are restricted to {0, 1}.
    """

    def __init__(self, lattice_sites: int, statistics: str,
                 max_total_particles: int, species=(("a", 1.0),)):
        if statistics not in ("boson", "fermion"):
            raise ContractViolationError(f"unknown statistics {statistics!r}")
        if lattice_sites < 1 or max_total_particles < 0:
            raise ContractViolationError("need at least one site and a non-negative particle cap")
        self.sites = int(lattice_sites)
        self.statistics = statistics
        self.max_total = int(max_total_particles)
        self.species = tuple((str(lbl), float(m)) for lbl, m in species)
        if any(m <= 0 for _, m in self.species):
            raise ContractViolationError("species masses must be positive")
        n_modes = self.sites * len(self.species)
        per_mode = 1 if statistics == "fermion" else self.max_total
        states = []
        for total in range(self.max_total + 1):
            block = [occ for occ in _iproduct(range(per_mode + 1), repeat=n_modes)
                     if sum(occ) == total]
            states.extend(sorted(block))
        self.states = tuple(states)
        self.index = {occ: i for i, occ in enumerate(self.states)}
        if len(self.states) > MAX_DIM:
            raise ContractViolationError(f"Fock dimension {len(self.states)} exceeds {MAX_DIM}")

    @property
    def dim(self) -> int:
        return len(self.states)

    def species_index(self, label: str) -> int:
        for i, (lbl, _) in enumerate(self.species):
            if lbl == label:
                return i
        raise ContractViolationError(f"unknown species label {label!r}")

    def mode(self, species_idx: int, site: int) -> int:
        return species_idx * self.sites + site

    def annihilation(self, species: str, site: int) -> np.ndarray:
        """Matrix of the annihilation operator for one lattice mode.

        Bosonic amplitude sqrt(n); fermionic sign is the parity of the
        occupations preceding the mode in (species, site) order.
        """
        mu = self.mode(self.species_index(species), site)
        a = np.zeros((self.dim, self.dim))
        for i, occ in enumerate(self.states):
            n = occ[mu]
            if n == 0:
                continue
            target = occ[:mu] + (n - 1,) + occ[mu + 1:]
            j = self.index.get(target)
            if j is None:
                continue
            if self.statistics == "fermion":
                amp = -1.0 if sum(occ[:mu]) % 2 else 1.0
            else:
                amp = math.sqrt(n)
            a[j, i] = amp
        return a

    def number_operator(self, species: str, site: int) -> np.ndarray:
        a = self.annihilation(species, site)
        return a.T @ a

    def total_number_block(self, total: int):
        return [i for i, occ in enumerate(self.states) if sum(occ) == total]


def build_smeared_number(basis: FockBasis, grid: SpatialGrid, g: SmearingFunction,
                         species: str) -> OperatorFamily:
    """Smeared number operator at every flash node for one species.

    Lattice sites sit on the grid nodes; member k is
    sum_s g(y_s - x_k) n_hat(y_s), assembled from ladder-operator
    products so it inherits the second-quantized construction.  Acting
    on an n-particle state the eigenvalue is sum_i g(z_i - x_k), the
    first-quantized multiplication rule.
    """
    if grid.n != basis.sites:
        raise ContractViolationError(
            f"lattice has {basis.sites} sites but the grid carries {grid.n} nodes")
    if g.normalization != "density":
        raise ContractViolationError("number smearing must be density-normalized")
    basis.species_index(species)   # raises on unknown label
    number_diags = np.array([np.diag(basis.number_operator(species, s)) for s in range(basis.sites)])
    profiles = np.array([g.lattice_values(grid, grid.positions[k]) for k in range(grid.n)])
    diagonals = profiles @ number_diags
    return OperatorFamily(grid, diagonals=diagonals, smearing=g)


def build_smeared_mass(basis: FockBasis, grid: SpatialGrid, g: SmearingFunction,
                       m_r: float) -> OperatorFamily:
    """Mass-weighted smeared number operator and its square root.

    Member k of the returned family is sqrt(M(x_k)) with
    M(x_k) = sum_species (m_i / m_R) N_species(x_k); the squared
    diagonals therefore reproduce M exactly.  The family is flagged
    mass-weighted: the dynamics layer applies no extra mass factor.
    """
    if m_r <= 0:
        raise ContractViolationError("reference mass must be positive")
    mass_diag = np.zeros((grid.n, basis.dim))
    for label, m_i in basis.species:
        fam = build_smeared_number(basis, grid, g, label)
        mass_diag += (m_i / m_r) * fam.diagonals
    return OperatorFamily(grid, diagonals=np.sqrt(mass_diag),
                          mass_weighted=True, smearing=g)


def first_quantized_equiv_check(basis: FockBasis, grid: SpatialGrid,
                                g: SmearingFunction, n_particles: int) -> float:
    """Max deviation between the two routes to the smeared number operator.

    Route one: the ladder-operator family restricted to the n-particle
    block.  Route two: the multiplication operator sum_i g(z_i - x) on
    the explicitly (anti)symmetrized n-particle subspace of the n-fold
    tensor product, pulled back through the dense symmetrizer isometry.
    Returns the maximum elementwise deviation over all flash nodes.
    """
    if n_particles > 3 or basis.sites > 8:
        raise ContractViolationError("the symmetrizer oracle is restricted to n <= 3, sites <= 8")
    if len(basis.species) != 1:
        raise ContractViolationError("the equivalence check is defined for a single species")
    if n_particles > basis.max_total:
        raise ContractViolationError("basis does not contain the requested particle block")
    m = basis.sites
    if m ** n_particles > MAX_DIM:
        raise ContractViolationError("tensor-product dimension exceeds the dense cap")
    label = basis.species[0][0]
    block = basis.total_number_block(n_particles)
    family = build_smeared_number(basis, grid, g, label)

    # isometry from the Fock block to the (anti)symmetric subspace
    dim_tensor = m ** n_particles
    v = np.zeros((dim_tensor, len(block)))
    for col, idx in enumerate(block):
        occ = basis.states[idx]
        sites = [s for s in range(m) for _ in range(occ[s])]
        if basis.statistics == "boson":
            coeff = math.sqrt(math.prod(math.factorial(o) for o in occ) / math.factorial(n_particles))
            for arrangement in set(permutations(sites)):
                v[_tensor_index(arrangement, m), col] += coeff
        else:
            norm = 1.0 / math.sqrt(math.factorial(n_particles))
            for perm in permutations(range(n_particles)):
                arrangement = tuple(sites[p] for p in perm)
                v[_tensor_index(arrangement, m), col] += norm * _perm_sign(perm)

    worst = 0.0
    for k in range(grid.n):
        profile = g.lattice_values(grid, grid.positions[k])
        mult_diag = np.zeros(dim_tensor)
        for flat in range(dim_tensor):
            z = _tensor_unindex(flat, m, n_particles)
            mult_diag[flat] = profile[list(z)].sum()
        first_quantized = v.T @ (mult_diag[:, None] * v)
        second_quantized = np.diag(family.diagonals[k])[np.ix_(block, block)]
        worst = max(worst, float(np.max(np.abs(first_quantized - second_quantized))))
    return worst


def _tensor_index(sites, m: int) -> int:
    idx = 0
    for z in sites:
        idx = idx * m + z
    return idx


def _tensor_unindex(idx: int, m: int, n: int):
    out = []
    for _ in range(n):
        out.append(idx % m)
        idx //= m
    return tuple(reversed(out))


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
