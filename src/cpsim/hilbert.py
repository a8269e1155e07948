"""Finite-dimensional Hilbert-space toolbox.

Spatial grids that carry their quadrature measure, and the few dense
primitives the rest of the package is built from: among them the one
product of a stack of rows with a matrix, ``_rows_times``, whose rows do
not depend on each other.  States and operators are plain ndarrays over
a discrete basis (grid nodes or Fock occupation lists).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as _iproduct

import numpy as np

from .errors import ContractViolationError

#: Hard cap on total Hilbert-space dimension.  Dense storage only.
MAX_DIM = 4096


# ---------------------------------------------------------------------------
# spatial grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpatialGrid:
    """Cell-centred rectangular grid carrying its quadrature measure.

    ``positions`` has shape (n_nodes, dim); ``weights`` are the cell
    volumes, so sums over nodes weighted by ``weights`` approximate
    volume integrals.  ``axes`` stores the per-axis coordinates used to
    build the product grid (strictly increasing).
    """

    dim: int
    positions: np.ndarray
    weights: np.ndarray
    extent: np.ndarray            # shape (dim, 2)
    axes: tuple = field(default=())

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ContractViolationError(f"grid dimension must be 1 or 3, got {self.dim}")
        object.__setattr__(self, "positions",
                           np.asarray(self.positions, dtype=float).reshape(-1, self.dim))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "extent", np.asarray(self.extent, dtype=float).reshape(self.dim, 2))
        for ax in self.axes:
            if np.any(np.diff(ax) <= 0):
                raise ContractViolationError("grid axis coordinates must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ContractViolationError("all quadrature weights must be positive")
        vol = float(np.prod(self.extent[:, 1] - self.extent[:, 0]))
        if abs(self.weights.sum() - vol) > 1e-12 * vol:
            raise ContractViolationError(
                f"weights sum {self.weights.sum()!r} does not reproduce box volume {vol!r}")

    @classmethod
    def line(cls, n: int, spacing: float, center: float = 0.0) -> "SpatialGrid":
        """Uniform 1-D grid of n nodes with the given spacing."""
        x = (np.arange(n) - (n - 1) / 2.0) * spacing + center
        extent = [[x[0] - spacing / 2, x[-1] + spacing / 2]]
        return cls(1, x[:, None], np.full(n, spacing), extent, axes=(x,))

    @classmethod
    def box3d(cls, n_per_axis: int, spacing: float, center=(0.0, 0.0, 0.0)) -> "SpatialGrid":
        """Uniform cubic 3-D grid, lexicographic node ordering."""
        c = np.asarray(center, dtype=float)
        ax = [(np.arange(n_per_axis) - (n_per_axis - 1) / 2.0) * spacing + c[i] for i in range(3)]
        pos = np.array(list(_iproduct(*ax)), dtype=float)
        extent = [[a[0] - spacing / 2, a[-1] + spacing / 2] for a in ax]
        w = np.full(len(pos), spacing ** 3)
        return cls(3, pos, w, extent, axes=tuple(ax))

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def spacing(self) -> float:
        """Smallest spacing along any axis."""
        return min(float(np.min(np.diff(ax))) for ax in self.axes)

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent[:, 1] - self.extent[:, 0]))

    @property
    def x(self) -> np.ndarray:
        """Flat coordinate array (1-D grids only)."""
        if self.dim != 1:
            raise ContractViolationError("x is only defined for 1-D grids")
        return self.positions[:, 0]

    def distances_from(self, point) -> np.ndarray:
        """Euclidean distance of every node from ``point``."""
        p = np.atleast_1d(np.asarray(point, dtype=float))
        return np.linalg.norm(self.positions - p[None, :], axis=1)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _rows_times(v, m):
    """v @ m one row at a time, a vector-matrix BLAS product per row, so that
    a row's bits do not depend on the rows beside it, as they do in one
    (rows, dim) BLAS product."""
    return (v[:, None, :] @ m)[:, 0]


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2
