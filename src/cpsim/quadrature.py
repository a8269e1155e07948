"""Adaptive Gauss-Kronrod quadrature on finite intervals.

Small, deterministic engine used by the gravity integrals.  A 7-point
Gauss / 15-point Kronrod pair gives each panel's value and a local
error estimate.  ``_integrate_batch`` integrates many independent
problems at once: each round it bisects, in every unconverged problem,
the panels whose error exceeds that problem's tolerance shared out over
its panels (always including its worst panel), and evaluates all new
panels of all problems with one vectorized integrand call, as in
QUADPACK ``qag`` and scipy's ``quad_vec``.  Weighted sums run along
rows, so a problem's result does not depend on what it is batched with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# G7/K15 nodes and weights on [-1, 1], mirrored about the centre node
_XK = np.array([-0.991455371120813, -0.949107912342759, -0.864864423359769,
                -0.741531185599394, -0.586087235467691, -0.405845151377397,
                -0.207784955007898, 0.0])
_XK = np.concatenate((_XK, -_XK[-2::-1]))
_WK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250,
                0.140653259715525, 0.169004726639267, 0.190350578064785,
                0.204432940075298, 0.209482141084728])
_WK = np.concatenate((_WK, _WK[-2::-1]))
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119,
                0.417959183673469])
_WG = np.concatenate((_WG, _WG[-2::-1]))
_GAUSS_IDX = np.arange(1, 15, 2)


def _gk15(f, lo, hi, owner):
    """(kronrod, error_estimate) arrays for panels [lo, hi] of problems ``owner``."""
    h = (hi - lo) / 2.0
    x = lo[:, None] + (1.0 + _XK) * h[:, None]
    y = np.asarray(f(x, owner), dtype=float)
    k = h * np.einsum("pk,k->p", y, _WK)
    g = h * np.einsum("pk,k->p", y[:, _GAUSS_IDX], _WG)
    # standard QUADPACK-style rescaled error
    err = np.abs(k - g)
    resabs = h * np.einsum("pk,k->p", np.abs(y), _WK)
    scale = (resabs != 0.0) & (err != 0.0)
    ratio = np.minimum(1.0, np.divide(200.0 * err, resabs, out=np.ones_like(err), where=scale))
    # r * sqrt(r), not r ** 1.5: array pow rounds differently by position
    return k, np.where(scale, resabs * ratio * np.sqrt(ratio), err)


def _integrate_batch(f, lo, hi, owner, abs_tol, rel_tol, max_panels):
    """Integrate m problems given by their initial panels ``[lo, hi]``.

    ``owner`` maps each panel to its problem (0..m-1, every problem
    owning at least one panel); ``abs_tol``, ``rel_tol`` and
    ``max_panels`` are per-problem arrays or scalars.  ``f(x, owner)``
    receives nodes of shape (p, 15) and the owner of each row.  Returns
    per-problem (value, error, n_panels, converged) arrays.
    """
    owner = np.asarray(owner)
    m = int(owner.max()) + 1
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    val, err = _gk15(f, lo, hi, owner)
    while True:
        n = np.bincount(owner, minlength=m)
        total = np.bincount(owner, val, minlength=m)
        total_err = np.bincount(owner, err, minlength=m)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        room = max_panels - n
        open_ = (total_err > tol) & (room > 0)
        if not open_.any():
            return total, total_err, n, total_err <= tol
        # rank each problem's panels worst first; a stable sort keeps the
        # tie order a function of that problem's own panels
        order = np.lexsort((-err, owner))
        rank = np.empty_like(owner)
        grouped = owner[order]
        rank[order] = np.arange(len(order)) - np.searchsorted(grouped, grouped)
        pick = open_[owner] & ((err > (tol / n)[owner]) | (rank == 0)) & (rank < room[owner])
        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate((lo[pick], mid))
        new_hi = np.concatenate((mid, hi[pick]))
        new_owner = np.concatenate((owner[pick], owner[pick]))
        new_val, new_err = _gk15(f, new_lo, new_hi, new_owner)
        keep = ~pick
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        owner = np.concatenate((owner[keep], new_owner))
        val = np.concatenate((val[keep], new_val))
        err = np.concatenate((err[keep], new_err))


@dataclass
class QuadResult:
    value: float
    error: float
    n_panels: int
    converged: bool


def integrate_adaptive(f, a: float, b: float, *, abs_tol: float = 1e-10,
                       rel_tol: float = 1e-10, breakpoints=(),
                       min_depth: int = 0, max_panels: int = 2000) -> QuadResult:
    """Adaptively integrate ``f`` (vectorized) over [a, b].

    ``f`` is called with a 1-D node array.  ``breakpoints`` are interior
    abscissae where the integrand changes character; panels never
    straddle them.  ``min_depth`` bisects every initial panel that many
    times before adaptivity starts, which gives callers a knob for
    convergence studies.
    """
    edges = np.array([a] + sorted(p for p in set(breakpoints) if a < p < b) + [b], dtype=float)
    for _ in range(min_depth):
        edges = np.insert(edges, np.arange(1, len(edges)), 0.5 * (edges[:-1] + edges[1:]))
    value, error, n, converged = _integrate_batch(
        lambda x, owner: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape),
        edges[:-1], edges[1:], np.zeros(len(edges) - 1, dtype=int),
        abs_tol, rel_tol, max_panels)
    return QuadResult(float(value[0]), float(error[0]), int(n[0]), bool(converged[0]))
