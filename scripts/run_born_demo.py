#!/usr/bin/env python3
"""Pointer-measurement demonstration: flash statistics follow the Born rule.

A two-outcome system entangled with an amplified pointer is evolved
under the jump process; each run is classified by the region of its
first flash.  Prints region frequencies with 99% Wilson intervals and
the cross-region diagnostics.
"""

import argparse

import numpy as np

from cpsim.dynamics import ModelParams
from cpsim.hilbert import SpatialGrid
from cpsim.measurement import PointerModel, born_experiment, pointer_family
from cpsim.operators import grw_gaussian


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weight", type=float, default=0.25,
                    help="Born weight of the first outcome")
    ap.add_argument("--runs", type=int, default=1000)
    ap.add_argument("--amplification", type=int, default=50)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    r_c = 1.0
    grid = SpatialGrid.line(36, 0.5)
    pointer = PointerModel(region_centers=(-4.5, 4.5), r_c=r_c,
                           amplification=args.amplification)
    family = pointer_family(grid, grw_gaussian(r_c), pointer.outcome_count)
    params = ModelParams.natural(lambda_grw=1.0, family=family, dt=8e-4,
                                 mass=float(args.amplification))

    amps = np.sqrt([args.weight, 1.0 - args.weight])
    rep = born_experiment(amps, pointer, params, t_obs=0.5,
                          n_runs=args.runs, seed=args.seed)

    print(f"runs: {rep.n_runs}   zero-flash runs: {rep.zero_flash_runs}")
    for i, (freq, (lo, hi)) in enumerate(zip(rep.region_frequencies, rep.wilson_99)):
        print(f"region {i}: frequency {freq:.4f}  wilson99 [{lo:.4f}, {hi:.4f}]  "
              f"born weight {abs(amps[i]) ** 2:.4f}")
    print(f"cross-region runs: {rep.cross_region_runs}")
    print(f"mean branch fidelity after first flash: {rep.mean_branch_fidelity:.6f}")
    print(f"median first-flash time: {rep.median_first_flash_time:.4f}")


if __name__ == "__main__":
    main()
