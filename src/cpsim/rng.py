"""Deterministic random-number streams.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed through ``numpy.random.SeedSequence``.  Stream k
of a base seed is ``SeedSequence(entropy=seed, spawn_key=(k,))``, which
is a documented, stable hash of (seed, k).  Each unit of work owns one
stream and draws from it in a fixed order, so it reproduces bit-for-bit
whatever the number of units or the chunk they are computed in;
``random(m)`` gives the same doubles as m calls of ``random()``, which
lets the engines draw uniforms in blocks.

- Each trajectory k of a fixed-step ensemble (``trajectories``,
  ``compare``) owns stream k and consumes one uniform per step and one
  more per flash, drawn in blocks.
- Each Born run k (the waiting-time engine, without a Hamiltonian)
  owns stream k and consumes one uniform per event: it ends the run
  when the survival to the end time is at least that uniform, and
  otherwise fixes the wait to the next flash; every flash then draws one
  more uniform for its node.  A run of n flashes reads 2n + 1 uniforms,
  drawn in blocks.
- Collapse-point window w owns stream w.  Its placement draws come
  first: the point count n from ``poisson(rate * t_end)``, then a block
  of n uniforms whose sorted values, scaled by t_end, are the times,
  then a block of n uniforms that pick the nodes.  Then come the
  chain's uniforms, one per point, drawn as one block.
"""

import numpy as np

GENERATOR_NAME = "philox4x64/seedseq-spawn-v3"


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return generator number ``index`` of the family keyed by ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))
