"""Deterministic random-number streams.

Every stochastic routine in the package draws from a counter-based
Philox generator keyed through ``numpy.random.SeedSequence``.  Stream k
of a base seed is ``SeedSequence(entropy=seed, spawn_key=(k,))``, which
is a documented, stable hash of (seed, k).  Each unit of work owns one
stream and draws from it in a fixed order, so it reproduces bit-for-bit
whatever the number of units or the chunk they are computed in;
``random(m)`` gives the same doubles as m calls of ``random()``, which
lets the engines draw uniforms in blocks.

- Each jump run k (a trajectory of ``trajectories`` or ``compare``, or
  a Born run) owns stream k and follows one protocol: it draws one
  uniform u at the start and one after every flash, and the run
  flashes when its survival since the last flash falls to u; every
  flash then draws one more uniform for its node.  A run of n flashes
  reads 2n + 1 uniforms, drawn in blocks; ``dt`` plays no part.
- Collapse-point window w owns stream w.  Its placement draws come
  first: the point count n from ``poisson(rate * t_end)``, then a block
  of n uniforms whose sorted values, scaled by t_end, are the times,
  then a block of n uniforms that pick the nodes.  Then come the
  chain's uniforms, one per point, drawn as one block.
"""

import numpy as np

GENERATOR_NAME = "philox4x64/seedseq-spawn-v4"


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return generator number ``index`` of the family keyed by ``seed``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.Philox(ss))
