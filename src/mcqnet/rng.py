"""Random-stream helpers: a counter-based master generator and fast uniforms.

All randomized routines take a ``numpy.random.Generator`` and derive what they
need from it with ``Generator.spawn`` (SeedSequence-backed, so a result depends
only on the seed and the order of the spawns). The scalar sampler runs its
replications in sequence on one spawned substream and pulls uniforms from
prefetched blocks to amortize the per-call overhead; the batch stepper draws
its uniforms in blocks from the generator it is given.
"""

from __future__ import annotations

import numpy as np


def master_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator for a 64-bit master seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


class Uniforms:
    """Scalar uniforms drawn in blocks from one generator.

    ``next()`` costs a list pop in the common case; the block size trades a
    little memory for far fewer Generator calls in tight sampling loops.
    """

    __slots__ = ("_rng", "_block", "_buf")

    def __init__(self, rng: np.random.Generator, block: int = 4096):
        self._rng = rng
        self._block = block
        self._buf: list[float] = []

    def next(self) -> float:
        if not self._buf:
            self._buf = self._rng.random(self._block).tolist()
        return self._buf.pop()
