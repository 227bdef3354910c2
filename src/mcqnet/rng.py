"""Random-stream helpers: a counter-based master generator and fast uniforms.

All randomized routines take a ``numpy.random.Generator`` and derive what they
need from it with ``Generator.spawn`` (SeedSequence-backed, so a result depends
only on the seed and the order of the spawns). The scalar sampler runs its
replications in sequence on one spawned substream; it and the coupling runner
pull uniforms from prefetched blocks, sized to each run by ``run_block``, to
amortize the per-call overhead. The batch stepper draws its uniforms in blocks
from the generator it is given.
"""

from __future__ import annotations

import numpy as np


def master_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator for a 64-bit master seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def run_block(steps: int) -> int:
    """Uniform block size for a run of ``steps`` steps: a step reads at most
    two uniforms, so one block serves a short run whole."""
    return min(4096, 2 * steps + 4)


class Uniforms:
    """Scalar uniforms drawn in blocks from one generator.

    ``next()`` returns the values of ``rng.random(block)`` from last to first,
    then those of the next block, and costs a list pop in the common case;
    the block size trades a little memory for far fewer Generator calls in
    tight sampling loops. ``buf`` holds the values not yet read, popped from
    its end; a loop may pop it directly and call ``refill()`` when it is empty.
    """

    __slots__ = ("_rng", "_block", "buf")

    def __init__(self, rng: np.random.Generator, block: int = 4096):
        if block < 1:
            raise ValueError(f"uniform block size must be at least 1, got {block}")
        self._rng = rng
        self._block = block
        self.buf: list[float] = []

    def next(self) -> float:
        if not self.buf:
            self.refill()
        return self.buf.pop()

    def refill(self) -> list[float]:
        """Replace the spent ``buf`` by the next block and return it."""
        self.buf = self._rng.random(self._block).tolist()
        return self.buf
