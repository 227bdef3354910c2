"""Random-stream helpers: a counter-based master generator and fast uniforms.

All randomized routines take a ``numpy.random.Generator`` and derive what they
need from it with ``Generator.spawn`` (SeedSequence-backed, so a result depends
only on the seed and the order of the spawns). The scalar sampler runs its
replications in sequence on one spawned substream and pulls uniforms from
prefetched blocks to amortize the per-call overhead; the batch stepper draws
its uniforms in blocks from the generator it is given.

A block of ``Uniforms`` is consumed from its end, so a short path reads only
the tail of its first block. Philox is counter based, so a reader that often
stops early (the coupling runner) can ask for the tail to be drawn first: on
a Philox generator with no buffered output the counter skips the head, which
is drawn only when a path reads that far. The values, their order and the
generator's state after each block are those of one ``rng.random(block)``
call either way.
"""

from __future__ import annotations

import numpy as np

# Values drawn first from a Philox block, a multiple of Philox's 4 words per
# counter step: enough for a 200-step coupled path, 2 uniforms a step at most.
_TAIL = 512


def master_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator for a 64-bit master seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _spent_philox(rng):
    """The Philox bit generator of ``rng`` and its state when it holds no
    buffered output, else None. ``advance`` clears the buffered words and
    32-bit half, so only from such a state does skipping end where a draw of
    the whole block would."""
    bg = getattr(rng, "bit_generator", None)
    if not isinstance(bg, np.random.Philox):
        return None
    state = bg.state
    if state["buffer_pos"] != 4 or state["has_uint32"] or state["uinteger"]:
        return None
    return bg, state


class Uniforms:
    """Scalar uniforms drawn in blocks from one generator.

    ``next()`` returns the values of ``rng.random(block)`` from last to first,
    then those of the next block, and costs a list pop in the common case;
    the block size trades a little memory for far fewer Generator calls in
    tight sampling loops. ``buf`` holds the values not yet read, popped from
    its end; a loop may pop it directly and call ``refill()`` when it is empty.

    With ``tail_first``, a Philox block larger than ``_TAIL`` is drawn in two
    calls, its last ``_TAIL`` values first. That saves most of the draw for a
    reader that stops within them, and costs a reader of the whole block
    (the scalar sampler, which sizes its block to its run) more than it saves.
    """

    __slots__ = ("_rng", "_block", "_tail_first", "buf", "_head")

    def __init__(self, rng: np.random.Generator, block: int = 4096, tail_first: bool = False):
        if block < 1:
            raise ValueError(f"uniform block size must be at least 1, got {block}")
        self._rng = rng
        self._block = block
        self._tail_first = tail_first and block > _TAIL and block % 4 == 0
        self.buf: list[float] = []
        # the Philox state at the start of a block whose tail was drawn alone
        self._head = None

    def next(self) -> float:
        if not self.buf:
            self.refill()
        return self.buf.pop()

    def refill(self) -> list[float]:
        """Replace the spent ``buf`` by the next values and return it."""
        rng, block, head = self._rng, self._block, self._head
        if head is not None:  # the rest of a block whose tail was read
            bg = rng.bit_generator
            now = bg.state
            bg.state = head
            self.buf = rng.random(block - _TAIL).tolist()
            bg.state = now
            self._head = None
        elif self._tail_first and (spent := _spent_philox(rng)):
            bg, self._head = spent
            bg.advance((block - _TAIL) // 4)  # one counter step is 4 doubles
            self.buf = rng.random(_TAIL).tolist()
        else:
            self.buf = rng.random(block).tolist()
        return self.buf
