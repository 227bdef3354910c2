"""Pinned random streams of the scalar sampler and the coupling runner.

The lists below were recorded from the seeded runs and must not move: the
samplers and the coupling read their laws from the compiled transition table,
and any change to its entries or to the order in which uniforms are consumed
shows up here as a different realization. The values are integers computed
from Philox draws and IEEE comparisons only (no libm), so they hold on every
platform.

``Uniforms`` is checked against the plain block reader it must equal: pop
from the end of ``rng.random(block).tolist()``, refill when empty. That
covers the values, their order and the generator's state after the reads,
whether a block is drawn whole or tail first.
"""

import json

import numpy as np
import pytest

from conftest import ScriptedRng
from mcqnet.coupling import CouplingKernel
from mcqnet.network import builtin_fixture
from mcqnet.qprocess import empty_state, state_norm
from mcqnet.rng import Uniforms, master_rng
from mcqnet.sampling import PathSampler

SEEDS = range(20)

# PathSampler.run_terminal_norm from empty, n = 500, master_rng(seed)
TERMINAL_NORMS = {
    "lk-prop": [1, 0, 0, 22, 6, 4, 0, 1, 2, 4, 6, 5, 1, 5, 3, 2, 8, 5, 0, 6],
    "lk-sbp": [1, 0, 1, 4, 1, 3, 1, 1, 4, 1, 3, 2, 3, 7, 4, 2, 10, 1, 1, 7],
    "fcfs-reentrant": [1, 2, 0, 18, 6, 9, 2, 2, 4, 4, 6, 6, 1, 6, 3, 2, 9, 5, 0, 6],
}

# CouplingKernel.run from (empty, one class-1 job), n = 200, master_rng(seed):
# (tau, final lower norm, final upper norm)
COUPLINGS = {
    "lk-sbp": [
        (5, 4, 4), (45, 5, 5), (6, 1, 1), (53, 1, 1), (7, 0, 0),
        (19, 2, 2), (9, 0, 0), (18, 1, 1), (23, 5, 5), (7, 2, 2),
        (8, 2, 2), (19, 8, 8), (18, 0, 0), (29, 4, 4), (13, 3, 3),
        (13, 1, 1), (13, 3, 3), (7, 1, 1), (26, 1, 1), (43, 4, 4),
    ],
    "fcfs-reentrant": [
        (5, 2, 2), (18, 5, 5), (7, 7, 7), (6, 2, 2), (7, 1, 1),
        (9, 5, 5), (10, 2, 2), (19, 8, 8), (23, 4, 4), (26, 5, 5),
        (8, 3, 3), (31, 8, 8), (16, 0, 0), (28, 4, 4), (14, 1, 1),
        (14, 5, 5), (14, 10, 10), (13, 2, 2), (27, 7, 7), (31, 3, 3),
    ],
}


@pytest.mark.parametrize("name", sorted(TERMINAL_NORMS))
def test_scalar_sampler_stream_is_pinned(name):
    spec = builtin_fixture(name)
    sampler = PathSampler(spec)
    xi0 = empty_state(spec)
    norms = [sampler.run_terminal_norm(xi0, 500, master_rng(s)) for s in SEEDS]
    assert norms == TERMINAL_NORMS[name]


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_coupling_stream_is_pinned(name):
    spec = builtin_fixture(name)
    kernel = CouplingKernel(spec)
    lower = empty_state(spec)
    upper = ((1,),) + lower[1:]
    out = []
    for s in SEEDS:
        path = kernel.run(lower, upper, 200, master_rng(s))
        last = path.states[-1]
        out.append((path.tau, state_norm(last.lower), state_norm(last.upper)))
    assert out == COUPLINGS[name]


def _plain_reads(rng, block, count):
    """``count`` uniforms popped from the end of ``rng.random(block)`` blocks."""
    out, buf = [], []
    for _ in range(count):
        if not buf:
            buf = rng.random(block).tolist()
        out.append(buf.pop())
    return out


def _state(rng):
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=lambda a: a.tolist())


def _philox_at(position):
    rng = master_rng(41)
    if position == "four-doubles-in":  # word aligned
        rng.random(4)
    elif position == "one-double-in":  # three buffered words left
        rng.random(1)
    elif position == "half-word-in":  # aligned, the other 32-bit half buffered
        rng.integers(0, 2**32, dtype=np.uint32)
        rng.random(3)
    elif position == "spent-half-word":  # aligned, a spent 32-bit half remembered
        rng.integers(0, 2**32, size=2, dtype=np.uint32)
        rng.random(3)
    return rng


READS = (0, 1, 511, 512, 513, 4096, 4097, 9000)


@pytest.mark.parametrize("tail_first", [True, False])
@pytest.mark.parametrize("block", [16, 18, 1004, 4096])
@pytest.mark.parametrize(
    "position", ["fresh", "four-doubles-in", "one-double-in", "half-word-in", "spent-half-word"]
)
def test_uniforms_equal_plain_block_reads_on_philox(position, block, tail_first):
    for count in READS:
        rng, ref = _philox_at(position), _philox_at(position)
        uni = Uniforms(rng, block, tail_first)
        got = [uni.next() for _ in range(count)]
        assert got == _plain_reads(ref, block, count), count
        assert _state(rng) == _state(ref), count
        # the generator goes on where the plain reads leave it
        assert rng.random(3).tolist() == ref.random(3).tolist(), count


def test_uniforms_equal_plain_block_reads_on_pcg64():
    for block in (16, 1004, 4096):
        for count in READS:
            rng, ref = np.random.default_rng(9), np.random.default_rng(9)
            uni = Uniforms(rng, block, tail_first=True)
            assert [uni.next() for _ in range(count)] == _plain_reads(ref, block, count)
            assert _state(rng) == _state(ref)


def test_uniforms_replay_a_script_in_order():
    uni = Uniforms(ScriptedRng([0.1, 0.2, 0.3, 0.4, 0.5]), 2)
    assert [uni.next() for _ in range(7)] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.5, 0.5]
    uni = Uniforms(ScriptedRng([0.1, 0.2]), 1024, tail_first=True)
    assert [uni.next() for _ in range(3)] == [0.1, 0.2, 0.5]


class _CountingGenerator(np.random.Generator):
    """A Philox generator that records the size of every ``random`` call."""

    def __init__(self, seed):
        super().__init__(np.random.Philox(seed))
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return super().random(size)


def test_a_short_read_draws_only_the_tail_of_a_philox_block():
    rng = _CountingGenerator(3)
    uni = Uniforms(rng, 4096, tail_first=True)
    for _ in range(400):
        uni.next()
    assert rng.sizes == [512]
    for _ in range(4096 - 400 + 1):  # the rest of the block, then one more
        uni.next()
    assert rng.sizes == [512, 4096 - 512, 512]
    # a block no larger than the tail, or not a whole number of Philox words,
    # is one draw, and so is every block unless the tail is asked for first
    for block, tail_first in ((512, True), (1002, True), (4096, False)):
        rng = _CountingGenerator(3)
        uni = Uniforms(rng, block, tail_first)
        uni.next()
        assert rng.sizes == [block]


def test_refill_hands_over_the_list_that_next_pops():
    rng, ref = master_rng(2), master_rng(2)
    uni = Uniforms(rng, 1004, tail_first=True)
    got = [uni.next() for _ in range(3)]
    buf = uni.buf
    while buf:
        got.append(buf.pop())
    buf = uni.refill()
    got.append(buf.pop())
    got.append(uni.next())
    assert got == _plain_reads(ref, 1004, len(got))


@pytest.mark.parametrize("block", [0, -4])
def test_block_size_must_be_positive(block):
    with pytest.raises(ValueError, match=f"block size must be at least 1, got {block}"):
        Uniforms(master_rng(1), block)
    sampler = PathSampler(builtin_fixture("mm1"))
    with pytest.raises(ValueError, match=f"got {block}"):
        sampler.reset(((),), master_rng(1), block=block)
