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
whether they are read by ``next()`` or popped from ``buf`` directly.
"""

import dataclasses
import json

import numpy as np
import pytest

from conftest import LCFS_LINE, SBP_HQ_LINE, ScriptedRng
from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.cli import main
from mcqnet.configurations import QueuePolicy
from mcqnet.coupling import CouplingKernel, run_coupling
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
    "lcfs-line": [1, 0, 0, 21, 6, 8, 2, 2, 5, 4, 8, 7, 1, 7, 2, 3, 14, 5, 0, 1],
    "sbp-hq-line": [1, 6, 0, 19, 6, 9, 2, 3, 8, 4, 6, 6, 1, 8, 4, 4, 14, 5, 0, 6],
    "egal-line": [1, 1, 0, 32, 6, 4, 0, 0, 3, 4, 8, 5, 1, 5, 3, 2, 8, 5, 0, 2],
    "egal-prop-line": [1, 2, 0, 32, 6, 4, 0, 1, 3, 4, 8, 5, 1, 5, 3, 2, 8, 5, 0, 2],
}


def _lk_line(*kinds):
    """The lk-prop line with the given order-insensitive allocation per station."""
    protocols = tuple(StationProtocol(QueuePolicy.fcfs(), ServiceAllocation(k)) for k in kinds)
    return dataclasses.replace(builtin_fixture("lk-prop"), protocols=protocols)


# the fcfs-reentrant line with LCFS and with SBP insertion (conftest.py), and
# the lk-prop line with egalitarian stations and with an egalitarian station
# {1, 4} before a proportional station {2, 3}
LINES = {
    "lcfs-line": LCFS_LINE,
    "sbp-hq-line": SBP_HQ_LINE,
    "egal-line": _lk_line("egalitarian", "egalitarian"),
    "egal-prop-line": _lk_line("egalitarian", "proportional"),
}

# CouplingKernel.run from the start record of (empty, one class-1 job), n = 200, master_rng(seed):
# (tau, final lower norm, final upper norm)
COUPLINGS = {
    "lk-sbp": [
        (50, 1, 1), (21, 0, 0), (13, 0, 0), (16, 6, 6), (8, 0, 0),
        (23, 4, 4), (10, 0, 0), (17, 5, 5), (66, 4, 4), (51, 0, 0),
        (6, 2, 2), (15, 5, 5), (11, 2, 2), (14, 6, 6), (8, 4, 4),
        (19, 5, 5), (48, 3, 3), (5, 0, 0), (4, 2, 2), (11, 0, 0),
    ],
    "fcfs-reentrant": [
        (14, 3, 3), (22, 5, 5), (16, 3, 3), (10, 12, 12), (36, 5, 5),
        (23, 8, 8), (10, 8, 8), (8, 5, 5), (34, 7, 7), (9, 0, 0),
        (10, 1, 1), (29, 9, 9), (24, 2, 2), (13, 4, 4), (8, 3, 3),
        (19, 5, 5), (38, 11, 11), (5, 4, 4), (4, 1, 1), (10, 1, 1),
    ],
}


@pytest.mark.parametrize("name", sorted(TERMINAL_NORMS))
def test_scalar_sampler_stream_is_pinned(name):
    spec = LINES[name] if name in LINES else builtin_fixture(name)
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
        path = kernel.run(kernel.start(lower, upper), 200, master_rng(s))
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


def _reads(uni, count, direct):
    """``count`` values of ``uni``: by ``next()``, or, with ``direct``, popped
    from ``buf`` with a ``refill()`` whenever it is empty, as the coupled
    runner reads them."""
    if not direct:
        return [uni.next() for _ in range(count)]
    out, buf = [], uni.buf
    for _ in range(count):
        if not buf:
            buf = uni.refill()
        out.append(buf.pop())
    return out


@pytest.mark.parametrize("direct", [True, False])
@pytest.mark.parametrize("block", [16, 18, 1004, 4096])
@pytest.mark.parametrize(
    "position", ["fresh", "four-doubles-in", "one-double-in", "half-word-in", "spent-half-word"]
)
def test_uniforms_equal_plain_block_reads_on_philox(position, block, direct):
    for count in READS:
        rng, ref = _philox_at(position), _philox_at(position)
        got = _reads(Uniforms(rng, block), count, direct)
        assert got == _plain_reads(ref, block, count), count
        assert _state(rng) == _state(ref), count
        # the generator goes on where the plain reads leave it
        assert rng.random(3).tolist() == ref.random(3).tolist(), count


def test_uniforms_equal_plain_block_reads_on_pcg64():
    for block in (16, 1004, 4096):
        for count in READS:
            rng, ref = np.random.default_rng(9), np.random.default_rng(9)
            uni = Uniforms(rng, block)
            assert [uni.next() for _ in range(count)] == _plain_reads(ref, block, count)
            assert _state(rng) == _state(ref)


def test_uniforms_replay_a_script_in_order():
    uni = Uniforms(ScriptedRng([0.1, 0.2, 0.3, 0.4, 0.5]), 2)
    assert [uni.next() for _ in range(7)] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.5, 0.5]
    uni = Uniforms(ScriptedRng([0.1, 0.2]), 1024)
    assert [uni.next() for _ in range(3)] == [0.1, 0.2, 0.5]


class _CountingGenerator(np.random.Generator):
    """A Philox generator that records the size of every ``random`` call."""

    def __init__(self, seed):
        super().__init__(np.random.Philox(seed))
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return super().random(size)


def test_a_run_draws_one_block_sized_to_it():
    # a step reads at most two uniforms, so a run of n < 2046 steps makes one
    # random(2n + 4) call; a longer run reads 4096-value blocks
    spec = builtin_fixture("lk-sbp")
    kernel, sampler = CouplingKernel(spec), PathSampler(spec)
    lower = empty_state(spec)
    start = kernel.start(lower, ((1,),) + lower[1:])
    for n in (1, 20, 200, 2045):
        rng = _CountingGenerator(n)
        kernel.run(start, n, rng)
        assert rng.sizes == [2 * n + 4]
        rng = _CountingGenerator(n)
        sampler.run_terminal_norm(lower, n, rng)
        assert rng.sizes == [2 * n + 4]
    rng = _CountingGenerator(5)
    kernel.run(start, 3000, rng)
    assert set(rng.sizes) == {4096} and len(rng.sizes) <= 2


def test_refill_hands_over_the_list_that_next_pops():
    rng, ref = master_rng(2), master_rng(2)
    uni = Uniforms(rng, 1004)
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


def test_couple_reps_run_on_the_streams_of_run_coupling(tmp_path):
    # ``mcqnet couple`` runs rep r's paths on the streams ``run_coupling``
    # gives on the master generator's r-th spawned child
    assert main([
        "--out-dir", str(tmp_path), "--seed", "9",
        "couple", "--spec", "lk-sbp", "--lower", "[[],[]]", "--upper", "[[1,4],[2]]",
        "--steps", "40", "--reps", "4",
    ]) == 0
    runs = json.loads((tmp_path / "couple_report.json").read_text())["runs"]
    master = master_rng(9)
    spec = builtin_fixture("lk-sbp")
    expected = [
        [p.tau for p in run_coupling(spec, ((), ()), ((1, 4), (2,)), 40, master.spawn(1)[0])]
        for _ in runs
    ]
    assert [run["tau"] for run in runs] == expected
    assert len({len(t) for t in expected}) == 1 and len(expected[0]) == 3
