"""Pinned random streams of the scalar sampler and the coupling runner.

The lists below were recorded from the seeded runs and must not move: the
samplers and the coupling read their laws from the compiled transition table,
and any change to its entries or to the order in which uniforms are consumed
shows up here as a different realization. The values are integers computed
from Philox draws and IEEE comparisons only (no libm), so they hold on every
platform.
"""

import pytest

from mcqnet.coupling import CouplingKernel
from mcqnet.network import builtin_fixture
from mcqnet.qprocess import empty_state, state_norm
from mcqnet.rng import master_rng
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
