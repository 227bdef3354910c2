"""The block batch stepper against the per-step reference loop.

``reference_terminal_norms`` is the batch stepper as it was before steps were
run in blocks: two ``rng.random(reps)`` draws per step and the count vector
updated from gather tables. The block stepper must return the same norms and
leave the generator in the same state, bit for bit.
"""

import numpy as np
import pytest

from mcqnet import sampling
from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import QueuePolicy
from mcqnet.network import NetworkSpec, builtin_fixture, validate
from mcqnet.qprocess import routing_choices, state_composition, station_top_rate, uniformization_rate
from mcqnet.rng import master_rng
from mcqnet.sampling import batch_terminal_norms


def reference_terminal_norms(spec, xi0, n, reps, rng):
    d = spec.class_count
    lam = uniformization_rate(spec)
    event_cum, event_cls, event_dep = [], [], []
    cum = 0.0
    for k in range(1, d + 1):
        if spec.theta[k - 1] > 0:
            cum += spec.theta[k - 1] / lam
            event_cum.append(cum)
            event_cls.append(k)
            event_dep.append(False)
    for i in range(spec.station_count):
        cum += station_top_rate(spec, i) / lam
        event_cum.append(cum)
        event_cls.append(spec.stations[i][0])
        event_dep.append(True)
    event_cum_arr = np.asarray(event_cum)
    event_cls_arr = np.asarray(event_cls)
    event_dep_arr = np.asarray(event_dep)

    routes = {k: routing_choices(spec, k) for k in range(1, d + 1)}
    width = max(len(r) for r in routes.values())
    route_cum = np.full((d + 1, width), 2.0)
    route_tgt = np.zeros((d + 1, width), dtype=np.int64)
    for k, choices in routes.items():
        for j, (c, l) in enumerate(choices):
            route_cum[k, j] = c
            route_tgt[k, j] = l

    counts = np.tile(np.asarray(state_composition(spec, xi0), dtype=np.int64), (reps, 1))
    rows = np.arange(reps)
    top = len(event_cls) - 1
    for _ in range(n):
        u = rng.random(reps)
        v = rng.random(reps)
        ev = np.searchsorted(event_cum_arr, u, side="right")
        np.clip(ev, 0, top, out=ev)
        k_of = event_cls_arr[ev]
        dep = event_dep_arr[ev]
        active_dep = dep & (counts[rows, k_of - 1] > 0)
        pick = (v[:, None] >= route_cum[k_of]).sum(axis=1)
        np.clip(pick, 0, width - 1, out=pick)
        target = route_tgt[k_of, pick]
        plus = np.where(~dep, k_of, np.where(active_dep, target, 0))
        minus = np.where(active_dep, k_of, 0)
        for c in range(1, d + 1):
            counts[:, c - 1] += plus == c
            counts[:, c - 1] -= minus == c
    return counts.sum(axis=1)


def feedback_pair() -> NetworkSpec:
    """Two single-class stations; class 1 feeds back to itself, both exit."""
    fcfs = StationProtocol(QueuePolicy.fcfs(), ServiceAllocation.head_of_queue())
    spec = NetworkSpec(
        class_count=2,
        stations=((1,), (2,)),
        theta=(1.0, 0.5),
        beta=(3.0, 2.0),
        routing=((0.3, 0.4), (0.2, 0.0)),
        protocols=(fcfs, fcfs),
    )
    validate(spec)
    return spec


SPECS = {
    "mm1": builtin_fixture("mm1"),
    "tandem2": builtin_fixture("tandem2"),
    "feedback": feedback_pair(),
}
ONE_STEP_REPS = sampling._BLOCK_UNIFORMS // 2 + 1  # a block holds a single step
SHAPES = [
    (0, 128),  # no steps, no draws
    (1, 1),
    (150, 128),  # 64 steps per block: two full blocks and a partial one
    (7, 3000),
    (3, ONE_STEP_REPS),
]


def _assert_same_as_reference(spec, xi0, n, reps, seed):
    rng_ref, rng_new = master_rng(seed), master_rng(seed)
    expected = reference_terminal_norms(spec, xi0, n, reps, rng_ref)
    got = batch_terminal_norms(spec, xi0, n, reps, rng_new)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    assert rng_new.random() == rng_ref.random()


@pytest.mark.parametrize("n,reps", SHAPES)
@pytest.mark.parametrize("name", sorted(SPECS))
def test_block_stepper_matches_reference_from_empty(name, n, reps):
    spec = SPECS[name]
    _assert_same_as_reference(spec, tuple(() for _ in spec.stations), n, reps, seed=11)


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("seed", [1, 7])
def test_block_stepper_matches_reference_from_loaded_state(name, seed):
    spec = SPECS[name]
    xi0 = tuple((k,) * (2 + k) for (k,) in spec.stations)
    _assert_same_as_reference(spec, xi0, 200, 64, seed)


def test_block_stepper_rejects_multi_class_stations():
    spec = builtin_fixture("lk-prop")
    with pytest.raises(ValueError):
        batch_terminal_norms(spec, tuple(() for _ in spec.stations), 5, 8, master_rng(1))
