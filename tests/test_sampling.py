"""The block batch stepper against the per-step reference loop and the exact law.

``reference_terminal_norms`` is the batch stepper as it was before steps were
run in blocks: two ``rng.random(reps)`` draws per step and the count vector
updated from gather tables. On single-class networks the block stepper must
return the same norms and leave the generator in the same state, bit for bit.
On networks with multi-class order-insensitive stations it picks the served
class step by step; there its terminal law is checked against the reduced
exact engine.
"""

import dataclasses
import math

import numpy as np
import pytest

from mcqnet import sampling
from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import PriorityRanking, QueuePolicy
from mcqnet.exact import ExactEngine
from mcqnet.network import NetworkSpec, builtin_fixture, validate
from mcqnet.qprocess import (
    empty_state,
    routing_choices,
    state_composition,
    state_norm,
    station_top_rate,
    uniformization_rate,
)
from mcqnet.rng import master_rng
from mcqnet.sampling import PathSampler, batch_terminal_norms
from mcqnet.stability import phi_estimate


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
    # multi-class head-of-queue stations do not lump to class counts
    spec = builtin_fixture("fcfs-reentrant")
    with pytest.raises(ValueError):
        batch_terminal_norms(spec, tuple(() for _ in spec.stations), 5, 8, master_rng(1))


# ---------------------------------------------------------------------------
# Multi-class order-insensitive stations against the exact engine

SIGMAS = 4.0
ALPHAS = (0.3, 1.5)


def _assert_matches_exact(spec, xi0, n, reps, seed):
    """E[exp(-alpha * norm at step n)] of the batch stepper within SIGMAS
    standard errors of the reduced exact engine, for each alpha in ALPHAS."""
    norms = batch_terminal_norms(spec, xi0, n, reps, master_rng(seed))
    law = ExactEngine(spec, reduced=True).distribution(xi0, n)
    for alpha in ALPHAS:
        values = np.exp(-alpha * norms)
        se = values.std(ddof=1) / math.sqrt(reps)
        exact = sum(p * math.exp(-alpha * state_norm(s)) for s, p in law.items())
        assert abs(values.mean() - exact) <= SIGMAS * se + 1e-12, (alpha, values.mean(), exact, se)


def lk_egalitarian() -> NetworkSpec:
    """The Lu-Kumar line of lk-prop with egalitarian allocation at both stations."""
    egalitarian = StationProtocol(QueuePolicy.fcfs(), ServiceAllocation.egalitarian())
    return dataclasses.replace(builtin_fixture("lk-prop"), protocols=(egalitarian, egalitarian))


LINES = {"lk-prop": builtin_fixture("lk-prop"), "lk-sbp": builtin_fixture("lk-sbp"),
         "lk-egal": lk_egalitarian()}
LOADED = ((1, 1, 1, 4), (2, 3, 3))


@pytest.mark.parametrize(
    "name,scale,n,xi0",
    [
        ("lk-prop", 1.0, 5, ((), ())),
        ("lk-prop", 3.0, 12, ((), ())),
        ("lk-prop", 1.0, 8, LOADED),
        ("lk-sbp", 1.0, 5, ((), ())),
        ("lk-sbp", 6.0, 12, ((), ())),
        ("lk-sbp", 1.0, 8, LOADED),
        ("lk-egal", 3.0, 12, ((), ())),
        ("lk-egal", 1.0, 8, LOADED),
    ],
    ids=lambda x: "loaded" if x == LOADED else "empty" if x == ((), ()) else None,
)
def test_batch_law_matches_exact_on_lk_lines(name, scale, n, xi0):
    spec = LINES[name].scale_theta(scale)
    _assert_matches_exact(spec, xi0, n, 40_000, seed=n)


@pytest.mark.parametrize("name", sorted(LINES))
@pytest.mark.parametrize("block_uniforms", [4, 200])
def test_block_and_group_sizes_leave_the_stream_unchanged(name, block_uniforms, monkeypatch):
    # 4 uniforms per block: one step of one replication at a time
    spec = LINES[name].scale_theta(3.0)
    rng_ref, rng_new = master_rng(5), master_rng(5)
    expected = batch_terminal_norms(spec, LOADED, 40, 60, rng_ref)
    monkeypatch.setattr(sampling, "_BLOCK_UNIFORMS", block_uniforms)
    got = batch_terminal_norms(spec, LOADED, 40, 60, rng_new)
    np.testing.assert_array_equal(got, expected)
    assert rng_new.random() == rng_ref.random()


def random_count_lumpable_spec(rng) -> NetworkSpec:
    """A network of at most 3 stations and 4 classes whose stations are
    single-class or order-insensitive, with transient random routing."""
    d = int(rng.integers(1, 5))
    station_count = int(rng.integers(1, min(3, d) + 1))
    order = [int(k) for k in rng.permutation(np.arange(1, d + 1))]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=station_count - 1, replace=False))
    stations = tuple(tuple(sorted(part)) for part in np.split(np.asarray(order), cuts))
    protocols = []
    for classes in stations:
        kind = str(rng.choice(["proportional", "preferential", "egalitarian"]))
        if kind == "preferential":
            ranking = PriorityRanking.total(tuple(int(k) for k in rng.permutation(classes)))
            allocation = ServiceAllocation.preferential(ranking)
        else:
            allocation = ServiceAllocation(kind)
        protocols.append(StationProtocol(QueuePolicy.fcfs(), allocation))
    theta = rng.uniform(0.2, 1.5, d) * (rng.random(d) < 0.7)
    theta[int(rng.integers(d))] = rng.uniform(0.2, 1.5)
    routing = rng.random((d, d)) * (rng.random((d, d)) < 0.5)
    sums = routing.sum(axis=1, keepdims=True)
    routing = np.where(sums > 0, routing / np.where(sums > 0, sums, 1.0), 0.0)
    routing *= rng.uniform(0.0, 0.8, (d, 1))  # row sums below one: transient
    spec = NetworkSpec(
        class_count=d,
        stations=stations,
        theta=tuple(float(t) for t in theta),
        beta=tuple(float(b) for b in rng.uniform(0.5, 3.0, d)),
        routing=tuple(tuple(float(x) for x in r) for r in routing),
        protocols=tuple(protocols),
    )
    validate(spec)
    return spec


def test_batch_law_matches_exact_on_random_order_insensitive_specs():
    rng = np.random.default_rng(20261018)
    kinds = set()
    for case in range(14):
        spec = random_count_lumpable_spec(rng)
        kinds |= {
            p.allocation.kind for p, c in zip(spec.protocols, spec.stations) if len(c) > 1
        }
        xi0 = tuple(
            tuple(k for k in classes for _ in range(int(rng.integers(0, 5))))
            for classes in spec.stations
        )
        for start in (empty_state(spec), xi0):
            _assert_matches_exact(spec, start, 7, 20_000, seed=case)
    # the generated cases cover every multi-class rule
    assert kinds == {"proportional", "preferential", "egalitarian"}


@pytest.mark.parametrize("name", ["lk-prop", "lk-sbp"])
def test_phi_estimate_on_lk_lines_runs_without_the_scalar_sampler(name, monkeypatch):
    def refuse(self, spec):
        raise AssertionError("PathSampler built")

    monkeypatch.setattr(PathSampler, "__init__", refuse)
    spec = builtin_fixture(name)
    est = phi_estimate(spec, spec.theta, 50, 1.0, 64, master_rng(3))
    assert 0.0 < est.mean <= 1.0 and est.reps == 64
