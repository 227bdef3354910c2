"""The block batch stepper against the per-step reference loop and the exact law.

``reference_terminal_norms`` is the batch stepper as it was before steps were
run in blocks: two ``rng.random(reps)`` draws per step and the count vector
updated from gather tables. On single-class networks the block stepper must
return the same norms and leave the generator in the same state, bit for bit.
On networks with multi-class order-insensitive stations it picks the served
class step by step; there its terminal law is checked against the exact
engine. At multi-class FCFS head-of-queue stations it serves the head of a
ring of class ids: ``replay_terminal_norms`` replays the same draws one
replication at a time on tuple states, and the norms must match it bit for
bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from mcqnet import sampling
from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import PriorityRanking, QueuePolicy
from mcqnet.exact import ExactEngine
from mcqnet.network import FIXTURE_NAMES, NetworkSpec, builtin_fixture, validate
from mcqnet.qprocess import (
    TransitionLabel,
    apply_transition,
    empty_state,
    state_composition,
    state_norm,
    transition_table,
    uniformization_rate,
)
from mcqnet.rng import master_rng
from mcqnet.sampling import PathSampler, batch_terminal_norms
from mcqnet.stability import phi_estimate

from conftest import HQ, LCFS_LINE, SBP_HQ_LINE, run_optimized


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
        cum += max(spec.beta[k - 1] for k in spec.stations[i]) / lam
        event_cum.append(cum)
        event_cls.append(spec.stations[i][0])
        event_dep.append(True)
    event_cum_arr = np.asarray(event_cum)
    event_cls_arr = np.asarray(event_cls)
    event_dep_arr = np.asarray(event_dep)

    # cumulative routing law of each class over targets 1..d, then exit (0)
    routes = {}
    for k in range(1, d + 1):
        probs = [*enumerate(spec.routing[k - 1], start=1), (0, spec.exit_probability(k))]
        cum = 0.0
        routes[k] = []
        for l, p in probs:
            if p > 0:
                cum += p
                routes[k].append((cum, l))
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


FCFS_LINE = builtin_fixture("fcfs-reentrant")


def test_block_stepper_rejects_multi_class_stations():
    # LCFS and SBP insert inside a multi-class head-of-queue buffer, which a
    # ring of class ids does not step
    for spec in (LCFS_LINE, SBP_HQ_LINE):
        with pytest.raises(ValueError):
            batch_terminal_norms(spec, tuple(() for _ in spec.stations), 5, 8, master_rng(1))


def test_batch_stepper_rejects_no_replications():
    spec = SPECS["tandem2"]
    with pytest.raises(ValueError, match="reps"):
        batch_terminal_norms(spec, empty_state(spec), 5, 0, master_rng(1))


def test_batch_stepper_rejects_negative_steps():
    spec = SPECS["tandem2"]
    with pytest.raises(ValueError, match="steps"):
        batch_terminal_norms(spec, ((1,), (2,)), -1, 8, master_rng(1))


def test_scalar_sampler_rejects_negative_steps():
    spec = builtin_fixture("lk-sbp")
    with pytest.raises(ValueError, match="steps"):
        PathSampler(spec).run_terminal_norm(((1,), (3,)), -1, master_rng(1))


def test_norm_checkpoints_reject_a_negative_checkpoint():
    with pytest.raises(ValueError, match="checkpoints"):
        PathSampler(builtin_fixture("mm1")).run_norm_checkpoints(((),), [-5, 3], master_rng(1))


def test_norm_checkpoints_come_back_in_the_given_order():
    sampler = PathSampler(builtin_fixture("mm1"))
    ordered = sampler.run_norm_checkpoints(((),), [0, 3], master_rng(1))
    assert ordered[0] == 0
    assert sampler.run_norm_checkpoints(((),), [3, 0], master_rng(1)) == ordered[::-1]


# ---------------------------------------------------------------------------
# Multi-class FCFS head-of-queue stations against a per-replication replay

def replay_terminal_norms(spec, xi0, n, reps, rng):
    """Terminal norms from the batch stepper's draws, one replication at a time.

    One ``rng.random((n, 2, reps))`` call yields the doubles of every block.
    A step picks its event from u; a departure event serves the head class k
    of its station (idle when the station is empty or at v >= k's share of
    the event) and routes it by v, and the state moves by ``apply_transition``.
    """
    table = transition_table(spec)
    draws = rng.random((n, 2, reps))
    norms = []
    for rep in range(reps):
        xi = xi0
        for u, v in draws[:, :, rep]:
            kind, idx = table.draw(u)
            if kind == "A":
                xi = apply_transition(spec, xi, TransitionLabel(0, idx))
                continue
            if not xi[idx]:
                continue
            k = xi[idx][0]
            active, routes = table.branch[k]
            if v >= active:
                continue
            for cum, l in routes:
                if v < cum:
                    break
            xi = apply_transition(spec, xi, TransitionLabel(k, l))
        norms.append(state_norm(xi))
    return np.asarray(norms)


def _assert_same_as_replay(spec, xi0, n, reps, seed):
    rng_ref, rng_new = master_rng(seed), master_rng(seed)
    expected = replay_terminal_norms(spec, xi0, n, reps, rng_ref)
    got = batch_terminal_norms(spec, xi0, n, reps, rng_new)
    np.testing.assert_array_equal(got, expected)
    assert rng_new.random() == rng_ref.random()


FCFS_LOADED = ((4, 1, 1, 4), (3, 2, 3))


@pytest.mark.parametrize(
    "xi0,n,reps",
    [
        (((), ()), 150, 128),  # 32 steps per block: several blocks and a partial one
        (((), ()), 4, ONE_STEP_REPS),  # one step per block, three groups
        (FCFS_LOADED, 0, 16),  # no steps, no draws
        (FCFS_LOADED, 50, 1),
        (FCFS_LOADED, 120, 64),
        (FCFS_LOADED, 7, 3000),
    ],
    ids=["empty", "empty-groups", "loaded-0", "loaded-1", "loaded", "loaded-wide"],
)
def test_ring_stepper_matches_replay(xi0, n, reps):
    _assert_same_as_replay(FCFS_LINE, xi0, n, reps, seed=n)


def test_ring_stepper_matches_replay_through_capacity_doublings(monkeypatch):
    # theta x5 is far past the line's stability region: queues grow with n,
    # and two steps per block let the capacity follow them
    monkeypatch.setattr(sampling, "_BLOCK_UNIFORMS", 400)
    caps = []
    reserve = sampling._FCFSRings.reserve

    def spy(self, steps):
        reserve(self, steps)
        caps.append(self.cap)

    monkeypatch.setattr(sampling._FCFSRings, "reserve", spy)
    _assert_same_as_replay(FCFS_LINE.scale_theta(5.0), FCFS_LOADED, 400, 48, seed=9)
    assert len(set(caps)) >= 4, sorted(set(caps))


def test_ring_capacity_check_survives_python_O():
    out = run_optimized(
        "from mcqnet import sampling\n"
        "from mcqnet.network import builtin_fixture\n"
        "from mcqnet.rng import master_rng\n"
        "sampling._FCFSRings.reserve = lambda self, steps: None\n"
        "spec = builtin_fixture('fcfs-reentrant')\n"
        "try:\n"
        "    sampling.batch_terminal_norms(spec, ((4, 1), (2,)), 40, 8, master_rng(1))\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    assert "raised FCFS ring capacity" in out


# ---------------------------------------------------------------------------
# Multi-class order-insensitive stations against the exact engine

SIGMAS = 4.0
ALPHAS = (0.3, 1.5)


def _assert_matches_exact(spec, xi0, n, reps, seed, reduced=True):
    """E[exp(-alpha * norm at step n)] of the batch stepper within SIGMAS
    standard errors of the exact engine, for each alpha in ALPHAS."""
    norms = batch_terminal_norms(spec, xi0, n, reps, master_rng(seed))
    law = ExactEngine(spec, reduced=reduced).distribution(xi0, n)
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
         "lk-egal": lk_egalitarian(), "fcfs-reentrant": FCFS_LINE}
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


@pytest.mark.parametrize(
    "scale,n,xi0",
    [(1.0, 12, ((), ())), (3.0, 12, ((), ())), (1.0, 8, FCFS_LOADED), (3.0, 8, FCFS_LOADED)],
    ids=lambda x: "loaded" if x == FCFS_LOADED else "empty" if x == ((), ()) else None,
)
def test_batch_law_matches_exact_on_fcfs_line(scale, n, xi0):
    # no lumping holds at a multi-class FCFS station: the unreduced law
    _assert_matches_exact(FCFS_LINE.scale_theta(scale), xi0, n, 40_000, seed=n, reduced=False)


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


STATION_KINDS = ("hq-fcfs", "proportional", "preferential", "egalitarian")


def random_batch_spec(rng) -> NetworkSpec:
    """A network of at most 3 stations and 4 classes with transient random
    routing, whose stations are FCFS head-of-queue or order-insensitive
    (``STATION_KINDS``): every network the batch stepper runs, single-class
    stations included."""
    d = int(rng.integers(1, 5))
    station_count = int(rng.integers(1, min(3, d) + 1))
    order = [int(k) for k in rng.permutation(np.arange(1, d + 1))]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=station_count - 1, replace=False))
    stations = tuple(tuple(sorted(int(k) for k in part)) for part in np.split(np.asarray(order), cuts))
    protocols = []
    for classes in stations:
        kind = str(rng.choice(STATION_KINDS))
        if kind == "hq-fcfs":
            allocation = HQ
        elif kind == "preferential":
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


def _kind(protocol) -> str:
    allocation = protocol.allocation
    return allocation.kind if allocation.order_insensitive else "hq-" + protocol.policy.kind


def test_batch_law_matches_exact_on_random_order_insensitive_specs():
    # order-insensitive, FCFS head-of-queue and single-class stations mixed,
    # against the unreduced engine from starts in random order
    rng = np.random.default_rng(20261018)
    kinds = set()
    for case in range(14):
        spec = random_batch_spec(rng)
        kinds |= {_kind(p) for p, c in zip(spec.protocols, spec.stations) if len(c) > 1}
        xi0 = tuple(
            tuple(int(k) for k in rng.permutation(
                [k for k in classes for _ in range(int(rng.integers(0, 5)))]
            ))
            for classes in spec.stations
        )
        for start in (empty_state(spec), xi0):
            _assert_matches_exact(spec, start, 7, 20_000, seed=case, reduced=False)
    # the generated cases cover every multi-class rule
    assert kinds == set(STATION_KINDS)


@pytest.mark.parametrize("name", ["lk-prop", "lk-sbp", "fcfs-reentrant"])
def test_phi_estimate_on_lk_lines_runs_without_the_scalar_sampler(name, monkeypatch):
    def refuse(self, spec):
        raise AssertionError("PathSampler built")

    monkeypatch.setattr(PathSampler, "__init__", refuse)
    spec = builtin_fixture(name)
    est = phi_estimate(spec, spec.theta, 50, 1.0, 64, master_rng(3))
    assert 0.0 < est.mean <= 1.0 and est.reps == 64


# ---------------------------------------------------------------------------
# The compiled transition table against laws read off the spec


def _check_table(spec):
    table = transition_table(spec)
    lam = uniformization_rate(spec)
    assert table.rate == lam
    classes = range(1, spec.class_count + 1)
    tops = [max(spec.beta[k - 1] for k in at) for at in spec.stations]
    expected = [(("A", k), spec.theta[k - 1] / lam) for k in classes if spec.theta[k - 1] > 0]
    expected += [(("D", i), top / lam) for i, top in enumerate(tops)]
    assert [event for _, event in table.events] == [event for event, _ in expected]
    prev = 0.0
    for (cum, _), (_, p) in zip(table.events, expected):
        assert cum - prev == pytest.approx(p, rel=1e-12, abs=1e-15)
        prev = cum
    assert prev == pytest.approx(1.0, abs=1e-12)
    # each event just below its cumulative value, the next one at it, and the
    # last one at every u past the last cumulative value
    events = [event for _, event in table.events]
    for j, (cum, event) in enumerate(table.events):
        assert table.draw(math.nextafter(cum, 0.0)) == event
        assert table.draw(cum) == events[min(j + 1, len(events) - 1)]
    for u in (prev, math.nextafter(prev, 2.0), 1.0):
        assert table.draw(u) == events[-1]
    for k in classes:
        law = [(l, r) for l, r in enumerate(spec.routing[k - 1], start=1) if r > 0]
        if spec.exit_probability(k) > 0:
            law.append((0, spec.exit_probability(k)))
        routes = table.routes[k]
        assert [l for _, l in routes] == [l for l, _ in law]
        assert np.diff([0.0] + [c for c, _ in routes]) == pytest.approx([r for _, r in law])
        scale, scaled = table.branch[k]
        assert scale == spec.beta[k - 1] / tops[spec.station_of(k)]
        assert scaled == tuple((c * scale, l) for c, l in routes)
    for i, (at, protocol) in enumerate(zip(spec.stations, spec.protocols)):
        ranked = table.ranked[i]
        if protocol.allocation.kind != "preferential":
            assert ranked is None
            continue
        ranking = protocol.allocation.ranking
        assert sorted(ranked) == sorted(at)
        assert [ranking.caste_index(k) for k in ranked] == list(range(len(at)))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_transition_table_on_fixtures(name):
    _check_table(builtin_fixture(name))


def test_transition_table_on_random_specs():
    rng = np.random.default_rng(20261018)
    for _ in range(14):
        _check_table(random_batch_spec(rng))
