"""The block batch stepper against the per-step reference loop and the exact law.

``reference_terminal_norms`` is the batch stepper as it was before steps were
run in blocks: two ``rng.random(reps)`` draws per step and the count vector
updated from gather tables. On single-class networks the block stepper must
return the same norms and leave the generator in the same state, bit for bit,
whether a block runs the step loop or, on networks without a routing cycle,
the Lindley scan. Their norms and the generator's next draw are also pinned
by digest (``PINNED_SINGLE_CLASS``), and 40 seeded random single-class
networks (``random_batch_spec`` in ``conftest.py``) are checked on both paths.
On networks with multi-class order-insensitive stations it picks the served
class step by step; there its terminal law is checked against the exact
engine. At multi-class FCFS head-of-queue stations it serves the head of a
ring of class ids: ``replay_terminal_norms`` replays the same draws one
replication at a time on tuple states, and the norms must match it bit for
bit, on the fcfs-reentrant line and on seeded random networks of FCFS
stations, and the rings' capacity must follow the longest queue. On
multi-class networks the norms and the generator's next draw are also pinned
by digest (``PINNED_BATCH``, and ``PINNED_RANDOM`` over seeded random
networks).
"""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest

from mcqnet import sampling
from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import QueuePolicy
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

from conftest import HQ, LCFS_LINE, SBP_HQ_LINE, STATION_KINDS, random_batch_spec, run_optimized


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


def single_class_network(theta, beta, routing) -> NetworkSpec:
    """One single-class FCFS station per class."""
    fcfs = StationProtocol(QueuePolicy.fcfs(), HQ)
    d = len(theta)
    spec = NetworkSpec(
        class_count=d,
        stations=tuple((k,) for k in range(1, d + 1)),
        theta=theta,
        beta=beta,
        routing=routing,
        protocols=(fcfs,) * d,
    )
    validate(spec)
    return spec


def feedback_pair() -> NetworkSpec:
    """Two single-class stations; class 1 feeds back to itself, both exit."""
    return single_class_network((1.0, 0.5), (3.0, 2.0), ((0.3, 0.4), (0.2, 0.0)))


SPECS = {
    "mm1": builtin_fixture("mm1"),
    "tandem2": builtin_fixture("tandem2"),
    "feedback": feedback_pair(),
    # the rest have no routing cycle, like mm1 and tandem2: the Lindley scan
    # solves them. 1 -> 1, 2 or 3, arrivals at 1 and 2:
    "branching": single_class_network(
        (1.0, 0.3, 0.0), (3.0, 1.6, 1.2), ((0.2, 0.35, 0.25), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    ),
    # 1 -> 2, 1 -> 3, 2 -> 3
    "diamond": single_class_network(
        (1.0, 0.0, 0.2), (2.5, 1.5, 2.0), ((0.0, 0.5, 0.4), (0.0, 0.0, 0.7), (0.0, 0.0, 0.0))
    ),
    # the line 4 -> 3 -> 2 -> 1, against class order, with exits and arrivals along it
    "mid-exits": single_class_network(
        (0.2, 0.0, 0.3, 0.8),
        (0.9, 1.0, 1.2, 1.5),
        ((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0), (0.0, 0.7, 0.0, 0.0), (0.0, 0.0, 0.6, 0.0)),
    ),
}
SCANNED = sorted(set(SPECS) - {"feedback"})
ONE_STEP_REPS = sampling._BLOCK_UNIFORMS // 2 + 1  # a block holds a single step
SHAPES = [
    (0, 128),  # no steps, no draws
    (1, 1),
    (150, 128),  # 64 steps per block: two full blocks and a partial one
    (7, 3000),
    (3, ONE_STEP_REPS),
]


def loaded_start(spec):
    return tuple((k,) * (2 + k) for (k,) in spec.stations)


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
    _assert_same_as_reference(spec, loaded_start(spec), 200, 64, seed)


@pytest.fixture
def scanned(monkeypatch):
    """The step count of every block the Lindley scan solves."""
    blocks = []
    scan = sampling._BatchKernel.scan

    def spy(self, flat, row, src, dst):
        blocks.append(len(src))
        scan(self, flat, row, src, dst)

    monkeypatch.setattr(sampling._BatchKernel, "scan", spy)
    return blocks


def test_scan_orders_follow_the_routing():
    orders = {name: sampling._BatchKernel(SPECS[name]).order for name in SCANNED}
    assert orders == {"branching": [1, 2, 3], "diamond": [1, 2, 3], "mid-exits": [4, 3, 2, 1],
                      "mm1": [1], "tandem2": [1, 2]}
    # 2 -> 1 -> 2 is a cycle; 1 -> 1 alone would not be
    assert sampling._BatchKernel(SPECS["feedback"]).order is None
    for name in ("lk-prop", "fcfs-reentrant"):
        assert sampling._BatchKernel(builtin_fixture(name)).order is None


@pytest.mark.parametrize("start", ["empty", "loaded"])
@pytest.mark.parametrize("n,reps", SHAPES)
@pytest.mark.parametrize("name", SCANNED)
def test_scan_of_every_block_matches_reference(name, n, reps, start, scanned, monkeypatch):
    # the tests above scan only blocks of _SCAN_MIN_STEPS steps per class or more
    monkeypatch.setattr(sampling, "_SCAN_MIN_STEPS", 0)
    spec = SPECS[name]
    xi0 = loaded_start(spec) if start == "loaded" else empty_state(spec)
    _assert_same_as_reference(spec, xi0, n, reps, seed=n + reps)
    assert bool(scanned) == (n > 0)


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("name", ["tandem2", "branching"])
def test_blocks_are_scanned_from_the_threshold_on(name, offset, scanned):
    # two full blocks and a partial one of 3 steps, which the loop runs
    spec = SPECS[name]
    steps = sampling._SCAN_MIN_STEPS * spec.class_count + offset
    span = sampling._BLOCK_UNIFORMS // 2
    reps = span // steps
    assert max(1, span // reps) == steps
    _assert_same_as_reference(spec, loaded_start(spec), 2 * steps + 3, reps, seed=steps)
    assert scanned == ([steps, steps] if offset >= 0 else [])


def test_scan_matches_reference_on_random_single_class_specs(scanned, monkeypatch):
    rng = np.random.default_rng(20261020)
    default = sampling._SCAN_MIN_STEPS
    acyclic = 0
    for case in range(40):
        spec = random_batch_spec(rng, single_class=True)
        ordered = sampling._BatchKernel(spec).order is not None
        acyclic += ordered
        loaded = tuple((k,) * int(rng.integers(0, 6)) for (k,) in spec.stations)
        for xi0 in (empty_state(spec), loaded):
            # 64-step blocks at the default threshold, then every block of
            # 8 steps and the last of one
            monkeypatch.setattr(sampling, "_SCAN_MIN_STEPS", default)
            _assert_same_as_reference(spec, xi0, 150, 128, seed=case)
            monkeypatch.setattr(sampling, "_SCAN_MIN_STEPS", 0)
            _assert_same_as_reference(spec, xi0, 9, 1000, seed=case)
        assert bool(scanned) == ordered
        scanned.clear()
    # both kinds are covered: 31 acyclic, 9 cyclic
    assert acyclic >= 10 and 40 - acyclic >= 5


def _stream_digest(spec, xi0, shapes) -> str:
    h = hashlib.sha256()
    for n, reps in shapes:
        rng = master_rng(n)
        norms = batch_terminal_norms(spec, xi0, n, reps, rng)
        h.update(norms.astype("<i8").tobytes())
        h.update(struct.pack("<d", rng.random()))
    return h.hexdigest()


# sha256 over the terminal norms (little-endian int64) and the generator's
# next double of ``batch_terminal_norms`` from ``loaded_start``,
# master_rng(n), at every shape of SINGLE_CLASS_SHAPES in turn: 64-step
# blocks, a single block (of one replication at (40, 1)), 2 steps per block,
# and 1 step per block in two groups.
SINGLE_CLASS_SHAPES = [(800, 128), (150, 50), (40, 1), (6, 3000), (4, 9000)]
PINNED_SINGLE_CLASS = {
    "mm1": (SPECS["mm1"], "9e9d29809f761a6b959c7f8edf5fdbcee1519b94b09efabba210bddce6706c3d"),
    "tandem2": (SPECS["tandem2"], "e2db38d22d8339ccdab805f24dd9338f5fa8f55895d2de0aab944b62316c4449"),
    "feedback": (SPECS["feedback"], "c1001a63fafd1c9415c11cd23eaf5240a00c1c633e2b1b2fd575f1fd78615c6a"),
    "branching": (SPECS["branching"], "fc08a34427999c9d83f892f239a100dce5c7b1ddd9859ab8ff0602bbb16e89ba"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SINGLE_CLASS))
def test_batch_streams_on_single_class_networks_are_pinned(name):
    spec, digest = PINNED_SINGLE_CLASS[name]
    assert _stream_digest(spec, loaded_start(spec), SINGLE_CLASS_SHAPES) == digest


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


def test_scalar_sampler_rejects_a_start_with_too_few_stations():
    # the last replication's buffers at the second station are not kept
    sampler = PathSampler(FCFS_LINE)
    sampler.run_terminal_norm(((), (2, 3, 2, 3)), 50, master_rng(1))
    with pytest.raises(ValueError, match="one configuration per station"):
        sampler.run_terminal_norm(((1,),), 0, master_rng(1))
    fresh = PathSampler(FCFS_LINE).run_terminal_norm(((1,), ()), 400, master_rng(2))
    assert sampler.run_terminal_norm(((1,), ()), 400, master_rng(2)) == fresh


def test_scalar_sampler_rejects_a_class_at_the_wrong_station():
    sampler = PathSampler(FCFS_LINE)
    with pytest.raises(ValueError, match="class 2 does not belong to station 1"):
        sampler.run_terminal_norm(((2,), ()), 5, master_rng(1))
    assert sampler.run_terminal_norm([[1], []], 0, master_rng(1)) == 1


def test_scalar_sampler_checks_a_repeated_start_once(monkeypatch):
    calls = []
    check = sampling.check_state
    monkeypatch.setattr(sampling, "check_state", lambda spec, xi: calls.append(xi) or check(spec, xi))
    sampler = PathSampler(FCFS_LINE)
    for seed in range(5):
        sampler.run_terminal_norm(((1,), (2,)), 6, master_rng(seed))
    sampler.run_terminal_norm(((), ()), 6, master_rng(1))
    sampler.run_norm_checkpoints(((), ()), [3], master_rng(1))
    assert calls == [((1,), (2,)), ((), ())]


def test_batch_stepper_rejects_a_start_with_too_many_stations():
    # a third station's jobs would be counted as jobs of lk-prop's classes
    with pytest.raises(ValueError, match="one configuration per station"):
        batch_terminal_norms(builtin_fixture("lk-prop"), ((1,), (), (1, 1)), 3, 8, master_rng(1))


def test_batch_stepper_rejects_a_start_with_too_few_stations():
    with pytest.raises(ValueError, match="one configuration per station"):
        batch_terminal_norms(FCFS_LINE, ((1,),), 3, 8, master_rng(1))


def test_batch_stepper_rejects_a_class_at_the_wrong_station():
    with pytest.raises(ValueError, match="class 2 does not belong to station 1"):
        batch_terminal_norms(builtin_fixture("lk-prop"), ((2,), ()), 3, 8, master_rng(1))
    got = batch_terminal_norms(FCFS_LINE, [[1], [2, 3]], 4, 8, master_rng(1))
    expected = batch_terminal_norms(FCFS_LINE, ((1,), (2, 3)), 4, 8, master_rng(1))
    np.testing.assert_array_equal(got, expected)


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


def test_ring_stepper_matches_replay_on_random_fcfs_networks():
    # every station FCFS head-of-queue, with branching routing: a row has a
    # threshold per route below its class's share, and an event's keys cut v
    # at the thresholds of all its slots
    rng = np.random.default_rng(20261021)
    rings = merged = 0
    for case in range(10):
        spec = random_batch_spec(rng, kinds=("hq-fcfs",))
        kernel = sampling._BatchKernel(spec)
        rings += len(kernel.ring_stations)
        merged += int(((kernel.cuts < 1.0).sum(axis=1) >= 3).any())
        xi0 = random_start(rng, spec)
        # several blocks, then one step per block in two groups
        for n, reps in [(150, 40), (5, 5000)]:
            _assert_same_as_replay(spec, xi0, n, reps, seed=case)
    assert rings >= 6 and merged >= 3, (rings, merged)


def test_ring_capacity_follows_the_longest_queue(monkeypatch):
    # at half the line's arrival rate the queues stay short while heads and
    # tails travel far past cap: the rings re-lay again and again, and cap
    # stays within the power of two at or above twice the longest queue of
    # the run plus a block's steps
    monkeypatch.setattr(sampling, "_BLOCK_UNIFORMS", 64)  # 2 steps per block of 8 replications
    calls = []
    reserve = sampling._FCFSRings.reserve

    def spy(self, steps):
        real = np.arange(len(self.start)) % (self.stations + 1) < self.stations
        longest = int((self.tpos - self.hpos)[real].max())
        tails = (self.tpos - self.start)[real]
        reserve(self, steps)
        relaid = bool(((self.tpos - self.start)[real] < tails).any())
        calls.append((longest + steps, self.cap, relaid))

    monkeypatch.setattr(sampling._FCFSRings, "reserve", spy)
    _assert_same_as_replay(FCFS_LINE.scale_theta(0.5), FCFS_LOADED, 5000, 8, seed=3)
    need = 0
    for step_need, cap, _ in calls:
        need = max(need, step_need)
        assert cap <= 1 << (2 * need - 1).bit_length(), (cap, need)
    relays = sum(relaid for _, _, relaid in calls)
    # 28 re-lays with cap at most 32: the tails travel many times cap
    assert len(calls) == 2500 and relays >= 20 and calls[-1][1] <= 32, (relays, calls[-1])


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


def mixed_line() -> NetworkSpec:
    """A multi-class FCFS head-of-queue station (classes 1, 3, 5; class 5 can
    rejoin it as class 1), a multi-class proportional station (2, 4) and a
    single-class station (6) that feeds back to the first."""
    spec = NetworkSpec(
        class_count=6,
        stations=((1, 3, 5), (2, 4), (6,)),
        theta=(0.5, 0.0, 0.0, 0.0, 0.0, 0.2),
        beta=(2.0, 3.0, 1.5, 2.5, 1.8, 1.2),
        routing=(
            (0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0, 0.6, 0.3),
            (0.2, 0.0, 0.0, 0.0, 0.0, 0.0),
            (0.5, 0.0, 0.0, 0.0, 0.0, 0.0),
        ),
        protocols=(
            StationProtocol(QueuePolicy.fcfs(), HQ),
            StationProtocol(QueuePolicy.fcfs(), ServiceAllocation("proportional")),
            StationProtocol(QueuePolicy.fcfs(), HQ),
        ),
    )
    validate(spec)
    return spec


# sha256 over the terminal norms (little-endian int64) and the generator's
# next double of ``batch_terminal_norms`` from a loaded start, master_rng(n),
# at every shape of PINNED_SHAPES in turn. A block holds 4096 (step,
# replication) pairs with two slots and 2730 with three, so the shapes cover
# several blocks, one replication, one step per block and several groups.
PINNED_SHAPES = [(150, 50), (40, 1), (6, 3000), (4, 9000)]
PINNED_BATCH = {
    "lk-prop": (LINES["lk-prop"], LOADED,
                "9dc6af5760ffbb9e1303a6747881964114485c2cd05e41d19550ebfb034d5979"),
    "lk-sbp": (LINES["lk-sbp"], LOADED,
               "cd2af3729c8e09df6702080c11874b385c6be0f254f9b6f65e0b6d5e53eebf2a"),
    "lk-egal": (LINES["lk-egal"], LOADED,
                "35943ab3f29d76ba40b1d89692a3f4448367e2b04a16233ec4341eb1b3c07571"),
    "mixed": (mixed_line(), ((3, 1, 5, 1), (4, 2, 2), (6,)),
              "2d242d70e1a5e036183b93221a6c6bd9d6c08c44c300ec012acffea4e922e79b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_BATCH))
def test_batch_streams_on_multi_class_stations_are_pinned(name):
    spec, xi0, digest = PINNED_BATCH[name]
    assert _stream_digest(spec, xi0, PINNED_SHAPES) == digest


def random_start(rng, spec):
    """0 to 4 jobs of each class, in random order at each station."""
    return tuple(
        tuple(int(k) for k in rng.permutation(
            [k for k in classes for _ in range(int(rng.integers(0, 5)))]
        ))
        for classes in spec.stations
    )


# digests as in PINNED_BATCH, over seeded random networks (``random_batch_spec``,
# multi-class and single-class in turn) from random loaded starts: rows with
# several routing thresholds, and events whose slots split v at different ones
PINNED_RANDOM = [
    "62d954e9db400c0a24bc3c8512957ed48ab16465a56ec0aefc79944f8694257d",
    "f4190e44c997aa996108e17e2155139f4d8a6b0d4bdf70b24daa5d0f68b6b673",
    "3e2f1e710ad090faebe202952addd9ff5f252bd7b9c56c28cd1c21b73f2a4c23",
    "cb7fc3d51935e2e6873c875d9a512ff23eac897bbbdd87c6a90c8501c7383a65",
    "3d6468df39318fc01be745e1cb757bc6fdc8464ff5d6d2e0f0050c7295d9454b",
    "51dd422b2c8d5082b75c93c19117654ce4f75da8e6e7c0746221e8562beba394",
    "f8a3ac9b9161fce77eabd77ce8fea309a1daa4d73550e8a5f4c0756a4c6a0277",
    "20255f0809e006efb710c6ae0559a9a955f4f143477a960ae429cfe49013a428",
]


def test_batch_streams_on_random_networks_are_pinned():
    rng = np.random.default_rng(20261021)
    digests = []
    for case in range(8):
        spec = random_batch_spec(rng, single_class=bool(case % 2))
        digests.append(_stream_digest(spec, random_start(rng, spec), PINNED_SHAPES))
    assert digests == PINNED_RANDOM


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
        xi0 = random_start(rng, spec)
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
