"""The exact engine against a dict BFS loop on the reference moves.

``DictBFS`` is that loop: a kernel cache of (target, probability) tuples per
state, and mass pushed through it one kernel entry at a time. Chain moves come
from ``reference_moves`` (``apply_transition`` plus a full canonicalization);
pair-chain moves from ``reference_pair_moves`` (each copy moved by
``CouplingKernel._apply``, ``apply_transition`` plus a full canonicalization,
the lower one only when the served heads agree).
``reachable_states`` is checked against ``headroom_closure``.
"""

import dataclasses
import math

import numpy as np
import pytest

from mcqnet.allocation import StationProtocol, allocate_fractions
from mcqnet.configurations import PriorityRanking, QueuePolicy
from mcqnet.coupling import CouplingKernel, PairEngine
from mcqnet.errors import BudgetExceededError
from mcqnet.exact import ExactEngine, expectation, reachable_states
from mcqnet.network import FIXTURE_NAMES, builtin_fixture, validate
from mcqnet.qprocess import (
    TransitionLabel,
    apply_transition,
    empty_state,
    state_canonicalizer,
    state_composition,
    state_norm,
    transition_table,
)
from conftest import LCFS_LINE, SBP_HQ_LINE, random_batch_spec

# two-job starts that fit each fixture's stations
STARTS = {
    "mm1": ((1, 1),),
    "tandem2": ((1,), (2,)),
    "lk-prop": ((4, 1), (2,)),
    "lk-sbp": ((4, 1), (2,)),
    "fcfs-reentrant": ((4, 1), (2,)),
}
SEED_RANDOM_NETWORKS = 5
PAIR_LAWS = (  # the exact pair-law checks of the couple-verify benchmark
    ("mm1", ((),), ((1,),), 80),
    ("fcfs-reentrant", ((1,), ()), ((1, 4), ()), 16),
    ("lk-sbp", ((1,), ()), ((1, 4), ()), 24),
)


class DictBFS:
    def __init__(self, canonical, moves):
        self.canonical = canonical
        self.moves = moves
        self.kernels = {}

    def kernel(self, xi):
        cached = self.kernels.get(xi)
        if cached is None:
            acc = {}
            total = 0.0
            for target, p in self.moves(xi):
                acc[target] = acc.get(target, 0.0) + p
                total += p
            rest = 1.0 - total
            if rest > 1e-15:
                acc[xi] = acc.get(xi, 0.0) + rest
            cached = self.kernels[xi] = tuple(acc.items())
        return cached

    def laws(self, xi0, n):
        """The laws at steps 0..n."""
        dist = {self.canonical(xi0): 1.0}
        out = [dist]
        for _ in range(n):
            nxt = {}
            for state, mass in dist.items():
                for target, p in self.kernel(state):
                    nxt[target] = nxt.get(target, 0.0) + mass * p
            dist = nxt
            out.append(dist)
        return out


def reference_moves(spec, reduced):
    table = transition_table(spec)
    lam = table.rate
    canon = state_canonicalizer(spec) if reduced else (lambda xi: xi)

    def moves(xi):
        for k, p in table.arrivals:
            yield canon(apply_transition(spec, xi, TransitionLabel(0, k))), p
        for i, q in enumerate(xi):
            if not q:
                continue
            for k, w in allocate_fractions(spec.protocols[i].allocation, q).items():
                if w == 0:
                    continue
                for l, rate_kl in table.serve[k]:
                    target = canon(apply_transition(spec, xi, TransitionLabel(k, l)))
                    yield target, float(w) * rate_kl / lam

    return moves


def reference_pair_moves(spec):
    kt = CouplingKernel(spec)
    table = kt.table
    move = kt._apply

    def moves(pair):
        lower, upper = pair
        for k, p in table.arrivals:
            yield (move(lower, 0, k), move(upper, 0, k)), p
        for i, q_up in enumerate(upper):
            if not q_up:
                continue
            h_up = kt.head(i, q_up)
            mirrored = lower == upper or kt.head(i, lower[i]) == h_up
            for l, rate_kl in table.serve[h_up]:
                low2 = move(lower, h_up, l) if mirrored else lower
                yield (low2, move(upper, h_up, l)), rate_kl / table.rate

    return moves


def separating_phi(spec):
    """A functional that tells states of one norm apart by their composition."""

    def phi(state):
        counts = state_composition(spec, state)
        weight = 1 + sum(c / (k + 2) for k, c in enumerate(counts))
        return math.exp(-0.3 * state_norm(state)) * weight

    return phi


def assert_same_law(engine, got, want):
    assert got.keys() == want.keys()  # the same support, listed in ascending id order
    ids = {state: x for x, state in enumerate(engine.states)}
    listed = [ids[state] for state in got]
    assert listed == sorted(listed)
    for state, p in want.items():
        assert got[state] == pytest.approx(p, abs=1e-14), state


def assert_engine_matches_dict_bfs(spec, reduced, starts, n):
    phi = separating_phi(spec)
    engine = ExactEngine(spec, reduced=reduced)
    reference = DictBFS(engine.canonical, reference_moves(spec, reduced))
    for start in starts:
        laws = reference.laws(start, n)
        assert_same_law(engine, engine.distribution(start, n), laws[n])
        assert_same_law(engine, engine.distribution(start, n // 2), laws[n // 2])
        series = engine.functional_series(start, n, phi)
        want = [sum(p * phi(s) for s, p in law.items()) for law in laws]
        assert series == pytest.approx(want, abs=1e-14)
        assert_norm_functionals_are_bit_identical(engine, start, n)


def assert_norm_functionals_are_bit_identical(engine, start, n):
    """``norm_series`` and ``norm_expectation`` give the very floats of
    ``functional_series`` and ``expectation`` on tuple states."""
    def f(y):
        return math.exp(-0.3 * y)

    def phi(state):
        return f(state_norm(state))

    assert engine.norm_series(start, n, f) == engine.functional_series(start, n, phi)
    support, mass = engine.law_arrays(start, n)
    law = engine.distribution(start, n)
    assert engine.norm_expectation(support, mass, f) == expectation(law, phi)


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_engine_matches_dict_bfs(name, reduced):
    spec = builtin_fixture(name).scale_theta(1.5)
    n = 40 if spec.class_count == 1 else 14
    assert_engine_matches_dict_bfs(spec, reduced, (empty_state(spec), STARTS[name]), n)


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_key_rows_and_norms_match_the_states(name, reduced):
    spec = builtin_fixture(name).scale_theta(1.5)
    engine = ExactEngine(spec, reduced=reduced)
    engine.distribution(STARTS[name], 10)
    engine.norms(np.arange(len(engine.states)))  # the norms stored so far
    engine.distribution(empty_state(spec), 12)  # then more buffers and states
    states = engine.states
    ids = np.arange(len(states))
    buffers = engine.buffers
    assert [tuple(buffers[k] for k in row) for row in engine.key_rows(ids).tolist()] == states
    assert engine.norms(ids).tolist() == [state_norm(state) for state in states]
    assert len(states) > 10


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("spec", [LCFS_LINE, SBP_HQ_LINE], ids=["lcfs", "sbp-hq"])
def test_engine_matches_dict_bfs_on_lines_inserting_inside_the_queue(spec, reduced):
    assert_engine_matches_dict_bfs(spec, reduced, (empty_state(spec), ((1, 4), (3,))), 12)


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_engine_matches_dict_bfs_on_random_networks(reduced):
    # the seed's six networks have one, two and three stations
    rng = np.random.default_rng(SEED_RANDOM_NETWORKS)
    stations = set()
    for _ in range(6):
        spec = random_batch_spec(rng)
        stations.add(spec.station_count)
        one_each = tuple(classes[:1] for classes in spec.stations)
        assert_engine_matches_dict_bfs(spec, reduced, (empty_state(spec), one_each), 10)
    assert stations == {1, 2, 3}


@pytest.mark.parametrize("name,lower,upper,n", PAIR_LAWS, ids=[c[0] for c in PAIR_LAWS])
def test_pair_engine_matches_dict_bfs(name, lower, upper, n):
    spec = builtin_fixture(name)
    engine = PairEngine(spec)
    reference = DictBFS(engine.canonical, reference_pair_moves(spec))
    laws = reference.laws((lower, upper), n)
    assert_same_law(engine, engine.distribution((lower, upper), n), laws[n])
    assert len(laws[n]) > 10


def test_step_adapter_matches_dict_bfs():
    spec = builtin_fixture("lk-sbp")
    engine = ExactEngine(spec, reduced=True)
    laws = DictBFS(engine.canonical, reference_moves(spec, True)).laws(STARTS["lk-sbp"], 6)
    for before, after in zip(laws, laws[1:]):
        assert_same_law(engine, engine.step(before), after)


def test_kernel_mass_above_one_raises():
    engine = ExactEngine(builtin_fixture("tandem2"))
    served = engine._branches
    engine._branches = lambda i, q: [(2 * p, *rest) for p, *rest in served(i, q)]
    with pytest.raises(AssertionError, match="kernel mass exceeds one"):
        engine.distribution(((1,), ()), 2)


def _rows_built(engine):
    return {engine.states[x] for x, m in enumerate(engine._row_len[: len(engine.states)]) if m}


@pytest.mark.parametrize("name", ["fcfs-reentrant", "lk-sbp"])
def test_second_start_builds_only_rows_it_reaches(name):
    spec = builtin_fixture(name)
    engine = ExactEngine(spec)
    reference = DictBFS(engine.canonical, reference_moves(spec, False))
    n = 6
    engine.distribution(empty_state(spec), n)
    before = _rows_built(engine)
    assert len(engine.states) > len(before)  # the last support is interned, not expanded
    start = ((1, 4, 1), ())
    engine.distribution(start, n)
    reached = {s for law in reference.laws(start, n)[:n] for s in law}
    new = _rows_built(engine) - before
    assert new and new <= reached
    assert reached <= _rows_built(engine)


def test_budget_bounds_interned_states():
    spec = builtin_fixture("fcfs-reentrant")
    engine = ExactEngine(spec, budget=200)
    with pytest.raises(BudgetExceededError, match="budget"):
        engine.distribution(empty_state(spec), 30)
    assert len(engine.states) == 200


def test_transient_grid_of_no_times_is_empty():
    engine = ExactEngine(builtin_fixture("mm1"))
    assert engine.transient_grid(((),), [], lambda s: 1.0) == []


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
def test_transient_time_must_be_finite_and_nonnegative(t):
    engine = ExactEngine(builtin_fixture("mm1"))
    with pytest.raises(ValueError, match="time must be finite and nonnegative"):
        engine.transient_grid(((),), [1.0, t], lambda s: 1.0)


def test_distribution_rejects_negative_steps():
    with pytest.raises(ValueError):
        ExactEngine(builtin_fixture("mm1")).distribution(((),), -1)


def test_functional_series_rejects_negative_steps():
    with pytest.raises(ValueError):
        ExactEngine(builtin_fixture("mm1")).functional_series(((),), -1, lambda s: 1.0)


def test_functional_series_checks_mass_drift():
    engine = ExactEngine(builtin_fixture("mm1"))
    engine._push = lambda support, mass: (support, mass / 2)
    with pytest.raises(RuntimeError, match="mass drifted"):
        engine.functional_series(((),), 1, lambda s: 1.0)


# starts that are not states of lk-prop (two stations; classes 1, 4 and 2, 3)
# and the fault each names
MALFORMED = [
    (((2,), ()), "class 2 does not belong to station 1"),
    (((1,), (), ()), "one configuration per station"),
    (((1,),), "one configuration per station"),
    (((7,), ()), "class 7 does not belong to station 1"),
]
ENTRIES = {
    "distribution": lambda e, xi: e.distribution(xi, 1),
    "law_arrays": lambda e, xi: e.law_arrays(xi, 1),
    "norm_series": lambda e, xi: e.norm_series(xi, 1, float),
    "functional_series": lambda e, xi: e.functional_series(xi, 1, state_norm),
    "transient_grid": lambda e, xi: e.transient_grid(xi, [0.5], lambda s: 1.0),
    "step": lambda e, xi: e.step({xi: 1.0}),
    "kernel": lambda e, xi: e.kernel(xi),
}


@pytest.mark.parametrize("reduced", [False, True], ids=["unreduced", "reduced"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_entry_rejects_a_start_that_is_not_a_state(entry, reduced):
    engine = ExactEngine(builtin_fixture("lk-prop"), reduced=reduced)
    for xi, fault in MALFORMED:
        with pytest.raises(ValueError, match=fault):
            ENTRIES[entry](engine, xi)
    # the engine still runs, from a start in list form too
    assert engine.distribution([[1], []], 2) == engine.distribution(((1,), ()), 2)


def test_reduced_kernel_and_step_take_the_canonical_form():
    # lk-prop's first station is order-insensitive: (4, 1) and (1, 4) are one state
    engine = ExactEngine(builtin_fixture("lk-prop"), reduced=True)
    shuffled, canonical = ((4, 1), ()), ((1, 4), ())
    assert engine.canonical(shuffled) == canonical
    row = engine.kernel(shuffled)
    assert row == engine.kernel(canonical)
    assert dict(row)[canonical] == pytest.approx(0.6, abs=1e-14)
    assert shuffled not in dict(row)
    merged = engine.step({shuffled: 0.25, canonical: 0.75})
    assert merged == engine.step({canonical: 1.0})
    assert sum(merged.values()) == pytest.approx(1.0, abs=1e-14)


def headroom_closure(spec, max_norm, reduced, slack_limit=6):
    """The states of norm <= max_norm found by closures capped at max_norm +
    slack, for slack = 0, 1, ..., until two successive answers agree: the
    headroom loop ``reachable_states`` ran before it became one capped closure."""
    engine = ExactEngine(spec, reduced=reduced)
    previous = None
    for slack in range(slack_limit + 1):
        cap = max_norm + slack
        seen = frontier = {engine.canonical(empty_state(spec))}
        while frontier:
            reached = engine.step(dict.fromkeys(frontier, 1.0))
            frontier = {s for s in reached if state_norm(s) <= cap} - seen
            seen = seen | frontier
        current = {s for s in seen if state_norm(s) <= max_norm}
        if current == previous:
            return current
        previous = current
    return previous


def random_line_spec(rng):
    """``random_batch_spec`` with each head-of-queue station made FCFS, LCFS or
    SBP under a random ranking in one to three castes."""
    spec = random_batch_spec(rng)
    protocols = []
    for classes, protocol in zip(spec.stations, spec.protocols):
        policy = protocol.policy
        kind = int(rng.integers(3)) if protocol.allocation.kind == "hq" else 0
        if kind == 1:
            policy = QueuePolicy.lcfs()
        elif kind == 2:
            order = [int(k) for k in rng.permutation(classes)]
            count = int(rng.integers(1, min(3, len(order)) + 1))
            cuts = sorted(int(c) for c in rng.choice(np.arange(1, len(order)), count - 1, replace=False))
            castes = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])]
            policy = QueuePolicy.sbp(PriorityRanking.from_lists(castes))
        protocols.append(StationProtocol(policy, protocol.allocation))
    spec = dataclasses.replace(spec, protocols=tuple(protocols))
    validate(spec)
    return spec


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize(
    "spec",
    [builtin_fixture(name) for name in FIXTURE_NAMES] + [LCFS_LINE, SBP_HQ_LINE],
    ids=list(FIXTURE_NAMES) + ["lcfs", "sbp-hq"],
)
def test_capped_closure_matches_headroom_loop(spec, reduced):
    for max_norm in range(2, 6):
        assert reachable_states(spec, max_norm, reduced=reduced) == headroom_closure(
            spec, max_norm, reduced
        )


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_capped_closure_matches_headroom_loop_on_random_lines(reduced):
    rng = np.random.default_rng(SEED_RANDOM_NETWORKS)
    policies, shared_castes = set(), 0
    for _ in range(40):
        spec = random_line_spec(rng)
        policies |= {p.policy.kind for p in spec.protocols}
        shared_castes += any(
            p.policy.kind == "sbp" and not p.policy.ranking.is_total for p in spec.protocols
        )
        assert reachable_states(spec, 3, reduced=reduced) == headroom_closure(spec, 3, reduced, 3)
    assert policies == {"fcfs", "lcfs", "sbp"} and shared_castes


# -- one engine across theta scales -------------------------------------------


def assert_set_theta_matches_fresh_engines(spec, reduced, scales, n):
    """An engine moved along ``scales`` by ``set_theta`` gives each fresh
    engine's norm series, law support and mass, bit for bit."""
    def f(y):
        return math.exp(-0.3 * y)

    start = empty_state(spec)
    engine = None
    for scale in scales:
        theta = tuple(scale * t for t in spec.theta)
        if engine is None:
            engine = ExactEngine(spec.with_theta(theta), reduced=reduced)
        else:
            assert engine.set_theta(theta)
        fresh = ExactEngine(spec.with_theta(theta), reduced=reduced)
        assert engine.rate == fresh.rate
        assert engine.norm_series(start, n, f) == fresh.norm_series(start, n, f)
        support, mass = engine.law_arrays(start, n)
        want_support, want_mass = fresh.law_arrays(start, n)
        assert support.tolist() == want_support.tolist()
        assert mass.tobytes() == want_mass.tobytes()


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_set_theta_matches_fresh_engines(name, reduced):
    spec = builtin_fixture(name)
    n = 40 if spec.class_count == 1 else 14
    assert_set_theta_matches_fresh_engines(spec, reduced, (1.5, 0.5, 1.0), n)


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
def test_set_theta_matches_fresh_engines_on_random_networks(reduced):
    rng = np.random.default_rng(SEED_RANDOM_NETWORKS)
    for _ in range(6):
        assert_set_theta_matches_fresh_engines(random_batch_spec(rng), reduced, (0.5, 1.25, 0.8), 10)


def _snapshot(engine):
    used = engine._br_used
    return (
        engine.spec, engine.table, engine.rate, list(engine._share), used,
        engine._br_p[:used].tobytes(), engine._br_move[:used].tobytes(),
        engine._n, engine._used, engine._run, engine._run_end,
    )


def test_set_theta_refuses_a_branch_list_of_another_length():
    spec = builtin_fixture("tandem2")  # theta (1, 0): class 2 never arrives
    engine = ExactEngine(spec)
    start = empty_state(spec)
    support, mass = engine.law_arrays(start, 12)
    before = _snapshot(engine)
    assert not engine.set_theta((1.0, 0.5))  # class 2 switches on
    assert not engine.set_theta((0.0, 0.0))  # class 1 switches off
    served = engine._branches
    # a full service leaves a self-loop when it serves half as fast
    engine._branches = lambda i, q: [(p / 2, *rest) for p, *rest in served(i, q)]
    assert not engine.set_theta((2.0, 0.0))
    engine._branches = lambda i, q: [(2 * p, *rest) for p, *rest in served(i, q)]
    with pytest.raises(AssertionError, match="kernel mass exceeds one"):
        engine.set_theta((2.0, 0.0))
    del engine._branches
    assert _snapshot(engine) == before
    again = engine.law_arrays(start, 12)
    assert again[0].tolist() == support.tolist() and again[1].tobytes() == mass.tobytes()


def test_pair_engine_has_no_set_theta():
    engine = PairEngine(builtin_fixture("mm1"))
    with pytest.raises(NotImplementedError):
        engine.set_theta((0.5,))


def _gathered(engine, ids):
    """The entry positions of the rows of ``ids``, gathered row by row."""
    return np.concatenate(
        [np.arange(engine._row_start[x], engine._row_start[x] + engine._row_len[x]) for x in ids]
    )


@pytest.mark.parametrize("name", ["fcfs-reentrant", "lk-sbp"])
def test_slice_read_equals_the_gather_after_a_second_start(name):
    spec = builtin_fixture(name)
    engine = ExactEngine(spec)
    n = 8
    first = engine.law_arrays(empty_state(spec), n)
    run = engine._run
    assert 0 < run == np.count_nonzero(engine._row_len[: engine._n])  # every row built so far
    start = ((1,) * 10, (2,) * 10)  # far from empty: every state it reaches is new
    engine.distribution(start, n)  # builds rows past the run
    assert engine._run == run and engine._used > engine._run_end
    for count in range(1, run + 1):
        ids = np.arange(count)
        lengths, at = engine._rows(ids)
        assert isinstance(at, slice)
        assert np.arange(engine._used)[at].tolist() == _gathered(engine, ids).tolist()
    for support, _ in engine._sweep(start, n + 1):  # the last support's rows are new
        lengths, at = engine._rows(support)
        assert np.arange(engine._used)[at].tolist() == _gathered(engine, support.tolist()).tolist()
    again = engine.law_arrays(empty_state(spec), n)
    assert again[0].tolist() == first[0].tolist() and again[1].tobytes() == first[1].tobytes()
    # from empty again, further: the next rows sit after the second start's
    for support, _ in engine._sweep(empty_state(spec), n + 4):
        lengths, at = engine._rows(support)
        assert np.arange(engine._used)[at].tolist() == _gathered(engine, support.tolist()).tolist()
    for xi in (empty_state(spec), start):
        assert_same_law(engine, engine.distribution(xi, n + 4), ExactEngine(spec).distribution(xi, n + 4))


CLOSED_CHAINS = [
    ("tandem2", ((1, 1, 1, 1), (2, 2, 2, 2))),
    ("lk-sbp", ((1, 4, 1), (2, 3))),
]


@pytest.mark.parametrize("name, start", CLOSED_CHAINS, ids=[name for name, _ in CLOSED_CHAINS])
def test_sweep_reusing_its_plan_matches_fresh_pushes(name, start):
    """With arrivals off the support stops changing; the sweep then pushes
    from its kept plan, and every law and the functional series equal pushes
    of a fresh copy of the support, which never reuse it."""
    spec = builtin_fixture(name)
    spec = spec.with_theta(tuple(0.0 for _ in spec.theta))
    n = 300
    engine = ExactEngine(spec)
    reads = []
    rows = engine._rows
    engine._rows = lambda ids: reads.append(len(ids)) or rows(ids)
    swept = list(engine._sweep(start, n))
    fresh = ExactEngine(spec)
    support, mass = fresh._ids_of([start]), np.ones(1)
    pushed = [(support, mass)]
    for _ in range(n):
        support, mass = fresh._push(support.copy(), mass)
        pushed.append((support, mass))
    assert len(reads) < n // 2  # most steps reused the plan
    for (s, m), (t, p) in zip(swept, pushed):
        assert s.tolist() == t.tolist()
        assert m.tobytes() == p.tobytes()
    phi = lambda state: math.exp(-0.7 * state_norm(state))  # noqa: E731
    states = fresh.states
    want = [sum((m * np.array([phi(states[x]) for x in s.tolist()])).tolist()) for s, m in pushed]
    assert ExactEngine(spec).functional_series(start, n, phi) == want


@pytest.mark.parametrize("name, start", [*CLOSED_CHAINS, ("mm1", ((1, 1),))],
                         ids=[name for name, _ in CLOSED_CHAINS] + ["mm1"])
def test_engine_matches_dict_bfs_on_closed_chains(name, start):
    # the mm1 drain moves a one-state support to another id before it settles
    spec = builtin_fixture(name)
    assert_engine_matches_dict_bfs(spec.with_theta(tuple(0.0 for _ in spec.theta)), False, (start,), 60)


def test_set_theta_drops_the_kept_plan():
    engine = ExactEngine(builtin_fixture("tandem2").with_theta((0.0, 0.0)))
    *_, (support, _) = engine._sweep(((1, 1, 1, 1), (2, 2, 2, 2)), 200)
    assert engine._plan[0] is support  # the drained support maps to itself
    assert engine.set_theta((0.0, 0.0))
    assert engine._plan is None
