"""The array exact engine against the dict BFS loop it replaced.

``DictBFS`` is that loop: a kernel cache of (target, probability) tuples per
state, and mass pushed through it one kernel entry at a time. Chain moves come
from ``reference_moves`` (``apply_transition`` plus a full canonicalization);
pair-chain moves are ``PairEngine._moves``, which are already the reference.
"""

import math

import pytest

from mcqnet.allocation import allocate_fractions
from mcqnet.coupling import PairEngine
from mcqnet.errors import BudgetExceededError
from mcqnet.exact import ExactEngine
from mcqnet.network import FIXTURE_NAMES, builtin_fixture
from mcqnet.qprocess import (
    TransitionLabel,
    apply_transition,
    empty_state,
    state_canonicalizer,
    state_composition,
    state_norm,
    transition_table,
)

# two-job starts that fit each fixture's stations
STARTS = {
    "mm1": ((1, 1),),
    "tandem2": ((1,), (2,)),
    "lk-prop": ((4, 1), (2,)),
    "lk-sbp": ((4, 1), (2,)),
    "fcfs-reentrant": ((4, 1), (2,)),
}
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
    lam = table.alphabet.rate
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


def separating_phi(spec):
    """A functional that tells states of one norm apart by their composition."""

    def phi(state):
        counts = state_composition(spec, state)
        weight = 1 + sum(c / (k + 2) for k, c in enumerate(counts))
        return math.exp(-0.3 * state_norm(state)) * weight

    return phi


def assert_same_law(got, want):
    assert list(got) == list(want)  # same support, in first-reached order
    for state, p in want.items():
        assert got[state] == pytest.approx(p, abs=1e-14), state


@pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_engine_matches_dict_bfs(name, reduced):
    spec = builtin_fixture(name).scale_theta(1.5)
    phi = separating_phi(spec)
    engine = ExactEngine(spec, reduced=reduced)
    reference = DictBFS(engine.canonical, reference_moves(spec, reduced))
    n = 40 if spec.class_count == 1 else 14
    for start in (empty_state(spec), STARTS[name]):
        laws = reference.laws(start, n)
        assert_same_law(engine.distribution(start, n), laws[n])
        assert_same_law(engine.distribution(start, n // 2), laws[n // 2])
        series = engine.functional_series(start, n, phi)
        want = [sum(p * phi(s) for s, p in law.items()) for law in laws]
        assert series == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("name,lower,upper,n", PAIR_LAWS, ids=[c[0] for c in PAIR_LAWS])
def test_pair_engine_matches_dict_bfs(name, lower, upper, n):
    engine = PairEngine(builtin_fixture(name))
    reference = DictBFS(engine.canonical, engine._moves)
    laws = reference.laws((lower, upper), n)
    assert_same_law(engine.distribution((lower, upper), n), laws[n])
    assert len(laws[n]) > 10


def test_step_adapter_matches_dict_bfs():
    spec = builtin_fixture("lk-sbp")
    engine = ExactEngine(spec, reduced=True)
    laws = DictBFS(engine.canonical, reference_moves(spec, True)).laws(STARTS["lk-sbp"], 6)
    for before, after in zip(laws, laws[1:]):
        assert_same_law(engine.step(before), after)


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
