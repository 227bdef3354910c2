"""Coupled-pair construction, its invariants and the exact pair-law checks.

The case analysis (shared arrivals, mirrored services, freeze on divergent
heads) is re-derived in this file from the raw transition maps and compared
exhaustively against the kernel used by the implementation.
"""

import hashlib
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mcqnet import coupling
from mcqnet.allocation import StationProtocol
from mcqnet.configurations import QueuePolicy
from mcqnet.coupling import (
    CoupledPath,
    CouplingKernel,
    PairEngine,
    _interpolate,
    classify_pair,
    exact_pair_law_check,
    run_coupling,
    verify_coupling_path,
)
from mcqnet.errors import (
    BudgetExceededError,
    NotASubconfigurationError,
    UnsupportedCouplingError,
)
from mcqnet.exact import ExactEngine
from mcqnet.network import builtin_fixture
from mcqnet.qprocess import (
    TransitionLabel,
    apply_transition,
    empty_state,
    is_substate,
    state_norm,
)
from mcqnet.rng import Uniforms, master_rng, run_block

from conftest import HQ, LCFS_LINE, SBP_HQ_LINE, ScriptedRng, random_batch_spec, run_optimized

MM1 = builtin_fixture("mm1")
LK_SBP = builtin_fixture("lk-sbp")
FCFS = builtin_fixture("fcfs-reentrant")
SEED_RANDOM_NETWORKS = 2027


def test_classify_pair():
    assert classify_pair(((),), ((),)) == 0
    assert classify_pair(((),), ((1,),)) == 1
    assert classify_pair(((1,), ()), ((1, 4), ())) == 4
    assert classify_pair(((1,),), ((),)) == -1
    # composition differs by one extra 1, but (2,1) is not inside (1,1,2)
    assert classify_pair(((2, 1), ()), ((1, 1, 2), ())) == -1


def _classify_by_counts(lower, upper):
    """``classify_pair`` on class counts: upper holds lower's jobs plus one."""
    if lower == upper:
        return 0
    low = Counter(d for q in lower for d in q)
    up = Counter(d for q in upper for d in q)
    extra = up - low
    if sum(extra.values()) != 1 or (low - up) or not is_substate(lower, upper):
        return -1
    return next(iter(extra))


def test_classify_pair_matches_counting_reference():
    pick = random.Random(14)

    def random_state(stations):
        return tuple(
            tuple(pick.choice((1, 2, 3)) for _ in range(pick.randrange(5)))
            for _ in range(stations)
        )

    def with_extra_job(state):
        i = pick.randrange(len(state))
        j = pick.randrange(len(state[i]) + 1)
        q = state[i]
        return state[:i] + (q[:j] + (pick.choice((1, 2, 3)),) + q[j:],) + state[i + 1:]

    outcomes = Counter()
    for _ in range(20000):
        lower = random_state(pick.choice((1, 2, 3)))
        form = pick.randrange(6)
        if form == 0:  # equal, as a separate object
            upper = tuple(tuple(list(q)) for q in lower)
        elif form == 1:  # one inserted job
            upper = with_extra_job(lower)
        elif form == 2:  # one inserted job, arguments reversed
            lower, upper = with_extra_job(lower), lower
        elif form == 3:  # one inserted job, stations reordered
            upper = tuple(pick.sample(with_extra_job(lower), len(lower)))
        elif form == 4:  # unrelated states on as many stations
            upper = random_state(len(lower))
        else:  # a different number of stations
            upper = with_extra_job(random_state(len(lower) + 1))
        expected = _classify_by_counts(lower, upper)
        assert classify_pair(lower, upper) == expected, (lower, upper)
        outcomes[(form, expected > 0 and "extra" or expected)] += 1
    assert outcomes[(0, 0)] and outcomes[(1, "extra")] and outcomes[(2, -1)]
    assert outcomes[(3, "extra")] and outcomes[(3, -1)] and outcomes[(4, -1)]
    assert outcomes[(5, -1)]


def test_step_c2_exit_couples():
    kernel = CouplingKernel(MM1)
    cs = kernel.start(((),), ((1,),))
    # departure event (0.9), branch draw 0.3 -> the lone job exits
    nxt = kernel.run(cs, 1, ScriptedRng([0.9, 0.3])).states[1]
    assert nxt.mark == 0
    assert nxt.lower == nxt.upper == ((),)
    assert nxt.frozen_count == 1 and nxt.upper_departures == 1
    assert nxt.lower_departures == 0


def test_step_shared_arrival_keeps_mark():
    kernel = CouplingKernel(MM1)
    cs = kernel.start(((),), ((1,),))
    nxt = kernel.run(cs, 1, ScriptedRng([0.1])).states[1]
    assert nxt.lower == ((1,),) and nxt.upper == ((1, 1),)
    assert nxt.mark == 1 and nxt.frozen_count == 0


def test_step_case_b_mirrors_other_station():
    # extra class-1 job at station 1; a departure at station 2 is mirrored
    kernel = CouplingKernel(LK_SBP)
    cs = kernel.start(((4,), (2,)), ((1, 4), (2,)))
    assert cs.mark == 1
    # event draw 0.7 selects D_2; branch draw 0.2 < beta_2/beta_bar_2 = 0.375
    nxt = kernel.run(cs, 1, ScriptedRng([0.7, 0.2])).states[1]
    assert nxt.lower == ((4,), (3,))
    assert nxt.upper == ((1, 4), (3,))
    assert nxt.mark == 1 and nxt.frozen_count == 0


def test_step_c2_class_change_moves_mark():
    # the extra job is the ranked head at station 1 (class 4 outranks 1), the
    # lower side serves class 1 instead: heads differ, upper moves 4 -> exit
    kernel = CouplingKernel(LK_SBP)
    cs = kernel.start(((1,), ()), ((1, 4), ()))
    assert cs.mark == 4
    # D_1 event: draw 0.3 (inside D_1 mass (0.059, 0.529]); branch draw 0.2 is
    # below beta_4/beta_bar_1 = 0.375, so the extra class-4 job exits
    nxt = kernel.run(cs, 1, ScriptedRng([0.3, 0.2])).states[1]
    assert nxt.mark == 0 and nxt.lower == nxt.upper == ((1,), ())
    # with draw 0.5 the departure event self-loops: a frozen non-move
    loop = kernel.run(cs, 1, ScriptedRng([0.3, 0.5])).states[1]
    assert loop.mark == 4 and loop.frozen_count == 1
    assert (loop.lower, loop.upper) == (cs.lower, cs.upper)
    # same start, but the extra job is class 1 while class 4 is served on both
    cs2 = kernel.start(((4,), ()), ((1, 4), ()))
    assert cs2.mark == 1
    nxt2 = kernel.run(cs2, 1, ScriptedRng([0.3, 0.2])).states[1]
    # mirrored service of the shared head 4: both lose it, mark survives
    assert nxt2.mark == 1
    assert nxt2.lower == ((), ()) and nxt2.upper == ((1,), ())


def test_run_coupling_equal_states():
    paths = run_coupling(MM1, ((),), ((),), 20, ScriptedRng([0.4] * 40))
    assert len(paths) == 1
    assert paths[0].tau == 0
    assert all(s.mark == 0 for s in paths[0].states)
    assert verify_coupling_path(paths[0]).ok


def test_run_coupling_rejects_negative_steps(rng):
    # n = -5 returned a censored path of one record
    with pytest.raises(ValueError, match="steps"):
        run_coupling(MM1, ((),), ((1,),), -5, rng)


def test_run_coupling_chain_decomposition(rng):
    paths = run_coupling(MM1, ((),), ((1, 1),), 30, rng)
    assert len(paths) == 2
    for path in paths:
        report = verify_coupling_path(path)
        assert report.ok, report.failures[:3]


def test_run_coupling_rejects_non_subconfig(rng):
    with pytest.raises(NotASubconfigurationError):
        run_coupling(MM1, ((1,),), ((),), 5, rng)
    with pytest.raises(NotASubconfigurationError):
        CouplingKernel(FCFS).start(((4, 1), ()), ((1, 1, 4), ()))


def test_starts_are_the_checked_records_of_the_interpolated_pairs():
    kernel = CouplingKernel(LK_SBP)
    starts = kernel.starts([[1], []], [[1, 4], [2]])
    chain = _interpolate(((1,), ()), ((1, 4), (2,)))
    assert starts == [kernel.start(a, b) for a, b in zip(chain[:-1], chain[1:])]
    assert [cs.mark for cs in starts] == [4, 2]
    # an extra job ahead of a lower job: the matcher skips the 4 to match the 1
    fcfs = CouplingKernel(FCFS)
    lower, upper = ((1,), (3,)), ((4, 1), (2, 3))
    chain = _interpolate(lower, upper)
    assert chain == [lower, ((4, 1), (3,)), upper]
    starts = fcfs.starts(lower, upper)
    assert starts == [fcfs.start(a, b) for a, b in zip(chain[:-1], chain[1:])]
    assert [cs.mark for cs in starts] == [4, 2]
    assert [classify_pair(a, b) for a, b in zip(chain[:-1], chain[1:])] == [4, 2]
    assert kernel.starts([[1], []], [[1], []]) == [kernel.start(((1,), ()), ((1,), ()))]
    assert kernel.starts([[1], []], [[1], []])[0].mark == 0
    with pytest.raises(NotASubconfigurationError):
        kernel.starts([[4], []], [[1], []])
    with pytest.raises(ValueError, match="does not belong"):
        kernel.starts([[2], []], [[2, 4], []])
    with pytest.raises(TypeError):
        kernel.starts([[1.5], []], [[1, 4], []])


def test_run_from_a_start_is_run():
    kernel = CouplingKernel(FCFS)
    cs = kernel.starts(((1,), ()), ((1, 4), ()))[0]
    _assert_same_path(kernel.run(cs, 300, master_rng(8)),
                      kernel.run(kernel.start(((1,), ()), ((1, 4), ())), 300, master_rng(8)))
    with pytest.raises(ValueError, match="steps"):
        kernel.run(cs, -1, master_rng(8))


def test_coupling_rejects_divisible_service(rng):
    with pytest.raises(UnsupportedCouplingError):
        run_coupling(builtin_fixture("lk-prop"), ((), ()), ((1,), ()), 5, rng)


@pytest.mark.parametrize(
    "spec,lower,upper,label,lower2,upper2",
    [
        # a mirrored class-3 service routes a 4 to station 1: LCFS puts it
        # behind the lower copy's head 4 but behind the upper copy's last 4
        (LCFS_LINE, ((4, 1), (3,)), ((4, 1, 4), (3,)), (3, 4), ((4, 4, 1), ()), ((4, 1, 4, 4), ())),
        # a mirrored class-1 service sends a 2 to station 2: SBP puts it
        # behind each copy's head, and the upper head is the extra 2
        (SBP_HQ_LINE, ((1,), (3, 3)), ((1,), (2, 3, 3)), (1, 2), ((), (3, 2, 3)), ((), (2, 2, 3, 3))),
    ],
    ids=["lcfs", "sbp-hq"],
)
def test_non_fcfs_head_of_queue_breaks_the_order(spec, lower, upper, label, lower2, upper2):
    """One mirrored move takes the lower copy outside the upper one, so the
    coupling rejects multi-class head-of-queue stations that are not FCFS."""
    assert classify_pair(lower, upper) > 0
    low, up = (apply_transition(spec, x, TransitionLabel(*label)) for x in (lower, upper))
    assert (low, up) == (lower2, upper2)
    assert not is_substate(low, up)
    assert classify_pair(low, up) == -1
    with pytest.raises(UnsupportedCouplingError):
        CouplingKernel(spec)
    with pytest.raises(UnsupportedCouplingError):
        exact_pair_law_check(spec, ((1,), ()), ((1, 4), ()), 2)


def test_coupling_regime_accepts_fcfs_and_preferential_lines():
    for spec in (MM1, FCFS, LK_SBP):
        CouplingKernel(spec)
    # one class per station: LCFS and SBP insertion coincide with FCFS
    CouplingKernel(replace(MM1, protocols=(StationProtocol(QueuePolicy.lcfs(), HQ),)))


def test_mm1_tau_is_first_departure_with_empty_lower(rng):
    # before coupling the upper side always serves, so the pair couples at the
    # first departure event fired while the lower side is empty; in particular
    # a departure-first path couples at step one.
    for _ in range(200):
        path = run_coupling(MM1, ((),), ((1,),), 40, rng.spawn(1)[0])[0]
        expected = None
        for m, (kind, _) in enumerate(path.events):
            if kind == "D" and state_norm(path.states[m].lower) == 0:
                expected = m + 1
                break
        assert path.tau == expected
        if path.events and path.events[0][0] == "D":
            assert path.tau == 1
        assert verify_coupling_path(path).ok


def test_censored_path_verifies():
    # three arrivals and out of time: never coupled
    kernel = CouplingKernel(MM1)
    path = kernel.run(kernel.start(((),), ((1,),)), 3, ScriptedRng([0.1, 0.1, 0.1]))
    assert path.tau is None and path.censored
    assert verify_coupling_path(path).ok


def test_verify_flags_corrupted_path(rng):
    path = run_coupling(MM1, ((),), ((1,),), 25, rng)[0]
    assert verify_coupling_path(path).ok
    bad_index = min(3, len(path.states) - 1)
    original = path.states[bad_index]
    path.states[bad_index] = type(original)(
        lower=((1, 1, 1),),
        upper=original.upper,
        mark=original.mark,
        frozen_count=original.frozen_count,
        lower_departures=original.lower_departures,
        upper_departures=original.upper_departures,
    )
    report = verify_coupling_path(path)
    assert not report.ok
    assert any(f.startswith(f"step {bad_index}") for f in report.failures)


def _pair_reachable(spec, seeds, depth):
    engine = PairEngine(spec)
    found = set()
    for lower, upper in seeds:
        start = engine.kernel_tables.start(lower, upper)
        dist = {(start.lower, start.upper): 1.0}
        found |= set(dist)
        for _ in range(depth):
            nxt = {}
            for pair, mass in dist.items():
                for target, p in engine.kernel(pair):
                    nxt[target] = nxt.get(target, 0.0) + mass * p
            dist = nxt
            found |= set(dist)
    return found, engine


@pytest.mark.parametrize(
    "name,seeds",
    [
        ("mm1", [(((),), ((1,),))]),
        (
            "fcfs-reentrant",
            [
                ((((), ())), ((1,), ())),
                ((((), ())), ((4,), ())),
                ((((), ())), ((), (2,))),
                ((((), ())), ((), (3,))),
            ],
        ),
    ],
)
def test_case_table_exhaustive(name, seeds):
    """Every reachable pair transition follows the A/B/C1/C2 case analysis."""
    spec = builtin_fixture(name)
    pairs, engine = _pair_reachable(spec, seeds, 5)
    kt = engine.kernel_tables
    for lower, upper in pairs:
        mark = classify_pair(lower, upper)
        assert mark >= 0, "reachable pair left the one-extra-job relation"
        # arrivals: case A preserves the mark
        for k in range(1, spec.class_count + 1):
            if spec.theta[k - 1] == 0:
                continue
            low2 = kt.canon(apply_transition(spec, lower, TransitionLabel(0, k)))
            up2 = kt.canon(apply_transition(spec, upper, TransitionLabel(0, k)))
            assert classify_pair(low2, up2) == mark
        # departures: mirrored cases B/C1 preserve it, C2 maps it to l (0 = couple)
        for i in range(spec.station_count):
            if not upper[i]:
                continue
            h_up = kt.head(i, upper[i])
            h_low = kt.head(i, lower[i])
            for l, _ in kt.table.serve[h_up]:
                up2 = kt.canon(apply_transition(spec, upper, TransitionLabel(h_up, l)))
                if mark == 0 or h_low == h_up:
                    low2 = kt.canon(apply_transition(spec, lower, TransitionLabel(h_up, l)))
                    assert classify_pair(low2, up2) == mark
                else:
                    assert h_up == mark  # the divergent head is the extra job
                    assert classify_pair(lower, up2) == l
                    if l == 0:
                        assert up2 == lower


@pytest.mark.parametrize("name", ["mm1", "lk-sbp", "fcfs-reentrant"])
def test_pair_kernel_upper_marginal_is_the_chain_kernel(name):
    """The pair kernel's upper copy moves exactly as the reduced chain does."""
    spec = builtin_fixture(name)
    empty = empty_state(spec)
    seeds = [
        (empty, apply_transition(spec, empty, TransitionLabel(0, k)))
        for k in range(1, spec.class_count + 1)
    ]
    pairs, engine = _pair_reachable(spec, seeds, 4)
    chain = ExactEngine(spec, reduced=True)
    for pair in pairs:
        marginal = {}
        for (_, up), p in engine.kernel(pair):
            marginal[up] = marginal.get(up, 0.0) + p
        expected = dict(chain.kernel(pair[1]))
        assert marginal.keys() == expected.keys(), pair
        for target, p in expected.items():
            assert marginal[target] == pytest.approx(p, abs=1e-14), (pair, target)


@pytest.mark.parametrize("name", ["mm1", "fcfs-reentrant", "lk-sbp"])
def test_move_matches_apply(name):
    """Every successor the state table stores equals the reference move, once
    the table holds every move of positive probability from every state of
    the pair-reachable set; every stored head is the serve entry of the
    state's head at that station."""
    spec = builtin_fixture(name)
    empty = empty_state(spec)
    seeds = [
        (empty, apply_transition(spec, empty, TransitionLabel(0, k)))
        for k in range(1, spec.class_count + 1)
    ]
    pairs, engine = _pair_reachable(spec, seeds, 5)
    kt = engine.kernel_tables
    states = {x for pair in pairs for x in pair}
    assert len(states) > 5
    moves = 0
    for xi in states:
        s = kt._intern(xi, 0)
        heads = [kt.head(i, q) for i, q in enumerate(xi)]
        assert all(got is (h and kt._serves[h]) for got, h in zip(kt._heads[s], heads))
        labels = [(0, k) for k, _ in kt.table.arrivals]
        labels += [(h, l) for h in heads if h for l, _ in kt.table.serve[h]]
        for label in labels:
            kt._successor(s, kt._code_moves.index(label), 0)
        moves += len(set(labels))
    stored = 0
    for s, succ in enumerate(kt._succ):
        for code, t in enumerate(succ):
            if t is not None:
                k, l = kt._code_moves[code]
                assert kt._states[t] == kt._apply(kt._states[s], k, l), (kt._states[s], k, l)
                stored += 1
    assert stored == moves


def test_state_table_stops_at_its_cap(monkeypatch):
    """A full state table stops taking states; paths stay those of an unbounded
    table, and every stored successor id is a stored state's."""
    def paths(cap):
        monkeypatch.setattr(coupling, "_STATE_TABLE_CAP", cap)
        kernel = CouplingKernel(FCFS)
        cs = kernel.start(((1,), ()), ((1, 4), ()))
        return kernel, [kernel.run(cs, 150, master_rng(s)) for s in range(10)]

    capped, capped_paths = paths(5)
    unbounded, unbounded_paths = paths(10**6)
    for a, b in zip(capped_paths, unbounded_paths):
        _assert_same_path(a, b)
        assert verify_coupling_path(a).ok
    assert len(capped._ids) == 5 < len(unbounded._ids)
    assert len(capped._states) == 7  # the stored states and a spare for each copy
    # before tau both copies sit off the table at once, each on its own spare
    assert any(cs.mark and cs.lower not in capped._ids and cs.upper not in capped._ids
               for p in capped_paths for cs in p.states)
    for s, x in enumerate(capped._states[:5]):
        assert capped._ids[x] == s
        assert all(t is None or t < 5 for t in capped._succ[s])
        for code, t in enumerate(unbounded._succ[unbounded._ids[x]]):
            if capped._succ[s][code] is not None:
                assert capped._states[capped._succ[s][code]] == unbounded._states[t]


def test_frozen_deletion_reproduces_chain_moves(rng):
    """Dropping frozen steps leaves a path the lower chain itself could take."""
    engine = ExactEngine(MM1, reduced=True)
    kernels = {}
    paths_checked = 0
    for _ in range(10_000):
        path = run_coupling(MM1, ((),), ((1,),), 100, rng.spawn(1)[0])[0]
        compressed = [path.states[0].lower]
        for m in range(1, len(path.states)):
            if path.states[m].frozen_count > path.states[m - 1].frozen_count:
                assert path.states[m].lower == path.states[m - 1].lower
                continue
            compressed.append(path.states[m].lower)
        for a, b in zip(compressed, compressed[1:]):
            if a not in kernels:
                kernels[a] = dict(engine.kernel(a))
            assert kernels[a].get(b, 0.0) > 0.0
        paths_checked += 1
    assert paths_checked == 10_000


@pytest.mark.parametrize(
    "name,lower,upper,n",
    [
        ("mm1", ((),), ((1,),), 4),
        ("mm1", ((1,),), ((1, 1),), 4),
        ("lk-sbp", ((), ()), ((1,), ()), 4),
        ("lk-sbp", ((4,), ()), ((1, 4), ()), 4),
        ("fcfs-reentrant", ((), ()), ((1,), ()), 6),
    ],
)
def test_exact_pair_law(name, lower, upper, n):
    spec = builtin_fixture(name)
    report = exact_pair_law_check(spec, lower, upper, n)
    assert report.tv_upper <= 1e-10
    assert report.pair_order_violation == 0.0
    assert report.cdf_max_violation <= 1e-9


def test_exact_pair_law_zero_steps():
    report = exact_pair_law_check(MM1, ((),), ((1,),), 0)
    assert report.tv_upper == 0.0


def test_pair_engine_runs_on_the_exact_engine():
    """Start check, budget and mass check of the pair law are ExactEngine's."""
    engine = PairEngine(LK_SBP)
    dist = engine.distribution((((4,), ()), ((4, 1), ())), 6)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(classify_pair(low, up) >= 0 for low, up in dist)
    # the start is canonicalized: preferential station 1 stores (4, 1) as (1, 4)
    assert engine.canonical((((4,), ()), ((4, 1), ()))) == (((4,), ()), ((1, 4), ()))
    with pytest.raises(NotASubconfigurationError):
        engine.distribution((((1,), ()), ((), ())), 1)
    with pytest.raises(BudgetExceededError):
        PairEngine(MM1, budget=2).distribution((((),), ((1,),)), 3)


def test_delta_relation_against_manual_recount(rng):
    # recompute departure counts straight from the norms and compare with the
    # split-at-tau relation on a batch of sampled paths
    for _ in range(300):
        path = run_coupling(LK_SBP, ((), ()), ((1,), ()), 60, rng.spawn(1)[0])[0]
        down_low = down_up = 0
        for m in range(1, len(path.states)):
            prev, cur = path.states[m - 1], path.states[m]
            if state_norm(cur.lower) < state_norm(prev.lower):
                down_low += 1
            if state_norm(cur.upper) < state_norm(prev.upper):
                down_up += 1
            expected = down_low + (1 if path.tau is not None and m >= path.tau else 0)
            assert down_up == expected


def test_interpolation_check_survives_python_O():
    # one station fewer in the lower state: the chain cannot start there
    out = run_optimized(
        "from mcqnet.coupling import _interpolate\n"
        "from mcqnet.errors import NotASubconfigurationError\n"
        "try:\n"
        "    _interpolate(((1,),), ((1,), (2,)))\n"
        "except NotASubconfigurationError as exc:\n"
        "    print('raised', exc)\n"
    )
    assert "raised" in out


def test_fixed_time_dominance_fails_on_lk_sbp():
    """One job fewer at the start can mean a heavier norm tail at a fixed step.

    The coupling certifies only the time-changed order (lower at n - F_n inside
    upper at n); criterion 3's grid (starts of norm <= 2, steps <= 8) misses
    this lk-sbp pair, whose lower start has the heavier tail at step 24.
    """
    engine = ExactEngine(LK_SBP, reduced=True)

    def tail(start):
        return sum(p for s, p in engine.distribution(start, 24).items() if state_norm(s) > 5)

    lower, upper = ((1,), (3,)), ((1, 4), (3,))
    assert is_substate(lower, upper)
    low, up = tail(lower), tail(upper)
    assert low == pytest.approx(0.0183308, abs=1e-7)
    assert up == pytest.approx(0.0180577, abs=1e-7)
    assert low > up


# the couple-verify workload's pairs: fixture, lower, upper
COUPLE_PAIRS = [
    (MM1, ((),), ((1,),)),
    (FCFS, ((1,), ()), ((1, 4), (2,))),
    (LK_SBP, ((1,), ()), ((1, 4), (2,))),
]


@pytest.mark.parametrize("spec,lower,upper", COUPLE_PAIRS, ids=["mm1", "fcfs-reentrant", "lk-sbp"])
def test_pair_engine_norms_are_the_upper_copy_norms(spec, lower, upper):
    # a pair buffer (lower, upper) holds the upper copy's jobs, not both copies'
    f = lambda y: 0.7**y
    for cs in CouplingKernel(spec).starts(lower, upper):
        pair = PairEngine(spec).norm_series((cs.lower, cs.upper), 12, f)
        chain = ExactEngine(spec, reduced=True).norm_series(cs.upper, 12, f)
        assert pair == pytest.approx(chain, rel=0, abs=1e-12)


def _reference_step(kernel, cs, uni):
    """The coupled step rule on whole states: ``_apply`` (``apply_transition``
    plus a full canonicalization) for each copy, ``replace`` for the counters."""
    kind, idx = kernel.table.draw(uni.next())
    if kind == "A":
        lower, upper = kernel._apply(cs.lower, 0, idx), kernel._apply(cs.upper, 0, idx)
        return replace(cs, lower=lower, upper=upper), ("A", idx)
    event = ("D", idx)
    q_up = cs.upper[idx]
    if not q_up:
        return cs, event
    h_up = kernel.head(idx, q_up)
    mirrored = cs.mark == 0 or kernel.head(idx, cs.lower[idx]) == h_up
    active, routes = kernel.table.branch[h_up]
    u = uni.next()
    if u >= active:
        return (cs if mirrored else replace(cs, frozen_count=cs.frozen_count + 1)), event
    l = next((l for cum, l in routes if u < cum), routes[-1][1])
    upper = kernel._apply(cs.upper, h_up, l)
    exit_ = int(l == 0)
    if mirrored:
        lower = kernel._apply(cs.lower, h_up, l)
        return replace(
            cs, lower=lower, upper=upper,
            lower_departures=cs.lower_departures + exit_,
            upper_departures=cs.upper_departures + exit_,
        ), event
    assert h_up == cs.mark
    return replace(
        cs, upper=upper, mark=l, frozen_count=cs.frozen_count + 1,
        upper_departures=cs.upper_departures + exit_,
    ), event


def _step_loop(kernel, lower, upper, n, rng):
    """``n`` reference steps on the uniforms ``run`` reads (blocks of
    ``run_block(n)``); tau is the first index with mark 0."""
    uni = Uniforms(rng, run_block(n))
    cs = kernel.start(lower, upper)
    states = [cs]
    events = []
    for _ in range(n):
        cs, ev = _reference_step(kernel, cs, uni)
        states.append(cs)
        events.append(ev)
    tau = next((m for m, s in enumerate(states) if s.mark == 0), None)
    return CoupledPath(states, events, tau)


def _assert_same_path(fast, ref):
    assert fast.tau == ref.tau
    assert fast.events == ref.events
    assert fast.states == ref.states
    # a non-move repeats the previous record, as the reference's does; after
    # tau a new record holds one state object as both copies
    for m in range(1, len(fast.states)):
        repeated = fast.states[m] is fast.states[m - 1]
        assert repeated == (ref.states[m] is ref.states[m - 1]), m
        if fast.tau is not None and m > fast.tau and not repeated:
            assert fast.states[m].lower is fast.states[m].upper, m


@pytest.mark.parametrize("spec,lower,upper", COUPLE_PAIRS, ids=["mm1", "fcfs-reentrant", "lk-sbp"])
def test_run_matches_step_loop(spec, lower, upper):
    kernel = CouplingKernel(spec)
    chain = _interpolate(kernel.canon(lower), kernel.canon(upper))
    for seed in range(200):
        for j, (a, b) in enumerate(zip(chain, chain[1:])):
            fast = kernel.run(kernel.start(a, b), 200, master_rng(1000 * j + seed))
            _assert_same_path(fast, _step_loop(kernel, a, b, 200, master_rng(1000 * j + seed)))
            assert verify_coupling_path(fast).ok


def test_run_matches_step_loop_from_coupled_start():
    kernel = CouplingKernel(FCFS)
    start = ((1, 4), (2,))
    for seed in range(50):
        for n in (0, 1, 2, 150):
            fast = kernel.run(kernel.start(start, start), n, master_rng(seed))
            assert fast.tau == 0 and len(fast.states) == n + 1
            _assert_same_path(fast, _step_loop(kernel, start, start, n, master_rng(seed)))
            assert verify_coupling_path(fast).ok


@pytest.mark.parametrize("spec,lower,upper", COUPLE_PAIRS, ids=["mm1", "fcfs-reentrant", "lk-sbp"])
def test_run_matches_step_loop_at_the_phase_boundary(spec, lower, upper):
    # n = 0, one step short of tau (never coupled), exactly tau, one step past;
    # a scripted stream reads in the same order whatever the block size, so
    # every n sees the uniforms of the 200-step run
    kernel = CouplingKernel(spec)
    a, b = _interpolate(kernel.canon(lower), kernel.canon(upper))[:2]
    taus = set()
    for seed in range(40):
        script = master_rng(seed).random(2 * 200).tolist()
        tau = kernel.run(kernel.start(a, b), 200, ScriptedRng(script)).tau
        if tau is None:
            continue
        taus.add(tau)
        for n in sorted({0, tau - 1, tau, tau + 1}):
            fast = kernel.run(kernel.start(a, b), n, ScriptedRng(script))
            assert fast.tau == (tau if n >= tau else None)
            assert len(fast.states) == n + 1 and len(fast.events) == n
            _assert_same_path(fast, _step_loop(kernel, a, b, n, ScriptedRng(script)))
            assert verify_coupling_path(fast).ok
    assert len(taus) > 5


def test_run_matches_step_loop_when_never_coupled():
    # mm1: arrivals below 1/3; a departure (0.9, then 0.3) is mirrored while
    # the lower copy holds a job, so the lower copy never empties
    script = [0.1] + [0.1, 0.9, 0.3] * 10
    kernel = CouplingKernel(MM1)
    fast = kernel.run(kernel.start(((),), ((1,),)), 21, ScriptedRng(script))
    assert fast.tau is None
    _assert_same_path(fast, _step_loop(kernel, ((),), ((1,),), 21, ScriptedRng(script)))


def _reference_verify(path):
    """The two-pass verifier that ``verify_coupling_path`` replaced."""
    failures = []
    states = path.states
    tau = path.tau
    start_coupled = states[0].mark == 0
    lower_down = 0
    upper_down = 0
    for m, cs in enumerate(states):
        cls = classify_pair(cs.lower, cs.upper)
        if cls < 0:
            failures.append(f"step {m}: pair left the one-extra-job relation")
        elif cls != cs.mark:
            failures.append(f"step {m}: recorded mark {cs.mark} but pair classifies as {cls}")
        if cs.mark == 0 and cs.lower != cs.upper:
            failures.append(f"step {m}: coupled mark with unequal states")
        if m > 0:
            prev = states[m - 1]
            if prev.mark == 0 and cs.mark != 0:
                failures.append(f"step {m}: left the absorbing coupled set")
            if state_norm(cs.lower) < state_norm(prev.lower):
                lower_down += 1
            if state_norm(cs.upper) < state_norm(prev.upper):
                upper_down += 1
            if cs.frozen_count < prev.frozen_count:
                failures.append(f"step {m}: frozen count decreased")
        if cs.frozen_count > m:
            failures.append(f"step {m}: frozen count exceeds the step index")
        if (cs.lower_departures, cs.upper_departures) != (lower_down, upper_down):
            failures.append(f"step {m}: departure counters disagree with the path")
        expected_gap = 0 if (start_coupled or tau is None or m < tau) else 1
        if upper_down - lower_down != expected_gap:
            failures.append(
                f"step {m}: departure gap {upper_down - lower_down}, expected {expected_gap}"
            )
    first_coupled = next((m for m, cs in enumerate(states) if cs.mark == 0), None)
    if tau != first_coupled:
        failures.append(f"recorded tau {tau}, but the first index with mark 0 is {first_coupled}")
    return failures


def _corrupt(cs, field, spec, pick):
    """``cs`` with one field moved off the value the runner recorded."""
    if field in ("lower", "upper"):
        state = getattr(cs, field)
        if pick.random() < 0.5:  # one extra job at the first station
            bad = (state[0] + (spec.stations[0][0],),) + state[1:]
        else:  # the other copy's state
            bad = cs.upper if field == "lower" else cs.lower
        return replace(cs, **{field: bad})
    if field == "mark":
        return replace(cs, mark=pick.choice([k for k in range(spec.class_count + 1) if k != cs.mark]))
    return replace(cs, **{field: getattr(cs, field) + pick.choice([-1, 1])})


@pytest.mark.parametrize("spec,lower,upper", COUPLE_PAIRS, ids=["mm1", "fcfs-reentrant", "lk-sbp"])
def test_verifier_matches_reference(spec, lower, upper):
    pick = random.Random(5)
    fields = ("lower", "upper", "mark", "frozen_count", "lower_departures", "upper_departures")
    flagged = Counter()
    for seed in range(60):
        for path in run_coupling(spec, lower, upper, 120, master_rng(seed)):
            assert verify_coupling_path(path).failures == _reference_verify(path) == []
            for field in fields:
                m = pick.randrange(len(path.states))
                states = list(path.states)
                states[m] = _corrupt(states[m], field, spec, pick)
                bad = CoupledPath(states, path.events, path.tau)
                failures = verify_coupling_path(bad).failures
                assert failures == _reference_verify(bad), (field, m)
                flagged[field] += bool(failures)
    assert all(flagged[field] > 0 for field in fields), flagged


def test_verifier_flags_a_tau_that_is_not_the_first_coupled_index():
    # a path that starts coupled has tau 0; recorded as censored it must not verify
    kernel = CouplingKernel(MM1)
    path = kernel.run(kernel.start(((1,),), ((1,),)), 30, master_rng(3))
    assert path.tau == 0 and verify_coupling_path(path).ok
    bad = CoupledPath(path.states, path.events, None)
    assert bad.censored
    expected = ["recorded tau None, but the first index with mark 0 is 0"]
    assert verify_coupling_path(bad).failures == _reference_verify(bad) == expected
    # a tau recorded one step late, on an uncoupled start
    path = run_coupling(MM1, ((),), ((1,),), 60, master_rng(4))[0]
    assert path.tau is not None and verify_coupling_path(path).ok
    late = CoupledPath(path.states, path.events, path.tau + 1)
    failures = verify_coupling_path(late).failures
    assert failures == _reference_verify(late)
    assert failures[-1] == f"recorded tau {path.tau + 1}, but the first index with mark 0 is {path.tau}"


@pytest.mark.parametrize("spec,lower,upper", COUPLE_PAIRS, ids=["mm1", "fcfs-reentrant", "lk-sbp"])
def test_verifier_matches_reference_on_a_repeated_corrupted_record(spec, lower, upper):
    # one corrupted record object over four consecutive steps: a step after one
    # that added a failure is checked again, not passed over
    pick = random.Random(7)
    fields = ("lower", "upper", "mark", "frozen_count", "lower_departures", "upper_departures")
    flagged = Counter()
    flagged_last = 0
    for seed in range(30):
        for path in run_coupling(spec, lower, upper, 120, master_rng(seed)):
            for field in fields:
                m = pick.randrange(len(path.states) - 4)
                states = list(path.states)
                states[m:m + 4] = [_corrupt(states[m], field, spec, pick)] * 4
                bad = CoupledPath(states, path.events, path.tau)
                failures = verify_coupling_path(bad).failures
                assert failures == _reference_verify(bad), (field, m)
                flagged[field] += bool(failures)
                flagged_last += any(f.startswith(f"step {m + 3}:") for f in failures)
    assert all(flagged[field] > 0 for field in fields), flagged
    assert flagged_last > 0


def test_verifier_checks_a_recorded_tau_on_a_repeated_record():
    # the expected departure gap turns at tau, so a tau recorded on a non-move
    # is checked even when the step before it added no failure
    gap_flagged = 0
    for spec, lower, upper in COUPLE_PAIRS:
        for seed in range(40):
            for path in run_coupling(spec, lower, upper, 120, master_rng(seed)):
                states = path.states
                repeats = [m for m in range(1, len(states)) if states[m] is states[m - 1]]
                early = [m for m in repeats if path.tau is None or m < path.tau]
                for m in early[:2] + repeats[-1:]:
                    bad = CoupledPath(states, path.events, m)
                    failures = verify_coupling_path(bad).failures
                    assert failures == _reference_verify(bad) != [], m
                    gap_flagged += f"step {m}: departure gap 0, expected 1" in failures
    assert gap_flagged > 5


@pytest.mark.parametrize("spec,lower,upper", COUPLE_PAIRS, ids=["mm1", "fcfs-reentrant", "lk-sbp"])
def test_verifier_matches_reference_at_a_frozen_count_equal_to_its_step(spec, lower, upper):
    # frozen count m at step m is within the bound and m + 1 is not; the same
    # record repeated at step m + 1 is within it either way
    for seed in range(20):
        for path in run_coupling(spec, lower, upper, 120, master_rng(seed)):
            for m in (1, len(path.states) // 2, len(path.states) - 3):
                for count in (m, m + 1):
                    states = list(path.states)
                    states[m:m + 2] = [replace(states[m], frozen_count=count)] * 2
                    bad = CoupledPath(states, path.events, path.tau)
                    failures = verify_coupling_path(bad).failures
                    assert failures == _reference_verify(bad), (m, count)
                    exceeds = f"step {m}: frozen count exceeds the step index"
                    assert (exceeds in failures) == (count > m)
                    assert f"step {m + 1}: frozen count exceeds the step index" not in failures


def test_run_matches_step_loop_on_random_networks_in_the_coupling_regime():
    """Seeded random networks with a multi-class station that the coupling
    accepts (FCFS head-of-queue and preferential stations), each from a
    one-extra-job start: the run equals the reference step loop and verifies,
    as the reference verifier agrees."""
    rng = np.random.default_rng(SEED_RANDOM_NETWORKS)
    kernels = []
    while len(kernels) < 10:
        spec = random_batch_spec(rng)
        if max(map(len, spec.stations)) < 2:
            continue
        try:
            kernels.append(CouplingKernel(spec))
        except UnsupportedCouplingError:
            continue
    preferential = 0
    for kernel in kernels:
        spec = kernel.spec
        preferential += any(order is not None and len(order) > 1 for order in kernel.table.ranked)
        classes = [k for k, _ in kernel.table.arrivals]
        lower = empty_state(spec)
        for _ in range(int(rng.integers(0, 4))):
            lower = kernel._apply(lower, 0, int(rng.choice(classes)))
        upper = kernel._apply(lower, 0, int(rng.integers(1, spec.class_count + 1)))
        assert kernel.start(lower, upper).mark > 0
        for seed in range(15):
            fast = kernel.run(kernel.start(lower, upper), 150, master_rng(seed))
            _assert_same_path(fast, _step_loop(kernel, lower, upper, 150, master_rng(seed)))
            assert verify_coupling_path(fast).failures == _reference_verify(fast) == []
    assert len({k.spec.station_count for k in kernels}) > 1 and preferential > 0


def _path_digest(paths) -> str:
    """sha256 over tau, every field of every record and every event of ``paths``."""
    h = hashlib.sha256()
    for p in paths:
        h.update(repr(p.tau).encode())
        for cs in p.states:
            h.update(repr((cs.lower, cs.upper, cs.mark, cs.frozen_count,
                           cs.lower_departures, cs.upper_departures)).encode())
        for event in p.events:
            h.update(repr(event).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "spec,lower,upper,n,seed,digest",
    [
        (MM1, [[]], [[1, 1]], 400, 21,
         "1f36061d914707a009fa61e8efc47e7241bc59322352259b2b696afb16383cc7"),
        (FCFS, [[], []], [[1, 4], [2]], 3000, 22,
         "7474ad3befef7210dbe6cd4eff0b84c3fa4dfe2f0a1914d10866167460c2b4cd"),
        (LK_SBP, [[1], []], [[1, 4], [2]], 600, 23,
         "81a28c68a90028a7fce984976ec1642b465fa8e10a53a46381a84ec4cb71874d"),
    ],
)
def test_coupled_paths_are_pinned(spec, lower, upper, n, seed, digest):
    """Whole paths, past tau: three seeded ``run_coupling`` calls, each over an
    interpolated chain of two or three adjacent pairs."""
    rng = master_rng(seed)
    paths = [p for _ in range(3) for p in run_coupling(spec, lower, upper, n, rng.spawn(1)[0])]
    assert _path_digest(paths) == digest
