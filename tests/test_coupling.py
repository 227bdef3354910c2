"""Coupled-pair construction, its invariants and the exact pair-law checks.

The case analysis (shared arrivals, mirrored services, freeze on divergent
heads) is re-derived in this file from the raw transition maps and compared
exhaustively against the kernel used by the implementation.
"""

import pytest

from mcqnet.coupling import (
    CouplingKernel,
    PairEngine,
    classify_pair,
    coupled_step,
    exact_pair_law_check,
    run_coupling,
    verify_coupling_path,
)
from mcqnet.errors import NotASubconfigurationError, UnsupportedCouplingError
from mcqnet.exact import ExactEngine
from mcqnet.network import builtin_fixture
from mcqnet.qprocess import (
    TransitionLabel,
    apply_transition,
    empty_state,
    state_norm,
)

from conftest import ScriptedRng, run_optimized

MM1 = builtin_fixture("mm1")
LK_SBP = builtin_fixture("lk-sbp")
FCFS = builtin_fixture("fcfs-reentrant")


def make_pair(spec, lower, upper):
    return CouplingKernel(spec).start(lower, upper)


def test_classify_pair():
    assert classify_pair(((),), ((),)) == 0
    assert classify_pair(((),), ((1,),)) == 1
    assert classify_pair(((1,), ()), ((1, 4), ())) == 4
    assert classify_pair(((1,),), ((),)) == -1
    # composition differs by one extra 1, but (2,1) is not inside (1,1,2)
    assert classify_pair(((2, 1), ()), ((1, 1, 2), ())) == -1


def test_coupled_step_c2_exit_couples():
    cs = make_pair(MM1, ((),), ((1,),))
    # departure event (0.9), branch draw 0.3 -> the lone job exits
    nxt = coupled_step(MM1, cs, ScriptedRng([0.9, 0.3]))
    assert nxt.mark == 0
    assert nxt.lower == nxt.upper == ((),)
    assert nxt.frozen_count == 1 and nxt.upper_departures == 1
    assert nxt.lower_departures == 0


def test_coupled_step_shared_arrival_keeps_mark():
    cs = make_pair(MM1, ((),), ((1,),))
    nxt = coupled_step(MM1, cs, ScriptedRng([0.1]))
    assert nxt.lower == ((1,),) and nxt.upper == ((1, 1),)
    assert nxt.mark == 1 and nxt.frozen_count == 0


def test_coupled_step_case_b_mirrors_other_station():
    # extra class-1 job at station 1; a departure at station 2 is mirrored
    cs = make_pair(LK_SBP, ((4,), (2,)), ((1, 4), (2,)))
    assert cs.mark == 1
    # event draw 0.7 selects D_2; branch draw 0.2 < beta_2/beta_bar_2 = 0.375
    nxt = coupled_step(LK_SBP, cs, ScriptedRng([0.7, 0.2]))
    assert nxt.lower == ((4,), (3,))
    assert nxt.upper == ((1, 4), (3,))
    assert nxt.mark == 1 and nxt.frozen_count == 0


def test_coupled_step_c2_class_change_moves_mark():
    # the extra job is the ranked head at station 1 (class 4 outranks 1), the
    # lower side serves class 1 instead: heads differ, upper moves 4 -> exit
    cs = make_pair(LK_SBP, ((1,), ()), ((1, 4), ()))
    assert cs.mark == 4
    # D_1 event: draw 0.3 (inside D_1 mass (0.059, 0.529]); branch draw 0.2 is
    # below beta_4/beta_bar_1 = 0.375, so the extra class-4 job exits
    nxt = coupled_step(LK_SBP, cs, ScriptedRng([0.3, 0.2]))
    assert nxt.mark == 0 and nxt.lower == nxt.upper == ((1,), ())
    # with draw 0.5 the departure event self-loops: a frozen non-move
    loop = coupled_step(LK_SBP, cs, ScriptedRng([0.3, 0.5]))
    assert loop.mark == 4 and loop.frozen_count == 1
    assert (loop.lower, loop.upper) == (cs.lower, cs.upper)
    # same start, but the extra job is class 1 while class 4 is served on both
    cs2 = make_pair(LK_SBP, ((4,), ()), ((1, 4), ()))
    assert cs2.mark == 1
    nxt2 = coupled_step(LK_SBP, cs2, ScriptedRng([0.3, 0.2]))
    # mirrored service of the shared head 4: both lose it, mark survives
    assert nxt2.mark == 1
    assert nxt2.lower == ((), ()) and nxt2.upper == ((1,), ())


def test_run_coupling_equal_states():
    paths = run_coupling(MM1, ((),), ((),), 20, ScriptedRng([0.4] * 40))
    assert len(paths) == 1
    assert paths[0].tau == 0
    assert all(s.mark == 0 for s in paths[0].states)
    assert verify_coupling_path(paths[0]).ok


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


def test_coupling_rejects_divisible_service(rng):
    with pytest.raises(UnsupportedCouplingError):
        run_coupling(builtin_fixture("lk-prop"), ((), ()), ((1,), ()), 5, rng)


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
    path = kernel.run(((),), ((1,),), 3, ScriptedRng([0.1, 0.1, 0.1]))
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
