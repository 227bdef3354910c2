"""Transition maps, rates, the embedded sampler and the exact engine.

The exact engine is checked against two independent oracles: a from-scratch
event-tree enumeration of the two-step law of the single queue, and a
truncated-generator matrix exponential for the transient functional.
"""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import QueuePolicy
from mcqnet.errors import BudgetExceededError
from mcqnet.exact import (
    ExactEngine,
    exact_step_distribution,
    expectation,
    norm_cdf,
    poisson_weights,
    reachable_states,
    transient_functional,
)
from mcqnet.network import NetworkSpec, builtin_fixture
from mcqnet.qprocess import (
    TransitionLabel,
    apply_transition,
    canonicalize_state,
    embedded_step,
    empty_state,
    event_alphabet,
    is_substate,
    simulate_path,
    state_norm,
    transition_rate,
    uniformization_rate,
)

from conftest import ScriptedRng, run_optimized

FCFS_HQ = StationProtocol(QueuePolicy.fcfs(), ServiceAllocation.head_of_queue())
MM1 = builtin_fixture("mm1")
LK_PROP = builtin_fixture("lk-prop")


def phi_norm(state):
    return math.exp(-state_norm(state))


def test_uniformization_rate_examples():
    assert uniformization_rate(MM1) == pytest.approx(3.0)
    # station maxima: max(4, 2) + max(3, 5), plus the arrival rate 1
    assert uniformization_rate(LK_PROP) == pytest.approx(10.0)
    silent = NetworkSpec(1, ((1,),), (0.0,), (5.0,), ((0.0,),), (FCFS_HQ,))
    assert uniformization_rate(silent) == pytest.approx(5.0)


def test_apply_transition_examples():
    assert apply_transition(MM1, ((1,),), TransitionLabel(0, 1)) == ((1, 1),)
    moved = apply_transition(LK_PROP, ((1,), ()), TransitionLabel(1, 2))
    assert moved == ((), (2,))
    # vacuous deletion freezes the whole class change
    assert apply_transition(LK_PROP, ((), ()), TransitionLabel(1, 2)) == ((), ())
    assert apply_transition(LK_PROP, ((4,), (3,)), TransitionLabel(3, 4)) == ((4, 4), ())


def test_transition_rate_examples():
    assert transition_rate(MM1, ((1,),), TransitionLabel(1, 0)) == pytest.approx(2.0)
    # proportional share 2/3 for class 1 in (1,4,1), beta_1 = 4, route 1 -> 2
    rate = transition_rate(LK_PROP, ((1, 4, 1), ()), TransitionLabel(1, 2))
    assert rate == pytest.approx(8 / 3)
    for k in range(1, 5):
        for l in range(0, 5):
            assert transition_rate(LK_PROP, empty_state(LK_PROP), TransitionLabel(k, l)) == 0.0
    assert transition_rate(MM1, ((),), TransitionLabel(0, 1)) == pytest.approx(1.0)


def test_embedded_step_scripted_mm1():
    # event split: arrival below 1/3, departure event above
    assert embedded_step(MM1, ((),), ScriptedRng([0.2])) == ((1,),)
    assert embedded_step(MM1, ((),), ScriptedRng([0.8])) == ((),)
    # from one job, a departure event always exits (beta == beta_bar, R_10 = 1)
    assert embedded_step(MM1, ((1,),), ScriptedRng([0.9, 0.3])) == ((),)
    assert embedded_step(MM1, ((1,),), ScriptedRng([0.1])) == ((1, 1),)


def test_embedded_step_scripted_lk_prop():
    # station 1 holds one class-4 job: departure event fires the real exit
    # only with probability beta_4 / beta_bar_1 = 2/4.
    spec = LK_PROP
    state = ((4,), ())
    # event draw 0.35 lands in the D_1 slot (arrival mass is 1/10, D_1 mass 4/10)
    assert embedded_step(spec, state, ScriptedRng([0.35, 0.3])) == ((), ())
    assert embedded_step(spec, state, ScriptedRng([0.35, 0.7])) == state  # self-loop


def test_event_alphabet_probabilities():
    alphabet = event_alphabet(LK_PROP)
    probs = {}
    prev = 0.0
    for cum, kind, idx in alphabet.entries:
        probs[(kind, idx)] = cum - prev
        prev = cum
    assert probs[("A", 1)] == pytest.approx(0.1)
    assert probs[("D", 0)] == pytest.approx(0.4)
    assert probs[("D", 1)] == pytest.approx(0.5)
    assert prev == pytest.approx(1.0)


def _mm1_two_step_oracle():
    """Enumerate the four event sequences of the single queue by hand."""
    p_arrival = 1 / 3
    p_depart = 2 / 3
    outcomes = Counter()
    for first in ("A", "D"):
        for second in ("A", "D"):
            prob = (p_arrival if first == "A" else p_depart) * (
                p_arrival if second == "A" else p_depart
            )
            jobs = 0
            for ev in (first, second):
                if ev == "A":
                    jobs += 1
                elif jobs > 0:
                    jobs -= 1
            outcomes[jobs] += prob
    return dict(outcomes)


def test_exact_two_step_law_matches_enumeration():
    oracle = _mm1_two_step_oracle()
    assert oracle == pytest.approx({0: 6 / 9, 1: 2 / 9, 2: 1 / 9})
    dist = exact_step_distribution(MM1, empty_state(MM1), 2)
    got = {state_norm(s): p for s, p in dist.items()}
    for jobs, prob in oracle.items():
        assert got[jobs] == pytest.approx(prob, abs=1e-12)
    value = expectation(dist, phi_norm)
    frozen = 6 / 9 + (2 / 9) * math.exp(-1) + (1 / 9) * math.exp(-2)
    assert value == pytest.approx(frozen, abs=1e-12)


def test_exact_step_zero_is_point_mass(any_fixture):
    start = empty_state(any_fixture)
    assert exact_step_distribution(any_fixture, start, 0) == {start: 1.0}


def test_exact_budget_guard():
    with pytest.raises(BudgetExceededError):
        exact_step_distribution(MM1, empty_state(MM1), 6, budget=2)


def test_simulate_path_basics(rng):
    assert simulate_path(MM1, ((1,),), 0, rng) == [((1,),)]
    silent = NetworkSpec(1, ((1,),), (0.0,), (5.0,), ((0.0,),), (FCFS_HQ,))
    path = simulate_path(silent, ((),), 50, rng)
    assert all(s == ((),) for s in path)


def test_simulate_path_mm1_occupancy(rng):
    # stationary empty-queue probability of the uniformized chain is 1 - rho
    path = simulate_path(MM1, empty_state(MM1), 10_000, rng)
    tail = path[1_000:]
    frac = sum(1 for s in tail if s == ((),)) / len(tail)
    se = math.sqrt(0.25 / len(tail)) * 5  # generous: samples are correlated
    assert abs(frac - 0.5) < 3 * 0.5 * math.sqrt(40 / len(tail)) + se


def _mm1_truncated_generator(theta, beta, levels=31):
    gen = np.zeros((levels, levels))
    for j in range(levels):
        if j + 1 < levels:
            gen[j, j + 1] = theta
        if j > 0:
            gen[j, j - 1] = beta
        gen[j, j] = -gen[j].sum()
    return gen


def test_transient_matches_expm_oracle():
    # independent route: matrix exponential of the truncated birth-death
    # generator; truncation at level 30 is far beyond reach at t = 1
    gen = _mm1_truncated_generator(1.0, 2.0)
    weights = scipy.linalg.expm(gen)[0]
    oracle = float(weights @ np.exp(-np.arange(31)))
    value = transient_functional(MM1, empty_state(MM1), 1.0, phi_norm, 1e-6)
    assert value == pytest.approx(oracle, abs=1e-6)
    tighter = transient_functional(MM1, empty_state(MM1), 1.0, phi_norm, 1e-10)
    assert tighter == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("x", [1e3, 1e4])
def test_poisson_weights_match_scipy_at_large_means(x):
    # exp(-x) alone underflows for x >= 746; the weights start from the mode
    tol = 1e-8
    weights = np.asarray(poisson_weights(x, tol))
    support = np.arange(len(weights))
    np.testing.assert_allclose(weights, scipy.stats.poisson.pmf(support, x), rtol=1e-9, atol=1e-300)
    assert scipy.stats.poisson.sf(len(weights) - 1, x) < tol


def test_poisson_weights_small_means_and_bad_tolerance():
    assert poisson_weights(0.0, 1e-8) == [1.0]
    weights = np.asarray(poisson_weights(2.5, 1e-12))
    np.testing.assert_allclose(weights, scipy.stats.poisson.pmf(np.arange(len(weights)), 2.5), rtol=1e-13)
    assert 1.0 - weights.sum() < 1e-12
    with pytest.raises(ValueError):
        poisson_weights(1.0, 0.0)


def test_transient_at_long_horizon_reaches_product_form():
    # t = 300 gives lambda t = 900 jumps; M/M/1 at rho = 1/2 has long mixed
    value = transient_functional(MM1, empty_state(MM1), 300.0, phi_norm)
    assert value == pytest.approx(0.5 / (1 - 0.5 / math.e), abs=1e-7)


def test_mass_drift_check_survives_python_O():
    out = run_optimized(
        "from mcqnet.exact import ExactEngine\n"
        "from mcqnet.network import builtin_fixture\n"
        "engine = ExactEngine(builtin_fixture('mm1'))\n"
        "engine._push = lambda support, mass: (support, mass / 2)\n"
        "try:\n"
        "    engine.distribution(((),), 1)\n"
        "except RuntimeError as exc:\n"
        "    print('raised', exc)\n"
    )
    assert "raised mass drifted" in out


def test_transient_edge_cases():
    assert transient_functional(MM1, ((1,),), 0.0, phi_norm) == pytest.approx(math.exp(-1))
    silent = NetworkSpec(1, ((1,),), (0.0,), (5.0,), ((0.0,),), (FCFS_HQ,))
    for t in (0.5, 3.0):
        assert transient_functional(silent, ((),), t, phi_norm) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        transient_functional(MM1, ((),), 1.0, lambda s: 2.0)


def test_kernel_rows_are_distributions(any_fixture):
    engine = ExactEngine(any_fixture)
    lam = uniformization_rate(any_fixture)
    for state in reachable_states(any_fixture, 4):
        entries = engine.kernel(state)
        total = sum(p for _, p in entries)
        assert total == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for _, p in entries)
        # total outflow rate never exceeds the uniformization constant
        out_rate = sum(
            transition_rate(any_fixture, state, TransitionLabel(k, l))
            for k in range(0, any_fixture.class_count + 1)
            for l in range(0, any_fixture.class_count + 1)
            if (k, l) != (0, 0)
        )
        assert out_rate <= lam + 1e-12


def test_arrival_maps_are_monotone(any_fixture):
    for state in reachable_states(any_fixture, 4):
        for k in range(1, any_fixture.class_count + 1):
            grown = apply_transition(any_fixture, state, TransitionLabel(0, k))
            assert is_substate(state, grown)


def test_exact_kernel_matches_reference_rates(any_fixture):
    """The table-built kernel is transition_rate/lambda grouped by target."""
    spec = any_fixture
    lam = uniformization_rate(spec)
    engine = ExactEngine(spec)
    labels = [
        TransitionLabel(k, l)
        for k in range(spec.class_count + 1)
        for l in range(spec.class_count + 1)
        if (k, l) != (0, 0)
    ]
    for state in reachable_states(spec, 3):
        expected = {}
        for label in labels:
            p = transition_rate(spec, state, label) / lam
            if p > 0:
                target = apply_transition(spec, state, label)
                expected[target] = expected.get(target, 0.0) + p
        rest = 1.0 - sum(expected.values())
        if rest > 1e-15:
            expected[state] = expected.get(state, 0.0) + rest
        kernel = dict(engine.kernel(state))
        assert kernel.keys() == expected.keys(), state
        for target, p in expected.items():
            assert kernel[target] == pytest.approx(p, abs=1e-14), (state, target)


def _frequencies(spec, state, draws, rng):
    alphabet = event_alphabet(spec)
    counts = Counter()
    for _ in range(draws):
        counts[embedded_step(spec, state, rng, alphabet)] += 1
    return counts


@pytest.mark.parametrize("name", ["mm1", "tandem2"])
def test_kernel_consistency_small_networks(name, rng):
    spec = builtin_fixture(name)
    draws = 100_000
    for state in sorted(reachable_states(spec, 3)):
        counts = _frequencies(spec, state, draws, rng)
        exact = exact_step_distribution(spec, state, 1)
        for target, prob in exact.items():
            se = math.sqrt(max(prob * (1 - prob), 1e-12) / draws)
            assert abs(counts[target] / draws - prob) < 4 * se + 1e-9, (state, target)


@pytest.mark.parametrize("name", ["lk-prop", "lk-sbp", "fcfs-reentrant"])
def test_kernel_consistency_reentrant_networks(name, rng):
    # representative states rather than the whole norm<=3 ball, to keep the
    # unit suite quick; the acceptance suite exercises the full sampler-vs-
    # exact agreement statistically.
    spec = builtin_fixture(name)
    states = [
        empty_state(spec),
        ((1,), ()),
        ((4,), ()),
        ((), (2,)),
        ((), (3,)),
        ((1, 4), (2,)),
        ((4, 1), (3, 2)),
    ]
    draws = 50_000
    for state in states:
        counts = _frequencies(spec, state, draws, rng)
        exact = exact_step_distribution(spec, state, 1)
        for target, prob in exact.items():
            se = math.sqrt(max(prob * (1 - prob), 1e-12) / draws)
            assert abs(counts[target] / draws - prob) < 4 * se + 1e-9, (state, target)


def test_jackson_strong_monotonicity_exact():
    # two-station tandem: componentwise-ordered starts keep the ordering of
    # E[indicator(state >= y)] under the n-step kernel for every threshold y
    spec = builtin_fixture("tandem2")
    engine = ExactEngine(spec)
    states = sorted(reachable_states(spec, 3))

    def counts(s):
        return (len(s[0]), len(s[1]))

    dists = {s: [engine.distribution(s, n) for n in range(7)] for s in states}
    thresholds = [counts(s) for s in states]
    for x in states:
        for z in states:
            cx, cz = counts(x), counts(z)
            if not (cx[0] <= cz[0] and cx[1] <= cz[1]):
                continue
            for n in range(7):
                for y in thresholds:
                    px = sum(
                        p for s, p in dists[x][n].items()
                        if counts(s)[0] >= y[0] and counts(s)[1] >= y[1]
                    )
                    pz = sum(
                        p for s, p in dists[z][n].items()
                        if counts(s)[0] >= y[0] and counts(s)[1] >= y[1]
                    )
                    assert px <= pz + 1e-10


def test_norm_cdf_dominance_small():
    # one extra job can only push the total-count law upward (HQ regime)
    spec = builtin_fixture("fcfs-reentrant")
    engine = ExactEngine(spec)
    for zeta in (((1,), ()), ((4,), ()), ((), (2,))):
        base = engine.distribution(empty_state(spec), 6)
        grown = engine.distribution(zeta, 6)
        top = max(state_norm(s) for s in list(base) + list(grown))
        for up, low in zip(norm_cdf(grown, top), norm_cdf(base, top)):
            assert up <= low + 1e-9


def test_lumpability_full_vs_reduced():
    spec = builtin_fixture("lk-sbp")
    full = ExactEngine(spec, reduced=False)
    reduced = ExactEngine(spec, reduced=True)
    for start in (empty_state(spec), ((1,), ()), ((4, 1), (2,))):
        for n in (3, 6):
            dist_full = full.distribution(start, n)
            projected = {}
            for s, p in dist_full.items():
                key = canonicalize_state(spec, s)
                projected[key] = projected.get(key, 0.0) + p
            dist_reduced = reduced.distribution(start, n)
            assert set(projected) == set(dist_reduced)
            for s, p in projected.items():
                assert p == pytest.approx(dist_reduced[s], abs=1e-10)
    # the reduction genuinely shrinks the support
    deep_full = len(full.distribution(empty_state(spec), 8))
    deep_reduced = len(reduced.distribution(empty_state(spec), 8))
    assert deep_reduced < deep_full


def test_canonicalize_state():
    lk = builtin_fixture("lk-sbp")
    assert canonicalize_state(lk, ((4, 1, 4), (3, 2))) == ((1, 4, 4), (2, 3))
    fcfs = builtin_fixture("fcfs-reentrant")
    assert canonicalize_state(fcfs, ((4, 1), (3, 2))) == ((4, 1), (3, 2))


def test_reachable_states_mm1():
    states = reachable_states(MM1, 3)
    assert states == {((),), ((1,),), ((1, 1),), ((1, 1, 1),)}


def test_reachable_states_fcfs_orders():
    states = reachable_states(builtin_fixture("fcfs-reentrant"), 2)
    # both service orders at station 1 arise: a fresh arrival queues behind a
    # recirculated job and vice versa
    assert ((1, 4), ()) in states
    assert ((4, 1), ()) in states
    assert ((), (3, 2)) in states
