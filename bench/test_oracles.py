"""Textbook checks of the benchmark's reference computations.

Run with ``python3 -m pytest bench/test_oracles.py`` from the repository root.
These oracles judge mcqnet's outputs, so they are tested against closed forms
and against each other, never against mcqnet.
"""

import math

import pytest

import oracles as o

MM1 = o.Net((1.0,), (2.0,), ((0.0,),), ((1,),), ("hq",), (None,))
TANDEM = o.Net(
    (1.0, 0.0), (2.0, 2.5), ((0.0, 1.0), (0.0, 0.0)), ((1,), (2,)), ("hq", "hq"), (None, None)
)
REENTRANT = dict(
    beta=(4.0, 3.0, 5.0, 2.0),
    routing=((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
    stations=((1, 4), (2, 3)),
)


def reentrant(allocation, ranking=(None, None), theta=(1.0, 0.0, 0.0, 0.0)):
    return o.Net(theta, REENTRANT["beta"], REENTRANT["routing"], REENTRANT["stations"],
                 allocation, ranking)


def nth(laws, n):
    for m, law in enumerate(laws):
        if m == n:
            return law


def test_mm1_two_step_law():
    law = nth(o.count_laws(MM1, 2), 2)
    assert law[(0,)] == pytest.approx(6 / 9, abs=1e-15)
    assert law[(1,)] == pytest.approx(2 / 9, abs=1e-15)
    assert law[(2,)] == pytest.approx(1 / 9, abs=1e-15)
    ordered = nth(o.ordered_laws(MM1, 2), 2)
    assert ordered[((1, 1),)] == pytest.approx(1 / 9, abs=1e-15)


def test_mm1_equilibrium_at_half_load():
    assert o.product_form_phi([0.5], 1.0) == pytest.approx(0.6127, abs=5e-5)
    assert o.station_loads(MM1).tolist() == [0.5]


def test_roots_agree_with_closed_form():
    root = o.ray_root(MM1, (1.0,), 0.2, 1.0)
    assert root == pytest.approx(o.mm1_root(1.0, 2.0, 0.2, 1.0), abs=1e-10)
    assert root == pytest.approx(1.727, abs=5e-4)
    assert o.subcritical_bound(MM1, (1.0,)) == pytest.approx(2.0)


def test_jackson_traffic_equations():
    assert o.station_loads(reentrant(("proportional",) * 2)).tolist() == pytest.approx(
        [0.75, 1 / 3 + 1 / 5]
    )
    assert o.subcritical_bound(TANDEM, (1.0, 1.0)) == pytest.approx(2.5 / 2)


def test_count_chain_settles_to_product_form():
    law = nth(o.count_laws(TANDEM, 150), 150)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    exact = o.product_form_phi(o.station_loads(TANDEM), 1.0)
    assert o.phi_of_law(law, 1.0) == pytest.approx(exact, abs=1e-4)


def test_ordered_and_count_chains_agree_where_order_is_irrelevant():
    # FCFS head-of-queue on one class per station: orders carry no information
    for m, (a, b) in enumerate(zip(o.count_laws(TANDEM, 12), o.ordered_laws(TANDEM, 12))):
        assert o.phi_of_law(a, 0.7) == pytest.approx(o.phi_of_law(b, 0.7, o.ordered_norm), abs=1e-14)


def test_preferential_station_serves_top_class_only():
    net = reentrant(("preferential",) * 2, ((4, 1), (2, 3)))
    moves = dict(o.count_transitions(net, (1, 0, 0, 1)))
    assert (1, 0, 0, 0) in moves and (0, 1, 0, 1) not in moves


def test_truncated_expm_matches_equilibrium_and_drain():
    values, bound = o.transient_phi(MM1, (0,), [60.0], 1.0, max_norm=150)
    assert bound < 1e-12
    assert values[0] == pytest.approx(0.6127, abs=5e-5)
    drained = TANDEM.with_theta((0.0, 0.0))
    values, bound = o.transient_phi(drained, (4, 4), [0.0, 200.0], 1.0, max_norm=8)
    assert bound == 0.0
    assert values == pytest.approx([math.exp(-8.0), 1.0], abs=1e-12)


def test_busy_period_mean_against_the_embedded_walk():
    # the lower copy of the M/M/1 coupling starts empty; tau is the first
    # departure event that finds it empty. Propagate that walk exactly.
    up, down = 1 / 3, 2 / 3
    alive = {0: 1.0}
    mean = 0.0
    for _ in range(400):
        mean += sum(alive.values())
        nxt = {}
        for x, p in alive.items():
            nxt[x + 1] = nxt.get(x + 1, 0.0) + p * up
            if x:
                nxt[x - 1] = nxt.get(x - 1, 0.0) + p * down
        alive = nxt
    assert o.busy_period_mean(1.0, 2.0) == pytest.approx(mean, abs=1e-9)
    assert mean == pytest.approx(3.0, abs=1e-9)
