"""Network validation, routing algebra and the JSON interchange format."""

import dataclasses

import numpy as np
import pytest

from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import PriorityRanking, QueuePolicy
from mcqnet.errors import (
    DimensionMismatchError,
    NegativeRateError,
    NonTransientRoutingError,
    UnknownFixtureError,
)
from mcqnet.network import (
    FIXTURE_NAMES,
    NetworkSpec,
    builtin_fixture,
    dump_spec,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    validate,
    workload_matrix,
)

FCFS_HQ = StationProtocol(QueuePolicy.fcfs(), ServiceAllocation.head_of_queue())


def test_lk_line_traffic_solution():
    # deterministic chain routing: solving (I - R') gamma = theta by forward
    # substitution gives gamma_k = theta for every stage k
    spec = builtin_fixture("lk-prop")
    analysis = validate(spec)
    assert analysis.effective_rates == pytest.approx((1.0, 1.0, 1.0, 1.0))
    theta = spec.theta[0]
    b = spec.beta
    assert analysis.workload[0] == pytest.approx(theta * (1 / b[0] + 1 / b[3]))
    assert analysis.workload[1] == pytest.approx(theta * (1 / b[1] + 1 / b[2]))
    assert analysis.irreducible and analysis.transient


def test_mm1_analysis():
    analysis = validate(builtin_fixture("mm1"))
    assert analysis.effective_rates == pytest.approx((1.0,))
    assert analysis.workload == pytest.approx((0.5,))
    assert analysis.irreducible


def test_stochastic_cycle_is_rejected():
    spec = NetworkSpec(
        class_count=2,
        stations=((1,), (2,)),
        theta=(1.0, 0.0),
        beta=(1.0, 1.0),
        routing=((0.0, 1.0), (1.0, 0.0)),  # 1 <-> 2 forever
        protocols=(FCFS_HQ, FCFS_HQ),
    )
    with pytest.raises(NonTransientRoutingError):
        validate(spec)


def test_traffic_equations_residual(any_fixture):
    analysis = validate(any_fixture)
    gamma = np.array(analysis.effective_rates)
    routing = np.array(any_fixture.routing)
    residual = gamma - (np.array(any_fixture.theta) + routing.T @ gamma)
    assert np.abs(residual).max() < 1e-10


def test_jackson_specialization():
    spec = builtin_fixture("tandem2")
    analysis = validate(spec)
    for i, classes in enumerate(spec.stations):
        k = classes[0]
        assert analysis.workload[i] == pytest.approx(
            analysis.effective_rates[k - 1] / spec.beta[k - 1]
        )


def test_scaling_property():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        routing = rng.random((d, d))
        routing *= 0.9 / np.maximum(routing.sum(axis=1, keepdims=True), 1e-9)
        theta = rng.random(d)
        beta = rng.random(d) + 0.5
        spec = NetworkSpec(
            class_count=d,
            stations=tuple((k,) for k in range(1, d + 1)),
            theta=tuple(theta),
            beta=tuple(beta),
            routing=tuple(tuple(row) for row in routing),
            protocols=(FCFS_HQ,) * d,
        )
        base = validate(spec)
        c = 3.7
        scaled = validate(spec.scale_theta(c))
        assert np.allclose(scaled.effective_rates, c * np.array(base.effective_rates))
        assert np.allclose(scaled.workload, c * np.array(base.workload))


def test_fixture_names_and_unknown():
    for name in FIXTURE_NAMES:
        validate(builtin_fixture(name))
    with pytest.raises(UnknownFixtureError):
        builtin_fixture("bogus")


def test_fixture_protocols():
    lk_prop = builtin_fixture("lk-prop")
    assert all(p.allocation.kind == "proportional" for p in lk_prop.protocols)
    lk_sbp = builtin_fixture("lk-sbp")
    assert all(p.allocation.kind == "preferential" for p in lk_sbp.protocols)
    r1 = lk_sbp.protocols[0].allocation.ranking
    assert r1.outranks(4, 1)
    r2 = lk_sbp.protocols[1].allocation.ranking
    assert r2.outranks(2, 3)
    fcfs = builtin_fixture("fcfs-reentrant")
    assert all(p.allocation.kind == "hq" and p.policy.kind == "fcfs" for p in fcfs.protocols)


@pytest.mark.parametrize("theta", [(-1.0, 0.0), (1.0, float("nan")), (float("inf"), 0.0)])
def test_bad_arrival_rates_are_rejected_when_set(theta):
    # with_theta raises what validate raises, so a scaled spec cannot skip the check
    tandem = builtin_fixture("tandem2")
    with pytest.raises(NegativeRateError, match="arrival rates"):
        tandem.with_theta(theta)
    with pytest.raises(NegativeRateError, match="arrival rates"):
        validate(dataclasses.replace(tandem, theta=theta))


def test_validation_errors():
    good = builtin_fixture("tandem2")
    with pytest.raises(NegativeRateError):
        validate(good.with_theta((-1.0, 0.0)))
    with pytest.raises(NegativeRateError):
        good.scale_theta(-1.0)
    with pytest.raises(NegativeRateError):
        validate(
            NetworkSpec(1, ((1,),), (1.0,), (0.0,), ((0.0,),), (FCFS_HQ,))
        )
    with pytest.raises(DimensionMismatchError):
        NetworkSpec(2, ((1,),), (1.0, 0.0), (1.0, 1.0), ((0.0, 0.0), (0.0, 0.0)), (FCFS_HQ,))
    with pytest.raises(DimensionMismatchError):
        NetworkSpec(2, ((1, 2), (2,)), (1.0, 0.0), (1.0, 1.0), ((0.0,) * 2,) * 2, (FCFS_HQ,) * 2)
    with pytest.raises(ValueError):
        validate(
            NetworkSpec(
                1, ((1,),), (1.0,), (1.0,), ((1.5,),), (FCFS_HQ,)
            )
        )


def test_ranking_must_cover_station_classes():
    with pytest.raises(ValueError):
        NetworkSpec(
            class_count=2,
            stations=((1, 2),),
            theta=(1.0, 0.0),
            beta=(1.0, 1.0),
            routing=((0.0, 0.0), (0.0, 0.0)),
            protocols=(
                StationProtocol(
                    QueuePolicy.fcfs(),
                    ServiceAllocation.preferential(PriorityRanking.total((1,))),
                ),
            ),
        )


NAN, INF = float("nan"), float("inf")
# a preferential ranking of class 2 at station 1 of tandem2, which serves class 1 only
UNCOVERED = StationProtocol(
    QueuePolicy.fcfs(), ServiceAllocation.preferential(PriorityRanking.total((2,)))
)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("beta", (NAN, 2.5), "service rates must be positive and finite"),
        ("beta", (2.0, INF), "service rates must be positive and finite"),
        ("routing", ((0.0, NAN), (0.0, 0.0)), "routing entries of class 1 outside"),
        ("theta", (-1.0, 0.0), "arrival rates must be nonnegative"),
        ("theta", (NAN, 0.0), "arrival rates must be nonnegative"),
        ("protocols", (UNCOVERED, FCFS_HQ), "ranking at station 1 must cover"),
    ],
)
def test_every_way_of_making_a_spec_runs_the_checks(field, value, message):
    # a NaN or infinite service rate and a NaN routing entry passed every check
    # before; the other defects were caught only by validate or with_theta
    good = builtin_fixture("tandem2")
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(good) if f.init}
    with pytest.raises(ValueError, match=message):
        NetworkSpec(**{**fields, field: value})
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(good, **{field: value})
    if field == "theta":
        with pytest.raises(ValueError, match=message):
            good.with_theta(value)


def test_workload_matrix_matches_validate(any_fixture):
    analysis = validate(any_fixture)
    c = workload_matrix(any_fixture)
    assert np.allclose(c @ np.array(any_fixture.theta), analysis.workload)


def test_json_round_trip(tmp_path, any_fixture):
    path = tmp_path / "spec.json"
    dump_spec(any_fixture, path)
    again = load_spec(path)
    assert again == any_fixture
    assert spec_from_dict(spec_to_dict(again)) == any_fixture


def test_dump_rejects_two_rankings_at_one_station(tmp_path):
    # the JSON form holds one ranking per station; it would come back as (1, 4) twice
    line = builtin_fixture("lk-sbp")
    mixed = StationProtocol(
        QueuePolicy.sbp(PriorityRanking.total((1, 4))),
        ServiceAllocation.preferential(PriorityRanking.total((4, 1))),
    )
    spec = dataclasses.replace(line, protocols=(mixed, line.protocols[1]))
    with pytest.raises(ValueError, match="station 1: the policy and allocation rankings differ"):
        spec_to_dict(spec)
    with pytest.raises(ValueError):
        dump_spec(spec, tmp_path / "spec.json")


def test_spec_from_dict_names_a_missing_key():
    data = spec_to_dict(builtin_fixture("lk-sbp"))
    for key in ("protocols", "routing"):
        partial = {k: v for k, v in data.items() if k != key}
        with pytest.raises(ValueError, match=f"the spec has no '{key}' entry"):
            spec_from_dict(partial)
    data["protocols"][1] = {"policy": "fcfs"}
    with pytest.raises(ValueError, match="protocol 2 has no 'allocation' entry"):
        spec_from_dict(data)
    with pytest.raises(ValueError, match="the spec has no 'classes' entry"):
        spec_from_dict([1, 2])


@pytest.mark.parametrize(
    "key,value,where",
    [
        ("stations", 5, "the spec's 'stations' entry"),
        ("stations", [[1, "x"]], "the spec's 'stations' entry"),
        ("classes", [4], "the spec's 'classes' entry"),
        ("theta", None, "the spec's 'theta' entry"),
        ("beta", {"a": 1}, "the spec's 'beta' entry"),
        ("routing", [1, 2], "the spec's 'routing' entry"),
        ("protocols", 3, "the spec's 'protocols' entry"),
        # a string where a list belongs, read character by character before
        ("theta", "1000", "the spec's 'theta' entry"),
        ("beta", "8383", "the spec's 'beta' entry"),
        ("routing", ["0100", "0010", "0001", "0000"], "the spec's 'routing' entry"),
        ("stations", ["14", "23"], "the spec's 'stations' entry"),
        ("protocols", "ab", "the spec's 'protocols' entry"),
        # a non-integer class count or class id, truncated to an integer before
        ("classes", 4.7, "the spec's 'classes' entry"),
        ("classes", "4", "the spec's 'classes' entry"),
        ("classes", True, "the spec's 'classes' entry"),
        ("stations", [[1, 4], [2, 3.9]], "the spec's 'stations' entry"),
        ("stations", [[1, "4"], [2, 3]], "the spec's 'stations' entry"),
        # a string or boolean rate, read as 1.0, 1.0 and 0.0 before
        ("theta", ["1"], "the spec's 'theta' entry"),
        ("beta", [True], "the spec's 'beta' entry"),
        ("routing", [["0"]], "the spec's 'routing' entry"),
    ],
)
def test_spec_from_dict_names_a_wrong_type_entry(key, value, where):
    # each raised TypeError (or an unnamed ValueError) while converting, or was
    # read without complaint as another value
    data = spec_to_dict(builtin_fixture("lk-sbp"))
    data[key] = value
    with pytest.raises(ValueError, match=f"^{where} is malformed"):
        spec_from_dict(data)


def test_spec_from_dict_names_a_malformed_protocol():
    data = spec_to_dict(builtin_fixture("lk-sbp"))
    data["protocols"][1]["ranking"] = 5
    with pytest.raises(ValueError, match="^protocol 2 is malformed"):
        spec_from_dict(data)


@pytest.mark.parametrize("ranking", [[True, 4], [[4.0], [1.0]], [[4], ["1"]], "41"])
def test_spec_from_dict_rejects_a_ranking_of_non_integer_classes(ranking):
    # [[4.0], [1.0]] and [True, 4] were read as rankings of 4.0 over 1.0 and of True over 4
    data = spec_to_dict(builtin_fixture("lk-sbp"))
    data["protocols"][0]["ranking"] = ranking
    with pytest.raises(ValueError, match="^protocol 1 is malformed"):
        spec_from_dict(data)


def test_theta_is_overridable():
    spec = builtin_fixture("mm1")
    assert spec.scale_theta(2.0).theta == (2.0,)
    assert spec.with_theta((0.25,)).theta == (0.25,)
    # beta, routing, protocols untouched
    assert spec.scale_theta(2.0).beta == spec.beta
