"""Network specification, routing algebra and built-in example networks.

A network has d job classes partitioned over stations, per-class Poisson
arrival rates theta and exponential service rates beta, and a substochastic
routing matrix R (row deficits are exit probabilities). Every structural
check (sizes, class cover, finite rates, routing entries and row sums,
rankings that cover their station) runs when a ``NetworkSpec`` is made, so
direct construction, ``dataclasses.replace``, ``with_theta`` and
``spec_from_dict`` give only well-formed specs. The built-in networks are
spec documents read by the same ``spec_from_dict`` as spec files.

``validate`` is the routing analysis: the effective arrival rates
gamma = (I - R')^{-1} theta, the per-station nominal workload
rho_i = sum_{k at i} gamma_k / beta_k, a transience certificate for R and
the irreducibility flag gamma > 0.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .allocation import ServiceAllocation, StationProtocol
from .configurations import PriorityRanking, QueuePolicy
from .errors import (
    DimensionMismatchError,
    NegativeRateError,
    NonTransientRoutingError,
    UnknownFixtureError,
)

_TOL = 1e-12


@dataclass(frozen=True)
class NetworkSpec:
    class_count: int
    stations: tuple[tuple[int, ...], ...]
    theta: tuple[float, ...]
    beta: tuple[float, ...]
    routing: tuple[tuple[float, ...], ...]
    protocols: tuple[StationProtocol, ...]
    # class -> 0-based station index, derived in __post_init__
    _station_of: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.class_count
        if d < 1:
            raise DimensionMismatchError("need at least one class")
        if len(self.theta) != d or len(self.beta) != d:
            raise DimensionMismatchError("theta/beta length must equal the class count")
        if len(self.routing) != d or any(len(row) != d for row in self.routing):
            raise DimensionMismatchError("routing matrix must be d x d")
        if len(self.protocols) != len(self.stations):
            raise DimensionMismatchError("one protocol per station required")
        lookup = [-1] * (d + 1)
        for i, classes in enumerate(self.stations):
            for k in classes:
                if not 1 <= k <= d:
                    raise DimensionMismatchError(f"class {k} outside 1..{d}")
                if lookup[k] != -1:
                    raise DimensionMismatchError(f"class {k} assigned to two stations")
                lookup[k] = i
        if any(s == -1 for s in lookup[1:]):
            raise DimensionMismatchError("stations do not cover every class")
        if not all(math.isfinite(t) and t >= 0 for t in self.theta):
            raise NegativeRateError("arrival rates must be nonnegative and finite")
        if not all(math.isfinite(b) and b > 0 for b in self.beta):
            raise NegativeRateError("service rates must be positive and finite")
        for k, row in enumerate(self.routing, start=1):
            # written so that NaN fails the comparison
            if not all(-_TOL <= x <= 1 + _TOL for x in row):
                raise ValueError(f"routing entries of class {k} outside [0, 1]")
            if sum(row) > 1 + 1e-9:
                raise ValueError(f"routing row of class {k} sums above 1")
        for i, protocol in enumerate(self.protocols):
            classes = frozenset(self.stations[i])
            for ranking in (protocol.policy.ranking, protocol.allocation.ranking):
                if ranking is not None and ranking.classes != classes:
                    raise ValueError(
                        f"ranking at station {i + 1} must cover exactly its classes {sorted(classes)}"
                    )
        object.__setattr__(self, "_station_of", tuple(lookup))

    @property
    def station_count(self) -> int:
        return len(self.stations)

    def station_of(self, k: int) -> int:
        return self._station_of[k]

    def exit_probability(self, k: int) -> float:
        return 1.0 - sum(self.routing[k - 1])

    def with_theta(self, theta) -> "NetworkSpec":
        return replace(self, theta=tuple(float(x) for x in theta))

    def scale_theta(self, a: float) -> "NetworkSpec":
        return self.with_theta(tuple(a * x for x in self.theta))


@dataclass(frozen=True)
class RoutingAnalysis:
    effective_rates: tuple[float, ...]
    workload: tuple[float, ...]
    irreducible: bool
    transient: bool
    decay_power: int  # power of R certified entrywise below 1e-12


def _transience_power(routing: np.ndarray) -> int:
    """Smallest 2^p with max|R^(2^p)| < 1e-12, or -1 if none within 64 doublings."""
    m = routing.copy()
    for p in range(64):
        top = float(np.abs(m).max())
        if top < _TOL:
            return 2**p if p else 1
        if not np.isfinite(top) or top > 1e12:
            return -1
        m = m @ m
    return -1


def validate(spec: NetworkSpec) -> RoutingAnalysis:
    """The routing analysis of a spec: the transience certificate, the traffic
    equations and the station workloads. Raises ``NonTransientRoutingError``
    when the routing does not vanish or the traffic equations are
    ill-conditioned; the structure was checked when the spec was made."""
    routing = np.array(spec.routing, dtype=float)
    power = _transience_power(routing)
    if power < 0:
        raise NonTransientRoutingError("routing matrix not transient: powers do not vanish")
    d = spec.class_count
    theta = np.array(spec.theta, dtype=float)
    system = np.eye(d) - routing.T
    gamma = np.linalg.solve(system, theta)
    residual = float(np.abs(system @ gamma - theta).max())
    if residual > 1e-10:
        raise NonTransientRoutingError(f"traffic equations ill-conditioned (residual {residual:.2e})")
    beta = np.array(spec.beta, dtype=float)
    workload = tuple(
        float(sum(gamma[k - 1] / beta[k - 1] for k in classes)) for classes in spec.stations
    )
    return RoutingAnalysis(
        effective_rates=tuple(float(g) for g in gamma),
        workload=workload,
        irreducible=bool((gamma > _TOL).all()),
        transient=True,
        decay_power=power,
    )


def workload_matrix(spec: NetworkSpec) -> np.ndarray:
    """Matrix C with rho(theta) = C theta; row i is station i's workload functional."""
    d = spec.class_count
    routing = np.array(spec.routing, dtype=float)
    inv = np.linalg.inv(np.eye(d) - routing.T)
    c = np.zeros((spec.station_count, d))
    for i, classes in enumerate(spec.stations):
        for k in classes:
            c[i] += inv[k - 1] / spec.beta[k - 1]
    return c


# ---------------------------------------------------------------------------
# Built-in networks

_FCFS_HQ = {"policy": "fcfs", "allocation": "hq"}
# two stations {1, 4} and {2, 3}, deterministic routing 1 -> 2 -> 3 -> 4 -> exit
_REENTRANT_LINE = {
    "classes": 4,
    "stations": [[1, 4], [2, 3]],
    "routing": [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0] * 4],
}
# the spec documents of the built-in networks, in the form spec_to_dict writes
_FIXTURES = {
    "mm1": {
        "classes": 1,
        "stations": [[1]],
        "theta": [1.0],
        "beta": [2.0],
        "routing": [[0.0]],
        "protocols": [_FCFS_HQ],
    },
    "tandem2": {
        "classes": 2,
        "stations": [[1], [2]],
        "theta": [1.0, 0.0],
        "beta": [2.0, 2.5],
        "routing": [[0.0, 1.0], [0.0, 0.0]],
        "protocols": [_FCFS_HQ, _FCFS_HQ],
    },
    "lk-prop": {
        **_REENTRANT_LINE,
        "theta": [1.0, 0.0, 0.0, 0.0],
        "beta": [4.0, 3.0, 5.0, 2.0],
        "protocols": [{"policy": "fcfs", "allocation": "proportional"}] * 2,
    },
    "lk-sbp": {
        **_REENTRANT_LINE,
        "theta": [0.1, 0.0, 0.0, 0.0],
        "beta": [0.8, 0.3, 0.8, 0.3],
        "protocols": [
            {"policy": "fcfs", "allocation": "preferential", "ranking": [4, 1]},
            {"policy": "fcfs", "allocation": "preferential", "ranking": [2, 3]},
        ],
    },
    "fcfs-reentrant": {
        **_REENTRANT_LINE,
        "theta": [0.04, 0.0, 0.0, 0.0],
        "beta": [0.16, 0.12, 0.2, 0.08],
        "protocols": [_FCFS_HQ, _FCFS_HQ],
    },
}
FIXTURE_NAMES = tuple(_FIXTURES)


def builtin_fixture(name: str) -> NetworkSpec:
    """Named example networks used throughout the tests and demos, read from
    their spec documents by ``spec_from_dict``.

    mm1            single class, FCFS.
    tandem2        two single-class stations in series.
    lk-prop        the two-station reentrant line (Lu & Kumar) with
                   proportional allocation.
    lk-sbp         same line under preemptive priorities (preferential
                   allocation: class 4 over 1, class 2 over 3).
    fcfs-reentrant same line, FCFS head-of-queue everywhere.
    """
    if name not in _FIXTURES:
        raise UnknownFixtureError(f"unknown fixture {name!r}")
    return spec_from_dict(_FIXTURES[name])


# ---------------------------------------------------------------------------
# JSON interchange

def _ranking_to_json(ranking: PriorityRanking | None):
    if ranking is None:
        return None
    if ranking.is_total:
        return list(ranking.order)
    return [sorted(c) for c in ranking.castes]


def _ranking_from_json(data) -> PriorityRanking:
    if all(isinstance(x, int) for x in _list(data)):
        return PriorityRanking.total(tuple(map(_integer, data)))
    return PriorityRanking.from_lists([tuple(map(_integer, _list(c))) for c in data])


def spec_to_dict(spec: NetworkSpec) -> dict:
    """JSON form of ``spec``. It holds one ranking per station, read back by
    both an SBP policy and a preferential allocation, so a station whose two
    rankings differ raises ``ValueError``."""
    protocols = []
    for i, protocol in enumerate(spec.protocols, start=1):
        entry: dict = {
            "policy": protocol.policy.kind,
            "allocation": protocol.allocation.kind,
        }
        ranking = protocol.policy.ranking or protocol.allocation.ranking
        if protocol.allocation.ranking not in (None, ranking):
            raise ValueError(
                f"station {i}: the policy and allocation rankings differ, and a spec "
                "document holds one ranking per station"
            )
        if ranking is not None:
            entry["ranking"] = _ranking_to_json(ranking)
        protocols.append(entry)
    return {
        "classes": spec.class_count,
        "stations": [list(s) for s in spec.stations],
        "theta": list(spec.theta),
        "beta": list(spec.beta),
        "routing": [list(row) for row in spec.routing],
        "protocols": protocols,
    }


def _require(data, keys, where: str) -> None:
    """Raise ``ValueError`` naming the first of ``keys`` the JSON object lacks."""
    for key in keys:
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"{where} has no {key!r} entry")


def spec_from_dict(data: dict) -> NetworkSpec:
    _require(data, ("classes", "stations", "theta", "beta", "routing", "protocols"), "the spec")
    protocols = []
    for i, entry in enumerate(_read(data, "protocols", _list), start=1):
        _require(entry, ("policy", "allocation"), f"protocol {i}")
        with _reading(f"protocol {i}"):
            ranking = _ranking_from_json(entry["ranking"]) if "ranking" in entry else None
            kind = entry["policy"]
            policy = QueuePolicy(kind, ranking if kind == "sbp" else None)
            alloc_kind = entry["allocation"]
            allocation = ServiceAllocation(
                alloc_kind, ranking if alloc_kind == "preferential" else None
            )
        protocols.append(StationProtocol(policy, allocation))
    return NetworkSpec(
        class_count=_read(data, "classes", _integer),
        stations=_read(
            data, "stations", lambda v: tuple(tuple(map(_integer, _list(s))) for s in _list(v))
        ),
        theta=_read(data, "theta", _floats),
        beta=_read(data, "beta", _floats),
        routing=_read(data, "routing", lambda v: tuple(_floats(row) for row in _list(v))),
        protocols=tuple(protocols),
    )


def _list(values) -> list | tuple:
    """``values`` itself if it is a list; a string, which iterates by character, is not."""
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list, got {values!r}")
    return values


def _integer(value) -> int:
    """``value`` if it is an integer; 1.7, "1" and True are not."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _number(value) -> float:
    """``value`` as a float if it is a real number; "1" and True are not."""
    # int and float come first in the tuple: the check against the ABC is slow
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _floats(values) -> tuple[float, ...]:
    return tuple(map(_number, _list(values)))


@contextlib.contextmanager
def _reading(where: str):
    """Raise a ``TypeError`` or ``ValueError`` from reading an entry of the wrong
    type or value as a ``ValueError`` naming the entry."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} is malformed: {exc}") from None


def _read(data: dict, key: str, convert):
    """``convert(data[key])``, failing with a ``ValueError`` that names the entry."""
    with _reading(f"the spec's {key!r} entry"):
        return convert(data[key])


def dump_spec(spec: NetworkSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spec(path) -> NetworkSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))
