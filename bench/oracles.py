"""Reference computations made apart from mcqnet's samplers and engines.

Every function here works on a plain ``Net`` description (rates, routing,
station membership and service discipline) and uses only numpy and scipy, so
a fault in mcqnet's exact engine, sampler or stability code cannot leak into
the value it is checked against. ``net_from_spec`` reads the fields of a
``NetworkSpec`` and nothing else.

Chains are the ones mcqnet defines: the continuous-time network chain and its
embedded chain uniformized at lambda = sum(theta) + sum_i max_{k at i} beta_k.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

# scipy is imported inside the functions that use it: the oracles run after
# the timed rounds, and importing it up front would inflate measured set-up.


class Net(NamedTuple):
    theta: tuple[float, ...]
    beta: tuple[float, ...]
    routing: tuple[tuple[float, ...], ...]  # routing[k-1][l-1]; row deficit = exit
    stations: tuple[tuple[int, ...], ...]  # classes (1-based) held at each station
    allocation: tuple[str, ...]  # "hq", "proportional", "preferential", "egalitarian"
    ranking: tuple[tuple[int, ...] | None, ...]  # preferential order, highest first

    @property
    def classes(self) -> int:
        return len(self.theta)

    def station_of(self, k: int) -> int:
        return next(i for i, cls in enumerate(self.stations) if k in cls)

    def with_theta(self, theta) -> "Net":
        return self._replace(theta=tuple(float(x) for x in theta))


def net_from_spec(spec) -> Net:
    """Plain description of a NetworkSpec, read from its public fields."""
    ranking = []
    for protocol in spec.protocols:
        r = protocol.allocation.ranking
        ranking.append(tuple(next(iter(c)) for c in r.castes) if r is not None else None)
    for protocol, classes in zip(spec.protocols, spec.stations):
        if protocol.allocation.kind == "hq" and len(classes) > 1 and protocol.policy.kind != "fcfs":
            raise ValueError("the ordered-buffer oracle covers FCFS head-of-queue only")
    return Net(
        theta=tuple(float(x) for x in spec.theta),
        beta=tuple(float(x) for x in spec.beta),
        routing=tuple(tuple(float(x) for x in row) for row in spec.routing),
        stations=tuple(tuple(s) for s in spec.stations),
        allocation=tuple(p.allocation.kind for p in spec.protocols),
        ranking=tuple(ranking),
    )


# ---------------------------------------------------------------------------
# Traffic equations, product forms and their roots

def effective_rates(net: Net, theta=None) -> np.ndarray:
    """gamma solving gamma_l = theta_l + sum_k gamma_k R_kl."""
    theta = np.asarray(net.theta if theta is None else theta, dtype=float)
    r = np.asarray(net.routing, dtype=float)
    return np.linalg.solve(np.eye(net.classes) - r.T, theta)


def station_loads(net: Net, theta=None) -> np.ndarray:
    gamma = effective_rates(net, theta)
    return np.array([sum(gamma[k - 1] / net.beta[k - 1] for k in cls) for cls in net.stations])


def product_form_phi(loads, alpha: float) -> float:
    """E[exp(-alpha * jobs)] under a product of geometric station laws.

    Holds in equilibrium for Jackson networks and for BCMP networks whose
    multi-class stations are processor sharing (proportional allocation).
    """
    z = math.exp(-alpha)
    out = 1.0
    for rho in loads:
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"station load {rho} is not subcritical")
        out *= (1.0 - rho) / (1.0 - rho * z)
    return out


def subcritical_bound(net: Net, direction) -> float:
    """Largest scale a with every station load of a * direction below one."""
    return 1.0 / float(station_loads(net, direction).max())


def ray_root(net: Net, direction, epsilon: float, alpha: float) -> float:
    """Scale a with product-form phi(a * direction) = epsilon, by brentq."""
    top = subcritical_bound(net, direction)
    v = np.asarray(direction, dtype=float)

    def gap(a: float) -> float:
        return product_form_phi(station_loads(net, a * v), alpha) - epsilon

    from scipy import optimize

    return float(optimize.brentq(gap, 0.0, top * (1.0 - 1e-12), xtol=1e-14))


def mm1_root(theta: float, beta: float, epsilon: float, alpha: float) -> float:
    """Closed-form root of (1 - rho)/(1 - rho e^-alpha) = epsilon on an M/M/1 ray."""
    z = math.exp(-alpha)
    rho = (1.0 - epsilon) / (1.0 - epsilon * z)
    return rho * beta / theta


def busy_period_mean(theta: float, beta: float) -> float:
    """Mean embedded steps for the one-extra-job M/M/1 coupling to close.

    From an empty lower copy the extra job leaves at the next departure event
    (probability beta/lambda), otherwise it waits out one embedded busy
    period; solving that renewal equation gives (theta + beta)/(beta - theta).
    """
    return (theta + beta) / (beta - theta)


def poisson_tail(mean: float, k: int) -> float:
    """P(Poisson(mean) > k)."""
    from scipy import stats

    return float(stats.poisson.sf(k, mean))


def poisson_quantile(mean: float, tail: float) -> int:
    """Smallest k with P(Poisson(mean) > k) <= tail."""
    from scipy import stats

    k = int(stats.poisson.isf(tail, mean))
    while poisson_tail(mean, k) > tail:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Count (composition) chain: exact for stations whose service depends on the
# buffer only through its class counts

def uniformization_rate(net: Net) -> float:
    return sum(net.theta) + sum(max(net.beta[k - 1] for k in cls) for cls in net.stations)


def _service_weights(net: Net, i: int, counts) -> dict[int, float]:
    present = [k for k in net.stations[i] if counts[k - 1] > 0]
    if not present:
        return {}
    kind = net.allocation[i]
    if len(net.stations[i]) == 1:
        return {present[0]: 1.0}
    if kind == "proportional":
        total = sum(counts[k - 1] for k in present)
        return {k: counts[k - 1] / total for k in present}
    if kind == "egalitarian":
        return {k: 1.0 / len(present) for k in present}
    if kind == "preferential":
        top = next(k for k in net.ranking[i] if counts[k - 1] > 0)
        return {top: 1.0}
    raise ValueError(f"station {i + 1} ({kind}) is not lumpable to class counts")


def count_transitions(net: Net, counts: tuple[int, ...]) -> list[tuple[tuple[int, ...], float]]:
    """(target counts, rate) of every transition of the count chain."""
    out = []
    for k, th in enumerate(net.theta, start=1):
        if th > 0:
            c = list(counts)
            c[k - 1] += 1
            out.append((tuple(c), th))
    for i in range(len(net.stations)):
        for k, w in _service_weights(net, i, counts).items():
            rate = w * net.beta[k - 1]
            row = net.routing[k - 1]
            exit_p = 1.0 - sum(row)
            for l, p in enumerate(row, start=1):
                if p > 0:
                    c = list(counts)
                    c[k - 1] -= 1
                    c[l - 1] += 1
                    out.append((tuple(c), rate * p))
            if exit_p > 1e-15:
                c = list(counts)
                c[k - 1] -= 1
                out.append((tuple(c), rate * exit_p))
    return out


def _propagate(step_targets, start, n: int) -> Iterator[dict]:
    """Laws at steps 0..n of the embedded chain whose rows step_targets gives."""
    law = {start: 1.0}
    rows: dict = {}
    yield law
    for _ in range(n):
        out: dict = {}
        for state, mass in law.items():
            row = rows.get(state)
            if row is None:
                row = rows[state] = step_targets(state)
            for target, p in row:
                out[target] = out.get(target, 0.0) + mass * p
        law = out
        yield law


def _embedded_rows(transitions, lam: float):
    def rows(state):
        acc: dict = {}
        total = 0.0
        for target, rate in transitions(state):
            acc[target] = acc.get(target, 0.0) + rate / lam
            total += rate / lam
        rest = 1.0 - total
        if rest < -1e-12:
            raise ValueError("uniformization rate below the total outflow")
        if rest > 1e-15:
            acc[state] = acc.get(state, 0.0) + rest
        return list(acc.items())

    return rows


def count_laws(net: Net, n: int, start=None) -> Iterator[dict[tuple[int, ...], float]]:
    """Laws of the embedded count chain at steps 0..n (empty start by default)."""
    start = tuple(start) if start is not None else (0,) * net.classes
    rows = _embedded_rows(lambda c: count_transitions(net, c), uniformization_rate(net))
    return _propagate(rows, start, n)


# ---------------------------------------------------------------------------
# Ordered FCFS head-of-queue buffers: the unlumped chain

def ordered_transitions(net: Net, state) -> list[tuple[tuple, float]]:
    out = []
    for k, th in enumerate(net.theta, start=1):
        if th > 0:
            i = net.station_of(k)
            out.append((state[:i] + (state[i] + (k,),) + state[i + 1 :], th))
    for i, buf in enumerate(state):
        if not buf:
            continue
        if net.allocation[i] != "hq":
            raise ValueError("ordered oracle covers head-of-queue stations only")
        k = buf[0]
        served = state[:i] + (buf[1:],) + state[i + 1 :]
        row = net.routing[k - 1]
        exit_p = 1.0 - sum(row)
        for l, p in enumerate(row, start=1):
            if p > 0:
                j = net.station_of(l)
                target = served[:j] + (served[j] + (l,),) + served[j + 1 :]
                out.append((target, net.beta[k - 1] * p))
        if exit_p > 1e-15:
            out.append((served, net.beta[k - 1] * exit_p))
    return out


def ordered_laws(net: Net, n: int, start=None) -> Iterator[dict[tuple, float]]:
    """Laws of the embedded chain on ordered FCFS buffers at steps 0..n."""
    start = tuple(start) if start is not None else tuple(() for _ in net.stations)
    rows = _embedded_rows(lambda s: ordered_transitions(net, s), uniformization_rate(net))
    return _propagate(rows, start, n)


def phi_of_law(law: dict, alpha: float, norm=sum) -> float:
    return sum(p * math.exp(-alpha * norm(s)) for s, p in law.items())


def ordered_norm(state) -> int:
    return sum(len(b) for b in state)


# ---------------------------------------------------------------------------
# Continuous time: expm of a truncated generator

def transient_phi(net: Net, start, ts, alpha: float, max_norm: int) -> tuple[list[float], float]:
    """E[exp(-alpha * jobs at t)] of the count chain by scipy.linalg.expm.

    States above ``max_norm`` are cut off and their inflow is lost, so each
    value is low by at most the probability of reaching norm max_norm + 1
    before t. That needs more than max_norm - |start| arrivals, so the second
    return value, a Poisson tail, bounds the error of every value.
    """
    from scipy import linalg

    start = tuple(start)
    index = {start: 0}
    order = [start]
    entries = []
    for state in order:  # BFS; `order` grows while we walk it
        for target, rate in count_transitions(net, state):
            if sum(target) > max_norm:
                entries.append((index[state], None, rate))
                continue
            if target not in index:
                index[target] = len(order)
                order.append(target)
            entries.append((index[state], index[target], rate))
    size = len(order)
    q = np.zeros((size, size))
    for a, b, rate in entries:
        q[a, a] -= rate
        if b is not None:
            q[a, b] += rate
    weights = np.array([math.exp(-alpha * sum(s)) for s in order])
    values = []
    for t in ts:
        p = linalg.expm(q * float(t))[0]
        values.append(float(p @ weights))
    bound = 0.0
    if sum(net.theta) > 0:
        bound = poisson_tail(sum(net.theta) * max(ts), max_norm - sum(start))
    return values, bound
