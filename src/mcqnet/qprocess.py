"""The network-configuration Markov chain: transition maps, rates and sampling.

The state is a tuple of per-station queue configurations. A transition label
(k, l) with k, l in 0..d encodes an arrival to class l (k = 0), a departure of
class k (l = 0) or a class change k -> l; (0, 0) is excluded. The chain is
uniformized at rate lambda = sum(theta) + sum_i max_{k at i} beta_k, and a
step of the embedded chain draws one event: an arrival event per class with
positive rate, or a potential-departure event per station.

``apply_transition``, ``transition_rate`` and ``embedded_step`` are the
reference semantics. ``transition_table`` compiles the same laws once per spec
into a ``TransitionTable`` (rate, events and their draw, arrival
probabilities, routing, per-class branch tables, serve rates and preferential
rankings); the samplers, the exact engine and the coupling read its fields as
they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .allocation import StationProtocol, allocate
from .configurations import QueueConfig, delete, insert, is_subconfig
from .network import NetworkSpec, _integer, _list

NetworkState = tuple[QueueConfig, ...]


class TransitionLabel(NamedTuple):
    """(source, target) classes; 0 is the outside world."""

    source: int
    target: int


def empty_state(spec: NetworkSpec) -> NetworkState:
    return tuple(() for _ in spec.stations)


def state_norm(xi: NetworkState) -> int:
    return sum(map(len, xi))


def state_composition(spec: NetworkSpec, xi: NetworkState) -> tuple[int, ...]:
    """Per-class job counts, classes 1..d."""
    counts = [0] * spec.class_count
    for q in xi:
        for k in q:
            counts[k - 1] += 1
    return tuple(counts)


def is_substate(xi: NetworkState, zeta: NetworkState) -> bool:
    """Componentwise subsequence order on network states."""
    return len(xi) == len(zeta) and all(
        is_subconfig(p, q) for p, q in zip(xi, zeta)
    )


def check_state(spec: NetworkSpec, xi) -> NetworkState:
    """Normalize a state-like object to tuples and check class/station fit.

    Buffers and class ids are read as the spec reader reads its lists and
    integers: ``[[1.7]]``, ``[["1"]]``, ``[[true]]`` and ``5`` are not states
    and raise ``TypeError``; a state that does not fit the spec raises
    ``ValueError``.
    """
    state = tuple(tuple(_integer(k) for k in _list(q)) for q in _list(xi))
    if len(state) != spec.station_count:
        raise ValueError("state must have one configuration per station")
    for i, q in enumerate(state):
        allowed = set(spec.stations[i])
        for k in q:
            if k not in allowed:
                raise ValueError(f"class {k} does not belong to station {i + 1}")
    return state


def uniformization_rate(spec: NetworkSpec) -> float:
    """lambda = total arrival rate + sum over stations of the largest service rate."""
    return float(
        sum(spec.theta)
        + sum(max(spec.beta[k - 1] for k in classes) for classes in spec.stations)
    )


def _replace_station(xi: NetworkState, i: int, q: QueueConfig) -> NetworkState:
    return xi[:i] + (q,) + xi[i + 1 :]


def apply_transition(spec: NetworkSpec, xi: NetworkState, label: TransitionLabel) -> NetworkState:
    """State after a (k, l) transition; identity when the deletion is vacuous."""
    k, l = label
    if (k, l) == (0, 0):
        raise ValueError("(0, 0) is not a transition label")
    if k == 0:
        i = spec.station_of(l)
        return _replace_station(xi, i, insert(spec.protocols[i].policy, xi[i], l))
    i = spec.station_of(k)
    removed = delete(xi[i], k)
    if removed == xi[i]:
        return xi  # vacuous deletion: the whole transition is the identity
    out = _replace_station(xi, i, removed)
    if l == 0:
        return out
    j = spec.station_of(l)
    return _replace_station(out, j, insert(spec.protocols[j].policy, out[j], l))


def transition_rate(spec: NetworkSpec, xi: NetworkState, label: TransitionLabel) -> float:
    """Rate of a (k, l) transition from ``xi``: theta_l for arrivals, else W beta R."""
    k, l = label
    if (k, l) == (0, 0):
        raise ValueError("(0, 0) is not a transition label")
    if k == 0:
        return float(spec.theta[l - 1])
    i = spec.station_of(k)
    w = allocate(spec.protocols[i].allocation, xi[i]).get(k, 0.0)
    if w == 0.0:
        return 0.0
    routing = spec.exit_probability(k) if l == 0 else spec.routing[k - 1][l - 1]
    return w * spec.beta[k - 1] * routing


# ---------------------------------------------------------------------------
# The compiled transition table and the embedded chain

@dataclass(frozen=True)
class TransitionTable:
    """The uniformized chain's laws for one spec, compiled once.

    * ``rate``: the uniformization rate lambda;
    * ``events``: (cumulative probability, (kind, index)) per event, kind "A"
      (index = class) for every class with theta_k > 0, then kind "D"
      (index = station) for every station; the probabilities are theta_k/lambda
      and beta_bar_i/lambda and sum to one;
    * ``arrivals``: (k, theta_k/lambda) for every class with theta_k > 0;
    * ``routes``: the cumulative routing law of class k over its targets l
      (0 = exit), zeros pruned;
    * ``branch``: (s, routes with cumulatives scaled by s), where
      s = beta_k/beta_bar_i is the chance that a departure event at k's
      station i serves a k-job holding the whole server;
    * ``serve``: (l, beta_k R_kl) with exits as l = 0, zeros pruned;
    * ``ranked``: per station, the total order of a preferential allocation,
      highest first, else None.

    ``routes``, ``branch`` and ``serve`` are dicts keyed by class k.
    """

    rate: float
    events: tuple[tuple[float, tuple[str, int]], ...]
    arrivals: tuple[tuple[int, float], ...]
    routes: dict[int, tuple[tuple[float, int], ...]]
    branch: dict[int, tuple[float, tuple[tuple[float, int], ...]]]
    serve: dict[int, tuple[tuple[int, float], ...]]
    ranked: tuple[tuple[int, ...] | None, ...]

    def draw(self, u: float) -> tuple[str, int]:
        """The event whose interval holds u; the last one at u past every cumulative."""
        for cum, event in self.events:
            if u < cum:
                break
        return event


def transition_table(spec: NetworkSpec) -> TransitionTable:
    """Compile the laws of ``spec``'s uniformized chain (see ``TransitionTable``)."""
    lam = uniformization_rate(spec)
    classes = range(1, spec.class_count + 1)
    arrivals = tuple((k, spec.theta[k - 1] / lam) for k in classes if spec.theta[k - 1] > 0)
    tops = [max(spec.beta[k - 1] for k in at) for at in spec.stations]
    events, cum = [], 0.0
    for k, p in arrivals:
        cum += p
        events.append((cum, ("A", k)))
    for i, top in enumerate(tops):
        cum += top / lam
        events.append((cum, ("D", i)))
    routes, branch, serve = {}, {}, {}
    for k in classes:
        probs = (*enumerate(spec.routing[k - 1], start=1), (0, spec.exit_probability(k)))
        cum = 0.0
        choices = []
        for l, r in probs:
            if r > 0:
                cum += r
                choices.append((cum, l))
        routes[k] = tuple(choices)
        scale = spec.beta[k - 1] / tops[spec.station_of(k)]
        branch[k] = (scale, tuple((c * scale, l) for c, l in choices))
        serve[k] = tuple((l, spec.beta[k - 1] * r) for l, r in probs if r > 0)
    ranked = tuple(
        protocol.allocation.ranking.order if protocol.allocation.kind == "preferential" else None
        for protocol in spec.protocols
    )
    return TransitionTable(lam, tuple(events), arrivals, routes, branch, serve, ranked)


def embedded_step(
    spec: NetworkSpec,
    xi: NetworkState,
    rng,
    table: TransitionTable | None = None,
) -> NetworkState:
    """One transition of the uniformized embedded chain.

    Draws the event; an arrival inserts unconditionally, a departure event at
    station i serves class k with probability (beta_k/beta_bar_i) W_k and
    self-loops with the residual mass. The empty state freezes under
    departure events only.
    """
    table = table or transition_table(spec)
    kind, idx = table.draw(rng.random())
    if kind == "A":
        return apply_transition(spec, xi, TransitionLabel(0, idx))
    q = xi[idx]
    if not q:
        return xi
    weights = allocate(spec.protocols[idx].allocation, q)
    u = rng.random()
    acc = 0.0
    for k, w in weights.items():
        share = table.branch[k][0] * w
        if u < acc + share:
            v = (u - acc) / share  # reuse the draw for the routing choice
            choices = table.routes[k]
            for cum, l in choices:
                if v < cum:
                    return apply_transition(spec, xi, TransitionLabel(k, l))
            return apply_transition(spec, xi, TransitionLabel(k, choices[-1][1]))
        acc += share
    return xi  # residual self-loop


def simulate_path(
    spec: NetworkSpec, xi0: NetworkState, n: int, rng
) -> list[NetworkState]:
    """Length n+1 embedded-chain path from xi0; deterministic given the stream."""
    table = transition_table(spec)
    path = [xi0]
    state = xi0
    for _ in range(n):
        state = embedded_step(spec, state, rng, table)
        path.append(state)
    return path


# ---------------------------------------------------------------------------
# Lumped (canonical) representations

def station_canonicalizer(
    classes: tuple[int, ...], protocol: StationProtocol
) -> Callable[[QueueConfig], QueueConfig]:
    """Map a station buffer to the canonical representative of its lumped class.

    The lumping depends only on the station's ``classes`` and ``protocol``.
    Single-class buffers are already canonical; order-insensitive stations sort
    by class; SBP head-of-queue keeps the head and caste-sorts the tail. A
    multi-class FCFS/LCFS head-of-queue station has no reduction and gets the
    identity.
    """
    if len(classes) == 1:
        return lambda q: q
    if protocol.allocation.order_insensitive:
        return lambda q: tuple(sorted(q))
    if protocol.policy.kind == "sbp":
        castes = protocol.policy.ranking.castes

        def canon(q: QueueConfig) -> QueueConfig:
            if not q:
                return q
            tail = q[1:]
            parts = [d for caste in castes for d in tail if d in caste]
            return (q[0],) + tuple(parts)

        return canon
    return lambda q: q


class StationMoves:
    """The (k, l) move on a canonical state, rebuilding only the stations it touches.

    ``move(xi, k, l)`` equals ``canon(apply_transition(spec, xi, (k, l)))`` for
    a canonical ``xi`` holding a k-job (k = 0: an arrival), where ``canon``
    lumps every station (``reduced=True``) or none. ``leave`` and ``join`` are
    its two station-level halves, exposed so that callers can reuse them per
    buffer: a job that turns into a class of its own station is inserted
    before the buffer is canonicalized, as in ``apply_transition``.
    """

    def __init__(self, spec: NetworkSpec, reduced: bool = True):
        self.station_of = [None] + [spec.station_of(k) for k in range(1, spec.class_count + 1)]
        self.policies = [protocol.policy for protocol in spec.protocols]
        self.canons = [
            station_canonicalizer(classes, protocol) if reduced else (lambda q: q)
            for classes, protocol in zip(spec.stations, spec.protocols)
        ]

    def leave(self, i: int, q: QueueConfig, k: int, l: int) -> tuple[QueueConfig, int | None]:
        """Station i's buffer after its k-job becomes class l (0: exits), and the
        station the l-job must still ``join`` (None when there is none)."""
        rest = delete(q, k)
        j = self.station_of[l] if l else None
        if j == i:
            return self.join(i, rest, l), None
        return self.canons[i](rest), j

    def join(self, j: int, q: QueueConfig, l: int) -> QueueConfig:
        """Station j's buffer after an l-job is inserted into ``q``."""
        return self.canons[j](insert(self.policies[j], q, l))

    def move(self, xi: NetworkState, k: int, l: int) -> NetworkState:
        st = list(xi)
        j = self.station_of[l] if l else None
        if k:
            i = self.station_of[k]
            st[i], j = self.leave(i, st[i], k, l)
        if j is not None:
            st[j] = self.join(j, st[j], l)
        return tuple(st)


def state_canonicalizer(spec: NetworkSpec) -> Callable[[NetworkState], NetworkState]:
    fns = [station_canonicalizer(c, p) for c, p in zip(spec.stations, spec.protocols)]
    return lambda xi: tuple(fn(q) for fn, q in zip(fns, xi))


def canonicalize_state(spec: NetworkSpec, xi: NetworkState) -> NetworkState:
    return state_canonicalizer(spec)(xi)
