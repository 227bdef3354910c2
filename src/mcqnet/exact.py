"""Exact finite-horizon distributions of the embedded chain.

Every transition adds at most one job, so the n-step reachable set from a
fixed start is finite and the law of the chain can be computed by breadth-
first probability propagation. ``ExactEngine`` is the one BFS engine. It
interns each canonical state to an integer id on first sight and stores the
one-step kernel of a state as a row of flat, doubling ``int64`` target and
``float64`` probability buffers, built once, when the state first holds mass.
A step gathers the rows of the support and sums ``mass * probability`` per
target with one ``np.bincount``; the support keeps the order in which its
states are first reached, so every target sums its terms in a fixed order.
The engine adds the uniformization self-loop, checks the kernel mass and the
final mass drift, and counts interned states against ``budget``, checked
while rows are built, so a run stops before it allocates past the budget.
The moves of a state come from one overridable method, so the coupled pair
chain (``coupling.PairEngine``) runs on the same engine as one more kernel.
Chain kernels are built from the spec's compiled ``TransitionTable`` (service
fractions as exact rationals, one float conversion per branch) and
``qprocess.StationMoves``, with the served branches and insertions computed
once per distinct station buffer. The transient (continuous-time) functional
is recovered from the step laws through the Poisson jump-count mixture.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .allocation import allocate_fractions
from .errors import BudgetExceededError
from .network import NetworkSpec
from .qprocess import (
    NetworkState,
    StationMoves,
    apply_transition,  # noqa: F401  (the reference move; kept importable from here)
    state_canonicalizer,
    state_norm,
    transition_table,
)

StateDistribution = dict[NetworkState, float]

_POISSON_MAX_TERMS = 100_000  # longest jump-count mixture a transient may need


def _grown(a: np.ndarray, need: int, fill) -> np.ndarray:
    """``a`` itself, or a copy at least twice as long when ``need`` exceeds it."""
    if need <= len(a):
        return a
    out = np.full(max(need, 2 * len(a)), fill, dtype=a.dtype)
    out[: len(a)] = a
    return out


class ExactEngine:
    """Breadth-first exact distribution engine on interned states and array rows.

    ``states[x]`` is the state with id x. With ``reduced=True`` states are
    canonicalized per station protocol after every transition, shrinking the
    state count on reducible stations (single-class, order-insensitive, SBP
    head-of-queue); stations without a reduction keep their full ordered
    buffers. ``budget`` bounds the number of interned states.
    """

    def __init__(self, spec: NetworkSpec, *, reduced: bool = False, budget: int = 10**6):
        self.spec = spec
        self.reduced = reduced
        self.budget = budget
        self.table = transition_table(spec)
        self.rate = self.table.alphabet.rate
        self._canon = state_canonicalizer(spec) if reduced else (lambda xi: xi)
        self._station_moves = StationMoves(spec, reduced)
        station_of = self._station_moves.station_of
        self._arrivals = tuple((station_of[k], k, p) for k, p in self.table.arrivals)
        self._served_at: dict = {}  # (station, buffer) -> served branches
        self._joined: dict = {}  # (station, buffer, class) -> buffer after insertion
        self.states: list = []
        self._ids: dict = {}
        self._row_start = np.zeros(0, dtype=np.int64)
        self._row_len = np.zeros(0, dtype=np.int64)  # 0: no row built yet
        self._targets = np.zeros(0, dtype=np.int64)
        self._probs = np.zeros(0, dtype=np.float64)
        self._used = 0

    def canonical(self, xi: NetworkState) -> NetworkState:
        """The start state as the engine stores it."""
        return self._canon(xi)

    # -- interning and rows ------------------------------------------------

    def _id(self, state) -> int:
        """The id of ``state``, interned on first sight within the budget."""
        x = self._ids.get(state)
        if x is None:
            x = len(self.states)
            if x >= self.budget:
                raise BudgetExceededError(
                    f"state space passed the budget of {self.budget} interned states"
                )
            self._ids[state] = x
            self.states.append(state)
        return x

    def _build_rows(self, ids) -> None:
        """Build and store the kernel rows of ``ids``, interning their targets.

        The moves come from ``_moves``, summed per target in move order; the
        mass they leave is the uniformization self-loop.
        """
        states, known, intern = self.states, self._ids, self._id
        targets: list[int] = []
        probs: list[float] = []
        lengths: list[int] = []
        for x in ids:
            xi = states[x]
            acc: dict[int, float] = {}
            total = 0.0
            for target, p in self._moves(xi):
                t = known.get(target)
                if t is None:
                    t = intern(target)
                acc[t] = acc.get(t, 0.0) + p
                total += p
            if total > 1.0 + 1e-12:
                raise AssertionError(f"kernel mass {total} exceeds one at {xi}")
            rest = 1.0 - total
            if rest > 1e-15:
                acc[x] = acc.get(x, 0.0) + rest
            targets.extend(acc)
            probs.extend(acc.values())
            lengths.append(len(acc))
        n, used = len(states), self._used
        self._row_start = _grown(self._row_start, n, 0)
        self._row_len = _grown(self._row_len, n, 0)
        self._targets = _grown(self._targets, used + len(targets), 0)
        self._probs = _grown(self._probs, used + len(probs), 0.0)
        lengths = np.array(lengths, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        self._row_len[ids] = lengths
        self._row_start[ids] = used + np.cumsum(lengths) - lengths
        self._used = used + len(targets)
        self._targets[used : self._used] = targets
        self._probs[used : self._used] = probs

    def _moves(self, xi: NetworkState):
        """Yield (target, probability) for every arrival and every served branch."""
        join = self._join
        for j, l, p in self._arrivals:
            yield xi[:j] + (join(j, xi[j], l),) + xi[j + 1 :], p
        for i, q in enumerate(xi):
            if not q:
                continue
            for p, b, j, l in self._served(i, q):
                if j is None:
                    yield xi[:i] + (b,) + xi[i + 1 :], p
                else:
                    st = list(xi)
                    st[i] = b
                    st[j] = join(j, xi[j], l)
                    yield tuple(st), p

    def _served(self, i: int, q):
        """(probability, buffer left at i, station to join or None, class) per branch."""
        key = (i, q)
        branches = self._served_at.get(key)
        if branches is None:
            lam = self.rate
            serve = self.table.serve
            leave = self._station_moves.leave
            weights = allocate_fractions(self.spec.protocols[i].allocation, q)
            branches = []
            for k, w in weights.items():
                if w == 0:
                    continue
                wf = float(w)
                for l, rate_kl in serve[k]:
                    b, j = leave(i, q, k, l)
                    branches.append((wf * rate_kl / lam, b, j, l))
            self._served_at[key] = branches
        return branches

    def _join(self, j: int, q, l: int):
        key = (j, q, l)
        b = self._joined.get(key)
        if b is None:
            b = self._joined[key] = self._station_moves.join(j, q, l)
        return b

    def kernel(self, xi):
        """(target, probability) pairs of one step from ``xi``, built once."""
        x = self._id(xi)
        if x >= len(self._row_len) or not self._row_len[x]:
            self._build_rows([x])
        start = int(self._row_start[x])
        stop = start + int(self._row_len[x])
        states = self.states
        return tuple(zip(
            [states[t] for t in self._targets[start:stop].tolist()],
            self._probs[start:stop].tolist(),
        ))

    # -- propagation ---------------------------------------------------------

    def _push(self, support: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step on arrays: the next support (in first-reached order) and its mass."""
        row_len = _grown(self._row_len, len(self.states), 0)
        fresh = support[row_len[support] == 0]
        if len(fresh):
            self._build_rows(fresh.tolist())
        lengths = self._row_len[support]
        ends = np.cumsum(lengths)
        at = np.repeat(self._row_start[support] - (ends - lengths), lengths)
        at += np.arange(len(at))
        targets = self._targets[at]
        out = np.bincount(targets, weights=np.repeat(mass, lengths) * self._probs[at])
        reached, first = np.unique(targets, return_index=True)
        support = reached[np.argsort(first)]
        return support, out[support]

    def _start(self, xi0, n: int) -> tuple[np.ndarray, np.ndarray]:
        if n < 0:
            raise ValueError("step count must be nonnegative")
        return np.array([self._id(self.canonical(xi0))], dtype=np.int64), np.ones(1)

    def _law(self, support: np.ndarray, mass: np.ndarray) -> StateDistribution:
        states = self.states
        return dict(zip([states[x] for x in support.tolist()], mass.tolist()))

    def step(self, dist: dict) -> dict:
        """One BFS step: the law after pushing ``dist`` through the kernel.

        Raises BudgetExceededError when the interned states pass the budget.
        """
        support = np.array([self._id(s) for s in dist], dtype=np.int64)
        return self._law(*self._push(support, np.fromiter(dist.values(), float, len(dist))))

    def distribution(self, xi0, n: int) -> dict:
        """Exact law of the chain after n steps from xi0."""
        support, mass = self._start(xi0, n)
        for _ in range(n):
            support, mass = self._push(support, mass)
        dist = self._law(support, mass)
        total = sum(dist.values())
        if abs(total - 1.0) >= 1e-10:
            raise RuntimeError(f"mass drifted to {total}")
        return dist

    def functional_series(
        self, xi0: NetworkState, n: int, phi: Callable[[NetworkState], float]
    ) -> list[float]:
        """E[phi(state at step m)] for m = 0..n; phi runs once per interned state."""
        support, mass = self._start(xi0, n)
        values_of = np.zeros(0)
        series = []
        for m in range(n + 1):
            if m:
                support, mass = self._push(support, mass)
            known = len(values_of)
            if known < len(self.states):
                fresh = np.fromiter(map(phi, self.states[known:]), float)
                values_of = np.concatenate([values_of, fresh])
            series.append(sum((mass * values_of[support]).tolist()))
        return series

    def transient(
        self,
        xi0: NetworkState,
        t: float,
        phi: Callable[[NetworkState], float],
        tol: float = 1e-8,
    ) -> float:
        return self.transient_grid(xi0, [t], phi, tol)[0]

    def transient_grid(
        self,
        xi0: NetworkState,
        ts: Iterable[float],
        phi: Callable[[NetworkState], float],
        tol: float = 1e-8,
    ) -> list[float]:
        """Continuous-time values E[phi(X_t)] for several t from one BFS sweep.

        Requires 0 <= phi <= 1 so the Poisson truncation tail bounds the error
        by ``tol``.
        """
        ts = [float(t) for t in ts]
        if not all(math.isfinite(t) and t >= 0 for t in ts):
            raise ValueError("time must be finite and nonnegative")
        if not ts:
            return []
        weights = [poisson_weights(self.rate * t, tol) for t in ts]
        horizon = max(len(w) for w in weights) - 1
        series = self.functional_series(xi0, horizon, phi)
        if any(not 0.0 <= v <= 1.0 + 1e-12 for v in series):
            raise ValueError("transient functional requires 0 <= phi <= 1")
        return [
            sum(w * v for w, v in zip(ws, series)) for ws in weights
        ]


def poisson_weights(x: float, tol: float) -> list[float]:
    """Poisson(x) pmf values 0..M with tail mass beyond M below tol.

    After Fox & Glynn (1988): the pmf at the mode floor(x) comes from log
    space and the recurrence runs from there down to 0 and up to M, so the
    weights near the bulk never underflow, however large x is. M is the
    first index past the mode where the geometric tail bound
    p_M x / (M + 1 - x) falls below tol.
    """
    if x < 0:
        raise ValueError("Poisson mean must be nonnegative")
    if tol <= 0:
        raise ValueError("Poisson tail tolerance must be positive")
    if x == 0:
        return [1.0]
    mode = math.floor(x)
    if mode > _POISSON_MAX_TERMS:
        raise RuntimeError(f"Poisson mean {x} is beyond the {_POISSON_MAX_TERMS}-term mixture")
    w = math.exp(mode * math.log(x) - x - math.lgamma(mode + 1))
    out = [0.0] * (mode + 1)
    out[mode] = w
    for k in range(mode, 0, -1):
        w *= k / x
        out[k - 1] = w
    w = out[mode]
    k = mode
    while w * x / (k + 1 - x) >= tol:
        k += 1
        w *= x / k
        out.append(w)
    return out


def expectation(dist: StateDistribution, phi: Callable[[NetworkState], float]) -> float:
    return sum(mass * phi(state) for state, mass in dist.items())


def norm_distribution(dist: StateDistribution) -> dict[int, float]:
    """Push-forward of the state law under the total job count."""
    out: dict[int, float] = {}
    for state, mass in dist.items():
        n = state_norm(state)
        out[n] = out.get(n, 0.0) + mass
    return out


def norm_cdf(dist: StateDistribution, up_to: int | None = None) -> list[float]:
    """Cumulative probabilities P(norm <= y) for y = 0..up_to."""
    per_norm = norm_distribution(dist)
    top = max(per_norm) if up_to is None else up_to
    cdf = []
    acc = 0.0
    for y in range(top + 1):
        acc += per_norm.get(y, 0.0)
        cdf.append(acc)
    return cdf


def exact_step_distribution(
    spec: NetworkSpec,
    xi0: NetworkState,
    n: int,
    *,
    reduced: bool = False,
    budget: int = 10**6,
) -> StateDistribution:
    """Exact law of the embedded chain after n steps (see ExactEngine)."""
    return ExactEngine(spec, reduced=reduced, budget=budget).distribution(xi0, n)


def transient_functional(
    spec: NetworkSpec,
    xi0: NetworkState,
    t: float,
    phi: Callable[[NetworkState], float],
    tol: float = 1e-8,
    *,
    reduced: bool = False,
    budget: int = 10**6,
) -> float:
    """E[phi(X_t)] for the continuous-time chain, absolute error below tol."""
    return ExactEngine(spec, reduced=reduced, budget=budget).transient(xi0, t, phi, tol)


def reachable_states(
    spec: NetworkSpec,
    max_norm: int,
    *,
    reduced: bool = False,
    slack_limit: int = 6,
) -> set[NetworkState]:
    """States of norm <= max_norm reachable from empty with positive probability.

    Closure is taken with a norm headroom that grows until the answer
    stabilizes, since a small state can in principle require a detour through
    larger ones.
    """
    from .qprocess import empty_state

    engine = ExactEngine(spec, reduced=reduced)
    previous: set[NetworkState] | None = None
    for slack in range(slack_limit + 1):
        cap = max_norm + slack
        seen = {engine.canonical(empty_state(spec))}
        frontier = list(seen)
        while frontier:
            state = frontier.pop()
            for target, _ in engine.kernel(state):
                if state_norm(target) <= cap and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        current = {s for s in seen if state_norm(s) <= max_norm}
        if previous is not None and current == previous:
            return current
        previous = current
    return previous
