"""Exact finite-horizon distributions of the embedded chain.

Every transition adds at most one job, so the n-step reachable set from a
fixed start is finite and the law of the chain can be computed by breadth-
first probability propagation. One-step kernels are built per state (service
fractions as exact rationals, one float conversion per branch), cached, and
reused across sweeps; a configurable state-count budget guards against
explosion. The transient (continuous-time) functional is recovered from the
step laws through the Poisson jump-count mixture.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .allocation import allocate_fractions
from .errors import BudgetExceededError
from .network import NetworkSpec
from .qprocess import (
    NetworkState,
    TransitionLabel,
    apply_transition,
    state_canonicalizer,
    state_norm,
    uniformization_rate,
)

StateDistribution = dict[NetworkState, float]

_POISSON_MAX_TERMS = 100_000  # longest jump-count mixture a transient may need


class ExactEngine:
    """Breadth-first exact distribution engine with a per-state kernel cache.

    With ``reduced=True`` states are canonicalized per station protocol after
    every transition, shrinking the state count on reducible stations
    (single-class, order-insensitive, SBP head-of-queue); stations without a
    reduction keep their full ordered buffers.
    """

    def __init__(self, spec: NetworkSpec, *, reduced: bool = False, budget: int = 10**6):
        self.spec = spec
        self.reduced = reduced
        self.budget = budget
        self.rate = uniformization_rate(spec)
        self._canon = state_canonicalizer(spec) if reduced else (lambda xi: xi)
        self._kernel: dict[NetworkState, tuple[tuple[NetworkState, float], ...]] = {}
        self._arrivals = tuple(
            (k, spec.theta[k - 1] / self.rate)
            for k in range(1, spec.class_count + 1)
            if spec.theta[k - 1] > 0
        )
        # (l, beta_k * R_kl) per class k, exits encoded as l = 0
        self._serve: dict[int, tuple[tuple[int, float], ...]] = {}
        for k in range(1, spec.class_count + 1):
            rows = []
            for l in range(1, spec.class_count + 1):
                r = spec.routing[k - 1][l - 1]
                if r > 0:
                    rows.append((l, spec.beta[k - 1] * r))
            exit_p = spec.exit_probability(k)
            if exit_p > 0:
                rows.append((0, spec.beta[k - 1] * exit_p))
            self._serve[k] = tuple(rows)

    def canonical(self, xi: NetworkState) -> NetworkState:
        return self._canon(xi)

    def kernel(self, xi: NetworkState) -> tuple[tuple[NetworkState, float], ...]:
        cached = self._kernel.get(xi)
        if cached is not None:
            return cached
        spec = self.spec
        lam = self.rate
        acc: dict[NetworkState, float] = {}
        total = 0.0
        for k, p in self._arrivals:
            target = self._canon(apply_transition(spec, xi, TransitionLabel(0, k)))
            acc[target] = acc.get(target, 0.0) + p
            total += p
        for i, q in enumerate(xi):
            if not q:
                continue
            weights = allocate_fractions(spec.protocols[i].allocation, q)
            for k, w in weights.items():
                if w == 0:
                    continue
                wf = float(w)
                for l, rate_kl in self._serve[k]:
                    p = wf * rate_kl / lam
                    target = self._canon(apply_transition(spec, xi, TransitionLabel(k, l)))
                    acc[target] = acc.get(target, 0.0) + p
                    total += p
        if total > 1.0 + 1e-12:
            raise AssertionError(f"kernel mass {total} exceeds one at {xi}")
        rest = 1.0 - total
        if rest > 1e-15:
            acc[xi] = acc.get(xi, 0.0) + rest
        entries = tuple(acc.items())
        self._kernel[xi] = entries
        return entries

    def step(self, dist: StateDistribution) -> StateDistribution:
        out: dict[NetworkState, float] = {}
        for state, mass in dist.items():
            for target, p in self.kernel(state):
                out[target] = out.get(target, 0.0) + mass * p
        if len(out) > self.budget:
            raise BudgetExceededError(
                f"support grew to {len(out)} states (budget {self.budget})"
            )
        return out

    def distribution(self, xi0: NetworkState, n: int) -> StateDistribution:
        """Exact law of the embedded chain after n steps from xi0."""
        dist: StateDistribution = {self._canon(xi0): 1.0}
        for _ in range(n):
            dist = self.step(dist)
        mass = sum(dist.values())
        if abs(mass - 1.0) >= 1e-10:
            raise RuntimeError(f"mass drifted to {mass}")
        return dist

    def functional_series(
        self, xi0: NetworkState, n: int, phi: Callable[[NetworkState], float]
    ) -> list[float]:
        """E[phi(state at step m)] for m = 0..n."""
        dist: StateDistribution = {self._canon(xi0): 1.0}
        values = [expectation(dist, phi)]
        for _ in range(n):
            dist = self.step(dist)
            values.append(expectation(dist, phi))
        return values

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
        if any(t < 0 for t in ts):
            raise ValueError("time must be nonnegative")
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
