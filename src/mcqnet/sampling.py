"""Performance samplers for long embedded-chain runs.

``PathSampler`` keeps mutable per-station buffers (explicit job order for
head-of-queue stations, composition counts for order-insensitive ones) so a
step costs O(1) for the common protocols. Order-insensitive buffers are
snapshotted in class-sorted canonical order, which represents the same lumped
state; every functional used on such networks depends on the state only
through its composition.

``batch_terminal_norms`` vectorizes many replications at once for networks in
which every station serves a single class, where the state reduces to a count
vector. It draws its uniforms in blocks of steps and resolves each block's
events and routing with array operations, so only the count updates run step
by step; the random stream is consumed exactly as by drawing per step.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .configurations import insertion_index
from .network import NetworkSpec
from .qprocess import (
    NetworkState,
    event_alphabet,
    routing_choices,
    state_composition,
    state_norm,
    station_top_rate,
    uniformization_rate,
)
from .rng import Uniforms


class _HQStation:
    """Explicit ordered buffer; the head holds the whole server."""

    __slots__ = ("policy", "fcfs", "buf", "branch")

    def __init__(self, spec: NetworkSpec, i: int):
        protocol = spec.protocols[i]
        self.policy = protocol.policy
        self.fcfs = protocol.policy.kind == "fcfs"
        self.buf = deque() if self.fcfs else []
        top = station_top_rate(spec, i)
        self.branch = {}
        for k in spec.stations[i]:
            scale = spec.beta[k - 1] / top
            table = tuple((cum * scale, l) for cum, l in routing_choices(spec, k))
            self.branch[k] = (scale, table)

    def reset(self, q) -> None:
        if self.fcfs:
            self.buf = deque(q)
        else:
            self.buf = list(q)

    def insert(self, k: int) -> None:
        buf = self.buf
        if self.fcfs or not buf:
            buf.append(k)
        else:
            j = insertion_index(self.policy, tuple(buf), k)
            buf.insert(j - 1, k)

    def serve(self, u: float):
        buf = self.buf
        if not buf:
            return None
        k = buf[0]
        active, table = self.branch[k]
        if u >= active:
            return None
        for cum, l in table:
            if u < cum:
                break
        if self.fcfs:
            buf.popleft()
        else:
            buf.pop(0)
        return k, l

    def snapshot(self) -> tuple[int, ...]:
        return tuple(self.buf)

    def __len__(self) -> int:
        return len(self.buf)


class _OIStation:
    """Composition-count buffer for order-insensitive allocations."""

    __slots__ = ("classes", "kind", "order", "beta_scale", "routing", "counts", "total")

    def __init__(self, spec: NetworkSpec, i: int):
        protocol = spec.protocols[i]
        self.classes = spec.stations[i]
        self.kind = protocol.allocation.kind
        ranking = protocol.allocation.ranking
        self.order = (
            tuple(next(iter(c)) for c in ranking.castes) if ranking is not None else None
        )
        top = station_top_rate(spec, i)
        self.beta_scale = {k: spec.beta[k - 1] / top for k in self.classes}
        self.routing = {k: routing_choices(spec, k) for k in self.classes}
        self.counts = {k: 0 for k in self.classes}
        self.total = 0

    def reset(self, q) -> None:
        self.counts = {k: 0 for k in self.classes}
        for k in q:
            self.counts[k] += 1
        self.total = len(q)

    def insert(self, k: int) -> None:
        self.counts[k] += 1
        self.total += 1

    def _route(self, k: int, v: float):
        choices = self.routing[k]
        for cum, l in choices:
            if v < cum:
                break
        else:
            l = choices[-1][1]
        self.counts[k] -= 1
        self.total -= 1
        return k, l

    def serve(self, u: float):
        if self.total == 0:
            return None
        if self.kind == "preferential":
            for k in self.order:
                if self.counts[k] > 0:
                    break
            active = self.beta_scale[k]
            if u >= active:
                return None
            return self._route(k, u / active)
        if self.kind == "proportional":
            total = self.total
            acc = 0.0
            for k, c in self.counts.items():
                if c == 0:
                    continue
                share = (c / total) * self.beta_scale[k]
                if u < acc + share:
                    return self._route(k, (u - acc) / share)
                acc += share
            return None
        # egalitarian
        present = [k for k, c in self.counts.items() if c > 0]
        w = 1.0 / len(present)
        acc = 0.0
        for k in present:
            share = w * self.beta_scale[k]
            if u < acc + share:
                return self._route(k, (u - acc) / share)
            acc += share
        return None

    def snapshot(self) -> tuple[int, ...]:
        return tuple(k for k in sorted(self.classes) for _ in range(self.counts[k]))

    def __len__(self) -> int:
        return self.total


class PathSampler:
    """Reusable embedded-chain runner over mutable station buffers."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.rate = uniformization_rate(spec)
        entries = []
        cum = 0.0
        for k in range(1, spec.class_count + 1):
            if spec.theta[k - 1] > 0:
                cum += spec.theta[k - 1] / self.rate
                entries.append((cum, k, None))
        for i in range(spec.station_count):
            cum += station_top_rate(spec, i) / self.rate
            entries.append((cum, 0, i))
        self.events = tuple(entries)
        self.stations = [
            _OIStation(spec, i) if spec.protocols[i].allocation.order_insensitive
            else _HQStation(spec, i)
            for i in range(spec.station_count)
        ]
        self.norm = 0
        self._uni: Uniforms | None = None

    def reset(self, xi0: NetworkState, rng, block: int | None = None) -> None:
        for st, q in zip(self.stations, xi0):
            st.reset(q)
        self.norm = state_norm(xi0)
        self._uni = Uniforms(rng, block or 4096)

    def step(self) -> None:
        uni = self._uni
        u = uni.next()
        for cum, k, i in self.events:
            if u < cum:
                break
        if k:  # arrival
            self.stations[self.spec.station_of(k)].insert(k)
            self.norm += 1
            return
        served = self.stations[i].serve(uni.next())
        if served is None:
            return
        _, l = served
        if l:
            self.stations[self.spec.station_of(l)].insert(l)
        else:
            self.norm -= 1

    def snapshot(self) -> NetworkState:
        return tuple(st.snapshot() for st in self.stations)

    # -- run helpers -------------------------------------------------------

    def run_terminal_norm(self, xi0: NetworkState, n: int, rng) -> int:
        # at most two uniforms per step, so one block serves short runs
        self.reset(xi0, rng, block=min(4096, 2 * n + 4))
        step = self.step
        for _ in range(n):
            step()
        return self.norm

    def run_norm_checkpoints(self, xi0: NetworkState, checkpoints, rng) -> list[int]:
        self.reset(xi0, rng)
        out = []
        step = self.step
        last = 0
        for cp in sorted(checkpoints):
            for _ in range(cp - last):
                step()
            last = cp
            out.append(self.norm)
        return out

    def run_functional_average(
        self, xi0: NetworkState, steps: int, burn_in: int, fn, rng, batches: int = 100
    ) -> tuple[float, float]:
        """Long-run average of fn(norm) with a batch-means standard error."""
        self.reset(xi0, rng)
        step = self.step
        for _ in range(burn_in):
            step()
        batch = max(1, steps // batches)
        means = []
        done = 0
        while done < steps:
            size = min(batch, steps - done)
            acc = 0.0
            for _ in range(size):
                step()
                acc += fn(self.norm)
            means.append(acc / size)
            done += size
        means_arr = np.asarray(means)
        mean = float(means_arr.mean())
        stderr = float(means_arr.std(ddof=1) / math.sqrt(len(means_arr))) if len(means_arr) > 1 else 0.0
        return mean, stderr

    def run_cycle_length(self, cap: int, rng) -> tuple[int, bool]:
        """Embedded steps from empty until the first return after leaving.

        Returns (steps, censored); censored means the cap was hit first.
        """
        empty = tuple(() for _ in self.spec.stations)
        self.reset(empty, rng)
        step = self.step
        steps = 0
        while self.norm == 0:  # wait for the first job
            if steps >= cap:
                return steps, True
            step()
            steps += 1
        while self.norm > 0:
            if steps >= cap:
                return steps, True
            step()
            steps += 1
        return steps, False


# Uniforms drawn per block of the batch stepper (at least one step per block):
# small enough that a block's arrays add little to the peak RSS.
_BLOCK_UNIFORMS = 1 << 14
# Count held by the batch stepper's sink column; no run empties it.
_SINK = 1 << 62


def is_single_class_network(spec: NetworkSpec) -> bool:
    return all(len(classes) == 1 for classes in spec.stations)


def batch_terminal_norms(
    spec: NetworkSpec, xi0: NetworkState, n: int, reps: int, rng
) -> np.ndarray:
    """Terminal job counts of ``reps`` independent replications, vectorized.

    Only valid when every station holds a single class (the state lumps to a
    per-class count vector). Each replication draws its own event uniform and
    its own routing uniform at every step. Steps run in blocks: one
    ``rng.random((steps, 2, reps))`` call yields the same doubles in the same
    order as two ``rng.random(reps)`` calls per step, and everything that does
    not depend on the state (event, class, routing pick, source and target
    column) is resolved for the whole block at once. A step then moves one
    job per replication from its source column to its target column if the
    source is nonempty. Column 0 is a sink that never empties: arrivals leave
    it and exits enter it.
    """
    if not is_single_class_network(spec):
        raise ValueError("batch stepping requires single-class stations")
    d = spec.class_count
    entries = event_alphabet(spec).entries
    event_cum = np.asarray([cum for cum, _, _ in entries])
    routes = {k: routing_choices(spec, k) for k in range(1, d + 1)}
    width = max(len(r) for r in routes.values())
    # per event: routing thresholds (pads at 2.0 are never passed) and the
    # source and target column of each routing pick; pads exit
    thresholds = np.full((len(entries), width), 2.0)
    src_of = np.zeros((len(entries), width), dtype=np.intp)
    dst_of = np.zeros((len(entries), width), dtype=np.intp)
    for e, (_, kind, idx) in enumerate(entries):
        if kind == "A":
            dst_of[e] = idx
            continue
        k = spec.stations[idx][0]
        src_of[e] = k
        for j, (cum, l) in enumerate(routes[k]):
            thresholds[e, j] = cum
            dst_of[e, j] = l
    src_of = src_of.ravel()
    dst_of = dst_of.ravel()

    counts = np.empty((reps, d + 1), dtype=np.int64)
    counts[:, 0] = _SINK
    counts[:, 1:] = state_composition(spec, xi0)
    flat = counts.reshape(-1)
    row = np.arange(reps) * (d + 1)
    steps = max(1, _BLOCK_UNIFORMS // (2 * reps))
    for start in range(0, n, steps):
        draws = rng.random((min(steps, n - start), 2, reps))
        u, v = draws[:, 0], draws[:, 1]
        # count the thresholds at or below each draw, leaving out the last:
        # a searchsorted clipped to the table
        ev = np.zeros(u.shape, dtype=np.intp)
        for cum in event_cum[:-1]:
            ev += u >= cum
        code = ev * width
        for column in thresholds.T[:-1]:
            code += v >= column[ev]
        src = src_of[code]
        src += row
        dst = dst_of[code]
        dst += row
        for s, t in zip(src, dst):
            held = flat[s]
            act = held > 0
            flat[s] = held - act
            flat[t] += act  # after the source update, so a self-route nets zero
    return counts[:, 1:].sum(axis=1)
