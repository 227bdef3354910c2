"""Performance samplers for long embedded-chain runs.

``PathSampler`` keeps mutable per-station buffers (explicit job order for
head-of-queue stations, composition counts for order-insensitive ones) so a
step costs O(1) for the common protocols. Order-insensitive buffers are
snapshotted in class-sorted canonical order, which represents the same lumped
state; every functional used on such networks depends on the state only
through its composition.

Both samplers read the spec's compiled ``qprocess.TransitionTable`` (event
alphabet, per-class branch tables, routing) and build no laws of their own.

``batch_terminal_norms`` vectorizes many replications at once for networks in
which every station is single-class or order-insensitive (proportional,
preferential, egalitarian), where the state lumps exactly to a per-class
count vector. It draws its uniforms in blocks of steps and resolves each
block's events and routing with array operations, so only the count updates,
and at multi-class stations the pick of the served class, run step by step;
the random stream is consumed exactly as by drawing per step. Multi-class
head-of-queue stations (FCFS, LCFS, SBP) need their job order and run on
``PathSampler`` only.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .configurations import insertion_index
from .network import NetworkSpec
from .qprocess import (
    NetworkState,
    TransitionTable,
    state_composition,
    state_norm,
    transition_table,
)
from .rng import Uniforms


class _HQStation:
    """Explicit ordered buffer; the head holds the whole server."""

    __slots__ = ("policy", "fcfs", "buf", "branch")

    def __init__(self, spec: NetworkSpec, i: int, table: TransitionTable):
        protocol = spec.protocols[i]
        self.policy = protocol.policy
        self.fcfs = protocol.policy.kind == "fcfs"
        self.buf = deque() if self.fcfs else []
        self.branch = table.branch

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
        active, routes = self.branch[k]
        if u >= active:
            return None
        for cum, l in routes:
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

    def __init__(self, spec: NetworkSpec, i: int, table: TransitionTable):
        protocol = spec.protocols[i]
        self.classes = spec.stations[i]
        self.kind = protocol.allocation.kind
        ranking = protocol.allocation.ranking
        self.order = (
            tuple(next(iter(c)) for c in ranking.castes) if ranking is not None else None
        )
        self.beta_scale = {k: table.branch[k][0] for k in self.classes}
        self.routing = table.routes
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
        table = transition_table(spec)
        self.rate = table.alphabet.rate
        # (cum, class, None) for arrivals, (cum, 0, station) for departures
        self.events = tuple(
            (cum, idx, None) if kind == "A" else (cum, 0, idx)
            for cum, kind, idx in table.alphabet.entries
        )
        self.stations = [
            _OIStation(spec, i, table) if spec.protocols[i].allocation.order_insensitive
            else _HQStation(spec, i, table)
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


# Uniforms per block of the batch stepper, divided by the most classes a
# station serves (at least one step of one replication per block): small
# enough that a block's arrays add little to the peak RSS.
_BLOCK_UNIFORMS = 1 << 14
# Count held by the batch stepper's sink column; no run empties it.
_SINK = 1 << 62


def is_single_class_network(spec: NetworkSpec) -> bool:
    return all(len(classes) == 1 for classes in spec.stations)


def is_count_lumpable(spec: NetworkSpec) -> bool:
    """True when every station is single-class or order-insensitive.

    The state then lumps exactly to its per-class count vector, which is
    what ``batch_terminal_norms`` steps.
    """
    return all(
        len(classes) == 1 or protocol.allocation.order_insensitive
        for classes, protocol in zip(spec.stations, spec.protocols)
    )


def batch_terminal_norms(
    spec: NetworkSpec, xi0: NetworkState, n: int, reps: int, rng
) -> np.ndarray:
    """Terminal job counts of ``reps`` independent replications, vectorized.

    Valid when every station is single-class or order-insensitive, so that
    the state lumps to a per-class count vector (``is_count_lumpable``). Each
    replication draws its own event uniform u and its own routing uniform v
    at every step. Steps run in blocks: one ``rng.random((steps, 2, reps))``
    call yields the same doubles in the same order as two ``rng.random(reps)``
    calls per step. Within a block, groups of replications run one after the
    other; everything that does not depend on the state (event, routing pick,
    source and target column) is resolved for the whole group and block at
    once, and a step then moves one job per replication from its source
    column to its target column if the source is nonempty. Column 0 is a sink
    that never empties: arrivals leave it and exits enter it.

    At a single-class station the event fixes the served class. At a
    multi-class station the block resolves the outcome of every class the
    station could serve, and the step picks the served class from the counts
    (``_BatchKernel.slot_moves``): the top-ranked present class under
    preferential allocation, the class of the job at position
    floor(w * jobs) under proportional allocation and the present class at
    position floor(w * present classes) under egalitarian allocation. Here w
    is u rescaled within its event's interval: a uniform independent of the
    event and of v. Networks of single-class stations do no extra work and
    keep their random stream.
    """
    if not is_count_lumpable(spec):
        raise ValueError("batch stepping requires single-class or order-insensitive stations")
    kernel = _BatchKernel(spec)
    d = spec.class_count
    counts = np.zeros((reps, kernel.columns), dtype=np.int64)
    counts[:, 0] = _SINK
    counts[:, 1 : d + 1] = state_composition(spec, xi0)
    flat = counts.reshape(-1)
    row = np.arange(reps) * kernel.columns
    # a block resolves at most ``span`` (step, replication) pairs at once
    span = _BLOCK_UNIFORMS // (2 * kernel.slots)
    steps = max(1, span // reps)
    for start in range(0, n, steps):
        draws = rng.random((min(steps, n - start), 2, reps))
        for lo in range(0, reps, span):
            group = slice(lo, lo + span)
            kernel.run(flat, row[group], draws[:, 0, group], draws[:, 1, group])
    return counts[:, 1 : d + 1].sum(axis=1)


class _BatchKernel:
    """The batch stepper's tables for one spec, compiled once per run.

    Count columns are 0 (the sink), 1..d (the classes) and, with multi-class
    stations, d + 1: a column that stays empty. A slot is a class a multi-class station can serve, in
    rank order under preferential allocation. The outcome tables have one
    row per (event, slot): a step takes the outcome whose index is the
    number of the row's thresholds at or below its routing uniform v, and an
    outcome is a (source, target) column pair. Rows of arrivals and of
    single-class stations repeat over the slots; idle outcomes and padded
    slots move a job from the empty column to itself, which moves nothing.

    Per event, the slot columns are the count column of each slot at a
    multi-class station (the empty column elsewhere), ``slope`` rescales u
    to w (0 under preferential allocation, which draws nothing) and ``cap``
    bounds each slot's count (1 under egalitarian allocation).
    """

    def __init__(self, spec: NetworkSpec):
        table = transition_table(spec)
        entries = table.alphabet.entries
        self.slots = slots = max(len(classes) for classes in spec.stations)
        zero = spec.class_count + 1
        # the empty column is needed by multi-class stations only
        self.columns = zero + (slots > 1)
        rows = []
        slot_cols, slope, cap = [], [], []
        lows = [0.0] + [cum for cum, _, _ in entries[:-1]]
        for (cum, kind, idx), low in zip(entries, lows):
            slot_cols.append([zero] * slots)
            slope.append(0.0)
            cap.append(_SINK)
            if kind == "A":
                rows += [((), ((0, idx),))] * slots
                continue
            classes = spec.stations[idx]
            if len(classes) == 1:
                k = classes[0]
                routes = table.routes[k]
                rows += [(tuple(c for c, _ in routes), tuple((k, l) for _, l in routes))] * slots
                continue
            allocation = spec.protocols[idx].allocation
            if allocation.kind == "preferential":
                classes = tuple(next(iter(c)) for c in allocation.ranking.castes)
            else:
                slope[-1] = 1.0 / (cum - low)
            if allocation.kind == "egalitarian":
                cap[-1] = 1
            slot_cols[-1][: len(classes)] = classes
            for k in classes:
                scale, routes = table.branch[k]
                # serve and route below the class's share of the event, idle above
                bounds = tuple(c for c, _ in routes[:-1]) + (scale,)
                rows.append((bounds, tuple((k, l) for _, l in routes) + ((zero, zero),)))
            rows += [((), ((zero, zero),))] * (slots - len(classes))
        self.event_cum = np.asarray([cum for cum, _, _ in entries])
        self.lows = np.asarray(lows)
        self.slot_cols = np.asarray(slot_cols, dtype=np.intp)
        self.slope = np.asarray(slope)
        self.cap = np.asarray(cap, dtype=np.int64)
        self.drawn = any(slope)
        self.capped = 1 in cap

        self.width = width = max(len(outcomes) for _, outcomes in rows)
        self.thresholds = np.full((len(rows), width), 2.0)  # pads are never passed
        src_of = np.zeros((len(rows), width), dtype=np.intp)
        dst_of = np.zeros((len(rows), width), dtype=np.intp)
        for r, (bounds, outcomes) in enumerate(rows):
            self.thresholds[r, : len(bounds)] = bounds
            # a pick past the outcomes (a routing law summing to just under
            # one) sends the row's last source to the sink
            src_of[r] = outcomes[-1][0]
            for j, (k, l) in enumerate(outcomes):
                src_of[r, j] = k
                dst_of[r, j] = l
        self.src_of = src_of.ravel()
        self.dst_of = dst_of.ravel()

    def run(self, flat, row, u, v) -> None:
        """Apply a block of [step, replication] uniforms to the replications
        whose count rows start at ``row`` in ``flat``."""
        # count the thresholds at or below each draw, leaving out the last:
        # a searchsorted clipped to the table
        ev = np.zeros(u.shape, dtype=np.intp)
        for cum in self.event_cum[:-1]:
            ev += u >= cum
        if self.slots == 1:
            moves = zip(*self.resolve(ev, v, row))
        else:
            moves = self.slot_moves(flat, row, ev, u, v)
        for s, t in moves:
            held = flat[s]
            act = held > 0
            flat[s] = held - act
            flat[t] += act  # after the source update, so a self-route nets zero

    def resolve(self, rid, v, row):
        """Source and target columns of the outcomes of table rows ``rid`` at
        routing draws ``v``, for the replications whose count rows start at
        ``row``."""
        code = rid * self.width
        for column in self.thresholds.T[:-1]:
            code += v >= column[rid]
        src = self.src_of[code]
        src += row
        dst = self.dst_of[code]
        dst += row
        return src, dst

    def slot_moves(self, flat, row, ev, u, v):
        """(source, target) per step, with the served slot picked from the counts.

        The slot is the number of slots j below the last whose cumulative
        capped count is at most x = w * (capped total); with x = 0 that is
        the first nonempty slot. An empty station picks its last slot, whose
        move then finds its source empty. Events elsewhere read only the
        empty column and pick the last slot, which repeats their row.
        """
        slots = self.slots
        steps, reps = ev.shape
        # source and target column per [step, replication, slot]
        src = np.empty((steps, reps, slots), dtype=np.intp)
        dst = np.empty_like(src)
        for j in range(slots):
            src[..., j], dst[..., j] = self.resolve(ev * slots + j, v, row)
        src = src.reshape(steps, -1)
        dst = dst.reshape(steps, -1)
        # without a draw the last slot's count is never read
        cols = []
        for j in range(slots if self.drawn else slots - 1):
            c = self.slot_cols[:, j][ev]
            c += row
            cols.append(c)
        w = None
        if self.drawn:
            w = u - self.lows[ev]
            w *= self.slope[ev]
        cap = self.cap[ev] if self.capped else None
        base = np.arange(reps) * slots
        for t in range(steps):
            held = [flat[c[t]] for c in cols]
            if cap is not None:
                held = [np.minimum(h, cap[t]) for h in held]
            if w is None:
                x = 0.0
            else:
                total = held[0]
                for h in held[1:]:
                    total = total + h
                x = w[t] * total
            cum = held[0]
            slot = base + (x >= cum)
            for h in held[1 : slots - 1]:
                cum = cum + h
                slot += x >= cum
            yield src[t][slot], dst[t][slot]
