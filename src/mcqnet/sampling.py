"""Performance samplers for long embedded-chain runs.

``PathSampler`` keeps mutable per-station buffers (explicit job order for
head-of-queue stations, composition counts for order-insensitive ones) so a
step costs O(1) for the common protocols. Order-insensitive buffers are
snapshotted in class-sorted canonical order, which represents the same lumped
state; every functional used on such networks depends on the state only
through its composition.

Both samplers read the spec's compiled ``qprocess.TransitionTable`` (events,
per-class branch tables, routing, preferential rankings) as it is and build
no laws of their own.

``batch_terminal_norms`` vectorizes many replications at once for networks in
which every station is single-class, order-insensitive (proportional,
preferential, egalitarian) or a multi-class FCFS head-of-queue station. It
steps per-class count vectors, which is the whole state where every station
is single-class or order-insensitive; a multi-class FCFS head-of-queue
station adds a per-replication ring of class ids, since its head class is
the one it serves. It draws its uniforms in blocks of steps and resolves each
block's events and routing with array operations, so only the count and ring
updates, and at multi-class stations the pick of the served class, run step
by step; the random stream is consumed exactly as by drawing per step.
Multi-class LCFS and SBP head-of-queue stations insert inside the queue and
run on ``PathSampler`` only.
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


class _OIStation:
    """Composition-count buffer for order-insensitive allocations."""

    __slots__ = ("classes", "kind", "order", "beta_scale", "routing", "counts", "total")

    def __init__(self, spec: NetworkSpec, i: int, table: TransitionTable):
        protocol = spec.protocols[i]
        self.classes = spec.stations[i]
        self.kind = protocol.allocation.kind
        self.order = table.ranked[i]
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


class PathSampler:
    """Reusable embedded-chain runner over mutable station buffers."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.table = table = transition_table(spec)
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
        self._uni = Uniforms(rng, 4096 if block is None else block)

    def step(self) -> None:
        uni = self._uni
        u = uni.next()
        for cum, event in self.table.events:
            if u < cum:
                break
        kind, i = event
        if kind == "A":  # i is the arriving class
            self.stations[self.spec.station_of(i)].insert(i)
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
        if n < 0:
            raise ValueError("steps must be nonnegative")
        # at most two uniforms per step, so one block serves short runs
        self.reset(xi0, rng, block=min(4096, 2 * n + 4))
        step = self.step
        for _ in range(n):
            step()
        return self.norm

    def run_norm_checkpoints(self, xi0: NetworkState, checkpoints, rng) -> list[int]:
        """The norm of one path from xi0 at each checkpoint step, in the given order."""
        checkpoints = list(checkpoints)
        if any(cp < 0 for cp in checkpoints):
            raise ValueError("checkpoints must be nonnegative")
        self.reset(xi0, rng)
        norms = {}
        step = self.step
        last = 0
        for cp in sorted(set(checkpoints)):
            for _ in range(cp - last):
                step()
            last = cp
            norms[cp] = self.norm
        return [norms[cp] for cp in checkpoints]

    def run_functional_average(
        self, xi0: NetworkState, steps: int, burn_in: int, fn, rng
    ) -> tuple[float, float]:
        """Long-run average of fn(norm) with a batch-means standard error over
        100 batches."""
        if steps < 1:
            raise ValueError("steps must be at least 1")
        if burn_in < 0:
            raise ValueError("burn_in must be nonnegative")
        self.reset(xi0, rng)
        step = self.step
        for _ in range(burn_in):
            step()
        batch = max(1, steps // 100)
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


def is_batch_steppable(spec: NetworkSpec) -> bool:
    """True when ``batch_terminal_norms`` can run ``spec``.

    Every station must be single-class, order-insensitive or a multi-class
    FCFS head-of-queue station; multi-class LCFS and SBP head-of-queue
    stations insert inside the queue and run on ``PathSampler`` only.
    """
    return all(
        len(classes) == 1
        or protocol.allocation.order_insensitive
        or protocol.policy.kind == "fcfs"
        for classes, protocol in zip(spec.stations, spec.protocols)
    )


def batch_terminal_norms(
    spec: NetworkSpec, xi0: NetworkState, n: int, reps: int, rng
) -> np.ndarray:
    """Terminal job counts of ``reps`` independent replications, vectorized.

    Valid when every station is single-class, order-insensitive or a
    multi-class FCFS head-of-queue station (``is_batch_steppable``). Each
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
    station could serve, and the step picks the served class. Order-insensitive
    stations pick it from the counts (``_BatchKernel.count_slots``): the
    top-ranked present class under preferential allocation, the class of the
    job at position floor(w * jobs) under proportional allocation and the
    present class at position floor(w * present classes) under egalitarian
    allocation. Here w is u rescaled within its event's interval: a uniform
    independent of the event and of v. A multi-class FCFS head-of-queue
    station serves its head, whose class the step reads from the station's
    ring of class ids (``_FCFSRings``); a served job leaves the head, and a
    job that enters such a station joins the tail of its ring. The rings hold
    reps x (such stations) x cap small ints, where cap is a power of two at
    least the longest queue of the run plus a block's steps.

    Networks of single-class and order-insensitive stations keep no rings
    and their random stream, and single-class networks do no per-slot work.
    """
    if not is_batch_steppable(spec):
        raise ValueError("batch stepping cannot run multi-class LCFS or SBP head-of-queue stations")
    if n < 0:
        raise ValueError("steps must be nonnegative")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    kernel = _BatchKernel(spec)
    d = spec.class_count
    counts = np.zeros((reps, kernel.columns), dtype=np.int64)
    counts[:, 0] = _SINK
    counts[:, 1 : d + 1] = state_composition(spec, xi0)
    flat = counts.reshape(-1)
    row = np.arange(reps) * kernel.columns
    rings = None
    if kernel.ring_stations:
        rings = _FCFSRings([xi0[i] for i in kernel.ring_stations], reps, kernel.columns)
    # a block resolves at most ``span`` (step, replication) pairs at once
    span = _BLOCK_UNIFORMS // (2 * kernel.slots)
    steps = max(1, span // reps)
    for start in range(0, n, steps):
        draws = rng.random((min(steps, n - start), 2, reps))
        if rings is not None:
            rings.reserve(len(draws))
        for lo in range(0, reps, span):
            group = slice(lo, lo + span)
            kernel.run(flat, row[group], draws[:, 0, group], draws[:, 1, group], rings)
    return counts[:, 1 : d + 1].sum(axis=1)


class _FCFSRings:
    """Per-replication class rings of the multi-class FCFS head-of-queue stations.

    With R ring stations, row ``rep * R + r`` of ``ring`` holds ring station
    r's queue in replication rep, head first: its class ids sit at positions ``head``,
    ``head + 1``, ..., ``head + length - 1``, each taken ``& (cap - 1)``,
    where ``cap`` is a power of two. The last row is a scratch queue: steps
    whose event serves no ring station pop it and moves whose target joins
    no ring push to it, so that every step runs the same array operations.
    Nothing read from it is used.
    """

    def __init__(self, queues, reps: int, columns: int):
        self.stations = len(queues)
        longest = max(1, *map(len, queues))
        self.cap = 1 << (longest - 1).bit_length()
        rows = reps * self.stations + 1
        # class ids, the idle target column (``columns - 1``) included
        self.ring = np.zeros((rows, self.cap), dtype=np.min_scalar_type(columns - 1))
        self.head = np.zeros(rows, dtype=np.int64)
        self.length = np.zeros(rows, dtype=np.int64)
        for r, q in enumerate(queues):
            self.ring[r:-1:self.stations, : len(q)] = q
            self.length[r:-1:self.stations] = len(q)

    def reserve(self, steps: int) -> None:
        """Make room for ``steps`` more steps, each of which adds at most one
        job per replication: double ``cap`` until it holds the longest queue
        plus ``steps``, and re-lay each queue from its head to position 0."""
        need = int(self.length[:-1].max(initial=0)) + steps
        if need <= self.cap:
            return
        cap = 1 << (need - 1).bit_length()
        ring = np.zeros((len(self.ring), cap), dtype=self.ring.dtype)
        # rows in chunks, so that the positions take no more than a block's arrays
        chunk = max(1, _BLOCK_UNIFORMS // self.cap)
        for lo in range(0, len(ring), chunk):
            rows = slice(lo, lo + chunk)
            pos = self.head[rows, None] + np.arange(self.cap)
            pos &= self.cap - 1
            ring[rows, : self.cap] = np.take_along_axis(self.ring[rows], pos, axis=1)
        self.ring, self.cap = ring, cap
        self.head[:] = 0


class _BatchKernel:
    """The batch stepper's tables for one spec, compiled once per run.

    Count columns are 0 (the sink), 1..d (the classes) and, with multi-class
    stations, d + 1: a column that stays empty. A slot is a class a
    multi-class station can serve, in rank order under preferential
    allocation and in the station's class order otherwise. The outcome tables
    have one row per (event, slot): a step takes the outcome whose index is
    the number of the row's thresholds at or below its routing uniform v, and
    an outcome is a (source, target) column pair. Rows of arrivals and of
    single-class stations repeat over the slots; idle outcomes and padded
    slots move a job from the empty column to itself, which moves nothing.

    Per event, the slot columns are the count column of each slot at a
    multi-class order-insensitive station (the empty column elsewhere),
    ``slope`` rescales u to w (0 under preferential allocation, which draws
    nothing) and ``cap`` bounds each slot's count (1 under egalitarian
    allocation). ``ring_stations`` lists the multi-class FCFS head-of-queue
    stations; ``ring_of_event`` and ``ring_of_col`` give the ring an event
    serves and the ring a class column joins (-1: none), and ``slot_of_col``
    a ring class's slot.
    """

    def __init__(self, spec: NetworkSpec):
        table = transition_table(spec)
        events = table.events
        self.slots = slots = max(len(classes) for classes in spec.stations)
        zero = spec.class_count + 1
        # the empty column is needed by multi-class stations only
        self.columns = zero + (slots > 1)
        rows = []
        slot_cols, slope, cap = [], [], []
        self.ring_stations, ring_of_event = [], []
        self.counted = False  # any multi-class order-insensitive station
        lows = [0.0] + [cum for cum, _ in events[:-1]]
        for (cum, (kind, idx)), low in zip(events, lows):
            slot_cols.append([zero] * slots)
            slope.append(0.0)
            cap.append(_SINK)
            ring_of_event.append(-1)
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
            if allocation.kind == "hq":
                # FCFS: the served slot is the head's, read from the ring
                ring_of_event[-1] = len(self.ring_stations)
                self.ring_stations.append(idx)
            else:
                self.counted = True
                if allocation.kind == "preferential":
                    classes = table.ranked[idx]
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
        self.event_cum = np.asarray([cum for cum, _ in events])
        self.lows = np.asarray(lows)
        self.slot_cols = np.asarray(slot_cols, dtype=np.intp)
        self.slope = np.asarray(slope)
        self.cap = np.asarray(cap, dtype=np.int64)
        self.drawn = any(slope)
        self.capped = 1 in cap
        self.ring_of_event = np.asarray(ring_of_event, dtype=np.intp)
        self.ring_of_col = np.full(self.columns, -1, dtype=np.intp)
        self.slot_of_col = np.zeros(self.columns, dtype=np.intp)
        for r, i in enumerate(self.ring_stations):
            for j, k in enumerate(spec.stations[i]):
                self.ring_of_col[k] = r
                self.slot_of_col[k] = j

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

    def run(self, flat, row, u, v, rings=None) -> None:
        """Apply a block of [step, replication] uniforms to the replications
        whose count rows start at ``row`` in ``flat`` (and to their queues in
        ``rings``, which specs with ring stations need)."""
        # count the thresholds at or below each draw, leaving out the last:
        # a searchsorted clipped to the table
        ev = np.zeros(u.shape, dtype=np.intp)
        for cum in self.event_cum[:-1]:
            ev += u >= cum
        if rings is not None:
            self.ring_steps(flat, row, ev, u, v, rings)
            return
        if self.slots == 1:
            moves = zip(*self.resolve(ev, v, row))
        else:
            moves = self.slot_moves(flat, row, ev, u, v)
        for s, t in moves:
            held = flat[s]
            act = held > 0
            flat[s] = held - act
            flat[t] += act  # after the source update, so a self-route nets zero

    def codes(self, rid, v):
        """Outcome codes (row * width + outcome) of table rows ``rid`` at
        routing draws ``v``."""
        code = rid * self.width
        for column in self.thresholds.T[:-1]:
            code += v >= column[rid]
        return code

    def resolve(self, rid, v, row):
        """Source and target columns of the outcomes of table rows ``rid`` at
        routing draws ``v``, for the replications whose count rows start at
        ``row``."""
        code = self.codes(rid, v)
        src = self.src_of[code]
        src += row
        dst = self.dst_of[code]
        dst += row
        return src, dst

    def slot_moves(self, flat, row, ev, u, v):
        """(source, target) per step, with the served slot picked from the counts."""
        slots = self.slots
        steps, reps = ev.shape
        # source and target column per [step, replication, slot]
        src = np.empty((steps, reps, slots), dtype=np.intp)
        dst = np.empty_like(src)
        for j in range(slots):
            src[..., j], dst[..., j] = self.resolve(ev * slots + j, v, row)
        src = src.reshape(steps, -1)
        dst = dst.reshape(steps, -1)
        for t, slot in enumerate(self.count_slots(flat, row, ev, u)):
            yield src[t][slot], dst[t][slot]

    def count_slots(self, flat, row, ev, u):
        """Per step, the index of the served slot in the [replication, slot]
        outcomes, read from the counts as the step comes.

        The slot is the number of slots j below the last whose cumulative
        capped count is at most x = w * (capped total); with x = 0 that is
        the first nonempty slot. An empty station picks its last slot, whose
        move then finds its source empty. Events elsewhere read only the
        empty column and pick the last slot, which repeats their row.
        """
        slots = self.slots
        steps, reps = ev.shape
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
            yield slot

    def ring_steps(self, flat, row, ev, u, v, rings: _FCFSRings) -> None:
        """Step a block on counts and rings: at a ring station the served slot
        is that of the head class, and a move that happens pops the served
        ring and pushes its target onto the tail of the target's ring.

        Each replication owns its queues, so the array updates below never
        meet twice on a real queue; the scratch queue takes the rest.
        """
        slots = self.slots
        steps, reps = ev.shape
        stations = rings.stations
        ring, head, length, cap = rings.ring.reshape(-1), rings.head, rings.length, rings.cap
        qbase = row // self.columns * stations
        # every push writes at head + length: below cap, that is a free place
        longest = int(length[qbase[0] : qbase[-1] + stations].max())
        if longest + steps > cap:
            raise RuntimeError(
                f"FCFS ring capacity {cap} cannot hold {longest} jobs plus {steps} steps"
            )
        mask = cap - 1
        scratch = len(head) - 1
        # the queue each [step, replication] event serves, and its first place in ``ring``
        served = self.ring_of_event[ev]
        at_ring = served >= 0
        queue = np.where(at_ring, qbase + served, scratch)
        place = queue * cap
        # per [step, replication, slot]: source and target column, the
        # target's queue and its class id
        src = np.empty((steps, reps, slots), dtype=np.intp)
        dst = np.empty_like(src)
        joins = np.empty_like(src)
        cls = np.empty(src.shape, dtype=rings.ring.dtype)
        for j in range(slots):
            code = self.codes(ev * slots + j, v)
            col = self.dst_of[code]
            cls[..., j] = col
            target = self.ring_of_col[col]
            joins[..., j] = np.where(target >= 0, qbase + target, scratch)
            src[..., j] = self.src_of[code] + row
            dst[..., j] = col + row
        src, dst, joins, cls = (a.reshape(steps, -1) for a in (src, dst, joins, cls))
        base = np.arange(reps) * slots
        counted = self.count_slots(flat, row, ev, u) if self.counted else None
        for t in range(steps):
            q = queue[t]
            h = head[q]
            slot = self.slot_of_col[ring[place[t] + (h & mask)]]
            slot += base
            if counted is not None:
                slot = np.where(at_ring[t], slot, next(counted))
            s = src[t][slot]
            held = flat[s]
            act = held > 0
            flat[s] = held - act
            flat[dst[t][slot]] += act
            head[q] = h + act
            length[q] -= act
            # read after the pop: a job routed back to its own station
            # joins behind the rest of the queue
            p = joins[t][slot]
            size = length[p]
            ring[p * cap + ((head[p] + size) & mask)] = cls[t][slot]
            length[p] = size + act
