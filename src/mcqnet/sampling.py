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
station adds a per-replication ring of queued jobs, since its head class is
the one it serves. It draws its uniforms in blocks of steps; the random
stream is consumed exactly as by drawing per step. ``_BatchKernel`` compiles
the spec into tables over keys, a key being an event and the bucket of the
routing uniform among that event's thresholds, so that one gather per table
resolves the move of every slot (each class a station could serve) at every
step of a block. Then ``_BatchKernel.run`` applies the block's moves. On a
single-class network whose routing has no cycle once self-routes are
dropped, a block of enough steps is solved class by class with cumulative
sums (Lindley's recursion, ``_BatchKernel.scan``). Every other block runs
one loop over the steps. Where a station serves several classes, it picks
each step's served slot per replication from the counts, from the head of a
ring or from both; on a single-class network the event fixes each move and
there is nothing to pick. The loop applies the move and, only when the spec
has ring stations, pops and pushes the rings, whose heads and tails are
absolute positions in one flat array. Multi-class LCFS and SBP head-of-queue
stations insert inside the queue and run on ``PathSampler`` only.

Both samplers check their start against the spec (``qprocess.check_state``):
``batch_terminal_norms`` once per call and ``PathSampler.reset`` whenever the
start differs from the last one it checked. A start that does not fit raises
``ValueError``.
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
    check_state,
    state_composition,
    state_norm,
    transition_table,
)
from .rng import Uniforms, run_block


class _HQStation:
    """Explicit ordered buffer, a deque; the head holds the whole server."""

    __slots__ = ("policy", "fcfs", "buf", "branch")

    def __init__(self, spec: NetworkSpec, i: int, table: TransitionTable):
        protocol = spec.protocols[i]
        self.policy = protocol.policy
        self.fcfs = protocol.policy.kind == "fcfs"
        self.buf = deque()
        self.branch = table.branch

    def reset(self, q) -> None:
        self.buf = deque(q)

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
        buf.popleft()
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
        self._start: NetworkState | None = None  # the last start checked

    def reset(self, xi0: NetworkState, rng, block: int | None = None) -> None:
        """Load the start xi0 and a fresh uniform reader on rng. A start
        equal to the last one checked is not checked again, since estimators
        run many short replications from one start."""
        if xi0 != self._start:
            self._start = check_state(self.spec, xi0)
        for st, q in zip(self.stations, self._start):
            st.reset(q)
        self.norm = state_norm(self._start)
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
        self.reset(xi0, rng, block=run_block(n))
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
# Fewest steps per class in a block for which a single-class network without
# a routing cycle is solved by the Lindley scan rather than stepped by the
# loop. A block holds max(1, 8192 // reps) steps; the loop's cost grows with
# the steps and the scan's with the classes. Rep-steps/s of the scan over the
# loop, from empty (8 blocks, median of 15 alternating runs, cell by cell the
# median of 4 such tables; 2 shared cores, Python 3.11, numpy 2.4; mm1,
# tandem2 and the test networks of test_sampling.py):
#
#   reps             64   128   256   390   512  1024  3000
#   steps/block     128    64    32    21    16     8     2
#   mm1 (1 class)  2.41  1.67  1.40  1.31  1.20  1.08  0.88
#   tandem2 (2)    1.60  1.16  0.94  0.89  0.76  0.69  0.52
#   branching (3)  1.29  1.08  0.89  0.82  0.70  0.67  0.51
#   diamond (3)    1.21  0.91  0.78  0.72  0.61  0.58  0.45
#   mid-exits (4)  1.02  0.74  0.61  0.59  0.49  0.48  0.34
#
# The scan breaks even near 4, 40, 55-80 and 125 steps with 1 to 4 classes.
_SCAN_MIN_STEPS = 16
# Count held by the batch stepper's sink column; no run empties it.
_SINK = 1 << 62


def _topological_order(d: int, edges) -> list[int] | None:
    """Classes 1..d with k before l for every edge (k, l), or None when the
    edges close a cycle (Kahn's algorithm)."""
    into = [0] * (d + 1)
    out = [[] for _ in range(d + 1)]
    for k, l in sorted(edges):
        into[l] += 1
        out[k].append(l)
    order = [l for l in range(1, d + 1) if not into[l]]
    for k in order:  # grows as classes lose their last edge in
        for l in out[k]:
            into[l] -= 1
            if not into[l]:
                order.append(l)
    return order if len(order) == d else None


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
    other; everything that does not depend on the state is resolved for the
    whole group and block at once. Each draw's key (its event and the bucket
    of v among the event's routing thresholds) is computed once, and one
    gather per table of ``_BatchKernel`` gives every slot's source and target
    column. A step then moves one job per replication from its source column
    to its target column if the source is nonempty. Column 0 is a sink that
    never empties: arrivals leave it and exits enter it.

    On a single-class network whose routing has no cycle once self-routes are
    dropped (tandem lines, branching and merging feed-forward networks), a
    block of at least ``_SCAN_MIN_STEPS`` steps per class is not stepped: a
    class's count follows Lindley's recursion x_t = max(x_{t-1} + xi_t, 0),
    so ``_BatchKernel.scan`` solves each class over the whole block with
    cumulative sums, upstream classes first. It reads the same draws and
    gives the same counts as the step loop, which runs every other block,
    single-class or not.

    At a single-class station the event fixes the served class. At a
    multi-class station the block resolves the outcome of every class the
    station could serve, and the step picks the served class (its slot) in
    the same loop whatever the station's kind. Order-insensitive stations
    pick it from the counts (``_BatchKernel.count_slots``): the
    top-ranked present class under preferential allocation, the class of the
    job at position floor(w * jobs) under proportional allocation and the
    present class at position floor(w * present classes) under egalitarian
    allocation. Here w is u rescaled within its event's interval: a uniform
    independent of the event and of v. A multi-class FCFS head-of-queue
    station serves its head, whose class the step reads from the station's
    ring of slots (``_FCFSRings``); a served job leaves the head, and a job
    that enters such a station joins the tail of its ring. Heads and tails
    are absolute positions that only advance; when a tail would pass the end
    of its row, every queue is re-laid from its row's start. The rings hold
    reps x (such stations + 1) x cap small ints, where cap is a power of two
    no larger than the one at or above twice the longest queue of the run
    plus a block's steps (or the longest start queue). The loop touches the
    rings only when the spec has such stations.

    ``xi0`` is checked against the spec once per call: a start that does not
    fit raises ``ValueError``.
    """
    if not is_batch_steppable(spec):
        raise ValueError("batch stepping cannot run multi-class LCFS or SBP head-of-queue stations")
    if n < 0:
        raise ValueError("steps must be nonnegative")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    xi0 = check_state(spec, xi0)
    kernel = _BatchKernel(spec)
    d = spec.class_count
    counts = np.zeros((reps, kernel.columns), dtype=np.int64)
    counts[:, 0] = _SINK
    counts[:, 1 : d + 1] = state_composition(spec, xi0)
    flat = counts.reshape(-1)
    row = np.arange(reps) * kernel.columns
    rings = None
    if kernel.ring_stations:
        # each queued job as its slot: its class's place in the station's classes
        queues = [[spec.stations[i].index(k) for k in xi0[i]] for i in kernel.ring_stations]
        rings = _FCFSRings(queues, reps, kernel.slots)
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
    """Per-replication slot rings of the multi-class FCFS head-of-queue stations.

    With R ring stations, each replication owns R + 1 rows of ``cap`` places
    in the flat array ``ring``: row ``rep * (R + 1) + r`` holds ring station
    r's queue in replication rep, and the last of its rows is a scratch
    queue. A queued job is stored as its slot, the place of its class in its
    station's classes. ``hpos`` and ``tpos`` are absolute positions in
    ``ring``: a row's queue is ``ring[hpos:tpos]``, head first, and a row
    starts at ``start``. A pop reads at ``hpos`` and advances it; a push
    writes at ``tpos`` and advances it. Steps whose event serves no ring
    station pop their scratch queue and moves whose target joins no ring push
    to it, so that every step runs the same array operations; nothing read
    from it is used.
    """

    def __init__(self, queues, reps: int, slots: int):
        self.stations = len(queues)
        longest = max(1, *map(len, queues))
        self.cap = 1 << (longest - 1).bit_length()
        rows = reps * (self.stations + 1)
        self.ring = np.zeros(rows * self.cap, dtype=np.min_scalar_type(slots - 1))
        self.start = np.arange(rows) * self.cap
        self.hpos = self.start.copy()
        self.tpos = self.start.copy()
        places = self.ring.reshape(rows, self.cap)
        for r, q in enumerate(queues):
            places[r :: self.stations + 1, : len(q)] = q
            self.tpos[r :: self.stations + 1] += len(q)

    def reserve(self, steps: int) -> None:
        """Make room for ``steps`` more steps, each of which adds at most one
        job per queue: empty the scratch queues and, when a tail would pass
        its row's end, re-lay every queue from its row's start. A re-lay
        first doubles ``cap`` until it holds twice the longest queue plus
        ``steps``, so that tails run at least that far before the next."""
        scratch = slice(self.stations, None, self.stations + 1)
        self.hpos[scratch] = self.tpos[scratch] = self.start[scratch]
        if int((self.tpos - self.start).max()) + steps <= self.cap:
            return
        length = self.tpos - self.hpos
        longest = int(length.max())
        cap = self.cap
        while cap < 2 * (longest + steps):
            cap *= 2
        rows = len(self.start)
        ring = self.ring if cap == self.cap else np.zeros(rows * cap, dtype=self.ring.dtype)
        places = ring.reshape(rows, cap)
        # rows in chunks, so that the positions take no more than a block's
        # arrays; a chunk's queues are all read before any is written, and
        # each is re-laid within its own row
        chunk = max(1, _BLOCK_UNIFORMS // max(1, longest))
        offsets = np.arange(longest)
        for lo in range(0, rows, chunk):
            part = slice(lo, lo + chunk)
            places[part, :longest] = self.ring.take(self.hpos[part, None] + offsets, mode="clip")
        self.ring, self.cap = ring, cap
        self.start = np.arange(rows) * cap
        self.hpos = self.start.copy()
        self.tpos = self.start + length


class _BatchKernel:
    """The batch stepper's tables for one spec, compiled once per run.

    Count columns are 0 (the sink), 1..d (the classes) and, with multi-class
    stations, d + 1: a column that stays empty. A slot is a class a
    multi-class station can serve, in rank order under preferential
    allocation and in the station's class order otherwise. Each event has
    one outcome row per slot: a step takes the outcome whose index is the
    number of the row's thresholds at or below its routing uniform v, and an
    outcome is a (source, target) column pair. Rows of arrivals and of
    single-class stations repeat over the slots; idle outcomes and padded
    slots move a job from the empty column to itself, which moves nothing.

    The rows are compiled into tables over keys. An event's thresholds below
    one, over all its slot rows, cut [0, 1) into buckets, and the key of a
    draw (u, v) is its event's first key plus the number of those thresholds
    at or below v. Every row's outcome is constant on a bucket, so per key
    ``src`` and ``dst`` hold every slot's source and target column and, with
    rings, ``join`` the ring row its target joins (R, the scratch queue,
    where it joins none) and ``push`` the slot it joins as. ``served`` gives
    the ring row an event pops (R where it serves no ring station), and
    ``ring_stations`` lists the multi-class FCFS head-of-queue stations.

    Per event, the slot columns are the count column of each slot at a
    multi-class order-insensitive station (the empty column elsewhere),
    ``slope`` rescales u to w (0 under preferential allocation, which draws
    nothing) and ``cap`` bounds each slot's count (1 under egalitarian
    allocation).
    """

    def __init__(self, spec: NetworkSpec):
        table = transition_table(spec)
        events = table.events
        self.slots = slots = max(len(classes) for classes in spec.stations)
        zero = spec.class_count + 1
        # the empty column is needed by multi-class stations only
        self.columns = zero + (slots > 1)
        rows = []  # per event, a (thresholds, outcomes) row per slot
        slot_cols, slope, cap = [], [], []
        self.ring_stations, served = [], []
        self.counted = False  # any multi-class order-insensitive station
        lows = [0.0] + [cum for cum, _ in events[:-1]]
        for (cum, (kind, idx)), low in zip(events, lows):
            slot_cols.append([zero] * slots)
            slope.append(0.0)
            cap.append(_SINK)
            served.append(-1)
            if kind == "A":
                rows.append([((), ((0, idx),))] * slots)
                continue
            classes = spec.stations[idx]
            if len(classes) == 1:
                k = classes[0]
                routes = table.routes[k]
                rows.append([(tuple(c for c, _ in routes), tuple((k, l) for _, l in routes))] * slots)
                continue
            allocation = spec.protocols[idx].allocation
            if allocation.kind == "hq":
                # FCFS: the served slot is the head's, read from the ring
                served[-1] = len(self.ring_stations)
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
            rows.append([])
            for k in classes:
                scale, routes = table.branch[k]
                # serve and route below the class's share of the event, idle above
                bounds = tuple(c for c, _ in routes[:-1]) + (scale,)
                rows[-1].append((bounds, tuple((k, l) for _, l in routes) + ((zero, zero),)))
            rows[-1] += [((), ((zero, zero),))] * (slots - len(classes))
        self.event_cum = np.asarray([cum for cum, _ in events])
        self.ev_type = np.min_scalar_type(len(events))
        self.lows = np.asarray(lows)
        self.slot_cols = np.asarray(slot_cols, dtype=np.intp)
        self.slope = np.asarray(slope)
        self.cap = np.asarray(cap, dtype=np.int64)
        self.drawn = any(slope)
        self.capped = 1 in cap

        ring_of_col, slot_of_col = {}, {}
        for r, i in enumerate(self.ring_stations):
            for j, k in enumerate(spec.stations[i]):
                ring_of_col[k], slot_of_col[k] = r, j
        rings = len(self.ring_stations)
        self.served = np.asarray([rings if r < 0 else r for r in served], dtype=np.intp)
        # a pick counts at most width - 1 thresholds of a row
        width = max(len(outcomes) for event_rows in rows for _, outcomes in event_rows)
        moves, first, cuts = [], [], []
        for event_rows in rows:
            picks = [bounds[: width - 1] for bounds, _ in event_rows]
            cut = sorted({c for bounds in picks for c in bounds if c < 1.0})
            first.append(len(moves))
            cuts.append(cut)
            for at in [-math.inf] + cut:  # each bucket's lowest v
                moves.append([])
                for bounds, (_, outcomes) in zip(picks, event_rows):
                    j = sum(c <= at for c in bounds)
                    # a pick past the outcomes (a routing law summing to just
                    # under one) sends the row's last source to the sink
                    k, l = outcomes[j] if j < len(outcomes) else (outcomes[-1][0], 0)
                    # with one slot a self-route moves nothing, and neither
                    # does a move from the sink to itself; with self-routes
                    # gone, a move's target is never its source, which the
                    # scan needs
                    moves[-1].append((0, 0) if slots == 1 and k == l else (k, l))
        self.first = np.asarray(first, dtype=np.intp)
        self.cuts = np.full((len(events), max(map(len, cuts))), 2.0)  # pads are never passed
        for e, cut in enumerate(cuts):
            self.cuts[e, : len(cut)] = cut
        self.src = np.asarray([[k for k, _ in key] for key in moves], dtype=np.intp)
        self.dst = np.asarray([[l for _, l in key] for key in moves], dtype=np.intp)
        self.join = np.asarray([[ring_of_col.get(l, rings) for _, l in key] for key in moves], dtype=np.intp)
        self.push = np.asarray(
            [[slot_of_col.get(l, 0) for _, l in key] for key in moves], dtype=np.min_scalar_type(slots - 1)
        )
        self.order, self.feeders = None, set()
        if slots == 1:
            edges = {(k, l) for k, routes in table.routes.items() for _, l in routes if l and l != k}
            self.order = _topological_order(spec.class_count, edges)
            # classes whose departures feed another class, not only the sink
            self.feeders = {k for k, _ in edges}

    def run(self, flat, row, u, v, rings=None) -> None:
        """Apply a block of [step, replication] uniforms to the replications
        whose count rows start at ``row`` in ``flat`` (and to their queues in
        ``rings``, which specs with ring stations need).

        The block computes each draw's key and gathers every slot's move from
        the key tables at once. A block of at least ``_SCAN_MIN_STEPS`` steps
        per class on a network with a scan ``order`` is then solved by
        ``scan``. Every other block runs one loop: a step takes each
        replication's slot from the counts at a multi-class order-insensitive
        station (``count_slots``) and from the head of the served ring at a
        ring station, then moves the slot's job where its source is nonempty.
        A single-class network has one slot, which the loop takes as it is;
        there the event and v fix each move, and the loop gives the same
        counts as ``scan``. A move that happens advances the head of the
        served ring and the tail of the ring its target joins, where the
        step writes the target's slot; each replication owns its rings, so
        these updates never meet twice on one row.
        """
        # count the thresholds at or below each draw, leaving out the last:
        # a searchsorted clipped to the table, summed in the narrowest int type
        ev = np.zeros(u.shape, dtype=self.ev_type)
        for cum in self.event_cum[:-1]:
            ev += u >= cum
        ev = ev.astype(np.intp)
        # without cuts, an event has one key: its own index
        key = self.first.take(ev) if self.cuts.size else ev
        for cut in self.cuts.T:
            key += v >= cut.take(ev)
        steps, reps = key.shape
        slots = self.slots
        # per [step, replication * slots + slot]: source and target column
        src = self.src.take(key, axis=0).reshape(steps, reps * slots)
        dst = self.dst.take(key, axis=0).reshape(steps, reps * slots)
        if self.order is not None and steps >= _SCAN_MIN_STEPS * len(self.order):
            self.scan(flat, row, src, dst)
            return
        at = np.repeat(row, slots) if slots > 1 else row
        src += at
        dst += at
        counted = self.count_slots(flat, row, ev, u) if self.counted else None
        if rings is None:
            for t, (s, d) in enumerate(zip(src, dst)):
                # with one slot, nothing picks it: it is taken as it is
                if counted is not None:
                    slot = next(counted)
                    s, d = s[slot], d[slot]
                held = flat[s]
                act = np.sign(held)  # 1 where the source holds a job: counts are never negative
                flat[s] = held - act
                flat[d] += act  # after the source update, so a sink-to-sink move nets zero
            return
        per = rings.stations + 1
        qbase = row // self.columns * per
        ring, hpos, tpos, cap = rings.ring, rings.hpos, rings.tpos, rings.cap
        # every push writes at a tail: below its row's end, that is the row's own place
        rows = slice(qbase[0], qbase[-1] + per)
        tail = int((tpos[rows] - rings.start[rows]).max())
        if tail + steps > cap:
            raise RuntimeError(f"FCFS ring capacity {cap} cannot hold a tail at {tail} plus {steps} steps")
        # the ring row each [step, replication] event pops, and each slot's target joins
        queue = self.served.take(ev)
        at_ring = queue < rings.stations if counted is not None else None
        queue += qbase
        joins = self.join.take(key, axis=0).reshape(steps, reps * slots)
        joins += np.repeat(qbase, slots)
        pushed = self.push.take(key, axis=0).reshape(steps, reps * slots)
        base = np.arange(reps) * slots
        for t, (s, d) in enumerate(zip(src, dst)):
            q = queue[t]
            hp = hpos[q]
            slot = base + ring[hp]
            if counted is not None:
                slot = np.where(at_ring[t], slot, next(counted))
            s = s[slot]
            held = flat[s]
            act = np.sign(held)
            flat[s] = held - act
            flat[d[slot]] += act
            hpos[q] = hp + act
            p = joins[t][slot]
            tp = tpos[p]
            ring[tp] = pushed[t][slot]
            tpos[p] = tp + act

    def scan(self, flat, row, src, dst) -> None:
        """Apply a block of [step, replication] moves of a single-class
        network without a routing cycle, one class at a time in ``order``.

        The loop would move a step's job from its source column to its
        target column when the source is nonempty. Self-routes are sink to
        sink moves here, so a step never has class k as both its source and
        its target. Class k's count therefore follows Lindley's recursion
        x_t = max(x_{t-1} + xi_t, 0), where xi_t is +1 when step t moves a
        job into k (an arrival, or a move out of an upstream class that found
        a job there), -1 when step t serves k, and 0 otherwise: a served k
        loses a job exactly when x_{t-1} > 0. Unrolled, x_t = S_t +
        max(x_0, max_{s <= t} -S_s) with S the cumulative sum of xi, and
        step t's move out of k happens exactly when it serves k and
        x_{t-1} > 0. xi of class k reads only moves out of classes that
        route into k, which come before k in ``order``, so one pass settles
        every move. The arithmetic is on integers, so the counts equal the
        loop's, bit for bit. The sink's count is not updated: a scan never
        reads it and a loop reads only its sign.
        """
        moved = src == 0  # arrivals: the sink never empties
        for k in self.order:
            start = flat[row + k]
            served = src == k
            xi = (dst == k) & moved
            s = np.cumsum(xi.view(np.int8) - served.view(np.int8), axis=0, dtype=np.int64)
            if k not in self.feeders:
                # nothing reads k's moves, only its last count: S + max(x_0, -min S)
                flat[row + k] = s[-1] + np.maximum(start, -s.min(axis=0))
                continue
            x = np.negative(s)
            np.maximum.accumulate(x, axis=0, out=x)
            np.maximum(x, start, out=x)
            x += s
            flat[row + k] = x[-1]
            served[0] &= start > 0
            served[1:] &= x[:-1] > 0
            moved |= served

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
                x = 0  # an int: counts compare as ints
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
