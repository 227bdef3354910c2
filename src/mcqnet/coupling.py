"""Markovian coupling of two ordered copies of the network chain.

Both copies consume one shared event stream, drawn from the spec's compiled
``qprocess.TransitionTable`` (events, per-class branch tables and preferential
rankings).
The exact law of the pair chain (``PairEngine``) is one more kernel on
``exact.ExactEngine``, read from the same table's arrival and serve rates, so
every copy of the chain runs on one set of laws and one BFS engine, with
buffers lumped by ``qprocess.station_canonicalizer``. The upper copy evolves
exactly like the embedded chain; the lower copy mirrors each transition
whenever the served heads agree and freezes otherwise. While uncoupled, the
pair differs by exactly one extra job (the mark b): arrivals and mirrored
services preserve the relation, and the extra job's own departure either
re-marks the pair (on a class change) or couples it for good (on an exit).
A path (``CouplingKernel.run``) starts from a start record: ``start`` checks,
canonicalizes and marks one pair, and ``starts`` does so once for each
adjacent pair of the interpolated chain, so a caller that runs many paths
from one pair, as ``mcqnet couple`` does, runs them all from the same
records. A path has two phases. Up to the coupling time τ it is a loop of
``CouplingKernel.step``, the reference step rule for an uncoupled pair,
which rebuilds only the stations a move touches (``qprocess.StationMoves``,
the move rule the exact engine builds its kernel rows with). From τ on the
pair is one state x serving as both copies, and ``_run_coupled`` moves it on
the same uniforms, recording ``CoupledState(x, x, 0, ...)`` per move and the
previous record on a non-move. Both phases read one state table, which
serves every path a kernel runs: each canonical state reached gets an int
id, and its station heads and its successor ids (by a small int move code,
computed by ``StationMoves.move``) are computed once. ``_run_coupled`` walks
ids and ``step`` moves states through ``CouplingKernel._move``, which reads
the same table, so both record the table's state objects. The table stops
taking states at ``_STATE_TABLE_CAP``; past it a new state's moves are
computed and not stored. ``CoupledState`` is a slotted, unfrozen dataclass,
since a path builds one per step. ``verify_coupling_path`` passes over a
record that repeats the previous step's record object (a non-move) when the
previous step added no failure and the step is not the recorded τ, since
every check then gives the previous step's outcome. ``PairEngine`` moves
both copies of a pair by the same ``StationMoves`` rule;
``CouplingKernel._apply`` (``apply_transition`` plus a full
canonicalization) is kept only as the reference that rule is tested against.

What the coupling certifies is a time-changed order: with F_n the number of
frozen steps up to n, the lower copy at step n - F_n sits inside the upper copy
at step n. It does not certify stochastic dominance at a fixed time, which can
fail: on lk-sbp the exact law at step 24 gives the lower start ((1,), (3,)) a
heavier norm tail than the upper start ((1, 4), (3,))
(``tests/test_coupling.py::test_fixed_time_dominance_fails_on_lk_sbp``).

The construction requires stations that serve one class at a time and whose
insertion keeps the lower copy inside the upper one: FCFS head-of-queue, or
preferential allocation, whose buffers this module keeps in class-sorted
canonical (lumped) order with the ranked head playing the role of the queue
head. Multi-class head-of-queue stations under LCFS or SBP insertion are
rejected (a job inserted into both copies can land after different common
jobs), and so are egalitarian and proportional stations, whose service
fractions differ between the copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotASubconfigurationError, UnsupportedCouplingError
from .exact import ExactEngine, norm_cdf
from .network import NetworkSpec
from .qprocess import (
    NetworkState,
    StationMoves,
    TransitionLabel,
    apply_transition,
    check_state,
    is_substate,
    state_canonicalizer,
    state_norm,
    transition_table,
)
from .rng import Uniforms, run_block

# Most canonical states a kernel's state table holds. A run's states repeat,
# most often near its start states, which the table takes first; the cap keeps
# a long run on a large state space from holding every state it passes.
_STATE_TABLE_CAP = 1 << 14


@dataclass(slots=True, unsafe_hash=True)
class CoupledState:
    """One record of a coupled path. Slotted rather than frozen, since a path
    builds one per step; records are shared (a non-move repeats the previous
    record, a coupled pair has ``lower is upper``), so they must not be mutated."""

    lower: NetworkState
    upper: NetworkState
    mark: int  # 0 = coupled, else the class of the extra upper-side job
    frozen_count: int = 0
    lower_departures: int = 0
    upper_departures: int = 0


@dataclass
class CoupledPath:
    states: list[CoupledState]
    events: list[tuple[str, int]]
    tau: int | None  # first index with mark 0; None when censored

    @property
    def censored(self) -> bool:
        return self.tau is None


@dataclass
class InvariantReport:
    ok: bool
    failures: list[str]
    steps_checked: int


@dataclass
class ComparisonReport:
    n: int
    tv_upper: float
    pair_order_violation: float  # pair mass with lower norm above upper norm
    cdf_max_violation: float  # max_y of F_upper(y) - F_lower(y), exact chain laws
    pair_states: int


def classify_pair(lower: NetworkState, upper: NetworkState) -> int:
    """0 if equal, b if upper = lower plus one extra b-job, else -1."""
    if lower == upper:
        return 0
    if len(lower) != len(upper) or state_norm(upper) != state_norm(lower) + 1:
        return -1
    for i, (p, q) in enumerate(zip(lower, upper)):
        if len(q) == len(p) + 1:  # the only station that can hold the extra job
            j = next((j for j, (a, b) in enumerate(zip(p, q)) if a != b), len(p))
            # p is q without one job iff it is q without q[j], the first mismatch;
            # the norms differ by this one job, so every other station must be equal
            if p[j:] != q[j + 1:] or lower[:i] != upper[:i] or lower[i + 1:] != upper[i + 1:]:
                return -1
            return q[j]
    return -1


def _require_coupling_regime(spec: NetworkSpec) -> None:
    for i, protocol in enumerate(spec.protocols):
        if not protocol.serves_one_class:
            raise UnsupportedCouplingError(
                f"station {i + 1} uses {protocol.allocation.kind} allocation; "
                "the coupling covers FCFS head-of-queue and preferential stations only"
            )
        kind = protocol.policy.kind
        if protocol.allocation.kind == "hq" and kind != "fcfs" and len(spec.stations[i]) > 1:
            raise UnsupportedCouplingError(
                f"station {i + 1} serves several classes head-of-queue under {kind} "
                "insertion, which does not keep the lower copy inside the upper one"
            )


class CouplingKernel:
    """Shared tables, the state table every path reads, head functions and the
    one-step rule for coupled pairs."""

    def __init__(self, spec: NetworkSpec):
        _require_coupling_regime(spec)
        self.spec = spec
        self.table = transition_table(spec)
        self.canon = state_canonicalizer(spec)
        self._station_move = StationMoves(spec).move
        # one small int code per move (k, l) of positive probability, k = 0 an
        # arrival; exits (l = 0) first, so a code below ``_exits`` leaves the network
        branch = self.table.branch
        moves = [(k, l) for k, (_, routes) in branch.items() for _, l in routes]
        moves.sort(key=lambda move: move[1] != 0)
        moves += [(0, k) for k, _ in self.table.arrivals]
        self._code_moves = moves
        self._codes = {move: code for code, move in enumerate(moves)}
        self._exits = sum(l == 0 for _, l in moves)
        self._arrival_codes = [self._codes.get((0, k)) for k in range(spec.class_count + 1)]
        # per class k: (active, (cumulative, code) per route), as ``table.branch``
        self._serves = {
            k: (active, tuple((cum, self._codes[k, l]) for cum, l in routes))
            for k, (active, routes) in branch.items()
        }
        # the state table: id -> state, its heads' serves per station (None
        # when empty) and its successor ids by move code
        self._ids: dict[NetworkState, int] = {}
        self._states: list[NetworkState] = []
        self._heads: list[tuple] = []
        self._succ: list[list] = []

    def _intern(self, xi: NetworkState) -> int:
        """The id of canonical ``xi``, adding it to the table while it holds
        fewer than ``_STATE_TABLE_CAP`` states. Past the cap an unknown state
        takes the spare id ``_STATE_TABLE_CAP``, overwritten by the next one."""
        s = self._ids.get(xi)
        if s is None:
            s = len(self._ids)
            serves, head = self._serves, self.head
            heads = tuple([serves[head(i, q)] if q else None for i, q in enumerate(xi)])
            if s < _STATE_TABLE_CAP:
                self._ids[xi] = s
            # append a stored state; overwrite the spare (or append it once)
            self._states[s:] = (xi,)
            self._heads[s:] = (heads,)
            self._succ[s:] = ([None] * len(self._code_moves),)
        return s

    def _successor(self, s: int, code: int) -> int:
        """The id reached from id ``s`` by the move ``code``, computed by
        ``StationMoves.move`` and stored unless it lands on the spare id."""
        t = self._intern(self._station_move(self._states[s], *self._code_moves[code]))
        if t < _STATE_TABLE_CAP:
            self._succ[s][code] = t
        return t

    def _move(self, xi: NetworkState, k: int, l: int) -> NetworkState:
        """``_apply`` for a canonical state holding a k-job (k = 0: arrival),
        rebuilding and canonicalizing only the stations the move touches
        (``StationMoves.move``). The move, one of positive probability, is
        read from the state table, so its result is the table's object."""
        code = self._codes[k, l]
        s = self._intern(xi)
        t = self._succ[s][code]
        if t is None:
            t = self._successor(s, code)
        return self._states[t]

    def head(self, i: int, q) -> int | None:
        if not q:
            return None
        order = self.table.ranked[i]
        if order is None:
            return q[0]
        for k in order:
            if k in q:
                return k
        return None

    def _apply(self, xi: NetworkState, k: int, l: int) -> NetworkState:
        """The reference move: ``apply_transition`` plus a full canonicalization,
        which ``_move`` is tested against."""
        return self.canon(apply_transition(self.spec, xi, TransitionLabel(k, l)))

    def start(self, lower, upper) -> CoupledState:
        """The start record of the pair: both states checked, canonicalized and marked."""
        return _marked(self.canon(check_state(self.spec, lower)),
                       self.canon(check_state(self.spec, upper)))

    def starts(self, xi, zeta) -> list[CoupledState]:
        """The start record of each adjacent pair on the chain from xi inside
        zeta (one record, coupled, when they are equal): both states checked
        and canonicalized, the chain interpolated and each pair marked, once.
        ``run`` runs a path from each record as often as it is given it."""
        lower = self.canon(check_state(self.spec, xi))
        upper = self.canon(check_state(self.spec, zeta))
        if not is_substate(lower, upper):
            raise NotASubconfigurationError("xi must be a componentwise subsequence of zeta")
        chain = [self.canon(z) for z in _interpolate(lower, upper)]
        return [_marked(a, b) for a, b in zip(chain[:-1], chain[1:])] or [_marked(lower, upper)]

    def step(self, cs: CoupledState, uni: Uniforms) -> tuple[CoupledState, tuple[str, int]]:
        """One move of an uncoupled pair (mark > 0), the reference step rule; a
        non-move returns ``cs`` itself. ``run`` moves a coupled pair in
        ``_run_coupled``."""
        event = self.table.draw(uni.next())
        kind, idx = event
        lower, upper, mark = cs.lower, cs.upper, cs.mark
        if kind == "A":
            k, l, mirrored = 0, idx, True
        else:
            q_up = upper[idx]
            if not q_up:  # both empty (lower is inside upper), nothing can depart
                return cs, event
            k = self.head(idx, q_up)
            mirrored = self.head(idx, lower[idx]) == k
            active, routes = self.table.branch[k]
            u = uni.next()
            if u >= active:  # upper self-loop
                if mirrored:
                    return cs, event
                return CoupledState(lower, upper, mark, cs.frozen_count + 1,
                                    cs.lower_departures, cs.upper_departures), event
            for cum, l in routes:
                if u < cum:
                    break
        upper = self._move(upper, k, l)
        low_dep, up_dep = cs.lower_departures, cs.upper_departures
        if l == 0:
            up_dep += 1
            low_dep += mirrored
        frozen = cs.frozen_count
        if mirrored:
            lower = self._move(lower, k, l)
        else:  # the extra job itself is served: re-mark on a class change, couple on exit
            frozen += 1
            # outside the coupling regime's invariant the pair is reclassified defensively
            mark = l if k == mark else classify_pair(lower, upper)
        return CoupledState(lower, upper, mark, frozen, low_dep, up_dep), event

    def run(self, cs: CoupledState, n: int, rng) -> CoupledPath:
        """Coupled path of n ``step`` moves from the start record ``cs`` (made
        by ``start`` or ``starts``) on one uniform stream, read in blocks of
        ``run_block(n)`` as ``PathSampler.run_terminal_norm`` reads its own.

        τ is the first index with mark 0. Moves up to τ are ``step`` calls, the
        rest run in ``_run_coupled``. The path certifies the time-changed order
        (lower at n - F_n inside upper at n), not dominance at a fixed time.
        """
        if n < 0:
            raise ValueError("steps must be nonnegative")
        uni = Uniforms(rng, run_block(n))
        states = [cs]
        events = []
        tau = 0 if cs.mark == 0 else None
        step = self.step
        m = 0
        while tau is None and m < n:
            m += 1
            cs, ev = step(cs, uni)
            states.append(cs)
            events.append(ev)
            if cs.mark == 0:
                tau = m
        self._run_coupled(cs, n - m, uni, states, events)
        return CoupledPath(states, events, tau)

    def _run_coupled(self, cs: CoupledState, steps: int, uni: Uniforms, states, events) -> None:
        """``steps`` moves of the coupled pair ``cs`` (mark 0), appended to
        ``states`` and ``events``: every move is mirrored, so the pair is one
        state x, walked by its id in the state table. A move records
        ``CoupledState(x, x, 0, ...)`` with the table's x and a non-move the
        previous record."""
        table_events, arrival_codes, exits = self.table.events, self._arrival_codes, self._exits
        id_states, id_heads, id_succ = self._states, self._heads, self._succ
        successor = self._successor
        buf = uni.buf
        add_state, add_event = states.append, events.append
        s, frozen = self._intern(cs.upper), cs.frozen_count
        low_dep, up_dep = cs.lower_departures, cs.upper_departures
        for _ in range(steps):
            if not buf:
                buf = uni.refill()
            u = buf.pop()
            for cum, event in table_events:
                if u < cum:
                    break
            kind, i = event
            if kind == "A":
                code = arrival_codes[i]
            else:
                serve = id_heads[s][i]
                if serve is None:  # empty station
                    add_state(cs)
                    add_event(event)
                    continue
                active, routes = serve
                if not buf:
                    buf = uni.refill()
                u = buf.pop()
                if u >= active:  # self-loop
                    add_state(cs)
                    add_event(event)
                    continue
                for cum, code in routes:
                    if u < cum:
                        break
                if code < exits:
                    low_dep += 1
                    up_dep += 1
            t = id_succ[s][code]
            s = successor(s, code) if t is None else t
            x = id_states[s]
            cs = CoupledState(x, x, 0, frozen, low_dep, up_dep)
            add_state(cs)
            add_event(event)


def _marked(lower: NetworkState, upper: NetworkState) -> CoupledState:
    """The start record of a canonical pair; NotASubconfigurationError unless
    the states are equal or upper holds one extra job."""
    mark = classify_pair(lower, upper)
    if mark < 0:
        raise NotASubconfigurationError(
            "states must be equal or differ by one extra job, lower inside upper"
        )
    return CoupledState(lower, upper, mark)


def _interpolate(lower: NetworkState, upper: NetworkState) -> list[NetworkState]:
    """Chain lower = Z_0 inside Z_1 ... inside Z_m = upper, one extra job each."""
    extras: list[tuple[int, int]] = []
    for i, (p, q) in enumerate(zip(lower, upper)):
        matched = []
        pos = 0
        for digit in p:
            while q[pos] != digit:
                pos += 1
            matched.append(pos)
            pos += 1
        taken = set(matched)
        extras.extend((i, j) for j in range(len(q)) if j not in taken)
    chain = [upper]
    current = [list(q) for q in upper]
    for i, j in sorted(extras, reverse=True):
        del current[i][j]
        chain.append(tuple(tuple(q) for q in current))
    chain.reverse()
    if chain[0] != lower:
        raise NotASubconfigurationError(f"{lower} is not a substate of {upper}")
    return chain


def path_streams(parent, count: int) -> list:
    """One stream per path: the next ``count`` children spawned from ``parent``.
    ``run_coupling`` spawns from its ``rng``; ``mcqnet couple`` from each rep's
    child of the master generator, so a rep's paths run on the streams
    ``run_coupling`` gives on ``master.spawn(1)[0]``."""
    return parent.spawn(count)


def run_coupling(spec: NetworkSpec, xi, zeta, n: int, rng) -> list[CoupledPath]:
    """Instrumented coupled paths from xi inside zeta.

    Pairs more than one job apart are decomposed into adjacent pairs along an
    interpolating chain (``CouplingKernel.starts``) and one coupling per
    adjacent pair is run (independent substreams). Equal states yield a single
    path that starts coupled.
    """
    kernel = CouplingKernel(spec)
    starts = kernel.starts(xi, zeta)
    return [kernel.run(cs, n, g) for cs, g in zip(starts, path_streams(rng, len(starts)))]


def verify_coupling_path(path: CoupledPath) -> InvariantReport:
    """Re-derive every claimed invariant from the raw states, in one pass.

    Checks per step: the pair stays equal-or-one-extra-job with the recorded
    mark, coupling is absorbing, departure counters match an independent
    recount of downward norm jumps, freezes are monotone and bounded by the
    step index, and the upper/lower departure counts obey the one-extra-
    departure relation split at the coupling time; and the recorded τ is the
    first index with mark 0. Norms and pair classes are recomputed only for
    state objects not seen at the previous step. A record that is the previous
    step's record object (a non-move) is passed over when the previous step
    added no failure and the step is not the recorded τ: every check then
    gives the previous step's outcome.
    """
    failures: list[str] = []
    states = path.states
    tau = path.tau
    start_coupled = states[0].mark == 0
    first_coupled = None
    lower_down = 0
    upper_down = 0
    prev = None
    prev_lower = prev_upper = None
    low_norm = up_norm = cls = 0
    clean = False
    for m, cs in enumerate(states):
        if cs is prev and clean and m != tau:
            continue
        before = len(failures)
        lower, upper = cs.lower, cs.upper
        if lower is not prev_lower or upper is not prev_upper:
            cls = 0 if lower is upper else classify_pair(lower, upper)
        if cls < 0:
            failures.append(f"step {m}: pair left the one-extra-job relation")
        elif cls != cs.mark:
            failures.append(f"step {m}: recorded mark {cs.mark} but pair classifies as {cls}")
        if cs.mark == 0:
            if lower != upper:
                failures.append(f"step {m}: coupled mark with unequal states")
            if first_coupled is None:
                first_coupled = m
        prev_low_norm, prev_up_norm = low_norm, up_norm
        if lower is not prev_lower:
            low_norm = state_norm(lower)
        if upper is lower:
            up_norm = low_norm
        elif upper is not prev_upper:
            up_norm = state_norm(upper)
        if prev is not None:
            if prev.mark == 0 and cs.mark != 0:
                failures.append(f"step {m}: left the absorbing coupled set")
            if low_norm < prev_low_norm:
                lower_down += 1
            if up_norm < prev_up_norm:
                upper_down += 1
            if cs.frozen_count < prev.frozen_count:
                failures.append(f"step {m}: frozen count decreased")
        if cs.frozen_count > m:
            failures.append(f"step {m}: frozen count exceeds the step index")
        if cs.lower_departures != lower_down or cs.upper_departures != upper_down:
            failures.append(f"step {m}: departure counters disagree with the path")
        expected_gap = 0 if (start_coupled or tau is None or m < tau) else 1
        if upper_down - lower_down != expected_gap:
            failures.append(
                f"step {m}: departure gap {upper_down - lower_down}, expected {expected_gap}"
            )
        prev, prev_lower, prev_upper = cs, lower, upper
        clean = len(failures) == before
    if tau != first_coupled:
        failures.append(f"recorded tau {tau}, but the first index with mark 0 is {first_coupled}")
    return InvariantReport(ok=not failures, failures=failures, steps_checked=len(states))


class PairEngine(ExactEngine):
    """Exact law of the coupled pair chain, for verification.

    The pair chain is one more kernel on ``ExactEngine``'s row builder: a
    station's buffer is the pair (lower, upper) of its two copies' canonical
    buffers, each moved by ``StationMoves``. A pair buffer's branches come
    from the head of the upper buffer; the lower one follows them when its own
    head is the same (``mirrored``, a station-local test, since equal copies
    have equal heads) and stays put otherwise. A join carries the token
    (l, mirrored) and moves the lower buffer only when mirrored. The start
    canonicalization (``CouplingKernel.start``, which also checks the
    one-extra-job relation) is its own too, and a pair's norm is its upper
    copy's. Interning, kernel rows, self-loop remainder, BFS step, budget and
    mass check are the engine's.
    """

    def __init__(self, spec: NetworkSpec, budget: int = 10**6):
        self.kernel_tables = CouplingKernel(spec)
        super().__init__(spec, reduced=True, budget=budget)

    def canonical(self, pair):
        start = self.kernel_tables.start(*pair)
        return start.lower, start.upper

    def _token_count(self) -> int:
        """Token l is the l-job joining both copies; d + l, the upper copy only."""
        return 2 * self.spec.class_count

    def _split(self, pair) -> tuple:
        return tuple(zip(*pair))

    def _assemble(self, columns):
        lowers = zip(*[[lower for lower, _ in col] for col in columns])
        uppers = zip(*[[upper for _, upper in col] for col in columns])
        return list(zip(lowers, uppers))

    def _jobs(self, buf) -> int:
        return len(buf[1])  # the upper copy's jobs: its norm is the chain's

    def _branches(self, i, buf):
        lower, upper = buf
        if not upper:
            return ()
        head = self.kernel_tables.head
        h = head(i, upper)
        mirrored = head(i, lower) == h
        leave = self._station_moves.leave
        skip = 0 if mirrored else self.spec.class_count
        out = []
        for l, rate_kl in self.table.serve[h]:
            up, j = leave(i, upper, h, l)
            low = leave(i, lower, h, l)[0] if mirrored else lower
            out.append((rate_kl / self.rate, (low, up), j, skip + l))
        return out

    def _joined(self, j, buf, token):
        lower, upper = buf
        join = self._station_moves.join
        d = self.spec.class_count
        if token > d:
            return lower, join(j, upper, token - d)
        return join(j, lower, token), join(j, upper, token)


def exact_pair_law_check(
    spec: NetworkSpec, xi, zeta, n: int, budget: int = 10**6
) -> ComparisonReport:
    """Exact verification that the coupling reproduces the upper chain's law.

    BFS over the pair chain, comparison of the upper marginal against the
    plain exact engine (total variation), the pathwise norm order of the pair
    law, and the stochastic-dominance conclusion compared directly between the
    two chains' own laws.
    """
    engine = ExactEngine(spec, reduced=True, budget=budget)
    pair_engine = PairEngine(spec, budget=budget)
    start = pair_engine.kernel_tables.start(xi, zeta)
    pair_dist = pair_engine.distribution((start.lower, start.upper), n)

    upper_marginal: dict[NetworkState, float] = {}
    order_violation = 0.0
    for (low, up), mass in pair_dist.items():
        upper_marginal[up] = upper_marginal.get(up, 0.0) + mass
        if state_norm(low) > state_norm(up):
            order_violation += mass
    reference = engine.distribution(start.upper, n)
    keys = set(upper_marginal) | set(reference)
    tv = 0.5 * sum(abs(upper_marginal.get(s, 0.0) - reference.get(s, 0.0)) for s in keys)

    dist_lower = engine.distribution(start.lower, n)
    top = max(state_norm(s) for s in list(dist_lower) + list(reference))
    cdf_low = norm_cdf(dist_lower, top)
    cdf_up = norm_cdf(reference, top)
    cdf_violation = max(u - l_ for u, l_ in zip(cdf_up, cdf_low))

    return ComparisonReport(
        n=n,
        tv_upper=tv,
        pair_order_violation=order_violation,
        cdf_max_violation=cdf_violation,
        pair_states=len(pair_dist),
    )
