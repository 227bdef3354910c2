"""Exact finite-horizon distributions of the embedded chain.

Every transition adds at most one job, so the n-step reachable set from a
fixed start is finite and the law of the chain can be computed by breadth-
first probability propagation. ``ExactEngine`` is the one BFS engine.

*Station-coded states.* Each station buffer is interned once to an integer
key, which records the buffer and its job count. A state is the row of its
stations' keys, packed into one ``int64`` code (one station: its key; two:
``key0 << 32 | key1``; from three on, the leading stations fold pairwise
into dense prefix ids first), and states are interned to ids by
``searchsorted`` against a sorted code array; each new id records its norm,
the sum of its buffers' job counts. ``states`` is filled in bulk from the
key rows when it is read.

*Layer rows.* A state's one-step kernel is stored as a row of flat, doubling
``int32`` target and branch-index buffers, built once, when the state first
holds mass. Python works once per distinct buffer: its served branches
(float ``allocate``, ``StationMoves.leave``: one job leaves station i and
may still join station j) followed by the station's part of the
uniformization self-loop, the share of its departure event the branches
leave; and its joins (``StationMoves.join``). The arrivals are the branches
of a virtual source station that every state holds. The rows of all states
that first hold mass at one step (a BFS layer) are then built from these
tables with numpy gathers.

*Scale-free rows.* An entry holds the index of its branch, whose probability
is ``_br_p``'s, so the rows do not depend on the arrival rates:
``set_theta`` moves an engine to new rates by recomputing the branch
probabilities alone, and keeps its states, ids and rows.

*Sorted supports.* A step gathers the rows of the support and sums ``mass *
probability`` per target with one ``np.bincount``; the next support is the
set of targets reached, marked and listed in id order. The rows of the
leading ids are stored in id order from entry 0 (the run; from one start,
every row), so a support of ids 0..L-1 reads its rows as one slice. A push
whose next support is its own keeps its plan (row lengths, targets and
entry probabilities) and hands its support array back; when a sweep pushes
that array again, one ``repeat``, one multiply and one ``bincount`` make the
step. Those are the same products summed in the same order, so the law is
bit for bit the one a fresh gather gives. Rows never change once built, so
only ``set_theta``, which changes the branch probabilities, drops the plan.
This serves closed chains whose support has stopped changing. The
engine checks the kernel mass (per buffer, against its station's share) and
counts interned states against ``budget``, checked as targets are interned,
so a run stops before it allocates past the budget.

*One path.* Every public call enters through ``_ids_of``, which interns the
``canonical`` form of each state it is given, so keys that share a canonical
form are one state and ``step`` merges their mass; ``canonical`` checks the
state against the spec first, so a start that is not a state of the spec
raises ``ValueError`` at every entry. ``_push`` is the one
reader of the rows: ``step`` and ``kernel`` (a ``step`` from one state) push
a law once, and ``reachable_states`` pushes each frontier of its closure.
``distribution``, ``law_arrays``, ``functional_series`` and ``norm_series``
run one sweep, ``_sweep``, which yields the support and mass at steps 0..n
and checks the mass drift after the last step. Functionals of the norm
(``norm_expectation``, ``norm_series``) gather each id's stored job count
(``norms``) and build no tuple state.

The buffers, branches and joins come from a few overridable methods, so the
coupled pair chain (``coupling.PairEngine``, whose buffer at a station is a
(lower, upper) pair) runs on the same row builder. The transient
(continuous-time) functional, ``transient_grid``, is recovered from the step
laws through the Poisson jump-count mixture.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

import numpy as np

from .allocation import allocate
from .allocation import allocate_fractions  # noqa: F401  (bench/tracing.py times it here)
from .errors import BudgetExceededError
from .network import NetworkSpec
from .qprocess import (
    NetworkState,
    StationMoves,
    apply_transition,  # noqa: F401  (the reference move; kept importable from here)
    check_state,
    state_canonicalizer,
    state_norm,
    transition_table,
)

StateDistribution = dict[NetworkState, float]

_POISSON_MAX_TERMS = 100_000  # longest jump-count mixture a transient may need
_KEY_LIMIT = 1 << 31  # buffer keys (int32 arrays) and prefix ids fill 32-bit halves of a code
_NO_CODE = np.iinfo(np.int64).max  # past every code: 32-bit halves never reach it


def _grown(a: np.ndarray, need: int, fill) -> np.ndarray:
    """``a`` itself, or a copy at least twice as long when ``need`` rows exceed it."""
    size = len(a)
    if need <= size:
        return a
    out = np.full((max(need, 2 * size),) + a.shape[1:], fill, dtype=a.dtype)
    out[:size] = a
    return out


class _CodeTable:
    """Dense ids of int64 codes, found by ``searchsorted`` in a sorted code array."""

    def __init__(self):
        self.codes = np.full(1, _NO_CODE, dtype=np.int64)  # sorted, the sentinel last
        self.ids = np.full(1, -1, dtype=np.int64)  # the id of each sorted code
        self.size = 0

    def intern(self, codes: np.ndarray, room: int = _NO_CODE):
        """(ids, first): the id of each code, where new codes take the next
        ids in code order, and the index in ``codes`` of each new code's first
        occurrence, by id. With more than ``room`` new codes only the first
        ``room`` are added, and ids is None."""
        pos = self.codes.searchsorted(codes)
        ids = self.ids[pos]
        miss = (self.codes[pos] != codes).nonzero()[0]
        if not len(miss):
            return ids, miss
        size = self.size
        if len(miss) == 1:  # one new code, as in a chain that adds one state a step
            new, starts, rank = codes[miss], miss, size
        else:
            order = miss[codes[miss].argsort(kind="stable")]
            ordered = codes[order]
            first = np.empty(len(order), dtype=bool)
            first[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
            new, starts = ordered[first], order[first]
            miss, rank = order, first.cumsum() + (size - 1)
        count = min(len(new), room)
        merged = np.concatenate((self.codes, new[:count]))
        by_code = merged.argsort(kind="stable")  # merges two sorted runs
        self.codes = merged[by_code]
        self.ids = np.concatenate((self.ids, np.arange(size, size + count)))[by_code]
        self.size = size + count
        if count < len(new):
            return None, starts[:count]
        ids[miss] = rank
        return ids, starts


class ExactEngine:
    """Breadth-first exact distribution engine on station-coded states and layer rows.

    ``states[x]`` is the state with id x. With ``reduced=True`` states are
    canonicalized per station protocol after every transition, shrinking the
    state count on reducible stations (single-class, order-insensitive, SBP
    head-of-queue); stations without a reduction keep their full ordered
    buffers. ``budget`` bounds the number of interned states.
    """

    def __init__(self, spec: NetworkSpec, *, reduced: bool = False, budget: int = 10**6):
        self.reduced = reduced
        self.budget = budget
        self._point_at(spec)
        self._canon = state_canonicalizer(spec) if reduced else (lambda xi: xi)
        self._station_moves = StationMoves(spec, reduced)
        # Buffer keys. Key 0 is the source: a virtual station S that every
        # state holds, whose branches are the arrivals.
        S = self._stations = spec.station_count
        self._buf_station = [S]
        self._buf_keys: list[dict] = [{} for _ in range(S)]
        self._buf_objs = np.full(64, None, dtype=object)  # the buffers, to gather states from
        self._buf_len = np.zeros(64, dtype=np.int64)  # jobs per buffer; the source holds none
        self._join = np.full((64, self._token_count() + 1), -1, dtype=np.int32)
        self._join[0, 0] = 0  # [key, token] -> key after the join; token 0 joins nothing
        self._br_start = np.zeros(64, dtype=np.int64)
        self._br_len = np.full(64, -1, dtype=np.int64)  # -1: branches not built yet
        # Flat branches: probability, and (station left, its new key, station joined, token).
        self._br_p = np.zeros(256)
        self._br_move = np.zeros((256, 4), dtype=np.int32)
        self._br_used = 0
        self._store_branches([(0, self._arrivals())])
        # States: a row of buffer keys each (the source's last), codes, kernel rows.
        self._n = 0
        self._cols = np.zeros((64, S + 1), dtype=np.int32)
        self._norm = np.zeros(64, dtype=np.int64)  # jobs per state, its buffers' sum
        self._codes = _CodeTable()
        self._prefixes = [_CodeTable() for _ in range(S - 2)]
        self._states: list = []
        self._row_start = np.zeros(64, dtype=np.int64)
        self._row_len = np.zeros(64, dtype=np.int64)  # 0: no row built yet
        self._targets = np.zeros(256, dtype=np.int32)  # state ids; 2**31 states would not fit in memory
        self._br_at = np.zeros(256, dtype=np.int32)  # each entry's branch; 2**31 branches would not fit either
        self._used = 0
        # The rows of ids 0.._run-1 are stored in id order from entry 0 and end
        # at entry _run_end, so a support 0..L-1 reads them as one slice.
        self._run = self._run_end = 0
        # (support, row lengths, targets, entry probabilities) of the last
        # push, kept while that support maps to itself (see ``_push``).
        self._plan = None

    def _point_at(self, spec: NetworkSpec) -> None:
        """Take the arrival rates of ``spec``: its transition table, the
        uniformization rate, and each station's share of it."""
        self.spec = spec
        self.table = transition_table(spec)
        self.rate = self.table.rate
        # A departure event at station i has probability share[i]; what its
        # branches leave of it is the station's part of the self-loop.
        self._share = [max(spec.beta[k - 1] for k in at) / self.rate for at in spec.stations]

    def _arrivals(self) -> list:
        """The branches of the source: one arrival per class with a positive rate."""
        S, station_of = self._stations, self._station_moves.station_of
        return [(p, (S, 0, station_of[k], k)) for k, p in self.table.arrivals]

    def set_theta(self, theta) -> bool:
        """Point the engine at the arrival rates ``theta``, keeping its keys,
        rows, ids and states: only branch probabilities depend on theta.

        Every built key's branches are recomputed as a cold build computes
        them (``_branches``, the self-loop remainder, the kernel-mass check),
        so the laws are a fresh engine's bit for bit. Returns False and
        changes nothing when a branch list would change: an arrival class
        switching on or off, a self-loop appearing or vanishing. Rows read
        each entry's probability from its branch, so they stay as they are.
        """
        was = self.spec, self.table, self.rate, self._share
        self._point_at(self.spec.with_theta(theta))
        fits = False
        try:
            keys = (self._br_len[: len(self._buf_station)] >= 0).nonzero()[0]
            keys = keys[self._br_start[keys].argsort(kind="stable")]  # storage order, the source first
            rows = [self._arrivals()] + [self._branch_list(k) for k in keys[1:].tolist()]
            if [len(row) for row in rows] == self._br_len[keys].tolist():
                branches = [branch for row in rows for branch in row]
                moves = np.array([move for _, move in branches], dtype=np.int32).reshape(-1, 4)
                fits = np.array_equal(moves, self._br_move[: self._br_used])
        finally:
            if not fits:
                self.spec, self.table, self.rate, self._share = was
        if fits:
            self._br_p[: self._br_used] = [p for p, _ in branches]
            self._plan = None  # its entry probabilities are the old rates'
        return fits

    def canonical(self, xi) -> NetworkState:
        """The start state as the engine stores it; ``ValueError`` (or
        ``TypeError``) unless ``xi`` is a state of the spec (``check_state``)."""
        return self._canon(check_state(self.spec, xi))

    # -- what a state is made of (overridden by the pair chain) ------------

    def _token_count(self) -> int:
        """Join tokens are 1..count; here the class that joins."""
        return self.spec.class_count

    def _split(self, state) -> tuple:
        """The per-station buffers of ``state``."""
        return state

    def _assemble(self, columns: list[list]) -> list:
        """The states whose per-station buffers are ``columns``, one list per station."""
        return list(zip(*columns))

    def _jobs(self, buf) -> int:
        """The job count of the station buffer ``buf``; a state's norm is their sum."""
        return len(buf)

    def _branches(self, i: int, q):
        """(probability, buffer left at i, station to join or None, token) per served branch."""
        if not q:
            return ()
        lam = self.rate
        serve = self.table.serve
        leave = self._station_moves.leave
        out = []
        for k, w in allocate(self.spec.protocols[i].allocation, q).items():
            if w == 0:
                continue
            for l, rate_kl in serve[k]:
                b, j = leave(i, q, k, l)
                out.append((w * rate_kl / lam, b, j, l))
        return out

    def _joined(self, j: int, q, token: int):
        """Station j's buffer after the class ``token`` joins ``q``."""
        return self._station_moves.join(j, q, token)

    # -- buffers -----------------------------------------------------------

    def _key(self, i: int, obj) -> int:
        """The key of station i's buffer ``obj``, interned on first sight."""
        key = self._buf_keys[i].get(obj)
        if key is None:
            key = len(self._buf_station)
            if key >= _KEY_LIMIT:
                raise BudgetExceededError("more station buffers than a state code can hold")
            self._buf_keys[i][obj] = key
            self._buf_station.append(i)
            if key >= len(self._br_len):
                self._buf_objs = _grown(self._buf_objs, key + 1, None)
                self._buf_len = _grown(self._buf_len, key + 1, 0)
                self._join = _grown(self._join, key + 1, -1)
                self._br_start = _grown(self._br_start, key + 1, 0)
                self._br_len = _grown(self._br_len, key + 1, -1)
            self._buf_objs[key] = obj
            self._buf_len[key] = self._jobs(obj)
            self._join[key, 0] = key
        return key

    def _store_branches(self, rows) -> None:
        """Append the branches (p, (i, left key, j, token)) of each (key, branches) row."""
        used = start = self._br_used
        ps, moves = [], []
        br_start, br_len = self._br_start, self._br_len
        for key, branches in rows:
            br_start[key] = start
            br_len[key] = len(branches)
            start += len(branches)
            for p, move in branches:
                ps.append(p)
                moves.append(move)
        self._br_used = start
        if start > len(self._br_p):
            self._br_p = _grown(self._br_p, start, 0.0)
            self._br_move = _grown(self._br_move, start, 0)
        if ps:
            self._br_p[used:start] = ps
            self._br_move[used:start] = moves

    def _branch_list(self, k: int) -> list:
        """The served branches of buffer key k, then its station's self-loop:
        the part of the departure event they leave, when above 1e-15."""
        key = self._key
        i, q = self._buf_station[k], self._buf_objs[k]
        branches = [
            (p, (i, key(i, b), i, 0) if j is None else (i, key(i, b), j, token))
            for p, b, j, token in self._branches(i, q)
        ]
        served = sum(p for p, _ in branches)
        if served > self._share[i] + 1e-12:
            raise AssertionError(
                f"kernel mass exceeds one: station {i + 1} serves {served!r} "
                f"of its {self._share[i]!r} at {q}"
            )
        if self._share[i] - served > 1e-15:
            branches.append((self._share[i] - served, (i, k, i, 0)))
        return branches

    def _build_joins(self, keys: np.ndarray, tokens: np.ndarray) -> None:
        """Tabulate the (key, token) joins not known yet."""
        for key, token in sorted(set(zip(keys.tolist(), tokens.tolist()))):
            i = self._buf_station[key]
            self._join[key, token] = self._key(i, self._joined(i, self._buf_objs[key], token))

    # -- states --------------------------------------------------------------

    @property
    def buffers(self) -> np.ndarray:
        """The station buffers (an object array), by key; key 0 is the source (None)."""
        return self._buf_objs[: len(self._buf_station)]

    def key_rows(self, ids: np.ndarray) -> np.ndarray:
        """Each state id's row of per-station buffer keys: state x is
        ``tuple(buffers[k] for k in key_rows(x))``."""
        return self._cols[ids, : self._stations]

    def norms(self, ids: np.ndarray) -> np.ndarray:
        """The job count of each state id, stored when the state was interned."""
        return self._norm[ids]

    @property
    def states(self) -> list:
        """The interned states, by id."""
        have = len(self._states)
        if have < self._n:
            cols = self._cols[have : self._n]
            columns = [self._buf_objs[cols[:, s]].tolist() for s in range(self._stations)]
            self._states.extend(self._assemble(columns))
        return self._states

    def _code(self, cols: np.ndarray) -> np.ndarray:
        """The int64 code of each row of buffer keys in ``cols``."""
        code = cols[:, 0].astype(np.int64)
        for s, prefix in enumerate(self._prefixes, start=1):
            code = prefix.intern((code << 32) | cols[:, s])[0]
        if self._stations > 1:
            code = (code << 32) | cols[:, self._stations - 1]
        return code

    def _intern(self, cols: np.ndarray) -> np.ndarray:
        """The ids of the states whose key rows are ``cols``; new states are
        interned within the budget, in code order."""
        n = self._n
        ids, first = self._codes.intern(self._code(cols), self.budget - n)
        if len(first):
            self._n = end = n + len(first)
            if end > len(self._cols):
                self._cols = _grown(self._cols, end, 0)
                self._norm = _grown(self._norm, end, 0)
                self._row_start = _grown(self._row_start, end, 0)
                self._row_len = _grown(self._row_len, end, 0)
            self._cols[n:end] = cols[first]
            self._norm[n:end] = self._buf_len[self._cols[n:end]].sum(axis=1)
        if ids is None:
            raise BudgetExceededError(
                f"state space passed the budget of {self.budget} interned states"
            )
        return ids

    def _ids_of(self, states) -> np.ndarray:
        """The ids of the canonical forms of ``states``, interned on first sight."""
        key, split, canonical = self._key, self._split, self.canonical
        cols = [[key(i, b) for i, b in enumerate(split(canonical(xi)))] + [0] for xi in states]
        return self._intern(np.array(cols, dtype=np.int32).reshape(len(states), self._stations + 1))

    # -- rows ----------------------------------------------------------------

    def _build_rows(self, ids: np.ndarray) -> None:
        """Build and store the kernel rows of the states ``ids``, interning their targets.

        A row lists the branches of the state's buffers, station by station
        (each station's self-loop last), then the arrivals, the branches of
        the source.
        """
        S = self._stations
        cols = self._cols[ids]
        keys = cols.ravel()  # state by state: stations 0..S-1, then the source
        lens = self._br_len[keys]
        if lens[lens.argmin()] < 0:
            fresh = sorted(set(keys[lens < 0].tolist()))
            self._store_branches([(k, self._branch_list(k)) for k in fresh])
            lens = self._br_len[keys]
        ends = lens.cumsum()
        entry = np.arange(ends[-1])
        at = (self._br_start[keys] + lens - ends).repeat(lens)
        at += entry
        row_ends = ends[S :: S + 1]
        row_len = row_ends.copy()
        row_len[1:] -= row_ends[:-1]
        targets = cols.repeat(row_len, axis=0)
        i, left, j, token = self._br_move[at].T
        targets[entry, i] = left
        joining = targets[entry, j]
        joined = self._join[joining, token]
        if joined[joined.argmin()] < 0:
            unknown = (joined < 0).nonzero()[0]
            self._build_joins(joining[unknown], token[unknown])
            joined[unknown] = self._join[joining[unknown], token[unknown]]
        targets[entry, j] = joined
        targets = self._intern(targets)
        used = self._used
        self._used = end = used + len(targets)
        if end > len(self._targets):
            self._targets = _grown(self._targets, end, 0)
            self._br_at = _grown(self._br_at, end, 0)
        self._targets[used:end] = targets
        self._br_at[used:end] = at
        self._row_len[ids] = row_len
        row_ends += used - row_len
        self._row_start[ids] = row_ends
        run = self._run
        if used == self._run_end and ids[0] == run and ids[-1] == run + len(ids) - 1:
            self._run, self._run_end = run + len(ids), end  # ids: distinct, ascending

    def _rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray | slice]:
        """Row lengths of ``ids`` (distinct, ascending) and the positions of
        their entries, building missing rows: one slice when ``ids`` is
        0..L-1 within the run, else an index array."""
        lengths = self._row_len[ids]
        if len(ids) and not lengths[lengths.argmin()]:
            self._build_rows(ids[lengths == 0])
            lengths = self._row_len[ids]
        count = len(ids)
        if count and count <= self._run and ids[-1] == count - 1:
            return lengths, slice(0, self._row_start[count - 1] + lengths[-1])
        ends = lengths.cumsum()
        at = (self._row_start[ids] + lengths - ends).repeat(lengths)
        at += np.arange(len(at))
        return lengths, at

    # -- propagation ---------------------------------------------------------

    def _push(self, support: np.ndarray, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step on arrays: the next support (in id order) and its mass.

        A push whose support maps to itself keeps its plan (row lengths,
        targets, entry probabilities) and returns the support array it was
        given; pushing that array again reuses the plan.
        """
        plan = self._plan
        if plan is not None and plan[0] is support:
            _, lengths, targets, p = plan
            return support, np.bincount(targets, p * mass.repeat(lengths))[support]
        lengths, at = self._rows(support)
        targets = self._targets[at]
        p = self._br_p[self._br_at[at]]
        out = np.bincount(targets, p * mass.repeat(lengths))
        reached = np.zeros(len(out), dtype=bool)
        reached[targets] = True
        reached = reached.nonzero()[0]
        if len(reached) == len(support) and np.array_equal(reached, support):
            self._plan = (support, lengths, targets, p)
            return support, out[support]
        self._plan = None
        return reached, out[reached]

    def _sweep(self, xi0, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(support, mass) at steps 0..n from xi0; the mass drift is checked after the last."""
        if n < 0:
            raise ValueError("step count must be nonnegative")
        support, mass = self._ids_of([xi0]), np.ones(1)
        yield support, mass
        for _ in range(n):
            support, mass = self._push(support, mass)
            yield support, mass
        total = sum(mass.tolist())
        if abs(total - 1.0) >= 1e-10:
            raise RuntimeError(f"mass drifted to {total}")

    def law_arrays(self, xi0, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The law after n steps from xi0 as (state ids in id order, their mass)."""
        for support, mass in self._sweep(xi0, n):
            pass  # the sweep checks the last law's mass as it ends
        return support, mass

    def _law(self, support: np.ndarray, mass: np.ndarray) -> StateDistribution:
        states = self.states
        return dict(zip([states[x] for x in support.tolist()], mass.tolist()))

    def step(self, dist: dict) -> dict:
        """One BFS step: the law after pushing ``dist`` through the kernel; keys
        with one canonical form share their mass.

        Raises BudgetExceededError when the interned states pass the budget.
        """
        ids, inverse = np.unique(self._ids_of(list(dist)), return_inverse=True)
        mass = np.bincount(inverse.ravel(), np.fromiter(dist.values(), float, len(dist)))
        return self._law(*self._push(ids, mass))

    def kernel(self, xi):
        """(target, probability) pairs of one step from ``xi``: a ``step`` from it alone."""
        return tuple(self.step({xi: 1.0}).items())

    def distribution(self, xi0, n: int) -> dict:
        """Exact law of the chain after n steps from xi0."""
        return self._law(*self.law_arrays(xi0, n))

    def norm_expectation(
        self, support: np.ndarray, mass: np.ndarray, f: Callable[[int], float]
    ) -> float:
        """E[f(norm)] under the law (support, mass), without tuple states.

        f runs once per int norm up to the largest, and the terms mass *
        f(norm) are added by Python ``sum`` in support order: the same IEEE
        products in the same order as ``expectation(law, lambda s:
        f(state_norm(s)))``, so the value is bit for bit the same.
        """
        norms = self.norms(support)
        table = np.array([f(y) for y in range(int(norms.max()) + 1)], dtype=float)
        return sum((mass * table[norms]).tolist())

    def norm_series(self, xi0, n: int, f: Callable[[int], float]) -> list[float]:
        """E[f(norm at step m)] for m = 0..n: ``norm_expectation`` of each
        step's law, bit for bit ``functional_series(xi0, n, lambda s:
        f(state_norm(s)))``."""
        return [self.norm_expectation(*law, f) for law in self._sweep(xi0, n)]

    def functional_series(
        self, xi0: NetworkState, n: int, phi: Callable[[NetworkState], float]
    ) -> list[float]:
        """E[phi(state at step m)] for m = 0..n; phi runs once per interned state."""
        values_of = np.zeros(0)
        series = []
        for support, mass in self._sweep(xi0, n):
            known = len(values_of)
            if known < self._n:
                fresh = np.fromiter(map(phi, self.states[known:]), float)
                values_of = np.concatenate([values_of, fresh])
            series.append(sum((mass * values_of[support]).tolist()))
        return series

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
    engine = ExactEngine(spec, reduced=reduced, budget=budget)
    return engine.transient_grid(xi0, [t], phi, tol)[0]


def reachable_states(
    spec: NetworkSpec,
    max_norm: int,
    *,
    reduced: bool = False,
) -> set[NetworkState]:
    """States reachable from empty through states of norm <= max_norm, each
    step with positive probability: one closure, capped at max_norm."""
    from .qprocess import empty_state

    engine = ExactEngine(spec, reduced=reduced)
    seen = frontier = engine._ids_of([empty_state(spec)])
    while len(frontier):
        targets, _ = engine._push(frontier, np.ones(len(frontier)))
        kept = targets[engine.norms(targets) <= max_norm]
        frontier = np.setdiff1d(kept, seen, assume_unique=True)
        seen = np.union1d(seen, frontier)
    states = engine.states
    return {states[x] for x in seen[engine.norms(seen) <= max_norm].tolist()}
