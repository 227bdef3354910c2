"""Ordered multi-class queue configurations and their operators.

A configuration is a finite ordered sequence of class identifiers (a tuple of
ints, position 1 being the job in service). The module provides the composition
vector, head/insert/delete operators parameterized by a queue policy and the
subsequence partial order. The lumped (canonical) form of a station buffer is
``qprocess.station_canonicalizer``, the toolkit's one lumping.

Class ids are 1-based; 0 is reserved for the external virtual class used in
transition labels and never appears inside a configuration.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import EmptyConfigurationError

ClassId = int
QueueConfig = tuple[int, ...]

EMPTY: QueueConfig = ()


def composition(p: QueueConfig) -> dict[int, int]:
    """Counts of each class present in ``p`` (absent classes omitted)."""
    return dict(Counter(p))


def norm(p: QueueConfig) -> int:
    """Total number of jobs in the configuration."""
    return len(p)


def support(p: QueueConfig) -> frozenset[int]:
    """Set of classes with at least one representative in ``p``."""
    return frozenset(p)


def head(p: QueueConfig) -> int:
    """Leading digit (the class in service). Defined only for nonempty ``p``."""
    if not p:
        raise EmptyConfigurationError("empty configuration has no head")
    return p[0]


@dataclass(frozen=True)
class PriorityRanking:
    """Ordered partition of a class set into castes, highest priority first.

    ``outranks(k, l)`` is True when k sits in a strictly earlier caste than l;
    jobs of class k then overtake queued jobs of class l. Classes within one
    caste are unranked relative to each other.
    """

    castes: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for caste in self.castes:
            if not caste:
                raise ValueError("castes must be nonempty")
            if seen & caste:
                raise ValueError("castes must be disjoint")
            seen |= caste
        if not seen:
            raise ValueError("ranking needs at least one caste")

    @classmethod
    def from_lists(cls, castes) -> "PriorityRanking":
        return cls(tuple(frozenset(c) for c in castes))

    @classmethod
    def total(cls, order) -> "PriorityRanking":
        """Total ranking from a flat class list, highest priority first."""
        return cls(tuple(frozenset((k,)) for k in order))

    @property
    def classes(self) -> frozenset[int]:
        return frozenset().union(*self.castes)

    @property
    def is_total(self) -> bool:
        return all(len(c) == 1 for c in self.castes)

    def caste_index(self, k: int) -> int:
        for i, caste in enumerate(self.castes):
            if k in caste:
                return i
        raise ValueError(f"class {k} is not covered by the ranking")

    def outranks(self, k: int, l: int) -> bool:
        return self.caste_index(k) < self.caste_index(l)

    def top_present(self, present) -> int:
        """Highest-ranked class among ``present``."""
        for caste in self.castes:
            hits = caste & set(present)
            if hits:
                if len(hits) > 1:
                    raise ValueError("tie within a caste; ranking not total on the support")
                return next(iter(hits))
        raise ValueError("no ranked class present")


@dataclass(frozen=True)
class QueuePolicy:
    """Insertion rule for newly arriving jobs: fcfs, lcfs or sbp(ranking)."""

    kind: str
    ranking: PriorityRanking | None = None

    def __post_init__(self):
        if self.kind not in ("fcfs", "lcfs", "sbp"):
            raise ValueError(f"unknown queue policy {self.kind!r}")
        if self.kind == "sbp" and self.ranking is None:
            raise ValueError("sbp policy requires a priority ranking")

    @classmethod
    def fcfs(cls) -> "QueuePolicy":
        return cls("fcfs")

    @classmethod
    def lcfs(cls) -> "QueuePolicy":
        return cls("lcfs")

    @classmethod
    def sbp(cls, ranking: PriorityRanking) -> "QueuePolicy":
        return cls("sbp", ranking)


def insertion_index(policy: QueuePolicy, p: QueueConfig, k: int) -> int:
    """1-based position at which a new k-digit enters the nonempty queue ``p``.

    Always >= 2 (the job in service is never preempted) and always after the
    last queued k-digit (FCFS within a class). For SBP the new digit is placed
    before the maximal suffix consisting solely of classes it strictly
    outranks.
    """
    if not p:
        raise EmptyConfigurationError("insertion index undefined for the empty configuration")
    n = len(p)
    if policy.kind == "fcfs":
        return n + 1
    if policy.kind == "lcfs":
        last = 0
        for i in range(n - 1, -1, -1):
            if p[i] == k:
                last = i + 1
                break
        return max(2, last + 1)
    # sbp: scan the tail backwards while k strictly outranks the occupant
    ranking = policy.ranking
    j = n + 1
    for m in range(n, 1, -1):
        if ranking.outranks(k, p[m - 1]):
            j = m
        else:
            break
    return j


def insert(policy: QueuePolicy, p: QueueConfig, k: int) -> QueueConfig:
    """Insert a k-digit into ``p`` according to the policy; (k,) if p is empty."""
    if not p:
        return (k,)
    j = insertion_index(policy, p, k)
    return p[: j - 1] + (k,) + p[j - 1 :]


def delete(p: QueueConfig, k: int) -> QueueConfig:
    """Remove the first k-digit; ``p`` unchanged if no k-digit is present."""
    try:
        i = p.index(k)
    except ValueError:
        return p
    return p[:i] + p[i + 1 :]


def is_subconfig(p: QueueConfig, q: QueueConfig) -> bool:
    """Subsequence order: the digits of p occur in q in the same order."""
    it = iter(q)
    return all(digit in it for digit in p)
