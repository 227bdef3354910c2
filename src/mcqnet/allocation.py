"""Service allocations: the fraction of server capacity each class receives.

Head-of-queue serves the leading job exclusively; the order-insensitive
variants (egalitarian, proportional, preferential) depend on the configuration
only through its composition vector. The empty configuration receives the
all-zero allocation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .configurations import PriorityRanking, QueueConfig, QueuePolicy


@dataclass(frozen=True)
class ServiceAllocation:
    kind: str
    ranking: PriorityRanking | None = None

    def __post_init__(self):
        if self.kind not in ("hq", "egalitarian", "proportional", "preferential"):
            raise ValueError(f"unknown service allocation {self.kind!r}")
        if self.kind == "preferential":
            if self.ranking is None or not self.ranking.is_total:
                raise ValueError("preferential allocation requires a total ranking")

    @classmethod
    def head_of_queue(cls) -> "ServiceAllocation":
        return cls("hq")

    @classmethod
    def egalitarian(cls) -> "ServiceAllocation":
        return cls("egalitarian")

    @classmethod
    def proportional(cls) -> "ServiceAllocation":
        return cls("proportional")

    @classmethod
    def preferential(cls, ranking: PriorityRanking) -> "ServiceAllocation":
        return cls("preferential", ranking)

    @property
    def order_insensitive(self) -> bool:
        return self.kind != "hq"


@dataclass(frozen=True)
class StationProtocol:
    """A station's (queue policy, service allocation) pair."""

    policy: QueuePolicy
    allocation: ServiceAllocation

    @property
    def serves_one_class(self) -> bool:
        """True when exactly one class holds the server at any time."""
        return self.allocation.kind in ("hq", "preferential")


def allocate(alloc: ServiceAllocation, p: QueueConfig) -> dict[int, float]:
    """Service fractions per class for configuration ``p`` (empty -> {})."""
    if not p:
        return {}
    if alloc.kind == "hq":
        return {p[0]: 1.0}
    if alloc.kind == "preferential":
        return {alloc.ranking.top_present(set(p)): 1.0}
    counts = Counter(p)
    if alloc.kind == "egalitarian":
        share = 1.0 / len(counts)
        return {k: share for k in counts}
    # proportional
    total = len(p)
    return {k: c / total for k, c in counts.items()}


def allocate_fractions(alloc: ServiceAllocation, p: QueueConfig) -> dict[int, Fraction]:
    """Exact rational service fractions, the reference ``allocate`` is tested against."""
    if not p:
        return {}
    if alloc.kind == "hq":
        return {p[0]: Fraction(1)}
    if alloc.kind == "preferential":
        return {alloc.ranking.top_present(set(p)): Fraction(1)}
    counts = Counter(p)
    if alloc.kind == "egalitarian":
        share = Fraction(1, len(counts))
        return {k: share for k in counts}
    total = len(p)
    return {k: Fraction(c, total) for k, c in counts.items()}
