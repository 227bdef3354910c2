import dataclasses
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from mcqnet import builtin_fixture
from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import PriorityRanking, QueuePolicy
from mcqnet.network import NetworkSpec, validate

HQ = ServiceAllocation.head_of_queue()
# the fcfs-reentrant line with LCFS insertion, and with SBP insertion (4 over 1,
# 2 over 3), at both head-of-queue stations
LCFS_LINE = dataclasses.replace(
    builtin_fixture("fcfs-reentrant"), protocols=(StationProtocol(QueuePolicy.lcfs(), HQ),) * 2
)
SBP_HQ_LINE = dataclasses.replace(
    builtin_fixture("fcfs-reentrant"),
    protocols=tuple(
        StationProtocol(QueuePolicy.sbp(PriorityRanking.total(order)), HQ)
        for order in ((4, 1), (2, 3))
    ),
)


STATION_KINDS = ("hq-fcfs", "proportional", "preferential", "egalitarian")


def random_batch_spec(rng, single_class: bool = False, kinds=STATION_KINDS) -> NetworkSpec:
    """A seeded random network of at most 4 classes with transient random
    routing: every network the batch stepper runs.

    By default it has at most 3 stations, each of a kind drawn from ``kinds``
    (FCFS head-of-queue or order-insensitive, ``STATION_KINDS``), single-class
    stations included.
    With ``single_class`` every class has an FCFS station of its own, and half
    the networks route only forward along a random class order or back to the
    same class, so that they have no routing cycle once self-routes are
    dropped.
    """
    d = int(rng.integers(1, 5))
    if single_class:
        stations = tuple((k,) for k in range(1, d + 1))
        protocols = [StationProtocol(QueuePolicy.fcfs(), HQ)] * d
    else:
        station_count = int(rng.integers(1, min(3, d) + 1))
        order = [int(k) for k in rng.permutation(np.arange(1, d + 1))]
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, d), size=station_count - 1, replace=False))
        stations = tuple(tuple(sorted(int(k) for k in part)) for part in np.split(np.asarray(order), cuts))
        protocols = []
        for classes in stations:
            kind = str(rng.choice(kinds))
            if kind == "hq-fcfs":
                allocation = HQ
            elif kind == "preferential":
                ranking = PriorityRanking.total(tuple(int(k) for k in rng.permutation(classes)))
                allocation = ServiceAllocation.preferential(ranking)
            else:
                allocation = ServiceAllocation(kind)
            protocols.append(StationProtocol(QueuePolicy.fcfs(), allocation))
    theta = rng.uniform(0.2, 1.5, d) * (rng.random(d) < 0.7)
    theta[int(rng.integers(d))] = rng.uniform(0.2, 1.5)
    routing = rng.random((d, d)) * (rng.random((d, d)) < 0.5)
    if single_class and rng.random() < 0.5:
        rank = rng.permutation(d)
        routing *= rank[:, None] <= rank[None, :]  # forward or to itself
    sums = routing.sum(axis=1, keepdims=True)
    routing = np.where(sums > 0, routing / np.where(sums > 0, sums, 1.0), 0.0)
    routing *= rng.uniform(0.0, 0.8, (d, 1))  # row sums below one: transient
    spec = NetworkSpec(
        class_count=d,
        stations=stations,
        theta=tuple(float(t) for t in theta),
        beta=tuple(float(b) for b in rng.uniform(0.5, 3.0, d)),
        routing=tuple(tuple(float(x) for x in r) for r in routing),
        protocols=tuple(protocols),
    )
    validate(spec)
    return spec


class ScriptedRng:
    """Deterministic stand-in for a Generator: replays a fixed uniform script.

    Block draws (``random(n)``) are returned reversed so consumers that pop
    from the end of a prefetched buffer still see the script in order; once
    the script is exhausted the fill value is used.
    """

    def __init__(self, script, fill=0.5):
        self.script = list(script)
        self.fill = fill

    def random(self, n=None):
        if n is None:
            return self.script.pop(0) if self.script else self.fill
        take = [self.script.pop(0) if self.script else self.fill for _ in range(n)]
        return np.asarray(take[::-1])

    def spawn(self, n):
        return [self] * n  # children share the script, consumed in call order


def run_optimized(code: str) -> str:
    """Run ``code`` under ``python -O`` (asserts stripped) and return its stdout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    prelude = "import sys\nif not sys.flags.optimize:\n    raise SystemExit('not optimized')\n"
    done = subprocess.run(
        [sys.executable, "-O", "-c", prelude + code],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return done.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def all_sequences(classes, max_len):
    """Every configuration over ``classes`` with length <= max_len."""
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(classes, repeat=n))
    return out


@pytest.fixture(params=["mm1", "tandem2", "lk-prop", "lk-sbp", "fcfs-reentrant"])
def any_fixture(request):
    return builtin_fixture(request.param)


# acceptance-criterion result lines, echoed after the run (capture-proof)
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
