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
