"""Checks of the traced run's wrappers: self time, hot calls, missing targets.

Run with ``python3 -m pytest bench/test_tracing.py`` from the repository root.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402


def test_self_time_excludes_children_and_hot_calls():
    tracer = tracing.Tracer({})
    hot = tracer._hot("configurations.insert", lambda: time.sleep(0.02))
    inner = tracer._span("exact.distribution", lambda: time.sleep(0.03))

    def outer_body():
        hot()
        inner()
        time.sleep(0.01)

    tracer._span("cli.main", outer_body)()
    m = tracer.metrics(1, 0.0)
    assert 0.008 <= m["cli.self_s"] < 0.03
    assert m["configurations.insert.calls"] == 1
    assert [s[0] for s in tracer.spans] == ["cli.main", "exact.distribution"]
    assert tracer.spans[1][3] == tracer.spans[0][5]  # parent index


def test_missing_target_is_reported_absent(monkeypatch):
    targets = [("mcqnet.cli:no_such_function", "cli.main", ("cli.calls", "cli.self_s"))]
    monkeypatch.setattr(tracing, "_SPANS", targets)
    monkeypatch.setattr(tracing, "_HOT", [])
    tracer = tracing.Tracer({})
    tracer.install()
    tracer.uninstall()
    m = tracer.metrics(1, 0.0)
    assert {"cli.calls", "cli.self_s"} <= tracer.absent
    assert "cli.calls" not in m and "exact.step.calls" in m


def test_install_and_uninstall_restore_the_originals():
    import mcqnet.cli
    import mcqnet.exact

    before = (mcqnet.cli.main, mcqnet.exact.ExactEngine.__dict__["step"])
    tracer = tracing.Tracer({})
    tracer.install()
    assert mcqnet.cli.main is not before[0]
    tracer.uninstall()
    assert (mcqnet.cli.main, mcqnet.exact.ExactEngine.__dict__["step"]) == before
    assert not tracer.absent
