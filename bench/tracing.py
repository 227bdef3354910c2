"""Timing wrappers placed on mcqnet's layer boundaries for the traced run.

Each wrapper replaces a name where its caller looks it up (a module global
such as ``mcqnet.cli.phi_estimate`` or a method on ``ExactEngine``,
``PathSampler`` or ``CouplingKernel``), so mcqnet itself is not edited.

* Span wrappers record (name, start, end, parent) in memory. A span's self
  time is its duration minus its child spans and the hot calls made directly
  inside it.
* Hot wrappers sit on calls made millions of times (``insert``, ``delete``,
  ``apply_transition``, ``allocate_fractions``, kernel lookups, scalar runs).
  They keep a call count and busy time only; their own cost per call is
  measured by ``hot_call_overhead`` and reported with the metrics.

A target that no longer exists is skipped: the metrics fed by it are
reported as absent and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import weakref
from collections import defaultdict
from time import perf_counter

# Metrics fed by each wrapper target, used to report what a missing target
# leaves unmeasured.
_SPANS = [
    ("mcqnet.cli:main", "cli.main", ("cli.calls", "cli.self_s")),
    ("mcqnet.cli:validate", "network.validate", ("network.validate.calls",)),
    ("mcqnet.network:validate", "network.validate", ("network.validate_s",)),
    ("mcqnet.cli:phi_estimate", "stability.phi_estimate", ("stability.probes", "stability.self_s")),
    ("mcqnet.stability:phi_estimate", "stability.phi_estimate", ("stability.probes",)),
    ("mcqnet.cli:threshold_bisection", "stability.threshold_bisection", ("stability.self_s",)),
    ("mcqnet.stability:threshold_bisection", "stability.threshold_bisection", ("stability.self_s",)),
    ("mcqnet.cli:region_scan", "stability.region_scan", ("stability.self_s",)),
    ("mcqnet.cli:monotonicity_table", "stability.monotonicity_table", ("stability.self_s",)),
    ("mcqnet.cli:phi_exact", "stability.phi_exact", ("stability.self_s",)),
    ("mcqnet.stability:batch_terminal_norms", "sampling.batch",
     ("sampling.batch.rep_steps", "sampling.batch.busy_s", "sampling.batch.rep_steps_per_s")),
    ("mcqnet.exact:ExactEngine.step", "exact.step",
     ("exact.step.calls", "exact.step.self_s", "exact.state_steps", "exact.state_steps_per_s",
      "exact.peak_support", "exact.bytes_per_state")),
    ("mcqnet.exact:ExactEngine.distribution", "exact.distribution", ()),
    ("mcqnet.exact:ExactEngine.functional_series", "exact.functional_series", ()),
    ("mcqnet.exact:ExactEngine.transient_grid", "exact.transient_grid", ()),
    ("mcqnet.cli:run_coupling", "coupling.run_coupling", ()),
    ("mcqnet.coupling:CouplingKernel.run", "coupling.run",
     ("coupling.paths", "coupling.run.busy_s", "coupling.steps_per_s")),
    ("mcqnet.cli:verify_coupling_path", "coupling.verify",
     ("coupling.verify.busy_s", "coupling.verify.states_per_s")),
    ("mcqnet.coupling:exact_pair_law_check", "coupling.pair_law",
     ("coupling.pair_law.busy_s", "coupling.pair_law.pair_states")),
]
_HOT = [
    ("mcqnet.exact:ExactEngine.kernel", "exact.kernel", ("exact.kernel.builds", "exact.kernel.build_s")),
    ("mcqnet.sampling:PathSampler.run_terminal_norm", "sampling.scalar",
     ("sampling.scalar.runs", "sampling.scalar.steps", "sampling.scalar.busy_s")),
    ("mcqnet.sampling:PathSampler.__init__", "sampling.sampler_builds", ("sampling.sampler_builds",)),
    ("mcqnet.exact:apply_transition", "qprocess.apply_transition",
     ("qprocess.apply_transition.calls", "qprocess.apply_transition.busy_s")),
    ("mcqnet.coupling:apply_transition", "qprocess.apply_transition",
     ("qprocess.apply_transition.calls", "qprocess.apply_transition.busy_s")),
    ("mcqnet.exact:allocate_fractions", "allocation.allocate_fractions",
     ("allocation.allocate_fractions.calls", "allocation.allocate_fractions.busy_s")),
    ("mcqnet.qprocess:insert", "configurations.insert", ("configurations.insert.calls",)),
    ("mcqnet.qprocess:delete", "configurations.delete", ("configurations.delete.calls",)),
]
SCALAR_FIXTURES = ("lk-prop", "lk-sbp", "fcfs-reentrant")

# name -> unit, in report order
PER_LAYER = {
    "rep_steps_per_s": "rep-steps/s",
    "trace.overhead_ratio": "ratio",
    "trace.hot_calls": "count",
    "trace.hot_overhead_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "network.validate_s": "s",
    "network.validate.calls": "count",
    "stability.probes": "count",
    "stability.self_s": "s",
    "sampling.batch.rep_steps": "count",
    "sampling.batch.busy_s": "s",
    "sampling.batch.rep_steps_per_s": "rep-steps/s",
    "sampling.scalar.runs": "count",
    "sampling.scalar.steps": "count",
    "sampling.scalar.busy_s": "s",
    **{f"sampling.scalar.steps_per_s.{f}": "steps/s" for f in SCALAR_FIXTURES},
    "sampling.sampler_builds": "count",
    "exact.kernel.builds": "count",
    "exact.kernel.build_s": "s",
    "exact.step.calls": "count",
    "exact.step.self_s": "s",
    "exact.state_steps": "count",
    "exact.state_steps_per_s": "states/s",
    "exact.peak_support": "count",
    "exact.bytes_per_state": "B/state",
    "qprocess.apply_transition.calls": "count",
    "qprocess.apply_transition.busy_s": "s",
    "allocation.allocate_fractions.calls": "count",
    "allocation.allocate_fractions.busy_s": "s",
    "configurations.insert.calls": "count",
    "configurations.delete.calls": "count",
    "coupling.paths": "count",
    "coupling.run.busy_s": "s",
    "coupling.steps_per_s": "steps/s",
    "coupling.verify.busy_s": "s",
    "coupling.verify.states_per_s": "states/s",
    "coupling.pair_law.busy_s": "s",
    "coupling.pair_law.pair_states": "count",
}
_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss() -> int | None:
    """Resident bytes now, from /proc/self/statm (None where unavailable)."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except OSError:
        return None


def _resolve(target: str):
    """(owner, attribute) for 'module:attr' or 'module:Class.attr', else None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    present = attr in vars(owner) if inspect.isclass(owner) else hasattr(owner, attr)
    return (owner, attr) if present else None


class _EngineRecord:
    __slots__ = ("rss0", "builds", "bytes_per_state")

    def __init__(self, rss0):
        self.rss0 = rss0
        self.builds = 0
        self.bytes_per_state = None


class Tracer:
    """Installs the wrappers, keeps spans and counters, derives the metrics."""

    def __init__(self, fixture_of_beta: dict[tuple, str]):
        self.fixture_of_beta = fixture_of_beta
        self.spans: list[list] = []  # [name, start, end, parent, child_s, index]
        self.archived: list[list] = []
        self.stack: list[list] = []
        self.hot_depth = 0
        self.hot = defaultdict(lambda: [0, 0.0])  # name -> [calls, busy_s]
        self.counts = defaultdict(float)
        self.engines: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.engine_records: list[_EngineRecord] = []
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for target, name, metrics in _SPANS:
            self._patch(target, metrics, lambda fn, name=name: self._span(name, fn))
        for target, name, metrics in _HOT:
            if name == "exact.kernel":
                make = self._kernel
            elif name == "sampling.scalar":
                make = self._scalar
            else:
                make = lambda fn, name=name: self._hot(name, fn)  # noqa: E731
            self._patch(target, metrics, make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target, metrics, make) -> None:
        found = _resolve(target)
        if found is None:
            self.absent.update(metrics)
            return
        owner, attr = found
        original = getattr(owner, attr) if not inspect.isclass(owner) else vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def archive(self) -> None:
        """Set the spans and counters recorded so far aside (kept for the dump)."""
        self.archived.extend(self.spans)
        self.spans = []
        self.hot.clear()
        self.counts.clear()
        self.engine_records.clear()

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            index = len(tracer.archived) + len(tracer.spans)
            rec = [name, 0.0, 0.0, stack[-1][5] if stack else -1, 0.0, index]
            tracer.spans.append(rec)
            stack.append(rec)
            rec[1] = t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][4] += t1 - t0
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return wrapper

    def _finish_hot(self, name, t0, attribute=True) -> float:
        dt = perf_counter() - t0
        self.hot_depth -= 1
        c = self.hot[name]
        c[0] += 1
        c[1] += dt
        if attribute and self.hot_depth == 0 and self.stack:
            self.stack[-1][4] += dt
        return dt

    def _hot(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.hot_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._finish_hot(name, t0)

        return wrapper

    def _kernel(self, fn):
        """Kernel lookups: only cache misses count as builds (and as child time)."""
        tracer = self

        def wrapper(engine, xi):
            cache = getattr(engine, "_kernel", None)
            if cache is None:  # the kernel cache moved: builds cannot be told from hits
                tracer.absent.update(("exact.kernel.builds", "exact.kernel.build_s", "exact.bytes_per_state"))
            miss = cache is not None and xi not in cache
            if miss and engine not in tracer.engines:
                # first build of this engine: RSS growth is measured from here
                rec = tracer.engines[engine] = _EngineRecord(current_rss())
                tracer.engine_records.append(rec)
            tracer.hot_depth += 1
            t0 = perf_counter()
            try:
                return fn(engine, xi)
            finally:
                if miss:
                    tracer._finish_hot("exact.kernel", t0)
                    tracer.engines[engine].builds += 1
                else:
                    tracer._finish_hot("exact.kernel.hit", t0, attribute=False)

        return wrapper

    def _scalar(self, fn):
        tracer = self

        def wrapper(sampler, xi0, n, rng):
            tracer.hot_depth += 1
            t0 = perf_counter()
            try:
                return fn(sampler, xi0, n, rng)
            finally:
                dt = tracer._finish_hot("sampling.scalar", t0)
                fixture = tracer.fixture_of_beta.get(tuple(sampler.spec.beta))
                tracer.counts["sampling.scalar.steps"] += n
                if fixture is not None:
                    tracer.counts[f"scalar.steps.{fixture}"] += n
                    tracer.counts[f"scalar.busy.{fixture}"] += dt

        return wrapper

    # -- output ----------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        spans = [[s[0], s[1], s[2], s[3]] for s in self.archived + self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "fields": ["name", "start", "end", "parent"], "spans": spans}, fh)

    def metrics(self, rounds: int, setup_validate_s: float) -> dict[str, float]:
        """Per-layer metrics per traced round (rates are ratios of totals)."""
        busy = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _, child, _ in self.spans:
            busy[name] += end - start
            self_s[name] += end - start - child
            calls[name] += 1
        hot = self.hot
        c = self.counts
        r = float(rounds)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        step_self = self_s["exact.step"]
        records = [e for e in self.engine_records if e.bytes_per_state is not None]
        biggest = max(records, key=lambda e: e.builds, default=None)
        scalar_busy = hot["sampling.scalar"][1]
        out = {
            "cli.calls": calls["cli.main"] / r,
            "cli.self_s": self_s["cli.main"] / r,
            "network.validate_s": setup_validate_s,
            "network.validate.calls": calls["network.validate"] / r,
            "stability.probes": calls["stability.phi_estimate"] / r,
            "stability.self_s": sum(v for k, v in self_s.items() if k.startswith("stability.")) / r,
            "sampling.batch.rep_steps": c["sampling.batch.rep_steps"] / r,
            "sampling.batch.busy_s": busy["sampling.batch"] / r,
            "sampling.batch.rep_steps_per_s": rate(c["sampling.batch.rep_steps"], busy["sampling.batch"]),
            "sampling.scalar.runs": hot["sampling.scalar"][0] / r,
            "sampling.scalar.steps": c["sampling.scalar.steps"] / r,
            "sampling.scalar.busy_s": scalar_busy / r,
            **{
                f"sampling.scalar.steps_per_s.{f}": rate(c[f"scalar.steps.{f}"], c[f"scalar.busy.{f}"])
                for f in SCALAR_FIXTURES
            },
            "sampling.sampler_builds": hot["sampling.sampler_builds"][0] / r,
            "exact.kernel.builds": hot["exact.kernel"][0] / r,
            "exact.kernel.build_s": hot["exact.kernel"][1] / r,
            "exact.step.calls": calls["exact.step"] / r,
            "exact.step.self_s": step_self / r,
            "exact.state_steps": c["exact.state_steps"] / r,
            "exact.state_steps_per_s": rate(c["exact.state_steps"], step_self),
            "exact.peak_support": c["exact.peak_support"],
            "exact.bytes_per_state": biggest.bytes_per_state if biggest else 0.0,
            "qprocess.apply_transition.calls": hot["qprocess.apply_transition"][0] / r,
            "qprocess.apply_transition.busy_s": hot["qprocess.apply_transition"][1] / r,
            "allocation.allocate_fractions.calls": hot["allocation.allocate_fractions"][0] / r,
            "allocation.allocate_fractions.busy_s": hot["allocation.allocate_fractions"][1] / r,
            "configurations.insert.calls": hot["configurations.insert"][0] / r,
            "configurations.delete.calls": hot["configurations.delete"][0] / r,
            "coupling.paths": c["coupling.paths"] / r,
            "coupling.run.busy_s": busy["coupling.run"] / r,
            "coupling.steps_per_s": rate(c["coupling.steps"], busy["coupling.run"]),
            "coupling.verify.busy_s": busy["coupling.verify"] / r,
            "coupling.verify.states_per_s": rate(c["coupling.verify.states"], busy["coupling.verify"]),
            "coupling.pair_law.busy_s": busy["coupling.pair_law"] / r,
            "coupling.pair_law.pair_states": c["coupling.pair_law.pair_states"] / r,
        }
        out["trace.hot_calls"] = sum(v[0] for v in hot.values()) / r
        return {k: v for k, v in out.items() if k not in self.absent}


def _after_batch(tracer, args, kwargs, out):
    tracer.counts["sampling.batch.rep_steps"] += int(out.size) * int(args[2] if len(args) > 2 else kwargs["n"])


def _after_step(tracer, args, kwargs, out):
    engine, dist = args[0], args[1]
    c = tracer.counts
    c["exact.state_steps"] += len(dist)
    c["exact.peak_support"] = max(c["exact.peak_support"], len(out))
    rec = tracer.engines.get(engine)
    if rec is not None and rec.rss0 is not None and rec.builds >= 1000:
        rss = current_rss()
        if rss is not None:
            rec.bytes_per_state = max(0, rss - rec.rss0) / rec.builds


def _after_run(tracer, args, kwargs, out):
    tracer.counts["coupling.paths"] += 1
    tracer.counts["coupling.steps"] += len(out.states) - 1


def _after_verify(tracer, args, kwargs, out):
    tracer.counts["coupling.verify.states"] += out.steps_checked


def _after_pair_law(tracer, args, kwargs, out):
    tracer.counts["coupling.pair_law.pair_states"] += out.pair_states


_AFTER = {
    "sampling.batch": _after_batch,
    "exact.step": _after_step,
    "coupling.run": _after_run,
    "coupling.verify": _after_verify,
    "coupling.pair_law": _after_pair_law,
}


def hot_call_overhead(samples: int = 200_000) -> float:
    """Seconds a hot wrapper adds to one call, measured on a trivial function."""
    tracer = Tracer({})

    def bare(x):
        return x

    wrapped = tracer._hot("calibration", bare)
    best = []
    for fn in (bare, wrapped):
        times = []
        for _ in range(5):
            t0 = perf_counter()
            for i in range(samples):
                fn(i)
            times.append(perf_counter() - t0)
        best.append(min(times))
    return max(0.0, (best[1] - best[0]) / samples)
