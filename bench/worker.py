"""One workload in its own process: set up, run timed rounds, check, report.

Started by run.py. Protocol on stdout: the line ``ready`` once the inputs are
ready (the parent times process start to this line as set-up), then one JSON
line with the outcome. mcqnet's own console output is captured per operation.

Rounds repeat the workload's whole operation list until ``--seconds`` have
passed (at least one round), so every run attempts the same operations in
the same proportions. Peak RSS is read after the rounds and before any
oracle is computed, so no oracle adds to it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np


def _import_mcqnet(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mcqnet

    if not os.path.abspath(mcqnet.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"mcqnet imported from {mcqnet.__file__}, not from {src}")
    return mcqnet


# Seconds the host-speed probe takes on this benchmark's reference host (2-core
# x86-64 VM, Python 3.11.7, numpy 2.4) at an ordinary moment; solve times are
# reported at that speed.
PROBE_REF_S = 0.0160
_PROBE_EDGES = np.linspace(0.2, 1.0, 5)


@dataclass(frozen=True)
class _ProbeState:
    lower: tuple
    upper: tuple
    mark: int
    count: int = 0


def _tail_push(q: tuple, k: int) -> tuple:
    return q[1:] + (k,)


def host_speed_probe() -> float:
    """Seconds for a fixed mix of the kinds of work mcqnet does, none of it mcqnet's.

    The host this runs on changes speed by 20-40% over seconds to minutes
    (shared cores), and not by the same factor for every kind of work. The
    probe runs between operations and slows with the host, but not with any
    change to mcqnet, so dividing by it removes most of the host's drift from
    solve times and keeps mcqnet's. Its five parts take about 4 ms each:
    small-dict updates (scalar stepper), dicts of fresh tuples (exact engine
    caches), small-array numpy operations (batch stepper), frozen-dataclass
    ``replace`` (coupling) and tuple slicing through calls (queue operators).
    """
    best = float("inf")
    for _ in range(2):  # the faster of two, so a preemption does not count
        rng = np.random.default_rng(0)
        t0 = perf_counter()
        small: dict = {}
        for i in range(12_500):
            k = (i & 63, i & 7)
            small[k] = small.get(k, 0) + 1
        for _ in range(2):  # freed and rebuilt, so the probe adds little to peak RSS
            big = {(i, i >> 3, i & 7): (i,) for i in range(5_000)}
        counts = np.zeros(128, dtype=np.int64)
        for _ in range(400):
            counts += np.searchsorted(_PROBE_EDGES, rng.random(128)) == 1
        state = _ProbeState((1, 2), (1, 2, 3), 1)
        for i in range(1_200):
            state = replace(state, mark=i & 3, count=state.count + 1)
        q = (1, 2, 3, 4)
        for i in range(12_000):
            q = _tail_push(q, i & 3)
        best = min(best, perf_counter() - t0)
    return best


def run_rounds(ops, seconds, log, fingerprints, minimum=1) -> tuple[list[float], list[float]]:
    """Repeat every operation until ``seconds`` pass.

    Returns per-round wall times and the same rescaled to the reference host
    speed, each operation by the mean of the probes just before and after it.
    """
    wall, scaled = [], []
    t_end = perf_counter() + seconds
    probe = host_speed_probe()
    while len(wall) < minimum or perf_counter() < t_end:
        total = total_scaled = 0.0
        for op in ops:
            t0 = perf_counter()
            try:
                value, error = op.run(), None
            except Exception as exc:  # an operation that raises is counted, not fatal
                value, error = None, (type(exc).__name__, str(exc))
            dt = perf_counter() - t0
            before, probe = probe, host_speed_probe()
            total += dt
            total_scaled += dt * 2 * PROBE_REF_S / (before + probe)
            log[op.name].append((value, error))
            if error is None:
                fingerprints[op.name].add(json.dumps(op.fingerprint(value), sort_keys=True, default=repr))
        wall.append(total)
        scaled.append(total_scaled)
    return wall, scaled


def judge(ops, log, fingerprints):
    """(attempted, failed, correct, messages) from every round's outcome."""
    attempted = failed = 0
    correct = True
    messages = []
    for op in ops:
        outcomes = log[op.name]
        attempted += len(outcomes)
        errors = [e for _, e in outcomes if e is not None]
        for kind, text in sorted(set(errors)):
            expected = op.known_fault is not None and kind == op.known_fault[0] and op.known_fault[1] in text
            correct &= expected
            messages.append(f"{op.name}: {kind}: {text}" + (" (known fault)" if expected else ""))
        failed += len(errors)
        ok_rounds = len(outcomes) - len(errors)
        if not ok_rounds:
            continue
        value = next(v for v, e in reversed(outcomes) if e is None)
        try:
            problems = op.check(value)
        except Exception as exc:  # a check that cannot read the output fails the operation
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if len(fingerprints[op.name]) > 1:
            problems.append("outputs differ between rounds of the same inputs")
        if problems:
            correct = False
            failed += ok_rounds
            messages += [f"{op.name}: {p}" for p in problems]
    return attempted, failed, correct, messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    proto = sys.stdout

    mcqnet = _import_mcqnet(args.root)
    import tracing
    import workloads

    tracer = None
    if args.trace:
        betas = {tuple(mcqnet.builtin_fixture(f).beta): f for f in tracing.SCALAR_FIXTURES}
        tracer = tracing.Tracer(betas)
        tracer.install()
    out_base = os.path.join(args.root, ".bench_out")
    os.makedirs(out_base, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_base, prefix="run-") as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        print("ready", file=proto, flush=True)
        if args.setup_only:
            return 0

        log = {op.name: [] for op in wl.ops}
        prints = {op.name: set() for op in wl.ops}
        result = {}
        if tracer is None:
            wall, solve = run_rounds(wl.ops, args.seconds, log, prints)
        else:
            setup_validate_s = sum(s[2] - s[1] for s in tracer.spans if s[0] == "network.validate")
            tracer.uninstall()
            tracer.archive()
            # traced rounds first, in a fresh process, so RSS growth per cached
            # exact state is not hidden by memory that earlier rounds freed
            t0 = perf_counter()
            tracer.install()
            _, traced = run_rounds(wl.ops, 0.5 * args.seconds, log, prints)
            tracer.uninstall()
            wall, solve = run_rounds(wl.ops, args.seconds - (perf_counter() - t0), log, prints)
            layer = tracer.metrics(len(traced), setup_validate_s)
            untraced_median = statistics.median(solve)
            layer["trace.overhead_ratio"] = statistics.median(traced) / untraced_median
            layer["trace.hot_overhead_s"] = layer["trace.hot_calls"] * tracing.hot_call_overhead()
            result["per_layer"] = layer
            result["absent"] = sorted(tracer.absent)
            result["traced_rounds"] = len(traced)
            tracer.dump(os.path.join(out_base, f"trace-{args.workload}-seed{args.seed}.json"),
                        {"workload": args.workload, "seed": args.seed})
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        t_check = perf_counter()
        attempted, failed, correct, messages = judge(wl.ops, log, prints)
        result["check_s"] = perf_counter() - t_check
        if tracer is not None:
            result["per_layer"]["rep_steps_per_s"] = wl.rep_steps() / untraced_median
        result.update(
            correct=correct, attempted=attempted, failed=failed, messages=messages,
            solve_s=solve, wall_s=wall, peak_rss_mb=peak_rss_mb,
        )
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    raise SystemExit(main())
