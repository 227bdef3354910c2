"""The four benchmark workloads: inputs made from the seed, operations, checks.

An operation is one CLI subcommand run in-process through ``mcqnet.cli.main``
(argument parsing, output files and manifests included) or one library
request where no subcommand exists. Its check compares what mcqnet returned
or wrote against ``oracles`` or against a property the method must have.
Oracle values are computed after the timed rounds, so they cost no solve time.

Sizes are fixed per workload; the seed picks the random streams mcqnet gets
and, for exact-lines, the arrival-rate scales. Neither changes the amount of
work, so solve times of different seeds compare.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

ALPHA = 1.0
SIGMAS = 4.0  # z-limit of Monte-Carlo checks: a false alarm per check ~6e-5


class CliError(RuntimeError):
    """A subcommand exited with a non-zero code."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    fingerprint: Callable[[object], object]
    # (exception type name, message) of a known fault this operation hits
    known_fault: tuple[str, str] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    rep_steps: Callable[[], int] = lambda: 0


def _mcqnet():
    import mcqnet.cli
    import mcqnet.coupling
    import mcqnet.exact
    import mcqnet.network

    return mcqnet


def _seeds(seed: int, count: int) -> list[int]:
    # SeedSequence takes non-negative entropy only
    return [int(s) for s in np.random.default_rng(seed % 2**63).integers(0, 2**62, size=count)]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _norm(state) -> int:
    return sum(len(q) for q in state)


def cli_op(name, out_root, seed, argv, check, subcommand) -> Op:
    mq = _mcqnet()
    out_dir = os.path.join(out_root, name)
    full = ["--seed", str(seed), "--threads", "1", "--out-dir", out_dir, *argv]

    def run():
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = mq.cli.main(full)
        if code != 0:
            raise CliError(f"mcqnet {subcommand} exited {code}: {err.getvalue().strip()}")
        return out_dir

    def fingerprint(_):
        return _read_json(os.path.join(out_dir, f"{subcommand}_manifest.json"))["outputs"]

    return Op(name, run, lambda _: check(out_dir), fingerprint)


def lib_op(name, run, check, known_fault=None) -> Op:
    return Op(name, run, check, repr, known_fault)


def _z_check(label, value, se, reference, problems):
    if not se > 0 or abs(value - reference) > SIGMAS * se:
        problems.append(
            f"{label}: {value:.6f} vs reference {reference:.6f} (se {se:.2e}, |z| > {SIGMAS:g})"
        )


def _validated(mq, name, scale=1.0):
    spec = mq.network.builtin_fixture(name)
    if scale != 1.0:
        spec = spec.scale_theta(scale)
    mq.network.validate(spec)
    return spec


# ---------------------------------------------------------------------------
# mc-lines: scalar PathSampler on the three multi-class reentrant lines

MC_LINES = ("lk-prop", "lk-sbp", "fcfs-reentrant")
MC_LONG = {"lk-prop": 2000, "lk-sbp": 3000, "fcfs-reentrant": 3000}  # ~0.7 s each
MC_LONG_REPS = 256  # one PathSampler chunk: per-step cost dominates
MC_SHORT = 20  # short enough for exact propagation by the oracle
MC_SHORT_REPS = 8192  # 32 chunks: per-replication set-up shows


def mc_lines(seed: int, out_root: str) -> Workload:
    mq = _mcqnet()
    specs = {name: _validated(mq, name) for name in MC_LINES}
    seeds = iter(_seeds(seed, 2 * len(MC_LINES)))
    results: dict[tuple[str, str], dict] = {}

    def reader(key):
        def check(out_dir):
            payload = _read_json(os.path.join(out_dir, "phi.json"))
            results[key] = payload
            n, reps = (MC_LONG[key[0]], MC_LONG_REPS) if key[1] == "long" else (MC_SHORT, MC_SHORT_REPS)
            problems = []
            if (payload["mode"], payload["steps"], payload["reps"]) != ("mc", n, reps):
                problems.append(f"{key}: phi.json does not echo the request")
            if not 0.0 < payload["value"] <= 1.0:
                problems.append(f"{key}: phi {payload['value']} outside (0, 1]")
            problems += line_check(key)
            return problems

        return check

    oracle_cache: dict[str, float] = {}

    def reference(name, horizon) -> float:
        key = f"{name}-{horizon}"
        if key not in oracle_cache:
            net = oracles.net_from_spec(specs[name])
            if horizon == "long":
                oracle_cache[key] = oracles.product_form_phi(oracles.station_loads(net), ALPHA)
            elif specs[name].protocols[0].allocation.kind == "hq":
                law = _last(oracles.ordered_laws(net, MC_SHORT))
                oracle_cache[key] = oracles.phi_of_law(law, ALPHA, oracles.ordered_norm)
            else:
                oracle_cache[key] = oracles.phi_of_law(_last(oracles.count_laws(net, MC_SHORT)), ALPHA)
        return oracle_cache[key]

    def line_check(key) -> list[str]:
        name, horizon = key
        problems = []
        got = results[key]
        if horizon == "short" or name == "lk-prop":
            # product form holds for proportional (processor-sharing) stations only
            _z_check(f"{name} n={got['steps']}", got["value"], got["stderr"], reference(name, horizon),
                     problems)
        other = results.get((name, "short" if horizon == "long" else "long"))
        if other is not None:
            long_, short = (got, other) if horizon == "long" else (other, got)
            slack = SIGMAS * math.hypot(long_["stderr"], short["stderr"])
            if long_["value"] > short["value"] + slack:
                problems.append(f"{name}: phi rises from n={short['steps']} to n={long_['steps']}")
        return problems

    ops = []
    for name in MC_LINES:
        for horizon, n, reps in (("long", MC_LONG[name], MC_LONG_REPS), ("short", MC_SHORT, MC_SHORT_REPS)):
            argv = ["phi", "--spec", name, "--steps", str(n), "--reps", str(reps), "--alpha", str(ALPHA)]
            ops.append(cli_op(f"phi-{name}-{horizon}", out_root, next(seeds), argv,
                              reader((name, horizon)), "phi"))

    def rep_steps() -> int:
        return sum(p["reps"] * p["steps"] for p in results.values())

    return Workload("mc-lines", ops, rep_steps)


def _last(laws):
    law = None
    for law in laws:
        pass
    return law


# ---------------------------------------------------------------------------
# scan-tandem: vectorized batch stepper under bisection threshold searches

SCAN_EPS = 0.2
SCAN_STEPS = 800
SCAN_REPS = 128  # >= 64, so phi_estimate takes the batch path
SCAN_RAYS = 2


def _root_tolerance(net, direction, trace) -> float:
    """How far a bisection threshold may sit from the equilibrium root.

    Each probe is decided on a point estimate with standard error se, so a
    probe within SIGMAS * se of epsilon can be decided either way; on the
    scale axis that is SIGMAS * se / |dphi/da| at the root, with the slope
    taken from the product form. The final bracket width is added.
    """
    v = np.asarray(direction, dtype=float)
    root = oracles.ray_root(net, v, SCAN_EPS, ALPHA)
    h = 1e-6 * root
    phi = [oracles.product_form_phi(oracles.station_loads(net, a * v), ALPHA) for a in (root - h, root + h)]
    slope = abs(phi[1] - phi[0]) / (2 * h)
    se = float(np.median([e["stderr"] for e in trace if e["phase"] == "bisect"]))
    last = trace[-1]
    return SIGMAS * se / slope + (last["hi"] - last["lo"])


def _bracket_problems(label, trace) -> list[str]:
    problems = []
    widths = [e["hi"] - e["lo"] for e in trace if e["phase"] == "bisect"]
    if not widths or any(b > a * 0.5 + 1e-12 for a, b in zip(widths, widths[1:])):
        problems.append(f"{label}: bisection bracket does not halve along the trace")
    for e in trace:
        if e["phase"] == "bisect" and not e["lo"] <= e["scale"] <= e["hi"]:
            problems.append(f"{label}: probe {e['scale']} outside its bracket")
    return problems


def scan_tandem(seed: int, out_root: str) -> Workload:
    mq = _mcqnet()
    specs = {name: _validated(mq, name) for name in ("tandem2", "mm1")}
    s_region, s_threshold = _seeds(seed, 2)
    traces: dict[str, list] = {}

    def check_region(out_dir):
        payload = _read_json(os.path.join(out_dir, "region.json"))
        net = oracles.net_from_spec(specs["tandem2"])
        problems = []
        if len(payload["rays"]) != SCAN_RAYS:
            problems.append(f"region: {len(payload['rays'])} rays, asked for {SCAN_RAYS}")
        for j, ray in enumerate(payload["rays"]):
            traces[f"ray{j}"] = ray["trace"]
            v = ray["direction"]
            root = oracles.ray_root(net, v, SCAN_EPS, ALPHA)
            tol = _root_tolerance(net, v, ray["trace"])
            bound = oracles.subcritical_bound(net, v)
            label = f"tandem2 ray {j}"
            if abs(ray["threshold"] - root) > tol:
                problems.append(f"{label}: threshold {ray['threshold']:.4f} vs Jackson root {root:.4f}"
                                f" (tolerance {tol:.3f})")
            if ray["threshold"] > bound:
                problems.append(f"{label}: threshold {ray['threshold']:.4f} above subcritical {bound:.4f}")
            if abs(payload["subcritical_polytope"]["ray_bounds"][j] - bound) > 1e-9:
                problems.append(f"{label}: reported subcritical bound differs from {bound:.6f}")
            problems += _bracket_problems(label, ray["trace"])
        return problems

    def check_threshold(out_dir):
        payload = _read_json(os.path.join(out_dir, "threshold.json"))
        traces["mm1"] = payload["trace"]
        mm1 = specs["mm1"]
        net = oracles.net_from_spec(mm1)
        root = oracles.mm1_root(mm1.theta[0], mm1.beta[0], SCAN_EPS, ALPHA)
        tol = _root_tolerance(net, (1.0,), payload["trace"])
        bound = oracles.subcritical_bound(net, (1.0,))
        problems = []
        if abs(oracles.ray_root(net, (1.0,), SCAN_EPS, ALPHA) - root) > 1e-9:
            problems.append("mm1: brentq root and closed form disagree")
        if abs(payload["threshold"] - root) > tol:
            problems.append(f"mm1: threshold {payload['threshold']:.4f} vs root {root:.4f} (tolerance {tol:.3f})")
        if payload["threshold"] > bound:
            problems.append(f"mm1: threshold above the subcritical bound {bound}")
        return problems + _bracket_problems("mm1", payload["trace"])

    common = ["--epsilon", str(SCAN_EPS), "--steps", str(SCAN_STEPS), "--reps", str(SCAN_REPS),
              "--alpha", str(ALPHA)]
    ops = [
        cli_op("region-tandem2", out_root, s_region,
               ["region", "--spec", "tandem2", "--rays", str(SCAN_RAYS), *common], check_region, "region"),
        cli_op("threshold-mm1", out_root, s_threshold,
               ["threshold", "--spec", "mm1", "--direction", "1", *common], check_threshold, "threshold"),
    ]

    def rep_steps() -> int:
        return sum(len(t) for t in traces.values()) * SCAN_REPS * SCAN_STEPS

    return Workload("scan-tandem", ops, rep_steps)


# ---------------------------------------------------------------------------
# exact-lines: BFS exact laws, cold (many kernels) and warm (few, reused)

EXACT_FCFS_STEPS = 24  # ~30k ordered states at n = 24: kernel building dominates
EXACT_LK_STEPS = 40  # reduced lk-prop: ~7.4k states
MONO_SCALES = (0.5, 0.75, 1.0)
MONO_STEPS = (10, 20, 30)
FCFS_SERIES_SCALES = (0.5, 1.0)
FCFS_SERIES_STEPS = (4, 8, 12, 16)
TRANSIENT = {"mm1": (5.0, 10.0, 20.0), "tandem2": (2.5, 5.0, 10.0)}
TRANSIENT_TOL = 1e-8
# Drain of tandem2 with arrivals off: 35 states, lambda*t = 4.5 * 170 = 765.
# exp(-765) underflows to 0, so the Poisson weights never reach mass 1.
DRAIN_START = ((1, 1, 1, 1), (2, 2, 2, 2))
DRAIN_T = 170.0
DRAIN_FAULT = ("RuntimeError", "Poisson truncation did not converge")
LAW_TOL = 1e-10


def _law_from_json(payload) -> dict:
    return {tuple(tuple(q) for q in json.loads(k)): p for k, p in payload["distribution"].items()}


def _compare_laws(label, got: dict, want: dict, problems) -> None:
    keys = set(got) | set(want)
    worst = max((abs(got.get(k, 0.0) - want.get(k, 0.0)) for k in keys), default=0.0)
    if worst > LAW_TOL:
        problems.append(f"{label}: law differs from the oracle by {worst:.2e}")


def _mass_problems(label, law) -> list[str]:
    mass = math.fsum(law.values())
    return [] if abs(mass - 1.0) <= LAW_TOL else [f"{label}: law mass {mass!r}"]


def _table(out_dir) -> dict[tuple[float, int], float]:
    with open(os.path.join(out_dir, "monotone_table.csv")) as fh:
        return {(float(r["theta_scale"]), int(r["steps"])): float(r["phi"]) for r in csv.DictReader(fh)}


def _monotone_problems(label, table, scales, steps) -> list[str]:
    problems = []
    for a in scales:
        row = [table[(a, n)] for n in steps]
        if any(b > a_ + 1e-12 for a_, b in zip(row, row[1:])):
            problems.append(f"{label}: phi rises with n at scale {a}: {row}")
    for n in steps:
        col = [table[(a, n)] for a in scales]
        if any(b > a_ + 1e-12 for a_, b in zip(col, col[1:])):
            problems.append(f"{label}: phi rises with theta at n={n}: {col}")
    return problems


def exact_lines(seed: int, out_root: str) -> Workload:
    mq = _mcqnet()
    rng = np.random.default_rng([seed % 2**63, 3])
    s_fcfs = round(float(rng.uniform(2.5, 3.5)), 6)
    s_lk = round(float(rng.uniform(0.8, 1.2)), 6)
    mono_scales = [round(s_lk * a, 6) for a in MONO_SCALES]
    fcfs_scales = [round(s_fcfs * a, 6) for a in FCFS_SERIES_SCALES]
    specs = {
        "fcfs-reentrant": _validated(mq, "fcfs-reentrant", s_fcfs),
        "lk-prop": _validated(mq, "lk-prop", s_lk),
        **{name: _validated(mq, name) for name in TRANSIENT},
    }
    drain = specs["tandem2"].with_theta((0.0, 0.0))
    mq.network.validate(drain)

    def check_fcfs_law(out_dir):
        payload = _read_json(os.path.join(out_dir, "exact_law.json"))
        law = _law_from_json(payload)
        spec = specs["fcfs-reentrant"]
        problems = _mass_problems("fcfs-reentrant", law)
        for state in law:
            if len(state) != spec.station_count or any(
                k not in spec.stations[i] for i, q in enumerate(state) for k in q
            ):
                problems.append(f"fcfs-reentrant: state {state} does not fit its stations")
                break
        want = _last(oracles.ordered_laws(oracles.net_from_spec(spec), EXACT_FCFS_STEPS))
        _compare_laws("fcfs-reentrant", law, want, problems)
        value = oracles.phi_of_law(law, ALPHA, oracles.ordered_norm)
        if abs(payload["functional"]["value"] - value) > LAW_TOL:
            problems.append("fcfs-reentrant: functional disagrees with its own law")
        return problems

    def count_net(scale):
        return oracles.net_from_spec(mq.network.builtin_fixture("lk-prop").scale_theta(scale))

    def check_lk_law(out_dir):
        payload = _read_json(os.path.join(out_dir, "exact_law.json"))
        law = _law_from_json(payload)
        spec = specs["lk-prop"]
        problems = _mass_problems("lk-prop reduced", law)
        counts: dict = {}
        for state, p in law.items():
            c = [0] * spec.class_count
            for q in state:
                for k in q:
                    c[k - 1] += 1
            counts[tuple(c)] = counts.get(tuple(c), 0.0) + p
        want = _last(oracles.count_laws(count_net(s_lk), EXACT_LK_STEPS))
        _compare_laws("lk-prop reduced", counts, want, problems)
        if abs(payload["functional"]["value"] - oracles.phi_of_law(want, ALPHA)) > LAW_TOL:
            problems.append("lk-prop reduced: functional differs from the count chain")
        return problems

    def check_lk_table(out_dir):
        table = _table(out_dir)
        problems = _monotone_problems("lk-prop monotone", table, mono_scales, MONO_STEPS)
        for a in mono_scales:
            series = [oracles.phi_of_law(law, ALPHA) for law in oracles.count_laws(count_net(a), max(MONO_STEPS))]
            worst = max(abs(table[(a, n)] - series[n]) for n in MONO_STEPS)
            if worst > LAW_TOL:
                problems.append(f"lk-prop monotone: scale {a} differs from the count chain by {worst:.2e}")
        return problems

    def check_fcfs_table(out_dir):
        return _monotone_problems("fcfs-reentrant series", _table(out_dir), fcfs_scales, FCFS_SERIES_STEPS)

    def transient(spec, start, ts):
        def run():
            engine = mq.exact.ExactEngine(spec)
            return engine.transient_grid(start, ts, lambda s: math.exp(-ALPHA * _norm(s)), TRANSIENT_TOL)

        return run

    def transient_check(label, spec, start, ts):
        def check(values):
            net = oracles.net_from_spec(spec)
            counts = [sum(1 for q in start for k in q if k == c) for c in range(1, spec.class_count + 1)]
            arrivals = sum(net.theta) * max(ts)
            max_norm = sum(counts) + (oracles.poisson_quantile(arrivals, 1e-13) if arrivals else 0)
            want, bound = oracles.transient_phi(net, counts, ts, ALPHA, max_norm)
            tol = TRANSIENT_TOL + bound + 1e-12
            worst = max(abs(a - b) for a, b in zip(values, want))
            return [] if worst <= tol else [f"{label}: transient off expm by {worst:.2e} > {tol:.1e}"]

        return check

    def mono_argv(spec, scales, steps, *extra):
        return ["monotone", "--spec", spec, "--exact", *extra, "--alpha", str(ALPHA),
                "--scales", ",".join(map(str, scales)), "--steps", ",".join(map(str, steps))]

    ops = [
        cli_op("exact-fcfs-reentrant", out_root, 0,
               ["exact", "--spec", "fcfs-reentrant", "--theta-scale", str(s_fcfs),
                "--steps", str(EXACT_FCFS_STEPS), "--alpha", str(ALPHA)], check_fcfs_law, "exact"),
        cli_op("exact-lk-prop", out_root, 0,
               ["exact", "--spec", "lk-prop", "--reduced", "--theta-scale", str(s_lk),
                "--steps", str(EXACT_LK_STEPS), "--alpha", str(ALPHA)], check_lk_law, "exact"),
        cli_op("monotone-lk-prop", out_root, 0,
               mono_argv("lk-prop", mono_scales, MONO_STEPS, "--reduced"), check_lk_table, "monotone"),
        cli_op("monotone-fcfs-reentrant", out_root, 0,
               mono_argv("fcfs-reentrant", fcfs_scales, FCFS_SERIES_STEPS), check_fcfs_table, "monotone"),
    ]
    for name, ts in TRANSIENT.items():
        start = tuple(() for _ in specs[name].stations)
        ops.append(lib_op(f"transient-{name}", transient(specs[name], start, ts),
                          transient_check(f"{name} transient", specs[name], start, ts)))
    ops.append(lib_op("drain-tandem2", transient(drain, DRAIN_START, (DRAIN_T,)),
                      transient_check("tandem2 drain", drain, DRAIN_START, (DRAIN_T,)),
                      known_fault=DRAIN_FAULT))
    return Workload("exact-lines", ops)


# ---------------------------------------------------------------------------
# couple-verify: the one-extra-job coupling, its verifier and exact pair law

COUPLE_STEPS = 200
COUPLE = (  # fixture, lower, upper, reps (paths per rep = extra jobs)
    ("mm1", [[]], [[1]], 600),
    ("fcfs-reentrant", [[1], []], [[1, 4], [2]], 200),
    ("lk-sbp", [[1], []], [[1, 4], [2]], 200),
)
PAIR_LAW = (  # fixture, lower, upper, steps
    ("mm1", ((),), ((1,),), 80),
    ("fcfs-reentrant", ((1,), ()), ((1, 4), ()), 16),
    ("lk-sbp", ((1,), ()), ((1, 4), ()), 24),
)


def couple_verify(seed: int, out_root: str) -> Workload:
    mq = _mcqnet()
    specs = {name: _validated(mq, name) for name in ("mm1", "fcfs-reentrant", "lk-sbp")}
    seeds = iter(_seeds(seed, len(COUPLE)))

    def check_couple(name, reps):
        def check(out_dir):
            payload = _read_json(os.path.join(out_dir, "couple_report.json"))
            problems = []
            if payload["invariant_failures"] != 0:
                problems.append(f"{name}: {payload['invariant_failures']} coupling invariant failures")
            if len(payload["runs"]) != reps or not all(r["ok"] for r in payload["runs"]):
                problems.append(f"{name}: couple report incomplete or not ok")
            if name == "mm1":
                # censored paths count as COUPLE_STEPS; P(tau > 200) = 2.3e-8
                taus = np.array([COUPLE_STEPS if r["tau"][0] is None else r["tau"][0] for r in payload["runs"]])
                spec = specs["mm1"]
                _z_check("mm1 mean tau", float(taus.mean()), float(taus.std(ddof=1) / math.sqrt(len(taus))),
                         oracles.busy_period_mean(spec.theta[0], spec.beta[0]), problems)
            return problems

        return check

    def pair_law(spec, lower, upper, n):
        return lambda: mq.coupling.exact_pair_law_check(spec, lower, upper, n)

    def check_pair_law(name):
        def check(report):
            problems = []
            if not report.tv_upper <= LAW_TOL:
                problems.append(f"{name}: upper marginal TV {report.tv_upper:.2e}")
            if report.pair_order_violation != 0.0:
                problems.append(f"{name}: order-violation mass {report.pair_order_violation:.2e}")
            if not report.cdf_max_violation <= LAW_TOL:
                problems.append(f"{name}: upper law not dominating, by {report.cdf_max_violation:.2e}")
            return problems

        return check

    ops = [
        cli_op(f"couple-{name}", out_root, next(seeds),
               ["couple", "--spec", name, "--lower", json.dumps(lo), "--upper", json.dumps(up),
                "--steps", str(COUPLE_STEPS), "--reps", str(reps)], check_couple(name, reps), "couple")
        for name, lo, up, reps in COUPLE
    ]
    ops += [
        lib_op(f"pair-law-{name}", pair_law(specs[name], lo, up, n), check_pair_law(name))
        for name, lo, up, n in PAIR_LAW
    ]
    return Workload("couple-verify", ops)


WORKLOADS = {
    "mc-lines": mc_lines,
    "scan-tandem": scan_tandem,
    "exact-lines": exact_lines,
    "couple-verify": couple_verify,
}
