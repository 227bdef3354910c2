"""Command-line surface: validation, simulation, exact analysis, coupling
verification, monotonicity tables and threshold/region search.

Specs are JSON documents (or built-in fixture names); bulk samples go to CSV,
reports to JSON. Every run writes a manifest recording the subcommand, all
parameters, the master seed, the toolkit version and SHA-256 digests of the
outputs, so a run can be reproduced byte for byte.

Exit codes: 0 success, 1 domain errors (non-transient routing, exceeded state
budget, failed bracket, ...), 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    BracketFailureError,
    BudgetExceededError,
    DimensionMismatchError,
    NegativeRateError,
    NonTransientRoutingError,
    NotASubconfigurationError,
    UnknownFixtureError,
    UnsupportedCouplingError,
)
from .exact import ExactEngine, expectation
from .network import (
    FIXTURE_NAMES,
    NetworkSpec,
    builtin_fixture,
    load_spec,
    spec_to_dict,
    validate,
)
from .qprocess import check_state, empty_state, state_composition, state_norm
from .rng import master_rng
from .sampling import PathSampler
from .stability import (
    cycle_estimate,
    monotonicity_table,
    phi_estimate,
    phi_exact,
    region_scan,
    threshold_bisection,
    threshold_robbins_monro,
)
from .coupling import run_coupling, verify_coupling_path

_DOMAIN_ERRORS = (
    NonTransientRoutingError,
    BudgetExceededError,
    BracketFailureError,
    NotASubconfigurationError,
    UnsupportedCouplingError,
    UnknownFixtureError,
    NegativeRateError,
    DimensionMismatchError,
)


def _resolve_spec(ref: str) -> NetworkSpec:
    if ref in FIXTURE_NAMES:
        return builtin_fixture(ref)
    if not os.path.exists(ref):
        raise UnknownFixtureError(f"{ref!r} is neither a built-in fixture nor a spec file")
    return load_spec(ref)


def _state_key(state) -> str:
    return json.dumps([list(q) for q in state], separators=(",", ":"))


class _HashingSink(io.RawIOBase):
    """Binary sink that passes every byte on to ``fh`` and hashes it on the way."""

    def __init__(self, fh):
        self.fh = fh
        self.sha256 = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha256.update(data)
        return self.fh.write(data)


class RunWriter:
    """Collects output files and finalizes the run manifest."""

    def __init__(self, args: argparse.Namespace):
        self.out_dir = args.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        self.args = args
        self.outputs: dict[str, str] = {}
        self.started = time.time()

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    @contextlib.contextmanager
    def _open(self, name: str, newline: str | None = None):
        """Text stream to the output ``name``; its bytes are hashed as they go out."""
        path = self.path(name)
        with open(path, "wb") as raw:
            sink = _HashingSink(raw)
            with io.TextIOWrapper(io.BufferedWriter(sink), newline=newline) as fh:
                yield fh
        self.outputs[os.path.basename(path)] = sink.sha256.hexdigest()

    def write_json(self, name: str, payload) -> str:
        with self._open(name) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return self.path(name)

    def write_csv(self, name: str, header, rows) -> str:
        with self._open(name, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return self.path(name)

    def finish(self, subcommand: str) -> None:
        params = {
            k: v for k, v in vars(self.args).items() if k not in ("func",)
        }
        manifest = {
            "subcommand": subcommand,
            "parameters": params,
            "seed": self.args.seed,
            "version": __version__,
            "wall_clock_s": round(time.time() - self.started, 3),
            "outputs": self.outputs,
        }
        path = self.path(f"{subcommand}_manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cmd_validate(args) -> int:
    spec = _resolve_spec(args.spec)
    analysis = validate(spec)
    writer = RunWriter(args)
    payload = {
        "effective_rates": list(analysis.effective_rates),
        "workload": list(analysis.workload),
        "irreducible": analysis.irreducible,
        "transient": analysis.transient,
        "decay_power": analysis.decay_power,
        "spec": spec_to_dict(spec),
    }
    writer.write_json("validate_report.json", payload)
    writer.finish("validate")
    for i, rho in enumerate(analysis.workload, start=1):
        print(f"station {i}: workload {rho:.6g}")
    print(f"effective rates: {[round(g, 9) for g in analysis.effective_rates]}")
    print(f"irreducible: {analysis.irreducible}  transient: {analysis.transient}")
    return 0


def _cmd_fixtures(args) -> int:
    writer = RunWriter(args)
    writer.write_json("fixtures.json", {"fixtures": list(FIXTURE_NAMES)})
    writer.finish("fixtures")
    for name in FIXTURE_NAMES:
        print(name)
    return 0


def _cmd_simulate(args) -> int:
    spec = _resolve_spec(args.spec).scale_theta(args.theta_scale)
    validate(spec)
    rng = master_rng(args.seed)
    sampler = PathSampler(spec)
    rows = []
    d = spec.class_count
    for rep in range(args.reps):
        sampler.reset(empty_state(spec), rng.spawn(1)[0])
        for step in range(args.steps + 1):
            if step:
                sampler.step()
            state = sampler.snapshot()
            rows.append(
                [rep, step, state_norm(state), *state_composition(spec, state)]
            )
    writer = RunWriter(args)
    header = ["rep", "step", "total_jobs"] + [f"class_{k}" for k in range(1, d + 1)]
    path = writer.write_csv(args.out, header, rows)
    writer.finish("simulate")
    print(f"wrote {path}")
    return 0


def _cmd_exact(args) -> int:
    spec = _resolve_spec(args.spec).scale_theta(args.theta_scale)
    validate(spec)
    engine = ExactEngine(spec, reduced=args.reduced, budget=args.budget)
    dist = engine.distribution(empty_state(spec), args.steps)
    value = expectation(dist, lambda s: math.exp(-args.alpha * state_norm(s)))
    writer = RunWriter(args)
    payload = {
        "steps": args.steps,
        "functional": {"name": args.functional, "alpha": args.alpha, "value": value},
        "distribution": {_state_key(s): p for s, p in sorted(dist.items())},
    }
    writer.write_json("exact_law.json", payload)
    writer.finish("exact")
    print(f"E[exp(-{args.alpha} * jobs)] at step {args.steps}: {value:.12g}")
    return 0


def _cmd_phi(args) -> int:
    spec = _resolve_spec(args.spec)
    validate(spec)
    theta = tuple(args.theta_scale * t for t in spec.theta)
    writer = RunWriter(args)
    if args.exact:
        value = phi_exact(spec, theta, args.steps, args.alpha,
                          reduced=args.reduced, budget=args.budget)
        payload = {"mode": "exact", "value": value, "steps": args.steps, "alpha": args.alpha}
    else:
        rng = master_rng(args.seed)
        est = phi_estimate(spec, theta, args.steps, args.alpha, args.reps, rng,
                           threads=args.threads)
        payload = {
            "mode": "mc",
            "value": est.mean,
            "stderr": est.stderr,
            "reps": est.reps,
            "steps": est.n,
            "alpha": est.alpha,
        }
    writer.write_json("phi.json", payload)
    writer.finish("phi")
    print(json.dumps(payload))
    return 0


def _cmd_monotone(args) -> int:
    spec = _resolve_spec(args.spec)
    validate(spec)
    scales = [float(x) for x in args.scales.split(",")]
    rng = master_rng(args.seed)
    table = monotonicity_table(
        spec, scales, args.steps, args.alpha,
        mode="exact" if args.exact else "mc",
        reps=args.reps, rng=rng, reduced=args.reduced, budget=args.budget,
    )
    writer = RunWriter(args)
    rows = []
    for i, a in enumerate(table.scales):
        for j, n in enumerate(table.steps):
            row = [a, n, table.values[i, j]]
            if table.stderrs is not None:
                row.append(table.stderrs[i, j])
            rows.append(row)
    header = ["theta_scale", "steps", "phi"] + ([] if table.stderrs is None else ["stderr"])
    writer.write_csv("monotone_table.csv", header, rows)
    writer.write_json(
        "monotone_violations.json",
        {"violations": [list(v) for v in table.violations], "mode": table.mode},
    )
    writer.finish("monotone")
    print(f"violations: {len(table.violations)}")
    return 0


def _cmd_couple(args) -> int:
    spec = _resolve_spec(args.spec)
    validate(spec)
    lower = check_state(spec, json.loads(args.lower))
    upper = check_state(spec, json.loads(args.upper))
    rng = master_rng(args.seed)
    failures = 0
    per_rep = []
    for rep in range(args.reps):
        paths = run_coupling(spec, lower, upper, args.steps, rng.spawn(1)[0])
        reports = [verify_coupling_path(p) for p in paths]
        ok = all(r.ok for r in reports)
        failures += 0 if ok else 1
        per_rep.append({"tau": [p.tau for p in paths], "ok": ok})
    writer = RunWriter(args)
    payload = {
        "reps": args.reps,
        "steps": args.steps,
        "lower": json.loads(args.lower),
        "upper": json.loads(args.upper),
        "invariant_failures": failures,
        "runs": per_rep,
    }
    writer.write_json(args.report, payload)
    writer.finish("couple")
    print(f"couplings: {args.reps}, invariant failures: {failures}")
    return 0


def _cmd_threshold(args) -> int:
    spec = _resolve_spec(args.spec)
    validate(spec)
    direction = tuple(float(x) for x in args.direction.split(","))
    rng = master_rng(args.seed)
    if args.method == "bisect":
        res = threshold_bisection(
            spec, direction, args.epsilon, args.steps, args.alpha, args.reps, rng
        )
    else:
        res = threshold_robbins_monro(
            spec, direction, args.epsilon, args.steps, args.alpha, rng, iters=args.iters
        )
    writer = RunWriter(args)
    payload = {
        "direction": list(res.direction),
        "threshold": res.threshold,
        "method": res.method,
        "epsilon": res.epsilon,
        "horizon": res.horizon,
        "trace": res.trace,
    }
    writer.write_json("threshold.json", payload)
    writer.finish("threshold")
    print(f"threshold scale along {direction}: {res.threshold:.6g}")
    return 0


def _cmd_region(args) -> int:
    spec = _resolve_spec(args.spec)
    validate(spec)
    rng = master_rng(args.seed)
    scan = region_scan(
        spec, args.rays, args.epsilon, args.steps, args.alpha, args.reps, rng
    )
    writer = RunWriter(args)
    payload = {
        "rays": [
            {
                "direction": list(r.direction),
                "threshold": r.threshold,
                "horizon": r.horizon,
                "trace": r.trace,
            }
            for r in scan.rays
        ],
        "subcritical_polytope": {
            "rho_matrix": scan.rho_matrix,
            "ray_bounds": scan.subcritical_bounds,
        },
    }
    writer.write_json("region.json", payload)
    writer.finish("region")
    print(f"scanned {len(scan.rays)} rays")
    return 0


def _cmd_cycle(args) -> int:
    spec = _resolve_spec(args.spec)
    validate(spec)
    theta = tuple(args.theta_scale * t for t in spec.theta)
    rng = master_rng(args.seed)
    est = cycle_estimate(spec, theta, args.cap, args.reps, rng)
    writer = RunWriter(args)
    payload = {
        "mean_return_steps": est.mean_return,
        "censor_fraction": est.censor_fraction,
        "reps": est.reps,
        "cap": est.cap,
        "degenerate": est.degenerate,
    }
    writer.write_json("cycle.json", payload)
    writer.finish("cycle")
    print(json.dumps(payload))
    return 0


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def nonnegative_ints(text: str) -> list[int]:
    """Comma-separated list of nonnegative ints."""
    return [nonnegative_int(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcqnet", description="Multi-class queueing network toolkit"
    )
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument(
        "--threads",
        type=positive_int,
        default=os.environ.get("QNET_THREADS", "1"),
        help="worker threads of phi's scalar sampler, which it uses only for networks "
        "with multi-class head-of-queue stations or below 64 reps (QNET_THREADS fallback)",
    )
    parser.add_argument("--out-dir", default=".", help="directory for outputs and manifest")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("validate", _cmd_validate, help="check a spec and print routing analysis")
    p.add_argument("--spec", required=True)

    add("fixtures", _cmd_fixtures, help="list built-in networks").add_argument(
        "--list", action="store_true"
    )

    p = add("simulate", _cmd_simulate, help="sample embedded-chain paths to CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--theta-scale", type=float, default=1.0)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    p.add_argument("--reps", type=positive_int, default=1)
    p.add_argument("--out", default="paths.csv")

    p = add("exact", _cmd_exact, help="exact n-step law and functional")
    p.add_argument("--spec", required=True)
    p.add_argument("--theta-scale", type=float, default=1.0)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    p.add_argument("--functional", choices=("exp-norm",), default="exp-norm")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--budget", type=positive_int, default=10**6)

    p = add("phi", _cmd_phi, help="phi_n estimate (MC or exact)")
    p.add_argument("--spec", required=True)
    p.add_argument("--theta-scale", type=float, default=1.0)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--reps", type=positive_int, default=1000)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--budget", type=positive_int, default=10**6)

    p = add("monotone", _cmd_monotone, help="phi table over theta scales and steps")
    p.add_argument("--spec", required=True)
    p.add_argument("--scales", required=True, help="comma-separated theta scales")
    p.add_argument("--steps", type=nonnegative_ints, required=True,
                   help="comma-separated step counts")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--reps", type=positive_int, default=2000)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--budget", type=positive_int, default=10**6)

    p = add("couple", _cmd_couple, help="run and verify the monotonicity coupling")
    p.add_argument("--spec", required=True)
    p.add_argument("--lower", required=True, help="state as JSON, e.g. [[1],[]]")
    p.add_argument("--upper", required=True)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    p.add_argument("--reps", type=positive_int, default=1)
    p.add_argument("--report", default="couple_report.json")

    p = add("threshold", _cmd_threshold, help="stability threshold along a ray")
    p.add_argument("--spec", required=True)
    p.add_argument("--direction", required=True, help="comma-separated ray direction")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--method", choices=("bisect", "rm"), default="bisect")
    p.add_argument("--steps", type=nonnegative_int, default=4000)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--reps", type=positive_int, default=400)
    p.add_argument("--iters", type=positive_int, default=2000)

    p = add("region", _cmd_region, help="star-shaped region scan over rays")
    p.add_argument("--spec", required=True)
    p.add_argument("--rays", type=positive_int, default=4)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--steps", type=nonnegative_int, default=4000)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--reps", type=positive_int, default=400)

    p = add("cycle", _cmd_cycle, help="regenerative return-time estimate")
    p.add_argument("--spec", required=True)
    p.add_argument("--theta-scale", type=float, default=1.0)
    p.add_argument("--cap", type=positive_int, default=100000)
    p.add_argument("--reps", type=positive_int, default=200)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
