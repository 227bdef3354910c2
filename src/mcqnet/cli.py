"""Command-line surface: validation, simulation, exact analysis, coupling
verification, monotonicity tables and threshold/region search.

Specs are JSON documents (or built-in fixture names); bulk samples go to CSV,
reports to JSON. Every run writes a manifest recording the subcommand, all
parameters, the master seed, the toolkit version and SHA-256 digests of the
outputs, so a run can be reproduced byte for byte.

``main`` runs every subcommand the same way: it loads and validates the spec
once, runs the body (which computes, writes its outputs and returns the text
to print), writes the manifest and prints. The manifest's ``wall_clock_s``
covers the whole run: load, validate, solve and write.

Exit codes: 0 success, 1 domain errors (non-transient routing, exceeded state
budget, failed bracket, ...), 2 usage errors (also a spec file that cannot be
read or an ``--out-dir`` that cannot be made).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from typing import NamedTuple

import numpy as np

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
from .exact import ExactEngine
from .network import (
    FIXTURE_NAMES,
    NetworkSpec,
    RoutingAnalysis,
    builtin_fixture,
    _reading,
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
from .coupling import CouplingKernel, verify_coupling_path

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
    if not os.path.isfile(ref):
        raise UnknownFixtureError(f"{ref!r} is neither a built-in fixture nor a spec file")
    return load_spec(ref)


def _load(args: argparse.Namespace) -> tuple[NetworkSpec, RoutingAnalysis]:
    """The run's spec, scaled by ``--theta-scale`` where given, and its analysis."""
    spec = _resolve_spec(args.spec)
    if hasattr(args, "theta_scale"):
        spec = spec.scale_theta(args.theta_scale)
    return spec, validate(spec)


def _state_key(state) -> str:
    """The compact JSON array of a state's buffers, e.g. ``[[1,4],[2]]``."""
    return "[" + ",".join("[" + ",".join(map(str, q)) + "]" for q in state) + "]"


class _Entries(NamedTuple):
    """A nonempty flat JSON object given as its entries in key order: entry
    i is ``form % (fields[0][i], fields[1][i], ...)``, the text ``"key":
    value`` as ``json.dumps`` writes it. ``_write_json`` writes it as that
    object."""

    form: str
    fields: list[list]


def _law_entries(engine: ExactEngine, support: np.ndarray, mass: np.ndarray) -> _Entries:
    """The law ``mass`` on the state ids ``support`` as ``exact_law.json``'s
    distribution: keyed by ``_state_key``, in sorted key order, with no key
    made or compared and no tuple state.

    Each distinct buffer's compact JSON text (``[1,4]``; key 0, the source,
    is "") is made and ranked once, and one ``lexsort`` over each station's
    rank orders the support: a buffer text ends at its only ``]``, so none
    is a prefix of another, and two keys compare as the first station texts
    they differ in. Each entry is then ``"[%s,%s]": %r`` (for two stations)
    of its stations' texts and its mass; json writes a float as its repr.
    """
    classes = list(map(str, range(engine.spec.class_count + 1)))
    buffers = engine.buffers[1:].tolist()
    texts = [""] + ["[" + ",".join(map(classes.__getitem__, q)) + "]" for q in buffers]
    rank = np.empty(len(texts), dtype=np.int64)
    rank[sorted(range(len(texts)), key=texts.__getitem__)] = np.arange(len(texts))
    rows = engine.key_rows(support)
    order = np.lexsort(rank[rows[:, ::-1].T])
    by_key = np.array(texts, dtype=object)
    columns = [by_key[keys].tolist() for keys in rows[order].T]
    form = '"[' + ",".join(["%s"] * len(columns)) + ']": %r'
    return _Entries(form, [*columns, mass[order].tolist()])


_JSON_CHUNK = 1024  # entries of an ``_Entries`` per write


def _write_json(fh, obj, depth: int = 0) -> None:
    """Write ``obj`` as ``json.dump(obj, fh, indent=2, sort_keys=True)`` does,
    nested ``depth`` levels deep; an ``_Entries`` is written as its object.

    An ``_Entries`` goes out in chunks of ``_JSON_CHUNK`` formatted entries.
    A nonempty dict with str keys is sorted once and written key by key,
    each value one level deeper. Anything else is the stdlib encoder's text,
    re-indented to ``depth`` (encoded strings hold no raw newline).
    """
    pad = "\n" + "  " * (depth + 1)
    if type(obj) is _Entries:
        entry, sep = obj.form.__mod__, "," + pad
        for start in range(0, len(obj.fields[0]), _JSON_CHUNK):
            chunk = zip(*(f[start:start + _JSON_CHUNK] for f in obj.fields))
            fh.write((sep if start else "{" + pad) + sep.join(map(entry, chunk)))
    elif type(obj) is dict and obj and set(map(type, obj)) == {str}:
        for i, key in enumerate(sorted(obj)):
            fh.write(("," if i else "{") + pad + json.dumps(key) + ": ")
            _write_json(fh, obj[key], depth + 1)
    else:
        fh.write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth))
        return
    fh.write("\n" + "  " * depth + "}")


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


def _check_name(name: str) -> None:
    if os.path.basename(name) != name or name in ("", ".", ".."):
        raise ValueError(f"output name {name!r} must be a file name without a directory part")


class RunWriter:
    """Collects output files and finalizes the run manifest.

    The clock starts when the writer is made, before the spec is loaded.
    ``--out-dir`` is created at the first write, so a run that fails before
    writing leaves nothing behind. Output names are bare file names inside
    ``--out-dir``; a name with a directory part is a usage error. The names
    given by ``--out`` and ``--report`` are checked when the writer is made,
    before the spec is loaded and the run solved.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.outputs: dict[str, str] = {}
        self.started = time.perf_counter()
        for option in ("out", "report"):
            if hasattr(args, option):
                _check_name(getattr(args, option))

    def path(self, name: str) -> str:
        return os.path.join(self.args.out_dir, name)

    @contextlib.contextmanager
    def _open(self, name: str, newline: str | None = None):
        """Text stream to the output ``name``; its bytes are hashed as they go out."""
        _check_name(name)
        os.makedirs(self.args.out_dir, exist_ok=True)
        with open(self.path(name), "wb") as raw:
            sink = _HashingSink(raw)
            with io.TextIOWrapper(io.BufferedWriter(sink), newline=newline) as fh:
                yield fh
        self.outputs[name] = sink.sha256.hexdigest()

    def write_json(self, name: str, payload) -> None:
        """``payload`` byte for byte as ``json.dump(payload, fh, indent=2,
        sort_keys=True)`` writes it, then a newline; streamed, never one string."""
        with self._open(name) as fh:
            _write_json(fh, payload)
            fh.write("\n")

    def write_csv(self, name: str, header, rows) -> str:
        with self._open(name, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return self.path(name)

    def finish(self) -> None:
        args = self.args
        manifest = {
            "subcommand": args.subcommand,
            "parameters": {k: v for k, v in vars(args).items() if k != "func"},
            "seed": args.seed,
            "version": __version__,
            "wall_clock_s": round(time.perf_counter() - self.started, 3),
            "outputs": dict(self.outputs),
        }
        self.write_json(f"{args.subcommand}_manifest.json", manifest)


# Subcommand bodies: each takes (args, spec, analysis, out) from ``main``,
# writes its outputs through ``out`` and returns the text ``main`` prints.

def _cmd_validate(args, spec, analysis, out) -> str:
    payload = {
        "effective_rates": list(analysis.effective_rates),
        "workload": list(analysis.workload),
        "irreducible": analysis.irreducible,
        "transient": analysis.transient,
        "decay_power": analysis.decay_power,
        "spec": spec_to_dict(spec),
    }
    out.write_json("validate_report.json", payload)
    lines = [f"station {i}: workload {rho:.6g}" for i, rho in enumerate(analysis.workload, start=1)]
    lines.append(f"effective rates: {[round(g, 9) for g in analysis.effective_rates]}")
    lines.append(f"irreducible: {analysis.irreducible}  transient: {analysis.transient}")
    return "\n".join(lines)


def _cmd_fixtures(args, spec, analysis, out) -> str:
    out.write_json("fixtures.json", {"fixtures": list(FIXTURE_NAMES)})
    return "\n".join(FIXTURE_NAMES)


def _cmd_simulate(args, spec, analysis, out) -> str:
    rng = master_rng(args.seed)
    sampler = PathSampler(spec)
    rows = []
    for rep in range(args.reps):
        sampler.reset(empty_state(spec), rng.spawn(1)[0])
        for step in range(args.steps + 1):
            if step:
                sampler.step()
            state = sampler.snapshot()
            rows.append([rep, step, state_norm(state), *state_composition(spec, state)])
    classes = [f"class_{k}" for k in range(1, spec.class_count + 1)]
    return f"wrote {out.write_csv(args.out, ['rep', 'step', 'total_jobs', *classes], rows)}"


def _cmd_exact(args, spec, analysis, out) -> str:
    engine = ExactEngine(spec, reduced=args.reduced, budget=args.budget)
    support, mass = engine.law_arrays(empty_state(spec), args.steps)
    value = engine.norm_expectation(support, mass, lambda y: math.exp(-args.alpha * y))
    payload = {
        "steps": args.steps,
        "functional": {"name": "exp-norm", "alpha": args.alpha, "value": value},
        "distribution": _law_entries(engine, support, mass),
    }
    out.write_json("exact_law.json", payload)
    return f"E[exp(-{args.alpha} * jobs)] at step {args.steps}: {value:.12g}"


def _cmd_phi(args, spec, analysis, out) -> str:
    if args.exact:
        value = phi_exact(spec, spec.theta, args.steps, args.alpha,
                          reduced=args.reduced, budget=args.budget)
        payload = {"mode": "exact", "value": value, "steps": args.steps, "alpha": args.alpha}
    else:
        rng = master_rng(args.seed)
        est = phi_estimate(spec, spec.theta, args.steps, args.alpha, args.reps, rng)
        payload = {
            "mode": "mc",
            "value": est.mean,
            "stderr": est.stderr,
            "reps": est.reps,
            "steps": est.n,
            "alpha": est.alpha,
        }
    out.write_json("phi.json", payload)
    return json.dumps(payload)


def _cmd_monotone(args, spec, analysis, out) -> str:
    scales = [float(x) for x in args.scales.split(",")]
    rng = master_rng(args.seed)
    table = monotonicity_table(
        spec, scales, args.steps, args.alpha,
        mode="exact" if args.exact else "mc",
        reps=args.reps, rng=rng, reduced=args.reduced, budget=args.budget,
    )
    stderrs = [] if table.stderrs is None else [table.stderrs]
    header = ["theta_scale", "steps", "phi"] + ["stderr"] * len(stderrs)
    rows = [[a, n, table.values[i, j], *(s[i, j] for s in stderrs)]
            for i, a in enumerate(table.scales) for j, n in enumerate(table.steps)]
    out.write_csv("monotone_table.csv", header, rows)
    out.write_json(
        "monotone_violations.json",
        {"violations": [list(v) for v in table.violations], "mode": table.mode},
    )
    return f"violations: {len(table.violations)}"


def _typed_state(spec, text: str, option: str):
    """The JSON ``text`` given by ``option`` and the state it names; an error
    quotes the text as typed and names the option."""
    with _reading(f"state {text} given by {option}"):
        typed = json.loads(text)
        return typed, check_state(spec, typed)


def _cmd_couple(args, spec, analysis, out) -> str:
    lower_json, lower = _typed_state(spec, args.lower, "--lower")
    upper_json, upper = _typed_state(spec, args.upper, "--upper")
    rng = master_rng(args.seed)
    kernel = CouplingKernel(spec)
    starts = kernel.starts(lower, upper)
    per_rep = []
    # Rep r runs its paths, from starts checked once, on the streams
    # run_coupling gives on master.spawn(1)[0]: spawned from that child's
    # seed sequence, without making the child's generator.
    seeds, kind = rng.bit_generator.seed_seq, type(rng.bit_generator)
    for _ in range(args.reps):
        streams = [np.random.Generator(kind(s)) for s in seeds.spawn(1)[0].spawn(len(starts))]
        paths = [kernel.run(cs, args.steps, g) for cs, g in zip(starts, streams)]
        reports = [verify_coupling_path(p) for p in paths]
        ok = all(r.ok for r in reports)
        per_rep.append({"tau": [p.tau for p in paths], "ok": ok})
    failures = sum(not r["ok"] for r in per_rep)
    payload = {
        "reps": args.reps,
        "steps": args.steps,
        "lower": lower_json,
        "upper": upper_json,
        "invariant_failures": failures,
        "runs": per_rep,
    }
    out.write_json(args.report, payload)
    return f"couplings: {args.reps}, invariant failures: {failures}"


def _ray(res) -> dict:
    """The report of one ray search, as ``threshold`` and ``region`` write it."""
    return {"direction": list(res.direction), "threshold": res.threshold,
            "horizon": res.horizon, "trace": res.trace}


def _cmd_threshold(args, spec, analysis, out) -> str:
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
    out.write_json("threshold.json", {**_ray(res), "method": res.method, "epsilon": res.epsilon})
    return f"threshold scale along {direction}: {res.threshold:.6g}"


def _cmd_region(args, spec, analysis, out) -> str:
    rng = master_rng(args.seed)
    scan = region_scan(
        spec, args.rays, args.epsilon, args.steps, args.alpha, args.reps, rng
    )
    payload = {
        "rays": [_ray(r) for r in scan.rays],
        "subcritical_polytope": {
            "rho_matrix": scan.rho_matrix,
            "ray_bounds": scan.subcritical_bounds,
        },
    }
    out.write_json("region.json", payload)
    return f"scanned {len(scan.rays)} rays"


def _cmd_cycle(args, spec, analysis, out) -> str:
    rng = master_rng(args.seed)
    est = cycle_estimate(spec, spec.theta, args.cap, args.reps, rng)
    payload = {
        # JSON has no inf or nan: a mean that is not finite is null, and
        # ``degenerate`` or ``censor_fraction`` says why
        "mean_return_steps": est.mean_return if math.isfinite(est.mean_return) else None,
        "censor_fraction": est.censor_fraction,
        "reps": est.reps,
        "cap": est.cap,
        "degenerate": est.degenerate,
    }
    out.write_json("cycle.json", payload)
    return json.dumps(payload)


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    return _int_at_least(text, 0)


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def positive_alpha(text: str) -> float:
    """The ``--alpha`` of phi = E[exp(-alpha * jobs)]: finite and above 0."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"alpha must be positive and finite, got {text}")
    return value


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
        default=1,
        help="accepted for compatibility but has no effect; it will be removed "
        "(ROADMAP item 11)",
    )
    parser.add_argument("--out-dir", default=".", help="directory for outputs and manifest")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # Options several subcommands share, declared once here.
    def add(name, fn, summary, spec=True, theta_scale=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=fn)
        if spec:
            p.add_argument("--spec", required=True)
        if theta_scale:
            p.add_argument("--theta-scale", type=float, default=1.0)
        return p

    def alpha(p):
        p.add_argument("--alpha", type=positive_alpha, default=1.0)

    def exact_limits(p):
        p.add_argument("--reduced", action="store_true")
        p.add_argument("--budget", type=positive_int, default=10**6)

    def ray_search(p):
        p.add_argument("--steps", type=nonnegative_int, default=4000)
        alpha(p)
        p.add_argument("--reps", type=positive_int, default=400)

    add("validate", _cmd_validate, "check a spec and print routing analysis")

    add("fixtures", _cmd_fixtures, "list built-in networks", spec=False)

    p = add("simulate", _cmd_simulate, "sample embedded-chain paths to CSV", theta_scale=True)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    p.add_argument("--reps", type=positive_int, default=1)
    p.add_argument("--out", default="paths.csv")

    p = add("exact", _cmd_exact, "exact n-step law and functional", theta_scale=True)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    alpha(p)
    exact_limits(p)

    p = add("phi", _cmd_phi, "phi_n estimate (MC or exact)", theta_scale=True)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    alpha(p)
    p.add_argument("--reps", type=positive_int, default=1000)
    p.add_argument("--exact", action="store_true")
    exact_limits(p)

    p = add("monotone", _cmd_monotone, "phi table over theta scales and steps")
    p.add_argument("--scales", required=True, help="comma-separated theta scales")
    p.add_argument("--steps", type=nonnegative_ints, required=True,
                   help="comma-separated step counts")
    alpha(p)
    p.add_argument("--reps", type=positive_int, default=2000)
    p.add_argument("--exact", action="store_true")
    exact_limits(p)

    p = add("couple", _cmd_couple, "run and verify the monotonicity coupling")
    p.add_argument("--lower", required=True, help="state as JSON, e.g. [[1],[]]")
    p.add_argument("--upper", required=True)
    p.add_argument("--steps", type=nonnegative_int, required=True)
    p.add_argument("--reps", type=positive_int, default=1)
    p.add_argument("--report", default="couple_report.json")

    p = add("threshold", _cmd_threshold, "stability threshold along a ray")
    p.add_argument("--direction", required=True, help="comma-separated ray direction")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--method", choices=("bisect", "rm"), default="bisect")
    ray_search(p)
    p.add_argument("--iters", type=positive_int, default=2000)

    p = add("region", _cmd_region, "star-shaped region scan over rays")
    p.add_argument("--rays", type=positive_int, default=4)
    p.add_argument("--epsilon", type=float, required=True)
    ray_search(p)

    p = add("cycle", _cmd_cycle, "regenerative return-time estimate", theta_scale=True)
    p.add_argument("--cap", type=positive_int, default=100000)
    p.add_argument("--reps", type=positive_int, default=200)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built at the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    """Parse, load and validate the spec once, run the subcommand, write, print."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        out = RunWriter(args)
        spec, analysis = _load(args) if hasattr(args, "spec") else (None, None)
        text = args.func(args, spec, analysis, out)
        out.finish()
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # OSError: e.g. an --out-dir that is a file
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
