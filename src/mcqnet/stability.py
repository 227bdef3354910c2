"""Stability-region tooling: phi functionals, monotonicity tables, cycle and
threshold estimation along arrival-rate rays.

phi_n(theta) = E[exp(-alpha * total jobs at step n)] starting empty is the
workhorse functional: it is bounded in (0, 1], decreasing in congestion, and
its long-horizon value separates stable from unstable arrival rates. Threshold
searches solve phi = epsilon along a ray by bisection (noisy but monotone
statistic) or by a Robbins-Monro iteration with single-path evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError
from .exact import ExactEngine
from .network import NetworkSpec, workload_matrix
from .qprocess import empty_state
from .sampling import PathSampler, batch_terminal_norms, is_batch_steppable

_BATCH_MIN_REPS = 64
# slack of the monotonicity scans: an absolute tolerance on exact values, and
# a count of pooled standard errors on Monte-Carlo ones
_EXACT_TOL = 1e-10
_MC_SIGMAS = 3.0
# floor of the Robbins-Monro iterate, which keeps the probed rates positive
_SCALE_MIN = 1e-9


@dataclass(frozen=True)
class PhiEstimate:
    mean: float
    stderr: float
    reps: int
    n: int
    alpha: float


def _check_phi_args(n: int, alpha: float, reps: int | None = None) -> None:
    if reps is not None and reps < 1:
        raise ValueError("reps must be at least 1")
    if n < 0:
        raise ValueError("steps must be nonnegative")
    # phi = E[exp(-alpha * jobs)] lies in (0, 1] only for a positive alpha, and
    # an infinite one makes exp(-alpha * 0) NaN
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be positive and finite")


def _terminal_values(spec: NetworkSpec, n: int, alpha: float, reps: int, rng):
    start = empty_state(spec)
    if n == 0:
        return np.ones(reps)
    # the batch stepper runs every station but multi-class LCFS and SBP
    # head-of-queue ones (FCFS keeps a ring of class ids per replication);
    # those networks and small runs take the scalar sampler, one replication
    # after another on one spawned substream
    if is_batch_steppable(spec) and reps >= _BATCH_MIN_REPS:
        norms = batch_terminal_norms(spec, start, n, reps, rng)
        return np.exp(-alpha * norms)
    sampler = PathSampler(spec)
    stream = rng.spawn(1)[0]
    return np.asarray(
        [math.exp(-alpha * sampler.run_terminal_norm(start, n, stream)) for _ in range(reps)]
    )


def phi_estimate(
    spec: NetworkSpec, theta, n: int, alpha: float, reps: int, rng
) -> PhiEstimate:
    """Monte-Carlo estimate of E[exp(-alpha * norm at step n)] from empty."""
    _check_phi_args(n, alpha, reps)
    values = _terminal_values(spec.with_theta(theta), n, alpha, reps, rng)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return PhiEstimate(mean=mean, stderr=stderr, reps=reps, n=n, alpha=alpha)


def phi_exact(
    spec: NetworkSpec,
    theta,
    n: int,
    alpha: float,
    *,
    reduced: bool = False,
    budget: int = 10**6,
) -> float:
    """Exact E[exp(-alpha * norm at step n)] from empty, via the BFS engine."""
    _check_phi_args(n, alpha)
    engine = ExactEngine(spec.with_theta(theta), reduced=reduced, budget=budget)
    law = engine.law_arrays(empty_state(spec), n)
    return engine.norm_expectation(*law, lambda y: math.exp(-alpha * y))


@dataclass
class MonotonicityTable:
    scales: tuple[float, ...]
    steps: tuple[int, ...]
    values: np.ndarray  # [scale index, step index]
    stderrs: np.ndarray | None
    violations: list[tuple[str, int, int]]
    mode: str

    @property
    def clean(self) -> bool:
        return not self.violations


def monotonicity_table(
    spec: NetworkSpec,
    scales,
    steps,
    alpha: float,
    mode: str = "exact",
    reps: int = 0,
    rng=None,
    *,
    reduced: bool = False,
    budget: int = 10**6,
) -> MonotonicityTable:
    """phi over a (theta scale) x (step count) grid with monotonicity flags.

    Flags every increase along growing n (rows) and growing theta (columns)
    beyond the exact tolerance, or beyond three pooled standard errors in
    Monte-Carlo mode. Violations are reported, never suppressed.
    """
    scales = tuple(float(a) for a in scales)
    steps = tuple(int(n) for n in steps)
    if list(scales) != sorted(scales) or list(steps) != sorted(steps):
        raise ValueError("scales and steps must be ascending")
    if mode not in ("exact", "mc"):
        raise ValueError("mode must be 'exact' or 'mc'")
    if mode == "mc" and rng is None:
        raise ValueError("mode 'mc' needs a random generator rng")
    for name, grid in (("scales", scales), ("steps", steps)):
        if not grid:
            raise ValueError(f"{name} must not be empty")
    _check_phi_args(min(steps), alpha, reps if mode == "mc" else None)
    values = np.zeros((len(scales), len(steps)))
    stderrs = np.zeros_like(values) if mode == "mc" else None
    for a_idx, a in enumerate(scales):
        theta = tuple(a * t for t in spec.theta)
        if mode == "exact":
            engine = ExactEngine(spec.with_theta(theta), reduced=reduced, budget=budget)
            series = engine.norm_series(
                empty_state(spec), max(steps), lambda y: math.exp(-alpha * y)
            )
            for n_idx, n in enumerate(steps):
                values[a_idx, n_idx] = series[n]
        else:
            for n_idx, n in enumerate(steps):
                est = phi_estimate(spec, theta, n, alpha, reps, rng.spawn(1)[0])
                values[a_idx, n_idx] = est.mean
                stderrs[a_idx, n_idx] = est.stderr

    violations = scan_violations(values, stderrs)
    return MonotonicityTable(scales, steps, values, stderrs, violations, mode)


def scan_violations(values, stderrs=None) -> list[tuple[str, int, int]]:
    """Flag increases of phi along growing steps (axis 1) or theta (axis 0).

    Without standard errors the exact tolerance applies; with them the slack
    is three pooled standard errors per comparison.
    """
    values = np.asarray(values)

    def slack(i, j, i2, j2) -> float:
        if stderrs is None:
            return _EXACT_TOL
        return _MC_SIGMAS * math.hypot(stderrs[i][j], stderrs[i2][j2])

    rows, cols = values.shape
    violations = []
    for i in range(rows):
        for j in range(cols - 1):
            if values[i, j + 1] > values[i, j] + slack(i, j, i, j + 1):
                violations.append(("steps", i, j))
    for j in range(cols):
        for i in range(rows - 1):
            if values[i + 1, j] > values[i, j] + slack(i, j, i + 1, j):
                violations.append(("theta", i, j))
    return violations


@dataclass(frozen=True)
class CycleEstimate:
    mean_return: float
    censor_fraction: float
    reps: int
    cap: int
    degenerate: bool = False  # no arrivals: the chain never leaves empty


def cycle_estimate(spec: NetworkSpec, theta, cap: int, reps: int, rng) -> CycleEstimate:
    """Mean embedded-step return time to empty (leave, then come back).

    Cycles still running at ``cap`` steps are censored; a censor fraction near
    one is the practical signature of an unstable rate vector.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    spec_t = spec.with_theta(theta)
    if sum(spec_t.theta) == 0:
        return CycleEstimate(math.inf, 0.0, reps, cap, degenerate=True)
    sampler = PathSampler(spec_t)
    streams = rng.spawn(reps)
    lengths = []
    censored = 0
    for i in range(reps):
        steps, was_censored = sampler.run_cycle_length(cap, streams[i])
        if was_censored:
            censored += 1
        else:
            lengths.append(steps)
    mean = float(np.mean(lengths)) if lengths else math.nan
    return CycleEstimate(mean, censored / reps, reps, cap, degenerate=False)


def equilibrium_estimate(
    spec: NetworkSpec,
    theta,
    steps: int,
    burn_in: int,
    alpha: float,
    rng,
) -> tuple[float, float]:
    """Long-run average of exp(-alpha * norm) with a batch-means stderr."""
    _check_phi_args(steps, alpha)
    spec_t = spec.with_theta(theta)
    sampler = PathSampler(spec_t)
    return sampler.run_functional_average(
        empty_state(spec_t), steps, burn_in, lambda m: math.exp(-alpha * m), rng
    )


@dataclass
class RaySearchResult:
    direction: tuple[float, ...]
    threshold: float
    method: str
    epsilon: float
    horizon: int
    trace: list[dict] = field(default_factory=list)


def _check_direction(spec: NetworkSpec, v) -> tuple[float, ...]:
    v = tuple(float(x) for x in v)
    if len(v) != spec.class_count:
        raise ValueError("direction length must equal the class count")
    if any(x < 0 for x in v) or not any(x > 0 for x in v):
        raise ValueError("direction must be nonnegative and nonzero")
    return v


def threshold_bisection(
    spec: NetworkSpec,
    v,
    epsilon: float,
    n: int,
    alpha: float,
    reps: int,
    rng,
    iters: int = 18,
    scale_init: float = 1.0,
    scan_limit: int = 20,
    probe=None,
) -> RaySearchResult:
    """Bisection on the ray scale for phi_n(a * v) = epsilon.

    The bracket is found by doubling the scale until the estimate drops below
    epsilon; monotonicity of phi along the ray makes the bisection consistent
    up to estimator noise.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    v = _check_direction(spec, v)
    if probe is None:
        def probe(a: float, prng):
            est = phi_estimate(spec, tuple(a * x for x in v), n, alpha, reps, prng)
            return est.mean, est.stderr

    trace: list[dict] = []
    lo = 0.0
    a = scale_init
    hi = None
    for _ in range(scan_limit):
        value, se = probe(a, rng.spawn(1)[0])
        trace.append({"phase": "bracket", "scale": a, "value": value, "stderr": se,
                      "lo": lo, "hi": hi})
        if value < epsilon:
            hi = a
            break
        lo = a
        a *= 2.0
    if hi is None:
        raise BracketFailureError(
            f"phi never dropped below {epsilon} within {scan_limit} doublings"
        )
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        value, se = probe(mid, rng.spawn(1)[0])
        if value >= epsilon:
            lo = mid
        else:
            hi = mid
        trace.append({"phase": "bisect", "scale": mid, "value": value, "stderr": se,
                      "lo": lo, "hi": hi})
    return RaySearchResult(v, 0.5 * (lo + hi), "bisection", epsilon, n, trace)


def threshold_robbins_monro(
    spec: NetworkSpec,
    v,
    epsilon: float,
    n: int,
    alpha: float,
    rng,
    schedule: tuple[float, float] = (2.0, 50.0),
    iters: int = 2000,
    scale_init: float = 1.0,
    probe=None,
) -> RaySearchResult:
    """Robbins-Monro iteration a_{m+1} = a_m + c/(m0+m) (phi_hat - epsilon).

    Each step uses one noisy single-path evaluation; the returned threshold is
    the Polyak average of the second half of the trace. Non-convergence shows
    in the trace rather than raising.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    v = _check_direction(spec, v)
    c, m0 = schedule
    if probe is None:
        def probe(a: float, prng):
            return phi_estimate(spec, tuple(a * x for x in v), n, alpha, 1, prng).mean

    scale = scale_init
    trace_scales = [scale]
    for m in range(iters):
        noisy = probe(scale, rng.spawn(1)[0])
        scale = max(_SCALE_MIN, scale + (c / (m0 + m + 1)) * (noisy - epsilon))
        trace_scales.append(scale)
    tail = trace_scales[len(trace_scales) // 2 :]
    estimate = float(np.mean(tail))
    trace = [{"phase": "iterate", "scales": trace_scales}]
    return RaySearchResult(v, estimate, "robbins-monro", epsilon, n, trace)


@dataclass
class RegionScan:
    rays: list[RaySearchResult]
    subcritical_bounds: list[float]
    rho_matrix: list[list[float]]


def default_rays(spec: NetworkSpec, count: int) -> list[tuple[float, ...]]:
    """``count`` directions fanning the positive quadrant of classes 1 and 2."""
    if spec.class_count < 2:
        raise ValueError("a 2-D fan needs at least two classes")
    out = []
    for j in range(count):
        angle = (j + 0.5) / count * math.pi / 2
        v = [0.0] * spec.class_count
        v[0] = math.cos(angle)
        v[1] = math.sin(angle)
        out.append(tuple(v))
    return out


def subcritical_bound(spec: NetworkSpec, v) -> float:
    """Largest a with every station workload rho_i(a*v) below one."""
    c = workload_matrix(spec)
    loads = c @ np.asarray(v, dtype=float)
    top = float(loads.max())
    return math.inf if top <= 0 else 1.0 / top


def region_scan(
    spec: NetworkSpec,
    rays,
    epsilon: float,
    n: int,
    alpha: float,
    reps: int,
    rng,
    **search_kwargs,
) -> RegionScan:
    """Per-ray bisection thresholds assembled into a star-shaped under-approximation.

    Also reports the subcriticality polytope data (workload matrix rows and the
    per-ray subcritical crossing) for comparison; thresholds above that bound
    are impossible, thresholds strictly below it exhibit the multi-class gap.
    """
    if isinstance(rays, int):
        rays = default_rays(spec, rays)
    results = []
    bounds = []
    for v in rays:
        results.append(
            threshold_bisection(spec, v, epsilon, n, alpha, reps, rng.spawn(1)[0], **search_kwargs)
        )
        bounds.append(subcritical_bound(spec, v))
    matrix = [list(map(float, row)) for row in workload_matrix(spec)]
    return RegionScan(results, bounds, matrix)
