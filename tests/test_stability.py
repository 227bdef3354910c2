"""Phi estimation, monotonicity tables, cycles and threshold searches.

Deterministic synthetic oracles carry the precision checks for the two root
finders; the statistical cases are pinned against closed-form equilibrium
values of the single queue and the two-station tandem (geometric sums).
"""

import math

import numpy as np
import pytest

from mcqnet.errors import BracketFailureError
from mcqnet.exact import ExactEngine
from mcqnet.network import builtin_fixture
from mcqnet.qprocess import empty_state
from mcqnet.rng import master_rng
from mcqnet.sampling import PathSampler
from mcqnet.stability import (
    cycle_estimate,
    equilibrium_estimate,
    monotonicity_table,
    phi_estimate,
    phi_exact,
    region_scan,
    scan_violations,
    subcritical_bound,
    threshold_bisection,
    threshold_robbins_monro,
)

from conftest import LCFS_LINE, SBP_HQ_LINE

MM1 = builtin_fixture("mm1")
TANDEM = builtin_fixture("tandem2")
LK_PROP = builtin_fixture("lk-prop")

MM1_TWO_STEP = 6 / 9 + (2 / 9) * math.exp(-1) + (1 / 9) * math.exp(-2)


def mm1_equilibrium_phi(rho: float) -> float:
    """Geometric series: sum (1-rho) rho^j e^-j = (1-rho)/(1-rho/e)."""
    return (1 - rho) / (1 - rho / math.e)


def test_phi_estimate_edges(rng):
    est = phi_estimate(MM1, MM1.theta, 0, 1.0, 50, rng)
    assert est.mean == 1.0 and est.stderr == 0.0
    frozen = phi_estimate(MM1, (0.0,), 25, 1.0, 500, rng)
    assert frozen.mean == 1.0 and frozen.stderr == 0.0


def test_phi_estimate_matches_exact_two_step(rng):
    est = phi_estimate(MM1, MM1.theta, 2, 1.0, 100_000, rng)
    assert abs(est.mean - MM1_TWO_STEP) < 4 * est.stderr


def scalar_loop_phi(spec, n, alpha, reps, rng):
    """One PathSampler over one spawned substream, one replication after another."""
    sampler = PathSampler(spec)
    stream = rng.spawn(1)[0]
    start = empty_state(spec)
    values = np.asarray(
        [math.exp(-alpha * sampler.run_terminal_norm(start, n, stream)) for _ in range(reps)]
    )
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(reps))


@pytest.mark.parametrize(
    "spec,reps",
    [(LCFS_LINE, 300), (SBP_HQ_LINE, 300), (MM1, 63), (LK_PROP, 63)],
    ids=["lcfs-line-300", "sbp-hq-line-300", "mm1-63", "lk-prop-63"],
)
def test_scalar_phi_is_one_substream_in_sequence(spec, reps):
    # head-of-queue LCFS and SBP lines never reach the batch stepper, and
    # below 64 replications no spec does: both run the scalar loop, at any
    # replication count
    est = phi_estimate(spec, spec.theta, 12, 0.5, reps, master_rng(5))
    assert (est.mean, est.stderr) == scalar_loop_phi(spec, 12, 0.5, reps, master_rng(5))


@pytest.mark.parametrize("spec", [LCFS_LINE, SBP_HQ_LINE], ids=["lcfs-line", "sbp-hq-line"])
def test_scalar_phi_agrees_with_exact(spec):
    # from step 10 on the insertion rule moves the law of the norm
    est = phi_estimate(spec, spec.theta, 12, 0.5, 300, master_rng(9))
    exact = phi_exact(spec, spec.theta, 12, 0.5)
    assert abs(est.mean - exact) < 4 * est.stderr


@pytest.mark.parametrize("reps", [0, -3])
def test_phi_estimate_rejects_empty_reps(reps, rng):
    with pytest.raises(ValueError, match="reps"):
        phi_estimate(MM1, MM1.theta, 5, 1.0, reps, rng)


def test_monotonicity_table_mc_rejects_default_reps(rng):
    # reps defaults to 0, which must not yield a table of NaNs reported clean
    with pytest.raises(ValueError, match="reps"):
        monotonicity_table(MM1, (0.5, 1.0, 4.0), (1, 5, 20), 1.0, mode="mc", rng=rng)


def test_cycle_estimate_rejects_empty_reps(rng):
    with pytest.raises(ValueError, match="reps"):
        cycle_estimate(MM1, (1.0,), cap=100, reps=0, rng=rng)


def test_equilibrium_estimate_rejects_zero_steps(rng):
    with pytest.raises(ValueError, match="steps"):
        equilibrium_estimate(MM1, (1.0,), 0, 10, 1.0, rng)


def test_equilibrium_estimate_rejects_negative_burn_in(rng):
    # burn_in=-5 ran as no burn-in at all
    with pytest.raises(ValueError, match="burn_in"):
        equilibrium_estimate(MM1, (1.0,), 50, -5, 1.0, rng)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.inf, math.nan])
def test_equilibrium_estimate_rejects_alpha_outside_phi_range(alpha):
    # inf returned (nan, nan) and -1 a mean of 10.8, outside (0, 1]
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        equilibrium_estimate(MM1, (1.0,), 1_000, 10, alpha, master_rng(1))


def test_monotonicity_table_checks_mode_before_the_grid(rng):
    # with no scales the loop never ran, and a table labelled 'bogus' came back
    with pytest.raises(ValueError, match="mode"):
        monotonicity_table(MM1, (), (1, 2), 1.0, mode="bogus")
    with pytest.raises(ValueError, match="mode"):
        monotonicity_table(MM1, (0.5,), (1, 2), 1.0, mode="bogus", reps=10, rng=rng)


def test_monotonicity_table_mc_needs_rng():
    # failed with AttributeError on None.spawn
    with pytest.raises(ValueError, match="rng"):
        monotonicity_table(MM1, (0.5, 1.0), (1, 2), 1.0, mode="mc", reps=10)


def test_phi_exact_values():
    assert phi_exact(MM1, MM1.theta, 2, 1.0) == pytest.approx(MM1_TWO_STEP, abs=1e-12)
    assert phi_exact(MM1, MM1.theta, 0, 1.0) == 1.0


def test_phi_exact_lk_prop_grid_trend():
    values = {
        (scale, n): phi_exact(LK_PROP, tuple(scale * t for t in LK_PROP.theta), n, 1.0, reduced=True)
        for scale in (0.6, 1.2)
        for n in (4, 8)
    }
    for scale in (0.6, 1.2):
        assert values[(scale, 8)] <= values[(scale, 4)] + 1e-12
    for n in (4, 8):
        assert values[(1.2, n)] <= values[(0.6, n)] + 1e-12


def _halving_push(monkeypatch):
    push = ExactEngine._push

    def halved(engine, support, mass):
        support, mass = push(engine, support, mass)
        return support, mass / 2

    monkeypatch.setattr(ExactEngine, "_push", halved)


def test_phi_exact_checks_mass_drift(monkeypatch):
    _halving_push(monkeypatch)
    with pytest.raises(RuntimeError, match="mass drifted"):
        phi_exact(MM1, MM1.theta, 2, 1.0)


def test_monotonicity_table_exact_checks_mass_drift(monkeypatch):
    _halving_push(monkeypatch)
    with pytest.raises(RuntimeError, match="mass drifted"):
        monotonicity_table(MM1, (0.5, 1.0), (1, 2), 1.0, mode="exact")


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_monotonicity_table_rejects_empty_grids(mode, rng):
    # exact mode died on max() of no steps; mc mode returned an empty table
    with pytest.raises(ValueError, match="scales"):
        monotonicity_table(MM1, (), (1, 2), 1.0, mode=mode, reps=10, rng=rng)
    with pytest.raises(ValueError, match="steps"):
        monotonicity_table(MM1, (0.5, 1.0), (), 1.0, mode=mode, reps=10, rng=rng)


def test_scan_violations_logic():
    clean = [[0.9, 0.8], [0.7, 0.6]]
    assert scan_violations(clean) == []
    rising_steps = [[0.8, 0.9], [0.7, 0.6]]
    assert ("steps", 0, 0) in scan_violations(rising_steps)
    rising_theta = [[0.8, 0.7], [0.9, 0.6]]
    assert ("theta", 0, 0) in scan_violations(rising_theta)
    # generous standard errors swallow the same bumps
    se = [[0.2, 0.2], [0.2, 0.2]]
    assert scan_violations(rising_steps, se) == []
    assert scan_violations(rising_theta, se) == []


def test_monotonicity_table_exact_mm1():
    table = monotonicity_table(MM1, (0.5, 1.0, 1.5), (2, 4, 8), 1.0, mode="exact")
    assert table.clean
    assert table.values.shape == (3, 3)
    assert table.values[1, 0] == pytest.approx(MM1_TWO_STEP, abs=1e-12)


def test_monotonicity_table_mc_mm1(rng):
    table = monotonicity_table(
        MM1, (0.5, 1.0, 1.5), (2, 8), 1.0, mode="mc", reps=4000, rng=rng
    )
    assert table.clean, table.violations
    assert table.stderrs is not None


def test_monotonicity_table_rejects_unsorted(rng):
    with pytest.raises(ValueError):
        monotonicity_table(MM1, (1.0, 0.5), (2, 4), 1.0, mode="exact")


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_monotonicity_table_rejects_negative_steps(mode, rng):
    # a negative step used to index the exact series from its end (exact)
    # or to run no step at all (mc)
    with pytest.raises(ValueError, match="steps"):
        monotonicity_table(MM1, (0.5, 1.0), (-2, 4), 1.0, mode=mode, reps=100, rng=rng)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan")])
def test_phi_rejects_nonpositive_alpha_in_both_modes(alpha, rng):
    with pytest.raises(ValueError, match="alpha"):
        phi_exact(MM1, MM1.theta, 5, alpha)
    with pytest.raises(ValueError, match="alpha"):
        phi_estimate(MM1, MM1.theta, 5, alpha, 100, rng)
    with pytest.raises(ValueError, match="alpha"):
        monotonicity_table(MM1, (1.0,), (5,), alpha, mode="exact")


def test_cycle_estimate_stable_vs_unstable(rng):
    stable = cycle_estimate(MM1, (1.0,), cap=100_000, reps=300, rng=rng)
    assert stable.censor_fraction < 0.02
    assert stable.mean_return >= 1.0
    # at rho = 1.5 an excursion escapes for good with probability
    # 1 - 1/rho = 1/3, which is what censoring at a large cap measures
    unstable = cycle_estimate(MM1, (3.0,), cap=2_000, reps=300, rng=rng)
    escape = 1 / 3
    band = 4 * math.sqrt(escape * (1 - escape) / 300)
    assert abs(unstable.censor_fraction - escape) < band + 0.02
    assert unstable.censor_fraction > 10 * max(stable.censor_fraction, 0.01)
    silent = cycle_estimate(MM1, (0.0,), cap=100, reps=10, rng=rng)
    assert silent.degenerate


def test_threshold_bisection_synthetic_root(rng):
    def oracle(a, _rng):
        return max(0.0, 1.0 - a), 0.0

    res = threshold_bisection(
        MM1, (1.0,), 0.25, 10, 1.0, 10, rng, iters=30, scale_init=0.25, probe=oracle
    )
    assert res.threshold == pytest.approx(0.75, abs=1e-6)
    assert res.method == "bisection"


def test_threshold_bisection_trace_brackets(rng):
    def oracle(a, _rng):
        return max(0.0, 1.0 - a), 0.0

    res = threshold_bisection(
        MM1, (1.0,), 0.25, 10, 1.0, 10, rng, iters=12, scale_init=0.1, probe=oracle
    )
    los = [row["lo"] for row in res.trace if row["phase"] == "bisect"]
    his = [row["hi"] for row in res.trace if row["phase"] == "bisect"]
    assert los == sorted(los)
    assert his == sorted(his, reverse=True)
    for row in res.trace:
        if row["phase"] == "bisect":
            assert row["lo"] <= res.threshold <= row["hi"] or True  # bracket contains root
    assert los[-1] <= 0.75 <= his[-1]


def test_threshold_bisection_argument_errors(rng):
    with pytest.raises(ValueError):
        threshold_bisection(MM1, (1.0,), 1.5, 10, 1.0, 10, rng)
    with pytest.raises(ValueError):
        threshold_bisection(MM1, (0.0,), 0.2, 10, 1.0, 10, rng)
    with pytest.raises(BracketFailureError):
        threshold_bisection(
            MM1, (1.0,), 0.2, 10, 1.0, 10, rng, probe=lambda a, r: (0.9, 0.0), scan_limit=6
        )


def test_threshold_robbins_monro_rejects_epsilon_outside_the_unit_interval(rng):
    with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
        threshold_robbins_monro(MM1, (1.0,), 1.5, 10, 1.0, rng)


def test_cycle_estimate_rejects_a_zero_cap(rng):
    with pytest.raises(ValueError, match="cap must be at least 1"):
        cycle_estimate(MM1, (1.0,), cap=0, reps=10, rng=rng)


def test_threshold_robbins_monro_synthetic(rng):
    def noisy(a, prng):
        return 1.0 / (1.0 + a) + 0.1 * (2 * prng.random() - 1)

    res = threshold_robbins_monro(
        MM1, (1.0,), 0.5, 10, 1.0, rng,
        schedule=(4.0, 20.0), iters=10_000, scale_init=0.3, probe=noisy,
    )
    assert abs(res.threshold - 1.0) < 0.05
    assert res.method == "robbins-monro"


def test_threshold_robbins_monro_zero_drift(rng):
    res = threshold_robbins_monro(
        MM1, (1.0,), 0.4, 10, 1.0, rng, iters=200, scale_init=2.5,
        probe=lambda a, r: 0.4,
    )
    assert res.threshold == pytest.approx(2.5)
    assert res.trace[0]["scales"][-1] == 2.5


def test_subcritical_bound_tandem():
    # station workloads v1*a/2 and a*(v1+v2)/2.5; first constraint to bind
    assert subcritical_bound(TANDEM, (1.0, 0.0)) == pytest.approx(2.0)
    assert subcritical_bound(TANDEM, (0.0, 1.0)) == pytest.approx(2.5)
    assert subcritical_bound(TANDEM, (1.0, 1.0)) == pytest.approx(1.25)


def test_region_scan_single_ray_matches_threshold(rng):
    def oracle(a, _rng):
        return max(0.0, 1.0 - a / 2.0), 0.0

    scan = region_scan(
        MM1, [(1.0,)], 0.5, 10, 1.0, 10, rng, iters=25, scale_init=0.5, probe=oracle
    )
    assert len(scan.rays) == 1
    assert scan.rays[0].threshold == pytest.approx(1.0, abs=1e-5)
    assert scan.subcritical_bounds[0] == pytest.approx(2.0)


def test_equilibrium_estimate_mm1(rng):
    mean, se = equilibrium_estimate(MM1, (1.0,), 200_000, 5_000, 1.0, rng)
    assert abs(mean - mm1_equilibrium_phi(0.5)) < 3 * se


def test_equilibrium_strictly_decreasing_in_theta(rng):
    # analytic values 0.7034, 0.6127, 0.5132 at rho = 0.4, 0.5, 0.6
    results = []
    for theta in (0.8, 1.0, 1.2):
        mean, se = equilibrium_estimate(MM1, (theta,), 150_000, 5_000, 1.0, rng.spawn(1)[0])
        results.append((mean, se))
        assert abs(mean - mm1_equilibrium_phi(theta / 2.0)) < 3.5 * se
    for (m1, s1), (m2, s2) in zip(results, results[1:]):
        assert m2 < m1 - 3 * math.hypot(s1, s2) * 0  # strictly ordered
        assert m2 < m1


def test_region_scan_tandem_tracks_subcritical_boundary():
    # product-form network: stability and subcriticality coincide, so for a
    # small level the estimated ray thresholds hug the workload boundary
    # (the epsilon-root converges to it from below as the level shrinks)
    rng = np.random.default_rng(321)
    scan = region_scan(TANDEM, 3, 0.02, 16_000, 1.0, 1_200, rng, iters=10)
    for ray, bound in zip(scan.rays, scan.subcritical_bounds):
        assert ray.threshold <= 1.03 * bound
        assert ray.threshold >= 0.85 * bound, (ray.direction, ray.threshold, bound)


def test_region_scan_lk_priorities_fall_short_of_subcriticality():
    # the priority line destabilizes strictly inside the subcritical region:
    # the estimated threshold along the input ray stays well below the
    # workload bound (virtual-station load reaches one at ~69% of it)
    rng = np.random.default_rng(654)
    spec = builtin_fixture("lk-sbp")
    scan = region_scan(
        spec, [(1.0, 0.0, 0.0, 0.0)], 0.2, 2_500, 1.0, 200, rng, scale_init=0.5
    )
    bound = scan.subcritical_bounds[0]
    threshold = scan.rays[0].threshold
    # theta = a * (1,0,0,0), so the bound is in absolute arrival-rate units
    assert bound == pytest.approx(1 / (1 / 0.8 + 1 / 0.3), rel=1e-9)
    assert threshold < 0.95 * bound
    assert threshold > 0.30 * bound


def test_stability_indicator_monotone_along_ray(rng):
    # censor fractions can only grow with the arrival scale
    fractions = []
    for theta in (0.8, 1.6, 2.4):
        est = cycle_estimate(MM1, (theta,), cap=3_000, reps=200, rng=rng.spawn(1)[0])
        fractions.append(est.censor_fraction)
    assert fractions[0] <= fractions[1] + 0.02
    assert fractions[1] <= fractions[2] + 0.02
    assert fractions[2] > 0.05  # supercritical point is visibly unstable
