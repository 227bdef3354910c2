"""Simulation and verification toolkit for Markovian multi-class queueing networks."""

from .allocation import ServiceAllocation, StationProtocol, allocate, allocate_fractions
from .configurations import (
    PriorityRanking,
    QueuePolicy,
    composition,
    delete,
    head,
    insert,
    insertion_index,
    is_subconfig,
)
from .coupling import (
    ComparisonReport,
    CoupledPath,
    CoupledState,
    exact_pair_law_check,
    run_coupling,
    verify_coupling_path,
)
from .exact import (
    ExactEngine,
    exact_step_distribution,
    expectation,
    norm_cdf,
    norm_distribution,
    reachable_states,
    transient_functional,
)
from .network import (
    FIXTURE_NAMES,
    NetworkSpec,
    RoutingAnalysis,
    builtin_fixture,
    dump_spec,
    load_spec,
    spec_from_dict,
    spec_to_dict,
    validate,
    workload_matrix,
)
from .qprocess import (
    NetworkState,
    TransitionLabel,
    apply_transition,
    canonicalize_state,
    embedded_step,
    empty_state,
    is_substate,
    simulate_path,
    state_composition,
    state_norm,
    transition_rate,
    uniformization_rate,
)
from .rng import master_rng
from .sampling import PathSampler, batch_terminal_norms
from .stability import (
    CycleEstimate,
    MonotonicityTable,
    PhiEstimate,
    RaySearchResult,
    RegionScan,
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

__version__ = "0.1.0"
