"""Configuration-space operators: examples worked by hand plus exhaustive laws."""

import pytest

from mcqnet.allocation import ServiceAllocation, StationProtocol
from mcqnet.configurations import (
    PriorityRanking,
    QueuePolicy,
    composition,
    delete,
    head,
    insert,
    insertion_index,
    is_subconfig,
)
from mcqnet.errors import EmptyConfigurationError
from mcqnet.network import NetworkSpec
from mcqnet.qprocess import station_canonicalizer

from conftest import all_sequences

FCFS = QueuePolicy.fcfs()
LCFS = QueuePolicy.lcfs()
# caste {2} above caste {1}: class 2 overtakes queued class-1 jobs
SBP_2_OVER_1 = QueuePolicy.sbp(PriorityRanking.from_lists([[2], [1]]))

ALL_POLICIES_12 = [FCFS, LCFS, SBP_2_OVER_1, QueuePolicy.sbp(PriorityRanking.from_lists([[1], [2]]))]


def test_composition_examples():
    assert composition((1, 2, 1)) == {1: 2, 2: 1}
    assert composition(()) == {}
    assert composition((3, 3, 3)) == {3: 3}


def test_head_examples():
    assert head((2, 1, 2)) == 2
    assert head((4,)) == 4
    with pytest.raises(EmptyConfigurationError):
        head(())


def test_insertion_index_examples():
    assert insertion_index(FCFS, (1, 3), 2) == 3
    assert insertion_index(LCFS, (1, 3), 2) == 2
    # class 2 outranks both queued 1-digits, but cannot preempt the head
    assert insertion_index(SBP_2_OVER_1, (1, 1), 2) == 2


def test_insertion_index_needs_nonempty():
    with pytest.raises(EmptyConfigurationError):
        insertion_index(FCFS, (), 1)


def test_insert_examples():
    assert insert(FCFS, (1, 3), 2) == (1, 3, 2)
    assert insert(LCFS, (1, 3), 2) == (1, 2, 3)
    for policy in (FCFS, LCFS):
        assert insert(policy, (), 4) == (4,)


def test_delete_examples():
    assert delete((1, 2, 1), 1) == (2, 1)
    assert delete((2, 3), 1) == (2, 3)
    assert delete((), 5) == ()


def test_is_subconfig_examples():
    assert is_subconfig((1, 3), (1, 2, 3))
    assert not is_subconfig((3, 1), (1, 2, 3))
    assert is_subconfig((1, 2, 1), (1, 2, 1))
    assert is_subconfig((), (2, 2))


def test_sbp_insert_hand_traces():
    # queue (2,1,2), ranked 2 over 1: a new 2 overtakes the trailing 1? No --
    # the suffix (2) is same-caste, so the new digit lands at the very end.
    assert insert(SBP_2_OVER_1, (2, 1, 2), 2) == (2, 1, 2, 2)
    # a new 2 into (2,1,1): suffix (1,1) is dominated, insert right after head
    assert insert(SBP_2_OVER_1, (2, 1, 1), 2) == (2, 2, 1, 1)
    # a new 1 never overtakes anybody under this ranking
    assert insert(SBP_2_OVER_1, (2, 1), 1) == (2, 1, 1)


def test_lcfs_respects_within_class_order():
    # a later 1 may not overtake the 1 already queued at position 3
    assert insert(LCFS, (1, 2, 1), 1) == (1, 2, 1, 1)
    assert insert(LCFS, (1, 2, 3), 4) == (1, 4, 2, 3)


# --- exhaustive laws --------------------------------------------------------


def test_insertion_composition_commutation():
    for policy in ALL_POLICIES_12:
        for p in all_sequences((1, 2), 6):
            for k in (1, 2):
                before = composition(p)
                after = composition(insert(policy, p, k))
                before[k] = before.get(k, 0) + 1
                assert after == before


def test_no_overtake_within_class():
    for policy in ALL_POLICIES_12:
        for p in all_sequences((1, 2), 6):
            if not p:
                continue
            for k in (1, 2):
                j = insertion_index(policy, p, k)
                assert all(p[m] != k for m in range(j - 1, len(p)))


def test_non_preemption():
    for policy in ALL_POLICIES_12:
        for p in all_sequences((1, 2), 6):
            if not p:
                continue
            for k in (1, 2):
                assert insertion_index(policy, p, k) >= 2
                assert head(insert(policy, p, k)) == head(p)


def test_monotone_insertion():
    for policy in ALL_POLICIES_12:
        for p in all_sequences((1, 2), 6):
            for k in (1, 2):
                assert is_subconfig(p, insert(policy, p, k))


def test_insert_removal_recovers_original():
    for policy in ALL_POLICIES_12:
        for p in all_sequences((1, 2), 5):
            if not p:
                continue
            for k in (1, 2):
                j = insertion_index(policy, p, k)
                q = insert(policy, p, k)
                assert q[: j - 1] + q[j:] == p


def test_subsequence_partial_order():
    seqs = all_sequences((1, 2), 4)
    for p in seqs:
        assert is_subconfig(p, p)
    for p in seqs:
        for q in seqs:
            if is_subconfig(p, q) and is_subconfig(q, p):
                assert p == q
    for p in seqs:
        for q in seqs:
            if not is_subconfig(p, q):
                continue
            for r in seqs:
                if is_subconfig(q, r):
                    assert is_subconfig(p, r)


def test_sbp_single_caste_is_fcfs():
    single = QueuePolicy.sbp(PriorityRanking.from_lists([[1, 2]]))
    for p in all_sequences((1, 2), 6):
        if not p:
            continue
        for k in (1, 2):
            assert insertion_index(single, p, k) == insertion_index(FCFS, p, k)


# --- reductions (qprocess.station_canonicalizer) ----------------------------

HQ = ServiceAllocation.head_of_queue()
PROP = ServiceAllocation.proportional()


def lumping(policy, allocation, classes):
    """The canonicalizer of a one-station network serving ``classes``."""
    d = max(classes)
    spec = NetworkSpec(
        class_count=d,
        stations=(tuple(classes),),
        theta=(1.0,) * d,
        beta=(1.0,) * d,
        routing=((0.0,) * d,) * d,
        protocols=(StationProtocol(policy, allocation),),
    )
    return station_canonicalizer(spec, 0)


def test_reduce_examples():
    # a single-class buffer is its own lumped form: its length says it all
    assert lumping(FCFS, HQ, (1,))((1, 1, 1)) == (1, 1, 1)
    assert lumping(FCFS, PROP, (1, 2))((1, 2, 1)) == (1, 1, 2)
    # head kept, tail caste-sorted: caste {2} before caste {1}
    assert lumping(SBP_2_OVER_1, HQ, (1, 2))((1, 2, 1)) == (1, 2, 1)
    assert lumping(SBP_2_OVER_1, HQ, (1, 2))((1, 1, 2)) == (1, 2, 1)


def test_reduce_empty_is_designated_value():
    assert lumping(FCFS, HQ, (1,))(()) == ()
    assert lumping(FCFS, PROP, (1, 2))(()) == ()
    sbp = lumping(SBP_2_OVER_1, HQ, (1, 2))
    assert sbp(()) == ()
    assert sbp(()) != sbp((1,))


def test_reduce_unsupported():
    # a multi-class FCFS or LCFS head-of-queue station has no lumping
    for policy in (FCFS, LCFS):
        canon = lumping(policy, HQ, (1, 2))
        for p in all_sequences((1, 2), 5):
            assert canon(p) == p


def _sbp_reachable(policy, classes, max_norm):
    """Closure of the empty configuration under insertions and deletions."""
    seen = {()}
    frontier = [()]
    while frontier:
        p = frontier.pop()
        nxt = [delete(p, k) for k in classes]
        if len(p) < max_norm:
            nxt.extend(insert(policy, p, k) for k in classes)
        for q in nxt:
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


@pytest.mark.parametrize(
    "policy,allocation,classes",
    [
        (FCFS, HQ, (1,)),
        (FCFS, PROP, (1, 2)),
        (SBP_2_OVER_1, HQ, (1, 2)),
    ],
)
def test_reduction_soundness(policy, allocation, classes):
    # canon(insert(p, k)) and canon(delete(p, k)) must be functions of
    # (canon(p), k). For SBP this holds on the dynamics-reachable subspace
    # (caste-sorted tails); single-class and OI reductions need no restriction,
    # so enumerate everything for those.
    if policy.kind == "sbp":
        space = _sbp_reachable(policy, classes, 5)
    else:
        space = all_sequences(classes, 5)
    canon = lumping(policy, allocation, classes)
    insert_map = {}
    delete_map = {}
    for p in space:
        rp = canon(p)
        for k in classes:
            key = (rp, k)
            ri = canon(insert(policy, p, k))
            rd = canon(delete(p, k))
            assert insert_map.setdefault(key, ri) == ri
            assert delete_map.setdefault(key, rd) == rd


def test_sbp_reduction_breaks_off_reachable_subspace():
    # (2,1,2) and (2,2,1) share head and caste-sorted tail, yet deleting the
    # head separates them; the caste-interleaved state (2,2,1) is unreachable
    # under SBP dynamics, which is exactly why the reduction is restricted.
    ranked_1_over_2 = QueuePolicy.sbp(PriorityRanking.from_lists([[1], [2]]))
    p, q = (2, 1, 2), (2, 2, 1)
    assert q not in _sbp_reachable(ranked_1_over_2, (1, 2), 3)
    red = lumping(ranked_1_over_2, HQ, (1, 2))
    assert red(p) == red(q)
    assert red(delete(p, 2)) != red(delete(q, 2))


def test_ranking_validation():
    with pytest.raises(ValueError):
        PriorityRanking.from_lists([[1], [1, 2]])
    with pytest.raises(ValueError):
        PriorityRanking.from_lists([[]])
    with pytest.raises(ValueError):
        QueuePolicy("sbp")
    ranking = PriorityRanking.from_lists([[2], [1]])
    assert ranking.outranks(2, 1)
    assert not ranking.outranks(1, 2)
    assert not ranking.outranks(1, 1)
    assert ranking.is_total
    assert not PriorityRanking.from_lists([[1, 2]]).is_total
