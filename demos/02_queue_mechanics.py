"""How a single station's buffer behaves: insertion under the three queue
policies, service allocations, and the lumped representations."""

from mcqnet import (
    PriorityRanking,
    QueuePolicy,
    ServiceAllocation,
    StationProtocol,
    allocate,
    delete,
    insert,
    is_subconfig,
)
from mcqnet.qprocess import station_canonicalizer

print("A buffer is an ordered class sequence; position 1 holds the server.")
print()

ranking = PriorityRanking.from_lists([[2], [1]])  # class 2 overtakes class 1
policies = {
    "fcfs": QueuePolicy.fcfs(),
    "lcfs": QueuePolicy.lcfs(),
    "sbp (2 over 1)": QueuePolicy.sbp(ranking),
}
buffer = (1, 2, 1)
print(f"inserting a class-2 job into {buffer}:")
for name, policy in policies.items():
    print(f"  {name:15s} -> {insert(policy, buffer, 2)}")
print("the in-service job is never preempted; same-class jobs never overtake.")
print()

print(f"delete removes the first matching digit: delete({buffer}, 1) = {delete(buffer, 1)}")
print(f"deleting an absent class is a no-op: delete({buffer}, 9) = {delete(buffer, 9)}")
print()

print("subsequence order (who is 'inside' whom):")
for small, big in [((1, 1), (1, 2, 1)), ((2, 1), (1, 2, 1)), ((1, 2), (2, 1))]:
    print(f"  {small} inside {big}? {is_subconfig(small, big)}")
print()

print("service allocations on buffer (1, 2, 1, 1):")
state = (1, 2, 1, 1)
for alloc in (
    ServiceAllocation.head_of_queue(),
    ServiceAllocation.egalitarian(),
    ServiceAllocation.proportional(),
    ServiceAllocation.preferential(ranking),
):
    shares = {k: round(w, 4) for k, w in allocate(alloc, state).items()}
    print(f"  {alloc.kind:13s} -> {shares}")
print()


def lumping(policy, allocation, classes):
    """Canonical form of the buffer of a station serving ``classes``."""
    return station_canonicalizer(classes, StationProtocol(policy, allocation))


print("lumped (canonical) buffers, as the exact engine and the coupling store them:")
hq = ServiceAllocation.head_of_queue()
single = lumping(QueuePolicy.fcfs(), hq, (1,))
print("  single class, (1,1,1)        ->", single((1, 1, 1)), "(the job count says it all)")
prop = lumping(QueuePolicy.fcfs(), ServiceAllocation.proportional(), (1, 2))
print("  proportional, (1,2,1)        ->", prop((1, 2, 1)), "(order is irrelevant)")
sbp = lumping(QueuePolicy.sbp(ranking), hq, (1, 2))
print("  sbp + head-of-queue, (1,1,2) ->", sbp((1, 1, 2)), "(head kept, tail caste-sorted)")
