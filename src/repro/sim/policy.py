"""Pluggable scheduling policies for the simulator's resource queues.

The paper's FTL uses *read-first scheduling* (Table II): pending host
reads are dispatched ahead of host writes, which in turn go ahead of
internal (GC / refresh) traffic.  That is one point in a design space —
alternative read paths and reclaim schemes (see ROADMAP.md) need the
dispatch policy to be a separate object from the pipeline staging, so it
lives here as a small strategy interface:

* a policy maps each op's *dispatch class* (:class:`IoPriority`) to the
  *resource queue* it waits in — collapsing classes into one queue gives
  plain FCFS, keeping them distinct gives strict priority;
* a policy may also pace chained internal (GC / refresh) traffic via
  :attr:`SchedulingPolicy.internal_gap_us`, the throttling knob.

Policies never suspend in-service operations: scheduling stays
non-preemptive exactly as in the paper (an in-flight 2.3 ms program
cannot be stopped), which is why slow MSB senses and programs inflate
read wait times — the queueing effect behind Sec. V-A's "indirect"
improvement.
"""

from __future__ import annotations

from .resources import IoPriority

__all__ = [
    "SchedulingPolicy",
    "ReadFirstPolicy",
    "FcfsPolicy",
    "ThrottledInternalPolicy",
    "POLICIES",
    "make_policy",
]


class SchedulingPolicy:
    """Strategy interface: where each dispatch class queues.

    Attributes:
        name: Registry / manifest identifier.
        internal_gap_us: Idle gap inserted between the ops of one chained
            internal (GC / refresh) sequence; ``0`` issues each op the
            instant its predecessor completes.
    """

    name: str = "base"
    internal_gap_us: float = 0.0

    def queue_class(self, klass: IoPriority) -> IoPriority:
        """Resource queue the given dispatch class waits in."""
        raise NotImplementedError


class ReadFirstPolicy(SchedulingPolicy):
    """The paper's Table II default: reads > writes > internal."""

    name = "read-first"

    def queue_class(self, klass: IoPriority) -> IoPriority:
        return klass


class FcfsPolicy(SchedulingPolicy):
    """Plain first-come-first-served: one queue, arrival order.

    Every dispatch class collapses into a single queue, so a host read
    arriving behind a queued program waits it out — the behaviour whose
    cost Table II's read-first scheduling exists to avoid.  Useful as the
    control arm when quantifying what read-first buys.
    """

    name = "fcfs"

    def queue_class(self, klass: IoPriority) -> IoPriority:
        return IoPriority.HOST_READ


class ThrottledInternalPolicy(SchedulingPolicy):
    """Read-first ordering plus rate-limited internal traffic.

    Chained GC / refresh sequences insert ``internal_gap_us`` of idle
    time between consecutive ops, so a refresh pass trickles into the
    die queues instead of saturating them back-to-back.  Priority alone
    cannot help a host read that arrives *while* an internal op is in
    service (scheduling is non-preemptive); spacing the internal ops
    bounds that exposure window.
    """

    name = "throttled"

    def __init__(self, internal_gap_us: float = 500.0) -> None:
        if internal_gap_us < 0:
            raise ValueError("internal_gap_us must be non-negative")
        self.internal_gap_us = internal_gap_us

    def queue_class(self, klass: IoPriority) -> IoPriority:
        return klass


#: Registry of selectable policies (CLI ``--policy`` / ``SystemSpec.policy``).
POLICIES: dict[str, type[SchedulingPolicy]] = {
    ReadFirstPolicy.name: ReadFirstPolicy,
    FcfsPolicy.name: FcfsPolicy,
    ThrottledInternalPolicy.name: ThrottledInternalPolicy,
}


def make_policy(spec: "SchedulingPolicy | str | None") -> SchedulingPolicy:
    """Resolve a policy instance from a name / instance / ``None``.

    ``None`` yields the paper's read-first default.  Unknown names raise
    ``ValueError`` listing the valid choices.
    """
    if spec is None:
        return ReadFirstPolicy()
    if isinstance(spec, SchedulingPolicy):
        return spec
    try:
        cls = POLICIES[spec]
    except KeyError:
        valid = ", ".join(sorted(POLICIES))
        raise ValueError(
            f"unknown scheduling policy {spec!r}; choose one of: {valid}"
        ) from None
    return cls()
