"""Scheduling policies for the simulator's resource queues.

The paper's FTL uses *read-first scheduling* (Table II): pending host
reads are dispatched ahead of host writes, which in turn go ahead of
internal (GC / refresh) traffic.  A policy is a name for a mapping from
each op's *dispatch class* (:class:`IoPriority`) to the *resource queue*
it waits in: keeping the classes distinct gives strict priority,
collapsing them into one queue gives plain FCFS.

Policies never suspend in-service operations: scheduling stays
non-preemptive exactly as in the paper (an in-flight 2.3 ms program
cannot be stopped), which is why slow MSB senses and programs inflate
read wait times — the queueing effect behind Sec. V-A's "indirect"
improvement.
"""

from __future__ import annotations

from .resources import IoPriority

__all__ = ["POLICIES", "queue_classes"]

#: Each selectable policy's resource queue per dispatch class, indexed
#: by :class:`IoPriority` (CLI ``--policy`` / ``SystemSpec.policy``).
POLICIES: dict[str, tuple[IoPriority, ...]] = {
    # The paper's Table II default: reads > writes > internal.
    "read-first": tuple(IoPriority),
    # One queue in arrival order: a host read arriving behind a queued
    # program waits it out, the cost read-first exists to avoid.  The
    # control arm when quantifying what read-first buys.
    "fcfs": (IoPriority.HOST_READ,) * len(IoPriority),
}


def queue_classes(policy: str) -> tuple[IoPriority, ...]:
    """The queue each dispatch class waits in under ``policy``.

    Unknown names raise ``ValueError`` listing the valid choices.
    """
    try:
        return POLICIES[policy]
    except KeyError:
        valid = ", ".join(sorted(POLICIES))
        raise ValueError(
            f"unknown scheduling policy {policy!r}; choose one of: {valid}"
        ) from None
