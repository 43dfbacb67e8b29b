"""SSD simulator substrate: engine, resources, pipeline, policy, the SSD."""

from .backends import (
    ENGINE_BACKENDS,
    BatchBackend,
    ExecutionBackend,
    ReferenceBackend,
    make_backend,
)
from .drivers import run_closed_loop, run_open_loop
from .engine import SimEngine
from .metrics import LatencyStats, ReadMixCounters, SimMetrics
from .pipeline import (
    OpPipeline,
    PageRecord,
    RequestSpan,
    Stage,
    adjust_stages,
    erase_stages,
    read_stages,
    write_stages,
)
from .policy import (
    POLICIES,
    FcfsPolicy,
    ReadFirstPolicy,
    SchedulingPolicy,
    ThrottledInternalPolicy,
    make_policy,
)
from .resources import IoPriority, Resource
from .scheduler import HostRequest, OutstandingRequest
from .ssd import SsdSimulator

__all__ = [
    "SimEngine",
    "LatencyStats",
    "ReadMixCounters",
    "SimMetrics",
    "run_open_loop",
    "run_closed_loop",
    "OpPipeline",
    "PageRecord",
    "RequestSpan",
    "Stage",
    "read_stages",
    "write_stages",
    "adjust_stages",
    "erase_stages",
    "ENGINE_BACKENDS",
    "ExecutionBackend",
    "ReferenceBackend",
    "BatchBackend",
    "make_backend",
    "POLICIES",
    "SchedulingPolicy",
    "ReadFirstPolicy",
    "FcfsPolicy",
    "ThrottledInternalPolicy",
    "make_policy",
    "IoPriority",
    "Resource",
    "HostRequest",
    "OutstandingRequest",
    "SsdSimulator",
]
