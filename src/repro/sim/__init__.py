"""SSD simulator substrate: engine, resources, pipeline, policy, the SSD."""

from .drivers import run_closed_loop, run_open_loop
from .engine import SimEngine
from .metrics import LatencyStats, ReadMixCounters, SimMetrics
from .pipeline import (
    OpPipeline,
    OpPlan,
    OpRecord,
    RequestRecord,
    Stage,
    adjust_stages,
    erase_stages,
    read_stages,
    write_stages,
)
from .policy import POLICIES, queue_classes
from .resources import IoPriority, Resource
from .scheduler import HostRequest, RequestCompletion
from .ssd import SsdSimulator

__all__ = [
    "SimEngine",
    "LatencyStats",
    "ReadMixCounters",
    "SimMetrics",
    "run_open_loop",
    "run_closed_loop",
    "OpPipeline",
    "OpPlan",
    "OpRecord",
    "RequestRecord",
    "Stage",
    "read_stages",
    "write_stages",
    "adjust_stages",
    "erase_stages",
    "POLICIES",
    "queue_classes",
    "IoPriority",
    "Resource",
    "HostRequest",
    "RequestCompletion",
    "SsdSimulator",
]
