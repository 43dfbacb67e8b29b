"""FTL substrate: mapping, allocation, GC, refresh, orchestration."""

from .allocation import StaticAllocator, cwdp_order, pdwc_order
from .blockstatus import BlockStatusTable
from .ftl import Ftl
from .gc import GcPolicy, select_victim
from .mapping import PageMap
from .ops import FlashTranslation, FtlCounters, OpKind, OpTable, PhysOp, WriteResult
from .recovery import MountReport, mount_device
from .refresh import (
    RefreshMode,
    RefreshPlan,
    RefreshPolicy,
    RefreshReport,
    plan_refresh,
)

__all__ = [
    "StaticAllocator",
    "cwdp_order",
    "pdwc_order",
    "BlockStatusTable",
    "FlashTranslation",
    "Ftl",
    "FtlCounters",
    "WriteResult",
    "GcPolicy",
    "select_victim",
    "PageMap",
    "MountReport",
    "mount_device",
    "OpKind",
    "OpTable",
    "PhysOp",
    "RefreshMode",
    "RefreshPlan",
    "RefreshPolicy",
    "RefreshReport",
    "plan_refresh",
]
