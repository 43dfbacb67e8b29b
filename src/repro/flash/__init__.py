"""Flash device substrate: geometry, timing, blocks, error models."""

from .block import CONVENTIONAL_WL, TORN_WL, Block, PageState, SenseTable
from .errors import AdjustDisturbModel, RberModel, ReadRetryModel
from .geometry import Geometry
from .plane import PlanePool
from .timing import TimingSpec

__all__ = [
    "CONVENTIONAL_WL",
    "TORN_WL",
    "Block",
    "PageState",
    "SenseTable",
    "AdjustDisturbModel",
    "RberModel",
    "ReadRetryModel",
    "Geometry",
    "PlanePool",
    "TimingSpec",
]
