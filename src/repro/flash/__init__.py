"""Flash device substrate: geometry, timing, cells, blocks, error models."""

from .block import CONVENTIONAL_WL, TORN_WL, Block, PageState, SenseTable
from .cell import ERASED_STATE, WordlineCells
from .chip import CellChip
from .errors import AdjustDisturbModel, RberModel, ReadRetryModel
from .geometry import Geometry
from .ispp import IsppModel
from .plane import PlanePool
from .timing import TimingSpec
from .voltage import StateDistribution, VoltageModel

__all__ = [
    "CONVENTIONAL_WL",
    "TORN_WL",
    "Block",
    "PageState",
    "SenseTable",
    "ERASED_STATE",
    "WordlineCells",
    "CellChip",
    "AdjustDisturbModel",
    "RberModel",
    "ReadRetryModel",
    "Geometry",
    "IsppModel",
    "PlanePool",
    "TimingSpec",
    "StateDistribution",
    "VoltageModel",
]
