"""ECC substrate: SEC-DED codec, LDPC retry statistics, engine front-end."""

from .engine import EccEngine
from .hamming import DecodeResult, DecodeStatus, HammingCodec
from .ldpc import LdpcModel

__all__ = [
    "EccEngine",
    "DecodeResult",
    "DecodeStatus",
    "HammingCodec",
    "LdpcModel",
]
