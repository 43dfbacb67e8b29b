"""ECC substrate: the SEC-DED codec behind the bit-exact integrity checks."""

from .hamming import DecodeResult, DecodeStatus, HammingCodec

__all__ = [
    "DecodeResult",
    "DecodeStatus",
    "HammingCodec",
]
