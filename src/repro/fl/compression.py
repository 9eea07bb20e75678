"""Wire-payload compression — an extension along the paper's future-work
axis ("maximizing the efficiency of multi-model fusion on edge devices").

FedKEMF already shrinks traffic structurally (only the knowledge network is
communicated); these codecs shrink it further at the representation level:

- ``fp16``: halve every float payload (lossy but benign for SGD updates);
- ``q8`` / ``q4``: per-tensor affine quantization to 8/4 bits with float32
  scale/offset sidecars (~4×/8× reduction).

A codec plugs into :class:`repro.fl.comm.Channel`; the meter then charges
the *compressed* wire bytes, so the ablation bench can quote honest totals.
Codecs are exactly inverse-free (lossy): ``decompress(compress(s))``
returns float32 approximations, with per-tensor max error bounded by the
quantization step.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Mapping

import numpy as np

from repro.utils.registry import Registry

__all__ = [
    "Codec",
    "IdentityCodec",
    "Float16Codec",
    "QuantizedCodec",
    "CODEC_REGISTRY",
    "make_codec",
]

_SCALE_SUFFIX = "::scale"
_MIN_SUFFIX = "::min"
_SHAPE_GUARD = "::q"


class Codec:
    """Stateless payload transcoder. Subclasses override both methods."""

    name = "identity"

    def compress(self, state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
        raise NotImplementedError

    def decompress(self, state: Mapping[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
        raise NotImplementedError


class IdentityCodec(Codec):
    """No-op codec (the default fp32 wire)."""

    name = "identity"

    def compress(self, state):
        return OrderedDict(state)

    def decompress(self, state):
        return OrderedDict(state)


class Float16Codec(Codec):
    """Cast float tensors to fp16 on the wire; restore to fp32 on receipt."""

    name = "fp16"

    def compress(self, state):
        out = OrderedDict()
        for k, v in state.items():
            v = np.asarray(v)
            out[k] = v.astype(np.float16) if v.dtype == np.float32 else v
        return out

    def decompress(self, state):
        out = OrderedDict()
        for k, v in state.items():
            v = np.asarray(v)
            out[k] = v.astype(np.float32) if v.dtype == np.float16 else v
        return out


class QuantizedCodec(Codec):
    """Per-tensor affine quantization to ``bits`` ∈ {2..8} packed in uint8.

    Each float32 tensor ``v`` becomes:

        q = round((v - min) / scale)  stored as uint8 (bit-packed below 8)
        plus two float32 sidecar scalars ``k::scale`` / ``k::min``.

    Non-float tensors (e.g. integer step counters) pass through unchanged.
    """

    def __init__(self, bits: int = 8) -> None:
        if not 2 <= bits <= 8:
            raise ValueError(f"bits must be in [2, 8]; got {bits}")
        self.bits = bits
        self.name = f"q{bits}"
        self._levels = (1 << bits) - 1

    # -- bit packing ---------------------------------------------------- #

    def _pack(self, q: np.ndarray) -> np.ndarray:
        if self.bits == 8:
            return q
        per_byte = 8 // self.bits
        pad = (-len(q)) % per_byte
        if pad:
            q = np.concatenate([q, np.zeros(pad, dtype=np.uint8)])
        q = q.reshape(-1, per_byte)
        out = np.zeros(len(q), dtype=np.uint8)
        for i in range(per_byte):
            out |= q[:, i] << (i * self.bits)
        return out

    def _unpack(self, packed: np.ndarray, n: int) -> np.ndarray:
        if self.bits == 8:
            return packed[:n]
        per_byte = 8 // self.bits
        mask = (1 << self.bits) - 1
        cols = [(packed >> (i * self.bits)) & mask for i in range(per_byte)]
        return np.stack(cols, axis=1).reshape(-1)[:n]

    # -- codec API ------------------------------------------------------ #

    def compress(self, state):
        out = OrderedDict()
        for k, v in state.items():
            v = np.asarray(v)
            if v.dtype != np.float32 or v.size == 0:
                out[k] = v
                continue
            lo = float(v.min())
            hi = float(v.max())
            scale = (hi - lo) / self._levels if hi > lo else 1.0
            q = np.clip(np.round((v.reshape(-1) - lo) / scale), 0, self._levels).astype(np.uint8)
            out[k + _SHAPE_GUARD] = np.asarray(v.shape, dtype=np.int64)
            out[k] = self._pack(q)
            out[k + _SCALE_SUFFIX] = np.float32(scale).reshape(1)
            out[k + _MIN_SUFFIX] = np.float32(lo).reshape(1)
        return out

    def decompress(self, state):
        out = OrderedDict()
        for k, v in state.items():
            if k.endswith((_SCALE_SUFFIX, _MIN_SUFFIX, _SHAPE_GUARD)):
                continue
            v = np.asarray(v)
            scale_key = k + _SCALE_SUFFIX
            if scale_key not in state:
                out[k] = v
                continue
            shape = tuple(int(s) for s in np.asarray(state[k + _SHAPE_GUARD]))
            n = math.prod(shape)
            q = self._unpack(v, n).astype(np.float32)
            scale = float(np.asarray(state[scale_key])[0])
            lo = float(np.asarray(state[k + _MIN_SUFFIX])[0])
            out[k] = (q * scale + lo).reshape(shape).astype(np.float32)
        return out

    def max_error(self) -> float:
        """Worst-case reconstruction error per unit of tensor range."""
        return 0.5 / self._levels


CODEC_REGISTRY: Registry[Codec] = Registry("codec")
CODEC_REGISTRY.add("identity", IdentityCodec())
CODEC_REGISTRY.add("none", CODEC_REGISTRY.get("identity"))
CODEC_REGISTRY.add("fp16", Float16Codec())
CODEC_REGISTRY.add("q8", QuantizedCodec(8))
CODEC_REGISTRY.add("q4", QuantizedCodec(4))


def make_codec(name: str | None) -> Codec:
    """Resolve a codec by name; ``None`` means the identity fp32 wire."""
    if name is None:
        return CODEC_REGISTRY.get("identity")
    return CODEC_REGISTRY.get(name)
