"""Binary tensor files and model checkpoints.

Tensor files carry one float32 array: magic "MFTK", u32 version, u32
rank, u64 per-dimension sizes, then the little-endian row-major payload.
Checkpoints bundle an epoch counter, the flat-text config snapshot with
its sha256 digest, and the named parameter arrays sorted by name, so
writing the same state twice produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError

TENSOR_MAGIC = b"MFTK"
TENSOR_VERSION = 1
CHECKPOINT_MAGIC = b"MCKP"
CHECKPOINT_VERSION = 1


def _tensor_bytes(arr: np.ndarray) -> bytes:
    # ascontiguousarray would promote rank 0 to rank 1
    arr = np.asarray(arr, dtype="<f4", order="C")
    head = TENSOR_MAGIC + struct.pack("<II", TENSOR_VERSION, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + dims + arr.tobytes()


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(_tensor_bytes(arr))


class _Reader:
    def __init__(self, buf: bytes, label: str):
        self.buf = buf
        self.pos = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.label}: truncated (need {n} bytes at offset {self.pos})")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64s(self, n: int) -> tuple:
        return struct.unpack(f"<{n}Q", self.take(8 * n)) if n else ()

    def done(self) -> bool:
        return self.pos == len(self.buf)


def _parse_tensor(r: _Reader) -> np.ndarray:
    if r.take(4) != TENSOR_MAGIC:
        raise FormatError(f"{r.label}: bad tensor magic")
    version = r.u32()
    if version != TENSOR_VERSION:
        raise FormatError(f"{r.label}: unsupported tensor version {version}")
    rank = r.u32()
    if rank > 16:
        raise FormatError(f"{r.label}: implausible rank {rank}")
    dims = r.u64s(rank)
    count = 1
    for d in dims:
        count *= d
    payload = r.take(4 * count)
    return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), str(path))
    arr = _parse_tensor(r)
    if not r.done():
        raise FormatError(f"{path}: {len(r.buf) - r.pos} trailing bytes")
    return arr


@dataclass
class Checkpoint:
    epoch: int
    config_text: str
    config_hash: str  # sha256 hex of config_text
    state: dict


def save_checkpoint(path, epoch: int, config_text: str, state: dict) -> None:
    """Epoch + config snapshot + named float32 tensors, name-sorted."""
    cfg = config_text.encode()
    names = sorted(state)
    parts = [
        CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, epoch),
        hashlib.sha256(cfg).digest(),
        struct.pack("<I", len(cfg)) + cfg,
        struct.pack("<I", len(names)),
    ]
    for name in names:
        nb = name.encode()
        parts.append(struct.pack("<I", len(nb)) + nb)
        parts.append(_tensor_bytes(np.asarray(state[name])))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), str(path))
    if r.take(4) != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    epoch = r.u32()
    digest = r.take(32)
    cfg_len = r.u32()
    cfg_raw = r.take(cfg_len)
    if hashlib.sha256(cfg_raw).digest() != digest:
        raise FormatError(f"{path}: config snapshot does not match its stored digest")
    try:
        config_text = cfg_raw.decode()
        n = r.u32()
        state = {}
        for _ in range(n):
            name = r.take(r.u32()).decode()
            state[name] = _parse_tensor(r)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: undecodable text field") from exc
    if not r.done():
        raise FormatError(f"{path}: {len(r.buf) - r.pos} trailing bytes")
    return Checkpoint(epoch=epoch, config_text=config_text, config_hash=digest.hex(), state=state)
