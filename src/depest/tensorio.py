"""Tensor files and model checkpoints in numpy's own layouts.

A tensor file is one float32 ``.npy`` file, stored in the array's own
memory order, so ``np.load`` opens it. A checkpoint is an uncompressed
zip in the layout ``np.savez`` writes: ``epoch.txt``, ``config.txt``
(the flat-text config snapshot) and one ``<name>.npy`` per state array,
written in name order under one fixed date, so writing the same state
twice produces byte-identical files. Readers parse headers with
``numpy.lib.format`` alone, never unpickle, accept float32 only, and
check the payload size a header declares before copying anything.
"""

from __future__ import annotations

import hashlib
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy

from .errors import FormatError

_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_HEADER_READERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}


def _write_npy(fh, arr) -> None:
    npy.write_array(fh, np.asarray(arr, dtype="<f4"), allow_pickle=False)


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        _write_npy(fh, arr)


def _read_npy(fh, size: int, label: str) -> np.ndarray:
    """The float32 array of an open ``.npy`` stream that holds ``size`` bytes in all."""
    try:
        version = npy.read_magic(fh)
        if version not in _HEADER_READERS:
            raise ValueError(f"unsupported .npy version {version}")
        shape, fortran_order, dtype = _HEADER_READERS[version](fh)
    except ValueError as exc:
        raise FormatError(f"{label}: {exc}") from exc
    if dtype != np.dtype("<f4"):
        raise FormatError(f"{label}: dtype {dtype}, expected little-endian float32")
    payload = size - fh.tell()
    if min(shape, default=0) < 0 or payload != 4 * math.prod(shape):
        raise FormatError(f"{label}: shape {shape} does not match the {payload} payload bytes present")
    arr = np.empty(shape[::-1] if fortran_order else shape, dtype="<f4")
    if fh.readinto(arr.reshape(-1)) != payload:
        raise FormatError(f"{label}: payload shorter than its {payload} bytes")
    return arr.T if fortran_order else arr


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return _read_npy(fh, os.fstat(fh.fileno()).st_size, str(path))


@dataclass
class Checkpoint:
    epoch: int
    config_text: str
    config_hash: str  # sha256 hex of config_text
    state: dict


def save_checkpoint(path, epoch: int, config_text: str, state: dict) -> None:
    """Epoch + config snapshot + named float32 arrays, name-sorted."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo("epoch.txt", _ZIP_DATE), f"{epoch}\n")
        zf.writestr(zipfile.ZipInfo("config.txt", _ZIP_DATE), config_text.encode())
        for name in sorted(state):
            with zf.open(zipfile.ZipInfo(f"{name}.npy", _ZIP_DATE), "w") as fh:
                _write_npy(fh, state[name])


def load_checkpoint(path) -> Checkpoint:
    state = {}
    try:
        with zipfile.ZipFile(path) as zf:
            # zipfile skips bytes before the first entry or after the end record
            zf.fp.seek(-zipfile.sizeEndCentDir - len(zf.comment), os.SEEK_END)
            if zf.fp.read(4) != zipfile.stringEndArchive or min((i.header_offset for i in zf.infolist()), default=0):
                raise FormatError(f"{path}: bytes before or after the checkpoint's zip")
            for info in zf.infolist():
                name = info.filename
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise FormatError(f"{path}: entry {name} is compressed or encrypted")
                if name.endswith(".npy"):
                    with zf.open(info) as fh:
                        state[name[:-4]] = _read_npy(fh, info.file_size, f"{path}:{name}")
                elif name not in ("epoch.txt", "config.txt"):
                    raise FormatError(f"{path}: unexpected checkpoint entry {name}")
            epoch, config_text = int(zf.read("epoch.txt")), zf.read("config.txt").decode()
    except (zipfile.BadZipFile, KeyError, EOFError, ValueError) as exc:  # ValueError: a bad epoch or undecodable text
        raise FormatError(f"{path}: not a readable checkpoint: {exc}") from exc
    config_hash = hashlib.sha256(config_text.encode()).hexdigest()
    return Checkpoint(epoch=epoch, config_text=config_text, config_hash=config_hash, state=state)
