"""Binary tensor and checkpoint file format."""

import hashlib
import struct

import numpy as np
import pytest

from depest.errors import FormatError
from depest.tensorio import (
    CHECKPOINT_MAGIC,
    TENSOR_MAGIC,
    load_checkpoint,
    read_tensor,
    save_checkpoint,
    write_tensor,
)


class TestTensorFiles:
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (2, 3, 4), (1, 1, 2, 2)])
    def test_round_trip_shapes(self, shape, tmp_path, rng):
        arr = rng.normal(size=shape).astype(np.float32)
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_float64_downcast_on_write(self, tmp_path):
        arr = np.array([1.5, 2.25, np.pi])
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, arr.astype(np.float32))

    def test_layout_is_fixed(self, tmp_path):
        # magic, version=1, rank=2, dims 2x3, then 6 little-endian floats
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        raw = path.read_bytes()
        assert raw[:4] == TENSOR_MAGIC
        assert struct.unpack("<II", raw[4:12]) == (1, 2)
        assert struct.unpack("<2Q", raw[12:28]) == (2, 3)
        np.testing.assert_array_equal(np.frombuffer(raw[28:], dtype="<f4"), arr.ravel())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(TENSOR_MAGIC + struct.pack("<II", 9, 0))
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        arr = np.ones((4, 4), dtype=np.float32)
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        clipped = path.read_bytes()[:-8]
        path.write_bytes(clipped)
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        arr = np.ones(3, dtype=np.float32)
        path = tmp_path / "t.bin"
        write_tensor(path, arr)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_tensor(path)

    def test_implausible_rank_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(TENSOR_MAGIC + struct.pack("<II", 1, 99))
        with pytest.raises(FormatError):
            read_tensor(path)


def small_state(rng):
    return {
        "layer.weight": rng.normal(size=(4, 3)).astype(np.float32),
        "layer.bias": rng.normal(size=4).astype(np.float32),
        "bn.running_mean": rng.normal(size=3).astype(np.float32),
    }


class TestCheckpoints:
    def test_round_trip(self, tmp_path, rng):
        state = small_state(rng)
        cfg_text = "lr=0.001\nseed=0\n"
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, epoch=17, config_text=cfg_text, state=state)
        ck = load_checkpoint(path)
        assert ck.epoch == 17
        assert ck.config_text == cfg_text
        assert ck.config_hash == hashlib.sha256(cfg_text.encode()).hexdigest()
        assert set(ck.state) == set(state)
        for name in state:
            np.testing.assert_array_equal(ck.state[name], state[name])

    def test_byte_identical_rewrites(self, tmp_path, rng):
        state = small_state(rng)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, 3, "x=1\n", state)
        save_checkpoint(p2, 3, "x=1\n", dict(reversed(list(state.items()))))
        assert p1.read_bytes() == p2.read_bytes()  # insertion order must not leak

    def test_header_layout(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 5, "k=v\n", {"w": np.zeros(2, dtype=np.float32)})
        raw = path.read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC
        assert struct.unpack("<II", raw[4:12]) == (1, 5)

    def test_corrupted_config_digest_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "lr=0.5\n", small_state(rng))
        raw = bytearray(path.read_bytes())
        # flip one byte inside the config text region
        pos = raw.index(b"lr=0.5")
        raw[pos] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"nope")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "a=b\n", small_state(rng))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_empty_state_round_trips(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 0, "", {})
        ck = load_checkpoint(path)
        assert ck.state == {}
        assert ck.epoch == 0
