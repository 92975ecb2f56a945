"""Tensor files (.npy) and checkpoints (np.savez zip layout)."""

import hashlib
import io
import struct
import zipfile
import zlib

import numpy as np
import pytest
from numpy.lib import format as npy

from depest import tensorio
from depest.errors import FormatError
from depest.tensorio import load_checkpoint, read_tensor, save_checkpoint, write_tensor


def write_header(path, shape, payload: bytes, descr="<f4", version=(1, 0)):
    """A hand-made .npy file: the given header over the given payload bytes."""
    header = {"descr": descr, "fortran_order": False, "shape": shape}
    with open(path, "wb") as fh:
        (npy.write_array_header_1_0 if version == (1, 0) else npy.write_array_header_2_0)(fh, header)
        fh.write(payload)


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

    def test_np_load_reads_tensor_file(self, tmp_path, rng):
        arr = rng.normal(size=(2, 3)).astype(np.float32)
        path = tmp_path / "t.mft"
        write_tensor(path, arr)
        back = np.load(path, allow_pickle=False)
        assert back.dtype == np.dtype("<f4")
        np.testing.assert_array_equal(back, arr)

    def test_transposed_view_round_trips_fortran_ordered(self, tmp_path, rng):
        # a ClipSample's visual: a .T view of a C-contiguous [3, 72, T] buffer
        arr = rng.normal(size=(3, 72, 5)).astype(np.float32).T
        path = tmp_path / "t.mft"
        write_tensor(path, arr)
        back = read_tensor(path)
        np.testing.assert_array_equal(back, arr)
        assert back.flags.f_contiguous and not back.flags.c_contiguous
        np.testing.assert_array_equal(np.load(path), arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="bad.bin"):
            read_tensor(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        write_tensor(path, np.ones(3, dtype=np.float32))
        raw = bytearray(path.read_bytes())
        raw[6:8] = bytes([9, 0])  # the major/minor version after the magic string
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
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
        write_header(path, (2,) * 99, b"\x00" * 16)
        with pytest.raises(FormatError):
            read_tensor(path)

    @pytest.mark.parametrize("version", [(1, 0), (2, 0)])
    def test_forged_shape_rejected_before_allocating(self, tmp_path, monkeypatch, version):
        path = tmp_path / "bad.bin"
        write_header(path, (2**40,), b"\x00" * 12, version=version)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated before checking the payload size")

        monkeypatch.setattr(tensorio.np, "empty", no_alloc)
        with pytest.raises(FormatError, match=r"\(1099511627776,\)"):
            read_tensor(path)

    def test_negative_dimension_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        write_header(path, (-2, -3), b"\x00" * 24)
        with pytest.raises(FormatError):
            read_tensor(path)

    @pytest.mark.parametrize(
        "arr", [np.ones(3), np.ones(3, dtype=">f4"), np.array([{"a": 1}, None], dtype=object)], ids=["f8", "be-f4", "object"]
    )
    def test_other_dtypes_rejected(self, tmp_path, monkeypatch, arr):
        path = tmp_path / "t.npy"
        np.save(path, arr, allow_pickle=True)
        monkeypatch.setattr("pickle.load", lambda *a, **k: pytest.fail("unpickled"))
        with pytest.raises(FormatError, match="float32"):
            read_tensor(path)


def small_state(rng):
    return {
        "layer.weight": rng.normal(size=(4, 3)).astype(np.float32),
        "layer.bias": rng.normal(size=4).astype(np.float32),
        "bn.running_mean": rng.normal(size=3).astype(np.float32),
    }


def npy_bytes(arr) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def rewrite_zip(src, dst, compression=zipfile.ZIP_STORED, extra=None):
    """Copy a checkpoint's entries into a new zip, optionally compressed or with one more entry."""
    with zipfile.ZipFile(src) as zin, zipfile.ZipFile(dst, "w", compression) as zout:
        for info in zin.infolist():
            zout.writestr(info.filename, zin.read(info))
        if extra:
            zout.writestr(*extra)


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

    def test_np_load_reads_checkpoint_arrays_by_name(self, tmp_path, rng):
        state = small_state(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 5, "k=v\n", state)
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["epoch.txt", "config.txt"] + sorted(state)
            for name, arr in state.items():
                np.testing.assert_array_equal(npz[name], arr)
        with zipfile.ZipFile(path) as zf:
            assert zf.read("epoch.txt") == b"5\n" and zf.read("config.txt") == b"k=v\n"
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}

    def test_corrupted_config_digest_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "lr=0.5\n", small_state(rng))
        raw = bytearray(path.read_bytes())
        # flip one byte inside the config text region; zip's CRC-32 catches it
        pos = raw.index(b"lr=0.5")
        raw[pos] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="m.ckpt"):
            load_checkpoint(path)

    def test_corrupted_array_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "", {"w": np.full(4, 7.0, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        raw[raw.index(np.float32(7.0).tobytes())] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="CRC"):
            load_checkpoint(path)

    def test_entry_shorter_than_its_declared_size_rejected(self, tmp_path):
        # the central directory says 4 stored bytes fewer than the .npy's size, with a CRC-32 that matches them
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "", {"w": np.ones(4, dtype=np.float32)})
        raw = bytearray(path.read_bytes())
        entry = raw.rindex(b"PK\x01\x02")  # the last central-directory entry: w.npy
        stored = npy_bytes(np.ones(4, dtype=np.float32))[:-4]
        raw[entry + 16 : entry + 24] = struct.pack("<II", zlib.crc32(stored), len(stored))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="shorter"):
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

    @pytest.mark.parametrize("pad", [(b"", b"junk"), (b"junk", b""), (b"j", b"k")], ids=["appended", "prepended", "both"])
    def test_bytes_outside_the_zip_rejected(self, tmp_path, rng, pad):
        # zipfile itself reads past them, as it would a self-extracting archive
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "a=b\n", small_state(rng))
        path.write_bytes(pad[0] + path.read_bytes() + pad[1])
        with pytest.raises(FormatError, match="m.ckpt"):
            load_checkpoint(path)

    def test_empty_state_round_trips(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 0, "", {})
        ck = load_checkpoint(path)
        assert ck.state == {}
        assert ck.epoch == 0

    def test_deflated_entry_rejected(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "a=b\n", small_state(rng))
        rewrite_zip(path, tmp_path / "z.ckpt", compression=zipfile.ZIP_DEFLATED)
        with pytest.raises(FormatError, match="compressed"):
            load_checkpoint(tmp_path / "z.ckpt")

    def test_encrypted_entry_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "", {})
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"PK\x01\x02") + 8] |= 0x1  # the first central-directory entry's "encrypted" flag bit
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="encrypted"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [("notes.txt", "hi"), ("sub/", ""), ("data.pkl", b"\x80\x04N.")])
    def test_unexpected_entry_rejected(self, tmp_path, rng, extra):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "a=b\n", small_state(rng))
        rewrite_zip(path, tmp_path / "x.ckpt", extra=extra)
        with pytest.raises(FormatError, match="unexpected"):
            load_checkpoint(tmp_path / "x.ckpt")

    def test_float64_entry_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, 1, "", {})
        rewrite_zip(path, tmp_path / "f.ckpt", extra=("w.npy", npy_bytes(np.ones(2))))
        with pytest.raises(FormatError, match="w.npy"):
            load_checkpoint(tmp_path / "f.ckpt")

    @pytest.mark.parametrize("epoch", [b"", b"x\n", b"\xff\n"])
    def test_malformed_epoch_rejected(self, tmp_path, epoch):
        path = tmp_path / "m.ckpt"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("epoch.txt", epoch)
            zf.writestr("config.txt", "")
        with pytest.raises(FormatError):
            load_checkpoint(path)
