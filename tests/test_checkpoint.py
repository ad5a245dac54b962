"""Checkpoint format round-trip and corruption tests."""

import struct
import zlib

import numpy as np
import pytest

import lifthead.checkpoint as C
import lifthead.model as M
from lifthead.checkpoint import (ChecksumError, FormatError, load_checkpoint,
                                 read_tensors, save_checkpoint, write_tensors)
from lifthead.model import HeadConfig
from lifthead.training import AdamState


def tiny_cfg():
    return HeadConfig(L=1, h=2, d=8, n_patches=4, c_in=4, dropout=0.0)


def make_params(seed=0, dtype=np.float32):
    return M.init_head(tiny_cfg(), np.random.default_rng(seed), dtype=dtype)


class TestRawTensorIO:
    def test_round_trip_values_and_order(self, tmp_path):
        path = tmp_path / "t.ckpt"
        rng = np.random.default_rng(0)
        tensors = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b.nested.name": rng.standard_normal(7),
            "scalar": np.array(3.0),
        }
        write_tensors(path, tensors)
        back = read_tensors(path)
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert back[name].dtype == arr.dtype
            np.testing.assert_array_equal(back[name], arr)

    def test_float64_preserved_exactly(self, tmp_path):
        path = tmp_path / "t.ckpt"
        arr = np.random.default_rng(1).standard_normal((5, 5))
        write_tensors(path, {"x": arr})
        np.testing.assert_array_equal(read_tensors(path)["x"], arr)

    def test_rank_zero_tensor(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_tensors(path, {"step": np.array(41.0)})
        back = read_tensors(path)["step"]
        assert back.shape == () and back == 41.0

    def test_integer_dtype_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="dtype"):
            write_tensors(tmp_path / "t.ckpt", {"x": np.arange(3)})

    def test_empty_mapping_round_trips(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_tensors(path, {})
        assert read_tensors(path) == {}

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_tensors(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                             "step": np.array(7.0)})
        body = (b"LIFTCKPT" + struct.pack("<II", 2, 2)
                + struct.pack("<H", 1) + b"w" + struct.pack("<BQQB", 2, 2, 3, 0)
                + np.arange(6, dtype="<f4").tobytes()
                + struct.pack("<H", 4) + b"step" + struct.pack("<BB", 0, 1)
                + struct.pack("<d", 7.0))
        assert path.read_bytes() == body + struct.pack("<I", 0xEC244F34)
        assert zlib.crc32(body) == 0xEC244F34


class TestFailedWrite:
    """A write that fails leaves the previous file and no temporary file."""

    def _existing(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_tensors(path, {"x": np.ones(3, dtype=np.float32)})
        return path, path.read_bytes()

    def test_invalid_tensor_after_valid_ones(self, tmp_path):
        path, before = self._existing(tmp_path)
        with pytest.raises(FormatError, match="dtype"):
            write_tensors(path, {"a": np.zeros(4, dtype=np.float32),
                                 "b": np.arange(3)})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]

    def test_failure_while_writing(self, tmp_path, monkeypatch):
        path, before = self._existing(tmp_path)
        calls = []

        def failing_crc(buf, value=0):
            calls.append(len(calls))
            if len(calls) == 3:
                raise OSError("disk full")
            return zlib.crc32(buf, value)

        monkeypatch.setattr(C.zlib, "crc32", failing_crc)
        with pytest.raises(OSError, match="disk full"):
            write_tensors(path, {"a": np.zeros(4, dtype=np.float32)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]

    def test_failure_while_renaming(self, tmp_path, monkeypatch):
        path, before = self._existing(tmp_path)

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(C.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            write_tensors(path, {"a": np.zeros(4, dtype=np.float32)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]


class TestCorruption:
    def _write(self, tmp_path):
        path = tmp_path / "t.ckpt"
        write_tensors(path, {"x": np.ones((4, 4), dtype=np.float32)})
        return path

    @pytest.mark.parametrize("keep", [1, 8, 20, -1])
    def test_truncation_is_checksum_error(self, tmp_path, keep):
        path = self._write(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep] if keep > 0 else raw[:-1])
        with pytest.raises(ChecksumError):
            read_tensors(path)

    def test_flipped_byte_is_checksum_error(self, tmp_path):
        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="checksum"):
            read_tensors(path)

    def _with_crc(self, blob):
        return blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)

    def test_bad_magic_with_valid_crc(self, tmp_path):
        path = tmp_path / "t.ckpt"
        path.write_bytes(self._with_crc(b"NOTRIGHT" + struct.pack("<II", 1, 0)))
        with pytest.raises(FormatError, match="magic"):
            read_tensors(path)

    def test_unsupported_version(self, tmp_path):
        # version 1 held per-head attention projections; it is not read
        path = tmp_path / "t.ckpt"
        for version in (1, 3):
            path.write_bytes(self._with_crc(b"LIFTCKPT" + struct.pack("<II", version, 0)))
            with pytest.raises(FormatError, match="version"):
                read_tensors(path)

    def test_unknown_dtype_code(self, tmp_path):
        path = tmp_path / "t.ckpt"
        body = (b"LIFTCKPT" + struct.pack("<II", 1, 1)
                + struct.pack("<H", 1) + b"x"
                + struct.pack("<B", 0) + struct.pack("<B", 9))
        path.write_bytes(self._with_crc(body))
        with pytest.raises(FormatError, match="dtype"):
            read_tensors(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        body = b"LIFTCKPT" + struct.pack("<II", 1, 0) + b"junk"
        path.write_bytes(self._with_crc(body))
        with pytest.raises(FormatError, match="trailing"):
            read_tensors(path)


class TestModelCheckpoints:
    def test_params_round_trip_exact(self, tmp_path):
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        save_checkpoint(src, None, path)
        dst = make_params(seed=2)
        load_checkpoint(path, dst)
        for (na, a), (nb, b) in zip(src.named_parameters(), dst.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(a.data, b.data)

    def test_optimizer_state_round_trip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        state = AdamState.init(src)
        rng = np.random.default_rng(3)
        state.step = 17
        for name in state.m:
            state.m[name] = rng.standard_normal(state.m[name].shape).astype(np.float32)
            state.v[name] = rng.random(state.v[name].shape).astype(np.float32)
        save_checkpoint(src, state, path)

        dst = make_params(seed=2)
        dst_state = AdamState.init(dst)
        load_checkpoint(path, dst, dst_state)
        assert dst_state.step == 17
        for name in state.m:
            np.testing.assert_array_equal(dst_state.m[name], state.m[name])
            np.testing.assert_array_equal(dst_state.v[name], state.v[name])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        src = make_params(seed=1)
        state = AdamState.init(src)
        state.step = 3
        save_checkpoint(src, state, p1)
        dst = make_params(seed=4)
        dst_state = AdamState.init(dst)
        load_checkpoint(p1, dst, dst_state)
        save_checkpoint(dst, dst_state, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_tensor_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        tensors = {n: t.data for n, t in src.named_parameters()}
        del tensors["proj_beta.bias"]
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="proj_beta.bias"):
            load_checkpoint(path, make_params(seed=2))

    def test_shape_mismatch_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        tensors = {n: t.data for n, t in src.named_parameters()}
        tensors["templates.pos_enc"] = np.zeros((2, 8), dtype=np.float32)
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="templates.pos_enc"):
            load_checkpoint(path, make_params(seed=2))

    def test_unexpected_tensor_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        tensors = {n: t.data for n, t in src.named_parameters()}
        tensors["who.is.this"] = np.zeros(3, dtype=np.float32)
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="unexpected"):
            load_checkpoint(path, make_params(seed=2))

    def test_version_1_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(make_params(seed=1), None, path)
        raw = bytearray(path.read_bytes()[:-4])
        raw[8:12] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
        with pytest.raises(FormatError, match="version 1"):
            load_checkpoint(path, make_params(seed=2))

    def test_params_only_file_cannot_restore_optimizer(self, tmp_path):
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        save_checkpoint(src, None, path)
        dst = make_params(seed=2)
        with pytest.raises(FormatError, match="adam.step"):
            load_checkpoint(path, dst, AdamState.init(dst))
