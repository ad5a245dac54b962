"""Checkpoint format round-trip and corruption tests."""

import hashlib
import os
import re
import struct
import tempfile
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lifthead.checkpoint as C
import lifthead.model as M
import lifthead.workers as W
from lifthead.checkpoint import (ChecksumError, FormatError, load_checkpoint,
                                 read_tensors, save_checkpoint, write_tensors)
from lifthead.model import HeadConfig
from lifthead.training import AdamState


def tiny_cfg():
    return HeadConfig(L=1, h=2, d=8, n_patches=4, c_in=4, dropout=0.0)


def make_params(seed=0, dtype=np.float32):
    return M.init_head(tiny_cfg(), np.random.default_rng(seed), dtype=dtype)


# (name, shape) of every parameter of a tiny-sized head, in walk order: the
# order of the Adam arena and of every checkpoint
TINY_LAYOUT = """\
templates.input_proj.weight 32x32
templates.input_proj.bias 32
templates.pos_enc 16x32
templates.joint_emb 24x32
templates.type_emb 3x32
blocks.0.mha_2d.q.weight 32x32
blocks.0.mha_2d.q.bias 32
blocks.0.mha_2d.k.weight 32x32
blocks.0.mha_2d.k.bias 32
blocks.0.mha_2d.v.weight 32x32
blocks.0.mha_2d.v.bias 32
blocks.0.mha_2d.out.weight 32x32
blocks.0.mha_2d.out.bias 32
blocks.0.ln_2d.gamma 32
blocks.0.ln_2d.beta 32
blocks.0.ffn_2d.layers.0.weight 32x32
blocks.0.ffn_2d.layers.0.bias 32
blocks.0.ffn_2d.layers.1.weight 32x32
blocks.0.ffn_2d.layers.1.bias 32
blocks.0.ffn_2d.layers.2.weight 32x32
blocks.0.ffn_2d.layers.2.bias 32
blocks.0.mha_3d.q.weight 32x32
blocks.0.mha_3d.q.bias 32
blocks.0.mha_3d.k.weight 32x32
blocks.0.mha_3d.k.bias 32
blocks.0.mha_3d.v.weight 32x32
blocks.0.mha_3d.v.bias 32
blocks.0.mha_3d.out.weight 32x32
blocks.0.mha_3d.out.bias 32
blocks.0.ln_3d.gamma 32
blocks.0.ln_3d.beta 32
blocks.0.mha_cross.q.weight 32x32
blocks.0.mha_cross.q.bias 32
blocks.0.mha_cross.k.weight 32x32
blocks.0.mha_cross.k.bias 32
blocks.0.mha_cross.v.weight 32x32
blocks.0.mha_cross.v.bias 32
blocks.0.mha_cross.out.weight 32x32
blocks.0.mha_cross.out.bias 32
blocks.0.ln_cross.gamma 32
blocks.0.ln_cross.beta 32
blocks.0.ffn_3d.layers.0.weight 32x32
blocks.0.ffn_3d.layers.0.bias 32
blocks.0.ffn_3d.layers.1.weight 32x32
blocks.0.ffn_3d.layers.1.bias 32
blocks.0.ffn_3d.layers.2.weight 32x32
blocks.0.ffn_3d.layers.2.bias 32
blocks.1.mha_2d.q.weight 32x32
blocks.1.mha_2d.q.bias 32
blocks.1.mha_2d.k.weight 32x32
blocks.1.mha_2d.k.bias 32
blocks.1.mha_2d.v.weight 32x32
blocks.1.mha_2d.v.bias 32
blocks.1.mha_2d.out.weight 32x32
blocks.1.mha_2d.out.bias 32
blocks.1.ln_2d.gamma 32
blocks.1.ln_2d.beta 32
blocks.1.ffn_2d.layers.0.weight 32x32
blocks.1.ffn_2d.layers.0.bias 32
blocks.1.ffn_2d.layers.1.weight 32x32
blocks.1.ffn_2d.layers.1.bias 32
blocks.1.ffn_2d.layers.2.weight 32x32
blocks.1.ffn_2d.layers.2.bias 32
blocks.1.mha_3d.q.weight 32x32
blocks.1.mha_3d.q.bias 32
blocks.1.mha_3d.k.weight 32x32
blocks.1.mha_3d.k.bias 32
blocks.1.mha_3d.v.weight 32x32
blocks.1.mha_3d.v.bias 32
blocks.1.mha_3d.out.weight 32x32
blocks.1.mha_3d.out.bias 32
blocks.1.ln_3d.gamma 32
blocks.1.ln_3d.beta 32
blocks.1.mha_cross.q.weight 32x32
blocks.1.mha_cross.q.bias 32
blocks.1.mha_cross.k.weight 32x32
blocks.1.mha_cross.k.bias 32
blocks.1.mha_cross.v.weight 32x32
blocks.1.mha_cross.v.bias 32
blocks.1.mha_cross.out.weight 32x32
blocks.1.mha_cross.out.bias 32
blocks.1.ln_cross.gamma 32
blocks.1.ln_cross.beta 32
blocks.1.ffn_3d.layers.0.weight 32x32
blocks.1.ffn_3d.layers.0.bias 32
blocks.1.ffn_3d.layers.1.weight 32x32
blocks.1.ffn_3d.layers.1.bias 32
blocks.1.ffn_3d.layers.2.weight 32x32
blocks.1.ffn_3d.layers.2.bias 32
proj_kpt.weight 32x3
proj_kpt.bias 3
proj_twist.weight 32x2
proj_twist.bias 2
proj_beta.weight 32x10
proj_beta.bias 10
"""


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

    def test_arrays_are_read_only_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "t.ckpt"
        rng = np.random.default_rng(0)
        write_tensors(path, {"a": rng.standard_normal((3, 4)).astype(np.float32),
                             "b": rng.standard_normal(7), "step": np.array(2.0)})
        back = list(read_tensors(path).values())
        assert len({id(arr.base) for arr in back}) == 1
        assert not any(arr.flags.owndata or arr.flags.writeable for arr in back)

    def test_integer_dtype_rejected(self, tmp_path):
        with pytest.raises(FormatError, match="dtype"):
            write_tensors(tmp_path / "t.ckpt", {"x": np.arange(3)})

    def test_name_length_limit_is_u16(self, tmp_path):
        longest = "n" * 0xFFFF
        write_tensors(tmp_path / "t.ckpt", {longest: np.zeros(1)})
        assert list(read_tensors(tmp_path / "t.ckpt")) == [longest]
        with pytest.raises(FormatError, match="too long"):
            write_tensors(tmp_path / "u.ckpt", {longest + "n": np.zeros(1)})

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
        crc32 = zlib.crc32

        def failing_crc(buf, value=0):
            if len(calls) == 2:
                raise OSError("disk full")
            calls.append((bytes(buf), value, crc32(buf, value)))
            return calls[-1][2]

        monkeypatch.setattr(C.zlib, "crc32", failing_crc)
        with pytest.raises(OSError, match="disk full"):
            write_tensors(path, {"a": np.zeros(4, dtype=np.float32)})
        monkeypatch.undo()
        # the two calls before the failure chained real CRCs over the buffers
        assert len(calls) == 2 and calls[0][1] == 0 and calls[1][1] == calls[0][2]
        assert calls[1][2] == zlib.crc32(calls[0][0] + calls[1][0])
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


def record_pooled(monkeypatch):
    """Patch workers.run_all to append whether each call's work is pooled
    to the list it returns."""
    pooled = []
    run_all = W.run_all
    monkeypatch.setattr(W, "run_all", lambda fns, nbytes: pooled.append(W.pooled(nbytes))
                        or run_all(fns, nbytes))
    return pooled


def usable_cpus(monkeypatch, cpus):
    """Patch workers.CPUS; with one CPU, yield and check no pool was started."""
    monkeypatch.setattr(W, "CPUS", cpus)
    if cpus == 1:
        monkeypatch.setattr(W, "_pool", None)
    yield
    if W.CPUS == 1:  # unless the test undid the patch
        assert W._pool is None


class TestCrcWorker:
    """A payload of workers.POOL_BYTES or more has its CRC32 computed on a
    pool thread while the caller writes the file."""

    CPUS = 2

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        yield from usable_cpus(monkeypatch, self.CPUS)

    def _large(self):
        rng = np.random.default_rng(0)
        n = W.POOL_BYTES // 8
        return {"a": rng.standard_normal(n).astype(np.float32),
                "b.c": rng.standard_normal((3, 5)),
                "d": rng.standard_normal(n + 1).astype(np.float32)}

    def test_worker_path_writes_the_inline_bytes(self, tmp_path, monkeypatch):
        tensors = self._large()
        assert sum(a.nbytes for a in tensors.values()) >= W.POOL_BYTES
        pooled = record_pooled(monkeypatch)
        write_tensors(tmp_path / "worker.ckpt", tensors)
        monkeypatch.setattr(W, "POOL_BYTES", 1 << 62)
        write_tensors(tmp_path / "inline.ckpt", tensors)
        assert pooled == [self.CPUS > 1, False]
        raw = (tmp_path / "worker.ckpt").read_bytes()
        assert raw == (tmp_path / "inline.ckpt").read_bytes()
        assert struct.unpack("<I", raw[-4:])[0] == zlib.crc32(raw[:-4])
        for name, arr in read_tensors(tmp_path / "worker.ckpt").items():
            np.testing.assert_array_equal(arr, tensors[name])

    def test_failure_mid_file_joins_the_worker(self, tmp_path, monkeypatch):
        path = tmp_path / "t.ckpt"
        tensors = self._large()
        write_tensors(path, tensors)  # starts the pool, if nothing had
        before = path.read_bytes()
        threads = threading.active_count()
        crc_calls = []
        crc32 = zlib.crc32

        def slow_crc(buf, value=0):
            time.sleep(0.01)
            crc_calls.append(len(buf))
            return crc32(buf, value)

        class FailingFile:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, buf):
                self.writes += 1
                if self.writes == 3:
                    raise OSError("disk full")
                return self.f.write(buf)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(C.zlib, "crc32", slow_crc)
        monkeypatch.setattr(C, "open", lambda p, mode: FailingFile(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_tensors(path, {"x": np.ones(3, dtype=np.float32), **tensors})
        # with a pool thread every buffer was checksummed before the error
        # surfaced; run in order on one CPU, the CRC32 never started
        assert len(crc_calls) == (2 * (len(tensors) + 1) + 1 if self.CPUS > 1 else 0)
        assert self.CPUS > 1 or W._pool is None
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]
        assert threading.active_count() == threads


class TestCrcWorkerOneCpu(TestCrcWorker):
    """The same writes with one usable CPU: workers.run_all writes, then
    computes the CRC32, on the caller, and starts no pool."""

    CPUS = 1


def finishes(fn, timeout=30.0):
    """fn()'s exception (None if it returned), run on a daemon thread that
    must end within timeout seconds: a hang fails the test, not the run."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as e:  # noqa: BLE001 - handed to the test
            raised.append(e)
        else:
            raised.append(None)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "read_tensors did not return"
    return raised[0]


class TestCrcWorkerRead:
    """A file of workers.POOL_BYTES or more is read in READ_SLICE slices
    while a pool thread computes the CRC32 of each slice as it lands."""

    SLICE = 1 << 20
    CPUS = 2

    @pytest.fixture(autouse=True)
    def cpus_and_slices(self, monkeypatch):
        monkeypatch.setattr(C, "READ_SLICE", self.SLICE)
        yield from usable_cpus(monkeypatch, self.CPUS)

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "t.ckpt"
        rng = np.random.default_rng(1)
        n = 1 << 20
        write_tensors(path, {"a": rng.standard_normal(n).astype(np.float32),
                             "b.c": rng.standard_normal((3, 5)),
                             "d": rng.standard_normal(n + 7)})  # starts the pool
        assert path.stat().st_size > max(4 * self.SLICE, W.POOL_BYTES)
        return path

    def test_arrays_equal_the_inline_read_as_read_only_views_of_one_buffer(
            self, path, monkeypatch):
        pooled = record_pooled(monkeypatch)
        worker = read_tensors(path)
        monkeypatch.setattr(W, "POOL_BYTES", 1 << 62)
        inline = read_tensors(path)
        assert pooled == [self.CPUS > 1, False]
        assert list(worker) == list(inline)
        for name, arr in worker.items():
            assert arr.dtype == inline[name].dtype and arr.shape == inline[name].shape
            assert arr.tobytes() == inline[name].tobytes()
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flags.writeable = True
        assert len({id(arr.base) for arr in worker.values()}) == 1

    @pytest.mark.parametrize("where", ["first", "middle", "last", "trailer"])
    def test_flipped_byte_in_any_slice_is_checksum_error(self, path, where):
        raw = bytearray(path.read_bytes())
        at = {"first": 100, "middle": len(raw) // 2 + 3, "last": len(raw) - 9,
              "trailer": len(raw) - 2}[where]
        raw[at] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError, match="checksum"):
            read_tensors(path)

    def test_file_truncated_after_stat_is_an_error(self, path, monkeypatch):
        threads = threading.active_count()
        fstat = os.fstat

        def fstat_then_truncate(fd):
            st = fstat(fd)
            os.truncate(path, st.st_size - self.SLICE - 5)
            return st

        monkeypatch.setattr(C.os, "fstat", fstat_then_truncate)
        err = finishes(lambda: read_tensors(path))
        assert isinstance(err, ChecksumError) and "ended at byte" in str(err)
        assert threading.active_count() == threads

    def test_read_error_propagates_and_joins_the_crc_thread(self, path, monkeypatch):
        threads = threading.active_count()
        crc_calls = []
        crc32 = zlib.crc32

        def slow_crc(buf, value=0):
            time.sleep(0.01)
            crc_calls.append(len(buf))
            return crc32(buf, value)

        class FailingFile:
            def __init__(self, f):
                self.f, self.reads = f, 0

            def fileno(self):
                return self.f.fileno()

            def readinto(self, buf):
                self.reads += 1
                if self.reads == 3:
                    raise OSError("read failed")
                return self.f.readinto(buf)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(C.zlib, "crc32", slow_crc)
        monkeypatch.setattr(C, "open", lambda p, mode: FailingFile(open(p, mode)),
                            raising=False)
        err = finishes(lambda: read_tensors(path))
        assert isinstance(err, OSError) and str(err) == "read failed"
        # the two slices read before the failure were checksummed, no more;
        # run in order on one CPU, the CRC32 never started
        assert crc_calls == ([self.SLICE, self.SLICE] if self.CPUS > 1 else [])
        assert threading.active_count() == threads


class TestCrcWorkerReadOneCpu(TestCrcWorkerRead):
    """The same reads with one usable CPU: workers.run_all reads every slice
    into the queue, then chains the CRC32 over them, on the caller, and
    starts no pool."""

    CPUS = 1


class TestPoolGate:
    """With two usable CPUs, a checkpoint just under workers.POOL_BYTES is
    written and read on the caller alone, starting no pool, and one at the
    gate has its CRC32 computed on a pool thread both ways."""

    @pytest.fixture(autouse=True)
    def two_cpus_no_pool(self, monkeypatch):
        monkeypatch.setattr(W, "CPUS", 2)
        monkeypatch.setattr(W, "_pool", None)
        yield
        if W._pool is not None:
            W._pool.shutdown(wait=True)

    @staticmethod
    def crc_threads(monkeypatch):
        threads = []
        crc32 = zlib.crc32
        monkeypatch.setattr(C.zlib, "crc32", lambda buf, value=0: threads.append(
            threading.get_ident()) or crc32(buf, value))
        return threads

    def round_trip(self, path, payload, monkeypatch):
        tensors = {"a": np.arange(payload // 4, dtype=np.float32)}
        threads = self.crc_threads(monkeypatch)
        write_tensors(path, tensors)
        wrote = set(threads)
        threads.clear()
        np.testing.assert_array_equal(read_tensors(path)["a"], tensors["a"])
        return wrote, set(threads)

    def test_just_under_the_gate_starts_no_pool(self, tmp_path, monkeypatch):
        path = tmp_path / "t.ckpt"
        me = {threading.get_ident()}
        assert self.round_trip(path, W.POOL_BYTES - 64, monkeypatch) == (me, me)
        assert path.stat().st_size < W.POOL_BYTES
        assert W._pool is None

    def test_at_the_gate_uses_the_pool(self, tmp_path, monkeypatch):
        wrote, read = self.round_trip(tmp_path / "t.ckpt", W.POOL_BYTES, monkeypatch)
        assert W._pool is not None
        assert threading.get_ident() not in wrote | read and len(wrote) == len(read) == 1


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

    def test_small_file_truncated_after_stat_is_checksum_error(self, tmp_path, monkeypatch):
        path = self._write(tmp_path)
        fstat = os.fstat

        def fstat_then_truncate(fd):
            st = fstat(fd)
            os.truncate(path, st.st_size - 5)
            return st

        monkeypatch.setattr(C.os, "fstat", fstat_then_truncate)
        with pytest.raises(ChecksumError, match="ended at byte"):
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
        body = (b"LIFTCKPT" + struct.pack("<II", 2, 1)
                + struct.pack("<H", 1) + b"x"
                + struct.pack("<B", 0) + struct.pack("<B", 9))
        path.write_bytes(self._with_crc(body))
        with pytest.raises(FormatError, match="unknown dtype code 9"):
            read_tensors(path)

    def test_duplicate_name_with_valid_crc(self, tmp_path):
        path = tmp_path / "t.ckpt"
        records = b"".join(struct.pack("<H", 1) + b"x" + struct.pack("<BQB", 1, 2, 0)
                           + np.array(values, dtype="<f4").tobytes()
                           for values in ([1.0, 2.0], [3.0, 4.0]))
        path.write_bytes(self._with_crc(b"LIFTCKPT" + struct.pack("<II", 2, 2) + records))
        with pytest.raises(FormatError, match="duplicate tensor x"):
            read_tensors(path)

    @pytest.mark.parametrize("complete", [0, 1])
    def test_count_past_the_end_with_valid_crc(self, tmp_path, complete):
        # the count promises one tensor more than the file holds
        path = tmp_path / "t.ckpt"
        record = struct.pack("<H", 1) + b"x" + struct.pack("<BB", 0, 0) + b"\0" * 4
        path.write_bytes(self._with_crc(b"LIFTCKPT" + struct.pack("<II", 2, complete + 1)
                                        + record * complete))
        with pytest.raises(FormatError, match="past the end"):
            read_tensors(path)

    def test_non_utf8_name_with_valid_crc(self, tmp_path):
        path = tmp_path / "t.ckpt"
        body = (b"LIFTCKPT" + struct.pack("<II", 2, 1) + struct.pack("<H", 2) + b"\xff\xfe"
                + struct.pack("<BB", 0, 0) + b"\0" * 4)
        path.write_bytes(self._with_crc(body))
        with pytest.raises(FormatError, match="malformed tensor header"):
            read_tensors(path)

    def test_trailing_garbage_detected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        body = b"LIFTCKPT" + struct.pack("<II", 2, 0) + b"junk"
        path.write_bytes(self._with_crc(body))
        with pytest.raises(FormatError, match="4 trailing bytes"):
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
        state = AdamState.init(src.named_parameters())
        rng = np.random.default_rng(3)
        state.step = 17
        state.m_flat[:] = rng.standard_normal(state.m_flat.shape)
        state.v_flat[:] = rng.random(state.v_flat.shape)
        save_checkpoint(src, state, path)
        # the file holds the moments Adam updates, named per parameter
        saved = read_tensors(path)
        for key, flat in (("m", state.m_flat), ("v", state.v_flat)):
            np.testing.assert_array_equal(np.concatenate(
                [saved[f"adam.{key}.{n}"].reshape(-1) for n, _ in src.named_parameters()]), flat)

        dst = make_params(seed=2)
        dst_state = AdamState.init(dst.named_parameters())
        load_checkpoint(path, dst, dst_state)
        assert dst_state.step == 17
        np.testing.assert_array_equal(dst_state.m_flat, state.m_flat)
        np.testing.assert_array_equal(dst_state.v_flat, state.v_flat)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        src = make_params(seed=1)
        state = AdamState.init(src.named_parameters())
        state.step = 3
        save_checkpoint(src, state, p1)
        dst = make_params(seed=4)
        dst_state = AdamState.init(dst.named_parameters())
        load_checkpoint(p1, dst, dst_state)
        save_checkpoint(dst, dst_state, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_writes_into_the_existing_arrays(self, tmp_path):
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        save_checkpoint(src, None, path)
        dst = make_params(seed=2)
        before = [t.data for _, t in dst.named_parameters()]
        load_checkpoint(path, dst)
        for arr, (_, t), (_, want) in zip(before, dst.named_parameters(),
                                          src.named_parameters()):
            assert t.data is arr
            np.testing.assert_array_equal(arr, want.data)

    @staticmethod
    def _saved_with_state():
        """The name -> array layout of a model and an Adam state at step 5."""
        src = make_params(seed=1)
        src_state = AdamState.init(src.named_parameters())
        src_state.step = 5
        src_state.m_flat[:] = 1.0
        return C._named_arrays(src, src_state), src

    @staticmethod
    def _load_fails_and_changes_nothing(path, tensors, match):
        write_tensors(path, tensors)
        dst = make_params(seed=2)
        dst_state = AdamState.init(dst.named_parameters())
        dst_state.step = 3
        flats = ("arena", "m_flat", "v_flat")
        before = {name: getattr(dst_state, name).copy() for name in flats}
        with pytest.raises(FormatError, match=re.escape(match)):
            load_checkpoint(path, dst, dst_state)
        for name in flats:
            np.testing.assert_array_equal(getattr(dst_state, name), before[name])
        assert dst_state.step == 3

    def test_failed_load_changes_nothing(self, tmp_path):
        tensors, src = self._saved_with_state()
        last, _ = list(src.named_parameters())[-1]
        del tensors[last]
        self._load_fails_and_changes_nothing(tmp_path / "m.ckpt", tensors, last)

    @pytest.mark.parametrize("extra", ["adam.m.no.such.param", "adam.bogus"])
    def test_unknown_adam_entry_changes_nothing(self, tmp_path, extra):
        # with a state, every adam.* entry must be one the state holds
        tensors, _ = self._saved_with_state()
        tensors[extra] = np.ones(3, np.float32)
        self._load_fails_and_changes_nothing(tmp_path / "m.ckpt", tensors, extra)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, 2.5, 1e30, 2.0 ** 63])
    def test_bad_adam_step_changes_nothing(self, tmp_path, bad):
        # a CRC-valid file whose step is not a whole number in [0, 2**63)
        tensors, _ = self._saved_with_state()
        tensors["adam.step"] = np.array(bad)
        self._load_fails_and_changes_nothing(tmp_path / "m.ckpt", tensors, "adam.step")

    @pytest.mark.parametrize("good", [0.0, 2.0 ** 63 - 1024])
    def test_whole_adam_step_in_range_loads(self, tmp_path, good):
        # 2**63 - 1024 is the largest float64 under 2**63
        path = tmp_path / "m.ckpt"
        src = make_params(seed=1)
        tensors = C._named_arrays(src, AdamState.init(src.named_parameters()))
        tensors["adam.step"] = np.array(good)
        write_tensors(path, tensors)
        dst = make_params(seed=2)
        dst_state = AdamState.init(dst.named_parameters())
        dst_state.step = 3
        load_checkpoint(path, dst, dst_state)
        assert dst_state.step == int(good)

    def test_missing_tensor_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tensors = C._named_arrays(make_params(seed=1), None)
        del tensors["proj_beta.bias"]
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="missing tensor proj_beta.bias"):
            load_checkpoint(path, make_params(seed=2))

    def test_shape_mismatch_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tensors = C._named_arrays(make_params(seed=1), None)
        tensors["templates.pos_enc"] = np.zeros((2, 8), dtype=np.float32)
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match="tensor templates.pos_enc has shape"):
            load_checkpoint(path, make_params(seed=2))

    def test_unexpected_tensor_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        tensors = C._named_arrays(make_params(seed=1), None)
        tensors["who.is.this"] = np.zeros(3, dtype=np.float32)
        write_tensors(path, tensors)
        with pytest.raises(FormatError, match=re.escape("unexpected tensors ['who.is.this']")):
            load_checkpoint(path, make_params(seed=2))

    def test_head_counts_are_stated_in_walk_order(self, tmp_path):
        """Each attention's h follows its output projection's bias."""
        path = tmp_path / "m.ckpt"
        src = M.init_head(HeadConfig(L=2, h=4, d=8, n_patches=4, c_in=4),
                          np.random.default_rng(0))
        save_checkpoint(src, None, path)
        saved = read_tensors(path)
        heads = [f"blocks.{i}.{m}.h" for i in range(2) for m in ("mha_2d", "mha_3d", "mha_cross")]
        assert [n for n in saved if n not in heads] == [n for n, _ in src.named_parameters()]
        for name in heads:
            assert list(saved)[list(saved).index(name) - 1] == name[:-1] + "out.bias"
            assert (saved[name].shape, saved[name].dtype, saved[name][()]) == ((), np.float64, 4.0)

    @pytest.mark.parametrize("name", ["blocks.0.mha_2d.h", "blocks.0.mha_3d.h",
                                      "blocks.0.mha_cross.h"])
    @pytest.mark.parametrize("h", [1.0, 4.0, 2.5, np.nan, None])
    def test_other_or_missing_head_count_changes_nothing(self, tmp_path, name, h):
        """h sets no shape: each stated head count must equal the head's 2,
        and a file without one (written before they were stated) is rejected."""
        tensors, _ = self._saved_with_state()
        if h is None:
            del tensors[name]
            match = f"missing tensor {name}"
        else:
            tensors[name] = np.array(h)
            match = f"{name} is {h:g}, the head has 2"
        self._load_fails_and_changes_nothing(tmp_path / "m.ckpt", tensors, match)

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
            load_checkpoint(path, dst, AdamState.init(dst.named_parameters()))


class TestGoldenLayout:
    """Pinned parameter walk and checkpoint bytes: a reordered walk changes
    the Adam arena layout and the byte order of every checkpoint."""

    def params(self):
        cfg = HeadConfig(L=2, h=2, d=32, n_patches=16, c_in=32, dropout=0.0)
        return M.init_head(cfg, np.random.default_rng(0))

    def test_names_and_shapes(self):
        got = "".join(f"{name} {'x'.join(map(str, t.shape))}\n"
                      for name, t in self.params().named_parameters())
        assert got == TINY_LAYOUT

    def test_checkpoint_bytes(self, tmp_path):
        params = self.params()
        save_checkpoint(params, None, tmp_path / "p.ckpt")
        save_checkpoint(params, AdamState.init(params.named_parameters()), tmp_path / "a.ckpt")
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("p.ckpt", "a.ckpt")]
        assert digests == [
            "7be725ab3a7d4bcb58bddf09abc406a6499a65d8cea7241370865b115137ea24",
            "68c69f77e124eb868c60e9e07f2d52a4284474abebc3394dfefb624e16572a9c"]


tensor_maps = st.dictionaries(
    st.text(max_size=12),
    hnp.arrays(st.sampled_from([np.dtype(np.float32), np.dtype(np.float64)]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
    max_size=4)


class TestFormatFuzz:
    @settings(max_examples=80, deadline=None)
    @given(tensors=tensor_maps, data=st.data())
    def test_round_trip_exact_and_any_damage_detected(self, tensors, data):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.ckpt")
            write_tensors(path, tensors)
            back = read_tensors(path)
            assert list(back) == list(tensors)
            for name, arr in tensors.items():
                assert (back[name].dtype, back[name].shape) == (arr.dtype, arr.shape)
                assert back[name].tobytes() == arr.tobytes()
            with open(path, "rb") as f:
                raw = f.read()
            bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
            flipped = bytearray(raw)
            flipped[bit // 8] ^= 1 << (bit % 8)
            keep = data.draw(st.integers(0, len(raw) - 1), label="keep")
            for damaged in (bytes(flipped), raw[:keep]):
                with open(path, "wb") as f:
                    f.write(damaged)
                with pytest.raises(ChecksumError):
                    read_tensors(path)

    @settings(max_examples=150, deadline=None)
    @given(tensors=tensor_maps, data=st.data())
    def test_crc_valid_damage_parses_or_is_a_format_error(self, tensors, data):
        """Bytes overwritten after the magic, or a body cut short, under a
        recomputed CRC: the header fields can then say anything, and the
        reader must still fail only with FormatError."""
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.ckpt")
            write_tensors(path, tensors)
            with open(path, "rb") as f:
                body = f.read()[:-4]
            start = data.draw(st.integers(len(C.MAGIC), len(body) - 1), label="start")
            patch = data.draw(st.binary(min_size=1, max_size=8), label="patch")
            mutated = body[:start] + patch + body[start + len(patch):]
            keep = data.draw(st.integers(len(C.MAGIC) + 8, len(body)), label="keep")
            for damaged in (mutated, body[:keep]):
                with open(path, "wb") as f:
                    f.write(damaged + struct.pack("<I", zlib.crc32(damaged) & 0xFFFFFFFF))
                try:
                    read_tensors(path)
                except FormatError:
                    pass
