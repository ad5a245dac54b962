"""Binary tensor checkpoints.

Layout (little-endian throughout): magic ``LIFTCKPT``, u32 version (2), u32
tensor count, then per tensor: u16 name length, UTF-8 name, u8 rank, one u64
per dimension, u8 dtype code (0 = float32, 1 = float64), raw element bytes in
row-major order. The file ends with the CRC32 (u32) of every preceding byte.
The CRC is validated before any parsing, so truncation or corruption anywhere
surfaces as a checksum error rather than a garbled read. The CRC is
computed beside the write, or beside a read in slices (workers.run_all: on
a pool thread if that work is pooled, see workers.POOL_BYTES).

Version 2 names the fused attention projections (``blocks.0.mha_2d.q.weight``
where version 1 had ``blocks.0.mha_2d.heads.0.q.weight``); version 1 files
are rejected, and so is a file without the head counts (_named_arrays). A
file is written to a temporary file beside it and moved into place, so a
failed write leaves any earlier file at the path intact.
"""

from __future__ import annotations

import math
import os
import queue
import struct
import zlib
from typing import Mapping, Optional

import numpy as np

from . import blocks as B
from . import workers as W
from .model import HeadParams
from .training import AdamState

MAGIC = b"LIFTCKPT"
VERSION = 2

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
# bytes per read in _read_with_crc; 1-4 MiB timed within noise at 115 MB
READ_SLICE = 1 << 21


class CheckpointError(Exception):
    """Base class for checkpoint read/write failures."""


class ChecksumError(CheckpointError):
    """File CRC32 does not match its contents (truncation or corruption)."""


class FormatError(CheckpointError):
    """Bad magic, version, or structural field."""


def write_tensors(path, tensors: Mapping[str, np.ndarray]) -> None:
    """Serialize name->array pairs in iteration order.

    Every tensor is validated before the file is opened. Headers and array
    buffers are then written straight to ``<path>.tmp``, without joining
    them in memory, and the file is renamed to ``path``; on any failure the
    temporary file is removed. Their CRC32 is computed from the same
    buffers: on a pool thread while the caller writes if the payload is
    pooled (workers.run_all), and finished before the trailer is written
    or the failure is raised.
    """
    bufs = [MAGIC + struct.pack("<II", VERSION, len(tensors))]
    size = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise FormatError(f"tensor {name} has unsupported dtype {arr.dtype}")
        name_b = name.encode("utf-8")
        if len(name_b) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name!r}")
        bufs.append(struct.pack("<H", len(name_b)) + name_b
                    + struct.pack(f"<B{arr.ndim}QB", arr.ndim, *arr.shape,
                                  _DTYPE_CODES[arr.dtype]))
        bufs.append(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
        size += arr.nbytes

    def checksum():
        crc = 0
        for buf in bufs:
            crc = zlib.crc32(buf, crc)
        return crc

    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            def write():
                for buf in bufs:
                    f.write(buf)

            _, crc = W.run_all([write, checksum], size)
            f.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_with_crc(path) -> tuple[memoryview, int]:
    """The file's bytes, read-only, and the CRC32 of all but the last 4.

    The file is read into one buffer of the size fstat gives, READ_SLICE
    bytes at a time, while the CRC32 is chained over each slice as it
    lands (workers.run_all: on a pool thread if the file is pooled, else
    after the reader has queued every slice, the queue being unbounded).
    The reader hands the CRC32 its end-of-file marker even when a read
    fails, so it never waits on a slice that will not come; a file that
    ends before that size is a ChecksumError.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        buf = np.empty(size, np.uint8)
        view = memoryview(buf)
        slices: queue.SimpleQueue = queue.SimpleQueue()

        def read():
            try:
                done = 0
                while done < size:
                    n = f.readinto(view[done:done + READ_SLICE])
                    if not n:
                        raise ChecksumError(f"{path}: file ended at byte {done} of {size}")
                    slices.put(view[done:min(done + n, size - 4)])
                    done += n
            finally:
                slices.put(None)

        def checksum():
            crc = 0
            while (piece := slices.get()) is not None:
                crc = zlib.crc32(piece, crc)
            return crc

        _, crc = W.run_all([read, checksum], size)
    buf.flags.writeable = False
    return memoryview(buf), crc


def read_tensors(path) -> dict[str, np.ndarray]:
    """Parse a checkpoint back into name->array pairs in file order.

    The arrays are read-only views of the one buffer the file was read
    into; copy one to keep it apart from the others or to write to it.
    The file's CRC32 is checked before any header is parsed; it is
    computed as the file is read in (_read_with_crc).
    """
    raw, crc = _read_with_crc(path)
    if len(raw) < len(MAGIC) + 12:
        raise ChecksumError(f"{path}: file too short to hold a checksum")
    blob = raw[:-4]
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if crc & 0xFFFFFFFF != stored_crc:
        raise ChecksumError(f"{path}: checksum mismatch")
    if blob[:len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic {bytes(blob[:len(MAGIC)])!r}")
    off = len(MAGIC)
    version, count = struct.unpack_from("<II", blob, off)
    off += 8
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} (expected {VERSION})")
    out: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = bytes(blob[off:off + name_len]).decode("utf-8")
            off += name_len
            if name in out:
                raise FormatError(f"{path}: duplicate tensor {name}")
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}Q", blob, off)
            off += 8 * rank
            (code,) = struct.unpack_from("<B", blob, off)
            off += 1
            if code not in _CODE_DTYPES:
                raise FormatError(f"{path}: tensor {name} has unknown dtype code {code}")
            dtype = _CODE_DTYPES[code]
            n_bytes = math.prod(shape) * dtype.itemsize  # exact: no int64 wrap-around
            if off + n_bytes > len(blob):
                raise FormatError(f"{path}: tensor {name} overruns the file")
            out[name] = np.ndarray(shape, dtype, buffer=blob, offset=off)
            off += n_bytes
    except struct.error as e:  # a count or length that runs past the end
        raise FormatError(f"{path}: tensor headers run past the end of the file "
                          f"({e})") from e
    except ValueError as e:  # a name that is not UTF-8, or an unusable shape
        raise FormatError(f"{path}: malformed tensor header ({e})") from e
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes after last tensor")
    return out


def _named_arrays(params: HeadParams, opt_state: Optional[AdamState]) -> dict[str, np.ndarray]:
    """The checkpoint's name -> array layout: params' walk (blocks.named_leaves),
    each parameter by its name and each head count, which sets no shape, as
    a 0-d float64 (``blocks.0.mha_2d.h``); then, with opt_state, a 0-d
    float64 ``adam.step`` and ``adam.m.<name>``, ``adam.v.<name>``. Every
    array but the head counts and adam.step is, or views, one that params
    or opt_state holds, so a load writes into it in place."""
    arrays = {n: np.array(leaf, dtype=np.float64) if isinstance(leaf, int) else leaf.data
              for n, leaf in B.named_leaves(params)}
    if opt_state is not None:
        arrays["adam.step"] = np.array(opt_state.step, dtype=np.float64)
        for prefix, flat in (("adam.m.", opt_state.m_flat), ("adam.v.", opt_state.v_flat)):
            arrays.update((prefix + name, arr) for name, arr in opt_state.named_views(flat))
    return arrays


def save_checkpoint(params: HeadParams, opt_state: Optional[AdamState], path) -> None:
    """Write model parameters and, if given, optimizer state to one file
    (_named_arrays gives the names)."""
    write_tensors(path, _named_arrays(params, opt_state))


def load_checkpoint(path, params: HeadParams,
                    opt_state: Optional[AdamState] = None) -> None:
    """Load a checkpoint in place, shape-checked by name; returns None.

    Every value is copied into the array the structure already holds, so a
    parameter keeps its .data (an Adam arena view stays one). Pass an
    AdamState to restore optimizer moments too; a checkpoint saved without
    them then fails with FormatError. Every name and shape, that every
    head count equals params', and that adam.step is a whole number in
    [0, 2**63), is checked before the first copy, so a FormatError leaves
    params and opt_state untouched.
    """
    tensors = read_tensors(path)
    targets = _named_arrays(params, opt_state)
    for name, dst in targets.items():
        if name not in tensors:
            raise FormatError(f"{path}: missing tensor {name}")
        if tensors[name].shape != dst.shape:
            raise FormatError(f"{path}: tensor {name} has shape {tensors[name].shape}, "
                              f"expected {dst.shape}")
    unexpected = [k for k in tensors if k not in targets
                  and not (opt_state is None and k.startswith("adam."))]
    if unexpected:
        raise FormatError(f"{path}: unexpected tensors {unexpected[:5]}")
    for name, h in B.named_leaves(params):
        if isinstance(h, int) and tensors[name] != h:
            raise FormatError(f"{path}: {name} is {float(tensors[name]):g}, the head has {h}")
    if opt_state is not None:
        step = float(tensors["adam.step"])
        if not (step.is_integer() and 0 <= step < 2 ** 63):
            raise FormatError(f"{path}: adam.step {step} is not a whole number in [0, 2**63)")
    for name, dst in targets.items():
        dst[...] = tensors[name]
    for _, t in params.named_parameters():
        t.grad = None
    if opt_state is not None:
        opt_state.step = int(step)
