"""Binary checkpoint format.

Layout: magic bytes ``MMLY1``, a little-endian uint32 header length, a JSON
header (tensor names, shapes, byte offsets, config snapshot, and the
``zlib.crc32`` of the payload), then the raw little-endian float64 payloads
back to back. Round trips are bit-exact. A save writes a temporary file
beside the target, fsyncs it and renames it onto the target. A truncated
or malformed file, a payload whose checksum does not match, and bytes
after the last tensor raise ``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"MMLY1"
_HEADER_LEN = struct.Struct("<I")


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], config: dict) -> None:
    entries = []
    offset = crc = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        blob = arr.tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
        crc = zlib.crc32(blob, crc)
    header = json.dumps({"tensors": entries, "config": config, "crc32": crc}, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([MAGIC, _HEADER_LEN.pack(len(header)), header, *blobs])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
    pos = len(MAGIC) + _HEADER_LEN.size
    if len(raw) < pos:
        raise CheckpointError(f"{path}: truncated before the header length")
    (hlen,) = _HEADER_LEN.unpack_from(raw, len(MAGIC))
    if len(raw) < pos + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos : pos + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long integers
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    pos += hlen
    if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
            and isinstance(header.get("config"), dict) and type(header.get("crc32")) is int):
        raise CheckpointError(
            f"{path}: header must be an object with a 'tensors' list, a 'config' object and an integer 'crc32'"
        )
    tensors: dict[str, np.ndarray] = {}
    end = 0
    for entry in header["tensors"]:
        name, shape, offset, nbytes = _tensor_entry(path, entry)
        blob = raw[pos + offset : pos + offset + nbytes]
        if len(blob) != nbytes:
            raise CheckpointError(f"{path}: truncated payload for tensor '{name}'")
        tensors[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
        end = max(end, offset + nbytes)
    if len(raw) != pos + end:
        raise CheckpointError(f"{path}: {len(raw) - pos - end} bytes after the last tensor")
    if zlib.crc32(memoryview(raw)[pos:]) != header["crc32"]:
        raise CheckpointError(f"{path}: payload checksum mismatch, the file is corrupt")
    return tensors, header["config"]


def _tensor_entry(path: str, entry) -> tuple[str, list[int], int, int]:
    """(name, shape, offset, nbytes) of one header entry, checked to be
    consistent with a float64 payload."""
    try:
        name, shape, offset, nbytes = entry["name"], entry["shape"], entry["offset"], entry["nbytes"]
    except (TypeError, KeyError):
        raise CheckpointError(f"{path}: malformed tensor entry {entry!r}") from None
    if not (
        isinstance(name, str)
        and isinstance(shape, list)
        and all(type(n) is int and n >= 0 for n in [*shape, offset, nbytes])
        and nbytes == 8 * math.prod(shape)
    ):
        raise CheckpointError(f"{path}: malformed tensor entry {entry!r}")
    return name, shape, offset, nbytes
