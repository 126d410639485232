"""Binary checkpoint format.

Layout: magic bytes ``MMLY2``, then two little-endian uint32s, the header
length and the ``zlib.crc32`` of the header bytes, then a JSON header
(tensor names, shapes, byte offsets, config snapshot, and the
``zlib.crc32`` of the payload), then the raw little-endian float64 payloads
back to back. ``MMLY1`` files, whose prefix has the header length only and
whose header is unchecked, still load. Round trips are bit-exact. A save
writes a temporary file beside the target, fsyncs it and renames it onto
the target; an ``OSError`` on the way names the target. A truncated or
malformed file, entries that repeat a name or do not tile the payload in
header order, a bad header or payload checksum and trailing bytes raise
``CheckpointError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

MAGIC = b"MMLY2"
# The fixed prefix after each format's magic: header length[, header crc32].
_PREFIXES = {MAGIC: struct.Struct("<II"), b"MMLY1": struct.Struct("<I")}


class CheckpointError(ValueError):
    pass


def check_out_path(label: str, path: str | None) -> None:
    """ValueError naming ``label`` unless ``path`` is None or can be written
    as a file: its directory exists and it is no directory itself."""
    if path is None:
        return
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ValueError(f"{label}: '{directory}' is not an existing directory")
    if os.path.isdir(path):
        raise ValueError(f"{label}: '{path}' is a directory")


def check_out_dir(label: str, path: str) -> None:
    """ValueError naming ``label`` unless ``path`` is a directory or can be
    made one: the nearest of it and its ancestors that exists is a directory."""
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ValueError(f"{label}: '{existing}' is not a directory")


def save_checkpoint(path: str, tensors: dict[str, np.ndarray], config: dict) -> None:
    """Each payload is written, and its checksum computed, from the
    contiguous ``<f8`` array itself, with no bytes copy."""
    entries = []
    offset = crc = 0
    payloads = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": arr.nbytes})
        payloads.append(arr)
        offset += arr.nbytes
        crc = zlib.crc32(arr, crc)
    header = json.dumps({"tensors": entries, "config": config, "crc32": crc}, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines([MAGIC, _PREFIXES[MAGIC].pack(len(header), zlib.crc32(header)), header, *payloads])
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"cannot save checkpoint '{path}': {exc.strerror or exc}") from exc
        raise


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """The prefix and header are read first, then each payload straight
    into its own array, checksummed as it arrives, so the file is never
    held whole. Sizes are checked against the file's length before any
    array is allocated."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = _PREFIXES.get(fh.read(len(MAGIC)))
        if prefix is None:
            raise CheckpointError(f"{path}: bad magic bytes, not a checkpoint")
        pos = len(MAGIC) + prefix.size
        if size < pos:
            raise CheckpointError(f"{path}: truncated before the header length")
        hlen, *header_crc = prefix.unpack(fh.read(prefix.size))
        if size < pos + hlen:
            raise CheckpointError(f"{path}: truncated header")
        body = fh.read(hlen)
        if header_crc and zlib.crc32(body) != header_crc[0]:
            raise CheckpointError(f"{path}: header checksum mismatch, the file is corrupt")
        try:
            header = json.loads(str(body, "utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, over-long integers
            raise CheckpointError(f"{path}: corrupt header: {exc}") from None
        pos += hlen
        if not (isinstance(header, dict) and isinstance(header.get("tensors"), list)
                and isinstance(header.get("config"), dict) and type(header.get("crc32")) is int):
            raise CheckpointError(
                f"{path}: header must be an object with a 'tensors' list, a 'config' object and an integer 'crc32'"
            )
        tensors: dict[str, np.ndarray] = {}
        end = crc = 0
        for entry in header["tensors"]:
            name, shape, offset, nbytes = _tensor_entry(path, entry)
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor '{name}'")
            if offset != end:
                raise CheckpointError(f"{path}: tensor '{name}' starts at byte {offset}, expected {end}")
            if size < pos + offset + nbytes:
                raise CheckpointError(f"{path}: truncated payload for tensor '{name}'")
            arr = np.empty(shape, dtype="<f8")
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise CheckpointError(f"{path}: truncated payload for tensor '{name}'")
            crc = zlib.crc32(arr, crc)
            tensors[name] = arr
            end = offset + nbytes
    if size != pos + end:
        raise CheckpointError(f"{path}: {size - pos - end} bytes after the last tensor")
    if crc != header["crc32"]:
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
