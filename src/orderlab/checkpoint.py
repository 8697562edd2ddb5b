"""Binary checkpoint format shared by both models.

Layout: 8-byte magic, little-endian uint32 header length, UTF-8 JSON
header {format_version, architecture, config, param_count}, then the flat
parameter array as little-endian float64. Round-trips are byte-exact.
"""
from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError, reading, writing

MAGIC = b"ORLCKPT1"
FORMAT_VERSION = 1


def save_checkpoint(path: str, architecture: str, config: dict, flat_params: np.ndarray) -> None:
    arr = np.ascontiguousarray(flat_params, dtype="<f8")
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": architecture,
        "config": config,
        "param_count": int(arr.size),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with writing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(arr.tobytes())


def load_checkpoint(path: str) -> tuple[str, dict, np.ndarray]:
    """Returns (architecture, config, flat_params)."""
    with open(path, "rb") as fh, reading(path):
        if fh.read(8) != MAGIC:
            raise FormatError("not a checkpoint file")
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if header.get("format_version") != FORMAT_VERSION:
            raise FormatError(f"unsupported format version {header.get('format_version')}")
        count = int(header["param_count"])
        raw = fh.read(count * 8)
        if len(raw) != count * 8:
            raise FormatError("truncated parameter payload")
        if fh.read(1):
            raise FormatError("bytes after the parameter payload")
        params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        return header["architecture"], header["config"], params
