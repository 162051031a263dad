"""Serialization of generated token grids.

Two interchangeable formats:
  * JSON: header fields (shape, vocab, class, seed, sampling config) plus
    the token array as base-64 little-endian uint16.
  * raw binary `.tokens`: magic ``NARTOK1\\0``, u32 ndim, u32 dims,
    little-endian uint16 payload.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict

import numpy as np

from .sample import SamplingConfig

TOKENS_MAGIC = b"NARTOK1\x00"


class TokenFormatError(RuntimeError):
    """Corrupt or malformed token file."""


def _as_u16(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid)
    if np.any(grid < 0) or np.any(grid > 0xFFFF):
        raise ValueError("token ids must fit in uint16")
    return grid.astype("<u2")


def grid_to_json(grid: np.ndarray, vocab_size: int, class_id: int,
                 config: SamplingConfig) -> str:
    u16 = _as_u16(grid)
    return json.dumps({
        "shape": list(grid.shape),
        "vocab": int(vocab_size),
        "class": int(class_id),
        "seed": config.seed,
        "config": asdict(config),
        "tokens_b64": base64.b64encode(u16.tobytes()).decode("ascii"),
    }, sort_keys=True)


def grid_from_json(text: str):
    """Returns (grid, header dict without the token payload)."""
    d = json.loads(text)
    try:
        shape = tuple(int(n) for n in d["shape"])
        raw = base64.b64decode(d["tokens_b64"])
    except (KeyError, TypeError, ValueError) as e:
        raise TokenFormatError(f"malformed token JSON: {e!r}") from None
    if len(shape) not in (2, 3) or min(shape) < 1:
        raise TokenFormatError(f"bad shape {list(shape)}")
    if len(raw) != 2 * math.prod(shape):
        raise TokenFormatError("token payload does not match shape")
    grid = np.frombuffer(raw, dtype="<u2")
    header = {k: v for k, v in d.items() if k != "tokens_b64"}
    return grid.reshape(shape).astype(np.int64), header


def save_tokens(path, grid: np.ndarray) -> None:
    u16 = _as_u16(grid)
    with open(path, "wb") as f:
        f.write(TOKENS_MAGIC)
        f.write(len(grid.shape).to_bytes(4, "little"))
        for d in grid.shape:
            f.write(int(d).to_bytes(4, "little"))
        f.write(u16.tobytes())


def load_tokens(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(TOKENS_MAGIC):
        raise TokenFormatError("not a token file (bad magic)")

    def u32(i):  # the i-th header word after the magic
        off = len(TOKENS_MAGIC) + 4 * i
        if off + 4 > len(blob):
            raise TokenFormatError(f"truncated header: {len(blob)} bytes")
        return int.from_bytes(blob[off:off + 4], "little")

    ndim = u32(0)
    if ndim not in (2, 3):
        raise TokenFormatError(f"bad ndim {ndim}")
    dims = [u32(1 + a) for a in range(ndim)]
    off = len(TOKENS_MAGIC) + 4 * (1 + ndim)
    if 0 in dims:
        raise TokenFormatError(f"zero dimension in {dims}")
    n = math.prod(dims)
    payload = blob[off:]
    if len(payload) != 2 * n:
        raise TokenFormatError("payload size does not match dims")
    return np.frombuffer(payload, dtype="<u2").reshape(dims).astype(np.int64)
