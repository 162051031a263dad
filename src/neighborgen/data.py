"""Procedural locality-structured token datasets.

Stand-ins for tokenized images/videos that keep the one property the
near-to-far decoder exploits: tokens correlate strongly with their spatial
and temporal neighbors.

  * POTTS: q-state Potts lattice sampled by checkerboard Gibbs sweeps with
    class-dependent coupling.  coupling 0 degenerates to i.i.d. uniform.
  * SHAPES: 1-3 class-colored axis-aligned rectangles (boxes in 3D) over a
    constant background.  coupling > 0 switches the fill to stripes along
    axis 0 (value increments per row/frame), giving the data deliberately
    anisotropic neighbor statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .grid import GridShape

POTTS = "potts"
SHAPES = "shapes"

GIBBS_SWEEPS = 8


@dataclass(frozen=True)
class SyntheticSpec:
    shape: GridShape
    vocab_size: int
    num_classes: int
    generator: str = SHAPES
    coupling: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if (isinstance(self.coupling, bool)
                or not isinstance(self.coupling, (int, float))
                or not math.isfinite(self.coupling)):
            raise ValueError(f"coupling must be a finite number, "
                             f"got {self.coupling!r}")
        if self.generator not in (POTTS, SHAPES):
            raise ValueError(f"unknown generator {self.generator!r}")

    def to_json(self) -> str:
        d = asdict(self)
        d["shape"] = list(self.shape.dims)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SyntheticSpec":
        d = json.loads(text)
        d["shape"] = GridShape(tuple(d["shape"]))
        return cls(**d)


def gen_synthetic(spec: SyntheticSpec, class_id: int, seed: int) -> np.ndarray:
    """One token grid, deterministic per (spec, class_id, seed)."""
    rng = np.random.default_rng([spec.seed, class_id, seed])
    if spec.generator == POTTS:
        return _gen_potts(spec, class_id, rng)
    return _gen_shapes(spec, class_id, rng)


# ---------------------------------------------------------------------------
# Potts lattice
# ---------------------------------------------------------------------------


def _neighbor_state_counts(grid: np.ndarray, q: int) -> np.ndarray:
    """counts[s, ...] = number of lattice neighbors currently in state s."""
    counts = np.zeros((q,) + grid.shape, dtype=np.float32)
    for axis in range(grid.ndim):
        for shift in (1, -1):
            rolled = np.roll(grid, shift, axis=axis)
            # non-periodic boundary: invalidate the wrapped slice
            valid = np.ones(grid.shape, dtype=bool)
            idx = [slice(None)] * grid.ndim
            idx[axis] = 0 if shift == 1 else -1
            valid[tuple(idx)] = False
            for s in range(q):
                counts[s] += ((rolled == s) & valid)
    return counts


def _gen_potts(spec: SyntheticSpec, class_id: int, rng) -> np.ndarray:
    q = spec.vocab_size
    dims = spec.shape.dims
    beta = spec.coupling * (1.0 + class_id) / max(spec.num_classes, 1)
    grid = rng.integers(0, q, size=dims, dtype=np.int64)
    if beta == 0.0:
        return grid
    checker = np.indices(dims).sum(axis=0) % 2
    for _ in range(GIBBS_SWEEPS):
        for parity in (0, 1):
            counts = _neighbor_state_counts(grid, q)
            logits = beta * counts
            logits -= logits.max(axis=0, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=0, keepdims=True)
            cdf = np.cumsum(p, axis=0)
            u = rng.random(size=dims)
            draw = (u[None] > cdf).sum(axis=0)
            sites = checker == parity
            grid[sites] = draw[sites]
    return grid


# ---------------------------------------------------------------------------
# rectangles / boxes
# ---------------------------------------------------------------------------


def rasterize_rects(shape: GridShape, rects, background: int,
                    vocab_size: int, striped: bool = False) -> np.ndarray:
    """Paint axis-aligned rectangles (lo corner, hi corner exclusive, fill)
    over a background (scalar or broadcastable array), later ones on top.

    With striped=True the fill value increments per axis-0 slice, modulo the
    vocabulary: rows differ while columns repeat, so horizontal and vertical
    neighbor statistics diverge.
    """
    background = np.asarray(background, dtype=np.int64)
    grid = np.empty(shape.dims, dtype=np.int64)
    grid[...] = background
    for lo, hi, fill in rects:
        sl = tuple(slice(a, b) for a, b in zip(lo, hi))
        if striped:
            rows = np.arange(lo[0], hi[0])
            vals = (fill + rows) % vocab_size
            expand = (slice(None),) + (None,) * (shape.ndim - 1)
            grid[sl] = vals[expand]
        else:
            grid[sl] = fill
    return grid


def _gen_shapes(spec: SyntheticSpec, class_id: int, rng) -> np.ndarray:
    dims = spec.shape.dims
    num_rects = int(rng.integers(1, 4))
    rects = []
    for r in range(num_rects):
        lo, hi = [], []
        for d in dims:
            a = int(rng.integers(0, d))
            b = int(rng.integers(a + 1, d + 1))
            lo.append(a)
            hi.append(b)
        fill = 1 + (class_id + r) % (spec.vocab_size - 1)
        rects.append((tuple(lo), tuple(hi), fill))
    striped = spec.coupling > 0
    if striped:
        # stripe the background along axis 0 too, so vertical neighbors
        # increment while horizontal neighbors repeat, grid-wide
        rows = np.arange(dims[0]) % spec.vocab_size
        background = rows.reshape((-1,) + (1,) * (len(dims) - 1))
    else:
        background = 0
    return rasterize_rects(spec.shape, rects, background=background,
                           vocab_size=spec.vocab_size, striped=striped)


def neighbor_agreement(grid: np.ndarray) -> float:
    """Fraction of axis-adjacent token pairs holding equal values."""
    agree = total = 0
    for axis in range(grid.ndim):
        a = np.take(grid, range(grid.shape[axis] - 1), axis=axis)
        b = np.take(grid, range(1, grid.shape[axis]), axis=axis)
        agree += int((a == b).sum())
        total += a.size
    return agree / total if total else 0.0
