"""Token-grid geometry, near-to-far generation schedules, and attention masks.

A generation schedule orders the positions of a 2D or 3D token grid by
Manhattan distance from the origin (upper-left / first-frame corner).  All
positions at the same distance form one step and are decoded in a single
forward pass.  The attention mask derived from a schedule is causal across
steps and bidirectional within a step, with a single condition slot prefixed
at sequence index 0.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

Position = tuple[int, ...]


@dataclass(frozen=True)
class GridShape:
    """Dimensions of a token grid: (rows, cols) or (time, rows, cols)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(operator.index(d) for d in self.dims)  # ints only
        if len(dims) not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got {len(dims)} dims")
        if any(d < 1 for d in dims):
            raise ValueError(f"all dims must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def num_tokens(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def contains(self, p: Position) -> bool:
        return len(p) == self.ndim and all(0 <= c < d for c, d in zip(p, self.dims))

    def positions(self):
        """All in-bounds positions in lexicographic (raster) order."""
        return itertools.product(*(range(d) for d in self.dims))

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)

    @classmethod
    def parse(cls, text: str) -> "GridShape":
        try:
            dims = tuple(int(t) for t in text.lower().split("x"))
        except ValueError:
            raise ValueError(f"cannot parse grid shape {text!r}") from None
        return cls(dims)


def manhattan_distance(p: Position, q: Position) -> int:
    """Sum of absolute coordinate differences."""
    if len(p) != len(q):
        raise ValueError(f"dimensionality mismatch: {len(p)} vs {len(q)}")
    return sum(abs(a - b) for a, b in zip(p, q))


def step_count(shape: GridShape) -> int:
    """Number of decoding steps: (sum of dims) - ndim + 1.

    Equals 2n-1 for an (n, n) grid and 2n+t-2 for a (t, n, n) grid.
    """
    return sum(shape.dims) - shape.ndim + 1


def predecessors(p: Position, shape: GridShape) -> list[tuple[Position, int]]:
    """Neighbors of p one step closer to the origin, tagged with the axis.

    Each entry decrements exactly one positive coordinate of p.  Ordered by
    axis id.  Empty only for the origin.
    """
    if not shape.contains(p):
        raise ValueError(f"position {p} out of bounds for shape {shape}")
    out = []
    for axis, c in enumerate(p):
        if c > 0:
            q = p[:axis] + (c - 1,) + p[axis + 1:]
            out.append((q, axis))
    return out


def successors(p: Position, shape: GridShape) -> list[tuple[Position, int]]:
    """In-bounds neighbors of p one step farther from the origin, by axis."""
    out = []
    for axis, c in enumerate(p):
        if c + 1 < shape.dims[axis]:
            q = p[:axis] + (c + 1,) + p[axis + 1:]
            out.append((q, axis))
    return out


@dataclass(frozen=True)
class Schedule:
    """Near-to-far generation order over a grid.

    order    : all positions sorted by (Manhattan distance from origin,
               lexicographic coordinates)
    step_of  : position -> step index (== its Manhattan distance)
    steps    : per step, a (start, length) run into `order`
    """

    shape: GridShape
    order: tuple[Position, ...]
    step_of: dict[Position, int] = field(repr=False)
    steps: tuple[tuple[int, int], ...]

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def slot_of(self, p: Position) -> int:
        """Sequence slot of a position (condition occupies slot 0)."""
        return self._slot[p]

    def step_positions(self, i: int):
        start, length = self.steps[i]
        return self.order[start:start + length]

    def __post_init__(self):
        object.__setattr__(
            self, "_slot", {p: i + 1 for i, p in enumerate(self.order)}
        )


def build_schedule(shape: GridShape) -> Schedule:
    """Build the near-to-far schedule for a grid.

    Positions are grouped into steps by Manhattan distance from the all-zero
    origin; ties within a step break lexicographically so serialization is
    deterministic.
    """
    dist = {p: sum(p) for p in shape.positions()}
    order = tuple(sorted(dist, key=lambda p: (dist[p], p)))
    steps = []
    start = 0
    for d, group in itertools.groupby(order, key=dist.__getitem__):
        length = sum(1 for _ in group)
        steps.append((start, length))
        start += length
    return Schedule(shape=shape, order=order, step_of=dist,
                    steps=tuple(steps))


@dataclass(frozen=True)
class AttentionMask:
    """Boolean attend-permission matrix over [condition] ++ schedule order.

    allow[q, k] is True iff query slot q may attend key slot k.
    """

    size: int
    allow: np.ndarray  # (size, size) bool

    def __post_init__(self):
        if self.allow.shape != (self.size, self.size):
            raise ValueError("mask matrix shape does not match size")

    def bias(self, dtype=np.float32) -> np.ndarray:
        """Additive attention bias: 0 where allowed, -1e9 where not."""
        return np.where(self.allow, dtype(0), dtype(-1e9))


def _wavefront_mask(step: np.ndarray) -> AttentionMask:
    """Slot k is visible from slot q iff step[k] <= step[q], over
    [condition] ++ token slots with the condition slot at step -1."""
    step = np.concatenate([[-1], step])
    return AttentionMask(size=step.size, allow=step[None, :] <= step[:, None])


def build_mask(schedule: Schedule) -> AttentionMask:
    """Proximity-aware mask: causal across steps, bidirectional within one.

    The condition slot (index 0) attends only itself; every token slot
    attends the condition slot and all token slots at an earlier-or-equal
    step.
    """
    return _wavefront_mask(np.array([schedule.step_of[p]
                                     for p in schedule.order], dtype=np.int64))


def build_raster_mask(num_tokens: int) -> AttentionMask:
    """Standard causal mask over [condition] ++ raster order (baseline)."""
    return _wavefront_mask(np.arange(num_tokens))


def target_table(schedule: Schedule) -> list[tuple[int, int, int]]:
    """All (source slot, axis id, target slot) prediction routes.

    One entry per axis-aligned grid edge (a position predicting its next
    in-bounds neighbor along that axis), plus one entry per axis routing the
    condition slot to the origin slot, which is how the initial token is
    predicted (through every head, mixed).
    """
    origin_slot = schedule.slot_of(schedule.order[0])
    table = [(0, axis, origin_slot) for axis in range(schedule.shape.ndim)]
    for p in schedule.order:
        src = schedule.slot_of(p)
        for q, axis in successors(p, schedule.shape):
            table.append((src, axis, schedule.slot_of(q)))
    return table


def serialize_schedule(schedule: Schedule) -> str:
    """Line-oriented dump: `shape=...` header, then one line per step."""
    lines = [f"shape={schedule.shape}"]
    for i in range(schedule.num_steps):
        ps = " ".join("(" + ",".join(str(c) for c in p) + ")"
                      for p in schedule.step_positions(i))
        lines.append(f"step {i}: {ps}")
    return "\n".join(lines) + "\n"


def serialize_mask(mask: AttentionMask) -> str:
    """Dump a mask as rows of 0/1 characters."""
    return "\n".join(
        "".join("1" if v else "0" for v in row) for row in mask.allow
    ) + "\n"
