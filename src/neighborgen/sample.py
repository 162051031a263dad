"""Generation loops: frontier expansion with per-axis logit routing,
overlap mixing, classifier-free guidance, and the raster baseline sampler.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

# build_schedule is unused here but stays bound: perfbench/tracing.py wraps
# sample.build_schedule
from .grid import GridShape, build_schedule, step_count  # noqa: F401
from .model import (NEIGHBOR, RASTER, KVCache, ModelParams, embed_condition,
                    embed_tokens, forward_incremental, sequence_layout)
from .tensor import NonFiniteError


@dataclass(frozen=True)
class SamplingConfig:
    temperature: float = 1.0
    top_k: int = 0  # 0 disables
    cfg_scale: float = 1.0  # paper-style defaults: 2.0 images, 1.25 video
    seed: int = 0
    greedy: bool = False  # temperature -> 0 limit (argmax)

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in [0, 2**64)")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and > 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if not (math.isfinite(self.cfg_scale) and self.cfg_scale >= 0):
            raise ValueError("cfg_scale must be finite and >= 0")


@dataclass
class GenerationStats:
    forward_passes: int = 0
    tokens_generated: int = 0
    step_wall_ms: list[float] = field(default_factory=list)


def log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def mix_logits(contributions: list[np.ndarray]) -> np.ndarray:
    """Log-domain ensemble: mean of log-softmax-normalized contributions.

    Normalizing first means heads with different logit scales contribute
    equally; the result is a valid unnormalized log-distribution.
    """
    if len(contributions) == 0:
        raise ValueError("need at least one contribution")
    n = len(contributions[0])
    if any(len(c) != n for c in contributions):
        raise ValueError("contribution length mismatch")
    acc = np.zeros(n, dtype=np.float64)
    for c in contributions:
        acc += log_softmax(np.asarray(c, dtype=np.float64))
    return acc / len(contributions)


def apply_cfg(cond: np.ndarray, uncond: np.ndarray, scale: float) -> np.ndarray:
    """Classifier-free guidance: uncond + scale * (cond - uncond).

    scale 1 returns cond exactly and scale 0 returns uncond exactly, so both
    endpoints are bitwise-faithful.
    """
    cond = np.asarray(cond)
    uncond = np.asarray(uncond)
    if cond.shape != uncond.shape:
        raise ValueError("cond/uncond length mismatch")
    if scale == 1.0:
        return cond.copy()
    if scale == 0.0:
        return uncond.copy()
    return uncond + scale * (cond - uncond)


def sample_token(logits: np.ndarray, config: SamplingConfig, rng) -> int:
    """Temperature / top-k categorical sampling; greedy takes the argmax.

    `rng.random()` gives the token's uniform in [0, 1) (see `_pos_rng`).
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise NonFiniteError("non-finite logits")
    if config.greedy or config.top_k == 1:
        return int(logits.argmax())
    # shifted first, so a tiny temperature sends the rest to -inf, not NaN
    x = (logits - logits.max()) / config.temperature
    if 0 < config.top_k < len(x):
        kth = np.partition(x, -config.top_k)[-config.top_k]
        x = np.where(x < kth, -np.inf, x)
    p = np.exp(x)
    p /= p.sum()
    u = rng.random()
    return min(int(np.cumsum(p).searchsorted(u, side="right")), len(p) - 1)


def _philox4x32(counter, key):
    """Philox-4x32-10 (Salmon et al., SC 2011), vectorized over arrays.

    counter: four uint32-valued arrays or ints; key: two uint32 ints.
    Returns the four output words as uint64 arrays of uint32 values.
    """
    c0, c1, c2, c3 = (np.asarray(c, dtype=np.uint64) for c in counter)
    k0, k1 = key
    low = np.uint64(0xFFFFFFFF)
    for _ in range(10):
        p0, p1 = np.uint64(0xD2511F53) * c0, np.uint64(0xCD9E8D57) * c2
        c0, c1, c2, c3 = ((p1 >> 32) ^ c1 ^ np.uint64(k0), p1 & low,
                          (p0 >> 32) ^ c3 ^ np.uint64(k1), p0 & low)
        k0, k1 = (k0 + 0x9E3779B9) & 0xFFFFFFFF, (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return c0, c1, c2, c3


def philox_uniform(seed: int, step, flat) -> np.ndarray:
    """One float64 uniform in [0, 1) per (step, flat) pair: the 53-bit
    float of the first two words of the Philox-4x32-10 block with key
    `seed` (64 bits) and counter (flat, step, 0, 0)."""
    w0, w1, _, _ = _philox4x32((flat, step, 0, 0),
                               (seed & 0xFFFFFFFF, seed >> 32))
    return ((w0 >> 5) * 67108864 + (w1 >> 6)) / 9007199254740992.0


class _Uniform(float):
    """A pre-drawn uniform, returned by the `rng.random()` call that
    `sample_token` makes."""

    def random(self) -> float:
        return float(self)


def _pos_rng(seed: int, step: int, flat_index: int) -> _Uniform:
    """The uniform keyed by (seed, step, position): evaluation order of
    positions within a step cannot change the sampled tokens."""
    return _Uniform(float(philox_uniform(seed, step, flat_index)))


def generate(params: ModelParams, class_id: int, shape: GridShape,
             config: SamplingConfig):
    """Near-to-far generation: one forward pass per Manhattan-distance step.

    Pass 1 feeds the condition slot (plus a null-class twin when guidance is
    active) and predicts the origin through all heads, mixed.  Pass s >= 2
    feeds the step-(s-2) tokens and samples all step-(s-1) tokens.  The
    layout's route table `axis_src` names each target's source slot along
    every axis: each axis's prediction is gathered through that axis's head
    and guided, and the log-softmaxed contributions of the axes that have a
    route are averaged, for the whole wavefront at once and bit for bit as
    `mix_logits` averages them.  Returns (token grid, GenerationStats).
    """
    cfg = params.config
    if cfg.mode != NEIGHBOR:
        raise ValueError("generate requires a neighbor-mode model")
    if shape != cfg.shape:
        raise ValueError(f"shape {shape} does not match model shape {cfg.shape}")
    if not (0 <= class_id < cfg.num_classes):
        raise ValueError("class id out of range")
    layout = sequence_layout(cfg)
    step = layout.step
    # each pass decodes one wavefront: a run of slots with one step value
    starts = np.flatnonzero(np.diff(step, prepend=-1)).tolist()
    ends = starts[1:] + [step.size]
    heads = np.array([cfg.head_for_axis(a) for a in range(shape.ndim)])
    # every uniform of the grid, in slot order
    uniforms = philox_uniform(config.seed, step, layout.raster_idx).tolist()
    use_cfg = config.cfg_scale != 1.0
    class_ids = [class_id, cfg.null_class] if use_cfg else [class_id]

    grid = np.zeros(shape.dims, dtype=np.int64)
    flat_grid = grid.reshape(-1)
    stats = GenerationStats()
    cache = KVCache.empty(cfg)
    ids = None
    for s, (start, end) in enumerate(zip(starts, ends)):
        t0 = time.perf_counter()
        if s == 0:
            x = embed_condition(params, class_ids)
            first = 0  # the condition slot
        else:
            emb = embed_tokens(params, ids, layout.order[starts[s - 1]:start])
            x = np.repeat(emb[None], len(class_ids), axis=0)
            first = starts[s - 1] + 1
        logits = forward_incremental(params, x, cache)
        stats.forward_passes += 1
        # (axes, targets): each target's source slot per axis, -1 if none
        src = layout.axis_src[:, start:end]
        present = src >= 0
        # (axes, targets, class rows, vocab)
        routed = np.stack(logits)[heads[:, None], :,
                                  np.where(present, src - first, 0)]
        if use_cfg:
            guided = apply_cfg(routed[:, :, 0], routed[:, :, 1],
                               config.cfg_scale)
        else:
            guided = routed[:, :, 0]
        contribs = log_softmax(guided.astype(np.float64))
        # absent axes add an exact 0.0, and the sum runs in axis order, so
        # each row is bit-identical to mix_logits over its predecessors
        contribs[~present] = 0.0
        mixed = contribs.sum(axis=0) / present.sum(axis=0)[:, None]
        ids = np.array([sample_token(row, config, _Uniform(u))
                        for row, u in zip(mixed, uniforms[start:end])],
                       dtype=np.int64)
        flat_grid[layout.raster_idx[start:end]] = ids
        stats.tokens_generated += len(ids)
        stats.step_wall_ms.append((time.perf_counter() - t0) * 1000)

    if stats.forward_passes != step_count(shape):
        raise RuntimeError(f"made {stats.forward_passes} forward passes, "
                           f"expected {step_count(shape)}")
    return grid, stats


def generate_raster(params: ModelParams, class_id: int, shape: GridShape,
                    config: SamplingConfig):
    """Raster baseline: one forward pass per token."""
    cfg = params.config
    if cfg.mode != RASTER:
        raise ValueError("generate_raster requires a raster-mode model")
    if shape != cfg.shape:
        raise ValueError(f"shape {shape} does not match model shape {cfg.shape}")
    if not (0 <= class_id < cfg.num_classes):
        raise ValueError("class id out of range")
    use_cfg = config.cfg_scale != 1.0
    class_ids = [class_id, cfg.null_class] if use_cfg else [class_id]
    layout = sequence_layout(cfg)
    grid = np.zeros(shape.dims, dtype=np.int64)
    stats = GenerationStats()
    cache = KVCache.empty(cfg)

    def guided(head_logits):
        if use_cfg:
            return apply_cfg(head_logits[0, 0], head_logits[1, 0],
                             config.cfg_scale)
        return head_logits[0, 0]

    uniforms = philox_uniform(config.seed, layout.step,
                              layout.raster_idx).tolist()
    x = embed_condition(params, class_ids)
    for i, pos in enumerate(layout.order):
        t0 = time.perf_counter()
        logits = forward_incremental(params, x, cache)
        stats.forward_passes += 1
        grid[pos] = sample_token(guided(logits[0]), config,
                                 _Uniform(uniforms[i]))
        stats.tokens_generated += 1
        stats.step_wall_ms.append((time.perf_counter() - t0) * 1000)
        if i + 1 < shape.num_tokens:
            e = embed_tokens(params, np.array([grid[pos]]), [pos])
            x = np.repeat(e[None], len(class_ids), axis=0)
    if stats.forward_passes != shape.num_tokens:
        raise RuntimeError(f"made {stats.forward_passes} forward passes, "
                           f"expected {shape.num_tokens}")
    return grid, stats

