"""Toy decoder-only transformer with per-axis decoding heads.

Two modes:
  * "neighbor": backbone under the proximity-aware mask, one decoding head
    per grid axis (each a transformer block plus an output projection);
    every head predicts the next token along its axis.
  * "raster": same backbone under a plain causal mask with a single
    next-token head, used as the controlled baseline.

Every transformer block runs one plain-numpy forward, `_block_infer`:
inference calls it with a KV cache, and training wraps it as one autodiff
node per block with a closed-form backward.  The embedding, the heads'
final norm and projection, and the loss train on the autodiff engine.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .grid import AttentionMask, GridShape, Schedule, _wavefront_mask

NEIGHBOR = "neighbor"
RASTER = "raster"

CKPT_MAGIC = b"NARCKPT2"  # CRC-32 trailer


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_classes: int
    embed_dim: int
    num_blocks: int
    num_attn_heads: int
    shape: GridShape
    mode: str = NEIGHBOR
    shared_head: bool = False  # ablation: one head serves every axis

    def __post_init__(self):
        if self.mode not in (NEIGHBOR, RASTER):
            raise ValueError(f"unknown mode {self.mode!r}")
        counts = (self.vocab_size, self.num_classes, self.embed_dim,
                  self.num_blocks, self.num_attn_heads)
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1
                   for n in counts):
            raise ValueError("all config counts must be positive integers")
        if self.embed_dim % self.num_attn_heads != 0:
            raise ValueError("embed_dim must be divisible by num_attn_heads")

    @property
    def num_decode_heads(self) -> int:
        if self.mode == RASTER or self.shared_head:
            return 1
        return self.shape.ndim

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_attn_heads

    @property
    def null_class(self) -> int:
        """Id of the learned null-class row (for classifier-free guidance)."""
        return self.num_classes

    def head_for_axis(self, axis: int) -> int:
        return 0 if (self.mode == RASTER or self.shared_head) else axis

    def to_json(self) -> str:
        d = asdict(self)
        d["shape"] = list(self.shape.dims)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        d = json.loads(text)
        # older configs carry the never-used "dropout": 0.0
        if d.pop("dropout", 0.0) != 0.0:
            raise ValueError("dropout is not supported")
        d["shape"] = GridShape(tuple(d["shape"]))
        return cls(**d)


def _block_param_shapes(cfg: ModelConfig):
    d = cfg.embed_dim
    return [
        ("ln1_g", (d,)), ("ln1_b", (d,)),
        ("w_qkv", (d, 3 * d)), ("b_qkv", (3 * d,)),
        ("w_o", (d, d)), ("b_o", (d,)),
        ("ln2_g", (d,)), ("ln2_b", (d,)),
        ("w_fc1", (d, 4 * d)), ("b_fc1", (4 * d,)),
        ("w_fc2", (4 * d, d)), ("b_fc2", (d,)),
    ]


def param_shapes(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Yield parameter names and shapes in checkpoint declaration order,
    lazily: a reader stops at the first tensor a file lacks."""
    d = cfg.embed_dim
    yield ("tok_emb", (cfg.vocab_size, d))
    yield ("cls_emb", (cfg.num_classes + 1, d))  # +1 null-class row for CFG
    yield ("cond_pos", (d,))
    for a, n in enumerate(cfg.shape.dims):
        yield (f"pos{a}", (n, d))
    for i in range(cfg.num_blocks):
        yield from ((f"bb{i}.{n}", s) for n, s in _block_param_shapes(cfg))
    for h in range(cfg.num_decode_heads):
        yield from ((f"head{h}.{n}", s) for n, s in _block_param_shapes(cfg))
        yield from [
            (f"head{h}.lnf_g", (d,)), (f"head{h}.lnf_b", (d,)),
            (f"head{h}.w_out", (d, cfg.vocab_size)),
            (f"head{h}.b_out", (cfg.vocab_size,)),
        ]


def param_count(cfg: ModelConfig) -> int:
    return sum(math.prod(s) for _, s in param_shapes(cfg))


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, T.Tensor]

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def arrays(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.tensors.items()}


def init_model(cfg: ModelConfig, seed: int = 0) -> ModelParams:
    """Deterministic init: scaled normal projections, zero biases.

    Head output projections start at zero so an untrained model predicts the
    uniform distribution (loss == ln vocab).  Residual-branch output
    projections are shrunk by 1/sqrt(2 * num_blocks).
    """
    rng = np.random.default_rng(seed)
    std = 0.02
    resid_std = std / math.sqrt(2.0 * cfg.num_blocks)
    tensors = {}
    for name, shape in param_shapes(cfg):
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith(("ln1_g", "ln2_g", "lnf_g")):
            data = np.ones(shape, dtype=np.float32)
        elif leaf.startswith("b_") or leaf.endswith("_b") or leaf == "cond_pos":
            data = np.zeros(shape, dtype=np.float32)
        elif leaf == "w_out":
            data = np.zeros(shape, dtype=np.float32)
        elif leaf in ("w_o", "w_fc2"):
            data = rng.normal(0.0, resid_std, shape).astype(np.float32)
        else:
            data = rng.normal(0.0, std, shape).astype(np.float32)
        tensors[name] = T.Tensor(data)
    return ModelParams(config=cfg, tensors=tensors)


# ---------------------------------------------------------------------------
# training forward (autodiff graph)
# ---------------------------------------------------------------------------


def _ln_backward(d, xhat, std, gamma):
    """(d input, d gamma, d beta) of xhat * gamma + beta, for cotangent d."""
    gg = d * gamma
    dx = gg - gg.mean(axis=-1, keepdims=True) \
        - xhat * (gg * xhat).mean(axis=-1, keepdims=True)
    return dx / std, (d * xhat).sum(axis=0), d.sum(axis=0)


def _block_node(p: ModelParams, prefix: str, x: T.Tensor,
                bias: np.ndarray) -> T.Tensor:
    """One transformer block as one autodiff node over the block input and
    its 12 parameters: `_block_infer`'s forward and a closed-form backward.
    Every weight gradient is one 2-D GEMM over the B * S rows."""
    names = [f"{prefix}.{n}" for n, _ in _block_param_shapes(p.config)]
    params = [p[n] for n in names]
    arr = {n: t.data for n, t in zip(names, params)}
    ln1_g, _, w_qkv, _, w_o, _, ln2_g, _, w_fc1, _, w_fc2, _ = arr.values()
    s = {}
    out = T.Tensor(_block_infer(arr, prefix, x.data, p.config.num_attn_heads,
                                bias, saved=s), (x, *params))

    def bw(dy):
        B, S, D = dy.shape
        one = dy.dtype.type

        def rows(a):
            return a.reshape(B * S, -1)

        dy = rows(dy)
        # MLP: y = x1 + gelu(u) @ w_fc2 + b_fc2, u = ln2(x1) @ w_fc1 + b_fc1
        d_wfc2 = rows(s["gl"]).T @ dy
        u, t = rows(s["u"]), rows(s["t"])
        dt = (1.0 - t * t) * one(_GELU_C) * (1.0 + 3.0 * one(_GELU_K) * u * u)
        du = (dy @ w_fc2.T) * (0.5 * (1.0 + t) + 0.5 * u * dt)
        d_wfc1 = rows(s["h2"]).T @ du
        dx, d_ln2g, d_ln2b = _ln_backward(du @ w_fc1.T, rows(s["xhat2"]),
                                          rows(s["std2"]), ln2_g)
        dx += dy
        # attention: x1 = x + att @ w_o + b_o
        d_wo = rows(s["att"]).T @ dx
        H = p.config.num_attn_heads
        datt = (dx @ w_o.T).reshape(B, S, H, D // H).transpose(0, 2, 1, 3)
        prob, k, v = s["p"], s["k"], s["v"]
        dv = prob.swapaxes(-1, -2) @ datt
        ds = datt @ v.swapaxes(-1, -2)  # d prob, then d scores in place
        ds -= (ds * prob).sum(axis=-1, keepdims=True)
        ds *= prob
        dqkv = np.empty((B, S, 3, H, D // H), dtype=dy.dtype)
        heads = dqkv.transpose(2, 0, 3, 1, 4)
        heads[0] = (ds @ k) * one(1.0 / math.sqrt(D // H))
        heads[1] = ds.swapaxes(-1, -2) @ s["qs"]
        heads[2] = dv
        dqkv = rows(dqkv)
        d_wqkv = rows(s["h1"]).T @ dqkv
        dx0, d_ln1g, d_ln1b = _ln_backward(dqkv @ w_qkv.T, rows(s["xhat1"]),
                                           rows(s["std1"]), ln1_g)
        dx0 += dx
        grads = (d_ln1g, d_ln1b, d_wqkv, dqkv.sum(axis=0), d_wo,
                 dx.sum(axis=0), d_ln2g, d_ln2b, d_wfc1, du.sum(axis=0),
                 d_wfc2, dy.sum(axis=0))
        for param, g in zip(params, grads):
            T._acc(param, g)
        T._acc(x, dx0.reshape(B, S, D))

    out._backward = bw
    return out


class _SequenceLayout:
    """Where each grid position sits in the flattened sequence, and which
    slot predicts which through which head.  Built once per shape, mode and
    axis->head map, and shared read-only by training, evaluation and
    generation.

    step: each position's wavefront, the sum of its coordinates (its
    Manhattan distance from the origin) in neighbor mode and its raster
    index in raster mode.  Slot 0 is the condition; slots 1..N hold the
    positions sorted stably by step, which in neighbor mode is the
    schedule's (distance, lexicographic) order.
    order, raster_idx, coords: the positions of slots 1..N, their raster
    indices and their per-axis coordinates.  `mask` lets a slot see every
    slot of an earlier or equal step; `bias` is its additive form.
    src, axis, head, tgt: one entry per route (source slot, grid axis,
    decoding head, target slot).  Neighbor routes are grid.target_table's
    in its (source slot, axis) order: the condition predicts the origin
    along every axis, then each slot its next in-bounds neighbour along
    each axis.  That order fixes the order of the loss's sum and, under a
    shared head, of its gradient's scatter-add, so it must not change.  In
    raster mode slot i predicts slot i + 1 along no single axis (axis -1).
    by_head: per decoding head, its (src, tgt) routes in the same order.
    `axis_src` is the same neighbor-mode routes as one dense table.
    """

    def __init__(self, shape: GridShape, mode: str,
                 axis_heads: tuple[int, ...]):
        dims, n = shape.dims, shape.num_tokens
        coords = np.indices(dims).reshape(len(dims), n)
        wave = np.arange(n) if mode == RASTER else coords.sum(axis=0)
        self.raster_idx = np.argsort(wave, kind="stable")
        coords = coords[:, self.raster_idx]
        self.coords, self.step = list(coords), wave[self.raster_idx]
        self.order = tuple(zip(*coords.tolist()))
        if mode == RASTER:
            slots = np.arange(n + 1)
            self.src, self.tgt = slots[:-1], slots[1:]
            self.axis = np.full(n, -1)
        else:
            slot_of = np.empty(n, dtype=np.int64)
            slot_of[self.raster_idx] = np.arange(1, n + 1)
            # (slot - 1, axis) of every in-bounds successor; nonzero scans
            # row-major, so by slot, then axis
            pos, axis = np.nonzero(coords.T + 1 < dims)
            succ = coords[:, pos] + np.eye(len(dims), dtype=np.int64)[:, axis]
            cond = np.arange(len(dims))  # condition -> origin (slot 1)
            self.src = np.concatenate([np.zeros_like(cond), pos + 1])
            self.axis = np.concatenate([cond, axis])
            self.tgt = np.concatenate([
                np.ones_like(cond), slot_of[np.ravel_multi_index(succ, dims)]])
        self.head = np.array(axis_heads)[self.axis]
        self.by_head = tuple(
            (self.src[self.head == h], self.tgt[self.head == h])
            for h in range(max(axis_heads) + 1))
        for a in (*self.coords, self.raster_idx, self.step, self.src,
                  self.axis, self.head, self.tgt,
                  *(a for pair in self.by_head for a in pair)):
            a.flags.writeable = False

    @functools.cached_property
    def mask(self) -> AttentionMask:
        """The wavefront mask, built on first use."""
        mask = _wavefront_mask(self.step)
        mask.allow.flags.writeable = False
        return mask

    @functools.cached_property
    def bias(self) -> np.ndarray:
        """`mask`'s additive float32 bias, built on first use."""
        bias = self.mask.bias()
        bias.flags.writeable = False
        return bias

    @functools.cached_property
    def axis_src(self) -> np.ndarray:
        """(axis, token slot t) int64 table, built on first use: the slot
        whose route along that axis predicts slot t + 1.  0 is the
        condition, which predicts the origin along every axis; -1 marks an
        axis with no route.  Neighbor mode only."""
        if self.axis[0] < 0:
            raise ValueError("raster routes follow no grid axis")
        table = np.full((len(self.coords), self.step.size), -1, dtype=np.int64)
        table[self.axis, self.tgt - 1] = self.src
        table.flags.writeable = False
        return table


@functools.lru_cache(maxsize=16)
def _cached_layout(shape: GridShape, mode: str, axis_heads: tuple[int, ...]):
    return _SequenceLayout(shape, mode, axis_heads)


def sequence_layout(cfg: ModelConfig, schedule: Schedule | None = None):
    """The shared, read-only layout of cfg's shape, mode and head map.

    `schedule`, if given, must be the schedule of cfg.shape.
    """
    if schedule is not None and schedule.shape != cfg.shape:
        raise ValueError(f"schedule shape {schedule.shape} != config "
                         f"{cfg.shape}")
    return _cached_layout(cfg.shape, cfg.mode, tuple(
        cfg.head_for_axis(a) for a in range(cfg.shape.ndim)))


def _embed_train(p: ModelParams, layout: _SequenceLayout,
                 tokens_in_order: np.ndarray, class_ids: np.ndarray) -> T.Tensor:
    cfg = p.config
    B = tokens_in_order.shape[0]
    tok = T.embedding(p["tok_emb"], tokens_in_order)  # (B, N, D)
    pos = T.embedding(p[f"pos0"], layout.coords[0])
    for a in range(1, cfg.shape.ndim):
        pos = T.add(pos, T.embedding(p[f"pos{a}"], layout.coords[a]))
    tok = T.add(tok, pos)
    cond = T.add(T.embedding(p["cls_emb"], class_ids), p["cond_pos"])
    cond = T.reshape(cond, (B, 1, cfg.embed_dim))
    return T.concat([cond, tok], axis=1)


def _backbone_and_heads(p: ModelParams, x: T.Tensor,
                        bias: np.ndarray) -> list[T.Tensor]:
    """Run backbone then every decoding head; return per-head logits."""
    cfg = p.config
    for i in range(cfg.num_blocks):
        x = _block_node(p, f"bb{i}", x, bias)
    logits = []
    for h in range(cfg.num_decode_heads):
        y = _block_node(p, f"head{h}", x, bias)
        y = T.layernorm(y, p[f"head{h}.lnf_g"], p[f"head{h}.lnf_b"])
        logits.append(T.add(T.matmul(y, p[f"head{h}.w_out"]),
                            p[f"head{h}.b_out"]))
    return logits


def forward_train(p: ModelParams, grids: np.ndarray, class_ids: np.ndarray,
                  schedule: Schedule, mask: AttentionMask):
    """Training loss for "neighbor" mode over a batch of grids.

    grids: (B, *shape.dims) int token grids; class_ids: (B,).  Returns
    (per-head logits (B, S, vocab), scalar loss).  The loss is the uniform
    mean of cross-entropy over every (source, axis) route in the target
    table, including the condition->origin routes, across the batch.
    """
    if p.config.mode != NEIGHBOR:
        raise ValueError("forward_train requires neighbor mode")
    layout = sequence_layout(p.config, schedule)
    if not np.array_equal(mask.allow, layout.mask.allow):
        raise ValueError("mask does not belong to the model's schedule")
    return _forward_routed(p, grids, class_ids, layout)


def raster_forward_train(p: ModelParams, grids: np.ndarray,
                         class_ids: np.ndarray):
    """Causal next-token loss for the raster baseline; one term per token."""
    cfg = p.config
    if cfg.mode != RASTER:
        raise ValueError("raster_forward_train requires raster mode")
    return _forward_routed(p, grids, class_ids, sequence_layout(cfg))


def check_batch(cfg: ModelConfig, grids: np.ndarray,
                class_ids: np.ndarray) -> None:
    """Raise ValueError unless `grids` is a (B, *cfg.shape.dims) batch of
    token ids in [0, vocab) and every class id is a class of cfg or its
    null class."""
    if grids.shape[1:] != cfg.shape.dims:
        raise ValueError(f"grid shape {grids.shape[1:]} != config {cfg.shape.dims}")
    if np.any(grids < 0) or np.any(grids >= cfg.vocab_size):
        raise ValueError("token id out of range")
    if np.any(class_ids < 0) or np.any(class_ids > cfg.null_class):
        raise ValueError("class id out of range")


def _forward_routed(p: ModelParams, grids, class_ids,
                    layout: _SequenceLayout):
    """Embed, run backbone and heads under the layout's mask, and average
    the cross-entropy over the layout's routes, head by head."""
    cfg = p.config
    grids = np.asarray(grids)
    class_ids = np.asarray(class_ids)
    if grids.ndim == cfg.shape.ndim:
        grids = grids[None]
        class_ids = np.atleast_1d(class_ids)
    check_batch(cfg, grids, class_ids)
    tokens = grids.reshape(grids.shape[0], -1)[:, layout.raster_idx]
    x = _embed_train(p, layout, tokens, class_ids)
    logits = _backbone_and_heads(p, x, layout.bias)
    parts, targets = [], []
    for h, (src, tgt) in enumerate(layout.by_head):
        sel = T.take(logits[h], src, axis=1)  # (B, routes, V)
        parts.append(T.reshape(sel, (-1, cfg.vocab_size)))
        targets.append(tokens[:, tgt - 1].reshape(-1))
    stacked = T.concat(parts, axis=0) if len(parts) > 1 else parts[0]
    return logits, T.cross_entropy(stacked, np.concatenate(targets))


# ---------------------------------------------------------------------------
# inference (plain numpy, KV cache)
# ---------------------------------------------------------------------------


class KVCache:
    """Preallocated per-block key/value buffers for one generation.

    A generation feeds at most `capacity` slots (condition + every token),
    so each block's buffers are allocated once, at its first pass, and every
    pass writes its new slots in place after the `length` already filled.
    `filled` counts the slots each block has written; it must equal `length`
    between passes.  Keys are stored transposed, (rows, heads, head_dim,
    capacity), so the score product reads a row-major prefix.
    """

    def __init__(self, num_layers: int, capacity: int):
        self.capacity = capacity
        self.keys: list[np.ndarray | None] = [None] * num_layers
        self.values: list[np.ndarray | None] = [None] * num_layers
        self.filled = [0] * num_layers
        self.length = 0

    @classmethod
    def empty(cls, cfg: ModelConfig) -> "KVCache":
        return cls(cfg.num_blocks + cfg.num_decode_heads,
                   cfg.shape.num_tokens + 1)

    def append(self, layer: int, k: np.ndarray, v: np.ndarray):
        """Write new (rows, heads, m, head_dim) keys and values for one
        layer; return views of that layer's filled prefix: the transposed
        keys (rows, heads, head_dim, filled) and the values."""
        if self.keys[layer] is None:
            rows, heads, _, dh = k.shape
            self.keys[layer] = np.empty((rows, heads, dh, self.capacity),
                                        dtype=k.dtype)
            self.values[layer] = np.empty((rows, heads, self.capacity, dh),
                                          dtype=v.dtype)
        start = self.filled[layer]
        end = start + k.shape[2]
        self.keys[layer][..., start:end] = k.swapaxes(-1, -2)
        self.values[layer][:, :, start:end] = v
        self.filled[layer] = end
        return self.keys[layer][..., :end], self.values[layer][:, :, :end]


_GELU_C = math.sqrt(2.0 / math.pi)  # tanh-approximation GELU constants
_GELU_K = 0.044715


def _normalize(x):
    """x normalised over its last axis (eps 1e-5), and the std divided by."""
    # sum / n rounds exactly as x.mean() does, without its Python wrapper
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    std = np.sqrt((xc * xc).sum(axis=-1, keepdims=True) / n
                  + x.dtype.type(1e-5))
    return xc / std, std


def _block_infer(arr, prefix, x, n_heads, bias=None, cache=None, layer=0,
                 saved=None):
    """One block over m new slots: x + attn(ln(x)), then x + mlp(ln(x)).

    With a cache, the slots are appended to layer `layer` and attend to the
    filled prefix; without one they attend to each other.  Attention is
    unmasked unless an explicit additive `bias` over those keys is given.
    A `saved` dict (training, no cache) receives the activations that
    `_block_node`'s backward reads.
    """
    B, m, D = x.shape
    dh = D // n_heads
    one = x.dtype.type
    # names are rebound as the block goes, so inference frees each
    # activation once it is used
    keep = (lambda **_: None) if saved is None else saved.update
    xhat, std = _normalize(x)
    h = xhat * arr[f"{prefix}.ln1_g"] + arr[f"{prefix}.ln1_b"]
    keep(xhat1=xhat, std1=std, h1=h)
    qkv = h @ arr[f"{prefix}.w_qkv"] + arr[f"{prefix}.b_qkv"]
    qkv = qkv.reshape(B, m, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]
    kt, v = (k.swapaxes(-1, -2), v) if cache is None else \
        cache.append(layer, k, v)
    # scaling q and normalising the (m, dh) output leave the scores four
    # passes: product, max, shift-and-exp, sum
    q = q * one(1.0 / math.sqrt(dh))
    scores = q @ kt
    if bias is not None:
        scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    att = scores @ v
    den = scores.sum(axis=-1, keepdims=True)
    att /= den
    att = att.transpose(0, 2, 1, 3).reshape(B, m, D)
    if saved is not None:
        scores /= den  # the attention probabilities
    keep(qs=q, k=k, v=v, p=scores, att=att)
    x = x + att @ arr[f"{prefix}.w_o"] + arr[f"{prefix}.b_o"]
    xhat, std = _normalize(x)
    h = xhat * arr[f"{prefix}.ln2_g"] + arr[f"{prefix}.ln2_b"]
    keep(xhat2=xhat, std2=std, h2=h)
    h = h @ arr[f"{prefix}.w_fc1"] + arr[f"{prefix}.b_fc1"]
    t = np.tanh(one(_GELU_C) * (h + one(_GELU_K) * (h * h * h)))
    keep(u=h, t=t)
    h = 0.5 * h * (1.0 + t)
    keep(gl=h)
    return x + h @ arr[f"{prefix}.w_fc2"] + arr[f"{prefix}.b_fc2"]


def _infer_blocks(arr, cfg: ModelConfig, x, bias=None, cache=None):
    """Backbone then every decoding head; return per-head logits."""
    n_heads = cfg.num_attn_heads
    for i in range(cfg.num_blocks):
        x = _block_infer(arr, f"bb{i}", x, n_heads, bias, cache, i)
    logits = []
    for h in range(cfg.num_decode_heads):
        y = _block_infer(arr, f"head{h}", x, n_heads, bias, cache,
                         cfg.num_blocks + h)
        y = _normalize(y)[0] * arr[f"head{h}.lnf_g"] + arr[f"head{h}.lnf_b"]
        logits.append(y @ arr[f"head{h}.w_out"] + arr[f"head{h}.b_out"])
    return logits


def embed_condition(p: ModelParams, class_ids: np.ndarray) -> np.ndarray:
    arr = p.arrays()
    return (arr["cls_emb"][np.asarray(class_ids)] + arr["cond_pos"])[:, None, :]


def embed_tokens(p: ModelParams, token_ids: np.ndarray,
                 positions: list) -> np.ndarray:
    """Embeddings for token ids at explicit grid positions: (B, m, D)."""
    arr = p.arrays()
    e = arr["tok_emb"][np.asarray(token_ids)]
    for a, coords in enumerate(np.array(positions, dtype=np.int64).T):
        e = e + arr[f"pos{a}"][coords]
    return e


def forward_incremental(p: ModelParams, new_embeds: np.ndarray,
                        cache: KVCache) -> list[np.ndarray]:
    """Process m new slots against the cache; return per-head logits.

    new_embeds: (B, m, D), all slots belonging to one schedule step;
    attention is bidirectional among them and causal to the cache, so no
    mask is needed.  Extends the cache; raises ValueError if its
    bookkeeping is out of step or the new slots would pass its capacity.
    """
    cfg = p.config
    if new_embeds.ndim != 3 or new_embeds.shape[1] == 0:
        raise ValueError("need at least one new slot of shape (B, m, D)")
    if any(n != cache.length for n in cache.filled):
        raise ValueError("cache desync: slot count mismatch")
    m = new_embeds.shape[1]
    if cache.length + m > cache.capacity:
        raise ValueError(f"cache overflow: {cache.length} + {m} slots "
                         f"exceed capacity {cache.capacity}")
    if cache.keys[0] is not None and \
            cache.keys[0].shape[0] != new_embeds.shape[0]:
        raise ValueError("row count differs from the cached rows")
    logits = _infer_blocks(p.arrays(), cfg, new_embeds.astype(np.float32),
                           cache=cache)
    cache.length += m
    return logits


def infer_logits(p: ModelParams, tokens_in_order: np.ndarray,
                 class_ids: np.ndarray, mask: AttentionMask,
                 layout=None) -> list[np.ndarray]:
    """Full-sequence no-grad forward; per-head logits (B, S, vocab).

    Used for evaluation and as the full-recompute oracle against the KV
    cache path.
    """
    layout = layout or sequence_layout(p.config)
    x = np.concatenate([embed_condition(p, class_ids),
                        embed_tokens(p, tokens_in_order, layout.order)], axis=1)
    bias = layout.bias if mask is layout.mask else mask.bias()
    return _infer_blocks(p.arrays(), p.config, x, bias)


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

class CheckpointError(RuntimeError):
    """Corrupt or mismatched checkpoint file."""


def save_checkpoint(p: ModelParams, path) -> None:
    """NARCKPT2 | u32 config length | config JSON | f32 LE tensors | CRC-32.

    The u32 little-endian CRC-32 covers everything between magic and
    trailer.
    """
    cfg_bytes = p.config.to_json().encode("utf-8")
    parts = [len(cfg_bytes).to_bytes(4, "little"), cfg_bytes]
    parts += [p[name].data.astype("<f4").tobytes()
              for name, _ in param_shapes(p.config)]
    payload = b"".join(parts)
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC)
        f.write(payload)
        f.write(zlib.crc32(payload).to_bytes(4, "little"))


def load_checkpoint(path) -> ModelParams:
    """Read a NARCKPT2 file."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(CKPT_MAGIC):
        raise CheckpointError("not a checkpoint file (bad magic)")
    if len(blob) < len(CKPT_MAGIC) + 8:
        raise CheckpointError("truncated checkpoint file")
    payload = memoryview(blob)[len(CKPT_MAGIC):-4]
    if zlib.crc32(payload) != int.from_bytes(blob[-4:], "little"):
        raise CheckpointError("checksum mismatch")
    cfg_len = int.from_bytes(payload[:4], "little")
    try:
        cfg = ModelConfig.from_json(bytes(payload[4:4 + cfg_len]).decode("utf-8"))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"bad config: {e!r}") from None
    offset = 4 + cfg_len
    tensors = {}
    for name, shape in param_shapes(cfg):
        nbytes = math.prod(shape) * 4
        raw = payload[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointError("truncated tensor data")
        tensors[name] = T.Tensor(
            np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        )
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError("trailing bytes after tensors")
    return ModelParams(config=cfg, tensors=tensors)
