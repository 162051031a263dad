"""Desk-scale training loop, evaluation NLL, and the head ablation."""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import tensor as T
from .data import SyntheticSpec, gen_synthetic
from .grid import build_schedule
from .model import (NEIGHBOR, RASTER, ModelConfig, ModelParams, check_batch,
                    forward_train, infer_logits, init_model,
                    raster_forward_train, sequence_layout)
from .sample import log_softmax


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    data: SyntheticSpec
    batch_size: int = 8
    total_steps: int = 1000
    learning_rate: float = 1e-4
    warmup_steps: int = 100
    eval_interval: int = 200
    num_train_samples: int = 512
    num_eval_samples: int = 64
    uncond_prob: float = 0.1  # null-class substitution rate for CFG training
    seed: int = 0

    def __post_init__(self):
        for f in fields(self)[2:]:  # the scalars after model and data
            v = getattr(self, f.name)
            kinds = int if f.type == "int" else (int, float)
            if (isinstance(v, bool) or not isinstance(v, kinds)
                    or not abs(v) <= sys.float_info.max):
                raise ValueError(f"{f.name} must be a finite {f.type}")
        if min(self.batch_size, self.eval_interval, self.num_train_samples,
               self.num_eval_samples) < 1 or min(self.total_steps,
                                                 self.seed) < 0:
            raise ValueError("counts must be positive, steps and seed >= 0")
        data, model = self.data, self.model
        if data.shape != model.shape:
            raise ValueError(f"data.shape {list(data.shape.dims)} differs "
                             f"from model.shape {list(model.shape.dims)}")
        if data.vocab_size > model.vocab_size:
            raise ValueError(f"data.vocab_size {data.vocab_size} exceeds "
                             f"model.vocab_size {model.vocab_size}")
        if data.num_classes > model.num_classes:
            raise ValueError(f"data.num_classes {data.num_classes} exceeds "
                             f"model.num_classes {model.num_classes}")

    def to_json(self) -> str:
        d = asdict(self)
        d["model"] = json.loads(self.model.to_json())
        d["data"] = json.loads(self.data.to_json())
        return json.dumps(d, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        """Raises ValueError for any document that does not build a config."""
        try:
            d = json.loads(text)
            d["model"] = ModelConfig.from_json(json.dumps(d["model"]))
            d["data"] = SyntheticSpec.from_json(json.dumps(d["data"]))
            return cls(**d)
        except (AttributeError, KeyError, TypeError) as e:
            raise ValueError(repr(e)) from None


@dataclass
class MetricPoint:
    step: int
    train_loss: float | None  # None when no step ran
    eval_nll: float
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps({"step": self.step, "train_loss": self.train_loss,
                           "eval_nll": self.eval_nll, "wall_ms": self.wall_ms},
                          allow_nan=False)


# Train samples draw even generator seeds, eval samples odd: the partitions
# are disjoint by construction.


def make_dataset(spec: SyntheticSpec, num: int, split: str, rng):
    classes = rng.integers(0, spec.num_classes, size=num)
    offset = 0 if split == "train" else 1
    return [(gen_synthetic(spec, int(c), 2 * i + offset), int(c))
            for i, c in enumerate(classes)]


def _splits(config: TrainConfig):
    """(train set, eval set, rng): the splits `train_loop` trains and
    evaluates on, and the generator it then draws its batches from."""
    rng = np.random.default_rng([config.seed, 17])
    train_set = make_dataset(config.data, config.num_train_samples, "train", rng)
    eval_set = make_dataset(config.data, config.num_eval_samples, "eval", rng)
    return train_set, eval_set, rng


def train_loop(config: TrainConfig, log=None):
    """Train from scratch; returns (params, list of MetricPoint).

    Linear warmup then constant learning rate.  Identical for neighbor and
    raster modes.  Aborts on non-finite loss.  `log`, if given, receives one
    JSON line per metric point.
    """
    cfg = config.model
    params = init_model(cfg, seed=config.seed)
    schedule, mask = build_schedule(cfg.shape), sequence_layout(cfg).mask

    train_set, eval_set, rng = _splits(config)

    state = T.AdamState()
    metrics: list[MetricPoint] = []
    t_start = time.perf_counter()
    last_loss = None

    def record(step, loss_val):
        nll = eval_nll(params, eval_set)
        if not math.isfinite(nll):
            raise T.NonFiniteError(f"non-finite eval NLL {nll} at step {step}")
        point = MetricPoint(
            step=step, train_loss=loss_val, eval_nll=nll,
            wall_ms=(time.perf_counter() - t_start) * 1000)
        metrics.append(point)
        if log is not None:
            log(point.to_json())

    for step in range(config.total_steps):
        idx = rng.integers(0, len(train_set), size=config.batch_size)
        grids = np.stack([train_set[i][0] for i in idx])
        classes = np.array([train_set[i][1] for i in idx])
        if config.uncond_prob > 0:
            drop = rng.random(config.batch_size) < config.uncond_prob
            classes = np.where(drop, cfg.null_class, classes)
        if cfg.mode == RASTER:
            loss = raster_forward_train(params, grids, classes)[1]
        else:
            loss = forward_train(params, grids, classes, schedule, mask)[1]
        last_loss = float(loss.data)
        if not math.isfinite(last_loss):
            raise T.NonFiniteError(
                f"non-finite training loss {last_loss} at step {step}")
        loss.backward()
        # the graph and its gradients die here, not during the next forward
        del loss
        grads = {k: v.grad if v.grad is not None else np.zeros_like(v.data)
                 for k, v in params.tensors.items()}
        lr = config.learning_rate
        if config.warmup_steps > 0 and step < config.warmup_steps:
            lr *= (step + 1) / config.warmup_steps
        T.adam_step(params.tensors, grads, state, lr)
        if (step + 1) % config.eval_interval == 0:
            record(step + 1, last_loss)
    if not metrics or metrics[-1].step != config.total_steps:
        record(config.total_steps, last_loss)
    return params, metrics


_EVAL_SCORE_BYTES = 64 << 20  # cap on one chunk's attention scores


def _scored_chunks(params: ModelParams, layout, dataset, batch_size: int):
    """Yield (tokens in sequence order, per-head logits) for `dataset` in
    chunks of at most `batch_size` rows, fewer (but at least one) where the
    (rows, attention heads, S, S) float32 scores would pass
    _EVAL_SCORE_BYTES."""
    if not dataset:
        raise ValueError("empty dataset")
    seq = layout.step.size + 1
    row_bytes = params.config.num_attn_heads * seq * seq * 4
    rows = max(1, min(batch_size, _EVAL_SCORE_BYTES // row_bytes))
    for start in range(0, len(dataset), rows):
        chunk = dataset[start:start + rows]
        grids = np.stack([g for g, _ in chunk])
        classes = np.array([c for _, c in chunk])
        check_batch(params.config, grids, classes)
        tokens = grids.reshape(len(chunk), -1)[:, layout.raster_idx]
        yield tokens, infer_logits(params, tokens, classes, layout.mask,
                                   layout)


def eval_nll(params: ModelParams, dataset, batch_size: int = 16) -> float:
    """Mean cross-entropy in nats per predicted target.

    Per target-table route for neighbor mode, per token for raster mode.
    Accumulates in float64, so the result is independent of batch size.
    """
    layout = sequence_layout(params.config)
    total = 0.0
    terms = 0
    for tokens, logits in _scored_chunks(params, layout, dataset, batch_size):
        rows = np.arange(len(tokens))[:, None]
        for h, (src, tgt) in enumerate(layout.by_head):
            lp = log_softmax(logits[h][:, src, :].astype(np.float64))
            tok = tokens[:, tgt - 1]
            total -= lp[rows, np.arange(len(src))[None, :], tok].sum()
            terms += tok.size
    return total / terms


def overlap_nll(params: ModelParams, dataset, batch_size: int = 16):
    """NLL restricted to overlapped targets (a predecessor on every axis).

    Returns {"mixed": nll, "per_axis": [nll per axis head]}, where "mixed"
    renormalizes the log-domain mean of the contributions and each per-axis
    entry decodes the overlapped target from that single head alone.
    """
    cfg = params.config
    if cfg.mode != NEIGHBOR:
        raise ValueError("overlap evaluation requires neighbor mode")
    layout = sequence_layout(cfg)
    ndim = cfg.shape.ndim

    tgt_arr, src_by_axis = _overlapped_targets(layout)
    if tgt_arr.size == 0:
        raise ValueError("grid has no overlapped targets")

    total_mixed = 0.0
    total_axis = np.zeros(ndim)
    terms = 0
    for tokens, logits in _scored_chunks(params, layout, dataset, batch_size):
        tok = tokens[:, tgt_arr - 1]
        rows = np.arange(len(tokens))[:, None]
        cols = np.arange(tgt_arr.size)[None, :]
        lps = []
        for a in range(ndim):
            lp = log_softmax(
                logits[cfg.head_for_axis(a)][:, src_by_axis[a], :]
                .astype(np.float64))
            lps.append(lp)
            total_axis[a] -= lp[rows, cols, tok].sum()
        mixed = log_softmax(sum(lps) / ndim)
        total_mixed -= mixed[rows, cols, tok].sum()
        terms += tok.size
    return {"mixed": total_mixed / terms,
            "per_axis": list(total_axis / terms)}


def _overlapped_targets(layout):
    """Target slots with a non-condition route on every axis, ascending,
    and their source slots as an (axis, target) array."""
    targets = np.flatnonzero((layout.axis_src > 0).all(axis=0)) + 1
    return targets, layout.axis_src[:, targets - 1]


def ablate_single_head(config: TrainConfig, log=None):
    """Train dimension-oriented heads vs one shared head at equal budget.

    Returns {"dimension_heads": nll, "single_head": nll} plus the metric
    traces for both runs.
    """
    if config.model.mode != NEIGHBOR:
        raise ValueError("ablation requires a neighbor-mode config")
    _, eval_set, _ = _splits(config)
    results = {}
    traces = {}
    for name, shared in (("dimension_heads", False), ("single_head", True)):
        run_cfg = replace(config,
                          model=replace(config.model, shared_head=shared))
        params, metrics = train_loop(run_cfg, log=log)
        results[name] = eval_nll(params, eval_set)
        traces[name] = metrics
    return results, traces

