"""Minimal reverse-mode autodiff over dense numpy arrays.

Just enough for a decoder-only transformer: matmul, embedding lookup, layer
norm, GELU, masked scaled-dot-product attention, softmax cross-entropy, and
an Adam optimizer.  Storage defaults to float32; gradient-checking utilities
run the same graphs in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Tensor:
    """A node in the computation graph wrapping a numpy array."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self):
        """Reverse-accumulate gradients from this scalar node."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        # Depth-first post-order, parents first, built without recursion:
        # a closure that calls itself forms a reference cycle that keeps
        # the whole graph alive until the cyclic collector runs.
        topo, seen = [], set()
        stack = [(self, False)]
        while stack:
            t, parents_done = stack.pop()
            if parents_done:
                topo.append(t)
            elif id(t) not in seen:
                seen.add(id(t))
                stack.append((t, True))
                stack.extend((p, False) for p in reversed(t._parents))
        for t in topo:
            t.grad = None
        self.grad = np.ones_like(self.data)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)


def _acc(t: Tensor, g: np.ndarray) -> None:
    """Lazily accumulate a gradient contribution into t.grad.  The first
    one is stored as is, so `g` must be a fresh array nothing else holds."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _acc_view(t: Tensor, g: np.ndarray) -> None:
    """`_acc` for a contribution that may be a view of another gradient."""
    _acc(t, g.copy() if t.grad is None else g)


def _ensure_grad(t: Tensor) -> np.ndarray:
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    return t.grad


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, (a, b))

    def bw(g):
        _acc_view(a, _unbroadcast(g, a.data.shape))
        _acc_view(b, _unbroadcast(g, b.data.shape))

    out._backward = bw
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * a.data.dtype.type(s), (a,))

    def bw(g):
        _acc(a, g * a.data.dtype.type(s))

    out._backward = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiply with numpy broadcasting on leading dims.

    A 2-D `b` (a weight) under a batched `a` runs as one 2-D GEMM over all
    leading rows, forward and backward, so its gradient needs no batched
    product and no sum over the batch.
    """
    if b.data.ndim == 2 and a.data.ndim > 2:
        lead = a.data.shape[:-1]
        out = Tensor((a.data.reshape(-1, b.data.shape[0]) @ b.data)
                     .reshape(lead + b.data.shape[1:]), (a, b))

        def bw2d(g):
            a2 = a.data.reshape(-1, b.data.shape[0])
            g2 = g.reshape(a2.shape[0], -1)
            _acc(a, (g2 @ b.data.T).reshape(a.data.shape))
            _acc(b, a2.T @ g2)

        out._backward = bw2d
        return out

    out = Tensor(a.data @ b.data, (a, b))

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        _acc(a, _unbroadcast(ga, a.data.shape))
        _acc(b, _unbroadcast(gb, b.data.shape))

    out._backward = bw
    return out


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup table[ids]; gradients scatter-add into the table."""
    ids = np.asarray(ids)
    out = Tensor(table.data[ids], (table,))

    def bw(g):
        np.add.at(_ensure_grad(table), ids, g)

    out._backward = bw
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), (a,))

    def bw(g):
        _acc_view(a, g.reshape(a.data.shape))

    out._backward = bw
    return out


def transpose(a: Tensor, axes) -> Tensor:
    out = Tensor(np.transpose(a.data, axes), (a,))
    inv = np.argsort(axes)

    def bw(g):
        _acc_view(a, np.transpose(g, inv))

    out._backward = bw
    return out


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                 tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, gi in zip(tensors, np.split(g, splits, axis=axis)):
            _acc_view(t, gi)

    out._backward = bw
    return out


def take(a: Tensor, idx: np.ndarray, axis: int) -> Tensor:
    """Select slices along an axis; backward scatter-adds.

    A 0-d index selects one slice, which its backward adds into directly;
    an array index may repeat, so it scatters with `np.add.at`.
    """
    idx = np.asarray(idx)
    out = Tensor(np.take(a.data, idx, axis=axis), (a,))

    def bw(g):
        # move target axis to front for indexing
        acc_m = np.moveaxis(_ensure_grad(a), axis, 0)
        if idx.ndim == 0:
            acc_m[idx] += g
        else:
            np.add.at(acc_m, idx, np.moveaxis(g, axis, 0))

    out._backward = bw
    return out


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    x = a.data
    c = x.dtype.type(math.sqrt(2.0 / math.pi))
    k = x.dtype.type(0.044715)
    inner = c * (x + k * (x * x * x))
    t = np.tanh(inner)
    out = Tensor(x.dtype.type(0.5) * x * (1.0 + t), (a,))

    def bw(g):
        dt = (1.0 - t * t) * c * (1.0 + 3.0 * k * x * x)
        _acc(a, g * (0.5 * (1.0 + t) + 0.5 * x * dt).astype(x.dtype))

    out._backward = bw
    return out


def layernorm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then apply affine gamma/beta."""
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data, (a, gamma, beta))
    n = x.shape[-1]

    def bw(g):
        gg = g * gamma.data
        _acc(gamma, _unbroadcast(g * xhat, gamma.data.shape))
        _acc_view(beta, _unbroadcast(g, beta.data.shape))
        # d/dx of (x - mu) * inv
        gsum = gg.sum(axis=-1, keepdims=True)
        gxhat = (gg * xhat).sum(axis=-1, keepdims=True)
        _acc(a, (inv * (gg - gsum / n - xhat * gxhat / n)).astype(x.dtype))

    out._backward = bw
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis."""
    x = a.data
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, (a,))

    def bw(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _acc(a, (s * (g - dot)).astype(x.dtype))

    out._backward = bw
    return out


def masked_attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray) -> Tensor:
    """softmax(q k^T / sqrt(head_dim) + bias) v.

    q, k, v: (..., heads, seq_q/seq_k, head_dim); bias: additive float mask
    broadcastable to (seq_q, seq_k), 0 where allowed and a large negative
    where not.  Raises if any query row has every key disallowed.
    """
    if q.data.shape[-1] != k.data.shape[-1] or k.data.shape[-2] != v.data.shape[-2]:
        raise ValueError("attention shape mismatch")
    if np.any(np.asarray(bias).max(axis=-1) < -1e8):
        raise ValueError("attention mask row with no allowed key")
    dh = q.data.shape[-1]
    scores = matmul(q, transpose(k, _swap_last2(k.data.ndim)))
    scores = scale(scores, 1.0 / math.sqrt(dh))
    scores = add(scores, Tensor(np.asarray(bias, dtype=q.data.dtype)))
    att = softmax(scores)
    return matmul(att, v)


def _swap_last2(ndim):
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return tuple(axes)


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  weights: np.ndarray | None = None) -> Tensor:
    """Weighted mean of -log softmax(logits)[target].

    logits: (terms, vocab); targets: int ids in [0, vocab); weights: per-term
    non-negative scalars, normalized to sum 1 (uniform if omitted).
    """
    x = logits.data
    targets = np.asarray(targets)
    n, vocab = x.shape
    if targets.shape != (n,):
        raise ValueError("targets must be one id per logits row")
    if np.any(targets < 0) or np.any(targets >= vocab):
        raise ValueError("target id out of vocabulary range")
    if weights is None:
        w = np.full(n, 1.0 / n, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        w = w / w.sum()
    m = x.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    logp = x - lse
    rows = np.arange(n)
    loss = -(w * logp[rows, targets].astype(np.float64)).sum()
    out = Tensor(np.asarray(loss, dtype=x.dtype), (logits,))
    p = np.exp(logp)

    def bw(g):
        gl = p * w[:, None]
        gl[rows, targets] -= w
        _acc(logits, (float(g) * gl).astype(x.dtype))

    out._backward = bw
    return out


@dataclass
class AdamState:
    """First/second-moment accumulators and step counter for Adam."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


class NonFiniteError(ValueError):
    """A computation produced NaN or Inf: the weights or the run diverged,
    not the way the program was called."""


class NonFiniteGradient(NonFiniteError, RuntimeError):
    """A gradient contained NaN or Inf; the step was rejected."""


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """Standard Adam update with bias correction, in place.

    Rejects the whole step (params and state untouched) if any gradient is
    non-finite.  Overflow in the moments or weights is left silent: the
    training loop's loss and eval checks report it.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient for {name!r}")
    if not state.m:
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data, dtype=np.float32)
            state.v[name] = np.zeros_like(p.data, dtype=np.float32)
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    # two rows, each the size of the largest parameter, hold every temporary
    size = max((m.size for m in state.m.values()), default=0)
    scratch = np.empty((2, size), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = grads[name]
            m = state.m[name]
            v = state.v[name]
            a, b = (row[:m.size].reshape(m.shape) for row in scratch)
            m *= beta1
            m += np.multiply(g, 1.0 - beta1, out=a)
            v *= beta2
            np.multiply(g, 1.0 - beta2, out=a)
            v += np.multiply(a, g, out=a)
            # lr * (m / c1) / (sqrt(v / c2) + eps)
            np.sqrt(np.divide(v, c2, out=a), out=a)
            a += eps
            np.multiply(np.divide(m, c1, out=b), lr, out=b)
            p.data -= np.divide(b, a, out=b)


def grad_check(loss_fn, params: dict[str, Tensor], n_samples: int = 64,
               eps: float = 1e-5, seed: int = 0) -> float:
    """Compare analytic gradients against central differences in float64.

    loss_fn(params) must rebuild the scalar loss graph from the given
    parameter dict.  Samples coordinates uniformly across all parameters and
    returns the max relative error |analytic - numeric| / max(1, |numeric|).
    """
    if not (1e-6 <= eps <= 1e-3):
        raise ValueError("eps must lie in [1e-6, 1e-3]")
    p64 = {k: Tensor(v.data.astype(np.float64)) for k, v in params.items()}
    loss = loss_fn(p64)
    if loss.data.size != 1:
        raise ValueError("grad_check requires a scalar loss")
    loss.backward()
    analytic = {k: _ensure_grad(v).copy() for k, v in p64.items()}

    rng = np.random.default_rng(seed)
    sizes = {k: v.data.size for k, v in p64.items()}
    names = list(p64)
    total = sum(sizes.values())
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.cumsum([sizes[k] for k in names])

    worst = 0.0
    for flat in picks:
        i = int(np.searchsorted(offsets, flat, side="right"))
        name = names[i]
        j = int(flat - (offsets[i - 1] if i > 0 else 0))
        arr = p64[name].data.reshape(-1)
        orig = arr[j]
        arr[j] = orig + eps
        lp = float(loss_fn(p64).data.reshape(()))
        arr[j] = orig - eps
        lm = float(loss_fn(p64).data.reshape(()))
        arr[j] = orig
        numeric = (lp - lm) / (2.0 * eps)
        a = float(analytic[name].reshape(-1)[j])
        err = abs(a - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
