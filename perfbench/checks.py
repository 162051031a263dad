"""Output checks computed apart from the program.

Every function here raises CheckError when an output is wrong.  The checks
read the `.tokens` format themselves, sort grid positions by Manhattan
distance themselves, and replay generated grids through the autodiff
forward (`neighborgen.model.forward_train` / `raster_forward_train`), which
shares no code with the KV-cached inference path that produced them.
Guidance and mixing are applied here, not by `neighborgen.sample`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOKENS_MAGIC = b"NARTOK1\x00"

# Largest log-probability gap between the replay and the KV-cached path that
# still counts as a tie.  Both run in float32; they differed by at most
# 1.5e-5 on one grid per generation workload.
TIE_TOL = 1e-3


class CheckError(AssertionError):
    """A benchmark output failed a correctness check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_tokens(path, dims, vocab_size) -> np.ndarray:
    """Parse a `.tokens` file: magic, u32 ndim, u32 dims, u16 LE payload."""
    with open(path, "rb") as f:
        blob = f.read()
    require(blob.startswith(TOKENS_MAGIC), f"{path}: bad magic")
    off = len(TOKENS_MAGIC)
    ndim = int.from_bytes(blob[off:off + 4], "little")
    require(ndim == len(dims), f"{path}: ndim {ndim} != {len(dims)}")
    got = tuple(int.from_bytes(blob[off + 4 + 4 * a:off + 8 + 4 * a], "little")
                for a in range(ndim))
    require(got == tuple(dims), f"{path}: shape {got} != {tuple(dims)}")
    payload = blob[off + 4 + 4 * ndim:]
    n = math.prod(dims)
    require(len(payload) == 2 * n, f"{path}: payload is {len(payload)} bytes")
    grid = np.frombuffer(payload, dtype="<u2").reshape(dims).astype(np.int64)
    require(int(grid.max()) < vocab_size,
            f"{path}: token id {int(grid.max())} >= vocab {vocab_size}")
    return grid


def near_to_far_order(dims) -> list[tuple[int, ...]]:
    """All positions sorted by (Manhattan distance from the origin, coords)."""
    return sorted(itertools.product(*map(range, dims)),
                  key=lambda p: (sum(p), p))


def expected_passes(dims, mode: str) -> int:
    """Forward passes per grid: one per distinct distance, or per token."""
    if mode == "raster":
        return math.prod(dims)
    passes = len({sum(p) for p in near_to_far_order(dims)})
    require(passes == sum(dims) - len(dims) + 1, "closed form disagrees")
    return passes


def check_count(name: str, got, expected) -> None:
    require(got == expected, f"{name}: {got} != expected {expected}")


def check_mask(mask, order) -> None:
    """The program's mask: condition sees itself; tokens see the condition
    and every token at an earlier-or-equal distance."""
    dist = np.array([sum(p) for p in order])
    allow = np.zeros((len(order) + 1,) * 2, dtype=bool)
    allow[:, 0] = True
    allow[1:, 1:] = dist[None, :] <= dist[:, None]
    require(np.array_equal(np.asarray(mask.allow), allow),
            "attention mask differs from the near-to-far definition")


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _replay_rows(params, grid, class_ids, forward):
    """Per-head logits (S, V) in float64 for each class row, one row at a
    time so that only one autodiff graph is alive."""
    rows = []
    for c in class_ids:
        logits = forward(params, grid[None], np.array([c]))
        rows.append([np.asarray(t.data[0], dtype=np.float64) for t in logits])
        del logits
    return rows


def _guided(rows, head: int, cfg_scale: float) -> np.ndarray:
    if len(rows) == 1:
        return rows[0][head]
    cond, uncond = rows[0][head], rows[1][head]
    return uncond + cfg_scale * (cond - uncond)


def replay_distributions(params, grid, class_id: int, cfg_scale: float):
    """Guided, mixed log-distributions of every position, from the autodiff
    path.  Returns (tokens, scores), both in decode order; `scores[i]` is the
    unnormalised log-distribution the sampler drew token i from."""
    from neighborgen.grid import build_mask, build_schedule
    from neighborgen.model import NEIGHBOR, forward_train, raster_forward_train

    cfg = params.config
    dims = cfg.shape.dims
    class_ids = [class_id] if cfg_scale == 1.0 else [class_id, cfg.null_class]
    if cfg.mode != NEIGHBOR:
        order = list(itertools.product(*map(range, dims)))
        rows = _replay_rows(params, grid, class_ids,
                            lambda p, g, c: raster_forward_train(p, g, c)[0])
        # slot i (slot 0 is the condition) predicts raster token i
        scores = _guided(rows, 0, cfg_scale)[:len(order)]
        tokens = np.array([grid[p] for p in order])
        return tokens, _log_softmax(scores)

    order = near_to_far_order(dims)
    schedule = build_schedule(cfg.shape)
    require(list(schedule.order) == order,
            "program schedule differs from the brute-force distance sort")
    mask = build_mask(schedule)
    check_mask(mask, order)
    rows = _replay_rows(
        params, grid, class_ids,
        lambda p, g, c: forward_train(p, g, c, schedule, mask)[0])
    ndim = len(dims)
    require(len(rows[0]) == ndim, "expected one decoding head per axis")
    slot = {p: i + 1 for i, p in enumerate(order)}
    coords = np.array(order)
    acc = np.zeros((len(order), cfg.vocab_size))
    count = np.zeros(len(order))
    for axis in range(ndim):
        ls = _log_softmax(_guided(rows, axis, cfg_scale))
        # every head predicts the origin from the condition slot
        src = np.array([slot[p[:axis] + (p[axis] - 1,) + p[axis + 1:]]
                        if p[axis] > 0 else (0 if sum(p) == 0 else -1)
                        for p in order])
        has = src >= 0
        acc[has] += ls[src[has]]
        count[has] += 1
    tokens = grid[tuple(coords.T)]
    return tokens, acc / count[:, None]


def check_sampled(tokens, scores, top_k: int) -> None:
    """Every sampled token lies in the top-k set of its distribution."""
    kth = np.sort(scores, axis=-1)[:, -top_k]
    picked = scores[np.arange(len(tokens)), tokens]
    bad = np.flatnonzero(picked < kth - TIE_TOL)
    require(bad.size == 0, f"{bad.size} sampled tokens outside the top-{top_k}"
            f" set, first at decode index {bad[:1].tolist()}")


def check_greedy(tokens, scores) -> None:
    """A greedy grid equals the replay's argmax, up to ties."""
    best = scores.max(axis=-1)
    picked = scores[np.arange(len(tokens)), tokens]
    bad = np.flatnonzero(picked < best - TIE_TOL)
    require(bad.size == 0, f"{bad.size} greedy tokens differ from the replay"
            f" argmax, first at decode index {bad[:1].tolist()}")


def sample_nll(tokens, scores) -> float:
    """Mean NLL (nats) of the tokens under their untempered distribution."""
    lp = _log_softmax(scores)
    return float(-lp[np.arange(len(tokens)), tokens].mean())


def autodiff_nll(params, dataset, batch_size: int = 32) -> float:
    """Held-out NLL from the autodiff loss: `forward_train` returns the mean
    over every route of a batch, and each grid has the same route count."""
    from neighborgen.grid import build_mask, build_schedule
    from neighborgen.model import forward_train

    schedule = build_schedule(params.config.shape)
    mask = build_mask(schedule)
    total = 0.0
    for start in range(0, len(dataset), batch_size):
        chunk = dataset[start:start + batch_size]
        grids = np.stack([g for g, _ in chunk])
        classes = np.array([c for _, c in chunk])
        _, loss = forward_train(params, grids, classes, schedule, mask)
        total += float(loss.data) * len(chunk)
    return total / len(dataset)


def check_close(name: str, a: float, b: float, rel: float) -> None:
    require(abs(a - b) <= rel * max(abs(a), abs(b)),
            f"{name}: {a!r} vs {b!r} differ by more than {rel:g} relative")
