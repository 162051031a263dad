"""Per-layer tracing by wrapping the program's public functions.

Each wrapper is installed at the name its caller binds (for example
`neighborgen.sample.forward_incremental`, which `generate` looks up at call
time), for the timed phase only.  A wrapper counts calls and records self
time: its own wall time minus the time of wrapped calls nested inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute at the caller's binding, layer)
TARGETS = [
    ("neighborgen.cli", "cli", "cli"),
    ("neighborgen.cli", "load_checkpoint", "model.load_checkpoint"),
    ("neighborgen.cli", "save_checkpoint", "model.save_checkpoint"),
    ("neighborgen.cli", "generate", "sample.generate"),
    ("neighborgen.cli", "generate_raster", "sample.generate"),
    ("neighborgen.cli", "save_tokens", "tokens_io.save_tokens"),
    ("neighborgen.cli", "train_loop", "train.loop"),
    ("neighborgen.sample", "build_schedule", "grid.build_schedule"),
    ("neighborgen.sample", "forward_incremental", "model.forward"),
    ("neighborgen.sample", "embed_condition", "model.embed"),
    ("neighborgen.sample", "embed_tokens", "model.embed"),
    ("neighborgen.sample", "mix_logits", "sample.mix_logits"),
    ("neighborgen.sample", "apply_cfg", "sample.apply_cfg"),
    ("neighborgen.sample", "sample_token", "sample.sample_token"),
    ("neighborgen.train", "build_schedule", "grid.build_schedule"),
    ("neighborgen.train", "make_dataset", "data.make_dataset"),
    ("neighborgen.train", "forward_train", "tensor.forward"),
    ("neighborgen.train", "eval_nll", "train.eval"),
    ("neighborgen.train", "infer_logits", "model.infer_logits"),
    ("neighborgen.tensor", "Tensor.backward", "tensor.backward"),
    ("neighborgen.tensor", "adam_step", "tensor.adam"),
] + [("neighborgen.tensor", op, f"tensor.{op}")
     for op in ("matmul", "masked_attention", "gelu", "layernorm", "take",
                "embedding", "cross_entropy")]


class Tracer:
    """Calls, self seconds and inclusive seconds per layer."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self._child_s = []  # one accumulator per open wrapped call

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.calls[layer] += 1
                self.self_s[layer] += dt - self._child_s.pop()
                self.incl_s[layer] += dt
                if self._child_s:
                    self._child_s[-1] += dt
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module, attr, layer in TARGETS:
                owner = importlib.import_module(module)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
                saved.append((owner, name, original))
                setattr(owner, name, self.wrap(layer, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def layer_metrics(self, per: int) -> dict[str, float]:
        """Per-layer figures, normalised by `per` (grids or train steps);
        `model.pass_ms` is per forward pass."""
        def ms(layer):
            return 1000.0 * self.self_s[layer] / per

        passes = self.calls["model.forward"]
        out = {
            "grid.build_schedule_ms": ms("grid.build_schedule"),
            "model.forward_passes": passes / per,
            "model.forward_ms": ms("model.forward"),
            "model.pass_ms": (1000.0 * self.self_s["model.forward"] / passes
                              if passes else 0.0),
        }
        for layer in ("model.embed", "model.load_checkpoint",
                      "model.save_checkpoint", "model.infer_logits",
                      "tokens_io.save_tokens", "tensor.forward",
                      "tensor.backward", "tensor.adam", "tensor.matmul",
                      "tensor.masked_attention", "tensor.gelu",
                      "tensor.layernorm", "tensor.take", "tensor.embedding",
                      "tensor.cross_entropy", "train.eval",
                      "data.make_dataset"):
            out[f"{layer}_ms"] = ms(layer)
        out["sample.generate_self_ms"] = ms("sample.generate")
        for layer in ("sample.mix_logits", "sample.apply_cfg",
                      "sample.sample_token"):
            out[f"{layer}_ms"] = ms(layer)
            out[f"{layer}_calls"] = self.calls[layer] / per
        out["cli.self_ms"] = ms("cli")
        out["train.loop_self_ms"] = ms("train.loop")
        # a step as the loop sees it: everything but evaluation and the
        # dataset/schedule set-up, which are the loop's other wrapped children
        step_s = self.self_s["train.loop"] + sum(
            self.incl_s[layer]
            for layer in ("tensor.forward", "tensor.backward", "tensor.adam"))
        out["train.step_ms"] = 1000.0 * step_s / per
        return out
