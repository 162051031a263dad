"""Throughput and step-count benchmark: near-to-far vs raster decoding.

Wall-clock numbers are reported but never asserted (hardware-bound); the
forward-pass counts are checked against their closed forms.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

from .grid import GridShape, step_count
from .model import NEIGHBOR, RASTER, ModelParams
from .sample import SamplingConfig, generate, generate_raster


@dataclass
class BenchEntry:
    mode: str
    batch_size: int
    forward_passes_per_sample: int
    wall_s_per_sample: float
    samples_per_second: float
    peak_rss_mb: float


@dataclass
class BenchReport:
    shape: list[int]
    repetitions: int
    entries: list[BenchEntry] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "shape": self.shape,
            "repetitions": self.repetitions,
            "entries": [vars(e) for e in self.entries],
        }, indent=2)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _backbone_signature(p: ModelParams):
    c = p.config
    return (c.vocab_size, c.num_classes, c.embed_dim, c.num_blocks,
            c.num_attn_heads, c.shape.dims)


def bench(params_nbr: ModelParams, params_raster: ModelParams,
          shape: GridShape, batch_sizes=(1,), repetitions: int = 3,
          config: SamplingConfig | None = None) -> BenchReport:
    """Time end-to-end generation for both modes at each batch size.

    One warmup run per (mode, batch size) is excluded; wall-clock entries
    are medians over `repetitions` timed runs.
    """
    if params_nbr.config.mode != NEIGHBOR or params_raster.config.mode != RASTER:
        raise ValueError("bench needs one neighbor-mode and one raster-mode model")
    if _backbone_signature(params_nbr) != _backbone_signature(params_raster):
        raise ValueError("checkpoints do not share a backbone config")
    config = config or SamplingConfig(greedy=True)
    report = BenchReport(shape=list(shape.dims), repetitions=repetitions)
    expected = {NEIGHBOR: step_count(shape), RASTER: shape.num_tokens}

    runs = [(NEIGHBOR, params_nbr, generate), (RASTER, params_raster,
                                               generate_raster)]
    for mode, params, fn in runs:
        for bs in batch_sizes:
            def one_run(seed_base):
                passes = 0
                for b in range(bs):
                    cfg_b = replace(config, seed=seed_base + b)
                    _, stats = fn(params, b % params.config.num_classes,
                                  shape, cfg_b)
                    passes += stats.forward_passes
                return passes

            one_run(0)  # warmup
            times = []
            for rep in range(repetitions):
                t0 = time.perf_counter()
                passes = one_run(1000 * (rep + 1))
                times.append(time.perf_counter() - t0)
            if passes != bs * expected[mode]:
                raise AssertionError(
                    f"{mode} forward passes {passes} != {bs * expected[mode]}")
            wall = statistics.median(times) / bs
            report.entries.append(BenchEntry(
                mode=mode, batch_size=bs,
                forward_passes_per_sample=expected[mode],
                wall_s_per_sample=wall,
                samples_per_second=1.0 / wall if wall > 0 else float("inf"),
                peak_rss_mb=_peak_rss_mb()))
    return report
