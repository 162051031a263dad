"""
Forward passes: near-to-far decoding against the raster baseline
================================================================

Builds two models sharing one backbone configuration — near-to-far with
per-axis heads, and a raster next-token baseline — decodes one 8x8 grid
with each, and prints what `generate` and `generate_raster` report: the
forward passes, the tokens and the wall time of the decoding steps.  The
pass counts are the paper's claim and are exact; each time is a single
reading with no measure of its noise.  For measured throughput, use
`perfbench/run.py`.
"""

from neighborgen import (GridShape, ModelConfig, NEIGHBOR, RASTER,
                         SamplingConfig, generate, generate_raster,
                         init_model, step_count)

shape = GridShape((8, 8))
common = dict(vocab_size=8, num_classes=4, embed_dim=64, num_blocks=2,
              num_attn_heads=4, shape=shape)
neighbor = init_model(ModelConfig(mode=NEIGHBOR, **common), seed=0)
raster = init_model(ModelConfig(mode=RASTER, **common), seed=0)

print(f"grid {shape}: {step_count(shape)} near-to-far passes "
      f"vs {shape.num_tokens} raster passes per sample\n")

config = SamplingConfig(greedy=True)
for mode, decode, params in ((NEIGHBOR, generate, neighbor),
                             (RASTER, generate_raster, raster)):
    _, stats = decode(params, 1, shape, config)
    print(f"  {mode:9s} forward_passes={stats.forward_passes:3d}  "
          f"tokens={stats.tokens_generated}  "
          f"wall_ms={sum(stats.step_wall_ms):.1f}")
