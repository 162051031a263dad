"""Near-to-far parallel autoregressive generation over token grids.

Tokens are decoded in ascending Manhattan distance from the origin; every
position at the same distance is sampled in one forward pass, predicted by
per-axis decoding heads whose overlapping predictions are ensemble-mixed.
A raster next-token baseline shares the backbone for controlled comparison.
"""

from .grid import (AttentionMask, GridShape, Position, Schedule, build_mask,
                   build_raster_mask, build_schedule, manhattan_distance,
                   predecessors, serialize_mask, serialize_schedule,
                   step_count, successors, target_table)
from .model import (NEIGHBOR, RASTER, CheckpointError, KVCache, ModelConfig,
                    ModelParams, forward_incremental, forward_train,
                    infer_logits, init_model, load_checkpoint, param_count,
                    raster_forward_train, save_checkpoint)
from .data import POTTS, SHAPES, SyntheticSpec, gen_synthetic
from .sample import (GenerationStats, SamplingConfig, apply_cfg, generate,
                     generate_raster, mix_logits, sample_token)
from .train import (TrainConfig, ablate_single_head, eval_nll, make_dataset,
                    overlap_nll, train_loop)
from .render import Palette, render_grid, write_ppm
from .tokens_io import (TokenFormatError, grid_from_json, grid_to_json,
                        load_tokens, save_tokens)

__version__ = "0.1.0"
