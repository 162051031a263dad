"""Command-line surface.

Subcommands: schedule, mask, train, generate, render, inspect.
Exit codes: 0 success, 1 usage error, 2 data/checksum error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .grid import (GridShape, build_mask, build_raster_mask, build_schedule,
                   serialize_mask, serialize_schedule, step_count)
from .model import (NEIGHBOR, CheckpointError, load_checkpoint, param_count,
                    param_shapes, save_checkpoint)
from .render import Palette, write_ppm
from .sample import SamplingConfig, generate, generate_raster
from .tensor import NonFiniteError
from .tokens_io import TokenFormatError, load_tokens, save_tokens
from .train import TrainConfig, train_loop

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sampling_config(args) -> SamplingConfig:
    return SamplingConfig(temperature=args.temperature, top_k=args.top_k,
                          cfg_scale=args.cfg_scale, seed=args.seed,
                          greedy=args.greedy)


def _add_sampling_flags(p):
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--top-k", type=int, default=0)
    p.add_argument("--cfg-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--greedy", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neighborgen")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="dump a generation schedule")
    p.add_argument("--shape", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("mask", help="dump an attention mask")
    p.add_argument("--shape", required=True)
    p.add_argument("--raster", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("train", help="run a training loop from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", default=None, help="JSON-lines metrics file")

    p = sub.add_parser("generate", help="sample token grids from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--class-id", type=int, default=0)
    p.add_argument("--out-prefix", default="sample")
    _add_sampling_flags(p)

    p = sub.add_parser("render", help="convert a .tokens file to PPM")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--zoom", type=int, default=8)
    p.add_argument("--vocab", type=int, default=0,
                   help="palette size (default: max token id + 1)")
    p.add_argument("--palette-seed", type=int, default=0)

    p = sub.add_parser("inspect", help="print checkpoint config and sizes")
    p.add_argument("--ckpt", required=True)
    return parser


def _cmd_schedule(args) -> int:
    text = serialize_schedule(build_schedule(GridShape.parse(args.shape)))
    _emit(text, args.out)
    return EXIT_OK


def _cmd_mask(args) -> int:
    shape = GridShape.parse(args.shape)
    if args.raster:
        mask = build_raster_mask(shape.num_tokens)
    else:
        mask = build_mask(build_schedule(shape))
    _emit(serialize_mask(mask), args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    try:
        with open(args.config) as f:
            config = TrainConfig.from_json(f.read())
    except ValueError as e:
        print(f"data error: bad train config: {e}", file=sys.stderr)
        return EXIT_DATA
    sink = open(args.metrics, "w") if args.metrics else None
    try:
        def log(line):
            print(line)
            if sink:
                sink.write(line + "\n")
        params, _ = train_loop(config, log=log)
    finally:
        if sink:
            sink.close()
    save_checkpoint(params, args.out)
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.num < 1:
        raise ValueError("--num must be >= 1")
    params = load_checkpoint(args.ckpt)
    shape = params.config.shape
    base = _sampling_config(args)
    decode = generate if params.config.mode == NEIGHBOR else generate_raster
    for i in range(args.num):
        cfg = dataclasses.replace(base, seed=base.seed + i)
        grid, stats = decode(params, args.class_id, shape, cfg)
        path = f"{args.out_prefix}_{i:04d}.tokens"
        save_tokens(path, grid)
        print(f"{path}: forward_passes={stats.forward_passes} "
              f"tokens={stats.tokens_generated} "
              f"wall_ms={sum(stats.step_wall_ms):.3f}")
    return EXIT_OK


def _cmd_render(args) -> int:
    grid = load_tokens(args.input)
    vocab = args.vocab or int(grid.max()) + 1
    palette = Palette.make(vocab, seed=args.palette_seed)
    paths = write_ppm(grid, palette, args.out, zoom=args.zoom)
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_inspect(args) -> int:
    params = load_checkpoint(args.ckpt)
    cfg = params.config
    print(json.dumps(json.loads(cfg.to_json()), indent=2))
    print(f"parameters: {param_count(cfg)}")
    print(f"tensors: {sum(1 for _ in param_shapes(cfg))}")
    print(f"steps per sample: "
          f"{step_count(cfg.shape) if cfg.mode == NEIGHBOR else cfg.shape.num_tokens}")
    return EXIT_OK


def _emit(text: str, out):
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "schedule": _cmd_schedule,
    "mask": _cmd_mask,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "render": _cmd_render,
    "inspect": _cmd_inspect,
}


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    # NonFiniteError and JSONDecodeError are ValueErrors: catch them first
    except (CheckpointError, TokenFormatError, NonFiniteError,
            json.JSONDecodeError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
