"""The workloads: inputs made from a seed, a timed closed loop of CLI
invocations, and the checks on what those invocations wrote.

One client calls `neighborgen.cli.cli(argv)` in this process, one invocation
at a time; an operation is one invocation.  The loop times each invocation
and stops after the first one that takes the summed time past the requested
seconds; rates come from the median invocation.  Output checks run between
and after invocations, outside the measured time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from checks import (autodiff_nll, check_close, check_count,
                    check_greedy, check_sampled, expected_passes, read_tokens,
                    replay_distributions, require, sample_nll)

# Generation backbone, shared by the three generation workloads so that the
# near-to-far / raster comparison is controlled.
BACKBONE = dict(vocab_size=64, num_classes=10, embed_dim=64, num_blocks=2,
                num_attn_heads=4)
TEMPERATURE = 1.0
TOP_K = 16
# The weights are the same for every --seed, like one deployed model serving
# varied requests.  Drawn from --seed, they gave the sample NLL (eval_nll) a
# 27% (nar image) and 38% (raster) interquartile spread over five seeds.
WEIGHT_SEED = 0
# Invocation i asks for class i % num_classes and --seed picks the sampling
# seeds.  The first grid of each of the first REPLAY_CALLS invocations is
# replayed, so every run replays the same classes; the sample NLL differs
# by a few percent between classes of one model.  Every run makes at least
# REPLAY_CALLS invocations.
REPLAY_CALLS = 4

# Training: the model of acceptance criterion 6, a short run at its rate.
TRAIN_MODEL = dict(vocab_size=8, num_classes=4, embed_dim=128, num_blocks=4,
                   num_attn_heads=4)
TRAIN_DIMS = (8, 8)
TRAIN_STEPS = 40
TRAIN_BATCH = 4
HELDOUT_GRIDS = 128
# The heads start at zero, i.e. at exactly ln(vocab); 40 steps reach ~1.54.
NLL_MARGIN = 0.3
# eval_nll (inference, float64 sums) against the forward_train loss
# (autodiff, float32 mean); they agreed to 1.4e-8 on a 40-step checkpoint.
PATH_AGREEMENT = 1e-5


@dataclass(frozen=True)
class Generation:
    dims: tuple[int, ...]
    mode: str
    cfg_scale: float
    grids_per_call: int


WORKLOADS = {
    "nar_image_32x32": Generation((32, 32), "neighbor", 2.0, 4),
    "nar_video_8x16x16": Generation((8, 16, 16), "neighbor", 1.0, 2),
    "raster_image_32x32": Generation((32, 32), "raster", 2.0, 4),
    "train_8x8": None,
}


def invoke(argv: list[str]):
    """One CLI invocation; returns (succeeded, captured output, seconds)."""
    import neighborgen.cli as ngcli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = ngcli.cli(argv)
    except Exception:  # a crash is a failed operation; keep measuring
        buf.write(traceback.format_exc())
        code = None
    seconds = time.perf_counter() - t0
    if code != 0:
        sys.stderr.write(f"failed: neighborgen {' '.join(argv)}\n"
                         f"{buf.getvalue()}")
    return code == 0, buf.getvalue(), seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_params(w: Generation, seed: int):
    """A model whose every weight is random: `init_model` zeroes the output
    heads, which would make every logit a tie."""
    from neighborgen.grid import GridShape
    from neighborgen.model import ModelConfig, init_model

    params = init_model(ModelConfig(**BACKBONE, shape=GridShape(w.dims),
                                    mode=w.mode), seed=seed)
    rng = np.random.default_rng([seed, 1])
    for name, t in params.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf not in ("ln1_g", "ln2_g", "lnf_g"):
            std = 0.3 if leaf == "w_out" else 0.1
            t.data = rng.normal(0.0, std, t.data.shape).astype(np.float32)
    return params


def generate_argv(w: Generation, ckpt, prefix, class_id: int, seed: int,
                  num: int, greedy: bool = False) -> list[str]:
    argv = ["generate", "--ckpt", str(ckpt), "--num", str(num),
            "--class-id", str(class_id), "--seed", str(seed),
            "--out-prefix", str(prefix), "--temperature", str(TEMPERATURE),
            "--top-k", str(TOP_K), "--cfg-scale", str(w.cfg_scale)]
    return argv + ["--greedy"] if greedy else argv


def check_call_output(out: str, prefix, num: int, w: Generation):
    """The grids an invocation reports and writes; returns them."""
    passes = expected_passes(w.dims, w.mode)
    reported = dict(line.split(": ", 1) for line in out.splitlines()
                    if ": forward_passes=" in line)
    grids = []
    for j in range(num):
        path = f"{prefix}_{j:04d}.tokens"
        require(path in reported, f"{path} not reported")
        fields = dict(kv.split("=") for kv in reported[path].split())
        check_count(f"{path} forward_passes", int(fields["forward_passes"]),
                    passes)
        check_count(f"{path} tokens", int(fields["tokens"]), math.prod(w.dims))
        grids.append(read_tokens(path, w.dims, BACKBONE["vocab_size"]))
        Path(path).unlink()
    return grids


def run_generation(name, seed, seconds, tracer, work: Path, t_start, report):
    from neighborgen.model import save_checkpoint

    w = WORKLOADS[name]
    params = make_params(w, WEIGHT_SEED)
    ckpt = work / "model.ckpt"
    save_checkpoint(params, ckpt)
    num_classes = BACKBONE["num_classes"]
    warm = generate_argv(w, ckpt, work / "warm", seed % num_classes, seed, 1)
    require(invoke(warm)[0], "warm-up invocation failed")
    report["metrics"]["setup_s"] = time.perf_counter() - t_start

    times = []  # seconds of each successful invocation
    attempted, spent = 0, 0.0
    kept = []  # (grid, class id), replayed below
    with tracer.installed() if tracer else contextlib.nullcontext():
        while spent < seconds or attempted < REPLAY_CALLS:
            i = attempted
            attempted += 1
            class_id = i % num_classes
            prefix = work / f"call{i:05d}"
            ok, out, dt = invoke(generate_argv(
                w, ckpt, prefix, class_id,
                seed * 1_000_003 + i * w.grids_per_call, w.grids_per_call))
            spent += dt
            if not ok:
                continue
            times.append(dt)
            grids = check_call_output(out, prefix, w.grids_per_call, w)
            if i < REPLAY_CALLS:
                kept.append((grids[0], class_id))
    rss = peak_rss_mb()
    grids_done = len(times) * w.grids_per_call
    report.update(attempted=attempted, failed=attempted - len(times),
                  timed_wall_s=spent, grids=grids_done)
    require(times, "no invocation succeeded")
    rate = w.grids_per_call / statistics.median(times)
    report["metrics"].update(samples_per_s=rate,
                             tokens_per_s=rate * math.prod(w.dims),
                             peak_rss_mb=rss)
    if tracer:
        check_traced_generation(tracer, grids_done, w)
        report["layers"] = tracer.layer_metrics(grids_done)

    # one greedy grid, decoded outside the timed phase
    class_id = seed % num_classes
    prefix = work / "greedy"
    ok, out, _ = invoke(generate_argv(w, ckpt, prefix, class_id, seed, 1,
                                      greedy=True))
    require(ok, "greedy invocation failed")
    greedy = check_call_output(out, prefix, 1, w)[0]
    report["metrics"]["eval_nll"] = check_replay(params, w, greedy, class_id,
                                                 kept)


def check_replay(params, w: Generation, greedy, greedy_class, sampled) -> float:
    """Greedy equals the replay argmax; sampled tokens lie in the top-k.
    Returns the mean NLL of the sampled tokens under the replay."""
    tokens, scores = replay_distributions(params, greedy, greedy_class,
                                          w.cfg_scale)
    check_greedy(tokens, scores)
    require(sampled, "no sampled grids to replay")
    nll = []
    for grid, class_id in sampled:
        tokens, scores = replay_distributions(params, grid, class_id,
                                              w.cfg_scale)
        check_sampled(tokens, scores, TOP_K)
        nll.append(sample_nll(tokens, scores))
    return float(np.mean(nll))


def check_traced_generation(tracer, grids: int, w: Generation) -> None:
    check_count("traced forward passes", tracer.calls["model.forward"],
                grids * expected_passes(w.dims, w.mode))
    check_count("traced sample_token calls",
                tracer.calls["sample.sample_token"], grids * math.prod(w.dims))


def train_config(seed: int):
    from neighborgen.data import SHAPES, SyntheticSpec
    from neighborgen.grid import GridShape
    from neighborgen.model import ModelConfig
    from neighborgen.train import TrainConfig

    shape = GridShape(TRAIN_DIMS)
    data = SyntheticSpec(shape=shape, vocab_size=TRAIN_MODEL["vocab_size"],
                         num_classes=TRAIN_MODEL["num_classes"],
                         generator=SHAPES, coupling=0.0, seed=seed)
    return TrainConfig(model=ModelConfig(**TRAIN_MODEL, shape=shape),
                       data=data, batch_size=TRAIN_BATCH,
                       total_steps=TRAIN_STEPS, learning_rate=1e-4,
                       warmup_steps=5, eval_interval=TRAIN_STEPS,
                       num_train_samples=512, num_eval_samples=64, seed=seed)


def heldout_set(config, seed: int):
    """Grids from generator seeds no training or evaluation split uses
    (those take 2i and 2i + 1 for i below the split size)."""
    from neighborgen.data import gen_synthetic

    classes = np.random.default_rng([seed, 2]).integers(
        0, config.data.num_classes, size=HELDOUT_GRIDS)
    return [(gen_synthetic(config.data, int(c), 1_000_001 + 2 * j), int(c))
            for j, c in enumerate(classes)]


def run_train(name, seed, seconds, tracer, work: Path, t_start, report):
    config = train_config(seed)
    cfg_path, ckpt, metrics = (work / "train.json", work / "model.ckpt",
                               work / "metrics.jsonl")
    cfg_path.write_text(config.to_json())
    warm_path = work / "warm.json"
    warm_path.write_text(replace(config, total_steps=1,
                                 eval_interval=1).to_json())
    argv = ["train", "--config", str(cfg_path), "--out", str(ckpt),
            "--metrics", str(metrics)]
    require(invoke(["train", "--config", str(warm_path), "--out",
                    str(work / "warm.ckpt")])[0], "warm-up invocation failed")
    report["metrics"]["setup_s"] = time.perf_counter() - t_start

    times = []  # seconds of each successful invocation
    attempted, spent = 0, 0.0
    first = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        while spent < seconds:
            attempted += 1
            ok, _, dt = invoke(argv)
            spent += dt
            if not ok:
                continue
            times.append(dt)
            blob = ckpt.read_bytes()
            first = first or blob
            require(blob == first, "same config trained a different checkpoint")
    rss = peak_rss_mb()
    steps = len(times) * TRAIN_STEPS
    report.update(attempted=attempted, failed=attempted - len(times),
                  timed_wall_s=spent, steps=steps)
    require(times, "no invocation succeeded")
    rate = TRAIN_STEPS * TRAIN_BATCH / statistics.median(times)
    report["metrics"].update(samples_per_s=rate,
                             tokens_per_s=rate * math.prod(TRAIN_DIMS),
                             peak_rss_mb=rss)
    if tracer:
        for layer in ("tensor.forward", "tensor.backward", "tensor.adam"):
            check_count(f"traced {layer} calls", tracer.calls[layer], steps)
        report["layers"] = tracer.layer_metrics(steps)
    report["metrics"]["eval_nll"] = check_trained(config, seed, ckpt, metrics)


def check_trained(config, seed: int, ckpt, metrics) -> float:
    """Held-out NLL of the saved checkpoint, checked three ways."""
    from neighborgen.model import load_checkpoint
    from neighborgen.train import eval_nll, make_dataset

    params = load_checkpoint(ckpt)
    held = heldout_set(config, seed)
    nll = eval_nll(params, held)
    check_close("held-out NLL, inference vs autodiff", nll,
                autodiff_nll(params, held), PATH_AGREEMENT)
    ceiling = math.log(config.model.vocab_size) - NLL_MARGIN
    require(nll < ceiling, f"held-out NLL {nll:.4f} not below {ceiling:.4f}")
    # the loop's own evaluation set, rebuilt as train_loop draws it
    rng = np.random.default_rng([config.seed, 17])
    make_dataset(config.data, config.num_train_samples, "train", rng)
    eval_set = make_dataset(config.data, config.num_eval_samples, "eval", rng)
    logged = json.loads(Path(metrics).read_text().splitlines()[-1])
    check_close("logged NLL vs reloaded checkpoint", eval_nll(params, eval_set),
                logged["eval_nll"], 1e-9)
    return nll


def run(name, seed, seconds, tracer, work, t_start, report):
    fn = run_train if WORKLOADS[name] is None else run_generation
    fn(name, seed, seconds, tracer, work, t_start, report)

