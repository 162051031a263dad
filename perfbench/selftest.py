"""Shows that every benchmark check rejects a corrupted output.

    python3 perfbench/selftest.py          # from the repository root

Each case makes a small model, runs the CLI on it, confirms that the
untouched output passes the benchmark's checks, then corrupts one thing
(a token, a weight, a pass count, a file) and confirms that the same check
raises CheckError.  The file name keeps the repository's test run from
collecting it; `python3 -m pytest perfbench/selftest.py` runs it too.
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from checks import (CheckError, near_to_far_order, read_tokens,  # noqa: E402
                    replay_distributions)
from tracing import Tracer  # noqa: E402
from workloads import (BACKBONE, Generation, check_call_output,  # noqa: E402
                       check_replay, check_trained, check_traced_generation,
                       generate_argv, invoke, make_params, train_config)

NAR = Generation((6, 6), "neighbor", 2.0, 2)
RASTER = Generation((6, 6), "raster", 2.0, 2)
VIDEO = Generation((3, 4, 4), "neighbor", 1.0, 2)
CLASS_ID = 1


def scratch_dir():
    WORK.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckError:
        return True
    return False


def decode_index(w: Generation, pos) -> int:
    if w.mode == "raster":
        return int(np.ravel_multi_index(pos, w.dims))
    return near_to_far_order(w.dims).index(pos)


def generated(w: Generation, work: Path, seed: int = 3):
    """(params, checkpoint, greedy grid, output of a sampling invocation)."""
    from neighborgen.model import save_checkpoint

    params = make_params(w, seed)
    ckpt = work / "model.ckpt"
    save_checkpoint(params, ckpt)
    ok, out, _ = invoke(generate_argv(w, ckpt, work / "g", CLASS_ID, seed, 1,
                                      greedy=True))
    assert ok
    greedy = check_call_output(out, work / "g", 1, w)[0]
    ok, out, _ = invoke(generate_argv(w, ckpt, work / "s", CLASS_ID, seed,
                                      w.grids_per_call))
    assert ok
    return params, ckpt, greedy, out


def flipped_to_least_likely(params, w: Generation, grid):
    """The grid with its last position set to that position's least likely
    token under the replay."""
    _, scores = replay_distributions(params, grid, CLASS_ID, w.cfg_scale)
    pos = tuple(d - 1 for d in w.dims)
    bad = grid.copy()
    bad[pos] = int(np.argmin(scores[decode_index(w, pos)]))
    assert bad[pos] != grid[pos]
    return bad


def check_generation_case(w: Generation, work: Path) -> None:
    from neighborgen.model import load_checkpoint

    params, ckpt, greedy, out = generated(w, work)
    reported = out.replace("forward_passes=", "forward_passes=1")
    assert rejects(check_call_output, reported, work / "s", w.grids_per_call,
                   w), "wrong reported pass count accepted"
    sampled = [(g, CLASS_ID)
               for g in check_call_output(out, work / "s", w.grids_per_call, w)]
    check_replay(params, w, greedy, CLASS_ID, sampled)

    bad_greedy = flipped_to_least_likely(params, w, greedy)
    assert rejects(check_replay, params, w, bad_greedy, CLASS_ID, sampled), \
        "flipped greedy token accepted"
    bad_sample = flipped_to_least_likely(params, w, sampled[0][0])
    assert rejects(check_replay, params, w, greedy, CLASS_ID,
                   [(bad_sample, CLASS_ID)]), "flipped sampled token accepted"

    perturbed = load_checkpoint(ckpt)
    bias = perturbed.tensors["head0.b_out"].data
    bias[(int(greedy.flat[0]) + 1) % bias.size] += 50.0
    assert rejects(check_replay, perturbed, w, greedy, CLASS_ID, sampled), \
        "perturbed weight accepted"


def test_generation_checks_reject_corruption():
    for w in (NAR, RASTER, VIDEO):
        with scratch_dir() as tmp:
            check_generation_case(w, Path(tmp))


def test_traced_pass_count_check_rejects_a_wrong_count():
    from neighborgen.model import save_checkpoint

    with scratch_dir() as tmp:
        work = Path(tmp)
        save_checkpoint(make_params(NAR, 3), work / "m.ckpt")
        tracer = Tracer()
        with tracer.installed():
            ok, _, _ = invoke(generate_argv(NAR, work / "m.ckpt", work / "s",
                                            CLASS_ID, 0, 2))
        assert ok
        check_traced_generation(tracer, 2, NAR)
        tracer.calls["model.forward"] -= 1
        assert rejects(check_traced_generation, tracer, 2, NAR)


def test_token_file_check_rejects_bad_ids_and_shapes():
    from neighborgen.tokens_io import save_tokens

    with scratch_dir() as tmp:
        path = Path(tmp) / "x.tokens"
        vocab = BACKBONE["vocab_size"]
        grid = np.arange(36).reshape(6, 6) % vocab
        save_tokens(path, grid)
        assert np.array_equal(read_tokens(path, (6, 6), vocab), grid)
        assert rejects(read_tokens, path, (6, 5), vocab)
        grid[2, 3] = vocab
        save_tokens(path, grid)
        assert rejects(read_tokens, path, (6, 6), vocab)


def test_train_check_rejects_a_changed_checkpoint():
    from neighborgen.grid import GridShape
    from neighborgen.model import ModelConfig, load_checkpoint, save_checkpoint

    config = train_config(0)
    small = ModelConfig(vocab_size=8, num_classes=4, embed_dim=32,
                        num_blocks=1, num_attn_heads=2,
                        shape=GridShape((8, 8)))
    config = replace(config, model=small, learning_rate=3e-3, total_steps=60,
                     eval_interval=60)
    with scratch_dir() as tmp:
        work = Path(tmp)
        (work / "c.json").write_text(config.to_json())
        ok, _, _ = invoke(["train", "--config", str(work / "c.json"),
                           "--out", str(work / "m.ckpt"),
                           "--metrics", str(work / "m.jsonl")])
        assert ok
        check_trained(config, 0, work / "m.ckpt", work / "m.jsonl")
        params = load_checkpoint(work / "m.ckpt")
        params.tensors["head0.b_out"].data[0] += 1.0
        save_checkpoint(params, work / "m.ckpt")
        assert rejects(check_trained, config, 0, work / "m.ckpt",
                       work / "m.jsonl"), "changed checkpoint accepted"


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {test.__name__}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
