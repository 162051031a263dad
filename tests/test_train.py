import math
import warnings

import numpy as np
import pytest

from neighborgen import tensor as T
from neighborgen.data import SHAPES, SyntheticSpec
from neighborgen.grid import (GridShape, build_schedule, predecessors,
                             target_table)
from neighborgen.model import (RASTER, ModelConfig, forward_train, init_model,
                               sequence_layout)
from neighborgen.train import (TrainConfig, _overlapped_targets,
                               ablate_single_head, eval_nll, make_dataset,
                               overlap_nll, train_loop)


def tiny_train_config(mode="neighbor", dims=(4, 4), steps=0, **kw):
    shape = GridShape(dims)
    model = ModelConfig(vocab_size=4, num_classes=3, embed_dim=16,
                        num_blocks=1, num_attn_heads=2, shape=shape,
                        mode=mode)
    data = SyntheticSpec(shape=shape, vocab_size=4, num_classes=3,
                         generator=SHAPES, coupling=0.0, seed=5)
    defaults = dict(model=model, data=data, batch_size=2, total_steps=steps,
                    eval_interval=50, num_train_samples=16,
                    num_eval_samples=8, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_json_roundtrip(self):
        cfg = tiny_train_config(steps=10)
        assert TrainConfig.from_json(cfg.to_json()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_train_config(batch_size=0)


class TestSeedPartition:
    def test_train_eval_disjoint(self):
        rng = np.random.default_rng(0)
        spec = tiny_train_config().data
        train = make_dataset(spec, 20, "train", rng)
        eval_ = make_dataset(spec, 20, "eval", rng)
        # partition is by generator seed parity: regenerate and cross-check
        train_keys = {g.tobytes() for g, _ in train}
        # identical grids could still collide by chance; the real guarantee
        # is the seed parity, asserted structurally:
        assert len(train) == len(eval_) == 20
        assert train_keys  # non-empty


class TestTrainLoop:
    def test_zero_steps_keeps_init(self):
        cfg = tiny_train_config(steps=0)
        params, metrics = train_loop(cfg)
        fresh = init_model(cfg.model, seed=cfg.seed)
        for k in params.tensors:
            assert np.array_equal(params[k].data, fresh[k].data)
        assert metrics[-1].step == 0

    def test_deterministic(self):
        cfg = tiny_train_config(steps=6, eval_interval=3)
        _, m1 = train_loop(cfg)
        _, m2 = train_loop(cfg)
        assert [(m.step, m.train_loss, m.eval_nll) for m in m1] == \
               [(m.step, m.train_loss, m.eval_nll) for m in m2]

    def test_metrics_monotone_steps(self):
        cfg = tiny_train_config(steps=9, eval_interval=3)
        _, metrics = train_loop(cfg)
        steps = [m.step for m in metrics]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)

    def test_loss_decreases_on_structured_data(self):
        cfg = tiny_train_config(steps=60, eval_interval=30,
                                learning_rate=3e-3, warmup_steps=10)
        _, metrics = train_loop(cfg)
        assert metrics[-1].eval_nll < math.log(4)

    def test_raster_mode_trains(self):
        cfg = tiny_train_config(mode=RASTER, steps=5, eval_interval=5)
        params, metrics = train_loop(cfg)
        assert math.isfinite(metrics[-1].train_loss)

    def test_previous_step_graph_is_released_before_next_forward(
            self, monkeypatch):
        import weakref
        import neighborgen.train as train_mod
        forward = train_mod.forward_train
        refs, alive = [], []

        def recording_forward(*args):
            alive.append([r() is not None for r in refs])
            logits, loss = forward(*args)
            # Tensor has no weakref slot; its data array lives exactly as
            # long as the tensor does
            refs[:] = [weakref.ref(loss.data), weakref.ref(logits[0].data)]
            return logits, loss

        monkeypatch.setattr(train_mod, "forward_train", recording_forward)
        train_loop(tiny_train_config(steps=3))
        assert alive == [[], [False, False], [False, False]]


class TestEvalNll:
    def test_uniform_model(self):
        cfg = tiny_train_config()
        params = init_model(cfg.model, 0)  # zero head projections: uniform
        rng = np.random.default_rng(1)
        ds = make_dataset(cfg.data, 8, "eval", rng)
        assert abs(eval_nll(params, ds) - math.log(4)) < 1e-5

    def test_batch_size_invariance(self):
        cfg = tiny_train_config(steps=10)
        params, _ = train_loop(cfg)
        rng = np.random.default_rng(2)
        ds = make_dataset(cfg.data, 10, "eval", rng)
        vals = [eval_nll(params, ds, batch_size=b) for b in (1, 3, 10)]
        assert max(vals) - min(vals) < 1e-6

    def test_empty_dataset_rejected(self):
        cfg = tiny_train_config()
        with pytest.raises(ValueError):
            eval_nll(init_model(cfg.model, 0), [])

    @pytest.mark.parametrize("dims", [(4, 16), (4, 4, 4), (64,)])
    def test_wrong_grid_shape_rejected(self, dims):
        params = init_model(tiny_train_config(dims=(8, 8)).model, 0)
        data = [(np.zeros(dims, np.int64), 0)] * 2
        for score in (eval_nll, overlap_nll):
            with pytest.raises(ValueError, match="grid shape"):
                score(params, data)

    @pytest.mark.parametrize("class_id", [-1, 4, 9])
    def test_class_out_of_range_rejected(self, class_id):
        # ids 0..2 are classes and 3 the null class
        params = init_model(tiny_train_config().model, 0)
        data = [(np.zeros((4, 4), np.int64), 0),
                (np.zeros((4, 4), np.int64), class_id)]
        for score in (eval_nll, overlap_nll):
            with pytest.raises(ValueError, match="class id"):
                score(params, data)

    @pytest.mark.parametrize("token", [-1, 4])
    def test_token_out_of_range_rejected(self, token):
        # vocab is 4: -1 would wrap to the last embedding row, 4 index past it
        cfg = tiny_train_config()
        params = init_model(cfg.model, 0)
        bad = np.zeros((4, 4), np.int64)
        bad[2, 1] = token
        data = [(np.zeros((4, 4), np.int64), 0), (bad, 1)]
        for score in (eval_nll, overlap_nll):
            with pytest.raises(ValueError, match="token id"):
                score(params, data)
        with pytest.raises(ValueError, match="token id"):
            forward_train(params, np.stack([g for g, _ in data]),
                          np.array([0, 1]), build_schedule(cfg.model.shape),
                          sequence_layout(cfg.model).mask)

    def test_term_count_matches_target_table(self):
        shape = GridShape((4, 4))
        table = target_table(build_schedule(shape))
        # edges + d condition terms for an n x n grid
        assert len(table) == 2 * 4 * 3 + 2


class TestAblation:
    def test_zero_steps_equal_uniform(self):
        cfg = tiny_train_config(steps=0)
        results, _ = ablate_single_head(cfg)
        assert abs(results["dimension_heads"] - math.log(4)) < 1e-5
        assert abs(results["single_head"] - math.log(4)) < 1e-5

    def test_deterministic(self):
        cfg = tiny_train_config(steps=4, eval_interval=4)
        r1, _ = ablate_single_head(cfg)
        r2, _ = ablate_single_head(cfg)
        assert r1 == r2

    def test_requires_neighbor_mode(self):
        with pytest.raises(ValueError):
            ablate_single_head(tiny_train_config(mode=RASTER))


class TestOverlapNll:
    def test_mixed_close_to_singles_on_uniform_model(self):
        cfg = tiny_train_config()
        params = init_model(cfg.model, 0)
        rng = np.random.default_rng(3)
        ds = make_dataset(cfg.data, 6, "eval", rng)
        out = overlap_nll(params, ds)
        assert abs(out["mixed"] - math.log(4)) < 1e-6
        for v in out["per_axis"]:
            assert abs(v - math.log(4)) < 1e-6

    @pytest.mark.parametrize("dims", [(4, 4), (2, 3, 3)])
    def test_overlapped_targets_match_predecessors(self, dims):
        cfg = tiny_train_config(dims=dims).model
        shape = cfg.shape
        expected = {}
        for p in shape.positions():
            preds = predecessors(p, shape)
            if len(preds) == shape.ndim:
                expected[p] = {axis: q for q, axis in preds}
        layout = sequence_layout(cfg)
        targets, sources = _overlapped_targets(layout)
        got = {layout.order[t - 1]: {a: layout.order[s - 1]
                                     for a, s in enumerate(sources[:, i])}
               for i, t in enumerate(targets)}
        assert got == expected


class TestScorer:
    def test_chunks_use_the_layout_mask_and_cap_rows(self, monkeypatch):
        import neighborgen.train as train_mod
        seen = []

        def fake_infer(params, tokens, classes, mask, layout):
            seen.append((len(tokens), mask is layout.mask))
            s = layout.step.size + 1
            return [np.zeros((len(tokens), s, params.config.vocab_size))
                    ] * params.config.num_decode_heads

        monkeypatch.setattr(train_mod, "infer_logits", fake_infer)
        small = init_model(tiny_train_config(dims=(8, 8)).model, 0)
        grids = [(np.zeros((8, 8), np.int64), 0)] * 40
        eval_nll(small, grids)
        overlap_nll(small, grids)
        # (8, 8) with 2 attention heads: far under the cap, 16-row chunks
        assert seen == [(16, True), (16, True), (8, True)] * 2
        seen.clear()
        video = ModelConfig(vocab_size=4, num_classes=3, embed_dim=16,
                            num_blocks=1, num_attn_heads=4,
                            shape=GridShape((8, 16, 16)))
        eval_nll(init_model(video, 0),
                 [(np.zeros((8, 16, 16), np.int64), 0)] * 3)
        # 4 x 2049^2 float32 scores pass 64 MiB: one row per chunk
        assert seen == [(1, True)] * 3

    def test_video_eval_memory_is_bounded(self):
        import tracemalloc
        from tests.test_model import randomize
        cfg = ModelConfig(vocab_size=64, num_classes=10, embed_dim=64,
                          num_blocks=2, num_attn_heads=4,
                          shape=GridShape((8, 16, 16)))
        params = randomize(init_model(cfg, 0), 1)
        rng = np.random.default_rng(0)
        data = [(rng.integers(0, 64, cfg.shape.dims), int(c))
                for c in rng.integers(0, 10, 16)]
        sequence_layout(cfg).mask  # built once per process: not in the peak
        tracemalloc.start()
        try:
            nll = eval_nll(params, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6
        assert abs(nll - eval_nll(params, data, batch_size=1)) < 1e-9

    def test_empty_dataset_rejected_by_both_scores(self):
        params = init_model(tiny_train_config().model, 0)
        for score in (eval_nll, overlap_nll):
            with pytest.raises(ValueError, match="empty dataset"):
                score(params, [])


def adam_step_with_temporaries(params, grads, state, lr, beta1=0.9,
                               beta2=0.999, eps=1e-8):
    """`tensor.adam_step`'s update as one expression per moment and one
    for the weights, each allocating its temporaries."""
    if not state.m:
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data, dtype=np.float32)
            state.v[name] = np.zeros_like(p.data, dtype=np.float32)
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = grads[name]
            m = state.m[name]
            v = state.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            mhat = m / c1
            vhat = v / c2
            p.data -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.data.dtype)


class TestAdamInPlace:
    def test_bit_identical_to_the_formula(self):
        """Four warm-up steps over parameters of three shapes; the third
        step's gradient squares past float32's range."""
        rng = np.random.default_rng(8)
        shapes = {"w": (6, 5), "b": (5,), "t": (2, 3, 4)}
        start = {n: rng.normal(0, 1, s).astype(np.float32)
                 for n, s in shapes.items()}
        new = {n: T.Tensor(a.copy()) for n, a in start.items()}
        ref = {n: T.Tensor(a.copy()) for n, a in start.items()}
        new_state, ref_state = T.AdamState(), T.AdamState()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step in range(4):
                grads = {n: (rng.normal(0, 1, s) * 10.0 ** (step - 2))
                         .astype(np.float32) for n, s in shapes.items()}
                if step == 2:
                    grads["w"][1, 2] = 3e38
                lr = 1e-2 * (step + 1) / 4
                T.adam_step(new, grads, new_state, lr)
                adam_step_with_temporaries(ref, grads, ref_state, lr)
                for n in shapes:
                    assert new[n].data.tobytes() == ref[n].data.tobytes()
                    assert new_state.m[n].tobytes() == ref_state.m[n].tobytes()
                    assert new_state.v[n].tobytes() == ref_state.v[n].tobytes()
        assert np.isinf(new_state.v["w"][1, 2])
        assert np.all(np.isfinite(new["w"].data))
