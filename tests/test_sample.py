import numpy as np
import pytest

from neighborgen.grid import (GridShape, build_mask, build_schedule,
                              predecessors, step_count, successors)
from neighborgen.model import (RASTER, ModelConfig, infer_logits, init_model,
                               sequence_layout)
from neighborgen.sample import (SamplingConfig, _philox4x32, _pos_rng,
                                apply_cfg, generate, generate_raster,
                                log_softmax, mix_logits, philox_uniform,
                                sample_token)
from tests.test_model import randomize, small_config


class TestMixLogits:
    def test_single_contribution_identity(self):
        x = np.array([1.0, -2.0, 0.5])
        out = mix_logits([x])
        assert np.allclose(np.exp(out) / np.exp(out).sum(),
                           np.exp(log_softmax(x)))

    def test_idempotent_on_identical(self):
        x = np.array([0.3, 1.1, -0.7, 2.0])
        one = mix_logits([x])
        two = mix_logits([x, x])
        assert np.allclose(one, two, atol=1e-12)

    def test_symmetry_gives_uniform(self):
        a = np.array([0.0, np.log(2.0)])
        b = np.array([np.log(2.0), 0.0])
        out = mix_logits([a, b])
        p = np.exp(out - out.max())
        p /= p.sum()
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        contribs = [rng.normal(0, 2, 7) for _ in range(4)]
        base = mix_logits(contribs)
        for perm in ([3, 1, 0, 2], [2, 3, 1, 0]):
            assert np.abs(mix_logits([contribs[i] for i in perm])
                          - base).max() < 1e-6

    def test_rejects_empty_and_mismatch(self):
        with pytest.raises(ValueError):
            mix_logits([])
        with pytest.raises(ValueError):
            mix_logits([np.zeros(3), np.zeros(4)])


class TestApplyCfg:
    def test_scale_one_is_cond(self):
        cond = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(apply_cfg(cond, np.zeros(3), 1.0), cond)

    def test_scale_zero_is_uncond(self):
        uncond = np.array([0.5, -0.5])
        assert np.array_equal(apply_cfg(np.ones(2), uncond, 0.0), uncond)

    def test_arithmetic(self):
        out = apply_cfg(np.array([2.0, 0.0]), np.array([0.0, 0.0]), 2.0)
        assert np.array_equal(out, np.array([4.0, 0.0]))

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            apply_cfg(np.zeros(2), np.zeros(3), 1.0)


class TestSampleToken:
    def test_one_hot(self):
        logits = np.array([-100.0, 100.0, -100.0])
        rng = np.random.default_rng(0)
        cfg = SamplingConfig()
        assert all(sample_token(logits, cfg, rng) == 1 for _ in range(50))

    def test_top_k_one_is_argmax(self):
        rng = np.random.default_rng(1)
        cfg = SamplingConfig(top_k=1)
        for _ in range(100)[:100]:
            x = rng.normal(0, 3, 9)
            assert sample_token(x, cfg, rng) == int(np.argmax(x))

    def test_uniform_frequencies(self):
        cfg = SamplingConfig(seed=0)
        rng = np.random.default_rng(123)
        counts = np.zeros(4)
        for _ in range(40000):
            counts[sample_token(np.zeros(4), cfg, rng)] += 1
        freq = counts / counts.sum()
        assert np.abs(freq - 0.25).max() < 0.01

    def test_seed_must_fit_the_64_bit_key(self):
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                SamplingConfig(seed=seed)
        assert SamplingConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SamplingConfig(temperature=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(top_k=-1)
        with pytest.raises(ValueError):
            SamplingConfig(cfg_scale=-0.5)

    @pytest.mark.parametrize("field, value", [
        ("temperature", np.nan), ("temperature", np.inf),
        ("cfg_scale", np.nan), ("cfg_scale", np.inf)])
    def test_non_finite_config_rejected(self, field, value):
        # temperature nan sampled token 0 for every uniform; inf with top_k 3
        # could return a token outside the top 3; cfg_scale nan surfaced
        # later as "non-finite logits"
        with pytest.raises(ValueError, match=field):
            SamplingConfig(**{field: value}, top_k=3)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sample_token(np.array([0.0, np.inf]), SamplingConfig(),
                         np.random.default_rng(0))

    def test_tiny_temperature_reaches_argmax(self):
        cfg = SamplingConfig(temperature=1e-308)
        logits = np.array([1.0, 5.0, 3.0])
        # the other logits overflow to -inf; nothing may become NaN
        with np.errstate(invalid="raise", over="ignore"):
            for seed in range(5):
                assert sample_token(logits, cfg,
                                    np.random.default_rng(seed)) == 1


class TestPhilox:
    # Philox-4x32-10 known-answer vectors from Random123's kat_vectors:
    # (counter, key, output)
    KAT = [
        ((0, 0, 0, 0), (0, 0),
         (0x6627e8d5, 0xe169c58d, 0xbc57ac4c, 0x9b00dbd8)),
        ((0xffffffff,) * 4, (0xffffffff, 0xffffffff),
         (0x408f276d, 0x41c83b0e, 0xa20bc7c6, 0x6d5451fd)),
        ((0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344),
         (0xa4093822, 0x299f31d0),
         (0xd16cfe09, 0x94fdcceb, 0x5001e420, 0x24126ea1)),
    ]

    @pytest.mark.parametrize("counter,key,expected", KAT)
    def test_known_answers(self, counter, key, expected):
        assert tuple(int(w) for w in _philox4x32(counter, key)) == expected

    def test_uniform_is_the_53_bit_float_of_words_0_and_1(self):
        # counter (0, 0, 0, 0) with key 0 is the first known answer
        w0, w1 = 0x6627e8d5, 0xe169c58d
        assert philox_uniform(0, 0, 0) == \
            ((w0 >> 5) * 2 ** 26 + (w1 >> 6)) / 2 ** 53
        # key = (low, high) 32 bits of the seed; counter = (flat, step, 0, 0)
        seed = 0x299f31d0a4093822
        w0, w1, _, _ = _philox4x32((5, 3, 0, 0), (0xa4093822, 0x299f31d0))
        assert philox_uniform(seed, 3, 5) == \
            ((int(w0) >> 5) * 2 ** 26 + (int(w1) >> 6)) / 2 ** 53

    def test_vectorized_blocks_match_scalar_blocks(self):
        ctr = [np.array([0, 0xffffffff, 0x243f6a88]),
               np.array([0, 0xffffffff, 0x85a308d3]),
               np.array([0, 0xffffffff, 0x13198a2e]),
               np.array([0, 0xffffffff, 0x03707344])]
        words = _philox4x32(ctr, (0xa4093822, 0x299f31d0))
        for i in range(3):
            one = _philox4x32([c[i] for c in ctr], (0xa4093822, 0x299f31d0))
            assert [int(w[i]) for w in words] == [int(w) for w in one]

    @pytest.mark.parametrize("dims,mode", [((4, 4), "neighbor"),
                                           ((2, 3, 3), "neighbor"),
                                           ((4, 4), RASTER)])
    def test_pos_rng_equals_the_per_grid_draw(self, dims, mode):
        layout = sequence_layout(small_config(mode=mode, dims=dims))
        for seed in (0, 7, 2 ** 64 - 1):
            grid = philox_uniform(seed, layout.step, layout.raster_idx)
            assert grid.shape == layout.step.shape
            for u, s, q in zip(grid, layout.step, layout.raster_idx):
                assert _pos_rng(seed, int(s), int(q)).random() == u

    def test_key_and_counter_select_distinct_streams(self):
        base = philox_uniform(5, 3, np.arange(64))
        assert np.unique(base).size == 64
        for other in (philox_uniform(6, 3, np.arange(64)),
                      philox_uniform(5, 4, np.arange(64)),
                      philox_uniform(5 + 2 ** 32, 3, np.arange(64))):
            assert not np.any(other == base)

    def test_uniforms_in_unit_interval_and_flat(self):
        u = philox_uniform(11, np.arange(10_000) % 37, np.arange(10_000))
        assert u.dtype == np.float64
        assert u.min() >= 0.0 and u.max() < 1.0
        # chi-square over 20 equal bins, 19 degrees of freedom: the
        # 0.999 quantile is 43.8
        counts = np.bincount((u * 20).astype(np.int64), minlength=20)
        chi2 = ((counts - 500.0) ** 2 / 500.0).sum()
        assert chi2 < 43.8
        # 53-bit floats: the low bits are used
        assert np.any((u * 2.0 ** 53) % 2 == 1)


class TestGenerate:
    def test_forward_pass_counts(self):
        for dims, expected in (((4, 4), 7), ((3, 3), 5), ((2, 3, 3), 6)):
            cfg = small_config(dims=dims)
            p = randomize(init_model(cfg, 0), 1)
            _, stats = generate(p, 0, cfg.shape, SamplingConfig(seed=1))
            assert stats.forward_passes == step_count(cfg.shape) == expected
            assert stats.tokens_generated == cfg.shape.num_tokens

    def test_coverage_and_write_order(self):
        cfg = small_config(dims=(4, 4))
        p = randomize(init_model(cfg, 0), 2)
        grid, _ = generate(p, 1, cfg.shape, SamplingConfig(seed=2))
        assert grid.shape == cfg.shape.dims
        assert ((grid >= 0) & (grid < cfg.vocab_size)).all()

    def test_deterministic_given_seed(self):
        cfg = small_config()
        p = randomize(init_model(cfg, 0), 3)
        a, _ = generate(p, 0, cfg.shape, SamplingConfig(seed=5))
        b, _ = generate(p, 0, cfg.shape, SamplingConfig(seed=5))
        assert np.array_equal(a, b)

    def test_cfg_neutral_at_scale_one(self):
        # scale 1 must be bitwise identical to never running the null branch
        cfg = small_config()
        p = randomize(init_model(cfg, 0), 4)
        a, _ = generate(p, 1, cfg.shape, SamplingConfig(seed=7, cfg_scale=1.0))
        b, _ = generate(p, 1, cfg.shape,
                        SamplingConfig(seed=7, cfg_scale=2.0))
        c, _ = generate(p, 1, cfg.shape, SamplingConfig(seed=7, cfg_scale=1.0))
        assert np.array_equal(a, c)
        # guidance at scale 2 must be able to change outcomes on some seed
        diffs = any(
            not np.array_equal(
                generate(p, 1, cfg.shape,
                         SamplingConfig(seed=s, cfg_scale=1.0))[0],
                generate(p, 1, cfg.shape,
                         SamplingConfig(seed=s, cfg_scale=4.0))[0])
            for s in range(5))
        assert diffs

    def test_cfg_scale_zero_matches_null_class_run(self):
        cfg = small_config()
        p = randomize(init_model(cfg, 0), 8)
        a, _ = generate(p, 1, cfg.shape, SamplingConfig(seed=3, cfg_scale=0.0))
        # temporarily widen num_classes view: run with null class directly
        null = cfg.null_class
        cfg2 = ModelConfig(**{**cfg.__dict__, "num_classes": null + 1,
                              "shape": cfg.shape})
        p2 = init_model(cfg2, 0)
        # cls_emb gains a fresh null row in cfg2; copy trained rows across
        for name in p.tensors:
            if name == "cls_emb":
                p2.tensors[name].data[:null + 1] = p[name].data
            else:
                p2.tensors[name].data = p[name].data
        b, _ = generate(p2, null, cfg2.shape,
                        SamplingConfig(seed=3, cfg_scale=1.0))
        assert np.array_equal(a, b)

    def test_contribution_counts(self):
        # each target gets one contribution per positive coordinate
        shape = GridShape((3, 4))
        sched = build_schedule(shape)
        for p in sched.order[1:]:
            preds = predecessors(p, shape)
            assert len(preds) == sum(1 for c in p if c > 0)

    def test_greedy_full_recompute_oracle(self):
        # cache-free greedy decode must reproduce the KV-cached grid exactly
        for seed in range(4):
            cfg = small_config(dims=(3, 3))
            p = randomize(init_model(cfg, 0), 10 + seed)
            scfg = SamplingConfig(seed=seed, greedy=True)
            fast, _ = generate(p, 0, cfg.shape, scfg)
            slow = full_recompute_greedy(p, 0, scfg)
            assert np.array_equal(fast, slow), seed

    @pytest.mark.parametrize("dims", [(4, 4), (2, 3, 3)])
    @pytest.mark.parametrize("cfg_scale", [0.0, 1.0, 2.0])
    def test_wavefront_rows_are_per_position_mix_logits(self, dims, cfg_scale,
                                                        monkeypatch):
        """Every row the wavefront mixes equals, byte for byte, mix_logits
        over that position's guided per-axis predictions from the same
        pass."""
        import neighborgen.sample as sample_mod
        forward = sample_mod.forward_incremental
        passes, rows = [], []

        def recording_forward(*args):
            passes.append(forward(*args))
            return passes[-1]

        def recording_sample(row, config, rng):
            rows.append(np.array(row, copy=True))
            return sample_token(row, config, rng)

        monkeypatch.setattr(sample_mod, "forward_incremental",
                            recording_forward)
        monkeypatch.setattr(sample_mod, "sample_token", recording_sample)
        cfg = small_config(dims=dims)
        p = randomize(init_model(cfg, 0), 40)
        generate(p, 1, cfg.shape, SamplingConfig(seed=4, cfg_scale=cfg_scale))

        sched = build_schedule(cfg.shape)
        expected = []
        for s, logits in enumerate(passes):
            fed = [] if s == 0 else list(sched.step_positions(s - 1))
            for q in sched.step_positions(s):
                sources = ([(0, a) for a in range(cfg.shape.ndim)] if s == 0
                           else [(fed.index(r), a)
                                 for r, a in predecessors(q, cfg.shape)])
                contribs = []
                for i, a in sources:
                    head = logits[cfg.head_for_axis(a)]
                    contribs.append(
                        head[0, i] if cfg_scale == 1.0
                        else apply_cfg(head[0, i], head[1, i], cfg_scale))
                expected.append(mix_logits(contribs))
        assert len(rows) == len(expected) == cfg.shape.num_tokens
        for got, want in zip(rows, expected):
            assert got.tobytes() == want.tobytes()

    def test_mode_and_shape_guards(self):
        p = init_model(small_config(mode=RASTER), 0)
        with pytest.raises(ValueError):
            generate(p, 0, p.config.shape, SamplingConfig())
        q = init_model(small_config(), 0)
        with pytest.raises(ValueError):
            generate(q, 0, GridShape((4, 4)), SamplingConfig())
        with pytest.raises(ValueError):
            generate(q, 99, q.config.shape, SamplingConfig())


def full_recompute_greedy(params, class_id, scfg):
    """Oracle: greedy near-to-far decode recomputing the whole sequence
    through the training-mask forward at every step (no KV cache)."""
    cfg = params.config
    shape = cfg.shape
    sched = build_schedule(shape)
    mask = build_mask(sched)
    layout = sequence_layout(cfg, sched)
    grid = np.zeros(shape.dims, dtype=np.int64)
    for s in range(sched.num_steps):
        tokens = grid.reshape(1, -1)[:, layout.raster_idx]
        logits = infer_logits(params, tokens, np.array([class_id]), mask,
                              layout)
        for q in sched.step_positions(s):
            if s == 0:
                contribs = [logits[cfg.head_for_axis(a)][0, 0]
                            for a in range(shape.ndim)]
            else:
                contribs = [logits[cfg.head_for_axis(a)][0, sched.slot_of(r)]
                            for r, a in predecessors(q, shape)]
            grid[q] = sample_token(mix_logits(contribs), scfg,
                                   _pos_rng(scfg.seed, s,
                                            int(np.ravel_multi_index(
                                                q, shape.dims))))
    return grid


def full_recompute_sampled(params, class_id, scfg):
    """Oracle: sampled near-to-far decode, one position at a time, from
    cache-free full-sequence logits recomputed at every step.  Each target's
    per-axis predictions are guided, mixed and sampled on their own."""
    cfg = params.config
    shape = cfg.shape
    sched = build_schedule(shape)
    mask = build_mask(sched)
    layout = sequence_layout(cfg, sched)
    use_cfg = scfg.cfg_scale != 1.0
    class_ids = np.array([class_id, cfg.null_class] if use_cfg else [class_id])
    grid = np.zeros(shape.dims, dtype=np.int64)
    for s in range(sched.num_steps):
        tokens = grid.reshape(1, -1)[:, layout.raster_idx]
        logits = infer_logits(params, np.repeat(tokens, len(class_ids), axis=0),
                              class_ids, mask, layout)
        for q in sched.step_positions(s):
            if s == 0:
                sources = [(0, a) for a in range(shape.ndim)]
            else:
                sources = [(sched.slot_of(r), a)
                           for r, a in predecessors(q, shape)]
            contribs = []
            for slot, axis in sources:
                head = logits[cfg.head_for_axis(axis)]
                contribs.append(
                    apply_cfg(head[0, slot], head[1, slot], scfg.cfg_scale)
                    if use_cfg else head[0, slot])
            grid[q] = sample_token(mix_logits(contribs), scfg,
                                   _pos_rng(scfg.seed, s,
                                            int(np.ravel_multi_index(
                                                q, shape.dims))))
    return grid


class TestSampledOracle:
    @pytest.mark.parametrize("dims", [(4, 4), (2, 3, 3)])
    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    @pytest.mark.parametrize("top_k", [0, 3])
    def test_generate_matches_per_position_decoder(self, dims, cfg_scale,
                                                   top_k):
        cfg = small_config(dims=dims)
        for seed in range(3):
            p = randomize(init_model(cfg, 0), 20 + seed)
            scfg = SamplingConfig(seed=seed, top_k=top_k, cfg_scale=cfg_scale)
            fast, _ = generate(p, seed % cfg.num_classes, cfg.shape, scfg)
            slow = full_recompute_sampled(p, seed % cfg.num_classes, scfg)
            assert np.array_equal(fast, slow), seed


class TestGenerateRaster:
    def test_pass_count_is_token_count(self):
        cfg = small_config(mode=RASTER, dims=(3, 3))
        p = randomize(init_model(cfg, 0), 1)
        _, stats = generate_raster(p, 0, cfg.shape, SamplingConfig(seed=0))
        assert stats.forward_passes == 9

    def test_greedy_deterministic(self):
        cfg = small_config(mode=RASTER)
        p = randomize(init_model(cfg, 0), 2)
        scfg = SamplingConfig(seed=4, greedy=True)
        a, _ = generate_raster(p, 1, cfg.shape, scfg)
        b, _ = generate_raster(p, 1, cfg.shape, scfg)
        assert np.array_equal(a, b)

    def test_mode_guard(self):
        p = init_model(small_config(), 0)
        with pytest.raises(ValueError):
            generate_raster(p, 0, p.config.shape, SamplingConfig())

    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_matches_per_token_decoder(self, cfg_scale):
        """Token i is drawn with _pos_rng(seed, i, i) from cache-free
        full-sequence logits."""
        cfg = small_config(mode=RASTER, dims=(3, 3))
        layout = sequence_layout(cfg)
        class_ids = np.array([1] if cfg_scale == 1.0 else [1, cfg.null_class])
        for seed in range(3):
            p = randomize(init_model(cfg, 0), 30 + seed)
            scfg = SamplingConfig(seed=seed, top_k=3, cfg_scale=cfg_scale)
            fast, _ = generate_raster(p, 1, cfg.shape, scfg)
            slow = np.zeros(cfg.shape.num_tokens, dtype=np.int64)
            for i in range(slow.size):
                tokens = np.repeat(slow[None], len(class_ids), axis=0)
                head = infer_logits(p, tokens, class_ids, layout.mask,
                                    layout)[0]
                row = (apply_cfg(head[0, i], head[1, i], cfg_scale)
                       if cfg_scale != 1.0 else head[0, i])
                slow[i] = sample_token(row, scfg, _pos_rng(seed, i, i))
            assert np.array_equal(fast.reshape(-1), slow), seed
