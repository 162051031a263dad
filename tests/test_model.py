import json
import math
import zlib

import numpy as np
import pytest

from neighborgen import tensor as T
from neighborgen.cli import EXIT_DATA, cli
from neighborgen.grid import (AttentionMask, GridShape, build_mask,
                             build_raster_mask, build_schedule, target_table)
from neighborgen.model import (NEIGHBOR, RASTER, CheckpointError, KVCache,
                               ModelConfig, ModelParams, embed_condition,
                               embed_tokens, forward_incremental,
                               forward_train, infer_logits, init_model,
                               load_checkpoint, param_count, param_shapes,
                               raster_forward_train, save_checkpoint,
                               sequence_layout)


def small_config(mode=NEIGHBOR, dims=(3, 3), **kw):
    defaults = dict(vocab_size=5, num_classes=3, embed_dim=16, num_blocks=2,
                    num_attn_heads=2, shape=GridShape(dims), mode=mode)
    defaults.update(kw)
    return ModelConfig(**defaults)


def randomize(params, seed=0, keep_zero_heads=False):
    rng = np.random.default_rng(seed)
    for name, t in params.tensors.items():
        if keep_zero_heads and name.endswith(("w_out", "b_out")):
            continue
        if name.endswith(("ln1_g", "ln2_g", "lnf_g")):
            continue
        t.data = rng.normal(0, 0.1, t.data.shape).astype(np.float32)
    return params


class TestInit:
    def test_deterministic(self):
        a = init_model(small_config(), seed=7)
        b = init_model(small_config(), seed=7)
        for k in a.tensors:
            assert np.array_equal(a[k].data, b[k].data)

    def test_token_table_shape(self):
        cfg = small_config(vocab_size=64, embed_dim=128, num_attn_heads=4)
        p = init_model(cfg, 0)
        assert p["tok_emb"].data.shape == (64, 128)

    def test_neighbor_2d_has_two_heads(self):
        cfg = small_config()
        names = {n for n, _ in param_shapes(cfg)}
        assert "head0.w_out" in names and "head1.w_out" in names
        assert "head2.w_out" not in names
        assert cfg.num_decode_heads == 2

    def test_neighbor_3d_has_three_heads(self):
        assert small_config(dims=(2, 3, 3)).num_decode_heads == 3

    def test_raster_single_head(self):
        assert small_config(mode=RASTER).num_decode_heads == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            small_config(embed_dim=15)
        with pytest.raises(ValueError):
            small_config(mode="zigzag")

    def test_param_count_closed_form(self):
        # independent formula: embeddings + per-block weights + head weights
        for cfg in (small_config(),
                    small_config(dims=(2, 3, 3), embed_dim=32,
                                 num_attn_heads=4),
                    small_config(mode=RASTER, vocab_size=11, num_blocks=3)):
            d, v = cfg.embed_dim, cfg.vocab_size
            block = 2 * d + (d * 3 * d + 3 * d) + (d * d + d) \
                + 2 * d + (d * 4 * d + 4 * d) + (4 * d * d + d)
            expected = (v * d + (cfg.num_classes + 1) * d + d
                        + sum(cfg.shape.dims) * d
                        + cfg.num_blocks * block
                        + cfg.num_decode_heads * (block + 2 * d + d * v + v))
            assert param_count(cfg) == expected

    def test_backbone_shapes_shared_across_modes(self):
        a = dict(param_shapes(small_config()))
        b = dict(param_shapes(small_config(mode=RASTER)))
        for name in a:
            if name.startswith(("bb", "tok", "cls", "pos", "cond")):
                assert a[name] == b[name]


class TestForwardTrain:
    def test_uniform_loss_at_init(self):
        cfg = small_config(vocab_size=4)
        p = init_model(cfg, 0)
        sched = build_schedule(cfg.shape)
        grids = np.zeros((2, 3, 3), dtype=np.int64)
        _, loss = forward_train(p, grids, np.array([0, 1]), sched,
                                build_mask(sched))
        assert abs(float(loss.data) - math.log(4)) < 1e-5

    def test_raster_uniform_loss_at_init(self):
        cfg = small_config(mode=RASTER, vocab_size=4)
        p = init_model(cfg, 0)
        _, loss = raster_forward_train(p, np.zeros((1, 3, 3), np.int64),
                                       np.array([0]))
        assert abs(float(loss.data) - math.log(4)) < 1e-5

    def test_2x2_loss_term_count(self):
        sched = build_schedule(GridShape((2, 2)))
        # oracle: grid edges + d condition terms
        assert len(target_table(sched)) == 4 + 2

    def test_rejects_bad_shapes(self):
        cfg = small_config()
        p = init_model(cfg, 0)
        sched = build_schedule(cfg.shape)
        mask = build_mask(sched)
        with pytest.raises(ValueError):
            forward_train(p, np.zeros((1, 4, 4), np.int64), np.array([0]),
                          sched, mask)
        with pytest.raises(ValueError):
            forward_train(p, np.zeros((1, 3, 3), np.int64), np.array([9]),
                          sched, mask)

    def test_mode_mismatch(self):
        p = init_model(small_config(), 0)
        with pytest.raises(ValueError):
            raster_forward_train(p, np.zeros((1, 3, 3), np.int64),
                                 np.array([0]))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_check(self, seed):
        cfg = small_config()
        p = randomize(init_model(cfg, seed), seed)
        sched = build_schedule(cfg.shape)
        mask = build_mask(sched)
        rng = np.random.default_rng(seed)
        g = rng.integers(0, cfg.vocab_size, (1,) + cfg.shape.dims)
        cls = np.array([seed % cfg.num_classes])

        def f(tensors):
            _, loss = forward_train(ModelParams(cfg, tensors), g, cls,
                                    sched, mask)
            return loss

        assert T.grad_check(f, p.tensors, n_samples=40, seed=seed) < 1e-4

    def test_raster_gradient_check(self):
        cfg = small_config(mode=RASTER)
        p = randomize(init_model(cfg, 0), 3)
        g = np.random.default_rng(0).integers(0, 5, (1, 3, 3))

        def f(tensors):
            _, loss = raster_forward_train(ModelParams(cfg, tensors), g,
                                           np.array([1]))
            return loss

        assert T.grad_check(f, p.tensors, n_samples=48) < 1e-4


class TestSequenceLayout:
    @pytest.mark.parametrize("dims,shared", [((3, 4), False),
                                             ((2, 3, 3), False),
                                             ((2, 3, 3), True)])
    def test_routes_are_the_target_table(self, dims, shared):
        cfg = small_config(dims=dims, shared_head=shared)
        layout = sequence_layout(cfg)
        table = target_table(build_schedule(cfg.shape))
        routes = list(zip(layout.src.tolist(), layout.axis.tolist(),
                          layout.head.tolist(), layout.tgt.tolist()))
        assert routes == [(s, a, cfg.head_for_axis(a), t) for s, a, t in table]
        assert len(layout.by_head) == cfg.num_decode_heads
        for h, (src, tgt) in enumerate(layout.by_head):
            assert list(zip(src.tolist(), tgt.tolist())) == [
                (s, t) for s, a, t in table if cfg.head_for_axis(a) == h]

    def test_raster_routes_are_the_causal_chain(self):
        cfg = small_config(mode=RASTER, dims=(3, 4))
        layout = sequence_layout(cfg)
        n = cfg.shape.num_tokens
        assert layout.raster_idx.tolist() == list(range(n))
        assert layout.src.tolist() == list(range(n))
        assert layout.tgt.tolist() == list(range(1, n + 1))
        assert set(layout.head.tolist()) == {0}
        assert set(layout.axis.tolist()) == {-1}
        src, tgt = layout.by_head[0]
        assert len(layout.by_head) == 1
        assert src.tolist() == list(range(n))
        assert tgt.tolist() == list(range(1, n + 1))

    def test_equal_configs_share_one_read_only_layout(self):
        cfg = small_config(dims=(3, 4))
        layout = sequence_layout(cfg)
        assert sequence_layout(small_config(dims=(3, 4))) is layout
        assert sequence_layout(cfg, build_schedule(cfg.shape)) is layout
        # routes do not depend on the model's width
        assert sequence_layout(small_config(dims=(3, 4), embed_dim=8)) is layout
        assert sequence_layout(
            small_config(dims=(3, 4), shared_head=True)) is not layout
        assert sequence_layout(small_config(mode=RASTER, dims=(3, 4))) \
            is not layout
        arrays = [layout.raster_idx, *layout.coords, layout.src, layout.axis,
                  layout.head, layout.tgt,
                  *(a for pair in layout.by_head for a in pair)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0
        with pytest.raises(ValueError):
            sequence_layout(cfg, build_schedule(GridShape((4, 3))))


class TestMaskEquivalence:
    def test_disallowed_perturbation_leaves_logits_unchanged(self):
        cfg = small_config(dims=(4, 4))
        p = randomize(init_model(cfg, 0), 1)
        sched = build_schedule(cfg.shape)
        mask = build_mask(sched)
        layout = sequence_layout(cfg, sched)
        rng = np.random.default_rng(2)
        for case in range(20):
            tokens = rng.integers(0, cfg.vocab_size, (1, 16))
            base = infer_logits(p, tokens, np.array([0]), mask, layout)
            # pick (q, k) with step(k) > step(q): k invisible to q
            while True:
                q = int(rng.integers(1, 17))
                k = int(rng.integers(1, 17))
                if not mask.allow[q, k] and q != k and k != 0:
                    break
            perturbed = tokens.copy()
            perturbed[0, k - 1] = (perturbed[0, k - 1] + 1) % cfg.vocab_size
            new = infer_logits(p, perturbed, np.array([0]), mask, layout)
            for h in range(cfg.num_decode_heads):
                assert np.array_equal(base[h][0, q], new[h][0, q]), case


class TestIncremental:
    @pytest.mark.parametrize("dims", [(3, 3), (4, 4), (2, 3, 3)])
    def test_matches_full_recompute(self, dims):
        cfg = small_config(dims=dims)
        p = randomize(init_model(cfg, 0), 5)
        sched = build_schedule(cfg.shape)
        mask = build_mask(sched)
        layout = sequence_layout(cfg, sched)
        rng = np.random.default_rng(1)
        g = rng.integers(0, cfg.vocab_size, cfg.shape.dims)
        tokens = g.reshape(1, -1)[:, layout.raster_idx]
        full = infer_logits(p, tokens, np.array([1]), mask, layout)

        cache = KVCache.empty(cfg)
        parts = [forward_incremental(p, embed_condition(p, np.array([1])),
                                     cache)]
        for s in range(sched.num_steps):
            pos = list(sched.step_positions(s))
            ids = np.array([g[q] for q in pos])
            parts.append(forward_incremental(
                p, embed_tokens(p, ids, pos)[None], cache))
        for h in range(cfg.num_decode_heads):
            inc = np.concatenate([part[h] for part in parts], axis=1)
            assert np.abs(inc - full[h]).max() < 1e-5

    def test_first_call_condition_only(self):
        cfg = small_config(dims=(2, 3, 3))
        p = init_model(cfg, 0)
        cache = KVCache.empty(cfg)
        logits = forward_incremental(p, embed_condition(p, np.array([0])),
                                     cache)
        assert len(logits) == 3  # one origin prediction per axis head
        assert all(l.shape == (1, 1, cfg.vocab_size) for l in logits)
        assert cache.length == 1

    def test_empty_new_slots_rejected(self):
        cfg = small_config()
        p = init_model(cfg, 0)
        with pytest.raises(ValueError):
            forward_incremental(p, np.zeros((1, 0, cfg.embed_dim)),
                                KVCache.empty(cfg))

    def test_cache_desync_rejected(self):
        cfg = small_config()
        p = init_model(cfg, 0)
        cache = KVCache.empty(cfg)
        forward_incremental(p, embed_condition(p, np.array([0])), cache)
        cache.length += 1  # corrupt the bookkeeping
        with pytest.raises(ValueError):
            forward_incremental(p, embed_condition(p, np.array([0])), cache)

    def test_pass_past_capacity_rejected(self):
        cfg = small_config(dims=(2, 2))
        p = init_model(cfg, 0)
        cache = KVCache.empty(cfg)
        assert cache.capacity == cfg.shape.num_tokens + 1
        forward_incremental(p, embed_condition(p, np.array([0])), cache)
        pos = list(cfg.shape.positions())
        forward_incremental(p, embed_tokens(p, [0, 1, 2], pos[:3])[None],
                            cache)
        with pytest.raises(ValueError, match="capacity"):
            forward_incremental(p, embed_tokens(p, [0, 1], pos[:2])[None],
                                cache)
        assert cache.length == 4 and cache.filled == [4] * len(cache.filled)
        forward_incremental(p, embed_tokens(p, [3], pos[3:])[None], cache)
        assert cache.length == cache.capacity


def legacy_checkpoint(p: ModelParams) -> bytes:
    """A NARCKPT1 file built by hand: the same payload as NARCKPT2, with a
    u64 little-endian FNV-1a64 trailer instead of the CRC-32."""
    cfg_bytes = p.config.to_json().encode("utf-8")
    payload = len(cfg_bytes).to_bytes(4, "little") + cfg_bytes + b"".join(
        p[name].data.astype("<f4").tobytes() for name, _ in param_shapes(p.config))
    h = 0xCBF29CE484222325
    for byte in payload:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return b"NARCKPT1" + payload + h.to_bytes(8, "little")


class TestCheckpoint:
    def test_format_is_crc32_narckpt2(self, tmp_path):
        p = randomize(init_model(small_config(), 0), 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        assert blob.startswith(b"NARCKPT2")
        assert legacy_checkpoint(p)[8:-8] == blob[8:-4]
        assert zlib.crc32(blob[8:-4]) == int.from_bytes(blob[-4:], "little")

    def test_saves_are_byte_identical(self, tmp_path):
        p = randomize(init_model(small_config(), 0), 9)
        save_checkpoint(p, tmp_path / "a.ckpt")
        save_checkpoint(load_checkpoint(tmp_path / "a.ckpt"),
                        tmp_path / "b.ckpt")
        save_checkpoint(p, tmp_path / "c.ckpt")
        a = (tmp_path / "a.ckpt").read_bytes()
        assert a == (tmp_path / "b.ckpt").read_bytes()
        assert a == (tmp_path / "c.ckpt").read_bytes()

    def test_legacy_narckpt1_loads(self, tmp_path):
        p = randomize(init_model(small_config(), 0), 9)
        path = tmp_path / "old.ckpt"
        path.write_bytes(legacy_checkpoint(p))
        q = load_checkpoint(path)
        assert q.config == p.config
        for k in p.tensors:
            assert np.array_equal(p[k].data, q[k].data)

    @pytest.mark.parametrize("legacy", [False, True])
    def test_flipped_byte_rejected_in_both_formats(self, tmp_path, legacy,
                                                   capsys):
        p = randomize(init_model(small_config(), 0), 9)
        path = tmp_path / "m.ckpt"
        if legacy:
            path.write_bytes(legacy_checkpoint(p))
        else:
            save_checkpoint(p, path)
        good = path.read_bytes()
        for i in (8, 40, len(good) // 2, len(good) - 1):
            blob = bytearray(good)
            blob[i] ^= 0x01
            path.write_bytes(bytes(blob))
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            assert cli(["inspect", "--ckpt", str(path)]) == EXIT_DATA

    def test_roundtrip(self, tmp_path):
        p = randomize(init_model(small_config(), 0), 9)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.config == p.config
        for k in p.tensors:
            assert np.array_equal(p[k].data, q[k].data)

    def test_corrupted_checksum_rejected(self, tmp_path):
        p = init_model(small_config(), 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        p = init_model(small_config(), 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestLayoutGeometry:
    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 3)])
    def test_neighbor_step_is_manhattan_distance(self, dims):
        layout = sequence_layout(small_config(dims=dims))
        assert layout.order is layout.schedule.order
        assert layout.step.tolist() == [sum(p) for p in layout.order]

    def test_raster_step_is_the_raster_index(self):
        layout = sequence_layout(small_config(mode=RASTER, dims=(3, 4)))
        assert layout.schedule is None
        assert layout.step.tolist() == list(range(12))

    @pytest.mark.parametrize("dims", [(3, 4), (2, 3, 3)])
    def test_mask_is_the_schedule_mask(self, dims):
        cfg = small_config(dims=dims)
        layout = sequence_layout(cfg)
        assert np.array_equal(layout.mask.allow,
                              build_mask(build_schedule(cfg.shape)).allow)

    def test_raster_mask_is_the_causal_mask(self):
        layout = sequence_layout(small_config(mode=RASTER, dims=(3, 4)))
        assert np.array_equal(layout.mask.allow, build_raster_mask(12).allow)

    def test_equal_configs_share_one_read_only_mask(self):
        layout = sequence_layout(small_config(dims=(3, 4)))
        assert sequence_layout(small_config(dims=(3, 4), embed_dim=8)).mask \
            is layout.mask
        for a in (layout.step, layout.mask.allow):
            with pytest.raises(ValueError):
                a[0] = 0


class TestCachedBias:
    @pytest.mark.parametrize("mode", [NEIGHBOR, RASTER])
    def test_one_read_only_bias_read_by_both_forwards(self, mode,
                                                      monkeypatch):
        cfg = small_config(mode=mode, dims=(3, 4))
        layout = sequence_layout(cfg)
        bias = layout.bias
        assert layout.bias is bias
        assert np.array_equal(bias, layout.mask.bias())
        with pytest.raises(ValueError):
            bias[0, 0] = 1.0

        def rebuilt(self, dtype=np.float32):
            raise AssertionError("bias rebuilt from the mask")

        monkeypatch.setattr(AttentionMask, "bias", rebuilt)
        p = randomize(init_model(cfg, 0), 3)
        g = np.random.default_rng(0).integers(0, cfg.vocab_size, (2, 3, 4))
        c = np.array([0, 1])
        infer_logits(p, g.reshape(2, -1)[:, layout.raster_idx], c,
                     layout.mask, layout)
        if mode == RASTER:
            raster_forward_train(p, g, c)
        else:
            forward_train(p, g, c, layout.schedule, layout.mask)


class TestInferenceMatchesAutodiff:
    @pytest.mark.parametrize("mode,dims", [(NEIGHBOR, (3, 4)),
                                           (NEIGHBOR, (2, 3, 3)),
                                           (RASTER, (3, 4))])
    def test_full_sequence_logits(self, mode, dims):
        """The numpy attention (scaled queries, output normalised after
        the value product) against the autodiff softmax attention."""
        cfg = small_config(mode=mode, dims=dims)
        layout = sequence_layout(cfg)
        p = randomize(init_model(cfg, 0), 6)
        g = np.random.default_rng(3).integers(0, cfg.vocab_size, (2, *dims))
        c = np.array([1, cfg.null_class])
        fast = infer_logits(p, g.reshape(2, -1)[:, layout.raster_idx], c,
                            layout.mask, layout)
        if mode == RASTER:
            ref, _ = raster_forward_train(p, g, c)
        else:
            ref, _ = forward_train(p, g, c, layout.schedule, layout.mask)
        for a, b in zip(fast, ref):
            assert np.abs(a - b.data).max() < 1e-5


class TestForeignMaskRejected:
    def test_mask_and_schedule_must_be_the_models(self):
        cfg = small_config(dims=(4, 4))
        p = randomize(init_model(cfg, 0), 2)
        g = np.random.default_rng(0).integers(0, cfg.vocab_size, (2, 4, 4))
        c = np.array([0, 1])
        sched = build_schedule(cfg.shape)
        with pytest.raises(ValueError):
            forward_train(p, g, c, sched, build_raster_mask(16))
        with pytest.raises(ValueError):
            forward_train(p, g, c, build_schedule(GridShape((2, 8))),
                          build_mask(build_schedule(GridShape((2, 8)))))
        # a freshly built mask of the model's schedule is accepted
        _, fresh = forward_train(p, g, c, sched, build_mask(sched))
        _, shared = forward_train(p, g, c, sched, sequence_layout(cfg).mask)
        assert fresh.data == shared.data


class TestLegacyDropoutKey:
    def config_text(self, dropout):
        d = json.loads(small_config().to_json())
        assert "dropout" not in d
        d["dropout"] = dropout
        return json.dumps(d)

    def test_zero_loads(self):
        assert ModelConfig.from_json(self.config_text(0.0)) == small_config()

    def test_nonzero_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.from_json(self.config_text(0.5))

    @pytest.mark.parametrize("dropout,ok", [(0.0, True), (0.5, False)])
    def test_checkpoint(self, tmp_path, dropout, ok):
        p = randomize(init_model(small_config(), 0), 3)
        cfg_bytes = self.config_text(dropout).encode("utf-8")
        payload = len(cfg_bytes).to_bytes(4, "little") + cfg_bytes + b"".join(
            p[n].data.astype("<f4").tobytes() for n, _ in param_shapes(p.config))
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NARCKPT2" + payload
                         + zlib.crc32(payload).to_bytes(4, "little"))
        if ok:
            q = load_checkpoint(path)
            assert q.config == p.config
            assert all(np.array_equal(q[n].data, p[n].data)
                       for n, _ in param_shapes(p.config))
        else:
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
