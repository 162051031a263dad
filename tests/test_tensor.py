import gc
import math
import weakref

import numpy as np
import pytest

from neighborgen import tensor as T


def rand(rng, *shape, dtype=np.float32):
    return T.Tensor(rng.normal(0, 1, shape).astype(dtype))


def attention_loop_oracle(q, k, v, allow):
    """Dense reference with explicit loops in float64."""
    q, k, v = (np.asarray(x, dtype=np.float64) for x in (q, k, v))
    H, S, dh = q.shape
    out = np.zeros_like(q[..., :v.shape[-1]])
    for h in range(H):
        for i in range(S):
            scores = []
            for j in range(k.shape[1]):
                s = sum(q[h, i, t] * k[h, j, t] for t in range(dh))
                s /= math.sqrt(dh)
                scores.append(s if allow[i][j] else -1e9)
            m = max(scores)
            e = [math.exp(s - m) for s in scores]
            z = sum(e)
            for j in range(k.shape[1]):
                out[h, i] += (e[j] / z) * v[h, j]
    return out


class TestMaskedAttention:
    def test_single_key_returns_v(self):
        rng = np.random.default_rng(0)
        q, k, v = rand(rng, 1, 1, 4), rand(rng, 1, 1, 4), rand(rng, 1, 1, 4)
        out = T.masked_attention(q, k, v, np.zeros((1, 1), np.float32))
        assert np.allclose(out.data, v.data)

    def test_identical_keys_uniform_weights(self):
        rng = np.random.default_rng(1)
        q = rand(rng, 1, 2, 4)
        krow = rng.normal(0, 1, (1, 1, 4)).astype(np.float32)
        k = T.Tensor(np.repeat(krow, 2, axis=1))
        v = T.Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]], dtype=np.float32))
        out = T.masked_attention(q, k, v, np.zeros((2, 2), np.float32))
        assert np.allclose(out.data, 0.5, atol=1e-6)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        allow = np.array([[1, 0, 0, 0], [1, 1, 0, 0],
                          [1, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        bias = np.where(allow, np.float32(0), np.float32(-1e9))
        q, k, v = rand(rng, 2, 4, 8), rand(rng, 2, 4, 8), rand(rng, 2, 4, 8)
        out = T.masked_attention(q, k, v, bias)
        ref = attention_loop_oracle(q.data, k.data, v.data, allow)
        assert np.abs(out.data - ref).max() < 1e-5

    def test_rejects_empty_row(self):
        rng = np.random.default_rng(3)
        q, k, v = rand(rng, 1, 2, 4), rand(rng, 1, 2, 4), rand(rng, 1, 2, 4)
        bias = np.array([[0, 0], [-1e9, -1e9]], dtype=np.float32)
        with pytest.raises(ValueError):
            T.masked_attention(q, k, v, bias)

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            T.masked_attention(rand(rng, 1, 2, 4), rand(rng, 1, 2, 5),
                               rand(rng, 1, 2, 4), np.zeros((2, 2)))

    def test_output_is_convex_combination(self):
        rng = np.random.default_rng(5)
        q, k, v = rand(rng, 2, 6, 8), rand(rng, 2, 6, 8), rand(rng, 2, 6, 8)
        out = T.masked_attention(q, k, v, np.zeros((6, 6), np.float32))
        lo = v.data.min(axis=1, keepdims=True) - 1e-5
        hi = v.data.max(axis=1, keepdims=True) + 1e-5
        assert (out.data >= lo).all() and (out.data <= hi).all()


class TestSoftmaxLayernorm:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        s = T.softmax(rand(rng, 3, 7, 11))
        assert np.abs(s.data.sum(axis=-1) - 1.0).max() < 1e-6

    def test_layernorm_moments(self):
        rng = np.random.default_rng(7)
        x = rand(rng, 5, 32)
        g = T.Tensor(np.ones(32, np.float32))
        b = T.Tensor(np.zeros(32, np.float32))
        y = T.layernorm(x, g, b).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-6
        assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = T.Tensor(np.zeros((3, 4), np.float32))
        loss = T.cross_entropy(logits, np.array([0, 1, 3]))
        assert abs(float(loss.data) - math.log(4)) < 1e-6

    def test_confident_logit_low_loss(self):
        x = np.full((1, 5), -50.0, np.float32)
        x[0, 2] = 50.0
        loss = T.cross_entropy(T.Tensor(x), np.array([2]))
        assert float(loss.data) < 1e-6

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 2, (3, 5))
        tgt = np.array([4, 0, 2])
        w = np.array([0.5, 1.5, 1.0])
        loss = T.cross_entropy(T.Tensor(x.astype(np.float32)), tgt, w)
        ref = 0.0
        for i in range(3):
            z = sum(math.exp(v) for v in x[i])
            ref += -w[i] * (x[i, tgt[i]] - math.log(z))
        ref /= w.sum()
        assert abs(float(loss.data) - ref) < 1e-6

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            T.cross_entropy(T.Tensor(np.zeros((2, 4), np.float32)),
                            np.array([0, 4]))


def adam_scalar_oracle(x0, gs, lr, b1=0.9, b2=0.999, eps=1e-8):
    x, m, v = float(x0), 0.0, 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    return x


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": T.Tensor(np.ones(3, np.float32))}
        st = T.AdamState()
        T.adam_step(p, {"w": np.zeros(3, np.float32)}, st, lr=0.1)
        assert np.allclose(p["w"].data, 1.0)
        assert st.t == 1

    def test_first_step_magnitude(self):
        p = {"w": T.Tensor(np.zeros(4, np.float32))}
        T.adam_step(p, {"w": np.full(4, 0.3, np.float32)}, T.AdamState(),
                    lr=0.01)
        # bias-corrected first step has magnitude ~ lr regardless of |g|
        assert np.allclose(np.abs(p["w"].data), 0.01, rtol=1e-4)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(9)
        gs = rng.normal(0, 1, 10)
        p = {"w": T.Tensor(np.array([0.5], np.float32))}
        st = T.AdamState()
        for g in gs:
            T.adam_step(p, {"w": np.array([g], np.float32)}, st, lr=0.05)
        ref = adam_scalar_oracle(0.5, gs, 0.05)
        assert abs(float(p["w"].data[0]) - ref) < 1e-6

    def test_rejects_nonfinite(self):
        p = {"w": T.Tensor(np.ones(2, np.float32))}
        with pytest.raises(T.NonFiniteGradient):
            T.adam_step(p, {"w": np.array([1.0, np.nan], np.float32)},
                        T.AdamState(), lr=0.1)
        assert np.allclose(p["w"].data, 1.0)


class TestGradCheck:
    def test_linear_exact(self):
        rng = np.random.default_rng(10)
        a = rng.normal(0, 1, (4,))
        params = {"x": T.Tensor(rng.normal(0, 1, (4,)).astype(np.float32))}

        def f(p):
            return T.matmul(T.reshape(p["x"], (1, 4)),
                            T.Tensor(a.reshape(4, 1).astype(p["x"].data.dtype)))

        assert T.grad_check(f, params, n_samples=4) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_composite_ops_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        S, D = int(rng.integers(2, 5)), int(rng.integers(4, 9)) * 2
        params = {
            "x": rand(rng, 1, S, D),
            "w": rand(rng, D, D),
            "g": T.Tensor(np.ones(D, np.float32)),
            "b": T.Tensor(np.zeros(D, np.float32)),
        }
        allow = np.tril(np.ones((S, S), bool))
        bias = np.where(allow, 0.0, -1e9)
        tgt = rng.integers(0, D, S)

        def f(p):
            h = T.layernorm(p["x"], p["g"], p["b"])
            h = T.gelu(T.matmul(h, p["w"]))
            nh = 2
            hh = T.transpose(T.reshape(h, (1, S, nh, D // nh)), (0, 2, 1, 3))
            att = T.masked_attention(hh, hh, hh, bias.astype(h.data.dtype))
            att = T.reshape(T.transpose(att, (0, 2, 1, 3)), (S, D))
            return T.cross_entropy(att, tgt)

        assert T.grad_check(f, params, n_samples=30, seed=seed) < 1e-5

    def test_single_attention_block(self):
        rng = np.random.default_rng(99)
        params = {"q": rand(rng, 2, 4, 8), "k": rand(rng, 2, 4, 8),
                  "v": rand(rng, 2, 4, 8)}
        bias = np.where(np.tril(np.ones((4, 4), bool)), 0.0, -1e9)

        def f(p):
            out = T.masked_attention(p["q"], p["k"], p["v"],
                                     bias.astype(p["q"].data.dtype))
            return T.cross_entropy(T.reshape(out, (8, 8)),
                                   np.arange(8) % 8)

        assert T.grad_check(f, params, n_samples=64) < 1e-5


class TestWeightProduct:
    """matmul of a batched `a` by a 2-D weight runs as one 2-D GEMM; its
    weight gradient sums over every leading row."""

    @pytest.mark.parametrize("lead, axes", [((3, 4), None),
                                            ((2, 3, 4), (1, 0, 2, 3))])
    def test_grad_check_over_batched_rows(self, lead, axes):
        rng = np.random.default_rng(len(lead))
        params = {"x": rand(rng, *lead, 6), "w": rand(rng, 6, 5)}
        rows = math.prod(lead)
        tgt = rng.integers(0, 5, rows)

        def f(p):
            # the 4-D case goes through a transpose: a non-contiguous `a`
            x = p["x"] if axes is None else T.transpose(p["x"], axes)
            return T.cross_entropy(T.reshape(T.matmul(x, p["w"]), (rows, 5)),
                                   tgt)

        assert T.grad_check(f, params, n_samples=1000) < 1e-5

    def test_gradients_match_batched_reference(self):
        rng = np.random.default_rng(12)
        a, w = rand(rng, 4, 65, 128), rand(rng, 128, 384)
        out = T.matmul(a, w)
        loss = T.cross_entropy(T.reshape(out, (4 * 65, 384)),
                               rng.integers(0, 384, 4 * 65))
        loss.backward()
        g = out.grad
        # float32 dot-product bound: K * eps * sum of |terms|
        eps = np.finfo(np.float32).eps
        ref_w = (np.swapaxes(a.data, -1, -2) @ g).sum(0)
        bound_w = 4 * 65 * eps * (np.swapaxes(np.abs(a.data), -1, -2)
                                  @ np.abs(g)).sum(0)
        assert (np.abs(w.grad - ref_w) <= bound_w).all()
        ref_a = g @ w.data.T
        bound_a = 384 * eps * (np.abs(g) @ np.abs(w.data).T)
        assert (np.abs(a.grad - ref_a) <= bound_a).all()


class TestTake:
    @pytest.mark.parametrize("axis", [0, 2])
    def test_scalar_index_backward_equals_add_at(self, axis):
        rng = np.random.default_rng(13)
        a = rand(rng, 3, 2, 3, 5)
        # slice 1 is taken twice, so its two gradients must add
        index = (0, 1, 2, 1)
        parts = [T.take(a, np.array(i), axis=axis) for i in index]
        flat = T.concat([T.reshape(p, (-1, 5)) for p in parts], axis=0)
        loss = T.cross_entropy(flat, rng.integers(0, 5, flat.shape[0]))
        loss.backward()
        ref = np.zeros_like(a.data)
        for i, p in zip(index, parts):
            np.add.at(np.moveaxis(ref, axis, 0), np.array(i), p.grad)
        assert np.array_equal(a.grad, ref)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_repeated_array_index_accumulates(self, axis):
        a = T.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4))
        out = T.take(a, np.array([0, 0, 2]), axis=axis)
        rows = T.reshape(out, (-1, out.shape[-1]))
        T.cross_entropy(rows, np.zeros(rows.shape[0], np.int64)).backward()
        g = np.moveaxis(out.grad, axis, 0)
        expect = np.zeros_like(np.moveaxis(a.data, axis, 0))
        expect[0] = g[0] + g[1]
        expect[2] = g[2]
        assert np.array_equal(np.moveaxis(a.grad, axis, 0), expect)


class TestDeterminism:
    def test_forward_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            x = rand(rng, 2, 5, 8)
            w = rand(rng, 8, 8)
            return T.gelu(T.matmul(x, w)).data

        assert np.array_equal(run(), run())


class TestBackwardFreesGraph:
    def test_activation_freed_without_cycle_collector(self):
        # backward must leave no reference cycle holding the graph, so a
        # step's activations are freed by reference counting alone
        rng = np.random.default_rng(0)
        x, w = rand(rng, 4, 8), rand(rng, 8, 8)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            h = T.gelu(T.matmul(x, w))
            activation = weakref.ref(h.data)
            loss = T.cross_entropy(h, np.arange(4))
            del h
            loss.backward()
            del loss
            assert activation() is None
            assert w.grad is not None
        finally:
            if was_enabled:
                gc.enable()
