"""The fused tape nodes against the primitive compositions they replace.

``multihead_attention`` and ``linear_gn_relu`` must give the output and
every input gradient of their compositions bit for bit, so a training
step ends at the same float64 parameters. The compositions below are the
reference; they are the code the fused nodes replaced.
"""
import numpy as np
import pytest

from cuetrack import autodiff as ad
from cuetrack import bench, heads, matching, simulator, stog, training
from cuetrack.autodiff import AutodiffError, Tensor, constant
from cuetrack.geometry import Box
from cuetrack.model import AssocModel, ModelConfig
from cuetrack.simulator import Detection

RNG = np.random.default_rng(2024)


def ref_attention(xq, xkv, Wq, Wk, Wv, Wo, num_heads):
    q = ad.matmul(xq, Wq)
    k = ad.matmul(xkv, Wk)
    v = ad.matmul(xkv, Wv)
    dh = q.data.shape[1] // num_heads
    outs = []
    for h in range(num_heads):
        qh = ad.slice_cols(q, h * dh, (h + 1) * dh)
        kh = ad.slice_cols(k, h * dh, (h + 1) * dh)
        vh = ad.slice_cols(v, h * dh, (h + 1) * dh)
        logits = ad.scale(ad.matmul(qh, ad.transpose(kh)), 1.0 / np.sqrt(dh))
        outs.append(ad.matmul(ad.softmax_rows(logits), vh))
    merged = outs[0] if num_heads == 1 else ad.concat_cols(outs)
    return ad.matmul(merged, Wo)


def ref_linear(x, W, b):
    return ad.add(ad.matmul(x, W), b)


def ref_linear_gn_relu(x, W, b, gamma, beta):
    return ad.relu(ad.group_norm(ad.add(ad.matmul(x, W), b), gamma, beta))


def ref_stog_attention(queries_from, keys_values_from, leaves, prefix,
                       num_heads):
    return ref_attention(queries_from, keys_values_from,
                         *(leaves[f"{prefix}.{w}"] for w in ("Wq", "Wk", "Wv", "Wo")),
                         num_heads)


def ref_mlp(leaves, prefix, x, depth, blocks=None):
    if blocks is not None:
        # frames stacked in x: one composition per frame, stacked again
        return ad.concat_rows([ref_mlp(leaves, prefix, part, depth)
                               for part in ad.split_rows(x, blocks)])
    for i in range(depth):
        w, b, gamma, beta = heads._layer_names(prefix, i)
        if i < depth - 1:
            x = ref_linear_gn_relu(x, leaves[w], leaves[b], leaves[gamma],
                                   leaves[beta])
        else:
            x = ref_linear(x, leaves[w], leaves[b])
    return x


def _run(fn, arrays, call):
    """Output and input gradients of ``fn`` over fresh leaves of
    ``arrays``, after one backward pass of a fixed upstream gradient."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*call(leaves))
    out.backward(np.random.default_rng(5).normal(size=out.data.shape))
    return out.data, [leaf.grad for leaf in leaves]


def _same_bits(a, b) -> bool:
    """Equal shapes and bytes: ``array_equal`` holds -0.0 equal to +0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_bit_equal(fused, ref, arrays, call):
    out, grads = _run(fused, arrays, call)
    ref_out, ref_grads = _run(ref, arrays, call)
    assert _same_bits(out, ref_out)
    for i, (g, rg) in enumerate(zip(grads, ref_grads)):
        assert g is not None and _same_bits(g, rg), f"input {i}"


class TestAttentionEquivalence:
    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("rows", [5, 1])
    def test_self_attention(self, num_heads, rows):
        d = 8
        arrays = [RNG.normal(size=(rows, d))] + [
            RNG.normal(size=(d, d)) for _ in range(4)]
        _assert_bit_equal(ad.multihead_attention, ref_attention, arrays,
                          lambda t: (t[0], t[0], *t[1:], num_heads))

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("rows", [(4, 6), (1, 6), (4, 1)])
    def test_cross_attention(self, num_heads, rows):
        d = 8
        arrays = [RNG.normal(size=(rows[0], d)), RNG.normal(size=(rows[1], d))] + [
            RNG.normal(size=(d, d)) for _ in range(4)]
        _assert_bit_equal(ad.multihead_attention, ref_attention, arrays,
                          lambda t: (*t, num_heads))

    @pytest.mark.parametrize("weight", [1.0, -1.0])
    def test_overflowing_logits_raise_naming_the_node(self, weight):
        # rows of 1e200 take every logit to +inf (weight 1) or to -inf
        # (weight -1); a -inf logit beside finite ones leaves the softmax
        # finite, so only the node's own check catches it
        d = 4
        x = np.full((2, d), 1e200)
        kv = np.vstack([np.full((1, d), 1e200), np.ones((1, d))])
        eye = np.eye(d)
        with np.errstate(over="ignore"), \
                pytest.raises(AutodiffError, match="multihead_attention"):
            ad.multihead_attention(constant(x), constant(kv), constant(eye),
                                   constant(weight * eye), constant(eye),
                                   constant(eye), 2)


class TestLinearGnReluEquivalence:
    @pytest.mark.parametrize("width", [8, 16])   # 1 group and 8 groups
    @pytest.mark.parametrize("rows", [3, 1])
    def test_matches_composition(self, width, rows):
        arrays = [RNG.normal(size=(rows, 6)), RNG.normal(size=(6, width)),
                  RNG.normal(size=(1, width)), RNG.normal(size=(1, width)) + 1.0,
                  RNG.normal(size=(1, width))]
        _assert_bit_equal(ad.linear_gn_relu, ref_linear_gn_relu, arrays,
                          lambda t: t)

    def test_relu_input_of_exactly_zero(self):
        x, W = RNG.normal(size=(3, 6)), RNG.normal(size=(6, 16))
        b, gamma, beta = (RNG.normal(size=(1, 16)) for _ in range(3))
        gamma[0, :3] = 0.0
        beta[0, :3] = 0.0
        pre = ad.group_norm(constant(x @ W + b), constant(gamma), constant(beta))
        assert np.all(pre.data[:, :3] == 0.0)
        _assert_bit_equal(ad.linear_gn_relu, ref_linear_gn_relu,
                          [x, W, b, gamma, beta], lambda t: t)

    def test_overflow_raises_naming_the_node(self):
        with ad.checked(), np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(AutodiffError, match="linear_gn_relu"):
            ad.linear_gn_relu(constant(np.full((2, 4), 1e307)),
                              constant(np.ones((4, 8))), constant(np.zeros((1, 8))),
                              constant(np.ones((1, 8))), constant(np.zeros((1, 8))))

    def test_group_statistics_match_var(self):
        # the group norm of the primitives before the shared helper
        rng = np.random.default_rng(11)
        for _ in range(2000):
            groups = int(rng.choice([1, 2, 4, 8]))
            width = groups * int(rng.integers(1, 9))
            rows = int(rng.integers(1, 6))
            x = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-3, 3)
            gamma, beta = rng.normal(size=(1, width)), rng.normal(size=(1, width))
            xg = x.reshape(x.shape[0], groups, -1)
            mu = xg.mean(axis=2, keepdims=True)
            inv = 1.0 / np.sqrt(xg.var(axis=2, keepdims=True) + 1e-5)
            expect = ((xg - mu) * inv).reshape(x.shape) * gamma + beta
            out = ad.group_norm(constant(x), constant(gamma), constant(beta),
                                num_groups=groups)
            assert np.array_equal(out.data, expect)


def frozen_softmax(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def frozen_group_norm(a, gamma, beta, num_groups):
    """The group norm as it was written before its in-place rewrite: the
    output and the gradients of ``a``, gamma and beta for upstream ``g``."""
    n, c = a.shape
    gw = c // num_groups
    xg = a.reshape(n, num_groups, gw)
    dev = xg - xg.mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(dev).sum(axis=2, keepdims=True) / gw + 1e-5)
    xhat = (dev * inv).reshape(n, c)
    g_row = gamma.reshape(1, c)

    def backward(g):
        dxhat = (g * g_row).reshape(n, num_groups, gw)
        xh = xhat.reshape(n, num_groups, gw)
        dx = inv / gw * (gw * dxhat
                         - dxhat.sum(axis=2, keepdims=True)
                         - xh * (dxhat * xh).sum(axis=2, keepdims=True))
        return (dx.reshape(n, c), (g * xhat).sum(axis=0).reshape(gamma.shape),
                g.sum(axis=0).reshape(beta.shape))

    return xhat * g_row + beta.reshape(1, c), backward


def frozen_attention_forward(xq, xkv, Wq, Wk, Wv, Wo, num_heads):
    """The attention forward as it was written before its heads were
    batched: one product, softmax and value product per head."""
    q, k, v = xq @ Wq, xkv @ Wk, xkv @ Wv
    dh = q.shape[1] // num_heads
    cols = [slice(h * dh, (h + 1) * dh) for h in range(num_heads)]
    logits = np.empty((num_heads, q.shape[0], k.shape[0]))
    for h, sl in enumerate(cols):
        np.matmul(q[:, sl], k[:, sl].T, out=logits[h])
    logits *= float(1.0 / np.sqrt(dh))
    outs = [frozen_softmax(a) @ v[:, sl] for a, sl in zip(logits, cols)]
    merged = outs[0] if num_heads == 1 else np.concatenate(outs, axis=1)
    return merged @ Wo


def frozen_linear_gn_relu(x, W, b, gamma, beta, num_groups):
    """The hidden layer as it was written before the tape summed gradients
    in place: the output and the gradients of x, W, b, gamma and beta."""
    normed, norm_backward = frozen_group_norm(x @ W + b, gamma, beta, num_groups)
    mask = normed > 0

    def backward(g):
        ga, g_gamma, g_beta = norm_backward(g * mask)
        return ga @ W.T, x.T @ ga, ga.sum(axis=0, keepdims=True), g_gamma, g_beta

    return normed * mask, backward


def frozen_attention(xq, xkv, Wq, Wk, Wv, Wo, num_heads):
    """The attention node as it was written before the tape summed
    gradients in place: the output and the gradients of xq, xkv and the
    four weights (xq's and xkv's summed when they are one array)."""
    q, k, v = xq @ Wq, xkv @ Wk, xkv @ Wv
    dh = q.shape[1] // num_heads
    k_scale = float(1.0 / np.sqrt(dh))
    cols = [slice(h * dh, (h + 1) * dh) for h in range(num_heads)]
    probs = [frozen_softmax((q[:, sl] @ k[:, sl].T) * k_scale) for sl in cols]
    merged = np.concatenate([p @ v[:, sl] for p, sl in zip(probs, cols)], axis=1)

    def backward(g):
        g_merged = g @ Wo.T
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for p, sl in zip(probs, cols):
            g_out = g_merged if num_heads == 1 else g_merged[:, sl].copy()
            gp = g_out @ v[:, sl].T
            g_logits = (gp - (gp * p).sum(axis=-1, keepdims=True)) * p * k_scale
            dq[:, sl] = g_logits @ k[:, sl]
            dk[:, sl] = (q[:, sl].T @ g_logits).T
            dv[:, sl] = p.T @ g_out
        gx = [dq @ Wq.T, dk @ Wk.T, dv @ Wv.T]
        if xq is xkv:
            gxq = gxkv = (gx[0] + gx[1]) + gx[2]
        else:
            gxq, gxkv = gx[0], gx[1] + gx[2]
        return (gxq, gxkv, xq.T @ dq, xkv.T @ dk, xkv.T @ dv, merged.T @ g)

    return merged @ Wo, backward


# the row counts of a desk model's frames: the one-row gemv case up to
# the most detections a benchmark frame holds
FRAME_ROWS = [1, 2, 3, 7, 10, 16, 24]


class TestFrozenArithmetic:
    """The numpy arithmetic the primitives and the fused nodes share,
    against frozen copies of its earlier form, at the model's shapes. The
    equivalence tests above compare the fused nodes with primitives that
    share that arithmetic, so they cannot see a change to it."""

    @pytest.mark.parametrize("width", [64, 8])   # 8 groups and 1 group
    @pytest.mark.parametrize("rows", FRAME_ROWS)
    def test_group_norm(self, width, rows):
        rng = np.random.default_rng(rows * 100 + width)
        x = rng.normal(size=(rows, width)) * 3.0
        gamma = rng.normal(size=(1, width)) + 1.0
        beta = rng.normal(size=(1, width))
        g = rng.normal(size=(rows, width))
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        out = ad.group_norm(*leaves)
        out.backward(g)
        expect, backward = frozen_group_norm(x, gamma, beta,
                                             8 if width == 64 else 1)
        assert np.array_equal(out.data, expect)
        for leaf, grad in zip(leaves, backward(g)):
            assert np.array_equal(leaf.grad, grad)

    @pytest.mark.parametrize("in_width, width", [(16, 64), (4, 64), (64, 64),
                                                 (64, 8)])
    @pytest.mark.parametrize("rows", FRAME_ROWS)
    def test_linear_gn_relu_forward(self, in_width, width, rows):
        rng = np.random.default_rng(rows * 1000 + in_width + width)
        x, W = rng.normal(size=(rows, in_width)), rng.normal(size=(in_width, width))
        b, gamma, beta = (rng.normal(size=(1, width)) for _ in range(3))
        normed, _ = frozen_group_norm(x @ W + b, gamma, beta,
                                      8 if width == 64 else 1)
        out = ad.linear_gn_relu(*(constant(a) for a in (x, W, b, gamma, beta)))
        assert np.array_equal(out.data, normed * (normed > 0))

    @staticmethod
    def _assert_attention_forward(xq, xkv, num_heads, rng):
        d = xq.shape[1]
        Ws = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(4)]
        out = ad.multihead_attention(constant(xq), constant(xkv),
                                     *(constant(W) for W in Ws), num_heads)
        expect = frozen_attention_forward(xq, xkv, *Ws, num_heads)
        assert np.array_equal(out.data, expect)

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("rows", FRAME_ROWS)
    def test_self_attention_forward(self, num_heads, rows):
        rng = np.random.default_rng(rows * 10 + num_heads)
        x = rng.normal(size=(rows, 32))
        self._assert_attention_forward(x, x, num_heads, rng)

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("rows", [(1, 24), (24, 1), (1, 1), (7, 10),
                                      (16, 3), (24, 24)])
    def test_cross_attention_forward(self, num_heads, rows):
        rng = np.random.default_rng(rows[0] * 100 + rows[1] * 10 + num_heads)
        self._assert_attention_forward(rng.normal(size=(rows[0], 32)),
                                       rng.normal(size=(rows[1], 32)),
                                       num_heads, rng)

    @pytest.mark.parametrize("in_width, width", [(16, 64), (4, 64), (64, 64),
                                                 (64, 8)])
    @pytest.mark.parametrize("rows", FRAME_ROWS)
    def test_linear_gn_relu_backward(self, in_width, width, rows):
        rng = np.random.default_rng(rows * 1000 + in_width + width + 7)
        arrays = [rng.normal(size=(rows, in_width)),
                  rng.normal(size=(in_width, width)) / np.sqrt(in_width)] + [
            rng.normal(size=(1, width)) for _ in range(3)]
        g = rng.normal(size=(rows, width))
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = ad.linear_gn_relu(*leaves)
        out.backward(g)
        expect, backward = frozen_linear_gn_relu(*arrays,
                                                 8 if width == 64 else 1)
        assert out.data.tobytes() == expect.tobytes()
        for i, (leaf, grad) in enumerate(zip(leaves, backward(g))):
            assert leaf.grad.tobytes() == grad.tobytes(), f"input {i}"

    @staticmethod
    def _assert_attention_backward(xq, xkv, num_heads, rng):
        d = xq.shape[1]
        Ws = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(4)]
        g = rng.normal(size=(xq.shape[0], d))
        weights = [Tensor(W.copy(), requires_grad=True) for W in Ws]
        tq = Tensor(xq.copy(), requires_grad=True)
        tkv = tq if xkv is xq else Tensor(xkv.copy(), requires_grad=True)
        out = ad.multihead_attention(tq, tkv, *weights, num_heads)
        out.backward(g)
        expect, backward = frozen_attention(xq, xkv, *Ws, num_heads)
        assert out.data.tobytes() == expect.tobytes()
        for i, (leaf, grad) in enumerate(zip([tq, tkv, *weights], backward(g))):
            assert leaf.grad.tobytes() == grad.tobytes(), f"input {i}"

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("rows", FRAME_ROWS)
    def test_self_attention_backward(self, num_heads, rows):
        rng = np.random.default_rng(rows * 10 + num_heads + 5)
        x = rng.normal(size=(rows, 32))
        self._assert_attention_backward(x, x, num_heads, rng)

    @pytest.mark.parametrize("num_heads", [1, 2, 4])
    @pytest.mark.parametrize("rows", [(1, 24), (24, 1), (1, 1), (7, 10),
                                      (16, 3), (24, 24)])
    def test_cross_attention_backward(self, num_heads, rows):
        rng = np.random.default_rng(rows[0] * 100 + rows[1] * 10 + num_heads + 5)
        self._assert_attention_backward(rng.normal(size=(rows[0], 32)),
                                        rng.normal(size=(rows[1], 32)),
                                        num_heads, rng)

    @pytest.mark.parametrize("rows", FRAME_ROWS)
    def test_softmax_rows(self, rows):
        x = np.random.default_rng(rows).normal(size=(rows, 11)) * 5.0
        assert np.array_equal(ad.softmax_rows(constant(x)).data, frozen_softmax(x))


class TestLinearEquivalence:
    """``linear`` against ``add(matmul(x, W), b)``: the output and the x,
    W and b gradients, byte for byte, for one frame and for two frames
    stacked in one input."""

    @staticmethod
    def _assert_bytes_equal(fused, ref, arrays):
        out, grads = _run(fused, arrays, lambda t: t)
        ref_out, ref_grads = _run(ref, arrays, lambda t: t)
        assert out.tobytes() == ref_out.tobytes()
        for name, g, rg in zip("xWb", grads, ref_grads):
            assert g.tobytes() == rg.tobytes(), name

    @pytest.mark.parametrize("rows", FRAME_ROWS)
    def test_matches_composition(self, rows):
        rng = np.random.default_rng(rows)
        arrays = [rng.normal(size=(rows, 64)), rng.normal(size=(64, 32)),
                  rng.normal(size=(1, 32))]
        self._assert_bytes_equal(ad.linear, ref_linear, arrays)

    @pytest.mark.parametrize("ref_rows", FRAME_ROWS)
    @pytest.mark.parametrize("key_rows", FRAME_ROWS)
    def test_two_blocks_match_one_composition_per_frame(self, key_rows, ref_rows):
        rng = np.random.default_rng(key_rows * 100 + ref_rows)
        rows = key_rows + ref_rows
        blocks = (slice(0, key_rows), slice(key_rows, rows))
        arrays = [rng.normal(size=(rows, 64)), rng.normal(size=(64, 32)),
                  rng.normal(size=(1, 32))]

        def per_frame(x, W, b):
            return ad.concat_rows([ref_linear(part, W, b)
                                   for part in ad.split_rows(x, blocks)])

        self._assert_bytes_equal(lambda x, W, b: ad.linear(x, W, b, blocks),
                                 per_frame, arrays)


def _frame_dets(rows, rng):
    """A desk frame of ``rows`` detections with random boxes, scores and
    cue vectors."""
    out = []
    for _ in range(rows):
        x0, y0 = rng.uniform(0.0, 560.0), rng.uniform(0.0, 400.0)
        box = Box(x0, y0, x0 + rng.uniform(4.0, 80.0), y0 + rng.uniform(4.0, 80.0))
        out.append(Detection(box, float(rng.uniform(0.3, 1.0)),
                             rng.normal(size=16), rng.normal(size=16), 0))
    return out


class TestTwoFramePass:
    """``forward_pair`` runs both frames through each cue head in one pass.
    Its fused descriptors, loss and every parameter gradient must be those
    of one pass per frame, byte for byte, at every pair of frame sizes:
    a stacked product rounds differently past 18 rows and on one-row
    blocks, so the pass multiplies frame by frame."""

    @pytest.mark.parametrize("ref_rows", FRAME_ROWS)
    @pytest.mark.parametrize("key_rows", FRAME_ROWS)
    def test_matches_one_pass_per_frame(self, key_rows, ref_rows, monkeypatch):
        rng = np.random.default_rng(key_rows * 100 + ref_rows)
        asm = AssocModel(ModelConfig(seed=3))
        key, ref = _frame_dets(key_rows, rng), _frame_dets(ref_rows, rng)
        # ids that repeat and go missing: matches, both dustbins, masked rows
        target = training.build_target(
            [i % 4 if i % 5 else None for i in range(key_rows)],
            [i % 3 for i in range(ref_rows)])
        marginals = (target.row_marginals, target.col_marginals)

        def one_pass_per_frame(leaves):
            fused = [asm.embed(dets, bench.IMAGE_H, bench.IMAGE_W, leaves)
                     for dets in (key, ref)]
            return asm.pair_log_plan(*fused, leaves, marginals)

        def two_frame_pass(leaves):
            return asm.forward_pair(key, ref, bench.IMAGE_H, bench.IMAGE_W,
                                    marginals, leaves)

        fused = []
        pair_log_plan = asm.pair_log_plan

        def recording(key_fused, ref_fused, *args):
            fused.append((key_fused, ref_fused))
            return pair_log_plan(key_fused, ref_fused, *args)

        monkeypatch.setattr(asm, "pair_log_plan", recording)
        results = []
        for run in (one_pass_per_frame, two_frame_pass):
            leaves = asm.store.leaves()
            loss = matching.association_loss(run(leaves), target.values)
            loss.backward(np.ones((1, 1)))
            results.append([f.data.tobytes() for f in fused[-1]] + [loss.data.tobytes()]
                           + [leaves[name].grad.tobytes() for name in sorted(leaves)])
        assert len(results[1]) == len(results[0]) == 3 + len(asm.store.entries)
        assert results[1] == results[0]


class TestModelEquivalence:
    def test_train_step_parameters_equal_the_compositions(self, monkeypatch):
        data = simulator.generate_dataset(bench.benchmark_scene(5), 2, 5)
        cfg = training.TrainConfig(batch_pairs=4, seed=0)
        rng = np.random.default_rng(0)
        batch = [training.sample_pair(seq, cfg.max_interval_s, rng)
                 for seq in data for _ in range(2)]

        def step():
            asm = AssocModel(ModelConfig(seed=1))
            assert training._train_step(asm, batch, cfg, bench.IMAGE_H,
                                        bench.IMAGE_W) is not None
            return asm.store.entries

        fused = step()
        monkeypatch.setattr(stog, "attention", ref_stog_attention)
        monkeypatch.setattr(heads, "mlp", ref_mlp)
        ref = step()
        assert fused.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(fused[name], ref[name]), name

    def test_pair_log_plan_tape_size(self, monkeypatch):
        # desk model: d=32, 4 layers, 4 heads; 7 temporal-encoding nodes,
        # 12 per layer (2 attention, 2 refine MLPs of concat, 2 hidden
        # layers, linear and the residual add), 3 for the scores, 4 for
        # the dustbin and 1 Sinkhorn node
        asm = AssocModel(ModelConfig())
        key = constant(RNG.normal(size=(5, 32)))
        ref = constant(RNG.normal(size=(7, 32)))
        leaves = asm.store.leaves()
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("name", ""))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        asm.pair_log_plan(key, ref, leaves)
        assert len(built) == 63
        assert built.count("multihead_attention") == 8
        assert built.count("linear_gn_relu") == 16
        assert built.count("linear") == 8

    def test_forward_pair_tape_size(self, monkeypatch):
        # the 63 nodes of pair_log_plan, plus one head pass over both
        # frames: per head a constant input, 4 hidden layers and 1 linear
        # node, then 2 adds summing the heads and the 2 frames' rows
        asm = AssocModel(ModelConfig())
        rng = np.random.default_rng(4)
        key, ref = _frame_dets(5, rng), _frame_dets(7, rng)
        leaves = asm.store.leaves()
        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("name", ""))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        asm.forward_pair(key, ref, bench.IMAGE_H, bench.IMAGE_W, leaves=leaves)
        assert len(built) == 63 + 3 * 6 + 2 + 2
        assert built.count("linear_gn_relu") == 16 + 3 * 4
        assert built.count("linear") == 8 + 3
        assert built.count("split_rows") == 2
