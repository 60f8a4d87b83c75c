"""Attention-based graph propagation: dense-attention oracle, residual
structure, permutation equivariance, differentiability."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack import stog
from cuetrack.autodiff import ParameterStore, add, constant, grad_check, total
from cuetrack.model import ModelConfig, ModelError
from cuetrack.stog import (StogError, attention, init_stog, propagation_layer,
                           stog_forward)

RNG = np.random.default_rng(31)


def _np_attention(x_q, x_kv, store, prefix, num_heads):
    """Dense numpy oracle: per-head softmax(QK^T / sqrt(dh)) V, then Wo."""
    q = x_q @ store.entries[f"{prefix}.Wq"]
    k = x_kv @ store.entries[f"{prefix}.Wk"]
    v = x_kv @ store.entries[f"{prefix}.Wv"]
    d = q.shape[1]
    dh = d // num_heads
    outs = []
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        outs.append(p @ v[:, sl])
    return np.concatenate(outs, axis=1) @ store.entries[f"{prefix}.Wo"]


def _small_cfg(**kw):
    args = dict(descriptor_dim=8, num_layers=2, num_heads=2)
    args.update(kw)
    return ModelConfig(**args)


class TestAttention:
    def test_matches_dense_oracle(self):
        cfg = _small_cfg()
        store = ParameterStore(seed=3)
        init_stog(cfg, store)
        xq = RNG.normal(size=(4, 8))
        xkv = RNG.normal(size=(6, 8))
        out = attention(constant(xq), constant(xkv), store.leaves(),
                        "stog.l0", cfg.num_heads)
        assert np.allclose(out.data,
                           _np_attention(xq, xkv, store, "stog.l0", 2),
                           atol=1e-10)

    def test_single_head_equals_full_width(self):
        cfg = _small_cfg(num_heads=1)
        store = ParameterStore(seed=3)
        init_stog(cfg, store)
        x = RNG.normal(size=(5, 8))
        out = attention(constant(x), constant(x), store.leaves(), "stog.l0", 1)
        assert np.allclose(out.data, _np_attention(x, x, store, "stog.l0", 1),
                           atol=1e-10)

    def test_empty_targets_raise(self):
        cfg = _small_cfg()
        store = ParameterStore(seed=3)
        init_stog(cfg, store)
        with pytest.raises(StogError):
            attention(constant(np.zeros((2, 8))), constant(np.zeros((0, 8))),
                      store.leaves(), "stog.l0", 2)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ModelError):
            ModelConfig(descriptor_dim=10, num_heads=4)


class TestPropagation:
    def test_layer_schedule_alternates(self, monkeypatch):
        cfg = _small_cfg(num_layers=4)
        modes = []
        monkeypatch.setattr(stog, "propagation_layer",
                            lambda k, r, mode, *rest: modes.append(mode) or (k, r))
        stog_forward(constant(np.ones((2, 8))), constant(np.ones((3, 8))),
                     cfg, {})
        assert modes == ["self", "cross", "self", "cross"]

    def test_residual_structure(self):
        """With refine weights zeroed the layer must be the identity."""
        cfg = _small_cfg()
        store = ParameterStore(seed=5)
        init_stog(cfg, store)
        for name in store.names():
            if ".mlp" in name and name.endswith((".W", ".b")):
                store.entries[name][...] = 0.0
        x = RNG.normal(size=(4, 8))
        y = RNG.normal(size=(3, 8))
        ok, orf = propagation_layer(constant(x), constant(y), "cross",
                                    store.leaves(), "stog.l0", cfg)
        assert np.allclose(ok.data, x) and np.allclose(orf.data, y)

    def test_shared_weights_symmetry(self):
        """Swapping the two frames swaps the two outputs."""
        cfg = _small_cfg()
        store = ParameterStore(seed=5)
        init_stog(cfg, store)
        x = RNG.normal(size=(4, 8))
        y = RNG.normal(size=(3, 8))
        k1, r1 = stog_forward(constant(x), constant(y), cfg, store.leaves())
        k2, r2 = stog_forward(constant(y), constant(x), cfg, store.leaves())
        assert np.allclose(k1.data, r2.data, atol=1e-12)
        assert np.allclose(r1.data, k2.data, atol=1e-12)

    def test_unknown_mode(self):
        cfg = _small_cfg()
        store = ParameterStore(seed=5)
        init_stog(cfg, store)
        with pytest.raises(StogError):
            propagation_layer(constant(np.zeros((2, 8))),
                              constant(np.zeros((2, 8))), "dense",
                              store.leaves(), "stog.l0", cfg)

    def test_empty_frame_raises(self):
        cfg = _small_cfg()
        store = ParameterStore(seed=5)
        init_stog(cfg, store)
        with pytest.raises(StogError):
            stog_forward(constant(np.zeros((0, 8))),
                         constant(np.zeros((2, 8))), cfg, store.leaves())


class TestEquivariance:
    @given(st.integers(2, 7), st.integers(2, 7), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_row_permutation_equivariance(self, m, n, seed):
        rng = np.random.default_rng(seed)
        cfg = _small_cfg(num_layers=4)
        store = ParameterStore(seed=8)
        init_stog(cfg, store)
        x = rng.normal(size=(m, 8))
        y = rng.normal(size=(n, 8))
        perm = rng.permutation(m)
        k1, r1 = stog_forward(constant(x), constant(y), cfg, store.leaves())
        k2, r2 = stog_forward(constant(x[perm]), constant(y), cfg,
                              store.leaves())
        assert np.max(np.abs(k1.data[perm] - k2.data)) < 1e-9
        assert np.max(np.abs(r1.data - r2.data)) < 1e-9


class TestGradients:
    def test_full_stack_grad_check(self):
        cfg = _small_cfg(num_layers=2, refine_widths=(8, 8))
        store = ParameterStore(seed=11)
        init_stog(cfg, store)
        x = constant(RNG.normal(size=(3, 8)))
        y = constant(RNG.normal(size=(2, 8)))

        def fn(lv):
            k, r = stog_forward(x, y, cfg, lv)
            return add(total(k), total(r))

        names = [n for n in store.names() if "l0" in n][:6]
        assert grad_check(fn, store, param_names=names) < 1e-5
