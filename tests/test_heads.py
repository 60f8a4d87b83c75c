"""Cue projection heads, location packing and temporal encoding.

The MLP oracle is a hand-rolled numpy forward pass evaluated against the
same parameter values the head uses, so any change to layer order,
normalization placement or activation breaks these tests.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack.autodiff import ParameterStore, Tensor, constant, grad_check, total
from cuetrack.geometry import NormalizedBox
from cuetrack.heads import (HeadError, head_forward, init_head,
                            location_input, mlp_head_spec, temporal_encode)

RNG = np.random.default_rng(77)


def _np_group_norm(x, gamma, beta, num_groups=None, eps=1e-5):
    n, w = x.shape
    g = num_groups if num_groups else (8 if w % 8 == 0 and w >= 16 else 1)
    xr = x.reshape(n, g, w // g)
    mu = xr.mean(axis=2, keepdims=True)
    var = xr.var(axis=2, keepdims=True)
    xh = ((xr - mu) / np.sqrt(var + eps)).reshape(n, w)
    return xh * gamma + beta


def _np_head(spec, store, x):
    h = x
    for i in range(len(spec.widths)):
        w = store.entries[f"{spec.name}.l{i}.W"]
        b = store.entries[f"{spec.name}.l{i}.b"]
        h = h @ w + b
        if i < len(spec.widths) - 1:
            h = _np_group_norm(h, store.entries[f"{spec.name}.l{i}.gn.gamma"],
                               store.entries[f"{spec.name}.l{i}.gn.beta"])
            h = np.maximum(h, 0.0)
    return h


class TestHeadForward:
    def test_matches_numpy_oracle(self):
        spec = mlp_head_spec("sem", input_width=6, hidden=8, depth=3, out=4)
        store = ParameterStore(seed=2)
        init_head(spec, store)
        x = RNG.normal(size=(5, 6))
        out = head_forward(spec, store.leaves(), constant(x))
        assert np.allclose(out.data, _np_head(spec, store, x), atol=1e-12)

    def test_spec_shapes(self):
        spec = mlp_head_spec("loc", 4, 16, 5, 8)
        assert spec.widths == (16, 16, 16, 16, 8)

    def test_width_mismatch_raises(self):
        spec = mlp_head_spec("app", 6, 8, 2, 4)
        store = ParameterStore()
        init_head(spec, store)
        with pytest.raises(HeadError):
            head_forward(spec, store.leaves(), constant(np.zeros((3, 5))))

    def test_head_is_differentiable(self):
        spec = mlp_head_spec("sem", 5, 6, 3, 4)
        store = ParameterStore(seed=4)
        init_head(spec, store)
        x = constant(RNG.normal(size=(3, 5)))
        err = grad_check(lambda lv: total(head_forward(spec, lv, x)), store)
        assert err < 1e-6

    @given(st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_batch_rows_are_independent(self, n):
        # group norm is per-row, so row outputs can't depend on batch makeup
        spec = mlp_head_spec("sem", 4, 8, 3, 4)
        store = ParameterStore(seed=6)
        init_head(spec, store)
        x = RNG.normal(size=(n, 4))
        full = head_forward(spec, store.leaves(), constant(x)).data
        row0 = head_forward(spec, store.leaves(), constant(x[:1])).data
        assert np.allclose(full[:1], row0, atol=1e-12)


class TestLocationInput:
    def test_open_vocabulary_is_four_wide(self):
        v = location_input(NormalizedBox(0.1, -0.2, 0.3, 0.4))
        assert v.shape == (4,)
        assert np.allclose(v, [0.1, -0.2, 0.3, 0.4])

    def test_closed_set_appends_confidence(self):
        v = location_input(NormalizedBox(0.1, -0.2, 0.3, 0.4),
                           confidence=0.9, closed_set=True)
        assert v.shape == (5,) and v[4] == 0.9

    def test_closed_set_without_confidence_raises(self):
        with pytest.raises(HeadError):
            location_input(NormalizedBox(0, 0, 1, 1), closed_set=True)


class TestTemporalEncoding:
    def test_opposite_shifts(self):
        k = RNG.normal(size=(3, 6))
        r = RNG.normal(size=(5, 6))
        ek, er = temporal_encode(constant(k), constant(r))
        delta = k.mean(axis=0) - r.mean(axis=0)
        assert np.allclose(ek.data, k + delta, atol=1e-12)
        assert np.allclose(er.data, r - delta, atol=1e-12)

    def test_identical_frames_unchanged(self):
        x = RNG.normal(size=(4, 6))
        ek, er = temporal_encode(constant(x), constant(x.copy()))
        assert np.allclose(ek.data, x, atol=1e-12)
        assert np.allclose(er.data, x, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(HeadError):
            temporal_encode(constant(np.zeros((2, 4))), constant(np.zeros((2, 6))))
