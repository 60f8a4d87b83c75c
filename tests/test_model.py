"""The assembled association model: cue toggles, frame-pair forward,
checkpoint reload, and end-to-end differentiability."""
import dataclasses

import numpy as np
import pytest

from cuetrack import heads
from cuetrack.autodiff import constant, load_checkpoint, save_checkpoint
from cuetrack.geometry import Box
from cuetrack.model import AssocModel, ModelConfig, ModelError, paper_preset
from cuetrack.simulator import Detection

H, W = 600.0, 800.0


def _dets(n, seed=0, dim=16):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        x = 50.0 + 80.0 * i
        out.append(Detection(Box(x, 100.0, x + 60.0, 160.0),
                             float(rng.uniform(0.5, 1.0)),
                             rng.normal(size=dim), rng.normal(size=dim), 0))
    return out


def _cfg(**kw):
    args = dict(descriptor_dim=8, semantic_dim=16, appearance_dim=16,
                head_hidden=16, num_layers=2, num_heads=2,
                refine_widths=(16, 8), sinkhorn_iters=30, seed=0)
    args.update(kw)
    return ModelConfig(**args)


class TestConfig:
    def test_all_cues_off_rejected(self):
        with pytest.raises(ModelError):
            _cfg(use_semantic=False, use_location=False, use_appearance=False)

    def test_paper_preset_values(self):
        cfg = paper_preset()
        assert cfg.descriptor_dim == 256
        assert cfg.refine_widths == (512, 512, 256)
        assert cfg.num_layers == 4 and cfg.num_heads == 4
        assert cfg.sinkhorn_iters == 100

    def test_location_width_tracks_mode(self):
        assert _cfg().location_width == 4
        assert _cfg(closed_set=True).location_width == 5


class TestEmbedding:
    def test_disabled_cue_contributes_zero(self):
        dets = _dets(3)
        full = AssocModel(_cfg())
        no_app = AssocModel(_cfg(use_appearance=False))
        e_full = full.embed(dets, H, W, full.store.leaves()).data
        e_no = no_app.embed(dets, H, W, no_app.store.leaves()).data
        # same seed -> identical sem/loc heads; difference is exactly e_app
        leaves = full.store.leaves()
        e_sem, e_loc, e_app = (
            heads.head_forward(spec, leaves, constant(x)).data
            for spec, x in zip(full.head_specs, full.cue_inputs(dets, H, W)))
        assert np.allclose(e_no, e_sem + e_loc, atol=1e-12)
        assert np.allclose(e_full - e_no, e_app, atol=1e-12)

    def test_disabled_cue_creates_no_head(self):
        full = AssocModel(_cfg())
        no_sem = AssocModel(_cfg(use_semantic=False))
        assert set(no_sem.store.entries) == {
            n for n in full.store.entries if not n.startswith("sem.")}
        for name, value in no_sem.store.entries.items():
            assert np.array_equal(value, full.store.entries[name]), name

    def test_disabled_cue_vectors_are_not_read(self):
        no_sem = AssocModel(_cfg(use_semantic=False))
        assert [s.name for s in no_sem.head_specs] == ["loc", "app"]
        dets = [dataclasses.replace(d, semantic_vec=np.zeros(7))
                for d in _dets(3)]
        out = no_sem.embed(dets, H, W, no_sem.store.leaves())
        assert out.data.shape == (3, 8)
        full = AssocModel(_cfg())
        with pytest.raises(ModelError, match="semantic vector of width 7"):
            full.embed(dets, H, W, full.store.leaves())

    @pytest.mark.parametrize("cue", ["semantic", "location", "appearance"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cue_named_at_entry(self, cue, bad):
        dets = _dets(3)
        if cue == "location":
            # ``Box`` rejects a non-finite coordinate, so set one past its
            # check: the model does not rely on every box being built by it
            box = dataclasses.replace(dets[1].box)
            object.__setattr__(box, "x_max" if bad > 0 else "x_min", bad)
            dets[1] = dataclasses.replace(dets[1], box=box)
        else:
            getattr(dets[1], f"{cue}_vec")[2] = bad
        asm = AssocModel(_cfg())
        with pytest.raises(ModelError,
                           match=f"^{cue} vectors hold a value that is not finite$"):
            asm.cue_inputs(dets, H, W)

    def test_overflowing_box_width_named_at_entry(self):
        # finite coordinates whose width overflows to inf
        dets = _dets(3)
        dets[1] = dataclasses.replace(dets[1], box=Box(-1e308, 100.0, 1e308, 160.0))
        asm = AssocModel(_cfg())
        with pytest.raises(ModelError,
                           match="^location vectors hold a value that is not finite$"):
            asm.cue_inputs(dets, H, W)

    def test_empty_frame_rejected(self):
        asm = AssocModel(_cfg())
        with pytest.raises(ModelError):
            asm.embed([], H, W, asm.store.leaves())

    def test_dustbin_initialized_to_one(self):
        asm = AssocModel(_cfg())
        assert asm.store.entries["dustbin"][0, 0] == 1.0


class TestForwardPair:
    def test_log_plan_shape_and_marginals(self):
        asm = AssocModel(_cfg())
        lp = asm.forward_pair(_dets(3), _dets(4, seed=1), H, W)
        plan = np.exp(lp.data)
        assert plan.shape == (4, 5)
        assert np.allclose(plan.sum(axis=0), [1, 1, 1, 1, 3], atol=1e-6)
        assert np.allclose(plan.sum(axis=1), [1, 1, 1, 4], atol=1e-6)

    def test_forward_is_deterministic(self):
        asm = AssocModel(_cfg())
        a = asm.forward_pair(_dets(3), _dets(3, seed=1), H, W)
        b = asm.forward_pair(_dets(3), _dets(3, seed=1), H, W)
        assert np.array_equal(a.data, b.data)

    def test_single_detection_frames(self):
        asm = AssocModel(_cfg())
        lp = asm.forward_pair(_dets(1), _dets(1, seed=1), H, W)
        assert lp.data.shape == (2, 2)


class TestCheckpointReload:
    def test_reload_reproduces_forward(self, tmp_path):
        asm = AssocModel(_cfg(seed=4))
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(asm.store, path)
        asm2 = AssocModel(_cfg(seed=99), store=load_checkpoint(path))
        k, r = _dets(3), _dets(4, seed=1)
        a = asm.forward_pair(k, r, H, W)
        b = asm2.forward_pair(k, r, H, W)
        # float32 storage: near-identical, not bitwise
        assert np.max(np.abs(a.data - b.data)) < 1e-5

    def test_loaded_store_is_adopted_unchanged(self):
        store = AssocModel(_cfg(seed=4)).store
        before = {n: a.copy() for n, a in store.entries.items()}
        asm = AssocModel(_cfg(seed=99), store=store)
        assert asm.store is store
        assert store.entries.keys() == before.keys()
        for name, value in before.items():
            assert np.array_equal(store.entries[name], value), name

    def test_mismatch_reported_shapes_first_then_names(self):
        # shapes in declaration order (heads, STOG, dustbin), then the
        # first name, sorted, that only one side holds
        store = AssocModel(_cfg()).store
        sem_w = store.entries.pop("sem.l0.W")
        store.entries["zz.extra"] = np.zeros((1, 1))
        store.entries["dustbin"] = np.zeros((2, 2))
        store.entries["stog.l1.Wq"] = np.zeros((4, 4))
        for message, name, fix in (
                (r"parameter stog\.l1\.Wq has shape \(4, 4\), the model "
                 r"needs \(8, 8\)", "stog.l1.Wq", np.zeros((8, 8))),
                (r"parameter dustbin has shape \(2, 2\), the model needs "
                 r"\(1, 1\)", "dustbin", np.ones((1, 1))),
                (r"parameter sem\.l0\.W is missing from the checkpoint",
                 "sem.l0.W", sem_w),
                (r"checkpoint parameter zz\.extra is not a parameter of "
                 r"the model", None, None)):
            with pytest.raises(ModelError, match=f"^{message}$"):
                AssocModel(_cfg(), store=store)
            if name:
                store.entries[name] = fix

    def test_loaded_dustbin_not_reset(self, tmp_path):
        asm = AssocModel(_cfg())
        asm.store.entries["dustbin"][0, 0] = 2.5
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(asm.store, path)
        asm2 = AssocModel(_cfg(), store=load_checkpoint(path))
        assert asm2.store.entries["dustbin"][0, 0] == 2.5
