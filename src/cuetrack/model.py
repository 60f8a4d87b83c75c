"""The association model: cue heads, their sum, temporal encoding, the
attention graph, and the dustbin-Sinkhorn matcher, assembled as one
differentiable pipeline over a pair of frames."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import heads, matching, stog
from .autodiff import ParameterStore, Tensor
from .geometry import normalize_box
from .simulator import Detection


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    descriptor_dim: int = 32
    semantic_dim: int = 16
    appearance_dim: int = 16
    head_hidden: int = 64
    num_layers: int = 4
    num_heads: int = 4
    refine_widths: tuple[int, ...] | None = None
    use_semantic: bool = True
    use_location: bool = True
    use_appearance: bool = True
    use_temporal: bool = True
    closed_set: bool = False
    sinkhorn_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (self.use_semantic or self.use_location or self.use_appearance):
            raise ModelError("at least one cue must be enabled")
        for name in ("num_heads", "descriptor_dim", "semantic_dim", "appearance_dim",
                     "head_hidden", "num_layers", "sinkhorn_iters"):
            if (size := getattr(self, name)) < 1:
                raise ModelError(f"{name} must be at least 1, got {size}")
        for i, size in enumerate(self.refine_widths or ()):
            if size < 1:
                raise ModelError(f"refine_widths[{i}] must be at least 1, got {size}")
        if self.descriptor_dim % self.num_heads != 0:
            raise ModelError(f"descriptor_dim {self.descriptor_dim} not "
                             f"divisible by {self.num_heads} heads")
        if not self.refine or self.refine[-1] != self.descriptor_dim:
            raise ModelError(f"refine_widths {self.refine} must end at "
                             f"descriptor_dim {self.descriptor_dim}")

    @property
    def location_width(self) -> int:
        return 5 if self.closed_set else 4

    @property
    def refine(self) -> tuple[int, ...]:
        """Widths of each STOG layer's refine MLP; (2d, 2d, d) unless set."""
        if self.refine_widths is not None:
            return self.refine_widths
        d = self.descriptor_dim
        return (2 * d, 2 * d, d)


def paper_preset() -> ModelConfig:
    """The published large configuration: d=256, 4 layers, 4 heads,
    refine MLP [512, 512, 256], 100 Sinkhorn iterations."""
    return ModelConfig(descriptor_dim=256, num_layers=4, num_heads=4,
                       refine_widths=(512, 512, 256), sinkhorn_iters=100,
                       head_hidden=256)


def _cue_rows(cue: str, vecs: list[np.ndarray], width: int) -> np.ndarray:
    """One cue's vectors stacked into the (N, width) input of its head.
    A vector of another width or a value that is not finite raises
    ``ModelError`` naming the cue: these rows are where values enter the
    model."""
    try:
        rows = np.stack(vecs)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1:] != (width,):
        bad = next(v for v in vecs if np.shape(v) != (width,))
        raise ModelError(f"{cue} vector of width {np.size(bad)}, the "
                         f"model needs {width}")
    if not np.isfinite(rows).all():
        raise ModelError(f"{cue} vectors hold a value that is not finite")
    return rows


class AssocModel:
    """Owns the parameter store and runs frame-pair forwards.

    The model declares its parameters into a fresh store: heads, STOG,
    dustbin. A given store (a loaded checkpoint) must match it in names
    and shapes, and then replaces it.
    """

    def __init__(self, cfg: ModelConfig, store: ParameterStore | None = None):
        self.cfg = cfg
        self.head_specs = tuple(
            heads.mlp_head_spec(name, width, cfg.head_hidden, 5, cfg.descriptor_dim)
            for name, width, on in (
                ("sem", cfg.semantic_dim, cfg.use_semantic),
                ("loc", cfg.location_width, cfg.use_location),
                ("app", cfg.appearance_dim, cfg.use_appearance)) if on)
        self.store = ParameterStore(cfg.seed)
        for spec in self.head_specs:
            heads.init_head(spec, self.store)
        stog.init_stog(cfg, self.store)
        self.store.create("dustbin", (1, 1), "ones")  # learnable bin score
        if store is not None:
            # shapes first, in declaration order; then the first name, sorted,
            # that only one side holds
            needed, given = self.store.entries, store.entries
            for name, arr in needed.items():
                if name in given and given[name].shape != arr.shape:
                    raise ModelError(f"parameter {name} has shape {given[name].shape}, "
                                     f"the model needs {arr.shape}")
            if needed.keys() != given.keys():
                name = min(needed.keys() ^ given.keys())
                raise ModelError(
                    f"parameter {name} is missing from the checkpoint" if name in needed
                    else f"checkpoint parameter {name} is not a parameter of the model")
            self.store = store

    # -- embedding --------------------------------------------------------

    def cue_inputs(self, dets: list[Detection], image_h: float,
                   image_w: float) -> list[np.ndarray]:
        """The (N, width) input of each enabled cue's head, in
        ``head_specs`` order; a disabled cue's vectors are not read. Each
        is checked for width and for values that are not finite."""
        cfg = self.cfg
        inputs = []
        if cfg.use_semantic:
            inputs.append(_cue_rows("semantic", [d.semantic_vec for d in dets],
                                    cfg.semantic_dim))
        if cfg.use_location:
            inputs.append(_cue_rows("location", [
                heads.location_input(normalize_box(d.box, image_h, image_w),
                                     confidence=d.score,
                                     closed_set=cfg.closed_set)
                for d in dets], cfg.location_width))
        if cfg.use_appearance:
            inputs.append(_cue_rows("appearance",
                                    [d.appearance_vec for d in dets],
                                    cfg.appearance_dim))
        return inputs

    def embed(self, dets: list[Detection], image_h: float, image_w: float,
              leaves: dict[str, Tensor],
              blocks: tuple[slice, ...] | None = None) -> Tensor:
        """The fused descriptor: the sum of the enabled cues' head
        outputs, semantic, then location, then appearance. ``blocks``
        slices ``dets`` into frames that run through each head in one
        pass, with the values and gradients of one pass per frame (see
        ``heads.mlp``); by default ``dets`` is one frame."""
        blocks = blocks or (slice(0, len(dets)),)
        if any(blk.start == blk.stop for blk in blocks):
            raise ModelError("cannot embed an empty detection list")
        return functools.reduce(ad.add, (
            heads.head_forward(spec, leaves, ad.constant(x), blocks)
            for spec, x in zip(self.head_specs,
                               self.cue_inputs(dets, image_h, image_w))))

    # -- pair forward -------------------------------------------------------

    def pair_log_plan(self, key_fused: Tensor, ref_fused: Tensor,
                      leaves: dict[str, Tensor],
                      marginals: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
        """Fused descriptors -> STOG -> scores -> dustbin -> log transport plan."""
        if self.cfg.use_temporal:
            key_fused, ref_fused = heads.temporal_encode(key_fused, ref_fused)
        key_out, ref_out = stog.stog_forward(key_fused, ref_fused, self.cfg,
                                             leaves)
        scores = matching.score_matrix(key_out, ref_out)
        aug = matching.augment_dustbin(scores, leaves["dustbin"])
        m, n = scores.data.shape
        if marginals is None:
            marginals = matching.uniform_dustbin_marginals(m, n)
        return matching.sinkhorn_log(aug, marginals[0], marginals[1],
                                     self.cfg.sinkhorn_iters)

    def forward_pair(self, key_dets: list[Detection], ref_dets: list[Detection],
                     image_h: float, image_w: float,
                     marginals: tuple[np.ndarray, np.ndarray] | None = None,
                     leaves: dict[str, Tensor] | None = None) -> Tensor:
        """Full pipeline on one frame pair; returns the log transport plan.
        Both frames go through the cue heads in one pass, whose fused
        descriptor is then split into the frames' rows."""
        if leaves is None:
            leaves = self.store.leaves()
        m = len(key_dets)
        blocks = (slice(0, m), slice(m, m + len(ref_dets)))
        fused = self.embed([*key_dets, *ref_dets], image_h, image_w, leaves,
                           blocks)
        key_fused, ref_fused = ad.split_rows(fused, blocks)
        return self.pair_log_plan(key_fused, ref_fused, leaves, marginals)
