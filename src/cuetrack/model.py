"""The association model: cue heads, fusion, temporal encoding, the
attention graph, and the dustbin-Sinkhorn matcher, assembled as one
differentiable pipeline over a pair of frames."""

from __future__ import annotations

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
        if self.descriptor_dim % self.num_heads != 0:
            raise ModelError(f"descriptor_dim {self.descriptor_dim} not "
                             f"divisible by {self.num_heads} heads")

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


def paper_preset(**overrides) -> ModelConfig:
    """The published large configuration: d=256, 4 layers, 4 heads,
    refine MLP [512, 512, 256], 100 Sinkhorn iterations."""
    base = dict(descriptor_dim=256, num_layers=4, num_heads=4,
                refine_widths=(512, 512, 256), sinkhorn_iters=100,
                head_hidden=256)
    base.update(overrides)
    return ModelConfig(**base)


def _cue_rows(cue: str, vecs: list[np.ndarray], width: int) -> np.ndarray:
    """One cue's vectors stacked into the (N, width) input of its head."""
    try:
        rows = np.stack(vecs)
    except ValueError:
        rows = None
    if rows is None or rows.shape[1:] != (width,):
        bad = next(v for v in vecs if np.shape(v) != (width,))
        raise ModelError(f"{cue} vector of width {np.size(bad)}, the "
                         f"model needs {width}")
    return rows


class AssocModel:
    """Owns the parameter store and runs frame-pair forwards.

    A given store (a loaded checkpoint) must hold exactly the parameters
    the model creates, each of the shape the model needs.
    """

    def __init__(self, cfg: ModelConfig, store: ParameterStore | None = None):
        self.cfg = cfg
        self.head_specs = tuple(
            heads.mlp_head_spec(name, width, cfg.head_hidden, 5, cfg.descriptor_dim)
            for name, width in (("sem", cfg.semantic_dim),
                                ("loc", cfg.location_width),
                                ("app", cfg.appearance_dim)))
        self.enabled = (cfg.use_semantic, cfg.use_location, cfg.use_appearance)
        self.store = store if store is not None else ParameterStore(cfg.seed)
        given = set(self.store.entries)
        names = self._init_params()
        if store is not None and names != given:
            name = min(names ^ given)
            raise ModelError(
                f"parameter {name} is missing from the checkpoint" if name in names
                else f"checkpoint parameter {name} is not a parameter of the model")

    def _init_params(self) -> set[str]:
        """Create every parameter, with no head for a disabled cue; returns
        their names."""
        names = set()
        for spec, on in zip(self.head_specs, self.enabled):
            if on:
                names.update(heads.init_head(spec, self.store))
        names.update(stog.init_stog(self.cfg, self.store))
        self.store.create("dustbin", (1, 1), "ones")  # learnable bin score
        return names | {"dustbin"}

    # -- embedding --------------------------------------------------------

    def cue_inputs(self, dets: list[Detection], image_h: float,
                   image_w: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.cfg
        sem = _cue_rows("semantic", [d.semantic_vec for d in dets],
                        cfg.semantic_dim)
        loc = np.stack([
            heads.location_input(normalize_box(d.box, image_h, image_w),
                                 confidence=d.score,
                                 closed_set=cfg.closed_set)
            for d in dets])
        app = _cue_rows("appearance", [d.appearance_vec for d in dets],
                        cfg.appearance_dim)
        return sem, loc, app

    def embed(self, dets: list[Detection], image_h: float, image_w: float,
              leaves: dict[str, Tensor]) -> Tensor:
        """Per-object cue embeddings summed into the fused descriptor;
        a disabled cue fuses as a zero vector."""
        if not dets:
            raise ModelError("cannot embed an empty detection list")
        zero = ad.constant(np.zeros((len(dets), self.cfg.descriptor_dim)))
        return heads.fuse(*(
            heads.head_forward(spec, leaves, ad.constant(x)) if on else zero
            for spec, x, on in zip(self.head_specs,
                                   self.cue_inputs(dets, image_h, image_w),
                                   self.enabled)))

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
                     leaves: dict[str, Tensor] | None = None) -> tuple[Tensor, dict[str, Tensor]]:
        """Full pipeline on one frame pair; returns (log-plan, leaves)."""
        if leaves is None:
            leaves = self.store.leaves()
        key_fused = self.embed(key_dets, image_h, image_w, leaves)
        ref_fused = self.embed(ref_dets, image_h, image_w, leaves)
        log_plan = self.pair_log_plan(key_fused, ref_fused, leaves, marginals)
        return log_plan, leaves
