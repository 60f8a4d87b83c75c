"""Cue projection heads and feature fusion.

Each head is an MLP projecting one raw cue (class descriptor, normalized
box geometry, appearance vector) into the shared descriptor space of
width d. Hidden layers use group normalization followed by ReLU; the
final layer is bare. Fusion is an elementwise sum, optionally shifted
by a per-frame temporal encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Tensor
from .geometry import NormalizedBox


class HeadError(Exception):
    pass


@dataclass(frozen=True)
class HeadSpec:
    name: str
    input_width: int
    widths: tuple[int, ...]
    use_group_norm: bool = True

    @property
    def output_width(self) -> int:
        return self.widths[-1]


def mlp_head_spec(name: str, input_width: int, hidden: int, depth: int,
                  out: int, use_group_norm: bool = True) -> HeadSpec:
    """A depth-layer MLP: (depth - 1) hidden layers of one width, then out."""
    return HeadSpec(name, input_width, tuple([hidden] * (depth - 1) + [out]),
                    use_group_norm)


def init_head(spec: HeadSpec, store: ParameterStore) -> None:
    in_w = spec.input_width
    for i, out_w in enumerate(spec.widths):
        store.create(f"{spec.name}.l{i}.W", (in_w, out_w), "xavier")
        store.create(f"{spec.name}.l{i}.b", (1, out_w), "zeros")
        last = i == len(spec.widths) - 1
        if spec.use_group_norm and not last:
            store.create(f"{spec.name}.l{i}.gn.gamma", (1, out_w), "ones")
            store.create(f"{spec.name}.l{i}.gn.beta", (1, out_w), "zeros")
        in_w = out_w


def head_forward(spec: HeadSpec, leaves: dict[str, Tensor], x: Tensor) -> Tensor:
    """Run one head on an (N, input_width) batch of cue vectors."""
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_width:
        raise HeadError(
            f"head {spec.name!r} expects width {spec.input_width}, got {x.data.shape}")
    h = x
    for i in range(len(spec.widths)):
        w = leaves[f"{spec.name}.l{i}.W"]
        b = leaves[f"{spec.name}.l{i}.b"]
        if h.data.shape[1] != w.data.shape[0]:
            raise HeadError(f"width mismatch at layer {spec.name}.l{i}")
        h = ad.add(ad.matmul(h, w), b)
        last = i == len(spec.widths) - 1
        if not last:
            if spec.use_group_norm:
                h = ad.group_norm(h, leaves[f"{spec.name}.l{i}.gn.gamma"],
                                  leaves[f"{spec.name}.l{i}.gn.beta"])
            h = ad.relu(h)
    return h


def location_input(nbox: NormalizedBox, confidence: float | None = None,
                   closed_set: bool = False) -> np.ndarray:
    """Pack a normalized box (plus confidence in closed-set mode) for the
    location head."""
    coords = [nbox.x_min, nbox.y_min, nbox.w, nbox.h]
    if closed_set:
        if confidence is None:
            raise HeadError("closed-set mode requires a confidence value")
        coords.append(float(confidence))
    return np.asarray(coords, dtype=np.float64)


def fuse(e_sem: Tensor, e_loc: Tensor, e_app: Tensor) -> Tensor:
    if not (e_sem.data.shape == e_loc.data.shape == e_app.data.shape):
        raise HeadError("cue embeddings must share a shape to fuse")
    return ad.add(ad.add(e_sem, e_loc), e_app)


def temporal_encode(fused_key: Tensor, fused_ref: Tensor) -> tuple[Tensor, Tensor]:
    """Shift both frames' fused embeddings by the inter-frame context delta.

    The frame context is the mean fused embedding; the key frame adds
    (ctx_key - ctx_ref) to every object, the reference frame adds the
    negation. Identical frames are left unchanged.
    """
    if fused_key.data.shape[1] != fused_ref.data.shape[1]:
        raise HeadError("frames disagree on descriptor width")
    ctx_key = ad.mean_rows(fused_key)
    ctx_ref = ad.mean_rows(fused_ref)
    delta = ctx_key - ctx_ref
    return ad.add(fused_key, delta), ad.add(fused_ref, ad.scale(delta, -1.0))
