"""Cue projection heads and the temporal encoding.

Each head is an MLP projecting one raw cue (class descriptor, normalized
box geometry, appearance vector) into the shared descriptor space of
width d through ``mlp``, the MLP the attention graph's refinement blocks
share. Each hidden layer is one ``autodiff.linear_gn_relu`` node:
linear, group normalization, then ReLU; the final layer is a bare
linear. The model sums the enabled heads' outputs; ``temporal_encode``
can then shift both frames' sums by a per-frame context delta.
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


def mlp_head_spec(name: str, input_width: int, hidden: int, depth: int,
                  out: int) -> HeadSpec:
    """A depth-layer MLP: (depth - 1) hidden layers of one width, then out."""
    return HeadSpec(name, input_width, tuple([hidden] * (depth - 1) + [out]))


def _layer_names(prefix: str, i: int) -> tuple[str, str, str, str]:
    """Weight, bias, group-norm gain and group-norm shift of MLP layer i."""
    return (f"{prefix}{i}.W", f"{prefix}{i}.b",
            f"{prefix}{i}.gn.gamma", f"{prefix}{i}.gn.beta")


def init_mlp(store: ParameterStore, prefix: str, in_w: int,
             widths: tuple[int, ...]) -> None:
    """Create weight and bias for every layer, group-norm gain and shift
    for all but the last."""
    for i, out_w in enumerate(widths):
        w, b, gamma, beta = _layer_names(prefix, i)
        store.create(w, (in_w, out_w), "xavier")
        store.create(b, (1, out_w), "zeros")
        if i < len(widths) - 1:
            store.create(gamma, (1, out_w), "ones")
            store.create(beta, (1, out_w), "zeros")
        in_w = out_w


def mlp(leaves: dict[str, Tensor], prefix: str, x: Tensor, depth: int,
        blocks: tuple[slice, ...] | None = None) -> Tensor:
    """Linear, then group norm and ReLU, on each of ``depth`` layers (one
    ``linear_gn_relu`` node each); the last layer is one bare ``linear``.

    ``blocks``, the row slices of frames stacked in ``x`` (by default one
    frame), runs the frames in one pass with the values and gradients of
    one pass per frame."""
    for i in range(depth - 1):
        w, b, gamma, beta = _layer_names(prefix, i)
        x = ad.linear_gn_relu(x, leaves[w], leaves[b], leaves[gamma],
                              leaves[beta], blocks)
    w, b, _, _ = _layer_names(prefix, depth - 1)
    return ad.linear(x, leaves[w], leaves[b], blocks)


def init_head(spec: HeadSpec, store: ParameterStore) -> None:
    init_mlp(store, f"{spec.name}.l", spec.input_width, spec.widths)


def head_forward(spec: HeadSpec, leaves: dict[str, Tensor], x: Tensor,
                 blocks: tuple[slice, ...] | None = None) -> Tensor:
    """Run one head on an (N, input_width) batch of cue vectors, which may
    stack several frames' rows (``blocks``, see ``mlp``)."""
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_width:
        raise HeadError(
            f"head {spec.name!r} expects width {spec.input_width}, got {x.data.shape}")
    return mlp(leaves, f"{spec.name}.l", x, len(spec.widths), blocks)


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
