"""Spatial-temporal object graph: alternating intra-frame self-attention
and inter-frame cross-attention over object descriptors, each followed by
a residual concat-MLP refinement (the MLP of ``heads``). Each attention
is one fused ``autodiff.multihead_attention`` node."""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import autodiff as ad
from . import heads
from .autodiff import ParameterStore, Tensor

if TYPE_CHECKING:
    from .model import ModelConfig


class StogError(Exception):
    pass


def init_stog(cfg: ModelConfig, store: ParameterStore) -> None:
    """Create every layer's attention projections and refine MLP."""
    d = cfg.descriptor_dim
    for i in range(cfg.num_layers):
        p = f"stog.l{i}"
        for proj in ("Wq", "Wk", "Wv", "Wo"):
            store.create(f"{p}.{proj}", (d, d), "xavier")
        heads.init_mlp(store, f"{p}.mlp", 2 * d, cfg.refine)


def attention(queries_from: Tensor, keys_values_from: Tensor,
              leaves: dict[str, Tensor], prefix: str, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention with learned projections,
    one ``multihead_attention`` tape node.

    Self-attention is this operation with both arguments equal; scaling
    uses the per-head width d/num_heads.
    """
    if keys_values_from.data.shape[0] == 0:
        raise StogError("no attention targets")
    if keys_values_from.data.shape[1] != queries_from.data.shape[1]:
        raise StogError("query/key descriptor widths differ")
    return ad.multihead_attention(
        queries_from, keys_values_from,
        *(leaves[f"{prefix}.{w}"] for w in ("Wq", "Wk", "Wv", "Wo")), num_heads)


def propagation_layer(key: Tensor, ref: Tensor, mode: str,
                      leaves: dict[str, Tensor], prefix: str,
                      cfg: ModelConfig) -> tuple[Tensor, Tensor]:
    """One residual attention layer updating both frames with shared
    weights: out = in + MLP(concat(in, message))."""
    if mode == "self":
        msg_key = attention(key, key, leaves, prefix, cfg.num_heads)
        msg_ref = attention(ref, ref, leaves, prefix, cfg.num_heads)
    elif mode == "cross":
        msg_key = attention(key, ref, leaves, prefix, cfg.num_heads)
        msg_ref = attention(ref, key, leaves, prefix, cfg.num_heads)
    else:
        raise StogError(f"unknown propagation mode {mode!r}")

    def refine(x: Tensor, msg: Tensor) -> Tensor:
        return ad.add(x, heads.mlp(leaves, f"{prefix}.mlp",
                                   ad.concat_cols([x, msg]), len(cfg.refine)))

    return refine(key, msg_key), refine(ref, msg_ref)


def stog_forward(key: Tensor, ref: Tensor, cfg: ModelConfig,
                 leaves: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Alternating self/cross schedule over cfg.num_layers layers,
    starting with self-attention."""
    if key.data.shape[0] == 0 or ref.data.shape[0] == 0:
        raise StogError("empty frame")
    for i in range(cfg.num_layers):
        key, ref = propagation_layer(key, ref, "cross" if i % 2 else "self",
                                     leaves, f"stog.l{i}", cfg)
    return key, ref
