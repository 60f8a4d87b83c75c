"""Tape ops the model does not run, kept as the tests' references.

relu, exp, row softmax, row and column log-sum-exp, column slicing and
group normalization: the fused nodes (``autodiff.multihead_attention``,
``autodiff.linear_gn_relu``) and the Sinkhorn node are checked against
compositions of these and the engine's primitives, and criterion 1
grad-checks each of them. They build ``cuetrack.autodiff.Tensor`` nodes
and share the engine's softmax and group-norm arithmetic, so a fused
node and its reference composition run the same float operations.
"""
from __future__ import annotations

import numpy as np

from cuetrack.autodiff import Tensor, _group_norm, _softmax, _softmax_grad


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return Tensor(a.data * mask, parents=(a,), backward=backward, name="relu")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return Tensor(out_data, parents=(a,), backward=backward, name="exp")


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax, overflow-safe via max subtraction."""
    out_data = _softmax(a.data)

    def backward(g):
        a._accumulate(_softmax_grad(g, out_data))

    return Tensor(out_data, parents=(a,), backward=backward, name="softmax_rows")


def logsumexp_rows(a: Tensor) -> Tensor:
    """Log-sum-exp along rows of an (M, N) tensor -> (M, 1)."""
    m = a.data.max(axis=1, keepdims=True)
    out_data = m + np.log(np.exp(a.data - m).sum(axis=1, keepdims=True))
    soft = np.exp(a.data - out_data)

    def backward(g):
        a._accumulate(g * soft)

    return Tensor(out_data, parents=(a,), backward=backward, name="lse_rows")


def logsumexp_cols(a: Tensor) -> Tensor:
    """Log-sum-exp along columns of an (M, N) tensor -> (1, N)."""
    m = a.data.max(axis=0, keepdims=True)
    out_data = m + np.log(np.exp(a.data - m).sum(axis=0, keepdims=True))
    soft = np.exp(a.data - out_data)

    def backward(g):
        a._accumulate(g * soft)

    return Tensor(out_data, parents=(a,), backward=backward, name="lse_cols")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        a._accumulate(full)

    return Tensor(a.data[:, start:stop], parents=(a,), backward=backward, name="slice_cols")


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               num_groups: int | None = None, eps: float = 1e-5) -> Tensor:
    """Per-row group normalization of an (N, C) tensor.

    Channels are split into groups (8 when divisible and at least 2 wide,
    else 1 unless an explicit count is given); each group is standardized
    per row and the result is scaled/shifted by learnable gamma/beta of
    length C. Single-channel groups would standardize to zero and sever
    the gradient, so the default never produces them.
    """
    out_data, norm_backward = _group_norm(x.data, gamma, beta, num_groups, eps,
                                          (slice(0, x.data.shape[0]),))

    def backward(g):
        x._accumulate(norm_backward(g))

    return Tensor(out_data, parents=(x, gamma, beta), backward=backward, name="group_norm")
