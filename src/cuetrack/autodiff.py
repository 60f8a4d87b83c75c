"""Minimal dense-array reverse-mode autodiff engine.

Everything is float64. A forward pass records a define-by-run tape of
``Tensor`` nodes; ``Tensor.backward()`` walks the tape once in reverse
topological order and accumulates gradients into leaf tensors.

The module holds the ops the association model runs: matmul,
(broadcast) add, elementwise mul, scale, transpose, row and column
concat, row splitting, fill-from-scalar, sum and row mean, and the fused
nodes below. Every op takes ``Tensor`` operands (wrap an array in
``constant`` first) and has one spelling, a function call: ``Tensor``
defines no arithmetic operators, so ``a - b`` is written
``add(a, scale(b, -1.0))``.

Three fused nodes replace the primitive chains the model runs most:
``multihead_attention`` (projections, per-head scaled dot-product
softmax, merge and output projection), ``linear_gn_relu`` (a hidden MLP
layer) and ``linear`` (the bare last one). Each runs the numpy
operations of its composition in the same order, so its output and
every input gradient are equal to the composition's bit for bit. The
ops those compositions need beyond the primitives (relu, exp, row
softmax, row and column log-sum-exp, column slicing and group
normalization) live beside the tests, in ``tests/reference_ops.py``, as
the reference the tests compare the fused nodes with. A fused backward
calls ``_accumulate`` on its inputs in the order the composition's
nodes would: a leaf's gradient is a floating-point sum, so another
order rounds differently. Softmax and group-norm arithmetic has one
copy, ``_softmax``, ``_softmax_grad`` and ``_group_norm``, shared by the
fused nodes and the reference ops; it reduces with ``np.add.reduce`` and
works in place, the float operations of the method wrappers and the
copies.

The two MLP nodes take row blocks, the rows of each frame stacked in
their input (one block when a frame runs alone). Each product runs once
per block and each parameter gradient is summed per block, then added as
a leaf adds two frames' gradients; the row-wise work runs once on the
stack. So a training pair's two frames pass each cue head together with
the values and gradients of one pass per frame, bit for bit.

A tensor's ``.grad`` is a copy of the first gradient it receives, and
later ones are added into it in place; a gradient of another shape than
the tensor's raises ``AutodiffError`` naming the tensor. The backward
walks interior nodes only, in the order of a walk over every node. The
log-domain Sinkhorn node (``matching.sinkhorn_log``) keeps two matrices
per sweep for its backward, about 0.2 MB per training pair at desk
size, which go with the tape once the pair's backward has run.

The attention forward batches its heads: one ``matmul`` over (heads,
rows, dh) views of q and k gives every head's logits, then one softmax
and one ``matmul`` with v's view. numpy runs a stacked ``matmul`` as
one BLAS product per head, on operands with the strides of that head's
column slices, so the output equals that of one product per head bit
for bit at every shape the tests try (1 to 24 rows, 1, 2 and 4 heads,
self- and cross-attention). The backward stays one loop over the heads:
batching its products changed the rounding of the training gradients.

A tensor joins the tape only when a gradient can reach it: when one of
its parents requires a gradient. It then requires one too, so
``requires_grad`` is the one flag: a leaf keeps the one it was given,
and an op's output has it when some input has it. Otherwise the output
keeps neither parents nor backward closure, so nothing keeps the
intermediate arrays alive and ``backward`` reaches no node. Code that
never takes a gradient, the online tracker, runs over constant leaves
and so records no tape, with the same forward arithmetic.

A tensor's values are not checked for non-finite entries as it is built.
Values are checked where they enter the model (the data, config and
checkpoint readers, ``AssocModel.cue_inputs``, ``matching.sinkhorn``)
and where its results leave it (each tracked frame's descriptors and
plan, each training pair's loss and each step's gradients);
``multihead_attention`` checks its own logits. Inside ``checked()``
every new tensor is checked and a non-finite one raises
``AutodiffError`` naming its op: a boundary check that fails re-runs its
frame or pair there, so the error names the first op that made the value.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from typing import Callable, Iterable, Iterator

import numpy as np


class AutodiffError(Exception):
    pass


_checking = False


@contextlib.contextmanager
def checked() -> Iterator[None]:
    """A block in which every new tensor is checked for non-finite values
    and raises ``AutodiffError`` naming its op. Nests, and restores the
    previous state on exit or error."""
    global _checking
    saved, _checking = _checking, True
    try:
        yield
    finally:
        _checking = saved


class Tensor:
    """A node of the computation tape.

    ``requires_grad`` says whether a gradient can reach the tensor. A leaf
    keeps the flag it is given (true for a parameter, false for a
    constant); any other tensor has it when one of its parents has it,
    and then it keeps those parents and a ``_backward`` closure
    distributing the upstream gradient to them. Without the flag it keeps
    neither, and no backward forms or stores its gradient: its ``.grad``
    stays None. Ops take ``Tensor`` operands only.
    Its values are checked for non-finite entries only inside ``checked``.
    """

    __slots__ = ("data", "parents", "requires_grad", "grad", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, parents: tuple = (),
                 backward: Callable[[np.ndarray], None] | None = None,
                 name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        if _checking and not np.isfinite(self.data).all():
            raise AutodiffError(f"non-finite values entering tensor {name or '<unnamed>'}")
        self.requires_grad = requires_grad
        for p in parents:
            if p.requires_grad:
                self.requires_grad = True
                break
        else:
            parents, backward = (), None
        self.parents = parents
        self.grad: np.ndarray | None = None
        self._backward = backward
        self.name = name

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if g.shape != self.data.shape:
            raise AutodiffError(
                f"tensor {self.name or '<unnamed>'}: gradient shape {g.shape} "
                f"!= shape {self.data.shape}")
        if self.grad is None:
            self.grad = g.copy("K")
        else:
            self.grad += g

    def backward(self, output_grad: np.ndarray | None = None) -> None:
        """Reverse pass from this node; visits every node exactly once."""
        if output_grad is None:
            output_grad = np.ones_like(self.data)
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != self.data.shape:
            raise AutodiffError(
                f"output grad shape {output_grad.shape} != tensor shape {self.data.shape}")
        # leaves have no backward: the walk skips them, which keeps its order
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.parents and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(output_grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


def constant(x, name: str = "") -> Tensor:
    return Tensor(x, requires_grad=False, name=name)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape`, of the same rank (undoes broadcasting)."""
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


# -- primitives ----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward, name="add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward, name="mul")


def scale(a: Tensor, k: float) -> Tensor:
    k = float(k)

    def backward(g):
        a._accumulate(g * k)

    return Tensor(a.data * k, parents=(a,), backward=backward, name="scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise AutodiffError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise AutodiffError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(out_data, parents=(a, b), backward=backward, name="matmul")


def transpose(a: Tensor) -> Tensor:

    def backward(g):
        a._accumulate(g.T)

    return Tensor(a.data.T, parents=(a,), backward=backward, name="transpose")


def _softmax(a: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of an array, overflow-safe via max
    subtraction."""
    e = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient through the row softmax ``p`` of upstream gradient ``g``."""
    return (g - np.add.reduce(g * p, axis=-1, keepdims=True)) * p


def concat_cols(tensors: Iterable[Tensor]) -> Tensor:
    ts = list(tensors)
    widths = [t.data.shape[1] for t in ts]
    out_data = np.concatenate([t.data for t in ts], axis=1)

    def backward(g):
        ofs = 0
        for t, w in zip(ts, widths):
            t._accumulate(g[:, ofs:ofs + w])
            ofs += w

    return Tensor(out_data, parents=tuple(ts), backward=backward, name="concat_cols")


def concat_rows(tensors: Iterable[Tensor]) -> Tensor:
    ts = list(tensors)
    heights = [t.data.shape[0] for t in ts]
    out_data = np.concatenate([t.data for t in ts], axis=0)

    def backward(g):
        ofs = 0
        for t, h in zip(ts, heights):
            t._accumulate(g[ofs:ofs + h, :])
            ofs += h

    return Tensor(out_data, parents=tuple(ts), backward=backward, name="concat_rows")


def split_rows(a: Tensor, blocks: tuple[slice, ...]) -> tuple[Tensor, ...]:
    """The row blocks of ``a`` as tensors of their own, one node each.

    A block's backward places its gradient in an array of ``a``'s shape
    filled with -0.0, the one value that leaves every addend as it is,
    signed zeros included; so ``a``'s gradient is its blocks' gradients,
    bit for bit."""

    def part(blk: slice) -> Tensor:
        def backward(g):
            full = np.full_like(a.data, -0.0)
            full[blk] = g
            a._accumulate(full)

        return Tensor(a.data[blk], parents=(a,), backward=backward,
                      name="split_rows")

    return tuple(part(blk) for blk in blocks)


def fill(shape: tuple, scalar: Tensor) -> Tensor:
    """Broadcast a 1-element tensor into a constant-valued matrix."""
    if scalar.data.size != 1:
        raise AutodiffError("fill expects a 1-element tensor")
    out_data = np.full(shape, float(scalar.data.reshape(-1)[0]))

    def backward(g):
        scalar._accumulate(np.full(scalar.data.shape, g.sum()))

    return Tensor(out_data, parents=(scalar,), backward=backward, name="fill")


def total(a: Tensor) -> Tensor:
    """Sum all entries to a 1x1 tensor."""

    def backward(g):
        a._accumulate(np.full(a.data.shape, g.reshape(-1)[0]))

    return Tensor(a.data.sum().reshape(1, 1), parents=(a,), backward=backward, name="total")


def mean_rows(a: Tensor) -> Tensor:
    """Mean over rows of an (M, N) tensor -> (1, N)."""
    m = a.data.shape[0]
    out_data = a.data.mean(axis=0, keepdims=True)

    def backward(g):
        a._accumulate(np.repeat(g, m, axis=0) / m)

    return Tensor(out_data, parents=(a,), backward=backward, name="mean_rows")


# -- row blocks: frames stacked in one array ---------------------------------

def _rows_matmul(a: np.ndarray, B: np.ndarray,
                 blocks: tuple[slice, ...]) -> np.ndarray:
    """``a @ B``, one product per row block of ``a``. A product over
    stacked frames rounds differently from its frames' products at many
    sizes (a one-row block runs as a gemv, and past about 18 rows the
    gemm blocks its work differently), so a stack is multiplied frame by
    frame."""
    out = np.empty((a.shape[0], B.shape[1]))
    for blk in blocks:
        np.matmul(a[blk], B, out=out[blk])
    return out


def _weight_grad(x: np.ndarray, g: np.ndarray,
                 blocks: tuple[slice, ...]) -> np.ndarray:
    """``x.T @ g``, one product per row block, added in block order."""
    out = x[blocks[0]].T @ g[blocks[0]]
    for blk in blocks[1:]:
        out += x[blk].T @ g[blk]
    return out


def _column_sum(a: np.ndarray, blocks: tuple[slice, ...]) -> np.ndarray:
    """Column sums of ``a``, one ``add.reduce`` per row block, added in
    block order: each frame's node would give its parameter that block's
    sum, and a leaf adds the frames' terms."""
    out = np.add.reduce(a[blocks[0]], axis=0)
    for blk in blocks[1:]:
        out += np.add.reduce(a[blk], axis=0)
    return out


def _affine(x: Tensor, W: Tensor, b: Tensor, blocks: tuple[slice, ...]):
    """``x @ W + b``, one product per row block, and its backward, which
    accumulates b's, x's and W's gradients in the order of the
    ``add(matmul(x, W), b)`` tape. Each block's bias gradient is summed by
    ``add``'s rule, which passes a one-row gradient through as it is,
    signed zeros included."""
    out = _rows_matmul(x.data, W.data, blocks)
    out += b.data

    def backward(g):
        gb = _unbroadcast(g[blocks[0]], b.data.shape)
        for blk in blocks[1:]:
            gb = gb + _unbroadcast(g[blk], b.data.shape)
        b._accumulate(gb)
        if x.requires_grad:
            x._accumulate(_rows_matmul(g, W.data.T, blocks))
        W._accumulate(_weight_grad(x.data, g, blocks))

    return out, backward


def _group_norm(a: np.ndarray, gamma: Tensor, beta: Tensor,
                num_groups: int | None, eps: float,
                blocks: tuple[slice, ...]):
    """Group normalization of the rows of array ``a``, scaled and shifted
    by ``gamma`` and ``beta``. Returns the result and its backward, which
    takes the upstream gradient, accumulates gamma's and beta's (summed
    per row block of ``blocks``), and returns the gradient of ``a``.

    The deviations from the group mean give both the variance, with the
    arithmetic of ``var``, and the standardized values.
    """
    n, c = a.shape
    if num_groups is None:
        num_groups = 8 if c % 8 == 0 and c >= 16 else 1
    if c % num_groups != 0:
        raise AutodiffError(f"channels {c} not divisible by {num_groups} groups")
    gw = c // num_groups
    xg = a.reshape(n, num_groups, gw)
    # ``mean`` is ``add.reduce`` then a division by the count, and ``sum``
    # is ``add.reduce``: the same operations without the method wrappers
    mean = np.add.reduce(xg, axis=2, keepdims=True)
    mean /= gw
    dev = xg - mean
    inv = np.add.reduce(np.square(dev), axis=2, keepdims=True)
    inv /= gw
    inv += eps
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
    dev *= inv
    xhat = dev.reshape(n, c)
    g_row = gamma.data.reshape(1, c)

    def backward(g):
        gamma._accumulate(_column_sum(g * xhat, blocks).reshape(gamma.data.shape))
        beta._accumulate(_column_sum(g, blocks).reshape(beta.data.shape))
        dxhat = (g * g_row).reshape(n, num_groups, gw)
        # standard normalization backward per group; dev is xhat by group
        dx = inv / gw * (gw * dxhat
                         - np.add.reduce(dxhat, axis=2, keepdims=True)
                         - dev * np.add.reduce(dxhat * dev, axis=2, keepdims=True))
        return dx.reshape(n, c)

    out = xhat * g_row
    out += beta.data.reshape(1, c)
    return out, backward


# -- fused nodes ---------------------------------------------------------

def linear(x: Tensor, W: Tensor, b: Tensor,
           blocks: tuple[slice, ...] | None = None) -> Tensor:
    """``add(matmul(x, W), b)`` as one node. ``blocks``, the row slices of
    frames stacked in ``x`` (by default one frame), runs each product once
    per frame and sums the bias gradient per frame, so every value and
    gradient is that of one composition per frame, bit for bit."""
    out, backward = _affine(x, W, b, blocks or (slice(0, x.data.shape[0]),))
    return Tensor(out, parents=(x, W, b), backward=backward, name="linear")


def linear_gn_relu(x: Tensor, W: Tensor, b: Tensor, gamma: Tensor, beta: Tensor,
                   blocks: tuple[slice, ...] | None = None) -> Tensor:
    """``relu(group_norm(add(matmul(x, W), b), gamma, beta))`` as one node:
    a hidden MLP layer, with ``_group_norm``'s default groups.

    ``blocks``, the row slices of frames stacked in ``x`` (by default one
    frame), runs each product once per frame and sums each parameter
    gradient per frame; the bias add, group norm and ReLU work row by
    row, so they run once on the stack. Every value and gradient is then
    that of one node per frame, bit for bit."""
    blocks = blocks or (slice(0, x.data.shape[0]),)
    h, affine_backward = _affine(x, W, b, blocks)
    normed, norm_backward = _group_norm(h, gamma, beta, None, 1e-5, blocks)
    mask = normed > 0
    normed *= mask

    def backward(g):
        affine_backward(norm_backward(g * mask))

    return Tensor(normed, parents=(x, W, b, gamma, beta), backward=backward,
                  name="linear_gn_relu")


def multihead_attention(xq: Tensor, xkv: Tensor, Wq: Tensor, Wk: Tensor,
                        Wv: Tensor, Wo: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of the rows of ``xq`` over
    the rows of ``xkv`` as one node.

    Head h takes columns [h*dh, (h+1)*dh) of the projections, dh =
    d / num_heads: softmax(q_h k_h^T / sqrt(dh)) v_h. The heads are
    concatenated and projected by ``Wo``. The attention logits are
    always checked for overflow: a -inf logit beside finite ones leaves
    the output finite, so no check on the model's results would see it.
    """
    q = xq.data @ Wq.data
    k = xkv.data @ Wk.data
    v = xkv.data @ Wv.data
    n, d = q.shape
    dh = d // num_heads
    k_scale = float(1.0 / np.sqrt(dh))
    cols = [slice(h * dh, (h + 1) * dh) for h in range(num_heads)]

    def by_head(x):
        # (heads, rows, dh) view: head h is x[:, h*dh:(h+1)*dh], strides kept
        return x.reshape(x.shape[0], num_heads, dh).transpose(1, 0, 2)

    # every head's logits in one array, so one check covers them all
    logits = np.matmul(by_head(q), by_head(k).transpose(0, 2, 1))
    logits *= k_scale
    if not np.isfinite(logits).all():
        raise AutodiffError("non-finite attention logits in tensor "
                            "multihead_attention")
    probs = _softmax(logits)
    merged = np.matmul(probs, by_head(v)).transpose(1, 0, 2).reshape(n, d)

    def backward(g):
        g_merged = g @ Wo.data.T
        Wo._accumulate(merged.T @ g)
        # C-ordered copies, as the primitives' gradients are: the layout
        # picks the BLAS path of the products below, and so their rounding
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for p, sl in zip(probs, cols):
            g_out = g_merged[:, sl].copy()
            g_logits = _softmax_grad(g_out @ v[:, sl].T, p) * k_scale
            dq[:, sl] = g_logits @ k[:, sl]
            dk[:, sl] = (q[:, sl].T @ g_logits).T
            dv[:, sl] = p.T @ g_out
        # Q, then K, then V: the order in which the primitive tape adds
        # into xq's and xkv's gradients, which a self-attention shares
        for x, W, gp in ((xq, Wq, dq), (xkv, Wk, dk), (xkv, Wv, dv)):
            if x.requires_grad:
                x._accumulate(gp @ W.data.T)
            W._accumulate(x.data.T @ gp)

    return Tensor(merged @ Wo.data, parents=(xq, xkv, Wq, Wk, Wv, Wo),
                  backward=backward, name="multihead_attention")


# -- parameters -----------------------------------------------------------

def _name_seed(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, sub])))


class ParameterStore:
    """Named, shaped weight arrays with gradient slots.

    Construction from the same seed and the same (name, shape, init)
    requests is bit-identical regardless of request order.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.entries: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def create(self, name: str, shape: tuple, init: str = "xavier") -> np.ndarray:
        """A new parameter with a zero gradient slot; a name the store
        already holds raises."""
        shape = tuple(int(s) for s in shape)
        if name in self.entries:
            raise AutodiffError(f"parameter {name} already exists")
        if init == "xavier":
            fan_in = shape[0]
            fan_out = shape[1] if len(shape) > 1 else shape[0]
            a = np.sqrt(6.0 / (fan_in + fan_out))
            arr = _name_seed(self.seed, name).uniform(-a, a, size=shape)
        elif init == "zeros":
            arr = np.zeros(shape)
        elif init == "ones":
            arr = np.ones(shape)
        else:
            raise AutodiffError(f"unknown init {init!r}")
        self.entries[name] = arr
        self.grads[name] = np.zeros(shape)
        return arr

    def names(self) -> list[str]:
        return sorted(self.entries)

    def zero_grads(self) -> None:
        for name in self.grads:
            self.grads[name][...] = 0.0

    def leaves(self) -> dict[str, Tensor]:
        """Fresh leaf tensors over the current parameter values."""
        return {name: Tensor(self.entries[name], requires_grad=True, name=name)
                for name in self.entries}

    def harvest(self, leaves: dict[str, Tensor]) -> None:
        """Accumulate leaf gradients from a finished backward pass and clear
        them, so the same leaves can serve the next pass."""
        for name, leaf in leaves.items():
            if leaf.grad is not None:
                self.grads[name] += leaf.grad
                leaf.grad = None


def grad_check(fn: Callable[[dict[str, Tensor]], Tensor], store: ParameterStore,
               h: float = 1e-5, param_names: list[str] | None = None) -> float:
    """Max relative error between analytic and central-difference grads.

    ``fn`` maps leaf tensors to an output tensor (sum-reduced internally
    when not scalar). Relative error uses |a - n| / max(1e-12, |a| + |n|).
    """
    if h <= 0:
        raise AutodiffError("h must be positive")
    leaves = store.leaves()
    out = fn(leaves)
    if out.data.size != 1:
        out = total(out)
    out.backward(np.ones_like(out.data))
    analytic = {name: (leaves[name].grad if leaves[name].grad is not None
                       else np.zeros_like(leaves[name].data))
                for name in leaves}

    names = param_names if param_names is not None else store.names()
    max_err = 0.0
    for name in names:
        base = store.entries[name]
        flat = base.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = float(total(fn(store.leaves())).data[0, 0])
            flat[idx] = orig - h
            fm = float(total(fn(store.leaves())).data[0, 0])
            flat[idx] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = analytic[name].reshape(-1)[idx]
            err = abs(a - numeric) / max(1e-12, abs(a) + abs(numeric))
            max_err = max(max_err, err)
    return max_err


# -- checkpoint I/O --------------------------------------------------------

def save_checkpoint(store: ParameterStore, path: str) -> None:
    """Write a single-line JSON manifest then a little-endian f32 blob."""
    names = store.names()
    manifest = {"seed": store.seed, "params": []}
    offset = 0
    for name in names:
        arr = store.entries[name]
        manifest["params"].append(
            {"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    blob = b"".join(
        store.entries[name].astype("<f4").tobytes() for name in names)
    with open(path, "wb") as f:
        f.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        f.write(blob)


def load_checkpoint(path: str) -> ParameterStore:
    """Read a checkpoint as ``save_checkpoint`` writes it. The manifest
    must list each parameter's name, shape of non-negative integers and
    offset, packed back to back, and the blob must hold exactly their
    values; any other header or blob raises ``AutodiffError`` naming the
    file and the fault, as does a value that is not finite."""
    def bad(fault: str) -> AutodiffError:
        return AutodiffError(f"{path}: checkpoint {fault}")

    with open(path, "rb") as f:
        header = f.readline()
        blob = f.read()
    try:
        manifest = json.loads(header.decode("utf-8"))
    except ValueError:  # a UnicodeDecodeError or a JSONDecodeError
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("params"), list):
        raise bad("header is not a JSON object with a params list")
    seed = manifest.get("seed", 0)
    if type(seed) is not int:
        raise bad(f"seed {seed!r} is not an integer")
    layout: dict[str, tuple[tuple[int, ...], int]] = {}
    end = 0
    for i, rec in enumerate(manifest["params"]):
        name = rec.get("name") if isinstance(rec, dict) else None
        if not isinstance(name, str):
            raise bad(f"entry {i} has no string name")
        if name in layout:
            raise bad(f"parameter {name} is listed twice")
        shape = rec.get("shape")
        if not isinstance(shape, list) or not all(
                type(s) is int and s >= 0 for s in shape):
            raise bad(f"parameter {name} shape {shape!r} is not a list of "
                      f"non-negative integers")
        offset = rec.get("offset")
        if type(offset) is not int or offset != end:
            raise bad(f"parameter {name} offset {offset!r} is not {end}, "
                      f"the end of the previous parameter")
        layout[name] = (tuple(shape), offset)
        end += math.prod(shape) * 4
    if len(blob) != end:
        raise bad(f"blob is {len(blob)} bytes, its parameters need {end}")
    store = ParameterStore(seed=seed)
    for name, (shape, offset) in layout.items():
        arr = np.frombuffer(blob, dtype="<f4", count=math.prod(shape),
                            offset=offset).astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise bad(f"parameter {name} has non-finite values")
        store.entries[name] = arr
        store.grads[name] = np.zeros(shape)
    return store
