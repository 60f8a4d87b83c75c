"""Minimal dense-array reverse-mode autodiff engine.

Everything is float64. A forward pass records a define-by-run tape of
``Tensor`` nodes; ``Tensor.backward()`` walks the tape once in reverse
topological order and accumulates gradients into leaf tensors.

Only the primitives the association model needs are implemented:
matmul, (broadcast) add, elementwise mul, scale, transpose, relu,
row softmax, row/column log-sum-exp, group normalization, concat,
column slicing, fill-from-scalar, exp and sum.

Two fused nodes replace the primitive chains the model runs most:
``multihead_attention`` (projections, per-head scaled dot-product
softmax, merge and output projection) and ``linear_gn_relu`` (a hidden
MLP layer). Each runs the numpy operations of its primitive composition
in the same order, so its output and every input gradient are equal to
the composition's bit for bit; the primitives remain the reference the
tests compare them with. A fused backward calls ``_accumulate`` on its
inputs in the order the composition's nodes would: a leaf's gradient is
a floating-point sum, so another order rounds differently. Softmax and
group-norm arithmetic has one copy, shared by the primitives and the
fused nodes.

Inside ``no_grad()`` no tape is recorded: every ``Tensor`` built there
drops its parents and its backward closure, so nothing keeps the
intermediate arrays alive and ``backward`` reaches no node. The forward
arithmetic is the same, and each new tensor is still checked for
non-finite values. Code that never takes a gradient, the online tracker,
runs under it.
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


_recording = True


def recording() -> bool:
    """Whether new tensors join the tape (false inside ``no_grad``)."""
    return _recording


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """A block in which new tensors record no parents and no backward
    closure. Nests, and restores the previous state on exit or error."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


class Tensor:
    """A node of the computation tape.

    Interior nodes carry a ``_backward`` closure distributing the upstream
    gradient to their parents. Every tensor that ``backward`` reaches gets
    a ``.grad``, constants included; the tape never reads ``requires_grad``.
    A tensor built inside ``no_grad`` keeps neither parents nor closure,
    but its values are checked for non-finite entries all the same.
    """

    __slots__ = ("data", "parents", "requires_grad", "grad", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, parents: tuple = (),
                 backward: Callable[[np.ndarray], None] | None = None,
                 name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise AutodiffError(f"non-finite values entering tensor {name or '<unnamed>'}")
        self.requires_grad = requires_grad
        self.parents = parents if _recording else ()
        self.grad: np.ndarray | None = None
        self._backward = backward if _recording else None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + g

    def backward(self, output_grad: np.ndarray | None = None) -> None:
        """Reverse pass from this node; visits every node exactly once."""
        if output_grad is None:
            output_grad = np.ones_like(self.data)
        output_grad = np.asarray(output_grad, dtype=np.float64)
        if output_grad.shape != self.data.shape:
            raise AutodiffError(
                f"output grad shape {output_grad.shape} != tensor shape {self.data.shape}")
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
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(output_grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- convenience operators ------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r})"


def constant(x, name: str = "") -> Tensor:
    return Tensor(x, requires_grad=False, name=name)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- primitives ----------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def backward(g):
        a._accumulate(_unbroadcast(g, a.data.shape))
        b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward, name="add")


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def backward(g):
        a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, parents=(a, b), backward=backward, name="mul")


def scale(a, k: float) -> Tensor:
    a = _wrap(a)
    k = float(k)

    def backward(g):
        a._accumulate(g * k)

    return Tensor(a.data * k, parents=(a,), backward=backward, name="scale")


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise AutodiffError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise AutodiffError(
            f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def backward(g):
        a._accumulate(g @ b.data.T)
        b._accumulate(a.data.T @ g)

    return Tensor(out_data, parents=(a, b), backward=backward, name="matmul")


def transpose(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        a._accumulate(g.T)

    return Tensor(a.data.T, parents=(a,), backward=backward, name="transpose")


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return Tensor(a.data * mask, parents=(a,), backward=backward, name="relu")


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)

    def backward(g):
        a._accumulate(g * out_data)

    return Tensor(out_data, parents=(a,), backward=backward, name="exp")


def _softmax(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an array, overflow-safe via max subtraction."""
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient through the row softmax ``p`` of upstream gradient ``g``."""
    return (g - (g * p).sum(axis=-1, keepdims=True)) * p


def softmax_rows(a) -> Tensor:
    """Row-wise softmax, overflow-safe via max subtraction."""
    a = _wrap(a)
    out_data = _softmax(a.data)

    def backward(g):
        a._accumulate(_softmax_grad(g, out_data))

    return Tensor(out_data, parents=(a,), backward=backward, name="softmax_rows")


def logsumexp_rows(a) -> Tensor:
    """Log-sum-exp along rows of an (M, N) tensor -> (M, 1)."""
    a = _wrap(a)
    m = a.data.max(axis=1, keepdims=True)
    out_data = m + np.log(np.exp(a.data - m).sum(axis=1, keepdims=True))
    soft = np.exp(a.data - out_data)

    def backward(g):
        a._accumulate(g * soft)

    return Tensor(out_data, parents=(a,), backward=backward, name="lse_rows")


def logsumexp_cols(a) -> Tensor:
    """Log-sum-exp along columns of an (M, N) tensor -> (1, N)."""
    a = _wrap(a)
    m = a.data.max(axis=0, keepdims=True)
    out_data = m + np.log(np.exp(a.data - m).sum(axis=0, keepdims=True))
    soft = np.exp(a.data - out_data)

    def backward(g):
        a._accumulate(g * soft)

    return Tensor(out_data, parents=(a,), backward=backward, name="lse_cols")


def concat_cols(tensors: Iterable[Tensor]) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    widths = [t.data.shape[1] for t in ts]
    out_data = np.concatenate([t.data for t in ts], axis=1)

    def backward(g):
        ofs = 0
        for t, w in zip(ts, widths):
            t._accumulate(g[:, ofs:ofs + w])
            ofs += w

    return Tensor(out_data, parents=tuple(ts), backward=backward, name="concat_cols")


def concat_rows(tensors: Iterable[Tensor]) -> Tensor:
    ts = [_wrap(t) for t in tensors]
    heights = [t.data.shape[0] for t in ts]
    out_data = np.concatenate([t.data for t in ts], axis=0)

    def backward(g):
        ofs = 0
        for t, h in zip(ts, heights):
            t._accumulate(g[ofs:ofs + h, :])
            ofs += h

    return Tensor(out_data, parents=tuple(ts), backward=backward, name="concat_rows")


def slice_cols(a, start: int, stop: int) -> Tensor:
    a = _wrap(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        a._accumulate(full)

    return Tensor(a.data[:, start:stop], parents=(a,), backward=backward, name="slice_cols")


def fill(shape: tuple, scalar: Tensor) -> Tensor:
    """Broadcast a 1-element tensor into a constant-valued matrix."""
    scalar = _wrap(scalar)
    if scalar.data.size != 1:
        raise AutodiffError("fill expects a 1-element tensor")
    out_data = np.full(shape, float(scalar.data.reshape(-1)[0]))

    def backward(g):
        scalar._accumulate(np.full(scalar.data.shape, g.sum()))

    return Tensor(out_data, parents=(scalar,), backward=backward, name="fill")


def total(a) -> Tensor:
    """Sum all entries to a 1x1 tensor."""
    a = _wrap(a)

    def backward(g):
        a._accumulate(np.full(a.data.shape, g.reshape(-1)[0]))

    return Tensor(a.data.sum().reshape(1, 1), parents=(a,), backward=backward, name="total")


def mean_rows(a) -> Tensor:
    """Mean over rows of an (M, N) tensor -> (1, N)."""
    a = _wrap(a)
    m = a.data.shape[0]
    out_data = a.data.mean(axis=0, keepdims=True)

    def backward(g):
        a._accumulate(np.repeat(g, m, axis=0) / m)

    return Tensor(out_data, parents=(a,), backward=backward, name="mean_rows")


def _group_norm(a: np.ndarray, gamma: Tensor, beta: Tensor,
                num_groups: int | None, eps: float):
    """Group normalization of the rows of array ``a``, scaled and shifted
    by ``gamma`` and ``beta``. Returns the result and its backward, which
    takes the upstream gradient, accumulates gamma's and beta's, and
    returns the gradient of ``a``.

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
    dev = xg - xg.mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(dev).sum(axis=2, keepdims=True) / gw + eps)
    xhat = (dev * inv).reshape(n, c)
    g_row = gamma.data.reshape(1, c)

    def backward(g):
        gamma._accumulate((g * xhat).sum(axis=0).reshape(gamma.data.shape))
        beta._accumulate(g.sum(axis=0).reshape(beta.data.shape))
        dxhat = (g * g_row).reshape(n, num_groups, gw)
        xh = xhat.reshape(n, num_groups, gw)
        # standard normalization backward per group
        dx = inv / gw * (gw * dxhat
                         - dxhat.sum(axis=2, keepdims=True)
                         - xh * (dxhat * xh).sum(axis=2, keepdims=True))
        return dx.reshape(n, c)

    return xhat * g_row + beta.data.reshape(1, c), backward


def group_norm(x, gamma, beta, num_groups: int | None = None, eps: float = 1e-5) -> Tensor:
    """Per-row group normalization of an (N, C) tensor.

    Channels are split into groups (8 when divisible and at least 2 wide,
    else 1 unless an explicit count is given); each group is standardized
    per row and the result is scaled/shifted by learnable gamma/beta of
    length C. Single-channel groups would standardize to zero and sever
    the gradient, so the default never produces them.
    """
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    out_data, norm_backward = _group_norm(x.data, gamma, beta, num_groups, eps)

    def backward(g):
        x._accumulate(norm_backward(g))

    return Tensor(out_data, parents=(x, gamma, beta), backward=backward, name="group_norm")


# -- fused nodes ---------------------------------------------------------

def linear_gn_relu(x, W: Tensor, b: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """``relu(group_norm(add(matmul(x, W), b), gamma, beta))`` as one node:
    a hidden MLP layer, with group_norm's default groups."""
    x = _wrap(x)
    normed, norm_backward = _group_norm(x.data @ W.data + b.data, gamma, beta,
                                        None, 1e-5)
    mask = normed > 0

    def backward(g):
        ga = norm_backward(g * mask)
        b._accumulate(_unbroadcast(ga, b.data.shape))
        x._accumulate(ga @ W.data.T)
        W._accumulate(x.data.T @ ga)

    return Tensor(normed * mask, parents=(x, W, b, gamma, beta), backward=backward,
                  name="linear_gn_relu")


def multihead_attention(xq, xkv, Wq: Tensor, Wk: Tensor, Wv: Tensor,
                        Wo: Tensor, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of the rows of ``xq`` over
    the rows of ``xkv`` as one node.

    Head h takes columns [h*dh, (h+1)*dh) of the projections, dh =
    d / num_heads: softmax(q_h k_h^T / sqrt(dh)) v_h. The heads are
    concatenated and projected by ``Wo``. The attention logits are
    checked for overflow as the primitive nodes would check them.
    """
    xq, xkv = _wrap(xq), _wrap(xkv)
    q = xq.data @ Wq.data
    k = xkv.data @ Wk.data
    v = xkv.data @ Wv.data
    dh = q.shape[1] // num_heads
    k_scale = float(1.0 / np.sqrt(dh))
    cols = [slice(h * dh, (h + 1) * dh) for h in range(num_heads)]
    # every head's logits in one array, so one check covers them all
    logits = np.empty((num_heads, q.shape[0], k.shape[0]))
    for h, sl in enumerate(cols):
        np.matmul(q[:, sl], k[:, sl].T, out=logits[h])
    logits *= k_scale
    if not np.isfinite(logits).all():
        raise AutodiffError("non-finite attention logits in tensor "
                            "multihead_attention")
    probs = [_softmax(a) for a in logits]
    outs = [p @ v[:, sl] for p, sl in zip(probs, cols)]
    merged = outs[0] if num_heads == 1 else np.concatenate(outs, axis=1)

    def backward(g):
        g_merged = g @ Wo.data.T
        Wo._accumulate(merged.T @ g)
        # C-ordered copies, as the primitives' gradients are: the layout
        # picks the BLAS path of the products below, and so their rounding
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for p, sl in zip(probs, cols):
            g_out = g_merged if num_heads == 1 else g_merged[:, sl].copy()
            g_logits = _softmax_grad(g_out @ v[:, sl].T, p) * k_scale
            dq[:, sl] = g_logits @ k[:, sl]
            dk[:, sl] = (q[:, sl].T @ g_logits).T
            dv[:, sl] = p.T @ g_out
        # Q, then K, then V: the order in which the primitive tape adds
        # into xq's and xkv's gradients, which a self-attention shares
        for x, W, gp in ((xq, Wq, dq), (xkv, Wk, dk), (xkv, Wv, dv)):
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
        """A new parameter, or the existing one of that name, which must
        have the requested shape (a checkpoint must fit the model)."""
        shape = tuple(int(s) for s in shape)
        if name in self.entries:
            if self.entries[name].shape != shape:
                raise AutodiffError(
                    f"parameter {name} has shape {self.entries[name].shape}, "
                    f"the model needs {shape}")
            return self.entries[name]
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
