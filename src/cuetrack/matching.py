"""Frame-to-frame matching: descriptor score matrix, dustbin augmentation,
Sinkhorn transport, the association loss, and the package's one exact
assignment solver, which evaluation and the verification baselines call.

Sinkhorn has two loops computing the same map. On the tape it runs in
the log domain, as one node whose backward runs the sweeps in reverse
over matrices its forward kept. Over logits no gradient can reach (the
tracker's, and ``sinkhorn``'s constants) it scales the matrix
``exp(L - max L)`` instead, which is several times faster, and falls
back to the log loop when the logits or the scalings leave the range
where the matrix loop is exact to rounding (see ``sinkhorn_log``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class MatchingError(Exception):
    pass


@dataclass
class TransportPlan:
    values: np.ndarray           # (M+1, N+1), strictly positive

    @property
    def real(self) -> np.ndarray:
        """The plan without the dustbin row/column."""
        return self.values[:-1, :-1]


def score_matrix(key_desc: Tensor, ref_desc: Tensor) -> Tensor:
    """Scaled inner products: S_ij = <f_i, g_j> / sqrt(d)."""
    d = key_desc.data.shape[1]
    if ref_desc.data.shape[1] != d:
        raise MatchingError("descriptor widths differ")
    return ad.scale(ad.matmul(key_desc, ad.transpose(ref_desc)), 1.0 / np.sqrt(d))


def augment_dustbin(scores: Tensor, bin_score: Tensor) -> Tensor:
    """Append a dustbin row and column filled with the (learnable) bin
    score; the corner cell is the bin score too."""
    m, n = scores.data.shape
    with_row = ad.concat_rows([scores, ad.fill((1, n), bin_score)])
    return ad.concat_cols([with_row, ad.fill((m + 1, 1), bin_score)])


# The widest logit range the matrix loop takes: exp(-600) ~ 2.6e-261 is
# a normal float64 (the smallest is exp(-708.4)), so every kernel entry
# keeps full precision and the scalings have about 100 nats of room
# before a product term of their sweeps drops out of the normal range
_EXP_RANGE = 600.0


def _sinkhorn_scaling(L: np.ndarray, mu: np.ndarray, nu: np.ndarray,
                      iters: int) -> np.ndarray | None:
    """The log-plan by matrix scaling, or None where it would lose
    precision: a logit range past ``_EXP_RANGE``, or a scaling that is
    non-finite or so small that ``scaling * kernel`` leaves the normal
    range (a zero scaling included)."""
    top = L.max()
    span = top - L.min()
    if span > _EXP_RANGE:
        return None
    K = np.exp(L - top)
    KT = K.T.copy()
    b = np.ones(nu.size)
    with np.errstate(all="ignore"):
        # ``dot`` is the same gemv as ``@``, bit for bit, with less call
        # overhead, and the loop makes 2 * iters of them
        for _ in range(iters):
            a = mu / K.dot(b)
            b = nu / KT.dot(a)
        floor = np.finfo(np.float64).tiny * np.exp(span)
        for s in (a, b):
            if not (np.isfinite(s).all() and s.min() >= floor):
                return None
    return (L - top) + np.log(a).reshape(-1, 1) + np.log(b).reshape(1, -1)


def sinkhorn_log(logits: Tensor, marginals_row: np.ndarray,
                 marginals_col: np.ndarray, iters: int) -> Tensor:
    """Sinkhorn over augmented logits; returns the log-plan.

    Alternates row and column scaling against the marginals for exactly
    ``iters`` sweeps. On the tape, the loop runs in the log domain as one
    node. Its forward keeps each sweep's two matrices, ``L + v`` and ``L +
    u``, with their log-sum-exps, in preallocated stacks: about 0.2 MB per
    training pair at desk size. The backward turns the matrices into their
    softmax weights in place, with one ``exp`` call per kind over the whole
    stack, runs the sweeps in reverse over them, and sums the logits'
    gradient in one reduction over the stack, giving the gradient of the
    unrolled row/column log-sum-exp chain with the same arithmetic. That
    spends the stack, so the backward can run only once: a second
    ``.backward()`` through the node raises ``MatchingError``.

    When no gradient can be asked for (``logits`` takes none) the sweeps
    run in the exp domain instead, as matrix scaling: ``K = exp(L - max
    L)``, then ``a = mu / (K @ b)`` and ``b = nu / (K.T @ a)`` from ``b =
    1``, giving the log-plan ``(L - max L) + log a + log b``. In exact
    arithmetic that is the log loop's map; in float64 the two agree to
    about 1e-14. The log loop runs instead when the logit range exceeds
    ``_EXP_RANGE`` or a scaling comes out non-finite or underflows.
    """
    if iters < 1:
        raise MatchingError("iters must be >= 1")
    mu = np.asarray(marginals_row, dtype=np.float64)
    nu = np.asarray(marginals_col, dtype=np.float64)
    for side, marg in (("row", mu), ("column", nu)):
        if not np.all(np.isfinite(marg)) or not np.all(marg > 0):
            raise MatchingError(f"{side} marginals must be finite and positive")
    if not abs(mu.sum() - nu.sum()) <= 1e-9:
        raise MatchingError(
            f"marginal mass mismatch: rows {mu.sum()} vs cols {nu.sum()}")
    if logits.data.shape != (mu.size, nu.size):
        raise MatchingError("logits shape does not match marginals")
    L = logits.data
    if not logits.requires_grad:
        log_plan = _sinkhorn_scaling(L, mu, nu, iters)
        if log_plan is not None:
            return Tensor(log_plan, name="sinkhorn_log")
    log_mu = np.log(mu).reshape(-1, 1)
    log_nu = np.log(nu).reshape(1, -1)
    # the sweeps are kept last first, the order of the backward: sweep
    # iters - 1 - i keeps b = L + u and a = L + v in slabs 1 + 2i and
    # 2 + 2i of ``terms`` (slab 0 is for the upstream gradient) and their
    # log-sum-exps c and r in slab i of ``cs`` and ``rs``.
    # ``maximum.reduce`` and ``add.reduce`` are ``max`` and ``sum``
    # without the method wrappers
    terms = np.empty((2 * iters + 1,) + L.shape)
    rs = np.empty((iters, mu.size, 1))
    cs = np.empty((iters, 1, nu.size))
    v = np.zeros((1, nu.size))
    e = np.empty_like(L)
    for i in reversed(range(iters)):
        a = np.add(L, v, out=terms[2 + 2 * i])
        m = np.maximum.reduce(a, axis=1, keepdims=True)
        np.exp(np.subtract(a, m, out=e), out=e)
        r = np.log(np.add.reduce(e, axis=1, keepdims=True), out=rs[i])
        r += m
        b = np.add(L, log_mu - r, out=terms[1 + 2 * i])
        m = np.maximum.reduce(b, axis=0, keepdims=True)
        np.exp(np.subtract(b, m, out=e), out=e)
        c = np.log(np.add.reduce(e, axis=0, keepdims=True), out=cs[i])
        c += m
        v = log_nu - c

    def backward(g):
        # every sweep's exp(b - c) and exp(a - r), one call each, in place:
        # that spends the stack, so the node lets go of it
        nonlocal terms
        stack, terms = terms, None
        if stack is None:
            raise MatchingError("sinkhorn_log's backward ran a second time; "
                                "its first run consumed the kept sweeps")
        gbs, gas = stack[1::2], stack[2::2]
        np.exp(np.subtract(gbs, cs, out=gbs), out=gbs)
        np.exp(np.subtract(gas, rs, out=gas), out=gas)
        gu = np.add.reduce(g, axis=1, keepdims=True)
        gv = np.add.reduce(g, axis=0, keepdims=True)
        for i, (gb, ga) in enumerate(zip(gbs, gas)):
            gb *= gv * -1.0
            gb_rows = np.add.reduce(gb, axis=1, keepdims=True)
            # only the last sweep's u also feeds the output directly
            gu = gu + gb_rows if i == 0 else gb_rows
            ga *= gu * -1.0
            gv = np.add.reduce(ga, axis=0, keepdims=True)
        # the logits' gradient is g plus each sweep's two terms, last sweep
        # first, added slab after slab: a reduction over axis 0 adds whole
        # slabs in order, and starting it from -0.0 keeps g's signed zeros
        stack[0] = g
        gL = np.add.reduce(stack, axis=0, initial=-0.0)
        logits._accumulate(gL)

    return Tensor(b + v, parents=(logits,), backward=backward,
                  name="sinkhorn_log")


def sinkhorn(logits_aug: np.ndarray, marginals_row: np.ndarray,
             marginals_col: np.ndarray, iters: int = 100) -> TransportPlan:
    """Plan values of ``sinkhorn_log`` over constant logits, which must be
    finite: its matrix-scaling loop, with the log loop as fallback."""
    logits_aug = np.asarray(logits_aug, dtype=np.float64)
    if not np.isfinite(logits_aug).all():
        raise MatchingError("logits must be finite")
    log_plan = sinkhorn_log(ad.constant(logits_aug), marginals_row,
                            marginals_col, iters)
    return TransportPlan(values=np.exp(log_plan.data))


def uniform_dustbin_marginals(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit mass per real object; each dustbin can absorb the whole
    opposite frame."""
    rows = np.ones(m + 1)
    cols = np.ones(n + 1)
    rows[-1] = n
    cols[-1] = m
    return rows, cols


def association_loss(log_plan: Tensor, target: np.ndarray) -> Tensor:
    """Negative log-likelihood of the target cells under the plan.

    ``target`` is the binary (M+1, N+1) match matrix; the dustbin corner
    must be zero. Cells masked out of the target contribute nothing.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != log_plan.data.shape:
        raise MatchingError("target and plan shapes differ")
    if target[-1, -1] != 0:
        raise MatchingError("dustbin corner cannot be a target")
    return ad.scale(ad.total(ad.mul(log_plan, ad.constant(target))), -1.0)


def hungarian(cost: np.ndarray) -> tuple[list[tuple[int, int]], float]:
    """Exact minimum-cost assignment of min(M, N) pairs: the (row, col)
    pairs in row order, and their total cost.

    This is the package's one assignment solver, scipy's
    ``linear_sum_assignment`` (the Hungarian method). It is imported on the
    first call, so a process that only trains or tracks never loads scipy.
    """
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise MatchingError("costs must be finite")
    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].sum())
