"""Frame-to-frame matching: descriptor score matrix, dustbin augmentation,
Sinkhorn transport, the association loss, and an exact assignment solver
used as a verification baseline.

Sinkhorn has two loops computing the same map. On the tape it runs in
the log domain, as one node whose backward replays the sweeps. Under
``autodiff.no_grad`` it scales the matrix ``exp(L - max L)`` instead,
which is several times faster, and falls back to the log loop when the
logits or the scalings leave the range where the matrix loop is exact
to rounding (see ``sinkhorn_log``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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
        for _ in range(iters):
            a = mu / (K @ b)
            b = nu / (KT @ a)
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
    node: the forward pass keeps only the per-sweep scaling vectors, and
    the backward pass replays the sweeps in reverse, giving the gradient
    of the unrolled row/column log-sum-exp chain with the same arithmetic.

    Under ``autodiff.no_grad`` (no gradient can be asked for) the sweeps
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
    if not np.isclose(mu.sum(), nu.sum(), rtol=0, atol=1e-9):
        raise MatchingError(
            f"marginal mass mismatch: rows {mu.sum()} vs cols {nu.sum()}")
    if logits.data.shape != (mu.size, nu.size):
        raise MatchingError("logits shape does not match marginals")
    L = logits.data
    if not ad.recording():
        log_plan = _sinkhorn_scaling(L, mu, nu, iters)
        if log_plan is not None:
            return Tensor(log_plan, name="sinkhorn_log")
    log_mu = np.log(mu).reshape(-1, 1)
    log_nu = np.log(nu).reshape(1, -1)
    # vs[k] is the column scaling entering sweep k; rs/us/cs are the row
    # log-sum-exp, row scaling and column log-sum-exp sweep k produced
    vs = [np.zeros((1, nu.size))]
    rs, us, cs = [], [], []
    for _ in range(iters):
        a = L + vs[-1]
        m = a.max(axis=1, keepdims=True)
        r = m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))
        u = log_mu + r * -1.0
        b = L + u
        m = b.max(axis=0, keepdims=True)
        c = m + np.log(np.exp(b - m).sum(axis=0, keepdims=True))
        rs.append(r)
        us.append(u)
        cs.append(c)
        vs.append(log_nu + c * -1.0)

    def backward(g):
        gL = g
        gu = g.sum(axis=1, keepdims=True)
        gv = g.sum(axis=0, keepdims=True)
        for k in reversed(range(iters)):
            gb = (gv * -1.0) * np.exp((L + us[k]) - cs[k])
            gL = gL + gb
            gb_rows = gb.sum(axis=1, keepdims=True)
            # only the last sweep's u also feeds the output directly
            gu = gu + gb_rows if k == iters - 1 else gb_rows
            ga = (gu * -1.0) * np.exp((L + vs[k]) - rs[k])
            gL = gL + ga
            gv = ga.sum(axis=0, keepdims=True)
        logits._accumulate(gL)

    return Tensor((L + us[-1]) + vs[-1], parents=(logits,), backward=backward,
                  name="sinkhorn_log")


def sinkhorn(logits_aug: np.ndarray, marginals_row: np.ndarray,
             marginals_col: np.ndarray, iters: int = 100) -> TransportPlan:
    """Plan values of the ``sinkhorn_log`` node over constant logits."""
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
    """Exact minimum-cost assignment of min(M, N) pairs."""
    cost = np.asarray(cost, dtype=np.float64)
    if not np.all(np.isfinite(cost)):
        raise MatchingError("costs must be finite")
    rows, cols = linear_sum_assignment(cost)
    pairs = sorted(zip(rows.tolist(), cols.tolist()))
    return pairs, float(cost[rows, cols].sum())
