"""Frame-to-frame matching: descriptor score matrix, dustbin augmentation,
log-domain Sinkhorn transport, the association loss, and an exact
assignment solver used as a verification baseline."""

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


def sinkhorn_log(logits: Tensor, marginals_row: np.ndarray,
                 marginals_col: np.ndarray, iters: int) -> Tensor:
    """Log-domain Sinkhorn over augmented logits; returns the log-plan.

    Alternates row and column scaling against log-marginals for exactly
    ``iters`` sweeps. The whole loop is one tape node: the forward pass
    keeps only the per-sweep scaling vectors, and the backward pass
    replays the sweeps in reverse, giving the gradient of the unrolled
    row/column log-sum-exp chain with the same arithmetic.
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
