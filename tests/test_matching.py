"""Score matrices, dustbin augmentation, Sinkhorn transport and the exact
assignment solver.

Oracles: the 2x2 doubly-stochastic fixed point has a closed form via the
cross-ratio of the kernel (p/(1-p) = sqrt(k11*k22/(k12*k21))), and the
assignment solver is checked against brute-force enumeration of all
permutations for n <= 6.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack import autodiff as ad
from cuetrack.autodiff import ParameterStore, Tensor, constant, grad_check, total
from cuetrack.matching import (MatchingError, association_loss,
                               augment_dustbin, hungarian, score_matrix,
                               sinkhorn, sinkhorn_log,
                               uniform_dustbin_marginals)
from cuetrack.training import build_target

RNG = np.random.default_rng(2024)


def _brute_force_assignment(cost):
    n = cost.shape[0]
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(n)):
        c = sum(cost[i, j] for i, j in enumerate(perm))
        if c < best:
            best, best_perm = c, perm
    return sorted((i, j) for i, j in enumerate(best_perm)), best


class TestScoreMatrix:
    def test_scaled_inner_products(self):
        f = RNG.normal(size=(3, 16))
        g = RNG.normal(size=(5, 16))
        s = score_matrix(constant(f), constant(g))
        assert np.allclose(s.data, f @ g.T / 4.0, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(MatchingError):
            score_matrix(constant(np.zeros((2, 8))), constant(np.zeros((2, 4))))


class TestDustbin:
    def test_augment_shape_and_values(self):
        s = constant(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.array([[0.5]]))
        aug = augment_dustbin(s, b).data
        assert aug.shape == (3, 4)
        assert np.allclose(aug[:2, :3], s.data)
        assert np.allclose(aug[2, :], 0.5)
        assert np.allclose(aug[:, 3], 0.5)

    def test_augment_empty_frame(self):
        aug = augment_dustbin(constant(np.zeros((0, 3))),
                              Tensor(np.array([[1.0]]))).data
        assert aug.shape == (1, 4)

    def test_gradient_reaches_bin_score(self):
        b = Tensor(np.array([[1.0]]), requires_grad=True)
        total(augment_dustbin(constant(np.zeros((2, 3))), b)).backward()
        assert np.allclose(b.grad, [[6.0]])  # 3 + 2 + 1 dustbin cells

    def test_marginals_mass_balance(self):
        rows, cols = uniform_dustbin_marginals(4, 7)
        assert rows.sum() == cols.sum() == 11
        assert rows[-1] == 7 and cols[-1] == 4


class TestSinkhorn:
    def test_two_by_two_closed_form(self):
        s = np.array([[1.3, -0.4], [0.2, 0.9]])
        plan = sinkhorn(s, np.ones(2), np.ones(2), iters=200).values
        r = np.sqrt(np.exp(s[0, 0] + s[1, 1] - s[0, 1] - s[1, 0]))
        p = r / (1.0 + r)
        assert np.allclose(plan, [[p, 1 - p], [1 - p, p]], atol=1e-12)

    def test_marginals_satisfied(self):
        for _ in range(10):
            m, n = RNG.integers(1, 12, size=2)
            logits = RNG.uniform(-3.0, 3.0, size=(m + 1, n + 1))
            rows, cols = uniform_dustbin_marginals(m, n)
            plan = sinkhorn(logits, rows, cols, iters=100)
            assert np.max(np.abs(plan.values.sum(axis=1) - rows)) < 1e-6
            assert np.max(np.abs(plan.values.sum(axis=0) - cols)) < 1e-6

    def test_plan_strictly_positive(self):
        plan = sinkhorn(RNG.normal(size=(4, 4)), np.ones(4), np.ones(4))
        assert np.all(plan.values > 0)

    def test_mass_mismatch_raises(self):
        with pytest.raises(MatchingError):
            sinkhorn(np.zeros((2, 2)), np.ones(2), 2 * np.ones(2))

    def test_zero_iters_rejected(self):
        with pytest.raises(MatchingError):
            sinkhorn(np.zeros((2, 2)), np.ones(2), np.ones(2), iters=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_marginals_rejected(self, bad):
        for rows, cols in (([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, bad])):
            with pytest.raises(MatchingError, match="finite and positive"):
                sinkhorn(np.zeros((2, 2)), np.array(rows), np.array(cols))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_marginals_rejected(self, bad):
        for rows, cols in (([bad, 2.0], [1.0, 1.0]), ([1.0, 1.0], [2.0, bad])):
            with pytest.raises(MatchingError, match="finite and positive"):
                sinkhorn(np.zeros((2, 2)), np.array(rows), np.array(cols))

    def test_symmetric_input_gives_uniform_plan(self):
        plan = sinkhorn(np.zeros((3, 3)), np.ones(3), np.ones(3)).values
        assert np.allclose(plan, 1.0 / 3.0, atol=1e-12)

    def test_differentiable_through_transport(self):
        store = ParameterStore(seed=17)
        store.create("S", (3, 4))
        rows, cols = uniform_dustbin_marginals(2, 3)

        def fn(lv):
            lp = sinkhorn_log(lv["S"], rows, cols, iters=25)
            mask = np.zeros((3, 4))
            mask[0, 1] = mask[1, 0] = 1.0
            return ad_loss(lp, mask)

        from cuetrack.matching import association_loss as ad_loss
        assert grad_check(fn, store) < 1e-6

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_total_mass_conserved(self, m, n, seed):
        rng = np.random.default_rng(seed)
        rows, cols = uniform_dustbin_marginals(m, n)
        plan = sinkhorn(rng.normal(size=(m + 1, n + 1)), rows, cols, iters=60)
        assert abs(plan.values.sum() - (m + n)) < 1e-6


def _unrolled_sinkhorn_log(logits, rows, cols, iters):
    """Reference: the Sinkhorn sweeps unrolled into autodiff primitives."""
    log_mu = constant(np.log(rows).reshape(-1, 1))
    log_nu = constant(np.log(cols).reshape(1, -1))
    u = constant(np.zeros((rows.size, 1)))
    v = constant(np.zeros((1, cols.size)))
    for _ in range(iters):
        u = log_mu - ad.logsumexp_rows(ad.add(logits, v))
        v = log_nu - ad.logsumexp_cols(ad.add(logits, u))
    return ad.add(ad.add(logits, u), v)


def _equivalence_cases():
    rng = np.random.default_rng(7)
    cases = [(rng.normal(size=(2, 2)), *uniform_dustbin_marginals(1, 1), 100)]
    for _ in range(6):
        m, n = (int(x) for x in rng.integers(1, 10, size=2))
        cases.append((rng.normal(scale=3.0, size=(m + 1, n + 1)),
                      *uniform_dustbin_marginals(m, n), int(rng.integers(1, 120))))
    target = build_target([0, 1, 1, None, 4], [1, 0, 2, None])
    cases.append((rng.normal(size=(6, 5)), target.row_marginals,
                  target.col_marginals, 100))
    return cases


class TestFusedSinkhorn:
    @pytest.mark.parametrize("logits, rows, cols, iters", _equivalence_cases())
    def test_matches_unrolled_tape(self, logits, rows, cols, iters):
        weights = np.random.default_rng(3).normal(size=logits.shape)
        results = []
        for fn in (sinkhorn_log, _unrolled_sinkhorn_log):
            x = Tensor(logits, requires_grad=True)
            lp = fn(x, rows, cols, iters)
            total(ad.mul(lp, constant(weights))).backward()
            results.append((lp.data, x.grad))
        (fused, fused_grad), (ref, ref_grad) = results
        assert np.array_equal(fused, ref)
        assert np.array_equal(fused_grad, ref_grad)

    def test_one_tape_node(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        lp = sinkhorn_log(x, *uniform_dustbin_marginals(2, 3), iters=100)
        assert lp.parents == (x,)


def _both_loops(logits, rows, cols, iters):
    """The log-plan on the tape and under ``no_grad``."""
    on_tape = sinkhorn_log(constant(logits), rows, cols, iters).data
    with ad.no_grad():
        off_tape = sinkhorn_log(constant(logits), rows, cols, iters).data
    return on_tape, off_tape


class TestMatrixScalingSinkhorn:
    @pytest.mark.parametrize("logits, rows, cols, iters", _equivalence_cases())
    def test_agrees_with_log_domain(self, logits, rows, cols, iters):
        on_tape, off_tape = _both_loops(logits, rows, cols, iters)
        assert np.max(np.abs(off_tape - on_tape)) <= 1e-12

    def test_past_range_bound_runs_log_loop(self):
        # one logit 650 below the rest; the matrix loop would still give
        # finite scalings here, but rounded otherwise than the log loop
        logits = np.random.default_rng(5).normal(size=(4, 5))
        logits[0, 0] = -650.0
        on_tape, off_tape = _both_loops(logits, *uniform_dustbin_marginals(3, 4),
                                        100)
        assert np.array_equal(off_tape, on_tape)

    def test_underflowing_scaling_runs_log_loop(self):
        # a row marginal of 1e-320 gives a subnormal row scaling, with which
        # the matrix loop would be off by about 1e-4
        logits = np.random.default_rng(6).normal(size=(3, 4))
        rows, cols = np.array([1.0, 1.0, 1e-320]), np.full(4, 0.5)
        on_tape, off_tape = _both_loops(logits, rows, cols, 100)
        assert np.array_equal(off_tape, on_tape)

    def test_no_tape_node(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        with ad.no_grad():
            lp = sinkhorn_log(x, *uniform_dustbin_marginals(2, 3), iters=100)
        assert lp.parents == () and lp.name == "sinkhorn_log"


class TestAssociationLoss:
    def test_hand_value(self):
        lp = constant(np.log(np.array([[0.5, 0.5], [0.25, 0.75]])))
        target = np.array([[1.0, 0.0], [0.0, 0.0]])
        loss = association_loss(lp, target)
        assert np.allclose(loss.data, -np.log(0.5))

    def test_corner_target_rejected(self):
        lp = constant(np.zeros((2, 2)))
        with pytest.raises(MatchingError):
            association_loss(lp, np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MatchingError):
            association_loss(constant(np.zeros((2, 2))), np.zeros((3, 3)))

    def test_masked_cells_contribute_nothing(self):
        lp = constant(RNG.normal(size=(3, 3)))
        t1 = np.zeros((3, 3))
        t1[0, 1] = 1.0
        l1 = float(association_loss(lp, t1).data[0, 0])
        assert np.allclose(l1, -lp.data[0, 1])


class TestAssignment:
    def test_matches_brute_force(self):
        for _ in range(20):
            n = int(RNG.integers(2, 7))
            cost = RNG.normal(size=(n, n))
            pairs, value = hungarian(cost)
            bf_pairs, bf_value = _brute_force_assignment(cost)
            assert abs(value - bf_value) < 1e-12
            assert pairs == bf_pairs

    def test_rectangular(self):
        cost = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 2.0]])
        pairs, value = hungarian(cost)
        assert pairs == [(0, 1), (1, 0)] and value == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(MatchingError):
            hungarian(np.array([[np.inf, 1.0], [1.0, 0.0]]))

    def test_sinkhorn_agrees_with_exact_assignment(self):
        """With well-separated descriptors the transport plan's row argmax
        reproduces the exact assignment."""
        hits = 0
        trials = 50
        for t in range(trials):
            rng = np.random.default_rng(t)
            n = 5
            scores = rng.normal(size=(n, n))
            scores[np.arange(n), rng.permutation(n)] += 6.0  # planted match
            rows, cols = uniform_dustbin_marginals(n, n)
            aug = np.pad(scores, ((0, 1), (0, 1)), constant_values=1.0)
            plan = sinkhorn(aug, rows, cols, iters=100).real
            pairs, _ = hungarian(-scores)
            plan_pairs = sorted((i, int(np.argmax(plan[i]))) for i in range(n))
            hits += plan_pairs == pairs
        assert hits >= 49
