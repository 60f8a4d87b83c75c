"""Score matrices, dustbin augmentation, Sinkhorn transport and the exact
assignment solver.

Oracles: the 2x2 doubly-stochastic fixed point has a closed form via the
cross-ratio of the kernel (p/(1-p) = sqrt(k11*k22/(k12*k21))), and the
assignment solver is checked against brute-force enumeration of all
permutations for n <= 6.
"""
import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack import autodiff as ad
from cuetrack.autodiff import ParameterStore, Tensor, constant, grad_check, total
from cuetrack.matching import (MatchingError, _sinkhorn_scaling,
                               association_loss, augment_dustbin, hungarian,
                               score_matrix, sinkhorn, sinkhorn_log,
                               uniform_dustbin_marginals)
from cuetrack.training import build_target

import reference_ops as ref

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

    def test_mass_tolerance_is_absolute(self):
        sinkhorn(np.zeros((2, 2)), np.ones(2), np.array([1.0, 1.0 + 5e-10]))
        with pytest.raises(MatchingError, match="mass mismatch"):
            sinkhorn(np.zeros((2, 2)), np.ones(2), np.array([1.0, 1.0 + 2e-9]))

    def test_zero_iters_rejected(self):
        with pytest.raises(MatchingError):
            sinkhorn(np.zeros((2, 2)), np.ones(2), np.ones(2), iters=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_marginals_rejected(self, bad):
        for rows, cols in (([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [1.0, bad])):
            with pytest.raises(MatchingError, match="finite and positive"):
                sinkhorn(np.zeros((2, 2)), np.array(rows), np.array(cols))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, bad):
        logits = np.zeros((2, 2))
        logits[1, 0] = bad
        with pytest.raises(MatchingError, match="logits must be finite"):
            sinkhorn(logits, np.ones(2), np.ones(2))

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
        u = ad.add(log_mu, ad.scale(ref.logsumexp_rows(ad.add(logits, v)), -1.0))
        v = ad.add(log_nu, ad.scale(ref.logsumexp_cols(ad.add(logits, u)), -1.0))
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


def frozen_sinkhorn_log(L, mu, nu, iters):
    """The log-domain loop of the ``sinkhorn_log`` node as it was written
    when its backward recomputed each sweep's matrices: the log-plan and
    a function from an upstream gradient to the logits' gradient."""
    log_mu = np.log(mu).reshape(-1, 1)
    log_nu = np.log(nu).reshape(1, -1)
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
            gu = gu + gb_rows if k == iters - 1 else gb_rows
            ga = (gu * -1.0) * np.exp((L + vs[k]) - rs[k])
            gL = gL + ga
            gv = ga.sum(axis=0, keepdims=True)
        return gL

    return (L + us[-1]) + vs[-1], backward


class TestFrozenSinkhorn:
    """The node's loop against its frozen copy, byte for byte, on the
    tape (forward and backward) and in the log fallback over constant
    logits."""

    def test_random_cases_byte_for_byte(self):
        rng = np.random.default_rng(18)
        for _ in range(240):
            m, n = (int(x) for x in rng.integers(1, 25, size=2))
            iters = int(rng.integers(1, 121))
            L = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-1.0, 1.5)
            mu, nu = rng.uniform(0.2, 3.0, m), rng.uniform(0.2, 3.0, n)
            nu *= mu.sum() / nu.sum()
            # the loss's upstream gradient is -0.0 on cells off the target
            g = rng.normal(size=(m, n))
            g[rng.random((m, n)) < 0.3] = -0.0
            expect, backward = frozen_sinkhorn_log(L, mu, nu, iters)
            x = Tensor(L.copy(), requires_grad=True)
            lp = sinkhorn_log(x, mu, nu, iters)
            lp.backward(g)
            where = (m, n, iters)
            assert lp.data.tobytes() == expect.tobytes(), where
            assert x.grad.tobytes() == backward(g).tobytes(), where
            # the node's own upstream gradient is left as it was
            assert lp.grad.tobytes() == g.tobytes(), where

    # a 1x1 plan's stack of gradient terms is one run of elements, which
    # add.reduce sums pairwise (each term there is +-g or a zero, so any
    # order gives its bits); a 1xn or nx1 plan's slabs are one row or one
    # column; an upstream gradient of -0.0 keeps its sign only when the
    # terms' sum starts from -0.0
    @pytest.mark.parametrize("upstream", ["random", "negative zero", "zero"])
    @pytest.mark.parametrize("m, n, iters", [(1, 1, 1), (1, 1, 100), (1, 2, 7),
                                             (1, 24, 100), (2, 1, 7),
                                             (24, 1, 100), (11, 11, 100)])
    def test_edge_plans_byte_for_byte(self, m, n, iters, upstream):
        rng = np.random.default_rng(m * 1000 + n * 10 + iters)
        L = rng.normal(size=(m, n)) * 3.0
        mu, nu = rng.uniform(0.2, 3.0, m), rng.uniform(0.2, 3.0, n)
        nu *= mu.sum() / nu.sum()
        g = {"random": rng.normal(size=(m, n)),
             "negative zero": np.full((m, n), -0.0),
             "zero": np.zeros((m, n))}[upstream]
        expect, backward = frozen_sinkhorn_log(L, mu, nu, iters)
        x = Tensor(L.copy(), requires_grad=True)
        lp = sinkhorn_log(x, mu, nu, iters)
        lp.backward(g)
        assert lp.data.tobytes() == expect.tobytes()
        assert x.grad.tobytes() == backward(g).tobytes()
        assert lp.grad.tobytes() == g.tobytes()

    def test_second_backward_raises(self):
        # the first backward spends the kept sweeps; a second would read
        # softmax weights as logits
        x = Tensor(np.array([[0.5, -1.0], [2.0, 0.0]]), requires_grad=True)
        lp = sinkhorn_log(x, np.ones(2), np.ones(2), 5)
        loss = total(lp)
        loss.backward()
        with pytest.raises(MatchingError, match="second time"):
            loss.backward()

    @pytest.mark.parametrize("m, n, iters", [(1, 2, 1), (4, 5, 100),
                                             (24, 17, 119), (11, 11, 60)])
    def test_log_fallback_under_no_grad_byte_for_byte(self, m, n, iters):
        # a logit 650 below the rest puts the range past _EXP_RANGE
        rng = np.random.default_rng(m * 100 + n)
        L = rng.normal(size=(m, n)) * 3.0
        L[0, 0] = -650.0
        mu, nu = rng.uniform(0.2, 3.0, m), rng.uniform(0.2, 3.0, n)
        nu *= mu.sum() / nu.sum()
        lp = sinkhorn_log(constant(L), mu, nu, iters)
        assert lp.data.tobytes() == frozen_sinkhorn_log(L, mu, nu,
                                                        iters)[0].tobytes()


def _both_loops(logits, rows, cols, iters):
    """The log-plan on the tape (logits that take a gradient) and off it
    (constant logits)."""
    on_tape = sinkhorn_log(Tensor(logits, requires_grad=True), rows, cols,
                           iters).data
    off_tape = sinkhorn_log(constant(logits), rows, cols, iters).data
    return on_tape, off_tape


def _frozen_scaling(L, mu, nu, iters):
    """The matrix-scaling sweeps as they were written with ``@``, for
    logits inside the range the loop takes."""
    top = L.max()
    K = np.exp(L - top)
    KT = K.T.copy()
    b = np.ones(nu.size)
    for _ in range(iters):
        a = mu / (K @ b)
        b = nu / (KT @ a)
    return (L - top) + np.log(a).reshape(-1, 1) + np.log(b).reshape(1, -1)


class TestMatrixScalingSinkhorn:
    def test_matches_frozen_matmul_loop_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for m in range(1, 31):
            for n in range(1, 31):
                L = rng.normal(size=(m, n)) * 3.0
                mu, nu = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, n)
                nu *= mu.sum() / nu.sum()
                assert np.array_equal(_sinkhorn_scaling(L, mu, nu, 100),
                                      _frozen_scaling(L, mu, nu, 100)), (m, n)

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
        x = constant(np.zeros((3, 4)))
        lp = sinkhorn_log(x, *uniform_dustbin_marginals(2, 3), iters=100)
        assert lp.parents == () and lp.name == "sinkhorn_log"

    def test_sinkhorn_runs_the_scaling_loop(self):
        # in range, the plan is exp of the matrix-scaling log-plan; past
        # _EXP_RANGE it is exp of the log loop's
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 6)) * 3.0
        rows, cols = uniform_dustbin_marginals(4, 5)
        plan = sinkhorn(logits, rows, cols, iters=100).values
        assert plan.tobytes() == np.exp(
            _sinkhorn_scaling(logits, rows, cols, 100)).tobytes()
        logits[0, 0] = -650.0
        plan = sinkhorn(logits, rows, cols, iters=100).values
        assert plan.tobytes() == np.exp(
            frozen_sinkhorn_log(logits, rows, cols, 100)[0]).tobytes()


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

    def test_scipy_loads_only_where_an_assignment_is_solved(self):
        """Importing the package, training and tracking never load scipy;
        the first evaluation does, through ``hungarian``. Run in a fresh
        interpreter, since this one has scipy loaded already."""
        code = textwrap.dedent("""
            import sys
            import cuetrack, cuetrack.bench, cuetrack.cli
            from cuetrack import metrics
            from cuetrack.model import AssocModel, ModelConfig
            from cuetrack.simulator import SceneConfig, generate_dataset
            from cuetrack.tracker import TrackerConfig, track_sequence
            from cuetrack.training import TrainConfig, train

            scene = SceneConfig(duration_s=3.0, seed=1)
            frames = generate_dataset(scene, 1)[0]
            asm = AssocModel(ModelConfig(descriptor_dim=8, head_hidden=16,
                                         num_layers=1, num_heads=2,
                                         sinkhorn_iters=10))
            history = train([frames], TrainConfig(epochs=1, batch_pairs=64),
                            asm, scene.image_h, scene.image_w)
            assert len(history) == 1, history
            rows = track_sequence([(f.time_s, f.detections) for f in frames],
                                  asm, TrackerConfig(), scene.image_h,
                                  scene.image_w)
            assert rows
            assert "scipy" not in sys.modules, "scipy loaded before evaluation"
            metrics.association_accuracy(rows, frames)
            assert "scipy" in sys.modules, "evaluation did not load scipy"
        """)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

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
