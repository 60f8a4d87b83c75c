"""Reverse-mode autodiff: primitive gradients vs finite differences,
tape mechanics, the rule for which tensors record a tape, the parameter
store and checkpoint round-trips and checks."""
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuetrack.autodiff import (AutodiffError, ParameterStore, Tensor, add,
                               checked, concat_cols, concat_rows, constant,
                               fill, grad_check, linear_gn_relu,
                               load_checkpoint, matmul, mean_rows, mul,
                               save_checkpoint, scale, split_rows, total,
                               transpose)

from reference_ops import (exp, group_norm, logsumexp_cols, logsumexp_rows,
                           relu, slice_cols, softmax_rows)

RNG = np.random.default_rng(12345)


def _fd(fn, x, h=1e-6):
    """Central-difference gradient of a scalar-valued fn at array x."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def _check_unary(op, x, tol=1e-7):
    t = Tensor(x.copy(), requires_grad=True)
    out = total(op(t))
    out.backward()
    num = _fd(lambda a: float(total(op(Tensor(a))).data[0, 0]), x.copy())
    assert np.max(np.abs(t.grad - num)) < tol, op.__name__


class TestPrimitiveGradients:
    def test_add_mul_scale(self):
        x = RNG.normal(size=(3, 4))
        y = RNG.normal(size=(3, 4))
        a = Tensor(x.copy(), requires_grad=True)
        b = Tensor(y.copy(), requires_grad=True)
        out = total(add(mul(a, b), scale(a, 2.5)))
        out.backward()
        assert np.allclose(a.grad, y + 2.5)
        assert np.allclose(b.grad, x)

    def test_matmul(self):
        x = RNG.normal(size=(3, 5))
        y = RNG.normal(size=(5, 2))
        a = Tensor(x.copy(), requires_grad=True)
        b = Tensor(y.copy(), requires_grad=True)
        g = RNG.normal(size=(3, 2))
        matmul(a, b).backward(g)
        assert np.allclose(a.grad, g @ y.T)
        assert np.allclose(b.grad, x.T @ g)

    def test_unary_ops_match_finite_differences(self):
        x = RNG.normal(size=(4, 6))
        for op in (exp, transpose, softmax_rows, logsumexp_rows,
                   logsumexp_cols, mean_rows):
            _check_unary(op, x)

    def test_relu_gradient_away_from_kink(self):
        x = RNG.normal(size=(4, 6))
        x[np.abs(x) < 0.05] = 0.1  # keep clear of the non-differentiable point
        _check_unary(relu, x)

    def test_slice_and_concat(self):
        x = RNG.normal(size=(3, 4))
        y = RNG.normal(size=(3, 2))
        a = Tensor(x.copy(), requires_grad=True)
        b = Tensor(y.copy(), requires_grad=True)
        out = total(slice_cols(concat_cols([a, b]), 2, 5))
        out.backward()
        expect_a = np.zeros((3, 4))
        expect_a[:, 2:] = 1.0
        expect_b = np.zeros((3, 2))
        expect_b[:, 0] = 1.0
        assert np.allclose(a.grad, expect_a)
        assert np.allclose(b.grad, expect_b)

    def test_concat_rows_gradient(self):
        x = RNG.normal(size=(2, 3))
        y = RNG.normal(size=(4, 3))
        a = Tensor(x.copy(), requires_grad=True)
        b = Tensor(y.copy(), requires_grad=True)
        g = RNG.normal(size=(6, 3))
        concat_rows([a, b]).backward(g)
        assert np.allclose(a.grad, g[:2])
        assert np.allclose(b.grad, g[2:])

    def test_fill_routes_gradient_to_scalar(self):
        s = Tensor(np.array([[0.7]]), requires_grad=True)
        total(fill((3, 5), s)).backward()
        assert np.allclose(s.grad, [[15.0]])

    def test_group_norm_matches_finite_differences(self):
        x = RNG.normal(size=(5, 8))
        gamma = RNG.normal(size=(1, 8)) + 1.0
        beta = RNG.normal(size=(1, 8))
        tx = Tensor(x.copy(), requires_grad=True)
        tg = Tensor(gamma.copy(), requires_grad=True)
        tb = Tensor(beta.copy(), requires_grad=True)
        total(group_norm(tx, tg, tb, num_groups=4)).backward()

        def f(xx, gg, bb):
            return float(total(group_norm(Tensor(xx), Tensor(gg), Tensor(bb),
                                          num_groups=4)).data[0, 0])

        assert np.max(np.abs(tx.grad - _fd(lambda a: f(a, gamma, beta), x.copy()))) < 1e-6
        assert np.max(np.abs(tg.grad - _fd(lambda a: f(x, a, beta), gamma.copy()))) < 1e-6
        assert np.max(np.abs(tb.grad - _fd(lambda a: f(x, gamma, a), beta.copy()))) < 1e-6

    def test_softmax_rows_sum_to_one(self):
        x = RNG.normal(size=(6, 9)) * 5
        p = softmax_rows(Tensor(x)).data
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_logsumexp_is_stable_for_large_inputs(self):
        x = np.full((2, 3), 1e4)
        out = logsumexp_rows(Tensor(x)).data
        assert np.allclose(out, 1e4 + np.log(3))


class TestTapeMechanics:
    def test_gradient_accumulates_through_shared_node(self):
        a = Tensor(np.array([[2.0]]), requires_grad=True)
        out = add(mul(a, a), a)  # a^2 + a -> grad 2a + 1 = 5
        out.backward()
        assert np.allclose(a.grad, [[5.0]])

    def test_shared_input_sums_without_touching_the_upstream_gradient(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        g = RNG.normal(size=(2, 3))
        upstream = g.copy()
        add(a, a).backward(g)
        assert np.array_equal(a.grad, g + g)
        assert np.array_equal(g, upstream)
        assert a.grad is not g

    def test_gradient_of_another_shape_raises_naming_the_tensor(self):
        a = Tensor(np.ones((1, 4)), requires_grad=True, name="row")
        with pytest.raises(AutodiffError, match=r"row.*\(3, 4\).*\(1, 4\)"):
            a._accumulate(np.ones((3, 4)))
        a._accumulate(np.ones((1, 4)))
        with pytest.raises(AutodiffError, match="row"):
            a._accumulate(np.ones((3, 4)))
        assert np.array_equal(a.grad, np.ones((1, 4)))

    def test_backward_repeats_after_reset(self):
        a = Tensor(np.array([[3.0]]), requires_grad=True)
        scale(a, 2.0).backward()
        first = a.grad.copy()
        a.grad = None
        scale(a, 2.0).backward()
        assert np.allclose(a.grad, first) and np.allclose(first, [[2.0]])

    def test_constant_is_not_a_trainable_leaf(self):
        c = constant(np.ones((2, 2)))
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        total(mul(c, a)).backward()
        assert not c.requires_grad
        assert np.allclose(a.grad, 1.0)

    def test_constant_leaf_gets_no_gradient(self):
        # a cue-input matrix into a hidden layer, a loss target and the
        # input of a transpose: leaves with no parents that take no gradient
        x = constant(RNG.normal(size=(3, 4)))
        target = constant(RNG.normal(size=(3, 16)))
        eye = constant(np.eye(16))
        params = [Tensor(a, requires_grad=True) for a in (
            RNG.normal(size=(4, 16)), RNG.normal(size=(1, 16)),
            RNG.normal(size=(1, 16)), RNG.normal(size=(1, 16)))]
        hidden = linear_gn_relu(x, *params)
        total(mul(matmul(hidden, transpose(eye)), target)).backward()
        assert x.grad is None and target.grad is None and eye.grad is None
        assert all(p.grad is not None for p in params)
        assert hidden.grad is not None  # an interior node keeps its gradient

    def test_split_rows_hands_back_every_bit(self):
        # blocks' gradients of +0.0 and -0.0 reach the stacked tensor as
        # they are: the rest of each block's full-size gradient is -0.0
        a = Tensor(RNG.normal(size=(6, 3)), requires_grad=True)
        blocks = (slice(0, 1), slice(1, 4), slice(4, 6))
        parts = split_rows(a, blocks)
        for part, blk in zip(parts, blocks):
            assert part.data.tobytes() == a.data[blk].tobytes()
        g = RNG.normal(size=(6, 3))
        g[RNG.random((6, 3)) < 0.5] = -0.0
        g[0, 0] = g[5, 2] = 0.0
        concat_rows(parts).backward(g)
        assert a.grad.tobytes() == g.tobytes()

    def test_deep_chain_does_not_recurse(self):
        a = Tensor(np.array([[1.0]]), requires_grad=True)
        out = a
        for _ in range(5000):
            out = scale(out, 1.0)
        out.backward()
        assert np.allclose(a.grad, [[1.0]])

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_matmul_grad_shapes(self, m, n):
        a = Tensor(np.ones((m, n)), requires_grad=True)
        b = Tensor(np.ones((n, m)), requires_grad=True)
        total(matmul(a, b)).backward()
        assert a.grad.shape == (m, n)
        assert b.grad.shape == (n, m)


class TestNoGrad:
    """A tensor records its parents only when a gradient can reach it:
    when a parent requires a gradient or has parents of its own."""

    def test_records_no_parents_and_no_closure(self):
        a = constant(np.array([[2.0]]))
        out = add(mul(a, a), a)
        assert np.array_equal(out.data, [[6.0]])
        assert out.parents == () and out._backward is None
        out.backward()
        assert a.grad is None  # the tape ends at ``out``

    def test_finite_check_stays(self):
        with checked(), np.errstate(over="ignore"), \
                pytest.raises(AutodiffError, match="non-finite"):
            exp(constant(np.array([[1000.0]])))

    def test_constant_beside_a_gradient_is_recorded(self):
        a = Tensor(np.array([[1.0]]), requires_grad=True)
        c = constant(np.array([[3.0]]))
        inner = mul(c, a)
        out = add(c, inner)
        assert inner.parents == (c, a) and out.parents == (c, inner)
        out.backward()
        assert np.array_equal(a.grad, [[3.0]]) and c.grad is None

    def test_requires_grad_is_whether_a_gradient_can_reach(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        c = constant(np.array([[3.0, 4.0]]))
        on_tape = scale(mul(c, a), 2.0)
        assert on_tape.requires_grad and len(on_tape.parents) == 1
        assert on_tape.parents[0].parents == (c, a)
        off_tape = scale(mul(c, c), 2.0)
        assert not off_tape.requires_grad and off_tape.parents == ()
        assert off_tape._backward is None


class TestChecked:
    def test_values_unchecked_outside(self):
        with np.errstate(over="ignore"):
            out = exp(constant(np.array([[1000.0]])))
        assert np.isinf(out.data).all()

    def test_names_the_op(self):
        big = constant(np.array([[1e308]]))
        with checked(), np.errstate(over="ignore"), \
                pytest.raises(AutodiffError, match="^non-finite values "
                              "entering tensor scale$"):
            scale(big, 10.0)

    def test_nests_and_restores_after_an_exception(self):
        bad = constant(np.array([[np.nan]]))
        with pytest.raises(ValueError), checked():
            with pytest.raises(KeyError), checked():
                raise KeyError("inner")
            with pytest.raises(AutodiffError, match="tensor add"):
                add(bad, bad)
            raise ValueError("outer")
        assert np.isnan(add(bad, bad).data).all()


class TestParameterStore:
    def test_init_is_order_independent(self):
        s1 = ParameterStore(seed=5)
        s1.create("w1", (4, 4))
        s1.create("w2", (4, 4))
        s2 = ParameterStore(seed=5)
        s2.create("w2", (4, 4))
        s2.create("w1", (4, 4))
        assert np.array_equal(s1.entries["w1"], s2.entries["w1"])
        assert np.array_equal(s1.entries["w2"], s2.entries["w2"])

    def test_different_names_different_values(self):
        s = ParameterStore(seed=5)
        assert not np.array_equal(s.create("a", (3, 3)), s.create("b", (3, 3)))

    def test_unknown_init_raises(self):
        with pytest.raises(AutodiffError):
            ParameterStore().create("w", (2, 2), init="lecun")

    def test_create_rejects_existing_name(self):
        s = ParameterStore(seed=5)
        w = s.create("w", (2, 3)).copy()
        for shape in ((2, 3), (3, 3)):
            with pytest.raises(AutodiffError,
                               match="parameter w already exists"):
                s.create("w", shape, init="zeros")
        assert np.array_equal(s.entries["w"], w)

    def test_harvest_clears_leaf_grads_for_reuse(self):
        s = ParameterStore(seed=5)
        s.create("w", (1, 1), init="ones")
        leaves = s.leaves()
        for k in (2.0, 3.0):
            scale(leaves["w"], k).backward()
            s.harvest(leaves)
            assert leaves["w"].grad is None
        assert np.array_equal(s.grads["w"], [[5.0]])

    def test_grad_check_on_small_mlp(self):
        store = ParameterStore(seed=1)
        store.create("W1", (3, 4))
        store.create("b1", (1, 4), init="zeros")
        store.create("W2", (4, 2))
        x = constant(RNG.normal(size=(5, 3)))

        def fn(leaves):
            h = relu(add(matmul(x, leaves["W1"]), leaves["b1"]))
            return total(matmul(h, leaves["W2"]))

        assert grad_check(fn, store) < 1e-7

    def test_grad_check_rejects_bad_step(self):
        store = ParameterStore(seed=1)
        store.create("w", (2, 2))
        with pytest.raises(AutodiffError):
            grad_check(lambda lv: total(lv["w"]), store, h=0.0)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        store = ParameterStore(seed=9)
        store.create("enc.W", (7, 3))
        store.create("enc.b", (1, 3), init="zeros")
        store.entries["enc.b"] += 0.25
        path = os.path.join(tmp_path, "ckpt.bin")
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert loaded.names() == store.names()
        for name in store.names():
            # float32 storage: exact after a float32 round trip
            assert np.array_equal(loaded.entries[name],
                                  store.entries[name].astype(np.float32).astype(np.float64))

    def test_manifest_is_first_line_json(self, tmp_path):
        import json
        store = ParameterStore(seed=9)
        store.create("w", (2, 2))
        path = os.path.join(tmp_path, "ckpt.bin")
        save_checkpoint(store, path)
        with open(path, "rb") as fh:
            manifest = json.loads(fh.readline().decode())
        assert "w" in str(manifest)

    def test_non_finite_value_rejected_at_load(self, tmp_path):
        store = ParameterStore(seed=9)
        store.create("enc.W", (7, 3))
        store.create("enc.b", (1, 3), init="zeros")
        path = os.path.join(tmp_path, "ckpt.bin")
        save_checkpoint(store, path)
        with open(path, "rb") as fh:
            raw = fh.read()
        # enc.W sorts first ("W" < "b"), so the blob starts with its values;
        # patch the third
        at = raw.index(b"\n") + 1 + 2 * 4
        with open(path, "wb") as fh:
            fh.write(raw[:at] + struct.pack("<f", float("nan")) + raw[at + 4:])
        with pytest.raises(AutodiffError, match="parameter enc.W has non-finite"):
            load_checkpoint(path)


def _edit_manifest(manifest, case):
    rec = manifest["params"][1]
    if case == "no params":
        del manifest["params"]
    elif case == "params not a list":
        manifest["params"] = {"w": rec}
    elif case == "entry not an object":
        manifest["params"][1] = ["w", [2, 2], 0]
    elif case == "name":
        rec["name"] = 7
    elif case == "duplicate name":
        rec["name"] = manifest["params"][0]["name"]
    elif case == "non-integer shape":
        rec["shape"] = [2.5, 2]
    elif case == "negative shape":
        rec["shape"] = [-2, -2]
    elif case == "offset":
        rec["offset"] += 4
    elif case == "seed":
        manifest["seed"] = "nine"


class TestCheckpointChecks:
    @staticmethod
    def _saved(tmp_path):
        store = ParameterStore(seed=9)
        store.create("a", (2, 3))
        store.create("b", (2, 2))
        path = str(tmp_path / "ckpt.bin")
        save_checkpoint(store, path)
        with open(path, "rb") as fh:
            header, blob = fh.read().split(b"\n", 1)
        return path, json.loads(header), blob

    @pytest.mark.parametrize("case, fault", [
        ("no params", "header is not a JSON object with a params list"),
        ("params not a list", "header is not a JSON object with a params list"),
        ("entry not an object", "entry 1 has no string name"),
        ("name", "entry 1 has no string name"),
        ("duplicate name", "parameter a is listed twice"),
        ("non-integer shape", "parameter b shape [2.5, 2] is not a list of "
                              "non-negative integers"),
        ("negative shape", "parameter b shape [-2, -2] is not a list of "
                           "non-negative integers"),
        ("offset", "parameter b offset 28 is not 24, the end of the "
                   "previous parameter"),
        ("seed", "seed 'nine' is not an integer"),
    ])
    def test_bad_manifest_named(self, tmp_path, case, fault):
        path, manifest, blob = self._saved(tmp_path)
        _edit_manifest(manifest, case)
        with open(path, "wb") as fh:
            fh.write(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(AutodiffError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: checkpoint {fault}"

    @pytest.mark.parametrize("header", [b"\xff{}", b"[1, 2]", b"{", b""])
    def test_header_not_a_json_object(self, tmp_path, header):
        path, _, blob = self._saved(tmp_path)
        with open(path, "wb") as fh:
            fh.write(header + b"\n" + blob)
        with pytest.raises(AutodiffError, match="header is not a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, extra", [(4, b""), (40, b""), (0, b"\0")])
    def test_blob_of_another_length(self, tmp_path, cut, extra):
        path, manifest, blob = self._saved(tmp_path)
        blob = blob[:len(blob) - cut] + extra
        with open(path, "wb") as fh:
            fh.write(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(AutodiffError) as err:
            load_checkpoint(path)
        assert str(err.value).endswith(
            f"checkpoint blob is {len(blob)} bytes, its parameters need 40")

    def test_empty_store_round_trips(self, tmp_path):
        path = str(tmp_path / "ckpt.bin")
        save_checkpoint(ParameterStore(seed=4), path)
        loaded = load_checkpoint(path)
        assert loaded.seed == 4 and loaded.entries == {}
