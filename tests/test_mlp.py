"""Dense-network plumbing: forward math, backprop vs finite differences, Adam."""

import numpy as np
import pytest

from wattcount import Adam, Mlp, log_softmax, softmax, spawn_rng


class TestForward:
    def test_hand_computed_two_layer(self):
        net = Mlp([2, 2, 1], spawn_rng(0, 0))
        # w0 = [[1, 0], [0, 1]], b0 = [0.5, -0.5], w1 = [[2], [3]], b1 = [1]
        net.set_flat(np.array([1, 0, 0, 1, 2, 3, 0.5, -0.5, 1], dtype=float))
        x = np.array([[0.25, 0.75]])
        hidden = np.tanh([0.25 + 0.5, 0.75 - 0.5])
        expected = 2 * hidden[0] + 3 * hidden[1] + 1
        assert net.forward(x)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_zero_params_give_zero_output(self):
        net = Mlp([3, 4, 2], spawn_rng(0, 1))
        net.set_flat(np.zeros(net.n_params))
        out = net.forward(np.array([[1.0, -2.0, 3.0]]))
        assert np.all(out == 0.0)

    def test_output_layer_is_linear(self):
        # doubling the last weight matrix doubles the output
        net = Mlp([2, 3, 1], spawn_rng(0, 2))
        x = np.array([[0.3, -0.4]])
        base = net.forward(x).copy()
        net.weights[-1] *= 2.0
        net.biases[-1] *= 2.0
        assert np.allclose(net.forward(x), 2.0 * base)

    def test_batch_rows_independent(self):
        net = Mlp([3, 5, 2], spawn_rng(0, 3))
        xs = spawn_rng(0, 4).normal(size=(6, 3))
        batch = net.forward(xs)
        for i in range(6):
            assert np.allclose(batch[i], net.forward(xs[i : i + 1])[0])

    @pytest.mark.parametrize("rows", [1, 48])
    def test_forward_has_forward_caches_bits(self, rows):
        net = Mlp([10, 64, 64, 2], spawn_rng(0, 6))
        x = spawn_rng(0, 7).normal(size=(rows, 10))
        assert np.array_equal(net.forward(x), net.forward_cache(x)[0])
        assert np.array_equal(net.forward(x[0]), net.forward_cache(x[0])[0])  # one 1-D row

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError, match="input and output"):
            Mlp([4], spawn_rng(0, 5))


class TestParamCounts:
    def test_counts_match_formula(self):
        net = Mlp([10, 64, 64, 4], spawn_rng(1, 0))
        assert net.n_weight_mults == 10 * 64 + 64 * 64 + 64 * 4
        assert net.n_params == net.n_weight_mults + 64 + 64 + 4

    def test_flat_round_trip(self):
        net = Mlp([4, 7, 3], spawn_rng(1, 1))
        vec = net.get_flat()
        net.set_flat(np.arange(net.n_params, dtype=float))
        net.set_flat(vec)
        assert np.array_equal(net.get_flat(), vec)

    def test_set_flat_rejects_wrong_size(self):
        net = Mlp([2, 2], spawn_rng(1, 2))
        with pytest.raises(ValueError, match="expected"):
            net.set_flat(np.zeros(net.n_params + 1))


class TestBackward:
    def grad_check(self, sizes, seed, batch=3):
        net = Mlp(sizes, spawn_rng(2, seed))
        rng = spawn_rng(2, seed + 100)
        x = rng.normal(size=(batch, sizes[0]))
        target = rng.normal(size=(batch, sizes[-1]))

        def loss(flat):
            net.set_flat(flat)
            out = net.forward(x)
            return 0.5 * np.sum((out - target) ** 2)

        flat = net.get_flat().copy()
        out, acts = net.forward_cache(x)
        analytic = Mlp.flatten_grads(*net.backward(acts, out - target))

        eps = 1e-6
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            up = flat.copy()
            up[i] += eps
            dn = flat.copy()
            dn[i] -= eps
            numeric[i] = (loss(up) - loss(dn)) / (2 * eps)
        net.set_flat(flat)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        rel = np.abs(analytic - numeric) / np.maximum(scale, 1e-8)
        return rel.max()

    def test_gradients_match_fd_shallow(self):
        assert self.grad_check([3, 5, 2], seed=0) < 1e-6

    def test_gradients_match_fd_deep(self):
        assert self.grad_check([4, 8, 8, 3], seed=1) < 1e-6

    def test_gradients_match_fd_single_output(self):
        assert self.grad_check([6, 10, 1], seed=2, batch=5) < 1e-6

    def test_batch_gradient_is_sum_of_per_row(self):
        net = Mlp([3, 4, 2], spawn_rng(2, 50))
        x = spawn_rng(2, 51).normal(size=(4, 3))
        g = spawn_rng(2, 52).normal(size=(4, 2))
        _, acts = net.forward_cache(x)
        whole = Mlp.flatten_grads(*net.backward(acts, g))
        parts = np.zeros_like(whole)
        for i in range(4):
            _, a = net.forward_cache(x[i : i + 1])
            parts += Mlp.flatten_grads(*net.backward(a, g[i : i + 1]))
        assert np.allclose(whole, parts, atol=1e-12)


class TestAdam:
    def test_first_step_moves_by_lr_signs(self):
        # bias-corrected first step is lr * g / (|g| + eps), about lr * sign(g)
        opt = Adam(n_params=3, lr=0.01)
        params = np.zeros(3)
        grad = np.array([5.0, -0.3, 0.0])
        new = opt.step(params, grad)
        assert new[0] == pytest.approx(-0.01, rel=1e-6)
        assert new[1] == pytest.approx(0.01, rel=1e-5)
        assert new[2] == 0.0

    def test_matches_reference_recurrence(self):
        opt = Adam(n_params=2, lr=0.1)
        params = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        rng = spawn_rng(3, 0)
        for t in range(1, 6):
            grad = rng.normal(size=2)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad**2
            expect = params - 0.1 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            params = opt.step(params, grad)
            assert np.allclose(params, expect, atol=1e-14)

    def test_descends_a_quadratic(self):
        opt = Adam(n_params=1, lr=0.1)
        params = np.array([3.0])
        for _ in range(300):
            params = opt.step(params, 2.0 * params)
        assert abs(params[0]) < 1e-2


class TestSoftmax:
    def test_sums_to_one_and_orders(self):
        logits = np.array([[1.0, 3.0, 2.0]])
        p = softmax(logits)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert p[0, 1] > p[0, 2] > p[0, 0]

    def test_log_softmax_is_log_of_softmax(self):
        logits = spawn_rng(4, 0).normal(size=(5, 7))
        assert np.allclose(log_softmax(logits), np.log(softmax(logits)), atol=1e-12)

    def test_shift_invariance_and_overflow_safety(self):
        logits = np.array([[1000.0, 1001.0]])
        p = softmax(logits)
        assert np.isfinite(p).all()
        assert np.allclose(p, softmax(logits - 500.0))

    def test_uniform_on_equal_logits(self):
        p = softmax(np.zeros((1, 4)))
        assert np.allclose(p, 0.25)
