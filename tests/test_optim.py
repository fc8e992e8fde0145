"""Optimizer, scheduler, and gradient-surgery contracts."""

import warnings

import numpy as np
import pytest

from cellscape.autodiff import Tensor
from cellscape.optim import AdamState, adam_step, lr_schedule, pcgrad


class TestAdam:
    def test_first_step_closed_form(self):
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState(p, weight_decay=0.0)
        g = np.array([2.0])
        adam_step(state, p, {"w": g}, lr=1e-3)
        expected = -1e-3 * 2.0 / (np.sqrt(4.0) + 1e-8)
        assert abs(p["w"].values[0] - expected) < 1e-9

    def test_zero_grad_no_motion(self):
        p = {"w": Tensor(np.array([1.5, -2.0]), requires_grad=True)}
        state = AdamState(p, weight_decay=0.0)
        adam_step(state, p, {"w": np.zeros(2)}, lr=1e-3)
        np.testing.assert_array_equal(p["w"].values, [1.5, -2.0])

    def test_decay_only_closed_form(self):
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        state = AdamState(p, weight_decay=0.1)
        adam_step(state, p, {"w": np.zeros(1)}, lr=1e-3)
        assert p["w"].values[0] == pytest.approx(1.0 - 1e-4, abs=1e-15)

    def test_sign_descent_limit(self):
        # at the first step bias correction undoes the moments' decay, so
        # Adam moves by eta * g / (|g| + eps) whatever the betas
        rng = np.random.default_rng(3)
        g = rng.standard_normal(40)
        p = {"w": Tensor(np.zeros(40), requires_grad=True)}
        state = AdamState(p, weight_decay=0.0)
        adam_step(state, p, {"w": g.copy()}, lr=0.01)
        expected = -0.01 * g / (np.abs(g) + state.eps)
        np.testing.assert_allclose(p["w"].values, expected, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        p = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
        state = AdamState(p, weight_decay=1e-4)
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, p, {"w": np.zeros(3)}, lr=1e-3)

    def test_step_counter_increments(self):
        p = {"w": Tensor(np.zeros(1), requires_grad=True)}
        state = AdamState(p, weight_decay=1e-4)
        for expected_t in (1, 2, 3):
            adam_step(state, p, {"w": np.ones(1)}, lr=1e-3)
            assert state.t == expected_t


class TestSchedule:
    def test_epoch_zero(self):
        assert lr_schedule(0, 1e-3) == 1e-3

    def test_halves_at_fifty(self):
        assert lr_schedule(50, 1e-3) == 1e-3 / 2

    def test_epoch_149(self):
        assert lr_schedule(149, 1e-3) == 1e-3 / 4

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            lr_schedule(-1, 1e-3)


class TestPCGrad:
    def test_orthogonal_unchanged_bit_exact(self):
        g1 = np.array([1.0, 0.0])
        g2 = np.array([0.0, 1.0])
        out = pcgrad(np.stack([g1, g2]))
        assert out[0].tobytes() == g1.tobytes()
        assert out[1].tobytes() == g2.tobytes()

    def test_worked_projection(self):
        g1 = np.array([1.0, 0.0])
        g2 = np.array([-1.0, 1.0])
        out = pcgrad(np.stack([g1, g2]))
        np.testing.assert_allclose(out[0], [0.5, 0.5], atol=1e-12)
        assert abs(out[0] @ g2) < 1e-12

    def test_full_cancellation(self):
        g1 = np.array([0.3, -0.7, 2.0])
        out = pcgrad(np.stack([g1, -g1]))
        np.testing.assert_allclose(out[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[1], 0.0, atol=1e-12)

    def test_projection_removes_conflict_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            g1 = rng.standard_normal(8)
            g2 = rng.standard_normal(8)
            out = pcgrad(np.stack([g1, g2]))
            assert out[0] @ g2 >= -1e-10
            assert out[1] @ g1 >= -1e-10

    def test_non_conflicting_identity_property(self):
        rng = np.random.default_rng(12)
        count = 0
        while count < 100:
            g1 = rng.standard_normal(6)
            g2 = rng.standard_normal(6)
            if g1 @ g2 <= 0:
                continue
            count += 1
            out = pcgrad(np.stack([g1, g2]))
            assert out[0].tobytes() == g1.tobytes()
            assert out[1].tobytes() == g2.tobytes()

    def test_single_task_rejected(self):
        with pytest.raises(ValueError, match="exactly two"):
            pcgrad(np.ones((1, 3)))

    def test_three_tasks_rejected(self):
        with pytest.raises(ValueError, match="exactly two"):
            pcgrad(np.ones((3, 3)))

    def test_noise_norm_gradient_not_projected_on(self):
        # the other task's gradient is rounding noise (norm ~3e-17 of this
        # one's) with a negative dot product: projecting on it would rotate g1
        g1 = np.array([0.6, 0.8])
        g2 = np.array([-3e-17, 1e-17])
        assert g1 @ g2 < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pcgrad(np.stack([g1, g2]))
        assert out[0].tobytes() == g1.tobytes()
        assert out[1] @ g1 >= 0.0

    def test_zero_norm_skip_warns(self):
        # force the guard: a tiny-but-negative dot with a denormal-norm vector
        g1 = np.array([1.0, 0.0])
        g2 = np.array([-1e-160, 0.0])
        with pytest.warns(RuntimeWarning, match="zero-norm"):
            out = pcgrad(np.stack([g1, g2]))
        np.testing.assert_array_equal(out[0], g1)
