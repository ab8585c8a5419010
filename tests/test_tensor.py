import numpy as np
import pytest

from graphmgs import tensor as T
from graphmgs.errors import DataError

from conftest import finite_difference_check


class TestOpValues:
    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_matmul_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor(x))
        assert np.array_equal(out.data, x)

    def test_scatter_add_sums_messages(self):
        msgs = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.scatter_add(msgs, [1, 1], out_rows=3)
        assert np.array_equal(out.data, [[0, 0], [4, 6], [0, 0]])

    def test_shape_mismatch_names_op(self):
        with pytest.raises(DataError, match="matmul"):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
        with pytest.raises(DataError, match="add"):
            T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))

    def test_concat_and_index_select(self):
        a = T.Tensor([[1.0], [2.0]])
        b = T.Tensor([[3.0]])
        cat = T.concat([a, b], axis=0)
        assert np.array_equal(cat.data, [[1], [2], [3]])
        assert np.array_equal(T.index_select(cat, [2, 0]).data, [[3], [1]])

    def test_soft_rank_matches_hard_ranks_at_small_tau(self):
        from graphmgs.similarity import average_ranks
        rng = np.random.default_rng(4)
        x = rng.normal(size=12)
        spread = x.max() - x.min()
        soft = T.soft_rank(T.Tensor(x), 1e-4 * spread).data
        hard = average_ranks(x)
        # soft ranks carry a constant +0.5 from the self term
        assert np.max(np.abs(soft - (hard - 0.5))) < 1e-6


class TestBackward:
    def test_square(self):
        x = T.Tensor([3.0], requires_grad=True)
        T.backward(T.tsum(x * x))
        assert np.allclose(x.grad, [6.0])

    def test_relu_sum(self):
        x = T.Tensor([-1.0, 2.0], requires_grad=True)
        T.backward(T.tsum(T.relu(x)))
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(DataError, match="scalar"):
            T.backward(x * 2.0)
        T.clear_tape()

    def test_tape_cleared_after_backward(self):
        x = T.Tensor([1.0], requires_grad=True)
        T.backward(T.tsum(x * x))
        assert T.tape_size() == 0

    def test_tape_isolation(self):
        # gradients of a joint loss over two independent graphs equal the
        # concatenation of the separate runs
        def build(seed):
            rng = np.random.default_rng(seed)
            return (T.Tensor(rng.normal(size=4), requires_grad=True),
                    T.Tensor(rng.normal(size=4)))

        xa, wa = build(0)
        xb, wb = build(1)
        T.backward(T.tsum(T.relu(xa) * wa))
        ga_alone = xa.grad.copy()
        xa.grad = None
        T.backward(T.tsum(T.relu(xb) * wb))
        gb_alone = xb.grad.copy()
        xb.grad = None
        joint = T.tsum(T.relu(xa) * wa) + T.tsum(T.relu(xb) * wb)
        T.backward(joint)
        assert np.array_equal(xa.grad, ga_alone)
        assert np.array_equal(xb.grad, gb_alone)

    def test_no_grad_blocks_recording(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = x * 3.0
        assert not y.requires_grad and T.tape_size() == 0

    def test_cosine_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = T.Tensor(rng.normal(size=8), requires_grad=True)
            b = T.Tensor(rng.normal(size=8))

            def cosine():
                num = T.tsum(a * b)
                return num / (T.l2_norm(a) * T.l2_norm(b))

            assert finite_difference_check(cosine, [a], h=1e-4) < 1e-5


class TestGradChecksAllOps:
    def test_every_op_against_central_differences(self):
        rng = np.random.default_rng(11)
        checks = 0
        for trial in range(12):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            A = T.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            B = T.Tensor(rng.normal(size=(n, k)), requires_grad=True)
            C = T.Tensor(rng.normal(size=(m, n)), requires_grad=True)
            v = T.Tensor(rng.normal(size=n), requires_grad=True)
            w = T.Tensor(rng.uniform(0.5, 2.0, size=(m, n)), requires_grad=True)
            wm = T.Tensor(rng.normal(size=(m, k)))
            wc = T.Tensor(rng.normal(size=(m, 2 * n)))
            idx = rng.integers(0, m, size=m + 1)
            bce_targets = (rng.random((m, n)) > 0.5).astype(float)
            bce_mask = (rng.random((m, n)) > 0.3).astype(float)
            if bce_mask.sum() == 0:
                bce_mask[0, 0] = 1.0

            cases = {
                "matmul": (lambda: T.tsum(T.matmul(A, B) * wm), [A, B]),
                "vec_matmul": (lambda: T.tsum(T.matmul(v, B)), [v, B]),
                "add_mul": (lambda: T.tsum((A + C) * C), [A, C]),
                "sub_div": (lambda: T.tsum((A - C) / w), [A, C, w]),
                "broadcast": (lambda: T.tsum(A * v + v), [A, v]),
                "relu": (lambda: T.tsum(T.relu(A) * C), [A]),
                "tanh": (lambda: T.tsum(T.tanh(A) * C), [A]),
                "sigmoid": (lambda: T.tsum(T.sigmoid(A) * C), [A]),
                "sqrt": (lambda: T.tsum(T.sqrt(w)), [w]),
                "mean_axis": (lambda: T.tsum(T.tmean(A, axis=0) * v), [A]),
                "sum_keepdims": (lambda: T.tsum(T.tsum(A, axis=1, keepdims=True) * w), [A]),
                "concat": (lambda: T.tsum(T.concat([A, C], axis=1) * wc), [A, C]),
                "index_scatter": (lambda: T.tsum(
                    T.scatter_add(T.index_select(A, idx), idx, m) * C), [A]),
                "l2_norm": (lambda: T.l2_norm(A) * 2.0, [A]),
                "reshape_gather": (lambda: T.tsum(T.gather2d(
                    T.reshape(A, (n, m)), [0, 1], [1, 0])), [A]),
                "bce": (lambda: T.bce_with_logits(A, bce_targets, bce_mask), [A]),
            }
            for name, (fn, tensors) in cases.items():
                rel = finite_difference_check(fn, tensors, h=1e-5)
                assert rel < 1e-5, f"{name} (trial {trial}): rel err {rel}"
                checks += 1
        assert checks >= 100


class TestDeterminism:
    def test_bitwise_identical_runs(self):
        def run():
            rng = np.random.default_rng(42)
            x = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
            w = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
            loss = T.tsum(T.tanh(x @ w) * T.Tensor(rng.normal(size=(6, 6))))
            T.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()


class TestAdam:
    def test_single_step_closed_form(self):
        p = T.Tensor(np.zeros(1), requires_grad=True)
        state = T.AdamState.for_params([p], lr=1e-3)
        T.adam_step([p], state, grads=[np.ones(1)])
        # m-hat = 1, v-hat = 1 after bias correction
        assert p.data[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), abs=1e-15)

    def test_zero_gradient_leaves_params(self):
        p = T.Tensor([1.5, -2.0], requires_grad=True)
        state = T.AdamState.for_params([p])
        T.adam_step([p], state, grads=[np.zeros(2)])
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_two_steps_match_hand_recurrence(self):
        p = T.Tensor(np.zeros(1), requires_grad=True)
        state = T.AdamState.for_params([p], lr=1e-3)
        T.adam_step([p], state, grads=[np.ones(1)])
        T.adam_step([p], state, grads=[np.ones(1)])
        # hand-evaluated Adam with g=1 at t=1,2
        theta, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            theta -= 1e-3 * mh / (np.sqrt(vh) + 1e-8)
        assert p.data[0] == pytest.approx(theta, abs=1e-15)

    def test_step_counter_increments(self):
        p = T.Tensor(np.zeros(1), requires_grad=True)
        state = T.AdamState.for_params([p])
        for expected in (1, 2, 3):
            T.adam_step([p], state, grads=[np.ones(1)])
            assert state.t == expected
