import sys
import threading
import tracemalloc
import warnings

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

    def test_shape_mismatch_names_op(self):
        with pytest.raises(DataError, match="matmul"):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
        with pytest.raises(DataError, match="matmul"):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))
        with pytest.raises(DataError, match="add"):
            T.add(T.Tensor(np.ones(3)), T.Tensor(np.ones(4)))

    def test_index_select(self):
        a = T.Tensor([[1.0], [2.0], [3.0]])
        assert np.array_equal(T.index_select(a, [2, 0]).data, [[3], [1]])

    def test_block_diag_matmul_matches_dense(self):
        rng = np.random.default_rng(3)
        blocks = [rng.normal(size=(k, k)) for k in (1, 4, 2)]
        x = rng.normal(size=(7, 3))
        dense = np.zeros((7, 7))
        for b, lo in zip(blocks, (0, 1, 5)):
            dense[lo:lo + len(b), lo:lo + len(b)] = b
        out = T.block_diag_matmul(blocks, np.array([0, 1, 5, 7]), T.Tensor(x)).data
        assert np.max(np.abs(out - dense @ x)) < 1e-14

    @pytest.mark.parametrize("op", ["block_diag_matmul", "block_diag_attention"])
    @pytest.mark.parametrize("sizes,offsets", [
        ((1, 2), [0, 1, 4]), ((1, 2), [1, 2, 4]), ((1, 3), [0, 2, 3]), ((1, 2, 1), [0, 1, 3])])
    def test_blocks_must_tile_the_rows(self, op, sizes, offsets):
        blocks = [np.ones((k, k)) for k in sizes]
        x = T.Tensor(np.ones((3, 2)))
        args = (x,) if op == "block_diag_matmul" else (T.Tensor(np.ones((3, 2))), x)
        with pytest.raises(DataError, match=f"{op}: blocks do not tile the 3 rows"):
            getattr(T, op)(blocks, np.array(offsets), *args)

    @pytest.mark.parametrize("offsets", [[0, 2, 2, 3], [0, 3, 2], [], [0, 2]])
    def test_segment_mean_rejects_empty_or_partial_segments(self, offsets):
        with pytest.raises(DataError, match="segment_mean"):
            T.segment_mean(T.Tensor(np.ones((3, 2))), offsets)

    def test_soft_rank_matches_hard_ranks_at_small_tau(self):
        from graphmgs.similarity import average_ranks
        rng = np.random.default_rng(4)
        x = rng.normal(size=12)
        spread = x.max() - x.min()
        soft = T.soft_rank(T.Tensor(x), 1e-4 * spread).data
        hard = average_ranks(x)
        # soft ranks carry a constant +0.5 from the self term
        assert np.max(np.abs(soft - (hard - 0.5))) < 1e-6


def _two_branch_sigmoid(x):
    """Reference: 1/(1+exp(-x)) on x >= 0 and exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _dense_soft_rank(x, tau, g):
    """Reference: ranks and their gradient against g, each row sum and the product
    sprime @ g taken over one whole P x P matrix.  The matrix is filled and turned
    into sprime a few rows at a time, elementwise ops whose bits do not depend on
    the rows, so that only one P x P array is held (528 MB at P = 8,128)."""
    m = np.empty((len(x), len(x)))
    chunks = [m[lo:lo + 64] for lo in range(0, len(x), 64)]
    for lo, rows in zip(range(0, len(x), 64), chunks):
        rows[:] = _two_branch_sigmoid((x[lo:lo + 64, None] - x[None, :]) / tau)
    ranks = m.sum(axis=1)
    for rows in chunks:
        np.multiply(rows, 1.0 - rows, out=rows)
    return ranks, (g * m.sum(axis=1) - m @ g) / tau


def _soft_rank_and_grad(x, tau, g):
    a = T.Tensor(x, requires_grad=True)
    with T.tape():
        ranks = T.soft_rank(a, tau)
        T.backward(T.tsum(ranks * T.Tensor(g)))
    return ranks.data, a.grad


def _soft_rank_case(p):
    rng = np.random.default_rng(p)
    x = rng.normal(size=p)
    g = rng.normal(size=p)
    tau = 0.05 * float(np.ptp(x)) if p > 1 else 0.1
    return x, tau, g


class TestSoftRankBlocks:
    # one partial block, exact multiples of the block, and remainders; then the
    # pair counts B(B-1)/2 of batches of 16, 20, 32, 64 and 128 graphs
    @pytest.mark.parametrize("p", [1, 2, 127, 128, 129, 261, 1000,
                                   120, 190, 496, 2016, 8128])
    def test_bit_identical_to_dense(self, p):
        x, tau, g = _soft_rank_case(p)
        ranks, grad = _soft_rank_and_grad(x, tau, g)
        dense_ranks, dense_grad = _dense_soft_rank(x, tau, g)
        assert np.array_equal(ranks, dense_ranks)
        assert np.array_equal(grad, dense_grad)

    # pair counts where a block's matrix-vector product can round the gradient
    # differently from the dense one, in the last bits
    @pytest.mark.parametrize("p", [561, 1081, 4097, 6441])
    def test_odd_pair_counts_close_to_dense(self, p):
        x, tau, g = _soft_rank_case(p)
        ranks, grad = _soft_rank_and_grad(x, tau, g)
        dense_ranks, dense_grad = _dense_soft_rank(x, tau, g)
        assert np.array_equal(ranks, dense_ranks)
        assert np.max(np.abs(grad - dense_grad)) <= 1e-12 * np.max(np.abs(dense_grad))

    @pytest.mark.parametrize("p,rows", [(1, 128), (128, 128), (129, 64), (190, 64),
                                        (496, 32), (1024, 16), (1025, 8), (2048, 8),
                                        (32640, 8)])
    def test_block_rows_halve_to_the_budget(self, p, rows):
        assert T._soft_rank_rows(p) == rows

    def test_gradient_matches_finite_differences_across_blocks(self):
        rng = np.random.default_rng(12)
        p = 300
        assert p > 2 * T._soft_rank_rows(p)
        x = T.Tensor(rng.normal(size=p), requires_grad=True)
        w = T.Tensor(rng.normal(size=p))
        rel = finite_difference_check(lambda: T.tsum(T.soft_rank(x, 0.3) * w), [x], h=1e-5)
        assert rel < 1e-5

    def test_memory_stays_below_one_dense_matrix(self):
        p = 2048
        x = np.random.default_rng(13).normal(size=p)
        g = np.ones(p)
        dense_bytes = p * p * 8
        tracemalloc.start()
        try:
            _soft_rank_and_grad(x, 0.1, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes, f"peak {peak} B, one dense P x P array is {dense_bytes} B"

    def test_blocks_stay_cache_sized(self):
        p = 4096
        x = np.random.default_rng(15).normal(size=p)
        g = np.ones(p)
        budget = p * p * 8 // 16
        tracemalloc.start()
        try:
            _soft_rank_and_grad(x, 0.1, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget, f"peak {peak} B, 1/16 of a dense P x P array is {budget} B"

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(DataError, match="tau"):
            T.soft_rank(T.Tensor([0.0, 1.0, 2.0]), tau)


def _add_at(shape, index, g):
    """Reference scatter-add: zeros of shape with g added at index by np.add.at."""
    out = np.zeros(shape)
    np.add.at(out, index, g)
    return out


def _grad_through(op, a, upstream):
    with T.tape():
        T.backward(T.tsum(op(a) * T.Tensor(upstream)))
    return a.grad


class TestScatterAddBackward:
    # repeated, unsorted indices; then an empty index
    @pytest.mark.parametrize("idx", [[3, 0, 3, 4, 0, 0, 2, 3], []])
    def test_index_select_matches_add_at(self, idx):
        rng = np.random.default_rng(16)
        a = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        upstream = rng.normal(size=(len(idx), 3))  # 2-D upstream gradient
        grad = _grad_through(lambda t: T.index_select(t, idx), a, upstream)
        assert np.array_equal(grad, _add_at((5, 3), np.asarray(idx, dtype=np.int64), upstream))

    @pytest.mark.parametrize("rows,cols", [
        ([2, 0, 2, 3, 0, 2], [1, 4, 1, 0, 4, 1]),
        ([[2, 0, 2], [3, 0, 2]], [[1, 4, 1], [0, 4, 1]]),  # 2-D upstream gradient
        ([], [])])
    def test_gather2d_matches_add_at(self, rows, cols):
        rng = np.random.default_rng(17)
        a = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        r, c = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        upstream = rng.normal(size=r.shape)
        grad = _grad_through(lambda t: T.gather2d(t, r, c), a, upstream)
        assert np.array_equal(grad, _add_at((4, 5), (r, c), upstream))

    @pytest.mark.parametrize("rows,cols", [([0, 4], [0, 0]), ([0, 0], [0, 5]),
                                           ([-1], [0]), ([0, 1], [0])])
    def test_gather2d_rejects_bad_indices(self, rows, cols):
        with pytest.raises(DataError, match="gather2d"):
            T.gather2d(T.Tensor(np.ones((4, 5))), rows, cols)


class TestSigmoid:
    def test_bit_identical_to_two_branch_formula(self):
        edges = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0,
                 np.inf, -np.inf, np.nan]
        x = np.concatenate([np.random.default_rng(14).normal(scale=30.0, size=10**5), edges])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = T._sigmoid_stable(x)
        want = _two_branch_sigmoid(x)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan) and nan.sum() == 1
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestBackward:
    def test_square(self):
        x = T.Tensor([3.0], requires_grad=True)
        with T.tape():
            T.backward(T.tsum(x * x))
        assert np.allclose(x.grad, [6.0])

    def test_relu_sum(self):
        x = T.Tensor([-1.0, 2.0], requires_grad=True)
        with T.tape():
            T.backward(T.tsum(T.relu(x)))
        assert np.array_equal(x.grad, [0.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.tape(), pytest.raises(DataError, match="scalar"):
            T.backward(x * 2.0)

    def test_tape_cleared_after_backward(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.tape():
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
        with T.tape():
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

    def test_outside_a_block_records_nothing(self):
        x = T.Tensor([1.0], requires_grad=True)
        loss = T.tsum(x * 3.0)
        assert not loss.requires_grad and T.tape_size() == 0
        with pytest.raises(DataError, match="open gradient tape"):
            T.backward(loss)
        assert x.grad is None

    def test_raising_block_drops_its_nodes(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="mid-forward"):
            with T.tape():
                y = T.relu(x * 2.0)
                assert T.tape_size() == 2
                raise ValueError("mid-forward")
        assert T.tape_size() == 0
        assert not y.requires_grad and y._backward is None

    def test_backward_after_block_exit_rejected(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.tape():
            loss = T.tsum(x * x)
        with pytest.raises(DataError, match="open gradient tape"):
            T.backward(loss)
        with T.tape(), pytest.raises(DataError, match="open gradient tape"):
            T.backward(loss)  # another block does not hold its nodes either
        assert x.grad is None

    def test_threads_record_on_their_own_tapes(self):
        def grads(seed, sync=lambda: None):
            rng = np.random.default_rng(seed)
            x = T.Tensor(rng.normal(size=(40, 8)), requires_grad=True)
            w = T.Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            with T.tape():
                sync()
                h = x
                for _ in range(30):
                    h = T.relu(h @ w) * 0.5
                loss = T.tsum(h)
                sync()  # both forward passes are recorded before either backward
                T.backward(loss)
            return x.grad, w.grad

        serial = [grads(seed) for seed in (0, 1)]
        barrier = threading.Barrier(2)
        results, errors = [None, None], []

        def run(k):
            try:
                results[k] = grads(k, lambda: barrier.wait(timeout=10))
            except Exception as exc:  # reported after join
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two forward passes op by op
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads) and not errors
        for (gx, gw), (sx, sw) in zip(results, serial):
            assert np.array_equal(gx, sx) and np.array_equal(gw, sw)

    def test_cosine_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = T.Tensor(rng.normal(size=8), requires_grad=True)
            b = T.Tensor(rng.normal(size=8))

            def cosine():
                num = T.tsum(a * b)
                return num / (T.sqrt(T.tsum(a * a)) * T.sqrt(T.tsum(b * b)))

            assert finite_difference_check(cosine, [a], h=1e-4) < 1e-5


class TestGradChecksAllOps:
    def test_every_op_against_central_differences(self):
        rng = np.random.default_rng(11)
        block_rng = np.random.default_rng(12)
        score_rng = np.random.default_rng(13)
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
            wi = T.Tensor(rng.normal(size=(m + 1, n)))
            idx = rng.integers(0, m, size=m + 1)
            offsets = np.array([0, 1, m])  # a one-row and an (m - 1)-row segment
            blocks = [block_rng.normal(size=(1, 1)), block_rng.normal(size=(m - 1, m - 1))]
            # zero entries as in FAGCN's operator: no self-loops, an isolated node
            zeroed = [np.zeros((1, 1)), blocks[1] * (1.0 - np.eye(m - 1))]
            S = T.Tensor(score_rng.normal(size=(m, 2)), requires_grad=True)
            bce_targets = (rng.random((m, n)) > 0.5).astype(float)
            bce_mask = (rng.random((m, n)) > 0.3).astype(float)
            if bce_mask.sum() == 0:
                bce_mask[0, 0] = 1.0

            cases = {
                "matmul": (lambda: T.tsum(T.matmul(A, B) * wm), [A, B]),
                "add_mul": (lambda: T.tsum((A + C) * C), [A, C]),
                "sub_div": (lambda: T.tsum((A - C) / w), [A, C, w]),
                "broadcast": (lambda: T.tsum(A * v + v), [A, v]),
                "relu": (lambda: T.tsum(T.relu(A) * C), [A]),
                "sqrt": (lambda: T.tsum(T.sqrt(w)), [w]),
                "segment_mean": (lambda: T.tsum(T.segment_mean(A, offsets) * v), [A]),
                "block_diag_matmul": (lambda: T.tsum(
                    T.block_diag_matmul(blocks, offsets, A) * C), [A]),
                "block_diag_attention": (lambda: T.tsum(
                    T.block_diag_attention(zeroed, offsets, S, A) * C), [S, A]),
                "sum_keepdims": (lambda: T.tsum(T.tsum(A, axis=1, keepdims=True) * w), [A]),
                "index_select": (lambda: T.tsum(T.index_select(A, idx) * wi), [A]),
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
            with T.tape():
                loss = T.tsum(T.relu(x @ w) * T.Tensor(rng.normal(size=(6, 6))))
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
        p.grad = np.ones(1)
        T.adam_step([p], state)
        # m-hat = 1, v-hat = 1 after bias correction
        assert p.data[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), abs=1e-15)

    def test_zero_gradient_leaves_params(self):
        p = T.Tensor([1.5, -2.0], requires_grad=True)
        state = T.AdamState.for_params([p])
        p.grad = np.zeros(2)
        T.adam_step([p], state)
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_two_steps_match_hand_recurrence(self):
        p = T.Tensor(np.zeros(1), requires_grad=True)
        state = T.AdamState.for_params([p], lr=1e-3)
        p.grad = np.ones(1)
        T.adam_step([p], state)
        T.adam_step([p], state)
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
        p.grad = np.ones(1)
        for expected in (1, 2, 3):
            T.adam_step([p], state)
            assert state.t == expected
