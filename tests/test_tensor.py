import contextlib
import multiprocessing
import sys
import threading
import time
import tracemalloc
import warnings
import weakref

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
        out = T.Tensor(np.eye(2)) @ T.Tensor(x)
        assert np.array_equal(out.data, x)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(DataError, match="linear: incompatible shapes"):
            T.Tensor(np.ones((2, 3))) @ T.Tensor(np.ones((2, 3)))
        with pytest.raises(DataError, match="linear: only 2-D"):
            T.Tensor(np.ones(3)) @ T.Tensor(np.ones((3, 2)))
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


def _soft_rank_peak_bytes(p):
    """Peak traced bytes of one soft-rank forward and backward over p values."""
    x = np.random.default_rng(15).normal(size=p)
    tracemalloc.start()
    try:
        _soft_rank_and_grad(x, 0.1, np.ones(p))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _exit_zero_if_same_ranks(x, tau, ranks):
    sys.exit(0 if np.array_equal(T.soft_rank(T.Tensor(x), tau).data, ranks) else 1)


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

    def test_two_block_buffers_per_call(self, workers):
        # two rows x P buffers reused across blocks, not fresh temporaries per block
        workers(1)
        p = 4096
        budget = 3 * T._soft_rank_rows(p) * p * 8
        peak = _soft_rank_peak_bytes(p)
        assert peak < budget, f"peak {peak} B, three rows x P blocks are {budget} B"

    def test_two_block_buffers_per_worker(self):
        # split across W workers, each reuses its own two rows x P buffers
        w = T._worker_count()
        p = 4096
        assert p >= T.SOFT_RANK_SPLIT_VALUES
        budget = (2 * w + 1) * T._soft_rank_rows(p) * p * 8
        peak = _soft_rank_peak_bytes(p)
        assert peak < budget, f"peak {peak} B, {2 * w + 1} rows x P blocks are {budget} B"

    # 4,097 ends in a partial block; 3 workers cut uneven runs of blocks
    @pytest.mark.parametrize("count", [None, 3])
    @pytest.mark.parametrize("p", [2016, 4097, 8128])
    def test_same_bits_at_any_worker_count(self, workers, p, count):
        assert p >= T.SOFT_RANK_SPLIT_VALUES
        count = count or T._worker_count()
        x, tau, g = _soft_rank_case(p)
        workers(1)
        serial_ranks, serial_grad = _soft_rank_and_grad(x, tau, g)
        workers(count)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers op by op
        try:
            ranks, grad = _soft_rank_and_grad(x, tau, g)
        finally:
            sys.setswitchinterval(old)
        assert np.array_equal(ranks, serial_ranks)
        assert np.array_equal(grad, serial_grad)

    def test_no_thread_outlives_a_split_call(self, workers):
        workers(2)
        x, tau, _ = _soft_rank_case(8128)
        before = threading.active_count()
        T.soft_rank(T.Tensor(x), tau)
        assert threading.active_count() == before

    def test_child_forked_after_a_split_computes_same_ranks(self, workers):
        # the child sees the same two workers and splits its own call
        workers(2)
        x, tau, _ = _soft_rank_case(8128)
        ranks = T.soft_rank(T.Tensor(x), tau).data
        child = multiprocessing.get_context("fork").Process(
            target=_exit_zero_if_same_ranks, args=(x, tau, ranks))
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0

    def test_two_calls_on_one_tape(self):
        # P = 190 and 1,000 use 64- and 16-row blocks: neither call's forward or
        # backward may share buffers with the other's
        (x1, tau1, g1), (x2, tau2, g2) = _soft_rank_case(190), _soft_rank_case(1000)
        a1, a2 = T.Tensor(x1, requires_grad=True), T.Tensor(x2, requires_grad=True)
        with T.tape():
            r1, r2 = T.soft_rank(a1, tau1), T.soft_rank(a2, tau2)
            T.backward(T.tsum(r1 * T.Tensor(g1)) + T.tsum(r2 * T.Tensor(g2)))
        for got, grad, (x, tau, g) in [(r1, a1.grad, (x1, tau1, g1)),
                                       (r2, a2.grad, (x2, tau2, g2))]:
            alone_ranks, alone_grad = _soft_rank_and_grad(x, tau, g)
            assert np.array_equal(got.data, alone_ranks)
            assert np.array_equal(grad, alone_grad)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(DataError, match="tau"):
            T.soft_rank(T.Tensor([0.0, 1.0, 2.0]), tau)


class TestSplit:
    @pytest.mark.parametrize("n,unit,count", [(100, 8, 2), (100, 8, 3), (17, 4, 5),
                                              (4097, 8, 2), (9, 1, 4)])
    def test_spans_tile_at_unit_multiples_in_order(self, workers, n, unit, count):
        workers(count)
        spans = T._split(n, unit, lambda lo, hi: (lo, hi))
        assert len(spans) == min(count, -(-n // unit))
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(lo < hi and lo % unit == 0 for lo, hi in spans)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_first_span_error_raised(self, workers, count):
        # rows 30 and 70 are bad; the later span fails first in time, and every
        # span still finishes before the call raises
        workers(count)
        done = []

        def fn(lo, hi):
            if lo == 0:
                time.sleep(0.05)
            done.append(lo)
            bad = [r for r in (30, 70) if lo <= r < hi]
            if bad:
                raise DataError(f"bad row {bad[0]}")
            return lo

        with pytest.raises(DataError) as exc:
            T._split(100, 10, fn)
        assert str(exc.value) == "bad row 30"
        assert len(done) == count

    @pytest.mark.parametrize("count,n,unit", [(1, 100, 8), (2, 8, 8), (2, 5, 8), (2, 0, 8)])
    def test_one_worker_or_unit_runs_inline(self, workers, count, n, unit):
        workers(count)
        calls, before = [], threading.active_count()
        T._split(n, unit, lambda lo, hi: calls.append(
            (lo, hi, threading.get_ident(), threading.active_count())))
        assert calls == [(0, n, threading.get_ident(), before)]

    def test_nested_call_completes(self, workers):
        # a span's own split runs inline, so W workers make at most W - 1
        # threads, not W - 1 more per span
        workers(2)
        out = []

        def outer(lo, hi):
            return T._split(hi - lo, 1, lambda a, b: (lo + a, lo + b))

        caller = threading.Thread(target=lambda: out.append(T._split(8, 4, outer)), daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert out == [[[(0, 4)], [(4, 8)]]]

    def test_spans_record_on_no_open_tape(self, workers):
        workers(2)
        w = T.Tensor(np.ones(3), requires_grad=True)
        with T.tape():
            T._split(4, 1, lambda lo, hi: T.tsum(w * float(lo)))
            assert T.tape_size() == 0


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

    def test_buffers_give_the_same_bits(self):
        x = np.array([0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0,
                      np.inf, -np.inf, np.nan])
        want = T._sigmoid_stable(x)
        out, work = np.full_like(x, 7.0), np.full_like(x, 7.0)
        assert T._sigmoid_stable(x, out=out, work=work) is out
        z = x.copy()
        in_place = T._sigmoid_stable(z, out=np.empty_like(x), work=z)
        for got in (out, in_place):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    def test_each_node_freed_as_backward_passes_it(self):
        # the probe is recorded first, so its backward runs last: by then every
        # later node has run, and an activation no closure still reads is gone
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.normal(size=(30, 6)), requires_grad=True)
        w = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        seen = []
        with T.tape():
            probe = T._node(x.data * 1.0, (x, lambda g: seen.append(later() is None)))
            mid = T.relu(probe @ w)
            later = weakref.ref(mid.data)
            loss = T.tsum(mid * 2.0)
            del mid
            T.backward(loss)
            assert T.tape_size() == 0
        assert seen == [True]

    def test_raise_in_backward_drops_the_rest_of_the_tape(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)

        def fail(g):
            raise ValueError("mid-backward")

        with T.tape():
            y = T.relu(x * 2.0)
            loss = T.tsum(T._node(y.data * 1.0, (y, fail)))
            with pytest.raises(ValueError, match="mid-backward"):
                T.backward(loss)
            assert T.tape_size() == 0
        assert not y.requires_grad and y._backward is None and x.grad is None

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


def _grad_leaf(shape=3):
    return T.Tensor(np.full(shape, 0.5), requires_grad=True)


class TestWhatANodeKeeps:
    """A recorded op keeps only the arrays its own gradient formula reads, so an
    input no gradient reads is freed as soon as the forward pass drops it."""

    @pytest.mark.parametrize("op, freed", [pytest.param(op, freed, id=name) for name, op, freed in [
        ("add", lambda t: t + np.ones(3), True),
        ("sub", lambda t: 2.0 - t, True),
        # dropout: the rows before the mask go
        ("multiply-constant", lambda t: t * np.arange(3.0), True),
        # kept for the other side's gradient
        ("multiply-tensor", lambda t: t * _grad_leaf(), False),
        ("divide-numerator", lambda t: t / 2.0, True),
        ("divide-denominator", lambda t: 2.0 / t, False),
        ("relu", T.relu, True),  # its output gives the mask
        ("sqrt", T.sqrt, True),
        ("tsum", lambda t: T.tsum(t, axis=1), True),
        ("transpose", T.transpose, True),
        ("index_select", lambda t: T.index_select(t, [0, 2, 2]), True),
        ("gather2d", lambda t: T.gather2d(t, [0, 1], [2, 0]), True),
        ("segment_mean", lambda t: T.segment_mean(t, [0, 1, 4]), True),
        ("linear-constant", lambda t: T.linear(t, np.ones((3, 2))), True),
        ("linear-weight", lambda t: T.linear(t, T.Tensor(np.ones((3, 2)), requires_grad=True)),
         False),
        ("block_diag_matmul-constant", lambda t: T.block_diag_matmul([np.eye(4)], [0, 4], t),
         True),
        # GIN's aggregate is rebuilt from the input, never kept: the input
        # goes only when neither the weight nor the self weight takes a gradient
        ("linear-blocks-constant", lambda t: T.linear(
            t, np.ones((3, 2)), blocks=[np.eye(4)], offsets=[0, 4], self_weight=2.0), True),
        ("linear-blocks-weight", lambda t: T.linear(
            t, _grad_leaf((3, 2)), blocks=[np.eye(4)], offsets=[0, 4], self_weight=2.0), False),
        ("linear-blocks-self-weight", lambda t: T.linear(
            t, np.ones((3, 2)), blocks=[np.eye(4)], offsets=[0, 4],
            self_weight=T.Tensor(2.0, requires_grad=True)), False),
        # the weight goes when neither the input nor the self weight takes a gradient
        ("linear-blocks-as-weight", lambda t: T.linear(
            np.ones((2, 4)), t, blocks=[np.eye(2)], offsets=[0, 2], self_weight=2.0), True),
        ("bce_with_logits", lambda t: T.bce_with_logits(t, np.ones((4, 3))), False),
    ]])
    def test_input_freed_unless_a_gradient_reads_it(self, op, freed):
        x = T.Tensor(np.random.default_rng(50).uniform(0.5, 2.0, size=(4, 3)),
                     requires_grad=True)
        with T.tape():
            t = x * 1.0  # an intermediate that no node keeps: 1.0 takes no gradient
            ref = weakref.ref(t.data)
            out = op(t)
            del t
            assert (ref() is None) == freed
            T.backward(T.tsum(out * out))
        assert x.grad is not None and np.all(np.isfinite(x.grad))

    def test_relu_mask_from_its_output_is_its_inputs(self):
        x = T.Tensor([np.nan, -0.0, 0.0, -1.0, 2.0, np.inf, -np.inf, 1e-300],
                     requires_grad=True)
        g = np.arange(1.0, 9.0)
        with T.tape():
            T.backward(T.tsum(T.relu(x) * g))
        assert np.array_equal(x.grad, g * (x.data > 0.0))


class TestNode:
    """Every op records through ``_node``: it keeps only the edges whose parent
    requires grad, and runs them in the order given, one add each."""

    def test_edge_of_a_constant_is_never_run(self):
        def fail(g):
            raise AssertionError("a constant's gradient ran")

        x = T.Tensor([1.0, 2.0], requires_grad=True)
        c = T.Tensor([3.0, 4.0])
        with T.tape():
            T.backward(T.tsum(T._node(x.data + c.data, (c, fail), (x, lambda g: g))))
        assert np.array_equal(x.grad, [1.0, 1.0]) and c.grad is None

    def test_edge_of_a_constant_is_not_held(self):
        refs = []

        def scaled_by(k):  # a gradient holding an array no other code holds
            held = np.full(3, k)
            refs.append(weakref.ref(held))
            return lambda g: g * held

        x = T.Tensor(np.ones(3), requires_grad=True)
        c = T.Tensor(np.full(3, 2.0))
        with T.tape():
            y = T._node(x.data * c.data, (x, scaled_by(2.0)), (c, scaled_by(1.0)),
                        inner=(scaled_by(3.0), [(c, scaled_by(4.0))]))
            assert [ref() is None for ref in refs] == [False, True, True, True]
            T.backward(T.tsum(y))
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0]) and c.grad is None

    def test_parent_listed_twice_adds_twice_in_order(self):
        rng = np.random.default_rng(60)
        x = T.Tensor(rng.normal(size=64), requires_grad=True)
        c, d = rng.normal(size=64), rng.normal(size=64)
        with T.tape():
            y = T._node(x.data * 1.0, (x, lambda g: g * 0.1), (x, lambda g: g * 0.7))
            # recorded later, so its gradient is in x.grad before y's edges run
            T.backward(T.tsum(y * c) + T.tsum(x * d))
        in_order = (d + c * 0.1) + c * 0.7
        assert x.grad.tobytes() == in_order.tobytes()
        assert x.grad.tobytes() != ((d + c * 0.7) + c * 0.1).tobytes()

    def test_inner_gradient_made_once_after_the_nodes_edges(self):
        calls = []

        def step(name, scale):
            return lambda g: calls.append(name) or g * scale

        def fail(g):
            raise AssertionError("an inner gradient no kept edge reads ran")

        x = T.Tensor(np.ones(3), requires_grad=True)
        c = T.Tensor(np.full(3, 2.0))
        with T.tape():
            y = T._node(x.data * 1.0, (x, step("own", 1.0)), inner=(step("inner", 3.0), [
                (x, step("first", 0.5)), (c, fail), (x, step("second", 0.25))]))
            z = T._node(x.data * 1.0, (x, step("plain", 1.0)), inner=(fail, [(c, fail)]))
            T.backward(T.tsum(y) + T.tsum(z))
        assert calls == ["plain", "own", "inner", "first", "second"]
        assert x.grad.tobytes() == (((1.0 + 1.0) + 1.5) + 0.75 + np.zeros(3)).tobytes()

    @pytest.mark.parametrize("scores_grad", [False, True])
    def test_attention_keeps_its_rows_only_for_the_scores(self, scores_grad):
        rng = np.random.default_rng(61)
        x = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        s = T.Tensor(rng.normal(size=(5, 2)), requires_grad=scores_grad)
        with T.tape():
            t = x * 1.0
            ref = weakref.ref(t.data)
            out = T.block_diag_attention([np.ones((2, 2)), np.ones((3, 3))], [0, 2, 5], s, t)
            del t
            assert (ref() is None) == (not scores_grad)
            T.backward(T.tsum(out * out))
        assert x.grad is not None and (s.grad is not None) == scores_grad


class TestGradChecksAllOps:
    def test_every_op_against_central_differences(self):
        rng = np.random.default_rng(11)
        block_rng = np.random.default_rng(12)
        score_rng = np.random.default_rng(13)
        fused_rng = np.random.default_rng(14)
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
            bias = T.Tensor(fused_rng.normal(size=k), requires_grad=True)
            running = T.Tensor(fused_rng.normal(size=(m, k)), requires_grad=True)
            c = T.Tensor(fused_rng.normal(), requires_grad=True)
            bce_targets = (rng.random((m, n)) > 0.5).astype(float)
            bce_mask = (rng.random((m, n)) > 0.3).astype(float)
            if bce_mask.sum() == 0:
                bce_mask[0, 0] = 1.0

            cases = {
                "matmul": (lambda: T.tsum((A @ B) * wm), [A, B]),
                "add_mul": (lambda: T.tsum((A + C) * C), [A, C]),
                "sub_div": (lambda: T.tsum((A - C) / w), [A, C, w]),
                "broadcast": (lambda: T.tsum(A * v + v), [A, v]),
                "relu": (lambda: T.tsum(T.relu(A) * C), [A]),
                "sqrt": (lambda: T.tsum(T.sqrt(w)), [w]),
                "segment_mean": (lambda: T.tsum(T.segment_mean(A, offsets) * v), [A]),
                "block_diag_matmul": (lambda: T.tsum(
                    T.block_diag_matmul(blocks, offsets, A) * C), [A]),
                "linear": (lambda: T.tsum(T.linear(A, B, bias) * wm), [A, B, bias]),
                "linear_running_sum": (lambda: T.tsum(T.linear(A, B, running) * wm),
                                       [A, B, running]),
                "linear_blocks": (lambda: T.tsum(T.linear(
                    A, B, bias, blocks=blocks, offsets=offsets, self_weight=c) * wm),
                    [A, B, bias, c]),
                "linear_blocks_isolated_node": (lambda: T.tsum(T.linear(
                    A, B, blocks=zeroed, offsets=offsets, self_weight=c) * wm), [A, B, c]),
                "block_diag_attention": (lambda: T.tsum(
                    T.block_diag_attention(zeroed, offsets, S, A) * C), [S, A]),
                "sum_keepdims": (lambda: T.tsum(T.tsum(A, axis=1, keepdims=True) * w), [A]),
                "index_select": (lambda: T.tsum(T.index_select(A, idx) * wi), [A]),
                "gather2d": (lambda: T.tsum(T.gather2d(A, [0, 1], [1, 0])), [A]),
                "bce": (lambda: T.bce_with_logits(A, bce_targets, bce_mask), [A]),
            }
            for name, (fn, tensors) in cases.items():
                rel = finite_difference_check(fn, tensors, h=1e-5)
                assert rel < 1e-5, f"{name} (trial {trial}): rel err {rel}"
                checks += 1
        assert checks >= 100


def _bits(*arrays):
    return [np.asarray(x).tobytes() for x in arrays]


class TestFusedOps:
    """Each fused op gives the bits of the ops it fuses, forward and backward.

    Every input also feeds a consumer recorded after the op, whose backward runs
    first, so the op adds into a gradient that is already there: a different
    order of the op's own contributions would show in the last bits."""

    @pytest.mark.parametrize("running", [False, True])
    def test_linear_is_matmul_then_add(self, running):
        rng = np.random.default_rng(31)
        a0, w0, later = rng.normal(size=(9, 5)), rng.normal(size=(5, 4)), rng.normal(size=(9, 4))
        b0 = rng.normal(size=(9, 4) if running else 4)

        def run(fused):
            a, w, b = (T.Tensor(x, requires_grad=True) for x in (a0, w0, b0))
            with T.tape():
                # a running sum is a tape intermediate, as ChebNet's is
                b_in = b * 1.5 if running else b
                if fused:
                    y = T.linear(a, w, b_in)
                elif running:
                    y = b_in + a @ w  # ChebNet's order: the running sum first
                else:
                    y = a @ w + b_in
                loss = (T.tsum(T.relu(y) * later) + T.tsum(a * a)
                        + T.tsum(w * w) + T.tsum(b * b))
                T.backward(loss)
            return _bits(y.data, a.grad, w.grad, b.grad)

        assert run(True) == run(False)

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_linear_over_blocks_is_gin_aggregate_then_linear(self, taped):
        # graphs of 3, 1 and 5 nodes; the 5-node graph's node 2 is isolated
        rng = np.random.default_rng(32)
        blocks = [rng.normal(size=(k, k)) for k in (3, 1, 5)]
        blocks[2][2, :] = blocks[2][:, 2] = 0.0
        offsets = np.array([0, 3, 4, 9])
        a0, w0, b0 = rng.normal(size=(9, 4)), rng.normal(size=(4, 6)), rng.normal(size=6)
        later = rng.normal(size=(9, 6))

        def run(fused):
            a, w, b = (T.Tensor(x, requires_grad=True) for x in (a0, w0, b0))
            eps = T.Tensor(np.asarray(0.3), requires_grad=True)
            with T.tape() if taped else contextlib.nullcontext():
                if fused:
                    y = T.linear(a, w, b, blocks=blocks, offsets=offsets, self_weight=eps + 1.0)
                else:
                    agg = T.block_diag_matmul(blocks, offsets, a) + ((eps + 1.0) * a)
                    y = T.linear(agg, w, b)
                if taped:
                    T.backward(T.tsum(T.relu(y) * later) + T.tsum(a * a) + T.tsum(eps * eps)
                               + T.tsum(w * w) + T.tsum(b * b))
            grads = [t.grad for t in (a, eps, w, b)]
            return _bits(y.data), [None if g is None else g.tobytes() for g in grads]

        fused = run(True)
        assert fused == run(False)
        assert all((g is None) != taped for g in fused[1])

    def test_self_term_added_in_chunks_has_the_bits_of_the_whole(self):
        rng = np.random.default_rng(36)
        sizes = rng.integers(1, 9, size=40)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        x = rng.normal(size=(offsets[-1], 300))
        assert x.size > 2 * T.SELF_TERM_CHUNK_ENTRIES
        spans = T._block_spans("test", [rng.normal(size=(k, k)) for k in sizes], offsets, len(x))
        c = np.asarray(1.3)
        whole = T._block_rows(spans, x) + c * x
        assert T._aggregate(spans, x, c).tobytes() == whole.tobytes()

    def test_linear_over_blocks_records_one_node(self):
        rng = np.random.default_rng(35)
        a, w = (T.Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((4, 3), (3, 2)))
        c = T.Tensor(np.asarray(1.5), requires_grad=True)
        with T.tape():
            y = T.linear(a, w, blocks=[np.ones((1, 1)), np.ones((3, 3))], offsets=[0, 1, 4],
                         self_weight=c)
            assert T.tape_size() == 1
            T.backward(T.tsum(y * y))
        assert all(t.grad is not None for t in (a, w, c))

    def test_constant_inputs_get_no_gradient(self):
        rng = np.random.default_rng(33)
        a = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w, b = T.Tensor(rng.normal(size=(3, 2))), T.Tensor(rng.normal(size=2))
        with T.tape():
            T.backward(T.tsum(T.linear(a, w, b, blocks=[np.eye(4)], offsets=np.array([0, 4]),
                                       self_weight=2.0)))
        assert a.grad is not None and w.grad is None and b.grad is None

    def test_product_is_one_linear_node(self, monkeypatch):
        # a @ w is linear(a, w): one node, whose gradients come a first, then w
        linear, calls = T.linear, []
        monkeypatch.setattr(T, "linear", lambda *args: calls.append(len(args)) or linear(*args))
        rng = np.random.default_rng(34)
        a, w = (T.Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((4, 3), (3, 2)))
        with T.tape():
            y = a @ w
            assert calls == [2] and T.tape_size() == 1
            T.backward(T.tsum(y * y))
        assert np.array_equal(y.data, a.data @ w.data)
        assert np.array_equal(a.grad, (2.0 * y.data) @ w.data.T)
        assert np.array_equal(w.grad, a.data.T @ (2.0 * y.data))

    def test_bad_operands_rejected(self):
        ones = T.Tensor(np.ones((2, 3)))
        with pytest.raises(DataError, match="linear: only 2-D"):
            T.linear(T.Tensor(np.ones(3)), ones, 0.0)
        with pytest.raises(DataError, match="linear: incompatible shapes"):
            T.linear(ones, ones, 0.0)
        with pytest.raises(DataError, match="linear: incompatible shapes"):
            T.linear(ones, T.Tensor(np.ones((3, 2))), np.ones((3, 2)))
        blocks, offsets = [np.eye(2)], np.array([0, 2])
        with pytest.raises(DataError, match="linear: self_weight must be a scalar"):
            T.linear(ones, ones.data.T, blocks=blocks, offsets=offsets, self_weight=np.ones(2))
        for given in ({"blocks": blocks}, {"self_weight": 2.0},
                      {"blocks": blocks, "offsets": offsets}):
            with pytest.raises(DataError, match="blocks, offsets and self_weight come together"):
                T.linear(ones, ones.data.T, **given)
        with pytest.raises(DataError, match="linear: blocks do not tile the 2 rows"):
            T.linear(ones, ones.data.T, blocks=blocks, offsets=np.array([0, 1]), self_weight=2.0)


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
        state = T.AdamState([p])
        p.grad = np.ones(1)
        T.adam_step(state)
        # m-hat = 1, v-hat = 1 after bias correction
        assert p.data[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), abs=1e-15)

    def test_zero_gradient_leaves_params(self):
        p = T.Tensor([1.5, -2.0], requires_grad=True)
        state = T.AdamState([p])
        p.grad = np.zeros(2)
        T.adam_step(state)
        assert np.array_equal(p.data, [1.5, -2.0])

    def test_two_steps_match_hand_recurrence(self):
        p = T.Tensor(np.zeros(1), requires_grad=True)
        state = T.AdamState([p])
        p.grad = np.ones(1)
        T.adam_step(state)
        T.adam_step(state)
        # hand-evaluated Adam with g=1 at t=1,2
        theta, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            theta -= 1e-3 * mh / (np.sqrt(vh) + 1e-8)
        assert p.data[0] == pytest.approx(theta, abs=1e-15)

    def test_steps_the_params_it_was_made_for(self):
        held, other = (T.Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        state = T.AdamState([held])
        held.grad = other.grad = np.ones(2)
        T.adam_step(state)
        assert state.params == [held] and np.all(held.data < 0.0)
        assert np.array_equal(other.data, np.zeros(2))

    def test_grad_shape_checked(self):
        p = T.Tensor(np.zeros(3), requires_grad=True)
        state = T.AdamState([p])
        p.grad = np.ones(2)
        with pytest.raises(DataError, match=r"adam_step: grad shape \(2,\) vs param \(3,\)"):
            T.adam_step(state)

    def test_step_counter_increments(self):
        p = T.Tensor(np.zeros(1), requires_grad=True)
        state = T.AdamState([p])
        p.grad = np.ones(1)
        for expected in (1, 2, 3):
            T.adam_step(state)
            assert state.t == expected
