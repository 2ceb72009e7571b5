"""Unit tests for the reverse-mode differentiation engine and Adam."""

import contextlib
import contextvars
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzformer import autodiff as ad
from fuzzformer.arix import all_rules_forecast_graph, winner_forecast_graph
from fuzzformer.attention import scaled_dot_attention
from fuzzformer.autodiff import Adam, Tensor, backward, parameter
from fuzzformer.encoder import lstm_scan
from fuzzformer.exceptions import NonFiniteError, PositiveDefinitenessError, ShapeError

from gradcheck import check_gradients, max_rel_err


class TestForward:
    def test_identity_matmul(self):
        v = Tensor([[3.0], [4.0]])
        out = ad.matmul(np.eye(2), v)
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_zero_fixed_point(self):
        out = ad.tanh(ad.mul(ad.sigmoid(Tensor(0.0)), Tensor(0.0)))
        assert out.data == 0.0

    def test_forward_determinism_bit_identical(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5))
        w = rng.normal(size=(5, 3))

        def run():
            t = ad.softmax(ad.matmul(Tensor(x), ad.tanh(Tensor(w))))
            return t.data.copy()

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_shape_mismatch_names_operation(self):
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))

    def test_non_finite_detection(self):
        with pytest.raises(NonFiniteError, match="exp"):
            ad.exp(Tensor([1000.0]))
        with pytest.raises(NonFiniteError, match="log"):
            ad.log(Tensor([-1.0]))

    def test_finite_entries_with_an_overflowing_sum_pass_the_probe(self):
        out = ad.add(np.array([1e308, 1e308]), 0.0)
        np.testing.assert_array_equal(out.data, [1e308, 1e308])

    @pytest.mark.parametrize(
        "values", [[1.0, np.nan], [np.inf, 1.0], [np.inf, -np.inf], [1e308, 1e308, np.nan]]
    )
    def test_non_finite_entries_fail_the_probe(self, values):
        with pytest.raises(NonFiniteError, match="add: non-finite values in forward pass"):
            ad.add(np.array(values), 0.0)

    def test_finite_gradient_with_an_overflowing_sum_passes_the_probe(self):
        x = parameter([0.5, -0.5])
        backward(ad.tsum(ad.mul(x, np.array([1e308, 1e308]))))
        np.testing.assert_array_equal(x.grad, [1e308, 1e308])

    @pytest.mark.parametrize("last", [1e308, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(), (0,), (2,), (3, 40_000)])
    def test_probe_is_the_entrywise_test(self, shape, last):
        # 0-d, empty, sums that overflow, and 120,000 entries of which the
        # last alone decides
        x = np.full(shape, 1e308)
        if x.size:
            x.reshape(-1)[-1] = last
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert ad._all_finite(x) is bool(np.isfinite(x).all())

    def test_non_finite_gradient_fails_the_probe(self):
        x = parameter([1e-320, 1e-308, 1e-308])  # d log / dx = 1 / x: [inf, 1e308, 1e308]
        loss = ad.tsum(ad.log(x))
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteError, match="leaf: non-finite gradient"):
                backward(loss)


def _probes_on() -> bool:
    try:
        ad.exp(Tensor([1000.0]))
    except NonFiniteError:
        return True
    return False


class TestFiniteProbes:
    def test_error_names_its_op(self):
        with pytest.raises(NonFiniteError) as info:
            ad.exp(Tensor([1000.0]))
        assert (info.value.op, info.value.rule) == ("exp", None)
        x = parameter([1e-320])
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError) as info:
            backward(ad.tsum(ad.log(x)))
        assert (info.value.op, info.value.rule) == ("leaf", None)

    def test_probes_off_let_values_and_gradients_through(self):
        x = parameter([1e-320, 1.0])
        with ad.no_finite_probes():
            out = ad.exp(Tensor([1000.0]))
            with np.errstate(divide="ignore"):
                backward(ad.tsum(ad.log(x)))
        assert np.isinf(out.data[0]) and np.isinf(x.grad[0]) and x.grad[1] == 1.0

    def test_probes_come_back_after_an_exception_and_after_nesting(self):
        with pytest.raises(ZeroDivisionError):
            with ad.no_finite_probes():
                1 / 0
        assert _probes_on()
        with ad.no_finite_probes():
            with ad.no_finite_probes():
                assert not _probes_on()
            assert not _probes_on()
        assert _probes_on()


def _modes():
    """(graph recording on, finite probes on) as the calling thread sees them."""
    return ad.grad_enabled(), _probes_on()


def _in_threads(*steps_per_thread):
    """Run each thread's steps in lockstep: step k of every thread runs
    between the k-th and the (k+1)-th barrier; returns what each step
    returned, per thread."""
    barrier = threading.Barrier(len(steps_per_thread))
    results = [[] for _ in steps_per_thread]

    def run(steps, out):
        for step in steps:
            out.append(step())
            barrier.wait(timeout=10)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(steps_per_thread, results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


class TestModesAreContextLocal:
    def test_a_block_in_one_thread_leaves_another_threads_modes_alone(self):
        with contextlib.ExitStack() as a_blocks, contextlib.ExitStack() as b_blocks:
            a, b = _in_threads(
                [lambda: a_blocks.enter_context(ad.no_grad()), _modes, a_blocks.close, _modes],
                [lambda: b_blocks.enter_context(ad.no_finite_probes()), _modes, b_blocks.close, _modes],
            )
        assert a[1:] == [(False, True), None, (True, True)]
        assert b[1:] == [(True, False), None, (True, True)]
        assert _modes() == (True, True)

    @pytest.mark.parametrize("block", [ad.no_grad, ad.no_finite_probes])
    def test_overlapping_blocks_in_two_threads_restore_every_mode(self, block):
        # a enters, b enters, a leaves, b leaves: with one module-wide flag
        # b would restore the "off" that it saw when it entered
        with contextlib.ExitStack() as a_blocks, contextlib.ExitStack() as b_blocks:
            a, _b = _in_threads(
                [lambda: a_blocks.enter_context(block()), lambda: None, a_blocks.close, _modes],
                [lambda: None, lambda: b_blocks.enter_context(block()), lambda: None, b_blocks.close],
            )
        assert a[3] == (True, True) and _modes() == (True, True)
        x = parameter([1.0])
        assert ad.mul(x, x).requires_grad

    def test_a_copied_context_carries_the_callers_modes(self):
        with ad.no_grad(), ad.no_finite_probes():
            ctx = contextvars.copy_context()
        assert ctx.run(_modes) == (False, False)
        assert _modes() == (True, True)


class TestTrainStep:
    def test_finite_step_equals_backward_then_adam(self):
        rng = np.random.default_rng(5)
        w0, target = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        x = rng.normal(size=(4, 3))
        runs = []
        for use_step in (True, False):
            w = parameter(w0.copy())
            opt = Adam([w], learning_rate=0.1)
            drop = np.random.default_rng(6)
            for _ in range(3):
                def loss_fn():
                    h = ad.dropout(ad.matmul(x, w), 0.5, drop)
                    loss = ad.tsum(ad.mul(ad.sub(h, target), ad.sub(h, target)))
                    return loss, loss.item()

                if use_step:
                    ad.train_step(opt, loss_fn, drop, "step")
                else:
                    loss, _ = loss_fn()
                    backward(loss)
                    opt.step()
            runs.append((w.data.copy(), drop.random()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize(
        "plant, message",
        [
            ("forward", "exp: non-finite values in forward pass"),
            ("backward", "leaf: non-finite gradient"),
        ],
    )
    def test_failed_step_replays_with_probes_and_leaves_adam_alone(self, plant, message):
        x = parameter([0.5, 1e-320])  # d log / dx = 1 / x overflows at 1e-320
        opt = Adam([x], learning_rate=0.1)
        x.grad = np.array([1.0, 0.0])  # a finite step first, which keeps x[1]
        opt.step()
        before = x.data.copy()
        rng = np.random.default_rng(0)
        draws = []

        def loss_fn():
            draws.append(rng.random())
            if plant == "forward":
                loss = ad.tsum(ad.exp(ad.mul(x, 2000.0)))
            else:
                loss = ad.tsum(ad.log(x))
            return loss, None

        with pytest.raises(NonFiniteError) as info, np.errstate(all="ignore"):
            ad.train_step(opt, loss_fn, rng, "epoch 3, batch at sample 8")
        assert str(info.value) == f"epoch 3, batch at sample 8: {message}"
        assert info.value.op == message.split(":")[0]
        assert opt.step_count == 1 and x.grad is None
        np.testing.assert_array_equal(x.data, before)
        assert len(draws) == 2 and draws[0] == draws[1]  # the replay redraws the same numbers

    @pytest.mark.parametrize("scale, steps", [(1e155, False), (1e153, True)])
    def test_gradient_too_large_to_square_stops_adam(self, scale, steps):
        # each entry of the gradient is ``scale``: at 1e155 its square
        # overflows; at 1e153 only the sum of the 1000 squares does, and
        # Adam's moments stay finite
        w = parameter(np.ones(1000))
        opt = Adam([w], learning_rate=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if steps:
                ad.train_step(opt, lambda: (ad.tsum(ad.mul(w, scale)), None), None, "step 1")
                assert opt.step_count == 1 and np.isfinite(opt.second_moment[0]).all()
                return
            with pytest.raises(NonFiniteError) as info:
                ad.train_step(opt, lambda: (ad.tsum(ad.mul(w, scale)), None), None, "step 1")
        assert str(info.value) == "step 1: adam: a gradient entry is too large to square"
        assert info.value.op == "adam"
        assert opt.step_count == 0 and w.grad is None
        np.testing.assert_array_equal(w.data, 1.0)

    def test_failure_no_probe_sees_still_raises(self):
        # a non-finite leaf as the loss: no op, so no probe, can name it
        opt = Adam([parameter([1.0])])
        with pytest.raises(NonFiniteError, match="^step 1: non-finite loss or gradient, yet no op"):
            ad.train_step(opt, lambda: (Tensor(np.inf), None), None, "step 1")
        assert opt.step_count == 0


class TestCheckedForward:
    def test_finite_pass_runs_once_unrecorded_and_unprobed(self):
        x = parameter([1.0, 2.0])
        seen = []

        def run():
            seen.append((_modes(), np.geterr()["over"]))
            return ad.exp(x).data, ad.mul(x, 3.0).data

        out = ad.checked_forward(run)
        assert [a.tolist() for a in out] == [np.exp([1.0, 2.0]).tolist(), [3.0, 6.0]]
        assert seen == [((False, False), "ignore")]
        assert _modes() == (True, True)

    @pytest.mark.parametrize("returns", ["array", "tuple"])
    def test_non_finite_output_is_replayed_with_probes_on(self, returns):
        x = Tensor([1.0, 1000.0])
        seen = []

        def run():
            seen.append(_modes())
            out = ad.neg(ad.exp(x)).data  # exp overflows: its probe names it
            return out if returns == "array" else (np.zeros(2), out)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError) as info:
                ad.checked_forward(run)
        assert (str(info.value), info.value.op) == ("exp: non-finite values in forward pass", "exp")
        assert seen == [(False, False), (False, True)]
        assert _modes() == (True, True)

    def test_a_numeric_error_of_the_unprobed_pass_gives_way_to_an_earlier_probe(self):
        # the ARIX recursion checks its forecast even without probes; the
        # probed replay names the op that made the NaN it was fed
        a, b = parameter([[0.5]]), parameter([[1.0]])

        def run():
            u = ad.mul(Tensor(np.full((1, 3), np.inf)), 0.0)  # inf * 0: NaN
            return all_rules_forecast_graph(np.ones((1, 2)), u, a, b, 1, 3).data

        with ad.no_finite_probes(), pytest.raises(NonFiniteError, match="^rule 0: "):
            run()
        with pytest.raises(NonFiniteError) as info:
            ad.checked_forward(run)
        assert (str(info.value), info.value.op, info.value.rule) == (
            "mul: non-finite values in forward pass", "mul", None
        )

    def test_intermediate_that_reaches_no_output_does_not_raise(self):
        # exp overflows to inf, which softmax turns into a weight of exactly 0
        psi = ad.checked_forward(lambda: ad.softmax(ad.neg(ad.exp(Tensor([1000.0, 0.0])))).data)
        assert psi.tolist() == [0.0, 1.0]
        with pytest.raises(NonFiniteError, match="^exp: non-finite values in forward pass$"):
            ad.softmax(ad.neg(ad.exp(Tensor([1000.0, 0.0]))))

    def test_failure_no_probe_sees_still_raises(self):
        calls = []

        def run():
            calls.append(1)
            return np.array([np.nan])  # no op made it, so no probe can name it

        with pytest.raises(NonFiniteError, match="^non-finite forward output, yet no op's probe fired on replay$"):
            ad.checked_forward(run)
        assert len(calls) == 2


class TestBackward:
    def test_quadratic_gradient(self):
        x = parameter([1.0, 2.0, 3.0])
        out = ad.tsum(ad.mul(x, x))
        backward(out)
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_softmax_sum_is_constant(self):
        x = parameter([0.3, -1.2, 2.0, 0.0])
        out = ad.tsum(ad.softmax(x))
        backward(out)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-12)

    def test_random_small_graph_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(4, 2)))

        def build():
            h = ad.tanh(ad.matmul(a, b))
            s = ad.softmax(h, axis=1)
            return ad.tsum(ad.mul(s, h))

        check_gradients(build, [a, b], h=1e-5, tol=1e-4)

    def test_fanout_accumulates(self):
        x = parameter([2.0])
        y = ad.add(ad.mul(x, x), ad.mul(Tensor(3.0), x))  # x^2 + 3x
        backward(ad.tsum(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_unused_leaf_has_zero_gradient(self):
        x = parameter([1.0, 2.0])
        unused = parameter([5.0])
        backward(ad.tsum(ad.mul(x, x)))
        assert unused.grad is None  # Adam and the gradient check read None as zero

    def test_backward_requires_scalar_root(self):
        x = parameter([1.0, 2.0])
        with pytest.raises(ShapeError, match="scalar"):
            backward(ad.mul(x, x))

    def test_backward_frees_the_graph(self):
        x = parameter([1.0, 2.0])
        y = ad.mul(x, x)
        out = ad.tsum(y)
        backward(out)
        assert y._backward is None and y._parents == ()
        with pytest.raises(RuntimeError, match="freed"):
            backward(out)

    def test_no_grad_blocks_recording(self):
        x = parameter([1.0, 2.0])
        with ad.no_grad():
            out = ad.mul(x, x)
        assert not out.requires_grad and out._parents == ()


def _rand(rng, *shape):
    return rng.normal(size=shape)


PRIMITIVES = {
    "matmul": lambda a, b: ad.matmul(a, b),
    "add": lambda a, b: ad.add(a, b),
    "multiply": lambda a, b: ad.mul(a, b),
    "subtract": lambda a, b: ad.sub(a, b),
    "divide": lambda a, b: ad.div(a, b),
}

UNARY = {
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
    "softmax": lambda t: ad.softmax(t, axis=-1),
    "exponential": ad.exp,
    "sum": lambda t: ad.tsum(t, axis=0),
    "mean": lambda t: ad.tmean(t, axis=1),
    "slice": lambda t: t[1:3, :2],
    "swapaxes": lambda t: ad.swapaxes(t, 0, 1),
    "reshape": lambda t: ad.reshape(t, (-1,)),
    "neg": ad.neg,
    "clip_min": lambda t: ad.clip_min(t, 0.1),
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_binary_op(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        if name == "matmul":
            a = parameter(_rand(rng, 3, 4))
            b = parameter(_rand(rng, 4, 2))
        else:
            a = parameter(_rand(rng, 3, 4))
            b = parameter(_rand(rng, 3, 4) + 3.0)  # keep divisor away from 0
        op = PRIMITIVES[name]
        check_gradients(lambda: ad.tsum(ad.tanh(op(a, b))), [a, b])

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary_op(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        x = parameter(_rand(rng, 4, 3) + 0.5)
        op = UNARY[name]
        check_gradients(lambda: ad.tsum(ad.mul(op(x), op(x))), [x])

    def test_logarithm(self):
        rng = np.random.default_rng(5)
        x = parameter(np.abs(_rand(rng, 4, 3)) + 0.5)
        check_gradients(lambda: ad.tsum(ad.log(x)), [x])

    def test_concatenate(self):
        rng = np.random.default_rng(6)
        a = parameter(_rand(rng, 2, 3))
        b = parameter(_rand(rng, 4, 3))
        check_gradients(lambda: ad.tsum(ad.tanh(ad.concat([a, b], axis=0))), [a, b])

    def test_stack(self):
        rng = np.random.default_rng(8)
        a = parameter(_rand(rng, 3))
        b = parameter(_rand(rng, 3))
        check_gradients(lambda: ad.tsum(ad.mul(ad.stack([a, b], axis=1), 2.0)), [a, b])

    def test_gather_with_repeats(self):
        rng = np.random.default_rng(9)
        x = parameter(_rand(rng, 5, 2))
        idx = np.array([0, 3, 3, 1])
        check_gradients(lambda: ad.tsum(ad.mul(x[idx], x[idx])), [x])

    def test_broadcast_binary(self):
        rng = np.random.default_rng(10)
        a = parameter(_rand(rng, 4, 1, 3))
        b = parameter(_rand(rng, 5, 1))
        check_gradients(lambda: ad.tsum(ad.tanh(ad.mul(a, b))), [a, b])

    def test_batched_matmul_broadcast(self):
        rng = np.random.default_rng(12)
        a = parameter(_rand(rng, 6, 3, 4))
        b = parameter(_rand(rng, 4, 2))
        check_gradients(lambda: ad.tsum(ad.tanh(ad.matmul(a, b))), [a, b])

    def test_solve_vec(self):
        rng = np.random.default_rng(13)
        m = _rand(rng, 3, 3)
        a = parameter(m @ m.T + 3.0 * np.eye(3))
        b = parameter(_rand(rng, 3))
        check_gradients(lambda: ad.tsum(ad.mul(ad.solve_vec(a, b), b)), [a, b])

    def test_solve_vec_batched_broadcast(self):
        rng = np.random.default_rng(14)
        mats = _rand(rng, 4, 2, 2)
        spd = np.einsum("cij,ckj->cik", mats, mats) + 2.0 * np.eye(2)
        a = parameter(spd)
        b = parameter(_rand(rng, 5, 4, 2))
        check_gradients(
            lambda: ad.tsum(ad.tanh(ad.solve_vec(a, b))), [a, b], max_coords=8,
            rng=np.random.default_rng(0),
        )

    def test_logdet(self):
        rng = np.random.default_rng(15)
        mats = _rand(rng, 3, 2, 2)
        spd = np.einsum("cij,ckj->cik", mats, mats) + 2.0 * np.eye(2)
        a = parameter(spd)
        check_gradients(lambda: ad.tsum(ad.logdet(a)), [a])

    def test_logdet_rejects_indefinite(self):
        with pytest.raises(PositiveDefinitenessError):
            ad.logdet(Tensor([[-1.0, 0.0], [0.0, 1.0]]))


def _away_from_zero(rng, shape, lo=0.5, hi=1.5):
    """Values of magnitude in [lo, hi] with random signs (safe divisors, no kinks)."""
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(lo, hi, size=shape)


def _spd(rng, shape):
    """Well-conditioned symmetric positive-definite matrices of ``shape`` (..., D, D)."""
    m = rng.normal(size=shape)
    return m @ np.swapaxes(m, -1, -2) + shape[-1] * np.eye(shape[-1])


def _operands(draw, rng, shapes, make=_away_from_zero):
    """Operand tensors for ``shapes``: each a parameter, or one a constant, or one reused.

    Returns the operands in order and the parameters among them.
    """
    mode = draw(st.sampled_from(["all", "constant", "same"] if len(shapes) > 1 else ["all"]))
    ops = [parameter(make(rng, s)) for s in shapes]
    if mode == "constant":
        i = draw(st.integers(0, len(ops) - 1))
        ops[i] = Tensor(ops[i].data)
    elif mode == "same":
        i, j = draw(st.lists(st.integers(0, len(ops) - 1), min_size=2, max_size=2, unique=True))
        if ops[i].data.shape == ops[j].data.shape:
            ops[j] = ops[i]
    params = []
    for t in ops:
        if t.requires_grad and not any(t is p for p in params):
            params.append(t)
    return ops, params


def _shape(draw, min_dims=1, max_dims=3, max_side=4):
    return tuple(draw(st.lists(st.integers(1, max_side), min_size=min_dims, max_size=max_dims)))


def _binary_case(op):
    def case(draw, rng):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        forms = [(m, n), (1, n), (m, 1), ()]
        shapes = [draw(st.sampled_from(forms)), draw(st.sampled_from(forms))]
        ops, params = _operands(draw, rng, shapes)
        return (lambda: op(*ops)), ops, params

    return case


def _unary_case(op, make=_away_from_zero):
    def case(draw, rng):
        ops, params = _operands(draw, rng, [_shape(draw)], make)
        return (lambda: op(ops[0])), ops, params

    return case


def _matmul_case(draw, rng):
    m, k, n, b = (draw(st.integers(1, 4)) for _ in range(4))
    batch = [(), (b,), (1,)]
    if draw(st.booleans()):  # x @ x
        shapes = [draw(st.sampled_from(batch)) + (k, k)] * 2
    else:
        shapes = [draw(st.sampled_from(batch)) + (m, k), draw(st.sampled_from(batch)) + (k, n)]
    ops, params = _operands(draw, rng, shapes)
    return (lambda: ad.matmul(*ops)), ops, params


def _swapaxes_case(draw, rng):
    shape = _shape(draw, min_dims=2)
    axes = st.integers(-len(shape), len(shape) - 1)
    a1, a2 = draw(axes), draw(axes)
    ops, params = _operands(draw, rng, [shape])
    return (lambda: ad.swapaxes(ops[0], a1, a2)), ops, params


def _reshape_case(draw, rng):
    shape = _shape(draw)
    target = draw(st.sampled_from([(-1,), tuple(reversed(shape)), (1,) + shape]))
    ops, params = _operands(draw, rng, [shape])
    return (lambda: ad.reshape(ops[0], target)), ops, params


def _getitem_case(draw, rng):
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    idx = np.array(idx + idx[:1])  # at least one repeated index
    key = draw(st.sampled_from([idx, (idx, slice(None)), (idx, slice(0, 1)), (slice(None), 0)]))
    ops, params = _operands(draw, rng, [(n, k)])
    return (lambda: ad.getitem(ops[0], key)), ops, params


def _concat_case(draw, rng):
    base = list(_shape(draw, max_dims=2))
    axis = draw(st.integers(-len(base), len(base) - 1))
    shapes = []
    for _ in range(3):
        base[axis] = draw(st.integers(1, 3))
        shapes.append(tuple(base))
    ops, params = _operands(draw, rng, shapes)
    return (lambda: ad.concat(ops, axis=axis)), ops, params


def _stack_case(draw, rng):
    shape = _shape(draw, max_dims=2)
    axis = draw(st.integers(-len(shape) - 1, len(shape)))
    ops, params = _operands(draw, rng, [shape] * 3)
    return (lambda: ad.stack(ops, axis=axis)), ops, params


def _axis(draw, ndim):
    axes = st.integers(-ndim, ndim - 1)
    return draw(st.one_of(st.none(), axes, st.lists(axes, min_size=1, max_size=ndim).map(
        lambda xs: tuple(sorted({x % ndim for x in xs}))
    )))


def _reduce_case(op):
    def case(draw, rng):
        shape = _shape(draw)
        axis = _axis(draw, len(shape))
        ops, params = _operands(draw, rng, [shape])
        return (lambda: op(ops[0], axis=axis)), ops, params

    return case


def _softmax_case(draw, rng):
    shape = _shape(draw)
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    ops, params = _operands(draw, rng, [shape])
    return (lambda: ad.softmax(ops[0], axis=axis)), ops, params


def _solve_vec_case(draw, rng):
    d, b, c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a_batch, b_batch = draw(st.sampled_from([((), ()), ((b,), ()), ((), (b,)), ((b,), (c, b)), ((1,), (b,))]))
    ops = [parameter(_spd(rng, a_batch + (d, d))), parameter(_away_from_zero(rng, b_batch + (d,)))]
    const = draw(st.sampled_from([None, 0, 1]))
    if const is not None:
        ops[const] = Tensor(ops[const].data)
    return (lambda: ad.solve_vec(*ops)), ops, [t for t in ops if t.requires_grad]


def _logdet_case(draw, rng):
    batch, d = draw(st.lists(st.integers(1, 3), max_size=1)), draw(st.integers(1, 3))
    ops = [parameter(_spd(rng, (*batch, d, d)))]
    return (lambda: ad.logdet(ops[0])), ops, ops


def _small(rng, shape):
    """Normal values scaled to keep LSTM gates and ARIX recursions unsaturated."""
    return 0.4 * rng.normal(size=shape)


def _lstm_scan_case(draw, rng):
    b, n, d_in, d_h = (draw(st.integers(1, 3)) for _ in range(4))
    shapes = [(b, n, d_in), (d_in, 4 * d_h), (d_h, 4 * d_h), (4 * d_h,)]
    ops, params = _operands(draw, rng, shapes, make=_small)
    return (lambda: lstm_scan(*ops)), ops, params


def _attention_case(draw, rng):
    # leading (batch, heads) shapes that broadcast against each other
    b, heads = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    batch = st.sampled_from([(b, heads), (1, heads), (heads,), (b, 1), ()])
    n_q, n_k, d_h, d_out = (draw(st.integers(1, 4)) for _ in range(4))
    q_batch, kv_batch = draw(batch), draw(batch)
    shapes = [q_batch + (n_q, d_h), kv_batch + (n_k, d_h), draw(batch) + (n_k, d_out)]
    if draw(st.booleans()):  # self-attention: one tensor as queries and keys
        shapes[0] = shapes[1]
    ops, params = _operands(draw, rng, shapes)
    return (lambda: scaled_dot_attention(*ops)[0]), ops, params


def _arix_recursion_case(draw, rng):
    bsz, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p, q = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    d, horizon = draw(st.integers(0, 1)), draw(st.integers(1, 4))
    hist = rng.normal(size=(bsz, p + d + draw(st.integers(0, 2))))
    all_rules = draw(st.booleans())
    if all_rules:  # every rule for every sample: (C, .) against (B, 1, .)
        a_rows = b_rows = c
    else:  # one rule per sample, or one row broadcast over the batch
        a_rows, b_rows = draw(st.sampled_from([bsz, 1])), draw(st.sampled_from([bsz, 1]))
    ops = [parameter(rng.normal(size=(bsz, horizon))), parameter(_small(rng, (a_rows, p))),
           parameter(_small(rng, (b_rows, q)))]
    const = draw(st.sampled_from([None, 0, 1, 2] if q else [2]))  # an empty b has nothing to check
    if const is not None:
        ops[const] = Tensor(ops[const].data)
    tracked = [t for t in ops if t.requires_grad]
    if all_rules:
        return (lambda: all_rules_forecast_graph(hist, *ops, d, horizon)), ops, tracked
    rules = np.arange(bsz)  # each row's rule, named if its forecast is non-finite
    return (lambda: winner_forecast_graph(hist, *ops, d, horizon, rules)), ops, tracked


# every primitive the engine builds graph nodes with, by function name,
# then the fused ops with hand-written vjps
SWEEP = {
    "add": _binary_case(ad.add),
    "sub": _binary_case(ad.sub),
    "mul": _binary_case(ad.mul),
    "div": _binary_case(ad.div),
    "neg": _unary_case(ad.neg),
    "matmul": _matmul_case,
    "swapaxes": _swapaxes_case,
    "reshape": _reshape_case,
    "getitem": _getitem_case,
    "concat": _concat_case,
    "stack": _stack_case,
    "tsum": _reduce_case(ad.tsum),
    "tmean": _reduce_case(ad.tmean),
    "exp": _unary_case(ad.exp),
    "log": _unary_case(ad.log, make=lambda rng, s: rng.uniform(0.5, 2.0, size=s)),
    "tanh": _unary_case(ad.tanh),
    "sigmoid": _unary_case(ad.sigmoid),
    "softmax": _softmax_case,
    "clip_min": _unary_case(lambda t: ad.clip_min(t, 0.0)),
    "solve_vec": _solve_vec_case,
    "logdet": _logdet_case,
    "lstm_scan": _lstm_scan_case,
    "scaled_dot_attention": _attention_case,
    "arix_recursion": _arix_recursion_case,
}


class TestVjpSweep:
    """Every primitive's and fused op's vjp against central differences on random shapes."""

    @pytest.mark.parametrize("name", sorted(SWEEP))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_vjp_matches_finite_differences(self, name, data, seed):
        rng = np.random.default_rng(seed)
        op, operands, params = SWEEP[name](data.draw, rng)
        # a random upstream adjoint, so the vjp is not only checked against ones
        weight = Tensor(rng.normal(size=op().data.shape))
        check_gradients(lambda: ad.tsum(ad.mul(op(), weight)), params)
        for t in operands:
            if not t.requires_grad:
                assert t.grad is None


class TestDropout:
    def test_eval_mode_identity(self):
        x = parameter([1.0, 2.0])
        assert ad.dropout(x, 0.5, None) is x

    def test_rate_one_zeroes(self):
        x = parameter([1.0, 2.0])
        out = ad.dropout(x, 1.0, np.random.default_rng(0))
        assert np.array_equal(out.data, [0.0, 0.0])

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(200_00))
        out = ad.dropout(x, 0.25, rng)
        assert abs(out.data.mean() - 1.0) < 0.02


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = parameter([1.0, -2.0])
        opt = Adam([p])
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_bias_corrected_value(self):
        p = parameter([0.0])
        opt = Adam([p], learning_rate=1e-3)
        p.grad = np.array([1.0])
        opt.step()
        # m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
        assert abs(p.data[0] + 1e-3) < 1e-9

    def test_identical_params_get_identical_updates(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=4)
        g = rng.normal(size=4)
        p1, p2 = parameter(vals.copy()), parameter(vals.copy())
        opt = Adam([p1, p2], learning_rate=0.01)
        for _ in range(5):
            p1.grad, p2.grad = g.copy(), g.copy()
            opt.step()
        assert np.array_equal(p1.data, p2.data)

    def test_moments_zero_initialized_and_grads_cleared(self):
        p = parameter([1.0])
        opt = Adam([p])
        assert opt.step_count == 0
        assert np.array_equal(opt.first_moment[0], [0.0])
        assert np.array_equal(opt.second_moment[0], [0.0])
        p.grad = np.array([0.5])
        opt.step()
        assert p.grad is None


class TestGradcheckOracle:
    def test_oracle_catches_a_wrong_gradient(self):
        # A deliberately broken derivative must fail the FD comparison.
        x = parameter([0.7])

        def build():
            out = ad.tanh(x)
            # sabotage: double the recorded backward
            orig = out._backward

            def bad():
                orig()
                x.grad *= 2.0

            out._backward = bad
            return ad.tsum(out)

        with pytest.raises(AssertionError):
            check_gradients(build, [x])

    def test_rel_err_helper(self):
        assert max_rel_err(np.array([1.0]), np.array([1.0])) == 0.0
        assert max_rel_err(np.array([0.0]), np.array([0.0])) == 0.0
