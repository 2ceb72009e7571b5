"""The fused LSTM scan against finite differences, and the batched ARMA
kernels against the per-window scalar oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzformer.baselines import ArimaOrder, evaluate_arima_windows
from fuzzformer.data import make_synthetic, prepare_dataset
from fuzzformer.kernels import arima as ak, lstm as lk

import arima_oracle
import lstm_oracle
from gradcheck import fd_gradient, max_rel_err


def _lstm_inputs(rng, N=6, B=3, d_in=4, d_h=5):
    x = np.ascontiguousarray(rng.normal(size=(N, B, d_in)))
    wx = rng.normal(size=(d_in, 4 * d_h)) * 0.4
    wh = rng.normal(size=(d_h, 4 * d_h)) * 0.4
    b = rng.normal(size=4 * d_h) * 0.2
    return x, wx, wh, b


class TestLstmKernels:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x, wx, wh, b = _lstm_inputs(rng, N=4, B=2, d_in=2, d_h=3)
        mixer = rng.normal(size=(4, 2, 3))

        def loss():
            h = lk.lstm_forward(x, wx, wh, b)[0]
            return float(np.sum(h * mixer))

        caches = lk.lstm_forward(x, wx, wh, b)
        grads = lk.lstm_backward(x, wx, wh, mixer, *caches)
        for arr, ana in zip((x, wx, wh, b), grads):
            num, _ = fd_gradient(loss, arr)
            assert max_rel_err(ana, num) < 1e-4

    @pytest.mark.parametrize("N,B,d_in,d_h", [(6, 3, 4, 5), (1, 2, 3, 2), (5, 1, 1, 1)])
    def test_leaves_arguments_and_caches_untouched(self, N, B, d_in, d_h):
        # both passes work in place on their own buffers only
        rng = np.random.default_rng(4)
        args = _lstm_inputs(rng, N=N, B=B, d_in=d_in, d_h=d_h)
        dh_out = rng.normal(size=(N, B, d_h))
        kept = [a.copy() for a in args] + [dh_out.copy()]
        caches = lk.lstm_forward(*args)
        cached = [c.copy() for c in caches]
        lk.lstm_backward(*args[:3], dh_out, *caches)
        lk.lstm_backward(*args[:3], dh_out, *caches)
        for before, after in zip(kept + cached, list(args) + [dh_out] + list(caches)):
            assert np.array_equal(before, after)

    def test_empty_batch_gets_the_single_window_blocks(self):
        assert lk.block_steps(0) == lk.block_steps(1) == 768
        x, wx, wh, b = _lstm_inputs(np.random.default_rng(0), N=6, B=0)
        h, gates, c_all = lk.lstm_forward(x, wx, wh, b)
        assert h.shape == c_all.shape == (6, 0, 5) and gates.shape == (6, 4, 0, 5)
        assert lk.lstm_forward(x, wx, wh, b, cache=False)[0].shape == (6, 0, 5)

    @pytest.mark.parametrize("B, steps", [(1, 768), (7, 112), (31, 32), (44, 32), (47, 32), (48, 16), (96, 16)])
    def test_blocks_hold_at_least_block_rows_in_16_step_multiples(self, B, steps):
        # a 48-window evaluation chunk at D_h=128 projects 16 steps at a time
        assert lk.block_steps(B) == steps

    @pytest.mark.parametrize("d_h", [16, 128])
    @pytest.mark.parametrize("d_in", [3, 16, 128])
    @pytest.mark.parametrize("B", [1, 7, 31, 44, 48, 64, 96, 256])
    def test_cache_free_forward_has_the_caching_bits(self, B, d_in, d_h):
        # N=60 (the paper's look-back): one block up to B=7, two at B=31
        # and 44, three full blocks and a short one from B=48 on
        rng = np.random.default_rng(B * 1000 + d_in * 10 + d_h)
        x, wx, wh, b = _lstm_inputs(rng, N=60, B=B, d_in=d_in, d_h=d_h)
        h, gates, c_all = lk.lstm_forward(x, wx, wh, b, cache=True)
        h_free, no_gates, no_cells = lk.lstm_forward(x, wx, wh, b, cache=False)
        assert no_gates is None and no_cells is None
        assert gates.shape == (60, 4, B, d_h) and c_all.shape == (60, B, d_h)
        assert np.array_equal(h, h_free)
        # the block GEMMs give the bits of one GEMM over every step, so the
        # blocked projection leaves the outputs of the whole-window one
        full = np.dot(x.reshape(60 * B, d_in), wx).reshape(60, B, -1)
        steps = lk.block_steps(B)
        for start in range(0, 60, steps):
            block = np.dot(x[start : start + steps].reshape(-1, d_in), wx)
            assert np.array_equal(block, full[start : start + steps].reshape(-1, 4 * d_h))

    @pytest.mark.parametrize("N", [1, 60])
    @pytest.mark.parametrize("d_h", [5, 16, 128])
    @pytest.mark.parametrize("d_in", [3, 16, 128])
    @pytest.mark.parametrize("B", [1, 7, 31, 44, 64, 96, 256])
    def test_matches_the_reference_kernels_bit_for_bit(self, B, d_in, d_h, N):
        # byte for byte against lstm_oracle's kernels, whose gate cache is
        # (i, f, g, o): any reordered sum or product shows here
        rng = np.random.default_rng(B * 1000 + d_in * 10 + d_h + N)
        x, wx, wh, b = _lstm_inputs(rng, N=N, B=B, d_in=d_in, d_h=d_h)
        dh_out = rng.normal(size=(N, B, d_h))
        h, gates, c_all = lk.lstm_forward(x, wx, wh, b)
        h_want, gates_want, c_want = lstm_oracle.lstm_forward(x, wx, wh, b)
        got = [h, c_all, lk.lstm_forward(x, wx, wh, b, cache=False)[0]]
        got += lk.lstm_backward(x, wx, wh, dh_out, h, gates, c_all)
        want = [h_want, c_want, h_want]
        want += lstm_oracle.lstm_backward(x, wx, wh, dh_out, h_want, gates_want, c_want)
        got.append(gates)
        want.append(gates_want[:, [0, 1, 3, 2]])  # the cache holds i, f, o, g
        for a, w in zip(got, want):
            assert a.shape == w.shape and a.tobytes() == w.tobytes()

    def test_backward_without_input_gradient_keeps_weight_bits(self):
        rng = np.random.default_rng(5)
        args = _lstm_inputs(rng, N=20, B=7, d_in=3, d_h=6)
        dh_out = rng.normal(size=(20, 7, 6))
        caches = lk.lstm_forward(*args)
        dx, *weights = lk.lstm_backward(*args[:3], dh_out, *caches)
        no_dx, *same = lk.lstm_backward(*args[:3], dh_out, *caches, input_grad=False)
        assert no_dx is None and dx.shape == (20, 7, 3)
        for a, b in zip(weights, same):
            assert np.array_equal(a, b)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        x, wx, wh, b = _lstm_inputs(rng)
        a = lk.lstm_forward(x, wx, wh, b)[0]
        c = lk.lstm_forward(x, wx, wh, b)[0]
        assert np.array_equal(a, c)


class TestArimaKernels:
    def test_fit_flags_rank_deficiency(self):
        # constant nonzero series: lagged design matrix has rank 1
        phi, theta, ok = ak.hr_fit(np.ones((1, 80)), 2, 0)
        assert ok.shape == (1,) and not ok[0]
        np.testing.assert_array_equal(phi, 0.0)

    def test_all_zero_series_fits_zero_dynamics(self):
        phi, theta, ok = ak.hr_fit(np.zeros((1, 80)), 2, 1)
        assert ok[0]
        assert phi.shape == (1, 2) and theta.shape == (1, 1)
        np.testing.assert_array_equal(phi, 0.0)
        np.testing.assert_array_equal(theta, 0.0)

    def test_fit_rejects_too_short_window(self):
        phi, theta, ok = ak.hr_fit(np.random.default_rng(0).normal(size=(1, 8)), 4, 1)
        assert not ok[0]

    def test_pure_ar_fit_recovers_coefficients(self):
        rng = np.random.default_rng(6)
        n = 10_000
        eps = rng.normal(size=n)
        x = np.zeros(n)
        for t in range(2, n):
            x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + eps[t]
        phi, theta, ok = ak.hr_fit(x[None], 2, 0)
        assert ok[0]
        np.testing.assert_allclose(phi[0], [0.5, -0.3], atol=0.05)

    @pytest.mark.parametrize("p,q", [(4, 1), (2, 2), (1, 0), (3, 0), (0, 1), (0, 2)])
    def test_stack_matches_scalar_oracle(self, p, q):
        # random walks mixed with the special rows: all-zero, constant, alternating
        rng = np.random.default_rng(11)
        x = rng.normal(size=(12, 59)).cumsum(axis=1)
        x[3] = 0.0
        x[5] = 2.5
        x[7] = np.tile([1.0, -1.0], 30)[:59]
        x -= x.mean(axis=1, keepdims=True)
        phi, theta, ok = ak.hr_fit(x, p, q)
        eps = ak.arma_residuals(x, phi, theta)
        pred = ak.arma_predict(x, eps, phi, theta, 9)
        for w in range(x.shape[0]):
            phi1, theta1, ok1 = arima_oracle.hr_fit(x[w], p, q)
            assert ok[w] == ok1
            np.testing.assert_allclose(phi[w], phi1, rtol=0, atol=1e-10)
            np.testing.assert_allclose(theta[w], theta1, rtol=0, atol=1e-10)
            # the recursions run the oracle's summation order exactly
            eps1 = arima_oracle.arma_residuals(x[w], phi[w], theta[w])
            np.testing.assert_array_equal(eps[w], eps1)
            np.testing.assert_array_equal(pred[w], arima_oracle.arma_predict(x[w], eps1, phi[w], theta[w], 9))

    def test_companion_stable_is_one_stacked_check(self):
        rng = np.random.default_rng(12)
        for m in (0, 1, 2, 4):
            coeffs = rng.uniform(-1.2, 1.2, size=(20, m))
            got = ak.companion_stable(coeffs)
            assert got.shape == (20,)
            assert [bool(g) for g in got] == [arima_oracle.companion_stable(c) for c in coeffs]


def _random_roots(rng, moduli):
    """Roots with the given moduli: conjugate pairs at random angles, and
    one real root of random sign when their number is odd."""
    m = len(moduli)
    pairs = moduli[: m // 2] * np.exp(1j * rng.uniform(0.0, np.pi, size=m // 2))
    return np.concatenate([pairs, pairs.conj(), moduli[2 * (m // 2) :] * rng.choice([-1.0, 1.0], size=m % 2)])


def _from_roots(roots):
    """Coefficients of the recursion y[t] = sum_j c[j] y[t-1-j] whose
    characteristic roots are ``roots`` (closed under conjugation)."""
    return -np.atleast_1d(np.poly(roots))[1:].real


def _stability_rows(rng, m, n):
    """n rows of m coefficients: half normal at a random scale (mostly
    unstable for large m), half from roots at least 0.03 from the unit
    circle, so that rounding decides neither test."""
    rows = np.empty((n, m))
    for row in rows:
        if rng.random() < 0.5:
            row[:] = rng.normal(scale=rng.choice([0.1, 0.4, 0.8]), size=m)
        else:
            moduli = np.where(rng.random(m) < 0.8, rng.uniform(0, 0.97, m), rng.uniform(1.03, 1.5, m))
            row[:] = _from_roots(_random_roots(rng, moduli))
    return rows


class TestCompanionStable:
    """The step-down test against the eigenvalues of the companion matrix
    (``arima_oracle.companion_stable``) and against known roots."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(0, 30),
        lead=st.sampled_from([(), (1,), (3,), (0, 5), (1, 5), (2, 3), (3, 1), (3, 5)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_eigenvalue_oracle(self, m, lead, seed):
        rows = _stability_rows(np.random.default_rng(seed), m, int(np.prod(lead, dtype=int)))
        got = ak.companion_stable(rows.reshape(lead + (m,)))
        assert np.shape(got) == lead
        assert np.reshape(got, -1).tolist() == [arima_oracle.companion_stable(r) for r in rows]

    @pytest.mark.parametrize("m", range(1, 31))
    def test_roots_1e6_from_the_unit_circle(self, m):
        # one root (a conjugate pair when m > 1) at modulus 1 +- 1e-6, the
        # others anywhere inside 0.95
        rng = np.random.default_rng(m)
        inside = rng.random(200) < 0.5
        moduli = rng.uniform(0.0, 0.95, size=(200, m))
        moduli[:, 0] = np.where(inside, 1 - 1e-6, 1 + 1e-6)
        rows = np.stack([_from_roots(_random_roots(rng, mod)) for mod in moduli])
        np.testing.assert_array_equal(ak.companion_stable(rows), inside)

    @pytest.mark.parametrize("m", range(2, 31))
    def test_a_pair_near_plus_or_minus_one_just_inside_the_circle(self, m):
        # a pair at modulus 1 - 1e-6, 1e-7 .. 1e-3 radians from the real
        # axis, nearly a double root at +1 or -1: the partial
        # autocorrelations come within ~1e-12 of +-1.  The step in its
        # plain form, (a_j + r a_{k-j}) / (1 - r^2), calls a fifth to a
        # third of these unstable; the eigenvalues get every one right.
        rng = np.random.default_rng(m)
        near = np.logspace(-7, -3, 41)
        rows = []
        for angle in np.concatenate([near, np.pi - near]):
            edge = (1 - 1e-6) * np.exp(1j * angle)
            others = _random_roots(rng, rng.uniform(0.0, 0.5, m - 2))
            rows.append(_from_roots(np.r_[edge, edge.conjugate(), others]))
        assert ak.companion_stable(np.stack(rows)).all()

    def test_non_finite_rows_are_unstable_without_a_warning(self):
        rows = np.zeros((6, 4))
        rows[0, 0], rows[1, 3], rows[2, 1], rows[3, :] = np.nan, np.inf, -np.inf, [np.inf, np.nan, 1e308, -1e308]
        rows[4] = [0.5, -0.2, 0.1, 0.05]
        rows[5] = [1e308, 1e308, 1e308, 0.5]  # overflows in the steps after its last coefficient
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ak.companion_stable(rows)
        assert got.tolist() == [False, False, False, False, True, False]

    def test_a_row_alone_equals_the_row_in_a_stack(self):
        rng = np.random.default_rng(3)
        for m in (1, 2, 5, 17):
            stack = _stability_rows(rng, m, 40).reshape(4, 10, m)
            got = ak.companion_stable(stack)
            for i, j in np.ndindex(4, 10):
                assert ak.companion_stable(stack[i, j]) == got[i, j]
                assert ak.companion_stable(stack[i, j : j + 1])[0] == got[i, j]


def _svd_rule(stack):
    """numpy lstsq's rank rule on every (M, N + 1) row [A | b] of a stack:
    (R, Q'b, full) from the QR and the SVD of R."""
    M, N = stack.shape[1], stack.shape[2] - 1
    r = np.linalg.qr(stack, mode="r")
    r, qb = r[:, :N, :N], r[:, :N, N]
    s = np.linalg.svd(r, compute_uv=False)
    return r, qb, s[:, -1] > np.finfo(np.float64).eps * max(M, N) * s[:, 0]


def assert_back_substitution_residual(r, qb, sol):
    """Componentwise backward-error bound of a triangular solve (Higham 2002,
    Thm 8.5): |R x - Q'b| <= 3 N eps |R| |x| on every row."""
    N = r.shape[1]
    resid = np.abs(np.einsum("wij,wj->wi", r, sol) - qb)
    bound = 3 * N * np.finfo(np.float64).eps * np.einsum("wij,wj->wi", np.abs(r), np.abs(sol))
    assert np.all(resid <= bound)


def _design_row(kind, rng, M, N):
    """One window's (M, N + 1) regressors and target of the given kind."""
    a = rng.normal(size=(M, N + 1))
    if kind == "collinear" and N > 1:
        # the last regressor is a mix of the others plus a relative
        # perturbation of 1e-17 .. 1e-5, on both sides of the rank threshold
        rel = 10.0 ** rng.uniform(-17.0, -5.0)
        a[:, N - 1] = a[:, : N - 1] @ rng.normal(size=N - 1) + rel * a[:, N - 1]
    elif kind == "constant":
        a[:] = rng.normal()
    elif kind == "zero":
        a[:] = 0.0
    elif kind == "scaled":
        a *= 10.0 ** rng.choice([-150.0, 150.0])
    return a


ROW_KINDS = ["well", "collinear", "constant", "zero", "scaled"]


class TestLeastSquaresRank:
    """``_lstsq`` makes numpy lstsq's rank decision on every row of a stack."""

    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=12),
        n=st.integers(1, 8),
        extra=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_svd_rule(self, kinds, n, extra, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([_design_row(k, rng, n + extra, n) for k in kinds])
        r, qb, want_full = _svd_rule(stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol, full = ak._lstsq(stack.transpose(0, 2, 1))
        np.testing.assert_array_equal(full, want_full)
        np.testing.assert_array_equal(sol[~full], 0.0)
        assert_back_substitution_residual(r[full], qb[full], sol[full])

    def test_planted_collinearity_crosses_the_threshold(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(40, 4))
        rows = []
        for rel in (1e-17, 1e-5):
            a = base.copy()
            a[:, 2] = a[:, :2] @ [0.7, -1.3] + rel * a[:, 2]
            rows.append(a)
        stack = np.stack(rows)
        sol, full = ak._lstsq(stack.transpose(0, 2, 1))
        assert full.tolist() == [False, True]
        np.testing.assert_array_equal(sol[0], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inverse_leaves_every_row_to_the_svd_rule(self, monkeypatch, bad):
        # a non-finite R^-1 block certifies no row; the solution column is kept
        rng = np.random.default_rng(8)
        stack = np.stack([_design_row(k, rng, 30, 4) for k in ROW_KINDS * 2])
        _, _, want_full = _svd_rule(stack)
        want_sol = ak._lstsq(stack.transpose(0, 2, 1))[0]
        back_substitute = ak._back_substitute

        def spoiled_inverse(r, rhs):
            x = back_substitute(r, rhs)
            x[:, :, :-1] = bad
            return x

        monkeypatch.setattr(ak, "_back_substitute", spoiled_inverse)
        sol, full = ak._lstsq(stack.transpose(0, 2, 1))
        np.testing.assert_array_equal(full, want_full)
        assert np.array_equal(sol, want_sol)

    def test_non_finite_rows_never_reach_the_svd(self, monkeypatch):
        # NaN or inf columns, and finite ones whose QR overflows, come back
        # as NaN solutions with full False; the other rows are untouched
        rng = np.random.default_rng(10)
        stack = np.stack([_design_row(k, rng, 30, 4) for k in ROW_KINDS * 2])
        bad = stack[:4].copy()
        bad[0, 3, 1] = np.nan
        bad[1, :, 4] = np.inf
        bad[2] = np.where(np.arange(30)[:, None] % 2, 1e308, -1e308)
        bad[3, :, 0] = 1e308
        svd, seen = np.linalg.svd, []

        def finite_svd(a, *args, **kwargs):
            seen.append(np.isfinite(a).all())
            return svd(a, *args, **kwargs)

        want_sol, want_full = ak._lstsq(stack.transpose(0, 2, 1))
        monkeypatch.setattr(np.linalg, "svd", finite_svd)
        both = np.concatenate([stack, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, full = ak._lstsq(both.transpose(0, 2, 1))
        assert all(seen)
        assert not full[len(stack) :].any() and np.isnan(sol[len(stack) :]).all()
        np.testing.assert_array_equal(full[: len(stack)], want_full)
        assert np.array_equal(sol[: len(stack)], want_sol)

    def test_svd_only_sees_rows_the_certificate_leaves_open(self, monkeypatch):
        # the rank test must not fall back to one SVD per window: on the
        # synthetic windows the certificate decides nearly every row, and a
        # flat window (an all-zero R) sends only its own row to the SVD
        windows = _synthetic_windows()
        windows[7] = windows[7, 0]
        svd, rows = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            rows.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        _, ok = evaluate_arima_windows(windows, ArimaOrder(4, 1, 1), 30)
        assert windows.shape[0] == 933 and ok.mean() > 0.9
        assert sum(rows) <= 0.03 * windows.shape[0]

    @pytest.mark.parametrize("order", [(4, 1, 1), (2, 0, 1), (3, 0, 0), (1, 1, 2)], ids=str)
    @pytest.mark.parametrize("scale", [2.0**531, 2.0**-531], ids=["2^531", "2^-531"])
    def test_certificate_is_scale_free(self, monkeypatch, order, scale):
        # unscaled, |R|_F^2 or |R^-1|_F^2 of these windows would leave the
        # float64 range and send every stage row to the SVD
        windows = np.random.default_rng(11).normal(size=(40, 60)).cumsum(axis=1)
        order = ArimaOrder(*order)
        svd, rows = np.linalg.svd, []

        def counting_svd(a, *args, **kwargs):
            rows.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        want, want_ok = evaluate_arima_windows(windows, order, 7)
        preds, ok = evaluate_arima_windows(windows * scale, order, 7)
        assert rows == [] and want_ok.mean() > 0.9
        np.testing.assert_array_equal(ok, want_ok)
        np.testing.assert_allclose(preds[ok], want[ok] * scale, rtol=1e-12, atol=0)

    def test_rank_test_takes_no_general_inverse(self, monkeypatch):
        def no_inverse(a):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        _, ok = evaluate_arima_windows(_synthetic_windows(), ArimaOrder(4, 1, 1), 30)
        assert ok.mean() > 0.9

    def test_solution_takes_no_lu_solve(self, monkeypatch):
        def no_solve(a, b):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        _, ok = evaluate_arima_windows(_synthetic_windows(), ArimaOrder(4, 1, 1), 30)
        assert ok.mean() > 0.9


def _synthetic_windows():
    """The 933 look-back windows of the seed-42 synthetic series (lookback 60, horizon 30)."""
    dataset = prepare_dataset(make_synthetic(n_points=1200, seed=42), lookback=60, horizon=30)
    return dataset.window_main(dataset.origins)


def _well_conditioned_r(rng, W, n):
    """R factors of (W, 3n, n) Gaussian matrices: condition numbers near 4."""
    return np.linalg.qr(rng.normal(size=(W, 3 * n, n)), mode="r")


def _inverse_and_solution(r, rhs):
    """``_back_substitute`` with right-hand side [I | rhs]: (R^-1, R^-1 rhs)."""
    W, N = r.shape[:2]
    eye = np.broadcast_to(np.eye(N), (W, N, N))
    x = ak._back_substitute(r, np.concatenate([eye, rhs[:, :, None]], axis=2))
    return x[:, :, :N], x[:, :, N]


def _assert_near_reference(r, b, inv, sol):
    """Within 1e-12 of the LU inverse and solution, relative to each row's largest entry."""
    want = np.linalg.inv(r)
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(inv - want) <= 1e-12 * scale)
    want = np.einsum("wij,wj->wi", want, b)
    assert np.all(np.abs(sol - want) <= 1e-12 * np.abs(want).max(axis=1, keepdims=True))


class TestTriangularInverse:
    """R^-1 and the solution from one ``_back_substitute`` with [I | b]."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_matches_the_general_inverse(self, n):
        rng = np.random.default_rng(n)
        r, b = _well_conditioned_r(rng, 6, n), rng.normal(size=(6, n))
        inv, sol = _inverse_and_solution(r, b)
        _assert_near_reference(r, b, inv, sol)
        assert np.array_equal(np.triu(inv), inv)

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_window_is_bit_identical_alone_and_in_any_stack(self, n):
        rng = np.random.default_rng(30 + n)
        r, b = _well_conditioned_r(rng, 7, n), rng.normal(size=(7, n))
        others, b_others = _well_conditioned_r(rng, 9, n), rng.normal(size=(9, n))
        rows = [_inverse_and_solution(r[w : w + 1], b[w : w + 1]) for w in range(7)]
        alone = np.concatenate([inv for inv, _ in rows]), np.concatenate([sol for _, sol in rows])
        for got, want in zip(_inverse_and_solution(r, b), alone):
            assert np.array_equal(got, want)
        for size in (2, 5, 10):
            for w in range(7):
                at = w % size
                stack = np.concatenate([others[:at], r[w : w + 1], others[at : size - 1]])
                rhs = np.concatenate([b_others[:at], b[w : w + 1], b_others[at : size - 1]])
                inv, sol = _inverse_and_solution(stack, rhs)
                assert np.array_equal(inv[at], alone[0][w]) and np.array_equal(sol[at], alone[1][w])

    def test_empty_stack(self):
        for n in (1, 4):
            inv, sol = _inverse_and_solution(np.zeros((0, n, n)), np.zeros((0, n)))
            assert inv.shape == (0, n, n) and sol.shape == (0, n)

    def test_extreme_scales_emit_no_warning(self):
        rng = np.random.default_rng(9)
        r, b = _well_conditioned_r(rng, 4, 6), rng.normal(size=(4, 6))
        r[1] *= 1e150
        r[2] *= 1e-150
        b[3] *= 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            inv, sol = _inverse_and_solution(r, b)
        _assert_near_reference(r, b, inv, sol)
