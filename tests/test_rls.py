import tracemalloc
import warnings

import numpy as np
import pytest

from sysid_rls import (
    IOModel,
    NumericalError,
    Trajectory,
    ValidationError,
    batch_solve,
    cost,
    initial_state,
    projected_limit,
    regressor_matrix,
    rls_fold,
    simulate,
)
from sysid_rls import rls
from sysid_rls.rls import _FOLD_BLOCK, TRACE_CHUNK_ROWS, FoldRecord, RlsState

from support import random_spd, random_stable_model, reference_regressor, reference_rls


def make_traj():
    # absolute time 0..4 with recognizable values
    y = np.array([[1.0], [2.0], [7.0], [4.0], [5.0]])
    u = np.array([[10.0], [11.0], [5.0], [3.0], [9.0]])
    return Trajectory(k0=0, u=u, y=y)


class TestBuildRegressor:
    def test_zero_trajectory(self):
        traj = Trajectory(k0=0, u=np.zeros((6, 2)), y=np.zeros((6, 2)))
        Phi, _, _ = regressor_matrix(traj, 2, [4])
        np.testing.assert_array_equal(Phi[0], np.zeros(2 * 2 + 2 * 3))

    def test_scalar_order_one_stacking(self):
        # y[k-1]=2, u[k]=3, u[k-1]=5 -> phi = (-2, 3, 5)
        y = np.array([[9.0], [2.0], [8.0]])
        u = np.array([[1.0], [5.0], [3.0]])
        Phi, Y, _ = regressor_matrix(Trajectory(k0=0, u=u, y=y), 1, [2])
        np.testing.assert_array_equal(Phi[0], [-2.0, 3.0, 5.0])
        np.testing.assert_array_equal(Y[0], [8.0])

    def test_order_two_stacking(self):
        # y[k-1]=2, y[k-2]=7 and inputs newest-first
        y = np.array([[0.0], [7.0], [2.0], [6.0]])
        u = np.array([[1.0], [11.0], [5.0], [3.0]])
        Phi, _, _ = regressor_matrix(Trajectory(k0=0, u=u, y=y), 2, [3])
        np.testing.assert_array_equal(Phi[0], [-2.0, -7.0, 3.0, 5.0, 11.0])

    def test_window_underflow(self):
        with pytest.raises(ValidationError):
            regressor_matrix(make_traj(), 3, [1])

    def test_nan_input_rejected(self):
        u = np.array([[np.nan], [1.0], [2.0]])
        y = np.ones((3, 1))
        traj = Trajectory(k0=0, u=u, y=y)
        with pytest.raises(ValidationError):
            regressor_matrix(traj, 1, [1])

    def test_matrix_builder_matches(self):
        rng = np.random.default_rng(0)
        m = random_stable_model(rng, 2, 2, 2)
        traj = simulate(m, rng.standard_normal((2, 2)), rng.standard_normal((30, 2)), k0=-5)
        Phi, Y, ks = regressor_matrix(traj, 3)
        for i, k in enumerate(ks):
            phi, y = reference_regressor(traj, int(k), 3)
            np.testing.assert_array_equal(Phi[i], phi)
            np.testing.assert_array_equal(Y[i], y)


    def test_peak_memory_is_about_the_matrix_itself(self):
        # the regressor block is filled in place: no per-lag column arrays
        # are held next to it (they doubled the peak)
        rng = np.random.default_rng(1)
        traj = Trajectory(k0=0, u=rng.standard_normal((20_003, 2)),
                          y=rng.standard_normal((20_003, 2)))
        tracemalloc.start()
        try:
            Phi, _, _ = regressor_matrix(traj, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert Phi.shape == (20_000, 14)
        assert peak < 1.5 * Phi.nbytes, peak / Phi.nbytes


class TestResidualAndCost:
    def test_true_theta_zero_residual(self):
        rng = np.random.default_rng(1)
        m = random_stable_model(rng, 2, 2, 1)
        traj = simulate(m, rng.standard_normal((2, 2)), rng.standard_normal((30, 1)))
        Phi, Y, _ = regressor_matrix(traj, 2)
        np.testing.assert_allclose(Y - Phi @ m.theta.T, np.zeros_like(Y), atol=1e-10)

    def test_cost_at_prior_with_no_samples(self):
        theta0 = np.ones((1, 3))
        assert cost(theta0, np.zeros((0, 3)), np.zeros((0, 1)), theta0, np.eye(3)) == 0.0

    def test_cost_single_squared_residual(self):
        theta0 = np.zeros((1, 1))
        assert cost(theta0, [[1.0]], [[3.0]], theta0, np.eye(1)) == pytest.approx(9.0)

    def test_cost_regularizer_only(self):
        theta0 = np.zeros((1, 3))
        theta = np.array([[1.0, -2.0, 2.0]])
        assert cost(theta, np.zeros((0, 3)), np.zeros((0, 1)), theta0, np.eye(3)) == \
            pytest.approx(9.0)

    def test_singular_p0_rejected(self):
        from sysid_rls import NumericalError

        with pytest.raises(NumericalError):
            cost(np.zeros((1, 2)), np.zeros((0, 2)), np.zeros((0, 1)), np.zeros((1, 2)),
                 np.zeros((2, 2)))


class TestBatchSolve:
    def test_empty_samples_returns_prior(self):
        theta0 = np.array([[1.0, 2.0, 3.0]])
        got = batch_solve(np.zeros((0, 3)), np.zeros((0, 1)), theta0, 10.0 * np.eye(3))
        np.testing.assert_allclose(got, theta0)

    def test_scalar_hand_example(self):
        got = batch_solve([[1.0]], [[1.0]], np.zeros((1, 1)), np.eye(1))
        np.testing.assert_allclose(got, [[0.5]])

    def test_gradient_vanishes(self):
        rng = np.random.default_rng(2)
        d, p = 5, 2
        rows = [(rng.standard_normal(d), rng.standard_normal(p)) for _ in range(12)]
        Phi, Y = (np.array(col) for col in zip(*rows))
        theta0 = rng.standard_normal((p, d))
        P0 = random_spd(rng, d)
        theta = batch_solve(Phi, Y, theta0, P0)
        # numerical gradient of the cost at the solution
        eps = 1e-6
        for _ in range(10):
            E = rng.standard_normal((p, d))
            E /= np.linalg.norm(E)
            up = cost(theta + eps * E, Phi, Y, theta0, P0)
            dn = cost(theta - eps * E, Phi, Y, theta0, P0)
            assert abs(up - dn) / (2 * eps) < 1e-6

    def test_rich_exact_data_recovers_generator(self):
        rng = np.random.default_rng(3)
        m = random_stable_model(rng, 2, 1, 1)
        traj = simulate(m, rng.standard_normal((2, 1)),
                        rng.standard_normal((400, 1)))
        Phi, Y, _ = regressor_matrix(traj, 2)
        theta = batch_solve(Phi, Y, np.zeros((1, 5)), 1e3 * np.eye(5))
        # zero residual term at the generator, so the fit hugs it
        np.testing.assert_allclose(theta, m.theta, atol=5e-3)
        at_generator = cost(m.theta, Phi, Y, np.zeros((1, 5)), 1e3 * np.eye(5))
        assert at_generator <= np.linalg.norm(m.theta) ** 2 / 1e3 + 1e-12
        assert cost(theta, Phi, Y, np.zeros((1, 5)), 1e3 * np.eye(5)) <= \
            at_generator + 1e-12

    @pytest.mark.parametrize("bad", ["rows", "regressor width", "output width", "nan"])
    def test_bad_rows_rejected_as_the_fold_rejects_them(self, bad):
        rng = np.random.default_rng(13)
        theta0, P0 = np.zeros((2, 3)), np.eye(3)
        Phi, Y = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
        if bad == "rows":
            Y = Y[:-1]
        elif bad == "regressor width":
            Phi = Phi[:, :-1]
        elif bad == "output width":
            Y = Y[:, :1]
        else:
            Phi[2, 1] = np.nan
        errors = []
        for call in (lambda: batch_solve(Phi, Y, theta0, P0),
                     lambda: cost(theta0, Phi, Y, theta0, P0),
                     lambda: rls_fold(initial_state(0, 2, 3, P0=P0), Phi, Y)):
            with pytest.raises(ValidationError) as exc:
                call()
            errors.append(str(exc.value))
        assert errors[0] == errors[1] == errors[2]

    def test_prior_shape_mismatch_rejected(self):
        Phi, Y = np.ones((4, 3)), np.ones((4, 1))
        for theta0, P0 in [(np.zeros((1, 3)), np.eye(4)), (np.zeros(3), np.eye(3))]:
            with pytest.raises(ValidationError):
                batch_solve(Phi, Y, theta0, P0)
            with pytest.raises(ValidationError):
                cost(np.zeros((1, 3)), Phi, Y, theta0, P0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_prior_rejected(self, value):
        Phi, Y = np.ones((4, 3)), np.ones((4, 1))
        P0 = np.eye(3)
        P0[1, 1] = value
        theta0 = np.zeros((1, 3))
        with pytest.raises(ValidationError, match="must be finite"):
            batch_solve(Phi, Y, theta0, P0)
        with pytest.raises(ValidationError, match="must be finite"):
            cost(theta0, Phi, Y, theta0, P0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_initial_state_rejects_nonfinite_prior(self, value):
        theta0 = np.zeros((1, 3))
        theta0[0, 1] = value
        with pytest.raises(ValidationError, match="must be finite"):
            initial_state(1, 1, 1, theta0=theta0)
        P0 = np.eye(3)
        P0[1, 1] = value
        with pytest.raises(ValidationError, match="must be finite"):
            initial_state(1, 1, 1, P0=P0)
        with pytest.raises(ValidationError, match="must be finite"):
            initial_state(1, 1, 1, p0_scale=value)

    @pytest.mark.parametrize("p0", [1e3, 1e6, 1e9])
    def test_overparameterized_fit_reaches_theta_star_at_large_priors(self, p0):
        # an order-1 model fitted at order 3: Phi^T Phi is singular in the
        # limit and the prior alone sets the conditioning, which the normal
        # equations square (they miss theta* by 5e-2 at p0 = 1e9)
        model = IOModel.scalar([0.5], [0.0, 1.0])
        u = np.random.default_rng(5).standard_normal((50_003, 1))
        Phi, Y, _ = regressor_matrix(simulate(model, [0.0], u), 3)
        theta0, P0 = np.zeros((1, 7)), p0 * np.eye(7)
        theta_star = projected_limit(model, 3, theta0, P0).theta_star
        recursive, _ = rls_fold(initial_state(3, 1, 1, P0=P0), Phi, Y)
        batch = batch_solve(Phi, Y, theta0, P0)
        assert np.max(np.abs(batch - theta_star)) <= 1e-7
        assert np.max(np.abs(recursive.theta - theta_star)) <= 1e-7
        assert np.max(np.abs(batch - recursive.theta)) <= 1e-7


class TestRlsStep:
    def test_scalar_hand_example(self):
        state = initial_state(0, 1, 1, p0_scale=1.0)
        new, _ = rls_fold(state, [[1.0]], [[1.0]])
        np.testing.assert_allclose(new.P, [[0.5]])
        np.testing.assert_allclose(new.theta, [[0.5]])
        assert new.k == 1

    def test_zero_regressor_no_op(self):
        rng = np.random.default_rng(4)
        state = initial_state(1, 2, 1, p0_scale=2.0)
        state, _ = rls_fold(state, rng.standard_normal((1, state.dim)),
                            rng.standard_normal((1, 2)))
        new, _ = rls_fold(state, np.zeros((1, state.dim)), np.ones((1, 2)))
        np.testing.assert_array_equal(new.theta, state.theta)
        np.testing.assert_array_equal(new.P, state.P)
        assert new.k == state.k + 1

    def test_exact_data_keeps_theta(self):
        rng = np.random.default_rng(5)
        state = initial_state(1, 1, 1, p0_scale=3.0)
        theta = state.theta
        phi = rng.standard_normal(3)
        new, _ = rls_fold(state, phi[None, :], (theta @ phi)[None, :])
        np.testing.assert_allclose(new.theta, theta, atol=1e-14)
        assert np.linalg.eigvalsh(new.P)[0] < np.linalg.eigvalsh(state.P)[-1]

    def test_rejects_nonfinite(self):
        state = initial_state(1, 1, 1)
        with pytest.raises(ValidationError):
            rls_fold(state, [[np.inf, 0, 0]], [[1.0]])

    def test_recursive_equals_batch(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            d, p = int(rng.integers(2, 8)), int(rng.integers(1, 3))
            order_free_theta0 = rng.standard_normal((p, d))
            P0 = random_spd(rng, d, 0.5, 50.0)
            # build the state directly to decouple d from an order
            from sysid_rls.rls import RlsState

            state = RlsState(theta=order_free_theta0, P=P0.copy(), k=0)
            phis = rng.standard_normal((100, d))
            ys = rng.standard_normal((100, p))
            _, record = rls_fold(state, phis, ys, keep_history=True)
            for k in range(100):
                theta_b = batch_solve(phis[:k + 1], ys[:k + 1], order_free_theta0, P0)
                err = np.linalg.norm(record.theta[k] - theta_b)
                assert err <= 1e-8 * (1 + np.linalg.norm(theta_b))

    def test_information_identity(self):
        # P_k^{-1} = P0^{-1} + sum_{i<=k} phi_i phi_i^T after every step
        rng = np.random.default_rng(7)
        state = initial_state(2, 1, 1, p0_scale=10.0)
        info = np.linalg.inv(state.P)
        for _ in range(50):
            phi = rng.standard_normal(state.dim)
            state, _ = rls_fold(state, phi[None, :], rng.standard_normal((1, 1)))
            info = info + np.outer(phi, phi)
            defect = np.max(np.abs(np.linalg.inv(state.P) - info))
            assert defect <= 1e-8 * np.max(np.abs(info))
        state.check()

    def test_monotone_covariance(self):
        rng = np.random.default_rng(8)
        state = initial_state(2, 2, 1, p0_scale=100.0)
        for _ in range(60):
            phi = rng.standard_normal(state.dim)
            prev = state.P
            state, _ = rls_fold(state, phi[None, :], rng.standard_normal((1, 2)))
            assert np.linalg.eigvalsh(state.P)[-1] <= np.linalg.eigvalsh(prev)[-1] + 1e-12
            # downdate: P_prev - P_new is positive semidefinite
            assert np.linalg.eigvalsh(prev - state.P)[0] >= -1e-12

    def test_symmetry_maintained(self):
        rng = np.random.default_rng(9)
        state = initial_state(3, 1, 2, p0_scale=1e3)
        rows = [(rng.standard_normal(state.dim), rng.standard_normal(1)) for _ in range(200)]
        state, _ = rls_fold(state, *(np.array(col) for col in zip(*rows)))
        assert np.max(np.abs(state.P - state.P.T)) == 0.0
        state.check()


def _fold_case(order, p, m, K, seed):
    rng = np.random.default_rng(seed)
    state = initial_state(order, p, m, p0_scale=1e3)
    Phi = rng.standard_normal((K, state.dim))
    Y = rng.standard_normal((K, p))
    theta_ref = rng.standard_normal((p, state.dim))
    return state, Phi, Y, theta_ref


def _exact_case(p, m, K, seed, p0=1e3):
    """A fold over exact data of an order-1 model with p outputs and m
    inputs, fitted at order 3: the overparameterized regime, where the
    covariance keeps a gap at the bottom of its spectrum."""
    rng = np.random.default_rng(seed)
    model = random_stable_model(rng, 1, p, m)
    traj = simulate(model, rng.standard_normal((1, p)), rng.standard_normal((K + 3, m)))
    Phi, Y, _ = regressor_matrix(traj, 3)
    state = initial_state(3, p, m, p0_scale=p0)
    return state, Phi, Y, rng.standard_normal((p, state.dim))


# fold lengths around one block boundary, one spanning many blocks, and one
# over three record chunks that ends in a short block
FOLD_KS = [1, _FOLD_BLOCK - 1, _FOLD_BLOCK, _FOLD_BLOCK + 1, 16 * _FOLD_BLOCK + 1,
           2 * TRACE_CHUNK_ROWS + 100]


def _rel_diff(got, want) -> float:
    """Max-abs difference over max-abs value."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _assert_near_reference(state, Phi, Y, theta_ref, tol=1e-9):
    """The blocked fold agrees with the per-row textbook recursion from the
    symmetric part of ``P`` to round-off: ``tol`` (1e-9) relative on every
    output.  Its final ``P`` inverts the information matrix ``P0^{-1} +
    Phi^T Phi`` to ``10 * tol``."""
    folded, record = rls_fold(state, Phi, Y, theta_ref=theta_ref, keep_history=True)
    P0 = 0.5 * (state.P + state.P.T)
    theta, P, P_inv, resid, dist, thetas = reference_rls(
        state.theta, P0, np.linalg.inv(P0), Phi, Y, theta_ref)
    for got, want in [(folded.theta, theta), (folded.P, P),
                      (record.residual_norm, resid), (record.dist_to_ref, dist),
                      (record.theta, thetas)]:
        assert got.shape == want.shape
        assert _rel_diff(got, want) <= tol
    assert np.max(np.abs(folded.P @ P_inv - np.eye(state.dim))) <= 10 * tol


def _assert_block_exact(state, Phi, Y, theta_ref):
    """What the blocked fold keeps exactly: a rerun gives the same bits, a
    chain of folds split at multiples of ``_FOLD_BLOCK`` gives the unsplit
    fold's bits, and ``P`` is symmetric."""
    runs = [rls_fold(state, Phi, Y, theta_ref=theta_ref, keep_history=True) for _ in range(2)]
    chained, parts = state, []
    for start in range(0, Phi.shape[0], _FOLD_BLOCK):
        rows = slice(start, start + _FOLD_BLOCK)
        chained, part = rls_fold(chained, Phi[rows], Y[rows], theta_ref=theta_ref,
                                 keep_history=True)
        parts.append(part)
    joined = FoldRecord(*(np.concatenate([getattr(r, f) for r in parts])
                          for f in ("residual_norm", "dist_to_ref", "theta", "pmin_eig")))
    runs.append((chained, joined))
    (folded, record), *others = runs
    for new, rec in others:
        for f in ("theta", "P", "k"):
            assert np.array_equal(getattr(new, f), getattr(folded, f))
        for f in ("residual_norm", "dist_to_ref", "theta", "pmin_eig"):
            assert np.array_equal(getattr(rec, f), getattr(record, f))
    assert np.array_equal(folded.P, folded.P.T)


class TestRlsFold:
    @pytest.mark.parametrize("order,p,m", [(1, 1, 1), (3, 2, 2)])  # d = 3, d = 14
    def test_bit_identical_to_block_chain(self, order, p, m):
        for K in FOLD_KS:
            _assert_block_exact(*_fold_case(order, p, m, K, seed=10 + p + K))

    def test_bit_identical_to_block_chain_where_pmin_eig_is_proved(self):
        # d = 14, p = 2 on exact data, where _pmin_eigs proves most blocks'
        # figures instead of taking eigvalsh's
        for K in FOLD_KS:
            _assert_block_exact(*_exact_case(2, 2, K, seed=80 + K))

    @pytest.mark.parametrize("order,p,m", [(1, 1, 1), (3, 2, 2)])
    def test_agrees_with_reference_recursion(self, order, p, m):
        for K in FOLD_KS:
            _assert_near_reference(*_fold_case(order, p, m, K, seed=20 + p + K))

    @pytest.mark.parametrize("order,p,m", [(1, 1, 1), (3, 2, 2)])
    def test_distances_are_the_history_norms_bit_for_bit(self, order, p, m):
        # taken per block without a history, each distance is still the dot
        # of one C-ordered row of (estimate before the row - reference)
        for K in FOLD_KS:
            state, Phi, Y, theta_ref = _fold_case(order, p, m, K, seed=30 + p + K)
            _, plain = rls_fold(state, Phi, Y, theta_ref=theta_ref)
            _, full = rls_fold(state, Phi, Y, keep_history=True)
            before = np.concatenate([state.theta[None], full.theta[:-1]])
            D = (before - theta_ref).reshape(K, -1)
            assert np.array_equal(plain.dist_to_ref, np.sqrt(np.vecdot(D, D)))

    @pytest.mark.parametrize("order,p,m", [(1, 1, 1), (3, 1, 1), (3, 2, 2)])  # d = 3, 7, 14
    def test_resumed_from_copied_state_bit_for_bit(self, order, p, m):
        # a state held in fresh C-ordered arrays, as a saved and reloaded one
        # is, resumes the fold at a block start as the unsplit fold goes on,
        # into a trailing one-row block too
        for K in [_FOLD_BLOCK + 1, 16 * _FOLD_BLOCK + 1, 16 * _FOLD_BLOCK + 40]:
            state, Phi, Y, theta_ref = _fold_case(order, p, m, K, seed=40 + p + K)
            folded, record = rls_fold(state, Phi, Y, theta_ref=theta_ref, keep_history=True)
            split = K - K % _FOLD_BLOCK
            head, first = rls_fold(state, Phi[:split], Y[:split], theta_ref=theta_ref,
                                   keep_history=True)
            head = RlsState(theta=head.theta.copy(), P=head.P.copy(), k=head.k)
            tail, last = rls_fold(head, Phi[split:], Y[split:], theta_ref=theta_ref,
                                  keep_history=True)
            for f in ("theta", "P", "k"):
                assert np.array_equal(getattr(tail, f), getattr(folded, f))
            for f in ("residual_norm", "dist_to_ref", "theta", "pmin_eig"):
                joined = np.concatenate([getattr(first, f), getattr(last, f)])
                assert np.array_equal(joined, getattr(record, f))

    @pytest.mark.parametrize("K", [5, 2 * TRACE_CHUNK_ROWS + 100])
    def test_results_share_no_memory(self, K):
        # the fold reuses its buffers across blocks and chunks: nothing it
        # returns is a view of one, nor of the state it started from
        state, Phi, Y, theta_ref = _fold_case(3, 2, 2, K, seed=60 + K)
        new, record = rls_fold(state, Phi, Y, theta_ref=theta_ref, keep_history=True)
        arrays = [state.theta, state.P, new.theta, new.P, record.residual_norm,
                  record.dist_to_ref, record.theta, record.pmin_eig]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)
        # a view of a buffer would keep all of it alive with the state
        assert new.theta.flags.owndata and new.P.flags.owndata
        kept = [a.copy() for a in arrays]
        rls_fold(new, Phi, Y, theta_ref=theta_ref, keep_history=True)
        for a, want in zip(arrays, kept):
            assert np.array_equal(a, want)

    def test_records_only_what_was_asked(self):
        state, Phi, Y, theta_ref = _fold_case(1, 1, 1, 5, seed=3)
        _, record = rls_fold(state, Phi, Y)
        assert record.residual_norm.shape == (5,)
        assert record.dist_to_ref is None and record.theta is None and record.pmin_eig is None
        _, record = rls_fold(state, Phi, Y, theta_ref=theta_ref)
        assert record.dist_to_ref.shape == (5,)
        assert record.theta is None and record.pmin_eig is None
        _, record = rls_fold(state, Phi, Y, keep_history=True)
        assert record.dist_to_ref is None
        assert record.theta.shape == (5, 1, state.dim) and record.pmin_eig.shape == (5,)

    @pytest.mark.parametrize("where", ["Phi", "Y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rejected_before_any_update(self, where, value):
        state, Phi, Y, _ = _fold_case(2, 1, 1, 50, seed=4)
        theta_before, P_before = state.theta.copy(), state.P.copy()
        (Phi if where == "Phi" else Y)[-1, 0] = value
        with pytest.raises(ValidationError):
            rls_fold(state, Phi, Y)
        np.testing.assert_array_equal(state.theta, theta_before)
        np.testing.assert_array_equal(state.P, P_before)

    def test_shape_mismatches_rejected(self):
        state, Phi, Y, theta_ref = _fold_case(2, 1, 1, 10, seed=5)
        with pytest.raises(ValidationError):
            rls_fold(state, Phi[:, :-1], Y)  # regressor width
        with pytest.raises(ValidationError):
            rls_fold(state, Phi, np.hstack([Y, Y]))  # output width
        with pytest.raises(ValidationError):
            rls_fold(state, Phi, Y[:-1])  # row counts
        with pytest.raises(ValidationError):
            rls_fold(state, Phi[0], Y[0])  # one sample needs a row axis
        with pytest.raises(ValidationError):
            rls_fold(state, Phi, Y, theta_ref=theta_ref[:, :-1])

    def test_empty_returns_state_unchanged(self):
        state = initial_state(2, 2, 1)
        new, record = rls_fold(state, np.zeros((0, state.dim)), np.zeros((0, 2)))
        assert new is state
        assert record.residual_norm.shape == (0,)

    @pytest.mark.parametrize("K", [1, 2, 300] + FOLD_KS[1:])
    def test_nonsymmetric_p0_matches_reference_recursion(self, K):
        # the fold reads P0 as its symmetric part, as does the reference it
        # is held to
        rng = np.random.default_rng(30 + K)
        P0 = random_spd(rng, 7, 0.5, 50.0) + 1e-3 * np.triu(rng.standard_normal((7, 7)), 1)
        assert not np.array_equal(P0, P0.T)
        state = initial_state(2, 2, 1, P0=P0)
        Phi = rng.standard_normal((K, state.dim))
        Y = rng.standard_normal((K, 2))
        theta_ref = rng.standard_normal((2, state.dim))
        _assert_near_reference(state, Phi, Y, theta_ref)
        _assert_block_exact(state, Phi, Y, theta_ref)

    @pytest.mark.parametrize("p0", [1e3, 1e6, 1e9])
    @pytest.mark.parametrize("K", [_FOLD_BLOCK, 16 * _FOLD_BLOCK + 1])
    def test_mimo_fold_at_large_priors_agrees_with_reference(self, p0, K):
        # d = 14; at p0 = 1e9 the border c of the bordered factor is ~1e21.
        # On full-rank data the first block's downdate from P0 = p0 I to
        # P ~ I / 64 cancels about log10(p0) digits, in the per-row
        # reference too, so the bound grows with p0 from 1e-9 at p0 = 1e3
        # (30 seeds: at most 4e-14 p0 relative, 7.4e-14 p0 on the inverse).
        state, Phi, Y, theta_ref = _fold_case(3, 2, 2, K, seed=50 + K)
        state = initial_state(3, 2, 2, P0=p0 * np.eye(state.dim))
        _assert_near_reference(state, Phi, Y, theta_ref, tol=1e-12 * p0)

    def test_indefinite_prior_is_numerical_error(self):
        state, Phi, Y, _ = _fold_case(2, 1, 1, 100, seed=6)
        state = initial_state(2, 1, 1, P0=-np.eye(state.dim))
        with pytest.raises(NumericalError, match="block from row 0"):
            rls_fold(state, Phi, Y)

    @pytest.mark.parametrize("K", [2, 100])
    def test_overflowing_prior_is_numerical_error_without_warnings(self, K):
        # ||R||_F^2 overflows at this scale; no RuntimeWarning may escape
        state, Phi, Y, _ = _fold_case(1, 1, 1, K, seed=7)
        state = initial_state(1, 1, 1, p0_scale=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="block from row 0"):
                rls_fold(state, Phi, Y)

    @pytest.mark.parametrize("order,p,m,K", [(1, 1, 1, 1), (1, 1, 1, 63), (1, 1, 1, 64),
                                             (1, 1, 1, 65), (1, 1, 1, 1024), (1, 1, 1, 1025),
                                             (1, 1, 1, 2049), (3, 2, 2, 1025)])
    def test_pmin_eig_matches_per_row_eigvalsh(self, order, p, m, K):
        state, Phi, Y, _ = _fold_case(order, p, m, K, seed=40 + K)
        _, record = rls_fold(state, Phi, Y, keep_history=True)
        want, P = np.empty(K), state.P
        for i in range(K):
            Pphi = P @ Phi[i]
            P = P - np.outer(Pphi, Pphi) / (1.0 + float(Phi[i] @ Pphi))
            want[i] = np.linalg.eigvalsh(P)[0]
        assert _rel_diff(record.pmin_eig, want) <= 1e-9


def _pmin_calls(monkeypatch):
    """Each :func:`rls._pmin_eigs` call of a fold, as the block-start ``P``,
    the ``eigvalsh`` spectra of the stack it was given, and its result."""
    calls, real = [], rls._pmin_eigs

    def spy(P, Ps):
        want = np.linalg.eigvalsh(Ps)
        got = real(P, Ps)
        calls.append((P.copy(), want, got))
        return got

    monkeypatch.setattr(rls, "_pmin_eigs", spy)
    return calls


class TestProvedPminEig:
    """The history's ``pmin_eig``: within ``eta`` of the smallest eigenvalue
    of each computed covariance where the proof holds, ``eigvalsh``'s bits
    wherever it is not tried or fails."""

    @pytest.mark.parametrize("case", ["iid-p0=1e3", "iid-p0=1e9", "exact-p0=1e3"])
    def test_within_eta_of_eigvalsh_row_by_row(self, monkeypatch, case):
        K, p0 = 2 * TRACE_CHUNK_ROWS + 100, float(case.split("=")[1])
        if case.startswith("iid"):
            state, Phi, Y, _ = _fold_case(3, 2, 2, K, seed=70)
            state = initial_state(3, 2, 2, p0_scale=p0)
        else:
            state, Phi, Y, _ = _exact_case(2, 2, K, seed=70, p0=p0)
        calls = _pmin_calls(monkeypatch)
        _, record = rls_fold(state, Phi, Y, keep_history=True)
        assert np.array_equal(record.pmin_eig, np.concatenate([got for *_, got in calls]))
        eps, d = np.finfo(float).eps, state.dim
        proved = 0
        for P, want, got in calls:
            eta = 4 * (d + 1) * eps * np.linalg.eigvalsh(P)[-1]
            norm = np.max(np.abs(want), axis=1)
            assert np.all(np.abs(got - want[:, 0]) <= eta + 2 * (d + 1) * eps * norm)
            proved += not np.array_equal(got, want[:, 0])
        if case.startswith("exact"):
            # the proof, not eigvalsh, gives most blocks' figures here
            assert proved >= 0.9 * len(calls)

    @pytest.mark.parametrize("case", ["d<8", "clustered", "first-block", "forced-failure"])
    def test_unproved_blocks_are_eigvalsh_bit_for_bit(self, monkeypatch, case):
        K = 4 * _FOLD_BLOCK
        if case == "d<8":
            state, Phi, Y, _ = _exact_case(1, 1, K, seed=71)  # d = 7
        elif case == "clustered":
            state, Phi, Y, _ = _fold_case(3, 2, 2, K, seed=71)  # iid normal rows
        else:
            state, Phi, Y, _ = _exact_case(2, 2, K, seed=71)
        if case == "forced-failure":
            # a shift above the Rayleigh quotient: no factorization succeeds
            monkeypatch.setattr(rls, "_PMIN_ETA", -1e3)
        calls = _pmin_calls(monkeypatch)
        rls_fold(state, Phi, Y, keep_history=True)
        # the first block starts from p0 I, whose spectrum has no gap
        for P, want, got in calls[:1] if case == "first-block" else calls:
            assert np.array_equal(got, want[:, 0])

    def test_unproved_blocks_raise_no_warning(self, monkeypatch):
        # clustered rows miss the gates, a forced failure reaches a failed
        # factorization, and zero rows from a diagonal P leave v an exact
        # eigenvector of every P_j, so the shifted solve is singular
        d = 14
        diagonal = RlsState(theta=np.zeros((2, d)), P=np.diag(2.0 ** np.arange(d)))
        folds = [_fold_case(3, 2, 2, 2 * _FOLD_BLOCK, seed=72)[:3],
                 _exact_case(2, 2, 2 * _FOLD_BLOCK, seed=72)[:3],
                 (diagonal, np.zeros((_FOLD_BLOCK, d)), np.zeros((_FOLD_BLOCK, 2)))]
        calls = _pmin_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i, fold in enumerate(folds):
                with monkeypatch.context() as patch:
                    if i == 1:
                        patch.setattr(rls, "_PMIN_ETA", -1e3)
                    rls_fold(*fold, keep_history=True)
        for P, want, got in calls:
            assert np.array_equal(got, want[:, 0])
        assert np.all(calls[-1][2] == 1.0)
