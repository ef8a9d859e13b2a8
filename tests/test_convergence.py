import numpy as np
import pytest

from sysid_rls import (
    IOModel,
    NumericalError,
    ValidationError,
    build_lift_matrix,
    predict_asymptote,
    projected_limit,
    regressor_matrix,
    run_tracked_identification,
    simulate,
    theta_equivalence_residual,
    trivial_embed,
)
from sysid_rls import convergence
from sysid_rls.rls import RlsState, rls_fold

from support import kkt_projected_limit, random_spd, random_stable_model


SCALAR = IOModel.scalar([0.5], [0.0, 1.0])


class TestLiftTrue:
    """The lifted truth ``trivial_embed(model, n_hat).theta``."""

    def test_same_order_is_theta(self):
        np.testing.assert_array_equal(trivial_embed(SCALAR, 1).theta, SCALAR.theta)

    def test_scalar_layout(self):
        np.testing.assert_array_equal(trivial_embed(SCALAR, 2).theta,
                                      [[0.5, 0.0, 0.0, 1.0, 0.0]])

    def test_annihilates_residual_on_data(self):
        rng = np.random.default_rng(0)
        m = random_stable_model(rng, 1, 2, 2)
        traj = simulate(m, rng.standard_normal((1, 2)),
                        rng.standard_normal((40, 2)), k0=-3)
        Phi, Y, _ = regressor_matrix(traj, 3)
        Z = Y - Phi @ trivial_embed(m, 3).theta.T
        assert np.max(np.abs(Z)) <= 1e-10

    def test_below_order_rejected(self):
        with pytest.raises(ValidationError):
            trivial_embed(trivial_embed(SCALAR, 2), 1)


class TestProjectedLimit:
    def test_feasible_prior_is_fixed_point(self):
        rng = np.random.default_rng(1)
        m = random_stable_model(rng, 1, 2, 1)
        theta0 = trivial_embed(m, 3).theta
        pl = projected_limit(m, 3, theta0, random_spd(rng, theta0.shape[1]))
        np.testing.assert_allclose(pl.theta_star, theta0, atol=1e-10)

    def test_identity_prior_orthogonal_projection(self):
        # with P0 = I the hat matrix is the orthogonal projector onto range(M)
        M = build_lift_matrix(SCALAR, 2)
        theta0 = np.zeros((1, 5))
        pl = projected_limit(SCALAR, 2, theta0, np.eye(5))
        proj = M @ np.linalg.solve(M.T @ M, M.T)
        np.testing.assert_allclose(pl.H, proj, atol=1e-12)
        np.testing.assert_allclose(pl.theta_star, trivial_embed(SCALAR, 2).theta @ proj,
                                   atol=1e-12)

    def test_projection_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(0, 3))
            p = int(rng.integers(1, 3))
            m_dim = int(rng.integers(1, 3))
            model = random_stable_model(rng, n, p, m_dim)
            n_hat = n + int(rng.integers(1, 4))
            d = p * n_hat + m_dim * (n_hat + 1)
            theta0 = rng.standard_normal((p, d))
            P0 = random_spd(rng, d) if rng.integers(2) else 1e3 * np.eye(d)
            pl = projected_limit(model, n_hat, theta0, P0)
            M = build_lift_matrix(model, n_hat)
            assert np.max(np.abs(pl.H @ pl.H - pl.H)) <= 1e-9
            assert np.max(np.abs(pl.H @ M - M)) <= 1e-9
            assert np.max(np.abs((pl.theta_star - trivial_embed(model, n_hat).theta) @ M)) <= 1e-9
            assert np.linalg.matrix_rank(pl.H) == M.shape[1]

    def test_matches_kkt_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_stable_model(rng, 1, 2, 1)
            n_hat = 2 + int(rng.integers(0, 2))
            M = build_lift_matrix(model, n_hat)
            d = M.shape[0]
            theta0 = rng.standard_normal((2, d))
            P0 = random_spd(rng, d)
            pl = projected_limit(model, n_hat, theta0, P0)
            oracle = kkt_projected_limit(trivial_embed(model, n_hat).theta, theta0, P0, M)
            assert np.max(np.abs(pl.theta_star - oracle)) <= 1e-9

    @pytest.mark.parametrize("n_hat", [1, 2])
    def test_indefinite_prior_is_numerical_error(self, n_hat):
        d = 2 * n_hat + 1
        with pytest.raises(NumericalError, match="positive definite"):
            projected_limit(SCALAR, n_hat, np.zeros((1, d)), -np.eye(d))

    def test_tracked_run_computes_its_target_once(self, monkeypatch):
        calls = []
        complement = convergence._complement
        monkeypatch.setattr(convergence, "_complement",
                            lambda *args: calls.append(args) or complement(*args))
        u = np.random.default_rng(12).standard_normal((102, 1))
        run_tracked_identification(SCALAR, 2, u, 100)
        assert len(calls) == 1

    def test_minimizes_regularizer_over_feasible_set(self):
        import scipy.linalg

        rng = np.random.default_rng(4)
        model = random_stable_model(rng, 1, 1, 1)
        M = build_lift_matrix(model, 3)
        d = M.shape[0]
        theta0 = rng.standard_normal((1, d))
        P0 = random_spd(rng, d)
        pl = projected_limit(model, 3, theta0, P0)
        P0_inv = np.linalg.inv(P0)

        def reg(theta):
            E = theta - theta0
            return float(np.trace(E @ P0_inv @ E.T))

        base = reg(pl.theta_star)
        null = scipy.linalg.null_space(M.T)
        for _ in range(200):
            delta = (null @ rng.standard_normal(null.shape[1])).reshape(1, d)
            assert np.max(np.abs(delta @ M)) <= 1e-10
            assert base <= reg(pl.theta_star + delta) + 1e-12


def ill_conditioned_spd(rng, d: int, cond: float) -> np.ndarray:
    """Exactly symmetric positive-definite matrix with eigenvalues in
    ``[1, cond]``, both ends attained when ``d > 1``."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = cond ** rng.uniform(0.0, 1.0, d)
    eigs[[0, -1]] = 1.0, cond
    P = (Q * eigs) @ Q.T
    return 0.5 * (P + P.T)


class TestMatchingOrderIsExact:
    """A matching-order fit is the q = 0 case: its target is theta_true
    exactly, however ill-conditioned the prior."""

    @pytest.mark.parametrize("cond", [1e0, 1e4, 1e8, 1e12])
    def test_projected_limit_is_truth(self, cond):
        rng = np.random.default_rng(int(np.log10(cond)) + 20)
        for _ in range(20):
            n, p, m_dim = (int(x) for x in rng.integers([0, 1, 1], [4, 3, 3]))
            model = random_stable_model(rng, n, p, m_dim)
            d = model.theta.shape[1]
            pl = projected_limit(model, n, rng.standard_normal((p, d)),
                                 ill_conditioned_spd(rng, d, cond))
            np.testing.assert_array_equal(pl.theta_star, model.theta)
            np.testing.assert_array_equal(pl.H, np.eye(d))

    def test_tracked_reference_is_truth(self):
        rng = np.random.default_rng(21)
        for model in (SCALAR, random_stable_model(rng, 2, 2, 1)):
            d = model.theta.shape[1]
            P0 = ill_conditioned_spd(rng, d, 1e12)
            u = rng.standard_normal((200 + model.n, model.m))
            trace = run_tracked_identification(model, model.n, u, 200,
                                               theta0=rng.standard_normal((model.p, d)),
                                               P0=P0)
            assert trace.ref_kind == "true"
            np.testing.assert_array_equal(trace.theta_ref, model.theta)


class TestEquivalenceViaTheta:
    def test_theta_star_and_lift_true_pass(self):
        rng = np.random.default_rng(5)
        m = random_stable_model(rng, 1, 1, 1)
        theta0 = rng.standard_normal((1, 7))
        pl = projected_limit(m, 2, theta0[:, :5], np.eye(5))
        assert theta_equivalence_residual(pl.theta_star, m, 2) <= 1e-9
        assert theta_equivalence_residual(trivial_embed(m, 2).theta, m, 2) <= 1e-9

    def test_range_sensitive_perturbation_fails(self):
        m = SCALAR
        M = build_lift_matrix(m, 2)
        v = M[:, 0]  # lives in the column space, so v^T M != 0
        theta = trivial_embed(m, 2).theta + 1e-3 * v.reshape(1, -1)
        assert not theta_equivalence_residual(theta, m, 2) <= 1e-8

    def test_agrees_with_model_level_check(self):
        from sysid_rls import is_equivalent

        rng = np.random.default_rng(6)
        for _ in range(10):
            m = random_stable_model(rng, 1, 1, 1)
            theta = rng.standard_normal((1, 5))
            decoded = IOModel.from_theta(theta, 2, 1, 1)
            lhs = theta_equivalence_residual(theta, m, 2) <= 1e-8
            rhs = bool(is_equivalent(decoded, m, tol=1e-8))
            assert lhs == rhs
            assert theta_equivalence_residual(theta, m, 2) == \
                is_equivalent(decoded, m).residual


class TestAsymptotePredictions:
    def test_zero_initial_error(self):
        C = np.eye(3)
        ones = IOModel.scalar([1.0], [1.0, 1.0])  # theta = [[1, 1, 1]]
        limit = projected_limit(ones, 1, np.ones((1, 3)), np.eye(3))
        pred = predict_asymptote(limit, np.ones((1, 3)), np.eye(3), C)
        np.testing.assert_array_equal(pred, np.zeros((1, 3)))

    def test_scalar_arithmetic(self):
        zero = IOModel.scalar([], [0.0])  # order 0, theta = [[0]]
        limit = projected_limit(zero, 0, np.array([[1.0]]), np.array([[1.0]]))
        pred = predict_asymptote(limit, np.array([[1.0]]), np.array([[1.0]]),
                                 np.array([[2.0]]))
        np.testing.assert_allclose(pred, [[0.5]])

    def test_overparam_zero_when_prior_is_lifted_truth(self):
        rng = np.random.default_rng(7)
        m = random_stable_model(rng, 1, 1, 1)
        C = random_spd(rng, 4)
        theta0 = trivial_embed(m, 2).theta
        pred = predict_asymptote(projected_limit(m, 2, theta0, np.eye(5)), theta0, np.eye(5), C)
        np.testing.assert_allclose(pred, np.zeros((1, 5)), atol=1e-12)

    def test_overparam_zero_at_any_equivalent_prior(self):
        # every feasible prior (lifted truth, theta_star, any equivalent
        # model) is a fixed point of RLS on exact data: zero residuals mean
        # the estimate never moves, so the scaled-error limit is zero
        rng = np.random.default_rng(8)
        m = SCALAR
        pl = projected_limit(m, 2, np.zeros((1, 5)), np.eye(5))
        C = random_spd(rng, 4)
        pred = predict_asymptote(projected_limit(m, 2, pl.theta_star, np.eye(5)), pl.theta_star,
                                 np.eye(5), C)
        np.testing.assert_allclose(pred, np.zeros((1, 5)), atol=1e-12)
        u = rng.standard_normal((502, 1))
        trace = run_tracked_identification(m, 2, u, 500, theta0=pl.theta_star,
                                           P0=np.eye(5))
        assert trace.final_dist <= 1e-10
        assert float(np.max(trace.residual_norm)) <= 1e-10

    def test_matches_closed_form(self):
        # (theta0 - theta_true) P0^{-1} S^T C^{-1} S with S = H[pq:], by inverses
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, p, m_dim = (int(x) for x in rng.integers([0, 1, 1], [3, 3, 3]))
            model = random_stable_model(rng, n, p, m_dim)
            n_hat = n + int(rng.integers(0, 3))
            d, pq = p * n_hat + m_dim * (n_hat + 1), p * (n_hat - n)
            theta0 = rng.standard_normal((p, d))
            P0, C = random_spd(rng, d), random_spd(rng, d - pq)
            limit = projected_limit(model, n_hat, theta0, P0)
            S = limit.H[pq:]
            E = theta0 - trivial_embed(model, n_hat).theta
            expected = E @ np.linalg.inv(P0) @ S.T @ np.linalg.inv(C) @ S
            np.testing.assert_allclose(predict_asymptote(limit, theta0, P0, C), expected,
                                       rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("theta0,C", [(np.zeros((2, 5)), np.eye(4)),
                                          (np.zeros((1, 5)), np.eye(6)),
                                          (np.zeros((1, 5)), np.ones((4, 3))),
                                          (np.zeros((1, 5)), np.ones(4))])
    def test_mismatched_shapes_rejected(self, theta0, C):
        limit = projected_limit(SCALAR, 2, np.zeros((1, 5)), np.eye(5))
        with pytest.raises(ValidationError):
            predict_asymptote(limit, theta0, np.eye(5), C)

    def test_singular_gram_rejected(self):
        with pytest.raises(NumericalError):
            zero = IOModel(n=0, p=1, m=2, F=[], G=[np.zeros((1, 2))])
            limit = projected_limit(zero, 0, np.ones((1, 2)), np.eye(2))
            predict_asymptote(limit, np.ones((1, 2)), np.eye(2), np.zeros((2, 2)))


class TestErrorDynamicsIdentities:
    def test_stepwise_error_propagation(self):
        # theta_err[k+1] = theta_err[k] P_inv[k] P[k+1] on exact data
        rng = np.random.default_rng(9)
        m = random_stable_model(rng, 2, 1, 1)
        traj = simulate(m, rng.standard_normal((2, 1)),
                        rng.standard_normal((62, 1)), k0=-2)
        Phi, Y, _ = regressor_matrix(traj, 2, np.arange(0, 60))
        d = Phi.shape[1]
        P0 = 10.0 * np.eye(d)
        state = RlsState(theta=rng.standard_normal((1, d)), P=P0.copy(), k=0)
        for i in range(60):
            err = state.theta - m.theta
            P_prev_inv = np.linalg.inv(state.P)
            state, _ = rls_fold(state, Phi[i:i + 1], Y[i:i + 1])
            err_new = state.theta - m.theta
            predicted = err @ P_prev_inv @ state.P
            assert np.max(np.abs(err_new - predicted)) <= 1e-8 * (1 + np.max(np.abs(err_new)))

    def test_cumulative_error_form(self):
        # theta_err[k] = theta_err[0] P0^{-1} (sum phi phi^T + P0^{-1})^{-1}
        rng = np.random.default_rng(10)
        m = random_stable_model(rng, 1, 2, 1)
        traj = simulate(m, rng.standard_normal((1, 2)),
                        rng.standard_normal((41, 1)), k0=-1)
        Phi, Y, _ = regressor_matrix(traj, 1, np.arange(0, 40))
        d = Phi.shape[1]
        P0 = random_spd(rng, d, 0.5, 20.0)
        theta0 = rng.standard_normal((2, d))
        state = RlsState(theta=theta0.copy(), P=P0.copy(), k=0)
        P0_inv = np.linalg.inv(P0)
        gram = np.zeros((d, d))
        _, record = rls_fold(state, Phi, Y, keep_history=True)
        for i in range(40):
            gram += np.outer(Phi[i], Phi[i])
            closed = (theta0 - m.theta) @ P0_inv @ np.linalg.inv(gram + P0_inv)
            err = record.theta[i] - m.theta
            assert np.linalg.norm(err - closed) <= 1e-7 * (1 + np.linalg.norm(closed))

    def test_overparam_exact_error_identity(self):
        # theta[k] - theta* = E M W^{-1} (Q_k + W^{-1})^{-1} W^{-1} M^T P0
        rng = np.random.default_rng(11)
        m = SCALAR
        n_hat = 2
        traj = simulate(m, np.zeros((1, 1)),
                        rng.standard_normal((52, 1)), k0=-n_hat)
        Phi, Y, _ = regressor_matrix(traj, n_hat, np.arange(0, 50))
        Phi_red = Phi[:, n_hat - 1:]
        d = Phi.shape[1]
        theta0 = rng.standard_normal((1, d))
        P0 = random_spd(rng, d, 0.5, 5.0)
        pl = projected_limit(m, n_hat, theta0, P0)
        M = build_lift_matrix(m, n_hat)
        W = M.T @ P0 @ M
        W_inv = np.linalg.inv(W)
        E = (theta0 - trivial_embed(m, n_hat).theta) @ M
        state = RlsState(theta=theta0.copy(), P=P0.copy(), k=0)
        Q = np.zeros_like(W)
        _, record = rls_fold(state, Phi, Y, keep_history=True)
        for i in range(50):
            Q += np.outer(Phi_red[i], Phi_red[i])
            closed = E @ W_inv @ np.linalg.inv(Q + W_inv) @ W_inv @ M.T @ P0
            gap = record.theta[i] - pl.theta_star
            assert np.linalg.norm(gap - closed) <= 1e-8 * (1 + np.linalg.norm(closed))

    def test_matrix_inversion_lemma_expansions_agree(self):
        # the two routes to the overparameterized error kernel coincide
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_stable_model(rng, 1, 2, 1)
            M = build_lift_matrix(model, 3)
            D, R = M.shape
            P0 = random_spd(rng, D)
            Q = random_spd(rng, R)
            W = M.T @ P0 @ M
            H = M @ np.linalg.solve(W, M.T @ P0)
            lhs = -np.eye(D) + np.linalg.inv(P0) @ np.linalg.inv(
                M @ Q @ M.T + np.linalg.inv(P0)) + H
            W_inv = np.linalg.inv(W)
            rhs = M @ W_inv @ np.linalg.inv(Q + W_inv) @ W_inv @ M.T @ P0
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestRunTrackedIdentification:
    def test_zero_input_keeps_prior(self):
        trace = run_tracked_identification(SCALAR, 2, np.zeros((500 + 2, 1)), 500)
        assert trace.dist_to_ref[0] == pytest.approx(trace.dist_to_ref[-1])
        np.testing.assert_array_equal(trace.residual_norm, np.zeros(500))

    def test_correct_order_converges(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal((4001, 1))
        trace = run_tracked_identification(SCALAR, 1, u, 4000)
        assert trace.ref_kind == "true"
        assert trace.final_dist < 1e-4
        assert trace.dist_to_ref[100] > trace.final_dist
        assert trace.asymptote_rel_error < 0.05

    def test_overparam_converges_to_projection(self):
        rng = np.random.default_rng(14)
        u = rng.standard_normal((4003, 1))
        trace = run_tracked_identification(SCALAR, 3, u, 4000)
        assert trace.ref_kind == "projected"
        assert trace.final_dist < 1e-4
        assert trace.final_residual < 1e-6
        assert theta_equivalence_residual(trace.theta_ref, SCALAR, 3) <= 1e-9

    def test_callable_generator(self):
        # a 1-D input array is one input channel; rows past horizon + order
        # are ignored
        rng = np.random.default_rng(15)
        trace = run_tracked_identification(SCALAR, 1, rng.standard_normal(250), 200)
        assert len(trace.ks) == 200

    def test_under_order_rejected(self):
        m2 = trivial_embed(SCALAR, 2)
        with pytest.raises(ValidationError):
            run_tracked_identification(m2, 1, np.zeros((100, 1)), 50)

    def test_too_few_inputs(self):
        with pytest.raises(ValidationError):
            run_tracked_identification(SCALAR, 2, np.zeros((50, 1)), 100)
