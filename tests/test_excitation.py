import numpy as np
import pytest

from sysid_rls import (
    IOModel,
    Trajectory,
    ValidationError,
    estimate_gram_limit,
    lift_identity_check,
    partial_gram_min_eigs,
    regressor_matrix,
    simulate,
)
from sysid_rls.excitation import DEFAULT_GROWTH_RATIO, DEFAULT_PE_SLOPE_TOL, PE_FLOOR

from support import (
    random_stable_model,
    reference_gram_curve,
    reference_reduced_regressor,
    reference_regressor,
)


def reduced(traj, n, n_hat, ks=None):
    """The reduced regressor: the trailing columns of the order-``n_hat`` block."""
    Phi, _, ks = regressor_matrix(traj, n_hat, ks)
    return Phi[:, traj.p * (n_hat - n):], ks


class TestReducedRegressor:
    def test_zero_trajectory(self):
        traj = Trajectory(k0=0, u=np.zeros((8, 1)), y=np.zeros((8, 1)))
        Phi, _ = reduced(traj, 1, 3, [6])
        np.testing.assert_array_equal(Phi[0], np.zeros(1 + 4))

    def test_scalar_stacking(self):
        # n=1, n_hat=2: y[k-2]=7 and inputs (1, 2, 3) newest first
        y = np.array([[7.0], [9.0], [4.0]])
        u = np.array([[3.0], [2.0], [1.0]])
        Phi, _ = reduced(Trajectory(k0=0, u=u, y=y), 1, 2, [2])
        np.testing.assert_array_equal(Phi[0], [-7.0, 1.0, 2.0, 3.0])

    def test_equal_orders_give_full_regressor(self):
        rng = np.random.default_rng(3)
        m = random_stable_model(rng, 2, 2, 2)
        traj = simulate(m, rng.standard_normal((2, 2)), rng.standard_normal((30, 2)), k0=-4)
        for n in range(4):
            Phi, ks = reduced(traj, n, n)
            for i, k in enumerate(ks):
                full, _ = reference_regressor(traj, int(k), n)
                assert Phi[i].tobytes() == full.tobytes()
                assert full.tobytes() == reference_reduced_regressor(traj, int(k), n, n).tobytes()

    def test_underflow(self):
        traj = Trajectory(k0=0, u=np.zeros((4, 1)), y=np.zeros((4, 1)))
        with pytest.raises(ValidationError):
            regressor_matrix(traj, 3, [2])

    def test_matrix_builder_matches(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            p, m_dim, n = (int(x) for x in rng.integers([1, 1, 0], [4, 3, 4]))
            n_hat = n + int(rng.integers(0, 4))
            model = random_stable_model(rng, n, p, m_dim)
            traj = simulate(model, rng.standard_normal((n, p)),
                            rng.standard_normal((n_hat + 12, m_dim)), k0=-n_hat)
            Phi, ks = reduced(traj, n, n_hat)
            assert Phi.shape == (12, p * n + m_dim * (n_hat + 1))
            for i, k in enumerate(ks):
                assert Phi[i].tobytes() == \
                    reference_reduced_regressor(traj, int(k), n, n_hat).tobytes()


class TestLiftIdentity:
    def test_exact_on_simulated_data(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(0, 3))
            p = int(rng.integers(1, 3))
            m_dim = int(rng.integers(1, 3))
            model = random_stable_model(rng, n, p, m_dim)
            n_hat = n + int(rng.integers(1, 4))
            traj = simulate(model, rng.uniform(-1, 1, (n, p)),
                            rng.uniform(-1, 1, (60, m_dim)))
            assert lift_identity_check(traj, model, n_hat) <= 1e-9

    def test_zero_trajectory(self):
        m = IOModel.scalar([0.5], [0.0, 1.0])
        traj = simulate(m, [0.0], np.zeros(30))
        assert lift_identity_check(traj, m, 2) == 0.0

    def test_corruption_is_localized(self):
        rng = np.random.default_rng(2)
        m = IOModel.scalar([0.5], [0.3, 1.0])
        traj = simulate(m, [0.2], rng.uniform(-1, 1, (40, 1)))
        y = traj.y.copy()
        y[20, 0] += 0.5
        bad = Trajectory(k0=0, u=traj.u, y=y)
        assert lift_identity_check(bad, m, 2) > 1e-3
        # windows that never touch the corrupted sample stay exact
        clean_ks = np.arange(bad.k0 + 2, 19)
        assert lift_identity_check(bad, m, 2, clean_ks) <= 1e-12


class TestExcitationReport:
    """The excitation record: :func:`estimate_gram_limit`'s verdicts and the
    :func:`partial_gram_min_eigs` curve."""

    def test_zero_regressors(self):
        limit = estimate_gram_limit(np.zeros((50, 3)))
        assert not limit.weak_pe and not limit.pe
        np.testing.assert_array_equal(partial_gram_min_eigs(np.zeros((50, 3))), np.zeros(50))

    def test_white_noise_scalar_pe(self):
        rng = np.random.default_rng(3)
        phis = rng.standard_normal((10_000, 1))
        limit = estimate_gram_limit(phis)
        assert limit.weak_pe and limit.pe
        assert abs(limit.C[0, 0] - 1.0) < 0.05

    def test_monotone_curve(self):
        rng = np.random.default_rng(4)
        curve = partial_gram_min_eigs(rng.standard_normal((300, 4)))
        assert np.all(np.diff(curve) >= -1e-9)

    def test_rank_obstruction_overparameterized(self):
        # full regressor of an over-ordered fit stays pinned near zero while
        # the reduced regressor's minimum eigenvalue grows
        rng = np.random.default_rng(5)
        m = IOModel.scalar([0.5], [0.0, 1.0])
        u = rng.standard_normal((2000 + 3, 1))
        traj = simulate(m, np.zeros((1, 1)), u, k0=-3)
        ks = np.arange(0, 2000)
        Phi_full, _, _ = regressor_matrix(traj, 3, ks)
        Phi_red = Phi_full[:, 2:]
        assert not estimate_gram_limit(Phi_full).weak_pe
        assert partial_gram_min_eigs(Phi_full)[-1] <= 1e-6
        assert estimate_gram_limit(Phi_red).weak_pe
        assert partial_gram_min_eigs(Phi_red)[-1] > 1.0
        # Gram rank bounded by the reduced dimension
        S = Phi_full.T @ Phi_full
        svals = np.linalg.svd(S, compute_uv=False)
        assert svals[5] <= 1e-8 * svals[0]  # rank <= p*n + m*(n_hat+1) = 5

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            estimate_gram_limit([np.zeros(2), np.zeros(3)])

    def test_empty(self):
        with pytest.raises(ValidationError):
            estimate_gram_limit(np.zeros((0, 2)))


class TestPartialGramCurve:
    # 1024 rows per cumsum chunk: these counts put the curve's half-way point
    # and its end on either side of a chunk boundary
    @pytest.mark.parametrize("K", [1, 2, 3, 1024, 2049, 2051, 2600])
    @pytest.mark.parametrize("d", [1, 7])
    def test_report_matches_per_row_reference(self, K, d):
        # the verdicts read the Gram limit where the per-row curve reads its
        # rows K and max(1, K // 2): both routes give the same answer
        Phi = np.random.default_rng(K + d).standard_normal((K, d))
        curve, gram = reference_gram_curve(Phi)
        assert np.array_equal(partial_gram_min_eigs(Phi), curve)
        limit = estimate_gram_limit(Phi)
        assert limit.min_eig == np.linalg.eigvalsh(limit.C)[0]
        # the Gram limit and the curve's final sum agree to round-off
        np.testing.assert_allclose(limit.C, gram / K, rtol=1e-12, atol=1e-12)
        threshold = PE_FLOOR * max(K * float(np.trace(limit.C)), 1.0)
        min_eig_half = curve[max(1, K // 2) - 1]
        growing = curve[-1] >= DEFAULT_GROWTH_RATIO * min_eig_half or min_eig_half <= 0.0
        assert limit.weak_pe == bool(curve[-1] > threshold and growing)
        assert limit.pe == bool(curve[-1] > threshold
                                and limit.stabilization <= DEFAULT_PE_SLOPE_TOL)

    @pytest.mark.parametrize("K", [1, 1024, 1025, 2049])
    def test_helper_matches_per_row_reference(self, K):
        Phi = np.random.default_rng(K).standard_normal((K, 3))
        assert np.array_equal(partial_gram_min_eigs(Phi), reference_gram_curve(Phi)[0])


class TestGramLimit:
    def test_constant_regressor(self):
        v = np.array([1.0, -2.0])
        phis = np.tile(v, (400, 1))
        gl = estimate_gram_limit(phis)
        np.testing.assert_allclose(gl.C, np.outer(v, v), atol=1e-12)
        assert not gl.pe  # rank-1 average Gram

    def test_alternating_sign(self):
        v = np.array([0.5, 1.5])
        phis = np.array([v if i % 2 == 0 else -v for i in range(300)])
        gl = estimate_gram_limit(phis)
        np.testing.assert_allclose(gl.C, np.outer(v, v), atol=1e-12)

    def test_white_noise_identity(self):
        rng = np.random.default_rng(7)
        phis = rng.standard_normal((10_000, 3))
        gl = estimate_gram_limit(phis)
        assert np.linalg.norm(gl.C - np.eye(3)) < 0.05 * 3
        assert gl.stabilization < 0.05

    # constant rows: the Gram K v v^T is singular for d >= 2, and these seeds
    # leave its computed smallest eigenvalue above 10 eps times the trace
    @pytest.mark.parametrize("seed", [14, 81, 365])
    def test_constant_regressor_round_off_is_not_excitation(self, seed):
        rng = np.random.default_rng(seed)
        d, K = int(rng.integers(2, 6)), int(rng.integers(50, 600))
        limit = estimate_gram_limit(np.tile(rng.standard_normal(d), (K, 1)))
        assert d >= 2
        assert not limit.weak_pe and not limit.pe

    def test_rank_one_pe_only_in_dim_one(self):
        phis = np.ones((500, 1))
        assert estimate_gram_limit(phis).pe  # dimension one: vv^T is positive definite
