import numpy as np
import pytest

from sysid_rls import (
    IOModel,
    NumericalError,
    Trajectory,
    ValidationError,
    build_lift_matrix,
    output_transition,
    simulate,
    transition_pair,
)
from sysid_rls import model_core
from sysid_rls.model_core import _SIM_BLOCK, MAX_TRANSITION_STEPS

from support import (
    random_stable_model,
    reference_simulate,
    reference_transition_prefix,
    shifted_F,
    stacked_F,
    stacked_G,
    verify_trajectory,
)


SCALAR = IOModel.scalar([0.5], [0.0, 1.0])


class TestIOModel:
    def test_theta_layout(self):
        m = IOModel.scalar([0.5, -0.25], [1.0, 2.0, 3.0])
        assert m.theta.shape == (1, 2 + 3)
        np.testing.assert_array_equal(m.theta, [[0.5, -0.25, 1.0, 2.0, 3.0]])

    def test_round_trip_theta(self):
        rng = np.random.default_rng(0)
        m = random_stable_model(rng, 3, 2, 2)
        back = IOModel.from_theta(m.theta, m.n, m.p, m.m)
        np.testing.assert_array_equal(back.theta, m.theta)

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            IOModel(n=1, p=1, m=1, F=[np.eye(2)], G=[np.zeros((1, 1)), np.zeros((1, 1))])
        with pytest.raises(ValidationError):
            IOModel(n=2, p=1, m=1, F=[[[0.5]]], G=[[[1.0]]] * 3)

    def test_blocks_are_read_only(self):
        with pytest.raises(ValueError):
            SCALAR.F[0][0, 0] = 2.0

    def test_order_zero(self):
        m = IOModel(n=0, p=2, m=1, F=[], G=[np.ones((2, 1))])
        assert m.theta.shape == (2, 1)
        assert m.companion_spectral_radius() == 0.0


class TestSimulate:
    def test_hand_recursion(self):
        # y[k+1] = -0.5 y[k] + u[k]; y0 = 1, zero input
        traj = simulate(SCALAR, [1.0], np.zeros(3), horizon=3)
        np.testing.assert_allclose(traj.y.ravel(), [1.0, -0.5, 0.25])

    def test_zero_dynamics(self):
        rng = np.random.default_rng(1)
        m = random_stable_model(rng, 2, 2, 2)
        traj = simulate(m, np.zeros((2, 2)), np.zeros((10, 2)))
        np.testing.assert_array_equal(traj.y, np.zeros((10, 2)))

    def test_pass_through_identity(self):
        m = IOModel.scalar([0.0], [1.0, 0.0])
        u = np.arange(1.0, 7.0)
        traj = simulate(m, [9.0], u)
        np.testing.assert_allclose(traj.y.ravel()[1:], u[1:])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        m = random_stable_model(rng, 2, 2, 1)
        u = rng.standard_normal((50, 1))
        ics = rng.standard_normal((2, 2))
        a = simulate(m, ics, u)
        b = simulate(m, ics, u)
        np.testing.assert_array_equal(a.y, b.y)

    def test_errors(self):
        with pytest.raises(ValidationError):
            simulate(SCALAR, [1.0], np.zeros((5, 2)))  # wrong input dim
        with pytest.raises(ValidationError):
            simulate(SCALAR, [1.0], np.zeros(2), horizon=5)  # not enough inputs
        with pytest.raises(ValidationError):
            simulate(SCALAR, [1.0, 2.0], np.zeros(5))  # wrong ic count
        with pytest.raises(ValidationError):
            simulate(SCALAR, [1.0], np.zeros(5), horizon=0)  # below order
        with pytest.raises(ValidationError):
            simulate(SCALAR, [np.nan], np.zeros(5))  # non-finite initial output

    def test_divergence_is_numerical_error(self):
        unstable = IOModel.scalar([1.5], [0.0, 1.0])
        assert np.all(np.isfinite(simulate(unstable, [1.0], np.zeros(1000)).y))
        with pytest.raises(NumericalError, match="diverged"):
            simulate(unstable, [1.0], np.zeros(3000))

    @pytest.mark.parametrize("n,p,m", [(1, 1, 1), (2, 2, 2)])
    def test_every_short_horizon_agrees_with_per_sample_recursion(self, n, p, m):
        rng = np.random.default_rng([n, p, m, 4])
        model = random_stable_model(rng, n, p, m)
        ics, u = rng.standard_normal((n, p)), rng.standard_normal((n + 70, m))
        for horizon in range(n, n + 71):
            y_ref = reference_simulate(model, ics, u[:horizon])
            y = simulate(model, ics, u, horizon=horizon).y
            assert y.shape == (horizon, p)
            assert np.max(np.abs(y - y_ref)) <= 1e-12 * (1.0 + np.max(np.abs(y_ref)))

    def test_short_record_builds_only_the_blocks_it_uses(self, monkeypatch):
        asked = []
        real = model_core._transition_blocks
        monkeypatch.setattr(model_core, "_transition_blocks",
                            lambda model, js: asked.append(len(js)) or real(model, js))
        for horizon in (1, 2, 6, 1 + _SIM_BLOCK, 2 + _SIM_BLOCK):
            simulate(SCALAR, [0.5], np.ones(horizon))
        assert asked == [1, 1, 5, _SIM_BLOCK, _SIM_BLOCK]

    def test_steep_model_falls_back_to_shorter_blocks(self):
        # the 64-step blocks of a pole at 1e6 overflow; zero data stays zero
        steep = IOModel.scalar([-1e6], [1.0, 0.0])
        np.testing.assert_array_equal(simulate(steep, [0.0], np.zeros(500)).y,
                                      np.zeros((500, 1)))
        with pytest.raises(NumericalError, match=r"diverged.* from k=52 "):
            simulate(steep, [1.0], np.zeros(500))


@pytest.mark.parametrize("n,p,m", [(0, 2, 1), (1, 1, 1), (3, 1, 1), (2, 2, 2), (4, 3, 2)])
class TestBlockSimulation:
    """``simulate``'s block evaluation against the per-sample recursion."""

    K = 20_000

    def _case(self, n, p, m):
        rng = np.random.default_rng([n, p, m, 3])
        model = random_stable_model(rng, n, p, m)
        return model, rng.standard_normal((n, p)), rng.standard_normal((self.K, m))

    def test_agrees_with_per_sample_recursion(self, n, p, m):
        model, ics, u = self._case(n, p, m)
        y_ref = reference_simulate(model, ics, u)
        traj = simulate(model, ics, u)
        bound = 1e-12 * (1.0 + np.max(np.abs(y_ref)))
        assert np.max(np.abs(traj.y - y_ref)) <= bound
        assert verify_trajectory(model, traj) <= bound

    def test_split_at_a_block_boundary_is_bit_identical(self, n, p, m):
        model, ics, u = self._case(n, p, m)
        whole = simulate(model, ics, u, k0=-7)
        cut = n + 100 * _SIM_BLOCK
        head = simulate(model, ics, u[:cut], k0=-7)
        tail = simulate(model, head.y[cut - n:], u[cut - n:], k0=-7 + cut - n)
        assert tail.k0 == whole.k0 + cut - n and tail.k_last == whole.k_last
        np.testing.assert_array_equal(np.vstack([head.y, tail.y[n:]]), whole.y)

    def test_rerun_is_bit_identical(self, n, p, m):
        model, ics, u = self._case(n, p, m)
        np.testing.assert_array_equal(simulate(model, ics, u).y, simulate(model, ics, u).y)


class TestTransitionPair:
    def test_j0_is_verbatim(self):
        rng = np.random.default_rng(4)
        m = random_stable_model(rng, 2, 2, 1)
        pair = transition_pair(m, 0)
        np.testing.assert_array_equal(pair.Fj, stacked_F(m))
        np.testing.assert_array_equal(pair.Gj, stacked_G(m))

    def test_scalar_one_step(self):
        pair = transition_pair(SCALAR, 1)
        np.testing.assert_allclose(pair.Fj, [[-0.25]])
        np.testing.assert_allclose(pair.Gj, [[0.0, 1.0, -0.5]])

    def test_scalar_three_step(self):
        # unrolling gives -F1**4 for the output block
        pair = transition_pair(SCALAR, 3)
        np.testing.assert_allclose(pair.Fj, [[-0.0625]])

    def test_shapes(self):
        rng = np.random.default_rng(5)
        m = random_stable_model(rng, 2, 3, 2)
        for j in range(5):
            pair = transition_pair(m, j)
            assert pair.Fj.shape == (3, 3 * 2)
            assert pair.Gj.shape == (3, 2 * (2 + 1 + j))

    def test_cap(self):
        with pytest.raises(ValidationError):
            transition_pair(SCALAR, MAX_TRANSITION_STEPS + 1)
        with pytest.raises(ValidationError):
            transition_pair(SCALAR, -1)

    def test_repeated_query_is_array_equal(self):
        m = IOModel.scalar([0.3], [1.0, 0.5])
        a = transition_pair(m, 4)
        b = transition_pair(m, 4)
        np.testing.assert_array_equal(a.Fj, b.Fj)
        np.testing.assert_array_equal(a.Gj, b.Gj)

    def test_cache_thread_safety(self):
        import concurrent.futures

        rng = np.random.default_rng(12)
        m = random_stable_model(rng, 3, 2, 2)
        expected = transition_pair(IOModel(n=3, p=2, m=2, F=m.F, G=m.G), 40).Fj
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda j: transition_pair(m, 40).Fj, range(32)))
        for got in results:
            np.testing.assert_array_equal(got, expected)


def _rel_err(got, ref):
    return float(np.linalg.norm(got - ref)) / max(float(np.linalg.norm(ref)), 1e-300)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("p,m", [(1, 1), (2, 2), (3, 2)])
class TestAgainstRecursion:
    """The impulse-response blocks against the block recursion oracle."""

    def test_transition_pair(self, n, p, m):
        model = random_stable_model(np.random.default_rng([n, p, m]), n, p, m)
        offsets = list(range(n + 3)) + [17, 100, 350]
        oracle = reference_transition_prefix(model, max(offsets))
        for j in offsets:
            pair, ref = transition_pair(model, j), oracle[j]
            assert pair.Fj.shape == ref.Fj.shape and pair.Gj.shape == ref.Gj.shape
            assert _rel_err(pair.Fj, ref.Fj) <= 1e-12, j
            assert _rel_err(pair.Gj, ref.Gj) <= 1e-12, j
        np.testing.assert_array_equal(transition_pair(model, 0).Fj, oracle[0].Fj)
        np.testing.assert_array_equal(transition_pair(model, 0).Gj, oracle[0].Gj)

    def test_lift_matrix(self, n, p, m):
        model = random_stable_model(np.random.default_rng([n, p, m, 1]), n, p, m)
        for q in (1, 2, 3):
            n_hat = n + q
            oracle = reference_transition_prefix(model, q - 1)
            M1 = np.vstack([-oracle[q - i].Fj for i in range(1, q + 1)])
            M2 = np.zeros((p * q, m * (n_hat + 1)))
            for i in range(1, q + 1):
                M2[(i - 1) * p: i * p, i * m:] = -oracle[q - i].Gj
            M = np.vstack([np.hstack([M1, M2]), np.eye(p * n + m * (n_hat + 1))])
            assert _rel_err(build_lift_matrix(model, n_hat), M) <= 1e-12, q


class TestShiftOperator:
    def test_zero_for_j_at_least_n(self):
        rng = np.random.default_rng(6)
        m = random_stable_model(rng, 3, 2, 1)
        for j in (3, 4, 7):
            np.testing.assert_array_equal(shifted_F(m, j), np.zeros((2, 6)))

    def test_left_shift_with_padding(self):
        m = IOModel.scalar([1.0, 2.0, 3.0], [0.0] * 4)
        np.testing.assert_array_equal(shifted_F(m, 1), [[2.0, 3.0, 0.0]])
        np.testing.assert_array_equal(shifted_F(m, 2), [[3.0, 0.0, 0.0]])


class TestOutputTransition:
    def test_zero_windows(self):
        rng = np.random.default_rng(7)
        m = random_stable_model(rng, 2, 2, 2)
        out = output_transition(m, np.zeros(4), np.zeros(2 * (2 + 1 + 3)), 3)
        np.testing.assert_array_equal(out, np.zeros(2))

    def test_scalar_window_examples(self):
        # window y0 = 1, zero inputs, one extra step: matches the simulation
        out = output_transition(SCALAR, [1.0], np.zeros(3), 1)
        np.testing.assert_allclose(out, [0.25])
        # zero window, unit input one step back
        out = output_transition(SCALAR, [0.0], [0.0, 1.0, 0.0], 1)
        np.testing.assert_allclose(out, [1.0])

    def test_agrees_with_simulation(self):
        # the j-step blocks must reproduce the per-sample recursion for all
        # j; raw coefficient draws in [-1, 1] are fine over short horizons
        rng = np.random.default_rng(8)
        for trial in range(8):
            n = int(rng.integers(1, 4))
            p = int(rng.integers(1, 3))
            m_dim = int(rng.integers(1, 3))
            model = IOModel(
                n=n, p=p, m=m_dim,
                F=[rng.uniform(-1, 1, (p, p)) for _ in range(n)],
                G=[rng.uniform(-1, 1, (p, m_dim)) for _ in range(n + 1)],
            )
            ics = rng.uniform(-1, 1, (n, p))
            horizon = n + 9
            u = rng.uniform(-1, 1, (horizon, m_dim))
            y = reference_simulate(model, ics, u)
            Yw = y[0:n][::-1].reshape(-1)
            for j in range(0, 9):
                Uw = u[0:n + 1 + j][::-1].reshape(-1)
                got = output_transition(model, Yw, Uw, j)
                want = y[n + j]
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        m = random_stable_model(rng, 2, 2, 1)
        j = 3
        y1, y2 = rng.standard_normal((2, 4))
        u1, u2 = rng.standard_normal((2, 1 * (2 + 1 + j)))
        a, b = 0.7, -1.3
        lhs = output_transition(m, a * y1 + b * y2, a * u1 + b * u2, j)
        rhs = a * output_transition(m, y1, u1, j) + b * output_transition(m, y2, u2, j)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_errors(self):
        with pytest.raises(ValidationError):
            output_transition(SCALAR, [1.0, 2.0], np.zeros(3), 1)
        with pytest.raises(ValidationError):
            output_transition(SCALAR, [1.0], np.zeros(4), 1)


class TestTrajectory:
    def test_k_last(self):
        traj = Trajectory(k0=-2, u=np.zeros((5, 1)), y=np.arange(5.0).reshape(-1, 1))
        assert traj.k_last == 2

    def test_misaligned_lengths(self):
        with pytest.raises(ValidationError):
            Trajectory(k0=0, u=np.zeros((4, 1)), y=np.zeros((5, 1)))
