import numpy as np
import pytest

from sysid_rls import (
    IOModel,
    NumericalError,
    ValidationError,
    build_lift_matrix,
    is_equivalent,
    lift_once,
    reduce_once,
    reducibility_check,
    simulate,
    transition_pair,
    trivial_embed,
)
from sysid_rls.equivalence import _lift_and_target, _witness_chain

from support import (
    consolidate,
    random_contraction,
    random_stable_model,
    simulation_equivalence_oracle,
    stacked_G,
)


SCALAR = IOModel.scalar([0.5], [0.0, 1.0])
# order-2 equivalent of SCALAR built with D = 0.3
LIFTED = IOModel.scalar([0.8, 0.15], [0.0, 1.0, 0.3])


def check_witness(high, F1, tol=1e-8):
    """The two checks :func:`reduce_once` applies to one witness ``F1``: its
    condition residual within ``tol``, then the lift identity on the model
    it builds.  Returns the residual, that model and the verdict."""
    F1 = np.atleast_2d(np.asarray(F1, dtype=float))
    residuals, reduced = _witness_chain(high, F1[None], 1.0 + np.linalg.norm(high.theta))
    residual, reduced = residuals[0], reduced(0)
    return residual, reduced, residual <= tol and bool(is_equivalent(high, reduced, max(tol, 1e-7)))


class TestLiftMatrix:
    def test_scalar_shape_and_blocks(self):
        M = build_lift_matrix(SCALAR, 2)
        assert M.shape == (5, 4)
        assert not M.flags.writeable
        # top band: [-F1 | -(0, G0, G1)]; the input blocks flip sign because
        # the regressor stacks negated outputs
        np.testing.assert_allclose(M[0], [-0.5, 0.0, 0.0, -1.0])
        np.testing.assert_array_equal(M[1:], np.eye(4))

    def test_zero_model(self):
        z = IOModel.scalar([0.0], [0.0, 0.0])
        M = build_lift_matrix(z, 2)
        # p = n = 1, q = 1: M1 = M[:1, :1] and M2 = M[:1, 1:]
        np.testing.assert_array_equal(M[:1, :1], np.zeros((1, 1)))
        np.testing.assert_array_equal(M[:1, 1:], np.zeros((1, 3)))
        np.testing.assert_array_equal(M[1:], np.eye(4))

    def test_two_step_lift_rows(self):
        M = build_lift_matrix(SCALAR, 3)
        # p = n = 1, q = 2: M1 = M[:2, :1] and M2 = M[:2, 1:]
        M1, M2 = M[:2, :1], M[:2, 1:]
        pair1 = transition_pair(SCALAR, 1)
        np.testing.assert_allclose(M1[:, 0], [-pair1.Fj[0, 0], -0.5])
        np.testing.assert_allclose(M1[0, 0], 0.25)
        # row 1 carries the padded one-step input blocks, negated
        np.testing.assert_allclose(M2[0], [0.0, -0.0, -1.0, 0.5])
        np.testing.assert_allclose(M2[1], [0.0, 0.0, -0.0, -1.0])

    def test_full_column_rank(self):
        rng = np.random.default_rng(0)
        m = random_stable_model(rng, 2, 2, 2)
        M = build_lift_matrix(m, 4)
        assert np.linalg.matrix_rank(M) == M.shape[1]

    def test_rejects_non_lift(self):
        # n_hat == n is the q = 0 lift: the identity, against the model itself
        rng = np.random.default_rng(5)
        for m in (SCALAR, LIFTED, IOModel.scalar([], [0.7]), random_stable_model(rng, 2, 2, 3)):
            M = build_lift_matrix(m, m.n)
            np.testing.assert_array_equal(M, np.eye(len(M)))
            np.testing.assert_array_equal(_lift_and_target(m, m.n)[1], m.theta)
        with pytest.raises(ValidationError):
            build_lift_matrix(LIFTED, 1)


class TestConsolidate:
    def test_trivial_embedding_gives_transition(self):
        rng = np.random.default_rng(1)
        for n, n_hat in [(1, 2), (1, 3), (2, 4)]:
            m = random_stable_model(rng, n, 2, 1)
            cons = consolidate(trivial_embed(m, n_hat), m)
            pair = transition_pair(m, n_hat - n)
            np.testing.assert_allclose(cons.F_cons, pair.Fj, atol=1e-12)
            np.testing.assert_allclose(cons.G_cons, pair.Gj, atol=1e-12)

    def test_lifted_scalar_example(self):
        cons = consolidate(LIFTED, SCALAR)
        pair = transition_pair(SCALAR, 1)
        np.testing.assert_allclose(cons.F_cons, pair.Fj)
        np.testing.assert_allclose(cons.G_cons, pair.Gj)

    def test_zero_base_passes_high_inputs_through(self):
        base = IOModel.scalar([0.0], [0.0, 0.0])
        rng = np.random.default_rng(2)
        high = random_stable_model(rng, 3, 1, 1)
        cons = consolidate(high, base)
        np.testing.assert_allclose(cons.G_cons, stacked_G(high), atol=1e-14)

    def test_matches_lift_matrix_identity(self):
        # consolidation (direct recursion) equals theta_high @ M entrywise
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(0, 3))
            n_hat = n + int(rng.integers(1, 4))
            p = int(rng.integers(1, 3))
            m_dim = int(rng.integers(1, 3))
            base = random_stable_model(rng, n, p, m_dim)
            high = random_stable_model(rng, n_hat, p, m_dim)
            cons = consolidate(high, base)
            M = build_lift_matrix(base, n_hat)
            np.testing.assert_allclose(high.theta @ M, cons.flat,
                                       atol=1e-10, rtol=1e-10)


class TestIsEquivalent:
    def test_trivial_embedding_true(self):
        rng = np.random.default_rng(4)
        m = random_stable_model(rng, 2, 2, 2)
        for n_hat in (3, 4, 5):
            assert is_equivalent(m, trivial_embed(m, n_hat))

    def test_lifted_scalar_true(self):
        cert = is_equivalent(SCALAR, LIFTED)
        assert cert.equivalent and cert.condition == "cross-order-lift"
        assert cert.raw_residual < 1e-14

    def test_perturbed_tail_false(self):
        bad = IOModel.scalar([0.8, 0.15], [0.0, 1.0, 0.0])
        cert = is_equivalent(SCALAR, bad)
        assert not cert.equivalent
        # the defect sits in the last input column of the lift identity
        M = build_lift_matrix(SCALAR, 2)
        resid = bad.theta @ M - np.hstack(
            [transition_pair(SCALAR, 1).Fj, transition_pair(SCALAR, 1).Gj])
        np.testing.assert_allclose(resid, [[0.0, 0.0, 0.0, -0.3]], atol=1e-14)

    def test_same_order_path(self):
        a = IOModel.scalar([0.5], [0.0, 1.0])
        b = IOModel.scalar([0.5], [0.0, 1.0])
        cert = is_equivalent(a, b)
        assert cert.equivalent and cert.condition == "same-order-coefficients"
        c = IOModel.scalar([0.5], [0.0, 1.0 + 1e-3])
        assert not is_equivalent(a, c)

    def test_same_order_residual_is_coefficient_distance(self):
        # the q = 0 lift residual is the scaled coefficient distance, exactly
        rng = np.random.default_rng(14)
        for _ in range(200):
            n, p, m_dim = (int(x) for x in rng.integers([0, 1, 1], [4, 3, 3]))
            a = random_stable_model(rng, n, p, m_dim)
            if rng.integers(2):
                b = random_stable_model(rng, n, p, m_dim)
            else:
                b = IOModel.from_theta(a.theta + 1e-9 * rng.standard_normal(a.theta.shape),
                                       n, p, m_dim)
            raw = float(np.linalg.norm(a.theta - b.theta))
            rel = raw / (1.0 + max(np.linalg.norm(a.theta), np.linalg.norm(b.theta)))
            cert = is_equivalent(a, b)
            assert cert.raw_residual == raw and cert.residual == rel
            assert cert.condition == "same-order-coefficients"
            assert (cert.low_order, cert.high_order) == (n, n)

    def test_argument_order_free(self):
        assert is_equivalent(LIFTED, SCALAR)
        assert is_equivalent(SCALAR, LIFTED)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            is_equivalent(SCALAR, IOModel(n=1, p=2, m=1,
                                          F=[np.eye(2)], G=[np.zeros((2, 1))] * 2))

    def test_oracle_agreement_random_pairs(self):
        # declared-equivalent pairs match outputs; perturbed pairs diverge
        rng = np.random.default_rng(5)
        for _ in range(15):
            p = int(rng.integers(1, 3))
            m_dim = int(rng.integers(1, 3))
            n = int(rng.integers(1, 3))
            base = random_stable_model(rng, n, p, m_dim)
            high = lift_once(base, random_contraction(rng, p))
            assert is_equivalent(base, high)
            assert simulation_equivalence_oracle(base, high, rng) is True

            theta = high.theta.copy()
            theta[rng.integers(0, p), rng.integers(0, theta.shape[1])] += 0.25
            perturbed = IOModel.from_theta(theta, high.n, p, m_dim)
            assert not is_equivalent(base, perturbed)
            assert simulation_equivalence_oracle(base, perturbed, rng) is False


class TestLiftOnce:
    def test_scalar_construction(self):
        high = lift_once(SCALAR, 0.3)
        np.testing.assert_allclose(high.theta, LIFTED.theta)

    def test_order_zero_lift(self):
        base = IOModel(n=0, p=1, m=2, F=[], G=[np.array([[1.0, -2.0]])])
        high = lift_once(base, np.array([[0.4]]))
        # y[k] = G0 u[k] lifted: F1 = D, G1 = D G0
        np.testing.assert_allclose(high.F[0], [[0.4]])
        np.testing.assert_allclose(high.G[1], [[0.4, -0.8]])
        assert is_equivalent(base, high)

    def test_mimo_lift_equivalent(self):
        rng = np.random.default_rng(6)
        base = random_stable_model(rng, 2, 2, 1)
        high = lift_once(base, random_contraction(rng, 2))
        assert is_equivalent(base, high)


class TestReduceOnce:
    def test_scalar_root_search_recovers(self):
        result = reduce_once(LIFTED)
        assert result
        np.testing.assert_allclose(result.witness, [[0.5]], atol=1e-12)
        np.testing.assert_allclose(result.reduced.theta, SCALAR.theta, atol=1e-12)

    def test_trivial_tail_reduces_with_same_witness(self):
        m = IOModel.scalar([0.7], [0.2, -1.1])
        embedded = trivial_embed(m, 2)
        result = reduce_once(embedded)
        assert result
        np.testing.assert_allclose(result.witness, [[0.7]], atol=1e-12)
        np.testing.assert_allclose(result.reduced.theta, m.theta, atol=1e-12)

    def test_generic_model_irreducible(self):
        # brute-force sweep agrees: no witness for a generic second-order model
        model = IOModel.scalar([0.8, 0.3], [0.5, 1.0, 0.7])
        result = reduce_once(model)
        assert not result
        grid = np.linspace(-5, 5, 20001)
        scale = 1.0 + np.linalg.norm(model.theta)
        best = min(_witness_chain(model, (model.F[0][0, 0] - grid)[:, None, None], scale)[0])
        assert best > 1e-3

    def test_verify_candidate(self):
        residual, reduced, ok = check_witness(LIFTED, [[0.5]])
        assert ok and reduced.n == 1
        residual, _, ok = check_witness(LIFTED, [[0.4]])
        assert not ok and residual > 1e-3

    def test_exact_recursion_reproduced(self):
        # reducing with the known witness reproduces the base coefficients
        rng = np.random.default_rng(7)
        base = random_stable_model(rng, 2, 2, 2)
        D = random_contraction(rng, 2)
        high = lift_once(base, D)
        _, reduced, ok = check_witness(high, base.F[0])
        assert ok
        np.testing.assert_allclose(reduced.theta, base.theta, atol=1e-12)

    def test_newton_search_mimo(self):
        rng = np.random.default_rng(8)
        base = random_stable_model(rng, 1, 2, 1)
        high = lift_once(base, random_contraction(rng, 2))
        result = reduce_once(high, tol=1e-8)
        assert result
        assert is_equivalent(high, result.reduced)

    def test_order_one_to_zero(self):
        base = IOModel(n=0, p=1, m=1, F=[], G=[np.array([[2.0]])])
        high = lift_once(base, 0.6)
        result = reduce_once(high)
        assert result and result.reduced.n == 0
        np.testing.assert_allclose(result.reduced.G[0], [[2.0]], atol=1e-12)

    def test_order_zero_rejected(self):
        z = IOModel(n=0, p=1, m=1, F=[], G=[np.eye(1)])
        with pytest.raises(ValidationError):
            reduce_once(z)

    def test_siso_search_follows_tolerance(self):
        lifted = lift_once(IOModel.scalar([0.3], [1.0, 1.0]), 0.5)

        def perturbed(eps):
            theta = lifted.theta[0]
            return IOModel.scalar(theta[:2], theta[2:] + [0.0, 0.0, eps])

        near = perturbed(1e-5)  # condition residual about 1e-6
        result = reduce_once(near, tol=1e-4)
        assert result and is_equivalent(near, result.reduced, tol=1e-4)
        np.testing.assert_allclose(result.witness, [[0.3]], atol=1e-4)
        strict = reduce_once(near)
        assert not strict and strict.proven
        # a common factor between tol and the rank threshold is still ruled out
        tiny = reduce_once(perturbed(1e-7))
        assert not tiny and tiny.proven
        far = reduce_once(perturbed(1e-3), tol=1e-4)
        assert not far and far.residual > 1e-4

    @pytest.mark.parametrize("p", [2, 3])
    def test_mimo_search_follows_tolerance(self, p):
        rng = np.random.default_rng(p)
        base = random_stable_model(rng, 1, p, 2)
        lifted = lift_once(base, random_contraction(rng, p))

        def perturbed(eps):
            G = [g + eps * rng.standard_normal(g.shape) for g in lifted.G]
            return IOModel(n=lifted.n, p=p, m=2, F=lifted.F, G=G)

        near = perturbed(1e-5)
        result = reduce_once(near, tol=1e-4)
        assert result and is_equivalent(near, result.reduced, tol=1e-4)
        assert not reduce_once(near)
        far = reduce_once(perturbed(1e-3), tol=1e-4)
        assert not far and far.residual > 1e-4


class TestHugeCoefficients:
    # squaring these entries overflows; the residual norms must not
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g1", [1e200, 1e300])
    def test_lift_of_huge_gain_is_equivalent_and_reduces(self, g1):
        base = IOModel.scalar([0.5], [0.0, g1])
        high = lift_once(base, 0.3)
        cert = is_equivalent(base, high)
        assert cert.equivalent and np.isfinite(cert.residual)
        report = reducibility_check(high)
        assert report.reducible and report.irreducible_model.n == 1
        assert is_equivalent(base, report.irreducible_model)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_lift_is_a_numerical_failure(self):
        # the order-3 lift is exact, but its transition blocks hold 1e400
        base = IOModel.scalar([1e200], [1.0, 1.0])
        high = lift_once(lift_once(base, 0.5), 0.3)
        with pytest.raises(NumericalError, match="order-3 lift of the order-1 model overflows"):
            is_equivalent(base, high)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model,message", [
        # an exact lift whose roots 0.5 and 0.3 sit far below the rounding
        # of its 1e200 coefficient: no reduction could be re-checked
        (lift_once(lift_once(IOModel.scalar([1e200], [1.0, 1.0]), 0.5), 0.3),
         "order-3 lift of the order-2 model overflows"),
        # p = 2 with 1e200 feedback blocks: the eigenvalue factors overflow
        (lift_once(IOModel(n=1, p=2, m=1, F=[1e200 * np.eye(2)], G=[np.ones((2, 1))] * 2),
                   0.5 * np.eye(2)),
         "reduction search overflows: a product of eigenvalue factors"),
        # F1 G0 overflows in the companion's input block
        (IOModel.scalar([1e200], [1e200, 1.0]), "reduction search overflows: the companion"),
    ])
    def test_overflowing_search_is_a_numerical_failure(self, model, message):
        with pytest.raises(NumericalError, match=message):
            reducibility_check(model)


class TestUnresolvedEigenvalues:
    # eps * ||C||_F is 2.9e-8 at s = 1e8 and 2.9e-7 at 1e9: the common roots
    # 0.5 and 0.3 are then located no better than the tolerance, and a
    # search that misses them proves nothing
    @pytest.mark.parametrize("s,order", [(1e9, 2), (1e10, 2), (1e12, 2),
                                         (1e20, 3), (1e100, 3), (1e150, 3)])
    @pytest.mark.filterwarnings("error")
    def test_failed_search_below_resolution_is_not_proven(self, s, order):
        high = lift_once(lift_once(IOModel.scalar([s], [1.0, 1.0]), 0.5), 0.3)
        report = reducibility_check(high)
        assert report.irreducible_model.n == order and not report.proven

    @pytest.mark.parametrize("g", [1.0, 1e6, 1e8])
    def test_input_scale_leaves_the_eigenvalues_resolved(self, g):
        # the eigenvalues are those of the companion of A(z) alone: a large
        # input gain must not cost an irreducible model its proof
        model = IOModel.scalar([0.5, 0.2], [g, 2.0 * g, 3.0 * g])
        for high in (model, lift_once(model, 0.3)):
            report = reducibility_check(high)
            assert report.irreducible_model.n == 2 and report.proven

    @pytest.mark.parametrize("s", [1e2, 1e8])
    def test_resolved_lifts_still_reduce_and_prove(self, s):
        base = IOModel.scalar([s], [1.0, 1.0])
        report = reducibility_check(lift_once(lift_once(base, 0.5), 0.3))
        assert report.irreducible_model.n == 1 and report.proven
        assert is_equivalent(base, report.irreducible_model)


class TestReducibilityCheck:
    def test_order_zero_irreducible(self):
        z = IOModel(n=0, p=1, m=1, F=[], G=[np.eye(1)])
        report = reducibility_check(z)
        assert not report.reducible and report.proven

    def test_double_lift_chain(self):
        high = lift_once(lift_once(SCALAR, 0.3), -0.2)
        report = reducibility_check(high)
        assert report.irreducible_model.n == 1
        assert len(report.witnesses) == 2
        assert is_equivalent(high, report.irreducible_model)
        # verify with the output oracle as well
        rng = np.random.default_rng(9)
        assert simulation_equivalence_oracle(high, report.irreducible_model, rng) is True

    def test_random_irreducible_scalar(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            f1 = float(rng.uniform(-0.9, 0.9))
            g0, g1 = rng.uniform(-1, 1, 2)
            if abs(g1 - f1 * g0) < 0.05:
                continue  # too close to reducible
            m = IOModel.scalar([f1], [g0, g1])
            report = reducibility_check(m)
            assert not report.reducible and report.proven

    def test_equal_lifts_reduce_to_base_order(self):
        # numpy returns the double root 0.5 of both witness polynomials as
        # 0.5 +- 1.9e-8j; dropping it on its imaginary part left order 3
        base = IOModel.scalar([0.3], [1.0, 1.0])
        high = lift_once(lift_once(base, [[0.5]]), [[0.5]])
        report = reducibility_check(high)
        assert report.irreducible_model.n == 1 and report.proven
        assert is_equivalent(base, report.irreducible_model)

    @pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 1e-6])
    def test_repeated_and_near_repeated_lifts_reduce_to_base_order(self, gap):
        # Lifting by d and d + gap puts a (near-)double root into both
        # witness polynomials; every draw must come back to the base order.
        rng = np.random.default_rng(13)
        for trial in range(90):
            n = trial % 3
            base = random_stable_model(rng, n, 1, 1)
            if reducibility_check(base).reducible:
                continue  # the draw has a common factor of its own
            d = float(rng.uniform(-0.8, 0.8))
            high = lift_once(lift_once(base, [[d]]), [[d + gap]])
            report = reducibility_check(high)
            assert report.irreducible_model.n == n and report.proven, (trial, d)
            assert is_equivalent(base, report.irreducible_model), (trial, d)

    def test_generic_mimo_model_is_proven_irreducible(self):
        rng = np.random.default_rng(11)
        for n in range(4):
            base = random_stable_model(rng, n, 2, 1)
            report = reducibility_check(base)
            assert not report.reducible and report.proven, n

    def test_siso_model_with_two_inputs_reduces(self):
        # the root search read the flattened (1, 2) G blocks as scalars and
        # called this lift proven irreducible
        base = IOModel(n=1, p=1, m=2, F=[[[0.5]]], G=[[[1.0, -0.4]], [[0.3, 0.2]]])
        report = reducibility_check(lift_once(base, [[0.4]]))
        assert report.irreducible_model.n == 1 and report.proven
        assert is_equivalent(base, report.irreducible_model)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("lift", ["one", "two-distinct", "scaled-identity",
                                      "jordan-block", "three-equal", "zero-padding"])
    def test_mimo_lifts_reduce_to_base_order(self, p, lift):
        rng = np.random.default_rng([p, len(lift)])
        for n in range(4):
            base = random_stable_model(rng, n, p, 2)
            assert not reducibility_check(base).reducible, n
            D = random_contraction(rng, p)
            c = float(rng.uniform(-0.8, 0.8))
            if lift == "one":
                high = lift_once(base, D)
            elif lift == "two-distinct":
                high = lift_once(lift_once(base, D), random_contraction(rng, p))
            elif lift == "scaled-identity":
                high = lift_once(base, c * np.eye(p))
            elif lift == "jordan-block":
                high = lift_once(base, c * np.eye(p) + np.eye(p, k=1))
            elif lift == "three-equal":
                high = lift_once(lift_once(lift_once(base, D), D), D)
            else:
                high = trivial_embed(base, n + 6 - n % 3)
            report = reducibility_check(high)
            assert report.irreducible_model.n == n and report.proven, (n, high.n)
            assert is_equivalent(base, report.irreducible_model), (n, high.n)
