"""Cross-order equivalence and one-step order reduction.

Two models (possibly of different orders) are equivalent when they produce
identical outputs under shared inputs and shared initial conditions.  For
equal orders this forces equal coefficients; across orders the test is a
linear identity on the flattened coefficients through the lift matrix ``M``.

``M`` is defined here as the regressor lift: the matrix mapping the reduced
regressor (negated oldest outputs of the high-order window, then the full
input window) to the full high-order regressor.  Because regressors stack
negated outputs, the input blocks of the top band enter with a minus sign
relative to the coefficient-consolidation identity; with the model's
flattened layout ``theta = [F1..Fn G0..Gn]`` the consolidation identity then
reads simply ``theta_high @ M == [F_cons G_cons]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ValidationError
from .model_core import IOModel, _transition_blocks

DEFAULT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LiftMatrix:
    """Regressor lift from order ``n`` windows to order ``n_hat`` windows.

    Block layout: ``M = [[M1, M2], [I, 0], [0, I]]`` where the i-th row band
    (i = 1..n_hat-n, top to bottom) is ``[-F_{n, q-i}, -[0 G_{n, q-i}]]``
    with ``q = n_hat - n`` and transition blocks of the base model.
    """

    n: int
    n_hat: int
    p: int
    m: int
    M: np.ndarray
    M1: np.ndarray
    M2: np.ndarray

    def __post_init__(self):
        for name in ("M", "M1", "M2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def build_lift_matrix(base: IOModel, n_hat: int) -> LiftMatrix:
    """Lift matrix of shape (p*n_hat + m*(n_hat+1), p*n + m*(n_hat+1))."""
    return _lift_and_target(base, n_hat)[0]


def _lift_and_target(base: IOModel, n_hat: int) -> tuple[LiftMatrix, np.ndarray]:
    """The lift matrix and ``[F_q G_q]``, ``q = n_hat - n``: offsets 0..q of
    the base model's transition blocks, from one impulse response."""
    n, p, m = base.n, base.p, base.m
    if n_hat <= n:
        raise ValidationError(f"lift target order {n_hat} must exceed base order {n}")
    q = n_hat - n
    blocks = _transition_blocks(base, range(q + 1))
    rows, cols = p * n_hat + m * (n_hat + 1), p * n + m * (n_hat + 1)
    M = np.eye(rows, cols, k=-p * q)
    for i in range(1, q + 1):
        Fj, Gj = blocks[q - i]
        M[(i - 1) * p: i * p, : p * n] = -Fj
        M[(i - 1) * p: i * p, p * n + i * m:] = -Gj
    lift = LiftMatrix(n=n, n_hat=n_hat, p=p, m=m, M=M,
                      M1=M[: p * q, : p * n], M2=M[: p * q, p * n:])
    return lift, np.concatenate(blocks[q], axis=1)


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Verdict plus the residual that produced it."""

    equivalent: bool
    residual: float
    raw_residual: float
    condition: str
    tol: float
    low_order: int
    high_order: int

    def __bool__(self) -> bool:
        return self.equivalent


def lift_residual(theta: np.ndarray, base: IOModel, n_hat: int) -> tuple[float, float]:
    """Raw and relative Frobenius norm of ``theta @ M - [F_q G_q]``, the
    cross-order residual of a flattened order-``n_hat`` ``theta`` against
    ``base`` (lift ``M``, ``q = n_hat - n`` step transition blocks); the
    relative one is scaled by ``1 + max(||theta||, ||[F_q G_q]||)``."""
    lift, target = _lift_and_target(base, n_hat)
    if theta.shape != (base.p, lift.M.shape[0]):
        raise ValidationError(
            f"theta has shape {theta.shape}, expected {(base.p, lift.M.shape[0])}"
        )
    raw = float(np.linalg.norm(theta @ lift.M - target))
    return raw, raw / (1.0 + max(np.linalg.norm(theta), np.linalg.norm(target)))


def is_equivalent(a: IOModel, b: IOModel, tol: float = DEFAULT_TOL) -> EquivalenceCertificate:
    """Decide equivalence of two models, of equal or different orders.

    Residuals are Frobenius norms scaled by ``1 + max coefficient norm``.
    Equal orders compare coefficients directly; different orders test the
    lift identity against the base model's transition blocks
    (:func:`lift_residual`).
    """
    if (a.p, a.m) != (b.p, b.m):
        raise ValidationError("models must share output/input dimensions")
    if a.n == b.n:
        raw = float(np.linalg.norm(a.theta - b.theta))
        scale = 1.0 + max(np.linalg.norm(a.theta), np.linalg.norm(b.theta))
        rel = raw / scale
        return EquivalenceCertificate(
            equivalent=bool(rel <= tol), residual=rel, raw_residual=raw,
            condition="same-order-coefficients", tol=tol,
            low_order=a.n, high_order=b.n,
        )
    base, high = (a, b) if a.n < b.n else (b, a)
    raw, rel = lift_residual(high.theta, base, high.n)
    return EquivalenceCertificate(
        equivalent=bool(rel <= tol), residual=rel, raw_residual=raw,
        condition="cross-order-lift", tol=tol,
        low_order=base.n, high_order=high.n,
    )


def trivial_embed(model: IOModel, n_hat: int) -> IOModel:
    """Zero-padded equivalent model of order ``n_hat >= n``."""
    if n_hat < model.n:
        raise ValidationError(f"embedding order {n_hat} is below model order {model.n}")
    p, m = model.p, model.m
    zero_F = np.zeros((p, p))
    zero_G = np.zeros((p, m))
    F = list(model.F) + [zero_F] * (n_hat - model.n)
    G = list(model.G) + [zero_G] * (n_hat - model.n)
    return IOModel(n=n_hat, p=p, m=m, F=F, G=G)


def lift_once(model: IOModel, D) -> IOModel:
    """Equivalent model of order n+1 parameterized by a (p, p) block D.

    Inverse of :func:`reduce_once`: reducing the result with witness
    ``F1 = lifted.F[0] - D`` recovers the original coefficients.
    """
    D = np.atleast_2d(np.asarray(D, dtype=float))
    p, m, n = model.p, model.m, model.n
    if D.shape != (p, p):
        raise ValidationError(f"D has shape {D.shape}, expected {(p, p)}")
    F_ext = [np.eye(p)] + list(model.F)
    F = [model.F[i - 1] + D @ F_ext[i - 1] if i <= n else D @ F_ext[n]
         for i in range(1, n + 2)]
    G = [model.G[0]]
    G += [model.G[j] + D @ model.G[j - 1] for j in range(1, n + 1)]
    G += [D @ model.G[n]]
    return IOModel(n=n + 1, p=p, m=m, F=F, G=G)


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Outcome of a one-step reduction attempt.

    ``residual`` is the relative defect of the reduction conditions at the
    best candidate found (0-ish on success, the best near-miss otherwise).
    """

    success: bool
    reduced: IOModel | None
    witness: np.ndarray | None
    residual: float
    strategy: str

    def __bool__(self) -> bool:
        return self.success


def _reduction_chain(high: IOModel, F1: np.ndarray):
    """Reduced coefficient blocks and condition residuals for a witness F1."""
    p, m, n_hat = high.p, high.m, high.n
    D = high.F[0] - F1
    # F0 is the identity by convention, which makes the order-0 target work.
    F_red = []
    last_F = np.eye(p)
    for i in range(1, n_hat):
        last_F = high.F[i - 1] - D @ last_F if i > 1 else F1
        F_red.append(last_F)
    G_red = [high.G[0]]
    last_G = high.G[0]
    for j in range(1, n_hat):
        last_G = high.G[j] - D @ last_G
        G_red.append(last_G)
    cond_F = D @ (F_red[-1] if F_red else np.eye(p)) - high.F[n_hat - 1]
    cond_G = D @ G_red[-1] - high.G[n_hat]
    return F_red, G_red, cond_F, cond_G


def _condition_residual(high: IOModel, F1: np.ndarray) -> float:
    _, _, cond_F, cond_G = _reduction_chain(high, F1)
    scale = 1.0 + float(np.linalg.norm(high.theta))
    return float(np.sqrt(np.linalg.norm(cond_F) ** 2 + np.linalg.norm(cond_G) ** 2)) / scale


def _build_reduced(high: IOModel, F1: np.ndarray) -> IOModel:
    F_red, G_red, _, _ = _reduction_chain(high, F1)
    return IOModel(n=high.n - 1, p=high.p, m=high.m, F=F_red, G=G_red)


def _scalar_condition_polys(high: IOModel) -> tuple[Polynomial, Polynomial]:
    """The two reduction conditions as polynomials in d = F1_hat - F1 (p=1)."""
    n_hat = high.n
    f = [float(x) for x in np.concatenate([blk.ravel() for blk in high.F])]
    g = [float(x) for x in np.concatenate([blk.ravel() for blk in high.G])]
    d = Polynomial([0.0, 1.0])
    F_last = Polynomial([1.0])  # F0 = 1 convention
    for i in range(1, n_hat):
        F_last = (f[0] - d) if i == 1 else f[i - 1] - d * F_last
    G_last = Polynomial([g[0]])
    for j in range(1, n_hat):
        G_last = g[j] - d * G_last
    cond_F = d * F_last - f[n_hat - 1]
    cond_G = d * G_last - g[n_hat]
    return cond_F, cond_G


def _root_candidates(poly: Polynomial, zero_tol: float) -> list[float] | None:
    """Real parts of the roots of ``poly``; None when the polynomial is
    numerically zero.  A repeated real root comes back as a pair ``r +- e*i``
    with ``e`` near ``sqrt(eps)``, so no root is dropped for its imaginary
    part: the caller's residual test rejects the real part of a genuinely
    complex pair."""
    coefs = poly.coef
    scale = max(1.0, float(np.max(np.abs(coefs))))
    if np.all(np.abs(coefs) <= zero_tol * scale) or np.all(np.abs(coefs) == 0.0):
        return None
    roots = Polynomial(np.trim_zeros(coefs, "b")).roots() if np.any(coefs) else []
    return [float(r.real) for r in roots]


def _reduce_scalar_roots(high: IOModel, tol: float) -> ReductionResult:
    cond_F, cond_G = _scalar_condition_polys(high)
    scale = 1.0 + float(np.linalg.norm(high.theta))
    candidates: list[float] = []
    roots_F = _root_candidates(cond_F, 1e-14)
    roots_G = _root_candidates(cond_G, 1e-14)
    if roots_F is None and roots_G is None:
        candidates = []
    elif roots_F is None:
        candidates = roots_G
    elif roots_G is None:
        candidates = roots_F
    else:
        candidates = roots_F + roots_G
    candidates.append(0.0)  # keeps the best-residual report finite
    best_res = np.inf
    best_D = None
    for d in candidates:
        res = float(np.hypot(cond_F(d), cond_G(d))) / scale
        if res < best_res:
            best_res, best_D = res, d
    if best_D is not None and best_res <= tol:
        F1 = np.array([[high.F[0][0, 0] - best_D]])
        return ReductionResult(True, _build_reduced(high, F1), F1, best_res,
                               "scalar-root-search")
    return ReductionResult(False, None, None,
                           best_res if np.isfinite(best_res) else np.inf,
                           "scalar-root-search")


def _reduce_newton(high: IOModel, tol: float, rng: np.random.Generator,
                   starts: int) -> ReductionResult:
    from scipy.optimize import least_squares

    p = high.p
    scale = 1.0 + float(np.linalg.norm(high.theta))

    def stacked_residual(x: np.ndarray) -> np.ndarray:
        F1 = x.reshape(p, p)
        _, _, cond_F, cond_G = _reduction_chain(high, F1)
        return np.concatenate([cond_F.ravel(), cond_G.ravel()]) / scale

    seeds = [high.F[0].ravel(), np.zeros(p * p)]
    seeds += [high.F[0].ravel() + 0.5 * rng.standard_normal(p * p)
              for _ in range(max(0, starts - len(seeds)))]
    best_res = np.inf
    best_F1 = None
    for x0 in seeds:
        try:
            sol = least_squares(stacked_residual, x0, method="lm", xtol=1e-14, ftol=1e-14)
        except Exception:
            continue  # a diverged start is not fatal; other starts may land
        res = float(np.linalg.norm(stacked_residual(sol.x)))
        if res < best_res:
            best_res, best_F1 = res, sol.x.reshape(p, p)
        if best_res <= tol / 10:
            break
    if best_F1 is not None and best_res <= tol:
        return ReductionResult(True, _build_reduced(high, best_F1), best_F1,
                               best_res, "newton-search")
    return ReductionResult(False, None, None, best_res, "newton-search")


def reduce_once(model: IOModel, strategy: str = "auto", tol: float = DEFAULT_TOL,
                candidate=None, rng: np.random.Generator | None = None,
                newton_starts: int = 8) -> ReductionResult:
    """Search for an equivalent model of order n-1.

    Strategies: ``verify-candidate`` checks a caller-supplied witness F1;
    ``scalar-root-search`` (p = 1 only) tries the real part of every root of
    the two witness polynomials; ``newton-search`` runs damped Gauss-Newton on the
    stacked condition residual from multiple starts.  ``auto`` picks the
    root search for p = 1 and the Newton search otherwise.  Every returned
    reduction is re-verified with :func:`is_equivalent`.
    """
    if model.n < 1:
        raise ValidationError("cannot reduce a model of order 0")
    if strategy == "auto":
        strategy = "scalar-root-search" if model.p == 1 else "newton-search"
    if strategy == "verify-candidate":
        if candidate is None:
            raise ValidationError("verify-candidate needs an explicit F1 candidate")
        F1 = np.atleast_2d(np.asarray(candidate, dtype=float))
        res = _condition_residual(model, F1)
        if res <= tol:
            result = ReductionResult(True, _build_reduced(model, F1), F1, res,
                                     strategy)
        else:
            result = ReductionResult(False, None, None, res, strategy)
    elif strategy == "scalar-root-search":
        if model.p != 1:
            raise ValidationError("scalar-root-search requires p = 1")
        result = _reduce_scalar_roots(model, tol)
    elif strategy == "newton-search":
        rng = rng if rng is not None else np.random.default_rng(0)
        result = _reduce_newton(model, tol, rng, newton_starts)
    else:
        raise ValidationError(f"unknown reduction strategy {strategy!r}")

    if result.success and not is_equivalent(model, result.reduced, tol=max(tol, 1e-7)):
        # Condition residual passed but the full lift identity does not:
        # treat as a near-miss rather than return an unsound reduction.
        return ReductionResult(False, None, None, result.residual, result.strategy)
    return result


@dataclass(frozen=True, eq=False)
class ReducibilityReport:
    """Result of repeated reduction until no witness is found.

    For p > 1 a failed search means "no witness found", not a proof of
    irreducibility; ``proven`` records the distinction.
    """

    original: IOModel
    irreducible_model: IOModel
    witnesses: tuple
    residuals: tuple
    proven: bool

    @property
    def reducible(self) -> bool:
        return self.irreducible_model.n < self.original.n

    @property
    def order_chain(self) -> tuple:
        return tuple(range(self.original.n, self.irreducible_model.n - 1, -1))


def reducibility_check(model: IOModel, tol: float = DEFAULT_TOL, strategy: str = "auto",
                       rng: np.random.Generator | None = None) -> ReducibilityReport:
    """Apply :func:`reduce_once` until failure, collecting the witness chain."""
    current = model
    witnesses = []
    residuals = []
    rng = rng if rng is not None else np.random.default_rng(0)
    while current.n >= 1:
        step = reduce_once(current, strategy=strategy, tol=tol, rng=rng)
        if not step:
            break
        witnesses.append(step.witness)
        residuals.append(step.residual)
        current = step.reduced
    proven = current.p == 1 or current.n == 0
    return ReducibilityReport(
        original=model, irreducible_model=current,
        witnesses=tuple(witnesses), residuals=tuple(residuals), proven=proven,
    )
