"""Cross-order equivalence and one-step order reduction.

Two models (possibly of different orders) are equivalent when they produce
identical outputs under shared inputs and shared initial conditions.  The
test is a linear identity on the flattened coefficients through the lift
matrix ``M``.  Equal orders are its ``q = n_hat - n = 0`` case: ``M`` is the
identity and the target is the base model's own coefficients, so a model of
the same order is equivalent only to itself.

``M`` is defined here as the regressor lift: the matrix mapping the reduced
regressor (negated oldest outputs of the high-order window, then the full
input window) to the full high-order regressor.  Because regressors stack
negated outputs, the input blocks of the top band enter with a minus sign
relative to the coefficient-consolidation identity; with the model's
flattened layout ``theta = [F1..Fn G0..Gn]`` the consolidation identity then
reads simply ``theta_high @ M == [F_cons G_cons]``.

A model of order N reduces by one step when ``[A(z) B(z)]`` has a left
factor ``I + D z^-1``: then ``X = -D`` is a common left solvent of the two
polynomials, and the rows of ``[I X .. X^{N-1}]`` span an invariant subspace
of the block companion pair that the inputs cannot reach.  One search over
that uncontrollable subspace serves every output dimension p; this is the
classical left-coprimeness test (Kailath, *Linear Systems*, 1980; Gohberg,
Lancaster & Rodman, *Matrix Polynomials*, 1982).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model_core import IOModel, _companion, _transition_blocks

DEFAULT_TOL = 1e-8
# Rank threshold of the Krylov staircase, relative to ||[C Gc]||_2, per unit
# of the tolerance (never below DEFAULT_TOL): a near-common factor whose
# reduction residual is below tol leaves a Krylov singular value below about
# this multiple of tol.  At DEFAULT_TOL the threshold is 1e-6.
_RANK_PER_TOL = 100.0
# Bound on the eigenvalue choices one reduction step enumerates.
_MAX_CHOICES = 1000


def build_lift_matrix(base: IOModel, n_hat: int) -> np.ndarray:
    """Read-only regressor lift ``M`` from order ``n`` windows to order
    ``n_hat >= n`` windows, of shape (p*n_hat + m*(n_hat+1), p*n + m*(n_hat+1)).

    Block layout: ``M = [[M1, M2], [I, 0], [0, I]]`` where the i-th row band
    (i = 1..n_hat-n, top to bottom) is ``[-F_{n, q-i}, -[0 G_{n, q-i}]]``
    with ``q = n_hat - n`` and transition blocks of the base model, so
    ``M1 = M[:p*q, :p*n]`` and ``M2 = M[:p*q, p*n:]``.  At ``q = 0`` the
    bands are empty and ``M`` is the identity.
    """
    return _lift_and_target(base, n_hat)[0]


def _lift_and_target(base: IOModel, n_hat: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only lift matrix and ``[F_q G_q]``, ``q = n_hat - n``:
    offsets 0..q of the base model's transition blocks, from one impulse
    response.  At ``q = 0`` these are the identity and ``[F_0 G_0] =
    base.theta``."""
    n, p, m = base.n, base.p, base.m
    if n_hat < n:
        raise ValidationError(f"lift target order {n_hat} is below base order {n}")
    q = n_hat - n
    blocks = _transition_blocks(base, range(q + 1))
    rows, cols = p * n_hat + m * (n_hat + 1), p * n + m * (n_hat + 1)
    M = np.eye(rows, cols, k=-p * q)
    for i in range(1, q + 1):
        Fj, Gj = blocks[q - i]
        M[(i - 1) * p: i * p, : p * n] = -Fj
        M[(i - 1) * p: i * p, p * n + i * m:] = -Gj
    M.setflags(write=False)
    return M, np.concatenate(blocks[q], axis=1)


def _frobenius(a: np.ndarray) -> float:
    """Frobenius norm of ``a``.  The entries are first divided by a power of
    two above the largest, so no square overflows; the division is exact, so
    in range this is ``np.linalg.norm``'s result."""
    flat = a.ravel()
    top = float(np.maximum.reduce(np.abs(flat), initial=0.0))
    if not 0.0 < top < math.inf:
        return top
    scale = math.ldexp(1.0, math.frexp(top)[1])
    flat = flat / scale
    return math.sqrt(flat @ flat) * scale


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
    equivalence residual of a flattened order-``n_hat`` ``theta`` against
    ``base`` (lift ``M``, ``q = n_hat - n >= 0`` step transition blocks); the
    relative one is scaled by ``1 + max(||theta||, ||[F_q G_q]||)``."""
    M, target = _lift_and_target(base, n_hat)
    if theta.shape != (base.p, M.shape[0]):
        raise ValidationError(
            f"theta has shape {theta.shape}, expected {(base.p, M.shape[0])}"
        )
    raw = _frobenius(theta @ M - target)
    return raw, raw / (1.0 + max(_frobenius(theta), _frobenius(target)))


def is_equivalent(a: IOModel, b: IOModel, tol: float = DEFAULT_TOL) -> EquivalenceCertificate:
    """Decide equivalence of two models, of equal or different orders.

    The residual is :func:`lift_residual` of the higher-order model against
    the lower-order one: a Frobenius norm scaled by ``1 + max coefficient
    norm``.  At equal orders the lift is the identity, so it is the
    coefficient distance ``||a.theta - b.theta||``; the certificate's
    ``condition`` names which case was tested.
    """
    if (a.p, a.m) != (b.p, b.m):
        raise ValidationError("models must share output/input dimensions")
    base, high = (a, b) if a.n < b.n else (b, a)
    raw, rel = lift_residual(high.theta, base, high.n)
    return EquivalenceCertificate(
        equivalent=bool(rel <= tol), residual=rel, raw_residual=raw,
        condition="same-order-coefficients" if base.n == high.n else "cross-order-lift",
        tol=tol, low_order=base.n, high_order=high.n,
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
    ``proven`` is True on success and when a failed search shows that no
    order n-1 equivalent exists.
    """

    success: bool
    reduced: IOModel | None
    witness: np.ndarray | None
    residual: float
    proven: bool

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


def _condition_residual(high: IOModel, F1: np.ndarray, scale: float) -> float:
    """Defect of the reduction conditions at ``F1``, relative to ``scale =
    1 + ||high.theta||_F``, which a search computes once for all witnesses."""
    _, _, cond_F, cond_G = _reduction_chain(high, F1)
    return _frobenius(np.hstack([cond_F, cond_G])) / scale


def _build_reduced(high: IOModel, F1: np.ndarray) -> IOModel:
    F_red, G_red, _, _ = _reduction_chain(high, F1)
    return IOModel(n=high.n - 1, p=high.p, m=high.m, F=F_red, G=G_red)


def _polish(high: IOModel, F1: np.ndarray) -> np.ndarray:
    """``F1`` after one Gauss-Newton step on the reduction conditions.  The
    chain is polynomial in ``F1``, so a complex step gives its Jacobian
    exactly, one batched chain for all ``p * p`` directions."""
    p = high.p
    h = 1e-20
    _, _, cond_F, cond_G = _reduction_chain(high, F1 + 1j * h * np.eye(p * p).reshape(-1, p, p))
    res = np.concatenate([cond_F.reshape(p * p, -1), cond_G.reshape(p * p, -1)], axis=1)
    step = np.linalg.lstsq(res.imag.T / h, res[0].real, rcond=None)[0]
    return F1 - step.reshape(p, p)


def _uncontrollable_subspace(high: IOModel, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Block companion ``C`` of ``[A(z) B(z)]`` and an orthonormal row basis
    ``Z`` of its uncontrollable left subspace ``{z : z C^j Gc = 0, all j}``.

    ``X`` is a common left solvent (``D = -X`` reduces the model) exactly
    when ``W = [I X .. X^{N-1}]`` satisfies ``W C = X W`` and ``W Gc = 0``,
    so the rows of ``W`` span a ``p``-dimensional ``C``-invariant subspace
    of ``Z``'s span.  ``Z`` is the complement of the controllable subspace,
    which an orthonormalised Krylov staircase on ``(C, Gc)`` spans.
    """
    p, N = high.p, high.n
    C = _companion(high)
    Gc = np.vstack([high.G[N - k] - high.F[N - k - 1] @ high.G[0] for k in range(N)])
    floor = _RANK_PER_TOL * max(tol, DEFAULT_TOL) * np.linalg.norm(np.hstack([C, Gc]), 2)
    basis = np.zeros((p * N, 0))
    block = Gc
    while block.shape[1] and basis.shape[1] < p * N:
        for _ in range(2):  # a second pass restores orthogonality
            block = block - basis @ (basis.T @ block)
        U, s, _ = np.linalg.svd(block, full_matrices=False)
        new = U[:, s > floor]
        basis = np.hstack([basis, new])
        block = C @ new
    Z = np.linalg.svd(basis)[0][:, basis.shape[1]:].T if basis.shape[1] else np.eye(p * N)
    return C, Z


def _candidate_witnesses(high: IOModel, tol: float):
    """Witnesses ``F1`` worth a residual test, and whether their failure
    proves the model irreducible.

    First ``D = 0`` (exact for zero-padded models), then one witness per
    conjugation-closed choice of ``p`` eigenvalues of ``Z C Z^T``: the left
    null space ``Q`` of the product of their real factors spans an invariant
    subspace ``V = Q^T Z`` of ``C``, and ``X = V_0^{-1} (V C)_0`` from the
    first blocks of ``V`` and ``V C``.  Each witness is also tried after one
    :func:`_polish` step.  A complex pair within ``sqrt(tol)`` of the real
    axis, the split of a double root perturbed by ``tol``, is also tried as
    a real eigenvalue twice.

    Failure proves irreducibility when ``Z`` is too small to hold a solvent,
    and for ``p = 1``, where every real eigenvalue of ``Z C Z^T`` is tried.
    """
    p = high.p
    C, Z = _uncontrollable_subspace(high, tol)
    r = Z.shape[0]
    near_real = np.sqrt(max(tol, DEFAULT_TOL))
    witnesses = [high.F[0]]
    units = []  # (eigenvalues, real factor of Lam)
    if r >= p:
        Lam = Z @ C @ Z.T
        eye = np.eye(r)
        for lam in np.linalg.eigvals(Lam):
            if lam.imag == 0.0:
                units.append(((lam.real,), Lam - lam.real * eye))
            elif lam.imag > 0.0:
                units.append(((lam, lam.conjugate()),
                              Lam @ Lam - 2.0 * lam.real * Lam + abs(lam) ** 2 * eye))
                if lam.imag <= near_real * (1.0 + abs(lam)):
                    # a repeated real eigenvalue comes back as such a pair
                    units += [((lam.real,), Lam - lam.real * eye)] * 2
        combos = (c for k in range((p + 1) // 2, p + 1)
                  for c in itertools.combinations(units, k))
        seen = set()
        for combo in itertools.islice(combos, _MAX_CHOICES):
            values = [v for vals, _ in combo for v in vals]
            key = tuple(sorted(values, key=lambda v: (v.real, v.imag)))
            if len(values) != p or key in seen:
                continue
            seen.add(key)
            Q = np.linalg.svd(functools.reduce(np.matmul, [f for _, f in combo]))[0][:, -p:]
            V = Q.T @ Z
            try:
                X = np.linalg.solve(V[:, :p], (V @ C)[:, :p])
            except np.linalg.LinAlgError:
                continue
            # at a repeated root the Jacobian is singular and the step wild
            witnesses += [high.F[0] + X, _polish(high, high.F[0] + X)]

    return witnesses, r < p or (p == 1 and len(units) <= _MAX_CHOICES)


def reduce_once(model: IOModel, tol: float = DEFAULT_TOL) -> ReductionResult:
    """Search for an equivalent model of order n-1.

    Every witness of :func:`_candidate_witnesses` is tried; one must pass
    the condition residual and then :func:`is_equivalent` on the model it
    builds.
    """
    if model.n < 1:
        raise ValidationError("cannot reduce a model of order 0")
    witnesses, proven = _candidate_witnesses(model, tol)
    scale = 1.0 + _frobenius(model.theta)
    residuals = [_condition_residual(model, F1, scale) for F1 in witnesses]
    # the smallest residual first: of several exact witnesses, the best
    # conditioned one leaves the reduced model the least round-off
    order = np.argsort(residuals, kind="stable")
    for i in order:
        if not residuals[i] <= tol:
            break
        reduced = _build_reduced(model, witnesses[i])
        # the lift identity re-checks what the conditions accepted
        if is_equivalent(model, reduced, tol=max(tol, 1e-7)):
            return ReductionResult(True, reduced, witnesses[i], residuals[i], True)
    # a witness within tol that the re-check refused proves nothing
    best = residuals[order[0]]
    return ReductionResult(False, None, None, best, proven and not best <= tol)


@dataclass(frozen=True, eq=False)
class ReducibilityReport:
    """Result of repeated reduction until no witness is found.

    ``proven`` is False when, for ``p > 1``, the last search found an
    invariant subspace of the right dimension but no witness in it passed the
    checks, or when a witness within tol failed the equivalence re-check:
    then "no witness found" is all the report can say.
    """

    original: IOModel
    irreducible_model: IOModel
    witnesses: tuple
    residuals: tuple
    proven: bool

    @property
    def reducible(self) -> bool:
        return self.irreducible_model.n < self.original.n


def reducibility_check(model: IOModel, tol: float = DEFAULT_TOL) -> ReducibilityReport:
    """Apply :func:`reduce_once` until failure, collecting the witness chain."""
    current = model
    witnesses = []
    residuals = []
    proven = True
    while current.n >= 1:
        step = reduce_once(current, tol=tol)
        if not step:
            proven = step.proven
            break
        witnesses.append(step.witness)
        residuals.append(step.residual)
        current = step.reduced
    return ReducibilityReport(
        original=model, irreducible_model=current,
        witnesses=tuple(witnesses), residuals=tuple(residuals), proven=proven,
    )
