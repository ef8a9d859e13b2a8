"""Convergence targets and tracked identification runs.

A recursive fit of order ``n_hat >= n`` on persistently exciting data
converges to the equivalent order-``n_hat`` model ``theta_star`` that
minimizes the prior penalty ``tr[(theta - theta0) P0^{-1} (theta - theta0)^T]``
over the affine set ``(theta - theta_lifted) M = 0`` of models equivalent to
the true one.  A matching-order fit is the ``q = n_hat - n = 0`` case of
that result: the lift ``M`` is the identity, the set is the single point
``theta_true``, and so is ``theta_star``.  With a higher fit order the full
regressor is never weakly persistently exciting, yet the estimate still
converges.

``theta_star`` comes from the null-space method for equality-constrained
least squares (Golub & Van Loan, *Matrix Computations*, sections 6.2 and
12.1).  The lift's lower block is the identity, so ``N = [I, -M[:pq]]``
(``pq = p q`` rows) satisfies ``N M = 0``, and

    theta_star = theta_true + (theta0 - theta_true) Hc,
    Hc = P0^{-1} N^T (N P0^{-1} N^T)^{-1} N = C^{-T} X (X^T X)^{-1} N,

with ``X = C^{-1} N^T`` for the prior's Cholesky factor ``P0 = C C^T``
(:func:`sysid_rls.rls._prior`, the one factorization of ``P0``).  At
``q = 0`` ``N`` has no rows, ``Hc`` is zero and ``theta_star`` is
``theta_true`` exactly.  The scaled error ``k (theta_k - theta_star)``
approaches a closed-form matrix built from the reduced-regressor Gram limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalence import build_lift_matrix, lift_residual, trivial_embed
from .errors import NumericalError, ValidationError
from .excitation import GramLimit, estimate_gram_limit
from .model_core import IOModel, simulate
from .fileio import write_csv
from .rls import DEFAULT_P0_SCALE, _prior, initial_state, regressor_matrix, rls_fold


@dataclass(frozen=True, eq=False)
class ProjectedLimit:
    """Closed-form limit of RLS at fit order ``n_hat >= n``.

    ``H`` is idempotent with ``H M = M``; ``theta_star`` satisfies the
    equivalence constraint ``(theta_star - theta_lifted) M = 0`` and
    minimizes the prior penalty among all equivalent models.  At
    ``n_hat == n``, ``H`` is the identity and ``theta_star`` the true
    coefficients.
    """

    theta_star: np.ndarray
    H: np.ndarray


def _complement(model: IOModel, n_hat: int, C_inv: np.ndarray) -> np.ndarray:
    """``Hc = C^{-T} X (X^T X)^{-1} N`` with ``X = C^{-1} N^T``, ``P0 = C C^T``
    and ``N = [I, -M[:pq]]``: the projector ``I - H``, a zero matrix at
    ``n_hat == n``."""
    M = build_lift_matrix(model, n_hat)
    pq = M.shape[0] - M.shape[1]
    N = np.hstack([np.eye(pq), -M[:pq]])
    X = C_inv @ N.T
    try:
        return C_inv.T @ X @ np.linalg.solve(X.T @ X, N)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("P0 is not numerically positive definite") from exc


def projected_limit(model: IOModel, n_hat: int, theta0: np.ndarray,
                    P0: np.ndarray) -> ProjectedLimit:
    """Prior-penalty-minimal equivalent model of order ``n_hat >= n``."""
    theta_true = trivial_embed(model, n_hat).theta
    theta0, C_inv = _prior(theta0, P0)
    if theta0.shape != theta_true.shape:
        raise ValidationError(
            f"theta0 has shape {theta0.shape}, expected {theta_true.shape}"
        )
    Hc = _complement(model, n_hat, C_inv)
    return ProjectedLimit(theta_star=theta_true + (theta0 - theta_true) @ Hc,
                          H=np.eye(len(Hc)) - Hc)


def theta_equivalence_residual(theta_hat: np.ndarray, model: IOModel,
                               n_hat: int) -> float:
    """Relative norm of ``(theta_hat - theta_lifted) M``: the
    :func:`sysid_rls.equivalence.lift_residual` that
    :func:`sysid_rls.equivalence.is_equivalent` reports for the decoded model."""
    return lift_residual(np.asarray(theta_hat, dtype=float), model, n_hat)[1]


def predict_asymptote(limit: ProjectedLimit, theta0: np.ndarray, P0: np.ndarray,
                      C_reduced: np.ndarray) -> np.ndarray:
    """Limit of ``k (theta_k - theta_star)`` for the fit whose
    :func:`projected_limit` from ``theta0`` and ``P0`` is ``limit``.

    ``C_reduced`` is the (estimated) Gram limit of the reduced regressors,
    whose dimension fixes ``pq``.  The limit is ``(theta0 - theta_true)
    P0^{-1} S^T C^{-1} S`` with ``S = H[pq:]`` (the lift's lower block is the
    identity), and ``(theta0 - theta_true) P0^{-1} H^T = (theta0 -
    theta_star) P0^{-1}``; at ``n_hat == n``, ``S = I``.
    """
    theta0, C_inv = _prior(theta0, P0)
    C_reduced = np.asarray(C_reduced, dtype=float)
    if (limit.theta_star.shape != theta0.shape or C_reduced.ndim != 2
            or not C_reduced.shape[0] == C_reduced.shape[1] <= len(limit.H)):
        raise ValidationError(f"limit {limit.theta_star.shape}, theta0 {theta0.shape} and "
                              f"reduced Gram {C_reduced.shape} do not fit together")
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(C_reduced))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("the reduced Gram limit is not numerically positive definite") from exc
    pq = len(limit.H) - len(C_reduced)
    X = ((theta0 - limit.theta_star) @ C_inv.T @ C_inv)[:, pq:]
    return X @ L_inv.T @ L_inv @ limit.H[pq:]


@dataclass(frozen=True, eq=False)
class ConvergenceTrace:
    """Per-step distances to the convergence target of one tracked run.

    Index k holds the pre-update view: ``theta_k`` has seen samples
    ``0..k-1`` and ``residual_norm[k]`` is the innovation on sample k.
    """

    fit_order: int
    true_order: int
    ref_kind: str
    ks: np.ndarray
    dist_to_ref: np.ndarray
    residual_norm: np.ndarray
    theta_final: np.ndarray
    theta_ref: np.ndarray
    gram: GramLimit
    predicted_asymptote: np.ndarray
    empirical_scaled_final: np.ndarray
    asymptote_rel_error: float

    @property
    def final_dist(self) -> float:
        return float(self.dist_to_ref[-1]) if len(self.dist_to_ref) else 0.0

    @property
    def final_residual(self) -> float:
        return float(self.residual_norm[-1]) if len(self.residual_norm) else 0.0

    def summary_dict(self) -> dict:
        """The run's figures for a JSON summary; a non-finite one (no rate
        prediction without persistent excitation) is None, JSON ``null``."""
        return _finite_or_none({
            "fit_order": int(self.fit_order),
            "true_order": int(self.true_order),
            "ref_kind": self.ref_kind,
            "steps": int(len(self.ks)),
            "final_dist_to_ref": self.final_dist,
            "final_residual_norm": self.final_residual,
            "predicted_asymptote": self.predicted_asymptote.tolist(),
            "empirical_scaled_error": self.empirical_scaled_final.tolist(),
            "asymptote_rel_error": self.asymptote_rel_error,
            "gram_min_eig": float(np.linalg.eigvalsh(self.gram.C)[0]),
            "gram_stabilization": self.gram.stabilization,
        })


def _finite_or_none(obj):
    """``obj`` with every non-finite float in it, at any depth, set to None."""
    if isinstance(obj, dict):
        return {key: _finite_or_none(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_none(value) for value in obj]
    return None if isinstance(obj, float) and not np.isfinite(obj) else obj


def run_tracked_identification(model: IOModel, n_hat: int, inputs,
                               horizon: int, theta0: np.ndarray | None = None,
                               P0: np.ndarray | None = None,
                               p0_scale: float = DEFAULT_P0_SCALE) -> ConvergenceTrace:
    """Simulate the true model, fit order ``n_hat`` recursively, track errors.

    Parameters
    ----------
    inputs : array with at least ``horizon + n_hat`` rows.  The extra
        ``n_hat`` rows fill the pre-history so every sample from step 0 on
        has a full regressor window.
    horizon : number of RLS updates; must be >= n_hat.

    The reference is :func:`projected_limit`, the true coefficients at
    ``n_hat == n`` (``ref_kind`` "true", else "projected"); both the
    per-step distances and the final scaled error against
    :func:`predict_asymptote` are recorded.  One regressor block serves the
    fold and, through its trailing columns, the reduced-regressor Gram limit.
    """
    if n_hat < model.n:
        raise ValidationError(
            f"fit order {n_hat} is below the true order {model.n}; "
            "under-order identification is unsupported"
        )
    if horizon < max(n_hat, 1):
        raise ValidationError(f"horizon {horizon} is below the fit order {n_hat}")
    total = horizon + n_hat
    u = np.asarray(inputs, dtype=float)
    if u.shape[0] < total:
        raise ValidationError(f"need {total} inputs (horizon + fit order), got {u.shape[0]}")

    traj = simulate(model, np.zeros((model.n, model.p)), u, horizon=total, k0=-n_hat)
    Phi, Y, _ = regressor_matrix(traj, n_hat, np.arange(0, horizon))

    start = initial_state(n_hat, model.p, model.m, theta0=theta0, P0=P0,
                          p0_scale=p0_scale)
    limit = projected_limit(model, n_hat, start.theta, start.P)
    theta_ref = limit.theta_star

    state, record = rls_fold(start, Phi, Y, theta_ref=theta_ref)
    K = Phi.shape[0]

    gram = estimate_gram_limit(Phi[:, model.p * (n_hat - model.n):])
    try:
        predicted = predict_asymptote(limit, start.theta, start.P, gram.C)
    except NumericalError:
        # not persistently exciting (e.g. zero input): no rate prediction
        predicted = np.full_like(theta_ref, np.nan)
    empirical = K * (state.theta - theta_ref)
    denom = float(np.linalg.norm(predicted))
    rel = float(np.linalg.norm(empirical - predicted) / denom) \
        if np.isfinite(denom) and denom > 0 else float("nan")
    return ConvergenceTrace(
        fit_order=n_hat, true_order=model.n,
        ref_kind="true" if n_hat == model.n else "projected",
        ks=np.arange(K), dist_to_ref=record.dist_to_ref, residual_norm=record.residual_norm,
        theta_final=state.theta, theta_ref=theta_ref, gram=gram,
        predicted_asymptote=predicted, empirical_scaled_final=empirical,
        asymptote_rel_error=rel,
    )


def write_convergence_trace(path, trace: ConvergenceTrace) -> None:
    """Trace CSV with columns ``k, frob_err_to_ref, scaled_err_norm,
    residual_norm``, one row per update; ``scaled_err_norm`` is ``k *
    frob_err_to_ref``."""
    write_csv(path, ["k", "frob_err_to_ref", "scaled_err_norm", "residual_norm"],
              [trace.ks, trace.dist_to_ref, trace.ks * trace.dist_to_ref, trace.residual_norm])
