"""Convergence targets and tracked identification runs.

With the fit order equal to the true order and persistently exciting data,
the RLS estimate converges to the true coefficients and ``k * error``
approaches ``(theta0 - theta_true) P0^{-1} C^{-1}``.

With a higher fit order the full regressor is never weakly persistently
exciting, yet the estimate still converges: its limit is the equivalent
higher-order model ``theta_star`` that minimizes the prior penalty
``tr[(theta - theta0) P0^{-1} (theta - theta0)^T]`` over the affine set
``(theta - theta_lifted) M = 0``.  The minimizer is available in closed form
through the oblique projector ``H = M (M^T P0 M)^{-1} M^T P0``, and the
scaled error ``k (theta_k - theta_star)`` approaches a closed-form matrix
built from the reduced-regressor Gram limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalence import build_lift_matrix, lift_residual, trivial_embed
from .errors import NumericalError, ValidationError
from .excitation import GramLimit, estimate_gram_limit, reduced_regressor_matrix
from .model_core import IOModel, simulate
from .fileio import write_csv
from .rls import DEFAULT_P0_SCALE, initial_state, regressor_matrix, rls_fold


def lift_true(model: IOModel, n_hat: int) -> np.ndarray:
    """Zero-padded flattened coefficients ``[F 0 G 0]`` at order ``n_hat``."""
    if n_hat < model.n:
        raise ValidationError(f"lift order {n_hat} is below the model order {model.n}")
    return trivial_embed(model, n_hat).theta


@dataclass(frozen=True, eq=False)
class ProjectedLimit:
    """Closed-form limit of overparameterized RLS.

    ``H`` is idempotent with ``H M = M``; ``theta_star`` satisfies the
    equivalence constraint ``(theta_star - theta_lifted) M = 0`` and
    minimizes the prior penalty among all equivalent models.
    """

    theta_star: np.ndarray
    H: np.ndarray
    W: np.ndarray


def projected_limit(model: IOModel, n_hat: int, theta0: np.ndarray,
                    P0: np.ndarray) -> ProjectedLimit:
    """Prior-penalty-minimal equivalent model of order ``n_hat`` > n."""
    import scipy.linalg

    if n_hat <= model.n:
        raise ValidationError(f"projected limit needs n_hat > n, got {n_hat} <= {model.n}")
    M = build_lift_matrix(model, n_hat).M
    theta0 = np.asarray(theta0, dtype=float)
    P0 = np.asarray(P0, dtype=float)
    if theta0.shape != (model.p, M.shape[0]):
        raise ValidationError(
            f"theta0 has shape {theta0.shape}, expected {(model.p, M.shape[0])}"
        )
    W = M.T @ P0 @ M
    try:
        S = scipy.linalg.solve(W, M.T @ P0, assume_a="pos")
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError("lift Gram W is numerically singular") from exc
    H = M @ S
    theta_true = lift_true(model, n_hat)
    theta_star = theta0 + (theta_true - theta0) @ H
    return ProjectedLimit(theta_star=theta_star, H=H, W=W)


def theta_equivalence_residual(theta_hat: np.ndarray, model: IOModel,
                               n_hat: int) -> float:
    """Relative norm of ``(theta_hat - theta_lifted) M``: the
    :func:`sysid_rls.equivalence.lift_residual` that
    :func:`sysid_rls.equivalence.is_equivalent` reports for the decoded model."""
    return lift_residual(np.asarray(theta_hat, dtype=float), model, n_hat)[1]


def predict_correct_order_asymptote(theta0: np.ndarray, P0: np.ndarray,
                                    theta_true: np.ndarray, C_n: np.ndarray) -> np.ndarray:
    """Limit of ``k (theta_k - theta_true)`` for a matching-order fit."""
    import scipy.linalg

    E = np.asarray(theta0, dtype=float) - np.asarray(theta_true, dtype=float)
    try:
        X = scipy.linalg.solve(np.asarray(P0, dtype=float), E.T, assume_a="pos").T
        return scipy.linalg.solve(np.asarray(C_n, dtype=float), X.T, assume_a="pos").T
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError("P0 or the Gram limit is numerically singular") from exc


def predict_overparam_asymptote(theta0: np.ndarray, P0: np.ndarray, model: IOModel,
                                n_hat: int, C_reduced: np.ndarray) -> np.ndarray:
    """Limit of ``k (theta_k - theta_star)`` for an overparameterized fit.

    ``C_reduced`` is the (estimated) Gram limit of the reduced regressors.
    """
    import scipy.linalg

    M = build_lift_matrix(model, n_hat).M
    P0 = np.asarray(P0, dtype=float)
    theta_true = lift_true(model, n_hat)
    E = (np.asarray(theta0, dtype=float) - theta_true) @ M
    W = M.T @ P0 @ M
    try:
        X = scipy.linalg.solve(W, E.T, assume_a="pos").T
        X = scipy.linalg.solve(np.asarray(C_reduced, dtype=float), X.T, assume_a="pos").T
        X = scipy.linalg.solve(W, X.T, assume_a="pos").T
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError("W or the reduced Gram limit is numerically singular") from exc
    return X @ M.T @ P0


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
    scaled_err: np.ndarray
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


def run_tracked_identification(model: IOModel, n_hat: int, input_generator,
                               horizon: int, theta0: np.ndarray | None = None,
                               P0: np.ndarray | None = None,
                               p0_scale: float = DEFAULT_P0_SCALE) -> ConvergenceTrace:
    """Simulate the true model, fit order ``n_hat`` recursively, track errors.

    Parameters
    ----------
    input_generator : callable mapping a length to an (length, m) array, or a
        prebuilt array with at least ``horizon + n_hat`` rows.  The extra
        ``n_hat`` rows fill the pre-history so every sample from step 0 on
        has a full regressor window.
    horizon : number of RLS updates; must be >= n_hat.

    The reference is the true coefficients for ``n_hat == n`` and the
    projected limit for ``n_hat > n``; both the per-step distances and the
    final scaled error against the closed-form asymptote are recorded.
    """
    if n_hat < model.n:
        raise ValidationError(
            f"fit order {n_hat} is below the true order {model.n}; "
            "under-order identification is unsupported"
        )
    if horizon < max(n_hat, 1):
        raise ValidationError(f"horizon {horizon} is below the fit order {n_hat}")
    total = horizon + n_hat
    if callable(input_generator):
        u = np.asarray(input_generator(total), dtype=float)
    else:
        u = np.asarray(input_generator, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if u.shape[0] < total:
        raise ValidationError(f"need {total} inputs (horizon + fit order), got {u.shape[0]}")
    u = u[:total]

    traj = simulate(model, np.zeros((model.n, model.p)), u, horizon=total, k0=-n_hat)
    Phi, Y, ks = regressor_matrix(traj, n_hat, np.arange(0, horizon))

    state = initial_state(n_hat, model.p, model.m, theta0=theta0, P0=P0,
                          p0_scale=p0_scale)
    theta_start = state.theta.copy()
    P_start = state.P.copy()

    if n_hat == model.n:
        ref_kind = "true"
        theta_ref = model.theta
    else:
        ref_kind = "projected"
        theta_ref = projected_limit(model, n_hat, theta_start, P_start).theta_star

    state, record = rls_fold(state, Phi, Y, theta_ref=theta_ref)
    K = Phi.shape[0]

    if ref_kind == "true":
        gram = estimate_gram_limit(Phi)
    else:
        Phi_red, _ = reduced_regressor_matrix(traj, model.n, n_hat, ks)
        gram = estimate_gram_limit(Phi_red)
    try:
        if ref_kind == "true":
            predicted = predict_correct_order_asymptote(theta_start, P_start,
                                                        model.theta, gram.C)
        else:
            predicted = predict_overparam_asymptote(theta_start, P_start, model,
                                                    n_hat, gram.C)
    except NumericalError:
        # not persistently exciting (e.g. zero input): no rate prediction
        predicted = np.full_like(theta_ref, np.nan)
    empirical = K * (state.theta - theta_ref)
    denom = float(np.linalg.norm(predicted))
    rel = float(np.linalg.norm(empirical - predicted) / denom) \
        if np.isfinite(denom) and denom > 0 else float("nan")
    return ConvergenceTrace(
        fit_order=n_hat, true_order=model.n, ref_kind=ref_kind,
        ks=np.arange(K), dist_to_ref=record.dist_to_ref,
        scaled_err=np.arange(K) * record.dist_to_ref, residual_norm=record.residual_norm,
        theta_final=state.theta, theta_ref=theta_ref, gram=gram,
        predicted_asymptote=predicted, empirical_scaled_final=empirical,
        asymptote_rel_error=rel,
    )


def write_convergence_trace(path, trace: ConvergenceTrace) -> None:
    """Trace CSV with columns ``k, frob_err_to_ref, scaled_err_norm,
    residual_norm``, one row per update."""
    write_csv(path, ["k", "frob_err_to_ref", "scaled_err_norm", "residual_norm"],
              [trace.ks, trace.dist_to_ref, trace.scaled_err, trace.residual_norm])
