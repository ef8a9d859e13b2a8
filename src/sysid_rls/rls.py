"""Regularized recursive least squares over input/output regressors.

The regressor at time k for a fit order ``n`` stacks the negated past
outputs newest-first, then the inputs newest-first:

    phi[n, k] = [-y[k-1]; ...; -y[k-n]; u[k]; ...; u[k-n]]

so that exact data from a matching-order model satisfies
``y[k] = theta_true @ phi[n, k]``.  The cost after k samples is

    J(theta) = sum_i ||y_i - theta phi_i||^2
               + tr[(theta - theta0) P0^{-1} (theta - theta0)^T]

whose unique minimizer is tracked recursively via the covariance downdate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model_core import Trajectory

DEFAULT_P0_SCALE = 1e3
# covariances per batched eigvalsh of a fold's pmin_eig history
_PMIN_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class RegressorSample:
    """One (regressor, output) pair."""

    phi: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float).reshape(-1)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True, eq=False)
class RlsState:
    """Estimate theta (p x d), covariance P (d x d), step counter, and the
    optional running information matrix P_inv."""

    theta: np.ndarray
    P: np.ndarray
    k: int = 0
    P_inv: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    def check(self, tol_sym: float = 1e-12, tol_inv: float = 1e-8) -> None:
        """On-demand invariant check: symmetry, positive definiteness, and
        (when tracked) consistency of P with P_inv."""
        asym = float(np.max(np.abs(self.P - self.P.T)))
        if asym > tol_sym * (1.0 + float(np.max(np.abs(self.P)))):
            raise NumericalError(f"covariance asymmetry {asym:.3e}")
        eigs = np.linalg.eigvalsh(self.P)
        if eigs[0] <= 0:
            raise NumericalError(f"covariance lost positive definiteness (min eig {eigs[0]:.3e})")
        if self.P_inv is not None:
            defect = float(np.max(np.abs(self.P @ self.P_inv - np.eye(self.dim))))
            if defect > tol_inv:
                raise NumericalError(f"P @ P_inv deviates from identity by {defect:.3e}")


def regressor_dim(order: int, p: int, m: int) -> int:
    return p * order + m * (order + 1)


def initial_state(order: int, p: int, m: int, theta0: np.ndarray | None = None,
                  P0: np.ndarray | None = None, p0_scale: float = DEFAULT_P0_SCALE,
                  track_information: bool = False) -> RlsState:
    """Fresh state: theta0 defaults to zeros, P0 to p0_scale * I."""
    d = regressor_dim(order, p, m)
    theta = np.zeros((p, d)) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (p, d):
        raise ValidationError(f"theta0 has shape {theta.shape}, expected {(p, d)}")
    P = p0_scale * np.eye(d) if P0 is None else np.asarray(P0, dtype=float).copy()
    if P.shape != (d, d):
        raise ValidationError(f"P0 has shape {P.shape}, expected {(d, d)}")
    P_inv = spd_inverse(P) if track_information else None
    return RlsState(theta=theta, P=P, k=0, P_inv=P_inv)


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    import scipy.linalg

    try:
        c = scipy.linalg.cho_factor(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("matrix is not positive definite") from exc
    return scipy.linalg.cho_solve(c, np.eye(A.shape[0]))


def build_regressor(traj: Trajectory, k: int, order: int) -> RegressorSample:
    """Regressor/output pair at absolute time index k.

    Requires data back to ``k - order``; raises on window underflow or NaN
    input cells inside the window.
    """
    i = traj.index_of(k)
    if i < order:
        raise ValidationError(
            f"index {k} is too early for order {order} (needs {order} past samples)"
        )
    ys = traj.y[i - order:i][::-1]
    us = traj.u[i - order:i + 1][::-1]
    if not np.all(np.isfinite(us)):
        raise ValidationError(f"input window ending at {k} contains missing values")
    phi = np.concatenate([-ys.ravel(), us.ravel()])
    return RegressorSample(phi=phi, y=traj.y[i])


def regressor_matrix(traj: Trajectory, order: int, ks=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized regressors: (Phi, Y, ks) with Phi[i] = phi[order, ks[i]].

    Defaults to every fully-windowed index.  Matches
    :func:`build_regressor` bit for bit.  A missing cell is a validation
    error; a missing output cell, in a window or as a target, is named by
    its column and time index.
    """
    if ks is None:
        ks = np.arange(traj.k0 + order, traj.k_last + 1)
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0:
        raise ValidationError("no regressor indices available")
    idx = ks - traj.k0
    if idx.min() < order or idx.max() >= len(traj):
        raise ValidationError("requested indices fall outside the fully-windowed range")
    cols = [-traj.y[idx - lag] for lag in range(1, order + 1)]
    cols += [traj.u[idx - lag] for lag in range(0, order + 1)]
    Phi = np.hstack(cols)
    if not np.all(np.isfinite(Phi)):
        raise missing_window_value(traj, idx, range(1, order + 1))
    Y = traj.y[idx]
    if not np.all(np.isfinite(Y)):
        row, col = np.argwhere(~np.isfinite(Y))[0]
        raise ValidationError(
            f"output column y_{col + 1} is missing at k={ks[row]}, a regression target"
        )
    return Phi, Y, ks


def missing_window_value(traj: Trajectory, idx: np.ndarray, y_lags) -> ValidationError:
    """The error for regressor windows (ending at rows ``idx``, reading
    outputs at ``y_lags``) that hold a missing cell: the first missing
    output cell is named by column and time index, else the inputs are."""
    rows = np.unique((idx[:, None] - np.asarray(y_lags, dtype=int)).ravel())
    bad = np.argwhere(~np.isfinite(traj.y[rows]))
    if bad.size:
        row, col = bad[0]
        return ValidationError(
            f"output column y_{col + 1} is missing at k={traj.k0 + rows[row]}, "
            f"inside a regressor window"
        )
    return ValidationError("regressor windows contain missing input values")


def valid_regressor_indices(traj: Trajectory, order: int) -> np.ndarray:
    """Fully-windowed indices whose input windows contain no missing values.

    Records imported from files may have empty (NaN) input cells; every
    window touching one is dropped.
    """
    finite = np.all(np.isfinite(traj.u), axis=1).astype(int)
    window = np.convolve(finite, np.ones(order + 1, dtype=int), mode="valid")
    ok = window == order + 1
    ks = traj.k0 + order + np.flatnonzero(ok[: len(traj) - order])
    if ks.size == 0:
        raise ValidationError(f"no index has a complete order-{order} input window")
    return ks


def _stack(samples) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(samples, tuple) and len(samples) == 2:
        Phi, Y = samples
        return np.asarray(Phi, dtype=float), np.asarray(Y, dtype=float)
    return _stack_samples(samples)


def _stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a :class:`RegressorSample` sequence as ``(Phi, Y)``; samples
    of unequal regressor or output length are a validation error."""
    samples = list(samples)
    if not samples:
        return np.zeros((0, 0)), np.zeros((0, 0))
    phi_lens = {s.phi.shape[0] for s in samples}
    y_lens = {s.y.shape[0] for s in samples}
    if len(phi_lens) > 1 or len(y_lens) > 1:
        raise ValidationError(
            f"samples have regressor lengths {sorted(phi_lens)} and output lengths "
            f"{sorted(y_lens)}; all must agree"
        )
    return np.vstack([s.phi for s in samples]), np.vstack([s.y for s in samples])


def residual(theta: np.ndarray, sample: RegressorSample) -> np.ndarray:
    """Prediction error y - theta @ phi."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[1] != sample.phi.shape[0]:
        raise ValidationError(
            f"theta width {theta.shape[1]} does not match regressor length {sample.phi.shape[0]}"
        )
    return sample.y - theta @ sample.phi


def cost(theta_hat: np.ndarray, samples, theta0: np.ndarray, P0: np.ndarray) -> float:
    """Sum of squared residuals plus the P0-weighted prior penalty."""
    import scipy.linalg

    theta_hat = np.asarray(theta_hat, dtype=float)
    theta0 = np.asarray(theta0, dtype=float)
    Phi, Y = _stack(samples)
    data_term = 0.0
    if Phi.shape[0]:
        Z = Y - Phi @ theta_hat.T
        data_term = float(np.sum(Z * Z))
    E = theta_hat - theta0
    X = scipy.linalg.cho_solve(_cho(P0), E.T)
    return data_term + float(np.sum(E.T * X))


def _cho(P0: np.ndarray):
    import scipy.linalg

    try:
        return scipy.linalg.cho_factor(np.asarray(P0, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("P0 must be symmetric positive definite") from exc


def batch_solve(samples, theta0: np.ndarray, P0: np.ndarray) -> np.ndarray:
    """Unique minimizer of :func:`cost` over all supplied samples.

    ``samples`` may be a sequence of :class:`RegressorSample` or a prestacked
    ``(Phi, Y)`` pair with Phi of shape (K, d) and Y of shape (K, p).  Solved
    by factorization of the regularized normal equations; the P0 term keeps
    them nonsingular even with no data.
    """
    import scipy.linalg

    theta0 = np.asarray(theta0, dtype=float)
    P0_inv = scipy.linalg.cho_solve(_cho(P0), np.eye(theta0.shape[1]))
    Phi, Y = _stack(samples)
    A = P0_inv.copy()
    B = theta0 @ P0_inv
    if Phi.shape[0]:
        A += Phi.T @ Phi
        B = B + Y.T @ Phi
    return scipy.linalg.solve(A, B.T, assume_a="pos").T


@dataclass(frozen=True, eq=False)
class FoldRecord:
    """Per-row figures of one :func:`rls_fold`; those not asked for are None.

    Row i holds ``residual_norm[i] = ||y_i - theta phi_i||`` with the estimate
    that has not yet seen row i and, with a reference, the same pre-update
    ``dist_to_ref[i] = ||theta - theta_ref||_F``.  With ``keep_history`` it
    also holds the post-update ``theta[i]`` (p x d) and smallest eigenvalue
    ``pmin_eig[i]`` of the covariance.
    """

    residual_norm: np.ndarray
    dist_to_ref: np.ndarray | None = None
    theta: np.ndarray | None = None
    pmin_eig: np.ndarray | None = None


def rls_fold(state: RlsState, Phi, Y, theta_ref: np.ndarray | None = None,
             keep_history: bool = False) -> tuple[RlsState, FoldRecord]:
    """Fold the covariance downdate and coefficient update over the rows of
    ``Phi`` (K x d) and ``Y`` (K x p); returns the final state and a record.

    This is the package's one RLS recursion (the form of Ljung & Soderstrom,
    *Theory and Practice of Recursive Identification*, 1983); :func:`rls_step`
    is its one-row case.  Shapes and finiteness are checked once, before any
    update.  Each row runs a fixed sequence of numpy operations, so the fold
    agrees bit for bit with a chain of one-row folds.  With the information
    matrix tracked, ``P_inv`` accumulates ``phi phi^T``.

    The downdated covariance is re-symmetrized, ``0.5 * (P + P.T)``, only
    while ``P`` is not exactly symmetric: in practice after the first row of
    a fold from a non-symmetric ``P``.  Once ``P`` is symmetric the downdate
    ``P - Pphi Pphi^T / denom`` keeps it so, since IEEE multiplication is
    commutative, and re-symmetrizing would return it bit for bit (``x + x``
    and ``0.5 * 2x`` are exact barring overflow of entries above about
    9e307).  Only the loop-carried recursion runs per row: the innovations
    and, when a reference or the history is asked for, the estimates are
    stored, and their norms are taken after the loop as ``sqrt(e @ e)`` per
    row with ``np.vecdot``, the same dot ``np.linalg.norm`` takes.  The
    history's ``pmin_eig`` comes from one batched ``eigvalsh`` per
    ``_PMIN_CHUNK`` covariances.
    """
    Phi = np.asarray(Phi, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Phi.ndim != 2 or Y.ndim != 2:
        raise ValidationError(
            f"expected 2-D regressors and outputs, got {Phi.ndim}-D and {Y.ndim}-D"
        )
    K = Phi.shape[0]
    if K == 0:
        return state, FoldRecord(residual_norm=np.empty(0))
    theta, P, P_inv = state.theta, state.P, state.P_inv
    if Phi.shape[1] != state.dim:
        raise ValidationError(
            f"regressor length {Phi.shape[1]} does not match state dimension {state.dim}"
        )
    if Y.shape != (K, theta.shape[0]):
        raise ValidationError(f"outputs have shape {Y.shape}, expected {(K, theta.shape[0])}")
    if not (np.all(np.isfinite(Phi)) and np.all(np.isfinite(Y))):
        raise ValidationError("samples contain non-finite values")
    if theta_ref is not None:
        theta_ref = np.asarray(theta_ref, dtype=float)
        if theta_ref.shape != theta.shape:
            raise ValidationError(
                f"reference has shape {theta_ref.shape}, expected {theta.shape}"
            )

    Z = np.empty(Y.shape)
    # hist[i] is the estimate before row i, hist[K] the final one
    hist = None
    if theta_ref is not None or keep_history:
        hist = np.empty((K + 1,) + theta.shape)
        hist[0] = theta
    pmin = np.empty(K) if keep_history else None
    pbuf = np.empty((min(K, _PMIN_CHUNK),) + P.shape) if keep_history else None
    symmetrize = not np.array_equal(P, P.T)
    for i, (phi, y, z) in enumerate(zip(Phi, Y, Z)):
        Pphi = P @ phi
        denom = 1.0 + float(phi @ Pphi)
        P = P - Pphi[:, None] * Pphi / denom
        if symmetrize:
            P = 0.5 * (P + P.T)
            symmetrize = not np.array_equal(P, P.T)
        np.subtract(y, theta @ phi, out=z)
        theta = theta + z[:, None] * (P @ phi)
        if P_inv is not None:
            P_inv = P_inv + phi[:, None] * phi
        if hist is not None:
            hist[i + 1] = theta
        if pbuf is not None:
            j = i % _PMIN_CHUNK
            pbuf[j] = P
            if j == _PMIN_CHUNK - 1 or i == K - 1:
                pmin[i - j:i + 1] = np.linalg.eigvalsh(pbuf[:j + 1])[:, 0]
    dist = thetas = None
    if theta_ref is not None:
        E = (hist[:K] - theta_ref).reshape(K, -1)
        dist = np.sqrt(np.vecdot(E, E))
    if keep_history:
        thetas = hist[1:]
    new = RlsState(theta=theta, P=P, k=state.k + K, P_inv=P_inv)
    record = FoldRecord(residual_norm=np.sqrt(np.vecdot(Z, Z)), dist_to_ref=dist,
                        theta=thetas, pmin_eig=pmin)
    return new, record


def rls_step(state: RlsState, sample: RegressorSample) -> RlsState:
    """One covariance downdate and coefficient update: the one-row
    :func:`rls_fold`."""
    return rls_fold(state, sample.phi[None, :], sample.y[None, :])[0]


def run_rls(state: RlsState, samples) -> RlsState:
    """Fold a :class:`RegressorSample` sequence through :func:`rls_fold`."""
    return rls_fold(state, *_stack_samples(samples))[0]
