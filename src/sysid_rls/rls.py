"""Regularized recursive least squares over input/output regressors.

The regressor at time k for a fit order ``n`` stacks the negated past
outputs newest-first, then the inputs newest-first:

    phi[n, k] = [-y[k-1]; ...; -y[k-n]; u[k]; ...; u[k-n]]

so that exact data from a matching-order model satisfies
``y[k] = theta_true @ phi[n, k]``.  The reduced regressor of an order
``n_hat >= n`` window keeps only its oldest ``n`` outputs:

    phi[n, n_hat, k] = [-y[k-n_hat+n-1]; ...; -y[k-n_hat]; u[k]; ...; u[k-n_hat]]

which is the trailing ``p n + m (n_hat + 1)`` entries of ``phi[n_hat, k]``:
the columns ``Phi[:, p * (n_hat - n):]`` of :func:`regressor_matrix`'s
block, and all of it at ``n == n_hat``.  The cost after k samples is

    J(theta) = sum_i ||y_i - theta phi_i||^2
               + tr[(theta - theta0) P0^{-1} (theta - theta0)^T]

whose unique minimizer is tracked recursively via the covariance downdate,
a block of rows at a time through one Cholesky factor of the block's
innovation Gram bordered by its gain and innovation terms (:func:`rls_fold`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model_core import Trajectory

DEFAULT_P0_SCALE = 1e3
# rows per block of rls_fold's innovations form
_FOLD_BLOCK = 64
# rows per chunk of the streamed ``fit`` trace, and of rls_fold's per-row
# records: a multiple of the block, so the chunked folds equal one
# whole-record fold bit for bit
TRACE_CHUNK_ROWS = 16 * _FOLD_BLOCK

# The history's pmin_eig is proved by one solve and one Cholesky per row
# (_pmin_eigs) only from this dimension up.  Below it the proof saves little
# or costs more than the eigvalsh it replaces: on exact 2e4-row records with
# no floor it ran at 1.9-2.1x of eigvalsh's time at d = 3, 1.32x at d = 5,
# 0.93-1.05x at d = 6 and 7 and 0.87x at d = 8.
_PMIN_MIN_DIM = 8
# ... and only where the block-start gap w[1] - w[0] exceeds this share of
# w[0].  On ten records from the benchmark's generator (seeds 2-11, d = 14,
# 3,130 blocks) every proved block had a gap above 0.025; iid normal rows,
# which were never proved, had gaps at or below 0.02 in 522 of 626 blocks.
# (At w[0] / 2, six of those ten records went to eigvalsh in most blocks.)
_PMIN_GAP = 0.02
# The proved interval is eta = _PMIN_ETA * (d + 1) * eps * w[-1] wide.  On
# those records the proof's figure lay at most 3.9 (d + 1) eps ||P_j|| from
# eigvalsh's; on the benchmark's record 5 of 313 blocks went to eigvalsh with
# a factor of 1 to 3, 4 with 4 and 3 with 8.
_PMIN_ETA = 4.0


@dataclass(frozen=True, eq=False)
class RlsState:
    """Estimate theta (p x d), covariance P (d x d) and step counter."""

    theta: np.ndarray
    P: np.ndarray
    k: int = 0

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    def check(self, tol_sym: float = 1e-12) -> None:
        """On-demand invariant check: symmetry and positive definiteness of P."""
        asym = float(np.max(np.abs(self.P - self.P.T)))
        if asym > tol_sym * (1.0 + float(np.max(np.abs(self.P)))):
            raise NumericalError(f"covariance asymmetry {asym:.3e}")
        eigs = np.linalg.eigvalsh(self.P)
        if eigs[0] <= 0:
            raise NumericalError(f"covariance lost positive definiteness (min eig {eigs[0]:.3e})")


def regressor_dim(order: int, p: int, m: int) -> int:
    return p * order + m * (order + 1)


def initial_state(order: int, p: int, m: int, theta0: np.ndarray | None = None,
                  P0: np.ndarray | None = None, p0_scale: float = DEFAULT_P0_SCALE) -> RlsState:
    """Fresh state: theta0 defaults to zeros, P0 to p0_scale * I."""
    d = regressor_dim(order, p, m)
    theta = np.zeros((p, d)) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    if theta.shape != (p, d):
        raise ValidationError(f"theta0 has shape {theta.shape}, expected {(p, d)}")
    # only the diagonal is scaled: an infinite scale makes no inf * 0 = nan warning
    P = np.diag(np.full(d, float(p0_scale))) if P0 is None else np.array(P0, dtype=float)
    if P.shape != (d, d):
        raise ValidationError(f"P0 has shape {P.shape}, expected {(d, d)}")
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(P))):
        raise ValidationError("theta0 and P0 must be finite")
    return RlsState(theta=theta, P=P, k=0)


def regressor_matrix(traj: Trajectory, order: int, ks=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized regressors and targets: (Phi, Y, ks) with
    ``Phi[i] = phi[order, ks[i]]`` and ``Y[i] = y[ks[i]]``.

    Defaults to every fully-windowed index.  The reduced regressor of a true
    order ``n <= order`` is the column slice ``Phi[:, p * (order - n):]``.  A
    missing cell is a validation error; a missing output cell is named by its
    column and time index.
    """
    if ks is None:
        ks = np.arange(traj.k0 + order, traj.k_last + 1)
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0:
        raise ValidationError("no regressor indices available")
    idx = ks - traj.k0
    if idx.min() < order or idx.max() >= len(traj):
        raise ValidationError("requested indices fall outside the fully-windowed range")
    p, m = traj.p, traj.m
    Phi = np.empty((idx.size, p * order + m * (order + 1)))  # filled in place, lag by lag
    for lag in range(1, order + 1):
        np.negative(traj.y[idx - lag], out=Phi[:, p * (lag - 1):p * lag])
    for lag in range(order + 1):
        Phi[:, p * order + m * lag:p * order + m * (lag + 1)] = traj.u[idx - lag]
    if not np.all(np.isfinite(Phi)):
        raise _missing_window_value(traj, idx, order)
    Y = traj.y[idx]
    if not np.all(np.isfinite(Y)):
        row, col = np.argwhere(~np.isfinite(Y))[0]
        raise ValidationError(
            f"output column y_{col + 1} is missing at k={ks[row]}, a regression target"
        )
    return Phi, Y, ks


def _missing_window_value(traj: Trajectory, idx: np.ndarray, order: int) -> ValidationError:
    """The error for order-``order`` regressor windows (ending at rows
    ``idx``) that hold a missing cell: the first missing output cell is
    named by column and time index, else the inputs are."""
    rows = np.unique((idx[:, None] - np.arange(1, order + 1)).ravel())
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
    window touching one is dropped.  An order that reaches the record's
    length is an error before any array is built: none is sized by ``order``.
    """
    if order < len(traj):
        # missing[i] counts the rows before row i with a missing input cell
        missing = np.zeros(len(traj) + 1, dtype=int)
        np.cumsum(~np.all(np.isfinite(traj.u), axis=1), out=missing[1:])
        ends = np.arange(order, len(traj))
        ks = traj.k0 + ends[missing[ends + 1] == missing[ends - order]]
        if ks.size:
            return ks
    raise ValidationError(f"no index has a complete order-{order} input window")


def _check_rows(Phi, Y, p: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``Phi`` (K x d) and ``Y`` (K x p) as float arrays.  Any other shape, or
    a non-finite entry, is a validation error."""
    Phi = np.asarray(Phi, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Phi.ndim != 2 or Y.ndim != 2:
        raise ValidationError(f"regressors and outputs must be 2-D, not {Phi.ndim}-D, {Y.ndim}-D")
    if Phi.shape[1] != d:
        raise ValidationError(f"regressor length {Phi.shape[1]} does not match dimension {d}")
    if Y.shape != (Phi.shape[0], p):
        raise ValidationError(f"outputs have shape {Y.shape}, expected {(Phi.shape[0], p)}")
    if not (np.all(np.isfinite(Phi)) and np.all(np.isfinite(Y))):
        raise ValidationError("samples contain non-finite values")
    return Phi, Y


def _prior(theta0, P0):
    """``theta0`` (p x d) as a float array and ``C^{-1}`` (d x d), the
    inverse of the Cholesky factor in ``P0 = C C^T``, so that
    ``P0^{-1} = C^{-T} C^{-1}``.  ``P0`` is read from its upper triangle."""
    theta0 = np.asarray(theta0, dtype=float)
    P0 = np.asarray(P0, dtype=float)
    if theta0.ndim != 2 or P0.shape != (theta0.shape[1],) * 2:
        raise ValidationError(f"theta0 and P0 have shapes {theta0.shape} and {P0.shape}, "
                              "expected (p, d) and (d, d)")
    if not (np.all(np.isfinite(theta0)) and np.all(np.isfinite(P0))):
        raise ValidationError("theta0 and P0 must be finite")
    try:
        # P0 = U^T U with U upper triangular, so C = U^T
        return theta0, np.linalg.inv(np.linalg.cholesky(P0, upper=True)).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError("P0 must be symmetric positive definite") from exc


def cost(theta_hat: np.ndarray, Phi, Y, theta0: np.ndarray, P0: np.ndarray) -> float:
    """Sum of squared residuals ``||Y - Phi theta_hat^T||^2`` plus the
    P0-weighted prior penalty."""
    theta0, C_inv = _prior(theta0, P0)
    Phi, Y = _check_rows(Phi, Y, *theta0.shape)
    theta_hat = np.asarray(theta_hat, dtype=float)
    Z = Y - Phi @ theta_hat.T
    X = C_inv @ (theta_hat - theta0).T
    return float(np.sum(Z * Z)) + float(np.sum(X * X))


def batch_solve(Phi, Y, theta0: np.ndarray, P0: np.ndarray) -> np.ndarray:
    """Unique minimizer of :func:`cost` over the rows of ``Phi`` (K x d) and
    ``Y`` (K x p).

    With ``P0 = C C^T``, the prior enters as ``d`` pseudo-observations and
    ``theta^T`` is the least-squares solution of the stacked system
    ``[C^{-1}; Phi] theta^T = [C^{-1} theta0^T; Y]`` (Golub & Van Loan,
    *Matrix Computations*, section 5.3).  Unlike the normal equations
    ``P0^{-1} + Phi^T Phi``, this does not square the condition number,
    which the prior sets in the overparameterized regime.  The ``C^{-1}``
    rows keep the system full rank even with no data (K = 0).
    """
    theta0, C_inv = _prior(theta0, P0)
    Phi, Y = _check_rows(Phi, Y, *theta0.shape)
    A = np.vstack([C_inv, Phi])
    B = np.vstack([C_inv @ theta0.T, Y])
    return np.linalg.lstsq(A, B, rcond=None)[0].T


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

    This is the package's one RLS recursion (Ljung & Soderstrom, *Theory and
    Practice of Recursive Identification*, 1983), run ``_FOLD_BLOCK`` rows at
    a time in the innovations form of block RLS (Kailath, Sayed & Hassibi,
    *Linear Estimation*, 2000, ch. 9 and 12).  From the block-start
    ``theta`` and ``P``, with ``W = Phi_b P`` and the innovation Gram
    ``S = I + W Phi_b^T = L L^T``, ``[Kt | E] = L^{-1} R`` for ``R = [W |
    Y_b - Phi_b theta^T]``.  Both come from one Cholesky factorization of
    the bordered matrix (Golub & Van Loan, *Matrix Computations*, 4.2)::

        [[S,   R  ],   =   [[L, 0],  [[L^T, G^T],      G^T = [Kt | E]
         [R^T, c I]]        [G, H]]   [0,   H^T]]

    with ``c = 1 + 2 ||R||_F^2``.  ``L`` and ``G`` do not depend on ``c``;
    ``c`` only keeps the trailing block ``H H^T = c I - G G^T`` positive
    definite: ``P >= 0`` gives ``S >= I``, so ``||G||_2^2 <= ||R||_2^2 <=
    ||R||_F^2 < c / 2``.  Factoring ``S`` is Gram-Schmidt on the block's
    innovations: ``L[j, j]^2 = 1 + phi_j P_{j-1} phi_j^T``, row j of ``Kt``
    is ``P_{j-1} phi_j / L[j, j]`` and row j of ``E`` the a-priori
    innovation ``y_j - theta_{j-1} phi_j`` over ``L[j, j]``.  So ``theta_j =
    theta + sum_{i<=j} E_i Kt_i`` and ``P_j = P - sum_{i<=j} Kt_i^T Kt_i``
    are the sequential recursion row by row in exact arithmetic, and agree
    with it to round-off in floating point; a one-row slice is a single
    step.

    Shapes and finiteness are checked once, by :func:`_check_rows`, before
    any update.  Blocks start at multiples of ``_FOLD_BLOCK``, so a fold
    split at one equals the unsplit fold bit for bit, also from a copied
    state; ``fit --emit-trace`` relies on this: it folds the record once, a
    :data:`TRACE_CHUNK_ROWS` chunk at a time with the history, and its last
    chunk's state is the whole-record fold's.
    ``P`` is read as its symmetric part ``0.5 * (P + P.T)`` and stays
    exactly symmetric, as numpy forms ``Kt^T Kt`` as a BLAS ``syrk`` product.
    The block's views of the bordered matrix are set up once per call, and
    again only for a short last block.  The estimates of a
    :data:`TRACE_CHUNK_ROWS` chunk, from before its first row to after its
    last, are rows of one C-ordered ``(min(K, TRACE_CHUNK_ROWS) + 1, p, d)``
    buffer: each block's ``cumsum`` writes its steps after the row that
    holds its start.  The distances to the reference and the history are
    taken from that buffer once per chunk, whose last estimate then moves
    to row 0; so only ``keep_history`` allocates the ``(K, p, d)`` history,
    and the returned ``theta`` is a copy.

    The history's ``pmin_eig`` for a block's rows comes from
    :func:`_pmin_eigs`: each row's figure is within ``eta = 4 (d + 1) eps
    ||P||_2`` (``P`` the block-start covariance) of the smallest eigenvalue
    of the computed ``P_j``, up to the factorization's backward error (so
    within ``eta + 2 (d + 1) eps ||P_j||_2``, the bound the tests check),
    proved by one batched solve and one batched Cholesky factorization, and
    the block takes one batched ``eigvalsh`` wherever that is not proved.  Its trailing digits can differ from
    earlier versions, which took ``eigvalsh`` everywhere.

    A bordered matrix that fails to factor (its Gram ``S`` is not positive
    definite), a border ``c`` that overflows, or a non-finite estimate
    raises :class:`NumericalError`: the prior is too large for the data.
    """
    theta, P = state.theta, state.P
    Phi, Y = _check_rows(Phi, Y, theta.shape[0], state.dim)
    K = Phi.shape[0]
    if K == 0:
        return state, FoldRecord(residual_norm=np.empty(0))
    if theta_ref is not None:
        theta_ref = np.asarray(theta_ref, dtype=float)
        if theta_ref.shape != theta.shape:
            raise ValidationError(
                f"reference has shape {theta_ref.shape}, expected {theta.shape}"
            )

    P = 0.5 * (P + P.T)
    d = state.dim
    q = d + theta.shape[0]
    Z = np.empty(Y.shape)
    hist = np.empty((K,) + theta.shape) if keep_history else None
    pmin = np.empty(K) if keep_history else None
    dist = np.empty(K) if theta_ref is not None else None
    # row j of a record chunk is the estimate before the chunk's row j; a
    # block's steps fill the rows after its start, which holds the estimate
    rec = np.empty((min(K, TRACE_CHUNK_ROWS) + 1,) + theta.shape)
    rec[0] = theta
    outer = np.empty((min(K, _FOLD_BLOCK),) + theta.shape)
    downs = np.empty((min(K, _FOLD_BLOCK), d, d)) if keep_history else None
    # a block of b rows fills buf[:b+q, :b+q] with [[S, R], [R^T, c I]];
    # diag views buf's diagonal, which every such corner shares
    buf = np.zeros((_FOLD_BLOCK + q,) * 2)
    diag = buf.reshape(-1)[::_FOLD_BLOCK + q + 1]
    b = 0
    for start in range(0, K, _FOLD_BLOCK):
        stop = min(start + _FOLD_BLOCK, K)
        if stop - start != b:  # the first block, or a short last one
            b = stop - start
            A = buf[:b + q, :b + q]
            S, R, lower, corner = A[:b, :b], A[:b, b:], A[b:, :b], A[b:, b:]
            W, V = R[:, :d], R[:, d:]
            # only the corner's diagonal is written per block
            corner[...] = 0.0
            inner, border = diag[:b], diag[b:b + q]
        Phi_b = Phi[start:stop]
        np.matmul(Phi_b, P, out=W)
        np.subtract(Y[start:stop], Phi_b @ theta.T, out=V)
        np.matmul(W, Phi_b.T, out=S)
        lower[...] = R.T
        # a Python float overflows to inf without a warning
        c = 1.0 + 2.0 * float(np.vdot(R, R))
        if not math.isfinite(c):
            raise _blow_up(start, "its gain overflows")
        inner += 1.0
        border[...] = c
        try:
            F = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise _blow_up(start, "its innovation Gram is not positive definite") from None
        # [Kt | E] = L^{-1} R, the transpose of the factor's bottom-left block
        Kt, E = F[b:b + d, :b].T, F[b + d:, :b].T
        np.multiply(np.diagonal(F)[:b, None], E, out=Z[start:stop])
        r = start % TRACE_CHUNK_ROWS
        steps = rec[r + 1:r + b + 1]
        np.multiply(E[:, :, None], Kt[:, None, :], out=outer[:b])
        np.cumsum(outer[:b], axis=0, out=steps)
        steps += theta
        if keep_history:
            Ps = np.multiply(Kt[:, :, None], Kt[:, None, :], out=downs[:b])
            np.cumsum(Ps, axis=0, out=Ps)
            pmin[start:stop] = _pmin_eigs(P, np.subtract(P, Ps, out=Ps))
        theta = steps[-1]
        # Kt.T @ Kt is a syrk product, exactly symmetric, so P stays so
        P -= Kt.T @ Kt
        if not (np.isfinite(theta).all() and np.isfinite(P).all()):
            raise _blow_up(start, "the estimate is no longer finite")
        if stop % TRACE_CHUNK_ROWS == 0 or stop == K:
            # the chunk's per-row records; its last estimate starts the next
            n = r + b
            if hist is not None:
                hist[stop - n:stop] = rec[1:n + 1]
            if dist is not None:
                D = np.subtract(rec[:n], theta_ref, out=rec[:n]).reshape(n, -1)
                np.sqrt(np.vecdot(D, D), out=dist[stop - n:stop])
            rec[0] = theta
            theta = rec[0]
    new = RlsState(theta=theta.copy(), P=P, k=state.k + K)
    record = FoldRecord(residual_norm=np.sqrt(np.vecdot(Z, Z)), dist_to_ref=dist,
                        theta=hist, pmin_eig=pmin)
    return new, record


def _pmin_eigs(P: np.ndarray, Ps: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each covariance ``P_j`` of the stack ``Ps``
    (b x d x d), the post-row covariances of a block that starts at ``P``.

    One ``eigh(P)`` gives the spectrum ``w`` and lowest eigenvector ``v``.
    When ``d >= _PMIN_MIN_DIM`` and ``w[1] - w[0] > _PMIN_GAP * w[0]``, each
    row takes ``rho0 = v^T P_j v``, one inverse-iteration step ``x = (P_j -
    rho0 I)^{-1} v`` and its Rayleigh quotient ``rho = rho0 + v^T x / x^T
    x``, an upper bound on ``lambda_min(P_j)``.  A Cholesky factorization of
    ``P_j - (rho - eta) I`` that succeeds proves the lower bound ``rho -
    eta``, up to its own backward error (Parlett, *The Symmetric Eigenvalue
    Problem*, 1998, ch. 4 and 11; Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 10), with ``eta = _PMIN_ETA (d + 1) eps
    w[-1]``; ``rho`` is returned.  A gate missed, a ``LinAlgError`` or a
    non-finite ``rho`` gives ``eigvalsh(Ps)[:, 0]`` for the whole block
    instead, with no numpy warning.  The shifts are written on the diagonal
    of ``Ps`` and undone from a copy of it, so ``Ps`` is left as it came.
    """
    d = P.shape[0]
    if d >= _PMIN_MIN_DIM:
        w, V = np.linalg.eigh(P)
        if w[1] - w[0] > _PMIN_GAP * w[0]:
            v, eta = V[:, 0], _PMIN_ETA * (d + 1) * np.finfo(float).eps * w[-1]
            # the last row, the furthest from P, alone first: no block whose
            # last row failed was proved in 3,756 measured blocks, and trying
            # all of its rows costs about a third of eigvalsh's time
            for rows in (Ps[-1:], Ps):
                diag = rows.reshape(len(rows), -1)[:, ::d + 1]
                kept = diag.copy()
                try:
                    with np.errstate(all="ignore"):
                        rho0 = (rows @ v) @ v
                        diag -= rho0[:, None]
                        x = np.linalg.solve(rows, v)
                        rho = rho0 + (x @ v) / np.vecdot(x, x)
                        # a shift that is not finite proves nothing
                        if not np.isfinite(rho).all():
                            break
                        np.subtract(kept, (rho - eta)[:, None], out=diag)
                        np.linalg.cholesky(rows)
                except np.linalg.LinAlgError:
                    break
                finally:
                    diag[...] = kept
            else:
                return rho
    return np.linalg.eigvalsh(Ps)[:, 0]


def _blow_up(start: int, why: str) -> NumericalError:
    return NumericalError(
        f"RLS fold broke down in the block from row {start}: {why}; "
        "the prior covariance is too large for the data"
    )
