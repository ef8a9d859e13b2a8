"""Persistent-excitation diagnostics for regressor sequences.

A sequence is weakly persistently exciting when the minimum eigenvalue of
the partial-sum Gram matrix diverges, and persistently exciting when the
running average Gram converges to a positive-definite limit.  Both notions
are asymptotic; the verdicts produced here are finite-data heuristics with
the fixed thresholds ``DEFAULT_PE_SLOPE_TOL``, ``DEFAULT_GROWTH_RATIO`` and
``PE_FLOOR`` and are labeled as such.

On data generated by a true order-n model the full order-n_hat regressor is
an exact linear image of the reduced one through the lift matrix ``M``,
which is the rank obstruction that makes overparameterized regressors fail
weak persistent excitation.  ``M``'s lower block is the identity, so the
reduced regressor is the full block's trailing columns
``Phi[:, p * (n_hat - n):]`` (see :mod:`sysid_rls.rls`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equivalence import build_lift_matrix
from .errors import ValidationError
from .model_core import IOModel, Trajectory
from .rls import _FOLD_BLOCK, TRACE_CHUNK_ROWS, min_eigs, regressor_matrix
from .workers import fork_tail

DEFAULT_PE_SLOPE_TOL = 1e-2
DEFAULT_GROWTH_RATIO = 1.2
# smallest eigenvalue, relative to the Gram's trace, that counts as nonzero: a
# singular Gram's round-off reaches ~1e2 eps, full-rank white noise ~1e-2
PE_FLOOR = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True, eq=False)
class GramLimit:
    """Estimated Gram limit ``C``, its smallest eigenvalue, a stabilization
    diagnostic and the heuristic excitation verdicts.

    ``stabilization`` is the relative Frobenius distance between the running
    averages at the full and half sample counts; small values indicate the
    limit estimate has settled.  ``weak_pe``: the Gram sum's smallest
    eigenvalue ``K min_eig`` exceeds ``PE_FLOOR`` times its trace and has
    grown by at least ``DEFAULT_GROWTH_RATIO`` since the half-way sum.
    ``pe``: ``weak_pe`` holds, as persistent excitation implies weak
    persistent excitation, ``min_eig`` exceeds that floor per sample and
    ``stabilization`` is within ``DEFAULT_PE_SLOPE_TOL``.
    """

    C: np.ndarray
    min_eig: float
    stabilization: float
    weak_pe: bool
    pe: bool


def lift_identity_check(traj: Trajectory, model: IOModel, n_hat: int,
                        k_range=None) -> float:
    """Max over k of the defect ||phi_full - M @ phi_reduced||.

    The reduced regressor is the full one's trailing columns and ``M``'s
    lower block is the identity, so only the top ``pq = p (n_hat - n)``
    band can differ: the defect is ``Phi[:, :pq] - Phi[:, pq:] @ M[:pq].T``.
    On data simulated exactly by ``model`` it is zero up to roundoff; a
    corrupted sample shows up in every window containing it.
    """
    M = build_lift_matrix(model, n_hat)
    pq = M.shape[0] - M.shape[1]
    Phi = regressor_matrix(traj, n_hat, k_range)[0]
    defects = Phi[:, :pq] - Phi[:, pq:] @ M[:pq].T
    return float(np.max(np.linalg.norm(defects, axis=1)))


def _as_matrix(regressors) -> np.ndarray:
    try:
        Phi = np.asarray(regressors, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"inconsistent regressor dimensions: {exc}") from exc
    if Phi.ndim == 1:
        Phi = Phi.reshape(-1, 1)
    if Phi.ndim != 2:
        raise ValidationError("regressors must form a 2-D array (time x dim)")
    if Phi.shape[0] == 0:
        raise ValidationError("regressor sequence is empty")
    return Phi


def partial_gram_min_eigs(Phi) -> np.ndarray:
    """Smallest eigenvalue of the Gram partial sum ``sum_{j <= i} phi_j
    phi_j^T`` after each row i of the regressors ``Phi`` (K x d), read as
    :func:`estimate_gram_limit` reads them.

    The sums are a ``cumsum`` of outer products over
    :data:`~sysid_rls.rls.TRACE_CHUNK_ROWS` rows at a time, the running sum
    carried into each chunk's first row, so they equal a per-row ``gram +=
    np.outer(phi, phi)`` bit for bit.  Each chunk goes through one
    :func:`~sysid_rls.rls.min_eigs` call whose bases are the sums just before
    each ``_FOLD_BLOCK`` rows (the carried sum, then ``sums[63:-1:64]``): a
    partial sum never falls below an earlier one in the Loewner order.  A
    proved figure is within ``6 (d + 1) eps ||A_i||_2`` of ``eigvalsh``'s for
    the computed sum ``A_i``; below d = 8, and in every group the proof does
    not reach (the first, a singular or a clustered one), the figure is
    ``eigvalsh``'s bits.

    From two chunks on, a forked worker computes the curve from ``mid``, the
    chunk boundary nearest half of K, while this process computes it up to
    ``mid`` (:func:`~sysid_rls.workers.fork_tail`).  The worker forms the
    sums before ``mid`` again, chunk by chunk, so every ``min_eigs`` call sees
    the same sums and bases and the curve is the same bit for bit.  Without
    a worker, or without its reply, this process goes on from ``mid`` with
    the sum it carried there.
    """
    Phi = _as_matrix(Phi)
    K = Phi.shape[0]
    chunks = -(-K // TRACE_CHUNK_ROWS)
    if chunks < 2:
        return _gram_curve(Phi, 0, K)[0]
    mid = TRACE_CHUNK_ROWS * min(max(round(K / (2 * TRACE_CHUNK_ROWS)), 1), chunks - 1)
    (head, gram), (reply,) = fork_tail(lambda: _gram_curve(Phi, 0, mid),
                                       lambda: _gram_curve(Phi, mid, K)[0])
    tail = _gram_curve(Phi, mid, K, gram)[0] if reply is None else np.frombuffer(reply)
    return np.concatenate([head, tail])


def _gram_curve(Phi: np.ndarray, lo: int, hi: int, gram: np.ndarray | None = None):
    """The curve of :func:`partial_gram_min_eigs` over the rows ``lo:hi``
    (``lo`` a chunk boundary), and the Gram sum after row ``hi``.  ``gram``
    is the sum before row ``lo``; without it the chunks before ``lo`` are
    summed first, as the whole curve sums them."""
    d = Phi.shape[1]
    first = 0 if gram is None else lo
    gram = np.zeros((d, d)) if gram is None else gram
    curve = np.empty(hi - lo)
    for start in range(first, hi, TRACE_CHUNK_ROWS):
        block = Phi[start:min(start + TRACE_CHUNK_ROWS, hi)]
        sums = block[:, :, None] * block[:, None, :]
        sums[0] += gram
        np.cumsum(sums, axis=0, out=sums)
        if start >= lo:
            bases = np.concatenate([gram[None], sums[_FOLD_BLOCK - 1:-1:_FOLD_BLOCK]])
            curve[start - lo:start - lo + len(block)] = min_eigs(sums, bases)
        gram = sums[-1].copy()
    return curve, gram


def estimate_gram_limit(regressors) -> GramLimit:
    """Final running-average Gram matrix of the outer products, with the
    weak-PE and PE verdicts read from it and from the half-way average."""
    Phi = _as_matrix(regressors)
    K = Phi.shape[0]
    half = max(1, K // 2)
    C_full = (Phi.T @ Phi) / K
    C_half = (Phi[:half].T @ Phi[:half]) / half
    stab = float(np.linalg.norm(C_full - C_half) / (1.0 + np.linalg.norm(C_full)))
    min_eig = float(np.linalg.eigvalsh(C_full)[0])
    # smallest eigenvalues of the Gram sums after K and after half rows
    final, at_half = K * min_eig, half * float(np.linalg.eigvalsh(C_half)[0])
    floor = PE_FLOOR * max(K * float(np.trace(C_full)), 1.0)
    still_growing = final >= DEFAULT_GROWTH_RATIO * at_half or at_half <= 0.0
    weak_pe = final > floor and still_growing
    return GramLimit(C=C_full, min_eig=min_eig, stabilization=stab, weak_pe=weak_pe,
                     pe=weak_pe and min_eig > floor / K and stab <= DEFAULT_PE_SLOPE_TOL)
