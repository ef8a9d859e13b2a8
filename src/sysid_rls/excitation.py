"""Persistent-excitation diagnostics for regressor sequences.

A sequence is weakly persistently exciting when the minimum eigenvalue of
the partial-sum Gram matrix diverges, and persistently exciting when the
running average Gram converges to a positive-definite limit.  Both notions
are asymptotic; the verdicts produced here are finite-data heuristics with
the fixed thresholds ``DEFAULT_PE_SLOPE_TOL`` and ``DEFAULT_GROWTH_RATIO``
and are labeled as such.

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
from .rls import regressor_matrix

DEFAULT_PE_SLOPE_TOL = 1e-2
DEFAULT_GROWTH_RATIO = 1.2
# rows of outer products summed per cumsum in partial_gram_min_eigs
_GRAM_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class ExcitationReport:
    """Minimum-eigenvalue growth curve with heuristic excitation verdicts.

    ``min_eig_curve[i]`` is the minimum eigenvalue of the Gram partial sum
    after ``i + 1`` samples (nondecreasing).  ``gram_avg`` is the
    final running average; ``stabilization`` compares it against the
    half-sample average.
    """

    min_eig_curve: np.ndarray
    gram_avg: np.ndarray
    gram_avg_min_eig: float
    weak_pe: bool
    pe: bool
    weak_pe_threshold: float
    stabilization: float


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


def partial_gram_min_eigs(Phi: np.ndarray, gram: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue of the Gram partial sum after each row of ``Phi``.

    The partial sum after row i is ``gram + sum_{j <= i} phi_j phi_j^T``
    (``gram`` defaults to zeros).  Returns the eigenvalues and the final
    partial sum.  The sums are a ``cumsum`` of outer products over
    ``_GRAM_CHUNK`` rows at a time, the running sum carried into each chunk's
    first row, so they equal a per-row ``gram += np.outer(phi, phi)`` bit for
    bit; each chunk goes through one batched ``eigvalsh``.
    """
    K, d = Phi.shape
    gram = np.zeros((d, d)) if gram is None else np.array(gram, dtype=float)
    min_eigs = np.empty(K)
    for start in range(0, K, _GRAM_CHUNK):
        block = Phi[start:start + _GRAM_CHUNK]
        sums = block[:, :, None] * block[:, None, :]
        sums[0] += gram
        np.cumsum(sums, axis=0, out=sums)
        min_eigs[start:start + len(block)] = np.linalg.eigvalsh(sums)[:, 0]
        gram = sums[-1].copy()
    return min_eigs, gram


def excitation_report(regressors) -> ExcitationReport:
    """Partial-sum eigenvalue curve plus heuristic weak-PE / PE verdicts.

    weak PE: final min eigenvalue exceeds ``weak_pe_threshold``
    (``10 * eps * trace`` of the final Gram) and has grown by at least
    ``DEFAULT_GROWTH_RATIO`` since the half-way point.  PE: the running
    average Gram has min eigenvalue above the threshold scaled per sample
    and is Cauchy-stabilizing within ``DEFAULT_PE_SLOPE_TOL`` relative
    Frobenius distance.
    """
    Phi = _as_matrix(regressors)
    K = Phi.shape[0]
    half_idx = max(1, K // 2)
    # the sum is split at the half-way point, whose Gram is the first part's
    # final one
    head, gram_half_sum = partial_gram_min_eigs(Phi[:half_idx])
    tail, gram = partial_gram_min_eigs(Phi[half_idx:], gram_half_sum)
    min_eig_half = float(head[-1])
    min_eig_curve = np.concatenate([head, tail])
    final_min_eig = float(min_eig_curve[-1])
    weak_pe_threshold = 10.0 * np.finfo(float).eps * max(float(np.trace(gram)), 1.0)
    still_growing = (final_min_eig >= DEFAULT_GROWTH_RATIO * min_eig_half
                     or min_eig_half <= 0.0)
    weak_pe = final_min_eig > weak_pe_threshold and still_growing

    gram_avg = gram / K
    gram_avg_min_eig = float(np.linalg.eigvalsh(gram_avg)[0])
    gram_half = gram_half_sum / half_idx
    stabilization = float(
        np.linalg.norm(gram_avg - gram_half) / (1.0 + np.linalg.norm(gram_avg))
    )
    pe = gram_avg_min_eig > weak_pe_threshold / K and stabilization <= DEFAULT_PE_SLOPE_TOL
    return ExcitationReport(
        min_eig_curve=min_eig_curve,
        gram_avg=gram_avg,
        gram_avg_min_eig=gram_avg_min_eig,
        weak_pe=bool(weak_pe),
        pe=bool(pe),
        weak_pe_threshold=float(weak_pe_threshold),
        stabilization=stabilization,
    )


@dataclass(frozen=True, eq=False)
class GramLimit:
    """Estimated Gram limit with a stabilization diagnostic.

    ``stabilization`` is the relative Frobenius distance between the running
    averages at the full and half sample counts; small values indicate the
    limit estimate has settled.
    """

    C: np.ndarray
    stabilization: float
    samples: int


def estimate_gram_limit(regressors) -> GramLimit:
    """Final running-average Gram matrix of the outer products."""
    Phi = _as_matrix(regressors)
    K = Phi.shape[0]
    half = max(1, K // 2)
    C_full = (Phi.T @ Phi) / K
    C_half = (Phi[:half].T @ Phi[:half]) / half
    stab = float(np.linalg.norm(C_full - C_half) / (1.0 + np.linalg.norm(C_full)))
    return GramLimit(C=C_full, stabilization=stab, samples=K)
