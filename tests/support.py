"""Shared helpers: random stable models and independent test oracles."""

from __future__ import annotations

import contextlib
import errno
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

import sysid_rls
from sysid_rls import rls
from sysid_rls import IOModel, Trajectory, TransitionPair, ValidationError, simulate

# the child caps its own address space before numpy loads, then runs the CLI
# as ``python -m sysid_rls.cli`` would
_CAPPED_CLI = """
import resource, runpy, sys
cap = int(sys.argv.pop(1))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS,
                   (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
runpy.run_module("sysid_rls.cli", run_name="__main__", alter_sys=True)
"""


def cpus(count):
    """Make ``count`` CPUs the affinity set the forking commands see."""
    return mock.patch("os.sched_getaffinity", create=True, return_value=set(range(count)))


def processes(case):
    """The processes the package may fork: one CPU, two CPUs, two CPUs with
    ``os.fork`` refused, as when the process table is full, or two CPUs with
    each forked worker killed by ``SIGKILL`` as it starts."""
    stack = contextlib.ExitStack()
    stack.enter_context(cpus(1 if case == "one-cpu" else 2))
    if case == "refused-fork":
        refused = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        stack.enter_context(mock.patch("os.fork", side_effect=refused))
    if case == "killed-worker":
        real = os.fork

        def killed():
            pid = real()
            if pid == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return pid

        stack.enter_context(mock.patch("os.fork", killed))
    return stack


PROCESSES = ["one-cpu", "two-cpus", "refused-fork", "killed-worker"]


def run_cli_capped(args, cap_bytes: int = 4 << 30, flags=()) -> subprocess.CompletedProcess:
    """Run the CLI with ``args`` in a child process whose address space is
    capped at ``cap_bytes`` (4 GiB), its interpreter given the command-line
    ``flags`` (``["-W", "error"]``, say).  An allocation sized by an
    oversized request then raises ``MemoryError`` in the child, which exits
    3, where an uncapped one could fill the machine's memory.  The limit
    applies to the child only."""
    src = Path(sysid_rls.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *flags, "-c", _CAPPED_CLI, str(cap_bytes),
                           *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)


def stacked_F(model: IOModel) -> np.ndarray:
    """``[F1 ... Fn]`` of shape (p, p*n)."""
    return np.hstack(model.F) if model.n else np.zeros((model.p, 0))


def stacked_G(model: IOModel) -> np.ndarray:
    """``[G0 ... Gn]`` of shape (p, m*(n+1))."""
    return np.hstack(model.G)


def random_stable_model(rng: np.random.Generator, n: int, p: int, m: int,
                        radius: float = 0.85) -> IOModel:
    """Random coefficients with the output dynamics scaled inside ``radius``.

    Scaling F_i by s**i scales every pole by s, so the draw keeps its
    direction structure while becoming stable.
    """
    F = [rng.uniform(-1.0, 1.0, (p, p)) for _ in range(n)]
    G = [rng.uniform(-1.0, 1.0, (p, m)) for _ in range(n + 1)]
    model = IOModel(n=n, p=p, m=m, F=F, G=G)
    rho = model.companion_spectral_radius()
    if n > 0 and rho > radius:
        s = radius / rho
        F = [F[i] * s ** (i + 1) for i in range(n)]
        model = IOModel(n=n, p=p, m=m, F=F, G=G)
    return model


def random_contraction(rng: np.random.Generator, p: int, radius: float = 0.8) -> np.ndarray:
    """Random (p, p) block with spectral radius at most ``radius``."""
    D = rng.uniform(-1.0, 1.0, (p, p))
    rho = float(np.max(np.abs(np.linalg.eigvals(D)))) if p > 0 else 0.0
    if rho > radius:
        D = D * (radius / rho)
    return D


def shared_protocol_outputs(base: IOModel, other: IOModel, ics: np.ndarray,
                            inputs: np.ndarray):
    """Outputs of both models under shared inputs and initial conditions.

    The higher-order model is seeded with the base model's first ``n_hat``
    outputs (which include the shared initial conditions), so any later
    disagreement is a genuine coefficient difference.
    """
    y_base = simulate(base, ics, inputs).y
    y_other = simulate(other, y_base[: other.n], inputs).y
    return y_base, y_other


def simulation_equivalence_oracle(a: IOModel, b: IOModel, rng: np.random.Generator,
                                  steps: int = 100, trials: int = 20,
                                  agree_tol: float = 1e-8,
                                  diverge_tol: float = 1e-4):
    """Brute-force verdict from output comparison.

    Returns True when every trial agrees within ``agree_tol`` (relative),
    False as soon as one trial diverges beyond ``diverge_tol``, and None if
    all trials land in between (ambiguous).
    """
    base, high = (a, b) if a.n <= b.n else (b, a)
    worst = 0.0
    for _ in range(trials):
        ics = rng.uniform(-1.0, 1.0, (base.n, base.p))
        inputs = rng.uniform(-1.0, 1.0, (steps, base.m))
        y_base, y_high = shared_protocol_outputs(base, high, ics, inputs)
        denom = 1.0 + np.linalg.norm(y_base, axis=1)
        rel = np.linalg.norm(y_base - y_high, axis=1) / denom
        trial_worst = float(np.max(rel[high.n:])) if steps > high.n else 0.0
        if trial_worst > diverge_tol:
            return False
        worst = max(worst, trial_worst)
    return True if worst <= agree_tol else None


def kkt_projected_limit(theta_true_lifted: np.ndarray, theta0: np.ndarray,
                        P0: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise KKT solve of the constrained prior-penalty minimization.

    Independent route: assemble the full symmetric KKT system per coefficient
    row and solve it directly, instead of forming the oblique projector.
    """
    d, r = M.shape
    P0_inv = np.linalg.inv(P0)
    K = np.block([[P0_inv, M], [M.T, np.zeros((r, r))]])
    rows = []
    for i in range(theta0.shape[0]):
        rhs = np.concatenate([P0_inv @ theta0[i], M.T @ theta_true_lifted[i]])
        rows.append(np.linalg.solve(K, rhs)[:d])
    return np.vstack(rows)


def random_spd(rng: np.random.Generator, d: int, eig_lo: float = 0.5,
               eig_hi: float = 2.0) -> np.ndarray:
    """Random symmetric positive-definite matrix with bounded spectrum."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(eig_lo, eig_hi, d)
    return (Q * eigs) @ Q.T


def reference_rls(theta, P, P_inv, Phi, Y, theta_ref):
    """Per-sample RLS written out with ``np.outer`` and ``np.linalg.norm``,
    as the recursion reads in the textbook (Ljung & Soderstrom 1983).

    Returns the final (theta, P, P_inv), the pre-update innovation norms and
    distances to ``theta_ref``, and the post-update estimates.
    """
    K = Phi.shape[0]
    resid, dist, thetas = np.empty(K), np.empty(K), []
    for i in range(K):
        phi, y = Phi[i], Y[i]
        dist[i] = np.linalg.norm(theta - theta_ref)
        resid[i] = np.linalg.norm(y - theta @ phi)
        Pphi = P @ phi
        denom = 1.0 + float(phi @ Pphi)
        P = P - np.outer(Pphi, Pphi) / denom
        P = 0.5 * (P + P.T)
        z = y - theta @ phi
        theta = theta + np.outer(z, P @ phi)
        P_inv = P_inv + np.outer(phi, phi)
        thetas.append(theta)
    return theta, P, P_inv, resid, dist, np.array(thetas)


def reference_regressor(traj, k: int, order: int):
    """Regressor ``phi[order, k]`` and output ``y[k]`` of one time index,
    sliced row by row from the window: negated outputs newest-first, then
    the inputs newest-first."""
    i = k - traj.k0
    ys = traj.y[i - order:i][::-1]
    us = traj.u[i - order:i + 1][::-1]
    return np.concatenate([-ys.ravel(), us.ravel()]), traj.y[i]


def reference_reduced_regressor(traj, k: int, n: int, n_hat: int) -> np.ndarray:
    """Reduced regressor ``phi[n, n_hat, k]`` of one time index: the oldest
    ``n`` outputs of the order-``n_hat`` window, then its full input window."""
    i = k - traj.k0
    ys = traj.y[i - n_hat:i - n_hat + n][::-1]
    us = traj.u[i - n_hat:i + 1][::-1]
    return np.concatenate([-ys.ravel(), us.ravel()])


def reference_gram_curve(Phi):
    """Per-row Gram partial sum written out with ``np.outer`` and one
    ``eigvalsh`` per row: the oracle for :func:`partial_gram_min_eigs` and
    for the verdicts :func:`estimate_gram_limit` reads at two of its rows.

    Returns the minimum eigenvalue after every row and the final partial sum.
    """
    K, d = Phi.shape
    gram = np.zeros((d, d))
    curve = []
    for i in range(K):
        gram += np.outer(Phi[i], Phi[i])
        curve.append(np.linalg.eigvalsh(gram)[0])
    return np.array(curve), gram


def spy_min_eigs(monkeypatch, *modules) -> list:
    """Record each :func:`sysid_rls.rls.min_eigs` call made through
    ``modules``: the ``eigvalsh`` spectra of its bases and of its stack, and
    its figures."""
    calls, real = [], rls.min_eigs

    def spy(stack, bases):
        seen = (np.linalg.eigvalsh(bases), np.linalg.eigvalsh(stack))
        got = real(stack, bases)
        calls.append((*seen, got))
        return got

    for module in modules:
        monkeypatch.setattr(module, "min_eigs", spy)
    return calls


def check_min_eigs_width(calls) -> tuple[int, int]:
    """Check each figure of spied :func:`sysid_rls.rls.min_eigs` calls
    against the width it states: within ``eta = 4 (d + 1) eps ||B||_2`` (B
    the group's base) of ``eigvalsh``'s, up to ``2 (d + 1) eps ||A_j||_2``.
    Returns the number of groups and of proved groups, those whose figures
    are not ``eigvalsh``'s bits."""
    eps = np.finfo(float).eps
    groups = proved = 0
    for bases, want, got in calls:
        d = want.shape[1]
        for g, start in enumerate(range(0, len(got), rls._FOLD_BLOCK)):
            rows = slice(start, start + rls._FOLD_BLOCK)
            eta = 4 * (d + 1) * eps * bases[g, -1]
            norm = np.max(np.abs(want[rows]), axis=1)
            assert np.all(np.abs(got[rows] - want[rows, 0]) <= eta + 2 * (d + 1) * eps * norm)
            groups += 1
            proved += not np.array_equal(got[rows], want[rows, 0])
    return groups, proved


@dataclass(frozen=True, eq=False)
class ConsolidatedCoeffs:
    """Flattened window coefficients of a high-order model over a base window.

    ``y_hat[k+n_hat] = -F_cons @ Y[k, n] + G_cons @ U[k, n_hat]`` whenever the
    preceding high-order outputs agree with the base model's trajectory.
    """

    F_cons: np.ndarray
    G_cons: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return np.hstack([self.F_cons, self.G_cons])


def consolidate(high: IOModel, base: IOModel) -> ConsolidatedCoeffs:
    """Collapse a high-order model onto the base model's window.

    Computed by the direct recursion on the high model's coefficients and the
    base model's transition blocks (independent of :func:`build_lift_matrix`,
    which provides the same result as ``high.theta @ M``).
    """
    if (high.p, high.m) != (base.p, base.m):
        raise ValidationError("models must share output/input dimensions")
    if high.n <= base.n:
        raise ValidationError(f"high order {high.n} must exceed base order {base.n}")
    n, p, m = base.n, base.p, base.m
    q = high.n - base.n
    pairs = reference_transition_prefix(base, q - 1)
    F_cons = np.hstack(high.F[q:]) if n > 0 else np.zeros((p, 0))
    G_cons = stacked_G(high)
    for i in range(1, q + 1):
        pair = pairs[q - i]
        F_cons = F_cons - high.F[i - 1] @ pair.Fj
        G_cons[:, i * m:] -= high.F[i - 1] @ pair.Gj
    return ConsolidatedCoeffs(F_cons=F_cons, G_cons=G_cons)


def reference_simulate(model: IOModel, initial_outputs, inputs) -> np.ndarray:
    """Outputs of ``model`` over ``len(inputs)`` steps by the per-sample
    recursion, one output row per loop iteration: the oracle for
    ``simulate``'s block evaluation.  Overflow is left in the returned
    outputs, not raised."""
    n, p = model.n, model.p
    u = np.asarray(inputs, dtype=float).reshape(len(inputs), model.m)
    horizon = u.shape[0]
    y = np.zeros((horizon, p))
    y[:n] = np.asarray(initial_outputs, dtype=float).reshape(n, p)
    F_stack, G_stack = stacked_F(model), stacked_G(model)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n, horizon):
            Yw = y[k - n:k][::-1].reshape(-1)
            Uw = u[k - n:k + 1][::-1].reshape(-1)
            y[k] = -F_stack @ Yw + G_stack @ Uw
    return y


def verify_trajectory(model: IOModel, traj: Trajectory) -> float:
    """Max defect of the model recursion over the stored record.

    Evaluates the recursion at every index past the initial window from the
    stored outputs themselves, so a record ``simulate`` produced returns a
    defect at round-off level, not exactly 0.0.
    """
    n = model.n
    if traj.p != model.p or traj.m != model.m:
        raise ValidationError("trajectory dimensions do not match the model")
    worst = 0.0
    F_stack, G_stack = stacked_F(model), stacked_G(model)
    for k in range(n, len(traj)):
        Yw = traj.y[k - n:k][::-1].reshape(-1)
        Uw = traj.u[k - n:k + 1][::-1].reshape(-1)
        defect = traj.y[k] - (-F_stack @ Yw + G_stack @ Uw)
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def shifted_F(model: IOModel, j: int) -> np.ndarray:
    """Left-shift of [F1..Fn] by j blocks with zero padding; zero for j >= n."""
    p, n = model.p, model.n
    out = np.zeros((p, p * n))
    if j <= n - 1:
        width = p * (n - j)
        out[:, :width] = stacked_F(model)[:, p * j:]
    return out


def reference_transition_prefix(model: IOModel, jmax: int) -> list[TransitionPair]:
    """Transition pairs for all 0 <= j <= jmax by the block recursion
    ``X_j = shift_j(X) - sum_{i=1}^{min(j, n)} F_i X_{j-i}``, independent of
    the impulse-response form :func:`sysid_rls.transition_pair` uses."""
    pairs = [TransitionPair(0, stacked_F(model), stacked_G(model))]
    p, m, n = model.p, model.m, model.n
    G0_stack = stacked_G(model)
    for j in range(1, jmax + 1):
        Fj = shifted_F(model, j)
        Gj = np.hstack([G0_stack, np.zeros((p, j * m))])
        for i in range(1, min(j, n) + 1):
            prev = pairs[j - i]
            Fj = Fj - model.F[i - 1] @ prev.Fj
            padded = np.hstack([np.zeros((p, i * m)), prev.Gj])
            Gj = Gj - model.F[i - 1] @ padded
        pairs.append(TransitionPair(j, Fj, Gj))
    return pairs


def vstack_transition_blocks(model: IOModel, offsets) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(Fj, Gj)`` for each offset j, by the impulse-response doubling of
    :func:`sysid_rls.model_core._transition_blocks` with ``R`` grown by
    ``np.vstack`` at every doubling: the in-place fill must match it bit for
    bit, since it computes the same products in the same order."""
    p, m, n = model.p, model.m, model.n
    count, pn, size = max(offsets) + 1, p * n, p * (n + 1)
    step = np.eye(size, k=p)
    step[:pn, :p] = -np.array(model.F).reshape(pn, p)
    R = np.eye(p, size)
    while len(R) < count * p:
        if len(R) > p:
            step = step @ step
        R = np.vstack([R, R[: count * p - len(R)] @ step])
    theta = model.theta
    T = np.zeros((size, theta.shape[1]))
    for d in range(n + 1):
        T[d * p:(d + 1) * p, : pn - d * p] = theta[:, d * p: pn]
        T[d * p:(d + 1) * p, pn: theta.shape[1] - d * m] = theta[:, pn + d * m:]
    Z = R @ T
    markov = Z[:, pn: pn + m].reshape(count, p, m).transpose(1, 0, 2).reshape(p, count * m)
    return [(Z[j * p:(j + 1) * p, :pn],
             np.concatenate([markov[:, : j * m], Z[j * p:(j + 1) * p, pn:]], axis=1))
            for j in offsets]
