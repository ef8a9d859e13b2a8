"""Discrete-time MIMO input/output models.

A model of order ``n`` with output dimension ``p`` and input dimension ``m``
evolves as

    y[k+n] = -(F1 y[k+n-1] + ... + Fn y[k]) + G0 u[k+n] + ... + Gn u[k]

with coefficient blocks ``Fi`` (p x p) and ``Gi`` (p x m).  This module holds
the model and trajectory value types, exact simulation, and the multi-step
output-transition blocks that express ``y[k+n+j]`` directly in terms of the
window ``y[k+n-1..k]`` and inputs ``u[k+n+j..k]``.

Stacked windows are always ordered newest-first: ``[y[k+n-1]; ...; y[k]]`` and
``[u[k+n]; ...; u[k]]``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

# Transition recursions cost O(j * n) block products; offsets beyond this cap
# are treated as caller error.
MAX_TRANSITION_STEPS = 10_000

_CACHE_LOCK = threading.Lock()


def _as_blocks(blocks, count: int, shape: tuple[int, int], what: str) -> tuple[np.ndarray, ...]:
    if isinstance(blocks, (str, bytes, dict)) or not hasattr(blocks, "__iter__"):
        raise ValidationError(
            f"{what} must be a list of {count} blocks, got {type(blocks).__name__}"
        )
    out = []
    for i, b in enumerate(blocks):
        try:
            arr = np.atleast_2d(np.asarray(b, dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{what}[{i}] is not a numeric matrix ({exc})") from exc
        if arr.shape != shape:
            raise ValidationError(f"{what}[{i}] has shape {arr.shape}, expected {shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        out.append(arr)
    if len(out) != count:
        raise ValidationError(f"expected {count} {what} blocks, got {len(out)}")
    return tuple(out)


@dataclass(frozen=True, eq=False)
class IOModel:
    """Immutable coefficient container for one input/output model.

    Attributes
    ----------
    n : model order (>= 0)
    p : output dimension
    m : input dimension
    F : n matrices of shape (p, p), the output-feedback blocks F1..Fn
    G : n+1 matrices of shape (p, m), the input blocks G0..Gn
    """

    n: int
    p: int
    m: int
    F: tuple[np.ndarray, ...]
    G: tuple[np.ndarray, ...]
    _tp_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0 or self.p <= 0 or self.m <= 0:
            raise ValidationError(f"bad dimensions n={self.n}, p={self.p}, m={self.m}")
        object.__setattr__(self, "F", _as_blocks(self.F, self.n, (self.p, self.p), "F"))
        object.__setattr__(self, "G", _as_blocks(self.G, self.n + 1, (self.p, self.m), "G"))

    @classmethod
    def from_blocks(cls, F, G) -> "IOModel":
        """Build a model from block lists, inferring (n, p, m)."""
        G0 = np.atleast_2d(np.asarray(G[0], dtype=float))
        p, m = G0.shape
        return cls(n=len(F), p=p, m=m, F=F, G=G)

    @classmethod
    def scalar(cls, f_coeffs, g_coeffs) -> "IOModel":
        """SISO shorthand: ``scalar([F1, ..., Fn], [G0, ..., Gn])``."""
        F = [np.array([[float(c)]]) for c in f_coeffs]
        G = [np.array([[float(c)]]) for c in g_coeffs]
        if len(G) != len(F) + 1:
            raise ValidationError("need exactly one more G coefficient than F")
        return cls(n=len(F), p=1, m=1, F=F, G=G)

    @classmethod
    def from_theta(cls, theta: np.ndarray, n: int, p: int, m: int) -> "IOModel":
        """Decode the flattened coefficient matrix ``[F1 .. Fn G0 .. Gn]``."""
        theta = np.asarray(theta, dtype=float)
        width = p * n + m * (n + 1)
        if theta.shape != (p, width):
            raise ValidationError(f"theta has shape {theta.shape}, expected {(p, width)}")
        F = [theta[:, i * p:(i + 1) * p] for i in range(n)]
        G = [theta[:, p * n + i * m: p * n + (i + 1) * m] for i in range(n + 1)]
        return cls(n=n, p=p, m=m, F=F, G=G)

    @property
    def width(self) -> int:
        """Column count of the flattened coefficient matrix."""
        return self.p * self.n + self.m * (self.n + 1)

    @property
    def F_stack(self) -> np.ndarray:
        """``[F1 ... Fn]`` of shape (p, p*n)."""
        if self.n == 0:
            return np.zeros((self.p, 0))
        return np.hstack(self.F)

    @property
    def G_stack(self) -> np.ndarray:
        """``[G0 ... Gn]`` of shape (p, m*(n+1))."""
        return np.hstack(self.G)

    @property
    def theta(self) -> np.ndarray:
        """Flattened coefficients ``[F1 .. Fn G0 .. Gn]``."""
        return np.hstack([self.F_stack, self.G_stack])

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "m": self.m,
            "F": [f.tolist() for f in self.F],
            "G": [g.tolist() for g in self.G],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IOModel":
        try:
            dims = {key: int(d[key]) for key in ("n", "p", "m")}
            blocks = {key: d[key] for key in ("F", "G")}
        except KeyError as exc:
            raise ValidationError(f"model dict is missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"model dimensions n, p, m must be integers ({exc})") from exc
        return cls(**dims, **blocks)

    def companion_spectral_radius(self) -> float:
        """Spectral radius of the output dynamics (1.0 is the stability edge)."""
        if self.n == 0:
            return 0.0
        pn = self.p * self.n
        A = np.zeros((pn, pn))
        A[: self.p, :] = -self.F_stack
        if self.n > 1:
            A[self.p:, : pn - self.p] = np.eye(pn - self.p)
        return float(np.max(np.abs(np.linalg.eigvals(A))))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Aligned input/output record on time indices ``k0 .. k0+len-1``.

    The first ``n`` outputs of a simulated trajectory are the initial
    conditions; every later output satisfies the owning model's recursion
    exactly.  Loaded records may carry NaN in ``u`` where a file left input
    cells empty; windowed operations reject such indices.
    """

    k0: int
    u: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        if u.ndim != 2 or y.ndim != 2:
            raise ValidationError("u and y must be 2-D (time x dimension)")
        if u.shape[0] != y.shape[0]:
            raise ValidationError(
                f"u has {u.shape[0]} rows but y has {y.shape[0]}; ranges must align"
            )
        u = u.copy()
        y = y.copy()
        u.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.u.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    @property
    def k_last(self) -> int:
        return self.k0 + len(self) - 1


@dataclass(frozen=True, eq=False)
class TransitionPair:
    """Stacked blocks of the j-step output transition.

    ``y[k+n+j] = -Fj @ Y_window + Gj @ U_window`` where the windows stack raw
    (non-negated) outputs ``y[k+n-1..k]`` and inputs ``u[k+n+j..k]`` newest
    first.  ``j = 0`` reproduces the model's own stacked coefficients.
    """

    j: int
    Fj: np.ndarray
    Gj: np.ndarray

    def __post_init__(self):
        for name in ("Fj", "Gj"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _shifted_F(model: IOModel, j: int) -> np.ndarray:
    """Left-shift of [F1..Fn] by j blocks with zero padding; zero for j >= n."""
    p, n = model.p, model.n
    out = np.zeros((p, p * n))
    if j <= n - 1:
        width = p * (n - j)
        out[:, :width] = model.F_stack[:, p * j:]
    return out


def _transition_prefix(model: IOModel, jmax: int) -> list[TransitionPair]:
    """Transition pairs for all 0 <= j <= jmax, cached on the model."""
    if jmax < 0:
        raise ValidationError("step offset j must be >= 0")
    if jmax > MAX_TRANSITION_STEPS:
        raise ValidationError(f"step offset {jmax} exceeds cap {MAX_TRANSITION_STEPS}")
    with _CACHE_LOCK:
        pairs: list[TransitionPair] = model._tp_cache.setdefault("pairs", [])
        if not pairs:
            pairs.append(TransitionPair(0, model.F_stack, model.G_stack))
        p, m, n = model.p, model.m, model.n
        G0_stack = model.G_stack
        for j in range(len(pairs), jmax + 1):
            Fj = _shifted_F(model, j)
            Gj = np.hstack([G0_stack, np.zeros((p, j * m))])
            for i in range(1, min(j, n) + 1):
                prev = pairs[j - i]
                Fj = Fj - model.F[i - 1] @ prev.Fj
                padded = np.hstack([np.zeros((p, i * m)), prev.Gj])
                Gj = Gj - model.F[i - 1] @ padded
            pairs.append(TransitionPair(j, Fj, Gj))
        return pairs[: jmax + 1]


def transition_pair(model: IOModel, j: int) -> TransitionPair:
    """Blocks (Fj, Gj) expressing y[k+n+j] from the order-n window at k.

    Fj has shape (p, p*n) and Gj has shape (p, m*(n+1+j)).  Results are
    cached per model, so repeated queries are cheap.
    """
    return _transition_prefix(model, j)[j]


def output_transition(model: IOModel, stacked_outputs, stacked_inputs, j: int) -> np.ndarray:
    """Evaluate y[k+n+j] from raw stacked windows (newest entries first)."""
    pair = transition_pair(model, j)
    Y = np.asarray(stacked_outputs, dtype=float).reshape(-1)
    U = np.asarray(stacked_inputs, dtype=float).reshape(-1)
    if Y.shape[0] != pair.Fj.shape[1]:
        raise ValidationError(
            f"stacked outputs have length {Y.shape[0]}, expected {pair.Fj.shape[1]}"
        )
    if U.shape[0] != pair.Gj.shape[1]:
        raise ValidationError(
            f"stacked inputs have length {U.shape[0]}, expected {pair.Gj.shape[1]}"
        )
    return -pair.Fj @ Y + pair.Gj @ U


def simulate(model: IOModel, initial_outputs, inputs, horizon: int | None = None,
             k0: int = 0) -> Trajectory:
    """Run the model forward from an initial-condition window.

    Parameters
    ----------
    initial_outputs : the n outputs y[k0..k0+n-1] (ignored content for n = 0)
    inputs : at least ``horizon`` input vectors u[k0..]
    horizon : total record length including the initial conditions
              (defaults to ``len(inputs)``); must be >= n
    k0 : time index of the first stored sample

    Returns a trajectory whose outputs satisfy the recursion exactly for
    every index past the initial window.  Deterministic: identical inputs
    give bit-identical outputs.  Raises :class:`NumericalError` when the
    outputs overflow (an unstable model run long enough).
    """
    n, p, m = model.n, model.p, model.m
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if u.shape[1] != m:
        raise ValidationError(f"inputs have dimension {u.shape[1]}, model expects m={m}")
    if horizon is None:
        horizon = u.shape[0]
    if horizon < n:
        raise ValidationError(f"horizon {horizon} is below the model order {n}")
    if u.shape[0] < horizon:
        raise ValidationError(f"got {u.shape[0]} inputs for horizon {horizon}")
    if initial_outputs is None or (hasattr(initial_outputs, "__len__") and len(initial_outputs) == 0):
        ics = np.zeros((0, p))
    else:
        ics = np.asarray(initial_outputs, dtype=float)
        if ics.ndim == 1:
            ics = ics.reshape(-1, 1) if p == 1 else ics.reshape(1, -1)
    if ics.shape != (n, p):
        raise ValidationError(f"initial outputs have shape {ics.shape}, expected {(n, p)}")
    if not np.all(np.isfinite(u[:horizon])):
        raise ValidationError("inputs contain non-finite values")
    if not np.all(np.isfinite(ics)):
        raise ValidationError("initial outputs contain non-finite values")

    u = u[:horizon]
    y = np.zeros((horizon, p))
    y[:n] = ics
    F_stack, G_stack = model.F_stack, model.G_stack
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is raised below
        for k in range(n, horizon):
            Yw = y[k - n:k][::-1].reshape(-1)
            Uw = u[k - n:k + 1][::-1].reshape(-1)
            y[k] = -F_stack @ Yw + G_stack @ Uw
    if not np.all(np.isfinite(y)):
        first = k0 + int(np.flatnonzero(~np.all(np.isfinite(y), axis=1))[0])
        raise NumericalError(
            f"simulation diverged: outputs are not finite from k={first} "
            f"(companion spectral radius {model.companion_spectral_radius():.3g})"
        )
    return Trajectory(k0=k0, u=u, y=y)


def verify_trajectory(model: IOModel, traj: Trajectory) -> float:
    """Max defect of the model recursion over the stored record.

    Returns 0.0 (up to roundoff) for trajectories produced by ``simulate``
    with the same model.
    """
    n = model.n
    if traj.p != model.p or traj.m != model.m:
        raise ValidationError("trajectory dimensions do not match the model")
    worst = 0.0
    F_stack, G_stack = model.F_stack, model.G_stack
    for k in range(n, len(traj)):
        Yw = traj.y[k - n:k][::-1].reshape(-1)
        Uw = traj.u[k - n:k + 1][::-1].reshape(-1)
        defect = traj.y[k] - (-F_stack @ Yw + G_stack @ Uw)
        worst = max(worst, float(np.max(np.abs(defect))))
    return worst
