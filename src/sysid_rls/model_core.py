"""Discrete-time MIMO input/output models.

A model of order ``n`` with output dimension ``p`` and input dimension ``m``
evolves as

    y[k+n] = -(F1 y[k+n-1] + ... + Fn y[k]) + G0 u[k+n] + ... + Gn u[k]

with coefficient blocks ``Fi`` (p x p) and ``Gi`` (p x m).  This module holds
the model and trajectory value types, simulation, and the multi-step
output-transition blocks that express ``y[k+n+j]`` directly in terms of the
window ``y[k+n-1..k]`` and inputs ``u[k+n+j..k]``.  Those blocks are sums of
the impulse response ``a_0 = I``, ``a_r = -(F1 a_{r-1} + ... + Fn a_{r-n})``
of the output dynamics, the companion-form Markov parameters (Kailath,
*Linear Systems*, 1980), and every offset is computed from them directly.
Simulation evaluates the recursion through the same blocks, 64 outputs per
step, so a simulated record satisfies the recursion to round-off.

Stacked windows are always ordered newest-first: ``[y[k+n-1]; ...; y[k]]`` and
``[u[k+n]; ...; u[k]]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Offsets beyond this cap are treated as caller error: ``Gj`` grows by m
# columns per step, and the impulse response of an unstable model overflows.
MAX_TRANSITION_STEPS = 10_000

# Outputs produced per interpreter step by ``simulate``; the same width as
# the RLS fold's row blocks.
_SIM_BLOCK = 64


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
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"{what}[{i}] has non-finite coefficients")
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

    def __post_init__(self):
        if self.n < 0 or self.p <= 0 or self.m <= 0:
            raise ValidationError(f"bad dimensions n={self.n}, p={self.p}, m={self.m}")
        object.__setattr__(self, "F", _as_blocks(self.F, self.n, (self.p, self.p), "F"))
        object.__setattr__(self, "G", _as_blocks(self.G, self.n + 1, (self.p, self.m), "G"))

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
    def theta(self) -> np.ndarray:
        """Flattened coefficients ``[F1 .. Fn G0 .. Gn]``."""
        return np.concatenate(self.F + self.G, axis=1)

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
        return float(np.max(np.abs(np.linalg.eigvals(_companion(self)))))


def _companion(model: IOModel) -> np.ndarray:
    """Block companion of the output dynamics (``n >= 1``): identities below
    the block diagonal, ``-Fn .. -F1`` down the last block column."""
    p, n = model.p, model.n
    C = np.eye(p * n, k=-p)
    C[:, -p:] = -np.vstack(model.F[::-1])
    return C


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Aligned input/output record on time indices ``k0 .. k0+len-1``.

    The first ``n`` outputs of a simulated trajectory are the initial
    conditions; every later output satisfies the owning model's recursion
    to round-off (``simulate`` evaluates it in blocks of outputs).  Loaded
    records may carry NaN in ``u`` where a file left input cells empty;
    windowed operations reject such indices.
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


def _transition_blocks(model: IOModel, offsets) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(Fj, Gj)`` for each offset j, all from one impulse response.

    Block row t of ``R`` is ``[a_t .. a_{t-n}] = [I 0 .. 0] A^t`` for the
    observer-form companion ``A`` (``-F1 .. -Fn`` down its first block
    column, identities above the diagonal, one zero block of padding), so
    ``[R; R A^L]`` doubles the rows held in O(log j) products.  With ``T``
    stacking ``[F_{d+1} .. Fn 0 .. | G_d .. Gn 0 ..]`` for d = 0..n,
    ``R_t T = [Ft | h_t tail_t]``: ``h_t = sum_i a_{t-i} Gi`` is the t-th
    Markov block and ``tail_t`` the last n input blocks of ``Gt``, so
    ``Gj = [h_0 .. h_{j-1} h_j tail_j]``.
    """
    if min(offsets) < 0:
        raise ValidationError("step offset j must be >= 0")
    if max(offsets) > MAX_TRANSITION_STEPS:
        raise ValidationError(f"step offset {max(offsets)} exceeds cap {MAX_TRANSITION_STEPS}")
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


def transition_pair(model: IOModel, j: int) -> TransitionPair:
    """Blocks (Fj, Gj) expressing y[k+n+j] from the order-n window at k.

    Fj has shape (p, p*n) and Gj has shape (p, m*(n+1+j)).  Computed from the
    impulse response of the output dynamics in O(log j) array steps, so a
    repeated query costs what the first one did.
    """
    return TransitionPair(j, *_transition_blocks(model, [j])[0])


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

    Returns a trajectory whose outputs satisfy the recursion to round-off
    for every index past the initial window.  The outputs are evaluated
    B = :data:`_SIM_BLOCK` at a time, or ``horizon - n`` (at least 1) for a
    shorter record (block realization of the recursive filter; Burrus,
    IEEE Trans. Audio Electroacoust. 20(4), 1972): with the transition
    blocks ``Fj``, ``Gj`` for j = 0..B-1 stacked as ``FF`` and,
    right-aligned, ``GG``, the block starting at ``t`` is
    ``GG @ u[t+B-1..t-n] - FF @ y[t-1..t-n]`` (newest first).  The input
    terms of every block come from one matrix product, so only the output
    window is carried from block to block.  Deterministic: identical inputs
    give bit-identical outputs, and a record continued from its last ``n``
    outputs after a multiple of :data:`_SIM_BLOCK` steps matches the
    unsplit one bit for bit when the continuation is at least
    :data:`_SIM_BLOCK` steps long.
    Raises :class:`NumericalError` when the outputs overflow (an unstable
    model run long enough).
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
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is raised below
        B = min(_SIM_BLOCK, max(1, horizon - n))
        blocks = _transition_blocks(model, range(B))
        while True:
            FF = np.vstack([Fj for Fj, _ in blocks])
            GG = np.zeros((B * p, (B + n) * m))
            for j, (_, Gj) in enumerate(blocks):
                GG[j * p:(j + 1) * p, (B - 1 - j) * m:] = Gj
            # A steep model overflows the B-step blocks themselves; halving
            # ends at B = 1, the model's own finite coefficients.
            if B == 1 or (np.isfinite(FF).all() and np.isfinite(GG).all()):
                break
            B //= 2
            blocks = blocks[:B]
        starts = np.arange(n, horizon, B)
        u_pad = np.zeros((n + len(starts) * B, m))
        u_pad[:horizon] = u
        windows = u_pad[starts[:, None] + np.arange(B - 1, -n - 1, -1)]
        forced = windows.reshape(len(starts), (B + n) * m) @ GG.T
        for t, f in zip(starts.tolist(), forced):
            out = (f - FF @ y[t - n:t][::-1].ravel()).reshape(B, p)
            y[t:t + B] = out[:horizon - t]
    if not np.all(np.isfinite(y)):
        first = k0 + int(np.flatnonzero(~np.all(np.isfinite(y), axis=1))[0])
        raise NumericalError(
            f"simulation diverged: outputs are not finite from k={first} "
            f"(companion spectral radius {model.companion_spectral_radius():.3g})"
        )
    return Trajectory(k0=k0, u=u, y=y)
