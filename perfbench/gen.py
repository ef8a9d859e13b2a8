"""Seeded input generation for the benchmark workloads.

Everything here uses numpy only, never the package under test, so a change
to the program cannot change the inputs it is measured on.  The same
(workload, seed) always writes byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# experiment-siso: RLS updates per fit order; orders [1, 2, 3].
EXPERIMENT_HORIZON = 20_000
EXPERIMENT_ORDERS = [1, 2, 3]
# fit-excite-mimo: trajectory rows, true order 1 with p = m = 2, fit order 3.
TRAJECTORY_ROWS = 20_000
FIT_ORDER = 3
# algebra-queries: batches written; a run cycles through them in order.
QUERY_BATCHES = 128
QUERY_SHAPES = [(1, 1, 1), (1, 2, 1), (1, 3, 1), (2, 1, 2), (2, 2, 2), (2, 3, 2)]  # (p, n, m)

_TAGS = {"experiment-siso": 1, "fit-excite-mimo": 2, "algebra-queries": 3}


def spectral_radius(F: list) -> float:
    n = len(F)
    if n == 0:
        return 0.0
    p = F[0].shape[0]
    A = np.zeros((p * n, p * n))
    A[:p, :] = -np.hstack(F)
    A[p:, : p * (n - 1)] = np.eye(p * (n - 1))
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def random_stable_model(rng, n: int, p: int, m: int, radius: float = 0.85):
    """Uniform coefficients; scaling F_i by s**i moves every pole inside ``radius``."""
    F = [rng.uniform(-1.0, 1.0, (p, p)) for _ in range(n)]
    G = [rng.uniform(-1.0, 1.0, (p, m)) for _ in range(n + 1)]
    rho = spectral_radius(F)
    if rho > radius:
        s = radius / rho
        F = [F[i] * s ** (i + 1) for i in range(n)]
    return F, G


def random_contraction(rng, p: int, radius: float = 0.8) -> np.ndarray:
    """Spectral radius at most ``radius``.  A scalar draw is scaled, not
    clipped: clipping would put 40% of the draws on exactly +-radius, and
    two lifts of one chain would then often share a pole exactly (a double
    root, the case ``test_harness`` keeps as a known defect)."""
    D = rng.uniform(-1.0, 1.0, (p, p))
    if p == 1:
        return D * radius
    rho = float(np.max(np.abs(np.linalg.eigvals(D))))
    return D * (radius / rho) if rho > radius else D


def model_dict(F, G) -> dict:
    p, m = G[0].shape
    return {"n": len(F), "p": p, "m": m,
            "F": [f.tolist() for f in F], "G": [g.tolist() for g in G]}


def lift(F, G, D):
    """Coefficients of (I + D z^-1) times the model's polynomials: order n+1."""
    p = D.shape[0]
    A = [np.eye(p)] + list(F) + [np.zeros((p, p))]
    B = list(G) + [np.zeros_like(G[0])]
    F_new = [A[i] + D @ A[i - 1] for i in range(1, len(A))]
    G_new = [B[0]] + [B[j] + D @ B[j - 1] for j in range(1, len(B))]
    return F_new, G_new


def simulate(F, G, y_init: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outputs y[0..K-1]; y[:n] = y_init, later rows follow the recursion."""
    n = len(F)
    y = np.zeros((u.shape[0], G[0].shape[0]))
    y[:n] = y_init
    for k in range(n, u.shape[0]):
        acc = G[0] @ u[k]
        for i in range(1, n + 1):
            acc = acc - F[i - 1] @ y[k - i] + G[i] @ u[k - i]
        y[k] = acc
    return y


def _write_json(path: Path, obj) -> int:
    text = json.dumps(obj, sort_keys=True)
    path.write_text(text)
    return len(text.encode())


def generate(workload: str, seed: int, inputs: Path) -> dict:
    """Write one workload's input files under ``inputs``; return the
    expectations and sizes the harness needs (never given to the program)."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _TAGS[workload]])
    if workload == "experiment-siso":
        return _experiment(rng, inputs)
    if workload == "fit-excite-mimo":
        return _fit_excite(rng, inputs)
    return _queries(rng, inputs)


def _experiment(rng, inputs: Path) -> dict:
    F, G = random_stable_model(rng, 1, 1, 1)
    _write_json(inputs / "model.json", model_dict(F, G))
    config = {
        "true_model": "model.json",
        "fit_orders": EXPERIMENT_ORDERS,
        "input": {"kind": "white", "seed": int(rng.integers(2**31)), "scale": 1.0},
        "horizon": EXPERIMENT_HORIZON,
    }
    _write_json(inputs / "config.json", config)
    phi_bytes = sum(EXPERIMENT_HORIZON * (o + (o + 1)) * 8 for o in EXPERIMENT_ORDERS)
    return {"config": "config.json", "horizon": EXPERIMENT_HORIZON,
            "orders": EXPERIMENT_ORDERS, "phi_bytes": phi_bytes,
            "work_per_pass": EXPERIMENT_HORIZON * len(EXPERIMENT_ORDERS)}


def _fit_excite(rng, inputs: Path) -> dict:
    p = m = 2
    F, G = random_stable_model(rng, 1, p, m)
    _write_json(inputs / "true_model.json", model_dict(F, G))
    u = rng.standard_normal((TRAJECTORY_ROWS, m))
    y = simulate(F, G, rng.standard_normal((1, p)), u)
    # A few leading input cells are lost, as in a log that started late; the
    # outputs are kept, so later windows still satisfy the model exactly.
    u_cells = u.copy()
    lost = int(rng.integers(2, 6))
    for row in range(lost):
        u_cells[row, int(rng.integers(m))] = np.nan
    finite = np.all(np.isfinite(u_cells), axis=1)
    valid = [k for k in range(FIT_ORDER, TRAJECTORY_ROWS)
             if finite[k - FIT_ORDER:k + 1].all()]
    header = ["k"] + [f"u_{i + 1}" for i in range(m)] + [f"y_{i + 1}" for i in range(p)]
    lines = [",".join(header)]
    for k in range(TRAJECTORY_ROWS):
        cells = [str(k)] + ["" if not np.isfinite(v) else repr(float(v)) for v in u_cells[k]]
        cells += [repr(float(v)) for v in y[k]]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    (inputs / "traj.csv").write_text(text)
    # Every regressor column is a lag of one trajectory column, so trace / d
    # of the average Gram, the scale of its eigenvalues, is about the largest
    # mean square of a trajectory column or below it.
    gram_scale = max(float(np.mean(np.square(c[np.isfinite(c)])))
                     for c in np.hstack([u_cells, y]).T)
    d_full = p * FIT_ORDER + m * (FIT_ORDER + 1)
    d_reduced = p * 1 + m * (FIT_ORDER + 1)
    return {"data": "traj.csv", "true_model": "true_model.json", "order": FIT_ORDER,
            "true_order": 1, "samples": len(valid), "first_k": valid[0],
            "horizon": TRAJECTORY_ROWS, "input_csv_bytes": len(text.encode()),
            "gram_scale": gram_scale,
            "phi_bytes": len(valid) * (d_full + d_reduced) * 8,
            "work_per_pass": 2 * len(valid)}


def transition_probe(rng, F, G, j: int):
    """A random window (outputs and inputs, newest first) and the output j
    steps past it, by direct recursion."""
    n, p, m = len(F), G[0].shape[0], G[0].shape[1]
    u = rng.uniform(-1.0, 1.0, (n + j + 1, m))
    y = simulate(F, G, rng.uniform(-1.0, 1.0, (n, p)), u)
    return y[:n][::-1].ravel(), u[::-1].ravel(), y[n + j]


def _queries(rng, inputs: Path) -> dict:
    """Per batch and per shape: one base model with ten queries on it and its
    lifts, and one fresh model with a single transition query.

    The base model's transition offsets repeat (j1, j1, j2 > j1, j1),
    and its cross-order equivalence queries share offsets: that reuse is an
    assumption of this workload, not taken from any caller of the package.
    The fresh models are never queried again, so both sides of the
    per-model transition cache are measured.
    """
    # The fresh models come from a stream of their own, so the other draws
    # are the same as without them.
    fresh_rng = rng.spawn(1)[0]
    batches = []
    for _ in range(QUERY_BATCHES):
        models, queries = {}, []
        for s, (p, n, m) in enumerate(QUERY_SHAPES):
            F, G = random_stable_model(rng, n, p, m)
            D1, D2 = random_contraction(rng, p), random_contraction(rng, p)
            F1, G1 = lift(F, G, D1)
            F2, G2 = lift(F1, G1, D2)
            theta_norm = float(np.linalg.norm(np.hstack(F2 + G2)))
            G2p = [g.copy() for g in G2]
            G2p[0][0, 0] += 1e-3 * (1.0 + theta_norm)
            base, lift1, lift2, pert, fresh = f"b{s}", f"l{s}a", f"l{s}b", f"x{s}", f"c{s}"
            models[base] = model_dict(F, G)
            models[f"e{s}a"] = model_dict(F1, G1)
            models[f"e{s}b"] = model_dict(F2, G2)
            models[pert] = model_dict(F2, G2p)
            models[fresh] = model_dict(*random_stable_model(fresh_rng, n, p, m))
            j1 = int(rng.integers(100, 201))
            j2 = j1 + int(rng.integers(50, 151))
            queries += [
                {"op": "lift_once", "args": [base], "D": D1.tolist(), "out": lift1,
                 "expect": f"e{s}a"},
                {"op": "lift_once", "args": [lift1], "D": D2.tolist(), "out": lift2,
                 "expect": f"e{s}b"},
                {"op": "is_equivalent", "args": [base, lift2], "expect": True},
                {"op": "is_equivalent", "args": [base, pert], "expect": False},
                {"op": "is_equivalent", "args": [lift1, base], "expect": True},
                {"op": "reducibility_check", "args": [lift2], "expect": n, "base": base},
                {"op": "transition_pair", "args": [base], "j": j1},
                {"op": "transition_pair", "args": [base], "j": j1},
                {"op": "transition_pair", "args": [base], "j": j2},
                {"op": "transition_pair", "args": [base], "j": j1},
                {"op": "transition_pair", "args": [fresh],
                 "j": int(fresh_rng.integers(100, 351))},
            ]
        batches.append({"models": models, "queries": queries})
    size = _write_json(inputs / "queries.json", {"batches": batches})
    return {"queries": "queries.json", "batches": QUERY_BATCHES,
            "queries_per_batch": len(batches[0]["queries"]),
            "input_json_bytes": size, "phi_bytes": 0,
            "work_per_pass": len(batches[0]["queries"])}
