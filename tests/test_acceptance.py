"""Acceptance gate: one test per criterion, tolerances pinned, one printed
pass/fail line each.  Everything is seeded, so reruns are deterministic."""

import time

import numpy as np

from sysid_rls import (
    IOModel,
    batch_solve,
    build_lift_matrix,
    excitation_report,
    is_equivalent,
    lift_once,
    projected_limit,
    reducibility_check,
    regressor_matrix,
    rls_fold,
    run_experiment,
    run_tracked_identification,
    simulate,
    theta_equivalence_residual,
    trivial_embed,
)
from sysid_rls.experiment import config_from_dict
from sysid_rls.rls import RlsState
import scipy.linalg

from support import (
    kkt_projected_limit,
    random_contraction,
    random_spd,
    random_stable_model,
    simulation_equivalence_oracle,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_recursive_equals_batch():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(200):
        if trial < 100:
            p = m = 1
        else:
            p, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n_hat = int(rng.integers(1, 5))
        d = p * n_hat + m * (n_hat + 1)
        theta0 = rng.standard_normal((p, d))
        P0 = (1e3 * np.eye(d)) if trial % 2 == 0 else random_spd(rng, d, 0.5, 10.0)
        phis = rng.standard_normal((500, d))
        ys = rng.standard_normal((500, p))
        state = RlsState(theta=theta0.copy(), P=P0.copy(), k=0)
        _, record = rls_fold(state, phis, ys, keep_history=True)
        for k in range(500):
            theta_b = batch_solve(phis[:k + 1], ys[:k + 1], theta0, P0)
            rel = np.linalg.norm(record.theta[k] - theta_b) / (1 + np.linalg.norm(theta_b))
            worst = max(worst, rel)
            assert rel <= 1e-8
    elapsed = time.monotonic() - t0
    report("01 recursive-equals-batch", worst <= 1e-8 and elapsed < 60.0,
           f"200 instances x 500 steps, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_lift_identity():
    from sysid_rls import lift_identity_check

    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(0, 3))
        p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        model = random_stable_model(rng, n, p, m)
        n_hat = n + int(rng.integers(1, 4))
        traj = simulate(model, rng.uniform(-1, 1, (n, p)),
                        rng.uniform(-1, 1, (80, m)))
        worst = max(worst, lift_identity_check(traj, model, n_hat))
    report("02 lift-identity", worst <= 1e-9,
           f"50 trajectories, max regressor defect {worst:.2e}")


def test_criterion_03_equivalence_vs_simulation_oracle():
    rng = np.random.default_rng(103)
    agree = 0
    total = 0
    for trial in range(100):
        p = 1 if trial % 2 == 0 else int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        base = random_stable_model(rng, n, p, m)
        high = lift_once(base, random_contraction(rng, p))

        verdict = bool(is_equivalent(base, high, tol=1e-8))
        oracle = simulation_equivalence_oracle(base, high, rng, steps=100)
        agree += int(verdict is True and oracle is True)
        total += 1

        theta = high.theta.copy()
        row = int(rng.integers(0, p))
        col = int(rng.integers(0, theta.shape[1]))
        theta[row, col] += float(rng.uniform(0.1, 0.4) * rng.choice([-1.0, 1.0]))
        perturbed = IOModel.from_theta(theta, high.n, p, m)
        verdict = bool(is_equivalent(base, perturbed, tol=1e-8))
        oracle = simulation_equivalence_oracle(base, perturbed, rng, steps=100)
        agree += int(verdict is False and oracle is False)
        total += 1
    report("03 equivalence-vs-oracle", agree == total,
           f"{agree}/{total} verdicts agree with the 100-step output oracle")


def test_criterion_04_reduction_round_trip():
    rng = np.random.default_rng(104)
    hits = 0
    for _ in range(100):
        while True:
            f1 = float(rng.uniform(-0.9, 0.9))
            g0, g1 = (float(x) for x in rng.uniform(-1, 1, 2))
            if abs(g1 - f1 * g0) > 0.05:
                break
        base = IOModel.scalar([f1], [g0, g1])
        d1, d2 = (float(x) for x in rng.uniform(-0.9, 0.9, 2))
        high = lift_once(lift_once(base, d1), d2)
        rep = reducibility_check(high, tol=1e-8)
        if rep.irreducible_model.n == 1 and is_equivalent(high, rep.irreducible_model):
            hits += 1
    report("04 reduction-round-trip", hits >= 99,
           f"{hits}/100 double-lifted models recovered at order 1")


def test_criterion_05_rank_obstruction():
    rng = np.random.default_rng(11)
    model = IOModel.scalar([0.5], [0.0, 1.0])
    n_hat, steps = 3, 10_000
    u = rng.standard_normal((steps + n_hat, 1))
    traj = simulate(model, np.zeros((1, 1)), u, k0=-n_hat)
    ks = np.arange(0, steps)
    Phi_full, _, _ = regressor_matrix(traj, n_hat, ks)
    Phi_red = Phi_full[:, model.p * (n_hat - model.n):]
    rep_full = excitation_report(Phi_full)
    rep_red = excitation_report(Phi_red)
    trace_full = float(np.trace(rep_full.limit.C) * steps)
    pinned = float(np.max(rep_full.min_eig_curve)) <= 1e-6 * trace_full
    ratio = float(rep_red.min_eig_curve[9_999] / rep_red.min_eig_curve[999])
    report("05 rank-obstruction", pinned and ratio >= 10.0,
           f"full lambda_min/trace {np.max(rep_full.min_eig_curve) / trace_full:.1e}, "
           f"reduced growth x{ratio:.2f} from k=1e3 to 1e4")


def test_criterion_06_correct_order_rate():
    model = IOModel.scalar([0.5], [0.3, 1.0])  # pole magnitude 0.5 <= 0.9
    t0 = time.monotonic()
    u = np.random.default_rng(106).standard_normal((100_001, 1))
    trace = run_tracked_identification(model, 1, u, 100_000)
    elapsed = time.monotonic() - t0
    ok = trace.final_dist <= 1e-3 and trace.asymptote_rel_error <= 0.10 \
        and elapsed < 60.0
    report("06 correct-order-rate", ok,
           f"|theta-theta_true| {trace.final_dist:.2e}, "
           f"rate err {trace.asymptote_rel_error:.2%}, {elapsed:.1f}s")


def test_criterion_07_overparameterized_rate():
    model = IOModel.scalar([0.5], [0.3, 1.0])
    details = []
    ok = True
    for n_hat in (2, 3):
        u = np.random.default_rng(107).standard_normal((100_000 + n_hat, 1))
        trace = run_tracked_identification(model, n_hat, u, 100_000)
        good = trace.final_dist <= 1e-3 and trace.asymptote_rel_error <= 0.10 \
            and trace.final_residual <= 1e-6
        ok = ok and good
        details.append(
            f"n_hat={n_hat}: |theta-theta*| {trace.final_dist:.2e}, "
            f"rate err {trace.asymptote_rel_error:.2%}, "
            f"residual {trace.final_residual:.2e}")
    report("07 overparameterized-rate", ok, "; ".join(details))


def _random_projection_instance(rng):
    n = int(rng.integers(0, 3))
    p, m = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    model = random_stable_model(rng, n, p, m)
    n_hat = n + int(rng.integers(1, 4))
    d = p * n_hat + m * (n_hat + 1)
    theta0 = rng.standard_normal((p, d))
    P0 = (1e3 * np.eye(d)) if rng.integers(2) else random_spd(rng, d)
    return model, n_hat, theta0, P0


def test_criterion_08_projected_limit_optimality():
    rng = np.random.default_rng(108)
    worst_kkt = 0.0
    min_margin = np.inf
    for _ in range(100):
        model, n_hat, theta0, P0 = _random_projection_instance(rng)
        pl = projected_limit(model, n_hat, theta0, P0)
        M = build_lift_matrix(model, n_hat)
        p, d = theta0.shape

        oracle = kkt_projected_limit(trivial_embed(model, n_hat).theta, theta0, P0, M)
        worst_kkt = max(worst_kkt, float(np.max(np.abs(pl.theta_star - oracle))))

        basis = scipy.linalg.null_space(M.T)
        P0_inv = np.linalg.inv(P0)

        def reg(theta):
            E = theta - theta0
            return float(np.sum((E @ P0_inv) * E))

        base_reg = reg(pl.theta_star)
        coeffs = rng.standard_normal((1000, p, basis.shape[1]))
        deltas = np.einsum("kpn,dn->kpd", coeffs, basis)
        E = (pl.theta_star - theta0)[None, :, :] + deltas
        regs = np.einsum("kpd,de,kpe->k", E, P0_inv, E)
        min_margin = min(min_margin, float(np.min(regs) - base_reg))
        assert np.max(np.abs(np.einsum("kpd,dr->kpr", deltas, M))) <= 1e-9
    ok = worst_kkt <= 1e-9 and min_margin >= 1e-12
    report("08 projected-limit-optimality", ok,
           f"KKT max dev {worst_kkt:.2e}, min margin over 10^5 feasible "
           f"perturbations {min_margin:.2e}")


def test_criterion_09_projection_invariants():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        model, n_hat, theta0, P0 = _random_projection_instance(rng)
        pl = projected_limit(model, n_hat, theta0, P0)
        M = build_lift_matrix(model, n_hat)
        worst = max(worst, float(np.max(np.abs(pl.H @ pl.H - pl.H))))
        worst = max(worst, float(np.max(np.abs(pl.H @ M - M))))
        worst = max(worst, float(np.max(np.abs(
            (pl.theta_star - trivial_embed(model, n_hat).theta) @ M))))
    report("09 projection-invariants", worst <= 1e-9,
           f"100 instances, max defect over H^2=H, HM=M, (theta*-truth)M=0: {worst:.2e}")


def test_criterion_10_reproducibility(tmp_path):
    cfg = config_from_dict({
        "true_model": IOModel.scalar([0.5], [0.3, 1.0]).to_dict(),
        "fit_orders": [1, 2],
        "horizon": 1500,
        "input": {"kind": "white", "seed": 42},
    })
    man1 = run_experiment(cfg, tmp_path / "a")
    man2 = run_experiment(cfg, tmp_path / "b")
    identical = man1.manifest_hash == man2.manifest_hash
    for name in ("trace_order1.csv", "trace_order2.csv"):
        identical &= (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    statuses = [r["status"] for r in man1.runs]
    report("10 reproducibility", identical and statuses == ["ok", "ok"],
           "rerun gives byte-identical trace CSVs and identical manifest hash")


def test_criterion_11_large_prior_limit():
    # per p0, bounds on the final distance to theta* and on the equivalence
    # residual, which shrink with the prior's pull (about 1 / (k p0)), each
    # with at least 25x headroom over the blocked fold's worst case; the
    # rate prediction is resolvable only up to p0 = 1e6
    model = IOModel.scalar([0.5], [0.3, 1.0])
    bounds = {1e3: (1e-7, 1e-6), 1e6: (1e-9, 1e-9), 1e9: (1e-12, 1e-12)}
    ok, details = True, []
    for p0, (dist_bound, resid_bound) in bounds.items():
        worst = np.zeros(3)
        for n_hat in (1, 3):
            for seed in range(3):
                u = np.random.default_rng(seed).standard_normal((50_000 + n_hat, 1))
                trace = run_tracked_identification(model, n_hat, u, 50_000, p0_scale=p0)
                resid = theta_equivalence_residual(trace.theta_final, model, n_hat)
                rate = trace.asymptote_rel_error if p0 <= 1e6 else 0.0
                worst = np.maximum(worst, [trace.final_dist, resid, rate])
        ok &= worst[0] <= dist_bound and worst[1] <= resid_bound and worst[2] <= 1e-3
        details.append(f"p0={p0:.0e}: |theta-theta*| {worst[0]:.1e}, "
                       f"equiv residual {worst[1]:.1e}"
                       + (f", rate err {worst[2]:.1e}" if p0 <= 1e6 else ""))
    report("11 large-prior-limit", ok, "; ".join(details))
