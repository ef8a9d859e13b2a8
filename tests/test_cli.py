import collections
import json
import os
import signal
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sysid_rls import (
    IOModel,
    InputSpec,
    Trajectory,
    estimate_gram_limit,
    generate_input,
    initial_state,
    lift_once,
    load_config,
    regressor_matrix,
    rls_fold,
    simulate,
    trivial_embed,
)
from sysid_rls import cli, excitation, experiment, rls
from sysid_rls.cli import main
from sysid_rls.fileio import (
    load_model,
    load_trajectory,
    save_model,
    save_trajectory,
    write_csv,
)
from sysid_rls.rls import TRACE_CHUNK_ROWS, valid_regressor_indices

from support import (
    PROCESSES,
    cpus,
    processes,
    random_stable_model,
    reference_gram_curve,
    reference_reduced_regressor,
    run_cli_capped,
)


SCALAR = IOModel.scalar([0.5], [0.0, 1.0])
# how rls_fold reports a prior the data cannot bring down
BLOW_UP = "the prior covariance is too large for the data"


# p = 2, m = 2: at fit order 3 the regressor has d = 14 entries
MIMO = IOModel(n=1, p=2, m=2, F=[np.array([[0.5, 0.1], [-0.2, -0.3]])],
               G=[np.array([[1.0, 0.0], [0.5, 1.0]]), np.array([[0.2, -0.4], [0.0, 0.3]])])


def _mimo_record(path, rows, lost=0):
    """A ``rows``-long record of ``MIMO`` on white input whose first ``lost``
    rows have an empty first input cell."""
    u = generate_input(InputSpec(kind="white", seed=5), rows, 2)
    traj = simulate(MIMO, np.zeros((1, 2)), u)
    u = traj.u.copy()
    u[:lost, 0] = np.nan
    save_trajectory(Trajectory(k0=traj.k0, u=u, y=traj.y), path)
    return path


def _overflowing_record(path, rows=2000, start=1500):
    """A ``rows``-long record of ``MIMO`` scaled by 1e155 from row ``start``
    on: the fold's block products overflow in the windows that reach it."""
    traj = load_trajectory(_mimo_record(path, rows))
    scale = np.where(np.arange(rows) >= start, 1e155, 1.0)[:, None]
    save_trajectory(Trajectory(k0=traj.k0, u=traj.u * scale, y=traj.y * scale), path)
    return path


@pytest.fixture
def workdir(tmp_path):
    save_model(SCALAR, tmp_path / "model.json")
    save_model(lift_once(SCALAR, 0.3), tmp_path / "high.json")
    u = generate_input(InputSpec(kind="white", seed=2), 400, 1)
    save_trajectory(simulate(SCALAR, [0.7], u), tmp_path / "traj.csv")
    return tmp_path

# 1.6e18 bytes of input: below numpy's 2**63 size limit, above any 64-bit
# user address space (2**57 bytes with 5-level paging), so it fails at once
UNALLOCATABLE = 2 * 10**17


class TestEquivCommand:
    def test_equivalent_pair(self, workdir, capsys):
        rc = main(["equiv", str(workdir / "model.json"), str(workdir / "high.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out and "residual" in out

    def test_inequivalent_pair(self, workdir, capsys):
        bad = IOModel.scalar([0.8, 0.15], [0.0, 1.0, 0.0])
        save_model(bad, workdir / "bad.json")
        rc = main(["equiv", str(workdir / "model.json"), str(workdir / "bad.json")])
        assert rc == 0
        assert "NOT EQUIVALENT" in capsys.readouterr().out

    @pytest.mark.parametrize("change,message", [
        ({"F": 5}, "F must be a list of 1 blocks"),
        ({"F": ["a"]}, "F[0] is not a numeric matrix"),
        ({"n": "x"}, "n, p, m must be integers"),
        ({"m": float("inf")}, "n, p, m must be integers"),
        ({"F": [[[10**400]]]}, "F[0] is not a numeric matrix"),
    ])
    def test_malformed_model_is_validation_error(self, workdir, capsys, change, message):
        bad = workdir / "bad.json"
        model = {"n": 1, "p": 1, "m": 1, "F": [[[0.5]]], "G": [[[0.0]], [[1.0]]]}
        bad.write_text(json.dumps(dict(model, **change)))
        rc = main(["equiv", str(bad), str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_missing_file_is_validation_error(self, workdir, capsys):
        rc = main(["equiv", str(workdir / "model.json"), str(workdir / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("command", ["equiv", "reduce"])
    @pytest.mark.parametrize("block,value", [("F", float("nan")), ("F", float("inf")),
                                             ("G", float("nan")), ("G", -float("inf"))])
    def test_non_finite_coefficient_is_validation_error(self, workdir, capsys, command,
                                                        block, value):
        model = {"n": 1, "p": 1, "m": 1, "F": [[[0.5]]], "G": [[[0.0]], [[1.0]]]}
        model[block][0][0][0] = value
        bad = workdir / "bad.json"
        bad.write_text(json.dumps(model))  # NaN / Infinity / -Infinity literals
        rc = main([command, str(bad)] + ([str(bad)] if command == "equiv" else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{block}[0] has non-finite coefficients" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["equiv", "reduce"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "x"])
    def test_bad_tol_is_usage_error(self, workdir, capsys, command, tol):
        models = [str(workdir / "model.json")] * (2 if command == "equiv" else 1)
        with pytest.raises(SystemExit) as exc:
            main([command, *models, "--tol", tol])
        assert exc.value.code == 2
        assert "expected a non-negative finite number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_lift_is_numerical_failure(self, workdir, capsys):
        base = IOModel.scalar([1e200], [1.0, 1.0])
        save_model(base, workdir / "huge.json")
        save_model(lift_once(lift_once(base, 0.5), 0.3), workdir / "huge3.json")
        rc = main(["equiv", str(workdir / "huge.json"), str(workdir / "huge3.json")])
        assert rc == 3
        captured = capsys.readouterr()
        assert "overflows" in captured.err and "Warning" not in captured.err
        assert "EQUIVALENT" not in captured.out

    def test_zero_tol_runs(self, workdir, capsys):
        model = str(workdir / "model.json")
        assert main(["equiv", model, model, "--tol", "0"]) == 0
        assert "NOT EQUIVALENT" not in capsys.readouterr().out
        assert main(["reduce", str(workdir / "high.json"), "--tol", "0"]) == 0


class TestReduceCommand:
    def test_full_chain(self, workdir, capsys):
        rc = main(["reduce", str(workdir / "high.json"),
                   "--out", str(workdir / "red.json")])
        assert rc == 0
        reduced = load_model(workdir / "red.json")
        assert reduced.n == 1
        np.testing.assert_allclose(reduced.theta, SCALAR.theta, atol=1e-10)
        witness = json.loads((workdir / "red_witness.json").read_text())
        np.testing.assert_allclose(witness["witnesses_F1"], [[[0.5]]], atol=1e-10)

    def test_once_writes_next_to_the_model(self, workdir, capsys):
        rc = main(["reduce", str(workdir / "high.json"), "--once"])
        assert rc == 0
        reduced = load_model(workdir / "high_reduced.json")
        assert reduced.n == 1
        np.testing.assert_allclose(reduced.theta, SCALAR.theta, atol=1e-10)
        witness = json.loads((workdir / "high_reduced_witness.json").read_text())
        np.testing.assert_allclose(witness["witnesses_F1"], [[[0.5]]], atol=1e-10)
        assert "reduced from order 2 to order 1" in capsys.readouterr().out

    def test_irreducible_input(self, workdir, capsys):
        rc = main(["reduce", str(workdir / "model.json")])
        assert rc == 0
        assert "irreducible" in capsys.readouterr().out

    def test_once_proves_irreducible(self, workdir, capsys):
        save_model(IOModel.scalar([0.5], [1.0, 0.3]), workdir / "low.json")
        assert main(["reduce", str(workdir / "low.json"), "--once"]) == 0
        assert "irreducible; model kept at order 1" in capsys.readouterr().out
        assert not (workdir / "low_reduced.json").exists()

    def test_once_without_proof_is_no_witness(self, workdir, capsys):
        # a large input gain raises the p = 2 search's rank floor, so its
        # failed search proves nothing
        model = random_stable_model(np.random.default_rng(11), 2, 2, 1)
        model = IOModel(n=model.n, p=model.p, m=model.m, F=model.F,
                        G=tuple(1e6 * g for g in model.G))
        save_model(model, workdir / "gain.json")
        assert main(["reduce", str(workdir / "gain.json"), "--once"]) == 0
        out = capsys.readouterr().out
        assert "no witness found (best residual" in out and "model kept at order 2" in out
        assert "irreducible" not in out

    @pytest.mark.parametrize("high", [
        lift_once(lift_once(IOModel.scalar([1e20], [1.0, 1.0]), 0.5), 0.3),
        lift_once(IOModel.scalar([1e10], [1.0, 1.0]), 0.3),
    ])
    def test_unresolved_search_is_no_witness(self, workdir, capsys, high):
        # the common roots sit below the eigenvalues' resolution eps * ||C||
        save_model(high, workdir / "big.json")
        assert main(["reduce", str(workdir / "big.json")]) == 0
        out = capsys.readouterr().out
        assert f"no witness found; model kept at order {high.n}" in out
        assert "irreducible" not in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("once", [[], ["--once"]])
    def test_overflowing_search_is_numerical_failure(self, workdir, capsys, once):
        # an exact lift of an order-1 model, which equiv cannot check either
        high = lift_once(lift_once(IOModel.scalar([1e200], [1.0, 1.0]), 0.5), 0.3)
        save_model(high, workdir / "huge3.json")
        rc = main(["reduce", str(workdir / "huge3.json")] + once)
        assert rc == 3
        captured = capsys.readouterr()
        assert "overflows" in captured.err and "Warning" not in captured.err
        assert "irreducible" not in captured.out and "no witness" not in captured.out


class TestFitCommand:
    def test_trace_columns_and_recovery(self, workdir, capsys):
        trace = workdir / "trace.csv"
        rc = main(["fit", "--data", str(workdir / "traj.csv"), "--order", "1",
                   "--ref-model", str(workdir / "model.json"),
                   "--emit-trace", str(trace)])
        assert rc == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "k,theta_0,theta_1,theta_2,frob_err_to_ref,residual_norm,pmin_eig"
        last = lines[-1].split(",")
        assert float(last[4]) < 1e-3  # converged to the reference
        thetas = [float(x) for x in last[1:4]]
        np.testing.assert_allclose(thetas, [0.5, 0.0, 1.0], atol=1e-3)

    @pytest.mark.parametrize("argv", [["--order", "-1"], ["--order", "1", "--p0-scale", "nan"],
                                      ["--order", "1", "--p0-scale", "-1"]])
    def test_bad_order_or_prior_scale_is_usage_error(self, workdir, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(workdir / "traj.csv")] + argv)
        assert exc.value.code == 2
        assert "expected a" in capsys.readouterr().err

    def test_oversized_theta0_entry_is_validation_error(self, workdir, capsys):
        (workdir / "theta0.json").write_text(f"[[{10**400}, 0.0, 0.0]]")
        rc = main(["fit", "--data", str(workdir / "traj.csv"), "--order", "1",
                   "--theta0", str(workdir / "theta0.json")])
        assert rc == 2
        assert "theta0 file" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", ["NaN", "1e400"])
    def test_nonfinite_theta0_entry_names_the_file(self, workdir, capsys, entry):
        (workdir / "theta0.json").write_text(f"[[{entry}, 0.0, 0.0]]")
        rc = main(["fit", "--data", str(workdir / "traj.csv"), "--order", "1",
                   "--theta0", str(workdir / "theta0.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "theta0 file" in err and "theta0.json" in err and BLOW_UP not in err

    def test_mismatched_ref_model_is_validation_error(self, workdir, capsys):
        rc = main(["fit", "--data", str(workdir / "traj.csv"), "--order", "2",
                   "--ref-model", str(workdir / "model.json")])
        assert rc == 2
        assert "reference model does not match" in capsys.readouterr().err

    def test_missing_data_file(self, workdir):
        assert main(["fit", "--data", str(workdir / "nope.csv"), "--order", "1"]) == 2

    def test_oversized_prior_is_numerical_failure(self, workdir, capsys):
        rc = main(["fit", "--data", str(workdir / "traj.csv"), "--order", "1",
                   "--p0-scale", "1e50"])
        assert rc == 3
        err = capsys.readouterr().err
        assert BLOW_UP in err and "block from row 0" in err

    def test_diverging_fit_leaves_no_trace_file(self, workdir, capsys):
        trace = workdir / "trace.csv"
        rc = main(["fit", "--data", str(workdir / "traj.csv"), "--order", "1",
                   "--p0-scale", "1e200", "--emit-trace", str(trace)])
        assert rc == 3
        assert BLOW_UP in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("case", PROCESSES)
    @pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
    def test_breakdown_names_the_row_in_the_record(self, tmp_path, capsys, case, trace):
        # the regressor rows from 1497 on reach the scaled samples; the fold
        # breaks down in the block from row 1472 (23 * 64) of the record, not
        # row 448 of its second 1,024-row trace chunk
        data = _overflowing_record(tmp_path / "traj.csv")
        argv = ["fit", "--data", str(data), "--order", "3"]
        if trace:
            argv += ["--emit-trace", str(tmp_path / "trace.csv")]
        with processes(case):
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert BLOW_UP in err and "block from row 1472:" in err
        assert not (tmp_path / "trace.csv").exists()

    def test_overflowing_data_is_exit_3_under_warnings_as_errors(self, tmp_path):
        # numpy's overflow warning in the fold's block products is an error
        # under -W error; none may escape before the numerical failure
        data = _overflowing_record(tmp_path / "traj.csv")
        proc = run_cli_capped(["fit", "--data", data, "--order", "3"], flags=["-W", "error"])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert BLOW_UP in proc.stderr and "block from row 1472:" in proc.stderr

    @pytest.mark.parametrize("case", PROCESSES)
    @pytest.mark.parametrize("with_ref", [False, True])
    def test_streamed_trace_equals_whole_record_trace(self, tmp_path, capsys, with_ref, case):
        # several chunks and a partial one; windows touching the three
        # leading rows lack an input, so the trace starts past k = order
        data = _mimo_record(tmp_path / "traj.csv", 2 * TRACE_CHUNK_ROWS + 300, lost=3)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        argv = ["fit", "--data", str(data), "--order", "3", "--emit-trace", str(got)]
        if with_ref:
            save_model(trivial_embed(MIMO, 3), tmp_path / "ref.json")
            argv += ["--ref-model", str(tmp_path / "ref.json")]
        with processes(case):
            assert main(argv) == 0
        # the whole-record construction: one fold with history, one write
        traj = load_trajectory(data)
        Phi, Y, ks = regressor_matrix(traj, 3, valid_regressor_indices(traj, 3))
        assert ks[0] == 6
        state, record = rls_fold(initial_state(3, 2, 2), Phi, Y, keep_history=True)
        target = trivial_embed(MIMO, 3).theta if with_ref else state.theta
        thetas = record.theta.reshape(len(ks), -1)
        E = thetas - target.ravel()
        header = ["k"] + [f"theta_{i}" for i in range(thetas.shape[1])]
        header += ["frob_err_to_ref", "residual_norm", "pmin_eig"]
        write_csv(want, header, [ks, thetas, np.sqrt(np.vecdot(E, E)), record.residual_norm,
                                 record.pmin_eig])
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("case", PROCESSES)
    def test_trace_folds_each_row_once(self, tmp_path, monkeypatch, capsys, case):
        # each process folds each row once: on one process this one with the
        # history; on two this one without it, the worker with it, and where
        # the worker is killed at once this one again with the history
        data = _mimo_record(tmp_path / "traj.csv", 2 * TRACE_CHUNK_ROWS + 300, lost=3)
        log = tmp_path / "folds"
        fold = cli.rls_fold

        def logged(state, Phi, *args, keep_history=False, **kwargs):
            with open(log, "a") as fh:  # one short append per call, from either process
                fh.write(f"{os.getpid()} {int(keep_history)} {len(Phi)}\n")
            return fold(state, Phi, *args, keep_history=keep_history, **kwargs)

        monkeypatch.setattr(cli, "rls_fold", logged)
        with processes(case):
            assert main(["fit", "--data", str(data), "--order", "3",
                         "--emit-trace", str(tmp_path / "trace.csv")]) == 0
        rows = collections.Counter()
        for line in log.read_text().splitlines():
            pid, history, n = map(int, line.split())
            rows["parent" if pid == os.getpid() else "worker", bool(history)] += n
        K = 2 * TRACE_CHUNK_ROWS + 300 - 6
        want = {"two-cpus": {("parent", False): K, ("worker", True): K},
                "killed-worker": {("parent", False): K, ("parent", True): K}}
        assert rows == want.get(case, {("parent", True): K})

    def test_dying_trace_worker_costs_no_byte(self, tmp_path, monkeypatch, capsys):
        # the worker kills itself after its first chunk; this process folds
        # up to the second without history and on from it with history
        data = _mimo_record(tmp_path / "traj.csv", 2 * TRACE_CHUNK_ROWS + 300, lost=3)
        argv = ["fit", "--data", str(data), "--order", "3", "--emit-trace"]
        with cpus(1):
            assert main(argv + [str(tmp_path / "want.csv")]) == 0
        want_out = capsys.readouterr().out
        parent, real, resumed = os.getpid(), cli._fold_to_spill, []

        def dying(state, Phi, Y, spill):
            if os.getpid() != parent and resumed:
                os.kill(os.getpid(), signal.SIGKILL)
            resumed.append(len(Phi))
            return real(state, Phi, Y, spill)

        monkeypatch.setattr(cli, "_fold_to_spill", dying)
        with cpus(2):
            assert main(argv + [str(tmp_path / "got.csv")]) == 0
        assert resumed == [2 * TRACE_CHUNK_ROWS + 300 - 6 - TRACE_CHUNK_ROWS]
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert capsys.readouterr().out == want_out.replace("want.csv", "got.csv")

    def test_interrupted_trace_stops_its_worker(self, tmp_path, monkeypatch):
        def stuck(state, Phi, Y, *args, keep_history=False, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        parent = os.getpid()
        data = _mimo_record(tmp_path / "traj.csv", 300)
        monkeypatch.setattr(cli, "rls_fold", stuck)
        start = time.monotonic()
        with cpus(2), pytest.raises(KeyboardInterrupt):
            main(["fit", "--data", str(data), "--order", "3",
                  "--emit-trace", str(tmp_path / "trace.csv")])
        assert time.monotonic() - start < 30
        assert not (tmp_path / "trace.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("cpu_count", [1, 2])
    @pytest.mark.parametrize("case", ["success", "breakdown", "unopenable-trace"])
    def test_trace_spill_leaves_nothing_behind(self, workdir, monkeypatch, capsys, case,
                                               cpu_count):
        spills = workdir / "spills"
        spills.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spills))
        trace = workdir / "trace.csv"
        argv = ["fit", "--data", str(workdir / "traj.csv"), "--order", "1"]
        if case == "breakdown":
            argv += ["--p0-scale", "1e200"]
        if case == "unopenable-trace":
            # past the check before the fold, the open after it fails
            monkeypatch.setattr(cli, "check_writable", lambda path: None)
            trace = workdir / "nodir" / "trace.csv"
        with cpus(cpu_count):
            rc = main(argv + ["--emit-trace", str(trace)])
        assert rc == {"success": 0, "breakdown": 3, "unopenable-trace": 2}[case]
        assert trace.exists() == (case == "success")
        assert list(spills.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_estimate_printout_leaves_print_options_alone(self, workdir, capsys):
        before = np.get_printoptions()
        assert main(["fit", "--data", str(workdir / "traj.csv"), "--order", "1"]) == 0
        assert np.get_printoptions() == before

    def test_trace_chunks_split_the_fold_at_block_starts(self):
        # the streamed trace is bit-identical to one whole-record fold only
        # while every chunk starts a fold block
        assert TRACE_CHUNK_ROWS % rls._FOLD_BLOCK == 0

    def test_trace_memory_does_not_grow_with_the_history(self, tmp_path, capsys):
        # a whole-record history holds K p d floats; the streamed trace may
        # grow only with the O(K d) record and regressor block
        p, d = 2, 14
        main(["fit", "--data", str(_mimo_record(tmp_path / "warm.csv", 200)), "--order", "3",
              "--emit-trace", str(tmp_path / "warm_trace.csv")])
        peaks = []
        for rows in (8192, 16384):
            data = _mimo_record(tmp_path / f"traj{rows}.csv", rows)
            tracemalloc.start()
            try:
                assert main(["fit", "--data", str(data), "--order", "3",
                             "--emit-trace", str(tmp_path / "trace.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 8192 * p * d * 8


class TestExciteCommand:
    def test_reduced_curve(self, workdir):
        out = workdir / "exc.csv"
        rc = main(["excite", "--data", str(workdir / "traj.csv"), "--order", "3",
                   "--true-order", "1", "--emit", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,lambda_min_partial,lambda_min_avg"
        final = lines[-1].split(",")
        assert float(final[1]) > 1.0  # reduced regressor is exciting

    def test_emitted_curve_matches_per_row_reference(self, tmp_path):
        # more rows than one 1024-row cumsum chunk of the curve
        u = generate_input(InputSpec(kind="white", seed=5), 2100, 1)
        save_trajectory(simulate(SCALAR, [0.1], u), tmp_path / "long.csv")
        out = tmp_path / "exc.csv"
        rc = main(["excite", "--data", str(tmp_path / "long.csv"), "--order", "3",
                   "--true-order", "1", "--emit", str(out)])
        assert rc == 0
        traj = load_trajectory(tmp_path / "long.csv")
        ks = valid_regressor_indices(traj, 3)
        Phi = np.array([reference_reduced_regressor(traj, int(k), 1, 3) for k in ks])
        curve = reference_gram_curve(Phi)[0]
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        assert np.array_equal(rows[:, 0], ks)
        assert np.array_equal(rows[:, 1], curve)
        assert np.array_equal(rows[:, 2], curve / np.arange(1, len(ks) + 1))

    def test_plain_excite_prints_verdicts_without_the_curve(self, workdir, monkeypatch, capsys):
        def no_curve(Phi):
            raise AssertionError("the per-row curve runs only for --emit")
        monkeypatch.setattr(cli, "partial_gram_min_eigs", no_curve)
        monkeypatch.setattr(excitation, "partial_gram_min_eigs", no_curve)
        rc = main(["excite", "--data", str(workdir / "traj.csv"), "--order", "3",
                   "--true-order", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        traj = load_trajectory(workdir / "traj.csv")
        limit = estimate_gram_limit(regressor_matrix(traj, 3)[0][:, 2:])
        assert limit.weak_pe
        assert "  weakly persistently exciting:   yes (heuristic)" in out
        pe = "yes" if limit.pe else "no"
        assert f"  persistently exciting:          {pe} (heuristic)" in out

    def test_true_order_validation(self, workdir):
        rc = main(["excite", "--data", str(workdir / "traj.csv"), "--order", "2",
                   "--true-order", "3"])
        assert rc == 2

    def test_true_order_is_checked_before_the_record_is_read(self, workdir, monkeypatch,
                                                             capsys):
        monkeypatch.setattr(cli, "load_trajectory", _no_work)
        rc = main(["excite", "--data", str(workdir / "traj.csv"), "--order", "2",
                   "--true-order", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "--true-order must not exceed --order" in err

    def test_true_order_reads_the_fit_order_window(self, tmp_path, capsys):
        # y[28] is outside every reduced window (they read y[k-3] only) but
        # inside the order-3 window of k=29, so excite rejects the file with
        # or without --true-order, as fit does
        y = np.round(np.linspace(0.1, 3.0, 30), 3).astype(str)
        y[28] = "nan"
        rows = [f"{k},{(-1) ** k},{v}" for k, v in enumerate(y)]
        path = tmp_path / "gap.csv"
        path.write_text("k,u_1,y_1\n" + "\n".join(rows) + "\n")
        for extra in ([], ["--true-order", "1"]):
            assert main(["excite", "--data", str(path), "--order", "3"] + extra) == 2
            assert ("output column y_1 is missing at k=28, inside a regressor window"
                    in capsys.readouterr().err)

    def test_true_order_equal_to_order_is_full_regressor(self, workdir):
        data = str(workdir / "traj.csv")
        reduced, full = workdir / "reduced.csv", workdir / "full.csv"
        assert main(["excite", "--data", data, "--order", "2", "--true-order", "2",
                     "--emit", str(reduced)]) == 0
        assert main(["excite", "--data", data, "--order", "2", "--emit", str(full)]) == 0
        assert reduced.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("case", ["one-row", "impulse"])
    def test_verdicts_do_not_contradict(self, tmp_path, capsys, case):
        # persistent excitation implies weak persistent excitation; at one row
        # the half-record Gram is the full one, and an impulse's Gram stops
        # growing once the response y_k = -0.5 y_{k-1} + u_{k-1} has decayed
        if case == "one-row":
            u, order = np.ones((1, 1)), 0
        else:
            u, order = np.zeros((2000, 1)), 1
            u[3] = 1.0
        save_trajectory(simulate(SCALAR, [0.0], u), tmp_path / "traj.csv")
        assert main(["excite", "--data", str(tmp_path / "traj.csv"), "--order", str(order)]) == 0
        out = capsys.readouterr().out
        assert "  weakly persistently exciting:   no (heuristic)" in out
        assert "  persistently exciting:          no (heuristic)" in out


class TestConvergeCommand:
    def test_emits_summary(self, workdir):
        summary = workdir / "s.json"
        rc = main(["converge", "--model", str(workdir / "model.json"),
                   "--fit-order", "2", "--input", "white:seed=7:scale=1.0",
                   "--horizon", "1500", "--emit-summary", str(summary)])
        assert rc == 0
        data = json.loads(summary.read_text())
        assert data["ref_kind"] == "projected"
        assert data["final_dist_to_ref"] < 1e-3
        assert data["asymptote_rel_error"] < 0.2
        assert data["seed"] == 7

    def test_emits_trace(self, workdir, capsys):
        trace = workdir / "t.csv"
        rc = main(["converge", "--model", str(workdir / "model.json"), "--fit-order", "2",
                   "--horizon", "50", "--emit", str(trace)])
        assert rc == 0
        assert f"trace written to {trace}" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines[0] == "k,frob_err_to_ref,scaled_err_norm,residual_norm"
        assert [line.split(",")[0] for line in lines[1:]] == [str(k) for k in range(50)]

    @pytest.mark.parametrize("argv", [["--horizon", "1"],
                                      ["--input", "white:seed=0:scale=0", "--horizon", "100"]])
    def test_summary_without_rate_prediction_is_strict_json(self, workdir, argv):
        # one sample, or zero input, leaves the Gram limit singular
        summary = workdir / "s.json"
        rc = main(["converge", "--model", str(workdir / "model.json"), "--fit-order", "1",
                   *argv, "--emit-summary", str(summary)])
        assert rc == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        data = json.loads(summary.read_text(), parse_constant=reject)
        assert data["asymptote_rel_error"] is None
        assert data["predicted_asymptote"] == [[None, None, None]]
        assert isinstance(data["final_dist_to_ref"], float)

    def test_missing_theta0_file(self, workdir, capsys):
        rc = main(["converge", "--model", str(workdir / "model.json"),
                   "--fit-order", "1", "--horizon", "100",
                   "--theta0", str(workdir / "missing.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing.json" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", ["NaN", "1e400"])
    def test_nonfinite_theta0_entry_names_the_file(self, workdir, capsys, entry):
        (workdir / "theta0.json").write_text(f"[[{entry}, 0.0, 0.0]]")
        rc = main(["converge", "--model", str(workdir / "model.json"),
                   "--fit-order", "1", "--horizon", "100",
                   "--theta0", str(workdir / "theta0.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "theta0 file" in err and "theta0.json" in err and "Traceback" not in err

    def test_diverging_model_is_numerical_failure(self, workdir, capsys):
        save_model(IOModel.scalar([1.5], [0.0, 1.0]), workdir / "unstable.json")
        rc = main(["converge", "--model", str(workdir / "unstable.json"),
                   "--fit-order", "1", "--horizon", "3000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "missing input" not in err

    @pytest.mark.parametrize("spec,key", [("white:seed=x", "seed"),
                                          ("white:seed=1.5", "seed"),
                                          ("white:seed=-1", "seed"),
                                          ("white:seed=1:scale=abc", "scale")])
    def test_bad_number_in_input_spec(self, workdir, capsys, spec, key):
        rc = main(["converge", "--model", str(workdir / "model.json"),
                   "--fit-order", "1", "--input", spec, "--horizon", "100"])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err

    @pytest.mark.parametrize("horizon", ["-5", "x"])
    def test_bad_horizon_is_usage_error(self, workdir, capsys, horizon):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--model", str(workdir / "model.json"), "--fit-order", "1",
                  "--horizon", horizon])
        assert exc.value.code == 2
        assert "expected a non-negative integer" in capsys.readouterr().err

    # sizes at or above 2**63, which numpy refuses without allocating
    @pytest.mark.parametrize("horizon", [str(2**63), "1000000000000000000000000"])
    def test_oversized_horizon_is_validation_error(self, workdir, capsys, horizon):
        rc = main(["converge", "--model", str(workdir / "model.json"), "--fit-order", "1",
                   "--horizon", horizon])
        assert rc == 2
        err = capsys.readouterr().err
        assert "is too large" in err and "Traceback" not in err

    def test_oversized_prior_is_numerical_failure(self, workdir, capsys):
        rc = main(["converge", "--model", str(workdir / "model.json"), "--fit-order", "1",
                   "--horizon", "1000", "--p0-scale", "1e20"])
        assert rc == 3
        err = capsys.readouterr().err
        assert BLOW_UP in err and "block from row 0" in err

    @pytest.mark.parametrize("rows,message", [
        ("".join(f"{k},1.0,0.5\n" for k in range(20)), "has 20 rows, need 51"),
        ("".join(f"{k},{'' if k == 30 else 1.0},0.5\n" for k in range(80)),
         "requested window has missing input cells"),
    ], ids=["short", "empty-cell"])
    def test_unusable_input_file_names_it(self, workdir, capsys, rows, message):
        data = workdir / "inputs.csv"
        data.write_text("k,u_1,y_1\n" + rows)
        rc = main(["converge", "--model", str(workdir / "model.json"), "--fit-order", "1",
                   "--horizon", "50", "--input", f"file:path={data}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{data}" in err and message in err and "Traceback" not in err

    def test_unallocatable_horizon_is_numerical_failure(self, workdir, capsys):
        rc = main(["converge", "--model", str(workdir / "model.json"), "--fit-order", "1",
                   "--horizon", str(UNALLOCATABLE)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and "Traceback" not in err

    def test_bad_input_spec(self, workdir):
        rc = main(["converge", "--model", str(workdir / "model.json"),
                   "--fit-order", "1", "--input", "noise:seed=1",
                   "--horizon", "100"])
        assert rc == 2


class TestOversizedRequests:
    """Requests sized far beyond their data, each run in a child whose
    address space is capped (:func:`support.run_cli_capped`): one that
    allocates by the request fails with ``MemoryError`` there, exit 3,
    instead of filling the machine's memory."""

    def test_small_commands_run_under_the_cap(self, workdir):
        for args in (["fit", "--data", workdir / "traj.csv", "--order", "2"],
                     ["excite", "--data", workdir / "traj.csv", "--order", "2"],
                     ["converge", "--model", workdir / "model.json", "--fit-order", "2",
                      "--horizon", "200"]):
            proc = run_cli_capped(args)
            assert proc.returncode == 0, proc.stderr

    # an order past numpy's index range made numpy raise ValueError, exit 1
    @pytest.mark.parametrize("command,order", [("fit", 10**9), ("excite", 10**11),
                                               ("excite", 10**20)])
    def test_order_beyond_the_record_is_exit_2(self, tmp_path, command, order):
        u = generate_input(InputSpec(kind="white", seed=3), 50, 1)
        save_trajectory(simulate(SCALAR, [0.0], u), tmp_path / "traj.csv")
        proc = run_cli_capped([command, "--data", tmp_path / "traj.csv", "--order", order])
        assert proc.returncode == 2, proc.stderr
        assert f"no index has a complete order-{order} input window" in proc.stderr

    def test_fit_order_above_the_horizon_is_exit_2(self, workdir):
        proc = run_cli_capped(["converge", "--model", workdir / "model.json",
                               "--fit-order", 3 * 10**9, "--horizon", 5])
        assert proc.returncode == 2, proc.stderr
        assert f"horizon 5 is below the fit order {3 * 10**9}" in proc.stderr

    # the inputs of a 1e9 horizon take 7.45 GiB: a bad theta0 file is found
    # before they are generated
    def test_missing_theta0_is_exit_2_before_the_inputs(self, workdir):
        missing = workdir / "missing.json"
        proc = run_cli_capped(["converge", "--model", workdir / "model.json",
                               "--fit-order", 2, "--horizon", 10**9, "--theta0", missing])
        assert proc.returncode == 2, proc.stderr
        assert f"theta0 file {missing} does not exist" in proc.stderr


class TestExperimentCommand:
    def test_runs_and_reports(self, workdir, capsys):
        cfg = {
            "true_model": "model.json",
            "fit_orders": [1, 2],
            "horizon": 400,
            "input": {"kind": "white", "seed": 3},
        }
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["experiment", str(workdir / "cfg.json"),
                   "--out-dir", str(workdir / "out")])
        assert rc == 0
        assert (workdir / "out" / "manifest.json").exists()
        assert "2/2 orders succeeded" in capsys.readouterr().out

    def test_relative_theta0_resolved_from_config_dir(self, workdir, monkeypatch, capsys):
        cfg_dir = workdir / "cfg"
        cfg_dir.mkdir()
        (cfg_dir / "theta0.json").write_text(json.dumps([[0.4, 0.1, 0.9]]))
        cfg = {"true_model": "../model.json", "fit_orders": [1], "horizon": 200,
               "input": {"kind": "white", "seed": 3}, "theta0": "theta0.json"}
        (cfg_dir / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(workdir)  # theta0.json is not in the working directory
        rc = main(["experiment", str(cfg_dir / "cfg.json"), "--out-dir", str(workdir / "out")])
        assert rc == 0
        assert "1/1 orders succeeded" in capsys.readouterr().out
        # the hashed config keeps the path as written
        assert load_config(cfg_dir / "cfg.json").to_dict()["theta0"] == "theta0.json"
        zeros = dict(cfg, theta0="zeros")
        (cfg_dir / "zeros.json").write_text(json.dumps(zeros))
        assert main(["experiment", str(cfg_dir / "zeros.json"),
                     "--out-dir", str(workdir / "out0")]) == 0
        assert ((workdir / "out" / "trace_order1.csv").read_bytes()
                != (workdir / "out0" / "trace_order1.csv").read_bytes())

    def test_relative_input_path_resolved_from_config_dir(self, workdir, monkeypatch, capsys):
        cfg_dir = workdir / "cfg"
        cfg_dir.mkdir()
        (cfg_dir / "traj.csv").write_bytes((workdir / "traj.csv").read_bytes())
        cfg = {"true_model": "../model.json", "fit_orders": [1], "horizon": 200,
               "input": {"kind": "file", "path": "traj.csv"}}
        (cfg_dir / "cfg.json").write_text(json.dumps(cfg))
        other = workdir / "elsewhere"
        other.mkdir()
        monkeypatch.chdir(other)  # traj.csv is not in the working directory
        rc = main(["experiment", "../cfg/cfg.json", "--out-dir", str(workdir / "out")])
        assert rc == 0
        assert "1/1 orders succeeded" in capsys.readouterr().out
        # the hashed config keeps the path as written
        assert load_config(cfg_dir / "cfg.json").to_dict()["input"]["path"] == "traj.csv"

    def test_no_out_dir(self, workdir):
        cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": 100,
               "input": {"kind": "white", "seed": 3}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(workdir / "cfg.json")]) == 2

    @pytest.mark.parametrize("out_dir,message", [
        (5, "config.out_dir"), (["a"], "config.out_dir"), ("", "config.out_dir"),
        (None, "config.out_dir"), ("a\x00b", "embedded null byte"),
    ])
    def test_bad_out_dir_is_validation_error(self, workdir, capsys, out_dir, message):
        cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": 100,
               "out_dir": out_dir}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(workdir / "cfg.json")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_relative_out_dir_resolved_from_config_dir(self, workdir, monkeypatch, capsys):
        cfg_dir = workdir / "cfg"
        cfg_dir.mkdir()
        cfg = {"true_model": "../model.json", "fit_orders": [1], "horizon": 100,
               "out_dir": "out"}
        (cfg_dir / "cfg.json").write_text(json.dumps(cfg))
        other = workdir / "elsewhere"
        other.mkdir()
        monkeypatch.chdir(other)
        assert main(["experiment", "../cfg/cfg.json"]) == 0
        assert (cfg_dir / "out" / "manifest.json").exists()
        assert not (other / "out").exists()
        # --out-dir on the command line stays relative to the working directory
        assert main(["experiment", "../cfg/cfg.json", "--out-dir", "cli"]) == 0
        assert (other / "cli" / "manifest.json").exists()

    def test_bad_number_in_config_input(self, workdir, capsys):
        cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": 100,
               "input": {"kind": "white", "seed": "x"}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(workdir / "cfg.json"),
                     "--out-dir", str(workdir / "out")]) == 2
        assert "config.input.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("freqs", [["x"], 5, [None]])
    def test_bad_number_list_in_config_input(self, workdir, capsys, freqs):
        cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": 100,
               "input": {"kind": "sine-mix", "freqs": freqs}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(workdir / "cfg.json"),
                     "--out-dir", str(workdir / "out")]) == 2
        err = capsys.readouterr().err
        assert "config.input.freqs" in err and "Traceback" not in err

    @pytest.mark.parametrize("change,key", [({"input": {"kind": "white", "seed": float("inf")}},
                                              "config.input.seed"),
                                             ({"p0_scale": "x"}, "config.p0_scale"),
                                             ({"p0_scale": float("nan")}, "config.p0_scale"),
                                             ({"input": {"kind": "white", "seed": 1.5}},
                                              "config.input.seed"),
                                             ({"input": {"kind": "white", "seed": True}},
                                              "config.input.seed"),
                                             ({"input": {"kind": "white", "seed": -1}},
                                              "config.input.seed"),
                                             ({"fit_orders": [True]}, "config.fit_orders[0]"),
                                             ({"fit_orders": [1, 2.0]}, "config.fit_orders[1]"),
                                             ({"fit_orders": [2, 2]}, "config.fit_orders[1]"),
                                             ({"horizon": True}, "config.horizon"),
                                             ({"horizon": 100.0}, "config.horizon"),
                                             # above 2**63: numpy refuses it unallocated
                                             ({"horizon": 10**30},
                                              f"input horizon {10**30 + 1} is too large")])
    def test_bad_number_in_config_is_validation_error(self, workdir, capsys, change, key):
        cfg = dict({"true_model": "model.json", "fit_orders": [1], "horizon": 100}, **change)
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(workdir / "cfg.json"),
                     "--out-dir", str(workdir / "out")]) == 2
        assert key in capsys.readouterr().err

    def test_oversized_prior_records_an_error_per_order(self, workdir, capsys):
        cfg = {"true_model": "model.json", "fit_orders": [1, 2], "horizon": 400,
               "input": {"kind": "white", "seed": 3}, "p0_scale": 1e50}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["experiment", str(workdir / "cfg.json"), "--out-dir", str(workdir / "out")])
        assert rc == 3
        runs = json.loads((workdir / "out" / "manifest.json").read_text())["runs"]
        assert [r["fit_order"] for r in runs] == [1, 2]
        for r in runs:
            assert r["status"].startswith("error: ") and BLOW_UP in r["status"]
        assert "0/2 orders succeeded" in capsys.readouterr().out

    def test_unallocatable_horizon_is_numerical_failure(self, workdir, capsys):
        cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": UNALLOCATABLE,
               "input": {"kind": "white", "seed": 3}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        rc = main(["experiment", str(workdir / "cfg.json"), "--out-dir", str(workdir / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Unable to allocate" in err and "Traceback" not in err

    def test_unallocatable_input_leaves_no_output_directory(self, workdir):
        cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": UNALLOCATABLE,
               "input": {"kind": "white", "seed": 3}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(workdir / "cfg.json"),
                     "--out-dir", str(workdir / "out")]) == 3
        assert not (workdir / "out").exists()

    def test_missing_input_file_leaves_no_output_directory(self, workdir, capsys):
        cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": 100,
               "input": {"kind": "file", "path": "missing.csv"}}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        assert main(["experiment", str(workdir / "cfg.json"),
                     "--out-dir", str(workdir / "out")]) == 2
        assert "missing.csv" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_missing_theta0_is_exit_2_before_any_work(self, workdir, monkeypatch, capsys):
        cfg = {"true_model": "model.json", "fit_orders": [1, 2], "horizon": 100,
               "input": {"kind": "white", "seed": 3}, "theta0": "missing.json"}
        (workdir / "cfg.json").write_text(json.dumps(cfg))
        for name in ("generate_input", "fork_worker", "run_tracked_identification"):
            monkeypatch.setattr(experiment, name, _no_work)
        with cpus(2):
            rc = main(["experiment", str(workdir / "cfg.json"), "--out-dir", str(workdir / "out")])
        assert rc == 2
        assert f"theta0 file {workdir / 'missing.json'} does not exist" in capsys.readouterr().err
        assert not (workdir / "out").exists()

    def test_invalid_config(self, workdir):
        (workdir / "cfg.json").write_text(json.dumps({"fit_orders": [1]}))
        assert main(["experiment", str(workdir / "cfg.json"),
                     "--out-dir", str(workdir / "out")]) == 2


class TestMissingInputCells:
    def test_fit_skips_incomplete_windows(self, tmp_path, capsys):
        # two leading rows without inputs: windows touching them are dropped
        m = IOModel.scalar([0.5], [0.0, 1.0])
        u = generate_input(InputSpec(kind="white", seed=4), 200, 1)
        traj = simulate(m, [0.2], u)
        path = tmp_path / "gap.csv"
        save_trajectory(traj, path)
        text = path.read_text().splitlines()
        text[1] = text[1].replace(text[1].split(",")[1], "", 1)
        text[2] = text[2].replace(text[2].split(",")[1], "", 1)
        path.write_text("\n".join(text) + "\n")
        rc = main(["fit", "--data", str(path), "--order", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 samples lack a complete window" in out

    def test_fit_all_windows_missing(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("k,u_1,y_1\n0,,1.0\n1,,2.0\n2,,3.0\n")
        assert main(["fit", "--data", str(path), "--order", "1"]) == 2

    @pytest.mark.parametrize("extra", [[], ["--true-order", "1"]])
    def test_missing_output_cell_is_named(self, tmp_path, capsys, extra):
        path = tmp_path / "gap_y.csv"
        path.write_text("k,u_1,y_1\n0,1.0,0.5\n1,-1.0,0.3\n2,0.5,nan\n3,2.0,0.1\n4,1.0,0.2\n")
        command = "excite" if extra else "fit"
        order = "2" if extra else "1"
        rc = main([command, "--data", str(path), "--order", order] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert "output column y_1 is missing at k=2" in err
        assert "input" not in err

    def test_missing_last_output_cell_is_named(self, tmp_path, capsys):
        # the last row's output is a regression target inside no window
        path = tmp_path / "gap_last_y.csv"
        path.write_text("k,u_1,y_1\n0,1.0,0.5\n1,-1.0,0.3\n2,0.5,0.4\n3,2.0,0.1\n4,1.0,nan\n")
        rc = main(["fit", "--data", str(path), "--order", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "output column y_1 is missing at k=4" in err
        assert "non-finite" not in err


# each command with a path the operating system refuses ({w} is the working
# directory): a missing parent directory, a file where a directory goes, or a
# directory where a file goes
OS_ERROR_CASES = [
    (["fit", "--data", "{w}/traj.csv", "--order", "1", "--emit-trace", "{w}/nodir/x.csv"],
     "{w}/nodir/x.csv"),
    (["excite", "--data", "{w}/traj.csv", "--order", "1", "--emit", "{w}/nodir/x.csv"],
     "{w}/nodir/x.csv"),
    (["converge", "--model", "{w}/model.json", "--fit-order", "1", "--horizon", "50",
      "--emit", "{w}/nodir/x.csv"], "{w}/nodir/x.csv"),
    (["converge", "--model", "{w}/model.json", "--fit-order", "1", "--horizon", "50",
      "--emit-summary", "{w}/nodir/x.json"], "{w}/nodir/x.json"),
    (["experiment", "{w}/cfg.json", "--out-dir", "{w}/traj.csv"], "{w}/traj.csv"),
    (["fit", "--data", "{w}", "--order", "1"], "{w}"),
    (["equiv", "{w}", "{w}/model.json"], "{w}"),
]


@pytest.mark.parametrize("argv,path", OS_ERROR_CASES,
                         ids=["fit-trace", "excite-emit", "converge-emit", "converge-summary",
                              "experiment-out-dir", "fit-data-dir", "equiv-dir"])
def test_os_error_is_exit_2_naming_the_path(workdir, capsys, argv, path):
    cfg = {"true_model": "model.json", "fit_orders": [1], "horizon": 50,
           "input": {"kind": "white", "seed": 3}}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    rc = main([arg.format(w=workdir) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and path.format(w=workdir) in err


def _no_work(*args, **kwargs):
    raise AssertionError("ran before the output path was checked")


@pytest.mark.parametrize("target", ["{w}/nodir/x.csv", "{w}/traj.csv/x.csv", "{w}"],
                         ids=["missing-dir", "file-as-dir", "dir-as-file"])
@pytest.mark.parametrize("argv", [
    ["fit", "--data", "{w}/traj.csv", "--order", "1", "--emit-trace"],
    ["excite", "--data", "{w}/traj.csv", "--order", "1", "--emit"],
    ["converge", "--model", "{w}/model.json", "--fit-order", "1", "--horizon", "50", "--emit"],
    ["converge", "--model", "{w}/model.json", "--fit-order", "1", "--horizon", "50",
     "--emit-summary"],
], ids=["fit-trace", "excite-emit", "converge-emit", "converge-summary"])
def test_refused_output_path_is_exit_2_before_any_work(workdir, monkeypatch, capsys, argv,
                                                       target):
    for name in ("load_trajectory", "rls_fold", "estimate_gram_limit", "partial_gram_min_eigs",
                 "generate_input", "run_tracked_identification", "fork_worker"):
        monkeypatch.setattr(cli, name, _no_work)
    path = target.format(w=workdir)
    rc = main([arg.format(w=workdir) for arg in argv] + [path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"'{path}'" in err


@pytest.mark.parametrize("argv,path", [
    (["fit", "--data", "{w}/bad.csv", "--order", "1"], "{w}/bad.csv"),
    (["excite", "--data", "{w}/bad.csv", "--order", "1"], "{w}/bad.csv"),
    (["equiv", "{w}/bad.json", "{w}/bad.json"], "{w}/bad.json"),
    (["experiment", "{w}/bad.json", "--out-dir", "{w}/out"], "{w}/bad.json"),
    (["fit", "--data", "{w}/traj.csv", "--order", "1", "--theta0", "{w}/bad.json"],
     "{w}/bad.json"),
    (["converge", "--model", "{w}/model.json", "--fit-order", "1", "--horizon", "50",
      "--theta0", "{w}/bad.json"], "{w}/bad.json"),
], ids=["fit", "excite", "equiv", "experiment", "fit-theta0", "converge-theta0"])
def test_non_utf8_file_is_exit_2_naming_the_path(workdir, capsys, argv, path):
    # the bad byte sits past the first read buffer, inside the data rows
    rows = "".join(f"{k},1.0,0.5\n" for k in range(1000)).encode()
    (workdir / "bad.csv").write_bytes(b"k,u_1,y_1\n" + rows + b"1000,\xff,0.3\n")
    (workdir / "bad.json").write_bytes(b'{"n": 1, "p": 1\xff}')
    rc = main([arg.format(w=workdir) for arg in argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and path.format(w=workdir) in err


# each command with one JSON file it reads replaced by {bad}; {w} is the
# working directory, whose cfg.json names {bad} as its true model
JSON_READ_CASES = {
    "equiv-a": ["equiv", "{bad}", "{w}/model.json"],
    "equiv-b": ["equiv", "{w}/model.json", "{bad}"],
    "reduce": ["reduce", "{bad}"],
    "experiment-config": ["experiment", "{bad}", "--out-dir", "{w}/out"],
    "experiment-true-model": ["experiment", "{w}/cfg.json", "--out-dir", "{w}/out"],
    "converge-model": ["converge", "--model", "{bad}", "--fit-order", "1", "--horizon", "50"],
    "converge-theta0": ["converge", "--model", "{w}/model.json", "--fit-order", "1",
                        "--horizon", "50", "--theta0", "{bad}"],
    "fit-theta0": ["fit", "--data", "{w}/traj.csv", "--order", "1", "--theta0", "{bad}"],
    "fit-ref-model": ["fit", "--data", "{w}/traj.csv", "--order", "1", "--ref-model", "{bad}"],
}


@pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["deep", "digits"])
@pytest.mark.parametrize("case", list(JSON_READ_CASES))
def test_undecodable_json_is_exit_2_naming_the_file_once(workdir, capsys, case, text):
    # nesting past the recursion limit, and an integer past the digit limit
    bad = workdir / "bad.json"
    bad.write_text(text)
    cfg = {"true_model": "bad.json", "fit_orders": [1], "horizon": 50}
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    rc = main([arg.format(w=workdir, bad=bad) for arg in JSON_READ_CASES[case]])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count(str(bad)) == 1, err


@pytest.mark.parametrize("command", ["fit", "excite"])
def test_cell_over_the_csv_field_limit_is_exit_2_naming_the_line(workdir, capsys, command):
    # the csv module refuses a cell over 131,072 characters; the extra cell
    # sends the read past np.loadtxt to the per-row parser
    bad = workdir / "huge.csv"
    bad.write_text("k,u_1,y_1\n0,1.0,0.5\n1,1.0,0.5\n2," + "1" * 140_000 + ",0.3,9\n")
    rc = main([command, "--data", str(bad), "--order", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{bad}:4: field larger than field limit" in err


@pytest.mark.parametrize("header,message", [
    ("", ": empty file"),
    ("k,u_1," + "y" * 140_000, ":1: field larger than field limit"),
    ("k,u_1,u_2", ": header must be k,u_1..u_m,y_1..y_p"),
    ("k,y_1,u_1", ": header must be k,u_1..u_m,y_1..y_p"),
    ("k,u_x,y_1", ": header must be k,u_1..u_m,y_1..y_p"),
], ids=["empty", "over-field-limit", "no-outputs", "outputs-first", "unnumbered-input"])
def test_unreadable_header_is_exit_2_naming_the_file(workdir, capsys, header, message):
    bad = workdir / "header.csv"
    bad.write_text(header + "\n0,1.0,0.5\n" if header else "")
    rc = main(["fit", "--data", str(bad), "--order", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{bad}{message}" in err


@pytest.mark.parametrize("command", ["fit", "excite"])
@pytest.mark.parametrize("line,message", [("1,1.0,abc", "could not convert string to float: 'abc'"),
                                          ("1,1.0", "expected 3 cells, got 2")])
def test_bad_row_after_blank_lines_names_its_own_line(workdir, capsys, command, line, message):
    bad = workdir / "blank.csv"
    bad.write_text(f"k,u_1,y_1\n0,1.0,0.5\n\n\n{line}\n")
    rc = main([command, "--data", str(bad), "--order", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and f"{bad}:5: {message}" in err
