import csv
import json
from pathlib import Path

import numpy as np
import pytest

from sysid_rls import (
    InputSpec,
    IOModel,
    ValidationError,
    estimate_gram_limit,
    generate_input,
    load_config,
    parse_input_spec,
    regressor_matrix,
    run_experiment,
    simulate,
)
from sysid_rls.experiment import config_from_dict
from sysid_rls.fileio import (
    CSV_CHUNK_ROWS,
    fmt_float,
    load_model,
    load_theta0,
    load_trajectory,
    save_model,
    save_trajectory,
    write_csv,
)
from support import random_stable_model


SCALAR = IOModel.scalar([0.5], [0.0, 1.0])


class TestInputSpecs:
    def test_parse_white(self):
        spec = parse_input_spec("white:seed=7:scale=2.5")
        assert spec.kind == "white" and spec.seed == 7 and spec.scale == 2.5

    def test_parse_sine_mix(self):
        spec = parse_input_spec("sine-mix:freqs=0.01,0.05:amps=1,0.5")
        assert spec.freqs == (0.01, 0.05) and spec.amps == (1.0, 0.5)

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_input_spec("chirp:seed=1")
        with pytest.raises(ValidationError):
            parse_input_spec("white:seed")
        with pytest.raises(ValidationError):
            parse_input_spec("white:foo=1")

    def test_white_deterministic(self):
        spec = InputSpec(kind="white", seed=3)
        a = generate_input(spec, 100, 2)
        b = generate_input(spec, 100, 2)
        np.testing.assert_array_equal(a, b)

    def test_prbs_values(self):
        spec = InputSpec(kind="prbs", seed=1, scale=2.0)
        u = generate_input(spec, 200, 1)
        assert set(np.unique(u)) == {-2.0, 2.0}

    def test_prbs_scale_zero(self):
        u = generate_input(InputSpec(kind="prbs", seed=1, scale=0.0), 50, 1)
        np.testing.assert_array_equal(u, np.zeros((50, 1)))

    def test_single_sinusoid_fails_pe_at_high_order(self):
        # one frequency excites a two-dimensional input manifold, so the
        # regressor average Gram of a high-order fit is rank deficient
        spec = InputSpec(kind="sine-mix", freqs=(0.0125,))
        u = generate_input(spec, 4000 + 3, 1)
        traj = simulate(SCALAR, np.zeros((1, 1)), u, k0=-3)
        Phi, _, _ = regressor_matrix(traj, 3, np.arange(0, 4000))
        limit = estimate_gram_limit(Phi)
        assert not limit.pe
        assert limit.min_eig < 1e-6

    def test_file_input_round_trip(self, tmp_path):
        traj = simulate(SCALAR, [0.0], np.arange(12.0))
        path = tmp_path / "t.csv"
        save_trajectory(traj, path)
        u = generate_input(InputSpec(kind="file", path=str(path)), 10, 1)
        np.testing.assert_array_equal(u, traj.u[:10])

    def test_file_missing_channels(self, tmp_path):
        traj = simulate(SCALAR, [0.0], np.arange(12.0))
        path = tmp_path / "t.csv"
        save_trajectory(traj, path)
        with pytest.raises(ValidationError):
            generate_input(InputSpec(kind="file", path=str(path)), 10, 2)


class TestFileFormats:
    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = random_stable_model(rng, 2, 2, 3)
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.theta, m.theta)
        assert (back.n, back.p, back.m) == (m.n, m.p, m.m)

    def test_trajectory_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(1)
        m = random_stable_model(rng, 2, 2, 2)
        traj = simulate(m, rng.standard_normal((2, 2)),
                        rng.standard_normal((40, 2)), k0=-5)
        path = tmp_path / "t.csv"
        save_trajectory(traj, path)
        back = load_trajectory(path)
        assert back.k0 == -5
        np.testing.assert_array_equal(back.y, traj.y)
        np.testing.assert_array_equal(back.u, traj.u)

    def test_empty_input_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,u_1,y_1\n0,,1.5\n1,2.0,2.5\n")
        traj = load_trajectory(path)
        assert np.isnan(traj.u[0, 0]) and traj.u[1, 0] == 2.0

    def test_bad_headers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,u_1,y_1\n0,1,1\n")
        with pytest.raises(ValidationError):
            load_trajectory(path)

    def test_non_consecutive_k(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,u_1,y_1\n0,1,1\n2,1,1\n")
        with pytest.raises(ValidationError):
            load_trajectory(path)


def csv_writer_reference(path, header, rows):
    """Rows of Python/numpy scalars through ``csv.writer``: ints via ``str``,
    floats via :func:`fmt_float`."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(c) if isinstance(c, (int, np.integer)) else fmt_float(c)
                             for c in row])


class TestWriteCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        n = 2 * CSV_CHUNK_ROWS + 3  # two full blocks and a partial one
        rng = np.random.default_rng(6)
        ints = np.arange(-5, n - 5, dtype=np.int64)
        specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324,
                             1e300, 0.1, -2.5, 1.0 / 3.0])
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        floats[:specials.size] = specials
        block = rng.standard_normal((n, 3))
        block[-1] = [-0.0, np.nan, 1e-300]
        small_ints = np.arange(n, dtype=np.int32)[:, None] * [1, -1]
        header = ["k", "value", "a,b", 'quoted "c"', "d", "i", "j"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, header, [ints, floats, block, small_ints])
        rows = [[int(ints[i]), float(floats[i]), *block[i].tolist(),
                 *small_ints[i]] for i in range(n)]
        csv_writer_reference(want, header, rows)
        assert got.read_bytes() == want.read_bytes()

    def test_python_list_columns_and_empty(self, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, ["k", "x"], [[1, 2, 3], [0.5, -0.0, 1e-300]])
        csv_writer_reference(want, ["k", "x"], [[1, 0.5], [2, -0.0], [3, 1e-300]])
        assert got.read_bytes() == want.read_bytes()
        write_csv(got, ["k"], [np.zeros(0, dtype=int)])
        assert got.read_text() == "k\n"

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [np.zeros(3), np.zeros(4)])


class TestLoadTheta0:
    def test_zeros_is_default(self):
        assert load_theta0("zeros", 1, 3) is None

    def test_relative_path_from_base_dir(self, tmp_path):
        (tmp_path / "t.json").write_text("[[1.0, 2.0, 3.0]]")
        np.testing.assert_array_equal(load_theta0("t.json", 1, 3, base_dir=tmp_path),
                                      [[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("text", [None, "not json", '[["a", 1, 2]]', "[[1.0, 2.0]]",
                                      '{"a": 1}'])
    def test_bad_files_name_the_file(self, tmp_path, text):
        path = tmp_path / "t.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ValidationError, match="t.json"):
            load_theta0(str(path), 1, 3)


def minimal_config(**overrides):
    cfg = {
        "true_model": SCALAR.to_dict(),
        "fit_orders": [1],
        "horizon": 300,
        "input": {"kind": "white", "seed": 5},
    }
    cfg.update(overrides)
    return cfg


class TestConfig:
    def test_defaults_applied(self):
        config = config_from_dict(minimal_config())
        assert config.theta0 == "zeros"
        assert config.p0_scale == 1e3

    def test_empty_fit_orders(self):
        with pytest.raises(ValidationError, match="fit_orders"):
            config_from_dict(minimal_config(fit_orders=[]))

    def test_horizon_below_order(self):
        with pytest.raises(ValidationError, match="horizon"):
            config_from_dict(minimal_config(fit_orders=[3], horizon=3))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            config_from_dict(minimal_config(extra=1))
        with pytest.raises(ValidationError, match=r"unknown keys \['tolerances'\]"):
            config_from_dict(minimal_config(tolerances={"equivalence": 1e-8}))

    def test_unknown_input_key_rejected(self):
        with pytest.raises(ValidationError, match="config.input"):
            config_from_dict(minimal_config(input={"kind": "white", "sigma": 2}))

    def test_fit_order_below_true_order(self):
        cfg = minimal_config(true_model=IOModel.scalar([0.1, 0.2], [0, 1, 0]).to_dict(),
                             fit_orders=[1])
        with pytest.raises(ValidationError, match="below the true order"):
            config_from_dict(cfg)

    def test_model_by_path(self, tmp_path):
        save_model(SCALAR, tmp_path / "m.json")
        cfg = minimal_config(true_model="m.json")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        config = load_config(tmp_path / "cfg.json")
        np.testing.assert_array_equal(config.true_model.theta, SCALAR.theta)


class TestRunExperiment:
    def test_two_orders_and_reproducibility(self, tmp_path):
        cfg = config_from_dict(minimal_config(fit_orders=[1, 2], horizon=800))
        man1 = run_experiment(cfg, tmp_path / "a")
        man2 = run_experiment(cfg, tmp_path / "b")
        assert [r["status"] for r in man1.runs] == ["ok", "ok"]
        assert man1.manifest_hash == man2.manifest_hash
        for name in ("trace_order1.csv", "trace_order2.csv",
                     "summary_order1.json", "summary_order2.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
        # scaled_err_norm is k * frob_err_to_ref, bit for bit
        for name in ("trace_order1.csv", "trace_order2.csv"):
            lines = (tmp_path / "a" / name).read_text().splitlines()
            assert lines[0].split(",")[:3] == ["k", "frob_err_to_ref", "scaled_err_norm"]
            for line in lines[1:]:
                k, dist, scaled = line.split(",")[:3]
                assert float(scaled) == int(k) * float(dist)
        # order-1 trace heads to the true model, order-2 to the projection
        s1 = json.loads((tmp_path / "a" / "summary_order1.json").read_text())
        s2 = json.loads((tmp_path / "a" / "summary_order2.json").read_text())
        assert s1["ref_kind"] == "true" and s1["final_dist_to_ref"] < 1e-3
        assert s2["ref_kind"] == "projected" and s2["final_dist_to_ref"] < 1e-3
        assert s1["seed"] == 5

    def test_zero_input_flat_trace(self, tmp_path):
        cfg = config_from_dict(minimal_config(
            input={"kind": "prbs", "seed": 1, "scale": 0.0}, horizon=100))
        man = run_experiment(cfg, tmp_path)
        assert man.runs[0]["status"] == "ok"
        rows = (tmp_path / "trace_order1.csv").read_text().strip().splitlines()[1:]
        errs = {row.split(",")[1] for row in rows}
        assert len(errs) == 1  # distance to reference never moves

    def test_crash_isolation(self, tmp_path):
        # a theta0 file that fits order 1 only: order 2 fails, order 1 survives
        theta0 = [[0.0, 0.0, 0.0]]
        t0path = tmp_path / "theta0.json"
        t0path.write_text(json.dumps(theta0))
        cfg = config_from_dict(minimal_config(fit_orders=[1, 2], horizon=120,
                                              theta0=str(t0path)))
        man = run_experiment(cfg, tmp_path / "out")
        statuses = {r["fit_order"]: r["status"] for r in man.runs}
        assert statuses[1] == "ok"
        assert statuses[2].startswith("error:")
        assert (tmp_path / "out" / "trace_order1.csv").exists()
        assert not (tmp_path / "out" / "trace_order2.csv").exists()

    def test_manifest_inventory(self, tmp_path):
        cfg = config_from_dict(minimal_config(horizon=80))
        man = run_experiment(cfg, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == cfg.config_hash
        entry = manifest["runs"][0]
        assert set(entry["outputs"]) == {"trace", "trace_sha256",
                                         "summary", "summary_sha256"}
        assert Path(tmp_path / entry["outputs"]["trace"]).exists()
