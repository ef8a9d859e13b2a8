import csv
import errno
import io
import json
import os
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from sysid_rls import experiment, fileio
from sysid_rls.cli import main
from sysid_rls.experiment import config_from_dict
from sysid_rls.fileio import (
    load_model,
    load_theta0,
    load_trajectory,
    save_model,
    save_trajectory,
    write_csv,
    write_csv_groups,
)
from sysid_rls.rls import TRACE_CHUNK_ROWS
from support import PROCESSES, cpus, processes, random_stable_model


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

    @pytest.mark.parametrize("kwargs,message", [
        ({"kind": "sine-mix"}, "at least one frequency"),
        ({"kind": "sine-mix", "freqs": (0.1, 0.2), "amps": (1.0,)}, "amps must match"),
        ({"kind": "sine-mix", "freqs": (0.1,), "phases": (0.0, 1.0)}, "phases must match"),
        ({"kind": "file"}, "needs a path"),
    ])
    def test_spec_rejections(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            InputSpec(**kwargs)

    def test_sine_mix_amps_and_phases_enter_the_config_hash(self):
        spec = InputSpec(kind="sine-mix", freqs=(0.1, 0.2), amps=(1.0, 0.5), phases=(0.0, 1.5))
        assert spec.to_dict() == {"kind": "sine-mix", "scale": 1.0, "seed": 0,
                                  "freqs": [0.1, 0.2], "amps": [1.0, 0.5], "phases": [0.0, 1.5]}
        config = config_from_dict(minimal_config(input=spec.to_dict()))
        shifted = config_from_dict(minimal_config(input=dict(spec.to_dict(), phases=[0.0, 1.0])))
        assert config.input == spec and config.config_hash != shifted.config_hash

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

    @pytest.mark.parametrize("header", ["k,u_2,y_1", "k,u_1,y_2", "k,u_1,u_1,y_1",
                                        "k,u_1,y_1,y_1", "k,u_1,y_1,u_2"],
                             ids=["input-numbered-2", "output-numbered-2", "input-twice",
                                  "output-twice", "input-after-output"])
    def test_header_must_be_exactly_the_written_one(self, tmp_path, header):
        # each header has the u_ / y_ prefixes of a valid one
        path = tmp_path / "t.csv"
        width = header.count(",")
        path.write_text(header + "\n" + "".join(f"{k}" + ",1.0" * width + "\n" for k in range(2)))
        with pytest.raises(ValidationError, match="header must be k,u_1..u_m,y_1..y_p"):
            load_trajectory(path)

    def test_non_consecutive_k(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("k,u_1,y_1\n0,1,1\n2,1,1\n")
        with pytest.raises(ValidationError):
            load_trajectory(path)


def _record_lines(rows=600, seed=3):
    """Data lines ``k,u_1,u_2,y_1,y_2`` of a random record, as ``repr``
    writes its floats."""
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-5, 6, (rows, 4))
    return [",".join([str(k)] + [repr(float(v)) for v in row]) for k, row in enumerate(cells)]


def _blank(line: str, col: int, text: str = "") -> str:
    cells = line.split(",")
    cells[col] = text
    return ",".join(cells)


def _edit(edits, newline="\n", final=True, insert=None, rows=600):
    """A trajectory file's text: the ``rows`` lines of the record with
    ``edits`` (line index, column, cell text) applied, a blank line before
    index ``insert``."""
    lines = _record_lines(rows)
    for i, col, text in edits:
        lines[i] = _blank(lines[i], col, text)
    if insert is not None:
        lines.insert(insert, "")
    return newline.join(["k,u_1,u_2,y_1,y_2"] + lines) + (newline if final else "")


# each file's edits and how the file is written
LOADER_CASES = {
    "none": ([], {}),
    "leading": ([(0, 1, ""), (1, 2, ""), (2, 1, "")], {}),
    "middle": ([(300, 2, "")], {}),
    "last-row": ([(599, 1, "")], {}),
    "both-inputs": ([(10, 1, ""), (12, 1, ""), (12, 2, "")], {}),
    "crlf": ([(0, 1, ""), (400, 2, "")], {"newline": "\r\n"}),
    "no-final-newline": ([(599, 2, "")], {"final": False}),
    "blank-line": ([(200, 1, "")], {"insert": 100}),
    "nan-cells": ([(5, 1, "nan"), (6, 2, "nan")], {}),
}


# data rows enough that their file passes fileio._SPLIT_BYTES, so a worker
# parses the lines past its midpoint, row 1000 or so on
SPLIT_ROWS = 2000

# each split file's edits and how it is written: empty input cells in both
# halves
SPLIT_CASES = {
    "empty-cells": ([(0, 1, ""), (1, 2, ""), (700, 2, ""), (1300, 1, ""), (1999, 2, "")], {}),
    "crlf": ([(2, 1, ""), (1400, 2, "")], {"newline": "\r\n"}),
    "no-final-newline": ([(10, 1, ""), (1999, 1, "")], {"final": False}),
}


def _random_record(rng, rows, m, p):
    """A trajectory file's text with ``m`` inputs and ``p`` outputs: a tenth
    of its rows with every input empty, and a tenth of the other input
    cells empty, so neighbouring empty cells read ``,,,`` and ``,,,,``."""
    lines = ["k," + ",".join([f"u_{i + 1}" for i in range(m)] + [f"y_{i + 1}" for i in range(p)])]
    cells = rng.standard_normal((rows, m + p)) * 10.0 ** rng.integers(-5, 6, (rows, m + p))
    empty = rng.random((rows, m)) < 0.1
    empty[rng.choice(rows, rows // 10, replace=False)] = True
    for k, (row, gaps) in enumerate(zip(cells, empty)):
        inputs = ["" if gap else repr(float(v)) for v, gap in zip(row[:m], gaps)]
        lines.append(",".join([str(k)] + inputs + [repr(float(v)) for v in row[m:]]))
    return "\n".join(lines) + "\n"


class TestLoadTrajectory:
    """The one ``loadtxt`` read against the per-row parser, bit for bit."""

    @pytest.mark.parametrize("case", list(LOADER_CASES))
    def test_matches_the_row_parser_bit_for_bit(self, tmp_path, monkeypatch, case):
        edits, how = LOADER_CASES[case]
        path = tmp_path / "t.csv"
        path.write_bytes(_edit(edits, **how).encode())
        ks, us, ys = fileio._parse_rows(path, 5, 2)
        calls = []
        cell = fileio._input_cell
        monkeypatch.setattr(fileio, "_input_cell", lambda c: calls.append(c) or cell(c))
        traj = load_trajectory(path)
        assert traj.k0 == ks[0] == 0 and len(traj) == len(ks) == 600
        assert traj.u.tobytes() == us.tobytes() and traj.y.tobytes() == ys.tobytes()
        assert np.isnan(us).sum() == len(edits)
        # no cell goes through the per-cell converter
        assert calls == []

    @pytest.mark.parametrize("case", PROCESSES)
    @pytest.mark.parametrize("file", list(SPLIT_CASES))
    def test_split_read_matches_the_row_parser_bit_for_bit(self, tmp_path, monkeypatch, case,
                                                           file):
        edits, how = SPLIT_CASES[file]
        text = _edit(edits, rows=SPLIT_ROWS, **how)
        assert len(text) > fileio._SPLIT_BYTES
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode())
        ks, us, ys = fileio._parse_rows(path, 5, 2)
        parsed, table = [], fileio._table
        monkeypatch.setattr(fileio, "_table",
                            lambda lines, dtype: parsed.append(dtype) or table(lines, dtype))
        rows = []
        monkeypatch.setattr(fileio, "_parse_rows", lambda *args: rows.append(args))
        with processes(case):
            traj = load_trajectory(path)
        assert traj.k0 == ks[0] == 0 and len(traj) == len(ks) == SPLIT_ROWS
        assert traj.u.tobytes() == us.tobytes() and traj.y.tobytes() == ys.tobytes()
        assert np.isnan(us).sum() == len(edits)
        # this process parses the first half, and the second where no worker
        # replied; no line goes through the row parser
        assert len(parsed) == (1 if case == "two-cpus" else 2)
        assert rows == []

    @pytest.mark.parametrize("case", PROCESSES)
    @pytest.mark.parametrize("command", ["fit", "excite"])
    @pytest.mark.parametrize("bad", ["cell", "byte"])
    @pytest.mark.parametrize("row", [300, 1800])
    def test_bad_line_in_either_half_is_exit_2(self, tmp_path, capsys, case, command, bad, row):
        # data row 300 is line 302 of the file, in this process's half; row
        # 1800 is in the worker's
        path = tmp_path / "t.csv"
        text = _edit([(0, 1, ""), (row, 3, "abc")], rows=SPLIT_ROWS).encode()
        path.write_bytes(text.replace(b"abc", b"\xff") if bad == "byte" else text)
        with processes(case):
            assert main([command, "--data", str(path), "--order", "1"]) == 2
        err = capsys.readouterr().err
        want = (f"{path}: not UTF-8 text" if bad == "byte"
                else f"{path}:{row + 2}: could not convert string to float: 'abc'")
        assert "Traceback" not in err and want in err

    @pytest.mark.parametrize("m,p,seed", [(1, 1, 5), (3, 2, 6), (1, 2, 7), (2, 1, 8), (2, 2, 9),
                                          (4, 1, 10), (5, 3, 11)])
    def test_adjacent_empty_inputs_match_the_row_parser_bit_for_bit(self, tmp_path, m, p,
                                                                    seed):
        path = tmp_path / "t.csv"
        text = _random_record(np.random.default_rng(seed), 500, m, p)
        assert ("," * (m + 1)) in text
        path.write_text(text)
        ks, us, ys = fileio._parse_rows(path, 1 + m + p, m)
        traj = load_trajectory(path)
        assert traj.k0 == ks[0] == 0 and len(traj) == len(ks) == 500
        assert np.isnan(us).any()
        assert traj.u.tobytes() == us.tobytes() and traj.y.tobytes() == ys.tobytes()

    def test_nan_output_with_an_empty_input_cell(self, tmp_path):
        # a nan output sends the read to the row parser, which accepts it
        path = tmp_path / "t.csv"
        path.write_text(_edit([(3, 1, ""), (300, 4, "nan")]))
        ks, us, ys = fileio._parse_rows(path, 5, 2)
        traj = load_trajectory(path)
        assert traj.k0 == ks[0] == 0 and len(traj) == 600
        assert np.isnan(traj.u[3, 0]) and np.isnan(traj.y[300, 1])
        np.testing.assert_array_equal(traj.u, us)
        np.testing.assert_array_equal(traj.y, ys)

    @pytest.mark.parametrize("body", ["0,1.0,x\n", "0,1.0,2.0\n1,1.0\n", "0,1.0,2.0\n1,1.0,2.0,3.0\n",
                                      "0, ,2.0\n", "0,1.0,\n", "0,1.0,nan\n", "", "\n\n"],
                             ids=["bad-cell", "short-row", "long-row", "blank-input",
                                  "empty-output", "nan-output", "no-rows", "blank-lines-only"])
    def test_table_read_declines_what_the_row_parser_must_answer(self, body):
        assert fileio._read_table(io.StringIO(body), 1, 1) is None

    @pytest.mark.parametrize("blank", [" ", "\t", " \t ", " " * 9],
                             ids=["space", "tab", "mixed", "wide"])
    @pytest.mark.parametrize("row", [2, 300, 599])
    def test_blank_input_cell_is_missing_through_the_row_parser(self, tmp_path, row, blank):
        path = tmp_path / "t.csv"
        path.write_text(_edit([(0, 1, ""), (row, 2, blank)]))
        ks, us, ys = fileio._parse_rows(path, 5, 2)
        traj = load_trajectory(path)
        assert np.isnan(traj.u[row, 1]) and np.isnan(us[row, 1])
        assert traj.u.tobytes() == us.tobytes() and traj.y.tobytes() == ys.tobytes()

    @pytest.mark.parametrize("edits", [[(300, 3, "")], [(300, 4, "")], [(0, 1, ""), (599, 4, "")],
                                       [(299, 3, ""), (300, 1, "")], [(300, 3, " ")],
                                       [(300, 4, "\t")], [(299, 3, " "), (300, 1, " ")]],
                             ids=["middle-,,", "middle-last-cell", "last-row", "before-input",
                                  "blank-middle", "blank-last-cell", "blank-before-input"])
    def test_empty_output_cell_names_its_line(self, tmp_path, edits):
        # the header is line 1
        path = tmp_path / "t.csv"
        path.write_text(_edit(edits))
        line = 2 + min(i for i, col, _ in edits if col >= 3)
        with pytest.raises(ValidationError, match=f"t.csv:{line}: could not convert"):
            load_trajectory(path)


def csv_writer_reference(path, header, rows):
    """Rows of Python/numpy scalars through ``csv.writer``: ints via ``str``,
    floats via ``repr`` of a Python float."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(c) if isinstance(c, (int, np.integer)) else repr(float(c))
                             for c in row])


class TestWriteCsv:
    def test_bytes_match_csv_writer(self, tmp_path):
        n = 2 * TRACE_CHUNK_ROWS + 3  # two full blocks and a partial one
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

    def test_groups_write_the_bytes_of_one_group(self, tmp_path):
        # group edges inside and across TRACE_CHUNK_ROWS blocks, and an empty group
        n = 2 * TRACE_CHUNK_ROWS + 5
        rng = np.random.default_rng(7)
        ks = np.arange(n)
        block = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-200, 200, (n, 1))
        edges = [0, 3, 3, TRACE_CHUNK_ROWS + 1, 2 * TRACE_CHUNK_ROWS + 4, n]
        groups = ([ks[a:b], block[a:b], block[a:b, 0]] for a, b in zip(edges, edges[1:]))

        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv_groups(got, ["k", "a", "b", "c"], groups)
        write_csv(want, ["k", "a", "b", "c"], [ks, block, block[:, 0]])
        assert got.read_bytes() == want.read_bytes()

    def test_group_length_mismatch_rejected(self, tmp_path):
        groups = [[np.zeros(2), np.zeros(2)], [np.zeros(3), np.zeros(1)]]
        with pytest.raises(ValidationError, match="different lengths"):
            write_csv_groups(tmp_path / "x.csv", ["a", "b"], groups)


def repr_rows(block):
    """The CSV rows of a 2-D float block through ``repr``, for corpora too
    large for :func:`csv_writer_reference`'s per-cell checks."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def float_families():
    """Floats at every digit count, exponent and layout edge ``repr`` has."""
    p2 = np.ldexp(1.0, np.arange(-1074, 1024))
    p10 = 10.0 ** np.arange(-323, 309)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310,
                      2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-4, 1e-5,
                      1e100, 1e-100, 9999999999999998.0, 1e15 + 0.5, 0.1, 0.3, 2.0 / 3.0,
                      123456789012345680.0, 1e22, 1e23, 5e-5, 9.999999999999999e-05])
    rng = np.random.default_rng(20)
    return np.concatenate([
        edges, -edges,
        p2, np.nextafter(p2, 0), np.nextafter(p2, np.inf),
        p10, np.nextafter(p10, 0), np.nextafter(p10, np.inf), -p10,
        (np.arange(1, 400)[:, None] * 10.0 ** np.arange(-25, 25)).ravel(),
        np.arange(-4000, 4000) / 8.0,
        rng.standard_normal(20000) * 10.0 ** rng.uniform(-25, 25, 20000),
        rng.uniform(size=5000),
    ])


class TestCsvDigits:
    """The block formatter's bytes against ``repr`` / ``str`` of every cell."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.floats(width=64),
                              st.integers(-2 ** 63, 2 ** 63 - 1),
                              st.integers(-2 ** 31, 2 ** 31 - 1)), min_size=1, max_size=40))
    def test_any_float_and_integer_cells(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            floats, big, small = zip(*rows)
            columns = [np.array(floats), np.array(big, dtype=np.int64),
                       np.array(small, dtype=np.int32)]
            csv_writer_reference(want, ["x", "i", "j"], rows)
            write_csv(got, ["x", "i", "j"], columns)
            assert got.read_bytes() == want.read_bytes()

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(19).integers(0, 2 ** 64, 2 ** 20, dtype=np.uint64)
        block = bits.view(np.float64).reshape(-1, 8)
        write_csv(tmp_path / "got.csv", ["x"] * 8, [block])
        want = b"x,x,x,x,x,x,x,x\n" + repr_rows(block)
        assert (tmp_path / "got.csv").read_bytes() == want

    def test_families(self, tmp_path):
        values = float_families()
        ints = np.concatenate([np.arange(-1000, 1000), [0, 9, 10, 99, 100, 10 ** 16,
                                                        10 ** 17 - 1, 10 ** 17, -10 ** 17 + 1,
                                                        -10 ** 17, 2 ** 63 - 1, -2 ** 63]])
        ints = np.resize(ints, values.size)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(got, ["i", "x"], [ints, values])
        csv_writer_reference(want, ["i", "x"], zip(ints.tolist(), values.tolist()))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("width", [1, 4, 32])
    def test_bytes_do_not_depend_on_the_step(self, tmp_path, width):
        # rows just short of, at and past one slice of the byte gather and
        # one step of the writer, and past two steps; a row is the k cell and
        # width floats
        edges = [max(1, cells // (width + 1)) for cells in
                 (fileio._GATHER_CELLS, fileio._STEP_CELLS)]
        step = edges[-1]
        rng = np.random.default_rng(width)
        for rows in sorted({1, 2 * step + 1} | {e + d for e in edges for d in (-1, 0, 1)} - {0}):
            block = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-30, 30, (rows, 1))
            block[rows // 2, 0] = np.nan  # one uncertified cell
            ks = np.arange(rows) - 3
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_csv(got, ["k"] + ["x"] * width, [ks, block])
            csv_writer_reference(want, ["k"] + ["x"] * width,
                                 ([int(k), *row] for k, row in zip(ks, block.tolist())))
            assert got.read_bytes() == want.read_bytes(), rows

    def test_ordinary_floats_take_the_digit_path(self):
        # repr writes only what the digit path cannot certify: none of these
        rng = np.random.default_rng(21)
        block = np.vstack([rng.uniform(size=(64, 32)), rng.standard_normal((64, 32))])
        bad = fileio._float_cells(block, fileio._digit_tables())[3]
        assert not bad.any()

    def test_peak_memory_is_bounded_by_the_step(self, tmp_path):
        # the 20,000 x 32 block peaks at 1.19e6 bytes with 8192-cell steps
        # and at 2.53e6 with a per-cell repr writer of 1024-row blocks;
        # formatting a 1024-row chunk (32,768 cells) in one step peaks at
        # 4.5e6.  The experiment trace's shape, an int64 k column and three
        # floats, peaks at 1.14e6.
        rng = np.random.default_rng(22)
        block = rng.standard_normal((20000, 32))
        ks = np.arange(1, 20001)
        dist = rng.standard_normal(20000) ** 2 / ks
        tables = [(["x"] * 32, [block]),
                  (["k", "frob_err_to_ref", "scaled_err_norm", "residual_norm"],
                   [ks, dist, ks * dist, rng.standard_normal(20000)])]
        for header, columns in tables:
            write_csv(tmp_path / "warm.csv", header, [col[:100] for col in columns])
            tracemalloc.start()
            try:
                write_csv(tmp_path / "t.csv", header, columns)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * 2 ** 20, header


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

    def test_repeated_fit_order(self):
        with pytest.raises(ValidationError) as err:
            config_from_dict(minimal_config(fit_orders=[1, 2, 1]))
        assert str(err.value) == "config.fit_orders[2]: order 1 repeats config.fit_orders[0]"

    def test_model_by_path(self, tmp_path):
        save_model(SCALAR, tmp_path / "m.json")
        cfg = minimal_config(true_model="m.json")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        config = load_config(tmp_path / "cfg.json")
        np.testing.assert_array_equal(config.true_model.theta, SCALAR.theta)


def host_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def assert_same_outputs(a, b, dir_a, dir_b):
    """Two runs' manifests agree but for the wall time, and every trace and
    summary holds the same bytes."""
    assert a.runs == b.runs and a.manifest_hash == b.manifest_hash
    names = sorted(f.name for f in dir_a.iterdir() if f.name != "manifest.json")
    assert names == sorted(f.name for f in dir_b.iterdir() if f.name != "manifest.json")
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


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

    def test_worker_count_leaves_outputs_unchanged(self, tmp_path):
        cfg = config_from_dict(minimal_config(fit_orders=[1, 2, 3], horizon=600))
        pids = tmp_path / "pids"
        pids.mkdir()

        def tracked(model, order, *args, **kwargs):
            (pids / str(order)).write_text(str(os.getpid()))
            return real(model, order, *args, **kwargs)

        real = experiment.run_tracked_identification
        with cpus(1):
            one = run_experiment(cfg, tmp_path / "one")
        with cpus(4), mock.patch.object(experiment, "run_tracked_identification", tracked):
            four = run_experiment(cfg, tmp_path / "four")
        assert_same_outputs(one, four, tmp_path / "one", tmp_path / "four")
        assert [r["status"] for r in four.runs] == ["ok"] * 3
        if host_cpus() >= 2:
            assert {int(f.read_text()) for f in pids.iterdir()} - {os.getpid()}

    def test_dying_worker_fails_only_its_orders(self, tmp_path, capsys):
        def dying(config, u_full, theta0, out_dir, order):
            if order == 2 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, u_full, theta0, out_dir, order)

        parent, real = os.getpid(), experiment._run_order
        (tmp_path / "cfg.json").write_text(json.dumps(minimal_config(fit_orders=[1, 2, 3])))
        with cpus(4), mock.patch.object(experiment, "_run_order", dying):
            rc = main(["experiment", str(tmp_path / "cfg.json"), "--out-dir", str(tmp_path / "out")])
        assert rc == 3
        runs = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"]
        statuses = {r["fit_order"]: r["status"] for r in runs}
        assert statuses[1] == statuses[3] == "ok"
        assert statuses[2] == "error: worker process was killed by SIGKILL before replying"
        assert "order 2: error: worker process was killed by SIGKILL" in capsys.readouterr().out
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_fork_runs_every_order_here(self, tmp_path):
        cfg = config_from_dict(minimal_config(fit_orders=[1, 2, 3]))
        with cpus(1):
            one = run_experiment(cfg, tmp_path / "one")
        refused = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        with cpus(4), mock.patch("os.fork", side_effect=refused) as fork:
            forkless = run_experiment(cfg, tmp_path / "forkless")
        assert fork.call_count == 2
        assert_same_outputs(one, forkless, tmp_path / "one", tmp_path / "forkless")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_interrupted_run_stops_its_workers(self, tmp_path):
        def stuck(config, u_full, theta0, out_dir, order):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        parent = os.getpid()
        cfg = config_from_dict(minimal_config(fit_orders=[1, 2, 3]))
        start = time.monotonic()
        with cpus(4), mock.patch.object(experiment, "_run_order", stuck), \
                pytest.raises(KeyboardInterrupt):
            run_experiment(cfg, tmp_path)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
