"""Property test of the CLI's exit-code contract.

Whatever the argv and the contents of the model, trajectory, theta0 and
config files, ``main`` returns or exits with 0 (success), 2 (validation
error) or 3 (numerical failure) and writes no traceback to stderr.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from sysid_rls.cli import main

# Files every example writes into its own directory; "missing.json" never
# exists.
MODEL_A, MODEL_B, TRAJ, THETA0, CONFIG = (
    "a.json", "b.json", "traj.csv", "theta0.json", "config.json")
MISSING = "missing.json"


def mostly(good, bad):
    """``good`` nine times in ten, else ``bad``: most examples get past
    validation and run the command."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 9 else good)


JUNK_TEXT = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "-1", "1.5", "[]"])
INT_TEXT = mostly(st.integers(0, 3).map(str), st.one_of(st.integers(-2, 9).map(str), JUNK_TEXT))
FLOAT_TEXT = mostly(st.sampled_from(["1e3", "1", "1e-8"]),
                    st.one_of(st.sampled_from(["0", "-1", "1e-300", "1e300"]), JUNK_TEXT))
# JSON values that are wrong almost anywhere they are put
JUNK_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, 1e300, -0.5, 10**400]),
    st.lists(st.integers(-1, 1), max_size=2), st.just({}),
)
COEF = mostly(st.floats(-0.9, 0.9),
              st.sampled_from([0.0, 1.5, -3.0, 1e200, math.nan, math.inf]))


def _mutate(draw, d: dict) -> dict:
    """Drop keys or replace their values with junk, up to twice."""
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        if not d:
            break
        key = draw(st.sampled_from(sorted(d)))
        if draw(st.booleans()):
            del d[key]
        else:
            d[key] = draw(JUNK_JSON)
    return d


@st.composite
def model_dicts(draw):
    n, p, m = draw(st.integers(0, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    block = lambda rows, cols: [[draw(COEF) for _ in range(cols)] for _ in range(rows)]
    d = {"n": n, "p": p, "m": m,
         "F": [block(p, p) for _ in range(n)],
         "G": [block(p, m) for _ in range(n + 1)]}
    return _mutate(draw, d)


# texts the JSON decoder refuses past its syntax check: nesting deeper than
# the recursion limit, and an integer over the interpreter's digit limit
UNDECODABLE = st.sampled_from(["[" * 100_000, "1" * 5000])


def json_text(values):
    return mostly(values.map(json.dumps),
                  st.one_of(JUNK_JSON.map(json.dumps), st.text(max_size=8), UNDECODABLE))


@st.composite
def trajectory_csvs(draw):
    m, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    header = ["k"] + [f"u_{i + 1}" for i in range(m)] + [f"y_{i + 1}" for i in range(p)]
    if draw(st.integers(0, 9)) == 9:
        header = draw(st.lists(st.sampled_from(["k", "u_1", "y_1", "x", ""]), max_size=4))
    cell = st.integers(0, 49).flatmap(
        lambda i: st.sampled_from(["", "nan", "inf", "1e308", "x"]) if i == 49
        else st.floats(-2.0, 2.0).map(repr))
    k0 = draw(st.integers(-2, 2))
    lines = [",".join(header)]
    for i in range(draw(st.integers(0, 30))):
        k = draw(JUNK_TEXT) if draw(st.integers(0, 99)) == 99 else str(k0 + i)
        width = draw(st.integers(0, 4)) if draw(st.integers(0, 99)) == 99 else len(header) - 1
        lines.append(",".join([k] + [draw(cell) for _ in range(width)]))
    return "\n".join(lines) + "\n"


@st.composite
def config_dicts(draw):
    d = {
        "true_model": draw(st.one_of(st.sampled_from([MODEL_A, MISSING]), model_dicts())),
        "fit_orders": draw(st.lists(mostly(st.integers(0, 3), st.integers(-1, 9)),
                                    min_size=1, max_size=3)),
        "horizon": draw(mostly(st.sampled_from([5, 30]), st.sampled_from([-1, 0, 2]))),
        "input": draw(mostly(
            st.sampled_from([{"kind": "white", "seed": 1},
                             {"kind": "prbs", "seed": 2, "scale": 0.5},
                             {"kind": "sine-mix", "freqs": [0.05, 0.2]}]),
            st.sampled_from([{"kind": "file", "path": TRAJ}, {"kind": "white", "seed": "x"},
                             {"kind": "bogus"}]))),
        "theta0": draw(st.sampled_from(["zeros", "zeros", THETA0, MISSING])),
        "p0_scale": draw(mostly(st.sampled_from([1e3, 1.0]),
                                st.sampled_from([0.0, -1.0, math.nan, 1e300]))),
        "out_dir": draw(mostly(st.just("out"), JUNK_JSON)),
    }
    return _mutate(draw, d)


def _opt(draw, flag, values):
    return [flag, draw(values)] if draw(st.booleans()) else []


@st.composite
def argvs(draw):
    data = mostly(st.just(TRAJ), st.just(MISSING))
    model = mostly(st.sampled_from([MODEL_A, MODEL_B]), st.just(MISSING))
    theta0 = st.sampled_from(["zeros", "zeros", THETA0, MISSING])
    command = draw(st.sampled_from(
        ["fit", "excite", "equiv", "reduce", "converge", "experiment", "other"]))
    if command == "fit":
        argv = ["fit", "--data", draw(data), "--order", draw(INT_TEXT)]
        argv += _opt(draw, "--p0-scale", FLOAT_TEXT) + _opt(draw, "--theta0", theta0)
        argv += _opt(draw, "--ref-model", model)
        argv += _opt(draw, "--emit-trace", st.just("fit.csv"))
    elif command == "excite":
        argv = ["excite", "--data", draw(data), "--order", draw(INT_TEXT)]
        argv += _opt(draw, "--true-order", INT_TEXT) + _opt(draw, "--emit", st.just("ex.csv"))
    elif command == "equiv":
        argv = ["equiv", draw(model), draw(model)] + _opt(draw, "--tol", FLOAT_TEXT)
    elif command == "reduce":
        argv = ["reduce", draw(model)]
        argv += _opt(draw, "--tol", FLOAT_TEXT)
        argv += ["--once"] if draw(st.booleans()) else []
        argv += ["--out", "red.json"]
    elif command == "converge":
        argv = ["converge", "--model", draw(model), "--fit-order", draw(INT_TEXT),
                "--horizon", draw(mostly(st.sampled_from(["5", "30"]),
                                         st.sampled_from(["-1", "0", "1", "x"])))]
        argv += _opt(draw, "--input", mostly(
            st.sampled_from(["white:seed=3", "prbs:seed=1:scale=2", "sine-mix:freqs=0.1,0.3"]),
            st.sampled_from([f"file:path={TRAJ}", "white:seed=-1", "white:scale=nan", "bogus",
                             "white:seed"])))
        argv += _opt(draw, "--p0-scale", FLOAT_TEXT) + _opt(draw, "--theta0", theta0)
        argv += _opt(draw, "--emit", st.just("conv.csv"))
        argv += _opt(draw, "--emit-summary", st.just("conv.json"))
    elif command == "experiment":
        argv = ["experiment", draw(mostly(st.just(CONFIG), st.just(MISSING)))]
        argv += _opt(draw, "--out-dir", st.just("exp"))
    else:
        argv = draw(st.sampled_from([[], ["--version"], ["bogus"], ["fit"], ["--help"]]))
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=argvs(), model_a=json_text(model_dicts()), model_b=json_text(model_dicts()),
       traj=trajectory_csvs(),
       theta0=json_text(st.lists(st.lists(COEF, max_size=7), max_size=2)),
       config=json_text(config_dicts()))
def test_cli_exit_code_contract(argv, model_a, model_b, traj, theta0, config):
    # relative paths in argv and in the config resolve inside the directory
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in [(MODEL_A, model_a), (MODEL_B, model_b), (TRAJ, traj),
                               (THETA0, theta0), (CONFIG, config)]:
                Path(name).write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
