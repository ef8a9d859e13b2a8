"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import child  # noqa: E402
import gen  # noqa: E402
import sysid_rls  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402


class FakeClock:
    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_arithmetic_on_nested_spans():
    # root [0, 12] > a [0, 10] > (b [1, 4] > c [2, 3]), d [5, 8]
    tracer = Tracer(clock=FakeClock([0, 0, 1, 2, 3, 4, 5, 8, 10, 12]))
    tracer.begin()
    a = tracer.open_span()
    b = tracer.open_span()
    c = tracer.open_span()
    tracer.close_span("rls.c", c)
    tracer.close_span("rls.b", b)
    d = tracer.open_span()
    tracer.close_span("fileio.d", d, error=True)
    tracer.close_span("cli.a", a)
    root, harness = tracer.end()

    self_times = {name: rec[2] for name, rec in tracer.stats.items()}
    assert self_times == {"cli.a": 4, "rls.b": 2, "rls.c": 1, "fileio.d": 3}
    assert tracer.stats["cli.a"][1] == 10 and tracer.stats["fileio.d"][3] == 1
    assert (root, harness) == (12, 2)
    layers = tracer.layer_totals()
    assert layers["cli"] == [1, 4, 0] and layers["rls"] == [2, 3, 0]
    assert layers["fileio"] == [1, 3, 1]
    assert sum(v[1] for v in layers.values()) + harness == root


def _function_bindings():
    return {(name, attr): obj
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, obj in vars(module).items() if inspect.isfunction(obj)}


def test_wrappers_are_removed_after_the_traced_run():
    before = _function_bindings()
    tracer = Tracer()
    assert tracer.install() > 0
    try:
        assert sysid_rls.convergence.rls_step is not before[("sysid_rls.convergence", "rls_step")]
        assert sysid_rls.cli.write_csv is not before[("sysid_rls.cli", "write_csv")]
        # Private helpers are wrapped only where another module imported them.
        assert (sysid_rls.equivalence._transition_prefix
                is not before[("sysid_rls.equivalence", "_transition_prefix")])
        assert (sysid_rls.model_core._transition_prefix
                is before[("sysid_rls.model_core", "_transition_prefix")])
        model = sysid_rls.IOModel.scalar([0.5], [0.0, 1.0])
        sysid_rls.run_tracked_identification(model, 2, lambda k: [[1.0]] * k, 30)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    after = _function_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.stats["rls.rls_step"][0] == 30
    assert tracer.stats["convergence.projected_limit"][0] == 1


def test_cache_use_follows_the_prefix_cache():
    batch = {"models": {"b": {"n": 1}, "h": {"n": 3}, "c": {"n": 2}},
             "queries": [{"op": "is_equivalent", "args": ["b", "h"]},  # b up to 2
                         {"op": "lift_once", "args": ["b"], "out": "l"},
                         {"op": "is_equivalent", "args": ["l", "b"]},  # b up to 1
                         {"op": "transition_pair", "args": ["b"], "j": 50},
                         {"op": "transition_pair", "args": ["b"], "j": 20},
                         {"op": "transition_pair", "args": ["c"], "j": 20},
                         {"op": "is_equivalent", "args": ["h", "h"]}]}
    assert child.AlgebraQueries.cache_use(batch) == [
        "miss", None, "hit", "miss", "hit", "fresh", None]


@pytest.mark.parametrize("workload", sorted(child.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "EXPERIMENT_HORIZON", 400)
    monkeypatch.setattr(gen, "TRAJECTORY_ROWS", 600)
    monkeypatch.setattr(gen, "QUERY_BATCHES", 2)
    inputs, outputs = tmp_path / "inputs", tmp_path / "outputs"
    outputs.mkdir()
    expect = gen.generate(workload, 5, inputs)
    spec = dict(expect, workload=workload, inputs=str(inputs), outputs=str(outputs))
    body = child.run_body(child.WORKLOADS[workload](spec), seconds=0.0, trace=True)
    (untraced,), (traced,) = body["passes"], body["traced"]
    assert untraced["failures"] == [] and traced["failures"] == []
    assert untraced["digest"] and traced["digest"] == untraced["digest"]
    (closure,) = body["trace"]["closure"]
    assert closure["layer_self"] + closure["harness_self"] == pytest.approx(
        closure["wall"], rel=1e-3)


def test_distinct_lifts_of_a_siso_model_reduce_to_its_order():
    model = sysid_rls.IOModel.scalar([0.3], [1.0, 1.0])
    lifted = sysid_rls.lift_once(sysid_rls.lift_once(model, [[0.5]]), [[-0.3]])
    report = sysid_rls.reducibility_check(lifted)
    assert report.irreducible_model.n == 1 and report.proven


@pytest.mark.xfail(strict=True, reason=(
    "known defect: equivalence._real_roots drops a double root that numpy "
    "returns as a complex pair with imaginary part ~1e-8, so a SISO model "
    "lifted twice by the same factor is reported proven irreducible"))
def test_equal_lifts_of_a_siso_model_reduce_to_its_order():
    # The workloads draw scalar lift factors from a continuous law, so this
    # case, which makes a run fail, comes up only here.
    model = sysid_rls.IOModel.scalar([0.3], [1.0, 1.0])
    lifted = sysid_rls.lift_once(sysid_rls.lift_once(model, [[0.5]]), [[0.5]])
    report = sysid_rls.reducibility_check(lifted)
    assert report.irreducible_model.n == 1 and report.proven
