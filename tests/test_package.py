import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sysid_rls


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(sysid_rls.__all__)) == len(sysid_rls.__all__)
    for name in sysid_rls.__all__:
        assert not isinstance(getattr(sysid_rls, name), types.ModuleType), name


def test_all_lists_every_public_import():
    public = {name for name, value in vars(sysid_rls).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(sysid_rls.__all__)


# Each case runs in a fresh interpreter, since this one has loaded scipy
# through other tests.  The script writes small inputs, runs the CLI
# in-process and prints the scipy modules it left loaded.  The package
# depends on numpy alone, so no command may load any.
HYGIENE_SCRIPT = r"""
import json, sys
from pathlib import Path
import sysid_rls.cli
from sysid_rls import IOModel, InputSpec, generate_input, lift_once, simulate
from sysid_rls.fileio import save_model, save_trajectory, write_json

out = Path(sys.argv[1])
siso = lift_once(IOModel.scalar([0.5], [0.0, 1.0]), [[0.3]])
save_model(siso, out / "siso.json")
mimo = IOModel(n=1, p=2, m=1, F=[[[0.5, 0.1], [0.0, 0.2]]], G=[[[0.0], [1.0]], [[1.0], [0.3]]])
save_model(mimo, out / "mimo.json")
u = generate_input(InputSpec(kind="white", seed=1), 60, 1)
save_trajectory(simulate(siso, [0.1, 0.2], u), out / "traj.csv")
write_json(out / "cfg.json", {"true_model": "siso.json", "fit_orders": [2, 3], "horizon": 40,
                              "input": {"kind": "white", "seed": 3}})
argv = {
    "import": None,
    "fit": ["fit", "--data", str(out / "traj.csv"), "--order", "2",
            "--emit-trace", str(out / "fit.csv")],
    "excite": ["excite", "--data", str(out / "traj.csv"), "--order", "2", "--true-order", "1",
               "--emit", str(out / "ex.csv")],
    "excite-plain": ["excite", "--data", str(out / "traj.csv"), "--order", "2"],
    "equiv": ["equiv", str(out / "siso.json"), str(out / "siso.json")],
    "reduce-siso": ["reduce", str(out / "siso.json"), "--out", str(out / "r.json")],
    "reduce-mimo": ["reduce", str(out / "mimo.json"), "--out", str(out / "rm.json")],
    "converge": ["converge", "--model", str(out / "siso.json"), "--fit-order", "3",
                 "--horizon", "40"],
    "experiment": ["experiment", str(out / "cfg.json"), "--out-dir", str(out / "exp")],
}[sys.argv[2]]
if argv is not None and sysid_rls.cli.main(argv) != 0:
    sys.exit(f"{argv} failed")
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(case, tmp_path):
    src = Path(sysid_rls.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", HYGIENE_SCRIPT, str(tmp_path), case],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("case", ["import", "fit", "excite", "excite-plain", "equiv",
                                  "reduce-siso", "reduce-mimo", "converge", "experiment"])
def test_commands_that_never_solve_with_scipy_leave_it_unloaded(case, tmp_path):
    assert _scipy_modules_after(case, tmp_path) == set()


def test_one_function_calls_os_fork():
    # experiment's order workers, fit's trace worker and the split row ranges
    # of the trajectory read and the excite curve share one fork helper
    callers = []
    for path in sorted(Path(sysid_rls.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                callers += [f"{path.stem}.{node.name}" for call in ast.walk(node)
                            if isinstance(call, ast.Call) and ast.unparse(call.func) == "os.fork"]
    assert callers == ["workers.fork_worker"]
