"""Body of one benchmark run, in a fresh process.

    python3 perfbench/child.py <spec.json> <result.json>

``run.py`` writes the spec (workload, input and output directories, seconds,
trace flag, harness expectations) and reads the result.  The process imports
the package, loads the workload's inputs, notes the moment it is ready (the
end of set-up), then runs passes of the workload in a closed loop with one
client until the time is up.  With ``setup_only`` it exits once ready.

In a traced run every pass is run twice on the same input, first untraced,
then with the tracer installed; the pair gives the tracing overhead and shows
that tracing leaves every output byte unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import sysid_rls
from sysid_rls import cli
from sysid_rls.convergence import theta_equivalence_residual
from sysid_rls.experiment import load_config
from sysid_rls.fileio import load_model

import gen
from calibration import SpeedSampler, probe_now
from tracer import Tracer

# Output tolerances.  The data are exact, so every fit converges like 1/k to
# its closed-form asymptote; at the benchmark sizes the observed figures sit
# orders of magnitude below these.
ASYMPTOTE_TOL = 1e-2
EQUIVALENCE_TOL = 1e-5
LIFT_TOL = 1e-10
TRANSITION_TOL = 1e-8
# The reduced regressor is persistently exciting when the final average-Gram
# minimum eigenvalue exceeds this share of the Gram's scale; a rank-deficient
# Gram gives roundoff, some 1e-16 of the scale, of either sign.
PE_REL_TOL = 1e-8


def sha256_files(*paths: Path) -> str:
    """Digest of the files' bytes laid end to end, read in chunks."""
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


class Pass:
    """Timings, failures and output digest of one pass."""

    def __init__(self):
        self.wall = 0.0
        self.start = self.end = 0.0  # perf_counter() around the operations
        self.latencies: list[float] = []
        self.failures: list[list] = []  # [operation index, message]
        self.newton_misses = 0
        self.digest = ""
        self.extras: dict = {}
        self.pending = None  # raw outputs, consumed by the workload's check()


def _call_cli(argv: list[str]):
    """Run one CLI command in-process; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising command is a failed operation
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), time.perf_counter() - start


class Workload:
    def prepare(self, index: int):
        """Harness work for pass ``index``, done before the pass is timed or
        traced; the result is handed to ``run_pass``."""
        return None


class ExperimentSiso(Workload):
    """``sysid-rls experiment`` on a SISO order-1 model, fit orders 1..3."""

    def __init__(self, spec: dict):
        self.config_path = Path(spec["inputs"]) / spec["config"]
        self.out = Path(spec["outputs"]) / "experiment"
        self.config = load_config(self.config_path)

    def run_pass(self, index: int, prepared) -> Pass:
        result = Pass()
        argv = ["experiment", str(self.config_path), "--out-dir", str(self.out)]
        result.start = time.perf_counter()
        rc, _stdout, seconds = _call_cli(argv)
        result.end = time.perf_counter()
        result.wall = seconds
        result.latencies.append(seconds)
        result.pending = rc
        return result

    def check(self, result: Pass) -> None:
        rc = result.pending
        if rc != 0:
            result.failures.append([0, f"experiment exited {rc}"])
            return
        manifest = json.loads((self.out / "manifest.json").read_text())
        digests = [manifest["manifest_hash"]]
        dist, asym = [], []
        for run in manifest["runs"]:
            if run["status"] != "ok":
                result.failures.append([0, f"order {run['fit_order']}: {run['status']}"])
                continue
            for key in ("trace", "summary"):
                digests.append(sha256_files(self.out / run["outputs"][key]))
            summary = json.loads((self.out / run["outputs"]["summary"]).read_text())
            dist.append(summary["final_dist_to_ref"])
            asym.append(summary["asymptote_rel_error"])
        result.digest = hashlib.sha256("".join(digests).encode()).hexdigest()
        if dist:
            result.extras = {"final_ref_dist": max(dist), "asymptote_rel_err": max(asym)}
            if not max(asym) <= ASYMPTOTE_TOL:
                result.failures.append([0, f"asymptote relative error {max(asym):.3e}"])
        result.extras["csv_bytes"] = sum(
            (self.out / f"trace_order{o}.csv").stat().st_size for o in self.config.fit_orders)


class FitExciteMimo(Workload):
    """``sysid-rls fit --emit-trace`` then ``sysid-rls excite --true-order 1 --emit``."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.data = Path(spec["inputs"]) / spec["data"]
        self.out = Path(spec["outputs"]) / "fit-excite"
        self.out.mkdir(parents=True, exist_ok=True)
        self.model = load_model(Path(spec["inputs"]) / spec["true_model"])

    def run_pass(self, index: int, prepared) -> Pass:
        spec, result = self.spec, Pass()
        fit_csv, exc_csv = self.out / "fit.csv", self.out / "excite.csv"
        order = str(spec["order"])
        result.start = time.perf_counter()
        fit = _call_cli(["fit", "--data", str(self.data), "--order", order,
                         "--emit-trace", str(fit_csv)])
        excite = _call_cli(["excite", "--data", str(self.data), "--order", order,
                            "--true-order", str(spec["true_order"]), "--emit", str(exc_csv)])
        result.end = time.perf_counter()
        result.latencies = [fit[2], excite[2]]
        result.wall = fit[2] + excite[2]
        result.pending = (fit, excite)
        return result

    def check(self, result: Pass) -> None:
        spec = self.spec
        fit, excite = result.pending
        fit_csv, exc_csv = self.out / "fit.csv", self.out / "excite.csv"
        for op, (what, (rc, *_)) in enumerate((("fit", fit), ("excite", excite))):
            if rc != 0:
                result.failures.append([op, f"{what} exited {rc}"])
        if result.failures:
            return

        samples = spec["samples"]
        if f"final estimate after {samples} samples" not in fit[1]:
            result.failures.append([0, "fit did not report the expected sample count"])
        # The checks stream the output files, so they never hold a whole
        # trace in memory and cannot set the process's peak resident set.
        rows, last = -1, b""
        with open(fit_csv, "rb") as f:
            for last in f:
                rows += 1
        p, d = self.model.p, self.model.p * spec["order"] + self.model.m * (spec["order"] + 1)
        theta = np.array([float(c) for c in last.split(b",")[1:1 + p * d]]).reshape(p, d)
        residual = theta_equivalence_residual(theta, self.model, spec["order"])
        if rows != samples:
            result.failures.append([0, f"fit trace has {rows} rows, expected {samples}"])
        if not residual <= EQUIVALENCE_TOL:
            result.failures.append([0, f"final estimate equivalence residual {residual:.3e}"])

        curve = np.loadtxt(exc_csv, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
        lam = curve[:, 0]
        drop = float(np.max(lam[:-1] - lam[1:])) if len(lam) > 1 else 0.0
        if len(lam) != samples:
            result.failures.append([1, f"excitation curve has {len(lam)} rows, expected {samples}"])
        elif drop > 1e-9 * (1.0 + abs(lam[-1])):
            result.failures.append([1, f"partial-sum minimum eigenvalue decreased by {drop:.3e}"])
        elif not curve[-1, 1] > PE_REL_TOL * spec["gram_scale"]:
            result.failures.append([1, f"reduced regressor is not persistently exciting: "
                                       f"average-Gram minimum eigenvalue {curve[-1, 1]:.3e}"])

        result.digest = sha256_files(fit_csv, exc_csv)
        result.extras = {"equivalence_residual": residual,
                         "csv_bytes": fit_csv.stat().st_size + exc_csv.stat().st_size}


class AlgebraQueries(Workload):
    """A stream of equivalence, reduction, lift and transition queries."""

    def __init__(self, spec: dict):
        raw = json.loads((Path(spec["inputs"]) / spec["queries"]).read_text())
        self.batches = raw["batches"]

    @staticmethod
    def cache_use(batch: dict) -> list:
        """How each query meets the per-model transition cache at top level.

        ``transition_pair(model, j)`` needs the model's transition pairs up to
        j; ``is_equivalent`` across orders needs the lower-order model's up to
        the order gap.  The cache keeps a prefix, so a query is a ``"hit"``
        when every offset it needs is already cached on that model object.
        Otherwise it is a ``"fresh"`` miss on a model no other query uses, or a
        ``"miss"``.  Queries that do not consult the cache get None.
        """
        orders = {name: m["n"] for name, m in batch["models"].items()}
        uses = {}
        for q in batch["queries"]:
            if q["op"] == "lift_once":
                orders[q["out"]] = orders[q["args"][0]] + 1
            for name in q["args"]:
                uses[name] = uses.get(name, 0) + 1
        cached, out = {}, []
        for q in batch["queries"]:
            if q["op"] == "transition_pair":
                model, need = q["args"][0], q["j"]
            elif q["op"] == "is_equivalent" and len({orders[a] for a in q["args"]}) == 2:
                model = min(q["args"], key=orders.get)
                need = abs(orders[q["args"][0]] - orders[q["args"][1]])
            else:
                out.append(None)
                continue
            if need <= cached.get(model, -1):
                out.append("hit")
            else:
                out.append("fresh" if uses[model] == 1 else "miss")
                cached[model] = need
        return out

    def prepare(self, index: int):
        # Fresh model objects each pass: the per-model transition cache
        # starts cold, so only the workload's own reuse can hit it.
        batch = self.batches[index % len(self.batches)]
        return {name: sysid_rls.IOModel.from_dict(m) for name, m in batch["models"].items()}

    def run_pass(self, index: int, prepared) -> Pass:
        batch_index = index % len(self.batches)
        batch = self.batches[batch_index]
        objects = prepared
        outputs = []
        result = Pass()
        result.start = time.perf_counter()
        for q in batch["queries"]:
            args = [objects[a] for a in q["args"]]
            t0 = time.perf_counter()
            try:
                if q["op"] == "lift_once":
                    out = sysid_rls.lift_once(args[0], np.asarray(q["D"]))
                    objects[q["out"]] = out
                elif q["op"] == "is_equivalent":
                    out = sysid_rls.is_equivalent(*args)
                elif q["op"] == "reducibility_check":
                    out = sysid_rls.reducibility_check(args[0])
                else:
                    out = sysid_rls.transition_pair(args[0], q["j"])
            except Exception as exc:  # a raising query is a failed operation
                out = exc
            result.latencies.append(time.perf_counter() - t0)
            outputs.append(out)
        result.end = time.perf_counter()
        result.wall = result.end - result.start
        result.pending = (batch_index, objects, outputs)
        return result

    def check(self, result: Pass) -> None:
        batch_index, objects, outputs = result.pending
        batch = self.batches[batch_index]
        models = batch["models"]
        use = self.cache_use(batch)
        result.extras = {"batch": batch_index,
                         "hit_share": use.count("hit") / len(use),
                         "transition_use": [u if q["op"] == "transition_pair" else None
                                            for q, u in zip(batch["queries"], use)]}
        first_pair = {}
        verdicts = []
        for qi, (q, out) in enumerate(zip(batch["queries"], outputs)):
            where = f"batch {batch_index} query {qi} ({q['op']})"
            if isinstance(out, Exception):
                result.failures.append([qi, f"{where} raised {type(out).__name__}: {out}"])
                continue
            if q["op"] == "lift_once":
                expected = sysid_rls.IOModel.from_dict(models[q["expect"]])
                if not np.allclose(out.theta, expected.theta, rtol=0.0, atol=LIFT_TOL):
                    result.failures.append([qi, f"{where}: lifted coefficients differ"])
            elif q["op"] == "is_equivalent":
                verdicts.append(out.equivalent)
                if out.equivalent != q["expect"]:
                    result.failures.append([qi, f"{where}: verdict {out.equivalent}, "
                                                f"truth {q['expect']}"])
            elif q["op"] == "reducibility_check":
                got = out.irreducible_model.n
                verdicts.append(got)
                base = objects[q["base"]]
                if got == q["expect"]:
                    if not sysid_rls.is_equivalent(base, out.irreducible_model):
                        result.failures.append([qi, f"{where}: reduced model differs from the base"])
                elif got > q["expect"] and not out.proven and base.p > 1:
                    # The MIMO Newton search proves nothing when it finds no
                    # witness (``proven`` is False): a miss, not a wrong answer.
                    result.newton_misses += 1
                else:
                    result.failures.append([qi, f"{where}: order {got}, base order {q['expect']}"])
            else:
                key = (q["args"][0], q["j"])
                if key in first_pair:
                    prev = first_pair[key]
                    if not (np.array_equal(prev.Fj, out.Fj) and np.array_equal(prev.Gj, out.Gj)):
                        result.failures.append([qi, f"{where}: repeated query changed its answer"])
                    continue
                first_pair[key] = out
                m = models[q["args"][0]]
                F = [np.asarray(f, dtype=float) for f in m["F"]]
                G = [np.asarray(g, dtype=float) for g in m["G"]]
                rng = np.random.default_rng([batch_index, qi])
                Y, U, y = gen.transition_probe(rng, F, G, q["j"])
                err = float(np.max(np.abs(-out.Fj @ Y + out.Gj @ U - y)))
                if not err <= TRANSITION_TOL * (1.0 + float(np.max(np.abs(y)))):
                    result.failures.append([qi, f"{where}: transition misses simulation by {err:.3e}"])
        result.digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()


WORKLOADS = {"experiment-siso": ExperimentSiso, "fit-excite-mimo": FitExciteMimo,
             "algebra-queries": AlgebraQueries}

# Work units per call for the per-layer rates: steps, rows or bytes.
TRACE_WORK = {
    "model_core.simulate": lambda a, k, r: len(r),
    "rls.regressor_matrix": lambda a, k, r: r[0].shape[0],
    "fileio.load_trajectory": lambda a, k, r: len(r),
    "fileio.write_csv": lambda a, k, r: os.path.getsize(a[0] if a else k["path"]),
}


def _checked(workload, result: Pass) -> dict:
    workload.check(result)
    result.pending = None
    return vars(result)


def run_body(workload, seconds: float, trace: bool) -> dict:
    """Closed loop: the next pass starts when the previous one returns.

    Output checks run between passes, outside the timed and traced spans.
    The peak resident set is read as each untraced pass returns, before its
    check runs; the body reports the last reading and the first one, which
    no check can have raised.  Untraced runs sample the machine's speed during
    the passes; each pass gets ``probe_s`` (mean probe time inside it) and
    ``probe_total_s`` (the probes' share of its wall time).
    """
    passes, traced, closure = [], [], []
    tracer = Tracer(work=TRACE_WORK) if trace else None
    sampler = SpeedSampler()
    with contextlib.nullcontext() if trace else sampler:
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            result = workload.run_pass(index, workload.prepare(index))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if index == 0:
                first_peak_rss_mb = peak_rss_mb
            passes.append(_checked(workload, result))
            if trace:
                layer_self_before = sum(v[1] for v in tracer.layer_totals().values())
                prepared = workload.prepare(index)
                tracer.install()
                try:
                    t0 = time.perf_counter()
                    tracer.begin()
                    result = workload.run_pass(index, prepared)
                    _root, harness = tracer.end()
                    wall = time.perf_counter() - t0
                finally:
                    tracer.uninstall()
                layer_self = sum(v[1] for v in tracer.layer_totals().values()) - layer_self_before
                closure.append({"wall": wall, "layer_self": layer_self, "harness_self": harness})
                traced.append(_checked(workload, result))
            index += 1
    if not trace:
        for p in passes:
            p["probe_s"], p["probe_total_s"] = sampler.during(p["start"], p["end"])
    body = {"passes": passes, "traced": traced, "peak_rss_mb": peak_rss_mb,
            "first_pass_peak_rss_mb": first_peak_rss_mb}
    if trace:
        body["trace"] = {"stats": tracer.stats, "layers": tracer.layer_totals(),
                         "closure": closure}
    return body


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload = WORKLOADS[spec["workload"]](spec)
    ready = time.monotonic()
    out = {"ready": ready, "ready_probe_s": probe_now()}
    if not spec.get("setup_only"):
        out.update(run_body(workload, spec["seconds"], bool(spec["trace"])))
        out["package_file"] = sysid_rls.__file__
        out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": __import__("scipy").__version__}
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
