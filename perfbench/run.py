"""Benchmark of the sysid-rls package: one workload, one seed, one run.

    python3 perfbench/run.py --workload experiment-siso --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a checkout of the repository; the program is
imported from its ``src`` directory.  The run generates the workload's inputs
from the seed (excluded from every metric), times set-up in fresh processes,
runs the workload in a fresh process in a closed loop with one client for
``--seconds`` seconds, checks every output, and prints each metric by name
and unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 0 only when every output check passed.

Seeds: 1 is the default; 97 is held out, to confirm a claimed gain on a seed
that was not used while the change was written.  Working files go to
``.bench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
from calibration import probe_now, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("experiment-siso", "fit-excite-mimo", "algebra-queries")
DEFAULT_SEED = 1
SETUP_PROBES = 4
TIME_LIMIT_S = 170.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The run could not produce a result."""


def _child(spec: dict, work: Path, name: str, deadline: float) -> tuple[dict, float, float]:
    """Run child.py in a fresh process; returns its result, its set-up time and
    the mean of speed probes taken just before the spawn and just after set-up."""
    spec_path, result_path = work / f"{name}.spec.json", work / f"{name}.result.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    probe_s = probe_now()
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                               str(result_path)], env=env, cwd=ROOT, timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} process exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text())
    return result, result["ready"] - spawned, (probe_s + result["ready_probe_s"]) / 2


def _tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n <= 10:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _transition_latencies(passes: list[dict]) -> dict[str, list[float]]:
    """``transition_pair`` latencies by how the query met the transition cache."""
    out = {"fresh": [], "miss": [], "hit": []}
    for p in passes:
        for seconds, use in zip(p["latencies"], p["extras"].get("transition_use", [])):
            if use:
                out[use].append(seconds)
    return out


def _median_us(values: list[float]) -> float:
    return statistics.median(values) * 1e6 if values else 0.0


def _provenance(args, expect: dict, versions: dict, csv_bytes: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], timeout=10,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "sysid_rls").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    caches = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True, timeout=10)
            caches[level] = int(out.stdout.strip()) if out.stdout.strip().isdigit() else None
        except (OSError, subprocess.TimeoutExpired):
            caches[level] = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        **versions,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "l2_cache_bytes": caches["LEVEL2_CACHE_SIZE"],
        "l3_cache_bytes": caches["LEVEL3_CACHE_SIZE"],
        "workload": args.workload,
        "seed": args.seed,
        "horizon": expect.get("horizon"),
        "phi_bytes": expect["phi_bytes"],
        "input_bytes": expect.get("input_csv_bytes", expect.get("input_json_bytes", 0)),
        "output_csv_bytes": csv_bytes,
    }


def _count_failures(passes: list[dict], traced: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations; a digest that differs between
    repetitions of the same input fails the pass's first operation."""
    attempted, failed, notes = 0, 0, []
    reference = {}
    for p in passes:
        if not p["failures"]:
            reference.setdefault(p["extras"].get("batch", 0), p["digest"])
    for kind, group in (("untraced", passes), ("traced", traced)):
        for i, p in enumerate(group):
            attempted += len(p["latencies"])
            bad = {op for op, _ in p["failures"]}
            notes += [msg for _, msg in p["failures"]]
            key = p["extras"].get("batch", 0)
            if not p["failures"] and p["digest"] != reference.get(key, p["digest"]):
                bad.add(0)
                notes.append(f"{kind} pass {i}: output digest differs from the first pass")
            failed += len(bad)
    return attempted, failed, notes


def _per_layer(body: dict, passes: list[dict], notes: list[str]) -> dict:
    traced = body["traced"]
    n = len(traced)
    stats = body["trace"]["stats"]

    def stat(name):
        return stats.get(name, [0, 0.0, 0.0, 0, 0.0])

    def per_call(name, scale=1e6):
        calls, total = stat(name)[0], stat(name)[1]
        return total / calls * scale if calls else 0.0

    def per_work(name, scale=1e6):
        total, work = stat(name)[1], stat(name)[4]
        return total / work * scale if work else 0.0

    def rate(name, scale=1.0):
        total, work = stat(name)[1], stat(name)[4]
        return work / total / scale if total else 0.0

    out = {}
    for layer, (calls, self_s, errors) in body["trace"]["layers"].items():
        out[f"{layer}.calls"] = (calls / n, "count")
        out[f"{layer}.self_s"] = (self_s / n, "s")
        out[f"{layer}.errors"] = (errors / n, "count")
    closure = body["trace"]["closure"]
    out["harness.self_s"] = (sum(c["harness_self"] for c in closure) / n, "s")
    out["rls.rls_step.calls"] = (stat("rls.rls_step")[0] / n, "count")
    out["rls.rls_step.us_per_call"] = (per_call("rls.rls_step"), "us")
    out["model_core.simulate.calls"] = (stat("model_core.simulate")[0] / n, "count")
    out["model_core.simulate.us_per_step"] = (per_work("model_core.simulate"), "us")
    out["rls.regressor_matrix.us_per_row"] = (per_work("rls.regressor_matrix"), "us")
    out["fileio.load_trajectory.s"] = (stat("fileio.load_trajectory")[1] / n, "s")
    out["fileio.load_trajectory.rows_per_s"] = (rate("fileio.load_trajectory"), "1/s")
    out["fileio.write_csv.s"] = (stat("fileio.write_csv")[1] / n, "s")
    out["fileio.write_csv.mb_per_s"] = (rate("fileio.write_csv", 1e6), "MB/s")
    for name in ("fileio.sha256_file", "inputs.generate_input",
                 "excitation.estimate_gram_limit", "convergence.projected_limit"):
        out[f"{name}.s"] = (stat(name)[1] / n, "s")
    out["equivalence.is_equivalent.us_per_call"] = (per_call("equivalence.is_equivalent"), "us")
    out["equivalence.reducibility_check.us_per_call"] = (
        per_call("equivalence.reducibility_check"), "us")
    out["equivalence.build_lift_matrix.calls"] = (stat("equivalence.build_lift_matrix")[0] / n,
                                                  "count")
    out["model_core.transition_pair.calls"] = (stat("model_core.transition_pair")[0] / n, "count")
    shares = [p["extras"].get("hit_share", 0.0) for p in traced]
    out["model_core.repeat_query_share"] = (sum(shares) / n, "fraction")
    # From the untraced passes: a span per call would inflate these sub-ms calls.
    tp = _transition_latencies(passes)
    out["model_core.transition_pair.fresh_us"] = (_median_us(tp["fresh"]), "us")
    out["model_core.transition_pair.hit_us"] = (_median_us(tp["hit"]), "us")
    # Each traced pass runs right after an untraced pass on the same input.
    ratios = [t["wall"] / u["wall"] for u, t in zip(passes, traced)]
    out["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "fraction")
    for i, c in enumerate(closure):
        gap = abs(c["layer_self"] + c["harness_self"] - c["wall"])
        if gap > 1e-3 * c["wall"] + 1e-4:
            notes.append(f"traced pass {i}: self times miss the pass wall time by {gap:.3e} s")
    return out


def run(args) -> int:
    if not (SRC / "sysid_rls" / "__init__.py").is_file():
        raise BenchError(f"the program is missing: no package at {SRC / 'sysid_rls'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = work / "inputs", work / "outputs"
    outputs.mkdir(parents=True)
    expect = gen.generate(args.workload, args.seed, inputs)
    spec = dict(expect, workload=args.workload, inputs=str(inputs), outputs=str(outputs),
                seconds=args.seconds, trace=args.trace)

    setups = []  # (set-up seconds, speed probe seconds)
    if not args.trace:
        for i in range(SETUP_PROBES):
            setups.append(_child(dict(spec, setup_only=True), work, f"probe{i}", deadline)[1:])
    body, *setup = _child(spec, work, "body", deadline)
    setups.append(tuple(setup))
    if not body["package_file"].startswith(str(SRC)):
        raise BenchError(f"imported {body['package_file']}, not the checkout's package")

    passes, traced = body["passes"], body["traced"]
    attempted, failed, notes = _count_failures(passes, traced)
    walls = [p["wall"] for p in passes]
    lines = [f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
             f"traced passes {len(traced)}"]
    if args.trace:
        metrics = _per_layer(body, passes, notes)
    else:
        scaled = [scale(p["wall"] - p["probe_total_s"], p["probe_s"]) for p in passes]
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "setup_s": (statistics.median(scale(s, p) for s, p in setups), "s"),
            "work_per_s": (expect["work_per_pass"] * len(scaled) / sum(scaled), "1/s"),
            "peak_rss_mb": (body["peak_rss_mb"], "MB"),
        }
    # Figures that some workloads lack or that are zero: printed and kept in
    # the results file, but not in the last line.
    extra = {"fail_frac": (failed / attempted, "fraction"),
             "first_pass_peak_rss_mb": (body["first_pass_peak_rss_mb"], "MB"),
             "wall_unscaled_s": (statistics.median(walls), "s")}
    if not args.trace:
        extra["speed_probe_s"] = (statistics.median(p["probe_s"] for p in passes), "s")
    latencies = [t for p in passes for t in p["latencies"]]
    if args.workload == "algebra-queries":
        tail = _tail(latencies)
        extra["op_p50_us"] = (statistics.median(latencies) * 1e6, "us")
        if tail:
            extra["op_tail_us"] = (tail[1] * 1e6, f"us@p{tail[0]:.2f}")
        extra["op_samples"] = (len(latencies), "count")
        for use, values in _transition_latencies(passes).items():
            extra[f"tp_{use}_p50_us"] = (_median_us(values), "us")
        extra["newton_misses"] = (sum(p["newton_misses"] for p in passes + traced), "count")
    if args.workload == "experiment-siso" and passes[0]["extras"]:
        extra["final_ref_dist"] = (max(p["extras"]["final_ref_dist"] for p in passes), "1")
        extra["asymptote_rel_err"] = (max(p["extras"]["asymptote_rel_err"] for p in passes), "1")
    csv_bytes = max((p["extras"].get("csv_bytes", 0) for p in passes), default=0)
    provenance = _provenance(args, expect, body["versions"], csv_bytes)

    for name, (value, unit) in {**metrics, **extra}.items():
        lines.append(f"  {name:<44} {value!r:>24} {unit}")
    lines += [f"  check failed: {msg}" for msg in notes[:20]]
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    correct = failed == 0 and not notes
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(
        {**final, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
         "setups": setups, "walls": walls, "provenance": provenance, "notes": notes},
        indent=1, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(final))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            status = max(status, run(argparse.Namespace(**dict(vars(args), workload=workload))))
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
