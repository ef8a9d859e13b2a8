"""Experiment configuration, orchestration, and run manifests.

An experiment fits one true model at several orders on shared input data and
emits one trace CSV and one summary JSON per order, plus a manifest tying
the outputs to the configuration.  Reruns of the same configuration are
byte-identical; the manifest hash covers the configuration, seeds, and
output-file digests (wall-clock time is recorded but excluded).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .convergence import run_tracked_identification, write_convergence_trace
from .errors import ValidationError
from .fileio import (
    canonical_json,
    check_theta0_shape,
    load_model,
    load_theta0,
    read_json,
    sha256_file,
    sha256_text,
    write_json,
)
from .inputs import InputSpec, _parse_int, _parse_number, generate_input, spec_from_dict
from .model_core import IOModel
from .rls import DEFAULT_P0_SCALE, regressor_dim
from .workers import fork_tail, worker_count

_ALLOWED_KEYS = {"true_model", "fit_orders", "input", "horizon", "theta0",
                 "p0_scale", "out_dir"}


@dataclass(frozen=True)
class ExperimentConfig:
    true_model: IOModel
    fit_orders: tuple
    input: InputSpec
    horizon: int
    theta0: str = "zeros"
    p0_scale: float = DEFAULT_P0_SCALE
    out_dir: str | None = None
    # directory relative file paths in the config are taken from; not hashed
    base_dir: Path | None = None

    def to_dict(self) -> dict:
        return {
            "true_model": self.true_model.to_dict(),
            "fit_orders": list(self.fit_orders),
            "input": self.input.to_dict(),
            "horizon": self.horizon,
            "theta0": self.theta0,
            "p0_scale": self.p0_scale,
        }

    @property
    def config_hash(self) -> str:
        return sha256_text(canonical_json(self.to_dict()))


def config_from_dict(d: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Validate a raw config mapping; unknown keys are rejected with the
    offending field path in the message."""
    if not isinstance(d, dict):
        raise ValidationError("config: expected a JSON object")
    unknown = set(d) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"config: unknown keys {sorted(unknown)}")
    for key in ("true_model", "fit_orders", "horizon"):
        if key not in d:
            raise ValidationError(f"config.{key}: required")

    tm = d["true_model"]
    if isinstance(tm, str):
        model = load_model(Path(base_dir or "") / tm)
    elif isinstance(tm, dict):
        model = IOModel.from_dict(tm)
    else:
        raise ValidationError("config.true_model: expected a path or an inline model object")

    orders = d["fit_orders"]
    if not isinstance(orders, list) or not orders:
        raise ValidationError("config.fit_orders: must be a nonempty list")
    first = {}  # order -> its first index
    for i, o in enumerate(orders):
        if _parse_int(f"config.fit_orders[{i}]", o) < 0:
            raise ValidationError(f"config.fit_orders[{i}]: must be a non-negative integer")
        if o < model.n:
            raise ValidationError(
                f"config.fit_orders[{i}]: order {o} is below the true order {model.n}"
            )
        if o in first:  # both would write the same files
            raise ValidationError(
                f"config.fit_orders[{i}]: order {o} repeats config.fit_orders[{first[o]}]"
            )
        first[o] = i

    horizon = _parse_int("config.horizon", d["horizon"])
    if horizon <= max(orders):
        raise ValidationError("config.horizon: must be an integer above every fit order")

    spec = spec_from_dict(d.get("input", {"kind": "white"}), where="config.input")

    theta0 = d.get("theta0", "zeros")
    if not isinstance(theta0, str):
        raise ValidationError("config.theta0: expected 'zeros' or a JSON file path")

    p0_scale = _parse_number("config.p0_scale", d.get("p0_scale", DEFAULT_P0_SCALE), float)
    if not 0.0 < p0_scale < float("inf"):
        raise ValidationError("config.p0_scale: must be positive and finite")

    out_dir = d.get("out_dir")
    if "out_dir" in d:
        if not isinstance(out_dir, str) or not out_dir:
            raise ValidationError("config.out_dir: expected a nonempty directory path")
        # from the config's directory, as true_model, theta0 and input.path are
        out_dir = str(Path(base_dir or "") / out_dir)
    return ExperimentConfig(
        true_model=model, fit_orders=tuple(orders), input=spec, horizon=horizon,
        theta0=theta0, p0_scale=p0_scale, out_dir=out_dir, base_dir=base_dir,
    )


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config"), base_dir=Path(path).parent)


@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    tool_version: str
    runs: tuple
    wall_clock_s: float
    manifest_hash: str

    def to_dict(self) -> dict:
        return asdict(self)


def run_experiment(config: ExperimentConfig, out_dir) -> RunManifest:
    """Fit every configured order on shared input data and write artifacts.

    All orders see the same physical input sequence: one stream of length
    ``horizon + max(fit_orders)`` is generated and each order consumes the
    suffix covering its own pre-history.  A failure in one order is recorded
    in the manifest and does not disturb the other orders' outputs.

    The orders run concurrently on up to ``min(CPUs in the affinity set,
    orders)`` processes: this one and workers forked after the input is
    generated (:func:`~sysid_rls.workers.fork_tail`), the orders dealt
    round-robin, this process keeping the first share.  Each process holds
    one order's arrays at a time.  A share without a reply (its worker
    could not be forked, or died first) runs here once every worker is
    stopped, so every output and the manifest hash are byte-identical to a
    one-CPU run and a dead worker costs time only; ``wall_clock_s`` is this
    process's wall time.  No worker outlives the call, however it ends.  An
    exception inside an order is still that order's ``error:`` entry, but a
    signal that kills a worker is not.

    A ``theta0`` file is read once, before the input is generated, so one
    that cannot be read fails the call before any work; its shape is checked
    per order, so a shape that fits one order fails only the others.
    """
    start = time.monotonic()
    theta0 = load_theta0(config.theta0, config.true_model.p, None, base_dir=config.base_dir)
    spec = config.input
    if spec.kind == "file":  # from the config's directory, as true_model and theta0 are
        spec = replace(spec, path=str(Path(config.base_dir or "") / spec.path))
    # before the output directory exists, so an input that cannot be made
    # leaves no empty directory behind
    u_full = generate_input(spec, config.horizon + max(config.fit_orders), config.true_model.m)
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # a NUL, or a character the file system cannot encode
        raise ValidationError(f"output directory {str(out_dir)!r}: {exc}") from exc

    def run(share):
        return [_run_order(config, u_full, theta0, out_dir, order) for order in share]

    def send(share):
        return json.dumps(run(share)).encode()

    workers = worker_count(len(config.fit_orders))
    shares = [config.fit_orders[i::workers] for i in range(workers)]
    head, replies = fork_tail(functools.partial(run, shares[0]),
                              *(functools.partial(send, share) for share in shares[1:]))
    entries = dict(zip(shares[0], head))
    for share, reply in zip(shares[1:], replies):
        entries.update(zip(share, run(share) if reply is None else json.loads(reply)))
    runs = [entries[order] for order in config.fit_orders]

    wall = time.monotonic() - start
    hash_basis = canonical_json({
        "config_hash": config.config_hash,
        "runs": runs,
        "tool_version": __version__,
    })
    manifest = RunManifest(
        config_hash=config.config_hash, tool_version=__version__,
        runs=tuple(runs), wall_clock_s=wall,
        manifest_hash=sha256_text(hash_basis),
    )
    write_json(out_dir / "manifest.json", manifest.to_dict())
    return manifest


def _run_order(config: ExperimentConfig, u_full, theta0, out_dir: Path, order: int) -> dict:
    """Fit one order from ``theta0`` (None for zeros), write its trace and
    summary, and return its manifest entry; an exception becomes the entry's
    ``error:`` status."""
    model = config.true_model
    entry = {"fit_order": order, "seed": config.input.seed, "status": "ok", "outputs": {}}
    try:
        check_theta0_shape(theta0, Path(config.base_dir or "") / config.theta0, model.p,
                           regressor_dim(order, model.p, model.m))
        trace = run_tracked_identification(
            model, order, u_full[max(config.fit_orders) - order:], config.horizon,
            theta0=theta0, p0_scale=config.p0_scale,
        )
        trace_path = out_dir / f"trace_order{order}.csv"
        write_convergence_trace(trace_path, trace)
        summary = trace.summary_dict()
        summary["seed"] = config.input.seed
        summary["config_hash"] = config.config_hash
        summary_path = out_dir / f"summary_order{order}.json"
        write_json(summary_path, summary)
        entry["outputs"] = {
            "trace": trace_path.name,
            "trace_sha256": sha256_file(trace_path),
            "summary": summary_path.name,
            "summary_sha256": sha256_file(summary_path),
        }
    except Exception as exc:  # crash isolation across orders
        entry["status"] = f"error: {exc}"
    return entry

