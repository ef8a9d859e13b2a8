"""Command-line interface.

One program, installed under both the ``sysid-rls`` and ``modelcheck``
names, with subcommands ``fit``, ``excite``, ``equiv``, ``reduce``,
``converge``, and ``experiment``.  Exit codes: 0 success, 2 validation
error or a file that cannot be read or written, 3 numerical failure or an
array that cannot be allocated.  An output path of ``fit``, ``excite`` or
``converge`` that the operating system will refuse exits 2 before any work.
``reduce`` runs the one reduction search of :mod:`sysid_rls.equivalence` and
says "irreducible" only when that is proven, "no witness found" otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .convergence import check_tracked_run, run_tracked_identification, write_convergence_trace
from .equivalence import is_equivalent, reduce_once, reducibility_check
from .errors import NumericalError, ValidationError
from .excitation import estimate_gram_limit, partial_gram_min_eigs
from .experiment import load_config, run_experiment
from .fileio import (
    check_writable,
    load_model,
    load_theta0,
    load_trajectory,
    save_model,
    write_csv,
    write_csv_groups,
    write_json,
)
from .inputs import generate_input, parse_input_spec
from .rls import (
    DEFAULT_P0_SCALE,
    TRACE_CHUNK_ROWS,
    initial_state,
    regressor_dim,
    regressor_matrix,
    rls_fold,
    valid_regressor_indices,
)
from .workers import fork_worker, stop, worker_count


def _nonneg_int(text: str) -> int:
    """argparse type of orders and horizons."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _finite_float(text: str, positive: bool) -> float:
    """argparse type of the prior covariance scale (``positive``) and of
    ``--tol`` (non-negative); a NaN fails every comparison."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not ((0.0 < value if positive else 0.0 <= value) and value < math.inf):
        kind = "positive" if positive else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} finite number, got {text!r}")
    return value


_positive_float = functools.partial(_finite_float, positive=True)
_tolerance = functools.partial(_finite_float, positive=False)


def cmd_fit(args) -> int:
    """Fold the record once from the prior and print the final estimate.

    With ``--emit-trace`` the history fold runs one
    :data:`~sysid_rls.rls.TRACE_CHUNK_ROWS` chunk at a time, spilled to an
    anonymous temporary file (:func:`_fold_to_spill`), and memory holds one
    chunk.  The trace opens only once the final estimate, the default
    reference, is known, so a breakdown exits before any trace file exists.
    On one CPU the final estimate is the history fold's, and the trace is
    written after it (:func:`_spill_fold`).  With two CPUs or more a forked
    worker runs the history fold while this process folds the record without
    history for the final estimate, then writes each chunk's rows as soon as
    the worker has spilled them; the bytes are the same either way."""
    if args.emit_trace:
        check_writable(args.emit_trace)
    traj = load_trajectory(args.data)
    order = args.order
    ks = valid_regressor_indices(traj, order)
    skipped = len(traj) - len(ks)
    if skipped:
        print(f"starting at k={ks[0]}: {skipped} samples lack a complete window")
    Phi, Y, ks = regressor_matrix(traj, order, ks)
    p, m = traj.p, traj.m
    d = Phi.shape[1]
    state = initial_state(order, p, m,
                          theta0=load_theta0(args.theta0, p, d),
                          p0_scale=args.p0_scale)
    ref = None
    if args.ref_model:
        ref_model = load_model(args.ref_model)
        if ref_model.n != order or (ref_model.p, ref_model.m) != (p, m):
            raise ValidationError("reference model does not match the fit order/dimensions")
        ref = ref_model.theta

    if args.emit_trace:
        with tempfile.TemporaryFile() as spill, \
                _spill_fold(state, Phi, Y, spill) as (final, ready):
            target = (ref if ref is not None else final.theta).ravel()
            header = ["k"] + [f"theta_{i}" for i in range(p * d)]
            header += ["frob_err_to_ref", "residual_norm", "pmin_eig"]
            write_csv_groups(args.emit_trace, header, _spilled_groups(spill, ks, target, ready))
        print(f"trace written to {args.emit_trace}")
    else:
        final, _ = rls_fold(state, Phi, Y)
    print(f"final estimate after {Phi.shape[0]} samples (order {order}):")
    with np.printoptions(precision=6, suppress=True):
        print(final.theta)
    return 0


def _fold_to_spill(state, Phi, Y, spill):
    """The final state of the fold of ``Phi``, ``Y`` from ``state``, run one
    :data:`~sysid_rls.rls.TRACE_CHUNK_ROWS` chunk at a time with its
    history; each chunk's ``theta`` rows, residual norms and ``pmin_eig`` are
    written to the binary file ``spill`` from its current offset as raw
    float64, K (p d + 2) values in all.  Chunks start at multiples of the
    fold's block, so the figures equal one whole-record fold's bit for bit,
    and a fold resumed at any chunk writes that chunk's bytes again."""
    for start in range(0, len(Phi), TRACE_CHUNK_ROWS):
        stop = start + TRACE_CHUNK_ROWS
        state, record = rls_fold(state, Phi[start:stop], Y[start:stop], keep_history=True)
        for column in (record.theta, record.residual_norm, record.pmin_eig):
            spill.write(column)
    return state


def _spill_worker(state, Phi, Y, spill, pipe):
    """A forked worker's run: :func:`_fold_to_spill` one chunk at a time,
    flushing ``spill`` and writing one byte to ``pipe`` after each."""
    for start in range(0, len(Phi), TRACE_CHUNK_ROWS):
        rows = slice(start, start + TRACE_CHUNK_ROWS)
        state = _fold_to_spill(state, Phi[rows], Y[rows], spill)
        spill.flush()
        pipe.write(b".")
        pipe.flush()


@contextlib.contextmanager
def _spill_fold(state, Phi, Y, spill):
    """Fold ``Phi``, ``Y`` from ``state`` into ``spill`` as
    :func:`_fold_to_spill` does; yields the final state and
    ``ready(start)``, which returns once the chunk from row ``start`` is in
    the spill.

    With one process (one CPU in the affinity set, or no fork to be had) the
    spill is whole before the yield.  Otherwise a forked worker folds it
    (:func:`_spill_worker`) while this process folds the record without
    history, whose final state is the same bit for bit; ``ready`` then waits
    for the worker's byte.  A worker that ends early (its pipe closes before
    a chunk's byte) leaves that chunk on to this process, which folds up to
    it without history and on from it into the spill.  The worker shares the
    spill's file offset, so readers take the spill with ``os.pread``.  The
    worker is stopped and reaped on leaving, however that happens.
    """
    worker = None
    if worker_count(2) > 1:
        worker = fork_worker(functools.partial(_spill_worker, state, Phi, Y, spill))
    if worker is None:
        final = _fold_to_spill(state, Phi, Y, spill)
        spill.flush()
        yield final, lambda start: None
        return
    pid, pipe = worker
    resumed = False

    def ready(start):
        nonlocal resumed
        if resumed or pipe.read(1):
            return
        head, _ = rls_fold(state, Phi[:start], Y[:start])
        spill.seek(8 * start * (state.theta.size + 2))
        _fold_to_spill(head, Phi[start:], Y[start:], spill)
        spill.flush()
        resumed = True

    try:
        final, _ = rls_fold(state, Phi, Y)
        yield final, ready
    finally:
        stop(pid, pipe)


def _spilled_groups(spill, ks, target, ready):
    """The ``fit`` trace's column groups, one chunk at a time, read from the
    ``spill`` :func:`_spill_fold` fills once ``ready`` says the chunk is
    there, with each row's distance to ``target`` (the flattened
    reference)."""
    width = target.size
    for start in range(0, len(ks), TRACE_CHUNK_ROWS):
        k = ks[start:start + TRACE_CHUNK_ROWS]
        n = len(k)
        ready(start)
        chunk = np.frombuffer(os.pread(spill.fileno(), 8 * n * (width + 2),
                                       8 * start * (width + 2)))
        thetas = chunk[:n * width].reshape(n, width)
        # vecdot takes per row the dot np.linalg.norm takes; a sum over
        # E * E would add in another order and change the trace's last bits
        E = thetas - target
        yield [k, thetas, np.sqrt(np.vecdot(E, E)), chunk[n * width:n * (width + 1)],
               chunk[n * (width + 1):]]


def cmd_excite(args) -> int:
    order, n = args.order, args.true_order
    if n is not None and n > order:
        raise ValidationError("--true-order must not exceed --order")
    if args.emit:
        check_writable(args.emit)
    traj = load_trajectory(args.data)
    Phi, _, ks = regressor_matrix(traj, order, valid_regressor_indices(traj, order))
    label = f"full regressor (order {order})"
    if n is not None:
        # the reduced regressor is the full block's trailing columns
        Phi = Phi[:, traj.p * (order - n):]
        label = f"reduced regressor (true order {n}, fit order {order})"
    limit = estimate_gram_limit(Phi)
    if args.emit:
        lmin = partial_gram_min_eigs(Phi)
        write_csv(args.emit, ["k", "lambda_min_partial", "lambda_min_avg"],
                  [ks, lmin, lmin / np.arange(1, len(ks) + 1)])
        print(f"excitation curve written to {args.emit}")
    print(f"{label}: {len(ks)} samples")
    print(f"  lambda_min of average Gram:     {limit.min_eig:.6e}")
    print(f"  weakly persistently exciting:   {'yes' if limit.weak_pe else 'no'} (heuristic)")
    print(f"  persistently exciting:          {'yes' if limit.pe else 'no'} (heuristic)")
    return 0


def cmd_equiv(args) -> int:
    a = load_model(args.model_a)
    b = load_model(args.model_b)
    cert = is_equivalent(a, b, tol=args.tol)
    verdict = "EQUIVALENT" if cert.equivalent else "NOT EQUIVALENT"
    print(f"{verdict} (orders {a.n} vs {b.n}, condition: {cert.condition})")
    print(f"relative residual {cert.residual:.3e} against tol {cert.tol:.1e}")
    return 0


def cmd_reduce(args) -> int:
    model = load_model(args.model)
    if args.once:
        step = reduce_once(model, tol=args.tol)
        if not step:
            note = ("irreducible" if step.proven
                    else f"no witness found (best residual {step.residual:.3e})")
            print(f"{note}; model kept at order {model.n}")
            return 0
        reduced, witnesses = step.reduced, [step.witness]
    else:
        report = reducibility_check(model, tol=args.tol)
        if not report.reducible:
            note = "irreducible" if report.proven else "no witness found"
            print(f"{note}; model kept at order {model.n}")
            return 0
        reduced, witnesses = report.irreducible_model, list(report.witnesses)
    out = Path(args.out) if args.out else Path(args.model).with_suffix("").with_name(
        Path(args.model).stem + "_reduced.json")
    save_model(reduced, out)
    witness_path = Path(args.witness_out) if args.witness_out else out.with_name(
        out.stem + "_witness.json")
    write_json(witness_path, {"witnesses_F1": [w.tolist() for w in witnesses]})
    print(f"reduced from order {model.n} to order {reduced.n}")
    print(f"reduced model written to {out}; witnesses to {witness_path}")
    return 0


def cmd_converge(args) -> int:
    for path in (args.emit, args.emit_summary):
        if path:
            check_writable(path)
    model = load_model(args.model)
    spec = parse_input_spec(args.input)
    check_tracked_run(model, args.fit_order, args.horizon)
    theta0 = load_theta0(args.theta0, model.p,
                         regressor_dim(args.fit_order, model.p, model.m))
    u = generate_input(spec, args.horizon + args.fit_order, model.m)
    trace = run_tracked_identification(model, args.fit_order, u, args.horizon,
                                       theta0=theta0, p0_scale=args.p0_scale)
    if args.emit:
        write_convergence_trace(args.emit, trace)
        print(f"trace written to {args.emit}")
    summary = trace.summary_dict()
    summary["seed"] = spec.seed
    if args.emit_summary:
        write_json(args.emit_summary, summary)
        print(f"summary written to {args.emit_summary}")
    print(f"fit order {trace.fit_order} vs true order {trace.true_order} "
          f"(reference: {trace.ref_kind})")
    print(f"  final distance to reference: {trace.final_dist:.6e}")
    print(f"  final residual norm:         {trace.final_residual:.6e}")
    print(f"  asymptote relative error:    {trace.asymptote_rel_error:.3e}")
    return 0


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    out_dir = args.out_dir or config.out_dir
    if not out_dir:
        raise ValidationError("no output directory: pass --out-dir or set out_dir in the config")
    manifest = run_experiment(config, out_dir)
    failures = [r for r in manifest.runs if r["status"] != "ok"]
    print(f"experiment complete: {len(manifest.runs) - len(failures)}/{len(manifest.runs)} "
          f"orders succeeded; manifest hash {manifest.manifest_hash[:16]}…")
    for r in failures:
        print(f"  order {r['fit_order']}: {r['status']}")
    return 0 if not failures else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sysid-rls",
        description="Simulation, equivalence, reduction, RLS identification, and "
                    "excitation diagnostics for discrete-time input/output models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="recursive least-squares fit on a trajectory CSV")
    p.add_argument("--data", required=True, help="trajectory CSV (k,u_1..,y_1..)")
    p.add_argument("--order", type=_nonneg_int, required=True, help="fit order")
    p.add_argument("--p0-scale", type=_positive_float, default=DEFAULT_P0_SCALE,
                   help="prior covariance scale")
    p.add_argument("--theta0", default="zeros",
                   help="'zeros' or a JSON file with the initial coefficient matrix")
    p.add_argument("--ref-model", default=None,
                   help="model JSON used as the trace reference (default: final estimate)")
    p.add_argument("--emit-trace", default=None, help="per-step trace CSV path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("excite", help="persistent-excitation diagnostics for a trajectory")
    p.add_argument("--data", required=True)
    p.add_argument("--order", type=_nonneg_int, required=True, help="regressor order")
    p.add_argument("--true-order", type=_nonneg_int, default=None,
                   help="diagnose the reduced regressor for this true order")
    p.add_argument("--emit", default=None, help="excitation curve CSV path")
    p.set_defaults(func=cmd_excite)

    p = sub.add_parser("equiv", help="decide equivalence of two model JSON files")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("reduce", help="search for an equivalent lower-order model")
    p.add_argument("model")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--once", action="store_true", help="only one reduction step")
    p.add_argument("--out", default=None, help="output model JSON path")
    p.add_argument("--witness-out", default=None, help="witness JSON path")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("converge", help="tracked identification run against a known model")
    p.add_argument("--model", required=True, help="true model JSON")
    p.add_argument("--fit-order", type=_nonneg_int, required=True)
    p.add_argument("--input", default="white:seed=0:scale=1.0",
                   help="input spec, e.g. white:seed=7:scale=1.0")
    p.add_argument("--horizon", type=_nonneg_int, required=True)
    p.add_argument("--p0-scale", type=_positive_float, default=DEFAULT_P0_SCALE)
    p.add_argument("--theta0", default="zeros")
    p.add_argument("--emit", default=None, help="trace CSV path")
    p.add_argument("--emit-summary", default=None, help="summary JSON path")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("experiment", help="run a multi-order experiment from a config")
    p.add_argument("config", help="experiment config JSON")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
