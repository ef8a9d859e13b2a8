"""File formats: JSON files, trajectory CSV, canonical hashing.

Every JSON file is read by :func:`read_json` and written by
:func:`write_json`; a trajectory CSV is read by :func:`load_trajectory`, and
every CSV the package writes goes through :func:`write_csv_groups`, which
takes its rows as a stream of column groups (:func:`write_csv` is its
one-group case).  Numbers in CSV files use Python's shortest round-trip
decimal representation so reruns with identical seeds produce byte-identical
files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model_core import IOModel, Trajectory


def read_json(path, what: str):
    """The decoded contents of the UTF-8 JSON file at ``path``.

    A missing file, text that is not UTF-8, text that is not JSON, nesting
    too deep to decode and an integer over the interpreter's digit limit are
    each a :class:`ValidationError` naming the file; ``what`` says which
    file it is (``"model"``, ``"config"``, ...).
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{what} file {path} does not exist")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def save_model(model: IOModel, path) -> None:
    write_json(path, model.to_dict())


def load_model(path) -> IOModel:
    data = read_json(path, "model")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return IOModel.from_dict(data)


def load_theta0(value: str, p: int, d: int, base_dir=None) -> np.ndarray | None:
    """Initial coefficients from ``"zeros"`` (None: the RLS default) or from a
    JSON file holding a (p, d) matrix.

    A relative path is taken from ``base_dir`` when one is given (the
    directory of the config that names it), else from the working directory.
    """
    if value == "zeros":
        return None
    path = Path(base_dir or "") / value
    data = read_json(path, "theta0")
    try:
        theta = np.asarray(data, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"theta0 file {path}: {exc}") from exc
    if theta.shape != (p, d):
        raise ValidationError(f"theta0 file {path}: shape {theta.shape}, expected {(p, d)}")
    if not np.all(np.isfinite(theta)):
        raise ValidationError(f"theta0 file {path}: entries must be finite")
    return theta


def save_trajectory(traj: Trajectory, path) -> None:
    """CSV with header ``k,u_1..u_m,y_1..y_p``, one row per time step.

    A missing input (NaN, before the record's first input) is written as
    ``nan``, which :func:`load_trajectory` reads back as missing.
    """
    header = ["k"] + [f"u_{i + 1}" for i in range(traj.m)] + [f"y_{i + 1}" for i in range(traj.p)]
    write_csv(path, header, [np.arange(traj.k0, traj.k0 + len(traj)), traj.u, traj.y])


def _input_cell(cell: str) -> float:
    """An input cell's value; an empty cell is a missing input (NaN)."""
    return float(cell) if cell.strip() != "" else float("nan")


def _read_table(fh, m: int, p: int):
    """The data rows left in ``fh`` in one ``np.loadtxt`` call, or None when
    a row does not parse or there is none."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: None below
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                               dtype=[("k", np.int64), ("u", float, (m,)), ("y", float, (p,))],
                               converters={c: _input_cell for c in range(1, 1 + m)})
    except ValueError:
        return None
    return table if len(table) else None


def _parse_rows(path: Path, width: int, m: int):
    """The data rows cell by cell, naming the file and line of the first bad
    one."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
            rows = [(reader.line_num, r) for r in reader if r]
        except csv.Error as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    ks, us, ys = [], [], []
    for lineno, row in rows:
        if len(row) != width:
            raise ValidationError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
        try:
            ks.append(int(row[0]))
            us.append([_input_cell(c) for c in row[1:1 + m]])
            ys.append([float(c) for c in row[1 + m:]])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return ks, np.asarray(us), np.asarray(ys)


def load_trajectory(path) -> Trajectory:
    """Read a CSV written by :func:`save_trajectory`.

    The data rows are parsed in one ``np.loadtxt`` pass over the file; when
    that fails they are parsed again row by row, so the error names the bad
    line.  A line the ``csv`` module refuses (a cell over its field size
    limit) is a :class:`ValidationError` naming it too.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"trajectory file {path} does not exist")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValidationError(f"{path}: empty file") from None
            except csv.Error as exc:
                raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
            if not header or header[0] != "k":
                raise ValidationError(f"{path}: first column must be 'k'")
            m = sum(1 for h in header if h.startswith("u_"))
            p = sum(1 for h in header if h.startswith("y_"))
            if m == 0 or p == 0 or len(header) != 1 + m + p:
                raise ValidationError(f"{path}: header must be k,u_1..u_m,y_1..y_p")
            table = _read_table(fh, m, p)
        if table is None:
            ks, us, ys = _parse_rows(path, len(header), m)
        else:
            ks, us, ys = table["k"].tolist(), table["u"], table["y"]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    k0 = ks[0]
    if ks != list(range(k0, k0 + len(ks))):
        raise ValidationError(f"{path}: k column must be consecutive integers")
    return Trajectory(k0=k0, u=us, y=ys)


# Rows formatted and written per block by write_csv: enough that the per-block
# numpy and join calls cost little per row, few enough that one block's
# strings stay far below a megabyte (a 2e4-row trace peaks 0.4 MB above a
# row-at-a-time writer at 1024 rows, 1.8 MB at 2048).
CSV_CHUNK_ROWS = 1024


def _format_block(block: np.ndarray) -> list[str]:
    """Cell text of a (rows, width) block, one comma-joined string per row.

    Integer columns go through ``str``, everything else through ``repr`` of a
    Python float, the shortest string that round-trips to the same float.
    """
    fmt = str if block.dtype.kind in "iu" else repr
    if block.shape[1] == 1:
        return list(map(fmt, block[:, 0].tolist()))
    return [",".join(map(fmt, row)) for row in block.tolist()]


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows under ``header``: one group of
    :func:`write_csv_groups`."""
    write_csv_groups(path, header, [columns])


def write_csv_groups(path, header: list[str], groups) -> None:
    """Write CSV rows under ``header`` from an iterable of column groups, each
    group's rows after the previous group's.

    A group is a list of equal-length columns, each a 1-D array (one cell per
    row) or a 2-D block whose row gives that many adjacent cells.  Integer
    arrays are written with ``str``, float arrays with ``repr`` of a Python
    float, so the bytes match ``csv.writer`` fed the same cells and do not
    depend on how the rows are split into groups.  Groups are taken one at
    a time, as they are written, and each is formatted and written in blocks
    of :data:`CSV_CHUNK_ROWS` rows, so a generator of groups keeps memory
    bounded by one group for any length.
    """
    with open(path, "w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for columns in groups:
            blocks = _column_blocks(columns)
            n_rows = blocks[0].shape[0] if blocks else 0
            for start in range(0, n_rows, CSV_CHUNK_ROWS):
                cells = [_format_block(b[start:start + CSV_CHUNK_ROWS]) for b in blocks]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _column_blocks(columns) -> list[np.ndarray]:
    """One group's non-empty columns as 2-D integer or float arrays of one
    length; any other shape is a validation error."""
    blocks = []
    for col in columns:
        arr = np.asarray(col)
        if arr.dtype.kind not in "iu":
            arr = arr.astype(float, copy=False)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValidationError(f"CSV column has {arr.ndim} dimensions, expected 1 or 2")
        if arr.shape[1]:
            blocks.append(arr)
    rows = {b.shape[0] for b in blocks}
    if len(rows) > 1:
        raise ValidationError(f"CSV columns have different lengths {sorted(rows)}")
    return blocks


def write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinite number is an error, not a bare literal."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
