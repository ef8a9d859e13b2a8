"""File formats: JSON files, trajectory CSV, canonical hashing.

Every JSON file is read by :func:`read_json` and written by
:func:`write_json`.  A trajectory CSV is read by :func:`load_trajectory`:
one converter-free ``np.loadtxt`` over its lines (in two processes, a
half each, for a large file), each empty cell spelt ``nan``, and where that
fails a row-by-row parse that names the bad line.
Every CSV the package writes goes through :func:`write_csv_groups`, which
takes its rows as a stream of column groups (:func:`write_csv` is its
one-group case).  A number in a CSV file has the text ``repr`` gives a
float (the shortest round-trip decimal) or ``str`` an integer, so reruns
with identical seeds produce byte-identical files.  The writer finds those
digits for a whole block of cells at once with array arithmetic
(:func:`_float_cells`, :func:`_int_cells`) and gathers the bytes of each
step's rows (:func:`_format_rows`); ``repr`` / ``str`` write only the cells
whose digits it cannot certify.
"""

from __future__ import annotations

import csv
import errno
import functools
import hashlib
import io
import itertools
import json
import os
import stat
import warnings
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model_core import IOModel, Trajectory
from .workers import fork_tail


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


def load_theta0(value: str, p: int, d: int | None, base_dir=None) -> np.ndarray | None:
    """Initial coefficients from ``"zeros"`` (None: the RLS default) or from a
    JSON file holding a (p, d) matrix.

    A relative path is taken from ``base_dir`` when one is given (the
    directory of the config that names it), else from the working directory.
    With ``d`` None the shape is left to :func:`check_theta0_shape`:
    ``experiment`` reads the file once, before any work, for orders of
    several regressor widths.
    """
    if value == "zeros":
        return None
    path = Path(base_dir or "") / value
    data = read_json(path, "theta0")
    try:
        theta = np.asarray(data, dtype=float)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValidationError(f"theta0 file {path}: {exc}") from exc
    if d is not None:
        check_theta0_shape(theta, path, p, d)
    if not np.all(np.isfinite(theta)):
        raise ValidationError(f"theta0 file {path}: entries must be finite")
    return theta


def check_theta0_shape(theta: np.ndarray | None, path, p: int, d: int) -> None:
    """Raise unless ``theta``, read by :func:`load_theta0` from ``path``, is
    None or (p, d)."""
    if theta is not None and theta.shape != (p, d):
        raise ValidationError(f"theta0 file {path}: shape {theta.shape}, expected {(p, d)}")


def check_writable(path) -> None:
    """Raise the ``OSError`` that opening ``path`` for writing would raise,
    where that shows without creating the file: a missing parent directory,
    a file where a directory goes, or a directory where the file goes.
    Commands call this before their work, so a refused path fails at once.
    """
    try:
        parent = os.stat(os.path.dirname(path) or ".")
        code = (errno.ENOTDIR if not stat.S_ISDIR(parent.st_mode)
                else errno.EISDIR if os.path.isdir(path) else 0)
    except OSError as exc:  # the parent is missing, or a file on its way
        code = exc.errno
    if code:
        raise OSError(code, os.strerror(code), os.fspath(path))


def save_trajectory(traj: Trajectory, path) -> None:
    """CSV with header ``k,u_1..u_m,y_1..y_p``, one row per time step.

    A missing input (NaN, before the record's first input) is written as
    ``nan``, which :func:`load_trajectory` reads back as missing.
    """
    write_csv(path, _trajectory_header(traj.m, traj.p),
              [np.arange(traj.k0, traj.k0 + len(traj)), traj.u, traj.y])


def _trajectory_header(m: int, p: int) -> list[str]:
    return ["k"] + [f"u_{i + 1}" for i in range(m)] + [f"y_{i + 1}" for i in range(p)]


def _input_cell(cell: str) -> float:
    """An input cell's value; an empty cell is a missing input (NaN)."""
    return float(cell) if cell.strip() != "" else float("nan")


# bytes of a trajectory file from which the parse of its data rows is split
# between two processes (:func:`_read_table`): a fork's round trip, about
# 1.7 ms, costs less than parsing half of them at about 2.2 us per row
_SPLIT_BYTES = 1 << 17


def _read_table(fh, m: int, p: int, header_lines: int | None = None):
    """The ``k``, input and output columns of the data rows left in ``fh``,
    or None when a row does not parse, there is none, or an output is
    ``nan``.

    ``header_lines`` is the number of lines of the file before ``fh``'s
    position.  With it, a file of :data:`_SPLIT_BYTES` or more is parsed in
    two parts (:func:`~sysid_rls.workers.fork_tail`): a forked worker reads
    and parses the lines from the first line boundary past the file's byte
    midpoint and sends its rows back raw, while this process reads the
    bytes before it and parses the lines past the header.  numpy parses each
    cell on its own, so the columns are the same bit for bit either way.
    Without a worker, or without its reply, this process parses both parts.
    A worker whose part does not parse, or holds no row, replies with no
    bytes, and this process returns None without parsing that part again.
    Otherwise it parses the lines left in ``fh``.
    """
    dtype = [("k", np.int64), ("u", float, (m,)), ("y", float, (p,))]
    fd = fh.fileno() if header_lines is not None else None
    size = os.fstat(fd).st_size if fd is not None else 0
    cut = _line_end(fd, size // 2) if size >= _SPLIT_BYTES else size
    if cut < size:
        head, (reply,) = fork_tail(lambda: _table(_lines(fd, 0, cut, header_lines), dtype),
                                   lambda: _table(_lines(fd, cut, size), dtype))
        if head is None or reply == b"":  # either part failed, or the worker's has no row
            return None
        tail = (_table(_lines(fd, cut, size), dtype) if reply is None
                else np.frombuffer(reply, dtype))
        table = None if tail is None else np.concatenate([head, tail])
    else:
        table = _table(fh, dtype)
    if table is None or not len(table):
        return None
    return table["k"], table["u"], table["y"]


def _line_end(fd: int, pos: int) -> int:
    """The offset just past the first newline byte at or after byte ``pos``
    of the file ``fd``, or its end where there is none."""
    while block := os.pread(fd, 1 << 16, pos):
        if (i := block.find(b"\n")) >= 0:
            return pos + i + 1
        pos += len(block)
    return pos


def _lines(fd: int, start: int, stop: int, skip: int = 0):
    """The lines of bytes ``start:stop`` of the UTF-8 file ``fd`` as a file
    opened with ``newline=""`` splits them, past the first ``skip``."""
    blocks = []  # one read returns at most 2 GiB
    while start < stop and (block := os.pread(fd, stop - start, start)):
        blocks.append(block)
        start += len(block)
    part = io.BytesIO(b"".join(blocks))
    return itertools.islice(io.TextIOWrapper(part, encoding="utf-8", newline=""), skip, None)


def _table(lines, dtype):
    """The data rows among ``lines`` as a ``dtype`` record array, or None
    when a row does not parse or an output is ``nan``.

    One converter-free ``np.loadtxt`` reads the lines with each empty cell
    spelt ``nan`` (the second ``replace`` catches the middle cell of
    ``,,,``): numpy parses a cell it accepts to the value ``float`` gives,
    and refuses a blank one.  An empty output cell reads as ``nan`` too, so
    a ``nan`` output is left to :func:`_parse_rows`, which accepts a literal
    ``nan`` and names the line of an empty cell.
    """
    cells = (line.replace(",,", ",nan,").replace(",,", ",nan,") for line in lines)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: an empty table
            table = np.loadtxt(cells, delimiter=",", comments=None, ndmin=1, dtype=dtype)
    except ValueError:
        return None
    return None if np.isnan(table["y"]).any() else table


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

    The header must be exactly ``k,u_1..u_m,y_1..y_p``.  The data rows are
    parsed by one converter-free ``np.loadtxt`` (:func:`_read_table`), which
    reads an empty input cell as missing; from :data:`_SPLIT_BYTES` on, with
    two CPUs in the affinity set, a forked worker parses the rows past the
    file's midpoint and this process those before it, to the same bits.
    When that fails in either process (a blank input cell, a bad or short
    row, an empty or ``nan`` output) the rows are parsed again row by row
    (:func:`_parse_rows`), so a blank input is still read as missing and an
    error names the bad line.  A line the ``csv`` module refuses (a cell
    over its field size limit) is a :class:`ValidationError` naming it
    too.
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
            p = len(header) - 1 - m
            if m == 0 or p == 0 or header != _trajectory_header(m, p):
                raise ValidationError(f"{path}: header must be k,u_1..u_m,y_1..y_p")
            rows = _read_table(fh, m, p, reader.line_num)
        ks, us, ys = rows or _parse_rows(path, len(header), m)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from exc
    k0 = int(ks[0])
    if not np.all(np.diff(ks) == 1):
        raise ValidationError(f"{path}: k column must be consecutive integers")
    return Trajectory(k0=k0, u=us, y=ys)


# Cells formatted per step of write_csv_groups: enough that the step's
# hundred or so numpy calls cost little per cell, few enough that its arrays
# stay small for any table width (the byte gather's index alone takes 8
# bytes per output byte).  Writing a 20,000 x 32 block peaks 1.2 MB above
# its input under tracemalloc; one step per 1024 rows would peak at 4.5 MB.
_STEP_CELLS = 8192

# Cells per slice of a step's byte gather: its index is built one slice at
# a time.
_GATHER_CELLS = 2048

# A cell's digits are certified only when every rounding decision they rest
# on lies at least this far, in units of the last place of the 17-18 digit
# scaled value V, from where it would flip; V and its interval are computed
# with an error under 1e-13 in the same units.
_MARGIN = 1e-9

# Decimal scale q = 16 - floor((e - 1) log10 2) over the binary exponents e
# (|x| = f 2**e, 0.5 <= f < 1) of the floats the digit path takes:
# 2**-1021 <= |x| <= max.
_Q_MIN, _Q_MAX = -291, 324

# Byte columns of a cell's 32-byte alphabet: 20 digits (a float's 18-digit
# M, an integer's value, right-aligned), the 4 digits of its decimal
# exponent, the literals "-.e+0", a zero pad byte and the cell's separator.
_MINUS, _DOT, _E, _PLUS, _ZERO, _PAD, _SEP = range(24, 31)
_TEXT = 24  # longest cell text: "-1.2345678901234567e-308"

# A layout is (form, sign, digit count nd), numbered ((form * 2 + neg) * 17
# + nd - 1).  Forms 0..19 are positional with decpt = form - 3; 20..23
# exponential with exponent sign and width (e+dd, e+ddd, e-dd, e-ddd); 24 an
# integer.
_INT_FORM = 24
_LAYOUTS = 25 * 2 * 17


def _layout_pattern(layout: int) -> list[int]:
    """Alphabet bytes spelling a cell of ``layout`` as ``repr`` (float forms)
    or ``str`` (integer form) does, padded to the longest text, then the
    separator."""
    nd, neg, form = layout % 17 + 1, layout // 17 % 2, layout // 34
    digits = list(range(2, 2 + nd))  # a float's digits lead its 18-digit M
    if form == _INT_FORM:
        body = list(range(20 - nd, 20))
    elif form >= 20:
        exp_neg, wide = divmod(form - 20, 2)
        body = (digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
                + [_E, _MINUS if exp_neg else _PLUS] + [21, 22, 23][1 - wide:])
    else:
        decpt = form - 3
        if decpt <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < nd:
            body = digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            body = digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO]
    text = [_MINUS] * neg + body
    return text + [_PAD] * (_TEXT - len(text)) + [_SEP]


def _pow5_parts(q: int) -> tuple[float, float, float, float]:
    """``5**q`` as a double-double ``hi + lo`` (each correctly rounded), and
    ``hi`` split in halves of at most 26 bits for Dekker's product."""
    num, den = (5 ** q, 1) if q >= 0 else (1, 5 ** -q)
    hi = num / den
    hn, hd = hi.as_integer_ratio()
    lo = (num * hd - hn * den) / (den * hd)
    s = hi * 134217729.0
    big = s - (s - hi)
    return hi, lo, big, hi - big


class _DigitTables:
    """The block formatter's tables.  Each power of five and each layout
    pattern is built the first time a step needs it, so a small file pays
    only for the few it uses, and nothing is built at import."""

    def __init__(self):
        digit = np.frombuffer(b"0123456789", np.uint8)
        quads = np.empty((10, 10, 10, 10, 4), np.uint8)
        for place in range(4):
            quads[..., place] = digit.reshape([-1 if i == place else 1 for i in range(4)])
        self.quads = quads.view(np.uint32).ravel()
        self.pow10 = 10 ** np.arange(18, dtype=np.int64)
        # layout of a float cell with nd = 1, positive, by its decpt - 1
        # in -308..308
        exp10 = np.arange(-308, 309)
        form = np.where((exp10 > -5) & (exp10 < 16), exp10 + 4,
                        20 + 2 * (exp10 < 0) + (np.abs(exp10) >= 100))
        self.layout_base = 34 * form
        # alphabet words 6 and 7: "-.e+", then "0", the pad byte and the
        # separator, "," or (in a row's last cell) "\n"
        self.literals = np.frombuffer(b"-.e+0\0,\x000\0\n\0", np.uint32)
        # where each cell's 32-byte alphabet starts in a gather's slice
        self.cell_offsets = np.arange(0, 32 * _GATHER_CELLS, 32)[:, None]
        self._pow5 = [np.empty(_Q_MAX - _Q_MIN + 1) for _ in range(4)]
        self._have_pow5 = np.zeros(_Q_MAX - _Q_MIN + 1, bool)
        self._patterns = np.empty((_LAYOUTS, _TEXT + 1), np.intp)
        self._have_pattern = np.zeros(_LAYOUTS, bool)

    def pow5(self, q: np.ndarray) -> list[np.ndarray]:
        """(hi, lo, hi's high half, hi's low half) of ``5**q``, each shaped
        like ``q``."""
        rows = q - _Q_MIN
        missing = ~self._have_pow5[rows]
        if missing.any():
            for r in set(rows[missing].tolist()):
                for part, value in zip(self._pow5, _pow5_parts(r + _Q_MIN)):
                    part[r] = value
                self._have_pow5[r] = True
        return [np.take(part, rows) for part in self._pow5]

    def patterns(self, layout: np.ndarray) -> np.ndarray:
        """The table of byte patterns, one row per layout, with the row of
        every layout in ``layout`` built."""
        missing = ~self._have_pattern[layout]
        if missing.any():
            for i in set(layout[missing].tolist()):
                self._patterns[i] = _layout_pattern(i)
                self._have_pattern[i] = True
        return self._patterns


@functools.cache
def _digit_tables() -> _DigitTables:
    return _DigitTables()


def _float_cells(x: np.ndarray, t: _DigitTables):
    """Shortest round-trip digits of a float block, as ``repr`` chooses them.

    The reals that round to ``a = |x|`` form an interval around it; scaled by
    ``10**q``, ``a`` becomes ``V`` with 17 or 18 integer digits and the
    interval ``[L, U]``, all three formed in double-double arithmetic.  The
    shortest decimals in the interval are the multiples of the largest
    ``10**j`` between ``lo = floor(L) + 1`` and ``hi = floor(U)``; ``repr``
    takes the one nearest ``V``, ``M = c 10**j``.  Returns per cell ``M``
    scaled to 18 digits (so ``c`` is its leading digits), the decimal
    exponent's magnitude ``|decpt - 1|``, the layout, and whether the cell
    is not certified: zero, subnormal or not finite, or with ``U``, ``L`` or
    the rounding of ``V / 10**j`` within :data:`_MARGIN` of an integer or a
    tie.
    """
    a = np.abs(x).ravel()
    bad = ~((a >= 2.0 ** -1021) & (a < np.inf))  # nan compares false
    a[bad] = 1.0
    k10, p, tail, ends = _scaled_value(a, t)
    floors = np.floor(ends)
    ends -= floors
    ends -= 0.5
    bad |= (np.abs(ends, out=ends) > 0.5 - _MARGIN).any(axis=0)
    floor_up, floor_down = floors
    width = floor_up - floor_down
    width -= 1  # hi - lo, below 46
    over = np.subtract(floor_up, tail, out=tail)  # hi - V
    hi_int = p.astype(np.int64)
    hi_int += floor_up.astype(np.int64)
    del p, floors, floor_up, floor_down
    # [lo, hi] holds fewer than 100 integers, so a multiple of 10**j with
    # j >= 2 lies in it only when hi mod 100 <= hi - lo and hi // 100 ends
    # in j - 2 zeros; hi - r is the largest such multiple
    h = hi_int // 100
    last2 = hi_int - 100 * h
    r = last2 - last2 // 10 * 10
    is_j1 = r <= width
    j = is_j1.astype(np.int64)
    r *= is_j1
    wide = np.flatnonzero(last2 <= width)
    if wide.size:
        h, zeros = h[wide], np.full(wide.size, 2)
        for places in (8, 4, 2, 1):
            quo = h // 10 ** places
            ends_in_zeros = quo * 10 ** places == h
            np.copyto(h, quo, where=ends_in_zeros)
            zeros += places * ends_in_zeros
        j[wide], r[wide] = zeros, last2[wide]
    # M = hi - r - k 10**j, k steps from hi - r down towards V, at most to lo
    step = np.take(t.pow10, j).astype(np.float64)
    over -= r
    k = np.divide(over, step, out=over)
    bad |= np.abs(k - np.floor(k) - 0.5) < _MARGIN
    width -= r
    width /= step
    np.clip(np.rint(k), 0, np.floor(width, out=width), out=k)
    k *= step
    k += r
    hi_int -= k.astype(np.int64)
    m = hi_int
    big = m >= 10 ** 17  # M has 18 digits, else 17 (it lies within 46 of hi)
    m *= 10 - 9 * big
    k10 += big  # decpt - 1
    # nd - 1 = 16 - j + big: M ends in exactly j zeros
    j -= big
    np.subtract(16, j, out=j)
    layout = np.take(t.layout_base, k10 + 308)
    layout += j
    layout += 17 * np.signbit(x).ravel()
    return tuple(v.reshape(x.shape) for v in (m, np.abs(k10, out=k10), layout, bad))


def _scaled_value(a: np.ndarray, t: _DigitTables):
    """``floor((e - 1) log10 2)`` of each positive normal float ``a`` (which
    it overwrites), and its scaled value ``V = p + tail`` with the ends of
    the interval around it as ``(U - p, L - p)``.  Temporaries are written
    in place or freed once read, which keeps a step's peak memory low."""
    bits = a.view(np.int64)
    at_binade_start = (bits & (2 ** 52 - 1)) == 0
    e = bits >> 52
    e -= 1022
    k10 = e - 1
    k10 *= 78913
    k10 >>= 18  # floor((e - 1) log10 2): 78913 / 2**18 ~ log10 2
    q = 16 - k10
    hi, lo, hi_big, hi_small = t.pow5(q)
    # half the gap to the next float, 2**(e - 54) 10**q (at most 23)
    e -= 54
    e += q
    e <<= 52
    e += hi.view(np.int64)
    half_gap = e.view(np.float64)
    # V = p + tail: Dekker's exact product of a 2**q by hi, plus a 2**q lo;
    # p >= 2**53 is an integer and |tail| <= 16
    q <<= 52
    bits += q
    x1 = a  # a 2**q
    p = x1 * hi
    s = x1 * 134217729.0
    x_big = s - x1
    np.subtract(s, x_big, out=x_big)
    x_small = np.subtract(x1, x_big, out=s)
    tail = x_big * hi_big
    tail -= p
    tail += np.multiply(x_big, hi_small, out=x_big)
    tail += np.multiply(x_small, hi_big, out=hi_big)
    tail += np.multiply(x_small, hi_small, out=hi_small)
    tail += np.multiply(x1, lo, out=lo)
    del x_big, x_small, hi_big, hi_small, lo
    # U - p and L - p: V plus and minus the half gap, which below an exact
    # power of two halves
    ends = np.empty((2, a.size))
    np.add(tail, half_gap, out=ends[0])
    half_gap[at_binade_start] *= 0.5
    np.subtract(tail, half_gap, out=ends[1])
    return k10, p, tail, ends


def _int_cells(v: np.ndarray, t: _DigitTables):
    """Digits of an integer block as ``str`` writes them; cells of 18 or more
    digits are not certified."""
    bad = v >= 10 ** 17
    if v.dtype.kind == "i":
        bad |= v <= -10 ** 17
    c = np.where(bad, 0, v).astype(np.int64)
    neg = c < 0
    np.abs(c, out=c)
    nd = np.searchsorted(t.pow10[1:], c, side="right") + 1
    return c, np.zeros_like(c), (_INT_FORM * 2 + neg) * 17 + nd - 1, bad


def _format_rows(blocks: list[np.ndarray]) -> bytes:
    """CSV text of one step's rows, the cells of ``blocks`` side by side.

    Each cell's text is gathered by its layout's pattern from its alphabet
    (digits, exponent digits, literals and separator); pad bytes are
    dropped.  A cell the digit path does not certify is written with
    ``repr`` (float) or ``str`` (integer) instead.
    """
    # adjacent blocks of one kind formatted as one: fewer calls per step
    runs = [list(run) for _, run in itertools.groupby(blocks, lambda b: b.dtype.kind)]
    blocks = [run[0] if len(run) == 1 else np.hstack(run) for run in runs]
    rows, width = blocks[0].shape[0], sum(b.shape[1] for b in blocks)
    text = np.empty((rows * width, _TEXT + 1), np.uint8)
    bad = _gather_digits(blocks, text, _digit_tables())
    start = 0
    for block, bad_block in zip(blocks, bad):
        r, col = np.nonzero(bad_block)
        if r.size:
            fmt = str if block.dtype.kind in "iu" else repr
            strings = np.array([fmt(v) for v in block[r, col].tolist()], dtype=f"S{_TEXT}")
            text[r * width + start + col, :_TEXT] = strings.view(np.uint8).reshape(-1, _TEXT)
        start += block.shape[1]
    return text[text != 0].tobytes()


def _gather_digits(blocks: list[np.ndarray], text: np.ndarray, t: _DigitTables) -> list:
    """Fill ``text``, one row per cell, with the digit path's bytes; returns
    each block's mask of the cells it does not certify.

    The byte gather's index (8 bytes per output byte) is built for at most
    :data:`_GATHER_CELLS` cells at a time, while the digit arithmetic sees
    the whole step at once.
    """
    cells = [(_int_cells if b.dtype.kind in "iu" else _float_cells)(b, t) for b in blocks]
    bad = [part[3] for part in cells]
    c, exponent, layout = (np.hstack(part).ravel() for part in list(zip(*cells))[:3])
    del cells
    n, rows = c.size, blocks[0].shape[0]
    # 20 digits as five 4-digit words, the exponent's word, literals
    alphabet = np.empty((n, 8), np.uint32)
    high = c // 10 ** 8
    low = np.subtract(c, high * 10 ** 8, out=c)
    del c
    high_4 = high // 10 ** 4
    high -= high_4 * 10 ** 4
    low_4 = low // 10 ** 4
    low -= low_4 * 10 ** 4
    highest = high_4 // 10 ** 4
    high_4 -= highest * 10 ** 4
    for col, quad in enumerate((highest, high_4, high, low_4, low, exponent)):
        np.take(t.quads, quad, out=alphabet[:, col])
    del highest, high_4, high, low_4, low, exponent
    alphabet[:, 6], comma, newline = t.literals
    seps = alphabet.reshape(rows, -1, 8)[:, :, 7]
    seps[:, :-1] = comma
    seps[:, -1] = newline
    patterns = t.patterns(layout)
    # every index is in range; mode="clip" lets take write to out unbuffered
    index = np.empty((min(n, _GATHER_CELLS), _TEXT + 1), np.intp)
    for start in range(0, n, _GATHER_CELLS):
        stop = min(start + _GATHER_CELLS, n)
        part = index[:stop - start]
        np.take(patterns, layout[start:stop], axis=0, out=part, mode="clip")
        part += t.cell_offsets[:stop - start]
        np.take(alphabet[start:stop].view(np.uint8).ravel(), part, out=text[start:stop],
                mode="clip")
    return bad


def write_csv(path, header: list[str], columns) -> None:
    """Write equal-length columns as CSV rows under ``header``: one group of
    :func:`write_csv_groups`."""
    write_csv_groups(path, header, [columns])


def write_csv_groups(path, header: list[str], groups) -> None:
    """Write CSV rows under ``header`` from an iterable of column groups, each
    group's rows after the previous group's.

    A group is a list of equal-length columns, each a 1-D array (one cell per
    row) or a 2-D block whose row gives that many adjacent cells.  The bytes
    match ``csv.writer`` fed the same cells, integers through ``str`` and
    floats through ``repr`` of a Python float, and do not depend on how the
    rows are split into groups.  Cells are formatted a block at a time with
    array arithmetic (:func:`_format_rows`), about :data:`_STEP_CELLS` cells
    per step; ``repr`` / ``str`` write only the cells it cannot certify.
    Groups are taken one at a time, as they are written, so a generator of
    groups keeps memory bounded by one group for any length.
    """
    head = io.StringIO()
    csv.writer(head, lineterminator="\n").writerow(header)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        for columns in groups:
            blocks = _column_blocks(columns)
            if not blocks:
                continue
            step = max(1, _STEP_CELLS // sum(b.shape[1] for b in blocks))
            for start in range(0, blocks[0].shape[0], step):
                fh.write(_format_rows([b[start:start + step] for b in blocks]))


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
