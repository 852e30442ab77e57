"""Time-series construction: demo processes, sampling, CSV ingestion."""

from __future__ import annotations

import codecs
import enum
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .caputo import Polynomial, SampledSeries
from .errors import DomainError, InsufficientData, NonUniformGrid, ParseError
from .indicators import IndicatorPair

__all__ = [
    "DemoId",
    "DemoProcess",
    "demo_process",
    "sample",
    "ingest_csv",
    "export_csv",
]

_CSV_HEADER = ("t", "x", "y")

# Consecutive time deltas may deviate from the mean step by this much.
_GRID_RTOL = 1e-9

# ASCII bytes that str.splitlines treats as line breaks besides \n and \r.
_SPLITLINES_ONLY = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")

# Bytes read per step of the scan that picks the np.loadtxt path.
_SCAN_CHUNK = 1 << 20


class DemoId(enum.Enum):
    FIG1 = "fig1"
    FIG2 = "fig2"


@dataclass(frozen=True)
class DemoProcess:
    """A built-in demonstration process: polynomial factor x and indicator y.

    Both demo factors are non-monotone in time, so the same factor value
    recurs with different indicator values: y is multivalued in x even
    though both are single-valued in t.
    """

    id: DemoId
    x: Polynomial
    y: Polynomial
    t_end: float

    def pair(self) -> IndicatorPair:
        return IndicatorPair(y=self.y, x=self.x)

    def sampled_pair(self, n: int, t_end: float | None = None) -> IndicatorPair:
        """Both components sampled with n steps on [0, t_end], by default [0, self.t_end]."""
        t_end = self.t_end if t_end is None else t_end
        return IndicatorPair(y=sample(self.y, t_end, n), x=sample(self.x, t_end, n))


_DEMOS = {
    DemoId.FIG1: DemoProcess(
        id=DemoId.FIG1,
        x=Polynomial((70.0, -0.2, 0.001)),
        y=Polynomial((1400.0, -3.0, 0.01)),
        t_end=200.0,
    ),
    DemoId.FIG2: DemoProcess(
        id=DemoId.FIG2,
        x=Polynomial((70.0, -0.58, 5.4e-3, -1.5e-5, 8.2e-9)),
        y=Polynomial((1700.0, -24.0, 0.51, -3.5e-3, 7.5e-6)),
        t_end=240.0,
    ),
}


def demo_process(which: DemoId | str) -> DemoProcess:
    """Look up a demo process by id or by its name ("fig1"/"fig2")."""
    if isinstance(which, str):
        try:
            which = DemoId(which.lower())
        except ValueError:
            names = ", ".join(d.value for d in DemoId)
            raise DomainError(f"unknown demo process {which!r}; expected one of: {names}")
    return _DEMOS[which]


def sample(p: Polynomial, t_end: float, n: int) -> SampledSeries:
    """Sample a polynomial uniformly: values[k] = p(k * t_end / n), k = 0..n.

    When the n + 1 samples cannot be allocated the result is a DomainError
    naming n.
    """
    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"t_end must be finite and > 0, got {t_end!r}")
    n = int(n)
    if n < 2:
        raise DomainError(f"need n >= 2 sampling steps, got {n}")
    h = t_end / n
    try:
        values = p(np.arange(n + 1) * h)
    except (MemoryError, ValueError):
        # numpy raises ValueError for sizes beyond its index range.
        raise DomainError(f"N={n} samples do not fit in memory") from None
    return SampledSeries(h, values)


def _parse_float(cell: str, line: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"not a number: {cell!r}", line=line)


def ingest_csv(path) -> IndicatorPair:
    """Read a `t,x,y` CSV into a sampled pair, validating the uniform grid.

    The file is UTF-8 text; a leading byte-order mark is skipped.  Blank
    lines are ignored.  The first other line is the header `t,x,y` (any case,
    blanks around names); every later one holds three comma-separated numbers
    in any spelling Python's ``float`` accepts.  The grid must start at t = 0
    and increase in equal steps (deltas within 1e-9 relative of their mean);
    anything else is rejected rather than resampled.  A malformed line or an
    invalid byte raises :class:`ParseError` naming its 1-based line.

    ASCII files cost one scan of the bytes and one ``np.loadtxt`` call,
    whose float parsing dominates; memory is about three float64 columns
    (24 bytes per row) plus the contiguous copies of x and y.  Other files,
    and files ``np.loadtxt`` refuses, go through a line-by-line parser that
    is about twice as slow and holds the whole text and a Python float per
    cell.  Both give the same arrays and the same errors.
    """
    with open(path, "rb") as f:
        t, x, y = _read_columns(f)
    if t.size < 3:
        raise InsufficientData(f"need at least 3 data rows, got {t.size}")
    n = t.size - 1
    t0 = float(t[0])
    h = (float(t[-1]) - t0) / n
    if h <= 0.0:
        raise NonUniformGrid("time stamps must be strictly increasing")
    if abs(t0) > _GRID_RTOL * h:
        raise DomainError(f"series must start at t = 0, got t0={t0!r}")
    deltas = np.diff(t)
    if np.max(np.abs(deltas - h)) > _GRID_RTOL * h:
        raise NonUniformGrid(f"time deltas deviate from uniform step {h!r} beyond tolerance")
    return IndicatorPair(y=SampledSeries(h, y), x=SampledSeries(h, x))


def _read_columns(f):
    """The t, x and y columns of a binary CSV file, as float64 arrays."""
    if f.seekable():
        fast = _loadtxt_safe(f)
        f.seek(0)
        if fast:
            text = io.TextIOWrapper(f, encoding="utf-8-sig", newline="")
            try:
                table = _loadtxt_table(text)
            finally:
                text.detach()
            if table is not None:
                return table.T
            f.seek(0)
    return _parse_lines(f.read())


def _loadtxt_safe(f) -> bool:
    """True when np.loadtxt splits the file into the lines str.splitlines does.

    That holds for ASCII text without the further line breaks of
    ``_SPLITLINES_ONLY``.  np.loadtxt would strip those from field edges as
    blanks: a form feed after the 1 of ``0,1,2`` would read as one row,
    not as the two lines ``0,1`` and ``,2``.
    """
    chunk = f.read(_SCAN_CHUNK).removeprefix(codecs.BOM_UTF8)
    while chunk:
        if not chunk.isascii() or any(b in chunk for b in _SPLITLINES_ONLY):
            return False
        chunk = f.read(_SCAN_CHUNK)
    return True


def _loadtxt_table(text):
    """Check the header, then parse the rows after it in one np.loadtxt call.

    Returns an (rows, 3) float64 array, or None where np.loadtxt refuses the
    rows, finds another column count or warns (an empty body warns); the
    line parser then decides.
    """
    line_no = 0
    for line in iter(text.readline, ""):
        line_no += 1
        if line.strip():
            break
    else:
        raise ParseError("empty file", line=1)
    _check_header(line.rstrip("\r\n"), line_no)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(text, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except (ValueError, Warning):
            return None
    return table if table.shape[1] == 3 else None


def _check_header(header: str, line: int) -> None:
    fields = tuple(cell.strip().lower() for cell in header.split(","))
    if fields != _CSV_HEADER:
        raise ParseError(f"expected header 't,x,y', got {header!r}", line=line)


def _parse_lines(data: bytes):
    """Line-by-line parse of a whole CSV file; the reference for every error."""
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode.  It lies on their last line,
        # or on a new one if they end with a break; the "_" stands for it.
        line = len((data[: exc.start].decode("utf-8") + "_").splitlines())
        bad = data[exc.start : exc.end]
        raise ParseError(f"not UTF-8 text ({exc.reason}: {bad!r})", line=line) from None
    rows = [(i + 1, line) for i, line in enumerate(text.splitlines()) if line.strip()]
    if not rows:
        raise ParseError("empty file", line=1)
    _check_header(rows[0][1], rows[0][0])
    t, x, y = [], [], []
    for line_no, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(f"expected 3 comma-separated values, got {len(cells)}", line=line_no)
        t.append(_parse_float(cells[0].strip(), line_no))
        x.append(_parse_float(cells[1].strip(), line_no))
        y.append(_parse_float(cells[2].strip(), line_no))
    return np.array(t, dtype=np.float64), np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)


def export_csv(pair: IndicatorPair, target) -> None:
    """Write a sampled pair as `t,x,y` rows that re-ingest bit-exactly.

    ``target`` is a path or a writable text file object.
    """
    if not isinstance(pair.x, SampledSeries):
        raise DomainError("only sampled pairs can be exported")
    x, y = pair.x, pair.y
    lines = ["t,x,y"]
    lines.extend(
        f"{k * x.h!r},{xv!r},{yv!r}"
        for k, (xv, yv) in enumerate(zip(x.values.tolist(), y.values.tolist()))
    )
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="utf-8", newline="") as f:
            f.write(text)
