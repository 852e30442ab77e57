"""Time-series construction: demo processes, sampling, CSV ingestion.

Ingestion imports numpy; the demo processes and sampling import it only
where they compute samples.
"""

from __future__ import annotations

import codecs
import io
import itertools
import math
import warnings

from .caputo import Polynomial, SampledSeries
from .errors import DomainError, InsufficientData, NonUniformGrid, ParseError
from .indicators import IndicatorPair

# True only for a static type checker: typing is not imported at run time.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = [
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

# Bytes of a read whose line breaks are counted at once.  Each comparison
# makes a bool buffer of this size, so the count holds a few of them, not
# copies of the read; slices this small also stay in cache, and counted a
# 50 MB file faster than whole reads did.
_COUNT_SLICE = 1 << 16

# Lines per np.loadtxt call.  Its table of a chunk, 24 bytes per row, is
# 96 KiB, small beside x and y; 16384 lines held more and were no faster.
_LOADTXT_ROWS = 4096


class DemoProcess:
    """A built-in demonstration process: polynomial factor x and indicator y.

    Both demo factors are non-monotone in time, so the same factor value
    recurs with different indicator values: y is multivalued in x even
    though both are single-valued in t.  x, y and the default end time
    t_end are read-only.
    """

    __slots__ = ("_x", "_y", "_t_end")

    def __init__(self, x: Polynomial, y: Polynomial, t_end: float) -> None:
        self._x, self._y, self._t_end = x, y, t_end

    @property
    def x(self) -> Polynomial:
        return self._x

    @property
    def y(self) -> Polynomial:
        return self._y

    @property
    def t_end(self) -> float:
        return self._t_end

    def pair(self) -> IndicatorPair:
        return IndicatorPair(y=self.y, x=self.x)

    def sampled_pair(self, n: int, t_end: float | None = None) -> IndicatorPair:
        """Both components sampled with n steps on [0, t_end], by default [0, self.t_end]."""
        t_end = self.t_end if t_end is None else t_end
        return IndicatorPair(y=sample(self.y, t_end, n), x=sample(self.x, t_end, n))


_DEMOS = {
    "fig1": DemoProcess(
        x=Polynomial((70.0, -0.2, 0.001)),
        y=Polynomial((1400.0, -3.0, 0.01)),
        t_end=200.0,
    ),
    "fig2": DemoProcess(
        x=Polynomial((70.0, -0.58, 5.4e-3, -1.5e-5, 8.2e-9)),
        y=Polynomial((1700.0, -24.0, 0.51, -3.5e-3, 7.5e-6)),
        t_end=240.0,
    ),
}


def demo_process(name: str) -> DemoProcess:
    """Look up a built-in demo process by its name, ``fig1`` or ``fig2``."""
    try:
        return _DEMOS[name]
    except KeyError:
        raise DomainError(f"unknown demo process {name!r}; expected one of: {', '.join(_DEMOS)}") from None


def sample(p: Polynomial, t_end: float, n: int) -> SampledSeries:
    """Sample a polynomial uniformly: values[k] = p(k * t_end / n), k = 0..n.

    The series holds p's coefficients, not the samples.  A pass over it
    computes them a block at a time, by Horner's rule at the times
    (start + i) * h, where it reads them; ``values`` builds the whole
    array, the same bits, for a caller that needs it.  So sampling takes no
    memory that grows with n, and the numeric engine never builds the
    array.  When the n + 1 samples could not be allocated the result is a
    DomainError naming n.
    """
    import mmap

    t_end = float(t_end)
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise DomainError(f"end time must be finite and > 0, got T={t_end!r}")
    n = _steps(n)
    try:
        # Maps the samples' bytes and unmaps them untouched: the system
        # refuses a size it could not hold, and a mapping that is never
        # written costs no memory.
        mmap.mmap(-1, 8 * (n + 1)).close()
    except (OSError, OverflowError):
        raise DomainError(f"N={n} samples do not fit in memory") from None
    return SampledSeries._of_polynomial(p, t_end / n, n)


def _steps(n) -> int:
    """n as the int number of sampling steps, checked to be integral and at least 2."""
    try:
        steps = int(n)
    except (TypeError, ValueError, OverflowError):
        steps = None
    if steps is None or steps != n:
        raise DomainError(f"need an integral number of sampling steps, got n={n!r}")
    if steps < 2:
        raise DomainError(f"need n >= 2 sampling steps, got {steps}")
    return steps


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
    in any spelling Python's ``float`` accepts.  The time stamps must be
    finite, start at t = 0 and increase in equal steps (deltas within 1e-9
    relative of their mean, which must itself be finite); anything else is
    rejected rather than resampled.  A malformed line or an invalid byte raises
    :class:`ParseError` naming its 1-based line.

    Every input is parsed by ``np.loadtxt`` calls of 4096 lines each, whose
    float parsing dominates.  Memory is x and y, 16 bytes per row, in two
    arrays sized by a bound on the rows; t is checked chunk by chunk.  A
    chunk ``np.loadtxt`` refuses, such as a line of blanks, goes to a line
    parser with the same results.  An ASCII file is scanned once for its line
    count.  A pipe is held as its bytes; other text (non-ASCII, or with breaks
    np.loadtxt misses) is decoded and rewritten with LF breaks first.
    """
    with open(path, "rb") as f:
        x, y, grid = _read_columns(f)
    h = grid.step()
    return IndicatorPair(y=SampledSeries(h, y), x=SampledSeries(h, x))


class _Grid:
    """Running summary of the time stamps, fed in file order.

    It keeps what the grid checks read: the row count, the first and last
    stamps, the first non-finite stamp and the least and greatest delta.
    """

    def __init__(self):
        self.rows = 0
        self.first = self.last = math.nan
        self.non_finite = None
        self.dmin, self.dmax = math.inf, -math.inf

    def add(self, t: np.ndarray) -> None:
        """Take the next stamps, at least one; deltas are kept only while every stamp is finite."""
        import numpy as np

        if self.non_finite is None:
            finite = np.isfinite(t)
            if not finite.all():
                self.non_finite = float(t[np.argmin(finite)])
            else:
                # A delta that overflows is an infinite one.
                with np.errstate(over="ignore"):
                    d = np.diff(t, prepend=self.last) if self.rows else np.diff(t)
                if d.size:
                    self.dmin, self.dmax = min(self.dmin, float(d.min())), max(self.dmax, float(d.max()))
        if not self.rows:
            self.first = float(t[0])
        self.last = float(t[-1])
        self.rows += t.size

    def step(self) -> float:
        """The uniform step h, once every stamp is in; raises what the grid breaks."""
        if self.rows < 3:
            raise InsufficientData(f"need at least 3 data rows, got {self.rows}")
        h = (self.last - self.first) / (self.rows - 1)
        if h <= 0.0:
            raise NonUniformGrid("time stamps must be strictly increasing")
        if abs(self.first) > _GRID_RTOL * h:
            raise DomainError(f"series must start at t = 0, got t0={self.first!r}")
        if self.non_finite is not None:
            raise DomainError(f"time stamps must be finite, got {self.non_finite!r}")
        if not math.isfinite(h):
            # The stamps are finite, so their span overflowed.
            raise DomainError(f"step must be finite and > 0, got h={h!r}")
        # max|d - h| over the deltas d, bit for bit: fl(d - h) is monotone in d.
        if max(self.dmax - h, h - self.dmin) > _GRID_RTOL * h:
            raise NonUniformGrid(f"time deltas deviate from uniform step {h!r} beyond tolerance")
        return h


def _read_columns(f):
    """The x and y columns of a binary CSV file, and the summary of its t column."""
    if not f.seekable():
        # A pipe cannot be read twice: its bytes are held and read as a file.
        f = io.BytesIO(f.read())
    bound = _loadtxt_rows(f)
    f.seek(0)
    encoding = "utf-8-sig"
    if bound is None:
        # With one LF between its str.splitlines lines, the text breaks
        # only where readline and np.loadtxt break it.  _decode skipped the
        # byte-order mark, so a second one stays text.
        text = "\n".join(_decode(f.read()).splitlines())
        f = io.BytesIO(text.encode())
        bound = text.count("\n") + 1
        encoding = "utf-8"
    text = io.TextIOWrapper(f, encoding=encoding, newline="")
    try:
        return _loadtxt_columns(text, bound)
    finally:
        text.detach()


def _loadtxt_rows(f) -> int | None:
    """A bound on the data rows, or None unless np.loadtxt splits the file
    into the lines str.splitlines does, so that the file must be rewritten.

    That holds for ASCII text without the further line breaks of
    ``_SPLITLINES_ONLY``.  np.loadtxt would strip those from field edges as
    blanks: a form feed after the 1 of ``0,1,2`` would read as one row,
    not as the two lines ``0,1`` and ``,2``.  The bound counts the line
    breaks LF, CR and CR LF; a CR LF split between two reads counts twice.
    """
    import numpy as np

    breaks = 0
    last = b""
    chunk = f.read(_SCAN_CHUNK).removeprefix(codecs.BOM_UTF8)
    while chunk:
        if not chunk.isascii() or any(b in chunk for b in _SPLITLINES_ONLY):
            return None
        a = np.frombuffer(chunk, np.uint8)
        has_cr = b"\r" in chunk
        for s in range(0, a.size, _COUNT_SLICE):
            e = s + _COUNT_SLICE
            breaks += int(np.count_nonzero(a[s:e] == ord("\n")))
            if has_cr:
                # A CR alone breaks a line; a CR LF was counted at its LF,
                # which may open the next slice of the read.
                cr = a[s:e] == ord("\r")
                lf_after = a[s + 1 : e + 1] == ord("\n")
                breaks += int(np.count_nonzero(cr)) - int(np.count_nonzero(cr[: lf_after.size] & lf_after))
        last = chunk[-1:]
        chunk = f.read(_SCAN_CHUNK)
    # The header takes one line; a last line without a break adds one.
    return breaks - 1 if last in (b"\n", b"\r") else breaks


def _loadtxt_columns(text, bound: int):
    """Check the header, then parse the rows after it with np.loadtxt in chunks.

    Returns x and y, each a float64 array of the rows, and the grid summary
    of t.  A chunk that np.loadtxt refuses, warns on or reads as other than
    three columns, a chunk of blank lines among them, goes to
    :func:`_parse_rows`, which decides on its lines alone.
    """
    import numpy as np

    line_no = 0
    for line in iter(text.readline, ""):
        line_no += 1
        if line.strip():
            break
    else:
        raise ParseError("empty file", line=1)
    _check_header(line.rstrip("\r\n"), line_no)
    x, y = np.empty(bound), np.empty(bound)
    grid = _Grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while True:
            # Lines are read by readline, not by iteration, so that tell works.
            start = text.tell()
            first = text.readline()
            if not first:
                break
            chunk = itertools.chain((first,), _lines(text, _LOADTXT_ROWS - 1))
            try:
                # Unpacking raises ValueError unless there are three columns.
                t, xs, ys = np.loadtxt(chunk, delimiter=",", comments=None, dtype=np.float64, ndmin=2, unpack=True)
            except (ValueError, Warning):
                text.seek(start)
                t, xs, ys = map(np.array, _parse_rows(_lines(text, _LOADTXT_ROWS), line_no + 1))
            line_no += _LOADTXT_ROWS
            if t.size:
                rows = slice(grid.rows, grid.rows + t.size)
                x[rows], y[rows] = xs, ys
                grid.add(t)
    return x[: grid.rows], y[: grid.rows], grid


def _lines(text, n: int):
    """The next n lines of ``text`` at most, read one at a time."""
    return itertools.islice(iter(text.readline, ""), n)


def _check_header(header: str, line: int) -> None:
    fields = tuple(cell.strip().lower() for cell in header.split(","))
    if fields != _CSV_HEADER:
        raise ParseError(f"expected header 't,x,y', got {header!r}", line=line)


def _decode(data: bytes) -> str:
    """The UTF-8 text of a file's bytes less one leading byte-order mark; a bad byte is a ParseError."""
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode.  It lies on their last line,
        # or on a new one if they end with a break; the "_" stands for it.
        line = len((data[: exc.start].decode("utf-8") + "_").splitlines())
        bad = data[exc.start : exc.end]
        raise ParseError(f"not UTF-8 text ({exc.reason}: {bad!r})", line=line) from None


def _parse_rows(lines, first_line: int) -> tuple[list[float], list[float], list[float]]:
    """t, x and y of data lines numbered from ``first_line``; blank lines are skipped.

    A line may keep its line break.  Each other line must hold three
    comma-separated numbers, or a ParseError names it.
    """
    t, x, y = [], [], []
    for line_no, line in enumerate(lines, first_line):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(f"expected 3 comma-separated values, got {len(cells)}", line=line_no)
        t.append(_parse_float(cells[0].strip(), line_no))
        x.append(_parse_float(cells[1].strip(), line_no))
        y.append(_parse_float(cells[2].strip(), line_no))
    return t, x, y


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
