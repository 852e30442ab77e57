import codecs
import io
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracalc import (
    DomainError,
    FracalcError,
    IndicatorPair,
    InsufficientData,
    NonUniformGrid,
    ParseError,
    Polynomial,
    SampledSeries,
    _kernels,
    alpha_sweep,
    demo_process,
    export_csv,
    ingest_csv,
    sample,
    series,
)
from fracalc.caputo import _derivatives


class TestDemoProcess:
    def test_fig1_coefficients_golden(self, fig1):
        assert fig1.x.coeffs == (70.0, -0.2, 0.001)
        assert fig1.y.coeffs == (1400.0, -3.0, 0.01)
        assert fig1.t_end == 200.0

    def test_fig2_coefficients_golden(self, fig2):
        assert fig2.x.coeffs == (70.0, -0.58, 5.4e-3, -1.5e-5, 8.2e-9)
        assert fig2.y.coeffs == (1700.0, -24.0, 0.51, -3.5e-3, 7.5e-6)
        assert fig2.t_end == 240.0

    def test_fig1_endpoint_values(self, fig1):
        assert fig1.x(0.0) == 70.0 and fig1.y(0.0) == 1400.0
        assert abs(fig1.x(100.0) - 60.0) <= 1e-9

    def test_fig2_endpoint_values(self, fig2):
        assert fig2.x(0.0) == 70.0 and fig2.y(0.0) == 1700.0

    def test_lookup_by_name(self, fig1):
        assert demo_process("fig1") is fig1
        with pytest.raises(DomainError, match=r"^unknown demo process 'FIG2'; expected one of: fig1, fig2$"):
            demo_process("FIG2")

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError, match=r"^unknown demo process 'fig3'; expected one of: fig1, fig2$"):
            demo_process("fig3")

    def test_fields_are_read_only(self, fig1):
        with pytest.raises(AttributeError):
            fig1.t_end = 300.0
        assert fig1.t_end == 200.0

    def test_sampled_pair_takes_a_horizon(self, fig1):
        pair = fig1.sampled_pair(100, 350.0)
        assert (fig1.sampled_pair(100).y.t_end, pair.y.t_end) == (200.0, 350.0)
        np.testing.assert_array_equal(pair.y.values, sample(fig1.y, 350.0, 100).values)


class TestSample:
    # Multiples of 12, so that T = 3/4 and 5/6 of the horizon lie on the
    # grid; N + 1 is a multiple of neither block.
    N = 40_008

    @pytest.mark.parametrize("block", [1000, 16_384])
    @pytest.mark.parametrize("name,T", [("fig1", None), ("fig1", 150.0), ("fig2", None), ("fig2", 200.0)])
    @pytest.mark.parametrize(
        "orders", [[0.0, 0.3, 0.5, 0.99, 1.0], [1.25, 1.5, 1.99], [0.0, 0.5, 1.0, 1.5]], ids=["to1", "above1", "mixed"]
    )
    def test_polynomial_form_equals_stored_samples(self, monkeypatch, block, name, T, orders):
        # A sampled polynomial computes its samples where a pass reads them.
        # It gives the bits of the stored samples it stands for, which are
        # p(k h) on the whole grid; each pair is fresh, so that no earlier
        # call has built its values.
        monkeypatch.setattr(_kernels, "_L1_BLOCK", block)
        d = demo_process(name)
        ref = d.sampled_pair(self.N)
        grid = np.arange(self.N + 1) * (d.t_end / self.N)
        assert ref.x.values.tobytes() == d.x(grid).tobytes()
        assert ref.y.values.tobytes() == d.y(grid).tobytes()
        stored = IndicatorPair(*(SampledSeries(s.h, np.array(s.values)) for s in (ref.y, ref.x)))
        if T is not None:
            k = round(T / ref.x.h)
            assert d.sampled_pair(self.N).x.truncated(T).values.tobytes() == ref.x.values[: k + 1].tobytes()
        pair = d.sampled_pair(self.N)
        assert _derivatives([pair.y, pair.x], orders, T)[0] == _derivatives([stored.y, stored.x], orders, T)[0]
        assert alpha_sweep(d.sampled_pair(self.N), orders, T) == alpha_sweep(stored, orders, T)

    @pytest.mark.parametrize("coeffs,t_end", [((1e308, 0.0, 0.0, 1e-300), 1e200), ((1e308, 1e308, 1e308), 10.0)])
    def test_samples_checked_where_the_coefficients_bound_nothing(self, coeffs, t_end):
        # Both bounds sum |c_k| max(1, t)^k exceed half the float range, so
        # the samples themselves are checked: the first are finite, the
        # second overflow, which is a DomainError and no warning.
        p = Polynomial(coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if t_end > 10.0:
                s = sample(p, t_end, 100)
                assert s.values.tobytes() == p(np.arange(101) * (t_end / 100)).tobytes()
            else:
                with pytest.raises(DomainError, match="^all sample values must be finite$"):
                    sample(p, t_end, 100)

    def test_identity_three_points(self):
        s = sample(Polynomial((0.0, 1.0)), 1.0, 2)
        np.testing.assert_array_equal(s.values, [0.0, 0.5, 1.0])

    def test_fig1_factor_midpoint(self, fig1):
        s = sample(fig1.x, 200.0, 200)
        assert abs(s.values[100] - 60.0) <= 1e-9

    def test_constant(self):
        s = sample(Polynomial((7.0,)), 3.0, 10)
        assert (s.values == 7.0).all()

    @pytest.mark.parametrize("t_end,n", [(0.0, 10), (-1.0, 10), (1.0, 1)])
    def test_bad_arguments_rejected(self, t_end, n):
        with pytest.raises(DomainError):
            sample(Polynomial((1.0,)), t_end, n)

    @pytest.mark.parametrize("n", [2.5, float("inf"), float("nan"), "7", None])
    def test_non_integral_step_count_rejected(self, fig1, n):
        with pytest.raises(DomainError, match=rf"^need an integral number of sampling steps, got n={n!r}$"):
            sample(Polynomial((1.0,)), 1.0, n)
        with pytest.raises(DomainError, match="integral"):
            fig1.sampled_pair(n)

    def test_integral_float_step_count_accepted(self):
        assert sample(Polynomial((1.0,)), 1.0, 1e6).n_steps == 10**6


class TestIngestCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_minimal_file(self, tmp_path):
        pair = ingest_csv(self.write(tmp_path, "t,x,y\n0,1,2\n1,2,4\n2,3,6\n"))
        assert isinstance(pair.x, SampledSeries) and isinstance(pair.y, SampledSeries)
        assert pair.x.h == 1.0
        np.testing.assert_array_equal(pair.x.values, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(pair.y.values, [2.0, 4.0, 6.0])

    def test_header_is_case_insensitive(self, tmp_path):
        pair = ingest_csv(self.write(tmp_path, "T, X, Y\n0,1,2\n1,2,4\n2,3,6\n"))
        assert pair.x.h == 1.0

    def test_crlf_line_endings(self, tmp_path):
        pair = ingest_csv(self.write(tmp_path, "t,x,y\r\n0,1,2\r\n1,2,4\r\n2,3,6\r\n"))
        assert pair.x.h == 1.0

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_csv(self.write(tmp_path, "a,b,c\n0,1,2\n1,2,4\n2,3,6\n"))

    def test_non_uniform_grid_rejected(self, tmp_path):
        with pytest.raises(NonUniformGrid):
            ingest_csv(self.write(tmp_path, "t,x,y\n0,1,2\n1,2,4\n2,3,6\n3.5,4,8\n"))

    def test_decreasing_time_rejected(self, tmp_path):
        with pytest.raises(NonUniformGrid):
            ingest_csv(self.write(tmp_path, "t,x,y\n0,1,2\n-1,2,4\n-2,3,6\n"))

    def test_non_numeric_cell_names_line(self, tmp_path):
        with pytest.raises(ParseError) as exc_info:
            ingest_csv(self.write(tmp_path, "t,x,y\n0,1,2\n1,oops,4\n2,3,6\n"))
        assert exc_info.value.line == 3

    def test_wrong_column_count_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_csv(self.write(tmp_path, "t,x,y\n0,1,2\n1,2\n2,3,6\n"))

    def test_too_few_rows_rejected(self, tmp_path):
        with pytest.raises(InsufficientData):
            ingest_csv(self.write(tmp_path, "t,x,y\n0,1,2\n1,2,4\n"))

    def test_nonzero_start_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            ingest_csv(self.write(tmp_path, "t,x,y\n1,1,2\n2,2,4\n3,3,6\n"))

    @pytest.mark.parametrize(
        "text,stamp",
        [
            ("t,x,y\n0,1,2\nnan,2,5\n2,3,10\n3,4,17\n", "nan"),
            ("t,x,y\n0,1,2\n1,2,5\n2,3,10\ninf,4,17\n", "inf"),
        ],
        ids=["nan_inside", "inf_last"],
    )
    def test_non_finite_time_stamp_rejected(self, tmp_path, text, stamp):
        # Under pytest a numpy warning is an error, so this also pins that
        # no invalid-value warning comes first.
        with pytest.raises(DomainError, match=f"^time stamps must be finite, got {stamp}$"):
            ingest_csv(self.write(tmp_path, text))

    def test_non_finite_time_stamp_found_in_any_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr("fracalc._kernels._L1_BLOCK", 2)
        rows = [f"{k},{k},{k}" for k in range(9)]
        rows[6] = "-inf,6,6"
        with pytest.raises(DomainError, match="got -inf$"):
            ingest_csv(self.write(tmp_path, "t,x,y\n" + "\n".join(rows) + "\n"))

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("t,x,y\n-1.7e308,1,2\n1.7e308,2,3\n1.75e308,3,4\n", DomainError, "step must be finite and > 0, got h=inf"),
            (
                "t,x,y\n0,1,2\n-1.7e308,2,3\n1.7e308,3,4\n",
                NonUniformGrid,
                "time deltas deviate from uniform step 8.5e+307 beyond tolerance",
            ),
        ],
        ids=["span", "delta"],
    )
    def test_overflow_near_float_range_rejected(self, tmp_path, text, error, message):
        # Under pytest a numpy overflow warning is an error, so this also
        # pins that none comes first.
        with pytest.raises(error) as exc_info:
            ingest_csv(self.write(tmp_path, text))
        assert str(exc_info.value) == message

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"t,x,y\r\n0,1,2\r\n1,2,4\r\n2,3,6\r\n")
        np.testing.assert_array_equal(ingest_csv(path).y.values, [2.0, 4.0, 6.0])

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
    @pytest.mark.parametrize("body,line", [(b"t,x,y\n0,1,2\n1,\xff2,4\n2,3,6\n", 3), (b"\n\xc3", 2)])
    def test_invalid_utf8_names_line(self, tmp_path, bom, body, line):
        path = tmp_path / "latin1.csv"
        path.write_bytes(bom + body)
        with pytest.raises(ParseError, match="not UTF-8") as exc_info:
            ingest_csv(path)
        assert exc_info.value.line == line

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_csv(tmp_path / "nope.csv")


def reference_ingest(path):
    """The line-by-line reader that ingest_csv used before its np.loadtxt path.

    It differs from that reader only in the two documented encoding changes
    (a leading byte-order mark is skipped, and invalid UTF-8 is a ParseError
    naming the line of the first bad byte) and in refusing a non-finite time
    stamp and a step that overflows, which that reader let through.
    """
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    lines = data.decode("utf-8", errors="surrogateescape").splitlines()
    for i, line in enumerate(lines):
        if any("\udc80" <= c <= "\udcff" for c in line):
            raise ParseError("not UTF-8", line=i + 1)
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise ParseError("empty file", line=1)
    header_line, header = rows[0]
    fields = tuple(cell.strip().lower() for cell in header.split(","))
    if fields != ("t", "x", "y"):
        raise ParseError(f"expected header 't,x,y', got {header!r}", line=header_line)
    t, x, y = [], [], []
    for line_no, line in rows[1:]:
        cells = line.split(",")
        if len(cells) != 3:
            raise ParseError(f"expected 3 comma-separated values, got {len(cells)}", line=line_no)
        for column, cell in zip((t, x, y), cells):
            try:
                column.append(float(cell.strip()))
            except ValueError:
                raise ParseError(f"not a number: {cell.strip()!r}", line=line_no)
    if len(t) < 3:
        raise InsufficientData(f"need at least 3 data rows, got {len(t)}")
    n = len(t) - 1
    h = (t[-1] - t[0]) / n
    if h <= 0.0:
        raise NonUniformGrid("time stamps must be strictly increasing")
    if abs(t[0]) > 1e-9 * h:
        raise DomainError(f"series must start at t = 0, got t0={t[0]!r}")
    for stamp in t:
        if not math.isfinite(stamp):
            raise DomainError(f"time stamps must be finite, got {stamp!r}")
    if not math.isfinite(h):
        raise DomainError(f"step must be finite and > 0, got h={h!r}")
    with np.errstate(over="ignore"):
        deviation = np.max(np.abs(np.diff(t) - h))
    if deviation > 1e-9 * h:
        raise NonUniformGrid(f"time deltas deviate from uniform step {h!r} beyond tolerance")
    return IndicatorPair(y=SampledSeries(h, np.asarray(y)), x=SampledSeries(h, np.asarray(x)))


# Spellings around which np.loadtxt and the line parser may disagree.
_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n", "\r"]
_PADS = [" ", "\t", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
_ODD_CELLS = [
    "", "1_0", "\u0661", "#1", '"1"', "0x10", "1d3", "nan", "-inf", "1e999", "abc", "1 2", "+1.", ".5",
    "\ufeff1",
]
_BAD_BYTES = [b"\xff", b"\xc3", b"\xe2\x80", b"\xed\xa0\x80", codecs.BOM_UTF8]


@st.composite
def csv_files(draw):
    """CSV files: mostly clean rows on a uniform grid, mixed with the spellings
    above, bad bytes and byte-order marks at a per-file rate (0 = clean)."""
    rate = draw(st.sampled_from([0, 0, 12, 4]))

    def odd():
        return rate and draw(st.integers(0, rate - 1)) == 0

    h = draw(st.sampled_from([1.0, 0.5, 0.1, 2.0**-10]))
    t0 = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-12, 1.0]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [draw(st.sampled_from(["t,x,y", "t,x,y", "T, X, Y", " t ,x, y", "t,x", "a,b,c"]))]
    for k in range(draw(st.integers(0, 6))):
        cells = [repr(t0 + k * h)] + [repr(draw(st.floats(-1e3, 1e3))) for _ in range(2)]
        if odd():
            cells[draw(st.integers(0, 2))] = draw(st.sampled_from(_ODD_CELLS))
        if odd():
            i = draw(st.integers(0, 2))
            cells[i] = draw(st.sampled_from(_PADS)) + cells[i] + draw(st.sampled_from(["", *_PADS]))
        if odd():
            cells = cells[:2] if draw(st.booleans()) else cells + ["1"]
        lines.append(",".join(cells))
        if odd():
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0c", "\u2028 "])))
    text = "".join(line + (draw(st.sampled_from(_BREAKS)) if odd() else newline) for line in lines)
    data = text.encode("utf-8")
    if odd():
        data = codecs.BOM_UTF8 + data
    if odd():
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_BAD_BYTES)) + data[at:]
    return data


def outcome(read, path):
    """Arrays as bytes, or the error type, line and (unless it is an
    encoding error, whose wording the reference does not know) message."""
    try:
        pair = read(path)
    except FracalcError as exc:
        message = None if "UTF-8" in str(exc) else str(exc)
        return type(exc), getattr(exc, "line", None), message
    return repr(pair.x.h), repr(pair.y.h), pair.x.values.tobytes(), pair.y.values.tobytes()


class TestIngestMatchesLineParser:
    @given(csv_files())
    @example(b"t,x,y\n0,1,2\n1,2\x0c,3\n2,3,4\n")  # np.loadtxt reads one row
    @example(b"t,x,y\n0,1\x0c,2\n1,2,3\n2,3,4\n")  # the line parser sees "0,1"
    @example("t,x,y\n0,1\u2028,2\n1,2,3\n2,3,4\n".encode())
    @example("t\x1c,x,y\n0,1,2\n1,2,3\n2,3,4\n".encode())
    @example(b"t,x,y\n0,1,2\n1, 2 ,3\t\n\n2,3,4")
    @example(b"t,x,y\n0,1,2\n \n1,2,3\n2,3,4\n")
    @example(b"\xef\xbb\xbft,x,y\r\n0,1,2\r\n1,2,3\r\n2,3,4\r\n")
    @example(b"t,x,y\n0,1,2\n1,\xff2,4\n2,3,6\n")
    @example(codecs.BOM_UTF8 * 2 + b"t,x,y\n0,1,2\n1,2,3\n2,3,4\n")  # only the first is skipped
    @example("t,x,y\r\n0,1,2\r\n1,2\x85,3\r\n2,3,4\r\n".encode())  # NEL breaks the line
    @example(b"t,x,y\n")
    @example(b"")
    @settings(deadline=None, max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_arrays_or_same_error(self, tmp_path, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        assert outcome(ingest_csv, path) == outcome(reference_ingest, path)

    def test_clean_file_takes_loadtxt_path(self, tmp_path, monkeypatch, fig1):
        path = tmp_path / "fig1.csv"
        export_csv(fig1.sampled_pair(50), path)
        calls = []
        real_loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(args)
            return real_loadtxt(*args, **kwargs)

        def no_decode(data):
            raise AssertionError("clean file decoded whole")

        monkeypatch.setattr(np, "loadtxt", spy)
        monkeypatch.setattr(series, "_decode", no_decode)
        pair = ingest_csv(path)
        assert len(calls) == 1
        np.testing.assert_array_equal(pair.x.values, fig1.sampled_pair(50).x.values)

    def test_empty_body_is_insufficient_data_without_warning(self, tmp_path, child_env):
        path = tmp_path / "empty.csv"
        path.write_text("t,x,y\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData):
                ingest_csv(path)
        proc = subprocess.run(
            [sys.executable, "-m", "fracalc", "indicator", "--input", str(path), "--alpha", "0.5"],
            env=child_env, capture_output=True, text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: InsufficientData: need at least 3 data rows, got 0\n"


def _rows(stamps, newline="\n"):
    return "".join(f"{t!r},{k},{2 * k}{newline}" for k, t in enumerate(stamps))


def _shifted(k):
    # Data rows k .. 2k-1 start the second chunk and end it: only the two
    # deltas across chunk boundaries are off the step of 1.
    return "t,x,y\n" + _rows([j + 0.5 if k <= j < 2 * k else float(j) for j in range(22)])


def _nan_behind_bad_delta(k):
    # A bad delta in the first chunk, a NaN in a later one: the NaN is
    # reported, as the finiteness check comes before the delta check.
    stamps = [float(j) for j in range(22)]
    stamps[1], stamps[20] = 1.5, math.nan
    return "t,x,y\n" + _rows(stamps)


def _crlf_and_blank_lines(k):
    lines = _rows([float(j) for j in range(12)], newline="\r\n").splitlines(keepends=True)
    return "t,x,y\r\n" + "".join(line + ("\r\n\r\n" if j % 3 == 1 else "") for j, line in enumerate(lines))


# Files whose chunks of 1 to 7 lines split at each place the running grid
# check must join, and the error each gives (None: it reads).  Blank lines
# are empty: np.loadtxt refuses a line of blanks, which then goes to the
# line parser.
_CHUNKED_FILES = {
    "clean": (lambda k: "t,x,y\n" + _rows([j * (200 / 21) for j in range(22)]), None),
    "delta_across_boundary": (_shifted, "time deltas deviate from uniform step 1.0 beyond tolerance"),
    "non_finite_behind_bad_delta": (_nan_behind_bad_delta, "time stamps must be finite, got nan"),
    "overflowing_delta": (
        lambda k: "t,x,y\n0,1,2\n-1.7e308,2,3\n1.7e308,3,4\n",
        "time deltas deviate from uniform step 8.5e+307 beyond tolerance",
    ),
    "crlf_and_blank_lines": (_crlf_and_blank_lines, None),
    "chunk_of_blank_lines": (lambda k: "t,x,y\n" + "\n" * k + _rows(map(float, range(5))) + "\n" * k, None),
    "header_only": (lambda k: "t,x,y\n", "need at least 3 data rows, got 0"),
    "header_and_blank_lines": (lambda k: "t,x,y\n" + "\n" * k, "need at least 3 data rows, got 0"),
}


def reference_row_bound(data, read):
    """The row bound of an ASCII file read ``read`` bytes at a time: its LF,
    CR and CR LF breaks counted read by read, so a CR LF split between two
    reads counts twice, less the header's line."""
    reads = [data[k : k + read] for k in range(0, len(data), read)]
    breaks = sum(r.count(b"\n") + r.count(b"\r") - r.count(b"\r\n") for r in reads)
    return breaks - 1 if data.endswith((b"\n", b"\r")) else breaks


class TestIngestInChunks:
    @given(
        data=st.lists(st.sampled_from([b"1", b",", b"\r", b"\n"]), max_size=40).map(b"".join),
        read=st.sampled_from([1, 2, 3, 5, 64]),
        count_slice=st.sampled_from([1, 2, 3, 64]),
    )
    @example(data=b"1\r\n1\r\n", read=2, count_slice=64)  # a CR LF split between reads
    @example(data=b"1\r\n1\r\n", read=64, count_slice=2)  # and between slices of a read
    @settings(max_examples=300, deadline=None)
    def test_row_bound_counts_breaks_read_by_read(self, data, read, count_slice):
        old = series._SCAN_CHUNK, series._COUNT_SLICE
        series._SCAN_CHUNK, series._COUNT_SLICE = read, count_slice
        try:
            got = series._loadtxt_rows(io.BytesIO(data))
        finally:
            series._SCAN_CHUNK, series._COUNT_SLICE = old
        assert got == reference_row_bound(data, read)

    @pytest.mark.parametrize("case", _CHUNKED_FILES)
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_same_arrays_and_errors_as_line_parser(self, tmp_path, monkeypatch, case, k):
        build, message = _CHUNKED_FILES[case]
        path = tmp_path / "data.csv"
        path.write_text(build(k), encoding="utf-8", newline="")
        want = outcome(reference_ingest, path)

        def no_decode(data):
            raise AssertionError("ASCII file decoded whole")

        monkeypatch.setattr(series, "_LOADTXT_ROWS", k)
        monkeypatch.setattr(series, "_decode", no_decode)
        got = outcome(ingest_csv, path)
        assert got == want
        if message is None:
            assert isinstance(got[0], str)  # the step, not an error type
        else:
            assert got[2] == message


    @pytest.mark.parametrize("line,error", [(" \t\n", None), ("3.5,four,7\n", "line 6: not a number: 'four'")])
    def test_only_the_refused_chunk_goes_to_the_line_parser(self, tmp_path, monkeypatch, line, error):
        # Chunks of 3 lines after the header on line 1: lines 2-4, 5-7, 8-10
        # and 11.  np.loadtxt refuses line 6, a line of blanks or one that
        # is not a number.
        rows = _rows([float(j) for j in range(9)]).splitlines(keepends=True)
        rows.insert(4, line)
        path = tmp_path / "data.csv"
        path.write_text("t,x,y\n" + "".join(rows), encoding="utf-8", newline="")
        want = outcome(reference_ingest, path)
        parsed = []
        real_parse_rows = series._parse_rows

        def spy(lines, first_line):
            lines = list(lines)
            parsed.append((first_line, lines))
            return real_parse_rows(lines, first_line)

        def no_decode(data):
            raise AssertionError("ASCII file decoded whole")

        monkeypatch.setattr(series, "_LOADTXT_ROWS", 3)
        monkeypatch.setattr(series, "_parse_rows", spy)
        monkeypatch.setattr(series, "_decode", no_decode)
        assert outcome(ingest_csv, path) == want
        first_line = 5
        assert parsed == [(first_line, rows[first_line - 2 : first_line + 1])]
        if error is None:
            assert isinstance(want[0], str)  # the step, not an error type
        else:
            assert want == (ParseError, 6, error)


class TestRoundTrip:
    def test_export_then_ingest_is_bit_exact(self, tmp_path, fig1):
        pair = fig1.sampled_pair(157)  # h = 200/157 is not a round float
        path = tmp_path / "pair.csv"
        export_csv(pair, path)
        back = ingest_csv(path)
        np.testing.assert_array_equal(back.x.values, pair.x.values)
        np.testing.assert_array_equal(back.y.values, pair.y.values)
        assert np.isclose(back.x.h, pair.x.h, rtol=1e-15)

    def test_export_to_file_object(self, tmp_path, fig1):
        pair = fig1.sampled_pair(10)
        path = tmp_path / "obj.csv"
        with open(path, "w", encoding="utf-8") as f:
            export_csv(pair, f)
        assert ingest_csv(path).x.n_steps == 10

    def test_polynomial_pair_cannot_export(self, tmp_path, fig1):
        with pytest.raises(DomainError):
            export_csv(fig1.pair(), tmp_path / "x.csv")
