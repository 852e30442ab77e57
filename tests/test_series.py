import codecs
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fracalc import (
    DemoId,
    DomainError,
    FracalcError,
    IndicatorPair,
    InsufficientData,
    NonUniformGrid,
    ParseError,
    Polynomial,
    SampledSeries,
    demo_process,
    export_csv,
    ingest_csv,
    sample,
    series,
)


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

    def test_lookup_by_name(self):
        assert demo_process("fig1").id is DemoId.FIG1
        assert demo_process("FIG2").id is DemoId.FIG2

    def test_unknown_name_rejected(self):
        with pytest.raises(DomainError):
            demo_process("fig3")

    def test_sampled_pair_takes_a_horizon(self, fig1):
        pair = fig1.sampled_pair(100, 350.0)
        assert (fig1.sampled_pair(100).y.t_end, pair.y.t_end) == (200.0, 350.0)
        np.testing.assert_array_equal(pair.y.values, sample(fig1.y, 350.0, 100).values)


class TestSample:
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

    It differs from that reader only in the two documented encoding changes:
    a leading byte-order mark is skipped, and invalid UTF-8 is a ParseError
    naming the line of the first bad byte.
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
    if np.max(np.abs(np.diff(t) - h)) > 1e-9 * h:
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

        def no_fallback(data):
            raise AssertionError("line parser used on a clean file")

        monkeypatch.setattr(series.np, "loadtxt", spy)
        monkeypatch.setattr(series, "_parse_lines", no_fallback)
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
