import json
import pkgutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fracalc
from fracalc import (
    DomainError,
    Polynomial,
    alpha_sweep,
    caputo_derivative,
    demo_process,
    detect_multivalued,
    export_csv,
    ingest_csv,
    sample,
    t_indicator,
    t_indicator_time,
)
from fracalc import _kernels, cli, series
from fracalc.cli import _parse_alpha_spec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Input files that tests name by a relative path: the ``csv_dir`` fixture
# writes each into the test's own directory and makes it the working one.
CSV_FILES = {
    "pair.csv": "t,x,y\n0,1,2\n1,2,5\n2,3,10\n3,4,17\n",
    # A constant factor: every positive order is degenerate.
    "flat.csv": "t,x,y\n" + "".join(f"{t},5.0,{t * t}\n" for t in range(6)),
    # Samples 1e-320 apart.
    "tiny.csv": "t,x,y\n0,1,2\n1e-320,2,3\n2e-320,4,5\n3e-320,5,9\n4e-320,7,9\n",
    # Y/X = 2e300 / 2e-300 overflows.
    "huge.csv": "t,x,y\n0,0,0\n1,1e-300,1e300\n2,2e-300,2e300\n",
    # A step of 5e-324.
    "step.csv": "t,x,y\n" + "".join(f"{k * 5e-324!r},{k},{k * k}\n" for k in range(11)),
    # A step between finite samples, -1.7e308 to 1.7e308, that is not finite.
    "huge-step.csv": "t,x,y\n0,-1.7e308,1\n1,1.7e308,2\n2,1,3\n3,1,4\n",
}


@pytest.fixture
def csv_dir(tmp_path, monkeypatch):
    for name, text in CSV_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestDemoCommand:
    def test_fig1_curve_goldens(self, capsys):
        code, out, err = run_cli(capsys, "demo", "fig1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "y"]
        assert len(rows) == 2001
        first = [float(c) for c in rows[0]]
        last = [float(c) for c in rows[-1]]
        assert first == [70.0, 1400.0]
        assert last == [70.0, 1200.0]
        xs = np.array([float(r[0]) for r in rows])
        assert abs(xs.min() - 60.0) <= 1e-9
        assert xs.argmin() == 1000  # t = 100 on the default grid
        assert "witness pair" in err and out.count("witness") == 0

    def test_fig2_curve_goldens(self, capsys):
        code, out, err = run_cli(capsys, "demo", "fig2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2001
        assert [float(c) for c in rows[0]] == [70.0, 1700.0]

    def test_json_has_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "fig1", "--format", "json", "--N", "500")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "demo"
        assert len(doc["results"]) == 501
        assert doc["multivalued"]["count"] >= 1
        assert {"t1", "t2"} <= set(doc["multivalued"]["witnesses"][0])

    @pytest.mark.parametrize("block", [1, _kernels._BLOCK_ELEMENTS])
    @pytest.mark.parametrize("demo", ["fig1", "fig2"])
    @pytest.mark.parametrize("flags", [(), ("--y-tol", "1e9")], ids=["default-tol", "no-witness"])
    def test_json_witnesses_are_the_library_s(self, capsys, monkeypatch, block, demo, flags):
        # demo counts the scan's blocks and keeps the first ten witnesses;
        # blocks of one row each spread those ten over several blocks.
        monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", block)
        code, out, err = run_cli(capsys, "demo", demo, "--format", "json", *flags)
        got = json.loads(out)["multivalued"]
        d = demo_process(demo)
        xs, ys = sample(d.x, d.t_end, 2000), sample(d.y, d.t_end, 2000)
        t1, t2 = detect_multivalued(xs, ys, got["x_tol"], got["y_tol"])
        assert code == 0 and (t1.size > 10) == (not flags)
        assert got["count"] == t1.size
        assert got["witnesses"] == [{"t1": a, "t2": b} for a, b in zip(t1[:10].tolist(), t2[:10].tolist())]
        assert err.startswith(f"multivalued dependence ({demo}): {t1.size} witness pair(s) ")

    def test_output_file_keeps_report_on_stdout(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "demo", "fig1", "--output", str(target))
        assert code == 0
        assert target.read_text().startswith("x,y\n70.0,1400.0\n")
        assert "witness pair" in out and err == ""

    @pytest.mark.parametrize(
        "flag", [("--input", "x.csv"), ("--T", "5"), ("--alpha", "0.5"), ("--engine", "numeric")],
        ids=lambda flag: flag[0],
    )
    def test_rejects_flags_it_does_not_read(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["demo", "fig1", "--N", "100", *flag])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        # The usage line is demo's own, not the top-level list of commands.
        assert err.startswith("usage: fracalc demo [-h] [--N VALUE]")
        assert err.endswith(f"\nfracalc demo: error: unrecognized arguments: {' '.join(flag)}\n")


class TestSweepCommand:
    def test_fig1_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--demo", "fig1", "--alpha", "0:1:0.5", "--T", "200")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["alpha", "value"]
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
        assert float(rows[0][1]) == pytest.approx(1200.0 / 70.0, rel=1e-12)
        assert float(rows[1][1]) == pytest.approx(-5.0, abs=1e-8)
        assert float(rows[2][1]) == pytest.approx(5.0, rel=1e-12)

    def test_degenerate_rows_have_empty_cells(self, capsys, csv_dir):
        code, out, _ = run_cli(capsys, "sweep", "--input", "flat.csv", "--alpha", "0:1:0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] != ""  # order 0: x(T) = 5
        assert rows[1] == ["0.5", ""]
        assert rows[2] == ["1.0", ""]

    def test_degenerate_rows_in_json(self, capsys, csv_dir):
        code, out, _ = run_cli(capsys, "sweep", "--input", "flat.csv", "--alpha", "0.5", "--format", "json")
        assert code == 0
        entry = json.loads(out)["results"][0]
        assert entry == {"alpha": 0.5, "value": None, "degenerate": True}

    def test_numeric_engine_on_demo(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--demo", "fig1", "--engine", "numeric",
            "--alpha", "0:1:0.25", "--N", "4000",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5

    def test_determinism(self, capsys):
        args = ("sweep", "--demo", "fig2", "--alpha", "0:1.5:0.1", "--T", "240")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestIndicatorCommand:
    def test_on_ingested_pair(self, capsys, tmp_path, fig1):
        path = tmp_path / "fig1.csv"
        export_csv(fig1.sampled_pair(2000), path)
        code, out, _ = run_cli(capsys, "indicator", "--input", str(path), "--alpha", "1", "--T", "200")
        assert code == 0
        _, rows = parse_csv(out)
        values = {row[0]: float(row[2]) for row in rows}
        assert values["marginal"] == pytest.approx(5.0, abs=1e-2)
        assert values["average"] == pytest.approx(1200.0 / 70.0, rel=1e-9)
        assert values["t_indicator"] == pytest.approx(5.0, abs=1e-2)

    @pytest.mark.parametrize(
        "edit,stderr",
        [
            pytest.param(None, b"", id="None"),
            pytest.param(lambda line: b"1,zzz,4\n", b"error: ParseError: line 41: not a number: 'zzz'\n", id="41"),
            pytest.param(lambda line: line.replace(b",", "\xa0,\xa0".encode(), 1), b"", id="nbsp"),
            pytest.param(
                lambda line: b"\xff" + line,
                b"error: ParseError: line 41: not UTF-8 text (invalid start byte: b'\\xff')\n",
                id="not_utf8",
            ),
        ],
    )
    def test_pipe_reads_as_the_file(self, tmp_path, child_env, fig1, edit, stderr):
        # /dev/stdin on a pipe cannot seek, so its bytes are held and then
        # parsed as the file's are, non-ASCII or not.  The output, or the
        # ParseError naming the bad line, is the file's; a cell padded by
        # U+00A0 reads as without.
        path = tmp_path / "fig1.csv"
        export_csv(fig1.sampled_pair(200), path)

        def run(source, data=None):
            argv = [sys.executable, "-W", "error", "-m", "fracalc", "indicator", "--input", source, "--alpha", "0.5"]
            return subprocess.run(argv, input=data, env=child_env, capture_output=True)

        clean = run(str(path))
        if edit is not None:
            lines = path.read_bytes().splitlines(keepends=True)
            lines[40] = edit(lines[40])
            path.write_bytes(b"".join(lines))
        piped, direct = run("/dev/stdin", path.read_bytes()), run(str(path))
        assert (piped.returncode, piped.stdout, piped.stderr) == (direct.returncode, direct.stdout, direct.stderr)
        assert direct.stderr == stderr
        if stderr:
            assert direct.stdout == b""
        else:
            assert direct.stdout.startswith(b"kind,alpha,value\n") and direct.stdout == clean.stdout

    def test_order_one_repeats_the_marginal(self, capsys, fig1):
        # The orders are (0, 1, 1): the repeated order prints the marginal's value.
        got = run_cli(capsys, "indicator", "--demo", "fig1", "--alpha", "1", "--T", "150")
        marginal = t_indicator(fig1.pair(), 1.0, 150.0)
        rows = f"average,0.0,18.8\nmarginal,1.0,{marginal!r}\nt_indicator,1.0,{marginal!r}\n"
        assert got == (0, "kind,alpha,value\n" + rows, "")

    def test_analytic_demo_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "indicator", "--demo", "fig1", "--alpha", "0.5", "--T", "200",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        kinds = {r["kind"]: r for r in doc["results"]}
        assert kinds["t_indicator"]["value"] == pytest.approx(-5.0, abs=1e-8)
        assert doc["params"]["alpha"] == "0.5"

    @pytest.mark.parametrize("alpha", ["0.7", "1.4"])
    @pytest.mark.parametrize("kind", ["sampled", "polynomial"])
    def test_rows_equal_library_indicators(self, capsys, tmp_path, fig2, kind, alpha):
        # The three rows come from one evaluation of the pair at all three
        # orders; each must equal its one-order library function.
        if kind == "sampled":
            path = tmp_path / "fig2.csv"
            export_csv(fig2.sampled_pair(1000), path)
            pair, source = ingest_csv(path), ("--input", str(path))
        else:
            pair, source = fig2.pair(), ("--demo", "fig2")
        code, out, _ = run_cli(capsys, "indicator", *source, "--alpha", alpha, "--T", "120")
        assert code == 0
        a = float(alpha)
        want = [t_indicator(pair, 0.0, 120.0), t_indicator(pair, 1.0, 120.0), t_indicator(pair, a, 120.0)]
        assert [float(row[2]) for row in parse_csv(out)[1]] == want


class TestDerivCommand:
    def test_analytic_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0.5", "--T", "1")
        assert code == 0
        _, rows = parse_csv(out)
        want = caputo_derivative(Polynomial((0.0, 0.0, 1.0)), 0.5, 1.0)
        assert float(rows[0][1]) == want

    def test_numeric_matches_analytic(self, capsys):
        _, out_a, _ = run_cli(capsys, "deriv", "--coeffs", "0,1,1", "--alpha", "0.5", "--T", "2")
        code, out_n, _ = run_cli(
            capsys, "deriv", "--coeffs", "0,1,1", "--engine", "numeric",
            "--alpha", "0.5", "--T", "2", "--N", "4096",
        )
        assert code == 0
        va = float(parse_csv(out_a)[1][0][1])
        vn = float(parse_csv(out_n)[1][0][1])
        assert vn == pytest.approx(va, rel=5e-3)

    def test_csv_column_selection(self, capsys, tmp_path, fig1):
        path = tmp_path / "fig1.csv"
        export_csv(fig1.sampled_pair(1000), path)
        code, out, _ = run_cli(capsys, "deriv", "--input", str(path), "--column", "x", "--alpha", "1")
        assert code == 0
        # X'(200) = 0.2
        assert float(parse_csv(out)[1][0][1]) == pytest.approx(0.2, abs=1e-3)

    @pytest.mark.parametrize("column", ["x", "y"])
    def test_column_beside_coeffs_rejected(self, capsys, column):
        argv = ["deriv", "--coeffs", "0,0,1", "--alpha", "0.5", "--T", "1", "--column", column]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: DomainError: --column selects a column of --input; a polynomial has none\n"

    def test_alpha_range_emits_multiple_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0.25:0.75:0.25", "--T", "1"
        )
        assert code == 0
        assert len(parse_csv(out)[1]) == 3

    def test_degree_150_monomial_is_finite(self, capsys):
        # Gamma(151)/Gamma(150.5): the gamma values are large but finite.
        coeffs = ",".join(["0"] * 150 + ["1"])
        code, out, err = run_cli(capsys, "deriv", "--coeffs", coeffs, "--alpha", "0.5", "--T", "1")
        assert (code, out, err) == (0, "alpha,value\n0.5,12.257659156029481\n", "")

    def test_alpha_range_equals_single_orders(self, capsys):
        # All orders of a call are evaluated together; each row must equal
        # the one-order call.
        argv = ["deriv", "--coeffs", "1,-2,0.5,0.25", "--T", "1.5"]
        code, out, _ = run_cli(capsys, *argv, "--alpha", "0:1.75:0.125")
        assert code == 0
        rows = parse_csv(out)[1]
        assert len(rows) == 15
        for alpha, value in rows:
            assert run_cli(capsys, *argv, "--alpha", alpha)[1].splitlines()[1] == f"{alpha},{value}"

    def test_input_range_equals_single_orders(self, capsys, tmp_path, fig1):
        # One kernel pass serves every order of the range, those in (1, 2)
        # included; each row must equal the one-order library call.
        path = tmp_path / "fig1.csv"
        export_csv(fig1.sampled_pair(1000), path)
        code, out, _ = run_cli(capsys, "deriv", "--input", str(path), "--alpha", "0:1.95:0.05")
        assert code == 0
        series = ingest_csv(path).y
        rows = parse_csv(out)[1]
        assert len(rows) == 40
        assert [float(v) for _, v in rows] == [caputo_derivative(series, float(a)) for a, _ in rows]

    def test_polynomial_needs_time(self, capsys):
        code, out, err = run_cli(capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0.5")
        assert (code, out, err) == (1, "", "error: DomainError: polynomial input needs an explicit --T\n")

    def test_order_zero_at_time_zero_is_evaluation(self, capsys):
        # Order 0 is plain evaluation, defined at T = 0 as in `sweep`.
        code, out, err = run_cli(capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0", "--T", "0")
        assert (code, out, err) == (0, "alpha,value\n0.0,0.0\n", "")


class TestAlphaSpec:
    def test_decimal_range_has_no_float_noise(self, capsys):
        assert _parse_alpha_spec("0:1:0.1") == tuple(float(f"0.{i}") for i in range(10)) + (1.0,)
        code, out, _ = run_cli(capsys, "sweep", "--demo", "fig2", "--alpha", "0:1:0.1", "--T", "385")
        assert code == 0
        assert [row[0] for row in parse_csv(out)[1]][3] == "0.3"

    def test_exponent_literals(self):
        assert _parse_alpha_spec("1e-5") == (1e-5,)
        assert _parse_alpha_spec("1e-5:3E-5:1e-5") == (1e-05, 2e-05, 3e-05)
        assert _parse_alpha_spec("0:1e-4:1e-5") == tuple(float(f"{k}e-5") for k in range(11))

    @pytest.mark.parametrize(
        "spec", ["0:1:0.01", "0.05:0.95:0.05", "1.5:2:0.125", "0:1:0.00005", "2.5e-3:1.1e-2:5e-4", "0.1:0.7:1_0e-2"]
    )
    def test_each_order_is_the_nearest_double(self, spec):
        start, stop, step = (Fraction(p.replace("_", "")) for p in spec.split(":"))
        count = int((stop - start) / step) + 1
        assert _parse_alpha_spec(spec) == tuple(float(start + i * step) for i in range(count))

    def test_last_order_never_passes_stop(self):
        assert _parse_alpha_spec("0:0.9999999999:0.1")[-1] == 0.9
        assert _parse_alpha_spec("0.1:0.3:0.1") == (0.1, 0.2, 0.3)

    def test_literal_forms(self):
        assert _parse_alpha_spec(" +.5 : 5. : 1.5 ") == (0.5, 2.0, 3.5, 5.0)
        assert _parse_alpha_spec("0e-999:1:0.5") == (0.0, 0.5, 1.0)
        assert _parse_alpha_spec("5e-324:1e-323:5e-324") == (5e-324, 1e-323)

    LONG = "0:1:0." + "0" * 64 + "1"
    BAD_SPECS = {
        "abc": "--alpha must be a number or START:STOP:STEP, got 'abc'",
        "a:1:0.1": "--alpha must be a number or START:STOP:STEP, got 'a'",
        "0:inf:0.1": "alpha range must be finite numbers, got '0:inf:0.1'",
        "0:1:nan": "alpha range must be finite numbers, got '0:1:nan'",
        "0:1:0": "alpha range step must be > 0, got '0'",
        "0:1:-0.1": "alpha range step must be > 0, got '-0.1'",
        "0:1e-300:1e-310": "alpha range lists more than 1000000 orders, got '0:1e-300:1e-310'",
        "0:1:1e-401": "alpha range literals need at most 400 decimal places, got '0:1:1e-401'",
        LONG: f"alpha range literals need at most 64 characters, got {LONG!r}",
        "1:0:0.5": "alpha range needs start <= stop, got '1:0:0.5'",
    }

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_bad_spec_fails_cleanly(self, capsys, spec):
        got = run_cli(capsys, "sweep", "--demo", "fig2", "--alpha", spec, "--T", "385")
        assert got == (1, "", f"error: DomainError: {self.BAD_SPECS[spec]}\n")


class TestErrorMapping:
    def test_missing_file_fails_cleanly(self, capsys):
        got = run_cli(capsys, "sweep", "--input", "/no/such/file.csv", "--alpha", "0.5")
        assert got == (1, "", "error: FileNotFoundError: [Errno 2] No such file or directory: '/no/such/file.csv'\n")

    def test_degenerate_marginal_maps_to_error(self, capsys):
        # X'(100) = 0 for fig1: the marginal, the first degenerate order of
        # the three, is the one named, and nothing reaches the data stream.
        code, out, err = run_cli(capsys, "indicator", "--demo", "fig1", "--alpha", "0.5", "--T", "100")
        assert (code, out) == (1, "")
        assert err == "error: DenominatorNearZero: factor derivative is 0.0, below threshold for scale 0.2\n"

    # fig1's default tolerances at N = 200: one grid cell of X, ten of Y.
    TOLERANCES = {
        "--x-tol": "tolerances must be finite and > 0, got x_tol={}, y_tol=29.90000000000009",
        "--y-tol": "tolerances must be finite and > 0, got x_tol=0.19899999999999807, y_tol={}",
    }

    @pytest.mark.parametrize("flag", ["--x-tol", "--y-tol"])
    def test_nan_tolerance_fails(self, capsys, flag):
        got = run_cli(capsys, "demo", "fig1", "--N", "200", flag, "nan")
        assert got == (1, "", f"error: DomainError: {self.TOLERANCES[flag].format('nan')}\n")

    def test_refused_tolerance_writes_no_file(self, capsys, tmp_path):
        # The tolerances are checked before the output file is opened.
        target = tmp_path / "curve.csv"
        got = run_cli(capsys, "demo", "fig1", "--N", "200", "--x-tol", "nan", "--output", str(target))
        assert got == (1, "", f"error: DomainError: {self.TOLERANCES['--x-tol'].format('nan')}\n")
        assert not target.exists()

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("indicator", "--demo", "fig1", "--alpha", "0.5", "--T"), "end time must be finite and > 0, got T={}"),
            (("demo", "fig1", "--N", "200", "--x-tol"), TOLERANCES["--x-tol"]),
            (("demo", "fig1", "--N", "200", "--y-tol"), TOLERANCES["--y-tol"]),
        ],
        ids=["--T", "--x-tol", "--y-tol"],
    )
    def test_negative_non_number_fails(self, capsys, argv, message, value):
        want = f"error: DomainError: {message.format(repr(float(value)))}\n"
        assert run_cli(capsys, *argv, value) == (1, "", want)

    # The file is never opened: each check comes before the read.
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("sweep", "--demo", "fig1", "--alpha", "0:1"), "alpha range must be START:STOP:STEP, got '0:1'"),
            (
                ("indicator", "--input", "missing.csv", "--engine", "analytic", "--alpha", "0.5"),
                "CSV input is sampled data; use the numeric engine",
            ),
            (("sweep", "--alpha", "0.5"), "need --input PATH or --demo fig1|fig2"),
            (("deriv", "--coeffs", "1,2"), "deriv needs --alpha"),
            (
                ("deriv", "--input", "missing.csv", "--engine", "analytic", "--alpha", "0.5"),
                "analytic engine needs --coeffs",
            ),
            (("sweep", "--demo", "fig1"), "sweep needs --alpha (a value or START:STOP:STEP)"),
            (("deriv", "--alpha", "0.5"), "need --coeffs or --input"),
            (("indicator", "--demo", "fig1", "--alpha", "0:1:0.5"), "this command takes a single --alpha value"),
        ],
        ids=[
            "short_range", "analytic_csv", "no_input", "deriv_no_alpha", "deriv_analytic_csv", "sweep_no_alpha",
            "deriv_no_source", "indicator_range",
        ],
    )
    def test_argument_errors_name_the_fix(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (1, "", f"error: DomainError: {message}\n")

    def test_trailing_time_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["indicator", "--demo", "fig1", "--alpha", "0.5", "--T"])
        assert exc.value.code == 2
        assert "argument --T: expected one argument" in capsys.readouterr().err
        # A dash token that is not a number is not joined to --T as its value.
        with pytest.raises(SystemExit) as exc:
            main(["indicator", "--demo", "fig1", "--alpha", "0.5", "--T", "-x"])
        assert exc.value.code == 2
        assert "argument --T: expected one argument" in capsys.readouterr().err

    def test_byte_order_mark_accepted(self, capsys, tmp_path):
        body = b"t,x,y\r\n0,1,2\r\n1,2,5\r\n2,3,10\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        _, want, _ = run_cli(capsys, "indicator", "--input", str(plain), "--alpha", "0.5")
        code, out, err = run_cli(capsys, "indicator", "--input", str(marked), "--alpha", "0.5")
        assert code == 0 and err == ""
        assert out == want.replace("plain.csv", "marked.csv") and out.startswith("kind,alpha,value\n")

    def test_overflow_names_first_order(self, capsys):
        # T^(2-a) overflows at every order of the range; the first is named.
        # So is an integer order whose value overflows, and a sum of finite
        # power-rule terms that overflows.
        for argv, order, T in [
            (("deriv", "--coeffs", "0,0,1", "--alpha", "0.25:0.75:0.25", "--T", "1e250"), "0.25", "1e+250"),
            (("sweep", "--demo", "fig1", "--alpha", "0:1:1", "--T", "1e300"), "0.0", "1e+300"),
            (("deriv", "--coeffs", "0,0,1e308", "--alpha", "0.5", "--T", "100"), "0.5", "100.0"),
        ]:
            want = f"error: DomainError: order-{order} derivative overflows at T={T}\n"
            assert run_cli(capsys, *argv) == (1, "", want)

    @pytest.mark.parametrize(
        "command,alpha,order",
        [("deriv", "0.99", "0.99"), ("indicator", "0.99", "1.0"), ("indicator", "0.5", "1.0"), ("deriv", "1.5", "1.5")],
    )
    def test_overflow_on_samples_names_first_order(self, capsys, csv_dir, command, alpha, order):
        # Samples 1e-320 apart: h^-0.99, the three-point difference of the
        # marginal, which `indicator` takes first, and order 1.5's differences
        # over 2h overflow without a warning.
        code, out, err = run_cli(capsys, command, "--input", "tiny.csv", "--alpha", alpha)
        assert (code, out) == (1, "")
        assert err == f"error: DomainError: order-{order} derivative overflows at h=1e-320\n"

    @pytest.mark.parametrize(
        "argv,want",
        [
            (("sweep", "--input", "step.csv", "--T", "7", "--alpha", "1e-300"),
             (1, "", "error: DomainError: t=7.0 is beyond the sampled range [0, 5e-323]\n")),
            (("sweep", "--input", "step.csv", "--T", "-1", "--alpha", "0.5"),
             (1, "", "error: DomainError: t=-1.0 is beyond the sampled range [0, 5e-323]\n")),
            (("sweep", "--demo", "fig1", "--engine", "numeric", "--N", "3", "--T", "1.7976931348623157e308",
              "--alpha", "3.7"),
             (1, "", "error: DomainError: all sample values must be finite\n")),
            (("deriv", "--coeffs", "5", "--engine", "numeric", "--N", "3", "--T", "1.7976931348623157e308",
              "--alpha", "0.5"),
             (1, "", "error: DomainError: span N*h must be finite, got N=3, h=5.992310449541053e+307\n")),
            (("demo", "fig2", "--N", "3", "--x-tol", "1.7976931348623157e308"),
             (0,
              "x,y\n70.0,1700.0\n50.815872000000006,1559.2000000000003\n"
              "59.37395200000001,1495.2000000000003\n61.68563200000003,1815.1999999999994\n",
              "multivalued dependence (fig2): 0 witness pair(s) at x_tol=1.7976931348623157e+308, "
              "y_tol=3199.999999999991\n")),
            (("sweep", "--input", "huge-step.csv", "--alpha", "1"), (0, "alpha,value\n1.0,\n", "")),
            (("deriv", "--input", "huge-step.csv", "--column", "x", "--alpha", "0.5"),
             (1, "", "error: DomainError: order-0.5 derivative overflows at h=1.0\n")),
            (("sweep", "--input", "pair.csv", "--T=-1", "--alpha", "0.5"),
             (1, "", "error: DomainError: t=-1.0 is beyond the sampled range [0, 3.0]\n")),
        ],
        ids=["t-over-h-beyond", "t-over-h-below", "sample-times", "sample-span", "x-tol-spacing", "guard-scale",
             "kernel-step", "t-before-start"],
    )
    def test_float_edges_end_without_warning(self, capsys, csv_dir, argv, want):
        # Each ends in the documented way, with no numpy warning, which
        # pytest turns into an error: t / h overflows on a grid of step
        # 5e-324, the sample times at T near the float range, whose span N*h
        # rounds to inf even where the samples are finite, the factor's
        # search window at x_tol near it, and a step between finite samples
        # (-1.7e308 to 1.7e308) in the guard's scale and in the kernel, where
        # the order reads as degenerate and as overflowing.  A negative T is
        # out of the sampled range on an ordinary grid as on the tiny one.
        assert run_cli(capsys, *argv) == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command,source",
        [("deriv", "--coeffs=0,0,1e300"), ("indicator", "--input"), ("sweep", "--input")],
    )
    def test_non_finite_result_fails(self, capsys, csv_dir, fmt, command, source):
        # Y/X = 2e300 / 2e-300 overflows; the tiny factor still passes the
        # scale-relative degeneracy guard.  `indicator` takes the average,
        # order 0, first.  The polynomial's derivative overflows itself.
        argv = [command, source, "--alpha", "0.5", "--format", fmt]
        if source == "--input":
            argv.insert(2, "huge.csv")
        else:
            argv += ["--T", "1e10"]
        want = {
            "deriv": "order-0.5 derivative overflows at T=10000000000.0",
            "indicator": "result at alpha=0.0 is not finite: inf",
            "sweep": "result at alpha=0.5 is not finite: inf",
        }[command]
        assert run_cli(capsys, *argv) == (1, "", f"error: DomainError: {want}\n")

    @pytest.mark.parametrize("T", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["deriv", "indicator"])
    def test_non_finite_time_on_input_fails(self, capsys, csv_dir, command, T):
        got = run_cli(capsys, command, "--input", "pair.csv", "--alpha", "0.5", "--T", T)
        assert got == (1, "", f"error: DomainError: truncation time must be finite, got t={T}\n")

    @pytest.mark.parametrize(
        "text,error",
        [
            ("t,x,y\n0,1,2\nnan,2,5\n2,3,10\n3,4,17\n", "DomainError: time stamps must be finite, got nan"),
            ("t,x,y\n0,1,2\n1,2,5\n2,3,10\ninf,4,17\n", "DomainError: time stamps must be finite, got inf"),
            ("t,x,y\n-1.7e308,1,2\n1.7e308,2,3\n1.75e308,3,4\n", "DomainError: step must be finite and > 0, got h=inf"),
            (
                "t,x,y\n0,1,2\n-1.7e308,2,3\n1.7e308,3,4\n",
                "NonUniformGrid: time deltas deviate from uniform step 8.5e+307 beyond tolerance",
            ),
        ],
        ids=["nan_inside", "inf_last", "overflowing_span", "overflowing_delta"],
    )
    def test_non_finite_time_stamp_fails(self, tmp_path, child_env, text, error):
        # In a child run with warnings as errors, so that a numpy warning
        # before the error would end in a traceback.  Stamps near the float
        # range are finite, but their span or a delta between them is not.
        path = tmp_path / "pair.csv"
        path.write_text(text)
        argv = ["indicator", "--input", str(path), "--alpha", "0.5"]
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "fracalc", *argv], env=child_env, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {error}\n"

    @pytest.mark.parametrize("n", [10**15, 10**30])
    def test_unallocatable_resolution_fails(self, capsys, n):
        # 8 bytes per sample is beyond any 47-bit address space, so numpy
        # refuses the allocation without touching memory.
        code, out, err = run_cli(
            capsys, "sweep", "--demo", "fig1", "--engine", "numeric", "--N", str(n), "--alpha", "0.5"
        )
        assert code == 1
        assert out == ""
        assert err == f"error: DomainError: N={n} samples do not fit in memory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("indicator", "--demo", "fig1", "--alpha", "0.5", "--N", "-5"),
            ("sweep", "--demo", "fig2", "--alpha", "0:1:0.5", "--N", "1"),
            ("deriv", "--coeffs", "0,0,1", "--alpha", "0.5", "--T", "1", "--N", "0"),
            ("deriv", "--input", "unread.csv", "--alpha", "0.5", "--N", "1"),
            ("demo", "fig1", "--N", "1"),
        ],
        ids=["indicator-analytic", "sweep-analytic", "deriv-coeffs", "deriv-input", "demo"],
    )
    def test_resolution_below_two_fails_on_every_path(self, capsys, argv):
        # Also where nothing is sampled: --N is checked before any input is read.
        n = argv[-1]
        assert run_cli(capsys, *argv) == (1, "", f"error: DomainError: need n >= 2 sampling steps, got {n}\n")

    @pytest.mark.parametrize(
        "argv,error",
        [
            (("indicator", "--input", "", "--demo", "fig1", "--alpha", "0.5"),
             "DomainError: give --input or --demo, not both"),
            (("deriv", "--coeffs", "0,1", "--input", "", "--alpha", "0.5", "--T", "1"),
             "DomainError: give --coeffs or --input, not both"),
            (("deriv", "--coeffs", "", "--alpha", "0.5", "--T", "1"),
             "DomainError: --coeffs must be comma-separated numbers, got ''"),
            (("sweep", "--demo", "fig1", "--alpha", ""),
             "DomainError: --alpha must be a number or START:STOP:STEP, got ''"),
            (("sweep", "--input", "", "--alpha", "0.5"),
             "FileNotFoundError: [Errno 2] No such file or directory: ''"),
        ],
        ids=["indicator-input", "deriv-input", "deriv-coeffs", "sweep-alpha", "sweep-input"],
    )
    def test_empty_value_counts_as_given(self, capsys, argv, error):
        assert run_cli(capsys, *argv) == (1, "", f"error: {error}\n")


class TestOneTimeCheck:
    """A bad evaluation time has one message, on either engine."""

    LIBRARY = {
        "caputo_poly": lambda pair, T: caputo_derivative(pair.y, 0.5, T),
        "t_indicator": lambda pair, T: t_indicator(pair, 0.5, T),
        "alpha_sweep": lambda pair, T: alpha_sweep(pair, [0.5], T),
        "t_indicator_time": lambda pair, T: t_indicator_time(pair.y, 0.5, T),
        "sample": lambda pair, T: sample(pair.y, T, 2000),
    }
    CLI = {
        "deriv": ("deriv", "--coeffs", "1400,-3,0.01"),
        "indicator": ("indicator", "--demo", "fig1"),
        "sweep": ("sweep", "--demo", "fig1"),
        # The numeric engine samples the polynomial on [0, T] first.
        "deriv-numeric": ("deriv", "--coeffs", "1400,-3,0.01", "--engine", "numeric"),
        "indicator-numeric": ("indicator", "--demo", "fig1", "--engine", "numeric"),
        "sweep-numeric": ("sweep", "--demo", "fig1", "--engine", "numeric"),
    }

    @pytest.mark.parametrize("T", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("entry", [*LIBRARY, *CLI])
    def test_bad_time_has_one_message(self, capsys, fig1, entry, T):
        want = f"end time must be finite and > 0, got T={float(T)!r}"
        if entry in self.LIBRARY:
            with pytest.raises(DomainError) as exc:
                self.LIBRARY[entry](fig1.pair(), float(T))
            assert str(exc.value) == want
        else:
            code, out, err = run_cli(capsys, *self.CLI[entry], "--alpha", "0.5", "--T", T)
            assert (code, out, err) == (1, "", f"error: DomainError: {want}\n")


class TestOutputBytes:
    """The output layouts of `sweep`, `indicator`, `deriv` and `demo`, byte for byte.

    Values that depend on the platform's libm come from the library, so the
    comparison pins the layout: header, cell order, empty cells, JSON keys,
    their order and the indentation.  The demo curve at N = 4 is exact in
    binary, so it is written out.
    """

    DEMO = ("demo", "fig1", "--N", "4", "--x-tol", "1e-9", "--y-tol", "1")
    DEMO_CSV = "x,y\n70.0,1400.0\n62.5,1275.0\n60.0,1200.0\n62.5,1175.0\n70.0,1200.0\n"
    DEMO_REPORT = (
        "multivalued dependence (fig1): 2 witness pair(s) at x_tol=1e-09, y_tol=1.0\n"
        "  e.g. t1=0.0, t2=200.0: X 70.0 ~= 70.0 but Y 1400.0 vs 1200.0\n"
    )

    def test_sweep_csv(self, capsys, csv_dir):
        got = run_cli(capsys, "sweep", "--input", "flat.csv", "--alpha", "0:1:0.5")
        assert got == (0, "alpha,value\n0.0,5.0\n0.5,\n1.0,\n", "")

    def test_sweep_json(self, capsys, csv_dir):
        # A relative path keeps the JSON params fixed.
        got = run_cli(capsys, "sweep", "--input", "flat.csv", "--alpha", "0:1:0.5", "--format", "json")
        row = '    {{\n      "alpha": {},\n      "value": {},\n      "degenerate": {}\n    }}'
        want = (
            '{\n  "command": "sweep",\n  "params": {\n    "engine": null,\n'
            '    "alpha": "0:1:0.5",\n    "T": null,\n    "N": 2000,\n'
            '    "input": "flat.csv",\n    "demo": null,\n    "format": "json"\n  },\n'
            '  "results": [\n'
            + ",\n".join([row.format("0.0", "5.0", "false"), row.format("0.5", "null", "true"),
                          row.format("1.0", "null", "true")])
            + "\n  ]\n}\n"
        )
        assert got == (0, want, "")

    def test_indicator_json(self, capsys, fig1):
        got = run_cli(capsys, "indicator", "--demo", "fig1", "--alpha", "0.5", "--T", "200", "--format", "json")
        pair = fig1.pair()
        rows = [
            ("average", 0.0, t_indicator(pair, 0.0, 200.0)),
            ("marginal", 1.0, t_indicator(pair, 1.0, 200.0)),
            ("t_indicator", 0.5, t_indicator(pair, 0.5, 200.0)),
        ]
        want = (
            '{\n  "command": "indicator",\n  "params": {\n    "engine": null,\n'
            '    "alpha": "0.5",\n    "T": 200.0,\n    "N": 2000,\n'
            '    "input": null,\n    "demo": "fig1",\n    "format": "json"\n  },\n'
            '  "results": [\n'
            + ",\n".join(
                f'    {{\n      "kind": "{kind}",\n      "alpha": {alpha!r},\n'
                f'      "value": {value!r},\n      "degenerate": false\n    }}'
                for kind, alpha, value in rows
            )
            + "\n  ]\n}\n"
        )
        assert got == (0, want, "")

    def test_deriv_csv(self, capsys):
        got = run_cli(capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0.25:0.75:0.25", "--T", "1")
        p = Polynomial((0.0, 0.0, 1.0))
        want = "alpha,value\n" + "".join(f"{a!r},{caputo_derivative(p, a, 1.0)!r}\n" for a in (0.25, 0.5, 0.75))
        assert got == (0, want, "")

    def test_demo_csv(self, capsys):
        assert run_cli(capsys, *self.DEMO) == (0, self.DEMO_CSV, self.DEMO_REPORT)

    def test_demo_report_beside_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        assert run_cli(capsys, *self.DEMO, "--output", str(target)) == (0, self.DEMO_REPORT, "")
        assert target.read_bytes() == self.DEMO_CSV.encode()

    def test_demo_json(self, capsys):
        got = run_cli(capsys, *self.DEMO, "--format", "json")
        rows = [(0.0, 70.0, 1400.0), (50.0, 62.5, 1275.0), (100.0, 60.0, 1200.0),
                (150.0, 62.5, 1175.0), (200.0, 70.0, 1200.0)]
        want = (
            '{\n  "command": "demo",\n  "params": {\n    "engine": null,\n'
            '    "alpha": null,\n    "T": null,\n    "N": 4,\n'
            '    "input": null,\n    "demo": "fig1",\n    "format": "json"\n  },\n'
            '  "results": [\n'
            + ",\n".join(
                f'    {{\n      "t": {t},\n      "x": {x},\n      "y": {y}\n    }}' for t, x, y in rows
            )
            + '\n  ],\n  "multivalued": {\n    "count": 2,\n    "x_tol": 1e-09,\n    "y_tol": 1.0,\n'
            '    "witnesses": [\n'
            '      {\n        "t1": 0.0,\n        "t2": 200.0\n      },\n'
            '      {\n        "t1": 50.0,\n        "t2": 150.0\n      }\n'
            "    ]\n  }\n}\n"
        )
        assert got == (0, want, self.DEMO_REPORT)


class TestRowsPerPiece:
    """CSV text is written a block of rows at a time; the block's size
    changes the pieces, not the bytes on stdout or in the --output file."""

    COMMANDS = {
        "sweep-degenerate": ("sweep", "--input", "flat.csv", "--alpha", "0:1:0.5"),
        "indicator": ("indicator", "--demo", "fig1", "--alpha", "0.5", "--T", "200"),
        "deriv": ("deriv", "--coeffs", "0,0,1", "--alpha", "0.25:0.75:0.25", "--T", "1"),
        "demo": ("demo", "fig1", "--N", "4"),
        "sweep-20001": ("sweep", "--demo", "fig2", "--alpha", "0:1:0.00005", "--T", "385"),
    }

    @pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
    def test_bytes_do_not_depend_on_rows_per_piece(self, capsys, csv_dir, monkeypatch, tmp_path, argv):
        def run(rows):
            monkeypatch.setattr(series, "_CSV_ROWS", rows)
            target = tmp_path / f"{rows}.csv"
            to_file = run_cli(capsys, *argv, "--output", str(target))
            return run_cli(capsys, *argv), to_file, target.read_bytes()

        want = run(series._CSV_ROWS)
        (code, out, _), _, data = want
        assert code == 0 and out.count("\n") > 3 and data == out.encode()
        for rows in (1, 2, 3):
            assert run(rows) == want, rows


class TestCellsArePythonFloats:
    """Rows are written with one repr per cell, which is the shortest
    round-trip decimal only for a Python float: a numpy float64 prints as
    ``np.float64(...)`` under numpy 2.  So every order and value that reaches
    the writer must be a float itself."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        calls = []
        emit = cli._emit_results

        def record(args, alphas, values, kinds=None):
            calls.append((list(alphas), list(values)))
            return emit(args, alphas, values, kinds)

        monkeypatch.setattr(cli, "_emit_results", record)
        return calls

    @pytest.fixture
    def csv_path(self, fig1, tmp_path):
        path = tmp_path / "pair.csv"
        export_csv(fig1.sampled_pair(200), path)
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            # X'(100) = 0 for fig1, so this sweep is degenerate at order 1.
            ("sweep", "--demo", "fig1", "--alpha", "0:2:0.5", "--T", "100"),
            ("sweep", "--demo", "fig2", "--engine", "numeric", "--N", "300", "--alpha", "0:1.5:0.25", "--T", "385"),
            ("sweep", "--input", "{csv}", "--alpha", "0:1:0.5"),
            ("indicator", "--demo", "fig1", "--alpha", "0.5"),
            ("indicator", "--demo", "fig2", "--engine", "numeric", "--N", "300", "--alpha", "0.25"),
            ("indicator", "--input", "{csv}", "--alpha", "1.5"),
            ("deriv", "--input", "{csv}", "--alpha", "0:1.5:0.5"),
            ("deriv", "--input", "{csv}", "--column", "x", "--alpha", "0.75"),
            ("deriv", "--coeffs", "0,0,1", "--alpha", "0:2:0.5", "--T", "2"),
            ("deriv", "--coeffs", "0,0,1", "--engine", "numeric", "--alpha", "0:1.5:0.5", "--T", "2"),
        ],
    )
    def test_results(self, capsys, emitted, csv_path, argv):
        code, out, err = run_cli(capsys, *(a.format(csv=csv_path) for a in argv))
        assert (code, err) == (0, "")
        ((alphas, values),) = emitted
        assert all(type(a) is float for a in alphas)
        assert all(type(v) is float for v in values if v is not None)

    def test_demo_rows(self, capsys, monkeypatch):
        rows = []
        csv_doc = cli._csv_doc

        def record(header, n, lines):
            def recorded(start, stop):
                block = lines(start, stop)
                rows.extend(block)
                return block

            return csv_doc(header, n, recorded)

        monkeypatch.setattr(cli, "_csv_doc", record)
        code, out, err = run_cli(capsys, "demo", "fig2", "--N", "500")
        assert code == 0 and err.startswith("multivalued dependence (fig2): ")
        assert len(rows) == 501 and all(row.endswith("\n") for row in rows)
        cells = [cell for row in rows for cell in row[:-1].split(",")]
        assert all(repr(float(cell)) == cell for cell in cells)


class TestRuntimeDependencies:
    def test_runs_with_numpy_alone(self, child_env):
        # pyproject.toml lists numpy as the only run-time dependency; the test
        # tools are made unimportable in the child.
        code = (
            "import sys\n"
            "sys.modules.update(mpmath=None, hypothesis=None, pytest=None)\n"
            "from fracalc.cli import main\n"
            "sys.exit(main(['check']) or main(['demo', 'fig1', '--N', '200']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "7/7 checks passed\n" in proc.stdout and "x,y\n70.0,1400.0\n" in proc.stdout
        assert proc.stderr.startswith("multivalued dependence (fig1): ")

    def test_check_suite_and_json_load_on_demand(self, child_env):
        # Only `check` needs the suite and only --format json the json module.
        # Neither `import fracalc`, which imports every public name from its
        # module, nor `import fracalc.cli` loads numpy: no module imports it
        # at module level, only code that holds samples.  Only the CLI's entry
        # sets OPENBLAS_NUM_THREADS, so a library user's process keeps its
        # BLAS as it was.  Nor does either load dataclasses, inspect or
        # typing, which cost start-up time; they count only if the import
        # added them, since a site-packages .pth file may load typing first.
        code = (
            "import os, sys\n"
            "before = set(sys.modules)\n"
            "import fracalc\n"
            "print('numpy' in sys.modules)\n"
            "import fracalc.cli\n"
            "print('numpy' in sys.modules)\n"
            "print(sorted({'json', 'fracalc.check'} & set(sys.modules)), os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))\n"
            "star = {}\n"
            "exec('from fracalc import *', star)\n"
            "print(sorted(set(star) - {'__builtins__'}) == sorted(fracalc.__all__))\n"
            "names = [n for n in fracalc.__all__ if n != '__version__']\n"
            "print([n for n in names if star[n] is not getattr(sys.modules[star[n].__module__], n)])\n"
            "try:\n"
            "    fracalc.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        env = {k: v for k, v in child_env.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        want = "False\nFalse\n[] None\n[]\nTrue\n[]\nmodule 'fracalc' has no attribute 'no_such_name'\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")
        # No public name shadows a submodule, as a function `caputo` would `fracalc.caputo`.
        assert not set(fracalc.__all__) & {m.name for m in pkgutil.iter_modules(fracalc.__path__)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--demo", "fig2", "--alpha", "0:1:0.001", "--T", "385"],
            ["indicator", "--demo", "fig1", "--alpha", "0.5"],
            ["deriv", "--coeffs", "1,2,3", "--alpha", "0.5", "--T", "2"],
        ],
    )
    def test_closed_form_runs_without_numpy(self, capsys, child_env, argv):
        # The polynomial path, from the import to the last row, needs no
        # numpy: in a child where importing it fails, the bytes are the same.
        want = run_cli(capsys, *argv)
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from fracalc.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=child_env, capture_output=True, text=True)
        assert want[0] == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == want

    @pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
    def test_entry_runs_blas_on_one_thread_unless_told(self, child_env, preset, want):
        # fracalc makes no BLAS call (test_kernels.py pins that), so the
        # entry gives OpenBLAS one thread unless the user chose a number.
        env = {k: v for k, v in child_env.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        code = "import os, fracalc.__main__\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want + "\n", "")


class TestCheckCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.startswith("PASS")]) == 7
        assert lines[-1] == "7/7 checks passed"

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        from fracalc import check

        results = [check.CheckResult("x", False, "boom"), check.CheckResult("y", True, "ok")]
        monkeypatch.setattr(check, "run_checks", lambda: results)
        assert run_cli(capsys, "check") == (1, "FAIL x: boom\nPASS y: ok\n1/2 checks passed\n", "")

    def test_report_can_go_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "check", "--output", str(target))
        assert code == 0 and out == ""
        assert "checks passed" in target.read_text()
