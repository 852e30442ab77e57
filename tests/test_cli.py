import json
from fractions import Fraction

import numpy as np
import pytest

from fracalc import (
    DomainError,
    Polynomial,
    alpha_sweep,
    average_indicator,
    caputo_poly,
    caputo_series,
    export_csv,
    ingest_csv,
    marginal_indicator,
    t_indicator,
    t_indicator_time,
)
from fracalc.cli import _parse_alpha_spec, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_output_file_keeps_report_on_stdout(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, err = run_cli(capsys, "demo", "fig1", "--output", str(target))
        assert code == 0
        assert target.read_text().startswith("x,y\n70.0,1400.0\n")
        assert "witness pair" in out and err == ""


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

    def test_degenerate_rows_have_empty_cells(self, capsys, tmp_path):
        # Constant factor: every positive order annihilates it.
        path = tmp_path / "flat.csv"
        lines = ["t,x,y"] + [f"{t},5.0,{t * t}" for t in range(6)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "sweep", "--input", str(path), "--alpha", "0:1:0.5")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][1] != ""  # order 0: x(T) = 5
        assert rows[1] == ["0.5", ""]
        assert rows[2] == ["1.0", ""]

    def test_degenerate_rows_in_json(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        lines = ["t,x,y"] + [f"{t},5.0,{t * t}" for t in range(6)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(
            capsys, "sweep", "--input", str(path), "--alpha", "0.5", "--format", "json"
        )
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
        want = [average_indicator(pair, 120.0), marginal_indicator(pair, 120.0), t_indicator(pair, a, 120.0)]
        assert [float(row[2]) for row in parse_csv(out)[1]] == want

    def test_alpha_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "indicator", "--demo", "fig1", "--alpha", "0:1:0.5")
        assert code == 1
        assert "DomainError" in err


class TestDerivCommand:
    def test_analytic_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0.5", "--T", "1")
        assert code == 0
        _, rows = parse_csv(out)
        want = caputo_poly(Polynomial((0.0, 0.0, 1.0)), 0.5, 1.0)
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
        assert [float(v) for _, v in rows] == [caputo_series(series, float(a)) for a, _ in rows]

    def test_missing_source_fails(self, capsys):
        code, out, err = run_cli(capsys, "deriv", "--alpha", "0.5")
        assert code == 1
        assert out == "" and "DomainError" in err

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

    @pytest.mark.parametrize(
        "spec",
        [
            "abc", "a:1:0.1", "0:inf:0.1", "0:1:nan", "0:1:0", "0:1:-0.1",
            "0:1e-300:1e-310", "0:1:1e-401", "0:1:0." + "0" * 64 + "1",
        ],
    )
    def test_bad_spec_fails_cleanly(self, capsys, spec):
        code, out, err = run_cli(capsys, "sweep", "--demo", "fig2", "--alpha", spec, "--T", "385")
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError: ") and err.count("\n") == 1


class TestErrorMapping:
    def test_malformed_csv_names_error_class(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y\n0,1,2\n1,zzz,4\n2,3,6\n")
        code, out, err = run_cli(capsys, "indicator", "--input", str(path), "--alpha", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError")

    def test_missing_file_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--input", "/no/such/file.csv", "--alpha", "0.5")
        assert code == 1
        assert out == "" and "FileNotFoundError" in err

    def test_degenerate_marginal_maps_to_error(self, capsys):
        # X'(100) = 0 for fig1: the marginal, the first degenerate order of
        # the three, is the one named, and nothing reaches the data stream.
        code, out, err = run_cli(capsys, "indicator", "--demo", "fig1", "--alpha", "0.5", "--T", "100")
        assert (code, out) == (1, "")
        assert err == "error: DenominatorNearZero: factor derivative is 0.0, below threshold for scale 0.2\n"

    @pytest.mark.parametrize("flag", ["--x-tol", "--y-tol"])
    def test_nan_tolerance_fails(self, capsys, flag):
        code, out, err = run_cli(capsys, "demo", "fig1", "--N", "200", flag, "nan")
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError") and "Traceback" not in err

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("indicator", "--demo", "fig1", "--alpha", "0.5", "--T"),
            ("demo", "fig1", "--N", "200", "--x-tol"),
            ("demo", "fig1", "--N", "200", "--y-tol"),
        ],
        ids=["--T", "--x-tol", "--y-tol"],
    )
    def test_negative_non_number_fails(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError: ") and err.count("\n") == 1

    def test_trailing_time_option_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["indicator", "--demo", "fig1", "--alpha", "0.5", "--T"])
        assert exc.value.code == 2
        assert "argument --T: expected one argument" in capsys.readouterr().err

    def test_invalid_utf8_names_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t,x,y\n0,1,2\n1,\xff2,4\n2,3,6\n")
        code, out, err = run_cli(capsys, "indicator", "--input", str(path), "--alpha", "0.5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: line 3: not UTF-8") and "Traceback" not in err

    def test_byte_order_mark_accepted(self, capsys, tmp_path):
        body = b"t,x,y\r\n0,1,2\r\n1,2,5\r\n2,3,10\r\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(body)
        marked.write_bytes(b"\xef\xbb\xbf" + body)
        _, want, _ = run_cli(capsys, "indicator", "--input", str(plain), "--alpha", "0.5")
        code, out, err = run_cli(capsys, "indicator", "--input", str(marked), "--alpha", "0.5")
        assert code == 0 and err == ""
        assert out == want.replace("plain.csv", "marked.csv") and out.startswith("kind,alpha,value\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflow_in_closed_form_fails(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0.5", "--T", "1e300", "--format", fmt
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError") and "Traceback" not in err

    def test_overflow_names_first_order(self, capsys):
        # T^(2-a) overflows at every order of the range; the first is named.
        code, out, err = run_cli(capsys, "deriv", "--coeffs", "0,0,1", "--alpha", "0.25:0.75:0.25", "--T", "1e250")
        assert (code, out) == (1, "")
        assert err == "error: DomainError: order-0.25 derivative overflows at T=1e+250\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command,source",
        [("deriv", "--coeffs=0,0,1e300"), ("indicator", "--input"), ("sweep", "--input")],
    )
    def test_non_finite_result_fails(self, capsys, tmp_path, fmt, command, source):
        # Y/X = 2e300 / 2e-300 overflows; the tiny factor still passes the
        # scale-relative degeneracy guard.
        path = tmp_path / "huge.csv"
        path.write_text("t,x,y\n0,0,0\n1,1e-300,1e300\n2,2e-300,2e300\n")
        argv = [command, source, "--alpha", "0.5", "--format", fmt]
        if source == "--input":
            argv.insert(2, str(path))
        else:
            argv += ["--T", "1e10"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError") and "not finite" in err

    @pytest.mark.parametrize("T", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["deriv", "indicator"])
    def test_non_finite_time_on_input_fails(self, capsys, tmp_path, command, T):
        path = tmp_path / "pair.csv"
        path.write_text("t,x,y\n0,1,2\n1,2,5\n2,3,10\n3,4,17\n")
        code, out, err = run_cli(capsys, command, "--input", str(path), "--alpha", "0.5", "--T", T)
        assert code == 1
        assert out == ""
        assert err.startswith("error: DomainError: ") and err.count("\n") == 1

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

    def test_bad_alpha_range_fails(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--demo", "fig1", "--alpha", "1:0:0.5")
        assert code == 1
        assert "DomainError" in err


class TestOneTimeCheck:
    """A polynomial's evaluation time is checked in one place, with one message."""

    LIBRARY = {
        "caputo_poly": lambda pair, T: caputo_poly(pair.y, 0.5, T),
        "t_indicator": lambda pair, T: t_indicator(pair, 0.5, T),
        "alpha_sweep": lambda pair, T: alpha_sweep(pair, [0.5], T),
        "t_indicator_time": lambda pair, T: t_indicator_time(pair.y, 0.5, T),
    }
    CLI = {
        "deriv": ("deriv", "--coeffs", "1400,-3,0.01"),
        "indicator": ("indicator", "--demo", "fig1"),
        "sweep": ("sweep", "--demo", "fig1"),
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


class TestCheckCommand:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        lines = out.strip().splitlines()
        assert len([l for l in lines if l.startswith("PASS")]) == 7
        assert lines[-1] == "7/7 checks passed"

    def test_report_can_go_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        code, out, _ = run_cli(capsys, "check", "--output", str(target))
        assert code == 0 and out == ""
        assert "checks passed" in target.read_text()
