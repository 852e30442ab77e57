"""Command-line interface.

Commands emit plot-ready CSV or machine-readable JSON on the data stream
(stdout or --output FILE); diagnostics and reports never mix into the data
stream.  All floats are printed in shortest round-trip form so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .caputo import Polynomial, SampledSeries, _derivatives
from .errors import DomainError, FracalcError
from .indicators import _ratios, _witness_keys, _witness_times, alpha_sweep
from .series import _DEMOS, _csv_doc, _steps, _write, demo_process, ingest_csv, sample

__all__ = ["build_parser", "main"]

_DEFAULT_N = 2000

# Witness pairs that `demo` reports: its JSON lists this many, its report the first.
_WITNESSES = 10

# Options whose value is a float, so may be "-inf" or "-nan".
_FLOAT_OPTIONS = ("--T", "--x-tol", "--y-tol")

# Bounds on an --alpha range: the orders it lists, and the length and the
# decimal places of its literals (a shortest float repr has at most 24
# characters and 340 places), so that its exact integers stay small.
_MAX_RANGE_ORDERS = 1_000_000
_MAX_RANGE_LITERAL = 64
_MAX_RANGE_DECIMALS = 400

# A float literal once underscores are dropped: sign, the digits before and
# after the point, exponent.
_DECIMAL = re.compile(r"([+-]?)(\d*)\.?(\d*)(?:[eE]([+-]?\d+))?")


def _parse_alpha_spec(text: str) -> tuple[float, ...]:
    """A single order 'A' or an inclusive range 'START:STOP:STEP'.

    A range is built from its decimal literals: with d the most decimal
    places among them, START, STOP and STEP times 10**d are exact integers,
    and order i is (START + i*STEP) * 10**d divided by 10**d.  Python rounds
    that int/int division correctly, so '0:1:0.1' gives 0.3, where float
    steps give 0.30000000000000004, and no order passes STOP.
    """
    if ":" not in text:
        return (_parse_number(text),)
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"alpha range must be START:STOP:STEP, got {text!r}")
    if not all(math.isfinite(_parse_number(p)) for p in parts):
        raise DomainError(f"alpha range must be finite numbers, got {text!r}")
    if max(len(p) for p in parts) > _MAX_RANGE_LITERAL:
        raise DomainError(f"alpha range literals need at most {_MAX_RANGE_LITERAL} characters, got {text!r}")
    literals = [_decimal(p) for p in parts]
    d = max(0, *(places for _, places in literals))
    if d > _MAX_RANGE_DECIMALS:
        raise DomainError(f"alpha range literals need at most {_MAX_RANGE_DECIMALS} decimal places, got {text!r}")
    start, stop, step = (n * 10 ** (d - places) for n, places in literals)
    if step <= 0:
        raise DomainError(f"alpha range step must be > 0, got {parts[2]!r}")
    if start > stop:
        raise DomainError(f"alpha range needs start <= stop, got {text!r}")
    count = (stop - start) // step + 1
    if count > _MAX_RANGE_ORDERS:
        raise DomainError(f"alpha range lists more than {_MAX_RANGE_ORDERS} orders, got {text!r}")
    scale = 10**d
    return tuple((start + i * step) / scale for i in range(count))


def _parse_number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"--alpha must be a number or START:STOP:STEP, got {text!r}")


def _decimal(text: str) -> tuple[int, int]:
    """(n, d) with n / 10**d the exact value of a finite float literal."""
    sign, whole, frac, exp = _DECIMAL.fullmatch(text.strip().replace("_", "")).groups()
    n = int(sign + whole + frac)
    return n, (len(frac) - int(exp or 0) if n else 0)


def _parse_coeffs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(c) for c in text.split(","))
    except ValueError:
        raise DomainError(f"--coeffs must be comma-separated numbers, got {text!r}")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports arguments it does not take itself.

    argparse hands a subcommand's unrecognized arguments up to the top-level
    parser, whose usage line lists only the command names.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracalc",
        description="Caputo fractional derivatives and memory-aware economic indicators.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_common(p):
        # The flags of every data command, `demo` included.
        p.add_argument("--N", type=int, default=_DEFAULT_N, metavar="VALUE",
                       help=f"sampling resolution (default {_DEFAULT_N})")
        p.add_argument("--output", metavar="PATH", help="write data here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    def add_io(p):
        p.add_argument("--input", metavar="PATH", help="CSV file with header t,x,y")
        p.add_argument("--engine", choices=("analytic", "numeric"))
        p.add_argument("--alpha", metavar="A|START:STOP:STEP", help="order(s) of differentiation")
        p.add_argument("--T", type=float, metavar="VALUE", help="evaluation time (default: series end)")
        add_common(p)

    p = sub.add_parser("deriv", help="Caputo derivative of one column or polynomial at T")
    add_io(p)
    p.add_argument("--coeffs", metavar="C0,C1,...", help="polynomial coefficients, low order first")
    p.add_argument("--column", choices=("x", "y"), help="CSV column to differentiate (default y)")
    p.set_defaults(run=_run_deriv)

    p = sub.add_parser("indicator", help="average, marginal, and order-alpha indicator at T")
    add_io(p)
    p.add_argument("--demo", choices=tuple(_DEMOS), help="use a built-in demo pair")
    p.set_defaults(run=_run_indicator)

    p = sub.add_parser("sweep", help="indicator across a range of orders")
    add_io(p)
    p.add_argument("--demo", choices=tuple(_DEMOS), help="use a built-in demo pair")
    p.set_defaults(run=_run_sweep)

    p = sub.add_parser("demo", help="emit a demo curve (X(t), Y(t)) plus a multivaluedness report")
    p.add_argument("demo", choices=tuple(_DEMOS))
    add_common(p)
    p.add_argument("--x-tol", type=float, dest="x_tol",
                   help="factor match tolerance (default: one grid cell of X variation)")
    p.add_argument("--y-tol", type=float, dest="y_tol",
                   help="indicator difference threshold (default: 10 grid cells of Y variation)")
    p.set_defaults(run=_run_demo)

    p = sub.add_parser("check", help="run the built-in verification suite")
    p.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    p.set_defaults(run=_run_check)

    return parser


def _emit(pieces, output: str | None) -> None:
    """Write the data stream, an iterable of strings, to stdout or to the file ``output``.

    A CSV document comes a block of rows at a time (``_csv_doc``) and a
    JSON document or a report as one piece, so no command builds the text
    of a whole CSV document.
    """
    _write(pieces, sys.stdout if output is None else output)


def _report(text: str, data_went_to_file: bool) -> None:
    # Human-facing companion output: stdout when free, else stderr --
    # never the data stream.
    stream = sys.stdout if data_went_to_file else sys.stderr
    stream.write(text)


def _json_doc(args: argparse.Namespace, body: dict) -> str:
    import json  # only --format json needs it

    # `demo` has no --engine, --alpha, --T or --input; they read as null.
    params = {k: getattr(args, k, None) for k in ("engine", "alpha", "T", "N", "input", "demo", "format")}
    return json.dumps({"command": args.command, "params": params, **body}, indent=2) + "\n"


def _emit_results(args: argparse.Namespace, alphas, values, kinds=None) -> None:
    """Write one row per order: ``alpha,value`` CSV lines or one JSON document.

    Each value comes checked finite from the library, or is None for a
    degenerate order: an empty CSV cell, a JSON null marked degenerate.
    ``kinds``, when given, names each row and comes first in it.  Every
    order and value is a Python float, whose repr is the shortest decimal
    that round-trips to it.
    """
    if args.format == "json":
        rows = [{"alpha": a, "value": v, "degenerate": v is None} for a, v in zip(alphas, values)]
        if kinds is not None:
            rows = [{"kind": k, **r} for k, r in zip(kinds, rows)]
        _emit([_json_doc(args, {"results": rows})], args.output)
        return

    def lines(start, stop):
        block = [
            f"{a!r},\n" if v is None else f"{a!r},{v!r}\n"
            for a, v in zip(alphas[start:stop], values[start:stop])
        ]
        return block if kinds is None else [f"{k},{line}" for k, line in zip(kinds[start:stop], block)]

    header = "alpha,value" if kinds is None else "kind,alpha,value"
    _emit(_csv_doc(header, len(alphas), lines), args.output)


def _load_pair(args: argparse.Namespace):
    """Build the indicator pair plus the T to evaluate at (None = series end)."""
    if args.input is not None and args.demo is not None:
        raise DomainError("give --input or --demo, not both")
    if args.input is not None:
        if args.engine == "analytic":
            raise DomainError("CSV input is sampled data; use the numeric engine")
        return ingest_csv(args.input), args.T
    if args.demo is not None:
        d = demo_process(args.demo)
        if args.engine == "numeric":
            # Sample over [0, T] directly so any positive T works.
            return d.sampled_pair(args.N, args.T), None
        return d.pair(), args.T if args.T is not None else d.t_end
    raise DomainError(f"need --input PATH or --demo {'|'.join(_DEMOS)}")


def _run_deriv(args: argparse.Namespace) -> int:
    coeffs = _parse_coeffs(args.coeffs) if args.coeffs is not None else None
    if not args.alphas:
        raise DomainError("deriv needs --alpha")
    if coeffs is not None and args.input is not None:
        raise DomainError("give --coeffs or --input, not both")
    if coeffs is not None and args.column is not None:
        raise DomainError("--column selects a column of --input; a polynomial has none")
    T = args.T
    if coeffs is not None:
        f = Polynomial(coeffs)
        if T is None:
            raise DomainError("polynomial input needs an explicit --T")
        if args.engine == "numeric":
            # Sampled on [0, T], so the derivative is taken at the series end.
            f, T = sample(f, T, args.N), None
    elif args.input is not None:
        if args.engine == "analytic":
            raise DomainError("analytic engine needs --coeffs")
        pair = ingest_csv(args.input)
        f = pair.x if args.column == "x" else pair.y  # y unless --column x
    else:
        raise DomainError("need --coeffs or --input")
    (values,), *_ = _derivatives([f], args.alphas, T)
    _emit_results(args, args.alphas, values)
    return 0


def _run_indicator(args: argparse.Namespace) -> int:
    if len(args.alphas) != 1:
        raise DomainError("this command takes a single --alpha value")
    pair, T = _load_pair(args)
    alphas = (0.0, 1.0, args.alphas[0])
    _emit_results(args, alphas, _ratios(pair, alphas, T), kinds=("average", "marginal", "t_indicator"))
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    if not args.alphas:
        raise DomainError("sweep needs --alpha (a value or START:STOP:STEP)")
    pair, T = _load_pair(args)
    _emit_results(args, args.alphas, alpha_sweep(pair, args.alphas, T))
    return 0


def _run_demo(args: argparse.Namespace) -> int:
    d = demo_process(args.demo)
    xs = sample(d.x, d.t_end, args.N)
    ys = sample(d.y, d.t_end, args.N)
    x_tol = args.x_tol if args.x_tol is not None else _grid_tol(xs, 1.0)
    y_tol = args.y_tol if args.y_tol is not None else _grid_tol(ys, 10.0)
    # The scan's blocks are counted and dropped, but for the first few
    # witnesses, whose times are those detect_multivalued gives.
    count, first = 0, []
    for keys in _witness_keys(xs, ys, x_tol, y_tol):
        if count < _WITNESSES:
            first.append(keys[: _WITNESSES - count].copy())
        count += keys.size
    t1, t2 = _witness_times(first, xs)
    witnesses = list(zip(t1.tolist(), t2.tolist()))

    # No finiteness check here: SampledSeries rejects non-finite samples.
    xv, yv = xs.values, ys.values
    if args.format == "json":
        rows = [{"t": t, "x": a, "y": b} for t, a, b in zip(xs.times().tolist(), xv.tolist(), yv.tolist())]
        body = {
            "results": rows,
            "multivalued": {
                "count": count,
                "x_tol": x_tol,
                "y_tol": y_tol,
                "witnesses": [{"t1": a, "t2": b} for a, b in witnesses],
            },
        }
        _emit([_json_doc(args, body)], args.output)
    else:

        def lines(start, stop):
            return [f"{a!r},{b!r}\n" for a, b in zip(xv[start:stop].tolist(), yv[start:stop].tolist())]

        _emit(_csv_doc("x,y", xv.size, lines), args.output)

    report = [
        f"multivalued dependence ({args.demo}): {count} witness pair(s) "
        f"at x_tol={x_tol!r}, y_tol={y_tol!r}"
    ]
    if witnesses:
        # Python floats, so the polynomials' values are too.
        a, b = witnesses[0]
        report.append(
            f"  e.g. t1={a!r}, t2={b!r}: "
            f"X {d.x(a)!r} ~= {d.x(b)!r} "
            f"but Y {d.y(a)!r} vs {d.y(b)!r}"
        )
    _report("\n".join(report) + "\n", data_went_to_file=args.output is not None)
    return 0


def _grid_tol(series: SampledSeries, cells: float) -> float:
    """cells times the largest step of the series, taken block by block."""
    from ._kernels import max_abs_differences

    return cells * max_abs_differences(series, [1])[0]


def _run_check(args: argparse.Namespace) -> int:
    from .check import run_checks  # only `check` needs the suite

    results = run_checks()
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    n_ok = sum(r.passed for r in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    _emit(["\n".join(lines) + "\n"], args.output)
    return 0 if n_ok == len(results) else 1


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a float option and a value such as "-inf" into "--T=-inf".

    argparse reads a token that starts with "-" and is not a plain negative
    number as an option name, so ``--T -inf`` would be a usage error while
    ``--T=-inf`` reaches the range checks.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _FLOAT_OPTIONS and tok.startswith("-") and _is_float(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        # Parsed here, not by argparse's type=, which would turn a
        # DomainError into a usage error with exit status 2.
        alpha = getattr(args, "alpha", None)
        args.alphas = _parse_alpha_spec(alpha) if alpha is not None else ()
        if hasattr(args, "N"):
            # Checked on every path, also where nothing is sampled.
            _steps(args.N)
        return args.run(args)
    except (FracalcError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
