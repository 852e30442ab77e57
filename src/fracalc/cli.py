"""Command-line interface.

Commands emit plot-ready CSV or machine-readable JSON on the data stream
(stdout or --output FILE); diagnostics and reports never mix into the data
stream.  All floats are printed in shortest round-trip form so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .caputo import Polynomial, SampledSeries, _derivatives
from .check import run_checks
from .errors import DomainError, FracalcError
from .indicators import _ratios, alpha_sweep, detect_multivalued
from .series import demo_process, ingest_csv, sample

__all__ = ["RunConfig", "build_parser", "run", "main"]

_DEFAULT_N = 2000

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


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation parameters for one CLI run."""

    command: str
    input: str | None = None
    engine: str | None = None
    alphas: tuple[float, ...] = ()
    alpha_raw: str | None = None
    T: float | None = None
    n: int = _DEFAULT_N
    output: str | None = None
    format: str = "csv"
    coeffs: tuple[float, ...] | None = None
    column: str = "y"
    demo: str | None = None
    x_tol: float | None = None
    y_tol: float | None = None


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    return repr(float(x))


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracalc",
        description="Caputo fractional derivatives and memory-aware economic indicators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_engine=True):
        p.add_argument("--input", metavar="PATH", help="CSV file with header t,x,y")
        if with_engine:
            p.add_argument("--engine", choices=("analytic", "numeric"))
        p.add_argument("--alpha", metavar="A|START:STOP:STEP", help="order(s) of differentiation")
        p.add_argument("--T", type=float, metavar="VALUE", help="evaluation time (default: series end)")
        p.add_argument("--N", type=int, default=_DEFAULT_N, metavar="VALUE",
                       help=f"sampling resolution (default {_DEFAULT_N})")
        p.add_argument("--output", metavar="PATH", help="write data here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("deriv", help="Caputo derivative of one column or polynomial at T")
    add_io(p)
    p.add_argument("--coeffs", metavar="C0,C1,...", help="polynomial coefficients, low order first")
    p.add_argument("--column", choices=("x", "y"), default="y", help="CSV column to differentiate")

    p = sub.add_parser("indicator", help="average, marginal, and order-alpha indicator at T")
    add_io(p)
    p.add_argument("--demo", choices=("fig1", "fig2"), help="use a built-in demo pair")

    p = sub.add_parser("sweep", help="indicator across a range of orders")
    add_io(p)
    p.add_argument("--demo", choices=("fig1", "fig2"), help="use a built-in demo pair")

    p = sub.add_parser("demo", help="emit a demo curve (X(t), Y(t)) plus a multivaluedness report")
    p.add_argument("which", choices=("fig1", "fig2"))
    add_io(p, with_engine=False)
    p.add_argument("--x-tol", type=float, dest="x_tol",
                   help="factor match tolerance (default: one grid cell of X variation)")
    p.add_argument("--y-tol", type=float, dest="y_tol",
                   help="indicator difference threshold (default: 10 grid cells of Y variation)")

    p = sub.add_parser("check", help="run the built-in verification suite")
    p.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    alpha_raw = getattr(args, "alpha", None)
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        engine=getattr(args, "engine", None),
        alphas=_parse_alpha_spec(alpha_raw) if alpha_raw else (),
        alpha_raw=alpha_raw,
        T=getattr(args, "T", None),
        n=getattr(args, "N", _DEFAULT_N),
        output=getattr(args, "output", None),
        format=getattr(args, "format", "csv"),
        coeffs=_parse_coeffs(args.coeffs) if getattr(args, "coeffs", None) else None,
        column=getattr(args, "column", "y"),
        demo=getattr(args, "demo", None) or getattr(args, "which", None),
        x_tol=getattr(args, "x_tol", None),
        y_tol=getattr(args, "y_tol", None),
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _report(text: str, data_went_to_file: bool) -> None:
    # Human-facing companion output: stdout when free, else stderr --
    # never the data stream.
    stream = sys.stdout if data_went_to_file else sys.stderr
    stream.write(text)


def _json_doc(command: str, params: dict, body: dict) -> str:
    return json.dumps({"command": command, "params": params, **body}, indent=2) + "\n"


def _csv_doc(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _emit_results(config: RunConfig, header: str, line, rows: list[dict]) -> None:
    """Write result rows as one JSON document or as CSV lines ``line(row)``.

    Every result reaches the data stream here, so this is where a non-finite
    value, which is not a number in CSV and invalid in RFC 8259 JSON, is
    refused.  A degenerate row carries no value.
    """
    for r in rows:
        if r["value"] is not None and not math.isfinite(r["value"]):
            raise DomainError(f"result at alpha={r['alpha']!r} is not finite: {r['value']!r}")
    if config.format == "json":
        text = _json_doc(config.command, _base_params(config), {"results": rows})
    else:
        text = _csv_doc(header, [line(r) for r in rows])
    _emit(text, config.output)


def _base_params(config: RunConfig) -> dict:
    return {
        "engine": config.engine,
        "alpha": config.alpha_raw,
        "T": config.T,
        "N": config.n,
        "input": config.input,
        "demo": config.demo,
        "format": config.format,
    }


def _require_single_alpha(config: RunConfig) -> float:
    if len(config.alphas) != 1:
        raise DomainError("this command takes a single --alpha value")
    return config.alphas[0]


def _load_pair(config: RunConfig):
    """Build the indicator pair plus the T to evaluate at (None = series end)."""
    if config.input and config.demo:
        raise DomainError("give --input or --demo, not both")
    if config.input:
        if config.engine == "analytic":
            raise DomainError("CSV input is sampled data; use the numeric engine")
        return ingest_csv(config.input), config.T
    if config.demo:
        d = demo_process(config.demo)
        if config.engine == "numeric":
            # Sample over [0, T] directly so any positive T works.
            return d.sampled_pair(config.n, config.T), None
        return d.pair(), config.T if config.T is not None else d.t_end
    raise DomainError("need --input PATH or --demo fig1|fig2")


def _run_deriv(config: RunConfig) -> int:
    if not config.alphas:
        raise DomainError("deriv needs --alpha")
    if config.coeffs is not None and config.input:
        raise DomainError("give --coeffs or --input, not both")
    T = config.T
    if config.coeffs is not None:
        f = Polynomial(config.coeffs)
        if T is None:
            raise DomainError("polynomial input needs an explicit --T")
        if config.engine == "numeric":
            # Sampled on [0, T], so the derivative is taken at the series end.
            f, T = sample(f, T, config.n), None
    elif config.input:
        if config.engine == "analytic":
            raise DomainError("analytic engine needs --coeffs")
        pair = ingest_csv(config.input)
        f = pair.x if config.column == "x" else pair.y
    else:
        raise DomainError("need --coeffs or --input")
    (values,), *_ = _derivatives([f], config.alphas, T)

    rows = [{"alpha": a, "value": v, "degenerate": False} for a, v in zip(config.alphas, values.tolist())]
    _emit_results(config, "alpha,value", lambda r: f"{_fmt(r['alpha'])},{_fmt(r['value'])}", rows)
    return 0


def _run_indicator(config: RunConfig) -> int:
    a = _require_single_alpha(config)
    pair, T = _load_pair(config)
    alphas = (0.0, 1.0, a)
    rows = [
        {"kind": kind, "alpha": alpha, "value": value, "degenerate": False}
        for kind, alpha, value in zip(("average", "marginal", "t_indicator"), alphas, _ratios(pair, alphas, T))
    ]
    _emit_results(
        config, "kind,alpha,value", lambda r: f"{r['kind']},{_fmt(r['alpha'])},{_fmt(r['value'])}", rows
    )
    return 0


def _run_sweep(config: RunConfig) -> int:
    if not config.alphas:
        raise DomainError("sweep needs --alpha (a value or START:STOP:STEP)")
    pair, T = _load_pair(config)
    result = alpha_sweep(pair, config.alphas, T)
    rows = [
        {"alpha": e.alpha, "value": e.value, "degenerate": e.degenerate} for e in result
    ]
    _emit_results(
        config,
        "alpha,value",
        lambda r: f"{_fmt(r['alpha'])}," if r["degenerate"] else f"{_fmt(r['alpha'])},{_fmt(r['value'])}",
        rows,
    )
    return 0


def _run_demo(config: RunConfig) -> int:
    d = demo_process(config.demo)
    xs = sample(d.x, d.t_end, config.n)
    ys = sample(d.y, d.t_end, config.n)
    x_tol = config.x_tol if config.x_tol is not None else _grid_tol(xs, 1.0)
    y_tol = config.y_tol if config.y_tol is not None else _grid_tol(ys, 10.0)
    t1, t2 = detect_multivalued(xs, ys, x_tol, y_tol)

    # No finiteness check here: SampledSeries rejects non-finite samples.
    ts = xs.times()
    if config.format == "json":
        rows = [
            {"t": float(t), "x": float(xv), "y": float(yv)}
            for t, xv, yv in zip(ts.tolist(), xs.values.tolist(), ys.values.tolist())
        ]
        body = {
            "results": rows,
            "multivalued": {
                "count": t1.size,
                "x_tol": x_tol,
                "y_tol": y_tol,
                "witnesses": [{"t1": a, "t2": b} for a, b in zip(t1[:10].tolist(), t2[:10].tolist())],
            },
        }
        text = _json_doc("demo", _base_params(config), body)
    else:
        text = _csv_doc(
            "x,y",
            [f"{_fmt(xv)},{_fmt(yv)}" for xv, yv in zip(xs.values.tolist(), ys.values.tolist())],
        )
    _emit(text, config.output)

    report = [
        f"multivalued dependence ({config.demo}): {t1.size} witness pair(s) "
        f"at x_tol={_fmt(x_tol)}, y_tol={_fmt(y_tol)}"
    ]
    if t1.size:
        a, b = float(t1[0]), float(t2[0])
        report.append(
            f"  e.g. t1={_fmt(a)}, t2={_fmt(b)}: "
            f"X {_fmt(float(d.x(a)))} ~= {_fmt(float(d.x(b)))} "
            f"but Y {_fmt(float(d.y(a)))} vs {_fmt(float(d.y(b)))}"
        )
    _report("\n".join(report) + "\n", data_went_to_file=config.output is not None)
    return 0


def _grid_tol(series: SampledSeries, cells: float) -> float:
    return cells * float(np.max(np.abs(np.diff(series.values))))


def _run_check(config: RunConfig) -> int:
    results = run_checks()
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
    ]
    n_ok = sum(r.passed for r in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", config.output)
    return 0 if n_ok == len(results) else 1


_HANDLERS = {
    "deriv": _run_deriv,
    "indicator": _run_indicator,
    "sweep": _run_sweep,
    "demo": _run_demo,
    "check": _run_check,
}


def run(config: RunConfig) -> int:
    return _HANDLERS[config.command](config)


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
        return run(config_from_args(args))
    except (FracalcError, OSError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
