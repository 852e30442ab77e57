"""The benchmark's workloads: seeded CLI invocations and their references.

Pure Python on purpose.  ``run.py`` imports this module and must stay small:
a parent's peak RSS carries over into the ``ru_maxrss`` of every child it
spawns, so anything that needs large arrays (the 1e6-row CSV, the O(N^2)
witness scan) runs in a child process, ``inputs.py``, and only small JSON
comes back.

Each workload turns a seed into one or more :class:`Invocation` objects.  An
invocation carries the CLI arguments and a ``check`` that compares the
program's output with an independent reference and returns the largest
relative deviation, raising :class:`Mismatch` when a value is out of
tolerance.  The program sees only its argv and the generated files.
"""

from __future__ import annotations

import json
import math
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# Machine epsilon of float64.
EPS = 2.0 ** -52

# The paper's demo processes (polynomial coefficients, low order first) and
# their default end times, restated here so the references do not import the
# program under test.
DEMOS = {
    "fig1": {
        "x": (70.0, -0.2, 0.001),
        "y": (1400.0, -3.0, 0.01),
        "t_end": 200.0,
    },
    "fig2": {
        "x": (70.0, -0.58, 5.4e-3, -1.5e-5, 8.2e-9),
        "y": (1700.0, -24.0, 0.51, -3.5e-3, 7.5e-6),
        "t_end": 240.0,
    },
}

# Each sweep draws T from its demo's range.  There neither D^a X nor D^a Y
# changes sign for any a in [0, 1] (fig1: the zeros of D^a X sit at
# a = 2 - T/100 and a = 2 - T/150; both demos are checked on a 2001-point
# grid below), so the relative error measures the scheme, not the
# conditioning of a ratio near a root or pole.  fig2 starts at 370 because
# X(T) itself crosses zero near T = 359.
T_RANGES = {"fig1": (320.0, 400.0), "fig2": (370.0, 400.0)}

# Every run of a full-size workload uses these sizes; --smoke shrinks them.
FULL = {"sweep_N": 1_000_000, "sweep_orders": "0:1:0.00005", "ingest_rows": 1_000_000, "demo_N": 10_000}
SMOKE = {"sweep_N": 10_000, "sweep_orders": "0:1:0.01", "ingest_rows": 10_000, "demo_N": 2_000}

# Relative error of the numeric sweep at N = 1e6 is at most ~2e-7 for T in
# T_RANGES["fig1"] (largest at a = 0.99).  The L1 scheme converges as h^(2-a), so the
# tolerance at other N scales with that order from a 1e-6 anchor.
_NUMERIC_TOL_AT_1E6 = 1e-6
# Closed form against math.gamma: both are double-precision power rules.
_ANALYTIC_TOL = 1e-11
# The written demo curve is plain Horner evaluation in double precision.
_CURVE_TOL = 1e-12

_NONFINITE = re.compile(r"(?<![A-Za-z])(nan|inf|infinity)(?![A-Za-z])", re.IGNORECASE)
_WITNESSES = re.compile(r"multivalued dependence \((fig[12])\): (\d+) witness pair")


class Mismatch(Exception):
    """The program's output disagrees with the reference."""


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``python -m fracalc *argv``.

    ``output`` is the --output file when the data stream goes to a file
    rather than stdout.  ``check(data, report)`` gets the data stream and the
    companion report (stdout when data went to a file, else empty) and
    returns the largest relative deviation from the reference.
    """

    argv: tuple[str, ...]
    output: str | None
    check: Callable[[str, str], float]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, dict, Path], list[Invocation]]


def horner(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def power_rule(coeffs, alpha: float, T: float) -> float:
    """D^alpha of sum c_k t^k at T by the power rule, with math.gamma.

    Terms with k < ceil(alpha) vanish; alpha = 0 gives p(T) and integer
    alpha the classical derivative.
    """
    n = math.ceil(alpha)
    return math.fsum(
        c * math.gamma(k + 1) / math.gamma(k + 1 - alpha) * T ** (k - alpha)
        for k, c in enumerate(coeffs)
        if k >= n and c != 0.0
    )


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def check_stream(text: str) -> None:
    """The data stream must hold only finite numbers."""
    m = _NONFINITE.search(text)
    if m:
        raise Mismatch(f"non-finite value {m.group(0)!r} on the data stream")


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise Mismatch(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _alpha_grid(spec: str) -> tuple[float, float, int]:
    start, stop, step = (float(p) for p in spec.split(":"))
    return start, step, int(round((stop - start) / step)) + 1


def _sweep_check(demo: str, spec: str, T: float, tol: Callable[[float], float]):
    coeffs = DEMOS[demo]
    start, step, count = _alpha_grid(spec)

    def check(data: str, report: str) -> float:
        rows = _csv_rows(data, "alpha,value")
        if len(rows) != count:
            raise Mismatch(f"expected {count} orders, got {len(rows)}")
        worst = 0.0
        for i, row in enumerate(rows):
            if len(row) != 2 or not row[1]:
                raise Mismatch(f"row {i + 1}: degenerate or malformed entry {row!r}")
            a, v = float(row[0]), float(row[1])
            if abs(a - (start + i * step)) > 1e-9:
                raise Mismatch(f"row {i + 1}: order {a!r} is off the grid {spec}")
            ref = power_rule(coeffs["y"], a, T) / power_rule(coeffs["x"], a, T)
            err = rel_err(v, ref)
            if not err <= tol(a):
                raise Mismatch(f"order {a!r}: {v!r} vs reference {ref!r} (rel err {err:.3g} > {tol(a):.3g})")
            worst = max(worst, err)
        return worst

    return check


def _draw_T(demo: str, seed: int) -> float:
    T = random.Random(f"T-{seed}").uniform(*T_RANGES[demo])
    coeffs = DEMOS[demo]
    for part in ("x", "y"):
        signs = {math.copysign(1.0, power_rule(coeffs[part], i / 2000, T)) for i in range(2001)}
        if len(signs) != 1:
            raise RuntimeError(f"{demo}: D^a {part.upper()}({T!r}) changes sign on [0, 1]")
    return T


def build_sweep_numeric(seed: int, sizes: dict, workdir: Path) -> list[Invocation]:
    T = _draw_T("fig1", seed)
    n = sizes["sweep_N"]
    h_ratio = 1e6 / n

    def tol(a: float) -> float:
        return _NUMERIC_TOL_AT_1E6 * h_ratio ** (2.0 - a)

    spec = "0:1:0.01"
    argv = ("sweep", "--demo", "fig1", "--engine", "numeric", "--N", str(n), "--alpha", spec, "--T", repr(T))
    return [Invocation(argv, None, _sweep_check("fig1", spec, T, tol))]


def build_sweep_analytic(seed: int, sizes: dict, workdir: Path) -> list[Invocation]:
    T = _draw_T("fig2", seed)
    spec = sizes["sweep_orders"]
    argv = ("sweep", "--demo", "fig2", "--alpha", spec, "--T", repr(T))
    return [Invocation(argv, None, _sweep_check("fig2", spec, T, lambda a: _ANALYTIC_TOL))]


def run_inputs(*args: str) -> dict:
    """Run ``inputs.py`` in a child process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), *args],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"inputs.py {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def build_ingest_indicator(seed: int, sizes: dict, workdir: Path) -> list[Invocation]:
    alpha = random.Random(f"alpha-{seed}").uniform(0.05, 0.95)
    path = workdir / "ingest.csv"
    rows = sizes["ingest_rows"]
    ref = run_inputs("ingest", "--seed", str(seed), "--rows", str(rows), "--alpha", repr(alpha), "--out", str(path))
    # Recursive float64 summation of n positive terms is within n*eps; the
    # ratio of two such sums within twice that.
    tol = 2.0 * rows * EPS
    expected = [
        ("average", 0.0, ref["average"]),
        ("marginal", 1.0, ref["marginal"]),
        ("t_indicator", alpha, ref["t_indicator"]),
    ]

    def check(data: str, report: str) -> float:
        rows_out = _csv_rows(data, "kind,alpha,value")
        if [(r[0], float(r[1])) for r in rows_out] != [(k, a) for k, a, _ in expected]:
            raise Mismatch(f"unexpected rows {[r[:2] for r in rows_out]!r}")
        worst = 0.0
        for (kind, _, r), row in zip(expected, rows_out):
            err = rel_err(float(row[2]), r)
            if not err <= tol:
                raise Mismatch(f"{kind}: {row[2]} vs reference {r!r} (rel err {err:.3g} > {tol:.3g})")
            worst = max(worst, err)
        return worst

    argv = ("indicator", "--input", str(path), "--alpha", repr(alpha))
    return [Invocation(argv, None, check)]


def _demo_check(demo: str, n: int, count: int):
    coeffs = DEMOS[demo]
    h = coeffs["t_end"] / n

    def check(data: str, report: str) -> float:
        m = _WITNESSES.search(report)
        if m is None or m.group(1) != demo:
            raise Mismatch(f"no witness report for {demo} in {report[:200]!r}")
        if int(m.group(2)) != count:
            raise Mismatch(f"{demo}: {m.group(2)} witness pairs, reference scan found {count}")
        rows = _csv_rows(data, "x,y")
        if len(rows) != n + 1:
            raise Mismatch(f"expected {n + 1} curve rows, got {len(rows)}")
        xs = [horner(coeffs["x"], k * h) for k in range(n + 1)]
        ys = [horner(coeffs["y"], k * h) for k in range(n + 1)]
        sx, sy = max(map(abs, xs)), max(map(abs, ys))
        worst = 0.0
        for k, (row, x, y) in enumerate(zip(rows, xs, ys)):
            err = max(abs(float(row[0]) - x) / sx, abs(float(row[1]) - y) / sy)
            if not err <= _CURVE_TOL:
                raise Mismatch(f"{demo} row {k + 1}: {row!r} vs ({x!r}, {y!r})")
            worst = max(worst, err)
        return worst

    return check


def build_demo_scan(seed: int, sizes: dict, workdir: Path) -> list[Invocation]:
    n = sizes["demo_N"]
    ref = run_inputs("witnesses", "--seed", str(seed), "--N", str(n))
    invocations = []
    for demo in ("fig1", "fig2"):
        r = ref[demo]
        out = workdir / f"{demo}.csv"
        argv = ("demo", demo, "--N", str(n), "--x-tol", repr(r["x_tol"]), "--y-tol", repr(r["y_tol"]),
                "--output", str(out))
        invocations.append(Invocation(argv, str(out), _demo_check(demo, n, r["count"])))
    return invocations


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_numeric",
            "L1 kernel plus guard dominate (fig1, N=1e6, 101 orders); no ingest, small output; "
            "the closed form gives the true error at fixed N",
            build_sweep_numeric,
        ),
        Workload(
            "sweep_analytic",
            "pure-Python path per order (Lanczos gamma, caputo_poly, 513-point guard probe) over "
            "20001 orders and rows; the only workload where specfun carries weight",
            build_sweep_analytic,
        ),
        Workload(
            "ingest_indicator",
            "1e6-row CSV read dominates wall time and peak RSS; the kernel sees only 3 orders; "
            "the read side of CSV I/O",
            build_ingest_indicator,
        ),
        Workload(
            "demo_scan",
            "O(N^2) brute-force multivalued_pairs dominates (fig1/fig2 alternating, N=1e4); "
            "writes 10001 CSV rows, the write side of CSV I/O",
            build_demo_scan,
        ),
    )
}
