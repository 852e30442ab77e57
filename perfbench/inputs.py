"""Seeded inputs and numpy references, computed in a child process.

    python perfbench/inputs.py ingest --seed S --rows R --alpha A --out FILE
    python perfbench/inputs.py witnesses --seed S --N N

Prints one JSON line with the reference values.  The parent (``run.py``)
stays free of large arrays because its peak RSS would otherwise show up in
the ``ru_maxrss`` of every invocation it times.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from workloads import DEMOS

# Step of the ingested grid: a power of two, so k*h is exact and the grid is
# exactly uniform after the round trip through decimal text.
_INGEST_H = 2.0 ** -10

# A threshold counts as robust when no pair sits within this relative margin
# of it, so an ulp of difference in how the program samples the curve cannot
# flip a witness.
_TOL_MARGIN = 1e-9

# Rows of the pair matrix per block in the reference scan (~1e6 elements).
_BLOCK_ELEMENTS = 1_000_000


def ingest(seed: int, rows: int, alpha: float, out: str) -> dict:
    """Write the t,x,y CSV and return the three indicator references.

    x has strictly positive increments in [0.01, 0.02] and y in
    [0.03, 0.05], so every L1 term is positive and the one-sided three-point
    differences 3a - b of the last two increments are bounded away from 0.
    """
    rng = np.random.default_rng([seed % 2**64, 1])
    t = np.arange(rows) * _INGEST_H
    x = 100.0 + np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.02, rows - 1))))
    y = 1000.0 + np.concatenate(([0.0], np.cumsum(0.04 + rng.uniform(-0.01, 0.01, rows - 1))))
    with open(out, "w", encoding="utf-8", newline="") as f:
        f.write("t,x,y\n")
        f.writelines(f"{a!r},{b!r},{c!r}\n" for a, b, c in zip(t.tolist(), x.tolist(), y.tolist()))

    def three_point(v):
        return 3.0 * v[-1] - 4.0 * v[-2] + v[-3]

    def l1_sum(v):
        n = v.size - 1
        k = np.arange(n, dtype=np.float64)
        w = (n - k) ** (1.0 - alpha) - (n - 1.0 - k) ** (1.0 - alpha)
        return float(np.dot(w, np.diff(v)))

    return {
        "average": float(y[-1] / x[-1]),
        "marginal": float(three_point(y) / three_point(x)),
        "t_indicator": l1_sum(y) / l1_sum(x),
    }


def _sample(coeffs, t_end: float, n: int) -> np.ndarray:
    t = np.arange(n + 1) * (t_end / n)
    acc = np.zeros_like(t)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _count_pairs(x, y, x_tol: float, y_tol: float) -> tuple[int, int]:
    """Witness counts (i < j) at thresholds moved by -/+ the margin.

    The first count tightens both thresholds, the second loosens both; when
    they agree, no pair lies near either threshold.
    """
    n = x.size
    block = max(1, _BLOCK_ELEMENTS // n)
    tight = loose = 0
    for i0 in range(0, n - 1, block):
        i1 = min(i0 + block, n - 1)
        cols = slice(i0 + 1, n)
        dx = np.abs(x[i0:i1, None] - x[None, cols])
        dy = np.abs(y[i0:i1, None] - y[None, cols])
        upper = np.arange(i0 + 1, n)[None, :] > np.arange(i0, i1)[:, None]
        tight += int(np.count_nonzero(upper & (dx <= x_tol * (1 - _TOL_MARGIN)) & (dy > y_tol * (1 + _TOL_MARGIN))))
        loose += int(np.count_nonzero(upper & (dx <= x_tol * (1 + _TOL_MARGIN)) & (dy > y_tol * (1 - _TOL_MARGIN))))
    return tight, loose


def witnesses(seed: int, n: int) -> dict:
    """Seeded tolerances near the CLI defaults and the exact witness counts.

    The defaults are one grid cell of X variation and ten of Y variation;
    each is scaled by a factor in [0.8, 1.2], redrawn while a pair sits
    within the margin of a threshold.
    """
    rng = np.random.default_rng([seed % 2**64, 2])
    result = {}
    for demo, d in DEMOS.items():
        x = _sample(d["x"], d["t_end"], n)
        y = _sample(d["y"], d["t_end"], n)
        cell_x = float(np.max(np.abs(np.diff(x))))
        cell_y = float(np.max(np.abs(np.diff(y))))
        for _ in range(20):
            x_tol = cell_x * float(rng.uniform(0.8, 1.2))
            y_tol = 10.0 * cell_y * float(rng.uniform(0.8, 1.2))
            tight, loose = _count_pairs(x, y, x_tol, y_tol)
            if tight == loose:
                break
        else:
            raise SystemExit(f"{demo}: no robust tolerances found in 20 draws")
        result[demo] = {"x_tol": x_tol, "y_tol": y_tol, "count": tight}
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("ingest")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p = sub.add_parser("witnesses")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    args = parser.parse_args()
    if args.kind == "ingest":
        result = ingest(args.seed, args.rows, args.alpha, args.out)
    else:
        result = witnesses(args.seed, args.N)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
