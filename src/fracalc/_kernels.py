"""Hot numerical kernels (numpy)."""

import numpy as np

# Candidate pairs are tested in blocks of at most this many, so the memory
# used beyond the result stays bounded (about 80 MB) even when a flat factor
# makes every pair a candidate.
_BLOCK_ELEMENTS = 1_000_000

# Slack added to each sorted point's x_tol window, in units of the spacing of
# the largest magnitude involved.  fl(xs[k] + x_tol) and the exact test's
# fl(xs[m] - xs[k]) each round by at most about one such spacing, so this
# window always contains every match; the exact test then removes the extra.
_WINDOW_ULPS = 4.0

# Grid steps per block of the L1 sum: the block's differences, log counts
# and weight buffers (a few hundred KB) stay in cache across all exponents,
# and the log of the counts is taken once per block, not once per exponent.
_L1_BLOCK = 16_384


def l1_weighted_sum(rows, exponents):
    """L1 sums of every row at every exponent, in one blocked pass.

    ``rows`` holds series of equal length N + 1 (a 2-D array or a sequence
    of 1-D arrays).  Entry [i, j] of the returned (len(exponents), len(rows))
    array is

        sum_k ((N-k)^e_i - (N-1-k)^e_i) * (rows[j][k+1] - rows[j][k]),  k = 0..N-1.

    The grid is walked in blocks of ``_L1_BLOCK`` steps.  Per block the rows
    are differenced once, and the log of the block's counts m = N-k is taken
    once, relative to its top count M, as log(m/M).  Per exponent, the
    powers m^e = M^e * exp(e * log(m/M)) and the weights go into two buffers
    allocated once per call, and one small matvec applies the weights to
    all rows.  |e * log(m/M)| is small wherever m is large, so each power
    is within a few ulps there, and the block's two end counts take their
    power from ``**``, so the weights telescope across blocks as they do
    within one.  The sums are about as accurate as with ``m**e`` at every
    count, at half the cost.

    The block that ends the grid holds m = 0, whose log is -inf, so its
    power is exp(-inf) = 0 = 0^e.  That needs e > 0 (at e = 0 the product
    0 * -inf is nan): the exponents must lie in (0, 1], as those of the
    sampled branch of ``caputo._derivatives`` always do.  The matvec is
    ``np.einsum``, not BLAS: it runs on one thread and sums in the same
    order whichever BLAS numpy links.  Extra memory is O(rows * block),
    never O(N).  Each exponent's arithmetic is the same whichever other
    exponents share the call, so its result is too.
    """
    rows = [np.asarray(r, dtype=np.float64) for r in rows]
    n = rows[0].shape[0] - 1
    out = np.zeros((len(exponents), len(rows)))
    size = min(_L1_BLOCK, n) + 1
    power, weight = np.empty(size), np.empty(size - 1)
    for start in range(0, n, _L1_BLOCK):
        stop = min(start + _L1_BLOCK, n)
        d = np.stack([np.diff(r[start : stop + 1]) for r in rows])
        top, bottom = n - start, n - stop
        with np.errstate(divide="ignore"):
            log_ratio = np.log(np.arange(top, bottom - 1, -1, dtype=np.float64) / top)
        p, w = power[: log_ratio.size], weight[: log_ratio.size - 1]
        for i, e in enumerate(exponents):
            np.exp(np.multiply(e, log_ratio, out=p), out=p)
            np.multiply(p, top**e, out=p)
            p[-1] = bottom**e
            np.subtract(p[:-1], p[1:], out=w)
            out[i] += np.einsum("ij,j->i", d, w)
    return out


def multivalued_pairs(x, y, x_tol, y_tol):
    """Index pairs (i, j), i < j, with |x_i - x_j| <= x_tol and |y_i - y_j| > y_tol.

    Returns two int64 arrays ``(i, j)`` in row-major order (i ascending, then
    j).  x is sorted once; for sorted x, fl(xs[m] - xs[k]) grows with m, so
    each point's matches with larger x form one contiguous run, found with
    ``searchsorted`` on a slightly widened window.  Cost is O(N log N) plus
    the number of candidates in those windows.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    slack = _WINDOW_ULPS * np.spacing(np.maximum(np.abs(xs), x_tol))
    hi = np.searchsorted(xs, (xs + x_tol) + slack, side="right")
    # Sorted point k is paired with the points after it in its window; the
    # candidates of all points are numbered 0..total-1 through `starts`.
    counts = np.maximum(hi - np.arange(1, xs.shape[0] + 1), 0)
    starts = np.concatenate(([0], np.cumsum(counts)))
    total = int(starts[-1])
    out_i, out_j = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for c0 in range(0, total, _BLOCK_ELEMENTS):
        c = np.arange(c0, min(c0 + _BLOCK_ELEMENTS, total))
        k = np.searchsorted(starts, c, side="right") - 1
        a, b = order[k], order[k + 1 + (c - starts[k])]
        i, j = np.minimum(a, b), np.maximum(a, b)
        keep = (np.abs(x[i] - x[j]) <= x_tol) & (np.abs(y[i] - y[j]) > y_tol)
        out_i.append(i[keep])
        out_j.append(j[keep])
    i, j = np.concatenate(out_i), np.concatenate(out_j)
    rows = np.lexsort((j, i))
    return i[rows].astype(np.int64, copy=False), j[rows].astype(np.int64, copy=False)
