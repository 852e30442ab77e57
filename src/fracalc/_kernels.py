"""Hot numerical kernels (numpy)."""

import math

import numpy as np

# Candidate pairs are tested in blocks of consecutive rows holding at most
# this many candidates, unless one row's window alone holds more.  A block
# holds at most about eight index and value buffers of 8 bytes per
# candidate, 512 KB at this size, so they stay in cache.  On demo's curves
# at N = 1e4, blocks of 8192 scanned as fast as 16384 or faster, 4096 and
# 32768 more slowly, and `demo`'s peak RSS was 0.5 MB lower than at 16384.
_BLOCK_ELEMENTS = 8192

# Slack added to each point's x_tol window on either side, in units of the
# spacing of the largest magnitude involved.  fl(x_i +- x_tol) and the exact
# test's fl(x_i - x_j) each round by at most about one such spacing, so
# this window always contains every match; the exact test then removes the
# extra.
_WINDOW_ULPS = 4.0

# Grid steps per block of the L1 sum at most: the block's differences, log
# counts and weight buffers (a few hundred KB) stay in cache while the
# block's moments are taken.  Every other pass over the samples (the
# finiteness check, the degeneracy guard's scale, the demo tolerances and
# ``values``) walks blocks of the same size.  Each pass, this one included,
# reads a series through ``SampledSeries._blocks``, which computes a
# polynomial's samples block by block into one buffer it reuses.  Blocks
# are read-only, and a pass writes only its own buffers.  So no pass needs
# memory that grows with N, and on a polynomial only ``values`` does.
_L1_BLOCK = 16_384

# The last steps of the grid, whose counts m = N-k are at most this, keep
# the direct sum of power differences: the expansion needs log(m / top),
# and log 0 = -inf.  l1_weighted_sum says why 64.
_NEAR_FIELD = 64


def blocks(size):
    """(start, stop) of each block of at most ``_L1_BLOCK`` indices, covering range(size) in order."""
    return ((start, min(start + _L1_BLOCK, size)) for start in range(0, size, _L1_BLOCK))


def max_abs_differences(series, orders):
    """max|diff(v, n)| for each n of ``orders``: the largest n-th differences
    of the series' samples v (v itself for n = 0), in one pass over v, block by block.
    The blocks are read; the differences go to a spare buffer of the longest block.
    """
    top = max(orders)
    bounds = [(start, stop + top) for start, stop in blocks(series.n_steps + 1 - top)]
    maxima = {n: [] for n in orders}
    spare = np.empty(max(stop - start for start, stop in bounds) - 1)
    for d in series._blocks(bounds):
        for q in range(top + 1):
            if q:
                # A difference that overflows is inf, and so is the maximum.
                with np.errstate(over="ignore"):
                    d = np.subtract(d[1:], d[:-1], out=spare[: d.size - 1])
            if q in maxima:
                # max|d| from the extremes of d, nan where d holds one.
                maxima[q].append(max(abs(float(d.max())), abs(float(d.min()))))
    return [float(np.max(maxima[n])) for n in orders]


def _spans(n):
    """(top, bottom) counts of each expanded block, from n down to the near field.

    A block holds at most ``_L1_BLOCK`` steps and ends at bottom >= 4/5 top,
    so its span log(top / bottom) is at most log(5/4).
    """
    top = n
    while top > _NEAR_FIELD:
        bottom = max(_NEAR_FIELD, top - _L1_BLOCK, -(-4 * top // 5))
        yield top, bottom
        top = bottom


def _terms(span):
    """Terms Q of the expansion over a span: the least Q with span^Q e^span / Q! <= 2^-53."""
    q, remainder = 1, span * math.exp(span)
    while remainder > 2.0**-53:
        q += 1
        remainder *= span / q
    return q


def l1_weighted_sum(rows, exponents):
    """L1 sums of every row at every exponent; the pass over the samples serves all exponents.

    ``rows`` holds ``SampledSeries`` of equal length N + 1, with samples v_j,
    each read a block at a time.  Entry [i, j] of the returned
    (len(exponents), len(rows)) array is

        sum_k ((N-k)^e_i - (N-1-k)^e_i) * (v_j[k+1] - v_j[k]),  k = 0..N-1.

    The exponents must lie in (0, 1], as those of the sampled branch of
    ``caputo._derivatives`` always do: the number of terms below is fixed
    for e <= 1, and the last count's power 0^e is 0 only for e > 0.

    **Expansion.**  The counts m = N-k from N down to ``_NEAR_FIELD`` are
    cut into blocks of at most ``_L1_BLOCK`` steps with bottom >= 4/5 top.
    In a block of K steps from count M = top, let l_j = log(m_j / M), which
    lies in [-delta, 0] with delta = log(5/4), and d_j the row's step.  With
    p_j = m_j^e = M^e exp(e l_j) and the step below the block's last point
    written out,

        sum_j (p_j - p_{j+1}) d_j = M^e sum_{q=1..Q} (e^q / q!) A_q
                                    + ((bottom+1)^e - bottom^e) d_{K-1},
        A_q = sum_{j<K-1} (l_j^q - l_{j+1}^q) d_j.

    The moments A_q do not depend on e, so a block costs Q passes over its
    samples (a power, a difference and a dot product each) for all
    exponents together, and each exponent then needs only a Horner sum over
    q.  The l_j are log1p(-j/M), accurate relative to |l_j|.

    **Terms.**  For t <= 0, |exp(t) - T_{Q-1}(t)| <= |t|^Q / Q!, so the
    truncated weight of step j differs from the true one by at most
    (e s)^Q e^(e s) / Q! relative, where s = -l_{K-1} is the block's span.
    Each block takes the least Q that makes this at most 2^-53 at e = 1
    (``_terms``): up to 12 terms where the span reaches log(5/4), 7 for a
    block of 16384 steps from count 1e6.  A wider delta would need more
    terms, a narrower one more blocks; log(5/4) makes the rule bottom =
    ceil(4 top / 5) exact in integers.  Below count 64 such blocks would
    hold under 13 steps, each costing more per exponent than the 64 powers
    of the direct sum there.

    **Exact ends.**  A block's top power M^e comes from ``**`` and is the
    bottom power of the block above, so the weights telescope across blocks
    as they do within one, and the last step's weight is
    bottom^e expm1(e log1p(1/bottom)), free of cancellation.  The last
    ``_NEAR_FIELD`` steps take their powers from ``**`` too and difference
    them directly.  The rounding of the l_j and of the dot products makes a
    weight's relative error grow with the block's length, not with N; the
    accuracy test in ``tests/test_kernels.py`` derives the bound.

    **Same result for an exponent alone.**  Powers, exp and log of the
    exponents are taken one exponent at a time, with Python's ``**`` and
    ``math`` per block and one ``np.power`` call per exponent in the near
    field: numpy's ``power`` picks its algorithm by the operands' layout and
    value (an exponent array of one 0.5 against an array of counts becomes a
    square root), so a call over all exponents would make an exponent's
    result depend on the others.  The rest is +, * and / on arrays,
    correctly rounded element by element, and the dot products are
    ``np.einsum``, not BLAS: one thread, the same summation order whichever
    BLAS numpy links.

    Cost: about Q <= 12 passes over the N steps, plus O(Q) work per exponent
    per block and ``_NEAR_FIELD`` powers per exponent.  Extra memory beside
    the result is O(rows * block), never O(N).  Each block of a row is read
    once, the K + 1 samples whose K steps it takes.
    """
    exponents = [float(x) for x in exponents]
    n = rows[0].n_steps
    e = np.array(exponents).reshape(-1, 1)
    out = np.zeros((e.size, len(rows)))
    size = min(n, max(_L1_BLOCK, _NEAR_FIELD))
    d = np.empty((len(rows), size))
    steps = np.arange(size, dtype=np.float64)
    ell, weight, power = np.empty(size), np.empty(size), np.empty(size + 1)
    upper = [n**x for x in exponents]
    spans = list(_spans(n))
    near = min(n, _NEAR_FIELD)
    # Each row's blocks in the order the loops below take them: the expanded
    # blocks, then the near field.
    bounds = [(n - top, n - bottom + 1) for top, bottom in spans] + [(n - near, n + 1)]
    reads = [r._blocks(bounds) for r in rows]
    for top, bottom in spans:
        k = top - bottom
        for i, read in enumerate(reads):
            v = next(read)
            np.subtract(v[1:], v[:-1], out=d[i, :k])
        if k > 1:
            ell_k = np.log1p(np.divide(steps[:k], -top, out=ell[:k]), out=ell[:k])
            moments = np.empty((_terms(-ell_k[-1]), len(rows)))
            lq = ell_k
            for q in range(moments.shape[0]):
                if q:
                    lq = np.multiply(lq, ell_k, out=power[:k])
                np.subtract(lq[:-1], lq[1:], out=weight[: k - 1])
                moments[q] = np.einsum("ij,j->i", d[:, : k - 1], weight[: k - 1])
            # e * (A_1 + e/2 (A_2 + e/3 (A_3 + ...))), one row per exponent.
            h = moments[-1]
            for q in range(moments.shape[0] - 1, 0, -1):
                h = moments[q - 1] + e / (q + 1) * h
            out += np.array(upper).reshape(-1, 1) * e * h
        lower = [bottom**x for x in exponents]
        step = math.log1p(1.0 / bottom)
        last = [p * math.expm1(x * step) for p, x in zip(lower, exponents)]
        out += np.array(last).reshape(-1, 1) * d[:, k - 1]
        upper = lower
    for i, read in enumerate(reads):
        v = next(read)
        np.subtract(v[1:], v[:-1], out=d[i, :near])
    counts, p = np.arange(near, -1, -1, dtype=np.float64), power[: near + 1]
    for i, x in enumerate(exponents):
        np.power(counts, x, out=p)
        p[0] = upper[i]
        w = np.subtract(p[:-1], p[1:], out=weight[:near])
        out[i] += np.einsum("ij,j->i", d[:, :near], w)
    return out


def pair_indices(keys, n):
    """Blocks of keys i * n + j joined and split into int64 arrays ``(i, j)``."""
    j = np.concatenate([np.empty(0, np.int64), *keys])
    i = j // n
    j %= n
    return i, j


def pair_keys(x, y, x_tol, y_tol):
    """Index pairs i < j with |x_i - x_j| <= x_tol and |y_i - y_j| > y_tol, a block at a time.

    A generator of int64 arrays of keys i * n + j, with n = len(x): each
    block's keys sorted, the blocks in row order, so that they concatenate
    to every pair in row-major order (i ascending, then j).  x is sorted
    once.  For sorted x, fl(x_j - x_i) is monotone in x_j, so each row's
    matches form one contiguous run in sorted order, found with
    ``searchsorted`` on a window from fl(x_i - x_tol) to fl(x_i + x_tol),
    widened by the slack of ``_WINDOW_ULPS`` on both sides.  The windows
    are two-sided, so each pair is tested from both of its rows and kept
    only from the smaller index: about twice the exact tests of a one-sided
    scan, but the rows come out in order.  Consecutive rows are tested in
    blocks of at most ``_BLOCK_ELEMENTS`` candidates (a row whose window
    holds more is a block alone), and one sort of a block's keys orders it
    by j within i, so the blocks need no global sort.

    Cost is O(N log N) plus the number of candidates in those windows.
    Memory is O(N + block): a few index arrays of N and one block's
    candidates.  A reader that keeps no block holds no pairs.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = x.shape[0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # A window that overflows is infinite, and the exact test below bounds it.
    with np.errstate(over="ignore"):
        slack = _WINDOW_ULPS * np.spacing(np.maximum(np.abs(x), x_tol))
        lo = np.searchsorted(xs, (x - x_tol) - slack, side="left")
        hi = np.searchsorted(xs, (x + x_tol) + slack, side="right")
    # Row r's candidates are the sorted positions lo[r]..hi[r]-1, numbered
    # ends[r] - (hi[r] - lo[r]) .. ends[r] - 1 over all rows.
    ends = np.cumsum(hi - lo)
    r0 = 0
    while r0 < n:
        first = int(ends[r0 - 1]) if r0 else 0
        r1 = max(int(np.searchsorted(ends, first + _BLOCK_ELEMENTS, side="right")), r0 + 1)
        width = hi[r0:r1] - lo[r0:r1]
        i = np.repeat(np.arange(r0, r1, dtype=np.int64), width)
        pos = np.arange(first, int(ends[r1 - 1]), dtype=np.int64)
        pos += np.repeat(lo[r0:r1] - (ends[r0:r1] - width), width)
        j = order[pos]
        keep = j > i
        keep &= np.abs(x[i] - xs[pos]) <= x_tol
        keep &= np.abs(y[i] - y[j]) > y_tol
        key = i[keep]
        key *= n
        key += j[keep]
        key.sort()
        yield key
        r0 = r1
