"""Memory contracts: besides stored samples, only the witnesses that
``detect_multivalued`` returns take memory that grows with the input.
``demo`` counts the witness scan a block at a time and keeps none of its
blocks, and CSV text, from ``export_csv`` or any command, is written a
block of rows at a time.

A polynomial sampled on a grid holds no samples: each pass computes them a
block at a time, so the numeric engine on a polynomial holds none, and only
``values`` builds them.  Ingested CSV files store x and y; a pipe also
holds its bytes.

Peaks are measured with ``tracemalloc``, which sees numpy's array buffers
as well as Python objects.  Every bound is the memory the result itself
needs plus ``SLACK``: sixteen float64 buffers of one block.  The block is
shrunk here so that a single full-length temporary of N float64 values
breaks the bound at sizes that run in a fraction of a second.  CSV ingest
parses in chunks of ``np.loadtxt`` rows, so its slack is counted in those.
The witness scan's sort order and search windows, a few index arrays of
N, count with the samples.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from fracalc import _kernels, detect_multivalued, export_csv, ingest_csv, sample, series
from fracalc.caputo import _Derivative
from fracalc.cli import _grid_tol, main
from fracalc.indicators import _evaluate

BLOCK = 4096
SLACK = 16 * 8 * BLOCK


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(_kernels, "_L1_BLOCK", BLOCK)
    monkeypatch.setattr(_kernels, "_BLOCK_ELEMENTS", BLOCK)


def traced_peak(f, *args):
    """f(*args) and the most memory it held at once beyond what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_sample_holds_only_the_samples(fig1):
    # sample() keeps the coefficients; values builds the samples alone.
    n = 200_000
    series, peak = traced_peak(sample, fig1.y, fig1.t_end, n)
    assert peak <= SLACK
    values, peak = traced_peak(lambda: series.values)
    assert values.nbytes == 8 * (n + 1)
    assert peak <= 8 * (n + 1) + SLACK


def test_evaluate_needs_no_memory_that_grows_with_n(fig1):
    pair = fig1.sampled_pair(200_000)
    _, peak = traced_peak(_evaluate, pair, [0.0, 0.5, 1.0], None)
    assert peak <= SLACK


def test_sampled_polynomial_pair_holds_no_samples(fig1):
    # Sampling, the finiteness check, the kernel, the end values and the
    # guard's scale: none of them builds the samples, nor does the
    # derivative that orders in (1, 2) read.
    for orders in ([0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 1.5]):
        _, peak = traced_peak(lambda: _evaluate(fig1.sampled_pair(200_000), orders, None))
        assert peak <= SLACK, orders


def test_sampled_polynomial_blocks_hold_one_buffer(fig1):
    # A polynomial's blocks share one buffer, and its times live only while
    # a block is computed; the derivative adds its own buffer and the
    # polynomial's blocks widened by two samples.
    series = sample(fig1.y, fig1.t_end, 200_000)
    bounds = list(_kernels.blocks(series.n_steps + 1))
    for view, bound in ((series, 3 * 8 * BLOCK), (_Derivative(series), 4 * 8 * BLOCK)):
        _, peak = traced_peak(lambda: sum(1 for _ in view._blocks(bounds)))
        assert peak < bound, type(view).__name__


def test_numeric_sweep_command_holds_no_samples(capsys):
    argv = ["sweep", "--demo", "fig1", "--engine", "numeric", "--N", "200000", "--alpha", "0:1:0.5", "--T", "350"]
    code, peak = traced_peak(main, argv)
    assert code == 0 and capsys.readouterr().out.count("\n") == 4
    assert peak <= SLACK


def test_demo_tolerance_takes_a_few_blocks(fig1):
    # demo's default tolerances: the largest step, block by block, with the
    # value of the full-length max|diff|.
    series = sample(fig1.y, fig1.t_end, 200_000)
    tol, peak = traced_peak(_grid_tol, series, 10.0)
    assert tol == 10.0 * float(np.max(np.abs(np.diff(series.values))))
    assert peak <= 4 * 8 * BLOCK


def test_witness_scan_holds_the_witnesses_and_index_arrays_of_n(fig2):
    # demo's default tolerances on fig2.  The scan returns int64 indices
    # (i, j) and detect_multivalued writes the float64 times (t1, t2) over
    # them block by block: 16 bytes per witness.  Before that, the
    # scan holds its sort order, the sorted x and the rows' window ends, a
    # few int64 arrays of N (eight here), the witnesses found so far and one
    # block's candidates, which SLACK covers.
    n = 10_000
    xs, ys = sample(fig2.x, fig2.t_end, n), sample(fig2.y, fig2.t_end, n)
    x_tol, y_tol = _grid_tol(xs, 1.0), _grid_tol(ys, 10.0)
    (t1, t2), peak = traced_peak(detect_multivalued, xs, ys, x_tol, y_tol)
    assert t1.size > 10 * n
    assert peak <= 16 * t1.size + 8 * 8 * (n + 1) + SLACK


def test_demo_command_holds_no_witnesses(tmp_path, capsys):
    # The witness test's bound without the witnesses: demo builds its
    # samples for the scan, counts the scan's blocks, keeps ten witnesses
    # and writes its curve a block of rows at a time.
    n = 20_000
    path = tmp_path / "curve.csv"
    code, peak = traced_peak(main, ["demo", "fig2", "--N", str(n), "--output", str(path)])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("multivalued dependence (fig2): ")
    assert int(out.split(": ")[1].split()[0]) > 10 * n
    assert peak <= 16 * (n + 1) + 8 * 8 * (n + 1) + SLACK


def test_export_holds_one_block_of_rows(tmp_path, fig2):
    # The samples are built first, 16 bytes a row; then the text, several
    # times the samples' size, is formatted and written a block of rows at
    # a time.
    rows = 100_001
    path = tmp_path / "pair.csv"
    _, peak = traced_peak(export_csv, fig2.sampled_pair(rows - 1), path)
    assert path.stat().st_size > 2 * (16 * rows + SLACK)
    assert peak <= 16 * rows + SLACK


def pad_one_cell(path, line):
    """Pad the first cell of a 0-based line of the file with U+00A0, so that the file is not ASCII."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line] = lines[line].replace(b",", "\xa0,".encode(), 1)
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize(
    "newline,pad",
    [("\n", False), ("\r\n", False), ("\n", True), ("\r\n", True)],
    ids=["\n", "\r\n", "\n-nbsp", "\r\n-nbsp"],
)
def test_line_count_holds_two_reads(tmp_path, fig2, newline, pad):
    # The scan that bounds the rows of a CSV file holds the read it counts
    # and, while the next one arrives, that one too.  Counting the line
    # breaks of a read takes a few read-sized bool buffers, and checking a
    # read that is not ASCII takes its decoded text: a CR needs more
    # buffers than an LF.
    rows = 40_000
    path = tmp_path / "pair.csv"
    export_csv(fig2.sampled_pair(rows - 1), path)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    if pad:
        pad_one_cell(path, rows // 2)
    assert path.stat().st_size > 2 * series._SCAN_CHUNK
    with open(path, "rb") as f:
        bound, peak = traced_peak(series._loadtxt_rows, f)
    assert bound == rows
    assert peak <= 2 * series._SCAN_CHUNK + SLACK


def test_ingest_holds_only_x_and_y(tmp_path, monkeypatch, fig2):
    # x and y take 16 bytes per row; t is checked chunk by chunk.  Beyond
    # them, four tables of np.loadtxt's chunk (24 bytes per row) cover the
    # table, its over-allocation while it parses and the grid check's
    # temporaries.  The byte scan reads small pieces here, so that its two
    # pieces held at once stay below that too.  A file that is not ASCII,
    # and then one whose lines also end in CR LF, reads in the same chunks,
    # and to the same arrays.
    monkeypatch.setattr(series, "_SCAN_CHUNK", 8 * BLOCK)
    rows = 100_001
    sampled = fig2.sampled_pair(rows - 1)
    path = tmp_path / "pair.csv"
    export_csv(sampled, path)
    for edit in ("", "nbsp", "crlf"):
        if edit == "nbsp":
            pad_one_cell(path, rows // 2)
        elif edit == "crlf":
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        pair, peak = traced_peak(ingest_csv, path)
        assert peak <= 16 * rows + 4 * 24 * series._LOADTXT_ROWS
        for got, want in ((pair.x.values, sampled.x.values), (pair.y.values, sampled.y.values)):
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous and not got.flags.writeable


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_piped_ingest_holds_the_bytes_x_and_y(tmp_path, monkeypatch, fig2):
    # A pipe cannot be read twice, so its bytes are held; then it is parsed
    # as a file is, with the same memory as above besides them.
    monkeypatch.setattr(series, "_SCAN_CHUNK", 8 * BLOCK)
    rows = 100_001
    sampled = fig2.sampled_pair(rows - 1)
    path, fifo = tmp_path / "pair.csv", tmp_path / "pair.fifo"
    export_csv(sampled, path)
    data = path.read_bytes()
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        pair, peak = traced_peak(ingest_csv, fifo)
    finally:
        writer.join()
    assert peak <= len(data) + 16 * rows + 4 * 24 * series._LOADTXT_ROWS + SLACK
    assert pair.y.values.tobytes() == sampled.y.values.tobytes()
