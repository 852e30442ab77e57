"""Run one fracalc CLI invocation in process, with and without layer spans.

    python perfbench/tracer.py SPEC.json

SPEC holds ``argv`` (the CLI arguments), ``reps`` (a string of ``U`` for an
untraced and ``T`` for a traced call, e.g. ``UT``), ``output`` (the
--output file or null), ``data`` (where to copy the last call's data
stream), ``report`` (where to copy its companion report) and ``spans``
(where to write the last traced call's spans as CSV).

The import of numpy and of ``fracalc.cli`` is timed first.  For a traced
call the tracer replaces each public function of each layer, at every place
the package binds it (``fracalc.caputo.l1_weighted_sum`` as well as
``fracalc._kernels.l1_weighted_sum``), with a wrapper that records a span:
name, parent, start and end.  Nothing in the package changes; untraced calls
run the original functions.  Prints one JSON line with, per call, the wall
time, exit status, a digest of the output and, for traced calls, the self
time, total time and call count of each span name plus the layer counters.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

perf = time.perf_counter

# Functions wrapped per module.  Names the package no longer has are
# skipped, so the tracer survives refactors that delete them.  ``as_order``
# and other validation helpers are left out: they are microseconds per call
# and wrapping them would add overhead without naming a layer's work.
TARGETS = {
    "fracalc.cli": ("main", "build_parser", "config_from_args"),
    "fracalc.series": ("ingest_csv", "sample"),
    "fracalc.indicators": (
        "alpha_sweep",
        "t_indicator",
        "average_indicator",
        "marginal_indicator",
        "detect_multivalued",
    ),
    "fracalc.caputo": ("caputo_series", "caputo_poly", "caputo_integer"),
    "fracalc._kernels": ("l1_weighted_sum", "multivalued_pairs"),
    "fracalc.specfun": ("gamma", "log_gamma"),
}

_RATIO_FUNCS = ("indicators.t_indicator", "indicators.average_indicator", "indicators.marginal_indicator")


class Tracer:
    """Spans of one traced call, kept in flat arrays until the call ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, post=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                self.stack.pop()
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "fracalc" or n.startswith("fracalc.")]
        for modname, funcs in TARGETS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                continue
            layer = modname.rsplit(".", 1)[1].lstrip("_")
            for f in funcs:
                orig = getattr(mod, f, None)
                if not callable(orig):
                    continue
                name = f"{layer}.{f}"
                wrapped = self.wrap(name, orig, _POST.get(name))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def in_span(self, name: str) -> bool:
        nid = self._ids.get(name)
        return nid is not None and any(self.name[i] == nid for i in self.stack)

    def summary(self) -> dict:
        """Per span name: summed self time, total time and call count."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        agg = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for i in range(n):
            dur = self.end[i] - self.start[i]
            a = agg[self.names[self.name[i]]]
            a["self_s"] += dur - child[i]
            a["total_s"] += dur
            a["calls"] += 1
        return dict(agg)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span,parent,name,start_s,end_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                f.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                        f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


# Counters recorded at the layer boundaries, from arguments and results.

def _post_build_parser(tr, args, parser):
    parser.parse_args = tr.wrap("cli.parse_args", parser.parse_args)


def _post_ingest(tr, args, pair):
    tr.counters["series.ingest_csv.rows"] += len(pair.y.values)
    tr.counters["series.ingest_csv.bytes"] += os.path.getsize(args[0])


def _post_sample(tr, args, series):
    tr.counters["series.sample.points"] += len(series.values)


def _post_sweep(tr, args, result):
    tr.counters["indicators.ratios"] += len(result)
    tr.counters["indicators.degenerate"] += sum(1 for e in result if getattr(e, "degenerate", False))


def _post_ratio(tr, args, value):
    # Orders evaluated inside a sweep are counted once, by the sweep.
    if not tr.in_span("indicators.alpha_sweep"):
        tr.counters["indicators.ratios"] += 1


def _post_l1(tr, args, value):
    n = len(args[0])
    tr.counters["kernels.l1_weighted_sum.points"] += n
    # Computed, not measured: per step one power, two differences, one
    # multiply and one add; the input is read once.
    tr.counters["kernels.l1_weighted_sum.flops_computed"] += 5 * (n - 1)
    tr.counters["kernels.l1_weighted_sum.bytes_computed"] += 8 * n


def _post_pairs(tr, args, pairs):
    tr.counters["kernels.multivalued_pairs.pairs_found"] += _pair_count(pairs)


def _pair_count(pairs) -> int:
    """len() of a list of (i, j) tuples or a K x 2 array; a tuple of two
    index arrays counts by the length of either."""
    if isinstance(pairs, tuple) and len(pairs) == 2 and hasattr(pairs[0], "shape"):
        return len(pairs[0])
    return len(pairs)


_POST = {
    "cli.build_parser": _post_build_parser,
    "series.ingest_csv": _post_ingest,
    "series.sample": _post_sample,
    "indicators.alpha_sweep": _post_sweep,
    **{name: _post_ratio for name in _RATIO_FUNCS},
    "kernels.l1_weighted_sum": _post_l1,
    "kernels.multivalued_pairs": _post_pairs,
}


def _call(cli, argv, output):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    wall = perf() - t0
    stdout = out.getvalue()
    data_bytes = b""
    if output is not None and os.path.exists(output):
        with open(output, "rb") as f:
            data_bytes = f.read()
    return wall, rc, stdout, err.getvalue(), data_bytes


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as f:
        spec = json.load(f)
    t0 = perf()
    import numpy  # noqa: F401

    t1 = perf()
    import fracalc.cli as cli

    t2 = perf()
    calls = []
    last = last_traced = None
    for kind in spec["reps"]:
        tracer = None
        if kind == "T":
            tracer = Tracer()
            tracer.install()
        try:
            wall, rc, stdout, stderr, data_bytes = _call(cli, spec["argv"], spec["output"])
        finally:
            if tracer is not None:
                tracer.uninstall()
        data = data_bytes if spec["output"] is not None else stdout.encode()
        report = stdout if spec["output"] is not None else ""
        call = {
            "traced": kind == "T",
            "wall_s": wall,
            "rc": rc,
            "traceback": "Traceback (most recent call last)" in stderr,
            "digest": hashlib.sha256(data + b"\0" + report.encode()).hexdigest(),
        }
        if tracer is not None:
            call["spans"] = tracer.summary()
            call["counters"] = dict(tracer.counters)
            call["counters"]["cli.bytes_out"] = len(stdout.encode()) + len(data_bytes)
            last_traced = tracer
        calls.append(call)
        last = (data, report)
    if last_traced is not None:
        last_traced.write_spans(spec["spans"])
    with open(spec["data"], "wb") as f:
        f.write(last[0])
    with open(spec["report"], "w", encoding="utf-8") as f:
        f.write(last[1])
    print(json.dumps({"import": {"numpy_s": t1 - t0, "fracalc_s": t2 - t1}, "calls": calls}))


if __name__ == "__main__":
    main()
