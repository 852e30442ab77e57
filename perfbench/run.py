#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the fracalc CLI.

Run from the root of a checkout (no install needed; the CLI runs from src/):

    python3 perfbench/run.py --workload sweep_numeric --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seconds 25     # all four workloads, one report each
    python3 perfbench/run.py --smoke          # each workload once at small sizes

Workloads (see workloads.py and BENCHMARK.json for why each exists):
sweep_numeric, sweep_analytic, ingest_indicator and demo_scan.  The seed
sets every input; the program sees only its argv and the generated files.

With ``--trace 0`` the benchmark runs a closed loop with one client: it
spawns ``python -m fracalc ...`` one invocation at a time and times each from
spawn to exit, taking CPU time and peak RSS from ``os.wait4``.  After every
invocation a fresh interpreter runs ``import fracalc.cli`` and exits; that is
``setup_s``.  A round runs each of the workload's invocations once (demo_scan
alternates fig1 and fig2), and a round's sample is the mean over its
invocations, so every sample has the same mix.  Each round is bracketed by
two runs of a fixed reference task, ``hostref.py``, and the time metrics are
scaled to a nominal host speed (see ``REF_NOMINAL_S``); each metric is the
median over rounds.  The unscaled medians are printed as ``wall_s.raw``,
``cpu_s.raw`` and ``setup_s.raw``.

With ``--trace 1`` each invocation runs in process under ``tracer.py``, which
times the imports and then makes one untraced and one traced call, in
alternating order from round to round (UT, TU, UT, ...) so that warm-up
falls on each side equally.
Traced calls record a span around each public function of each layer (cli,
series, indicators, caputo, _kernels as ``kernels``, specfun).  A layer's
self time is its spans minus their child spans; ``trace.overhead_s`` is the
traced minus the untraced in-process time.

Every output is checked against an independent reference before it counts:
a non-zero exit, a traceback, a non-finite value on the data stream, bytes
that differ from an earlier identical invocation, or a value out of
tolerance is a failure.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes ``.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json`` with
the samples and an environment record; traced runs also write the spans of
their last traced call to ``.perfbench_out/<workload>/spans.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import FULL, SMOKE, WORKLOADS, Invocation, Mismatch, check_stream

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# No single child may outlive this, so a run ends well inside 180 s.
_CHILD_TIMEOUT_S = 60.0

# Other tenants' load changes the host's speed from second to second: on a
# shared 2-vCPU host one invocation can take twice as long as the same
# invocation a few seconds earlier, and slow spells last long enough to move
# the median of a whole run.  So each round of invocations is bracketed by
# two runs of a fixed reference task (hostref.py), and every time metric is
# multiplied by REF_NOMINAL_S / (mean of the two reference times).  A scaled
# time reads as seconds on a host where the reference task takes
# REF_NOMINAL_S, about its median on a 2-vCPU Xeon; the reference never
# imports fracalc, so a change to the program moves only the scaled time.
REF_NOMINAL_S = 0.5
_SCALED = ("wall_s", "cpu_s", "setup_s")

# (name, unit, better) -- mirrored in BENCHMARK.json; the smoke run checks
# that the two agree.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)
PER_LAYER = (
    ("import.numpy_s", "s", "lower"),
    ("import.fracalc_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("series.ingest_csv.self_s", "s", "lower"),
    ("series.ingest_csv.rows", "count", "lower"),
    ("series.ingest_csv.mb_per_s", "MB/s", "higher"),
    ("series.sample.self_s", "s", "lower"),
    ("series.sample.points", "count", "lower"),
    ("indicators.alpha_sweep.self_s", "s", "lower"),
    ("indicators.t_indicator.self_s", "s", "lower"),
    ("indicators.average_indicator.self_s", "s", "lower"),
    ("indicators.marginal_indicator.self_s", "s", "lower"),
    ("indicators.ratios", "count", "lower"),
    ("indicators.degenerate", "count", "lower"),
    ("indicators.detect_multivalued.self_s", "s", "lower"),
    ("caputo.caputo_series.self_s", "s", "lower"),
    ("caputo.caputo_series.calls", "count", "lower"),
    ("caputo.caputo_poly.self_s", "s", "lower"),
    ("caputo.caputo_poly.calls", "count", "lower"),
    ("kernels.l1_weighted_sum.self_s", "s", "lower"),
    ("kernels.l1_weighted_sum.calls", "count", "lower"),
    ("kernels.l1_weighted_sum.points", "count", "lower"),
    ("kernels.l1_weighted_sum.flops_computed", "flop", "lower"),
    ("kernels.l1_weighted_sum.bytes_computed", "B", "lower"),
    ("kernels.multivalued_pairs.self_s", "s", "lower"),
    ("kernels.multivalued_pairs.pairs_found", "count", "lower"),
    ("specfun.gamma.self_s", "s", "lower"),
    ("specfun.gamma.calls", "count", "lower"),
    ("specfun.log_gamma.calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("verify.max_rel_err", "1", "lower"),
)
_UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
_UNITS |= {f"{m}.raw": "s" for m in _SCALED} | {"host.reference_s": "s"}


class Failure(Exception):
    """One invocation failed; the message says how."""


@dataclass
class Run:
    """Samples and verification state of one benchmark run."""

    invocations: list[Invocation]
    workdir: Path
    env: dict
    seen: dict = field(default_factory=dict)  # argv -> digest of its verified output
    max_rel_err: float = 0.0
    verified: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # metric -> per-round values

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, inv: Invocation, why: str) -> None:
        self.failures.append(f"{' '.join(inv.argv)}: {why}")
        print(f"FAILED {self.failures[-1]}", file=sys.stderr)

    def verify(self, inv: Invocation, digest: str, data: bytes, report: str) -> None:
        """Check one output; raise Failure if it is wrong.

        The first output of each argv is checked against the reference; a
        later one must have the same digest.
        """
        known = self.seen.get(inv.argv)
        if known is not None:
            if digest != known:
                raise Failure("output bytes differ from an earlier identical invocation")
            return
        try:
            text = data.decode("utf-8")
            check_stream(text)
            err = inv.check(text, report)
        except (Mismatch, ValueError, IndexError) as exc:
            raise Failure(f"{type(exc).__name__}: {exc}") from None
        self.seen[inv.argv] = digest
        self.max_rel_err = max(self.max_rel_err, err)
        self.verified += 1


def spawn(args: list[str], env: dict, stdout: Path, stderr: Path):
    """Run ``python *args`` to completion; return (wall_s, cpu_s, maxrss_mb, rc).

    Wall time runs from spawn to exit.  CPU time and peak RSS are the
    child's own, from wait4.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        t0 = perf()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        exited = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                exited = bool(select.select([pidfd], [], [], _CHILD_TIMEOUT_S)[0])
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                os.kill(pid, signal.SIGKILL)
            _, status, ru = os.wait4(pid, 0)
        wall = perf() - t0
    rc = os.waitstatus_to_exitcode(status) if exited else "timeout"
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, rc


def env_with_src(root: Path) -> dict:
    """The parent environment, with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _stderr_problem(path: Path) -> str | None:
    text = path.read_text(encoding="utf-8", errors="replace")
    if "Traceback (most recent call last)" in text:
        return "traceback on stderr: " + text.strip().splitlines()[-1]
    return None


def setup_probe(run: Run) -> float:
    wall, _, _, rc = spawn(["-c", "import fracalc.cli"], run.env, run.workdir / "probe.out", run.workdir / "probe.err")
    if rc != 0:
        raise Failure(f"import fracalc.cli exited with {rc}: "
                      f"{(run.workdir / 'probe.err').read_text(errors='replace').strip()[-300:]}")
    return wall


def invoke(run: Run, inv: Invocation) -> tuple[float, float, float, float]:
    """One timed, verified CLI invocation followed by one setup probe.

    Returns wall_s, cpu_s, peak_rss_mb and setup_s.
    """
    out, err = run.workdir / "stdout", run.workdir / "stderr"
    wall, cpu, rss, rc = spawn(["-m", "fracalc", *inv.argv], run.env, out, err)
    run.attempted += 1
    try:
        if rc != 0:
            raise Failure(f"exit status {rc}: {err.read_text(errors='replace').strip()[-300:]}")
        problem = _stderr_problem(err)
        if problem:
            raise Failure(problem)
        if inv.output is None:
            data, report = out.read_bytes(), ""
        else:
            data, report = Path(inv.output).read_bytes(), out.read_text(encoding="utf-8")
        run.verify(inv, hashlib.sha256(data + b"\0" + report.encode()).hexdigest(), data, report)
    except Failure as exc:
        run.fail(inv, str(exc))
    return wall, cpu, rss, setup_probe(run)


def reference_time(run: Run) -> float:
    """Spawn-to-exit time of the fixed reference task, hostref.py."""
    out, err = run.workdir / "hostref.out", run.workdir / "hostref.err"
    wall, _, _, rc = spawn([str(HERE / "hostref.py")], run.env, out, err)
    if rc != 0:
        raise RuntimeError(f"hostref.py exited with {rc}: {err.read_text(errors='replace').strip()[-300:]}")
    run.add("host.reference_s", wall)
    return wall


def measure_end_to_end(run: Run, seconds: float) -> None:
    deadline = perf() + seconds
    before = reference_time(run)
    while True:
        results = [invoke(run, inv) for inv in run.invocations]
        after = reference_time(run)
        scale = REF_NOMINAL_S / ((before + after) / 2)
        for i, metric in enumerate(("wall_s", "cpu_s", "peak_rss_mb", "setup_s")):
            value = statistics.fmean(r[i] for r in results)
            if metric in _SCALED:
                run.add(f"{metric}.raw", value)
                value *= scale
            run.add(metric, value)
        before = after
        if perf() >= deadline:
            break


def _layer_values(call: dict) -> dict:
    spans, counters = call["spans"], call["counters"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    values = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = span(name[: -len(".self_s")], "self_s")
        elif name.endswith(".calls"):
            values[name] = span(name[: -len(".calls")], "calls")
        elif not name.startswith(("import.", "trace.", "verify.")):
            values[name] = counters.get(name, 0)
    values["cli.parse_s"] = sum(span(f"cli.{f}", "self_s") for f in ("build_parser", "parse_args", "config_from_args"))
    ingest_s = span("series.ingest_csv", "total_s")
    ingest_mb = counters.get("series.ingest_csv.bytes", 0) / 1e6
    values["series.ingest_csv.mb_per_s"] = ingest_mb / ingest_s if ingest_s else 0.0
    return values


def traced_child(run: Run, inv: Invocation, reps: str) -> dict | None:
    """Run one invocation in process under tracer.py; return per-round values."""
    wd = run.workdir
    spec = {
        "argv": list(inv.argv),
        "reps": reps,
        "output": inv.output,
        "data": str(wd / "trace.data"),
        "report": str(wd / "trace.report"),
        "spans": str(wd / "spans.csv"),
    }
    (wd / "trace.json").write_text(json.dumps(spec), encoding="utf-8")
    out, err = wd / "trace.out", wd / "trace.err"
    _, _, _, rc = spawn([str(HERE / "tracer.py"), str(wd / "trace.json")], run.env, out, err)
    run.attempted += 1
    try:
        if rc != 0:
            raise Failure(f"tracer exit status {rc}: {err.read_text(errors='replace').strip()[-300:]}")
        result = json.loads(out.read_text(encoding="utf-8").splitlines()[-1])
        calls = result["calls"]
        bad = [c for c in calls if c["rc"] != 0 or c["traceback"]]
        if bad:
            raise Failure(f"in-process call exited with {bad[0]['rc']} (traceback: {bad[0]['traceback']})")
        if len({c["digest"] for c in calls}) != 1:
            raise Failure("output bytes differ between identical in-process calls")
        run.verify(inv, calls[0]["digest"], (wd / "trace.data").read_bytes(),
                          (wd / "trace.report").read_text(encoding="utf-8"))
    except Failure as exc:
        run.fail(inv, str(exc))
        return None
    traced = [c for c in calls if c["traced"]]
    untraced = [c for c in calls if not c["traced"]]
    values = {f"import.{k}": v for k, v in result["import"].items()}
    layers = [_layer_values(c) for c in traced]
    for name in layers[0]:
        values[name] = statistics.fmean(v.get(name, 0) for v in layers)
    values["trace.wall_s"] = statistics.fmean(c["wall_s"] for c in traced)
    if untraced:
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(c["wall_s"] for c in untraced)
    return values


def measure_layers(run: Run, seconds: float) -> None:
    deadline = perf() + seconds
    for i in itertools.count():
        rnd = [traced_child(run, inv, ("UT", "TU")[i % 2]) for inv in run.invocations]
        rnd = [c for c in rnd if c is not None]
        for name in set().union(*rnd) if rnd else ():
            run.add(name, statistics.fmean(c.get(name, 0) for c in rnd))
        if perf() >= deadline:
            break


def environment(run: Run, seed: int) -> dict:
    probe = ("import json, numpy, fracalc\n"
             "blas = numpy.show_config(mode='dicts').get('Build Dependencies', {}).get('blas', {})\n"
             "print(json.dumps({'numpy': numpy.__version__, 'kernel_backend': getattr(fracalc, 'KERNEL_BACKEND', None),"
             " 'blas': {k: blas.get(k) for k in ('name', 'version', 'openblas configuration')}}))")
    out = run.workdir / "env.out"
    spawn(["-c", probe], run.env, out, run.workdir / "env.err")
    try:
        lib = json.loads(out.read_text(encoding="utf-8"))
    except ValueError:
        lib = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc": _llc_size(),
        "python": platform.python_version(),
        "numpy": lib.get("numpy"),
        "blas": lib.get("blas"),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "kernel_backend": lib.get("kernel_backend"),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _llc_size() -> str | None:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    for index in reversed(caches):
        try:
            return f"L{(index / 'level').read_text().strip()} {(index / 'size').read_text().strip()}"
        except OSError:
            continue
    return None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return f", p{p:g} {sorted(values)[min(len(values) - 1, int(len(values) * p / 100.0))]:.4g}"
    return ""


def report(name: str, run: Run, metrics: dict, trace: bool) -> None:
    print(f"workload {name}: {len(run.invocations)} invocation(s) per round, closed loop, one client")
    if not trace:
        print(f"  (wall_s, cpu_s and setup_s are scaled to a host whose reference task takes {REF_NOMINAL_S} s; "
              "*.raw are unscaled)")
    shown = dict(metrics)
    if not trace:
        shown.update({m: statistics.median(run.samples[m]) for m in (*(f"{m}.raw" for m in _SCALED), "host.reference_s")})
    for metric, value in shown.items():
        values = run.samples.get(metric, [])
        unit = _UNITS.get(metric, "")
        if values:
            q1, q3 = _quartiles(values)
            print(f"  {metric:40s} {value:12.6g} {unit:6s} median, n={len(values)} "
                  f"(q1 {q1:.4g}, q3 {q3:.4g}{_tail(values)})")
        else:
            print(f"  {metric:40s} {value:12.6g} {unit}")
    if not trace:
        print(f"  {'max_rel_err':40s} {run.max_rel_err:12.6g} {'1':6s} largest over {run.verified} verified output(s)")
    failed = len(run.failures)
    rate = failed / run.attempted if run.attempted else 1.0
    print(f"  {'failure_rate':40s} {rate:12.6g} {'1':6s} {failed} failed of {run.attempted} attempted")


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    workdir = OUT / name
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    run = Run(WORKLOADS[name].build(seed, sizes, workdir), workdir, env_with_src(ROOT))
    try:
        setup_probe(run)  # untimed: compiles bytecode and checks the import
        env_record = environment(run, seed)
        if trace:
            measure_layers(run, seconds)
            names = [m for m, _, _ in PER_LAYER]
            run.samples["verify.max_rel_err"] = [run.max_rel_err]
        else:
            measure_end_to_end(run, seconds)
            names = [m for m, _, _ in END_TO_END]
            ref = run.samples["host.reference_s"]
            env_record["host_reference_s"] = {"median": statistics.median(ref), "min": min(ref), "max": max(ref),
                                              "n": len(ref), "nominal": REF_NOMINAL_S}
        metrics = {m: statistics.median(run.samples.get(m, [0.0])) for m in names}
    finally:
        # The generated inputs are large; keep only the spans.
        for p in workdir.iterdir():
            if p.name != "spans.csv":
                p.unlink()
    report(name, run, metrics, trace)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m: {"value": v, "unit": _UNITS[m]} for m, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env_record,
              "argv": [list(inv.argv) for inv in run.invocations], "samples": run.samples,
              "failures": run.failures, "max_rel_err": run.max_rel_err, "result": result}
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("env " + json.dumps(env_record))
    return result


def smoke() -> int:
    """Each workload once at small sizes, untraced and traced, fully verified."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {k: [(m["name"], m["unit"], m["better"]) for m in spec[k]] for k in ("end_to_end", "per_layer")}
    ok = declared == {"end_to_end": list(END_TO_END), "per_layer": list(PER_LAYER)}
    if not ok:
        print("FAILED BENCHMARK.json metrics differ from run.py", file=sys.stderr)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("FAILED BENCHMARK.json workloads differ from workloads.py", file=sys.stderr)
        ok = False
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 1, 0.0, trace, SMOKE)
            expected = {m for m, _, _ in (PER_LAYER if trace else END_TO_END)}
            good = result["correct"] and set(result["metrics"]) == expected
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'}")
            ok &= good
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run each workload once at small sizes")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fracalc" / "__init__.py").is_file():
        print(f"error: no fracalc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    try:
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), FULL) for n in names}
    except (Failure, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        # The result line reports correctness; the exit status reports only
        # whether a result could be produced.
        print(json.dumps(results[args.workload]))
        return 0
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
