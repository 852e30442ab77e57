"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Each test prints a PASS line with the measured margin once its assertions
hold, so a `pytest -s` run reads as a checklist.
"""

import json
import subprocess
import sys
import time
from math import gamma

import numpy as np

from fracalc import (
    IndicatorPair,
    Polynomial,
    caputo_poly,
    caputo_series,
    demo_process,
    sample,
    t_indicator,
    t_indicator_time,
)
from fracalc.cli import main
from oracle import ref_caputo_poly, rel_err

# Reference for criterion 7, computed before the build with the mpmath
# power-rule oracle (tests/oracle.py) and confirmed by direct quadrature
# of the defining integral: the fig1 ratio at alpha=0.5, T=200 collapses
# to (0.01*s - 3)/(0.001*s - 0.2) with s = 2T/(2-alpha), i.e. exactly -5.
FIG1_HALF_ORDER_REFERENCE = -5.0


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


def test_criterion_01_power_rule_oracle_equivalence():
    worst = 0.0
    for beta in (1, 2, 3, 4):
        p = Polynomial((0.0,) * beta + (1.0,))
        s = sample(p, 1.0, 4096)
        for alpha in (0.25, 0.5, 0.75):
            start = time.perf_counter()
            got = caputo_series(s, alpha)
            elapsed = time.perf_counter() - start
            assert elapsed <= 1.0, f"runtime {elapsed:.3f}s exceeds 1s budget"
            want = caputo_poly(p, alpha, 1.0)
            if want == 0.0:
                assert abs(got) <= 1e-6
            else:
                err = rel_err(got, want)
                assert err <= 5e-3, f"beta={beta}, alpha={alpha}: rel err {err:.2e}"
                worst = max(worst, err)
    report(1, f"L1 vs closed form, 12 cases, worst rel err {worst:.2e} (tol 5e-3)")


def test_criterion_02_constant_annihilation():
    rng = np.random.default_rng(2017)
    p = Polynomial((5.0,))
    s = sample(p, 1.0, 64)
    worst = 0.0
    for alpha in rng.uniform(0.0, 2.0, 20):
        alpha = float(alpha)
        if alpha == 0.0:
            continue
        worst = max(worst, abs(caputo_poly(p, alpha, 1.0)), abs(caputo_series(s, alpha)))
    assert worst <= 1e-12
    report(2, f"both engines on constants, 20 random orders, max |result| {worst:.2e}")


def test_criterion_03_order_zero_degenerates_to_average():
    rng = np.random.default_rng(7)
    for name in ("fig1", "fig2"):
        demo = demo_process(name)
        pair = demo.pair()
        for T in rng.uniform(1.0, demo.t_end, 10):
            T = float(T)
            # The average Y(T)/X(T), by Horner on the polynomials.
            assert t_indicator(pair, 0.0, T) == pair.y(T) / pair.x(T)
        sampled = demo.sampled_pair(2000)
        assert t_indicator(sampled, 0.0) == sampled.y.values[-1] / sampled.x.values[-1]
    report(3, "t_indicator(alpha=0) bit-identical to Y(T)/X(T) on fig1/fig2, 10 T each and sampled")


def three_point(values):
    """The second-order backward difference at the last sample, times 2h."""
    return 3.0 * values[-1] - 4.0 * values[-2] + values[-3]


def test_criterion_04_order_one_degenerates_to_marginal():
    demo = demo_process("fig1")
    sampled = demo.sampled_pair(20000)
    numeric = t_indicator(sampled, 1.0)
    err = rel_err(numeric, 5.0)
    assert err <= 1e-3
    # Each difference is divided by 2h before the ratio is taken.  Those two
    # roundings, the ratio's and the reference's own are each within half
    # an eps relative, so the ratios agree within 2 eps plus terms of order
    # eps^2; 3 eps allows for those.
    want = three_point(sampled.y.values) / three_point(sampled.x.values)
    assert abs(numeric - want) <= 3 * np.finfo(float).eps * abs(want)
    pair = demo.pair()
    # The marginal Y'(T)/X'(T), on the differentiated polynomials.
    assert t_indicator(pair, 1.0, 200.0) == pair.y.derivative()(200.0) / pair.x.derivative()(200.0)
    report(4, f"sampled rel err vs exact marginal {err:.2e} (tol 1e-3), within 3 eps of the "
              "three-point ratio; polynomial exact")


def test_criterion_05_time_factor_closed_form_consistency():
    y = demo_process("fig1").y
    identity = Polynomial((0.0, 1.0))
    ys = sample(y, 100.0, 4096)
    ts = sample(identity, 100.0, 4096)
    worst_poly = worst_num = 0.0
    for alpha in (0.3, 0.7):
        closed = t_indicator_time(y, alpha, 100.0)
        ratio = t_indicator(IndicatorPair(y=y, x=identity), alpha, 100.0)
        worst_poly = max(worst_poly, rel_err(closed, ratio))
        closed_n = t_indicator_time(ys, alpha)
        ratio_n = t_indicator(IndicatorPair(y=ys, x=ts), alpha)
        worst_num = max(worst_num, rel_err(closed_n, ratio_n))
    assert worst_poly <= 1e-12
    assert worst_num <= 5e-3
    report(5, f"closed form vs explicit ratio: poly {worst_poly:.2e}, sampled {worst_num:.2e}")


def test_criterion_06_figure_reproduction(capsys):
    assert main(["demo", "fig1"]) == 0
    out = capsys.readouterr().out
    rows = [[float(c) for c in line.split(",")] for line in out.strip().splitlines()[1:]]
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    assert rows[0] == [70.0, 1400.0]
    assert rows[-1] == [70.0, 1200.0]
    assert abs(xs.min() - 60.0) <= 1e-9
    assert xs.argmin() == 1000  # default grid puts t=100 at row 1000

    assert main(["demo", "fig2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["t"] == 0.0
    assert doc["results"][-1]["t"] == 240.0
    assert doc["results"][0] == {"t": 0.0, "x": 70.0, "y": 1700.0}
    fig2_witnesses = doc["multivalued"]["count"]
    assert fig2_witnesses >= 1

    assert main(["demo", "fig1", "--format", "json"]) == 0
    fig1_witnesses = json.loads(capsys.readouterr().out)["multivalued"]["count"]
    assert fig1_witnesses >= 1
    report(6, f"curve goldens hold; witnesses: fig1={fig1_witnesses}, fig2={fig2_witnesses}")


def test_criterion_07_intermediate_value_oracle():
    got = t_indicator(demo_process("fig1").pair(), 0.5, 200.0)
    err = abs(got - FIG1_HALF_ORDER_REFERENCE)
    assert err <= 1e-8
    # Same comparison with the oracle evaluated live, term by term.
    live = ref_caputo_poly((1400.0, -3.0, 0.01), 0.5, 200.0) / ref_caputo_poly(
        (70.0, -0.2, 0.001), 0.5, 200.0
    )
    assert abs(got - live) <= 1e-8
    report(7, f"t_indicator(fig1, 0.5, 200) = {got!r}, |err| {err:.2e} (tol 1e-8)")


def test_criterion_08_gamma_quality_gates():
    # The closed form's Gamma is the standard library's; hold it to the gates.
    sqrt_pi_err = rel_err(gamma(0.5), np.sqrt(np.pi))
    assert sqrt_pi_err <= 1e-10
    fact = 1
    worst_fact = 0.0
    for k in range(1, 21):
        worst_fact = max(worst_fact, rel_err(gamma(float(k)), float(fact)))
        fact *= k
    assert worst_fact <= 1e-12
    rng = np.random.default_rng(1729)
    worst_rec = 0.0
    for z in rng.uniform(0.1, 20.0, 1000):
        z = float(z)
        worst_rec = max(worst_rec, abs(gamma(z + 1.0) - z * gamma(z)) / abs(gamma(z + 1.0)))
    assert worst_rec <= 1e-10
    report(8, f"sqrt(pi) {sqrt_pi_err:.1e}; factorials {worst_fact:.1e}; recurrence {worst_rec:.1e}")


def test_criterion_09_convergence_order():
    p = Polynomial((0.0, 0.0, 0.0, 1.0))
    exact = caputo_poly(p, 0.5, 1.0)
    e512 = abs(caputo_series(sample(p, 1.0, 512), 0.5) - exact)
    e1024 = abs(caputo_series(sample(p, 1.0, 1024), 0.5) - exact)
    ratio = e512 / e1024
    assert ratio >= 2**1.3
    report(9, f"halving h shrinks the error by {ratio:.3f}x (need >= {2**1.3:.3f}x)")


def test_criterion_10_check_subcommand_end_to_end(child_env):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fracalc", "check"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed <= 30.0
    assert "7/7 checks passed" in proc.stdout
    report(10, f"`fracalc check` exit 0 in {elapsed:.2f}s (budget 30s)")
