"""Acceptance suite: the shipping criteria, at pinned tolerances.

Criteria 1, 2, 3, 4, 5, 7 and 9 are the named checks of ``fracalc check``
(``fracalc.check.run_checks``), run once for the module: a criterion holds
when its check passes, and every check must be one of them.  Only criterion
1's runtime bound, criterion 7's live oracle and criteria 6 and 10 have
code of their own here.  Each test prints a PASS line with the measured
margin once its assertions hold, so a `pytest -s` run reads as a checklist.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from fracalc import Polynomial, caputo_series, demo_process, sample, t_indicator
from fracalc.check import run_checks
from fracalc.cli import main
from oracle import ref_caputo_poly

# The criterion each check of `fracalc check` stands for, in the suite's order.
CRITERIA = {
    1: "power_rule_oracle",
    2: "constant_annihilation",
    3: "average_degeneration",
    4: "marginal_degeneration",
    5: "time_factor_identity",
    7: "intermediate_value_oracle",
    9: "convergence_order",
}


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


@pytest.fixture(scope="module")
def checks():
    return run_checks()


@pytest.mark.parametrize("criterion,name", CRITERIA.items())
def test_criterion_is_a_passing_check(checks, criterion, name):
    (result,) = [r for r in checks if r.name == name]
    assert result.passed, result.detail
    report(criterion, f"{name}: {result.detail}")


def test_every_check_is_a_criterion(checks):
    assert [r.name for r in checks] == list(CRITERIA.values())


def test_criterion_01_power_rule_oracle_equivalence():
    # The runtime bound; the power_rule_oracle check holds the accuracy.
    slowest = 0.0
    for beta in (1, 2, 3, 4):
        s = sample(Polynomial((0.0,) * beta + (1.0,)), 1.0, 4096)
        for alpha in (0.25, 0.5, 0.75):
            start = time.perf_counter()
            caputo_series(s, alpha)
            slowest = max(slowest, time.perf_counter() - start)
    assert slowest <= 1.0, f"runtime {slowest:.3f}s exceeds 1s budget"
    report(1, f"L1 on 12 power-rule cases, slowest call {slowest:.3f}s (budget 1s)")


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
    # The mpmath oracle evaluated live, term by term; the
    # intermediate_value_oracle check holds the frozen reference, -5.
    got = t_indicator(demo_process("fig1").pair(), 0.5, 200.0)
    live = ref_caputo_poly((1400.0, -3.0, 0.01), 0.5, 200.0) / ref_caputo_poly(
        (70.0, -0.2, 0.001), 0.5, 200.0
    )
    err = abs(got - live)
    assert err <= 1e-8
    report(7, f"t_indicator(fig1, 0.5, 200) = {got!r}, |err| vs live oracle {err:.2e} (tol 1e-8)")


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
