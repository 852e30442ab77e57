"""A fixed reference task that records how fast the host is right now.

    python perfbench/hostref.py

``run.py`` spawns it before and after every round of CLI invocations and
times it from spawn to exit.  It does the kinds of work the CLI does --
start an interpreter, import numpy, run interpreter-bound Python, and run
numpy kernels over a 1e6-element array -- on fixed inputs, and it never
imports fracalc, so its time changes with the host's load and not with the
program under test.  Prints one checksum so the work cannot be skipped.
"""

import numpy as np

acc = {}
for i in range(300_000):
    k = (i * 7919) % 5003
    acc[k] = acc.get(k, 0.0) + i * 0.5
keys = sorted(str(v) for v in acc.values())

x = np.linspace(0.0, 1.0, 1_000_000)
total = 0.0
for a in range(20):
    total += float(np.dot(np.power(x + 1.0, 0.5 + a / 40), x))
print(len(keys), total)
