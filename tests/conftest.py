import os
from pathlib import Path

import pytest
from hypothesis import settings

import fracalc
from fracalc import demo_process

# No property has a per-example time limit: hypothesis's default deadline
# of 200 ms fails an example that is only slow, as on a loaded host.
settings.register_profile("fracalc", deadline=None)
settings.load_profile("fracalc")


@pytest.fixture(scope="session")
def fig1():
    return demo_process("fig1")


@pytest.fixture(scope="session")
def fig2():
    return demo_process("fig2")


@pytest.fixture
def child_env():
    """Environment for a child interpreter that must import this same fracalc.

    A copy of ``os.environ`` with the directory holding the imported
    ``fracalc`` package put first on ``PYTHONPATH``.  The root conftest only
    extends ``sys.path`` of the test process, so without this a child of a
    bare ``pytest`` run in an uninstalled checkout cannot import ``fracalc``.
    """
    root = str(Path(fracalc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def refused():
    """A check that ``f(*args)`` raises exactly ``error``, not a subclass, with exactly ``message``."""

    def check(error, message, f, *args):
        with pytest.raises(error) as exc:
            f(*args)
        assert (type(exc.value), str(exc.value)) == (error, message)

    return check
