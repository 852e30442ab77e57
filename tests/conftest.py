import os
from pathlib import Path

import pytest

import fracalc
from fracalc import demo_process


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
