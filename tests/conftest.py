import os
from pathlib import Path

import pytest

import eomsim


@pytest.fixture
def child_env():
    """Environment for a `python -m eomsim` child that imports this same package."""
    src = str(Path(eomsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
