import os
from pathlib import Path

import pytest

import eomsim
from eomsim import phase_mod


@pytest.fixture
def child_env():
    """Environment for a `python -m eomsim` child that imports this same package."""
    src = str(Path(eomsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def fresh_windows():
    """Empty `pm_scatter_row`'s window memo, so that a test counting Bessel work
    sees its own calls only, whatever ran before it."""
    phase_mod._scatter_window.cache_clear()
