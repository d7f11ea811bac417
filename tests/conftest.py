import os
from pathlib import Path

import pytest

import eomsim
from eomsim import phase_mod, verify

# every memo of the closed-form path, by its name in `phase_mod`
MEMOS = ("_scatter_window", "_halfwidth", "_bessel_pass")


def clear_memos():
    """Empty every memo of the closed-form path: scatter windows, halfwidths
    and Bessel passes."""
    for name in MEMOS:
        getattr(phase_mod, name).cache_clear()


@pytest.fixture
def child_env():
    """Environment for a `python -m eomsim` child that imports this same package."""
    src = str(Path(eomsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture
def fresh_windows():
    """Empty every memo, so that a test counting Bessel work sees its own calls
    only, whatever ran before it."""
    clear_memos()


@pytest.fixture
def forget_windows(monkeypatch):
    """A function that makes every later memo lookup start from an empty memo,
    in `phase_mod` and in `verify`, which reads the halfwidth memo too."""

    def forget():
        for name in MEMOS:
            real = getattr(phase_mod, name)

            def forgetful(*key, real=real):
                real.cache_clear()
                return real(*key)

            for module in (phase_mod, verify):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, forgetful)

    return forget
