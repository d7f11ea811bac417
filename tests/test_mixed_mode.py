"""Golden bytes under Python 3.14's mixed real-complex arithmetic.

Up to Python 3.13 a real operand meeting a complex one is first promoted to
complex(x, 0.0).  From 3.14 the C99 rules apply instead (Annex G): r * z is
complex(r * z.real, r * z.imag), r + z is complex(r + z.real, z.imag), and
r - z is complex(r - z.real, -z.imag), so the sign of a zero part can flip.
The package promotes explicitly wherever a real meets a complex on the
output path, so its bytes do not depend on the interpreter.

This module imports a second copy of the package under another name, with
every binary + - * / (and every augmented one on a plain name) routed
through `c99_binop`, which applies the new rule where Python's complex type
does the arithmetic, runs each golden config through that copy's CLI, and
compares that copy's verify report with the native one.
"""

import ast
import importlib
import importlib.abc
import importlib.util
import math
import operator
import sys
from pathlib import Path

import numpy as np
import pytest

import eomsim.cli
from regen_goldens import CONFIGS, GOLDEN, golden_runs

SRC = Path(eomsim.__file__).resolve().parent
ALIAS = "eomsim_c99"
OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
NATIVE = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
          "+=": operator.iadd, "-=": operator.isub, "*=": operator.imul, "/=": operator.itruediv}


def c99_binop(op: str, a, b):
    """`a op b` as Python 3.14 evaluates it.

    The new rule applies where Python's complex type does the arithmetic: a
    Python complex on the left with an int or float on the right (a numpy
    float scalar is a float), or an int or Python float on the left, which
    defers to a Python complex on the right.  A numpy scalar on the left
    does its own arithmetic, as on every Python.  The package never divides
    a real by a complex, so that case is refused rather than emulated.
    """
    kind = op.rstrip("=")
    if type(a) is complex and isinstance(b, (int, float)):
        r = float(b)
        if kind == "+":
            return complex(a.real + r, a.imag)
        if kind == "-":
            return complex(a.real - r, a.imag)
        if kind == "*":
            return complex(a.real * r, a.imag * r)
        if r == 0.0:
            raise ZeroDivisionError("division by zero")
        return complex(a.real / r, a.imag / r)
    if type(b) is complex and isinstance(a, (int, float)) and not isinstance(a, np.generic):
        r = float(a)
        if kind == "+":
            return complex(r + b.real, b.imag)
        if kind == "-":
            return complex(r - b.real, -b.imag)
        if kind == "*":
            return complex(r * b.real, r * b.imag)
        raise AssertionError(f"real / complex is not emulated: {a!r} / {b!r}")
    return NATIVE[op](a, b)


class _RouteArithmetic(ast.NodeTransformer):
    """Rewrite `x op y` and `name op= y` into calls of `c99_binop`."""

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) not in OPS:
            return node
        call = ast.Call(ast.Name("c99_binop", ast.Load()),
                        [ast.Constant(OPS[type(node.op)]), node.left, node.right], [])
        return ast.copy_location(call, node)

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        if type(node.op) not in OPS or not isinstance(node.target, ast.Name):
            return node
        call = ast.Call(ast.Name("c99_binop", ast.Load()),
                        [ast.Constant(OPS[type(node.op)] + "="),
                         ast.Name(node.target.id, ast.Load()), node.value], [])
        return ast.copy_location(ast.Assign([node.target], call), node)


class _C99Import(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Import the package's sources as `ALIAS`, compiled with `_RouteArithmetic`."""

    def find_spec(self, name, path=None, target=None):
        if name == ALIAS:
            return importlib.util.spec_from_file_location(
                name, SRC / "__init__.py", loader=self, submodule_search_locations=[str(SRC)])
        if name.startswith(ALIAS + "."):
            return importlib.util.spec_from_file_location(
                name, SRC / f"{name[len(ALIAS) + 1:]}.py", loader=self)
        return None

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        path = module.__spec__.origin
        tree = _RouteArithmetic().visit(ast.parse(Path(path).read_text(encoding="utf-8"), path))
        module.c99_binop = c99_binop
        exec(compile(ast.fix_missing_locations(tree), path, "exec"), vars(module))


@pytest.fixture(scope="module")
def c99_cli():
    finder = _C99Import()
    sys.meta_path.insert(0, finder)
    try:
        yield importlib.import_module(ALIAS + ".cli")
    finally:
        sys.meta_path.remove(finder)
        for name in [n for n in sys.modules if n == ALIAS or n.startswith(ALIAS + ".")]:
            del sys.modules[name]


def test_c99_binop_flips_the_zeros_that_promotion_keeps():
    # promoted, (-1 + 0j) * (1 + 0j) has imaginary part -1*0 + 0*1 = +0.0
    assert math.copysign(1.0, (complex(-1.0) * (1.0 + 0.0j)).imag) == 1.0
    assert math.copysign(1.0, c99_binop("*", -1.0, 1.0 + 0.0j).imag) == -1.0
    assert math.copysign(1.0, c99_binop("+", 0.0, complex(1.0, -0.0)).imag) == -1.0
    assert math.copysign(1.0, c99_binop("-", 1.0, 1.0 + 0.0j).imag) == -1.0
    assert math.copysign(1.0, c99_binop("*", 1.0 + 0.0j, np.float64(-1.0)).imag) == -1.0
    # a numpy scalar on the left multiplies in numpy, whatever the Python
    assert type(c99_binop("*", np.float64(-1.0), 1.0 + 0.0j)) is np.complex128


def test_c99_copy_is_a_separate_package(c99_cli):
    assert c99_cli.__name__ == ALIAS + ".cli"
    assert c99_cli.main is not eomsim.cli.main
    assert sys.modules[ALIAS + ".engine"].c99_binop is c99_binop


@pytest.mark.parametrize("command, config, golden", golden_runs(),
                         ids=[golden for _, _, golden in golden_runs()])
def test_golden_bytes_under_c99_mixed_arithmetic(c99_cli, tmp_path, command, config, golden):
    out = tmp_path / golden
    argv = [command, "--config", str(CONFIGS / config), "--format", out.suffix[1:], "--out", str(out)]
    assert c99_cli.main(argv) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_report_under_c99_mixed_arithmetic(c99_cli):
    c99_verify = sys.modules[ALIAS + ".verify"]
    native, c99 = eomsim.verify.run_all(), c99_verify.run_all()
    for fmt in ("csv", "json"):
        assert c99_cli.emit_verify(c99, 1.0, fmt) == eomsim.cli.emit_verify(native, 1.0, fmt)
