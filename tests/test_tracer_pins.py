"""The names that ``perfbench/tracer.py`` wraps must exist in the package.

The tracer wraps every function of its ``LAYERS`` table by module path
(``daeforms.<layer>.<name>``), and its ``entry_bits`` probe reads the
Fraction view ``Mat.data``.  Without this test a removed or renamed pin
fails only the traced bench smoke run.  The pins are why ``pencils.py``
(the tracer wraps ``pencil``, ``normal_rank``, ``determinant``,
``minor_gcd`` and ``full_rank_all_finite`` there) and both
``decoupled_wong_pattern_ok`` functions stay until the benchmark's tracer
is rewritten.  The tracer file is loaded by path and not edited.
"""

import importlib
import importlib.util
import os
from fractions import Fraction

import pytest

from daeforms import Mat

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("daeforms_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PINS = [(layer, name) for layer, names in load_tracer().LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", PINS, ids=[f"{l}.{n}" for l, n in PINS])
def test_every_wrapped_name_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"daeforms.{layer}"), name))


def test_entry_bits_reads_the_fraction_view():
    assert isinstance(Mat.data, property)
    mat = Mat.from_rows([[Fraction(-1, 8), 3], [0, Fraction(5, 2)]])
    assert load_tracer().entry_bits(mat) == 4  # the denominator 8
