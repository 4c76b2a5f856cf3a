"""The option surface: every settable value is a deliberate choice.

Settable values are the defaulted parameters of the public functions each
critlab module defines, plus the fields of FlowConfig; public names are
the non-module names the critlab package exports; source lines are the
physical lines of the critlab modules; the command line has its config
keys and its override flags.  Adding one means changing the count here on
purpose.  Every dataclass a critlab module defines is
frozen, except the archive builder, and the records that hold arrays
compare by identity.  Importing critlab does not import scipy.linalg.
"""
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import critlab
from critlab import FlowConfig, MinimizerResult
from critlab.cli import _OVERRIDES, _SCHEMA

MAX_SETTABLE = 18
MAX_PUBLIC_NAMES = 59
MAX_SRC_LINES = 2956
MAX_CONFIG_KEYS = 28
MAX_FLAGS = 10


def _defaulted_parameters():
    out = []
    for info in pkgutil.iter_modules(critlab.__path__):
        mod = importlib.import_module(f"critlab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            for p in inspect.signature(obj).parameters.values():
                if p.default is not inspect.Parameter.empty:
                    out.append(f"{info.name}.{name}({p.name})")
    return out


def test_flow_config_fields():
    names = [f.name for f in dataclasses.fields(FlowConfig)]
    assert names == ["tol", "max_iters"]


def test_minimizer_result_fields():
    names = [f.name for f in dataclasses.fields(MinimizerResult)]
    assert names == [
        "u", "energy", "mu", "eps", "iterations", "converged", "residual", "breakdown",
        "mu_fit", "newton_steps", "tangent_negatives",
    ]


def test_settable_values_bounded():
    params = _defaulted_parameters()
    total = len(params) + len(dataclasses.fields(FlowConfig))
    assert total <= MAX_SETTABLE, params


def test_cli_options_bounded():
    keys = [f"[{sec}] {key}" for sec, section in _SCHEMA.items() for key in section]
    assert len(keys) <= MAX_CONFIG_KEYS, keys
    assert len(_OVERRIDES) <= MAX_FLAGS, [flag for flag, _, _ in _OVERRIDES]


def test_public_names_bounded():
    names = [
        name for name in dir(critlab)
        if not name.startswith("_") and not isinstance(getattr(critlab, name), types.ModuleType)
    ]
    assert len(names) <= MAX_PUBLIC_NAMES, names


def _dataclasses():
    """(qualified name, class) of every dataclass a critlab module defines."""
    for info in pkgutil.iter_modules(critlab.__path__):
        mod = importlib.import_module(f"critlab.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__ and dataclasses.is_dataclass(obj):
                yield f"{info.name}.{name}", obj


def test_records_are_frozen():
    # results are values; only the archive builder collects files as it goes
    mutable = [name for name, cls in _dataclasses() if not cls.__dataclass_params__.frozen]
    assert mutable == ["archive.RunArchive"]


def test_array_records_compare_by_identity():
    # a generated == on array fields raises, and its hash fails
    by_identity = sorted(name for name, cls in _dataclasses() if not cls.__dataclass_params__.eq)
    assert by_identity == [
        "grids.Grid",
        "grids.GridFunction",
        "groundstate.GroundStateData",
        "groundstate.RadialProfile",
        "variational.MinimizerResult",
    ]


def test_source_lines_bounded():
    lines = sum(len(path.read_text().splitlines()) for path in Path(critlab.__file__).parent.glob("*.py"))
    assert lines <= MAX_SRC_LINES


_IMPORT_SURFACE = """
import sys
import critlab
assert "scipy.linalg" not in sys.modules, "import critlab imported scipy.linalg"
import critlab.cli
assert "scipy.linalg" not in sys.modules, "import critlab.cli imported scipy.linalg"
import numpy as np
from critlab import grids
assert sys.modules["scipy.linalg._flapack"] is grids._lapack, "the extension is not registered"
from scipy.linalg import lapack, solve_banded
for name in ("dgtsv", "dpttrf", "dpttrs"):
    assert getattr(grids, name) is getattr(lapack, name), name
ab = np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0, 0.0]])
assert np.allclose(solve_banded((1, 1), ab, np.array([1.0, 0.0, 1.0])), 1.0, rtol=0.0, atol=1e-15)
"""


def test_import_surface():
    # critlab loads scipy's LAPACK extension by itself: scipy.linalg, whose
    # import pulls in numpy.testing, numpy.f2py and unittest, stays out, and
    # a later import of it shares the same routines.  A fresh interpreter,
    # since this one has imported scipy through the tests' oracles.
    src = str(Path(critlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _IMPORT_SURFACE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
