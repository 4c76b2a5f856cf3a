"""The option surface: every settable value is a deliberate choice.

Settable values are the defaulted parameters of the public functions each
critlab module defines, plus the fields of FlowConfig; public names are
the non-module names the critlab package exports; source lines are the
physical lines of the critlab modules.  Adding one means changing the
count here on purpose.  Every dataclass a critlab module defines is
frozen, except the archive builder, and the records that hold arrays
compare by identity.
"""
import dataclasses
import importlib
import inspect
import pkgutil
import types
from pathlib import Path

import critlab
from critlab import FlowConfig

MAX_SETTABLE = 21
MAX_PUBLIC_NAMES = 60
MAX_SRC_LINES = 2955


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


def test_settable_values_bounded():
    params = _defaulted_parameters()
    total = len(params) + len(dataclasses.fields(FlowConfig))
    assert total <= MAX_SETTABLE, params


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
        "asymptotics.RescaledProfile",
        "grids.Grid",
        "grids.GridFunction",
        "groundstate.GroundStateData",
        "groundstate.RadialProfile",
        "variational.MinimizerResult",
    ]


def test_source_lines_bounded():
    lines = sum(len(path.read_text().splitlines()) for path in Path(critlab.__file__).parent.glob("*.py"))
    assert lines <= MAX_SRC_LINES
