"""The names the benchmark's tracer binds must exist in refclass.

``perfbench/tracer.py`` wraps refclass functions by name and reads a few
attributes of their arguments and results; a rename or deletion under
``src/`` breaks the traced benchmark without failing any other test.  The
tracer file is only loaded here, never changed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from refclass.engine import Classification, EngineConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(layer, qualname):
    owner = importlib.import_module(f"refclass.{layer}")
    for attr in qualname.split("."):
        owner = getattr(owner, attr)
    return owner


def test_every_wrapped_name_resolves(tracer):
    for layer, names in tracer.WRAPPED.items():
        for qualname in names:
            assert callable(_resolve(layer, qualname)), f"refclass.{layer}.{qualname}"


def test_observed_arguments_keep_their_positions(tracer):
    # the tracer reads these arguments by position or by name
    for layer, qualname, position, name in (
            ("engine", "run", 1, "config"),
            ("engine", "write_classification", 2, "path"),
            ("assign", "prune_classification", 0, "c"),
            ("report", "write_report", 0, "out_dir")):
        params = list(inspect.signature(_resolve(layer, qualname)).parameters)
        assert params[position] == name, f"refclass.{layer}.{qualname}"


def test_attributes_read_from_results_exist():
    assert EngineConfig().unlimited_passes >= 1
    assert isinstance(Classification.vectors, property)
