"""Every kernel the benchmark tracer rebinds must exist in mfk.

``perfbench/tracer.py`` names its traced callables as (module, attribute
path) pairs; a kernel renamed in mfk would otherwise break only traced
benchmark runs.  The tracer is loaded from its file and left unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACER = _load_tracer()
_TARGETS = ([(module, path) for module, path, *_ in _TRACER.TIMED]
            + [(module, path) for module, path, _ in _TRACER.COUNTED])


@pytest.mark.parametrize("module_name, path", _TARGETS)
def test_traced_kernel_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_encoder_module_has_encoders():
    encoders = importlib.import_module(_TRACER.ENCODE_MODULE)
    assert any(attr.endswith("_to_json") for attr in vars(encoders))
