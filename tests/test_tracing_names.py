"""Every name the per-layer tracer of the benchmark (qpbench/tracing.py)
patches resolves in qpcalc, so a rename fails here, not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "qpbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("qpbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracing()
NAMES = [(layer, name) for table in (_T.TIMED, _T.COUNTED)
         for layer, names in table.items() for name in names]


@pytest.mark.parametrize("layer,qualname", NAMES)
def test_traced_name_resolves(layer, qualname):
    home = importlib.import_module(f"qpcalc.{layer}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, qualname))
