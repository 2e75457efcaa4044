"""The benchmark tracer wraps module attributes by name; they must all exist.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` of its
``CATALOGUE`` while it traces a run, so a rename in the package would break
the traced benchmark without failing any other test.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_catalogue_attributes_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.CATALOGUE
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracer.CATALOGUE
               if not hasattr(module, attr)]
    assert not missing, f"tracer patches names the package lacks: {missing}"
