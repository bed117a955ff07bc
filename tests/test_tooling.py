"""The traced benchmark wraps package names by module and attribute.

``perfbench/tracing.py`` refuses to run when a name it wraps is no longer
bound, so a refactor that drops one breaks the traced benchmark.  This
test installs and removes the tracer without running any workload.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    bindings = [binding for layer in tracing.LAYERS.values() for binding in layer[0]]

    def bound():
        return {(mod, attr): getattr(importlib.import_module(mod), attr) for mod, attr in bindings}

    originals = bound()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = bound()
    finally:
        tracer.uninstall()
    assert all(wrapped[key] is not fn for key, fn in originals.items())
    assert bound() == originals
