"""The benchmark's tracer still finds every kaclab name it rebinds.

perfbench/tracer.py rebinds kaclab functions and `splu` holders by name from
outside the package; a rename in src/ would only show when a traced benchmark
runs.  Installing and uninstalling it here makes such a rename fail tier-1.
"""

import importlib
import importlib.util
from pathlib import Path

import kaclab  # noqa: F401  (the tracer rebinds names in loaded kaclab modules)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_module = load_tracer()
    bound = [(importlib.import_module(f"kaclab.{module}"), name)
             for module, name in tracer_module.WRAPPED]
    bound += [(importlib.import_module(holder), "splu")
              for holder in tracer_module.SPLU_HOLDERS]
    originals = [getattr(module, name) for module, name in bound]

    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # AttributeError when a name it rebinds is gone
        for (module, name), original in zip(bound, originals):
            assert getattr(module, name) is not original, f"{module.__name__}.{name}"
    finally:
        tracer.uninstall()
    for (module, name), original in zip(bound, originals):
        assert getattr(module, name) is original, f"{module.__name__}.{name}"
