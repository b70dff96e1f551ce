"""The traced benchmark run wraps engine callables by name; a rename or a
deletion under ``src/`` would break ``bench/run.py --trace 1`` only at run
time, so the names are checked here."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracer = load_tracer()
    assert len(tracer.engine_modules()) == 1 + len(tracer.ENGINE_MODULES)
    for span, module, path in tracer.WRAPPED:
        owner, attr = tracer._resolve(module, path)
        assert callable(owner.__dict__.get(attr)), f"{span}: {module}.{path}"
