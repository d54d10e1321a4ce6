"""Every function the benchmark tracer wraps still exists in momrank.

``perfbench/tracer.py`` binds its spans by (module, attribute) name. A rename
in ``src/`` would otherwise surface only as an ``AttributeError`` in a traced
benchmark run. The tracer imports only the standard library at import time.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_binds_a_momrank_function():
    tracer = load_tracer()
    missing = []
    for mod_name, attr, span in tracer.SPANS:
        assert mod_name in tracer.LAYERS and span.split(".")[0] in tracer.LAYERS, span
        owner = importlib.import_module(f"momrank.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"momrank.{mod_name}.{attr} ({span})")
    assert missing == []
