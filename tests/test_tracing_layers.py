"""perfbench/tracing.py: every traced layer names a function epsnet has.

The tracer is loaded from its file and its LAYERS resolved by name only;
Tracer.install() is not called, since it would patch epsnet for every
later test in the process.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = []
    for module, path in tracing.LAYERS:
        owner = importlib.import_module(f"epsnet.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []
