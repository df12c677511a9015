"""Every function the bench tracer wraps must still exist.

The tracer (perfbench/tracer.py) skips a wrap point it cannot resolve and
reports the metrics built on it as absent, so a renamed or inlined function
would silently drop a per-layer metric.  This test resolves each entry of
its WRAP_POINTS without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


def test_every_tracer_wrap_point_resolves():
    points = _wrap_points()
    assert points
    missing = []
    for mod_name, path, *_ in points:
        obj = importlib.import_module(f"percforge.{mod_name}")
        try:
            for part in path.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            missing.append(f"{mod_name}.{path}")
            continue
        if not callable(obj):
            missing.append(f"{mod_name}.{path}")
    assert missing == []
