"""The benchmark's layer tracer must find every program name it wraps.

``perfbench/tracer.py`` patches module attributes of spdebridge by name;
a rename under ``src/`` would make every traced benchmark run fail, so the
names are checked here, in the tier-1 suite.
"""

from pathlib import Path

import spdebridge
import spdebridge.io
import spdebridge.tasks

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_patch_point_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    points = tracer._patch_points(spdebridge)
    assert points
    for mod, attr, *_ in points:
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
