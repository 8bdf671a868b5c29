"""README's library example must run as printed, and its names must exist."""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import spdebridge
from spdebridge.cli import TOLERANCE_SCHEMA
from spdebridge.scenario import validate

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["e_def"].shape == namespace["e_gir"].shape == (1000, 257)


def test_module_references_resolve():
    # every backticked `module.name` of a package module (`io.path_dump`,
    # `rng.path_increments(..., out=buf)`) or `spdebridge.name` exists; other
    # dotted words (`summary.csv`, `output.formats`) are not package names
    modules = {m.name for m in pkgutil.iter_modules(spdebridge.__path__)}
    refs = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        dotted = re.match(r"\w+(?:\.\w+)+", span)
        parts = dotted.group(0).split(".") if dotted else [""]
        if parts[0] == "spdebridge":
            parts = parts[1:]
        elif parts[0] not in modules:
            continue
        refs.add(".".join(parts))
        obj = spdebridge
        if parts[0] in modules:
            obj = importlib.import_module(f"spdebridge.{parts.pop(0)}")
        for name in parts:
            assert hasattr(obj, name), f"README names {span!r}, which does not exist"
            obj = getattr(obj, name)
    assert len(refs) >= 5, refs  # the pattern still finds the README's references


def test_tolerance_example_is_valid():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    (example,) = [json.loads(b) for b in blocks if "default" in json.loads(b)]
    validate(TOLERANCE_SCHEMA, example)
