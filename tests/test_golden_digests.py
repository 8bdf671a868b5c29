"""Byte-identity gate: every run of the golden matrix must reproduce its digests.

The matrix, the digest function and the environment fingerprint live in
``tests/golden/regenerate.py``, which also rewrites ``digests.json``. The
digests hold only for the environment that made them; elsewhere the test
is skipped with the fingerprint fields that differ, never passed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regenerate_module():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifacts_match_golden_digests(tmp_path):
    regen = _regenerate_module()
    golden = json.loads(regen.DIGESTS.read_text())
    here = regen.fingerprint()
    differ = sorted(
        key for key in here.keys() | golden["fingerprint"].keys()
        if here.get(key) != golden["fingerprint"].get(key)
    )
    if differ:
        pytest.skip(
            "golden digests were made in another environment; fingerprint differs in "
            + "; ".join(
                f"{k}: golden {golden['fingerprint'].get(k)!r}, here {here.get(k)!r}"
                for k in differ
            )
        )
    runs = regen.compute(tmp_path)
    assert sorted(runs) == sorted(golden["runs"])
    changed = [
        f"{key}: " + ", ".join(
            name for name in sorted(runs[key].keys() | golden["runs"][key].keys())
            if runs[key].get(name) != golden["runs"][key].get(name)
        )
        for key in golden["runs"]
        if runs[key] != golden["runs"][key]
    ]
    assert not changed, f"{len(changed)} runs changed bytes:\n" + "\n".join(changed)
