"""Scenario configs: schema, validation, resolution to a canonical form.

A scenario is a single JSON document with model / dynamics / task / grid /
sampling / output blocks. ``resolve_scenario`` validates it against the
published schema, fills every default, and returns the canonical dict that
is echoed verbatim into the run manifest; rebuilding a scenario from a
manifest therefore reproduces the run exactly.
"""

import jsonschema
import numpy as np

from .forward import Nonlinearity, sample_stationary
from .grids import GEOMETRIC, UNIFORM, geometric_grid, uniform_grid
from .spectral import SpectralModel

# Keys of each task block besides "name"; "*" marks a required key.
_TASK_KEYS = {
    "forward": "times",
    "ou-bridge": "target* times",
    "guided": "target* conditioning obs_var weight_cutoffs probe_time",
    "conditioned": "endpoint* probe_time weight_cutoff",
    "dynkin": "test_functions* times",
    "martingale-diag": "target* h_horizon times probe_time novikov_fractions",
    "gamma-diag": "upto n_points",
    "ck-check": "s t modes mid x y tolerance",
}
_ENDPOINT_KEYS = {"dirac": "kind* target*", "tilted": "kind* mean* var*"}
_TEST_FUNCTION_KEYS = "a* c* phase"
TASK_NAMES = list(_TASK_KEYS)

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["model", "task", "grid", "sampling"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["n_modes"],
            "additionalProperties": False,
            "properties": {
                "n_modes": {"type": "integer", "minimum": 1},
                "eigenvalues": {
                    "type": "object",
                    "required": ["rule"],
                    "additionalProperties": False,
                    "properties": {
                        "rule": {"enum": ["dirichlet", "explicit"]},
                        "values": _NUMBER_ARRAY,
                    },
                },
                "noise": {
                    "type": "object",
                    "required": ["rule"],
                    "additionalProperties": False,
                    "properties": {
                        "rule": {"enum": ["power", "explicit"]},
                        "rho": {"type": "number", "minimum": 0},
                        "values": _NUMBER_ARRAY,
                    },
                },
                "domain_length": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "nonlinearity": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["zero", "linear", "bounded_rational", "sine"]},
                        "alpha": {"type": "number"},
                    },
                },
                "x0": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["zero", "explicit", "stationary"]},
                        "values": _NUMBER_ARRAY,
                    },
                },
                "oversample": {"type": "integer", "minimum": 1},
            },
        },
        "task": {
            "type": "object",
            "required": ["name"],
            "properties": {"name": {"enum": TASK_NAMES}},
        },
        "grid": {
            "type": "object",
            "required": ["horizon", "n_steps"],
            "additionalProperties": False,
            "properties": {
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 1},
                "kind": {"enum": [UNIFORM, GEOMETRIC]},
                "ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
            },
        },
        "sampling": {
            "type": "object",
            "required": ["seed"],
            "additionalProperties": False,
            "properties": {
                "n_paths": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "formats": {
                    "type": "array",
                    "items": {"enum": ["csv", "json", "paths"]},
                },
            },
        },
    },
}


class SchemaError(ValueError):
    """Scenario failed schema validation; message names the offending field."""


def validate_scenario(raw: dict) -> None:
    try:
        jsonschema.validate(raw, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise SchemaError(f"{exc.json_path}: {exc.message}") from exc


def resolve_scenario(raw: dict) -> dict:
    """Validate and fill defaults; the result is the manifest's scenario block."""
    validate_scenario(raw)
    model = dict(raw["model"])
    model.setdefault("eigenvalues", {"rule": "dirichlet"})
    model.setdefault("noise", {"rule": "power", "rho": 0.0})
    if model["noise"].get("rule") == "power":
        model["noise"] = {"rule": "power", "rho": model["noise"].get("rho", 0.0)}
    model.setdefault("domain_length", 1.0)
    dynamics = dict(raw.get("dynamics", {}))
    dynamics.setdefault("nonlinearity", {"kind": "zero"})
    nl = dict(dynamics["nonlinearity"])
    nl.setdefault("alpha", 0.0)
    dynamics["nonlinearity"] = nl
    dynamics.setdefault("x0", {"kind": "zero"})
    dynamics.setdefault("oversample", 4)
    grid = dict(raw["grid"])
    grid.setdefault("kind", UNIFORM)
    if grid["kind"] == GEOMETRIC:
        grid.setdefault("ratio", 0.7)
    sampling = dict(raw["sampling"])
    sampling.setdefault("n_paths", 1)
    output = dict(raw.get("output", {}))
    output.setdefault("formats", ["csv", "json"])
    resolved = {
        "model": model,
        "dynamics": dynamics,
        "task": dict(raw["task"]),
        "grid": grid,
        "sampling": sampling,
        "output": output,
    }
    _check_semantics(resolved)
    return resolved


def _check_semantics(scenario: dict) -> None:
    model = scenario["model"]
    n = model["n_modes"]
    for block, key in (("eigenvalues", "eigenvalues"), ("noise", "noise")):
        spec = model[key]
        if spec["rule"] == "explicit":
            if "values" not in spec:
                raise SchemaError(f"$.model.{key}.values: required for explicit rule")
            if len(spec["values"]) != n:
                raise SchemaError(f"$.model.{key}.values: expected {n} entries")
    x0 = scenario["dynamics"]["x0"]
    if x0["kind"] == "explicit":
        if "values" not in x0:
            raise SchemaError("$.dynamics.x0.values: required for explicit rule")
        if len(x0["values"]) != n:
            raise SchemaError(f"$.dynamics.x0.values: expected {n} entries")
    task = scenario["task"]
    _check_keys(task, "name* " + _TASK_KEYS[task["name"]], "$.task")
    if task["name"] == "conditioned":
        endpoint = task["endpoint"]
        if not isinstance(endpoint, dict) or endpoint.get("kind") not in _ENDPOINT_KEYS:
            raise SchemaError('$.task.endpoint.kind: expected "dirac" or "tilted"')
        _check_keys(endpoint, _ENDPOINT_KEYS[endpoint["kind"]], "$.task.endpoint")
    if task["name"] == "dynkin":
        if not isinstance(task["test_functions"], list):
            raise SchemaError("$.task.test_functions: expected an array")
        for i, tf in enumerate(task["test_functions"]):
            _check_keys(tf, _TEST_FUNCTION_KEYS, f"$.task.test_functions[{i}]")
    if "paths" in scenario["output"]["formats"] and task["name"] != "forward":
        raise SchemaError('$.output.formats: "paths" is written only by the forward task')


def _check_keys(block, spec: str, where: str) -> None:
    """Reject keys of ``block`` missing from ``spec`` and required keys it lacks."""
    if not isinstance(block, dict):
        raise SchemaError(f"{where}: expected an object")
    keys = spec.split()
    allowed = {key.rstrip("*") for key in keys}
    for key in block:
        if key not in allowed:
            raise SchemaError(f"{where}.{key}: unknown key")
    for key in keys:
        if key.endswith("*") and key[:-1] not in block:
            raise SchemaError(f"{where}.{key[:-1]}: required")


def build_model(scenario: dict) -> SpectralModel:
    m = scenario["model"]
    n = m["n_modes"]
    length = m["domain_length"]
    eig = m["eigenvalues"]
    if eig["rule"] == "dirichlet":
        j = np.arange(1, n + 1, dtype=np.float64)
        lam = -((j * np.pi / length) ** 2)
    else:
        lam = np.asarray(eig["values"], dtype=np.float64)
    noise = m["noise"]
    if noise["rule"] == "power":
        j = np.arange(1, n + 1, dtype=np.float64)
        q = j ** (-float(noise["rho"]))
    else:
        q = np.asarray(noise["values"], dtype=np.float64)
    return SpectralModel(lam=lam, q=q, domain_length=length)


def build_nonlinearity(scenario: dict) -> Nonlinearity:
    nl = scenario["dynamics"]["nonlinearity"]
    return Nonlinearity(nl["kind"], float(nl.get("alpha", 0.0)))


def build_x0(scenario: dict, model: SpectralModel) -> np.ndarray:
    x0 = scenario["dynamics"]["x0"]
    if x0["kind"] == "zero":
        return np.zeros(model.n_modes)
    if x0["kind"] == "explicit":
        return np.asarray(x0["values"], dtype=np.float64)
    return sample_stationary(model, scenario["sampling"]["seed"])


def build_grid(scenario: dict):
    g = scenario["grid"]
    if g["kind"] == GEOMETRIC:
        return geometric_grid(g["horizon"], g["n_steps"], ratio=g["ratio"])
    return uniform_grid(g["horizon"], g["n_steps"])
