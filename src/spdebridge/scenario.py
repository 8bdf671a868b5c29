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

_NUMBER = {"type": "number"}
_NUMBERS = {"type": "array", "items": _NUMBER}
_NONEMPTY_NUMBERS = {**_NUMBERS, "minItems": 1}
_INTEGER = {"type": "integer"}


def _if_equals(key: str, value: str, then: dict) -> dict:
    """Apply ``then`` to an object whose ``key`` holds ``value``."""
    return {"if": {"required": [key], "properties": {key: {"const": value}}}, "then": then}


def _tagged(tag: str, variants: dict) -> dict:
    """Object schema whose ``tag`` value selects one of ``variants``.

    Each variant is a ``(required, properties)`` pair: the keys it allows
    besides ``tag`` with their types, and those of them it requires. No
    other key is accepted.
    """
    return {
        "type": "object",
        "required": [tag],
        "properties": {tag: {"enum": list(variants)}},
        "allOf": [
            _if_equals(tag, value, {
                "required": required,
                "additionalProperties": False,
                "properties": {tag: True, **properties},
            })
            for value, (required, properties) in variants.items()
        ],
    }


# The task block: the keys of each task besides "name", typed as the
# runners in tasks.py consume them. No defaults: resolution adds nothing to
# the task block, so a manifest echoes it as written.
_TASK_VARIANTS = {
    "forward": ([], {"times": _NUMBERS}),
    "ou-bridge": (["target"], {"target": _NUMBERS, "times": _NUMBERS}),
    "guided": (["target"], {
        "target": _NUMBERS,
        "conditioning": {"enum": ["exact", "noisy_obs"]},
        "obs_var": {"type": ["number", "array"], "items": _NUMBER},
        "weight_cutoffs": _NONEMPTY_NUMBERS,
        "probe_time": _NUMBER,
    }),
    "conditioned": (["endpoint"], {
        "endpoint": _tagged("kind", {
            "dirac": (["target"], {"target": _NUMBERS}),
            "tilted": (["mean", "var"], {"mean": _NUMBERS, "var": _NUMBERS}),
        }),
        "probe_time": _NUMBER,
        "weight_cutoff": _NUMBER,
    }),
    "dynkin": (["test_functions"], {
        "test_functions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "c"],
                "additionalProperties": False,
                "properties": {"a": _NUMBERS, "c": _NUMBER, "phase": {"enum": ["sin", "cos"]}},
            },
        },
        "times": _NUMBERS,
    }),
    "martingale-diag": (["target"], {
        "target": _NUMBERS,
        "h_horizon": _NUMBER,
        "times": _NUMBERS,
        "probe_time": _NUMBER,
        "novikov_fractions": _NUMBERS,
    }),
    "gamma-diag": ([], {"upto": _NUMBER, "n_points": {**_INTEGER, "minimum": 1}}),
    "ck-check": ([], {
        "s": _NUMBER,
        "t": _NUMBER,
        "modes": {"type": "array", "items": _INTEGER},
        "mid": _NUMBERS,
        "x": _NUMBERS,
        "y": _NUMBERS,
        "tolerance": _NUMBER,
    }),
}
TASK_NAMES = list(_TASK_VARIANTS)

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
                        "values": _NONEMPTY_NUMBERS,
                    },
                    **_if_equals("rule", "explicit", {"required": ["values"]}),
                },
                "noise": {
                    "type": "object",
                    "required": ["rule"],
                    "additionalProperties": False,
                    "properties": {
                        "rule": {"enum": ["power", "explicit"]},
                        "rho": {"type": "number", "minimum": 0},
                        "values": _NONEMPTY_NUMBERS,
                    },
                    **_if_equals("rule", "explicit", {"required": ["values"]}),
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
                        "values": _NONEMPTY_NUMBERS,
                    },
                    **_if_equals("kind", "explicit", {"required": ["values"]}),
                },
                "oversample": {"type": "integer", "minimum": 1},
            },
        },
        "task": _tagged("name", _TASK_VARIANTS),
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


# built once: jsonschema.validate checks the schema itself on every call. JSON
# Schema counts 1.0 as an integer; a count, an index or a seed must be an int
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)(SCENARIO_SCHEMA)


def validate_scenario(raw: dict) -> None:
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if error is None:
        return
    # a missing or unknown key is reported at its own path, not its object's
    if error.validator == "required":
        error.path.append(next(k for k in error.validator_value if k not in error.instance))
    elif error.validator == "additionalProperties":
        allowed = error.schema["properties"]
        error.path.append(next(k for k in error.instance if k not in allowed))
    raise SchemaError(f"{error.json_path}: {error.message}") from error


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
    """Rules that compare one field with another; the schema checks the rest."""
    model = scenario["model"]
    n = model["n_modes"]
    for key in ("eigenvalues", "noise"):
        spec = model[key]
        if spec["rule"] == "explicit" and len(spec["values"]) != n:
            raise SchemaError(f"$.model.{key}.values: expected {n} entries")
    x0 = scenario["dynamics"]["x0"]
    if x0["kind"] == "explicit" and len(x0["values"]) != n:
        raise SchemaError(f"$.dynamics.x0.values: expected {n} entries")
    task = scenario["task"]
    if task["name"] == "ck-check":
        for i, mode in enumerate(task.get("modes", [])):
            if not 0 <= mode < n:
                raise SchemaError(f"$.task.modes[{i}]: expected a mode index in [0, {n})")
    if "paths" in scenario["output"]["formats"] and task["name"] != "forward":
        raise SchemaError('$.output.formats: "paths" is written only by the forward task')


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
