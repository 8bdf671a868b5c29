"""Scenario configs: schema, validation, resolution to a canonical form.

A scenario is a single JSON document with model / dynamics / task / grid /
sampling / output blocks. ``resolve_scenario`` validates it against the
published JSON Schema ``SCENARIO_SCHEMA``, fills every default, and returns
the canonical dict that is echoed verbatim into the run manifest; rebuilding
a scenario from a manifest therefore reproduces the run exactly.

Validation is ``_violations``, a walker over the schema's own keywords, so no
third-party validator is imported; ``validate`` also checks ``compare``'s
tolerance files. Every number must be finite: JSON has no NaN or infinity,
but ``json.load`` reads them, and reads a literal such as ``1e400`` as
infinity; an integer literal in a number field must convert to a finite
float.
"""

import math
import operator
import sys

import numpy as np

from .forward import Nonlinearity, sample_stationary
from .grids import GEOMETRIC, UNIFORM, geometric_grid, uniform_grid
from .spectral import SpectralModel, dirichlet_model

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
    "forward": ([], {"times": _NONEMPTY_NUMBERS}),
    "ou-bridge": (["target"], {"target": _NUMBERS, "times": _NONEMPTY_NUMBERS}),
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
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["a", "c"],
                "additionalProperties": False,
                "properties": {"a": _NUMBERS, "c": _NUMBER, "phase": {"enum": ["sin", "cos"]}},
            },
        },
        "times": _NONEMPTY_NUMBERS,
    }),
    "martingale-diag": (["target"], {
        "target": _NUMBERS,
        "h_horizon": _NUMBER,
        "times": _NONEMPTY_NUMBERS,
        "probe_time": _NUMBER,
        "novikov_fractions": _NUMBERS,
    }),
    "gamma-diag": ([], {"upto": _NUMBER, "n_points": {**_INTEGER, "minimum": 1}}),
    "ck-check": ([], {
        "s": _NUMBER,
        "t": _NUMBER,
        "modes": {"type": "array", "items": _INTEGER, "minItems": 1},
        "mid": _NONEMPTY_NUMBERS,
        "x": _NONEMPTY_NUMBERS,
        "y": _NONEMPTY_NUMBERS,
        "tolerance": _NUMBER,
    }),
}

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
                "seed": {"type": "integer", "minimum": 0},
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
    """A scenario or tolerance file failed validation; message names the offending field."""


# a test of each JSON type: a count, an index or a seed must be an int, so
# "integer" excludes 1.0 (JSON Schema admits it); a "number" must be finite,
# and an int one within float range
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, float) and math.isfinite(v)
    or _IS_TYPE["integer"](v) and abs(v) <= sys.float_info.max,
}
_BOUNDS = {
    "minimum": (operator.ge, "at least"),
    "exclusiveMinimum": (operator.gt, "greater than"),
    "exclusiveMaximum": (operator.lt, "less than"),
}
_KEYWORDS = {"$schema", "type", "enum", "const", *_BOUNDS, "minItems", "items", "required",
             "properties", "additionalProperties", "if", "then", "allOf"}


def _violations(schema, value, path):
    """Yield ``(path, message)`` for each way ``value`` breaks ``schema``.

    Walks the JSON Schema keywords ``SCENARIO_SCHEMA`` uses, in the schema's
    key order, and raises on any other keyword, so that a schema edit cannot
    go unchecked. ``path`` is the tuple of keys and indices down to ``value``;
    a missing or unknown key is reported at its own path.
    """
    if schema is True:
        return
    if schema is False:
        yield path, "no value is allowed here"
        return
    for keyword, arg in schema.items():
        if keyword not in _KEYWORDS:
            raise ValueError(f"schema keyword {keyword!r} is not implemented")
        if keyword == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_IS_TYPE[t](value) for t in types):
                names = " or ".join("finite number" if t == "number" else t for t in types)
                yield path, f"expected {names}, got {value!r}"
                return  # the other keywords assume the type
        elif keyword == "enum" and value not in arg:
            yield path, f"expected one of {arg}, got {value!r}"
        elif keyword == "const" and value != arg:
            yield path, f"expected {arg!r}, got {value!r}"
        elif keyword in _BOUNDS:
            holds, relation = _BOUNDS[keyword]
            if _IS_TYPE["number"](value) and not holds(value, arg):
                yield path, f"expected a value {relation} {arg}, got {value!r}"
        elif keyword == "minItems" and isinstance(value, list) and len(value) < arg:
            yield path, f"expected at least {arg} entries, got {len(value)}"
        elif keyword == "items" and isinstance(value, list):
            for i, item in enumerate(value):
                yield from _violations(arg, item, path + (i,))
        elif keyword == "required" and isinstance(value, dict):
            for key in arg:
                if key not in value:
                    yield path + (key,), "required key is missing"
        elif keyword == "properties" and isinstance(value, dict):
            for key, sub in arg.items():
                if key in value:
                    yield from _violations(sub, value[key], path + (key,))
        elif keyword == "additionalProperties" and isinstance(value, dict):
            for key in value:
                if key not in schema.get("properties", {}):
                    yield from _violations(arg, value[key], path + (key,))
        elif keyword == "if":
            if not any(_violations(arg, value, path)):
                yield from _violations(schema.get("then", True), value, path)
        elif keyword == "allOf":
            for sub in arg:
                yield from _violations(sub, value, path)


def validate(schema: dict, value) -> None:
    """Raise SchemaError naming the first violation of schema with the shortest path."""
    found = min(_violations(schema, value, ()), key=lambda v: len(v[0]), default=None)
    if found is None:
        return
    path, message = found
    field = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    raise SchemaError(f"{field}: {message}")


def resolve_scenario(raw: dict) -> dict:
    """Validate and fill defaults; the result is the manifest's scenario block."""
    validate(SCENARIO_SCHEMA, raw)
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
    endpoint = task.get("endpoint", {})
    vectors = [(key, task.get(key)) for key in ("target", "obs_var")]
    vectors += [(f"endpoint.{key}", endpoint.get(key)) for key in ("target", "mean", "var")]
    vectors += [(f"test_functions[{i}].a", tf["a"])
                for i, tf in enumerate(task.get("test_functions", []))]
    for field, values in vectors:
        if isinstance(values, list) and len(values) != n:
            raise SchemaError(f"$.task.{field}: expected {n} entries")
    if task["name"] == "ck-check":
        for i, mode in enumerate(task.get("modes", [])):
            if not 0 <= mode < n:
                raise SchemaError(f"$.task.modes[{i}]: expected a mode index in [0, {n})")
    # a task's "times" and "probe_time" name grid nodes; none may lie off the grid
    horizon = scenario["grid"]["horizon"]
    fields = [(f"times[{i}]", t) for i, t in enumerate(task.get("times", []))]
    if "probe_time" in task:
        fields.append(("probe_time", task["probe_time"]))
    for field, t in fields:
        slack = 1e-12 * max(1.0, abs(t))  # the relative slack of forward.node_at_or_before
        if not -slack <= t <= horizon + slack:
            raise SchemaError(f"$.task.{field}: expected a time in [0, {horizon}]")
    if "paths" in scenario["output"]["formats"] and task["name"] != "forward":
        raise SchemaError('$.output.formats: "paths" is written only by the forward task')


def build_model(scenario: dict) -> SpectralModel:
    m = scenario["model"]
    eig, noise = m["eigenvalues"], m["noise"]
    # the rules' formulas are dirichlet_model's, given the length and rho only
    # where a rule reads them, so that an explicit list never meets a check
    # of the formula it replaces
    rules = dirichlet_model(
        m["n_modes"],
        noise["rho"] if noise["rule"] == "power" else 0.0,
        m["domain_length"] if eig["rule"] == "dirichlet" else 1.0,
    )
    lam = eig["values"] if eig["rule"] == "explicit" else rules.lam
    q = noise["values"] if noise["rule"] == "explicit" else rules.q
    return SpectralModel(lam=lam, q=q, domain_length=m["domain_length"])


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
