"""Property test of the CLI contract: every drawn scenario ends in an exit
code of 0, 1, 2 or 3 and one-line messages, never a traceback; a task value
of the wrong type, an empty task list, and a task time off the grid each
exit 1 with a message naming the field. Scenario validation agrees with
jsonschema on every drawn scenario with one mutation.

Scenarios are drawn at small sizes (a few modes, steps and paths) so the
whole test stays within a few seconds.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spdebridge.cli import main
from spdebridge.scenario import SCENARIO_SCHEMA, SchemaError, _violations, validate

finite = st.floats(-3.0, 3.0, allow_nan=False)
any_number = st.one_of(
    finite,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-5, 5),
)
# mostly valid model values, so that runs get past the model's own checks
eigenvalues = st.one_of(st.floats(-30.0, -0.5), st.floats(-30.0, -0.5), any_number)
intensities = st.one_of(st.floats(0.1, 3.0), st.floats(0.1, 3.0), any_number)


def vector(n, elements=any_number):
    return st.lists(elements, min_size=n, max_size=n)


def on_or_off_grid(horizon):
    """A task time: mostly on the grid's [0, horizon], some off it."""
    return st.one_of(
        st.floats(0.0, horizon), st.floats(-0.5, horizon + 0.5), any_number
    )


# task lists the schema requires to be non-empty
NONEMPTY = {
    "forward": ("times",),
    "ou-bridge": ("times",),
    "guided": ("weight_cutoffs",),
    "dynkin": ("test_functions", "times"),
    "martingale-diag": ("times",),
    "ck-check": ("modes", "mid", "x", "y"),
}


def off_grid(t, horizon):
    slack = 1e-12 * max(1.0, abs(t))
    return not -slack <= t <= horizon + slack


def expected_error_fields(scenario):
    """Fields one of which a run must name, exiting 1; empty if none must fail.

    The schema's checks come before those that compare fields, so an empty
    list is reported ahead of a mode index or a time out of range.
    """
    task = scenario["task"]
    name = task["name"]
    empty = [f"$.task.{key}" for key in NONEMPTY.get(name, ()) if task.get(key) == []]
    if empty:
        return empty
    n_modes = scenario["model"]["n_modes"]
    for i, mode in enumerate(task.get("modes", [])):
        if not 0 <= mode < n_modes:
            return [f"$.task.modes[{i}]"]
    horizon = scenario["grid"]["horizon"]
    for i, t in enumerate(task.get("times", [])):
        if off_grid(t, horizon):
            return [f"$.task.times[{i}]"]
    if "probe_time" in task and off_grid(task["probe_time"], horizon):
        return ["$.task.probe_time"]
    return []


@st.composite
def task_blocks(draw, n, horizon):
    name = draw(
        st.sampled_from(
            ["forward", "ou-bridge", "guided", "conditioned", "dynkin",
             "martingale-diag", "gamma-diag", "ck-check"]
        )
    )
    times = st.lists(on_or_off_grid(horizon), max_size=3)
    optional = {}
    if name == "forward":
        optional = {"times": times}
    elif name == "ou-bridge":
        optional = {"target*": vector(n, finite), "times": times}
    elif name == "guided":
        optional = {
            "target*": vector(n, finite),
            "conditioning": st.sampled_from(["exact", "noisy_obs"]),
            "obs_var": st.one_of(any_number, vector(n)),
            "weight_cutoffs": times,
            "probe_time": on_or_off_grid(horizon),
        }
    elif name == "conditioned":
        optional = {
            "endpoint*": st.one_of(
                st.fixed_dictionaries({"kind": st.just("dirac"), "target": vector(n)}),
                st.fixed_dictionaries(
                    {"kind": st.just("tilted"), "mean": vector(n), "var": vector(n)}
                ),
            ),
            "probe_time": on_or_off_grid(horizon),
            "weight_cutoff": any_number,
        }
    elif name == "dynkin":
        test_function = st.fixed_dictionaries(
            {"a": vector(n), "c": any_number},
            optional={"phase": st.sampled_from(["sin", "cos"])},
        )
        optional = {
            "test_functions*": st.lists(test_function, max_size=2),
            "times": times,
        }
    elif name == "martingale-diag":
        optional = {
            "target*": vector(n, finite),
            "h_horizon": any_number,
            "times": times,
            "probe_time": on_or_off_grid(horizon),
            "novikov_fractions": st.lists(finite, min_size=1, max_size=3),
        }
    elif name == "gamma-diag":
        optional = {"upto": any_number, "n_points": st.integers(1, 20)}
    else:
        optional = {
            "s": any_number,
            "t": any_number,
            "modes": st.lists(st.integers(-1, n), max_size=2),
            "mid": times,
            "x": st.lists(finite, max_size=2),
            "y": st.lists(finite, max_size=2),
            "tolerance": any_number,
        }
    block = {"name": name}
    for key, strategy in optional.items():
        if key.endswith("*") or draw(st.booleans()):
            block[key.rstrip("*")] = draw(strategy)
    return block


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 3))
    model = {"n_modes": n}
    if draw(st.booleans()):
        model["eigenvalues"] = draw(
            st.one_of(
                st.just({"rule": "dirichlet"}),
                st.fixed_dictionaries(
                    {"rule": st.just("explicit"), "values": vector(n, eigenvalues)}
                ),
            )
        )
    if draw(st.booleans()):
        model["noise"] = draw(
            st.one_of(
                st.fixed_dictionaries(
                    {"rule": st.just("power")}, optional={"rho": st.floats(0.0, 4.0)}
                ),
                st.fixed_dictionaries(
                    {"rule": st.just("explicit"), "values": vector(n, intensities)}
                ),
            )
        )
    nonlinearity = draw(
        st.fixed_dictionaries(
            {"kind": st.sampled_from(["zero", "linear", "bounded_rational", "sine"])},
            optional={"alpha": any_number},
        )
    )
    x0 = draw(
        st.one_of(
            st.just({"kind": "zero"}),
            st.just({"kind": "stationary"}),
            st.fixed_dictionaries({"kind": st.just("explicit"), "values": vector(n)}),
        )
    )
    grid = {
        "horizon": draw(st.floats(0.05, 2.0)),
        "n_steps": draw(st.integers(1, 12)),
        "kind": draw(st.sampled_from(["uniform", "geometric"])),
    }
    task = draw(task_blocks(n, grid["horizon"]))
    if grid["kind"] == "geometric" and draw(st.booleans()):
        grid["ratio"] = draw(st.floats(0.05, 0.95))
    formats = draw(st.lists(st.sampled_from(["csv", "json"]), unique=True))
    if task["name"] == "forward" and draw(st.booleans()):
        formats.append("paths")
    return {
        "model": model,
        "dynamics": {
            "nonlinearity": nonlinearity,
            "x0": x0,
            "oversample": draw(st.integers(1, 3)),
        },
        "task": task,
        "grid": grid,
        "sampling": {
            "n_paths": draw(st.one_of(st.integers(2, 24), st.just(1))),
            "seed": draw(st.integers(0, 2**31)),
        },
        "output": {"formats": formats},
    }


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios(), assert_mode=st.booleans())
def test_every_schema_valid_scenario_keeps_the_exit_code_contract(scenario, assert_mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.json"
        path.write_text(json.dumps(scenario))
        args = ["run", str(path), "--out", str(Path(tmp) / "run")]
        if assert_mode:
            args.append("--assert")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().strip(), "a failed run must say why on stderr"
    fields = expected_error_fields(scenario)
    if fields:
        assert code == 1, err.getvalue()
        assert any(err.getvalue().startswith(f"error: {f}: ") for f in fields), err.getvalue()
    else:
        validate(SCENARIO_SCHEMA, scenario)


@st.composite
def mistyped(draw, task):
    """One task value replaced by a value of the wrong JSON type.

    Returns the new task block and the field the error must name.
    """
    key = draw(st.sampled_from(sorted(set(task) - {"name"})))
    value = task[key]
    task = dict(task)
    if isinstance(value, list) and draw(st.booleans()):
        # no array in a task block holds strings, booleans, nulls or arrays
        entry = draw(st.one_of(st.just("soon"), st.booleans(), st.none(), st.just([0.5])))
        task[key] = [entry] + value[1:]
        return task, f"$.task.{key}[0]"
    wrong = [st.just("soon"), st.booleans(), st.none()]
    if not isinstance(value, dict):
        wrong.append(st.just({"at": 0.5}))
    if isinstance(value, list) and key != "obs_var":
        wrong.append(st.just(0.5))
    task[key] = draw(st.one_of(wrong))
    return task, f"$.task.{key}"


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios(), data=st.data())
def test_wrong_typed_task_value_names_the_field(scenario, data):
    assume(len(scenario["task"]) > 1)
    # an empty list elsewhere in the block is a schema error of its own
    assume(not any(value == [] for value in scenario["task"].values()))
    scenario["task"], field = data.draw(mistyped(scenario["task"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.json"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(Path(tmp) / "run")])
    assert code == 1, err.getvalue()
    assert err.getvalue().startswith(f"error: {field}"), err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n_modes=st.integers(1, 3), data=st.data())
def test_ck_check_mode_outside_the_model_names_the_field(n_modes, data):
    modes = data.draw(st.lists(st.integers(-3, n_modes + 2), min_size=1, max_size=4))
    bad = [i for i, mode in enumerate(modes) if not 0 <= mode < n_modes]
    assume(bad)
    scenario = {
        "model": {"n_modes": n_modes},
        "task": {"name": "ck-check", "modes": modes},
        "grid": {"horizon": 1.0, "n_steps": 4},
        "sampling": {"seed": 1},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.json"
        path.write_text(json.dumps(scenario))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(path), "--out", str(Path(tmp) / "run")])
    assert code == 1
    assert err.getvalue().startswith(f"error: $.task.modes[{bad[0]}]: "), err.getvalue()


# The oracle: jsonschema's Draft 2020-12 validator, with the package's rule
# that an integer is an int (JSON Schema also counts 1.0 as one).
ORACLE = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)(SCENARIO_SCHEMA)
WALKED_KEYWORDS = {
    "$schema", "type", "enum", "const", "minimum", "exclusiveMinimum", "exclusiveMaximum",
    "minItems", "items", "required", "properties", "additionalProperties", "if", "then",
    "allOf",
}


def schema_keywords(schema):
    """Every keyword ``schema`` and its subschemas use."""
    if isinstance(schema, bool):
        return set()
    found = set(schema)
    for keyword, arg in schema.items():
        if keyword == "properties":
            subschemas = arg.values()
        elif keyword == "allOf":
            subschemas = arg
        else:
            subschemas = [arg] if isinstance(arg, (dict, bool)) else []
        for subschema in subschemas:
            found |= schema_keywords(subschema)
    return found


def test_schema_uses_only_walked_keywords():
    assert schema_keywords(SCENARIO_SCHEMA) <= WALKED_KEYWORDS
    with pytest.raises(ValueError, match="maxItems"):
        list(_violations({"type": "array", "maxItems": 1}, [], ()))


def oracle_paths(scenario):
    """The JSON path of each violation jsonschema finds.

    jsonschema reports a missing or unknown key at its object's path; here
    it is reported at its own path, as the package reports it.
    """
    paths = set()
    for error in ORACLE.iter_errors(scenario):
        if error.validator == "required":
            keys = [k for k in error.validator_value if k not in error.instance]
        elif error.validator == "additionalProperties":
            keys = [k for k in error.instance if k not in error.schema.get("properties", {})]
        else:
            paths.add(error.json_path)
            continue
        paths |= {f"{error.json_path}.{key}" for key in keys}
    return paths


def nodes(value, path=()):
    """Every (path, value) pair of a JSON document, the root's included."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            yield from nodes(sub, path + (key,))


@st.composite
def mutated(draw, scenario):
    """Copies of ``scenario``, each with one mutation at a drawn place.

    A drawn value is replaced by each value of a wrong type and a drawn
    number by each value on or past a bound (every bound in the schema is 0
    or 1); a key is added, a key is deleted, a word is replaced by one no
    enum lists, and a list is emptied.
    """
    mutations = {kind: [] for kind in ("retype", "add", "delete", "enum", "bound", "empty")}
    for path, value in nodes(scenario):
        if path:
            mutations["retype"].append(path)
        if isinstance(value, dict):
            mutations["add"].append(path + ("unknown_key",))
            mutations["delete"] += [path + (key,) for key in value]
        elif isinstance(value, str):
            mutations["enum"].append(path)
        elif isinstance(value, list) and value:
            mutations["empty"].append(path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if isinstance(path[-1], str):  # the schema bounds object values only
                mutations["bound"].append(path)
    replacements = {
        "retype": ["soon", True, None, {"at": 0.5}, [0.5], 0.5, 3],
        "add": [0.5],
        "delete": [None],
        "enum": ["frobnicate"],
        "bound": [-1, 0, 1],
        "empty": [[]],
    }
    copies = []
    for kind, paths in mutations.items():
        if not paths:
            continue
        *parents, key = draw(st.sampled_from(paths))
        for replacement in replacements[kind]:
            mutant = copy.deepcopy(scenario)
            parent = mutant
            for step in parents:
                parent = parent[step]
            if kind == "delete":
                del parent[key]
            elif kind == "bound":
                parent[key] = type(parent[key])(replacement)
            else:
                parent[key] = copy.deepcopy(replacement)
            copies.append(mutant)
    return copies


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios(), data=st.data())
def test_validation_agrees_with_jsonschema(scenario, data):
    # finite numbers only: the package also rejects NaN and the infinities
    for mutant in data.draw(mutated(scenario)):
        expected = oracle_paths(mutant)
        found = {
            "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
            for path, _ in _violations(SCENARIO_SCHEMA, mutant, ())
        }
        assert found == expected, mutant
        if not expected:
            validate(SCENARIO_SCHEMA, mutant)
            continue
        with pytest.raises(SchemaError) as raised:
            validate(SCENARIO_SCHEMA, mutant)
        reported = str(raised.value).split(": ", 1)[0]
        assert reported in expected
        if len(expected) == 1:
            assert reported == expected.pop()
