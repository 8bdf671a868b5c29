"""Command-line entry points.

    spdebridge run <scenario.json> [--out DIR] [--threads N] [--assert]
    spdebridge compare <dirA> <dirB> <tolerances.json>

Exit codes: 0 ok, 1 usage/schema error (and any unforeseen failure, as one
stderr line), 2 numerical-domain error, 3 assertion/comparison failure. All
state flows through the scenario file; no environment variables are consulted.
"""

import argparse
import json
import sys

from .errors import DomainError
from .io import read_manifest, read_summary
from .scenario import SchemaError, resolve_scenario, validate
from .tasks import AssertionFailure, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_ASSERT = 3


# A tolerance file. A cell of a quantity's column takes the quantity's
# tolerance for that column, else the column's, else the default, else none
# (exact); an absent abs or rel is 0.
_AT_LEAST_0 = {"type": "number", "minimum": 0}
_TOLERANCE = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"abs": _AT_LEAST_0, "rel": _AT_LEAST_0},
}
_PER_COLUMN = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"value": _TOLERANCE, "stderr": _TOLERANCE},
}
TOLERANCE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "default": _TOLERANCE,
        "columns": _PER_COLUMN,
        "quantities": {"type": "object", "additionalProperties": _PER_COLUMN},
    },
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="spdebridge")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("scenario", help="path to the scenario JSON file")
    run_p.add_argument("--out", help="output directory (default from scenario)")
    run_p.add_argument(
        "--threads", type=int, default=None,
        help="accepted and ignored: streamed passes use every available core",
    )
    run_p.add_argument(
        "--assert", dest="assert_mode", action="store_true",
        help="turn built-in consistency checks into failures",
    )
    cmp_p = sub.add_parser("compare", help="compare two run directories")
    cmp_p.add_argument("dir_a")
    cmp_p.add_argument("dir_b")
    cmp_p.add_argument("tolerances", help="path to the tolerance spec JSON")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


def _cmd_run(args) -> int:
    scenario = resolve_scenario(_load_json(args.scenario))
    outdir = args.out or scenario["output"].get("directory") or "run"
    task = scenario["task"]["name"]
    try:
        run_scenario(scenario, outdir, assert_mode=args.assert_mode)
    except AssertionFailure as exc:
        print(f"task {task}: assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except DomainError as exc:
        print(f"task {task}: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"task {task}: ok, artifacts in {outdir}")
    return EXIT_OK


def _tolerance_for(tol_spec: dict, quantity: str, column: str) -> dict:
    per_q = tol_spec.get("quantities", {}).get(quantity, {})
    if column in per_q:
        return per_q[column]
    per_c = tol_spec.get("columns", {})
    if column in per_c:
        return per_c[column]
    return tol_spec.get("default", {"abs": 0.0, "rel": 0.0})


def _within(a: float, b: float, tol: dict) -> bool:
    diff = abs(a - b)
    return diff <= tol.get("abs", 0.0) + tol.get("rel", 0.0) * max(abs(a), abs(b))


def _row_key(key) -> dict:
    return {"quantity": key[0], "mode": key[1], "time": key[2]}


def _only_in(rows: dict, other: dict) -> list:
    """Keys of rows missing from ``other`` whose quantity ``other`` reports."""
    reported = {key[0] for key in other}
    return [_row_key(k) for k in sorted(rows) if k not in other and k[0] in reported]


def compare_runs(dir_a: str, dir_b: str, tol_spec: dict) -> dict:
    """Field-by-field comparison of two runs' summary tables.

    Runs must share the model and grid blocks. Rows are matched by
    (quantity, mode, time); numeric cells on common keys are compared under
    the tolerance spec. A quantity both runs report must have the same rows
    in each, and a cell empty in one run must be empty in the other;
    quantities only one run reports are not compared. Returns a report dict
    listing every offending cell and unmatched row. A tol_spec that breaks
    ``TOLERANCE_SCHEMA`` raises SchemaError naming the field.
    """
    validate(TOLERANCE_SCHEMA, tol_spec)
    man_a = read_manifest(dir_a)
    man_b = read_manifest(dir_b)
    for block in ("model", "grid"):
        if man_a["scenario"][block] != man_b["scenario"][block]:
            raise DomainError(f"incompatible manifests: {block} blocks differ")
    rows_a = {(r["quantity"], r["mode"], r["time"]): r for r in read_summary(dir_a)}
    rows_b = {(r["quantity"], r["mode"], r["time"]): r for r in read_summary(dir_b)}
    common = sorted(set(rows_a) & set(rows_b))
    if not common:
        raise DomainError("incompatible runs: no common observables")
    offending = []
    for key in common:
        for column in ("value", "stderr"):
            va, vb = rows_a[key][column], rows_b[key][column]
            if va == "" and vb == "":
                continue
            tol = _tolerance_for(tol_spec, key[0], column)
            a = None if va == "" else float(va)
            b = None if vb == "" else float(vb)
            if a is None or b is None or not _within(a, b, tol):
                offending.append(
                    {**_row_key(key), "column": column, "a": a, "b": b, "tolerance": tol}
                )
    only_in_a = _only_in(rows_a, rows_b)
    only_in_b = _only_in(rows_b, rows_a)
    return {
        "compared": len(common),
        "only_in_a": only_in_a,
        "only_in_b": only_in_b,
        "offending": offending,
        "pass": not (offending or only_in_a or only_in_b),
    }


def _cmd_compare(args) -> int:
    tol_spec = _load_json(args.tolerances)
    try:
        report = compare_runs(args.dir_a, args.dir_b, tol_spec)
    except DomainError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except FileNotFoundError as exc:
        raise SchemaError(str(exc)) from exc
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK if report["pass"] else EXIT_ASSERT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            code = _cmd_run(args)
        else:
            code = _cmd_compare(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except Exception as exc:
        # last resort: the exit-code contract holds for every input, so an
        # unforeseen failure is one stderr line, never a traceback
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        code = EXIT_USAGE
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
