"""Command-line surface: ingestion, dispatch, and deterministic reports.

Reports are JSON with lexicographic field order; floats use the shortest
round-trip representation.  Exit codes: 0 success, 1 internal invariant
violation (InvariantError), 2 malformed input or arguments.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .complexes import ComplexError, PLFunction, coordinate_function, distance_function
from .convergence import SWEEP_PARAMS, build_family, continuity_sweep, semicontinuity_report
from .currents import (
    boundary,
    chain_from_json,
    chain_to_json,
    current_from_json,
    evaluate,
    mass,
    total_mass,
)
from .fillvol import filling_volume, filling_volume_0d, flat_distance
from .metricspace import (
    ArgumentError,
    FiniteMetricSpace,
    InvariantError,
    MetricError,
    gh_bounds,
    load_distance_csv,
    load_points_csv,
    packing_number,
)
from .product import interval_filling_volume, product_current
from .slicing import ball, coarea_profile, slice_current, sphere
from .slicedfill import sf_k, sliced_fill, sliced_interval_fill, tetra_check

logger = logging.getLogger("currentlab")

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _configure_logging():
    level = os.environ.get("CURRENTLAB_LOG", "warn").lower()
    mapping = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(level=mapping.get(level, logging.WARNING))


def write_report(report: dict, path: str | None, format: str = "json"):
    if format == "csv":
        text = _report_csv(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=1, allow_nan=False)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _report_csv(report: dict) -> str:
    rows = report.get("result", {}).get("rows")
    if rows:
        keys = sorted(rows[0])
        lines = [",".join(keys)]
        for row in rows:
            lines.append(",".join(repr(row.get(k)) for k in keys))
        return "\n".join(lines)
    flat = {k: v for k, v in sorted(report.get("result", report).items()) if np.isscalar(v)}
    lines = [",".join(map(str, flat)), ",".join(repr(v) for v in flat.values())]
    return "\n".join(lines)


def _load_chain_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(data, dict):
        raise ArgumentError(f"{path}: expected a JSON object")
    return data


def _chain_and_data(path):
    data = _load_chain_file(path)
    try:
        return chain_from_json(data), data
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"{path}: bad chain payload: {exc}") from exc


def _metric_space_from(path):
    if path.endswith(".csv"):
        # a square, symmetric, zero-diagonal CSV is a distance matrix, whose
        # axiom violations are input errors; any other shape is a point cloud
        try:
            return load_distance_csv(path)
        except ArgumentError:
            return load_points_csv(path)
    data = _load_chain_file(path)
    for key, space in (("distances", FiniteMetricSpace), ("points", FiniteMetricSpace.from_points)):
        if key in data:
            return space(_float_array(data[key], f"{path}: '{key}'"))
    raise ArgumentError(f"{path}: expected a distance/point CSV or JSON")


def finite(text: str) -> float:
    """The argparse type of every float option: nan and +-inf are bad input."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _numbers(text: str, kind, option: str) -> tuple:
    """Comma-separated values of one type; a malformed entry is an input error."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ArgumentError(f"--{option}: expected comma-separated {kind.__name__} values, got {text!r}") from exc


def _float_array(value, what) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"{what} must be an array of numbers: {exc}") from None


def _function_on(complex, spec: str, data=None) -> PLFunction:
    kind, _, arg = spec.partition(":")
    if kind in ("coord", "dist"):
        try:
            n = int(arg)
        except ValueError as exc:
            raise ArgumentError(f"function spec {spec!r}: expected {kind}:<integer>") from exc
        return coordinate_function(complex, n) if kind == "coord" else distance_function(complex, n)
    if spec == "json":
        if not data or "function" not in data:
            raise ArgumentError("function spec 'json' needs a 'function' value array")
        return PLFunction(complex, _float_array(data["function"], "'function'"))
    raise ArgumentError(f"unknown function spec {spec!r} (use coord:<axis>, dist:<vertex>, json)")


def _summary(current) -> dict:
    return {
        "mass": mass(current),
        "boundary_mass": mass(boundary(current)),
        "dim": current.dim,
        "support_size": len(current.idx),
        "chain": chain_to_json(current),
    }


# ---------------------------------------------------------------------------
# handlers


def _cmd_mass(args):
    T, _ = _chain_and_data(args.input)
    return {"mass": mass(T), "boundary_mass": mass(boundary(T)), "total_mass": total_mass(T)}


def _cmd_boundary(args):
    T, _ = _chain_and_data(args.input)
    return _summary(boundary(T))


def _cmd_evaluate(args):
    T, data = _chain_and_data(args.input)
    fns = data.get("functions", {})
    if "f" not in fns or "pis" not in fns:
        raise ArgumentError("evaluate needs a 'functions' object with 'f' and 'pis' arrays")
    f = PLFunction(T.complex, _float_array(fns["f"], "'f'"))
    pis = [PLFunction(T.complex, _float_array(v, "'pis'")) for v in fns["pis"]]
    return {"value": evaluate(T, f, pis)}


def _cmd_slice(args):
    T, data = _chain_and_data(args.input)
    f = _function_on(T.complex, args.function, data)
    res = slice_current(T, f, args.level)
    out = _summary(res.current)
    out.update({"levels": [res.refinement.level], "warnings": res.warnings})
    return out


def _cmd_ball(args):
    T, _ = _chain_and_data(args.input)
    return _summary(ball(T, args.center, args.radius))


def _cmd_sphere(args):
    T, _ = _chain_and_data(args.input)
    res = sphere(T, args.center, args.radius)
    out = _summary(res.current)
    out.update({"levels": [res.refinement.level], "warnings": res.warnings})
    return out


def _cmd_coarea(args):
    T, data = _chain_and_data(args.input)
    f = _function_on(T.complex, args.function, data)
    integral, bound = coarea_profile(T, f, args.samples)
    return {"integral": integral, "bound": bound, "samples": args.samples, "lipschitz": f.lip}


def _cmd_flatnorm(args):
    T, data = _chain_and_data(args.input)
    if "current_b" not in data:
        raise ArgumentError("flatnorm input needs 'current' and 'current_b' on one complex")
    try:
        S = current_from_json(T.complex, data["current_b"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"{args.input}: bad current_b payload: {exc}") from exc
    return flat_distance(T, S, T.complex).to_json()


def _cmd_fillvol(args):
    T, _ = _chain_and_data(args.input)
    return filling_volume(T, T.complex).to_json()


def _cmd_fillvol0(args):
    data = _load_chain_file(args.input)
    if "theta" not in data or "sigma" not in data:
        raise ArgumentError("fillvol0 input needs 'theta' and 'sigma' arrays")
    space = _metric_space_from(args.input)
    return filling_volume_0d(space, data["theta"], data["sigma"]).to_json()


def _cmd_sf(args):
    T, _ = _chain_and_data(args.input)
    return sliced_fill(T, args.center, args.radius, witnesses=args.witnesses or None, grid=args.grid).to_json()


def _cmd_sfk(args):
    T, _ = _chain_and_data(args.input)
    return sf_k(T, args.center, args.radius, args.k, candidates=args.candidates, grid=args.grid).to_json()


def _cmd_tetra(args):
    T, _ = _chain_and_data(args.input)
    return tetra_check(
        T, args.center, args.radius, C=args.C, beta=args.beta,
        samples=args.samples, candidates=args.candidates,
    ).to_json()


def _cmd_product(args):
    T, _ = _chain_and_data(args.input)
    prod = product_current(T, args.epsilon, args.layers)
    out = _summary(prod)
    out["expected_mass"] = args.epsilon * mass(T)
    return out


def _cmd_ifv(args):
    T, _ = _chain_and_data(args.input)
    out = interval_filling_volume(T, args.epsilon).to_json()
    out["epsilon"] = args.epsilon
    out["mass_bound"] = out["value"] / args.epsilon
    return out


def _cmd_sif(args):
    T, _ = _chain_and_data(args.input)
    return sliced_interval_fill(
        T, args.center, args.radius,
        witnesses=args.witnesses or None,
        epsilon=args.epsilon, grid=args.grid,
    ).to_json()


def _cmd_gh(args):
    X = _metric_space_from(args.input)
    Y = _metric_space_from(args.input2)
    lower, upper = gh_bounds(X, Y, exact_limit=args.exact_limit)
    return {"lower": lower, "upper": upper, "exact": bool(max(X.n, Y.n) <= args.exact_limit)}


def _cmd_pack(args):
    return packing_number(_metric_space_from(args.input), args.radius).to_json()


def _cmd_lab(args):
    reads = _LAB_QUANTITIES.get(args.quantity, "radius grid epsilon").split()
    for option in ("radius", "grid", "epsilon"):
        if option in args.given and option not in reads:
            raise ArgumentError(f"lab --quantity {args.quantity} does not read --{option}")
    family = build_family(args.family, list(args.schedule))
    if args.quantity == "semicontinuity":
        return semicontinuity_report(family)
    radius = 0.5 if args.radius is None else args.radius
    return continuity_sweep(family, args.quantity, {"radius": radius, "grid": args.grid, "epsilon": args.epsilon})


# ---------------------------------------------------------------------------
# the command table

# one argparse spec per option; its dest is the flag with "-" read as "_"
_OPTIONS = {
    "input": dict(help="input chain JSON / CSV"),
    "input2": dict(help="second input"),
    "output": dict(help="report path (stdout if omitted)"),
    "format": dict(choices=("json", "csv"), default="json"),
    "radius": dict(type=finite),
    "epsilon": dict(type=finite, default=0.1),
    "layers": dict(type=int, default=1),
    "grid": dict(type=int, default=32),
    "samples": dict(type=int, default=5),
    "beta": dict(type=finite, default=0.5),
    "C": dict(type=finite, default=0.1),
    "k": dict(type=int, default=1),
    "candidates": dict(type=int, default=6),
    "exact-limit": dict(type=int, default=7),
    "center": dict(type=int, default=0),
    "level": dict(type=finite, default=0.0),
    "function": dict(default="coord:0"),
    "witnesses": dict(default=""),
    "family": dict(default="refined_disk"),
    "quantity": dict(default="fillvol"),
    "schedule": dict(default=""),
}
# comma-separated options, parsed by `_numbers` after argparse
_LISTS = {"witnesses": int, "schedule": float}
# lab --quantity -> the options among --radius, --grid and --epsilon it reads
_LAB_QUANTITIES = {**SWEEP_PARAMS, "semicontinuity": ""}

# command -> (handler, the options it reads, the required ones among them);
# every command also reads --output and --format
_COMMANDS = {
    "mass": (_cmd_mass, "input", "input"),
    "boundary": (_cmd_boundary, "input", "input"),
    "evaluate": (_cmd_evaluate, "input", "input"),
    "slice": (_cmd_slice, "input function level", "input"),
    "ball": (_cmd_ball, "input center radius", "input radius"),
    "sphere": (_cmd_sphere, "input center radius", "input radius"),
    "coarea": (_cmd_coarea, "input function samples", "input"),
    "flatnorm": (_cmd_flatnorm, "input", "input"),
    "fillvol": (_cmd_fillvol, "input", "input"),
    "fillvol0": (_cmd_fillvol0, "input", "input"),
    "sf": (_cmd_sf, "input center radius witnesses grid", "input radius"),
    "sfk": (_cmd_sfk, "input center radius k candidates grid", "input radius"),
    "tetra": (_cmd_tetra, "input center radius C beta samples candidates", "input radius"),
    "product": (_cmd_product, "input epsilon layers", "input"),
    "ifv": (_cmd_ifv, "input epsilon", "input"),
    "sif": (_cmd_sif, "input center radius witnesses epsilon grid", "input radius"),
    "gh": (_cmd_gh, "input input2 exact-limit", "input input2"),
    "pack": (_cmd_pack, "input radius", "input radius"),
    "lab": (_cmd_lab, "family quantity schedule radius grid epsilon", "schedule"),
}


def build_parser():
    """The parser and each command's own parser.  Options parse to None when
    absent, so that `main` can tell which were given before it fills in the
    defaults of `_OPTIONS`."""
    parser = argparse.ArgumentParser(prog="currentlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in options.split() + ["output", "format"]:
            p.add_argument(f"--{option}", **{**_OPTIONS[option], "default": None})
    return parser, sub.choices


def dispatch(args) -> int:
    """Run one parsed command line and write exactly one report."""
    handler, _, required = _COMMANDS[args.command]
    for option in required.split():
        if getattr(args, option.replace("-", "_")) in (None, "", ()):  # absent, or an empty path or list
            raise ArgumentError(f"{args.command} needs --{option}")
    result = handler(args)
    warnings = result.pop("warnings", []) if isinstance(result, dict) else []
    report = {"command": args.command, "result": result, "warnings": warnings}
    write_report(report, args.output, args.format)
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    parser, commands = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # reported with the usage of the command that was given them
        commands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    args.given = {option for option, value in vars(args).items() if value is not None} - {"command"}
    for option in _COMMANDS[args.command][1].split() + ["output", "format"]:
        if getattr(args, option.replace("-", "_")) is None:
            setattr(args, option.replace("-", "_"), _OPTIONS[option].get("default"))
    try:
        for option, kind in _LISTS.items():
            if option in vars(args):
                setattr(args, option, _numbers(getattr(args, option), kind, option))
        return dispatch(args)
    # an OSError or UnicodeDecodeError is a user path that cannot be read
    except (ArgumentError, MetricError, ComplexError, OSError, UnicodeDecodeError) as exc:
        logger.error("input error: %s", exc)
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return EXIT_INVARIANT
    except Exception as exc:  # any other failure is a defect of the program, not of the input
        logger.debug("internal error", exc_info=True)
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
