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
from .product import interval_filling_volume, product_current, sliced_interval_fill
from .slicing import ball, coarea_profile, slice_current, sphere
from .slicedfill import sf_k, sliced_fill, tetra_check

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
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
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
    if "distances" in data:
        return FiniteMetricSpace(np.asarray(data["distances"], dtype=float))
    if "points" in data:
        return FiniteMetricSpace.from_points(np.asarray(data["points"], dtype=float))
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
    out.update({"levels": list(res.levels), "warnings": res.warnings})
    return out


def _cmd_ball(args):
    T, _ = _chain_and_data(args.input)
    return _summary(ball(T, args.center, args.radius))


def _cmd_sphere(args):
    T, _ = _chain_and_data(args.input)
    res = sphere(T, args.center, args.radius)
    out = _summary(res.current)
    out.update({"levels": list(res.levels), "warnings": res.warnings})
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
    if not args.witnesses:  # the first vertex of the discrete sphere
        return sf_k(T, args.center, args.radius, 1, candidates=1, grid=args.grid).to_json()
    return sliced_fill(T, args.center, args.radius, witnesses=args.witnesses, grid=args.grid).to_json()


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
    prod, pc = product_current(T, args.epsilon, args.layers)
    out = _summary(prod)
    out["expected_mass"] = args.epsilon * mass(T)
    return out


def _cmd_ifv(args):
    T, _ = _chain_and_data(args.input)
    out = interval_filling_volume(T, args.epsilon, args.layers).to_json()
    out["epsilon"] = args.epsilon
    out["mass_bound"] = out["value"] / args.epsilon
    return out


def _cmd_sif(args):
    T, _ = _chain_and_data(args.input)
    return sliced_interval_fill(
        T, args.center, args.radius,
        witnesses=args.witnesses or None,
        epsilon=args.epsilon, grid=args.grid, layers=args.layers,
    ).to_json()


def _cmd_gh(args):
    if not args.input_b:
        raise ArgumentError("gh needs --input2")
    X = _metric_space_from(args.input)
    Y = _metric_space_from(args.input_b)
    lower, upper = gh_bounds(X, Y, exact_limit=args.exact_limit)
    return {"lower": lower, "upper": upper, "exact": bool(max(X.n, Y.n) <= args.exact_limit)}


def _cmd_pack(args):
    return packing_number(_metric_space_from(args.input), args.radius).to_json()


def _cmd_lab(args):
    from .convergence import build_family, continuity_sweep, semicontinuity_report

    if not args.schedule:
        raise ArgumentError("lab needs --schedule")
    family = build_family(args.family, list(args.schedule))
    if args.quantity == "semicontinuity":
        return semicontinuity_report(family)
    params = {
        "radius": 0.5 if args.radius is None else args.radius,
        "grid": args.grid,
        "epsilon": args.epsilon,
        "center_point": family.center,
    }
    return continuity_sweep(family, args.quantity, params)


_HANDLERS = {
    "mass": _cmd_mass,
    "boundary": _cmd_boundary,
    "evaluate": _cmd_evaluate,
    "slice": _cmd_slice,
    "ball": _cmd_ball,
    "sphere": _cmd_sphere,
    "coarea": _cmd_coarea,
    "flatnorm": _cmd_flatnorm,
    "fillvol": _cmd_fillvol,
    "fillvol0": _cmd_fillvol0,
    "sf": _cmd_sf,
    "sfk": _cmd_sfk,
    "tetra": _cmd_tetra,
    "product": _cmd_product,
    "ifv": _cmd_ifv,
    "sif": _cmd_sif,
    "gh": _cmd_gh,
    "pack": _cmd_pack,
    "lab": _cmd_lab,
}
_NEEDS_RADIUS = {"ball", "sphere", "sf", "sfk", "tetra", "sif", "pack"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="currentlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="input chain JSON / CSV")
        p.add_argument("--input2", dest="input_b", help="second input (gh)")
        p.add_argument("--output", help="report path (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--radius", type=finite)
        p.add_argument("--epsilon", type=finite, default=0.1)
        p.add_argument("--layers", type=int, default=1)
        p.add_argument("--grid", type=int, default=32)
        p.add_argument("--samples", type=int, default=5)
        p.add_argument("--beta", type=finite, default=0.5)
        p.add_argument("--C", type=finite, default=0.1)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--candidates", type=int, default=6)
        p.add_argument("--exact-limit", dest="exact_limit", type=int, default=7)
        p.add_argument("--center", type=int, default=0)
        p.add_argument("--level", type=finite, default=0.0)
        p.add_argument("--function", default="coord:0")
        p.add_argument("--witnesses", default="")
        p.add_argument("--family", default="refined_disk")
        p.add_argument("--quantity", default="fillvol")
        p.add_argument("--schedule", default="")
    return parser


def dispatch(args) -> int:
    """Run one parsed command line and write exactly one report."""
    handler = _HANDLERS.get(args.command)
    if handler is None:
        raise ArgumentError(f"unknown command {args.command!r}")
    if args.command != "lab" and not args.input:
        raise ArgumentError(f"{args.command} needs --input")
    if args.command in _NEEDS_RADIUS and args.radius is None:
        raise ArgumentError(f"{args.command} needs --radius")
    result = handler(args)
    warnings = result.pop("warnings", []) if isinstance(result, dict) else []
    report = {
        "command": args.command,
        "result": result,
        "warnings": warnings,
    }
    write_report(report, args.output, args.format)
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.witnesses = _numbers(args.witnesses, int, "witnesses")
        args.schedule = _numbers(args.schedule, float, "schedule")
        return dispatch(args)
    except (ArgumentError, MetricError, ComplexError, FileNotFoundError) as exc:
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
