"""Command-line surface: ingestion, dispatch, and deterministic reports.

Reports are JSON with lexicographic field order; floats use the shortest
round-trip representation.  Exit codes: 0 success, 1 internal invariant
violation (InvariantError), 2 malformed input or arguments.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .complexes import ComplexError, PLFunction, coordinate_function, distance_function
from .currents import (
    SimplicialCurrent,
    boundary,
    chain_from_json,
    chain_to_json,
    evaluate,
    load_chain,
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
from .slicedfill import ball_context, sf_k, sliced_fill, tetra_check

logger = logging.getLogger("currentlab")

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2


@dataclass
class RunConfig:
    command: str
    input: str | None = None
    input_b: str | None = None
    output: str | None = None
    format: str = "json"
    radius: float | None = None
    epsilon: float = 0.1
    layers: int = 1
    grid: int = 32
    samples: int = 5
    beta: float = 0.5
    C: float = 0.1
    k: int = 1
    candidates: int = 6
    exact_limit: int = 7
    center: int = 0
    level: float = 0.0
    function: str = "coord:0"
    witnesses: tuple = ()
    family: str = "refined_disk"
    quantity: str = "fillvol"
    schedule: tuple = ()
    threads: int = 1


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
        text = json.dumps(report, sort_keys=True, indent=1)
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
        try:
            return load_distance_csv(path)
        except (MetricError, ArgumentError):
            return load_points_csv(path)
    data = _load_chain_file(path)
    if "distances" in data:
        return FiniteMetricSpace(np.asarray(data["distances"], dtype=float))
    if "points" in data:
        return FiniteMetricSpace.from_points(np.asarray(data["points"], dtype=float))
    raise ArgumentError(f"{path}: expected a distance/point CSV or JSON")


def _numbers(text: str, kind, option: str) -> tuple:
    """Comma-separated values of one type; a malformed entry is an input error."""
    try:
        return tuple(kind(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ArgumentError(f"--{option}: expected comma-separated {kind.__name__} values, got {text!r}") from exc


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
        return PLFunction(complex, np.asarray(data["function"], dtype=float))
    raise ArgumentError(f"unknown function spec {spec!r} (use coord:<axis>, dist:<vertex>, json)")


def _summary(current) -> dict:
    return {
        "mass": mass(current),
        "boundary_mass": mass(boundary(current)),
        "dim": current.dim,
        "support_size": len(current.coeffs),
    }


# ---------------------------------------------------------------------------
# handlers


def _cmd_mass(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    return {"mass": mass(T), "boundary_mass": mass(boundary(T)), "total_mass": total_mass(T)}


def _cmd_boundary(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    B = boundary(T)
    out = _summary(B)
    out["chain"] = chain_to_json(B)
    return out


def _cmd_evaluate(cfg: RunConfig):
    T, data = _chain_and_data(cfg.input)
    fns = data.get("functions", {})
    if "f" not in fns or "pis" not in fns:
        raise ArgumentError("evaluate needs a 'functions' object with 'f' and 'pis' arrays")
    f = PLFunction(T.complex, np.asarray(fns["f"], dtype=float))
    pis = [PLFunction(T.complex, np.asarray(v, dtype=float)) for v in fns["pis"]]
    return {"value": evaluate(T, f, pis)}


def _cmd_slice(cfg: RunConfig):
    T, data = _chain_and_data(cfg.input)
    f = _function_on(T.complex, cfg.function, data)
    res = slice_current(T, f, cfg.level)
    out = _summary(res.current)
    out.update({"levels": list(res.levels), "warnings": res.warnings, "chain": chain_to_json(res.current)})
    return out


def _cmd_ball(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    if cfg.radius is None:
        raise ArgumentError("ball needs --radius")
    B = ball(T, cfg.center, cfg.radius)
    out = _summary(B)
    out["chain"] = chain_to_json(B)
    return out


def _cmd_sphere(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    if cfg.radius is None:
        raise ArgumentError("sphere needs --radius")
    res = sphere(T, cfg.center, cfg.radius)
    out = _summary(res.current)
    out.update({"levels": list(res.levels), "warnings": res.warnings, "chain": chain_to_json(res.current)})
    return out


def _cmd_coarea(cfg: RunConfig):
    T, data = _chain_and_data(cfg.input)
    f = _function_on(T.complex, cfg.function, data)
    integral, bound = coarea_profile(T, f, cfg.samples)
    return {"integral": integral, "bound": bound, "samples": cfg.samples, "lipschitz": f.lip}


def _cmd_flatnorm(cfg: RunConfig):
    T, data = _chain_and_data(cfg.input)
    if "current_b" not in data:
        raise ArgumentError("flatnorm input needs 'current' and 'current_b' on one complex")
    other = data["current_b"]
    S = SimplicialCurrent(
        T.complex, int(other["dim"]), {int(i): int(c) for i, c in other.get("coeffs", [])}
    )
    report = flat_distance(T, S, T.complex)
    report.check()
    return report.to_json()


def _cmd_fillvol(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    report = filling_volume(T, T.complex)
    report.check()
    return report.to_json()


def _cmd_fillvol0(cfg: RunConfig):
    data = _load_chain_file(cfg.input)
    if "theta" not in data or "sigma" not in data:
        raise ArgumentError("fillvol0 input needs 'theta' and 'sigma' arrays")
    space = _metric_space_from(cfg.input)
    report = filling_volume_0d(space, data["theta"], data["sigma"])
    report.check()
    return report.to_json()


def _cmd_sf(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    if cfg.radius is None:
        raise ArgumentError("sf needs --radius")
    ctx = ball_context(T, cfg.center, cfg.radius)
    witnesses = list(cfg.witnesses) or [ctx.sphere_vertices()[0]]
    rep = sliced_fill(T, cfg.center, cfg.radius, witnesses=witnesses, grid=cfg.grid, context=ctx)
    return rep.to_json()


def _cmd_sfk(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    if cfg.radius is None:
        raise ArgumentError("sfk needs --radius")
    rep = sf_k(T, cfg.center, cfg.radius, cfg.k, candidates=cfg.candidates, grid=cfg.grid)
    return rep.to_json()


def _cmd_tetra(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    if cfg.radius is None:
        raise ArgumentError("tetra needs --radius")
    rep = tetra_check(
        T, cfg.center, cfg.radius, C=cfg.C, beta=cfg.beta,
        samples=cfg.samples, candidates=cfg.candidates,
    )
    return rep.to_json()


def _cmd_product(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    prod, pc = product_current(T, cfg.epsilon, cfg.layers)
    out = _summary(prod)
    out["expected_mass"] = cfg.epsilon * mass(T)
    out["chain"] = chain_to_json(prod)
    return out


def _cmd_ifv(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    report = interval_filling_volume(T, cfg.epsilon, cfg.layers)
    report.check()
    out = report.to_json()
    out["epsilon"] = cfg.epsilon
    out["mass_bound"] = out["value"] / cfg.epsilon
    return out


def _cmd_sif(cfg: RunConfig):
    T, _ = _chain_and_data(cfg.input)
    if cfg.radius is None:
        raise ArgumentError("sif needs --radius")
    rep = sliced_interval_fill(
        T, cfg.center, cfg.radius,
        witnesses=list(cfg.witnesses) or None,
        epsilon=cfg.epsilon, grid=cfg.grid, layers=cfg.layers,
    )
    return rep.to_json()


def _cmd_gh(cfg: RunConfig):
    X = _metric_space_from(cfg.input)
    Y = _metric_space_from(cfg.input_b)
    lower, upper = gh_bounds(X, Y, exact_limit=cfg.exact_limit)
    return {"lower": lower, "upper": upper, "exact": bool(max(X.n, Y.n) <= cfg.exact_limit)}


def _cmd_pack(cfg: RunConfig):
    X = _metric_space_from(cfg.input)
    if cfg.radius is None:
        raise ArgumentError("pack needs --radius")
    rep = packing_number(X, cfg.radius)
    return {"radius": rep.radius, "count": rep.count, "centers": list(rep.centers)}


def _cmd_lab(cfg: RunConfig):
    from .convergence import build_family, continuity_sweep, semicontinuity_report

    if not cfg.schedule:
        raise ArgumentError("lab needs --schedule")
    family = build_family(cfg.family, list(cfg.schedule))
    if cfg.quantity == "semicontinuity":
        return semicontinuity_report(family)
    params = {
        "radius": cfg.radius or 0.5,
        "grid": cfg.grid,
        "epsilon": cfg.epsilon,
        "center_point": family.center,
        "threads": cfg.threads,
    }
    return continuity_sweep(family, cfg.quantity, params)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="currentlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", help="input chain JSON / CSV")
        p.add_argument("--input2", dest="input_b", help="second input (flatnorm, gh)")
        p.add_argument("--output", help="report path (stdout if omitted)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--radius", type=float)
        p.add_argument("--epsilon", type=float, default=0.1)
        p.add_argument("--layers", type=int, default=1)
        p.add_argument("--grid", type=int, default=32)
        p.add_argument("--samples", type=int, default=5)
        p.add_argument("--beta", type=float, default=0.5)
        p.add_argument("--C", type=float, default=0.1)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--candidates", type=int, default=6)
        p.add_argument("--exact-limit", dest="exact_limit", type=int, default=7)
        p.add_argument("--center", type=int, default=0)
        p.add_argument("--level", type=float, default=0.0)
        p.add_argument("--function", default="coord:0")
        p.add_argument("--witnesses", default="")
        p.add_argument("--family", default="refined_disk")
        p.add_argument("--quantity", default="fillvol")
        p.add_argument("--schedule", default="")
        p.add_argument("--threads", type=int, default=1)
    return parser


def _config_from_args(args) -> RunConfig:
    witnesses = _numbers(args.witnesses, int, "witnesses")
    schedule = _numbers(args.schedule, float, "schedule")
    return RunConfig(
        command=args.command,
        input=args.input,
        input_b=args.input_b,
        output=args.output,
        format=args.format,
        radius=args.radius,
        epsilon=args.epsilon,
        layers=args.layers,
        grid=args.grid,
        samples=args.samples,
        beta=args.beta,
        C=args.C,
        k=args.k,
        candidates=args.candidates,
        exact_limit=args.exact_limit,
        center=args.center,
        level=args.level,
        function=args.function,
        witnesses=witnesses,
        family=args.family,
        quantity=args.quantity,
        schedule=schedule,
        threads=args.threads,
    )


def dispatch(cfg: RunConfig) -> int:
    """Run one command and write exactly one report."""
    handler = _HANDLERS.get(cfg.command)
    if handler is None:
        raise ArgumentError(f"unknown command {cfg.command!r}")
    needs_input = cfg.command != "lab"
    if needs_input and not cfg.input:
        raise ArgumentError(f"{cfg.command} needs --input")
    result = handler(cfg)
    warnings = result.pop("warnings", []) if isinstance(result, dict) else []
    report = {
        "command": cfg.command,
        "result": result,
        "warnings": warnings,
    }
    write_report(report, cfg.output, cfg.format)
    return EXIT_OK


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return dispatch(_config_from_args(args))
    except (ArgumentError, MetricError, ComplexError, FileNotFoundError) as exc:
        logger.error("input error: %s", exc)
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except InvariantError as exc:
        sys.stderr.write(f"invariant violated: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
