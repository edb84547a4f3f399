"""Command-line surface for the star-function toolkit.

One subcommand per construct: slice-star, star, counting, lelong, grid,
check {jensen,subharmonic,harmonic-slice}, detect-harmonic, product-taylor.
Every command prints a machine-readable JSON summary on stdout and is a pure
function of (function file bytes, flags, seed): grids are evaluated with
seeded Monte Carlo and exported with fixed 17-significant-digit formatting,
so re-runs are byte-identical.

argparse is the one description of the command line: each flag carries its
default and each subparser its handler (``set_defaults(handler=...)``);
``main`` calls ``args.handler(args)``, and the library checks the values.

Exit codes: 0 success, 1 verification failure (a violation, an
over-tolerance residual, or a negative detection), 2 usage/parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .funcdef import MeroFunction, load_function
from .harmonicform import (
    HARMONIC_TOL,
    REAL_TOL,
    detect_harmonic_form,
    load_canonical_product,
    product_taylor_coeffs,
    slice_harmonicity_test,
)
from .slicing import Direction, check_positive, check_target, check_tolerance, jensen_residual
from .sphere import (
    AllDirectionsSkippedError,
    DirectionSample,
    Estimate,
    StarGrid,
    check_grid,
    check_stencil,
    counting_several,
    lelong_number,
    sample_directions,
    star_grid,
    star_several,
    subharmonicity_report,
)
from .starcore import check_circle, slice_star_total

__all__ = ["export_grid", "load_grid", "main"]


def export_grid(grid: StarGrid, path: str, fmt: str = "csv") -> None:
    """Write a StarGrid as CSV (row-major cells) or a JSON mirror."""
    if fmt == "csv":
        lines = ["r,theta,mean,stderr,count_used"]
        for r, row in zip(grid.r_values, grid.cells):
            for theta, cell in zip(grid.theta_values, row):
                row_values = (r, theta, cell.mean, cell.stderr, cell.count_used)
                lines.append("%.17g,%.17g,%.17g,%.17g,%d" % row_values)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_grid_payload(grid), fh, sort_keys=True, indent=1)
            fh.write("\n")
    else:
        raise ValueError("format must be csv or json")


def _grid_payload(grid: StarGrid) -> dict:
    return {
        "r_values": list(grid.r_values),
        "theta_values": list(grid.theta_values),
        "cells": [[dataclasses.asdict(c) for c in row] for row in grid.cells],
        "sample": {
            "n": grid.sample.n,
            "seed": grid.sample.seed,
            "count": grid.sample.count,
            "skipped": grid.skipped,
        },
    }


def load_grid(path: str) -> StarGrid:
    """Rebuild an exported JSON grid; the sample is regenerated by its seed."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    meta = data["sample"]
    sample = sample_directions(meta["n"], meta["count"], meta["seed"])
    cells = tuple(
        tuple(Estimate(c["mean"], c["stderr"], c["count_used"]) for c in row)
        for row in data["cells"]
    )
    return StarGrid(
        r_values=tuple(data["r_values"]),
        theta_values=tuple(data["theta_values"]),
        cells=cells,
        sample=sample,
        skipped=meta["skipped"],
    )


def _emit(payload: dict, ok: bool = True) -> int:
    """Print payload as one JSON line; the exit status is 0 if ok, else 1.
    A payload holding NaN or an infinity is not JSON: it raises ValueError
    before anything is printed."""
    sys.stdout.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    return 0 if ok else 1


def _direction(text: str) -> Direction:
    parts = [p.strip() for p in text.split(",")]
    parts = [p[:-1] + "j" if p.endswith("i") else p for p in parts]
    try:
        components = tuple(complex(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad zeta component in {text!r}: {exc}") from None
    return Direction.of(components)


def _grid_axes(args: argparse.Namespace) -> tuple[tuple[float, ...], tuple[float, ...]]:
    def linspace(lo: float, hi: float, steps: int, name: str) -> tuple[float, ...]:
        if steps <= 0:
            raise ValueError(f"{name} must be positive")
        if steps == 1:
            return (lo,)
        h = (hi - lo) / (steps - 1)
        return tuple(lo + i * h for i in range(steps))

    return (
        linspace(args.r_min, args.r_max, args.r_steps, "r_steps"),
        linspace(args.theta_min, args.theta_max, args.theta_steps, "theta_steps"),
    )


def _sampled(args: argparse.Namespace) -> tuple[MeroFunction, DirectionSample]:
    F = load_function(args.fn_path)
    return F, sample_directions(F.n, args.samples, args.seed)


def _emit_estimate(est: Estimate, sample: DirectionSample) -> int:
    return _emit({**dataclasses.asdict(est), "skipped": sample.count - est.count_used})


def _slice_star(args: argparse.Namespace) -> int:
    zeta = _direction(args.zeta)
    F = load_function(args.fn_path)
    return _emit(dataclasses.asdict(slice_star_total(F, zeta, args.r, args.theta, M=args.circle)))


def _star(args: argparse.Namespace) -> int:
    check_positive(args.r, "r")  # the checks come before the sample is drawn
    check_circle([args.theta], args.circle)
    F, sample = _sampled(args)
    return _emit_estimate(star_several(F, args.r, args.theta, sample, M=args.circle), sample)


def _counting(args: argparse.Namespace) -> int:
    a = float(args.a)
    check_positive(args.r, "r")
    check_target(a)
    F, sample = _sampled(args)
    return _emit_estimate(counting_several(F, args.r, a, sample), sample)


def _lelong(args: argparse.Namespace) -> int:
    a = float(args.a)
    check_positive(args.t, "t")
    check_target(a)
    F, sample = _sampled(args)
    return _emit_estimate(lelong_number(F, args.t, a, sample), sample)


def _grid(args: argparse.Namespace) -> int:
    axes = _grid_axes(args)
    check_grid(*axes, args.circle)
    F, sample = _sampled(args)
    grid = star_grid(F, *axes, sample, M=args.circle)
    if args.out:
        export_grid(grid, args.out, args.fmt)
        return _emit({"out": args.out, "format": args.fmt, "skipped": grid.skipped})
    return _emit(_grid_payload(grid))


def _check_jensen(args: argparse.Namespace) -> int:
    check_tolerance(args.tol)
    zeta = _direction(args.zeta)
    residual = jensen_residual(load_function(args.fn_path), zeta, args.r, args.circle)
    ok = residual <= args.tol
    return _emit({"residual": residual, "tol": args.tol, "pass": ok}, ok)


def _check_subharmonic(args: argparse.Namespace) -> int:
    axes = _grid_axes(args)
    check_stencil(*axes, args.rho, args.circle_nodes)
    check_circle((), args.circle)
    F, sample = _sampled(args)
    violations = subharmonicity_report(
        F, *axes, sample, M=args.circle, rho=args.rho, circle_nodes=args.circle_nodes
    )
    keys = ("r", "theta", "mean_diff", "stderr", "threshold")
    rows = [{k: getattr(v, k) for k in keys} for v in violations]
    return _emit({"violations": rows, "count": len(violations)}, not violations)


def _check_harmonic_slice(args: argparse.Namespace) -> int:
    zeta = _direction(args.zeta)
    axes = _grid_axes(args)
    F = load_function(args.fn_path)
    ok = slice_harmonicity_test(
        F, zeta, *axes, M=args.circle, tol=args.tol, rho=args.rho, circle_nodes=args.circle_nodes
    )
    return _emit({"harmonic": ok, "tol": args.tol}, ok)


def _detect_harmonic(args: argparse.Namespace) -> int:
    report = detect_harmonic_form(load_function(args.fn_path), tol=args.tol)
    payload = {
        "detected": report.detected,
        "per_degree_residuals": list(report.per_degree_residuals),
        "ray": list(report.ray) if report.ray is not None else None,
    }
    if report.form is not None:
        payload["eta"] = [[e.real, e.imag] for e in report.form.eta]
        payload["profile"] = [[c.real, c.imag] for c in report.form.profile]
        payload["residual"] = report.form.residual
    return _emit(payload, report.detected)


def _product_taylor(args: argparse.Namespace) -> int:
    tc = product_taylor_coeffs(load_canonical_product(args.product_path), args.order)
    return _emit({**dataclasses.asdict(tc), "coeffs": [[c.real, c.imag] for c in tc.coeffs]})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starfn", description="star functions of several-variable meromorphic functions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler, fn=True, sampled=False, circle=True):
        p.set_defaults(handler=handler)
        if fn:
            p.add_argument("--fn", dest="fn_path", required=True, help="function JSON file")
        if sampled:
            p.add_argument("--samples", type=int, default=1000)
            p.add_argument("--seed", type=int, default=0)
        if circle:
            p.add_argument("--circle", type=int, default=4096, help="circle quadrature size M")

    def add_grid_axes(p):
        p.add_argument("--r-min", type=float, default=0.5)
        p.add_argument("--r-max", type=float, default=2.0)
        p.add_argument("--r-steps", type=int, default=5)
        p.add_argument("--theta-min", type=float, default=0.3)
        p.add_argument("--theta-max", type=float, default=math.pi - 0.3)
        p.add_argument("--theta-steps", type=int, default=5)

    p = sub.add_parser("slice-star", help="T* of one slice at r e^{i theta}")
    add_common(p, _slice_star)
    p.add_argument("--zeta", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)

    p = sub.add_parser("star", help="sphere-averaged T*")
    add_common(p, _star, sampled=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)

    p = sub.add_parser("counting", help="sphere-averaged N(r, a)")
    add_common(p, _counting, sampled=True, circle=False)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--a", required=True, help="target: 0 or inf")

    p = sub.add_parser("lelong", help="sphere-averaged n(t, a)")
    add_common(p, _lelong, sampled=True, circle=False)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--a", required=True, help="target: 0 or inf")

    p = sub.add_parser("grid", help="tabulate T* on an (r, theta) rectangle")
    add_common(p, _grid, sampled=True)
    add_grid_axes(p)
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    check = sub.add_parser("check", help="verification suites").add_subparsers(
        dest="check_kind", required=True
    )

    p = check.add_parser("jensen", help="Jensen identity residual for one slice")
    add_common(p, _check_jensen)
    p.add_argument("--zeta", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = check.add_parser("subharmonic", help="mean-value inequality on a grid")
    add_common(p, _check_subharmonic, sampled=True)
    add_grid_axes(p)
    p.add_argument("--rho", type=float)
    p.add_argument("--circle-nodes", type=int, default=8)

    p = check.add_parser("harmonic-slice", help="mean-value equality for one slice")
    add_common(p, _check_harmonic_slice)
    p.add_argument("--zeta", required=True)
    add_grid_axes(p)
    p.add_argument("--tol", type=float, default=HARMONIC_TOL)
    p.add_argument("--rho", type=float)
    p.add_argument("--circle-nodes", type=int, default=8)

    p = sub.add_parser("detect-harmonic", help="detect F(Z) = P(Z.eta)")
    add_common(p, _detect_harmonic, circle=False)
    p.add_argument("--tol", type=float, default=REAL_TOL)

    p = sub.add_parser("product-taylor", help="Taylor data of a canonical product")
    add_common(p, _product_taylor, fn=False, circle=False)
    p.add_argument("--product", dest="product_path", required=True)
    p.add_argument("--order", type=int, default=8)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, KeyError, AllDirectionsSkippedError) as exc:
        print(f"starfn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
