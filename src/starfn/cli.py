"""Command-line surface for the star-function toolkit.

One subcommand per construct: slice-star, star, counting, lelong, grid,
check {jensen,subharmonic,harmonic-slice}, detect-harmonic, product-taylor.
Every command prints a machine-readable JSON summary on stdout and is a pure
function of (function file bytes, flags, seed): grids are evaluated with
seeded Monte Carlo and exported with fixed 17-significant-digit formatting,
so re-runs are byte-identical.

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
from .slicing import Direction, jensen_residual
from .sphere import (
    AllDirectionsSkippedError,
    Estimate,
    StarGrid,
    counting_several,
    lelong_number,
    sample_directions,
    star_grid,
    star_several,
    subharmonicity_report,
)
from .starcore import slice_star_total

__all__ = ["RunConfig", "run", "export_grid", "load_grid", "main"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus every knob it may need."""

    command: str
    fn_path: str | None = None
    zeta: tuple[complex, ...] | None = None
    r: float = 2.0
    theta: float = 0.0
    a: float = math.inf
    t: float = 1.0
    r_min: float = 0.5
    r_max: float = 2.0
    r_steps: int = 5
    theta_min: float = 0.3
    theta_max: float = math.pi - 0.3
    theta_steps: int = 5
    samples: int = 1000
    circle: int = 4096
    seed: int = 0
    tol: float | None = None
    rho: float | None = None
    circle_nodes: int = 8
    order: int = 8
    product_path: str | None = None
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError("theta must lie in [0, pi]")
        for name in ("r", "t", "samples", "circle", "r_steps", "theta_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")


def _fmt17(x: float) -> str:
    return "%.17g" % x


def export_grid(grid: StarGrid, path: str, fmt: str = "csv") -> None:
    """Write a StarGrid as CSV (row-major cells) or a JSON mirror."""
    if fmt == "csv":
        lines = ["r,theta,mean,stderr,count_used"]
        for r, row in zip(grid.r_values, grid.cells):
            for theta, cell in zip(grid.theta_values, row):
                lines.append(
                    ",".join(
                        (
                            _fmt17(r),
                            _fmt17(theta),
                            _fmt17(cell.mean),
                            _fmt17(cell.stderr),
                            str(cell.count_used),
                        )
                    )
                )
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


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _parse_zeta(text: str) -> tuple[complex, ...]:
    parts = [p.strip().replace("i", "j") for p in text.split(",")]
    try:
        return tuple(complex(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad zeta component in {text!r}: {exc}") from None


def _load_fn(cfg: RunConfig) -> MeroFunction:
    if cfg.fn_path is None:
        raise ValueError("this command needs --fn")
    return load_function(cfg.fn_path)


def _zeta_direction(cfg: RunConfig) -> Direction:
    if cfg.zeta is None:
        raise ValueError("this command needs --zeta")
    return Direction.of(cfg.zeta)


def _grid_axes(cfg: RunConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    def linspace(lo: float, hi: float, steps: int) -> tuple[float, ...]:
        if steps == 1:
            return (lo,)
        h = (hi - lo) / (steps - 1)
        return tuple(lo + i * h for i in range(steps))

    return (
        linspace(cfg.r_min, cfg.r_max, cfg.r_steps),
        linspace(cfg.theta_min, cfg.theta_max, cfg.theta_steps),
    )


def run(cfg: RunConfig) -> int:
    """Dispatch one command; returns the process exit status."""
    if cfg.command == "slice-star":
        F = _load_fn(cfg)
        val = slice_star_total(F, _zeta_direction(cfg), cfg.r, cfg.theta, M=cfg.circle)
        _emit(dataclasses.asdict(val))
        return 0

    if cfg.command in ("star", "counting", "lelong"):
        F = _load_fn(cfg)
        sample = sample_directions(F.n, cfg.samples, cfg.seed)
        if cfg.command == "star":
            est = star_several(F, cfg.r, cfg.theta, sample, M=cfg.circle)
        elif cfg.command == "counting":
            est = counting_several(F, cfg.r, cfg.a, sample)
        else:
            est = lelong_number(F, cfg.t, cfg.a, sample)
        _emit({**dataclasses.asdict(est), "skipped": sample.count - est.count_used})
        return 0

    if cfg.command == "grid":
        F = _load_fn(cfg)
        sample = sample_directions(F.n, cfg.samples, cfg.seed)
        r_values, theta_values = _grid_axes(cfg)
        grid = star_grid(F, r_values, theta_values, sample, M=cfg.circle)
        if cfg.out:
            export_grid(grid, cfg.out, cfg.fmt)
            _emit({"out": cfg.out, "format": cfg.fmt, "skipped": grid.skipped})
        else:
            _emit(_grid_payload(grid))
        return 0

    if cfg.command == "check-jensen":
        F = _load_fn(cfg)
        tol = cfg.tol if cfg.tol is not None else 1e-6
        residual = jensen_residual(F, _zeta_direction(cfg), cfg.r, cfg.circle)
        ok = residual <= tol
        _emit({"residual": residual, "tol": tol, "pass": ok})
        return 0 if ok else 1

    if cfg.command == "check-subharmonic":
        F = _load_fn(cfg)
        sample = sample_directions(F.n, cfg.samples, cfg.seed)
        r_values, theta_values = _grid_axes(cfg)
        violations = subharmonicity_report(
            F,
            r_values,
            theta_values,
            sample,
            M=cfg.circle,
            rho=cfg.rho,
            circle_nodes=cfg.circle_nodes,
        )
        _emit(
            {
                "violations": [
                    {
                        "r": v.r,
                        "theta": v.theta,
                        "mean_diff": v.mean_diff,
                        "stderr": v.stderr,
                        "threshold": v.threshold,
                    }
                    for v in violations
                ],
                "count": len(violations),
            }
        )
        return 0 if not violations else 1

    if cfg.command == "check-harmonic-slice":
        F = _load_fn(cfg)
        tol = cfg.tol if cfg.tol is not None else HARMONIC_TOL
        r_values, theta_values = _grid_axes(cfg)
        ok = slice_harmonicity_test(
            F,
            _zeta_direction(cfg),
            r_values,
            theta_values,
            M=cfg.circle,
            tol=tol,
            rho=cfg.rho,
            circle_nodes=cfg.circle_nodes,
        )
        _emit({"harmonic": ok, "tol": tol})
        return 0 if ok else 1

    if cfg.command == "detect-harmonic":
        F = _load_fn(cfg)
        tol = cfg.tol if cfg.tol is not None else REAL_TOL
        report = detect_harmonic_form(F, tol=tol)
        payload = {
            "detected": report.detected,
            "per_degree_residuals": list(report.per_degree_residuals),
            "ray": list(report.ray) if report.ray is not None else None,
        }
        if report.form is not None:
            payload["eta"] = [_complex_pair(e) for e in report.form.eta]
            payload["profile"] = [_complex_pair(c) for c in report.form.profile]
            payload["residual"] = report.form.residual
        _emit(payload)
        return 0 if report.detected else 1

    if cfg.command == "product-taylor":
        if cfg.product_path is None:
            raise ValueError("product-taylor needs --product")
        cp = load_canonical_product(cfg.product_path)
        tc = product_taylor_coeffs(cp, cfg.order)
        _emit({**dataclasses.asdict(tc), "coeffs": [_complex_pair(c) for c in tc.coeffs]})
        return 0

    raise ValueError(f"unknown command {cfg.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starfn", description="star functions of several-variable meromorphic functions"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fn=True, sampled=False, circle=True):
        if fn:
            p.add_argument("--fn", dest="fn_path", required=True, help="function JSON file")
        if sampled:
            p.add_argument("--samples", type=int)
            p.add_argument("--seed", type=int)
        if circle:
            p.add_argument("--circle", type=int, help="circle quadrature size M")

    def add_grid_axes(p):
        p.add_argument("--r-min", type=float)
        p.add_argument("--r-max", type=float)
        p.add_argument("--r-steps", type=int)
        p.add_argument("--theta-min", type=float)
        p.add_argument("--theta-max", type=float)
        p.add_argument("--theta-steps", type=int)

    p = sub.add_parser("slice-star", help="T* of one slice at r e^{i theta}")
    add_common(p)
    p.add_argument("--zeta", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)

    p = sub.add_parser("star", help="sphere-averaged T*")
    add_common(p, sampled=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)

    p = sub.add_parser("counting", help="sphere-averaged N(r, a)")
    add_common(p, sampled=True, circle=False)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--a", required=True, help="target: 0 or inf")

    p = sub.add_parser("lelong", help="sphere-averaged n(t, a)")
    add_common(p, sampled=True, circle=False)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--a", required=True, help="target: 0 or inf")

    p = sub.add_parser("grid", help="tabulate T* on an (r, theta) rectangle")
    add_common(p, sampled=True)
    add_grid_axes(p)
    p.add_argument("--out")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))

    check = sub.add_parser("check", help="verification suites").add_subparsers(
        dest="check_kind", required=True
    )

    p = check.add_parser("jensen", help="Jensen identity residual for one slice")
    add_common(p)
    p.add_argument("--zeta", required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--tol", type=float)

    p = check.add_parser("subharmonic", help="mean-value inequality on a grid")
    add_common(p, sampled=True)
    add_grid_axes(p)
    p.add_argument("--rho", type=float)
    p.add_argument("--circle-nodes", type=int)

    p = check.add_parser("harmonic-slice", help="mean-value equality for one slice")
    add_common(p)
    p.add_argument("--zeta", required=True)
    add_grid_axes(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--circle-nodes", type=int)

    p = sub.add_parser("detect-harmonic", help="detect F(Z) = P(Z.eta)")
    add_common(p, circle=False)
    p.add_argument("--tol", type=float)

    p = sub.add_parser("product-taylor", help="Taylor data of a canonical product")
    p.add_argument("--product", dest="product_path", required=True)
    p.add_argument("--order", type=int)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "check":
        command = f"check-{args.check_kind}"
    fields = {}
    for name in (f.name for f in dataclasses.fields(RunConfig)):
        if name not in ("command", "zeta", "a") and getattr(args, name, None) is not None:
            fields[name] = getattr(args, name)
    if getattr(args, "zeta", None) is not None:
        fields["zeta"] = _parse_zeta(args.zeta)
    if getattr(args, "a", None) is not None:
        text = str(args.a).strip().lower()
        fields["a"] = math.inf if text in ("inf", "infinity") else float(text)
    return RunConfig(command=command, **fields)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (ValueError, OSError, KeyError, AllDirectionsSkippedError) as exc:
        print(f"starfn: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
