"""Regenerate refs.json: the benchmark's input pools and reference outputs.

Run from the repository root:

    python3 perfbench/make_refs.py            # about 10 minutes on 2 cores

Every pool is drawn from a fixed master seed, so the inputs never change;
the references are what the current program computes for them.  Sphere and
slice star values are also computed at a much larger circle size M (the
"high-M" references) so that a run can report its quadrature error.  The
canonical-product references come from an independent series expansion,
not from starfn.  Run this only when the benchmark's inputs change or a
change to the program is meant to change its results; say so in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

import pb_workloads as wl

sys.path.insert(0, str(wl.SRC))
import starfn  # noqa: E402
from starfn.funcdef import poly_to_text  # noqa: E402

MASTER_SEED = 20170131
SLICE_HI_M = 2**20
DIVISOR_HI_M = 8192
CLI_HI_M = 32768


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def fn_dict(F) -> dict:
    return {
        "n": F.n,
        "numerator": poly_to_text(F.numerator),
        "denominator": poly_to_text(F.denominator),
    }


def random_exponent(rng, n: int, degree: int) -> tuple[int, ...]:
    return tuple(int(e) for e in rng.multinomial(degree, [1.0 / n] * n))


def exact_degree_poly(rng, n: int, degree: int, terms: int):
    """1 + `terms` distinct monomials, the first of total degree `degree`."""
    exps = [random_exponent(rng, n, degree)]
    while len(exps) < terms:
        e = random_exponent(rng, n, int(rng.integers(1, degree + 1)))
        if e not in exps:
            exps.append(e)
    coeffs = {e: complex(rng.normal(), rng.normal()) for e in exps}
    coeffs[(0,) * n] = 1 + 0j
    return starfn.MultiPoly(n, coeffs)


def exact_degree_fn(rng, n, degree, terms):
    return starfn.MeroFunction.from_polys(
        exact_degree_poly(rng, n, degree, terms), exact_degree_poly(rng, n, degree, terms)
    )


def acceptance_style_fn(rng, max_deg=4, terms=5):
    """The random rational F of acceptance criteria 2-5 (n = 2)."""

    def poly():
        d = {}
        for _ in range(terms):
            e1 = int(rng.integers(0, max_deg + 1))
            e2 = int(rng.integers(0, max_deg + 1 - e1))
            if e1 or e2:
                d[(e1, e2)] = complex(rng.normal(), rng.normal())
        d[(0, 0)] = 1 + 0j
        return starfn.MultiPoly(2, d)

    return starfn.MeroFunction.from_polys(poly(), poly())


def random_direction(rng, n=2):
    raw = rng.normal(size=2 * n)
    return starfn.Direction.of([complex(raw[2 * j], raw[2 * j + 1]) for j in range(n)])


def pairs(zs) -> list[list[float]]:
    return [[complex(z).real, complex(z).imag] for z in zs]


def est_triple(est) -> list:
    return [est.mean, est.stderr, est.count_used]


# ---------------------------------------------------------------------------


def subharm_pool(rng, size=12) -> dict:
    w = wl.SubharmSweep
    sample_seed, count = 600, 10_000
    sample = starfn.sample_directions(2, count, sample_seed)
    r_values = np.linspace(0.5, 2.0, w.GRID)
    theta_values = np.linspace(w.THETA_PAD, math.pi - w.THETA_PAD, w.GRID)
    pool = []
    for k in range(size):
        F = exact_degree_fn(rng, 2, 3, 4)
        found = starfn.subharmonicity_report(
            F, r_values, theta_values, sample, M=w.M, circle_nodes=w.CIRCLE_NODES
        )
        log(f"subharm {k}: {len(found)} violations")
        pool.append({"fn": fn_dict(F), "violations": len(found)})
    return {"sample_seed": sample_seed, "count": count, "pool": pool}


def divisor_pool(rng, size=8) -> dict:
    w = wl.DivisorProfile
    sample_seed, count = 300, 20_000
    sample = starfn.sample_directions(3, count, sample_seed)
    pool = []
    for k in range(size):
        F = exact_degree_fn(rng, 3, 6, 6)
        entry = {"fn": fn_dict(F), "lelong": {}, "counting": {}}
        for t, a in w.LELONG:
            entry["lelong"][f"{t!r},{a!r}"] = est_triple(starfn.lelong_number(F, t, a, sample))
        for r, a in w.COUNTING:
            entry["counting"][f"{r!r},{a!r}"] = est_triple(
                starfn.counting_several(F, r, a, sample)
            )
        lo = starfn.star_several(F, w.STAR_R, w.STAR_THETA, sample, M=w.M)
        hi = starfn.star_several(F, w.STAR_R, w.STAR_THETA, sample, M=DIVISOR_HI_M)
        entry["star_hi"] = est_triple(hi)
        log(f"divisor {k}: kept {hi.count_used}, quad err at M={w.M} {abs(lo.mean - hi.mean):.2e}")
        pool.append(entry)
    return {"sample_seed": sample_seed, "count": count, "hi_M": DIVISOR_HI_M, "pool": pool}


def admissible(F, zeta, radii) -> bool:
    """Not indeterminate, and no slice zero or pole within 1e-3 r of a circle."""
    if starfn.indeterminacy_test(F, zeta)[0]:
        return False
    div = starfn.slice_divisor(F, zeta)
    return all(
        abs(abs(z) - r) >= 1e-3 * r for z, _ in div.zeros + div.poles for r in radii
    )


def series_coeffs(gamma, rotation, zeros, poles, K) -> np.ndarray:
    """Taylor coefficients of P(e^{i rotation} z) by direct series products."""
    u = complex(math.cos(rotation), math.sin(rotation))
    out = np.zeros(K + 1, dtype=complex)
    out[0] = 1.0
    exp_series = np.array([(gamma * u) ** k / math.factorial(k) for k in range(K + 1)])
    out = np.convolve(out, exp_series)[: K + 1]
    for r in zeros:
        out = np.convolve(out, [1.0, u / r])[: K + 1]
    for s in poles:
        out = np.convolve(out, [(u / s) ** k for k in range(K + 1)])[: K + 1]
    return out


def ray_form_fn(rng):
    """F = prod(1 + L/r_m) with L = Z . eta: a harmonic form, as in criterion 7.

    Polynomial, because a HarmonicForm's profile is a polynomial in u.
    """
    eta = [complex(rng.normal(), rng.normal()) for _ in range(2)]
    L = starfn.linear_form(eta, 2)
    one = starfn.MultiPoly.constant(2, 1)
    num = one
    for r in rng.uniform(0.8, 3.0, 3):
        num = num * (one + L.scale(1.0 / r))
    return starfn.MeroFunction.from_polys(num, one)


def slice_pool(rng, size=96, ray_size=12, ray_dirs=14, product_size=8) -> dict:
    w = wl.SliceSuite
    pool = []
    quad = 0.0
    while len(pool) < size:
        F = acceptance_style_fn(rng)
        for _ in range(200):
            zeta = random_direction(rng)
            if admissible(F, zeta, w.RADII):
                break
        else:
            continue
        radii = []
        for r in w.RADII:
            hi = starfn.circle_log_samples(F, zeta, r, M=SLICE_HI_M)
            lo = starfn.circle_log_samples(F, zeta, r, M=w.M)
            rec = starfn.counting_record(F, zeta, r, 0.0)
            hi_vals = [starfn.star_rearranged(hi, th) for th in w.THETAS]
            quad = max(quad, *(abs(starfn.star_rearranged(lo, th) - v)
                               for th, v in zip(w.THETAS, hi_vals)))
            radii.append({"r": r, "hi": hi_vals, "small_n0": rec.small_n, "big_N0": rec.big_N})
        pool.append({"fn": fn_dict(F), "zeta": pairs(zeta.components), "radii": radii})
    log(f"slice: {size} slices, worst quad err at M={w.M} {quad:.2e}")

    grid_r = np.linspace(*w.HARMONIC_R)
    grid_t = np.linspace(*w.HARMONIC_THETA)
    ray = []
    while len(ray) < ray_size:
        F = ray_form_fn(rng)
        report = starfn.detect_harmonic_form(F)
        dirs = [random_direction(rng) for _ in range(ray_dirs)]
        verdicts = [
            starfn.slice_harmonicity_test(F, d, grid_r, grid_t, M=w.HARMONIC_M, tol=w.HARMONIC_TOL)
            for d in dirs
        ]
        log(f"ray form {len(ray)}: detected {report.detected}, {sum(verdicts)}/{len(dirs)} slices harmonic")
        ray.append({
            "fn": fn_dict(F),
            "eta": pairs(report.form.eta) if report.detected else None,
            "directions": [pairs(d.components) for d in dirs],
        })

    products = []
    for _ in range(product_size):
        nz, npo = (int(rng.integers(0, 5)) for _ in range(2))
        entry = {
            "gamma": float(rng.uniform(0.0, 1.5)),
            "theta": float(rng.uniform(-math.pi, math.pi)),
            "zeros": [float(x) for x in rng.uniform(0.5, 3.0, nz)],
            "poles": [float(x) for x in rng.uniform(0.5, 3.0, npo)],
        }
        coeffs = series_coeffs(entry["gamma"], entry["theta"], entry["zeros"],
                               entry["poles"], w.TAYLOR_K)
        entry["coeffs"] = pairs(coeffs)
        products.append(entry)
    return {"hi_M": SLICE_HI_M, "pool": pool, "ray": ray, "products": products}


def cli_pool(rng, size=8) -> dict:
    w = wl.CliGrid
    r_values = wl.cli_axes(*w.R, w.STEPS)
    theta_values = wl.cli_axes(*w.THETA, w.STEPS)
    pool = []
    for k in range(size):
        F = exact_degree_fn(rng, 2, 4, 5)
        sample_seed = 4000 + k
        sample = starfn.sample_directions(2, w.SAMPLES, sample_seed)
        lo = starfn.star_grid(F, r_values, theta_values, sample, M=w.M)
        hi = starfn.star_grid(F, r_values, theta_values, sample, M=CLI_HI_M)
        cells = []
        quad = 0.0
        for r, row_lo, row_hi in zip(r_values, lo.cells, hi.cells):
            for th, a, b in zip(theta_values, row_lo, row_hi):
                cells.append([r, th, b.mean, b.stderr, b.count_used])
                quad = max(quad, abs(a.mean - b.mean))
        log(f"cli {k}: skipped {hi.skipped}, quad err at M={w.M} {quad:.2e}")
        pool.append({"fn": fn_dict(F), "sample_seed": sample_seed, "cells_hi": cells})
    return {"hi_M": CLI_HI_M, "pool": pool}


def main() -> int:
    refs = {"generated_by": "python3 perfbench/make_refs.py", "master_seed": MASTER_SEED}
    for key, build, salt in (
        ("slice", slice_pool, 3),
        ("divisor", divisor_pool, 2),
        ("cli", cli_pool, 4),
        ("subharm", subharm_pool, 1),
    ):
        refs[key] = build(np.random.default_rng([MASTER_SEED, salt]))
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"wrote {wl.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
