"""The four workloads of the starfn benchmark.

Inputs come from fixed pools stored in ``refs.json``, which ``make_refs.py``
writes together with the reference outputs.  A run's seed picks which pool
entries it uses and in which order, so the same seed gives the same inputs
and every input has a stored reference.

A workload is a closed loop with one client: the runner calls the ops of one
cycle in order, each op starting when the previous one returned.  An op is
one call into starfn's public API (or one ``python -m starfn.cli``
invocation); its check runs after the op's timer has stopped.

Only names that starfn exports without a leading underscore are used here,
so the benchmark survives refactors of the package internals.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_PATH = BENCH_DIR / "refs.json"
OUT_DIR = ROOT / ".perfbench_out"

# Largest |value at the workload's M - stored high-M value| accepted as
# quadrature error: about 10x the worst error make_refs.py logs on the pools
# (3.6e-7 at M=1024, 3.2e-7 at M=4096, 1.9e-7 at M=8192).
QUAD_ALLOWANCE = {1024: 4e-6, 4096: 3e-6, 8192: 2e-6}
# Counting data (roots only, no quadrature): |got - ref| <= tol * (1 + |ref|).
COUNT_TOL = 1e-9
# A stderr may move with the quadrature rule, but only a little.
STDERR_RTOL = 1e-3


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports starfn from ``src``.

    STARFN_THREADS is removed, so the program's default thread count is what
    gets measured.
    """
    env = dict(os.environ)
    env.pop("STARFN_THREADS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@contextlib.contextmanager
def threads_env(threads: int):
    """Set STARFN_THREADS in this process for the duration of the block."""
    old = os.environ.get("STARFN_THREADS")
    os.environ["STARFN_THREADS"] = str(threads)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("STARFN_THREADS", None)
        else:
            os.environ["STARFN_THREADS"] = old


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def pick(seed: int, salt: int, pool_size: int, k: int) -> list[int]:
    """k distinct pool indices in an order fixed by (seed, salt)."""
    rng = np.random.default_rng([salt, seed % 2**32])
    return [int(i) for i in rng.choice(pool_size, size=min(k, pool_size), replace=False)]


def cli_axes(lo: float, hi: float, steps: int) -> list[float]:
    """The grid axis ``starfn grid`` builds from --*-min/--*-max/--*-steps."""
    h = (hi - lo) / (steps - 1)
    return [lo + i * h for i in range(steps)]


def rel_gap(got: float, want: float) -> float:
    return abs(got - want) / (1.0 + abs(want))


@dataclass
class Outcome:
    """What the check of one op found."""

    errors: list[str] = field(default_factory=list)
    quad_err: float | None = None
    stderr: float | None = None


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


class Workload:
    """Inputs of one run plus the ops of one cycle over them.

    ``__init__`` is the set-up: it builds every input before the first op.
    ``CALIBRATION`` names the pb_calibrate kernel that resembles its work.
    """

    name = ""
    CALIBRATION = "numpy"

    def __init__(self, sf, refs: dict, seed: int, tiny: bool):
        self.sf = sf
        self.tiny = tiny

    def cycle(self, in_process: bool = False) -> list[Op]:
        raise NotImplementedError

    def sphere_calls(self) -> list[tuple[Any, Any]]:
        """The (F, sample) pairs whose ensembles the sphere ops build."""
        return []

    def thread_probe(self) -> Callable[[], Any] | None:
        """One representative call whose output must not depend on threads."""
        return None


# ---------------------------------------------------------------------------


class SubharmSweep(Workload):
    """Criterion-6 shape: subharmonicity_report per F on a 10x10 grid."""

    name = "subharm-sweep"
    PER_CYCLE = 3
    GRID = 10
    THETA_PAD = 0.15
    M = 192
    CIRCLE_NODES = 8

    def __init__(self, sf, refs, seed, tiny):
        super().__init__(sf, refs, seed, tiny)
        spec = refs["subharm"]
        pool = spec["pool"]
        picks = pick(seed, 1, len(pool), 1 if tiny else self.PER_CYCLE)
        self.fns = [sf.load_function(pool[i]["fn"]) for i in picks]
        self.want = [pool[i]["violations"] for i in picks]
        count = 200 if tiny else spec["count"]
        self.sample = sf.sample_directions(2, count, spec["sample_seed"])
        grid = 5 if tiny else self.GRID
        self.r_values = np.linspace(0.5, 2.0, grid)
        self.theta_values = np.linspace(self.THETA_PAD, math.pi - self.THETA_PAD, grid)

    def _report(self, F):
        return self.sf.subharmonicity_report(
            F, self.r_values, self.theta_values, self.sample,
            M=self.M, circle_nodes=self.CIRCLE_NODES,
        )

    def cycle(self, in_process=False):
        ops = []
        for F, want in zip(self.fns, self.want):
            def check(violations, want=want):
                if len(violations) != want:
                    return Outcome([f"{len(violations)} mean-value violations, want {want}"])
                return Outcome()

            ops.append(Op("subharmonicity_report", lambda F=F: self._report(F), check))
        return ops

    def sphere_calls(self):
        return [(F, self.sample) for F in self.fns]

    def thread_probe(self):
        F = self.fns[0]

        def call():
            stats = self.sf.subharmonicity_stats(
                F, self.r_values, self.theta_values, self.sample,
                M=self.M, circle_nodes=self.CIRCLE_NODES,
            )
            return [(s.mean_diff, s.stderr) for s in stats]

        return call


# ---------------------------------------------------------------------------


class DivisorProfile(Workload):
    """Counting data and one star average of an n=3, degree 6/6 F."""

    name = "divisor-profile"
    # (t, a) for lelong_number and (r, a) for counting_several
    LELONG = ((0.5, 0.0), (2.0, math.inf))
    COUNTING = ((1.0, math.inf), (2.0, 0.0))
    STAR_R = 2.0
    STAR_THETA = math.pi / 2
    M = 1024

    def __init__(self, sf, refs, seed, tiny):
        super().__init__(sf, refs, seed, tiny)
        spec = refs["divisor"]
        pool = spec["pool"]
        (i,) = pick(seed, 2, len(pool), 1)
        self.ref = pool[i]
        self.F = sf.load_function(self.ref["fn"])
        count = 500 if tiny else spec["count"]
        self.sample = sf.sample_directions(3, count, spec["sample_seed"])

    def _check_estimate(self, est, ref) -> Outcome:
        if self.tiny:
            return Outcome(stderr=est.stderr)
        mean, stderr, count_used = ref
        errors = []
        if est.count_used != count_used:
            errors.append(f"count_used {est.count_used}, want {count_used}")
        gap = max(rel_gap(est.mean, mean), rel_gap(est.stderr, stderr))
        if gap > COUNT_TOL:
            errors.append(f"estimate off its reference by {gap:.2e}")
        return Outcome(errors, stderr=est.stderr)

    def _check_star(self, est) -> Outcome:
        if self.tiny:
            return Outcome(stderr=est.stderr)
        mean, stderr, count_used = self.ref["star_hi"]
        errors = []
        if est.count_used != count_used:
            errors.append(f"count_used {est.count_used}, want {count_used}")
        quad = abs(est.mean - mean)
        if quad > QUAD_ALLOWANCE[self.M]:
            errors.append(f"star mean off the high-M reference by {quad:.2e}")
        if rel_gap(est.stderr, stderr) > STDERR_RTOL:
            errors.append(f"star stderr {est.stderr!r} vs reference {stderr!r}")
        return Outcome(errors, quad_err=quad, stderr=est.stderr)

    def _star(self):
        return self.sf.star_several(self.F, self.STAR_R, self.STAR_THETA, self.sample, M=self.M)

    def cycle(self, in_process=False):
        sf, F, sample = self.sf, self.F, self.sample
        ops = []
        for t, a in self.LELONG:
            ref = self.ref["lelong"][f"{t!r},{a!r}"] if not self.tiny else None
            ops.append(Op(
                "lelong_number",
                lambda t=t, a=a: sf.lelong_number(F, t, a, sample),
                lambda est, ref=ref: self._check_estimate(est, ref),
            ))
        for r, a in self.COUNTING:
            ref = self.ref["counting"][f"{r!r},{a!r}"] if not self.tiny else None
            ops.append(Op(
                "counting_several",
                lambda r=r, a=a: sf.counting_several(F, r, a, sample),
                lambda est, ref=ref: self._check_estimate(est, ref),
            ))
        ops.append(Op("star_several", self._star, self._check_star))
        return ops

    def sphere_calls(self):
        return [(self.F, self.sample)]

    def thread_probe(self):
        return self._star


# ---------------------------------------------------------------------------


class SliceSuite(Workload):
    """The scalar single-slice path, as in acceptance criteria 2-5 and 7-9.

    A cycle has about 460 ops.  About a fifth of them are the slow
    harmonic-form ops (``verify_harmonic_form``, ``slice_harmonicity_test``),
    so that op_p90_ms falls among them and op_p50_ms among the slice ops.
    A cycle covers a quarter of the slice pool and half of the ray-form pool,
    so that the seed's choice of inputs moves the percentiles little.
    """

    name = "slice-suite"
    CALIBRATION = "python"
    PER_CYCLE = 24
    RAYS = 6
    PRODUCTS = 3
    RADII = (0.5, 1.0, 2.0)
    THETAS = (0.0, math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6)
    M = 8192
    HARMONIC_M = 1024
    HARMONIC_TOL = 1e-3
    HARMONIC_R = (0.6, 1.6, 5)
    HARMONIC_THETA = (0.4, math.pi - 0.4, 5)
    TAYLOR_K = 12

    def __init__(self, sf, refs, seed, tiny):
        super().__init__(sf, refs, seed, tiny)
        spec = refs["slice"]
        self.slices = []
        for i in pick(seed, 3, len(spec["pool"]), 2 if tiny else self.PER_CYCLE):
            entry = spec["pool"][i]
            self.slices.append((sf.load_function(entry["fn"]), direction(sf, entry["zeta"]),
                                entry["radii"]))
        self.rays = []
        for i in pick(seed, 4, len(spec["ray"]), 1 if tiny else self.RAYS):
            entry = spec["ray"][i]
            dirs = [direction(sf, d) for d in entry["directions"]]
            self.rays.append((sf.load_function(entry["fn"]), entry["eta"], dirs[:1] if tiny else dirs))
        self.products = []
        for i in pick(seed, 5, len(spec["products"]), 1 if tiny else self.PRODUCTS):
            entry = spec["products"][i]
            self.products.append((sf.load_canonical_product(entry), entry["coeffs"]))
        self.harm_r = np.linspace(*self.HARMONIC_R)
        self.harm_t = np.linspace(*self.HARMONIC_THETA)

    def _slice_ops(self, F, zeta, r, ref) -> list[Op]:
        sf, M = self.sf, self.M
        ctx: dict[str, Any] = {}

        def check_jensen(res):
            if not res <= 1e-6:
                return Outcome([f"Jensen residual {res:.2e} > 1e-6 at r={r}"])
            return Outcome()

        def samples():
            ctx["samples"] = sf.circle_log_samples(F, zeta, r, M=M)
            return ctx["samples"]

        def sweep():
            s = ctx["samples"]
            rear = [sf.star_rearranged(s, th) for th in self.THETAS]
            thr = [sf.star_thresholded(s, th) for th in self.THETAS if 0 < th < math.pi]
            return rear, thr

        def check_sweep(result):
            rear, thr = result
            s = ctx.pop("samples")
            errors = []
            if rear[0] != 0.0:
                errors.append(f"T* at theta=0 is {rear[0]!r}, not exactly 0")
            bound = 1e-10 * (1.0 + float(np.abs(s.values).max()))
            gap = max(abs(a - b) for a, b in zip(rear[1:], thr))
            if gap > bound:
                errors.append(f"rearranged and level-threshold forms differ by {gap:.2e}")
            quad = max(abs(a - b) for a, b in zip(rear, ref["hi"]))
            if quad > QUAD_ALLOWANCE[M]:
                errors.append(f"T* off the high-M reference by {quad:.2e} at r={r}")
            return Outcome(errors, quad_err=quad)

        def total_pi():
            ctx["total_pi"] = sf.slice_star_total(F, zeta, r, math.pi, M=M).total
            return ctx["total_pi"]

        def check_counting(rec):
            errors = []
            if rec.small_n != ref["small_n0"]:
                errors.append(f"n(r,0) = {rec.small_n}, want {ref['small_n0']}")
            if rel_gap(rec.big_N, ref["big_N0"]) > COUNT_TOL:
                errors.append(f"N(r,0) = {rec.big_N!r}, want {ref['big_N0']!r}")
            gap = abs(ctx.pop("total_pi") - rec.big_N)
            if gap > 1e-6:
                errors.append(f"|T*(theta=pi) - N(r,0)| = {gap:.2e} > 1e-6")
            return Outcome(errors)

        return [
            Op("jensen_residual", lambda: sf.jensen_residual(F, zeta, r, M), check_jensen),
            Op("circle_log_samples", samples, lambda s: Outcome()),
            Op("star_theta_sweep", sweep, check_sweep),
            Op("slice_star_total", total_pi, lambda v: Outcome()),
            Op("counting_record", lambda: sf.counting_record(F, zeta, r, 0.0), check_counting),
        ]

    def _ray_ops(self, F, eta_ref, dirs) -> list[Op]:
        sf = self.sf
        ctx: dict[str, Any] = {}

        def detect():
            ctx["report"] = sf.detect_harmonic_form(F)
            return ctx["report"]

        def check_detect(report):
            if not report.detected:
                return Outcome(["harmonic form not detected"])
            gap = max(abs(a - complex(re, im)) for a, (re, im) in zip(report.form.eta, eta_ref))
            errors = [] if gap <= 1e-10 else [f"eta off its reference by {gap:.2e}"]
            if report.form.residual > 1e-10:
                errors.append(f"profile residual {report.form.residual:.2e} > 1e-10")
            return Outcome(errors)

        def check_verify(worst):
            return Outcome([] if worst <= 1e-10 else [f"verify residual {worst:.2e} > 1e-10"])

        ops = [
            Op("detect_harmonic_form", detect, check_detect),
            Op("verify_harmonic_form",
               lambda: sf.verify_harmonic_form(F, ctx["report"].form), check_verify),
        ]
        for d in dirs:
            ops.append(Op(
                "slice_harmonicity_test",
                lambda d=d: sf.slice_harmonicity_test(
                    F, d, self.harm_r, self.harm_t, M=self.HARMONIC_M, tol=self.HARMONIC_TOL
                ),
                lambda ok: Outcome([] if ok else ["ray-form slice not harmonic"]),
            ))
        return ops

    def _product_op(self, cp, want) -> Op:
        def check(tc):
            gap = max(rel_gap(c, complex(re, im)) for c, (re, im) in zip(tc.coeffs, want))
            return Outcome([] if gap <= 1e-12 else [f"Taylor data off the series by {gap:.2e}"])

        return Op("product_taylor_coeffs",
                  lambda: self.sf.product_taylor_coeffs(cp, self.TAYLOR_K), check)

    def cycle(self, in_process=False):
        ops = []
        for F, zeta, radii in self.slices:
            for ref in radii:
                ops.extend(self._slice_ops(F, zeta, ref["r"], ref))
        for F, eta_ref, dirs in self.rays:
            ops.extend(self._ray_ops(F, eta_ref, dirs))
        ops.extend(self._product_op(cp, want) for cp, want in self.products)
        return ops


def direction(sf, pairs: list[list[float]]):
    return sf.Direction.of([complex(re, im) for re, im in pairs])


# ---------------------------------------------------------------------------


class CliGrid(Workload):
    """``starfn grid`` as users run it: one fresh interpreter per call."""

    name = "cli-grid"
    SAMPLES = 2000
    STEPS = 8
    R = (0.5, 2.0)
    THETA = (0.15, 2.99)
    M = 4096

    def __init__(self, sf, refs, seed, tiny):
        super().__init__(sf, refs, seed, tiny)
        spec = refs["cli"]
        (i,) = pick(seed, 6, len(spec["pool"]), 1)
        self.ref = spec["pool"][i]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        tag = f"{self.name}-{seed}{'-tiny' if tiny else ''}-{os.getpid()}"
        self.fn_path = OUT_DIR / f"{tag}.json"
        self.fn_path.write_text(json.dumps(self.ref["fn"]), encoding="utf-8")
        self.out_path = OUT_DIR / f"{tag}.csv"
        # Imported here, before a tracer is installed, so that it is traced.
        self.cli = importlib.import_module("starfn.cli")
        self.F = sf.load_function(str(self.fn_path))
        self.samples = 100 if tiny else self.SAMPLES
        self.steps = 4 if tiny else self.STEPS
        self.M = 256 if tiny else self.M
        self.first: bytes | None = None
        self.bytes_written = 0

    def argv(self, out_path: Path | None = None) -> list[str]:
        return [
            "grid", "--fn", str(self.fn_path),
            "--samples", str(self.samples), "--seed", str(self.ref["sample_seed"]),
            "--r-min", repr(self.R[0]), "--r-max", repr(self.R[1]),
            "--r-steps", str(self.steps),
            "--theta-min", repr(self.THETA[0]), "--theta-max", repr(self.THETA[1]),
            "--theta-steps", str(self.steps),
            "--circle", str(self.M), "--format", "csv",
            "--out", str(out_path or self.out_path),
        ]

    def call_subprocess(self) -> int:
        cmd = [sys.executable, "-m", "starfn.cli", *self.argv()]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode

    def call_in_process(self, out_path: Path | None = None) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv(out_path))

    def _check(self, status: int) -> Outcome:
        if status != 0:
            return Outcome([f"starfn grid exited with {status}"])
        data = self.out_path.read_bytes()
        self.bytes_written += len(data)
        errors = []
        if self.first is None:
            self.first = data
        elif data != self.first:
            errors.append("CSV differs from the first invocation's bytes")
        rows = [line.split(",") for line in data.decode().splitlines()[1:]]
        stderr = max(float(row[3]) for row in rows) if rows else None
        if self.tiny:
            return Outcome(errors, stderr=stderr)
        ref = self.ref["cells_hi"]
        if len(rows) != len(ref):
            return Outcome(errors + [f"{len(rows)} grid cells, want {len(ref)}"])
        quad = 0.0
        for row, (r, theta, mean, sd, count_used) in zip(rows, ref):
            if abs(float(row[0]) - r) > 1e-15 or abs(float(row[1]) - theta) > 1e-15:
                errors.append(f"grid axes {row[:2]} differ from the reference")
                break
            if int(row[4]) != count_used:
                errors.append(f"count_used {row[4]}, want {count_used}")
                break
            if rel_gap(float(row[3]), sd) > STDERR_RTOL:
                errors.append(f"stderr {row[3]} vs reference {sd!r}")
                break
            quad = max(quad, abs(float(row[2]) - mean))
        if quad > QUAD_ALLOWANCE[self.M]:
            errors.append(f"grid mean off the high-M reference by {quad:.2e}")
        return Outcome(errors, quad_err=quad, stderr=stderr)

    def cycle(self, in_process=False):
        call = self.call_in_process if in_process else self.call_subprocess
        return [Op("starfn_grid", call, self._check)]

    def sphere_calls(self):
        sample = self.sf.sample_directions(2, self.samples, self.ref["sample_seed"])
        return [(self.F, sample)]

    def thread_probe(self):
        probe = OUT_DIR / f"{self.out_path.stem}-probe.csv"

        def call():
            self.call_in_process(probe)
            return probe.read_bytes()

        return call


WORKLOADS = {w.name: w for w in (SubharmSweep, DivisorProfile, SliceSuite, CliGrid)}
