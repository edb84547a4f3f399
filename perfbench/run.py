"""The starfn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see pb_workloads.py and README.md) as a closed loop with
one client for about S seconds, checks every output, prints a table of the
metrics with their units, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 a separate
traced pass gives the per-layer metrics.  The exit status is 0 when every
check passed, 1 when one failed, and 2 when the program cannot be run.

starfn is imported from the checkout's src/ directory.  STARFN_THREADS is
removed from the environment, so the program's default thread count is what
gets measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
STARTUP_REPEATS = 3


class ProgramMissing(RuntimeError):
    """starfn cannot be imported from the checkout's src/ directory."""


def import_starfn():
    """Import starfn from src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import starfn
    except ImportError as exc:
        raise ProgramMissing(f"cannot import starfn from {SRC}: {exc}") from None
    if Path(starfn.__file__).resolve().parent.parent != SRC.resolve():
        raise ProgramMissing(f"starfn was imported from {starfn.__file__}, not from {SRC}")
    return starfn


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Seconds to import starfn and build the run's inputs, in this process."""
    sys.path.insert(0, str(BENCH_DIR))
    with open(BENCH_DIR / "refs.json", encoding="utf-8") as fh:
        refs = json.load(fh)
    t0 = time.perf_counter()
    sf = import_starfn()
    import pb_workloads

    pb_workloads.WORKLOADS[workload](sf, refs, seed, tiny)
    return time.perf_counter() - t0


def measure_setup(args, repeats: int) -> float:
    """Median set-up time over fresh interpreters."""
    import pb_workloads

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(repeats):
        proc = subprocess.run(cmd, cwd=ROOT, env=pb_workloads.child_env(),
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def measure_startup(repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports starfn.cli."""
    import pb_workloads

    cmd = [sys.executable, "-c", "import starfn.cli"]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=pb_workloads.child_env(), check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop


class Phase:
    """Op latencies and check outcomes of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.cycles: list[float] = []
        self.errors: list[str] = []
        self.failed = 0
        self.quad_err = 0.0
        self.stderr = 0.0

    def record(self, kind: str, seconds: float, outcome) -> None:
        self.latencies.append(seconds)
        self.by_kind.setdefault(kind, []).append(seconds)
        if outcome.errors:
            self.failed += 1
            self.errors.extend(f"{kind}: {e}" for e in outcome.errors)
        if outcome.quad_err is not None:
            self.quad_err = max(self.quad_err, outcome.quad_err)
        if outcome.stderr is not None:
            self.stderr = max(self.stderr, outcome.stderr)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.cycles)


def run_phase(workload, seconds: float, tracer=None, in_process: bool = False,
              calibration=None) -> Phase:
    """Run whole cycles while another cycle still fits into ``seconds``.

    A cycle's time is the sum of its op latencies; checks and calibration
    bursts run between ops, outside the timers.  ``in_process`` runs CLI
    calls through ``starfn.cli.main`` in this process, where the tracer can
    see them.
    """
    from pb_workloads import Outcome

    phase = Phase()
    start = time.perf_counter()
    while True:
        busy = 0.0
        for op in workload.cycle(in_process):
            if calibration is not None:
                calibration.burst()
            if tracer is not None:
                tracer.op = len(phase.latencies)
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed op is counted, not fatal
                seconds_op = time.perf_counter() - t0
                outcome = Outcome([f"raised {exc!r}"])
            else:
                seconds_op = time.perf_counter() - t0
                try:
                    outcome = op.check(result)
                except Exception as exc:
                    outcome = Outcome([f"check raised {exc!r}"])
            busy += seconds_op
            phase.record(op.kind, seconds_op, outcome)
        phase.cycles.append(busy)
        if time.perf_counter() - start + statistics.median(phase.cycles) > seconds:
            return phase


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def src_lines() -> dict[str, int]:
    from pb_trace import LAYERS

    lines = {}
    total = 0
    for path in sorted((SRC / "starfn").glob("*.py")):
        n = path.read_bytes().count(b"\n")
        total += n
        if path.stem in LAYERS:
            lines[f"{path.stem}.src_lines"] = n
    lines["starfn.src_lines"] = total
    return lines


# ---------------------------------------------------------------------------


def timed_run(sf, refs, args):
    """Op times are scaled by the run's calibration (see pb_calibrate.py)."""
    import pb_calibrate
    import pb_workloads

    cls = pb_workloads.WORKLOADS[args.workload]
    setup_s = measure_setup(args, 1 if args.tiny else SETUP_REPEATS)
    workload = cls(sf, refs, args.seed, args.tiny)
    calibration = pb_calibrate.Calibration(cls.CALIBRATION)
    phase = run_phase(workload, args.seconds, calibration=calibration)
    calibration.burst()
    ms = [1000.0 * t for t in phase.latencies]
    raw = {"wall_s": phase.wall_s, "op_p50_ms": percentile(ms, 50), "op_p90_ms": percentile(ms, 90)}
    metrics = {name: value * calibration.factor for name, value in raw.items()}
    metrics.update({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()})
    info = {
        **{f"raw_{name}": value for name, value in raw.items()},
        f"calibration_ms[{calibration.kind}]": 1000.0 * calibration.seconds,
        "ops": len(ms),
        "cycles": len(phase.cycles),
        "fail_frac": phase.failed / len(ms),
        "mc_stderr_max": phase.stderr,
        "quad_err_max": phase.quad_err,
        **{f"p50_ms[{kind}]": 1000.0 * statistics.median(ts) for kind, ts in phase.by_kind.items()},
    }
    return metrics, info, len(ms), phase.failed, phase.errors


def traced_run(sf, refs, args):
    """Untraced and traced passes of the same inputs, then the probes."""
    import pb_trace
    import pb_workloads

    cls = pb_workloads.WORKLOADS[args.workload]
    half = args.seconds / 2.0
    plain = run_phase(cls(sf, refs, args.seed, args.tiny), half, in_process=True)

    tracer = pb_trace.Tracer()
    tracer.install()
    try:
        workload = cls(sf, refs, args.seed, args.tiny)
        traced = run_phase(workload, half, tracer=tracer, in_process=True)
    finally:
        tracer.uninstall()

    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed
    errors = plain.errors + traced.errors

    ensembles = {}
    for F, sample in workload.sphere_calls():
        t0 = time.perf_counter()
        est = sf.counting_several(F, 1.0, 0.0, sample)
        seconds = time.perf_counter() - t0
        ensembles[pb_trace.sample_key(F, sample)] = (seconds, est.count_used, sample.count)

    speedup = 0.0
    probe = workload.thread_probe()
    if probe is not None:
        timings, outputs = [], []
        for threads in (1, nproc()):
            with pb_workloads.threads_env(threads):
                t0 = time.perf_counter()
                outputs.append(probe())
                timings.append(time.perf_counter() - t0)
        attempted += 1
        speedup = timings[0] / timings[1]
        if outputs[0] != outputs[1]:
            failed += 1
            errors.append(f"thread probe: STARFN_THREADS=1 and ={nproc()} give different results")

    metrics = pb_trace.layer_metrics(tracer.spans, ensembles)
    metrics.update({
        "sphere.thread_speedup": speedup,
        "cli.startup_s": measure_startup(1 if args.tiny else STARTUP_REPEATS),
        "cli.bytes_written": getattr(workload, "bytes_written", 0),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
        "mc_stderr_max": max(plain.stderr, traced.stderr),
        "quad_err_max": max(plain.quad_err, traced.quad_err),
        **src_lines(),
    })
    pb_workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(pb_workloads.OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
    info = {"nproc": nproc(), "traced_cycles": len(traced.cycles)}
    return metrics, info, attempted, failed, errors


def declared_metrics() -> dict[str, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; stored references that need full sizes are skipped")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed, args.tiny))
        return 0

    os.environ.pop("STARFN_THREADS", None)
    try:
        sf = import_starfn()
        sys.path.insert(0, str(BENCH_DIR))
        import pb_workloads

        if args.workload not in pb_workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(pb_workloads.WORKLOADS)}")
        refs = pb_workloads.load_refs()
        declared = declared_metrics()
    except (ProgramMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run = traced_run if args.trace else timed_run
    metrics, info, attempted, failed, errors = run(sf, refs, args)

    for err in errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, value in {**metrics, **info}.items():
        unit = declared[name]["unit"] if name in declared else ""
        print(f"  {name:32s} {value!r:>24} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
