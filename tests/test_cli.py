"""End-to-end tests of the starfn command line.

Commands run in-process through cli.main for speed.  One test covers the
packaging seam in a separate interpreter: it runs the installed `starfn`
script when one is on PATH, and otherwise the entry point that
pyproject.toml declares, through the same wrapper an install generates.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starfn.cli import export_grid, load_grid, main
from starfn.funcdef import load_function
from starfn.harmonicform import product_taylor_coeffs, load_canonical_product
from starfn.slicing import Direction, jensen_residual
from starfn.sphere import counting_several, sample_directions, star_grid, star_several
from starfn.starcore import slice_star_total

REPO_ROOT = Path(__file__).resolve().parent.parent

PRODUCT_SRC = {"n": 2, "numerator": "(1 + z1) * (1 + 2*z2)"}
HARMONIC_SRC = {
    "n": 2,
    "numerator": "1 + z1 + 2*z2 + 0.25*z1^2 + z1*z2 + z2^2",
}
RATIONAL_SRC = {
    "n": 2,
    "numerator": "1 + z1 + 0.3*z2",
    "denominator": "1 + 0.2*z1*z2",
}


def _write_fn(tmp_path, name, src):
    path = tmp_path / name
    path.write_text(json.dumps(src))
    return str(path)


def _run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_slice_star_matches_library(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    status, got = _run(
        capsys,
        ["slice-star", "--fn", fn, "--zeta", "0.6,0.8i", "--r", "2", "--theta", "1.1"],
    )
    assert status == 0
    F = load_function(fn)
    want = slice_star_total(F, Direction.of((0.6, 0.8j)), 2.0, 1.1, M=4096)
    assert got["total"] == want.total
    assert got["fstar"] == want.fstar
    assert got["big_N_inf"] == want.big_N_inf
    assert (got["r"], got["theta"]) == (2.0, 1.1)


def test_slice_star_normalizes_a_zeta_far_from_unit_size(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    status, got = _run(
        capsys,
        ["slice-star", "--fn", fn, "--zeta", "1e200,1e200", "--r", "2", "--theta", "1.1"],
    )
    assert status == 0
    want = slice_star_total(load_function(fn), Direction.of((1.0, 1.0)), 2.0, 1.1, M=4096)
    assert got["total"] == want.total


def test_star_matches_library_and_reports_skips(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)
    args = ["star", "--fn", fn, "--r", "1.5", "--theta", "0.9",
            "--samples", "300", "--seed", "7", "--circle", "512"]
    status, got = _run(capsys, args)
    assert status == 0
    F = load_function(fn)
    sample = sample_directions(2, 300, 7)
    want = star_several(F, 1.5, 0.9, sample, M=512)
    assert got["mean"] == want.mean
    assert got["stderr"] == want.stderr
    assert got["count_used"] == want.count_used
    assert got["skipped"] == 300 - want.count_used


def test_counting_parses_inf_target(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)
    F = load_function(fn)
    sample = sample_directions(2, 250, 3)
    for a_flag, a_val in (("inf", math.inf), ("0", 0.0)):
        status, got = _run(
            capsys,
            ["counting", "--fn", fn, "--r", "2", "--a", a_flag,
             "--samples", "250", "--seed", "3"],
        )
        assert status == 0
        want = counting_several(F, 2.0, a_val, sample)
        assert got["mean"] == want.mean
        assert got["count_used"] == want.count_used


def test_lelong_counts_total_degree_in_the_tail(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    status, got = _run(
        capsys,
        ["lelong", "--fn", fn, "--t", "1e4", "--a", "0", "--samples", "400", "--seed", "5"],
    )
    assert status == 0
    # both slice zeros of (1+z1)(1+2z2) lie well inside |w| = 1e4
    assert got["mean"] == 2.0
    assert got["stderr"] == 0.0


GRID_ARGS = ["--r-min", "0.5", "--r-max", "2.0", "--r-steps", "3",
             "--theta-min", "0.4", "--theta-max", str(math.pi - 0.4),
             "--theta-steps", "3", "--samples", "200", "--seed", "11",
             "--circle", "256"]


def test_grid_csv_export_is_byte_identical(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)
    paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for out in paths:
        status, got = _run(capsys, ["grid", "--fn", fn, *GRID_ARGS, "--out", out])
        assert status == 0
        assert got["out"] == out
    first, second = (Path(p).read_bytes() for p in paths)
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == "r,theta,mean,stderr,count_used"
    assert len(lines) == 1 + 3 * 3


def test_grid_json_round_trip(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)
    out = str(tmp_path / "grid.json")
    status, _ = _run(
        capsys, ["grid", "--fn", fn, *GRID_ARGS, "--out", out, "--format", "json"]
    )
    assert status == 0

    F = load_function(fn)
    sample = sample_directions(2, 200, 11)
    want = star_grid(F, (0.5, 1.25, 2.0), (0.4, math.pi / 2, math.pi - 0.4), sample, M=256)
    got = load_grid(out)
    assert got.cells == want.cells
    assert got.r_values == want.r_values
    assert got.theta_values == pytest.approx(want.theta_values, abs=0)
    assert got.skipped == want.skipped
    assert (got.sample.n, got.sample.seed, got.sample.count) == (2, 11, 200)
    assert np.array_equal(got.sample.directions, want.sample.directions)


def test_grid_without_out_prints_payload(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    status, got = _run(capsys, ["grid", "--fn", fn, *GRID_ARGS])
    assert status == 0
    assert set(got) == {"r_values", "theta_values", "cells", "sample"}
    assert len(got["cells"]) == 3 and len(got["cells"][0]) == 3
    assert got["sample"]["seed"] == 11


def test_grid_with_one_step_per_axis_is_one_cell(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    status, got = _run(
        capsys,
        ["grid", "--fn", fn, "--r-min", "0.7", "--r-steps", "1", "--theta-min", "0.9",
         "--theta-steps", "1", "--samples", "50", "--circle", "64"],
    )
    assert status == 0
    assert (got["r_values"], got["theta_values"]) == ([0.7], [0.9])
    assert len(got["cells"]) == 1 and len(got["cells"][0]) == 1


def test_export_grid_rejects_unknown_format(tmp_path):
    F = load_function(PRODUCT_SRC)
    grid = star_grid(F, (1.0, 2.0), (0.5, 1.5), sample_directions(2, 20, 0), M=64)
    with pytest.raises(ValueError, match="csv or json"):
        export_grid(grid, str(tmp_path / "g.xml"), "xml")


def test_check_jensen_exit_codes_track_tolerance(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)
    F = load_function(fn)
    residual = jensen_residual(F, Direction.of((0.8, 0.6)), 1.7, 4096)
    assert residual > 0

    base = ["check", "jensen", "--fn", fn, "--zeta", "0.8,0.6", "--r", "1.7"]
    status, got = _run(capsys, base)
    assert status == 0
    assert got["pass"] is True
    assert got["tol"] == 1e-6
    assert got["residual"] == residual

    status, got = _run(capsys, base + ["--tol", repr(residual / 2)])
    assert status == 1
    assert got["pass"] is False


def test_check_subharmonic_passes_on_a_zero_divisor(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    status, got = _run(
        capsys,
        ["check", "subharmonic", "--fn", fn,
         "--r-min", "0.8", "--r-max", "1.7", "--r-steps", "4",
         "--theta-min", "0.5", "--theta-max", str(math.pi - 0.5), "--theta-steps", "4",
         "--samples", "500", "--seed", "2", "--circle", "512"],
    )
    assert status == 0
    assert got == {"violations": [], "count": 0}


def test_check_subharmonic_flags_points_of_a_one_direction_sample(tmp_path, capsys):
    # one direction gives every point a stderr of 0, and at M=16 the
    # quadrature error puts four points of row r=1.7 below the slack
    fn = _write_fn(tmp_path, "f.json", {
        "n": 2,
        "numerator": "1 + (0.3-1.1*i)*z1^2*z2 - 0.7*z1*z2 + 2*z2^3",
        "denominator": "1 + (1.2+0.4*i)*z1 - 0.5*z1^2*z2^2",
    })
    status, got = _run(
        capsys,
        ["check", "subharmonic", "--fn", fn, "--samples", "1", "--seed", "0", "--circle", "16",
         "--r-steps", "6", "--theta-steps", "6",
         "--theta-min", "0.3", "--theta-max", "2.8415926535897933"],
    )
    assert status == 1
    assert got["count"] == 4
    assert [(v["r"], v["stderr"]) for v in got["violations"]] == [(1.7, 0.0)] * 4


def test_a_slice_coefficient_that_overflows_exits_2(tmp_path, capsys):
    # row 50 of the sample has a coefficient whose modulus overflows
    fn = _write_fn(tmp_path, "f.json", {"n": 4, "numerator": "1 + 1e308*z1 + 1e308*z2 + 1e308*z3 + 1e308*z4"})
    argv = ["counting", "--fn", fn, "--samples", "200", "--seed", "0", "--r", "1", "--a", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "starfn: non-finite coefficient\n"


def test_check_subharmonic_rejects_tiny_grid(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    status = main(
        ["check", "subharmonic", "--fn", fn, "--r-steps", "2",
         "--samples", "50", "--circle", "64"]
    )
    assert status == 2
    assert "3x3" in capsys.readouterr().err


HALF_GRID = ["--r-min", "0.6", "--r-max", "1.6",
             "--theta-min", "0.4", "--theta-max", str(math.pi - 0.4)]


def test_check_harmonic_slice_verdicts(tmp_path, capsys):
    one_zero = _write_fn(tmp_path, "a.json", {"n": 2, "numerator": "1 + z1"})
    status, got = _run(
        capsys,
        ["check", "harmonic-slice", "--fn", one_zero, "--zeta", "1,0",
         *HALF_GRID, "--circle", "1024"],
    )
    assert status == 0
    assert got == {"harmonic": True, "tol": 1e-3}

    product = _write_fn(tmp_path, "b.json", PRODUCT_SRC)
    status, got = _run(
        capsys,
        ["check", "harmonic-slice", "--fn", product, "--zeta", "1,1i",
         *HALF_GRID, "--circle", "1024"],
    )
    assert status == 1
    assert got["harmonic"] is False


def test_detect_harmonic_exit_codes(tmp_path, capsys):
    fn = _write_fn(tmp_path, "h.json", HARMONIC_SRC)
    status, got = _run(capsys, ["detect-harmonic", "--fn", fn])
    assert status == 0
    assert got["detected"] is True
    assert got["eta"] == [[1.0, 0.0], [2.0, 0.0]]
    flat = [x for pair in got["profile"] for x in pair]
    assert flat == pytest.approx([1, 0, 1, 0, 0.25, 0], abs=1e-12)
    assert got["ray"] is not None

    fn = _write_fn(tmp_path, "c.json", {"n": 2, "numerator": "1 - z1*z2"})
    status, got = _run(capsys, ["detect-harmonic", "--fn", fn])
    assert status == 1
    assert got["detected"] is False
    assert "profile" not in got


def test_product_taylor_matches_library(tmp_path, capsys):
    src = {"gamma": 0.5, "theta": 0.9, "zeros": [1.0, 2.5], "poles": [4.0]}
    path = tmp_path / "prod.json"
    path.write_text(json.dumps(src))
    status, got = _run(capsys, ["product-taylor", "--product", str(path), "--order", "6"])
    assert status == 0
    want = product_taylor_coeffs(load_canonical_product(src), 6)
    assert got["K"] == 6
    assert got["coeffs"] == [[c.real, c.imag] for c in want.coeffs]
    assert got["c_sums"] == list(want.c_sums)
    assert got["d_values"] == list(want.d_values)


def test_usage_errors_exit_2(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)

    with pytest.raises(SystemExit) as exc:  # argparse: missing required --r
        main(["slice-star", "--fn", fn, "--zeta", "1,0", "--theta", "0"])
    assert exc.value.code == 2

    cases = [
        ["slice-star", "--fn", fn, "--zeta", "1;0", "--r", "1", "--theta", "0"],
        ["slice-star", "--fn", fn, "--zeta", "1,0", "--r", "1", "--theta", "9"],
        ["slice-star", "--fn", str(tmp_path / "absent.json"), "--zeta", "1,0",
         "--r", "1", "--theta", "0"],
        ["counting", "--fn", fn, "--r", "1", "--a", "one"],
        ["counting", "--fn", fn, "--r", "1", "--a", "2.5", "--samples", "10"],
        ["grid", "--fn", fn, "--r-steps", "0"],
        ["check", "harmonic-slice", "--fn", fn, "--zeta", "1,0", "--theta-steps", "0"],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("starfn: ")


@pytest.mark.parametrize("zeta", ["nan,1", "1,1e400", "0.6,nani", "1,inf"])
def test_a_non_finite_zeta_exits_2_naming_the_direction(tmp_path, capsys, zeta):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    for argv in (
        ["slice-star", "--fn", fn, "--zeta", zeta, "--r", "1", "--theta", "0.5"],
        ["check", "jensen", "--fn", fn, "--zeta", zeta, "--r", "1"],
        ["check", "harmonic-slice", "--fn", fn, "--zeta", zeta],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("starfn: direction (") and err.endswith("has a non-finite component\n")


@pytest.mark.parametrize(
    "command, flag, document",
    [
        ("detect-harmonic", "--fn", [1, 2]),
        ("detect-harmonic", "--fn", {"zeros": 5}),
        ("detect-harmonic", "--fn", {"n": 2, "numerator": 5}),
        ("detect-harmonic", "--fn", {"n": [2], "numerator": "1"}),
        ("detect-harmonic", "--fn", {"n": 2.7, "numerator": "1 + z1"}),
        ("detect-harmonic", "--fn", {"n": "2", "numerator": "1 + z1"}),
        ("detect-harmonic", "--fn", {"n": True, "numerator": "1 + z1"}),
        ("product-taylor", "--product", [1, 2]),
        ("product-taylor", "--product", {"zeros": 5}),
        ("product-taylor", "--product", {"zeros": "12"}),
        ("product-taylor", "--product", {"poles": [1.0, "2"]}),
        ("product-taylor", "--product", {"gamma": [0.5]}),
        ("product-taylor", "--product", {"theta": "0.9"}),
    ],
)
def test_malformed_json_documents_exit_2(tmp_path, capsys, command, flag, document):
    # a document of the wrong shape is an input error, not a negative answer
    assert main([command, flag, _write_fn(tmp_path, "doc.json", document)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("starfn: ")


def test_bad_values_are_rejected_before_sampling(tmp_path, capsys, monkeypatch):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)

    def no_sampling(*args, **kwargs):
        raise AssertionError("sample drawn before the arguments were checked")

    monkeypatch.setattr("starfn.cli.sample_directions", no_sampling)
    cases = [
        (["star", "--fn", fn, "--r", "0", "--theta", "1"], "r must be positive and finite"),
        (["counting", "--fn", fn, "--r", "1", "--a", "2"], "target a must be 0 or inf"),
        (["counting", "--fn", fn, "--r", "nan", "--a", "0"], "r must be positive and finite"),
        (["star", "--fn", fn, "--r", "inf", "--theta", "1"], "r must be positive and finite"),
        (["lelong", "--fn", fn, "--t", "nan", "--a", "0"], "t must be positive and finite"),
        (["grid", "--fn", fn, "--r-max", "inf"], "radii must be positive and finite"),
        (["lelong", "--fn", fn, "--t", "0", "--a", "0"], "t must be positive and finite"),
        (["grid", "--fn", fn, "--r-min", "0"], "radii must be positive and finite"),
        (["grid", "--fn", fn, "--circle", "8"], "M must be at least 16, got 8"),
        (["check", "subharmonic", "--fn", fn, "--r-min", "-1"], "radii must be positive and finite"),
        (["check", "subharmonic", "--fn", fn, "--r-steps", "2"],
         "need at least a 3x3 grid for interior points"),
        (["check", "subharmonic", "--fn", fn, "--circle", "8"], "M must be at least 16, got 8"),
        (["check", "subharmonic", "--fn", fn, "--r-min", "2", "--r-max", "0.5"],
         "grid axes must be sorted ascending"),
        (["check", "subharmonic", "--fn", fn, "--r-min", "2", "--r-max", "0.5", "--rho", "0.05"],
         "grid axes must be sorted ascending"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"starfn: {message}\n"


def test_zeta_near_indeterminacy_is_reported(tmp_path, capsys):
    fn = _write_fn(tmp_path, "f.json", {"n": 2, "numerator": "1 - z1", "denominator": "1 - z1"})
    status = main(["star", "--fn", fn, "--r", "1", "--theta", "1", "--samples", "20"])
    assert status == 2
    assert "starfn:" in capsys.readouterr().err


def test_threads_env_does_not_change_exported_bytes(tmp_path, capsys, monkeypatch):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)
    args = ["grid", "--fn", fn, "--r-min", "0.9", "--r-max", "1.8", "--r-steps", "2",
            "--theta-min", "0.7", "--theta-max", "2.2", "--theta-steps", "2",
            "--samples", "1200", "--seed", "4", "--circle", "2048"]

    exported = {}
    for threads in ("1", "3", None):  # None: the default, every CPU the process may use
        if threads is None:
            monkeypatch.delenv("STARFN_THREADS")
        else:
            monkeypatch.setenv("STARFN_THREADS", threads)
        out = tmp_path / f"threads-{threads}.csv"
        assert main(args + ["--out", str(out)]) == 0
        exported[threads] = out.read_bytes()
    capsys.readouterr()

    assert exported["1"] == exported["3"] == exported[None]


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_threads_env_exits_2(tmp_path, capsys, monkeypatch, value):
    fn = _write_fn(tmp_path, "f.json", RATIONAL_SRC)
    monkeypatch.setenv("STARFN_THREADS", value)
    status = main(["star", "--fn", fn, "--r", "1.2", "--theta", "1", "--samples", "2000"])
    assert status == 2
    assert capsys.readouterr().err == (
        f"starfn: STARFN_THREADS must be a positive integer, got {value!r}\n"
    )


def _console_script_command() -> list[str]:
    """argv prefix that starts the `starfn` console script.

    The installed script if it is on PATH; otherwise the `[project.scripts]`
    entry of this checkout's pyproject.toml, called the way the generated
    wrapper calls it, so that main() reads sys.argv and its return value
    becomes the exit status.
    """
    installed = shutil.which("starfn")
    if installed:
        return [installed]
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["starfn"]
    module, func = entry.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", wrapper]


def test_console_script_runs_installed_package(tmp_path):
    fn = _write_fn(tmp_path, "f.json", PRODUCT_SRC)
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    proc = subprocess.run(
        [*_console_script_command(),
         "slice-star", "--fn", fn, "--zeta", "1,0", "--r", "2", "--theta", "0"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    # theta = 0: the rearranged integral is empty, only N(r, inf) = 0 remains
    assert payload["total"] == 0.0
