"""Tests of the benchmark itself.

Every workload runs once at smoke-test sizes, traced and untraced; the
metrics it prints must be exactly the ones BENCHMARK.json declares.  The
benchmark must reach starfn only through names without a leading
underscore, so that refactors of the package internals cannot break it.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_and_prints_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)


def test_run_without_program_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slice-suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


STARFN_HANDLES = {"starfn", "sf", "cli"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reaches_starfn(node) -> bool:
    """Is this expression starfn, a starfn module, or self.sf / self.cli?"""
    if isinstance(node, ast.Name):
        return node.id in STARFN_HANDLES
    if isinstance(node, ast.Attribute):
        return node.attr in STARFN_HANDLES or _reaches_starfn(node.value)
    return False


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_benchmark_uses_no_private_starfn_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("starfn"):
            parts = node.module.split(".") + [a.name for a in node.names]
            assert not any(_private(p) for p in parts), ast.dump(node)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("starfn"):
                    assert not any(_private(p) for p in alias.name.split("."))
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            assert not _reaches_starfn(node.value), f"{path.name}:{node.lineno}"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            name = node.args[1] if len(node.args) > 1 else None
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                assert not _private(name.value), f"{path.name}:{node.lineno}"
