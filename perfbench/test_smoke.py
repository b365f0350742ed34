"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, plus the reference checks and the refusal to run without a program.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import ops  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# metrics each workload must move when traced; a zero here means a layer
# escaped the wrappers (e.g. a ``from .x import f`` copy left unbound)
MOVED = {
    "readme": [*layers.CLI, "import.sublin_s", "import.scipy_s", "phi.calls",
               "phi.parse_s", "recursion.float.state_atoms", "recursion.exact.state_atoms",
               "gheat.point_steps", "linprog.simplex.calls", "independence.enlarge.vertices",
               "limits.moment_summary.self_s", "measures.load.s"],
    "float": ["phi.calls", "recursion.float.state_atoms", "recursion.lattice_embed.s",
              "gheat.point_steps", "gheat.quadrature.s", "limits.prop62.self_s",
              "limits.prop63.self_s", "limits.clt_experiment.self_s", "measures.load.s"],
    "exact": ["phi.calls", "recursion.exact.state_atoms", "linprog.simplex.calls",
              "linprog.tableau_cells", "linprog.hull_gap.calls",
              "independence.enlarge.vertices", "independence.peng_exact.self_s",
              "measures.upper_expectation.calls", "measures.upper_probability.calls",
              "measures.same_distribution.s", "measures.load.s"],
}


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_every_end_to_end_metric(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert f"{workload}: " in lines[0] and " fail_ratio=0 " in lines[0]
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_every_per_layer_metric(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert [m for m in MOVED[workload] if not values[m] > 0] == []
    # "<workload> traced: solve_s=X s, per-layer self times in operations sum to Y s, ..."
    words = lines[0].replace(",", "").split()
    solve = float(words[2].split("=")[1])
    self_sum = float(words[words.index("to") + 1])
    assert 0 < self_sum <= solve


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_reject_wrong_outputs():
    assert ops.check_readme("eval", "full", 0, "value=3/5\n") is None
    assert ops.check_readme("eval", "full", 0, "value=3/4\n") is not None
    assert ops.check_readme("eval", "full", 4, "") is not None
    good = ops.REFERENCE["readme"]["full"]["gnormal"]
    assert ops.check_readme("gnormal", "full", 0, good) is None
    assert ops.check_readme("gnormal", "full", 0, good.replace("0.2021214", "0.2031214")) is not None
