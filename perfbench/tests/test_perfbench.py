"""Smoke-size tests of the benchmark itself.

Run from the repository root (a few minutes; every workload runs at
``--smoke`` size, once untraced and once traced)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, case_seed, derive_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp_path: Path, *args: str, root: Path = ROOT):
    """Run the benchmark command; returns (process, parsed last line or None)."""
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args, "--report", str(report)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def assert_result(proc, result, declared) -> None:
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        # the human table prints every metric by name with its unit
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in proc.stdout.splitlines()
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_prints_every_end_to_end_metric(workload, tmp_path):
    proc, result = bench(
        tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
        "--smoke",
    )
    assert_result(proc, result, SPEC["end_to_end"])
    for name in ("setup_s", "search_s", "job_s", "jobs_per_min", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0.0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 3
    assert set(report["fingerprint"]) >= {"nproc", "cpu_model", "numpy", "blas", "thread_env"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_matches_untraced(workload, tmp_path):
    proc, result = bench(
        tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1",
        "--smoke",
    )
    assert_result(proc, result, SPEC["per_layer"])
    report = json.loads((tmp_path / "report.json").read_text())
    untraced, traced = report["repetitions"]
    assert traced["outcome"] == untraced["outcome"]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["solver.rounds"] >= 1
    if workload == "served":
        assert metrics["knowledge.learn_calls"] == 2  # one per progressive job
        assert metrics["engine.lane_rtt_s"] > 0.0
        assert metrics["evaluator.fresh_evals"] > 0  # recorded inside the lanes
    if workload == "budget_search":
        assert metrics["costmodel.predict_calls"] > 0
    if workload == "paper_search":
        assert metrics["costmodel.predict_calls"] == 0
    if workload == "train_search":
        assert metrics["nn.fit_s"] > 0.0


def _locations(patched):
    return [(owner, attr) for owner, attr, _ in patched]


def test_every_wrapped_function_is_restored(tmp_path):
    import repro  # noqa: F401
    import repro.core.pareto as pareto
    import repro.serve  # noqa: F401
    from repro.core.search import SearchStrategy

    original_mask = pareto.pareto_mask
    original_record = SearchStrategy.__dict__["record"]
    with tracing.Tracing("test", str(tmp_path)) as traced:
        patched = list(traced.patched)
        assert len(patched) > 40
        assert pareto.pareto_mask is not original_mask
        assert SearchStrategy.__dict__["record"] is not original_record
        import numpy as np

        pareto.pareto_mask(np.zeros((3, 2)))
        assert [s[1] for s in traced.recorder.spans] == ["pareto"]
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)
    assert pareto.pareto_mask is original_mask
    assert traced.patched == []


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "run", 0.0, 10.0, 0, 1),
        (2, "a", 1.0, 4.0, 1, 1),
        (3, "b", 3.0, 6.0, 1, 1),  # overlaps a (another thread)
        (4, "a", 2.0, 3.0, 2, 1),  # nested in a: not counted twice
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    totals, calls = tracing.outermost_totals(spans)
    assert totals["a"] == pytest.approx(3.0) and calls["a"] == 2
    assert run.unattributed_share(spans) == pytest.approx(0.5)


def test_seeds_are_derived_and_distinct():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert len({derive_seed(s, p) for s in range(5) for p in ("a", "b")}) == 10
    assert case_seed(1, 0) == case_seed(1, 0)
    assert len({case_seed(s, c) for s in range(5) for c in range(4)}) == 20


def test_every_case_weighs_the_same_in_a_run():
    reps = [
        {"case": 0, "v": 1.0}, {"case": 1, "v": 3.0}, {"case": 0, "v": 1.2},
        {"case": 0, "v": 9.0},
    ]
    # case 0: median 1.2 of three repetitions; case 1: 3.0 of one
    assert run.per_case(reps, lambda r: r["v"]) == pytest.approx(2.1)


def test_outcomes_are_compared_within_a_case():
    reps = [
        {"case": 0, "outcome": ["a"]}, {"case": 1, "outcome": ["b"]},
        {"case": 0, "outcome": ["a"]}, {"case": 1, "outcome": ["b"]},
    ]
    assert run.same_outcomes(reps) == []
    reps.append({"case": 1, "outcome": ["c"]})
    assert len(run.same_outcomes(reps)) == 1


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench(
        tmp_path, "--workload", "paper_search", "--seed", "1", "--seconds", "1",
        "--trace", "0", root=tmp_path,
    )
    assert proc.returncode != 0
    assert result is None
    assert '"metrics"' not in proc.stdout


def test_compare_refuses_reports_from_different_machines(tmp_path, capsys):
    fingerprint = {field: "x" for field in ("nproc", "cpu_model", "python", "numpy", "blas")}
    fingerprint["thread_env"] = {}
    metrics = {"search_s": {"value": 2.0, "unit": "s"}}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"fingerprint": fingerprint, "metrics": metrics}))
    b.write_text(json.dumps({"fingerprint": {**fingerprint, "nproc": "y"}, "metrics": metrics}))
    assert run.compare_reports(str(a), str(a)) == 0
    assert run.compare_reports(str(a), str(b)) == 2
    assert "nproc" in capsys.readouterr().err
