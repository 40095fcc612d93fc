"""End-to-end benchmark of the AutoMC reproduction: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper_search --seed 1 --seconds 20 --trace 0

Each repetition is a fresh interpreter with an empty state directory
(``workloads.py``).  A run has a fixed number of cases, each with its own
seed derived from ``--seed``; repetitions cycle through them until
``--seconds`` is used up, every case at least once.  Set-up is sampled a
few more times if needed so ``setup_s`` is a median.  With ``--trace 0``
the end-to-end metrics of ``BENCHMARK.json`` are printed; with
``--trace 1`` one untraced and one traced repetition of the first case
give the per-layer metrics, the self-time table and the tracing overhead.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

A full report (machine fingerprint, seed, every repetition, failed checks)
goes to ``.bench_out/``; ``--compare A.json B.json`` compares two reports
and refuses when they come from different machines.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from fingerprint import machine_fingerprint, mismatches  # noqa: E402
from tracing import (  # noqa: E402
    outermost_totals, read_jsonl, self_time_table, self_times, write_jsonl,
)
from workloads import SIZES, WORKLOADS, case_seed  # noqa: E402

STATE_ROOT = ROOT / ".bench_state"
REPORT_ROOT = ROOT / ".bench_out"
#: set-up samples per run (full repetitions count towards it)
SETUP_SAMPLES = 5
#: a run must end well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken repetition)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def run_repetition(workload: str, seed: int, deadline: float, *, smoke=False,
                   setup_only=False, oracle=False, trace_dir: Optional[Path] = None) -> dict:
    """Run one repetition in a fresh interpreter; returns its JSON output."""
    state = STATE_ROOT / uuid.uuid4().hex
    tmp = state / "tmp"
    tmp.mkdir(parents=True)
    out = state / "rep.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--state-dir", str(state / "work"), "--out", str(out),
    ]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if oracle:
        cmd.append("--oracle")
    if trace_dir is not None:
        cmd += ["--trace", str(trace_dir)]
    timeout = max(deadline - time.perf_counter(), 1.0)
    launch = time.time()
    try:
        proc = subprocess.run(
            cmd + ["--launch", repr(launch)], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=timeout,
        )
        if proc.returncode != 0 or not out.is_file():
            tail = "\n".join((proc.stderr or "").strip().splitlines()[-15:])
            raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{tail}")
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition overran the run deadline") from None
    finally:
        shutil.rmtree(state, ignore_errors=True)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_case(reps: List[dict], value: Callable[[dict], float]) -> float:
    """Mean over a run's cases of each case's median repetition.

    Every case weighs the same however many repetitions it got; the median
    damps a repetition the machine slowed, and the mean over cases damps a
    seed that needs more work, or finds a better front, than most.
    """
    by_case: Dict[int, List[float]] = {}
    for rep in reps:
        by_case.setdefault(rep["case"], []).append(value(rep))
    return statistics.fmean(statistics.median(v) for v in by_case.values())


def end_to_end(reps: List[dict], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics over a set of repetitions."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # a served repetition mixes six job types of very different length, so
    # its jobs are averaged first; a per-job median would jump between types
    mean = statistics.fmean
    return {
        "setup_s": _median(setups),
        "search_s": per_case(reps, lambda r: mean(r["search_s"])),
        "job_s": per_case(reps, lambda r: mean(r["job_s"])),
        # completed jobs per minute of the job phase (a whole invocation
        # for an in-process workload)
        "jobs_per_min": per_case(reps, lambda r: 60.0 * r["jobs"] / (
            r["phase_s"] if r["workload"] == "served" else r["job_s"][0]
        )),
        "hypervolume": per_case(reps, lambda r: r["hypervolume"]),
        "best_acc": per_case(reps, lambda r: r["best_acc"]),
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": per_case(reps, lambda r: r["peak_rss_mb"]),
    }


def same_outcomes(reps: List[dict]) -> List[str]:
    """Hypervolume and best scheme must repeat exactly within a case."""
    first: Dict[int, tuple] = {}
    differing = []
    for i, rep in enumerate(reps):
        index, outcome = first.setdefault(rep["case"], (i, rep["outcome"]))
        if rep["outcome"] != outcome:
            differing.append(
                f"repetition {i + 1} differs from repetition {index + 1} of case "
                f"{rep['case']}: {rep['outcome']} != {outcome}"
            )
    return differing


def timed_run(workload: str, seed: int, seconds: float, deadline: float, smoke: bool) -> dict:
    """Repetitions cycle through the run's cases until ``seconds`` are used.

    Every case runs at least once, so a run's inputs depend on ``seed``
    only, never on how fast the machine was.
    """
    cases = SIZES["smoke" if smoke else "full"][workload]["cases"]
    seeds = [case_seed(seed, case) for case in range(cases)]
    start = time.perf_counter()
    reps: List[dict] = []
    durations: List[float] = []
    while True:
        case = len(reps) % len(seeds)
        began = time.perf_counter()
        rep = run_repetition(workload, seeds[case], deadline, smoke=smoke, oracle=not reps)
        durations.append(time.perf_counter() - began)
        reps.append(dict(rep, case=case))
        elapsed = time.perf_counter() - start
        if len(reps) >= len(seeds) and elapsed + _median(durations) > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_repetition(
            workload, seeds[0], deadline, smoke=smoke, setup_only=True
        )["setup_s"])
    return {"reps": reps, "setups": setups, "case_seeds": seeds,
            "metrics": end_to_end(reps, setups)}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans, counts: Dict[str, float], traced: dict, untraced: dict
) -> Dict[str, float]:
    """Every per-layer metric from the traced repetition's spans and counts."""
    totals, calls = outermost_totals(spans)
    total: Callable[[str], float] = lambda name: totals.get(name, 0.0)
    count: Callable[[str], float] = lambda name: float(calls.get(name, 0))
    tally: Callable[[str], float] = lambda name: float(counts.get(name, 0.0))
    served = traced["workload"] == "served"
    metrics = {
        "knowledge.learn_s": total("knowledge.learn"),
        "knowledge.learn_calls": count("knowledge.learn"),
        "knowledge.transr_epoch_s": total("knowledge.transr_epoch"),
        "knowledge.nn_exp_s": total("knowledge.nn_exp"),
        "knowledge.graph_s": total("knowledge.graph"),
        "solver.propose_s": total("solver.propose"),
        "solver.observe_s": total("solver.observe"),
        "solver.rounds": count("solver.observe"),
        "pareto.s": total("pareto"),
        "pareto.calls": count("pareto"),
        "fmo.predict_s": total("fmo.predict"),
        "fmo.train_s": total("fmo.train"),
        "search.record_s": total("search.record"),
        "costmodel.predict_s": total("costmodel.predict"),
        "costmodel.predict_calls": count("costmodel.predict"),
        "costmodel.prune_ratio": _ratio(
            tally("costmodel.feasible.pruned"), tally("costmodel.feasible.checked")
        ),
        "lint.s": total("lint"),
        "evaluator.evaluate_s": total("evaluator.evaluate"),
        "evaluator.fresh_evals": tally("evaluator.fresh"),
        # strategy steps skipped by resuming a cached prefix / steps needed
        "evaluator.resume_ratio": 1.0 - _ratio(
            tally("evaluator.steps_executed"), tally("evaluator.steps_needed")
        ) if tally("evaluator.steps_needed") else 0.0,
    }
    for label in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"):
        metrics[f"compression.{label}.apply_s"] = total(f"compression.{label}.apply")
        metrics[f"compression.{label}.calls"] = count(f"compression.{label}.apply")
    metrics.update({
        "sim.step_s": total("sim.step"),
        "nn.fit_s": total("nn.fit"),
        "nn.eval_accuracy_s": total("nn.eval_accuracy"),
        "nn.profile_s": total("nn.profile"),
        "nn.conv2d_s": total("nn.conv2d"),
        "nn.conv2d_calls": count("nn.conv2d"),
        "nn.plan_hit_ratio": _ratio(
            tally("nn.plan_hits"), tally("nn.plan_hits") + tally("nn.plan_misses")
        ),
        "nn.workspace_peak_mb": tally("nn.workspace_peak_bytes") / 2**20,
        "engine.evaluate_many_s": total("engine.evaluate_many"),
        "engine.lane_rtt_s": total("engine.lane_rtt"),
        "engine.cache_hit_ratio": _ratio(tally("cache.hits"), tally("cache.gets")),
        "engine.lane_restarts": tally("engine.lane_restarts"),
        "snapshot.get_s": total("snapshot.get"),
        "snapshot.put_s": total("snapshot.put"),
        "snapshot.hit_ratio": _ratio(tally("snapshot.hits"), tally("snapshot.gets")),
        "snapshot.bytes_written": tally("snapshot.bytes_written"),
        "cache.get_s": total("cache.get"),
        "cache.put_s": total("cache.put"),
        "serve.submit_s": total("serve.submit"),
        "serve.queue_wait_s": sum(traced.get("queue_s", [])) if served else 0.0,
        "serve.run_s": sum(traced["search_s"]) if served else 0.0,
        "serve.progress_s": total("serve.progress"),
        "unattributed_pct": 100.0 * unattributed_share(spans),
        "trace_overhead_pct": 100.0 * (traced["wall_s"] / untraced["wall_s"] - 1.0),
    })
    return metrics


def unattributed_share(spans) -> float:
    """Share of the repetition's wall time that no layer span covers."""
    roots = [s for s in spans if s[1] == "run"]
    if not roots:
        return 1.0
    root = roots[0]
    duration = root[3] - root[2]
    return self_times(spans)[root[0]] / duration if duration > 0 else 0.0


def traced_run(workload: str, seed: int, deadline: float, report_dir: Path,
               smoke: bool) -> dict:
    """One untraced and one traced repetition of the run's first case."""
    first = case_seed(seed, 0)
    untraced = dict(run_repetition(workload, first, deadline, smoke=smoke, oracle=True), case=0)
    trace_dir = STATE_ROOT / f"trace-{uuid.uuid4().hex}"
    trace_dir.mkdir(parents=True)
    try:
        traced = dict(
            run_repetition(workload, first, deadline, smoke=smoke, trace_dir=trace_dir), case=0
        )
        spans, counts = [], {}
        for path in sorted(trace_dir.glob("spans-*.jsonl")):
            file_spans, file_counts = read_jsonl(str(path))
            spans += file_spans
            for key, value in file_counts.items():
                if key.endswith("_peak_bytes"):
                    counts[key] = max(counts.get(key, 0.0), value)
                else:
                    counts[key] = counts.get(key, 0.0) + value
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    journal = report_dir / f"{workload}-seed{seed}-spans.jsonl"
    write_jsonl(str(journal), f"{workload}-{seed}", spans, counts)
    return {
        "reps": [untraced, traced],
        "case_seeds": [first],
        "metrics": layer_metrics(spans, counts, traced, untraced),
        "self_time": self_time_table(spans),
        "spans_file": str(journal.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_table(title: str, rows: List[tuple]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<28s} {value:>14.6g} {unit}")


def compare_reports(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differ = mismatches(a["fingerprint"], b["fingerprint"])
    if differ:
        print(f"refusing to compare: machine fingerprints differ in {', '.join(differ)}",
              file=sys.stderr)
        return 2
    for name, entry in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        base = entry["value"]
        change = f"{(other['value'] / base - 1.0) * 100.0:+.1f}%" if base else "n/a"
        print(f"{name:<28s} {base:>12.6g} -> {other['value']:>12.6g} {entry['unit']:<8s} {change}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes for the benchmark's own tests")
    parser.add_argument("--report", default=None, help="report path (default .bench_out/)")
    parser.add_argument("--compare", nargs=2, metavar="REPORT",
                        help="compare two reports instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_reports(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    deadline = time.perf_counter() + RUN_DEADLINE_S
    try:
        spec = load_spec()
        check_checkout()
        REPORT_ROOT.mkdir(exist_ok=True)
        fingerprint = machine_fingerprint(ROOT)
        if args.trace:
            run = traced_run(args.workload, args.seed, deadline, REPORT_ROOT, args.smoke)
            declared = spec["per_layer"]
        else:
            run = timed_run(args.workload, args.seed, args.seconds, deadline, args.smoke)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = run["reps"]
    differing = same_outcomes(reps)
    failures = [f for r in reps for f in r["failures"]] + differing
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(r["failed"] for r in reps) + len(differing))
    metrics = {
        m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
        "repetitions": reps,
        **{k: run[k] for k in ("case_seeds", "setups", "self_time", "spans_file") if k in run},
    }
    report_path = Path(args.report) if args.report else (
        REPORT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    report_path.write_text(json.dumps(report, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} nproc={fingerprint['nproc']} "
          f"blas={fingerprint['blas']} threads={fingerprint['thread_env']}")
    print_table("metrics:", [(n, v["value"], v["unit"]) for n, v in metrics.items()])
    if "self_time" in run:
        top = sorted(run["self_time"].items(), key=lambda kv: -kv[1])[:15]
        print_table("self time by span:", [(n, v, "s") for n, v in top])
    for failure in failures:
        print(f"check failed: {failure}")
    print(f"report: {report_path}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
