"""One repetition of one benchmark workload, run in a fresh interpreter.

``run.py`` starts this file once per repetition, with an empty state
directory, because a fresh process is what a user pays for::

    python3 perfbench/workloads.py --workload paper_search --seed 1 \
        --state-dir .bench_state/x --out rep.json --launch <epoch seconds>

Every solver, evaluator and dataset seed is derived from ``--seed``, so the
program only receives generated specs and data.  The repetition checks its
own outputs (a failed check is counted, not raised) and writes one JSON
object of timings, quality figures and check results to ``--out``.  With
``--trace DIR`` it runs under :class:`tracing.Tracing` and writes its spans
to ``DIR``.  ``--setup-only`` stops after set-up, for extra ``setup_s``
samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

WORKLOADS = ("paper_search", "budget_search", "train_search", "served")

#: workload sizes.  "full" is what the benchmark measures; "smoke" shrinks
#: every workload to seconds for the benchmark's own tests (its numbers are
#: not comparable with full-size ones).  A run cycles through ``cases``
#: inputs, each seeded by :func:`case_seed`, so that one lucky or unlucky
#: seed moves a run's figures by a share of ``1 / cases`` only; each case is
#: small enough that a 30 s run gets at least one repetition of every case.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        # the ROADMAP reference path (paper-scale resnet56, whole space, no
        # budget) with one round of Algorithm 1 instead of four and 3 h
        # instead of 4, so that a case takes seconds; the front is as
        # settled at 3 h as at 4 h, and the work hardly varies by seed
        "paper_search": {
            "cases": 2, "budget_hours": 3.0, "methods": None, "embedding": (1, 3, 30),
        },
        # a params ceiling, and a budget any first round exhausts: always
        # exactly one progressive round, whatever the seed.  Without C2 and
        # C5, whose cost-model checks are the slowest, the round checks ~1100
        # candidates in a few seconds and feasibility stays its largest part
        "budget_search": {
            "cases": 5, "budget_hours": 0.1, "max_params": 500_000,
            "methods": ["C1", "C3", "C4", "C6", "C7"], "embedding": (1, 3, 30),
        },
        # real training on a synthetic 16x16, 10-class task (base accuracy
        # 0.74-0.95).  One evaluation per round makes a search twenty short
        # rounds rather than one round whose size depends on the seed; C3
        # alone keeps knowledge minor and each evaluation cheap.  How much a
        # search trains and how far its front reaches still vary by seed
        # (coefficient of variation ~0.15 each), hence four cases
        "train_search": {
            "cases": 4, "samples": 600, "image_size": 16, "noise": 0.6,
            "pretrain_epochs": 4.0, "budget_hours": 2.0, "evals_per_round": 1,
            "methods": ["C3"], "gamma": 0.2,
        },
        # two closed-loop tenants on a surrogate resnet20 task
        "served": {
            "cases": 3, "methods": ["C3", "C4"], "gamma": 0.2, "max_length": 4,
            "budget_hours": 2.0, "max_params": 150_000,
        },
    },
    "smoke": {
        "paper_search": {
            "cases": 1, "budget_hours": 0.3, "methods": ["C1", "C3"], "embedding": (1, 1, 2),
        },
        "budget_search": {
            "cases": 1, "budget_hours": 0.3, "max_params": 500_000, "methods": ["C1", "C3"],
            "embedding": (1, 1, 2),
        },
        "train_search": {
            "cases": 1, "samples": 120, "image_size": 16, "noise": 1.0,
            "pretrain_epochs": 1.0, "budget_hours": 0.3, "evals_per_round": 6,
            "methods": ["C2", "C3"], "gamma": 0.2,
        },
        "served": {
            "cases": 1, "methods": ["C3", "C4"], "gamma": 0.2, "max_length": 4,
            "budget_hours": 0.3, "max_params": 150_000,
        },
    },
}

#: served per-solver options (plain JSON: they cross the wire in the spec)
SERVED_SOLVER_KWARGS = {
    "sa": {"chains": 2},
    "regevo": {"population_size": 4, "tournament_size": 2, "children_per_round": 3},
}


def derive_seed(seed: int, purpose: str) -> int:
    """A stable 31-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def case_seed(seed: int, case: int) -> int:
    """The seed of a run's ``case``-th input, derived from the run's seed."""
    return derive_seed(seed, f"case.{case}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_search(
    label: str, stats: Optional[dict], best: Optional[dict], gamma: float
) -> List[str]:
    """The per-search output checks; returns one message per failed check."""
    failures = []
    stats = stats or {}
    total = stats.get("proposals_total")
    if total is None or total != stats.get("proposals_pruned", 0) + stats.get(
        "evaluated_proposals", 0
    ):
        failures.append(f"{label}: proposals_total != proposals_pruned + evaluated_proposals")
    if best is None:
        failures.append(f"{label}: no scheme meets gamma={gamma}")
    elif best["pr"] < gamma:
        failures.append(f"{label}: best scheme PR {best['pr']:.4f} < gamma {gamma}")
    return failures


def _best_of_result(result) -> Optional[dict]:
    best = result.best
    if best is None:
        return None
    return {"id": best.scheme.identifier, "accuracy": best.accuracy, "pr": best.pr}


def _outcome(result) -> dict:
    best = result.best
    return {
        "hypervolume": result.trajectory[-1].hypervolume if result.trajectory else 0.0,
        "best": best.scheme.identifier if best is not None else None,
    }


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def _paper_automc(seed: int, purpose: str, size: dict):
    from repro import AutoMC
    from repro.knowledge.embedding import EmbeddingConfig
    from repro.space.strategy import StrategySpace

    search_seed = derive_seed(seed, purpose)
    kwargs = {}
    if size["methods"] is not None:
        kwargs["space"] = StrategySpace(method_labels=list(size["methods"]))
    if size["embedding"] is not None:
        rounds, transr_epochs, nn_exp_epochs = size["embedding"]
        kwargs["embedding_config"] = EmbeddingConfig(
            rounds=rounds, transr_epochs_per_round=transr_epochs,
            nn_exp_epochs_per_round=nn_exp_epochs, seed=search_seed,
        )
    return AutoMC.paper_scale(
        "resnet56", "cifar10", budget_hours=size["budget_hours"], seed=search_seed, **kwargs
    )


def setup_paper_search(seed: int, size: dict):
    return _paper_automc(seed, "paper_search", size)


def setup_budget_search(seed: int, size: dict):
    from repro.analysis.costmodel import Budget

    automc = _paper_automc(seed, "budget_search", size)
    automc.evaluator.set_budget(Budget(max_params=size["max_params"]))
    return automc


def train_datasets(seed: int, size: dict):
    from repro.data.datasets import SyntheticImageDataset

    data = SyntheticImageDataset(
        10, size["samples"], size["image_size"], 3, noise=size["noise"],
        seed=derive_seed(seed, "train_search.data"), name="bench-16x16",
    )
    return data.split(0.75, seed=derive_seed(seed, "train_search.split"))


def setup_train_search(seed: int, size: dict):
    from repro import AutoMC
    from repro.core.progressive import ProgressiveConfig
    from repro.knowledge.embedding import EmbeddingConfig
    from repro.space.strategy import StrategySpace

    train, val = train_datasets(seed, size)
    search_seed = derive_seed(seed, "train_search.search")
    automc = AutoMC.with_training(
        "resnet8", train, val, gamma=size["gamma"],
        budget_hours=size["budget_hours"], pretrain_epochs=size["pretrain_epochs"],
        seed=search_seed, space=StrategySpace(method_labels=list(size["methods"])),
        # a small space and a short Algorithm 1 keep knowledge minor here
        embedding_config=EmbeddingConfig(
            rounds=1, transr_epochs_per_round=2, nn_exp_epochs_per_round=10,
            seed=search_seed,
        ),
        progressive_config=ProgressiveConfig(evals_per_round=size["evals_per_round"]),
    )
    automc.evaluator.base_accuracy  # pretraining is part of set-up
    return automc


SETUPS: Dict[str, Callable] = {
    "paper_search": setup_paper_search,
    "budget_search": setup_budget_search,
    "train_search": setup_train_search,
}


def run_in_process(workload: str, seed: int, size: dict, launch: float, setup_only: bool,
                   finish: Callable[[], None]) -> dict:
    automc = SETUPS[workload](seed, size)
    setup_s = time.time() - launch
    out: dict = {"setup_s": setup_s}
    if setup_only:
        return out
    start = time.perf_counter()
    result = automc.search()
    search_s = time.perf_counter() - start
    job_s = time.time() - launch
    finish()
    best = _best_of_result(result)
    failures = check_search(workload, result.solver_stats, best, automc.gamma)
    out.update(
        search_s=[search_s],
        job_s=[job_s],
        attempted=1,
        failed=1 if failures else 0,
        failures=failures,
        hypervolume=_outcome(result)["hypervolume"],
        best_acc=best["accuracy"] if best else 0.0,
        outcome=[_outcome(result)],
        jobs=1,
        phase_s=search_s,
        base_accuracy=getattr(automc.evaluator, "base_accuracy", None),
    )
    return out


# ---------------------------------------------------------------------------
# served workload
# ---------------------------------------------------------------------------


def served_specs(seed: int, size: dict):
    """The two tenants' job sequences (client 1, client 2)."""
    from repro.analysis.costmodel import Budget
    from repro.core.config import EvaluatorConfig
    from repro.data.tasks import EXP1, transfer_task
    from repro.serve import JobSpec

    task = transfer_task(EXP1, "resnet20", 0.27, 0.08, EXP1.model_accuracy)
    eval_a = derive_seed(seed, "served.evaluator.a")
    eval_b = derive_seed(seed, "served.evaluator.b")
    if eval_b == eval_a:
        eval_b += 1
    budget = Budget(max_params=size["max_params"])

    def evaluator(eval_seed: int, budgeted: bool) -> dict:
        return EvaluatorConfig(
            model_name="resnet20", dataset_name="cifar10", task=task, seed=eval_seed,
            budget=budget if budgeted else None,
        ).to_payload()

    def spec(solver: str, tenant: str, eval_seed: int, budgeted: bool) -> JobSpec:
        return JobSpec(
            evaluator=evaluator(eval_seed, budgeted),
            solver=solver,
            tenant=tenant,
            gamma=size["gamma"],
            budget_hours=size["budget_hours"],
            max_length=size["max_length"],
            # both progressive jobs share this seed, hence one embedding config
            seed=derive_seed(seed, f"served.solver.{solver}"),
            method_labels=list(size["methods"]),
            solver_kwargs=dict(SERVED_SOLVER_KWARGS.get(solver, {})),
        )

    client1 = [
        spec("progressive", "tenant-a", eval_a, False),
        spec("sa", "tenant-a", eval_a, False),
        spec("sa", "tenant-c", eval_a, False),  # the repeat: reads the cache
    ]
    client2 = [
        spec("regevo", "tenant-b", eval_b, True),
        spec("progressive", "tenant-b", eval_b, False),
        spec("random", "tenant-b", eval_b, True),
    ]
    return client1, client2


def _payload_best(result: dict) -> Optional[dict]:
    pareto = result.get("pareto") or []
    if not pareto:
        return None
    best = max(pareto, key=lambda p: p["accuracy"])
    base = result["base_params"]
    return {
        "id": best["identifier"], "accuracy": best["accuracy"],
        "pr": (base - best["params"]) / base,
    }


def _payload_matches(payload: dict, ref) -> bool:
    """Served result payload == solo SearchResult, bit for bit."""
    served = [
        (p["identifier"], p["params"], p["flops"], p["accuracy"], p["cost"])
        for p in payload["pareto"]
    ]
    solo = [
        (r.scheme.identifier, r.params, r.flops, r.accuracy, r.cost) for r in ref.pareto
    ]
    return (
        payload["total_cost"] == ref.total_cost
        and payload["evaluations"] == ref.evaluations
        and payload["rounds"] == ref.rounds
        and served == solo
        and payload["solver_stats"] == ref.solver_stats
    )


def solo_search(spec, cache_dir: str):
    """The same spec run alone, in process, against ``cache_dir``."""
    from repro import AutoMC

    automc = AutoMC(
        spec.build_config().build(),
        space=spec.build_space(),
        solver=spec.solver,
        gamma=spec.gamma,
        budget_hours=spec.budget_hours,
        max_length=spec.max_length,
        seed=spec.seed,
        solver_kwargs=dict(spec.solver_kwargs),
        cache_dir=cache_dir,
    )
    return automc.search()


def run_served(seed: int, size: dict, launch: float, setup_only: bool, state_dir: str,
               oracle: bool, finish: Callable[[], None]) -> dict:
    from repro.serve import ServeClient, ServeDaemon

    lanes = os.cpu_count() or 1
    daemon = ServeDaemon(os.path.join(state_dir, "serve"), workers=lanes, max_jobs=2).start()
    setup_s = time.time() - launch
    out: dict = {"setup_s": setup_s}
    if setup_only:
        daemon.stop()
        return out
    client1, client2 = served_specs(seed, size)
    finals: List[List[dict]] = [[], []]
    job_times: List[List[float]] = [[], []]
    errors: List[str] = []

    def client(index: int, specs) -> None:
        try:
            api = ServeClient(daemon.state_dir, timeout=120.0)
            for spec in specs:
                start = time.time()
                job = api.submit(spec)
                finals[index].append(api.wait(job["job_id"]))
                job_times[index].append(time.time() - start)
        except Exception as exc:  # reported as a failed check, not raised
            errors.append(f"client {index + 1}: {type(exc).__name__}: {exc}")

    phase_start = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(i, specs), name=f"client-{i + 1}")
        for i, specs in enumerate((client1, client2))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase_s = time.perf_counter() - phase_start
    daemon.stop(wait_jobs=True)
    finish()

    jobs = finals[0] + finals[1]
    specs = client1 + client2
    failures = list(errors)
    attempted = len(specs)
    failed = attempted - len(jobs)
    hypervolumes, accuracies, outcome, search_s, queue_s = [], [], [], [], []
    base_params = None
    for job in jobs:
        label = f"job {job['job_id']} ({job['solver']}, {job['tenant']})"
        result = job.get("result") or {}
        if job["state"] != "completed":
            failures.append(f"{label}: state {job['state']}: {job.get('error')}")
            failed += 1
            continue
        if base_params is None:
            base_params = _resnet20_params()
        result["base_params"] = base_params
        best = _payload_best(result)
        job_failures = check_search(label, result.get("solver_stats"), best, size["gamma"])
        failures += job_failures
        failed += 1 if job_failures else 0
        trajectory = result.get("trajectory") or []
        hv = trajectory[-1]["hypervolume"] if trajectory else 0.0
        hypervolumes.append(hv)
        accuracies.append(best["accuracy"] if best else 0.0)
        outcome.append({"hypervolume": hv, "best": best["id"] if best else None})
        search_s.append(job["finished_at"] - job["started_at"])
        queue_s.append(job["started_at"] - job["submitted_at"])
    if len(finals[0]) == 3 and (finals[0][2].get("result") or {}).get("cache_hits", 0) < 1:
        failures.append("repeated sa job read nothing from the result cache")
        failed += 1
    if oracle and finals[1]:
        served = finals[1][0].get("result")
        solo = solo_search(client2[0], os.path.join(state_dir, "oracle-cache"))
        if served is None or not _payload_matches(served, solo):
            failures.append("served regevo job differs from the solo run of its spec")
            failed += 1
    out.update(
        search_s=search_s,
        job_s=job_times[0] + job_times[1],
        queue_s=queue_s,
        attempted=attempted,
        failed=min(failed, attempted),
        failures=failures,
        hypervolume=sum(hypervolumes) / len(hypervolumes) if hypervolumes else 0.0,
        best_acc=sum(accuracies) / len(accuracies) if accuracies else 0.0,
        outcome=outcome,
        jobs=len(jobs),
        phase_s=phase_s,
    )
    return out


def _resnet20_params() -> int:
    from repro.models import create_model

    return create_model("resnet20", num_classes=10).num_parameters()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _peak_rss_mb(include_children: bool) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not include_children:
        return own
    # the largest lane child; lanes are joined by daemon.stop()
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_repetition(args) -> dict:
    # the import is set-up (timed from launch); traced or not, it happens
    # before the measured work starts, and before any wrapping
    import repro  # noqa: F401
    import repro.serve  # noqa: F401

    tracing = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracing

        os.makedirs(args.trace, exist_ok=True)
        tracing = Tracing(f"{args.workload}-{args.seed}", args.trace)
        tracing.__enter__()
        # every top-level span of this process is a child of the "run" span
        root_id = tracing.recorder.new_id()
        tracing.recorder.root_parent = root_id
    work_start = time.perf_counter()
    measured: dict = {}

    def finish() -> None:
        """End of the measured work: stop tracing before checks run."""
        measured["wall_s"] = time.perf_counter() - work_start
        # sampled before the served oracle's solo run can raise it
        measured["peak_rss_mb"] = _peak_rss_mb(include_children=args.workload == "served")
        if tracing is not None and tracing.recorder.active:
            tracing.recorder.add(root_id, "run", work_start, time.perf_counter(), 0)
            tracing.write(os.path.join(args.trace, f"spans-{os.getpid()}.jsonl"))
            tracing.restore()

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    try:
        if args.workload == "served":
            out = run_served(
                args.seed, size, args.launch, args.setup_only, args.state_dir,
                oracle=args.oracle, finish=finish,
            )
        else:
            out = run_in_process(
                args.workload, args.seed, size, args.launch, args.setup_only, finish
            )
    finally:
        if tracing is not None:
            tracing.restore()
    out.update(measured)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="epoch seconds at which the parent started this process")
    parser.add_argument("--trace", default=None, help="directory for span files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    parser.add_argument("--oracle", action="store_true",
                        help="served: compare one job with a solo run of its spec")
    args = parser.parse_args(argv)
    os.makedirs(args.state_dir, exist_ok=True)
    out = run_repetition(args)
    out.update(workload=args.workload, seed=args.seed)
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    shutil.rmtree(os.path.join(args.state_dir, "oracle-cache"), ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
