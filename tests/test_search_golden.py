"""Golden regressions for two small paper-scale progressive searches.

The first pins every output of Algorithms 1 and 2 that a refactor of the
search loop could move: the learned embedding table (by sha256 of its
bytes), the Pareto schemes with the exact ``repr`` of their metrics, the
simulated cost, the driver's proposal accounting and the hypervolume after
every round.  The search loop's numeric kernels (TransR, record matching,
Pareto selection) promise bit-identical results, so the comparison is exact.

The second runs one round under a params :class:`Budget`, so every one-step
extension passes the static cost model's feasibility gate; it pins the
Pareto schemes, the cost, the budget-pruned counts in ``solver_stats`` and
the hypervolumes.  Cost predictions are bit-identical across cost-model
refactors, so this comparison is exact too.

To intentionally re-baseline after a behaviour-changing PR::

    pytest tests/test_search_golden.py --update-goldens

then review the JSON diff before committing.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import AutoMC
from repro.analysis.costmodel import Budget
from repro.knowledge.embedding import EmbeddingConfig
from repro.space import StrategySpace

GOLDEN_PATH = Path(__file__).parent / "goldens" / "progressive_search.json"
BUDGETED_GOLDEN_PATH = Path(__file__).parent / "goldens" / "budgeted_search.json"

METHODS = ["C1", "C2", "C3"]
SEED = 3
BUDGET_HOURS = 2.0

BUDGETED_METHODS = ["C1", "C3", "C4", "C6", "C7"]
#: a params ceiling well below resnet56's 0.86M, and a search budget the
#: first round of evaluations exhausts
MAX_PARAMS = 500_000
BUDGETED_HOURS = 0.1


def _pareto_payload(result) -> list:
    return [
        {
            "scheme": r.scheme.identifier,
            "accuracy": repr(r.accuracy),
            "params": repr(r.params),
            "cost": repr(r.cost),
        }
        for r in result.pareto
    ]


def _measure() -> dict:
    automc = AutoMC.paper_scale(
        "resnet56",
        "cifar10",
        budget_hours=BUDGET_HOURS,
        seed=SEED,
        space=StrategySpace(method_labels=METHODS),
        embedding_config=EmbeddingConfig(rounds=2, seed=SEED),
    )
    table = np.ascontiguousarray(automc.embeddings.table)
    result = automc.search()
    return {
        "embedding_sha256": hashlib.sha256(table.tobytes()).hexdigest(),
        "embedding_shape": list(table.shape),
        "pareto": _pareto_payload(result),
        "total_cost": repr(result.total_cost),
        "evaluations": result.evaluations,
        "rounds": result.rounds,
        "solver_stats": result.solver_stats,
        "hypervolumes": [repr(p.hypervolume) for p in result.trajectory],
    }


def _measure_budgeted() -> dict:
    automc = AutoMC.paper_scale(
        "resnet56",
        "cifar10",
        budget_hours=BUDGETED_HOURS,
        seed=SEED,
        space=StrategySpace(method_labels=BUDGETED_METHODS),
        embedding_config=EmbeddingConfig(rounds=1, seed=SEED),
    )
    automc.evaluator.set_budget(Budget(max_params=MAX_PARAMS))
    result = automc.search()
    return {
        "pareto": _pareto_payload(result),
        "total_cost": repr(result.total_cost),
        "evaluations": result.evaluations,
        "rounds": result.rounds,
        "budget_filtered": automc.evaluator.budget_filtered,
        "solver_stats": result.solver_stats,
        "hypervolumes": [repr(p.hypervolume) for p in result.trajectory],
    }


def _check_golden(path: Path, measured: dict, update_goldens: bool) -> None:
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"{path.name} regenerated; review the diff")

    assert path.exists(), f"missing {path}; generate it with pytest --update-goldens"
    expected = json.loads(path.read_text())
    # JSON round-trip so tuples/ints compare like the stored form
    measured = json.loads(json.dumps(measured))
    for key in sorted(expected):
        assert measured[key] == expected[key], f"{key} drifted from the golden"
    assert set(measured) == set(expected)


def test_progressive_search_matches_golden(update_goldens):
    _check_golden(GOLDEN_PATH, _measure(), update_goldens)


def test_budgeted_search_matches_golden(update_goldens):
    measured = _measure_budgeted()
    assert measured["rounds"] == 1
    assert measured["solver_stats"]["budget_pruned"] > 0
    _check_golden(BUDGETED_GOLDEN_PATH, measured, update_goldens)
