"""Golden regression for one small paper-scale progressive search.

Pins every output of Algorithms 1 and 2 that a refactor of the search loop
could move: the learned embedding table (by sha256 of its bytes), the Pareto
schemes with the exact ``repr`` of their metrics, the simulated cost, the
driver's proposal accounting and the hypervolume after every round.  The
search loop's numeric kernels (TransR, record matching, Pareto selection)
promise bit-identical results, so the comparison is exact.

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
from repro.knowledge.embedding import EmbeddingConfig
from repro.space import StrategySpace

GOLDEN_PATH = Path(__file__).parent / "goldens" / "progressive_search.json"

METHODS = ["C1", "C2", "C3"]
SEED = 3
BUDGET_HOURS = 2.0


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
        "pareto": [
            {
                "scheme": r.scheme.identifier,
                "accuracy": repr(r.accuracy),
                "params": repr(r.params),
                "cost": repr(r.cost),
            }
            for r in result.pareto
        ],
        "total_cost": repr(result.total_cost),
        "evaluations": result.evaluations,
        "rounds": result.rounds,
        "solver_stats": result.solver_stats,
        "hypervolumes": [repr(p.hypervolume) for p in result.trajectory],
    }


def test_progressive_search_matches_golden(update_goldens):
    measured = _measure()
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        pytest.skip("progressive search golden regenerated; review the diff")

    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with pytest --update-goldens"
    )
    expected = json.loads(GOLDEN_PATH.read_text())
    # JSON round-trip so tuples/ints compare like the stored form
    measured = json.loads(json.dumps(measured))
    for key in sorted(expected):
        assert measured[key] == expected[key], f"{key} drifted from the golden"
    assert set(measured) == set(expected)
