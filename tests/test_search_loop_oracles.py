"""The search loop's fast paths agree bit for bit with their oracles.

TransR epochs, Pareto masks, non-dominated sorting and experience-record
matching were rewritten to keep float summation order and tie-breaking
unchanged; ``tests/oracles.py`` holds the implementations they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.pareto import nondominated_sort, pareto_mask
from repro.knowledge import (
    TransR,
    TransRConfig,
    build_knowledge_graph,
    default_experience,
    nearest_strategy,
)
from repro.knowledge.experience import ExperienceRecord
from repro.space import StrategySpace

from .oracles import (
    ReferenceTransR,
    reference_nearest_strategy,
    reference_nondominated_sort,
    reference_pareto_mask,
)


@pytest.fixture(scope="module")
def small_graph():
    return build_knowledge_graph(StrategySpace(method_labels=["C3", "C4"]))


@pytest.fixture(scope="module")
def full_graph():
    return build_knowledge_graph(StrategySpace())


def _assert_transr_equal(graph, config: TransRConfig, epochs: int) -> None:
    fast = TransR(graph.num_entities, graph.num_relations, config)
    oracle = ReferenceTransR(graph.num_entities, graph.num_relations, config)
    for _ in range(epochs):
        fast.train_epoch(graph.triplets)
        oracle.train_epoch(graph.triplets)
    assert np.array_equal(fast.entities, oracle.entities)
    assert np.array_equal(fast.relations, oracle.relations)
    assert np.array_equal(fast.projections, oracle.projections)
    assert fast.loss_history == oracle.loss_history


class TestTransROracle:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        epochs=st.integers(1, 3),
        batch_size=st.sampled_from([3, 16, 64, 512]),
        margin=st.sampled_from([0.05, 1.0, 4.0]),
        dim=st.sampled_from([4, 16]),
    )
    def test_small_graph(self, small_graph, seed, epochs, batch_size, margin, dim):
        config = TransRConfig(
            entity_dim=dim, relation_dim=dim, margin=margin,
            batch_size=batch_size, seed=seed,
        )
        _assert_transr_equal(small_graph, config, epochs)

    @settings(max_examples=2, deadline=None)
    @given(seed=st.integers(0, 2**16), epochs=st.integers(1, 2))
    def test_full_graph(self, full_graph, seed, epochs):
        _assert_transr_equal(full_graph, TransRConfig(seed=seed), epochs)


# ---------------------------------------------------------------------------
# Pareto
# ---------------------------------------------------------------------------
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]


def _grid_points(max_rows=24):
    """Integer grids: many exact ties and duplicate rows."""
    return st.integers(0, max_rows).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=st.integers(-3, 3).map(float))
    )


def _special_points(max_rows=24):
    """Signed zeros, infinities and NaN rows."""
    return st.integers(0, max_rows).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=st.sampled_from(_SPECIAL))
    )


def _float_points(max_rows=40):
    return st.integers(0, max_rows).flatmap(
        lambda n: arrays(
            np.float64, (n, 2),
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
    )


_ANY_POINTS = st.one_of(_grid_points(), _special_points(), _float_points())


class TestParetoOracle:
    @settings(max_examples=300, deadline=None)
    @given(_ANY_POINTS)
    def test_mask_matches_oracle(self, points):
        np.testing.assert_array_equal(pareto_mask(points), reference_pareto_mask(points))

    @settings(max_examples=200, deadline=None)
    @given(_ANY_POINTS)
    def test_nondominated_sort_matches_oracle(self, points):
        fast = nondominated_sort(points)
        oracle = reference_nondominated_sort(points)
        assert len(fast) == len(oracle)
        for got, expected in zip(fast, oracle):
            np.testing.assert_array_equal(got, expected)

    def test_empty_input(self):
        assert pareto_mask(np.zeros((0, 2))).shape == (0,)
        assert nondominated_sort(np.zeros((0, 2))) == []

    @pytest.mark.parametrize("shape", [(4,), (3, 1), (3, 3), (2, 2, 2)])
    def test_non_two_column_input_raises(self, shape):
        with pytest.raises(ValueError):
            pareto_mask(np.zeros(shape))

    def test_signed_zeros_are_equal(self):
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [-0.0, 0.5]])
        np.testing.assert_array_equal(pareto_mask(points), [True, True, False])

    def test_infinities_without_sentinel(self):
        points = np.array([[-np.inf, -np.inf], [1.0, -np.inf], [np.inf, -np.inf]])
        np.testing.assert_array_equal(pareto_mask(points), [False, False, True])
        lone = np.array([[-np.inf, -np.inf]])
        assert pareto_mask(lone).all()

    def test_nan_rows_never_dominated_and_dominate_nothing(self):
        points = np.array([[np.nan, 5.0], [0.0, 0.0], [1.0, 1.0], [np.nan, np.nan]])
        np.testing.assert_array_equal(pareto_mask(points), [True, False, True, True])


# ---------------------------------------------------------------------------
# experience-record matching
# ---------------------------------------------------------------------------
_SUBSETS = [
    None,
    ["C1", "C2", "C3"],
    ["C3", "C4"],
    ["C5", "C6"],
    ["C2"],
    ["C7", "C8"],
]


class TestNearestStrategyOracle:
    @pytest.mark.parametrize("methods", _SUBSETS)
    def test_every_default_record(self, methods):
        space = (
            StrategySpace(include_quantization=True)
            if methods is None else StrategySpace(method_labels=methods)
        )
        for record in default_experience():
            assert nearest_strategy(space, record) is reference_nearest_strategy(
                space, record
            ), record

    def test_distance_ties_go_to_first_strategy(self):
        space = StrategySpace(method_labels=["C2", "C3"])
        task = default_experience()[0].task
        tied = [
            # HP1 alone: every strategy with HP1=0.3 is at distance 0
            ExperienceRecord("C3", (("HP1", 0.3),), task, 0.1, -0.01),
            # a categorical match leaves the numeric HPs to break nothing
            ExperienceRecord("C2", (("HP8", "l1_weight"),), task, 0.1, -0.01),
            # off-grid HP2 halfway between two grid values
            ExperienceRecord("C3", (("HP2", 0.16), ("HP6", 0.8)), task, 0.2, -0.02),
            # no HP the method has: all strategies tie
            ExperienceRecord("C3", (("HP19", "int8"),), task, 0.0, 0.0),
        ]
        for record in tied:
            got = nearest_strategy(space, record)
            assert got is reference_nearest_strategy(space, record), record
        assert nearest_strategy(space, tied[-1]) is space.of_method("C3")[0]

    def test_missing_method_matches_nothing(self):
        space = StrategySpace(method_labels=["C3"])
        record = default_experience()[0]
        assert record.method_label != "C3"
        assert nearest_strategy(space, record) is None

