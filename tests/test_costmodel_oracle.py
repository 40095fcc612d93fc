"""The signature-keyed cost model agrees bit for bit with an uncached oracle.

``SchemeCostModel`` caches abstract states and predictions by the effect
signatures along a scheme, so strategies that differ only in HPs their
effect ignores share a cache entry.  ``tests/oracles.py`` applies every
strategy from its full HP mapping to a fresh copy of the base model; any HP
missing from a method's signature makes the two disagree.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import costmodel
from repro.analysis.costmodel import SchemeCostModel, effect_signature
from repro.models import available_models, create_model
from repro.space import StrategySpace
from repro.space.scheme import CompressionScheme

from .oracles import reference_predict

SPACE = StrategySpace(include_quantization=True)

#: a state/prediction cache this small evicts on almost every new prefix
EVICTING_CACHE_SIZE = 4


def _assert_same(cost_model: SchemeCostModel, scheme: CompressionScheme) -> None:
    predicted = cost_model.predict(scheme)
    expected = reference_predict(cost_model.state(CompressionScheme()), scheme)
    assert predicted.to_payload() == expected.to_payload(), scheme.identifier
    assert repr(predicted.latency_ms) == repr(expected.latency_ms), scheme.identifier


@pytest.fixture(scope="module")
def cost_models():
    return {}


def _cost_model(cost_models, name: str, cache: str) -> SchemeCostModel:
    """One cost model per architecture and cache size, shared across draws."""
    if (name, cache) not in cost_models:
        cost_models[name, cache] = SchemeCostModel(create_model(name))
    return cost_models[name, cache]


@pytest.mark.parametrize("name", ["resnet20", "vgg8_tiny"])
def test_every_single_strategy_matches_reference(name):
    cost_model = SchemeCostModel(create_model(name))
    for index in range(len(SPACE)):
        _assert_same(cost_model, CompressionScheme((SPACE[index],)))
    # one shared model: strategies with equal signatures share an entry
    distinct = {effect_signature(SPACE[i]) for i in range(len(SPACE))}
    assert len(cost_model._predictions) == len(distinct) + 1 < len(SPACE)


scheme_indices = st.lists(st.integers(0, len(SPACE) - 1), min_size=0, max_size=5)


@pytest.mark.parametrize("cache", ["default", "evicting"])
@pytest.mark.parametrize("name", available_models())
@settings(max_examples=25, deadline=None, derandomize=True)
@given(indices=scheme_indices)
def test_drawn_schemes_match_reference(cost_models, name, cache, indices):
    scheme = CompressionScheme(tuple(SPACE[i] for i in indices))
    if cache == "default":
        _assert_same(_cost_model(cost_models, name, cache), scheme)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(costmodel, "CACHE_SIZE", EVICTING_CACHE_SIZE)
        cost_model = _cost_model(cost_models, name, cache)
        _assert_same(cost_model, scheme)
        assert len(cost_model._states) <= EVICTING_CACHE_SIZE
        assert len(cost_model._predictions) <= EVICTING_CACHE_SIZE


def test_signature_reads_only_its_hps():
    c3 = next(SPACE[i] for i in range(len(SPACE)) if SPACE[i].method_label == "C3")
    assert effect_signature(c3) == ("C3", float(c3.hp["HP2"]), float(c3.hp["HP6"]))
    shared = [
        SPACE[i] for i in range(len(SPACE))
        if effect_signature(SPACE[i]) == effect_signature(c3)
    ]
    assert len({s.hp["HP1"] for s in shared}) > 1  # HP1 does not enter the key
