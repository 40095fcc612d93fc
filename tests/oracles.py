"""Reference implementations kept as test oracles.

The production search loop (TransR epochs, record matching, Pareto
selection) was rewritten for speed under a bit-identity contract: same float
summation order, same tie-breaking.  These are the straightforward versions
it replaced; the oracle tests require the production code to agree with them
exactly (``np.array_equal``, identical indices, identical objects).

The static cost model's caches are keyed by effect signature; its oracle
applies every strategy from its full HP mapping to a fresh copy of the base
model, with no cache at all.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.analysis.costmodel import (
    _LEGR_PRETRAIN_EPOCHS,
    DEFAULT_WEIGHT_BITS,
    AbstractModel,
    CostPrediction,
    _abstract_basis_factorize,
    _abstract_legr,
    _abstract_prune,
    _abstract_tucker_factorize,
    _abstract_uniform_scale,
)
from repro.knowledge.experience import ExperienceRecord
from repro.knowledge.transr import TransR
from repro.space.hyperparams import HP_GRID
from repro.space.scheme import CompressionScheme
from repro.space.strategy import CompressionStrategy, StrategySpace


# ---------------------------------------------------------------------------
# TransR: per-triplet np.add.at scatters
# ---------------------------------------------------------------------------
class ReferenceTransR(TransR):
    """TransR whose epoch scores and scatters triplet by triplet."""

    def score(self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
        w = self.projections[rels]  # (n, k, d)
        h = np.einsum("nkd,nd->nk", w, self.entities[heads])
        t = np.einsum("nkd,nd->nk", w, self.entities[tails])
        diff = h + self.relations[rels] - t
        return (diff ** 2).sum(axis=1)

    def train_epoch(self, triplets: np.ndarray) -> float:
        cfg = self.config
        rng = self._rng
        order = rng.permutation(len(triplets))
        total_loss = 0.0
        n_entities = len(self.entities)
        for start in range(0, len(order), cfg.batch_size):
            batch = triplets[order[start : start + cfg.batch_size]]
            heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            corrupt_head = rng.random(len(batch)) < 0.5
            random_entities = rng.integers(0, n_entities, size=len(batch))
            neg_heads = np.where(corrupt_head, random_entities, heads)
            neg_tails = np.where(corrupt_head, tails, random_entities)

            pos = self.score(heads, rels, tails)
            neg = self.score(neg_heads, rels, neg_tails)
            violation = cfg.margin + pos - neg
            active = violation > 0
            total_loss += float(violation[active].sum())
            if not active.any():
                continue
            self._reference_sgd_step(
                heads[active], rels[active], tails[active],
                neg_heads[active], neg_tails[active],
            )
        self._normalize()
        self.loss_history.append(total_loss / max(len(triplets), 1))
        return self.loss_history[-1]

    def _reference_sgd_step(self, heads, rels, tails, neg_heads, neg_tails) -> None:
        lr = self.config.learning_rate
        ent_grad = np.zeros_like(self.entities)
        ent_count = np.zeros(len(self.entities))
        rel_grad = np.zeros_like(self.relations)
        rel_count = np.zeros(len(self.relations))
        proj_grad = np.zeros_like(self.projections)

        for sign, h_idx, t_idx in ((1.0, heads, tails), (-1.0, neg_heads, neg_tails)):
            w = self.projections[rels]  # (n, k, d)
            eh = self.entities[h_idx]
            et = self.entities[t_idx]
            u = np.einsum("nkd,nd->nk", w, eh) + self.relations[rels] - np.einsum(
                "nkd,nd->nk", w, et
            )  # (n, k)
            grad_h = 2.0 * np.einsum("nkd,nk->nd", w, u)
            grad_r = 2.0 * u
            grad_w = 2.0 * np.einsum("nk,nd->nkd", u, eh - et)
            np.add.at(ent_grad, h_idx, sign * grad_h)
            np.add.at(ent_grad, t_idx, -sign * grad_h)
            np.add.at(ent_count, h_idx, 1.0)
            np.add.at(ent_count, t_idx, 1.0)
            np.add.at(rel_grad, rels, sign * grad_r)
            np.add.at(rel_count, rels, 1.0)
            np.add.at(proj_grad, rels, sign * grad_w)

        ent_scale = np.maximum(ent_count, 1.0)[:, None]
        rel_scale = np.maximum(rel_count, 1.0)
        self.entities -= lr * ent_grad / ent_scale
        self.relations -= lr * rel_grad / rel_scale[:, None]
        self.projections -= lr * proj_grad / rel_scale[:, None, None]


# ---------------------------------------------------------------------------
# Pareto: O(n^2) row-by-row domination
# ---------------------------------------------------------------------------
def reference_pareto_mask(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated_by_i = np.all(points <= points[i], axis=1) & np.any(
            points < points[i], axis=1
        )
        mask &= ~dominated_by_i
        mask[i] = True
    return mask


def reference_nondominated_sort(points: np.ndarray) -> List[np.ndarray]:
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    dominated_count = np.zeros(n, dtype=np.int64)
    dominates: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        better_eq = np.all(points >= points[i], axis=1)
        strictly = np.any(points > points[i], axis=1)
        dominators = np.flatnonzero(better_eq & strictly)
        dominated_count[i] = len(dominators)
        for j in dominators:
            dominates[j].append(i)
    fronts: List[np.ndarray] = []
    current = np.flatnonzero(dominated_count == 0)
    while len(current):
        fronts.append(current)
        next_front = []
        for i in current:
            for j in dominates[i]:
                dominated_count[j] -= 1
                if dominated_count[j] == 0:
                    next_front.append(j)
        current = np.asarray(sorted(set(next_front)), dtype=np.int64)
    return fronts


# ---------------------------------------------------------------------------
# Record matching: one Python distance per (record, candidate) pair
# ---------------------------------------------------------------------------
def reference_nearest_strategy(
    space: StrategySpace, record: ExperienceRecord
) -> Optional[CompressionStrategy]:
    candidates = space.of_method(record.method_label)
    if not candidates:
        return None
    recorded = dict(record.hp)

    def distance(strategy: CompressionStrategy) -> float:
        total = 0.0
        hp = strategy.hp
        for name, value in recorded.items():
            if name not in hp:
                continue
            if isinstance(value, str):
                total += 0.0 if hp[name] == value else 1.0
            else:
                grid = [v for v in HP_GRID[name] if not isinstance(v, str)]
                span = (max(grid) - min(grid)) or 1.0
                total += abs(float(hp[name]) - float(value)) / span
        return total

    return min(candidates, key=distance)


# ---------------------------------------------------------------------------
# Static cost model: every strategy applied from its HP mapping, uncached
# ---------------------------------------------------------------------------
def _reference_prune_mode(label: str, hp) -> str:
    if label == "C3":
        return "drain"
    if label == "C4":
        return "l2_norm"
    if label == "C5" and hp.get("HP11") == "P2" and hp.get("HP12") == "l1norm":
        return "l1_norm"
    return "proportional"


def reference_apply_strategy(model: AbstractModel, strategy, base_params: int) -> None:
    label = strategy.method_label
    hp = strategy.hp
    budget = int(round(float(hp.get("HP2", 0.0)) * base_params))
    mode = _reference_prune_mode(label, hp)
    if label == "C1":
        _abstract_uniform_scale(model, budget)
    elif label == "C2":
        generations = int(
            round(float(hp.get("HP7", 0.5)) * _LEGR_PRETRAIN_EPOCHS)
        )
        _abstract_legr(
            model,
            budget,
            max_ratio=float(hp.get("HP6", 0.9)),
            criterion=str(hp.get("HP8", "l2_weight")),
            generations=generations,
        )
    elif label == "C3":
        _abstract_prune(model, budget, max_ratio=float(hp.get("HP6", 0.9)), mode=mode)
    elif label == "C4":
        _abstract_prune(model, budget, max_ratio=0.9, mode=mode)
    elif label == "C5":
        removed = _abstract_prune(
            model, int(round(budget * 0.5)), max_ratio=0.9, mode=mode
        )
        _abstract_tucker_factorize(model, budget - removed)
    elif label == "C6":
        _abstract_basis_factorize(model, budget)
    elif label == "C7":
        model.weight_bits = int(hp.get("HP17", DEFAULT_WEIGHT_BITS))
    elif label == "C8":
        model.weight_bits = 8 if str(hp.get("HP19", "int8")) == "int8" else 16
    else:
        raise ValueError(f"no effect signature for method {label!r}")


def reference_predict(base: AbstractModel, scheme: CompressionScheme) -> CostPrediction:
    """Prediction for ``scheme`` from a fresh copy of ``base``, no caching."""
    base_params = base.params()
    state = base.clone()
    for strategy in scheme:
        reference_apply_strategy(state, strategy, base_params)
    return state.predict()
