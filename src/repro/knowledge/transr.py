"""TransR knowledge-graph embedding (Lin et al., AAAI 2015) — Eq. 2.

Entities live in R^d, relations in R^k, and each relation owns a projection
matrix W_r in R^{k x d}.  A true triplet (h, r, t) should satisfy
``W_r e_h + e_r ≈ W_r e_t``; training minimises a margin ranking loss between
true triplets and corrupted negatives, with hand-derived gradients (the
model is small enough that explicit numpy gradients beat the autodiff tape).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class TransRConfig:
    entity_dim: int = 32
    relation_dim: int = 32
    margin: float = 1.0
    learning_rate: float = 0.01
    batch_size: int = 512
    seed: int = 0


class TransR:
    """Margin-ranking TransR trainer over integer triplet arrays."""

    def __init__(self, num_entities: int, num_relations: int, config: Optional[TransRConfig] = None):
        self.config = config or TransRConfig()
        rng = np.random.default_rng(self.config.seed)
        d, k = self.config.entity_dim, self.config.relation_dim
        bound = 6.0 / np.sqrt(d)
        self.entities = rng.uniform(-bound, bound, size=(num_entities, d))
        self.relations = rng.uniform(-bound, bound, size=(num_relations, k))
        self.projections = np.tile(np.eye(k, d), (num_relations, 1, 1))
        self.projections += rng.normal(0, 0.01, size=self.projections.shape)
        self._normalize()
        self._rng = rng
        self.loss_history: List[float] = []

    # ------------------------------------------------------------------ #
    def _normalize(self) -> None:
        norms = np.linalg.norm(self.entities, axis=1, keepdims=True)
        np.divide(self.entities, np.maximum(norms, 1.0), out=self.entities)
        rnorms = np.linalg.norm(self.relations, axis=1, keepdims=True)
        np.divide(self.relations, np.maximum(rnorms, 1.0), out=self.relations)

    def _residuals(self, w: np.ndarray, heads, rels, tails) -> np.ndarray:
        """W_r e_h + e_r - W_r e_t per triplet, given ``w = projections[rels]``."""
        h = np.einsum("nkd,nd->nk", w, self.entities[heads])
        t = np.einsum("nkd,nd->nk", w, self.entities[tails])
        return h + self.relations[rels] - t

    def score(self, heads: np.ndarray, rels: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """||W_r e_h + e_r - W_r e_t||^2 for each triplet (lower = better)."""
        diff = self._residuals(self.projections[rels], heads, rels, tails)
        return (diff ** 2).sum(axis=1)

    # ------------------------------------------------------------------ #
    def train_epoch(self, triplets: np.ndarray) -> float:
        """One pass of margin-ranking SGD with uniform negative sampling."""
        cfg = self.config
        rng = self._rng
        order = rng.permutation(len(triplets))
        total_loss = 0.0
        n_entities = len(self.entities)
        for start in range(0, len(order), cfg.batch_size):
            batch = triplets[order[start : start + cfg.batch_size]]
            heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
            # Corrupt head or tail uniformly.
            corrupt_head = rng.random(len(batch)) < 0.5
            random_entities = rng.integers(0, n_entities, size=len(batch))
            neg_heads = np.where(corrupt_head, random_entities, heads)
            neg_tails = np.where(corrupt_head, tails, random_entities)

            w = self.projections[rels]  # (n, k, d), shared by both scores
            pos_u = self._residuals(w, heads, rels, tails)
            neg_u = self._residuals(w, neg_heads, rels, neg_tails)
            violation = cfg.margin + (pos_u ** 2).sum(axis=1) - (neg_u ** 2).sum(axis=1)
            active = violation > 0
            total_loss += float(violation[active].sum())
            if not active.any():
                continue
            self._sgd_step(
                w[active], rels[active],
                heads[active], tails[active], pos_u[active],
                neg_heads[active], neg_tails[active], neg_u[active],
            )
        self._normalize()
        self.loss_history.append(total_loss / max(len(triplets), 1))
        return self.loss_history[-1]

    def _sgd_step(self, w, rels, heads, tails, pos_u, neg_heads, neg_tails, neg_u) -> None:
        """Apply gradients of (pos_score - neg_score) for violating triplets.

        ``w`` and the residuals ``pos_u``/``neg_u`` are the ones scoring
        computed.  Many triplets in a batch touch the *same* relation (there
        are only five), so raw accumulation explodes; gradients are averaged
        per parameter (entity / relation / projection) before the update.

        Every accumulator is a sequential sum from +0.0 in triplet order,
        positive triplets before negative ones, as one ``np.add.at`` per
        parameter would sum; relation and projection rows are grouped per
        relation by a stable sort and summed with ``np.add.reduce``.
        """
        lr = self.config.learning_rate
        n_relations = len(self.relations)

        grad_h = 2.0 * np.einsum("nkd,nk->nd", w, pos_u)
        neg_grad_h = 2.0 * np.einsum("nkd,nk->nd", w, neg_u)
        ent_idx = np.concatenate([heads, tails, neg_heads, neg_tails])
        ent_grad = np.zeros_like(self.entities)
        np.add.at(ent_grad, ent_idx, np.concatenate([grad_h, -grad_h, -neg_grad_h, neg_grad_h]))
        ent_count = np.bincount(ent_idx, minlength=len(self.entities)).astype(np.float64)

        # Signed residuals and entity differences, positives then negatives;
        # flipping u's sign flips each gradient row exactly (up to the sign
        # of a zero, which a sum from +0.0 ignores).
        rows_rel = np.concatenate([rels, rels])
        order = np.argsort(rows_rel, kind="stable")
        u = np.concatenate([pos_u, -neg_u])[order]
        diff = np.concatenate(
            [self.entities[heads] - self.entities[tails],
             self.entities[neg_heads] - self.entities[neg_tails]]
        )[order]
        grad_r = 2.0 * u
        grad_w = 2.0 * np.einsum("nk,nd->nkd", u, diff)
        rel_count = np.bincount(rows_rel, minlength=n_relations).astype(np.float64)
        bounds = np.concatenate([[0], np.cumsum(rel_count, dtype=np.int64)])
        rel_grad = np.zeros_like(self.relations)
        proj_grad = np.zeros_like(self.projections)
        for r in np.flatnonzero(rel_count):
            rows = slice(bounds[r], bounds[r + 1])
            rel_grad[r] = np.add.reduce(grad_r[rows], axis=0, initial=0.0)
            proj_grad[r] = np.add.reduce(grad_w[rows], axis=0, initial=0.0)

        ent_scale = np.maximum(ent_count, 1.0)[:, None]
        rel_scale = np.maximum(rel_count, 1.0)
        self.entities -= lr * ent_grad / ent_scale
        self.relations -= lr * rel_grad / rel_scale[:, None]
        self.projections -= lr * proj_grad / rel_scale[:, None, None]

    # ------------------------------------------------------------------ #
    def fit(self, triplets: np.ndarray, epochs: int = 20) -> List[float]:
        for _ in range(epochs):
            self.train_epoch(triplets)
        return self.loss_history

    def embedding_of(self, entity_id: int) -> np.ndarray:
        return self.entities[entity_id].copy()
