"""Experimental experience E extracted from the six source papers (§3.3.1).

Each record is one published result: *method X with (partial) setting Y
achieved parameter reduction PR and accuracy change AR on task Z*.  The
numbers below are transcriptions/derivations from the evaluation tables of
the six papers in Table 1 (LMA AAAI'20, LeGR CVPR'20, NS ICCV'17, SFP
IJCAI'18, HOS CVPR'20, LFB ICCV'19), rounded and normalised to the paper's
AR/PR convention:

* ``pr`` = (P(M) - P(S[M])) / P(M) in [0, 1]
* ``ar`` = (A(S[M]) - A(M)) / A(M), usually small and negative.

AutoMC never evaluates these tasks — they exist purely to teach
:math:`\\mathcal{NN}_{exp}` how each method's accuracy degrades with PR on
different kinds of tasks (small vs large models, 10 vs 100 vs 1000 classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..data.tasks import CompressionTask
from ..space.strategy import CompressionStrategy, StrategySpace

# ---------------------------------------------------------------------------
# Task descriptors for the benchmarks the source papers report on.
# ---------------------------------------------------------------------------
_TASKS: Dict[str, CompressionTask] = {
    "c10-r20": CompressionTask("cifar10-resnet20", 10, 32, 3, 50_000, "resnet20", 0.27, 0.08, 0.9153),
    "c10-r56": CompressionTask("cifar10-resnet56", 10, 32, 3, 50_000, "resnet56", 0.85, 0.25, 0.9303),
    "c10-r110": CompressionTask("cifar10-resnet110", 10, 32, 3, 50_000, "resnet110", 1.72, 0.51, 0.9350),
    "c10-vgg16": CompressionTask("cifar10-vgg16", 10, 32, 3, 50_000, "vgg16", 14.72, 0.63, 0.9366),
    "c100-vgg16": CompressionTask("cifar100-vgg16", 100, 32, 3, 50_000, "vgg16", 14.77, 0.63, 0.7351),
    "c100-r56": CompressionTask("cifar100-resnet56", 100, 32, 3, 50_000, "resnet56", 0.86, 0.25, 0.7137),
    "imagenet-r18": CompressionTask("imagenet-resnet18", 1000, 224, 3, 1_281_167, "resnet18", 11.69, 3.64, 0.6976),
    "imagenet-r34": CompressionTask("imagenet-resnet34", 1000, 224, 3, 1_281_167, "resnet34", 21.80, 7.34, 0.7331),
}


@dataclass(frozen=True)
class ExperienceRecord:
    """One (strategy-ish, task, AR, PR) tuple from a source paper."""

    method_label: str
    hp: Tuple[Tuple[str, object], ...]  # partial settings reported by the paper
    task: CompressionTask
    pr: float
    ar: float

    @property
    def target(self) -> np.ndarray:
        return np.array([self.ar, self.pr])


def _rec(method: str, task_key: str, pr: float, acc_drop_pct: float, **hp) -> ExperienceRecord:
    """Record helper: ``acc_drop_pct`` is the absolute accuracy change in %."""
    task = _TASKS[task_key]
    ar = (acc_drop_pct / 100.0) / task.model_accuracy
    return ExperienceRecord(
        method_label=method,
        hp=tuple(sorted(hp.items())),
        task=task,
        pr=pr,
        ar=ar,
    )


def default_experience() -> List[ExperienceRecord]:
    """The curated experience table (≈70 records, ~12 per method)."""
    records = [
        # --- C1 LMA (Xu et al., AAAI 2020): distillation-only compression;
        # large accuracy losses when used alone at high compression.
        _rec("C1", "c10-r56", 0.30, -2.1, HP2=0.28, HP4=3, HP5=0.5),
        _rec("C1", "c10-r56", 0.40, -4.8, HP2=0.36, HP4=3, HP5=0.5),
        _rec("C1", "c10-r56", 0.70, -11.9, HP2=0.44, HP4=6, HP5=0.3),
        _rec("C1", "c10-r20", 0.40, -5.6, HP2=0.36, HP4=3, HP5=0.5),
        _rec("C1", "c100-vgg16", 0.40, -19.5, HP2=0.36, HP4=6, HP5=0.3),
        _rec("C1", "c100-vgg16", 0.70, -20.4, HP2=0.44, HP4=6, HP5=0.3),
        _rec("C1", "c10-vgg16", 0.40, -3.9, HP2=0.36, HP4=3, HP5=0.5),
        _rec("C1", "imagenet-r18", 0.30, -3.2, HP2=0.28, HP4=3, HP5=0.5),
        _rec("C1", "c10-r56", 0.12, -0.6, HP2=0.12, HP4=3, HP5=0.5),
        _rec("C1", "c100-r56", 0.40, -8.3, HP2=0.36, HP4=6, HP5=0.3),
        # --- C2 LeGR (Chin et al., CVPR 2020): excellent at mild pruning,
        # degrades faster past ~60% reduction.
        _rec("C2", "c10-r56", 0.20, +0.1, HP2=0.2, HP6=0.9, HP8="l2_weight"),
        _rec("C2", "c10-r56", 0.40, -0.4, HP2=0.36, HP6=0.9, HP8="l2_weight"),
        _rec("C2", "c10-r56", 0.70, -2.1, HP2=0.44, HP6=0.9, HP8="l2_weight"),
        _rec("C2", "c10-r20", 0.40, -0.7, HP2=0.36, HP6=0.7, HP8="l2_weight"),
        _rec("C2", "c10-r110", 0.40, -0.2, HP2=0.36, HP6=0.9, HP8="l1_weight"),
        _rec("C2", "c100-vgg16", 0.40, -0.3, HP2=0.36, HP6=0.9, HP8="l2_weight"),
        _rec("C2", "c100-vgg16", 0.70, -1.6, HP2=0.44, HP6=0.9, HP8="l2_weight"),
        _rec("C2", "imagenet-r18", 0.30, -1.2, HP2=0.28, HP6=0.7, HP8="l2_weight"),
        _rec("C2", "imagenet-r34", 0.30, -0.9, HP2=0.28, HP6=0.7, HP8="l2_bn_param"),
        _rec("C2", "c10-vgg16", 0.40, -0.2, HP2=0.36, HP6=0.9, HP8="l2_weight"),
        _rec("C2", "c10-r56", 0.55, -1.1, HP2=0.44, HP6=0.9, HP8="l2_weight"),
        # --- C3 NS (Liu et al., ICCV 2017): solid all-rounder, slightly
        # behind LeGR at mild ratios, better FLOPs reduction.
        _rec("C3", "c10-r56", 0.40, -1.7, HP2=0.36, HP6=0.9),
        _rec("C3", "c10-r56", 0.70, -4.9, HP2=0.44, HP6=0.9),
        _rec("C3", "c10-vgg16", 0.70, -0.1, HP2=0.44, HP6=0.9),
        _rec("C3", "c100-vgg16", 0.40, -0.1, HP2=0.36, HP6=0.9),
        _rec("C3", "c100-vgg16", 0.70, -1.1, HP2=0.44, HP6=0.9),
        _rec("C3", "c10-r20", 0.40, -1.9, HP2=0.36, HP6=0.7),
        _rec("C3", "c10-r110", 0.40, -0.9, HP2=0.36, HP6=0.9),
        _rec("C3", "c100-r56", 0.40, -2.1, HP2=0.36, HP6=0.9),
        _rec("C3", "imagenet-r18", 0.30, -1.8, HP2=0.28, HP6=0.7),
        _rec("C3", "c10-vgg16", 0.40, +0.1, HP2=0.36, HP6=0.9),
        # --- C4 SFP (He et al., IJCAI 2018): soft pruning recovers well at
        # moderate ratios; needs many back-prop epochs.
        _rec("C4", "c10-r56", 0.40, -2.6, HP2=0.36, HP9=0.4, HP10=1),
        _rec("C4", "c10-r56", 0.70, -4.0, HP2=0.44, HP9=0.5, HP10=1),
        _rec("C4", "c10-r20", 0.40, -3.4, HP2=0.36, HP9=0.4, HP10=1),
        _rec("C4", "c10-r110", 0.40, -1.2, HP2=0.36, HP9=0.4, HP10=3),
        _rec("C4", "c100-vgg16", 0.40, -0.6, HP2=0.36, HP9=0.4, HP10=1),
        _rec("C4", "c100-vgg16", 0.70, -2.4, HP2=0.44, HP9=0.5, HP10=1),
        _rec("C4", "c100-r56", 0.40, -2.7, HP2=0.36, HP9=0.4, HP10=1),
        _rec("C4", "imagenet-r34", 0.30, -2.1, HP2=0.28, HP9=0.3, HP10=1),
        _rec("C4", "imagenet-r18", 0.30, -2.5, HP2=0.28, HP9=0.3, HP10=1),
        _rec("C4", "c10-vgg16", 0.40, -1.1, HP2=0.36, HP9=0.4, HP10=3),
        # --- C5 HOS (Chatzikonstantinou et al., CVPR 2020): strongest at
        # aggressive compression thanks to the low-rank second stage, but
        # weak on many-class tasks (VGG-16/CIFAR-100 drops hard).
        _rec("C5", "c10-r56", 0.40, -0.9, HP2=0.36, HP11="P1", HP12="k34"),
        _rec("C5", "c10-r56", 0.70, -1.8, HP2=0.44, HP11="P1", HP12="k34"),
        _rec("C5", "c10-r20", 0.40, -1.5, HP2=0.36, HP11="P1", HP12="skew_kur"),
        _rec("C5", "c10-r110", 0.40, -0.5, HP2=0.36, HP11="P2", HP12="k34"),
        _rec("C5", "c10-vgg16", 0.70, -1.2, HP2=0.44, HP11="P1", HP12="k34"),
        _rec("C5", "c100-vgg16", 0.40, -7.9, HP2=0.36, HP11="P1", HP12="l1norm"),
        _rec("C5", "c100-vgg16", 0.70, -10.3, HP2=0.44, HP11="P1", HP12="l1norm"),
        _rec("C5", "c100-r56", 0.40, -3.3, HP2=0.36, HP11="P1", HP12="k34"),
        _rec("C5", "imagenet-r18", 0.30, -1.9, HP2=0.28, HP11="P3", HP12="k34"),
        _rec("C5", "imagenet-r34", 0.30, -1.4, HP2=0.28, HP11="P1", HP12="k34"),
        _rec("C5", "c10-r56", 0.55, -1.3, HP2=0.44, HP11="P1", HP12="k34"),
        # --- C6 LFB (Li et al., ICCV 2019): shines on small/shallow models,
        # collapses on very deep ones (the paper's ResNet-164 observation).
        _rec("C6", "c10-r20", 0.40, +0.3, HP2=0.36, HP15=1, HP16="MSE"),
        _rec("C6", "c10-r56", 0.40, -1.2, HP2=0.36, HP15=1, HP16="MSE"),
        _rec("C6", "c10-r56", 0.70, -0.9, HP2=0.44, HP15=1.5, HP16="MSE"),
        _rec("C6", "c10-r110", 0.40, -4.7, HP2=0.36, HP15=1, HP16="CE"),
        _rec("C6", "c100-vgg16", 0.40, -9.2, HP2=0.36, HP15=1, HP16="MSE"),
        _rec("C6", "c100-vgg16", 0.57, -12.5, HP2=0.44, HP15=3, HP16="MSE"),
        _rec("C6", "c10-vgg16", 0.40, -2.3, HP2=0.36, HP15=1, HP16="NLL"),
        _rec("C6", "imagenet-r18", 0.30, -2.2, HP2=0.28, HP15=0.5, HP16="CE"),
        _rec("C6", "c100-r56", 0.40, -3.9, HP2=0.36, HP15=1, HP16="MSE"),
        _rec("C6", "c10-r20", 0.60, -0.8, HP2=0.44, HP15=1.5, HP16="MSE"),
        # --- C8 PTQ extension (Distiller-style post-training quantization):
        # removes no parameters (pr = 0) but halves/quarters weight storage;
        # int8 costs a few tenths of a point, fp16 is essentially free, and
        # more calibration batches tighten int8 activation scales.
        _rec("C8", "c10-r56", 0.0, -0.3, HP19="int8", HP20=4),
        _rec("C8", "c10-r56", 0.0, -0.6, HP19="int8", HP20=1),
        _rec("C8", "c10-r56", 0.0, -0.05, HP19="fp16"),
        _rec("C8", "c10-r20", 0.0, -0.4, HP19="int8", HP20=2),
        _rec("C8", "c10-vgg16", 0.0, -0.2, HP19="int8", HP20=2),
        _rec("C8", "c100-vgg16", 0.0, -0.7, HP19="int8", HP20=4),
        _rec("C8", "c100-r56", 0.0, -0.5, HP19="int8", HP20=2),
        _rec("C8", "imagenet-r18", 0.0, -0.9, HP19="int8", HP20=4),
        _rec("C8", "imagenet-r18", 0.0, -0.1, HP19="fp16"),
        _rec("C8", "c10-r110", 0.0, -0.3, HP19="int8", HP20=4),
    ]
    # Fine-tune-epoch sensitivity: every method recovers with more epochs.
    for method in ("C1", "C2", "C3", "C5", "C6"):
        for hp1, bonus in ((0.1, -0.8), (0.3, -0.2), (0.5, +0.1)):
            records.append(_rec(method, "c10-r56", 0.40, -2.0 + bonus * 2, HP1=hp1, HP2=0.36))
    return records


# ---------------------------------------------------------------------------
# Matching records to strategies in the live search space.
# ---------------------------------------------------------------------------
def nearest_strategy(space: StrategySpace, record: ExperienceRecord) -> Optional[CompressionStrategy]:
    """The strategy in ``space`` closest to a record's reported setting.

    Matching is by method, then by minimal normalised distance over the
    hyperparameters the record specifies (categoricals count 0/1); see
    :meth:`StrategySpace.nearest`, which memoises the match per space.
    """
    return space.nearest(record.method_label, record.hp)
