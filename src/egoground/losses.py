"""Set matching and the detection / grounding training objectives.

Both tasks train through one DETR-style set loss (``total_loss``).  Grounding
is one-object detection: its ground truth is the target box with class 0 of
the grounding logits, and lambda_ground weights its class term where
detection uses lambda_cls.  Matching is min-cost bipartite assignment over a
(K preds, G truths) cost matrix; ties between equal-cost assignments resolve
to the lexicographically smallest pair list so runs are reproducible.  The
classification term is a sigmoid focal loss normalized by the number of
matched predictions, with unmatched predictions supervised toward
all-negative (background / not the target).  Box regression is L1 on
centers, on log-extent ratios and on the (sin, cos) of each angle, which
makes 0 and 2 pi identical.  ``total_loss`` adds, for grounding, a mean
binary cross-entropy over per-voxel relevance logits against
inside-the-target-box labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import NonFiniteError, Tensor, _sigmoid
from .boxes import Box9DoF

Array = np.ndarray


@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 1.0
    lambda_box: float = 1.0
    lambda_ground: float = 1.0
    lambda_spatial: float = 0.01

    def __post_init__(self):
        for name in ("lambda_cls", "lambda_box", "lambda_ground", "lambda_spatial"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass
class Assignment:
    pairs: list[tuple[int, int]]
    total_cost: float


@dataclass
class LossBreakdown:
    """Component values (unweighted) plus their weighted total."""

    task: str
    cls: float      # focal classification (detection) or grounding confidence term
    box: float
    spatial: float
    total: float
    weights: LossWeights


@dataclass
class DetectionTargets:
    boxes: list[Box9DoF]
    classes: list[int]
    num_classes: int


@dataclass
class GroundingTargets:
    box: Box9DoF
    relevance_labels: Array | None  # per-voxel 0/1, or None when relevance is off


def _lsa_total(cost: Array) -> float:
    if cost.shape[0] == 0 or cost.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def _lex_smallest_pairs(cost: Array, target: float) -> list[tuple[int, int]]:
    """Among all min-cost assignments, pick the lexicographically smallest
    pair list (pairs sorted by prediction index).  Each position greedily
    takes the smallest (row, col) whose completion still reaches the optimum.
    """
    k, g = cost.shape
    m = min(k, g)
    tol = 1e-9 * max(1.0, abs(target))
    pairs: list[tuple[int, int]] = []
    cols = list(range(g))
    row_start = 0
    acc = 0.0
    for pos in range(m):
        need = m - pos - 1
        chosen = None
        for i in range(row_start, k):
            if k - i - 1 < need:
                break
            for j in cols:
                rest_rows = np.arange(i + 1, k)
                rest_cols = np.array([c for c in cols if c != j], dtype=np.intp)
                best_rest = _lsa_total(cost[np.ix_(rest_rows, rest_cols)]) if need else 0.0
                if acc + cost[i, j] + best_rest <= target + tol:
                    chosen = (i, j)
                    break
            if chosen:
                break
        if chosen is None:
            raise RuntimeError("assignment refinement lost the optimum")
        pairs.append(chosen)
        acc += cost[chosen[0], chosen[1]]
        cols.remove(chosen[1])
        row_start = chosen[0] + 1
    return pairs


def hungarian(cost) -> Assignment:
    """Globally minimal-cost assignment of predictions to ground truths.

    Returns min(K, G) pairs; an empty matrix yields an empty assignment.
    Cost entries must be finite.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-d")
    if cost.size == 0:
        return Assignment(pairs=[], total_cost=0.0)
    if not np.isfinite(cost).all():
        raise NonFiniteError("cost matrix entries must be finite")
    rows, cols = linear_sum_assignment(cost)
    target = float(cost[rows, cols].sum())
    pairs = _lex_smallest_pairs(cost, target)
    total = float(sum(cost[i, j] for i, j in pairs))
    return Assignment(pairs=pairs, total_cost=total)


def box_loss(pred: Box9DoF, gt: Box9DoF) -> float:
    """L1 center + L1 log-extent ratio + L1 on (sin, cos) per angle."""
    center = float(np.abs(pred.center - gt.center).sum())
    ext = float(np.abs(np.log(pred.extents / gt.extents)).sum())
    ang = 0.0
    for pa, ga in ((pred.alpha, gt.alpha), (pred.beta, gt.beta), (pred.gamma, gt.gamma)):
        ang += abs(np.sin(pa) - np.sin(ga)) + abs(np.cos(pa) - np.cos(ga))
    return center + ext + ang


def box_regression_loss(centers: Tensor, log_extents: Tensor, sin_t: Tensor, cos_t: Tensor,
                        pred_rows, gt_boxes: list[Box9DoF]) -> Tensor:
    """Tape version of ``box_loss`` averaged over matched pairs.

    ``pred_rows[i]`` is the prediction matched to ``gt_boxes[i]``; sin_t and
    cos_t must already be normalized so they are the sine/cosine of the
    predicted angles.
    """
    if len(gt_boxes) == 0:
        return Tensor(0.0)
    rows = np.asarray(pred_rows, dtype=np.intp)
    gt_center = np.array([b.center for b in gt_boxes])
    gt_logext = np.log(np.array([b.extents for b in gt_boxes]))
    gt_ang = np.array([[b.alpha, b.beta, b.gamma] for b in gt_boxes])
    c_term = (centers[rows] - gt_center).abs().sum()
    e_term = (log_extents[rows] - gt_logext).abs().sum()
    s_term = (sin_t[rows] - np.sin(gt_ang)).abs().sum()
    k_term = (cos_t[rows] - np.cos(gt_ang)).abs().sum()
    return (c_term + e_term + s_term + k_term) * (1.0 / len(gt_boxes))


def _set_task(targets, weights: LossWeights):
    """(task, gt boxes, gt logit columns, class weight) of the set loss.

    Grounding is one-object detection: class 0 of the grounding logits.
    """
    if isinstance(targets, DetectionTargets):
        return "detection", targets.boxes, targets.classes, weights.lambda_cls
    if isinstance(targets, GroundingTargets):
        return "grounding", [targets.box], [0], weights.lambda_ground
    raise TypeError(f"unsupported target type {type(targets).__name__}")


def matching_cost(output, targets, weights: LossWeights) -> Array:
    """(K, G) matrix: cls_weight * (-p_k(class_g)) + lambda_box * box_loss."""
    _, gt_boxes, classes, cls_weight = _set_task(targets, weights)
    cls_cost = -_sigmoid(output.logits.data)[:, np.asarray(classes, dtype=np.intp)]
    box_cost = np.zeros((len(output.boxes), len(gt_boxes)))
    for kk, pred in enumerate(output.boxes):
        for gg, gt in enumerate(gt_boxes):
            box_cost[kk, gg] = box_loss(pred, gt)
    return cls_weight * cls_cost + weights.lambda_box * box_cost


def focal_loss(logits: Tensor, targets: Array, normalizer: float) -> Tensor:
    """Sigmoid focal loss (alpha 0.25, gamma 2) summed over entries, divided by ``normalizer``.

    Positive entries contribute 0.25 * (1-p)^2 * -log p, negatives
    0.75 * p^2 * -log(1-p).
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    if normalizer <= 0.0:
        raise ValueError("normalizer must be positive")
    p = logits.sigmoid()
    one_minus_p = (-logits).sigmoid()
    # -log p = softplus(-x), -log(1-p) = softplus(x): stable on both tails
    pos = (one_minus_p ** 2.0) * (-logits).softplus() * 0.25
    neg = (p ** 2.0) * logits.softplus() * 0.75
    per_entry = pos * targets + neg * (1.0 - targets)
    return per_entry.sum() * (1.0 / normalizer)


def spatial_relevance_loss(logits: Tensor, labels: Array) -> Tensor:
    """Mean binary cross-entropy of per-voxel relevance logits."""
    labels = np.asarray(labels, dtype=np.float64)
    flat = logits.reshape(-1)
    if labels.shape != flat.shape:
        raise ValueError(f"labels shape {labels.shape} != logits shape {flat.shape}")
    return (flat.softplus() - flat * labels).mean()


def total_loss(output, targets, weights: LossWeights):
    """The set loss of either task plus, for grounding, the relevance BCE.

    The set loss is the Hungarian-matched focal loss plus box regression.
    Returns (scalar Tensor, LossBreakdown).
    """
    task, gt_boxes, classes, cls_weight = _set_task(targets, weights)
    pairs = hungarian(matching_cost(output, targets, weights)).pairs
    rows = [i for i, _ in pairs]
    onehot = np.zeros(output.logits.shape)
    for i, j in pairs:
        onehot[i, classes[j]] = 1.0
    cls_term = focal_loss(output.logits, onehot, normalizer=max(1, len(rows)))
    box_term = box_regression_loss(output.centers, output.log_extents, output.sin_angles,
                                   output.cos_angles, rows, [gt_boxes[j] for _, j in pairs])
    total = cls_weight * cls_term + weights.lambda_box * box_term
    spatial = 0.0
    labels = getattr(targets, "relevance_labels", None)
    if output.relevance is not None and labels is not None:
        spatial_term = spatial_relevance_loss(output.relevance, labels)
        total = total + weights.lambda_spatial * spatial_term
        spatial = spatial_term.item()
    cls, box = cls_term.item(), box_term.item()
    return total, LossBreakdown(
        task=task, cls=cls, box=box, spatial=spatial, weights=weights,
        total=cls_weight * cls + weights.lambda_box * box + weights.lambda_spatial * spatial)
