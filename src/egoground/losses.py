"""Set matching and the detection / grounding training objectives.

Matching is min-cost bipartite assignment over a (K preds, G truths) cost
matrix; ties between equal-cost assignments resolve to the lexicographically
smallest pair list so runs are reproducible.  The classification term is a
sigmoid focal loss normalized by the number of matched predictions, with
unmatched predictions supervised toward all-negative (background / not the
target).  Box regression is L1 on centers, on log-extent ratios and on the
(sin, cos) of each angle, which makes 0 and 2 pi identical.  Grounding adds
a mean binary cross-entropy over per-voxel relevance logits against
inside-the-target-box labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .autodiff import NonFiniteError, Tensor, _sigmoid
from .boxes import Box9DoF, wrap_angle

Array = np.ndarray


@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 1.0
    lambda_box: float = 1.0
    lambda_ground: float = 1.0
    lambda_spatial: float = 0.01

    def __post_init__(self):
        for name in ("lambda_cls", "lambda_box", "lambda_ground", "lambda_spatial"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


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


def matching_cost(output, targets, weights: LossWeights) -> Array:
    """(K, G) matrix: lambda_cls * (-p_k(class_g)) + lambda_box * box_loss.

    For grounding the class term is the negated sigmoid of the query's
    grounding logit, weighted by lambda_ground.
    """
    if isinstance(targets, DetectionTargets):
        gt_boxes = targets.boxes
        logits = output.det_logits.data
        cls_cost = -_sigmoid(logits)[:, np.asarray(targets.classes, dtype=np.intp)]
        cls_weight = weights.lambda_cls
    elif isinstance(targets, GroundingTargets):
        gt_boxes = [targets.box]
        logits = output.grd_logits.data.reshape(-1)
        cls_cost = -_sigmoid(logits)[:, None]
        cls_weight = weights.lambda_ground
    else:
        raise TypeError(f"unsupported target type {type(targets).__name__}")
    k = len(output.boxes)
    g = len(gt_boxes)
    box_cost = np.zeros((k, g))
    for kk in range(k):
        for gg in range(g):
            box_cost[kk, gg] = box_loss(output.boxes[kk], gt_boxes[gg])
    return cls_weight * cls_cost + weights.lambda_box * box_cost


def focal_loss(logits: Tensor, targets: Array, alpha: float = 0.25, gamma: float = 2.0,
               normalizer: float | None = None) -> Tensor:
    """Sigmoid focal loss summed over entries, divided by ``normalizer``.

    Positive entries contribute alpha * (1-p)^gamma * -log p, negatives
    (1-alpha) * p^gamma * -log(1-p).  The default normalizer is the positive
    count clamped to at least one.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    if normalizer is None:
        normalizer = max(1.0, float(targets.sum()))
    if normalizer <= 0.0:
        raise ValueError("normalizer must be positive")
    p = logits.sigmoid()
    one_minus_p = (-logits).sigmoid()
    # -log p = softplus(-x), -log(1-p) = softplus(x): stable on both tails
    pos = (one_minus_p ** gamma) * (-logits).softplus() * alpha
    neg = (p ** gamma) * logits.softplus() * (1.0 - alpha)
    per_entry = pos * targets + neg * (1.0 - targets)
    return per_entry.sum() * (1.0 / normalizer)


def spatial_relevance_loss(logits: Tensor, labels: Array) -> Tensor:
    """Mean binary cross-entropy of per-voxel relevance logits."""
    labels = np.asarray(labels, dtype=np.float64)
    flat = logits.reshape(-1)
    if labels.shape != flat.shape:
        raise ValueError(f"labels shape {labels.shape} != logits shape {flat.shape}")
    return (flat.softplus() - flat * labels).mean()


def detection_loss(output, targets: DetectionTargets, weights: LossWeights):
    """Hungarian-matched focal + box regression; returns (total, breakdown)."""
    k, num_classes = output.det_logits.shape
    if targets.boxes:
        assignment = hungarian(matching_cost(output, targets, weights))
    else:
        assignment = Assignment(pairs=[], total_cost=0.0)
    onehot = np.zeros((k, num_classes))
    rows = [i for i, _ in assignment.pairs]
    matched_gt = [j for _, j in assignment.pairs]
    for i, j in assignment.pairs:
        onehot[i, targets.classes[j]] = 1.0
    cls_term = focal_loss(output.det_logits, onehot, normalizer=max(1, len(rows)))
    box_term = box_regression_loss(output.centers, output.log_extents, output.sin_angles,
                                   output.cos_angles, rows, [targets.boxes[j] for j in matched_gt])
    total = weights.lambda_cls * cls_term + weights.lambda_box * box_term
    breakdown = LossBreakdown(
        task="detection",
        cls=cls_term.item(),
        box=box_term.item(),
        spatial=0.0,
        total=weights.lambda_cls * cls_term.item() + weights.lambda_box * box_term.item(),
        weights=weights,
    )
    return total, breakdown


def grounding_loss(output, targets: GroundingTargets, weights: LossWeights):
    """Matched grounding focal + box regression + optional relevance BCE."""
    assignment = hungarian(matching_cost(output, targets, weights))
    (row, _), = assignment.pairs
    k = output.grd_logits.shape[0]
    onehot = np.zeros((k, 1))
    onehot[row, 0] = 1.0
    ground_term = focal_loss(output.grd_logits, onehot, normalizer=1.0)
    box_term = box_regression_loss(output.centers, output.log_extents, output.sin_angles,
                                   output.cos_angles, [row], [targets.box])
    if output.relevance is not None and targets.relevance_labels is not None:
        spatial_term = spatial_relevance_loss(output.relevance, targets.relevance_labels)
        spatial_value = spatial_term.item()
    else:
        spatial_term = Tensor(0.0)
        spatial_value = 0.0
    total = (weights.lambda_ground * ground_term + weights.lambda_box * box_term
             + weights.lambda_spatial * spatial_term)
    breakdown = LossBreakdown(
        task="grounding",
        cls=ground_term.item(),
        box=box_term.item(),
        spatial=spatial_value,
        total=(weights.lambda_ground * ground_term.item()
               + weights.lambda_box * box_term.item()
               + weights.lambda_spatial * spatial_value),
        weights=weights,
    )
    return total, breakdown


def total_loss(output, targets, weights: LossWeights):
    """Dispatch on target type; returns (scalar Tensor, LossBreakdown)."""
    if isinstance(targets, DetectionTargets):
        return detection_loss(output, targets, weights)
    if isinstance(targets, GroundingTargets):
        return grounding_loss(output, targets, weights)
    raise TypeError(f"unsupported target type {type(targets).__name__}")
