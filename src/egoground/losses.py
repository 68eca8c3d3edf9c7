"""Set matching and the detection / grounding training objectives.

Both tasks train through one DETR-style set loss (``total_loss``) against
one target type, ``SetTargets``: a (G, 9) array of ground-truth boxes and
the logit column of each.  Grounding is one-object detection: its ground
truth is the target box in column 0 of the grounding logits.  The caller
passes the class weight, lambda_cls for detection and lambda_ground for
grounding.  Between the decoder and the loss a box is one row (x, y, z, l,
w, h, alpha, beta, gamma) of a float array, angles wrapped to (-pi, pi].

Matching is min-cost bipartite assignment over a (K preds, G truths) cost
matrix, solved once by shortest augmenting paths from each vertex of the
smaller side (Jonker & Volgenant, 1987, "A shortest augmenting path
algorithm for dense and sparse linear assignment problems"; the rectangular
form of Crouse, 2016, "On implementing 2D rectangular assignment
algorithms").  Every vertex of the smaller side is matched at minimum total
cost, and the solver is deterministic, so the same matrix always gives the
same pairs.  On exact ties, which optimum comes back is the solver's choice,
as in DETR's plain assignment call.  The solver's dual potentials u, v
certify the optimum.

The classification term is a sigmoid focal loss normalized by the number of
matched predictions, with unmatched predictions supervised toward
all-negative (background / not the target).  Box regression is L1 on
centers, on log-extent ratios and on the (sin, cos) of each angle, which
makes 0 and 2 pi identical; it reads the four 3-column blocks of the
decoder's (K, 12) ``box_pred`` tensor.  ``total_loss`` adds, for grounding,
a mean binary cross-entropy over per-voxel relevance logits against
inside-the-target-box labels.

The three loss tails (``focal_loss``, ``box_regression_loss`` and
``spatial_relevance_loss``) are one tape node each, and so is each
objective's weighted total (``weighted_sum``).  Each forward evaluates the
numpy expressions of the op composition it replaces, and each backward adds
the composition's gradient terms in the order its tape would, so values and
gradients are bit-identical to that composition (the tests keep it as the
reference, in ``tests/tape_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .autodiff import NonFiniteError, Tensor, _sigmoid, _softplus

Array = np.ndarray


@dataclass(frozen=True)
class LossWeights:
    lambda_cls: float = 1.0
    lambda_box: float = 1.0
    lambda_ground: float = 1.0
    lambda_spatial: float = 0.01

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{f.name} must be finite and nonnegative, got {value}")


@dataclass
class Assignment:
    pairs: list[tuple[int, int]]
    total_cost: float


@dataclass
class LossBreakdown:
    """Component values (unweighted) plus their weighted total."""

    cls: float      # focal classification (detection) or grounding confidence term
    box: float
    spatial: float
    total: float


@dataclass
class SetTargets:
    """Ground truth of the set loss: (G, 9) boxes and their logit columns.

    Detection lists every object with its class; grounding is the one target
    box in column 0, with per-voxel 0/1 relevance labels (or None when
    relevance is off).
    """

    boxes: Array
    columns: list[int]
    relevance_labels: Array | None = None


def linear_sum_assignment(cost: Array):
    """Min-cost assignment of every vertex of the smaller side, with its duals.

    Shortest augmenting paths, one vertex of the smaller side at a time
    (Jonker & Volgenant, 1987), in the rectangular form of Crouse (2016);
    a (K, G) cost with K > G is solved transposed.  Returns (rows, cols, u,
    v): the assigned pairs with rows ascending, and row and column duals
    with ``cost - u[:, None] - v[None, :] >= 0`` up to rounding, zero on the
    assigned pairs.  The larger side's duals start at 0 and only fall, so
    they are <= 0 and exactly 0 where that side is unassigned.

    The loops run on Python lists: for the few hundred entries of a
    training step's matrices that is faster than numpy calls.
    """
    transpose = cost.shape[0] > cost.shape[1]
    c = cost.T if transpose else cost
    nr, nc = c.shape
    c = c.tolist()
    u, v = [0.0] * nr, [0.0] * nc
    col4row, row4col, path = [-1] * nr, [-1] * nc, [-1] * nc
    for cur in range(nr):
        # Dijkstra on reduced costs from row ``cur`` to the nearest free column
        dist = [math.inf] * nc
        todo = list(range(nc))
        rows, cols = [], []
        min_val, i = 0.0, cur
        while True:
            rows.append(i)
            ci, ui = c[i], u[i]
            best, best_at = math.inf, -1
            for at, j in enumerate(todo):
                r = min_val + ci[j] - ui - v[j]
                if r < dist[j]:
                    dist[j], path[j] = r, i
                if dist[j] < best:
                    best, best_at = dist[j], at
            min_val = best
            j = todo.pop(best_at)
            cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in cols:
            v[j] -= min_val - dist[j]
        while True:  # augment along the path back from the sink column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row)
        return np.asarray(col4row, dtype=np.intp)[order], order, np.array(v), np.array(u)
    return np.arange(nr), np.asarray(col4row, dtype=np.intp), np.array(u), np.array(v)


def hungarian(cost) -> Assignment:
    """Minimum-cost assignment of predictions to ground truths.

    Returns min(K, G) (prediction, truth) pairs, rows ascending, as solved by
    ``linear_sum_assignment``; an empty matrix yields an empty assignment.
    Cost entries must be finite.  The same matrix always gives the same
    pairs; among exactly tied optima, which one comes back is the solver's
    choice.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError("cost matrix must be 2-d")
    if cost.size == 0:
        return Assignment(pairs=[], total_cost=0.0)
    if not np.isfinite(cost).all():
        raise NonFiniteError("cost matrix entries must be finite")
    rows, cols, _, _ = linear_sum_assignment(cost)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    total = float(sum(cost[i, j] for i, j in pairs))
    return Assignment(pairs=pairs, total_cost=total)


def box_regression_loss(pred: Tensor, pred_rows, gt_boxes: Array) -> Tensor:
    """L1 on centers, log extents and each angle's (sin, cos), averaged over matched pairs.

    ``pred`` is the decoder's (K, 12) [centers | log extents | sin | cos]
    tensor, sin and cos already normalized so they are the sine/cosine of
    the predicted angles; ``pred_rows[i]`` is the prediction matched to the
    box in row i of the (M, 9) ``gt_boxes``.  Each 3-column block is summed
    on its own, then the four sums are added.  One tape node over ``pred``;
    with no pairs it is a constant 0.
    """
    if len(gt_boxes) == 0:
        return Tensor(0.0)
    rows = np.asarray(pred_rows, dtype=np.intp)
    refs = np.hstack([gt_boxes[:, :3], np.log(gt_boxes[:, 3:6]), np.sin(gt_boxes[:, 6:]),
                      np.cos(gt_boxes[:, 6:])])
    d = pred.data[rows] - refs
    c_term, e_term, s_term, k_term = (np.abs(d[:, i:i + 3]).sum() for i in (0, 3, 6, 9))
    inv_m = 1.0 / len(gt_boxes)
    out = Tensor((c_term + e_term + s_term + k_term) * inv_m, (pred,))

    def backward(g):
        np.add.at(pred.grad, rows, g * inv_m * np.sign(d))

    return out._taped(backward)


def matching_cost(output, targets: SetTargets, cls_weight: float,
                  weights: LossWeights) -> Array:
    """(K, G) matrix: cls_weight * (-p_k(class_g)) + lambda_box * box term.

    The box term of a pair is the L1 of ``box_regression_loss`` for that
    pair alone, read off the decoded box rows: the center, the log of the
    extent ratio and each angle's (sin, cos).  The tests check every entry
    against a scalar per-pair loop over ``Box9DoF``, bit for bit.
    """
    cls_cost = -_sigmoid(output.logits.data)[:, np.asarray(targets.columns, dtype=np.intp)]
    pred = output.boxes[:, None, :]
    gt = targets.boxes[None, :, :]
    center = np.abs(pred[..., :3] - gt[..., :3]).sum(axis=-1)
    ext = np.abs(np.log(pred[..., 3:6] / gt[..., 3:6])).sum(axis=-1)
    turn = (np.abs(np.sin(pred[..., 6:]) - np.sin(gt[..., 6:]))
            + np.abs(np.cos(pred[..., 6:]) - np.cos(gt[..., 6:])))
    ang = turn[..., 0] + turn[..., 1] + turn[..., 2]
    return cls_weight * cls_cost + weights.lambda_box * (center + ext + ang)


def focal_loss(logits: Tensor, targets: Array, normalizer: float) -> Tensor:
    """Sigmoid focal loss (alpha 0.25, gamma 2) summed over entries, divided by ``normalizer``.

    Positive entries contribute 0.25 * (1-p)^2 * -log p, negatives
    0.75 * p^2 * -log(1-p), with -log p = softplus(-x) and -log(1-p) =
    softplus(x) so that neither tail overflows (Lin et al., 2017).  One
    tape node over ``logits``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError(f"targets shape {targets.shape} != logits shape {logits.shape}")
    if normalizer <= 0.0:
        raise ValueError("normalizer must be positive")
    x = logits.data
    p, q = _sigmoid(x), _sigmoid(-x)            # q is 1 - p
    sp_neg, sp = _softplus(-x), _softplus(x)   # -log p, -log(1 - p)
    q2, p2 = q ** 2.0, p ** 2.0
    per_entry = q2 * sp_neg * 0.25 * targets + p2 * sp * 0.75 * (1.0 - targets)
    inv_n = 1.0 / normalizer
    out = Tensor(per_entry.sum() * inv_n, (logits,))

    def backward(g):
        gs = g * inv_n
        g_pos = gs * targets * 0.25          # gradient of the product q2 * sp_neg
        logits.grad -= g_pos * sp_neg * 2.0 * q * q * (1.0 - q)
        logits.grad -= g_pos * q2 * q
        g_neg = gs * (1.0 - targets) * 0.75  # gradient of the product p2 * sp
        logits.grad += g_neg * sp * 2.0 * p * p * (1.0 - p)
        logits.grad += g_neg * p2 * p

    return out._taped(backward)


def spatial_relevance_loss(logits: Tensor, labels: Array) -> Tensor:
    """Mean binary cross-entropy of per-voxel relevance logits, one tape node.

    ``labels`` holds one 0/1 label per logit, in ``logits.reshape(-1)`` order.
    """
    labels = np.asarray(labels, dtype=np.float64)
    flat = logits.data.reshape(-1)
    if labels.shape != flat.shape:
        raise ValueError(f"labels shape {labels.shape} != logits shape {flat.shape}")
    inv_n = 1.0 / flat.size
    out = Tensor((_softplus(flat) - flat * labels).sum() * inv_n, (logits,))

    def backward(g):
        gd = g * inv_n
        logits.grad += (gd * _sigmoid(flat) - gd * labels).reshape(logits.shape)

    return out._taped(backward)


def weighted_sum(terms: Sequence[Tensor], weights: Sequence[float]) -> Tensor:
    """``weights[0] * terms[0] + weights[1] * terms[1] + ...``, left to right, as one node.

    A term's gradient is ``g * weight``; a weight of 1.0 keeps every byte of a plain add.
    """
    total = terms[0].data * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        total = total + t.data * w
    out = Tensor(total, tuple(terms))

    def backward(g):
        for t, w in zip(terms, weights):
            t.grad += g * w

    return out._taped(backward)


def total_loss(output, targets: SetTargets, cls_weight: float, weights: LossWeights):
    """The set loss of either task plus, for grounding, the relevance BCE.

    The set loss is the Hungarian-matched focal loss, weighted by
    ``cls_weight``, plus box regression.  Returns (scalar Tensor,
    LossBreakdown).
    """
    pairs = hungarian(matching_cost(output, targets, cls_weight, weights)).pairs
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    onehot = np.zeros(output.logits.shape)
    onehot[rows, [targets.columns[j] for j in cols]] = 1.0
    cls_term = focal_loss(output.logits, onehot, normalizer=max(1, len(rows)))
    box_term = box_regression_loss(output.box_pred, rows, targets.boxes[cols])
    terms, term_weights = [cls_term, box_term], [cls_weight, weights.lambda_box]
    spatial = 0.0
    if output.relevance is not None and targets.relevance_labels is not None:
        spatial_term = spatial_relevance_loss(output.relevance, targets.relevance_labels)
        terms.append(spatial_term)
        term_weights.append(weights.lambda_spatial)
        spatial = spatial_term.item()
    total = weighted_sum(terms, term_weights)
    return total, LossBreakdown(cls=cls_term.item(), box=box_term.item(), spatial=spatial,
                                total=total.item())
