"""Set matching and the detection / grounding training objectives.

Both tasks train through one DETR-style set loss (``total_loss``) against
one target type, ``SetTargets``: a (G, 9) array of ground-truth boxes and
the logit column of each.  Grounding is one-object detection: its ground
truth is the target box in column 0 of the grounding logits.  The caller
passes the class weight, lambda_cls for detection and lambda_ground for
grounding.  Between the decoder and the loss a box is one row (x, y, z, l,
w, h, alpha, beta, gamma) of a float array, angles wrapped to (-pi, pi];
``box_loss`` on two ``Box9DoF`` is the scalar reference of the array code.

Matching is min-cost bipartite assignment over a (K preds, G truths) cost
matrix; ties between equal-cost assignments resolve to the
lexicographically smallest pair list so runs are reproducible.

The assignment is solved once, by shortest augmenting paths from each vertex
of the smaller side (Jonker & Volgenant, 1987, "A shortest augmenting path
algorithm for dense and sparse linear assignment problems"; the rectangular
form of Crouse, 2016, "On implementing 2D rectangular assignment
algorithms"), which also yields dual potentials u, v.  By complementary
slackness the min-cost assignments are exactly the matchings on the tight
edges (reduced cost c - u - v <= tol) that cover the smaller side and every
larger-side vertex with dual < -tol, where tol = 1e-9 * max(1, |optimum|).
The tie-break walks (prediction, truth) pairs in lexicographic order and
keeps a tight pair when augmenting-path searches on the tight graph can
still complete it; no second solve is needed.

The classification term is a sigmoid focal loss normalized by the number of
matched predictions, with unmatched predictions supervised toward
all-negative (background / not the target).  Box regression is L1 on
centers, on log-extent ratios and on the (sin, cos) of each angle, which
makes 0 and 2 pi identical.  ``total_loss`` adds, for grounding, a mean
binary cross-entropy over per-voxel relevance logits against
inside-the-target-box labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _augment(a: int, adj: list, open_: list, match: list, seen: set) -> bool:
    """Kuhn's step: find ``a`` a partner among the open vertices of the other side."""
    for b in adj[a]:
        if open_[b] and b not in seen:
            seen.add(b)
            if match[b] < 0 or _augment(match[b], adj, open_, match, seen):
                match[b] = a
                return True
    return False


def _covers(need, adj: list, open_: list) -> bool:
    """Whether some matching into the open vertices covers every vertex in ``need``."""
    match = [-1] * len(open_)
    return all(_augment(a, adj, open_, match, set()) for a in need)


def _tight_lex_pairs(cost: Array, u: Array, v: Array, tol: float) -> list[tuple[int, int]]:
    """The lexicographically smallest min-cost pair list (pairs sorted by row).

    By complementary slackness the min-cost assignments are the matchings of
    the tight edges (reduced cost <= tol) that cover the smaller side and
    every vertex of the larger side whose dual is below -tol.  Rows are
    visited in order, and each takes its smallest tight column whose
    completion by later rows and the unused columns can still cover both
    sets; by Mendelsohn-Dulmage it can iff each set alone can be covered.
    """
    k, g = cost.shape
    row_adj: list[list[int]] = [[] for _ in range(k)]
    col_adj: list[list[int]] = [[] for _ in range(g)]
    tight_rows, tight_cols = np.nonzero(cost - u[:, None] - v[None, :] <= tol)
    for i, j in zip(tight_rows.tolist(), tight_cols.tolist()):  # row-major: both ascending
        row_adj[i].append(j)
        col_adj[j].append(i)
    must_rows = range(k) if k <= g else np.flatnonzero(u < -tol).tolist()
    must_cols = range(g) if g <= k else np.flatnonzero(v < -tol).tolist()
    row_open, col_open = [True] * k, [True] * g
    pairs: list[tuple[int, int]] = []
    for i in range(k):
        if len(pairs) == min(k, g):
            break
        row_open[i] = False
        for j in row_adj[i]:
            if not col_open[j]:
                continue
            col_open[j] = False
            if (_covers([r for r in must_rows if row_open[r]], row_adj, col_open)
                    and _covers([c for c in must_cols if col_open[c]], col_adj, row_open)):
                pairs.append((i, j))
                break
            col_open[j] = True
    if len(pairs) != min(k, g):
        raise RuntimeError("assignment refinement lost the optimum")
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
    rows, cols, u, v = linear_sum_assignment(cost)
    target = float(cost[rows, cols].sum())
    pairs = _tight_lex_pairs(cost, u, v, 1e-9 * max(1.0, abs(target)))
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
                        pred_rows, gt_boxes: Array) -> Tensor:
    """Tape version of ``box_loss`` averaged over matched pairs.

    ``pred_rows[i]`` is the prediction matched to the box in row i of the
    (M, 9) ``gt_boxes``; sin_t and cos_t must already be normalized so they
    are the sine/cosine of the predicted angles.
    """
    if len(gt_boxes) == 0:
        return Tensor(0.0)
    rows = np.asarray(pred_rows, dtype=np.intp)
    c_term = (centers[rows] - gt_boxes[:, :3]).abs().sum()
    e_term = (log_extents[rows] - np.log(gt_boxes[:, 3:6])).abs().sum()
    s_term = (sin_t[rows] - np.sin(gt_boxes[:, 6:])).abs().sum()
    k_term = (cos_t[rows] - np.cos(gt_boxes[:, 6:])).abs().sum()
    return (c_term + e_term + s_term + k_term) * (1.0 / len(gt_boxes))


def matching_cost(output, targets: SetTargets, cls_weight: float,
                  weights: LossWeights) -> Array:
    """(K, G) matrix: cls_weight * (-p_k(class_g)) + lambda_box * box_loss.

    The box term is ``box_loss`` broadcast over all pairs, in its summation
    order, so each entry equals the scalar call bit for bit.
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
    box_term = box_regression_loss(output.centers, output.log_extents, output.sin_angles,
                                   output.cos_angles, rows, targets.boxes[cols])
    total = cls_weight * cls_term + weights.lambda_box * box_term
    spatial = 0.0
    if output.relevance is not None and targets.relevance_labels is not None:
        spatial_term = spatial_relevance_loss(output.relevance, targets.relevance_labels)
        total = total + weights.lambda_spatial * spatial_term
        spatial = spatial_term.item()
    cls, box = cls_term.item(), box_term.item()
    return total, LossBreakdown(
        cls=cls, box=box, spatial=spatial,
        total=cls_weight * cls + weights.lambda_box * box + weights.lambda_spatial * spatial)
