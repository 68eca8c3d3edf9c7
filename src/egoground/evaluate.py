"""IoU-thresholded average precision with difficulty / view buckets.

Matching is greedy: predictions in descending score order each claim the
highest-IoU still-unclaimed ground-truth box whose exact IoU meets the
threshold (ties on IoU go to the lowest ground-truth index).  AP uses
all-point interpolation: precision is replaced by its running maximum from
the right before integrating over recall.

The result classes are frozen, and each computes its exact IoUs once, on
first use, so every threshold's report reads the same values (COCOeval's
pattern, Lin et al., 2014): a ``GroundingResult`` holds each prediction's
IoU with the referred box, a ``DetectionResult`` a (P, G) table over its
same-class pairs.  Cross-class pairs are never computed.

Grounding is scored per instruction against the single referred box; each
prediction's IoU serves both the greedy match and the diagnostics.  The
instructions are then pooled: the overall AP ranks every prediction from
every instruction in one list with the instruction count as the
ground-truth total.  Buckets (easy / hard, view-dependent /
view-independent) are pooled the same way over their subset; a bucket with
no instructions is omitted from the report rather than reported as zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .boxes import Box9DoF, box_iou_exact

Array = np.ndarray


@dataclass(frozen=True)
class ScoredBox:
    box: Box9DoF
    score: float


@dataclass(frozen=True)
class GroundingResult:
    """One instruction's predictions plus the metadata that buckets it."""
    predictions: tuple[ScoredBox, ...]
    gt_box: Box9DoF
    difficulty: str = "easy"
    view_dep: bool = False

    def __post_init__(self):
        object.__setattr__(self, "predictions", tuple(self.predictions))

    @cached_property
    def ious(self) -> tuple[float, ...]:
        """Each prediction's exact IoU with ``gt_box``."""
        return tuple(box_iou_exact(p.box, self.gt_box) for p in self.predictions)


@dataclass(frozen=True)
class DetectionResult:
    """One scene's class-labelled predictions and ground truth."""
    pred_boxes: tuple[ScoredBox, ...]
    pred_classes: tuple[int, ...]
    gt_boxes: tuple[Box9DoF, ...]
    gt_classes: tuple[int, ...]

    def __post_init__(self):
        for name in ("pred_boxes", "pred_classes", "gt_boxes", "gt_classes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.pred_boxes) != len(self.pred_classes):
            raise ValueError("prediction boxes and classes must align")
        if len(self.gt_boxes) != len(self.gt_classes):
            raise ValueError("ground-truth boxes and classes must align")

    @cached_property
    def ious(self) -> Array:
        """Read-only (P, G) exact IoUs of the same-class pairs; NaN across classes."""
        table = np.full((len(self.pred_boxes), len(self.gt_boxes)), np.nan)
        for i, (pred, pc) in enumerate(zip(self.pred_boxes, self.pred_classes)):
            for j, (gt, gc) in enumerate(zip(self.gt_boxes, self.gt_classes)):
                if pc == gc:
                    table[i, j] = box_iou_exact(pred.box, gt)
        table.flags.writeable = False
        return table


@dataclass
class EvalReport:
    iou_thresh: float
    bucket_ap: dict[str, float]
    bucket_counts: dict[str, int]
    diagnostics: list[dict] = field(default_factory=list)


def _check_thresh(iou_thresh: float) -> None:
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"IoU threshold must be in (0, 1], got {iou_thresh}")


def _greedy_match(scores: list[float], num_gt: int, iou,
                  iou_thresh: float) -> tuple[list[bool], list[int]]:
    """Greedy TP/FP flags per prediction (input order) plus claimed GT index or -1.

    ``iou(i, j)`` is the IoU of prediction i and ground-truth box j; it is
    asked only for ground truth not yet claimed.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    claimed = [False] * num_gt
    flags = [False] * len(scores)
    claims = [-1] * len(scores)
    for idx in order:
        best_iou = 0.0
        best_j = -1
        for j in range(num_gt):
            if claimed[j]:
                continue
            value = iou(idx, j)
            if value >= iou_thresh and value > best_iou:
                best_iou = value
                best_j = j
        if best_j >= 0:
            claimed[best_j] = True
            flags[idx] = True
            claims[idx] = best_j
    return flags, claims


def match_predictions(preds: list[ScoredBox], gts: list[Box9DoF],
                      iou_thresh: float) -> tuple[list[bool], list[int]]:
    """Greedy TP/FP flags per prediction (input order) plus claimed GT index or -1."""
    _check_thresh(iou_thresh)
    return _greedy_match([p.score for p in preds], len(gts),
                         lambda i, j: box_iou_exact(preds[i].box, gts[j]), iou_thresh)


def average_precision(flags, scores, num_gt: int) -> float:
    """All-point interpolated AP from per-prediction TP flags and scores."""
    if num_gt < 1:
        raise ValueError("average precision needs at least one ground-truth box")
    flags = np.asarray(flags, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    if flags.shape != scores.shape:
        raise ValueError(f"flags {flags.shape} and scores {scores.shape} must align")
    if int(flags.sum()) > num_gt:
        raise ValueError("more true positives than ground-truth boxes")
    if flags.size == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    tp = np.cumsum(flags[order])
    fp = np.cumsum(~flags[order])
    recall = tp / num_gt
    precision = tp / (tp + fp)
    interp = np.maximum.accumulate(precision[::-1])[::-1]
    prev = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev) * interp))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def _pooled_ap(results: list[GroundingResult],
               per_result: list[tuple[list[bool], list[float]]]) -> float:
    flags: list[bool] = []
    scores: list[float] = []
    for f, s in per_result:
        flags.extend(f)
        scores.extend(s)
    return average_precision(flags, scores, num_gt=len(results))


def bucket_report(results: list[GroundingResult], iou_thresh: float) -> EvalReport:
    """Overall plus easy/hard and view-dep/view-indep pooled APs."""
    _check_thresh(iou_thresh)
    if not results:
        raise ValueError("no grounding results to evaluate")
    per_result = []
    diagnostics = []
    for res in results:
        if res.difficulty not in ("easy", "hard"):
            raise ValueError(f"unknown difficulty {res.difficulty!r}")
        scores = [p.score for p in res.predictions]
        ious = res.ious
        flags, _ = _greedy_match(scores, 1, lambda i, _: ious[i], iou_thresh)
        per_result.append((flags, scores))
        order = np.argsort(-np.asarray(scores), kind="stable")
        ranked_flags = [flags[i] for i in order]
        first_hit = next((r + 1 for r, f in enumerate(ranked_flags) if f), None)
        diagnostics.append({
            "best_iou": max(ious, default=0.0),
            "top1_iou": float(ious[order[0]]) if ious else 0.0,
            "first_hit_rank": first_hit,
            "difficulty": res.difficulty,
            "view_dep": res.view_dep,
        })

    def subset(pred):
        idx = [i for i, r in enumerate(results) if pred(r)]
        return [results[i] for i in idx], [per_result[i] for i in idx]

    report = EvalReport(iou_thresh=iou_thresh, bucket_ap={}, bucket_counts={},
                        diagnostics=diagnostics)
    buckets = {
        "overall": lambda r: True,
        "easy": lambda r: r.difficulty == "easy",
        "hard": lambda r: r.difficulty == "hard",
        "view_dep": lambda r: r.view_dep,
        "view_indep": lambda r: not r.view_dep,
    }
    for name, pred in buckets.items():
        rs, prs = subset(pred)
        if not rs:
            continue
        report.bucket_ap[name] = _pooled_ap(rs, prs)
        report.bucket_counts[name] = len(rs)
    return report


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def evaluate_detection(results: list[DetectionResult], iou_thresh: float,
                       num_classes: int) -> EvalReport:
    """Per-class AP pooled over scenes; mAP over classes that have ground truth."""
    _check_thresh(iou_thresh)
    if not results:
        raise ValueError("no detection results to evaluate")
    report = EvalReport(iou_thresh=iou_thresh, bucket_ap={}, bucket_counts={})
    aps = []
    for cls in range(num_classes):
        flags: list[bool] = []
        scores: list[float] = []
        num_gt = 0
        for res in results:
            gts = [j for j, c in enumerate(res.gt_classes) if c == cls]
            preds = [i for i, c in enumerate(res.pred_classes) if c == cls]
            table = res.ious
            num_gt += len(gts)
            pred_scores = [res.pred_boxes[i].score for i in preds]
            f, _ = _greedy_match(pred_scores, len(gts),
                                 lambda i, j: table[preds[i], gts[j]], iou_thresh)
            flags.extend(f)
            scores.extend(pred_scores)
        if num_gt == 0:
            continue
        ap = average_precision(flags, scores, num_gt)
        report.bucket_ap[f"class_{cls}"] = ap
        report.bucket_counts[f"class_{cls}"] = num_gt
        aps.append(ap)
    if not aps:
        raise ValueError("no ground-truth boxes in any class")
    report.bucket_ap["mAP"] = float(np.mean(aps))
    report.bucket_counts["mAP"] = int(sum(report.bucket_counts.values()))
    return report


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_BUCKET_ORDER = ("overall", "easy", "hard", "view_dep", "view_indep")


def report_to_dict(report: EvalReport) -> dict:
    return {
        "iou_thresh": report.iou_thresh,
        "buckets": dict(report.bucket_ap),
        "counts": dict(report.bucket_counts),
        "diagnostics": report.diagnostics,
    }


def format_report(report: EvalReport, title: str = "grounding") -> str:
    """Aligned-column table, one row per present bucket."""
    names = [b for b in _BUCKET_ORDER if b in report.bucket_ap]
    names += [b for b in report.bucket_ap if b not in _BUCKET_ORDER]
    width = max([len(n) for n in names] + [6])
    lines = [f"{title} AP@{report.iou_thresh:g}",
             f"{'bucket':<{width}}  {'AP':>8}  {'n':>5}"]
    for name in names:
        lines.append(f"{name:<{width}}  {report.bucket_ap[name]:>8.4f}  "
                     f"{report.bucket_counts[name]:>5d}")
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, path: str | Path, title: str = "grounding") -> None:
    """JSON next to an aligned text table (path and path with .txt suffix)."""
    p = Path(path)
    p.write_text(json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")
    p.with_suffix(".txt").write_text(format_report(report, title=title))
