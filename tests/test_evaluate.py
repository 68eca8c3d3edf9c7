"""Matching, AP and bucketing checks.

Box fixtures use axis-aligned unit cubes shifted along x; two unit cubes a
distance dx apart have exact IoU (1-dx)/(1+dx), so dx = (1-i)/(1+i) places a
prediction at any wanted IoU i.  Hand AP values are computed from the PR
curve in the comments where used.
"""

import dataclasses
import json

import numpy as np
import pytest

from egoground.autodiff import make_rng
from egoground.boxes import Box9DoF, box_iou_exact
from egoground.evaluate import (
    DetectionResult,
    GroundingResult,
    ScoredBox,
    average_precision,
    bucket_report,
    evaluate_detection,
    format_report,
    match_predictions,
    report_to_dict,
    save_report,
)


def cube(x=0.0, y=0.0, z=0.0, s=1.0):
    return Box9DoF(x, y, z, s, s, s, 0.0, 0.0, 0.0)


def cube_at_iou(iou, y=0.0):
    """Unit cube whose exact IoU with cube(y=y) is ``iou``."""
    dx = (1.0 - iou) / (1.0 + iou)
    return cube(x=dx, y=y)


def test_cube_at_iou_fixture():
    for i in (0.2, 0.3, 0.6, 0.9):
        assert abs(box_iou_exact(cube_at_iou(i), cube()) - i) < 1e-12


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------


def test_match_single_prediction_threshold():
    flags, claims = match_predictions([ScoredBox(cube_at_iou(0.3), 0.9)], [cube()], 0.25)
    assert flags == [True] and claims == [0]
    flags, claims = match_predictions([ScoredBox(cube_at_iou(0.2), 0.9)], [cube()], 0.25)
    assert flags == [False] and claims == [-1]


def test_match_single_claim_rule():
    # lower-scored pred listed first; flags must align with input order
    preds = [ScoredBox(cube_at_iou(0.8), 0.1), ScoredBox(cube_at_iou(0.7), 0.9)]
    flags, claims = match_predictions(preds, [cube()], 0.25)
    assert flags == [False, True]
    assert claims == [-1, 0]


def test_match_claims_highest_iou_gt():
    gts = [cube(y=0.0), cube(y=5.0)]
    pred1 = ScoredBox(cube_at_iou(0.6, y=5.0), 0.9)  # 0.6 with gt1, 0 with gt0
    pred2 = ScoredBox(cube_at_iou(0.4, y=0.0), 0.5)
    flags, claims = match_predictions([pred1, pred2], gts, 0.25)
    assert flags == [True, True]
    assert claims == [1, 0]


def test_match_threshold_validation():
    with pytest.raises(ValueError):
        match_predictions([], [cube()], 0.0)
    with pytest.raises(ValueError):
        match_predictions([], [cube()], 1.5)


def _greedy_oracle(preds, gts, thresh):
    """Transcription of the documented protocol over a precomputed IoU matrix."""
    iou = [[box_iou_exact(p.box, g) for g in gts] for p in preds]
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    claimed = set()
    flags = [False] * len(preds)
    for i in order:
        cands = [(iou[i][j], -j) for j in range(len(gts))
                 if j not in claimed and iou[i][j] >= thresh]
        if not cands:
            continue
        best_iou, neg_j = max(cands)
        claimed.add(-neg_j)
        flags[i] = True
    return flags


def test_match_agrees_with_brute_force_oracle():
    rng = make_rng(501)
    for trial in range(100):
        n_pred = int(rng.integers(0, 6))
        n_gt = int(rng.integers(1, 6))
        gts = [cube(*rng.uniform(-1.2, 1.2, size=3), s=float(rng.uniform(0.8, 1.4)))
               for _ in range(n_gt)]
        preds = []
        for _ in range(n_pred):
            base = gts[int(rng.integers(0, n_gt))]
            jit = rng.uniform(-0.6, 0.6, size=3)
            preds.append(ScoredBox(
                Box9DoF(base.x + jit[0], base.y + jit[1], base.z + jit[2],
                        base.l, base.w, base.h, float(rng.uniform(-0.4, 0.4)), 0.0, 0.0),
                float(rng.uniform(0.0, 1.0))))
        flags, _ = match_predictions(preds, gts, 0.25)
        assert flags == _greedy_oracle(preds, gts, 0.25), f"trial {trial}"


# ---------------------------------------------------------------------------
# average precision
# ---------------------------------------------------------------------------


def test_ap_single_tp_is_one():
    assert average_precision([True], [0.7], num_gt=1) == 1.0


def test_ap_single_fp_is_zero():
    assert average_precision([False], [0.7], num_gt=1) == 0.0


def test_ap_tp_fp_over_two_gt():
    # rank 1 TP: P=1, R=1/2; rank 2 FP: P=1/2, R=1/2.
    # Interpolated precision over recall [0, 1/2] is 1 -> AP = 1/2.
    assert average_precision([True, False], [0.9, 0.1], num_gt=2) == 0.5


def test_ap_fp_tp_tp_over_two_gt():
    # precisions [0, 1/2, 2/3], running max from right [2/3, 2/3, 2/3];
    # recall rises at ranks 2 and 3 by 1/2 each -> AP = 2/3.
    ap = average_precision([False, True, True], [0.9, 0.5, 0.1], num_gt=2)
    assert abs(ap - 2.0 / 3.0) < 1e-12


def test_ap_tp_fp_tp_over_three_gt():
    # precisions [1, 1/2, 2/3] -> interp [1, 2/3, 2/3]; recall [1/3, 1/3, 2/3]
    # AP = 1/3 * 1 + 1/3 * 2/3 = 5/9.
    ap = average_precision([True, False, True], [0.9, 0.5, 0.1], num_gt=3)
    assert abs(ap - 5.0 / 9.0) < 1e-12


def test_ap_ranking_uses_scores_not_input_order():
    a = average_precision([False, True], [0.1, 0.9], num_gt=1)
    assert a == 1.0  # the TP outranks the FP


def test_ap_validation():
    with pytest.raises(ValueError):
        average_precision([True], [0.5], num_gt=0)
    with pytest.raises(ValueError):
        average_precision([True, True], [0.5, 0.4], num_gt=1)
    with pytest.raises(ValueError):
        average_precision([True], [0.5, 0.4], num_gt=2)
    assert average_precision([], [], num_gt=3) == 0.0


def test_ap_invariant_to_monotone_score_rescale():
    rng = make_rng(502)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        num_gt = int(rng.integers(1, 5))
        flags = rng.uniform(size=n) < 0.4
        flags[num_gt:] = False  # keep TP count <= num_gt
        scores = rng.uniform(size=n)
        base = average_precision(flags, scores, num_gt)
        assert average_precision(flags, 2.0 * scores + 3.0, num_gt) == base
        assert average_precision(flags, np.exp(scores), num_gt) == base


def test_ap50_not_above_ap25_on_random_sets():
    rng = make_rng(503)
    for trial in range(40):
        n_gt = int(rng.integers(1, 4))
        gts = [cube(y=3.0 * j) for j in range(n_gt)]
        preds = []
        for _ in range(int(rng.integers(1, 7))):
            j = int(rng.integers(0, n_gt))
            dx = float(rng.uniform(0.0, 1.0))
            preds.append(ScoredBox(cube(x=dx, y=3.0 * j), float(rng.uniform(0, 1))))
        scores = [p.score for p in preds]
        f25, _ = match_predictions(preds, gts, 0.25)
        f50, _ = match_predictions(preds, gts, 0.50)
        ap25 = average_precision(f25, scores, n_gt)
        ap50 = average_precision(f50, scores, n_gt)
        assert ap50 <= ap25 + 1e-12, f"trial {trial}: {ap50} > {ap25}"


# ---------------------------------------------------------------------------
# bucket report
# ---------------------------------------------------------------------------


def _result(iou, score, difficulty="easy", view_dep=False):
    return GroundingResult(predictions=[ScoredBox(cube_at_iou(iou), score)],
                           gt_box=cube(), difficulty=difficulty, view_dep=view_dep)


def test_bucket_report_two_bucket_pooling():
    # easy bucket: one TP at score 0.9 (AP 1); hard bucket: one FP at score 0.1
    # (AP 0).  Pooled over 2 GT the ranking is [TP, FP] -> overall 0.5.
    results = [_result(0.6, 0.9, "easy"), _result(0.05, 0.1, "hard", view_dep=True)]
    report = bucket_report(results, 0.25)
    assert report.bucket_ap["easy"] == 1.0
    assert report.bucket_ap["hard"] == 0.0
    assert report.bucket_ap["overall"] == 0.5
    assert report.bucket_ap["view_dep"] == 0.0
    assert report.bucket_ap["view_indep"] == 1.0
    assert report.bucket_counts["overall"] == 2
    assert (report.bucket_counts["easy"] + report.bucket_counts["hard"]
            == report.bucket_counts["overall"])
    assert (report.bucket_counts["view_dep"] + report.bucket_counts["view_indep"]
            == report.bucket_counts["overall"])


def test_bucket_report_absent_bucket_omitted():
    report = bucket_report([_result(0.6, 0.9, "easy")], 0.25)
    assert "hard" not in report.bucket_ap
    assert "hard" not in report.bucket_counts
    assert "view_dep" not in report.bucket_ap
    assert report.bucket_ap["overall"] == 1.0


def test_bucket_report_diagnostics():
    preds = [ScoredBox(cube_at_iou(0.8), 0.2), ScoredBox(cube_at_iou(0.1), 0.9)]
    report = bucket_report([GroundingResult(predictions=preds, gt_box=cube(),
                                            difficulty="hard", view_dep=True)], 0.25)
    diag = report.diagnostics[0]
    assert abs(diag["best_iou"] - 0.8) < 1e-12
    assert abs(diag["top1_iou"] - 0.1) < 1e-12
    assert diag["first_hit_rank"] == 2
    assert diag["difficulty"] == "hard" and diag["view_dep"] is True

    report = bucket_report([_result(0.05, 0.5)], 0.25)
    assert report.diagnostics[0]["first_hit_rank"] is None


def _grounding_fixture():
    far = cube(x=4.0)
    rows = [
        ([(0.8, 0.2), (0.1, 0.9), (0.6, 0.5)], "hard", True),
        ([(0.3, 0.7), (0.9, 0.7), (0.0, 0.95)], "easy", False),
        ([(0.05, 0.4)], "easy", True),
        ([(0.45, 0.1), (0.55, 0.3), (0.0, 0.2), (0.26, 0.8)], "hard", False),
    ]
    results = []
    for preds, difficulty, view_dep in rows:
        boxes = [ScoredBox(far if iou == 0.0 else cube_at_iou(iou), score)
                 for iou, score in preds]
        results.append(GroundingResult(predictions=boxes, gt_box=cube(),
                                       difficulty=difficulty, view_dep=view_dep))
    return results


def _reference_bucket_report(results, thresh):
    """Brute force: match_predictions for the flags, one more IoU per prediction."""
    per_result, diagnostics = [], []
    for res in results:
        flags, _ = match_predictions(res.predictions, [res.gt_box], thresh)
        scores = [p.score for p in res.predictions]
        ious = [box_iou_exact(p.box, res.gt_box) for p in res.predictions]
        ranked = np.argsort(-np.asarray(scores), kind="stable")
        hits = [r + 1 for r, i in enumerate(ranked) if flags[i]]
        per_result.append((res, flags, scores))
        diagnostics.append({"best_iou": max(ious), "top1_iou": ious[ranked[0]],
                            "first_hit_rank": hits[0] if hits else None,
                            "difficulty": res.difficulty, "view_dep": res.view_dep})
    bucket_ap, bucket_counts = {}, {}
    buckets = [("overall", lambda r: True),
               ("easy", lambda r: r.difficulty == "easy"),
               ("hard", lambda r: r.difficulty == "hard"),
               ("view_dep", lambda r: r.view_dep),
               ("view_indep", lambda r: not r.view_dep)]
    for name, keep in buckets:
        chosen = [(f, s) for r, f, s in per_result if keep(r)]
        flags = [x for f, _ in chosen for x in f]
        scores = [x for _, s in chosen for x in s]
        bucket_ap[name] = average_precision(flags, scores, num_gt=len(chosen))
        bucket_counts[name] = len(chosen)
    return bucket_ap, bucket_counts, diagnostics


def test_bucket_report_one_iou_per_prediction_matches_reference(monkeypatch):
    import egoground.evaluate as evaluate_mod
    results = _grounding_fixture()
    n_preds = sum(len(r.predictions) for r in results)
    thresholds = (0.25, 0.5)
    want = {t: _reference_bucket_report(results, t) for t in thresholds}
    calls = []

    def counting(a, b):
        calls.append(1)
        return box_iou_exact(a, b)

    monkeypatch.setattr(evaluate_mod, "box_iou_exact", counting)
    reports = {t: bucket_report(results, t) for t in thresholds}
    monkeypatch.undo()
    # one IoU per prediction across both thresholds, not per threshold
    assert len(calls) == n_preds
    for t in thresholds:
        report = reports[t]
        assert (report.bucket_ap, report.bucket_counts, report.diagnostics) == want[t]
        assert 0.0 < report.bucket_ap["overall"] < 1.0


def test_bucket_report_validation():
    with pytest.raises(ValueError):
        bucket_report([], 0.25)
    with pytest.raises(ValueError):
        bucket_report([_result(0.5, 0.5, "medium")], 0.25)


# ---------------------------------------------------------------------------
# detection evaluation
# ---------------------------------------------------------------------------


def test_evaluate_detection_per_class_and_map():
    res = DetectionResult(
        pred_boxes=[ScoredBox(cube_at_iou(0.7), 0.9), ScoredBox(cube_at_iou(0.05, y=4.0), 0.8)],
        pred_classes=[0, 1],
        gt_boxes=[cube(), cube(y=4.0)],
        gt_classes=[0, 1],
    )
    report = evaluate_detection([res], 0.25, num_classes=3)
    assert report.bucket_ap["class_0"] == 1.0
    assert report.bucket_ap["class_1"] == 0.0
    assert "class_2" not in report.bucket_ap  # no GT for class 2
    assert report.bucket_ap["mAP"] == 0.5


def _detection_fixture(seed=504, scenes=6, num_classes=3):
    """Seeded scenes of jittered, rotated predictions around same- and other-class truth."""
    rng = make_rng(seed)
    results = []
    for _ in range(scenes):
        n_gt = int(rng.integers(1, 6))
        gts = [cube(*rng.uniform(-1.5, 1.5, size=3), s=float(rng.uniform(0.8, 1.4)))
               for _ in range(n_gt)]
        gt_classes = [int(c) for c in rng.integers(0, num_classes, size=n_gt)]
        preds, pred_classes = [], []
        for _ in range(int(rng.integers(0, 9))):
            j = int(rng.integers(0, n_gt))
            base = gts[j]
            jit = rng.uniform(-0.6, 0.6, size=3)
            preds.append(ScoredBox(
                Box9DoF(base.x + jit[0], base.y + jit[1], base.z + jit[2],
                        base.l, base.w, base.h, float(rng.uniform(-0.4, 0.4)), 0.0, 0.0),
                float(rng.uniform(0.0, 1.0))))
            # mostly the class of the box it jitters, sometimes another
            keep = rng.uniform() < 0.75
            pred_classes.append(gt_classes[j] if keep
                                else int(rng.integers(0, num_classes)))
        results.append(DetectionResult(pred_boxes=preds, pred_classes=pred_classes,
                                       gt_boxes=gts, gt_classes=gt_classes))
    return results


def _reference_detection(results, thresh, num_classes):
    """Brute force: match_predictions per class and scene, as the protocol reads."""
    bucket_ap, aps = {}, []
    for cls in range(num_classes):
        flags, scores, num_gt = [], [], 0
        for res in results:
            gts = [b for b, c in zip(res.gt_boxes, res.gt_classes) if c == cls]
            preds = [p for p, c in zip(res.pred_boxes, res.pred_classes) if c == cls]
            num_gt += len(gts)
            flags.extend(match_predictions(preds, gts, thresh)[0])
            scores.extend(p.score for p in preds)
        if num_gt:
            bucket_ap[f"class_{cls}"] = average_precision(flags, scores, num_gt)
            aps.append(bucket_ap[f"class_{cls}"])
    bucket_ap["mAP"] = float(np.mean(aps))
    return bucket_ap


def test_evaluate_detection_reads_one_iou_table_per_scene(monkeypatch):
    import egoground.evaluate as evaluate_mod
    num_classes = 3
    results = _detection_fixture(num_classes=num_classes)
    thresholds = (0.25, 0.40, 0.50)
    want = {t: _reference_detection(results, t, num_classes) for t in thresholds}
    pairs = []

    def counting(a, b):
        pairs.append((id(a), id(b)))
        return box_iou_exact(a, b)

    monkeypatch.setattr(evaluate_mod, "box_iou_exact", counting)
    got = {t: evaluate_detection(results, t, num_classes) for t in thresholds}
    monkeypatch.undo()
    same_class = {(id(p.box), id(g)) for res in results
                  for p, pc in zip(res.pred_boxes, res.pred_classes)
                  for g, gc in zip(res.gt_boxes, res.gt_classes) if pc == gc}
    # every same-class pair once over all thresholds, no cross-class pair
    assert len(pairs) == len(set(pairs)) == len(same_class)
    assert set(pairs) == same_class
    for t in thresholds:
        assert got[t].bucket_ap == want[t], t
    assert got[0.25].bucket_ap["mAP"] > got[0.50].bucket_ap["mAP"] > 0.0
    for res in results:
        table = res.ious
        assert table.shape == (len(res.pred_boxes), len(res.gt_boxes))
        assert not table.flags.writeable
        for i, pc in enumerate(res.pred_classes):
            for j, gc in enumerate(res.gt_classes):
                assert np.isnan(table[i, j]) == (pc != gc)


def test_results_are_frozen_and_store_tuples():
    pred = ScoredBox(cube(), 0.5)
    grounding = GroundingResult(predictions=[pred], gt_box=cube())
    detection = DetectionResult(pred_boxes=[pred], pred_classes=[0],
                                gt_boxes=[cube()], gt_classes=[0])
    assert grounding.predictions == (pred,)
    assert (detection.pred_boxes, detection.pred_classes, detection.gt_boxes,
            detection.gt_classes) == ((pred,), (0,), (cube(),), (0,))
    for obj, name in ((pred, "score"), (grounding, "predictions"),
                      (detection, "pred_classes"), (cube(), "x")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


def test_evaluate_detection_validation():
    with pytest.raises(ValueError):
        evaluate_detection([], 0.25, num_classes=2)
    empty = DetectionResult(pred_boxes=[], pred_classes=[], gt_boxes=[], gt_classes=[])
    with pytest.raises(ValueError):
        evaluate_detection([empty], 0.25, num_classes=2)
    with pytest.raises(ValueError):
        DetectionResult(pred_boxes=[ScoredBox(cube(), 0.5)], pred_classes=[],
                        gt_boxes=[], gt_classes=[])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_format_report_layout():
    results = [_result(0.6, 0.9, "easy"), _result(0.05, 0.1, "hard", view_dep=True)]
    report = bucket_report(results, 0.25)
    text = format_report(report)
    lines = text.strip().split("\n")
    assert lines[0] == "grounding AP@0.25"
    assert lines[1].split() == ["bucket", "AP", "n"]
    assert lines[2].split() == ["overall", "0.5000", "2"]
    # fixed-width fields: header and every data row have the same length,
    # and the AP column parses as a float at the same slice in each row
    assert len({len(line) for line in lines[1:]}) == 1
    ap_slice = slice(len(lines[1]) - 15, len(lines[1]) - 7)
    for line in lines[2:]:
        float(line[ap_slice])


def test_save_report_round_trip(tmp_path):
    results = [_result(0.6, 0.9, "easy"), _result(0.05, 0.1, "hard")]
    report = bucket_report(results, 0.25)
    out = tmp_path / "report.json"
    save_report(report, out)
    data = json.loads(out.read_text())
    assert data["iou_thresh"] == 0.25
    assert data["buckets"]["overall"] == 0.5
    assert data["counts"]["easy"] == 1
    assert len(data["diagnostics"]) == 2
    table = out.with_suffix(".txt").read_text()
    assert "overall" in table and "0.5000" in table
    # identical inputs re-emit identical bytes
    out2 = tmp_path / "report2.json"
    save_report(bucket_report(results, 0.25), out2)
    assert out.read_bytes() == out2.read_bytes()


def test_report_to_dict_contains_all_buckets():
    results = [_result(0.6, 0.9, "easy"), _result(0.7, 0.4, "hard", view_dep=True)]
    report = bucket_report(results, 0.5)
    data = report_to_dict(report)
    assert set(data["buckets"]) == {"overall", "easy", "hard", "view_dep", "view_indep"}
