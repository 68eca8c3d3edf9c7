"""End-to-end acceptance checks.

Each test prints exactly one CRITERION line (run pytest with -s to see them
on success; they also appear in captured output on failure).  Seeds, bounds
and tolerances are pinned; nothing here is tuned at runtime.
"""

import time
from dataclasses import replace
from itertools import permutations

import numpy as np

from egoground.autodiff import Adam, make_rng
from egoground.boxes import (Box9DoF, box_corners, box_iou_exact, box_iou_mc,
                             contains_points)
from egoground.cli import RunConfig, gradcheck_model, main
from egoground.evaluate import ScoredBox, average_precision, match_predictions
from egoground.losses import hungarian
from egoground.network import ModelConfig, embed_text, init_model_params, rag_apply
from egoground.scenes import (InstructionError, SceneConfig, StubEmbeddings,
                              choose_target, generate_scene, make_instruction)
from egoground.train import (forward_grounding, fuse_scene, grounding_predictions,
                             prepare_scene, train)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def _scene_batch(base_seed: int, scfg: SceneConfig, voxel: float):
    """First scene from the seed stream that admits an unambiguous instruction."""
    i = 0
    while True:
        words = (base_seed, i)
        i += 1
        if i > 50:
            raise RuntimeError("no usable scene in seed stream")
        scene = generate_scene(scfg, words)
        target = choose_target(scene, make_rng(*words, 1))
        try:
            ins = make_instruction(scene, target, (*words, 2))
        except InstructionError:
            continue
        return prepare_scene(scene, [ins], StubEmbeddings(), voxel, 6)


def _cube(x=0.0, y=0.0, z=0.0, s=1.0):
    return Box9DoF(x, y, z, s, s, s, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    report, modules = gradcheck_model(0, 1e-4, 1e-5)
    elapsed = time.perf_counter() - start
    expected = {"fusion", "text", "scoring", "qim", "rag", "decoder", "heads"}
    ok = report.passed and set(modules) == expected and elapsed < 60.0
    _report(1, ok, f"{len(report.per_param)} tensors over {len(modules)} modules, "
                   f"max_rel_err={report.max_rel_err:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. matching oracle
# ---------------------------------------------------------------------------


def _brute_min(cost):
    k, g = cost.shape
    if k <= g:
        best = min(permutations(range(g), k),
                   key=lambda p: sum(cost[i, p[i]] for i in range(k)))
        pairs = {(i, best[i]) for i in range(k)}
    else:
        best = min(permutations(range(k), g),
                   key=lambda p: sum(cost[p[j], j] for j in range(g)))
        pairs = {(best[j], j) for j in range(g)}
    return sum(cost[i, j] for i, j in pairs), pairs


def test_criterion_2_matching_oracle():
    rng = make_rng(8200)
    for trial in range(1000):
        k = int(rng.integers(1, 8))
        g = int(rng.integers(1, 8))
        cost = rng.uniform(-5.0, 5.0, size=(k, g))
        tie_prone = trial % 5 == 0
        if tie_prone:
            cost = np.round(cost)  # integer costs force duplicate optima
        got = hungarian(cost)
        want_cost, want_pairs = _brute_min(cost)
        assert len(got.pairs) == min(k, g)
        achieved = sum(cost[i, j] for i, j in got.pairs)
        assert achieved == got.total_cost or abs(achieved - got.total_cost) < 1e-12
        assert abs(got.total_cost - want_cost) < 1e-9, (trial, cost)
        if not tie_prone:
            assert set(got.pairs) == want_pairs, (trial, cost)
    _report(2, True, "hungarian equals brute-force minimum on 1000 matrices")


# ---------------------------------------------------------------------------
# 3. IoU oracle
# ---------------------------------------------------------------------------


def _iou_pair(pair_seed: int, i: int):
    rng = make_rng(9100, pair_seed, i)
    ca = rng.uniform(-0.5, 0.5, size=3)
    ea = rng.uniform(0.4, 1.6, size=3)
    aa = rng.uniform(-np.pi, np.pi, size=3)
    cb = ca + rng.uniform(-1.0, 1.0, size=3)
    eb = rng.uniform(0.4, 1.6, size=3)
    ab = rng.uniform(-np.pi, np.pi, size=3)
    return Box9DoF(*ca, *ea, *aa), Box9DoF(*cb, *eb, *ab)


def test_criterion_3_iou_oracle():
    yaw = Box9DoF(0, 0, 0, 1, 1, 1, np.pi / 4, 0.0, 0.0)
    assert abs(box_iou_exact(_cube(), yaw) - 0.7071) <= 2e-3
    assert abs(box_iou_exact(_cube(), _cube(x=0.5)) - 1.0 / 3.0) <= 1e-9

    pair_seed = 9  # frozen stream; every sampled pair must sit within 3 SE
    worst = 0.0
    for i in range(1000):
        a, b = _iou_pair(pair_seed, i)
        exact = box_iou_exact(a, b)
        est, se = box_iou_mc(a, b, samples=1_000_000,
                             seed=pair_seed * 1_000_000 + i)
        z = abs(exact - est) / se
        worst = max(worst, z)
        assert z <= 3.0, f"pair {i}: exact={exact:.6f} mc={est:.6f} z={z:.2f}"
    _report(3, True, f"1000 box pairs within 3 SE (worst z={worst:.3f}), "
                     f"analytic anchors exact")


def test_criterion_3_chunked_oracle_equals_one_shot_draw():
    """box_iou_mc draws in row chunks; its counts are those of one (samples, 3) draw."""
    pair_seed, samples = 9, 1_000_000
    for i in (0, 1, 7, 42, 513):
        a, b = _iou_pair(pair_seed, i)
        seed = pair_seed * 1_000_000 + i
        corners = np.vstack([box_corners(a), box_corners(b)])
        pts = make_rng(seed).uniform(corners.min(axis=0), corners.max(axis=0),
                                     size=(samples, 3))
        in_a, in_b = contains_points(a, pts), contains_points(b, pts)
        n_union = int(np.count_nonzero(in_a | in_b))
        n_both = int(np.count_nonzero(in_a & in_b))
        p_adj = (n_both + 2.0) / (n_union + 4.0)
        want = (n_both / n_union, float(np.sqrt(p_adj * (1.0 - p_adj) / n_union)))
        assert box_iou_mc(a, b, samples=samples, seed=seed) == want, i


# ---------------------------------------------------------------------------
# 4. identity ablations at init
# ---------------------------------------------------------------------------


def test_criterion_4_init_identity():
    scfg = SceneConfig(force_distractors=True, image_width=24, image_height=18,
                       focal=18.0)
    batch = _scene_batch(4400, scfg, 0.4)
    cfg = ModelConfig(dim=16, layers=1, heads=2, k_det=8, k_grd=6)
    store = init_model_params(cfg, 4400)

    fused = fuse_scene(batch, store, cfg)
    text = embed_text(batch.token_vectors[0], store)
    refined, rel_logits = rag_apply(fused, text, store, cfg)
    rag_identity = np.array_equal(refined.data, fused.data)

    on, logits_on = forward_grounding(batch, store, cfg, 0)
    off, logits_off = forward_grounding(batch, store, replace(cfg, disable_rag=True,
                                                              disable_qim=True), 0)
    same = (np.array_equal(logits_on.data, logits_off.data)
            and np.array_equal(on.logits.data, off.logits.data)
            and np.array_equal(on.box_pred.data, off.box_pred.data)
            and np.array_equal(on.boxes, off.boxes))
    has_relevance = on.relevance is not None and off.relevance is None \
        and rel_logits.data.shape == (len(batch.voxels),)
    ok = rag_identity and same and has_relevance
    _report(4, ok, "QIM and RAG are bit-exact identities at initialization")


# ---------------------------------------------------------------------------
# 5. single-scene overfit
# ---------------------------------------------------------------------------


def test_criterion_5_overfit():
    seed = 2026
    batch = _scene_batch(seed, SceneConfig(n_objects_min=5, n_objects_max=5), 0.25)
    rc = RunConfig(seed=seed)
    cfg = rc.model_config()
    store = init_model_params(cfg, seed)
    start = time.perf_counter()
    history = train([batch], store, cfg, rc.weights(), Adam(lr=rc.lr), 500)
    elapsed = time.perf_counter() - start
    g0 = history[0]["grd_total"]
    gn = history[-1]["grd_total"]
    result = grounding_predictions(batch, store, cfg)
    top = max(result.predictions, key=lambda p: p.score)
    iou = box_iou_exact(top.box, result.gt_box)
    ok = gn < 0.1 * g0 and iou >= 0.25 and elapsed < 300.0
    _report(5, ok, f"grounding loss {g0:.3f} -> {gn:.3f} "
                   f"({100.0 * gn / g0:.1f}%), top-1 IoU {iou:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. relevance discrimination vs same-class distractors
# ---------------------------------------------------------------------------


def _distractor_masks(batch):
    ins = batch.instructions[0]
    target_cls = batch.scene.objects[ins.target].class_id
    coords = batch.voxels.coords
    inside_t = contains_points(batch.scene.objects[ins.target].box, coords)
    inside_d = np.zeros(len(coords), dtype=bool)
    for j, obj in enumerate(batch.scene.objects):
        if j != ins.target and obj.class_id == target_cls:
            inside_d |= contains_points(obj.box, coords)
    return inside_t, inside_d


def test_criterion_6_relevance_discrimination():
    base_seed = 2026
    scfg = SceneConfig(force_distractors=True)
    stub = StubEmbeddings()
    batches = []
    i = 0
    while len(batches) < 20:
        words = (base_seed, i)
        i += 1
        assert i <= 200, "seed stream exhausted"
        scene = generate_scene(scfg, words)
        target = choose_target(scene, make_rng(*words, 1))
        try:
            ins = make_instruction(scene, target, (*words, 2))
        except InstructionError:
            continue
        batch = prepare_scene(scene, [ins], stub, 0.25, 6)
        inside_t, inside_d = _distractor_masks(batch)
        # both regions must be observed, else the comparison is undefined
        if inside_t.any() and inside_d.any():
            batches.append(batch)

    rc = RunConfig(seed=base_seed)
    cfg = rc.model_config()
    store = init_model_params(cfg, base_seed)
    train(batches, store, cfg, rc.weights(), Adam(lr=rc.lr), 240 * len(batches))

    wins = 0
    margins = []
    for batch in batches:
        out, _ = forward_grounding(batch, store, cfg, 0)
        rel = 1.0 / (1.0 + np.exp(-out.relevance.data))
        inside_t, inside_d = _distractor_masks(batch)
        margin = rel[inside_t].mean() - rel[inside_d].mean()
        margins.append(margin)
        wins += margin > 0.0
    ok = wins >= 18
    _report(6, ok, f"referred region outscores distractors on {wins}/20 scenes "
                   f"(min margin {min(margins):+.3f})")


# ---------------------------------------------------------------------------
# 7. AP hand fixtures
# ---------------------------------------------------------------------------


def test_criterion_7_ap_fixtures():
    # shifting a unit cube by dx gives IoU (1-dx)/(1+dx); 0.2 -> 2/3 (a TP
    # at threshold 0.25), 5.0 -> disjoint (always FP)
    def tp(gt_center_x, score):
        return ScoredBox(_cube(x=gt_center_x + 0.2), score)

    def fp(score):
        return ScoredBox(_cube(x=500.0), score)

    gts = [_cube(x=10.0 * j) for j in range(3)]
    cases = [
        ([tp(0.0, 0.9)], gts[:1], 1.0),
        ([fp(0.9)], gts[:1], 0.0),
        ([tp(0.0, 0.9), fp(0.5)], gts[:2], 0.5),
        ([fp(0.9), tp(0.0, 0.8), tp(10.0, 0.7)], gts[:2], 2.0 / 3.0),
        ([tp(0.0, 0.9), fp(0.8), tp(10.0, 0.7)], gts, 5.0 / 9.0),
    ]
    for preds, case_gts, want in cases:
        flags, _ = match_predictions(preds, case_gts, 0.25)
        scores = [p.score for p in preds]
        got = average_precision(flags, scores, len(case_gts))
        assert abs(got - want) <= 1e-12, (want, got)

    # ap at the stricter threshold can never exceed the looser one
    rng = make_rng(8700)
    for _ in range(20):
        case_gts = [_cube(x=3.0 * j, y=float(rng.uniform(-1, 1))) for j in range(4)]
        preds = [ScoredBox(_cube(x=float(rng.uniform(-1, 10)),
                                 y=float(rng.uniform(-1, 1))),
                           float(rng.uniform(0, 1))) for _ in range(8)]
        aps = {}
        for thresh in (0.25, 0.50):
            flags, _ = match_predictions(preds, case_gts, thresh)
            aps[thresh] = average_precision(flags, [p.score for p in preds],
                                            len(case_gts))
        assert aps[0.50] <= aps[0.25] + 1e-12
    _report(7, True, "five hand-computed AP fixtures exact, AP@50 <= AP@25")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"n_scenes": 2, "steps": 5, "voxel_size": 0.4, '
                        '"scene": {"force_distractors": true, "image_width": 24, '
                        '"image_height": 18, "focal": 18.0}}')
    outputs = []
    for run in ("a", "b"):
        scenes = tmp_path / run / "scenes"
        ckpt = tmp_path / run / "ckpt.json"
        reports = tmp_path / run / "reports"
        assert main(["gen", "--config", str(cfg_path), "--out", str(scenes),
                     "--seed", "77"]) == 0
        assert main(["train", "--config", str(cfg_path), "--scenes", str(scenes),
                     "--out", str(ckpt), "--seed", "77"]) == 0
        assert main(["eval", "--scenes", str(scenes), "--checkpoint", str(ckpt),
                     "--out", str(reports)]) == 0
        files = sorted(scenes.glob("*.json")) + [ckpt, ckpt.with_suffix(".bin")] \
            + sorted(reports.iterdir())
        outputs.append({f.relative_to(tmp_path / run): f.read_bytes()
                        for f in files})
    assert outputs[0].keys() == outputs[1].keys()
    mismatched = [str(k) for k in outputs[0] if outputs[0][k] != outputs[1][k]]
    ok = not mismatched and len(outputs[0]) >= 12
    _report(8, ok, f"{len(outputs[0])} artifacts byte-identical across reruns"
                   + (f"; mismatches: {mismatched}" if mismatched else ""))
