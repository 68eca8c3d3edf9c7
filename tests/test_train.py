"""Scene preparation, joint objective, training loop and prediction wrappers."""

import gc
import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

import egoground.geometry
import egoground.train
from egoground.autodiff import Adam, NonFiniteError, Tensor, make_rng
from egoground.boxes import Box9DoF, contains_points
from egoground.geometry import VoxelFeatureSet
from egoground.losses import LossWeights, total_loss
from egoground.network import ModelConfig, init_model_params
from egoground.scenes import (
    CLASS_NAMES,
    FEAT2D_DIM,
    TEXT_DIM,
    SceneConfig,
    StubEmbeddings,
    choose_target,
    generate_scene,
    make_instruction,
)
from egoground.train import (
    SceneBatch,
    TrainingDiverged,
    _detection_body,
    _grounding_body,
    detection_predictions,
    forward_detection,
    forward_grounding,
    fuse_scene,
    grounding_predictions,
    prepare_scene,
    train,
    training_losses,
)

CFG = ModelConfig(dim=16, layers=1, heads=2, k_det=12, k_grd=8)
NUM_CLASSES = len(CLASS_NAMES)
WEIGHTS = LossWeights()


def small_batch(seed=21, force_distractors=True):
    cfg = SceneConfig(n_objects_min=3, n_objects_max=4,
                      force_distractors=force_distractors,
                      image_width=24, image_height=18, focal=18.0)
    stub = StubEmbeddings()
    rng = make_rng(99)
    for attempt in range(20):
        scene = generate_scene(cfg, (seed, attempt))
        try:
            ins = make_instruction(scene, choose_target(scene, rng), (seed, attempt, 1))
        except Exception:
            continue
        return prepare_scene(scene, [ins], stub, voxel_size=0.4,
                             num_classes=NUM_CLASSES)
    raise RuntimeError("no usable scene found")


BATCH = small_batch()


def test_prepare_scene_labels_match_containment():
    batch = BATCH
    n = len(batch.voxels)
    onehot = batch.class_onehot
    assert onehot.shape == (n, NUM_CLASSES)
    assert set(np.unique(onehot)) <= {0.0, 1.0} and (onehot.sum(axis=1) <= 1.0).all()
    for obj in batch.scene.objects:
        inside = contains_points(obj.box, batch.voxels.coords)
        assert (onehot[inside, obj.class_id] == 1.0).all()
        assert (batch.voxel_classes[inside] == obj.class_id).all()
    outside_all = np.ones(n, dtype=bool)
    for obj in batch.scene.objects:
        outside_all &= ~contains_points(obj.box, batch.voxels.coords)
    assert (onehot[outside_all] == 0.0).all()
    assert (batch.voxel_classes[outside_all] == -1).all()
    # some voxels must be foreground for the scene to be trainable
    assert batch.foreground == int(onehot.sum()) == int((~outside_all).sum()) > 0
    labels = batch.grd_targets[0].relevance_labels
    target_box = batch.scene.objects[batch.instructions[0].target].box
    assert np.array_equal(labels, contains_points(target_box, batch.voxels.coords))
    assert labels.sum() >= 1


def test_prepare_scene_feature_shapes():
    batch = BATCH
    assert batch.voxels.features.shape == (len(batch.voxels), FEAT2D_DIM)
    assert batch.image_features.shape == (len(batch.voxels), FEAT2D_DIM)
    assert batch.token_vectors[0].shape == (len(batch.instructions[0].tokens),
                                            TEXT_DIM)
    assert len(batch.det_targets.boxes) == len(batch.scene.objects)
    assert np.array_equal(batch.det_targets.boxes,
                          [o.box.as_params() for o in batch.scene.objects])
    assert batch.det_targets.columns == [o.class_id for o in batch.scene.objects]
    target = batch.instructions[0].target
    assert np.array_equal(batch.grd_targets[0].boxes, batch.det_targets.boxes[[target]])
    assert batch.grd_targets[0].columns == [0]


@pytest.mark.parametrize("class_id", [-1, NUM_CLASSES])
def test_prepare_scene_rejects_out_of_range_class(class_id):
    scene = BATCH.scene
    objects = list(scene.objects)
    objects[1] = replace(objects[1], class_id=class_id)
    with pytest.raises(ValueError, match=f"object 1 has class {class_id}"):
        prepare_scene(replace(scene, objects=objects), BATCH.instructions, StubEmbeddings(),
                      voxel_size=0.4, num_classes=NUM_CLASSES)


def test_forward_shapes_and_k_clamp():
    store = init_model_params(CFG, seed=1)
    out, logits = forward_detection(BATCH, store, CFG)
    n = len(BATCH.voxels)
    assert logits.shape == (n, NUM_CLASSES)
    assert out.logits.shape == (min(CFG.k_det, n), NUM_CLASSES)

    big = ModelConfig(dim=16, layers=1, heads=2, k_det=10 ** 6, k_grd=10 ** 6)
    out, _ = forward_detection(BATCH, store, big)
    assert len(out.boxes) == n  # clamped to the voxel count

    gout, glogits = forward_grounding(BATCH, store, CFG)
    assert gout.logits.shape == (min(CFG.k_grd, n), 1)
    assert gout.relevance.shape == (n,)
    assert glogits.shape == (n, 1)
    for bad in (5, -1):
        with pytest.raises(IndexError):
            forward_grounding(BATCH, store, CFG, instruction_idx=bad)
        with pytest.raises(IndexError):
            training_losses(BATCH, store, CFG, WEIGHTS, instruction_idx=bad)


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_prepare_scene_samples_views_once(monkeypatch):
    calls = _count_calls(monkeypatch, egoground.train, ["sample_views"])
    small_batch()
    assert calls == {"sample_views": 1}
    assert "views" not in SceneBatch.__dataclass_fields__


def test_training_step_builds_one_trunk(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("2D views sampled during a training step")

    monkeypatch.setattr(egoground.geometry, "sample_views", no_sampling)
    monkeypatch.setattr(egoground.train, "sample_views", no_sampling)
    calls = _count_calls(monkeypatch, egoground.train, ["encode_voxels", "fuse_features"])
    built = []
    monkeypatch.setattr(VoxelFeatureSet, "__post_init__", built.append)
    store = init_model_params(CFG, seed=2)
    training_losses(BATCH, store, CFG, WEIGHTS)
    assert calls == {"encode_voxels": 1, "fuse_features": 1}
    assert built == []  # the trunk is a plain tensor; only voxelize builds a voxel set


def test_training_losses_run_the_task_forwards():
    # the shared trunk changes nothing in the forward values
    store = init_model_params(CFG, seed=2)
    _, parts = training_losses(BATCH, store, CFG, WEIGHTS)
    det_out, _ = forward_detection(BATCH, store, CFG)
    grd_out, _ = forward_grounding(BATCH, store, CFG)
    assert parts["det_total"] == total_loss(det_out, BATCH.det_targets, WEIGHTS.lambda_cls,
                                            WEIGHTS)[1].total
    assert parts["grd_total"] == total_loss(grd_out, BATCH.grd_targets[0],
                                            WEIGHTS.lambda_ground, WEIGHTS)[1].total


def _tape_nodes(loss):
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def test_training_losses_golden():
    # bit-exact values recorded while detection and grounding still had separate
    # loss functions; a change to the loss arithmetic or its op order breaks them
    det = {"det_total": "0x1.927d52fa8635ep+3", "det_cls": "0x1.5beec6f4cea02p+1",
           "det_box": "0x1.3b81a13d528ddp+3", "grd_cls": "0x1.17dce694171a2p-1",
           "grd_box": "0x1.2663969369fcfp+3", "aux_det": "0x1.210fa7a53642bp+1",
           "aux_grd": "0x1.2a061e7bd6e8bp-1"}
    want = {
        True: {**det, "total": "0x1.92b9d4160d79fp+4", "grd_total": "0x1.3812096089bedp+3",
               "grd_spatial": "0x1.3003702d75b74p-1"},
        False: {**det, "total": "0x1.92a181e41e51dp+4", "grd_total": "0x1.37e164fcab6e9p+3",
                "grd_spatial": "0x0.0p+0"},
    }
    for use_rag in (True, False):
        store = init_model_params(CFG, seed=2)
        cfg = replace(CFG, disable_rag=not use_rag)
        loss, parts = training_losses(BATCH, store, cfg, WEIGHTS)
        assert {k: v.hex() for k, v in parts.items()} == want[use_rag]
        if use_rag:
            assert _tape_nodes(loss) == 209


def test_training_bytes_golden():
    # 24 `train` steps on the test batch, pinned to the parameter bytes and
    # each step's loss: a change to any forward or gradient byte, to the
    # order gradients are summed in or to the optimizer's arithmetic shows here
    store = init_model_params(CFG, seed=4)
    history = train([BATCH], store, CFG, WEIGHTS, Adam(lr=3e-3), steps=24)
    assert [entry["total"].hex() for entry in history] == [
        '0x1.1918bfa9bd716p+5', '0x1.7a947f64e3dc8p+4', '0x1.2e8886d3f3005p+4',
        '0x1.1730f2facb21fp+4', '0x1.0becaffd386f5p+4', '0x1.05afea386b8a7p+4',
        '0x1.f489ab43446cbp+3', '0x1.d1e4670ebe0d7p+3', '0x1.b8ce928ae124bp+3',
        '0x1.a8e2564568632p+3', '0x1.80a349e19f081p+3', '0x1.8205576e0392ap+3',
        '0x1.750960d8be375p+3', '0x1.5f0d2ff7b201fp+3', '0x1.4d87d73184f23p+3',
        '0x1.39bd224682a6dp+3', '0x1.2f5a52ec44062p+3', '0x1.1d2d9bb9a1b48p+3',
        '0x1.23f8e440a2ecap+3', '0x1.18294b1873d8fp+3', '0x1.0baa6e0e70a17p+3',
        '0x1.04c354423cf26p+3', '0x1.ed40051faf225p+2', '0x1.d6841456c42d7p+2',
    ]
    assert hashlib.sha256(store.data.tobytes()).hexdigest() == \
        "e9680228f855aa70294b08d116a38d892dbaefeea38cd911053ec501a79b764b"


def test_training_losses_breakdown_sums():
    store = init_model_params(CFG, seed=2)
    loss, parts = training_losses(BATCH, store, CFG, WEIGHTS)
    assert np.isfinite(loss.item())
    expect = parts["det_total"] + parts["grd_total"] + parts["aux_det"] + parts["aux_grd"]
    assert abs(parts["total"] - expect) < 1e-9
    assert loss.item() == parts["total"]


def test_disable_qim_identical_at_init():
    store = init_model_params(CFG, seed=3)
    loss_on, _ = training_losses(BATCH, store, CFG, WEIGHTS)
    loss_off, _ = training_losses(BATCH, store, replace(CFG, disable_qim=True), WEIGHTS)
    assert loss_on.item() == loss_off.item()  # bit exact


def test_disable_rag_at_init_differs_only_by_spatial():
    store = init_model_params(CFG, seed=3)
    no_rag = replace(CFG, disable_rag=True)
    out_on, _ = forward_grounding(BATCH, store, CFG)
    out_off, _ = forward_grounding(BATCH, store, no_rag)
    # decoder path identical at init (zeroed residual branch)
    assert np.array_equal(out_on.logits.data, out_off.logits.data)
    assert out_off.relevance is None

    loss_on, parts_on = training_losses(BATCH, store, CFG, WEIGHTS)
    loss_off, parts_off = training_losses(BATCH, store, no_rag, WEIGHTS)
    gap = WEIGHTS.lambda_spatial * parts_on["grd_spatial"]
    assert abs((loss_on.item() - loss_off.item()) - gap) < 1e-12


def test_train_deterministic_and_learning():
    def run():
        store = init_model_params(CFG, seed=4)
        hist = train([BATCH], store, CFG, WEIGHTS, Adam(lr=3e-3), steps=25)
        return store, hist

    s1, h1 = run()
    s2, h2 = run()
    assert h1 == h2
    for name in s1.names():
        assert np.array_equal(s1[name].data, s2[name].data)
    assert len(h1) == 25
    assert h1[0]["step"] == 0 and h1[-1]["step"] == 24
    assert h1[-1]["total"] < h1[0]["total"]


def test_train_zero_steps_keeps_init():
    store = init_model_params(CFG, seed=5)
    ref = {n: store[n].data.copy() for n in store.names()}
    hist = train([BATCH], store, CFG, WEIGHTS, Adam(lr=1e-2), steps=0)
    assert hist == []
    for name, data in ref.items():
        assert np.array_equal(store[name].data, data)


def test_train_validation():
    store = init_model_params(CFG, seed=5)
    with pytest.raises(ValueError):
        train([], store, CFG, WEIGHTS, Adam(lr=1e-2), steps=1)
    with pytest.raises(ValueError):
        train([BATCH], store, CFG, WEIGHTS, Adam(lr=1e-2), steps=-1)


def test_divergence_aborts_with_step():
    store = init_model_params(CFG, seed=6)
    store["head_box.1.w"].data[:] = 1e200  # forces exp overflow in box decode
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged) as err:
            train([BATCH], store, CFG, WEIGHTS, Adam(lr=1e-3), steps=3)
    assert err.value.step == 0
    assert "step 0" in str(err.value)


@pytest.mark.parametrize("bias", [-800.0, 800.0])
def test_collapsed_or_exploded_extents_diverge(bias):
    # exp(-800) underflows to a zero extent, exp(800) overflows to inf; both
    # are a divergence at step 0, reported without a numpy warning
    store = init_model_params(CFG, seed=6)
    store["head_box.1.b"].data[3:6] = bias
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="box extents") as err:
            train([BATCH], store, CFG, WEIGHTS, Adam(lr=1e-3), steps=3)
    assert err.value.step == 0


def test_non_finite_gradient_diverges_before_the_update(monkeypatch):
    # a NaN gradient is caught by the one whole-arena test of the step that
    # made it, named by the first bad parameter in arena order, and the
    # optimizer never applies it
    backward = Tensor.backward
    store = init_model_params(CFG, seed=6)
    train([BATCH], store, CFG, WEIGHTS, Adam(lr=1e-3), steps=1)
    after_one = store.data.copy()
    store = init_model_params(CFG, seed=6)
    calls = []

    def poisoned(self):
        backward(self)
        calls.append(1)
        if len(calls) == 2:
            for name in ("head_grd.1.b", "dec0.ffn2.w"):
                store[name].grad.reshape(-1)[-1] = np.nan

    monkeypatch.setattr(Tensor, "backward", poisoned)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match=r"at step 1: non-finite gradient in "
                                                   r"parameter 'dec0\.ffn2\.w'") as err:
            train([BATCH], store, CFG, WEIGHTS, Adam(lr=1e-3), steps=3)
    assert err.value.step == 1
    assert store.data.tobytes() == after_one.tobytes()


@pytest.mark.parametrize("task, param, output", [
    ("detection", "head_det.1.b", "logits"),
    ("detection", "head_box.1.b", "boxes"),
    ("grounding", "relevance.1.b", "relevance"),
    ("grounding", "score_grd.1.b", "scoring logits"),
])
def test_non_finite_inference_output_is_named(task, param, output):
    store = init_model_params(CFG, seed=8)
    store[param].data[0] = np.nan
    forward = forward_detection if task == "detection" else forward_grounding
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=rf"^{task} forward: non-finite {output}$"):
            forward(BATCH, store, CFG)


def test_boxes_become_objects_only_where_they_leave_the_model(monkeypatch):
    built = []
    post_init = Box9DoF.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Box9DoF, "__post_init__", counted)
    cfg = ModelConfig()  # k_det 32, k_grd 16
    assert len(BATCH.voxels) >= cfg.k_det
    store = init_model_params(cfg, seed=10)
    loss, _ = training_losses(BATCH, store, cfg, WEIGHTS)
    loss.backward()
    assert len(built) == 0
    forward_grounding(BATCH, store, cfg)
    assert len(built) == 0
    detection_predictions(BATCH, store, cfg)
    grounding_predictions(BATCH, store, cfg)
    assert len(built) == cfg.k_det + cfg.k_grd == 48


def test_step_and_forward_leave_no_cyclic_garbage():
    # No tape node is in a reference cycle, so dropping the loss (or the
    # forward output) frees the whole graph and the cyclic collector finds
    # nothing to collect.
    store = init_model_params(CFG, seed=9)
    optimizer = Adam(lr=1e-3)
    gc.collect()
    gc.disable()
    try:
        loss, _ = training_losses(BATCH, store, CFG, WEIGHTS, 0)
        loss.backward()
        optimizer.step(store)
        del loss
        assert gc.collect() == 0
        out = forward_grounding(BATCH, store, CFG, 0)
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_train_logs_each_step():
    store = init_model_params(CFG, seed=7)
    seen = []
    train([BATCH], store, CFG, WEIGHTS, Adam(lr=3e-3), steps=4,
          log=lambda e: seen.append(e["step"]))
    assert seen == [0, 1, 2, 3]


def test_prediction_wrappers():
    store = init_model_params(CFG, seed=8)
    g = grounding_predictions(BATCH, store, CFG)
    n = len(BATCH.voxels)
    assert len(g.predictions) == min(CFG.k_grd, n)
    assert all(0.0 < p.score < 1.0 for p in g.predictions)
    ins = BATCH.instructions[0]
    assert g.difficulty == ins.difficulty and g.view_dep == ins.view_dep
    gt = BATCH.scene.objects[ins.target].box
    assert np.array_equal(g.gt_box.as_params(), gt.as_params())

    d = detection_predictions(BATCH, store, CFG)
    assert len(d.pred_boxes) == min(CFG.k_det, n)
    assert len(d.pred_classes) == len(d.pred_boxes)
    assert all(0 <= c < NUM_CLASSES for c in d.pred_classes)
    assert d.gt_classes == tuple(o.class_id for o in BATCH.scene.objects)


def test_prediction_wrappers_run_untaped_with_taped_values(monkeypatch):
    # The inference forwards record no tape, and the wrappers' boxes and
    # scores are bit-identical to those read off a recorded forward.
    store = init_model_params(CFG, seed=8)
    fused = fuse_scene(BATCH, store, CFG)
    det_out, _ = _detection_body(fused, BATCH, store, CFG)
    grd_out, _ = _grounding_body(fused, BATCH, store, CFG, 0)
    assert det_out.centers._parents and grd_out.centers._parents
    seen = []

    def spy(forward):
        def run(*args, **kwargs):
            out, logits = forward(*args, **kwargs)
            seen.append((out, logits))
            return out, logits
        return run

    monkeypatch.setattr(egoground.train, "forward_detection", spy(forward_detection))
    monkeypatch.setattr(egoground.train, "forward_grounding", spy(forward_grounding))
    d = detection_predictions(BATCH, store, CFG)
    g = grounding_predictions(BATCH, store, CFG)
    assert len(seen) == 2
    for out, logits in seen:
        assert out.centers._parents == () and logits._parents == ()
    for preds, out in ((d.pred_boxes, det_out), (g.predictions, grd_out)):
        assert [p.box.as_params().tobytes() for p in preds] == \
            [row.tobytes() for row in out.boxes]
    assert d.pred_classes == tuple(int(c) for c in det_out.logits.data.argmax(axis=1))
    assert [p.score for p in g.predictions] == \
        [float(s) for s in egoground.train._sigmoid(grd_out.logits.data[:, 0])]
